"""Hybrid-zonotope reachability and safety verification of closed-loop ReLU RNNs."""

from .bounds import BoundsTable, propagate_intervals
from .errors import (EmptyDomainError, EmptySeedError, EmptySetError, HzReachError,
                     LeafLimitError, NotUnstableError, PrefixMismatchError)
from .intervals import IntervalVector
from .lp import (LpProblem, MilpProblem, SolveResult, SolveStatus, lp_solve,
                 milp_solve)
from .model import (ClosedLoopRnn, RnnLayer, Trajectory, load_model, save_model,
                    simulate, step)
from .reach import (PlanEntry, ReachSeries, RelaxationPlan, brs, exact_plan, frs,
                    predict_complexity, predicted_for_step, rank_unstable, state_pairs)
from .relu import NeuronInterval, graph_interval, graph_triangle, relu_layer_graph
from .sets import FEAS_TOL, ComplexityRecord, HybridZonotope
from .verify import (Safety, SafetyVerdict, UnsafeSequenceSet, unsafe_sequences,
                     verify_backward, verify_forward)

__version__ = "0.1.0"

__all__ = [
    "BoundsTable", "ClosedLoopRnn", "ComplexityRecord", "EmptyDomainError",
    "EmptySeedError", "EmptySetError", "FEAS_TOL", "HybridZonotope",
    "HzReachError", "IntervalVector", "LeafLimitError", "LpProblem", "MilpProblem",
    "NeuronInterval", "NotUnstableError", "PlanEntry", "PrefixMismatchError",
    "ReachSeries", "RelaxationPlan", "RnnLayer", "Safety", "SafetyVerdict",
    "SolveResult", "SolveStatus", "Trajectory", "UnsafeSequenceSet", "brs",
    "exact_plan", "frs", "graph_interval", "graph_triangle",
    "load_model", "lp_solve", "milp_solve", "predict_complexity",
    "predicted_for_step", "propagate_intervals", "rank_unstable",
    "relu_layer_graph", "save_model", "simulate", "state_pairs", "step",
    "unsafe_sequences", "verify_backward", "verify_forward",
]
