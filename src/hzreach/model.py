"""Closed-loop ReLU RNN: exact floating-point semantics, simulation, JSON I/O.

The network stacks L ReLU hidden layers whose ReLU output feeds back as the
next state:

    h_t^(0)   = x_t
    h_t^(l)   = relu(Wh^(l) @ h_{t-1}^(l) + Wx^(l) @ h_t^(l-1) + vh^(l))
    x_{t+1}   = relu(Wy @ h_t^(L) + vy)

with all initial hidden states zero.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np


def _relu(v: np.ndarray) -> np.ndarray:
    return np.maximum(v, 0.0)


def _as_matrix(value, name: str) -> np.ndarray:
    M = np.asarray(value, dtype=float)
    if M.ndim != 2:
        raise ValueError(f"{name} must be a 2-D matrix")
    if not np.all(np.isfinite(M)):
        raise ValueError(f"{name} contains non-finite entries")
    return M


def _as_vector(value, name: str) -> np.ndarray:
    v = np.asarray(value, dtype=float).reshape(-1)
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite entries")
    return v


@dataclass(frozen=True)
class RnnLayer:
    """One hidden layer: Wh (width x width), Wx (width x input), vh (width)."""

    Wh: np.ndarray
    Wx: np.ndarray
    vh: np.ndarray

    def __post_init__(self):
        Wh = _as_matrix(self.Wh, "Wh")
        Wx = _as_matrix(self.Wx, "Wx")
        vh = _as_vector(self.vh, "vh")
        if Wh.shape[0] != Wh.shape[1]:
            raise ValueError(f"Wh must be square, got {Wh.shape}")
        if Wx.shape[0] != Wh.shape[0] or vh.size != Wh.shape[0]:
            raise ValueError("Wh, Wx and vh row counts must agree")
        object.__setattr__(self, "Wh", Wh)
        object.__setattr__(self, "Wx", Wx)
        object.__setattr__(self, "vh", vh)

    @property
    def width(self) -> int:
        return self.vh.size

    @property
    def input_dim(self) -> int:
        return self.Wx.shape[1]


@dataclass(frozen=True)
class ClosedLoopRnn:
    """Stacked ReLU RNN whose output layer feeds back as the next state."""

    layers: tuple[RnnLayer, ...]
    Wy: np.ndarray
    vy: np.ndarray

    def __post_init__(self):
        layers = tuple(self.layers)
        if not layers:
            raise ValueError("at least one hidden layer is required")
        Wy = _as_matrix(self.Wy, "Wy")
        vy = _as_vector(self.vy, "vy")
        n = layers[0].input_dim
        for idx, (prev, cur) in enumerate(zip(layers, layers[1:]), start=2):
            if cur.input_dim != prev.width:
                raise ValueError(f"layer {idx} expects input width {cur.input_dim}, "
                                 f"previous layer has width {prev.width}")
        if Wy.shape[1] != layers[-1].width:
            raise ValueError("Wy column count must match the last layer width")
        if Wy.shape[0] != n or vy.size != n:
            raise ValueError("output dimension must equal the state dimension "
                             "(the output feeds back as the next state)")
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "Wy", Wy)
        object.__setattr__(self, "vy", vy)

    @property
    def state_dim(self) -> int:
        return self.layers[0].input_dim

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def widths(self) -> tuple[int, ...]:
        return tuple(layer.width for layer in self.layers)

    def zero_hidden(self) -> list[np.ndarray]:
        return [np.zeros(layer.width) for layer in self.layers]

    def unroll(self, x, steps: int, affine, relu, hidden=None):
        """The closed-loop recursion over values of any kind (states,
        intervals, linear bounds, sets), one step at a time: yields
        (t, x_{t+1}, hidden) for t = 1..steps, where hidden holds h_t^(l)
        per layer.

        ``affine(inp, Wx, v, h, Wh)`` is Wx @ inp + Wh @ h + v, with h None
        where no recurrent term enters: the output layer, and every layer at
        step 1 unless ``hidden`` gives the hidden states to start from (by
        default they start at zero).  ``relu(pre, t, layer)`` activates
        stage (t, layer); the output stage is layer L+1.
        """
        for t in range(1, steps + 1):
            inp, new = x, []
            for k, layer in enumerate(self.layers):
                h = None if hidden is None else hidden[k]
                inp = relu(affine(inp, layer.Wx, layer.vh, h, layer.Wh), t, k + 1)
                new.append(inp)
            x = relu(affine(inp, self.Wy, self.vy, None, None), t, self.num_layers + 1)
            hidden = new
            yield t, x, hidden


@dataclass(frozen=True)
class Trajectory:
    """States x_1..x_T plus the hidden states produced while computing them."""

    states: np.ndarray                       # (T, n)
    hidden: tuple = field(repr=False)        # hidden[t-1][l-1] = h_t^(l), t in [T-1]

    @property
    def horizon(self) -> int:
        return self.states.shape[0]

    def hidden_at(self, t: int, layer: int) -> np.ndarray:
        """h_t^(layer); layer 0 returns the step-t layer-0 input x_t."""
        if layer == 0:
            if not 1 <= t <= self.horizon:
                raise IndexError(f"step {t} outside recorded range 1..{self.horizon}")
            return self.states[t - 1]
        if not 1 <= t <= len(self.hidden):
            raise IndexError(f"step {t} outside recorded hidden range 1..{len(self.hidden)}")
        if not 1 <= layer <= len(self.hidden[t - 1]):
            raise IndexError(f"layer {layer} out of range")
        return self.hidden[t - 1][layer - 1]


def _affine(inp, Wx, v, h, Wh):
    return Wx @ inp + v if h is None else Wh @ h + Wx @ inp + v


def _activate(pre, t, layer):
    return _relu(pre)


def step(m: ClosedLoopRnn, x: np.ndarray, hidden: list[np.ndarray]):
    """One closed-loop step: layers 1..L in order, then the ReLU output.

    Returns:
        (next_state, next_hidden) where next_hidden holds h_t^(l) per layer.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != m.state_dim:
        raise ValueError(f"state has length {x.size}, expected {m.state_dim}")
    if len(hidden) != m.num_layers:
        raise ValueError("hidden state list length must equal the layer count")
    _, next_state, new_hidden = next(m.unroll(x, 1, _affine, _activate, hidden))
    return next_state, new_hidden


def simulate(m: ClosedLoopRnn, x1: np.ndarray, T: int) -> Trajectory:
    """Closed-loop trajectory x_1..x_T with hidden state carried across steps."""
    if T < 1:
        raise ValueError("horizon must be at least 1")
    x = np.asarray(x1, dtype=float).reshape(-1)
    if x.size != m.state_dim:
        raise ValueError(f"state has length {x.size}, expected {m.state_dim}")
    states = [x]
    hidden_snapshots = []
    for _, x, hidden in m.unroll(x, T - 1, _affine, _activate):
        hidden_snapshots.append(tuple(hidden))
        states.append(x)
    return Trajectory(np.array(states), tuple(hidden_snapshots))


# -- JSON model format -------------------------------------------------------
#
# {"state_dim": n,
#  "layers": [{"Wh": [[...]], "Wx": [[...]], "vh": [...]}, ...],
#  "Wy": [[...]], "vy": [...]}

def _require(d: dict, key: str, where: str):
    if not isinstance(d, dict):
        raise ValueError(f"model JSON {where} must be an object")
    if key not in d:
        raise ValueError(f"model JSON missing field '{key}' in {where}")
    return d[key]


def json_floats(value, what: str) -> np.ndarray:
    """A JSON number or nested lists of them as a float array.  Any other
    entry raises ValueError naming ``what``: ``np.asarray`` would read true
    as 1.0, "2" as 2.0 and null as nan."""
    stack = [value]
    while stack:
        v = stack.pop()
        if isinstance(v, list):
            stack.extend(reversed(v))
        elif isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ValueError(f"{what} must hold numbers, got {v!r}")
    return np.asarray(value, dtype=float)


def _block(d: dict, key: str, where: str) -> np.ndarray:
    """A weight or bias block of the model JSON as a float array."""
    return json_floats(_require(d, key, where), f"model JSON field '{key}' in {where}")


def model_to_dict(m: ClosedLoopRnn) -> dict:
    return {
        "state_dim": m.state_dim,
        "layers": [{"Wh": l.Wh.tolist(), "Wx": l.Wx.tolist(), "vh": l.vh.tolist()}
                   for l in m.layers],
        "Wy": m.Wy.tolist(),
        "vy": m.vy.tolist(),
    }


def model_from_dict(d: dict) -> ClosedLoopRnn:
    state_dim = _require(d, "state_dim", "top level")
    if isinstance(state_dim, bool) or not isinstance(state_dim, int):
        raise ValueError(f"model JSON field 'state_dim' must be an integer, got {state_dim!r}")
    raw_layers = _require(d, "layers", "top level")
    if not isinstance(raw_layers, list) or not raw_layers:
        raise ValueError("model JSON field 'layers' must be a non-empty list")
    layers = []
    for k, entry in enumerate(raw_layers, start=1):
        where = f"layers[{k - 1}]"
        layers.append(RnnLayer(*(_block(entry, key, where) for key in ("Wh", "Wx", "vh"))))
    m = ClosedLoopRnn(tuple(layers), _block(d, "Wy", "top level"),
                      _block(d, "vy", "top level"))
    if m.state_dim != state_dim:
        raise ValueError(f"field 'state_dim' is {state_dim} but layers[0].Wx "
                         f"has {m.state_dim} columns")
    return m


def save_model(m: ClosedLoopRnn, path) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_dict(m), fh)


def load_model(path) -> ClosedLoopRnn:
    with open(path) as fh:
        return model_from_dict(json.load(fh))
