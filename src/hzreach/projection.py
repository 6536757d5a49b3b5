"""2-D projections of hybrid zonotopes as exact vertex polygons, plus SVG/CSV output.

A hybrid zonotope is a union of constrained zonotopes, one per feasible
binary assignment.  Each piece is projected onto a coordinate pair as the
convex hull of its support points, refined until every edge is a facet
(Lassez & Lassez's convex-hull method of projecting polyhedra), so the
polygon is the piece's projection to FEAS_TOL of its extent.
"""

from __future__ import annotations

import numpy as np

from .errors import EmptySetError
from .sets import FEAS_TOL, FiberLp, HybridZonotope


def support_polygon(hz: HybridZonotope, fibers: FiberLp, xb: np.ndarray,
                    dims: tuple[int, int], k_dirs: int) -> np.ndarray:
    """Vertices, counter-clockwise, of the projection of the set's fiber
    ``xb`` onto coordinates ``dims``.

    Each 2-D direction is embedded at ``dims`` and maximized over the fiber
    itself (``_maximizers``, its LPs in ``fibers``, the FiberLp of the
    set's rows).  The start is the fiber's support maximizers in
    k_dirs >= 3 equally spaced directions, which are fiber points in
    counter-clockwise order; a point within tol = FEAS_TOL times the fiber's
    extent of the one before is merged into it.  Each edge is then checked
    in its outward normal: a maximizer beyond the edge by more than tol is
    inserted between the edge's two ends, otherwise the edge is a facet.
    Last, a vertex within tol of the segment joining its neighbours, such as
    a start maximizer inside an edge, is dropped.  A flat fiber comes out as
    a segment (two vertices) or a point (one).

    The loop ends: each insertion is a fiber point strictly outside the
    current polygon, which only grows, so no point is inserted twice, and
    the LPs return one of finitely many basic solutions.
    """
    angles = 2.0 * np.pi * np.arange(k_dirs) / k_dirs
    dirs = np.column_stack([np.cos(angles), np.sin(angles)])
    starts = _maximizers(hz, fibers, xb, dims, dirs)
    tol = FEAS_TOL * float(np.ptp(starts, axis=0).max())
    poly = []
    for p in starts:
        if not poly or np.abs(p - poly[-1]).max() > tol:
            poly.append(p)
    if len(poly) > 1 and np.abs(poly[0] - poly[-1]).max() <= tol:
        poly.pop()
    i = 0
    while len(poly) > 1 and i < len(poly):
        a, b = poly[i], poly[(i + 1) % len(poly)]
        n = np.array([b[1] - a[1], a[0] - b[0]]) / np.hypot(*(b - a))
        p = _maximizers(hz, fibers, xb, dims, n[None])[0]
        if n @ (p - a) > tol:
            poly.insert(i + 1, p)
        else:
            i += 1
    i = 0
    while len(poly) > 2 and i < len(poly):
        if _distance_to_segment(poly[i], poly[i - 1], poly[(i + 1) % len(poly)]) <= tol:
            poly.pop(i)
            i = max(i - 1, 0)
        else:
            i += 1
    return np.array(poly)


def _maximizers(hz: HybridZonotope, fibers: FiberLp, xb: np.ndarray,
                dims: tuple[int, int], dirs: np.ndarray) -> np.ndarray:
    """Coordinates ``dims`` of the fiber points maximizing the 2-D ``dirs``
    embedded at ``dims``."""
    embedded = np.zeros((len(dirs), hz.dim))
    embedded[:, list(dims)] = dirs
    return hz._points(xb, -(embedded @ hz.Gc), fibers)[:, list(dims)]


def _distance_to_segment(p: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """Euclidean distance from point p to the segment [a, b]."""
    d = b - a
    s = min(max((p - a) @ d / (d @ d), 0.0), 1.0) if d.any() else 0.0
    return float(np.hypot(*(p - a - s * d)))


def emit_projection(hz: HybridZonotope, dims: tuple[int, int], k_dirs: int,
                    scope: dict | None = None) -> list[np.ndarray]:
    """One convex polygon per feasible binary assignment of the set ``hz``.

    Each polygon is its fiber's projection onto coordinates ``dims``, exact
    to FEAS_TOL of the fiber's extent (see ``support_polygon``); their union
    is the set's projection.  ``k_dirs`` directions start the refinement.
    All polygons share one FiberLp, the one of the set's rows in ``scope``
    when given, so that the set's draws can share it too
    (``HybridZonotope.sample_points``).

    Raises:
        ValueError: unless ``dims`` names two distinct coordinates in
            [0, dim), or if ``k_dirs`` < 3.
        EmptySetError: if the set is empty.
    """
    i, j = dims
    if i == j:
        raise ValueError("projection needs two distinct coordinates")
    if not (0 <= i < hz.dim and 0 <= j < hz.dim):
        raise ValueError(f"projection coordinates must lie in [0, {hz.dim}), got {i},{j}")
    if k_dirs < 3:
        raise ValueError("projection needs at least 3 directions")
    assignments = hz.feasible_binary_assignments()
    if not assignments:
        raise EmptySetError("cannot project an empty set")
    fibers = hz._fibers(scope)
    return [support_polygon(hz, fibers, xb, (i, j), k_dirs) for xb in assignments]


def write_points_csv(path, points: np.ndarray, dims) -> None:
    """Points as CSV, one column x{i} per coordinate i in ``dims``."""
    lines = [",".join(f"x{i}" for i in dims)]
    lines += [",".join(map(repr, row)) for row in np.asarray(points, dtype=float).tolist()]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


_PALETTE = ["#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
            "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf"]


def write_svg(path, groups, size: int = 640, margin: float = 0.05) -> None:
    """Render labeled polygon groups (and optional scatter points) to SVG.

    Args:
        groups: list of (label, polygons, points) where polygons is a list of
            (m, 2) arrays and points an (k, 2) array or None.
    """
    pts = [poly for _, polys, _ in groups for poly in polys if len(poly)]
    pts += [p for _, _, p in groups if p is not None and len(p)]
    if not pts:
        raise ValueError("nothing to draw")
    allp = np.vstack(pts)
    lo, hi = allp.min(axis=0), allp.max(axis=0)
    span = np.maximum(hi - lo, 1e-9)
    pad = margin * float(span.max())
    lo, hi = lo - pad, hi + pad
    scale = size / float((hi - lo).max())

    def screen(p) -> list:
        """Screen coordinates of the rows of p, as Python floats."""
        q = (np.asarray(p, dtype=float) - lo) * scale
        q[:, 1] = size - q[:, 1]
        return q.tolist()

    lines = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
             f'viewBox="0 0 {size} {size}">',
             f'<rect width="{size}" height="{size}" fill="white"/>']
    for gi, (label, polys, points) in enumerate(groups):
        color = _PALETTE[gi % len(_PALETTE)]
        lines.append(f'<g id="{label}">')
        for poly in polys:
            if len(poly) < 2:
                continue
            coords = " ".join(f"{x:.3f},{y:.3f}" for x, y in screen(poly))
            lines.append(f'<polygon points="{coords}" fill="{color}" '
                         f'fill-opacity="0.35" stroke="{color}" stroke-width="1"/>')
        if points is not None:
            lines += [f'<circle cx="{x:.3f}" cy="{y:.3f}" r="1.2" fill="{color}"/>'
                      for x, y in screen(points)]
        lines.append("</g>")
    lines.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
