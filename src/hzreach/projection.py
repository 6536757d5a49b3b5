"""2-D projections of hybrid zonotopes as support polygons, plus SVG/CSV output.

A hybrid zonotope is a union of constrained zonotopes, one per feasible
binary assignment.  Each piece is projected onto a coordinate pair and
enclosed by the polygon cut out by its support halfplanes in k equally
spaced directions, which is tight in every queried direction and sound for
display at any k.
"""

from __future__ import annotations

import numpy as np

from .errors import EmptySetError
from .sets import FiberLp, HybridZonotope


def _fiber_support(fibers: FiberLp, xb: np.ndarray, d: np.ndarray):
    """Support value and a maximizer of d @ x over the fiber with binaries xb."""
    point = fibers.point(xb, -(d @ fibers.hz.Gc))
    return float(d @ point), point


def _clip(poly: np.ndarray, d: np.ndarray, h: float) -> np.ndarray:
    """Sutherland-Hodgman clip of a convex polygon by the halfplane d@x <= h."""
    if len(poly) == 0:
        return poly
    out = []
    vals = poly @ d - h
    m = len(poly)
    for i in range(m):
        j = (i + 1) % m
        vi, vj = vals[i], vals[j]
        if vi <= 0:
            out.append(poly[i])
        if (vi <= 0) != (vj <= 0):
            s = vi / (vi - vj)
            out.append(poly[i] + s * (poly[j] - poly[i]))
    return np.array(out) if out else np.zeros((0, 2))


def support_polygon(fibers: FiberLp, xb: np.ndarray, k_dirs: int,
                    start_box: np.ndarray) -> np.ndarray:
    """Outer polygon of one binary fiber of a 2-D set from k_dirs support halfplanes.

    The halfplanes of the equally spaced directions are refined with the
    normals of the chords between adjacent support maximizers, so facets
    revealed by the sampled directions are cut exactly; every added
    halfplane's offset is its own LP support value, keeping the polygon a
    superset of the fiber's projection.  A flat fiber (a segment or a point)
    lies exactly on its opposite halfplanes, which rounding in the support
    values can cross; if the polygon comes out without area, the offsets are
    widened outward by 1e-9 of the start box's extent, so it keeps the fiber,
    and that sliver is drawn as the rectangle around it (see ``_sliver``).
    """
    angles = 2.0 * np.pi * np.arange(k_dirs) / k_dirs
    dirs = np.column_stack([np.cos(angles), np.sin(angles)])
    supports = []
    maximizers = []
    for d in dirs:
        h, p = _fiber_support(fibers, xb, d)
        supports.append(h)
        maximizers.append(p)
    halfplanes = list(zip(dirs, supports))
    for k in range(k_dirs):
        delta = maximizers[(k + 1) % k_dirs] - maximizers[k]
        norm = np.hypot(*delta)
        if norm < 1e-12:
            continue
        n = np.array([delta[1], -delta[0]]) / norm
        if n @ (dirs[k] + dirs[(k + 1) % k_dirs]) < 0:
            n = -n
        halfplanes.append((n, _fiber_support(fibers, xb, n)[0]))
    poly = _tidy(_cut(start_box, halfplanes, 0.0))
    x, y = poly[:, 0], poly[:, 1]
    if abs(x @ np.roll(y, -1) - y @ np.roll(x, -1)) <= 1e-12:  # shoelace, 0 when flat
        poly = _sliver(_cut(start_box, halfplanes, 1e-9 * float(np.max(np.abs(start_box)))))
    return poly


def _cut(poly: np.ndarray, halfplanes, widening: float) -> np.ndarray:
    """The polygon clipped by every halfplane d@x <= h + widening."""
    for d, h in halfplanes:
        poly = _clip(poly, d, h + widening)
    return poly


def _sliver(poly: np.ndarray) -> np.ndarray:
    """The rectangle around a thin polygon, aligned with the segment between
    its end points (its two farthest vertices): each end cap, however many
    vertices the clips left there, becomes the two corners at that end."""
    if len(poly) < 3:
        return poly
    gaps = poly[:, None, :] - poly[None, :, :]
    i, j = np.unravel_index(np.argmax(np.sum(gaps ** 2, axis=2)), gaps.shape[:2])
    u = (poly[j] - poly[i]) / np.hypot(*(poly[j] - poly[i]))
    n = np.array([-u[1], u[0]])
    s, t = poly @ u, poly @ n
    corners = ((s.min(), t.min()), (s.max(), t.min()), (s.max(), t.max()), (s.min(), t.max()))
    return np.array([a * u + b * n for a, b in corners])


def _tidy(poly: np.ndarray) -> np.ndarray:
    """Drop vertices within 1e-12 of the last one kept, and vertices
    collinear with their neighbours to a relative 1e-12, left behind by
    tangent clips."""
    if len(poly) < 3:
        return poly
    keep = []
    for p in poly:
        if not keep or np.hypot(*(p - keep[-1])) > 1e-12:
            keep.append(p)
    if len(keep) > 1 and np.hypot(*(keep[0] - keep[-1])) <= 1e-12:
        keep.pop()
    out = []
    m = len(keep)
    for i in range(m):
        a, b, c = keep[i - 1], keep[i], keep[(i + 1) % m]
        cross = (b[0] - a[0]) * (c[1] - b[1]) - (b[1] - a[1]) * (c[0] - b[0])
        if abs(cross) > 1e-12 * np.hypot(*(b - a)) * np.hypot(*(c - b)):
            out.append(b)
    return np.array(out if len(out) >= 3 else keep)


def emit_projection(Z: HybridZonotope, dims: tuple[int, int],
                    k_dirs: int = 64) -> list[np.ndarray]:
    """One convex polygon per feasible binary assignment of the projection.

    The union of the returned polygons contains the projection of the set
    onto coordinates ``dims``; each polygon's support in every queried
    direction matches the fiber's true support to LP accuracy.

    Raises:
        EmptySetError: if the set is empty.
    """
    i, j = dims
    if i == j:
        raise ValueError("projection needs two distinct coordinates")
    P = Z.project([i, j])
    assignments = Z.feasible_binary_assignments()  # P has Z's constraints
    if not assignments:
        raise EmptySetError("cannot project an empty set")
    hull = P.interval_hull("generator_relaxed")
    pad = float(np.max(hull.radius)) + 1.0
    lo, hi = hull.lower - pad, hull.upper + pad
    box = np.array([[lo[0], lo[1]], [hi[0], lo[1]], [hi[0], hi[1]], [lo[0], hi[1]]])
    fibers = FiberLp(P)
    return [support_polygon(fibers, xb, k_dirs, box) for xb in assignments]


def write_points_csv(path, points: np.ndarray, dims) -> None:
    """Points as CSV, one column x{i} per coordinate i in ``dims``."""
    with open(path, "w") as fh:
        fh.write(",".join(f"x{i}" for i in dims) + "\n")
        for p in points:
            fh.write(",".join(repr(float(v)) for v in p) + "\n")


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

    def sx(v):
        return (v - lo[0]) * scale

    def sy(v):
        return size - (v - lo[1]) * scale

    lines = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
             f'viewBox="0 0 {size} {size}">',
             f'<rect width="{size}" height="{size}" fill="white"/>']
    for gi, (label, polys, points) in enumerate(groups):
        color = _PALETTE[gi % len(_PALETTE)]
        lines.append(f'<g id="{label}">')
        for poly in polys:
            if len(poly) < 2:
                continue
            coords = " ".join(f"{sx(x):.3f},{sy(y):.3f}" for x, y in poly)
            lines.append(f'<polygon points="{coords}" fill="{color}" '
                         f'fill-opacity="0.35" stroke="{color}" stroke-width="1"/>')
        if points is not None:
            for x, y in points:
                lines.append(f'<circle cx="{sx(x):.3f}" cy="{sy(y):.3f}" r="1.2" '
                             f'fill="{color}"/>')
        lines.append("</g>")
    lines.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
