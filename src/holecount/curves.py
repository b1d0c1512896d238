"""Boundary contour tracing and per-curve corner accounting.

Each component has one outer contour plus one contour per enclosed
complement region. A contour is walked on component pixels with a
4-directional left-hand rule keeping its complement region on the left;
this weaves inward corner points (which touch the region only diagonally)
into the cycle, so for valid components the contours partition the
boundary point set. Outer contours come out clockwise in (row, col)
screen orientation, hole contours counterclockwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable

import numpy as np
from scipy import ndimage

from .corners import ComponentContext, _positions, find_pathological
from .errors import (
    ContourOverlapError,
    CurveError,
    EmptyComponentError,
    ThinComponentError,
)
from .grid import BinaryGrid, Point2

OUTER = "outer"
HOLE = "hole"

_N, _E, _S, _W = (-1, 0), (0, 1), (1, 0), (0, -1)
_LEFT = {_E: _N, _N: _W, _W: _S, _S: _E}
_RIGHT = {v: k for k, v in _LEFT.items()}


@dataclass(frozen=True)
class Contour:
    """One simple closed boundary curve, as a cyclic point sequence.

    `enclosed_region`, the points the curve encloses (the curve itself
    excluded), is computed on first read.
    """

    points: tuple[Point2, ...]
    kind: str
    _enclosed: Callable[[], frozenset[Point2]] = field(repr=False, compare=False)

    @cached_property
    def enclosed_region(self) -> frozenset[Point2]:
        return self._enclosed()


@dataclass(frozen=True)
class CurveCensus:
    """Component-relative corner classes restricted to one contour."""

    cp2: int
    cp3: int
    cp4: int


@dataclass(frozen=True)
class CurveLemmaResult:
    cp2: int
    cp3: int
    cp4: int
    holds: bool


@dataclass(frozen=True)
class AccountingResult:
    """The per-curve accounting identity over all contours of a component."""

    lhs: int  # cp4 total - cp2 total
    rhs: int  # -4 + 4 * number of hole contours
    holds: bool
    hole_count: int
    census_match: bool
    curve_censuses: tuple[CurveCensus, ...]


def _walk(mask: np.ndarray, start: Point2, heading: Point2) -> list[Point2]:
    """Left-hand-rule pixel walk; returns the cycle starting at `start`.

    `mask` has a background ring, so every neighbor of its cells is in range.
    """
    path = [start]
    p, d = start, heading
    while True:
        r, c = p
        q = None
        for nd in (_LEFT[d], d, _RIGHT[d], (-d[0], -d[1])):
            if mask[r + nd[0], c + nd[1]]:
                q = (r + nd[0], c + nd[1])
                break
        if q is None or q == start:
            return path
        path.append(q)
        p, d = q, nd


def _enclosed(ctx: ComponentContext, path: list[Point2], region: int) -> frozenset[Point2]:
    """Cells of complement region `region`; for the outer contour (region 1,
    the unbounded one) every cell outside region 1 that is not on `path`."""
    regions = ctx.complement[0]
    if region != 1:
        return frozenset(ctx.positions(regions == region))
    inside = regions != 1
    inside[tuple(np.array(path).T)] = False
    return frozenset(ctx.positions(inside))


def trace_contours(g: BinaryGrid, component) -> tuple[Contour, ...]:
    """Trace the outer contour and one contour per enclosed region.

    Raises ThinComponentError when a boundary point has fewer than 2 direct
    neighbors, and ContourOverlapError when a traced point is revisited or
    the contours fail to partition the boundary point set. The result is
    also kept as the component context's `contours`.
    """
    ctx = ComponentContext.of(g, component)
    if not ctx.area:
        raise EmptyComponentError("cannot trace an empty component")
    if ctx.thin_points:
        raise ThinComponentError(ctx.thin_points[0])

    mask = ctx.mask
    regions = ctx.complement[0]
    # The ring is background, so region 1 holds (0, 0) and is the unbounded
    # one; 2..n are enclosed regions in scan order.
    assert regions[0, 0] == 1
    start = divmod(int(mask.argmax()), mask.shape[1])
    paths = [(_walk(mask, start, _E), OUTER, 1)]
    for rid, window in enumerate(ndimage.find_objects(regions)[1:], start=2):
        # A region's first cell in scan order lies in the top row of its box.
        r, cols = window[0].start, window[1]
        c = cols.start + int(np.argmax(regions[r, cols] == rid))
        assert mask[r - 1, c]
        paths.append((_walk(mask, (r - 1, c), _W), HOLE, rid))

    r0, c0 = ctx.offset
    walked = np.concatenate([np.array(path) for path, _, _ in paths])
    flat = walked[:, 0] * mask.shape[1] + walked[:, 1]
    traced = np.zeros_like(mask)
    traced.flat[flat] = True
    if np.count_nonzero(traced) < flat.size:
        # The first point, in walking order, that was walked before.
        _, firsts = np.unique(flat, return_index=True)
        again = np.ones(flat.size, dtype=bool)
        again[firsts] = False
        r, c = walked[int(np.argmax(again))].tolist()
        raise ContourOverlapError((r + r0, c + c0))
    mismatch = traced[1:-1, 1:-1] ^ ctx.boundary
    if mismatch.any():
        raise ContourOverlapError(_positions(mismatch, ctx.origin)[0])

    ctx.contours = tuple(
        Contour(
            points=tuple((r + r0, c + c0) for r, c in path),
            kind=kind,
            _enclosed=partial(_enclosed, ctx, path, rid),
        )
        for path, kind, rid in paths
    )
    return ctx.contours


def curve_census(g: BinaryGrid, component, contour: Contour) -> CurveCensus:
    """Component-relative class counts over one contour's points."""
    ctx = ComponentContext.of(g, component)
    pts = np.array(contour.points, dtype=np.intp).reshape(-1, 2) - ctx.origin
    inside = ((pts >= 0) & (pts < ctx.direct.shape)).all(axis=1)
    inside[inside] = ctx.mask[1:-1, 1:-1][pts[inside, 0], pts[inside, 1]]
    if not inside.all():
        p = contour.points[int(np.argmin(inside))]
        raise ValueError(f"contour point {p} not in component")
    k = np.bincount(ctx.direct[pts[:, 0], pts[:, 1]], minlength=5)
    return CurveCensus(cp2=int(k[2]), cp3=int(k[3]), cp4=int(k[4]))


def check_curve_lemma(points, interior=None) -> CurveLemmaResult:
    """Classify a standalone simple closed curve and test cp2 == cp4 + 4.

    `points` is the cyclic point sequence; `interior` (the enclosed point
    set) is computed by filling when not supplied. Classes count direct
    neighbors in curve-union-interior.
    """
    points = [tuple(p) for p in points]
    if len(points) < 4:
        raise CurveError(f"curve too short ({len(points)} points)")
    if len(set(points)) != len(points):
        raise CurveError("curve is self-intersecting")
    for a, b in zip(points, points[1:] + points[:1]):
        if max(abs(a[0] - b[0]), abs(a[1] - b[1])) != 1:
            raise CurveError(f"curve not closed: {a} and {b} are not 8-neighbors")
    given = () if interior is None else interior
    filled = ComponentContext.of(None, set(points) | set(map(tuple, given)))
    if interior is None:
        # Fill the curve: the regions it encloses are all but the unbounded one.
        filled = ComponentContext(filled.complement[0] != 1, filled.offset, filled.image)
    # The pathological diagonal patterns must not occur in the filled set.
    if not find_pathological(None, filled).clean:
        raise CurveError("pathological 2x2 window on the curve")
    k = np.bincount(filled.direct[tuple((np.array(points) - filled.origin).T)], minlength=5)
    if k[0] or k[1]:
        raise CurveError("curve point with fewer than 2 neighbors in the filled set")
    return CurveLemmaResult(
        cp2=int(k[2]), cp3=int(k[3]), cp4=int(k[4]), holds=bool(k[2] == k[4] + 4)
    )


def second_proof_accounting(g: BinaryGrid, component) -> AccountingResult:
    """Sum per-curve censuses and test cp4 - cp2 == -4 + 4h."""
    ctx = ComponentContext.of(g, component)
    contours = ctx.contours or trace_contours(g, ctx)
    censuses = tuple(curve_census(g, ctx, ct) for ct in contours)
    cp2 = sum(cc.cp2 for cc in censuses)
    cp3 = sum(cc.cp3 for cc in censuses)
    cp4 = sum(cc.cp4 for cc in censuses)
    hole_count = sum(1 for ct in contours if ct.kind == HOLE)
    comp = ctx.census
    census_match = (cp2, cp3, cp4) == (comp.c2, comp.c3, comp.c4)
    lhs = cp4 - cp2
    rhs = -4 + 4 * hole_count
    return AccountingResult(
        lhs=lhs,
        rhs=rhs,
        holds=lhs == rhs,
        hole_count=hole_count,
        census_match=census_match,
        curve_censuses=censuses,
    )
