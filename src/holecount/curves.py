"""Boundary contour tracing and per-curve corner accounting.

Each component has one outer contour plus one contour per enclosed
complement region. A contour is walked on component pixels with a
4-directional left-hand rule keeping its complement region on the left;
this weaves inward corner points (which touch the region only diagonally)
into the cycle, so for valid components the contours partition the
boundary point set. Outer contours come out clockwise in (row, col)
screen orientation, hole contours counterclockwise. `CurveTable` walks
every contour of an image at once, each to its own start, and names the
point where a component's contours fail.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cache, cached_property, partial
from typing import Callable

import numpy as np

from .corners import TILES, ComponentContext, find_pathological
from .errors import (
    ContourOverlapError,
    CurveError,
    EmptyComponentError,
    InvalidComponentError,
    ThinComponentError,
)
from .grid import BinaryGrid, Point2
from .labeling import LabelMap

OUTER = "outer"
HOLE = "hole"


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


# The headings N, E, S, W as steps: clockwise, so a left turn is -1 and a
# right turn +1, mod 4.
_STEPS = np.array([(-1, 0), (0, 1), (1, 0), (0, -1)])


@cache
def _moves() -> np.ndarray:
    """The next heading (-1 for none) by heading, for each 3 x 3 code: the first that fits of
    left, straight, right and back. Built once per process, on first use."""
    turns = (np.arange(4)[:, None] + [-1, 0, 1, 2]) % 4
    fits = TILES[:, 1 + _STEPS[turns, 0], 1 + _STEPS[turns, 1]]
    moves = np.where(fits.any(axis=2), turns[np.arange(4), fits.argmax(axis=2)], -1).astype(np.int8)
    moves.flags.writeable = False
    return moves


class CurveTable:
    """The contours of every component of a `LabelMap`, from one vectorised
    left-hand walk.

    The walk is a function on states (boundary cell, heading): the next step
    is the first of left, straight, right and back that lands on the
    foreground, where a cell's 4-neighbours carry its label. It is found
    once per process for each 3 x 3 code, on its tile (`_moves`), and every
    boundary cell of the map's `table` reads its own code's. A component's
    outer contour starts at its first cell heading E, and a hole contour at
    the cell above its region's first cell (the map's `complements`, from
    `labeling.hole_regions`) heading W; a walk ends at its own start, as a
    walk one step at a time does. Pointer jumping walks every contour at
    once: while a jump takes 2^j steps, the first 2^j states of each
    unfinished contour give its next 2^j, up to the first on its own start
    cell; it passes other contours' starts, as where contours meet. A walk
    is cut at 4 steps per boundary cell, since a longer one cycles. Row
    `cid` is `ok` when each of its walks ends where it started and its
    contours visit each of its boundary cells once; otherwise `fault` names
    where they fail. `points` holds every contour's cells in order, at image
    positions: row `cid` has contours `rows[cid]` to `rows[cid + 1]`, the
    outer one first, and contour i the points `begin[i]` to `begin[i + 1]`,
    with cp2, cp3 and cp4 `census[i]`. A row with a thin point is not
    walked: it is not `ok`, and its contours have no points. Of the map,
    only its `table`, the `corners.ComponentTable` whose classes
    `accounting` reads, is kept."""

    def __init__(self, labels: LabelMap):
        table, n, width = labels.table, labels.component_count, labels.box.shape[1]
        self.table = table
        thin = table.classes[:, :2].any(axis=1)  # rows with a class 0 or 1 cell, which get no walk
        keep = ~thin[table.own]  # the other rows' boundary cells, numbered row-major
        cells, own = table.cells[keep], table.own[keep]
        count, sink = cells.size, 4 * cells.size  # a state is 4 * cell + heading
        number = np.full(labels.box.size, count, dtype=np.int32)  # boundary cell number; `count` elsewhere
        number[cells] = np.arange(count, dtype=np.int32)
        move = np.take(_moves(), table.code[keep], axis=0)
        to = number.take(cells[:, None] + (_STEPS @ (width, 1)).take(move))
        succ = np.full(sink + 1, sink, dtype=np.int32)  # the sink, 4 * count, goes nowhere
        succ[:sink] = np.where((move >= 0) & (to < count), 4 * to + move, sink).ravel()

        holes, firsts = labels.complements
        per = 1 + holes[1:]  # contours per component
        self.rows = np.cumsum(np.r_[0, 0, per]).tolist()
        label = np.repeat(np.arange(n + 1), np.r_[0, per])
        outer = np.zeros(per.sum(), dtype=bool)
        outer[self.rows[1:-1]] = True
        head = np.full(outer.size, count)  # a row with no walk starts at no cell
        # Labels number components by first cell, a boundary cell.
        head[outer & ~thin[label]] = np.flatnonzero(np.diff(np.maximum.accumulate(own), prepend=0))
        head[~outer] = number[firsts @ (width, 1) - width]  # the cell above

        # `front` holds each unfinished contour's states at steps 0 to 2^j - 1, and `jump`, which
        # takes 2^j steps, gives its next 2^j. A walk stops at its first step onto its own start
        # cell or the sink, in state `end`, and keeps the steps before; it passes other contours'
        # starts. One that has not stopped after a step per state cycles, so it is cut.
        live = np.flatnonzero(head < count)
        front = [4 * head[live] + np.where(outer[live], 1, 3), live, np.zeros(live.size, dtype=np.intp)]
        walked, jump, span = [front], succ, 1
        stop, end = np.full(outer.size, sink + 1), np.full(outer.size, sink)  # sink + 1: not stopped
        while front[0].size and span <= sink:
            state, contour, at = front
            ahead, at = jump.take(state), at + span  # `take`: as subscripts, int32 indices are slow
            hit = (ahead >> 2 == head[contour]) | (ahead == sink)
            np.minimum.at(stop, contour[hit], at[hit])
            last = stop[contour]
            done, kept = at == last, at < last
            end[contour[done]] = ahead[done]
            walked.append([ahead[kept], contour[kept], at[kept]])
            on = last > sink
            front = [np.concatenate([v[on], w[on]]) for v, w in zip(front, [ahead, contour, at])]
            jump, span = jump.take(jump), 2 * span
        state, contour, at = (np.concatenate(v) for v in zip(*walked))
        length = np.bincount(contour, minlength=outer.size)
        begin = np.cumsum(length) - length
        path = np.empty(length.sum(), dtype=np.intp)
        path[begin[contour] + at] = state >> 2
        closed = end >> 2 == head

        visits = np.bincount(path, minlength=count)
        faults = np.bincount(own[visits != 1], minlength=n + 1)
        self.ok = (faults + np.bincount(label[~closed], minlength=n + 1) == 0) & ~thin
        missed = visits == 0
        self._missed = own[missed], np.stack(divmod(cells[missed], width), axis=1) + labels.origin
        classes = table.corner[keep][path]
        census = np.bincount(np.repeat(np.arange(outer.size) * 5, length) + classes, minlength=5 * outer.size)
        self.census = census.reshape(-1, 5)[:, 2:]
        self.begin, self._path = np.append(begin, path.size), path
        self.points = np.stack(divmod(cells[path], width), axis=1) + labels.origin

    def contours(self, cid: int) -> list[tuple[str, np.ndarray]]:
        """Kind and points ((k, 2) rows of `points`) of each contour of row
        `cid`, the outer one first."""
        begin = self.begin
        return [
            (OUTER if i == self.rows[cid] else HOLE, self.points[begin[i] : begin[i + 1]])
            for i in range(self.rows[cid], self.rows[cid + 1])
        ]

    def fault(self, cid: int) -> Point2 | None:
        """Where the walks of row `cid` fail to partition its boundary: the
        first point they visit twice, the outer contour first, else its first
        boundary cell, row-major, that no walk visits; None with neither."""
        start, stop = self.begin[self.rows[cid]], self.begin[self.rows[cid + 1]]
        path, step = self._path[start:stop], np.arange(stop - start)
        first = np.full(path.max(initial=-1) + 1, stop - start)  # each cell's first step
        np.minimum.at(first, path, step)
        label, missed = self._missed
        again = np.flatnonzero(first[path] < step)[:1]  # the first step onto a cell seen before
        found = np.concatenate([self.points[start + again], missed[label == cid]])
        return tuple(found[0].tolist()) if len(found) else None

    def counts(self, cid: int) -> list[list[int]]:
        """cp2, cp3 and cp4 of each contour of row `cid`, the outer one first."""
        return self.census[self.rows[cid] : self.rows[cid + 1]].tolist()

    def accounting(self, cid: int) -> AccountingResult:
        """What `second_proof_accounting` gives on the component of row `cid`."""
        rows = self.counts(cid)
        cp2, cp3, cp4 = map(sum, zip(*rows))
        lhs, rhs = cp4 - cp2, -4 + 4 * (len(rows) - 1)
        return AccountingResult(
            lhs=lhs,
            rhs=rhs,
            holds=lhs == rhs,
            hole_count=len(rows) - 1,
            census_match=[cp2, cp3, cp4] == self.table.classes[cid, 2:].tolist(),
            curve_censuses=tuple(CurveCensus(*k) for k in rows),
        )


def _enclosed(ctx: ComponentContext, path: np.ndarray, region: int) -> frozenset[Point2]:
    """Cells of complement region `region`; for the outer contour (region 1,
    the unbounded one) every cell outside region 1 that is not on `path`."""
    regions = ctx.complement[0]
    if region != 1:
        return frozenset(ctx.positions(regions == region))
    inside = regions != 1
    inside[tuple((path - ctx.offset).T)] = False
    return frozenset(ctx.positions(inside))


def _traced(ctx: ComponentContext) -> tuple[CurveTable, int]:
    """The contour table of the context's `LabelMap` and its row, once the
    row's contours are known to partition its boundary; a thin point is
    refused first, since its row has no walks. Otherwise the row names the
    point where they fail (`CurveTable.fault`); a row that names none
    disagrees with its own check, and the error names the component's
    first cell."""
    if not np.count_nonzero(ctx.crop):
        raise EmptyComponentError("cannot trace an empty component")
    if ctx.thin_points:
        raise ThinComponentError(ctx.thin_points[0])
    curves, cid = ctx.labels.curves, ctx.cid
    if curves.ok[cid]:
        return curves, cid
    point = curves.fault(cid)
    if point is None:
        first = tuple(curves.points[curves.begin[curves.rows[cid]]].tolist())
        raise InvalidComponentError(f"contour table rejects the component at {first}, whose walks partition it")
    raise ContourOverlapError(point)


def trace_contours(g: BinaryGrid, component) -> tuple[Contour, ...]:
    """Trace the outer contour and one contour per enclosed region.

    Raises ThinComponentError when a boundary point has fewer than 2 direct
    neighbors, and ContourOverlapError at the point where the contours fail
    to partition the boundary point set: the first point walked twice, else
    the first boundary point no walk visits. The contours, and that point,
    are a row of the `CurveTable` of the context's `LabelMap`.
    """
    ctx = ComponentContext.of(g, component)
    curves, cid = _traced(ctx)
    return tuple(
        Contour(
            points=tuple(map(tuple, points.tolist())),
            kind=kind,
            _enclosed=partial(_enclosed, ctx, points, region),
        )
        for region, (kind, points) in enumerate(curves.contours(cid), start=1)
    )


def curve_census(g: BinaryGrid, component, contour: Contour) -> CurveCensus:
    """Component-relative class counts over one contour's points."""
    ctx = ComponentContext.of(g, component)
    pts = np.array(contour.points, dtype=np.intp).reshape(-1, 2) - ctx.origin
    inside = ((pts >= 0) & (pts < ctx.crop.shape)).all(axis=1)
    inside[inside] = ctx.crop[pts[inside, 0], pts[inside, 1]]
    if not inside.all():
        p = contour.points[int(np.argmin(inside))]
        raise ValueError(f"contour point {p} not in component")
    k = Counter(ctx.classes.get(tuple(p), 4) for p in contour.points)  # 4 off the boundary
    return CurveCensus(cp2=k[2], cp3=k[3], cp4=k[4])


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
    k = Counter(filled.classes.get(p, 4) for p in points)  # 4 off the boundary
    if k[0] or k[1]:
        raise CurveError("curve point with fewer than 2 neighbors in the filled set")
    return CurveLemmaResult(cp2=k[2], cp3=k[3], cp4=k[4], holds=k[2] == k[4] + 4)


def second_proof_accounting(g: BinaryGrid, component) -> AccountingResult:
    """Sum per-curve censuses and test cp4 - cp2 == -4 + 4h."""
    curves, cid = _traced(ComponentContext.of(g, component))
    return curves.accounting(cid)
