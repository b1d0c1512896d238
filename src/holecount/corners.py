"""Boundary extraction, corner census, and component validity checks.

A boundary point of a component S is a point of S whose 8-neighborhood
(out-of-grid positions included, counting as background) is not entirely
inside S. Its corner class is the number of direct neighbors it has inside
S: class 2 is an outward corner, 3 a straight-line point, 4 an inward
corner. Classes 0 and 1 are degenerate and make the component invalid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ContourOverlapError, EmptyComponentError, OutOfBoundsError
from .grid import BinaryGrid, DIRECT_OFFSETS, DIAGONAL_OFFSETS, Point2
from .labeling import LabelMap, bounding_box, label_mask

ISOLATED_OR_THIN_POINT = "isolated_or_thin_point"
PATHOLOGICAL_WINDOW = "pathological_window"
CONTOUR_OVERLAP = "contour_overlap"
_FAULTS = (ISOLATED_OR_THIN_POINT, PATHOLOGICAL_WINDOW)


@dataclass(frozen=True)
class CornerCensus:
    """Counts of boundary-point corner classes of one component."""

    c2: int
    c3: int
    c4: int
    boundary_total: int

    @property
    def degenerate(self) -> int:
        return self.boundary_total - (self.c2 + self.c3 + self.c4)

    def __add__(self, other: "CornerCensus") -> "CornerCensus":
        return CornerCensus(
            self.c2 + other.c2,
            self.c3 + other.c3,
            self.c4 + other.c4,
            self.boundary_total + other.boundary_total,
        )


@dataclass(frozen=True, eq=False)
class CornerClassification:
    """Census plus the per-point class map and the degenerate points behind
    it, both read from the component's context on first read."""

    census: CornerCensus
    context: "ComponentContext" = field(repr=False)

    @cached_property
    def degenerate_points(self) -> tuple[Point2, ...]:
        return tuple(self.context.thin_points)

    @property
    def classes(self) -> dict[Point2, int]:
        return self.context.classes

    def __eq__(self, other):
        if not isinstance(other, CornerClassification):
            return NotImplemented
        return (self.census, self.classes, self.degenerate_points) == (
            other.census,
            other.classes,
            other.degenerate_points,
        )


@dataclass(frozen=True)
class PathologyReport:
    windows: tuple[Point2, ...]
    clean: bool
    windows_scanned: int


@dataclass(frozen=True)
class ValidityReport:
    valid: bool
    reasons: tuple[tuple[str, Point2], ...]


def _ringed(mask: np.ndarray) -> np.ndarray:
    """The mask in a one-cell background ring; np.pad costs ~10x more here."""
    out = np.zeros((mask.shape[0] + 2, mask.shape[1] + 2), dtype=mask.dtype)
    out[1:-1, 1:-1] = mask
    return out


def diagonal_pairs(m: np.ndarray) -> np.ndarray:
    """Per 2x2 window of `m`, at its top-left cell: whether exactly its two
    main-diagonal or exactly its two anti-diagonal cells are set."""
    a, b, c, d = m[:-1, :-1], m[:-1, 1:], m[1:, :-1], m[1:, 1:]
    return (a == d) & (b == c) & (a != b)


def neighbor_counts(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell counts of direct and of all 8 neighbors inside the mask."""
    (h, w), padded = mask.shape, _ringed(mask).view(np.int8)  # adds without casts
    direct = np.zeros(mask.shape, dtype=np.int8)
    for dr, dc in DIRECT_OFFSETS:
        direct += padded[1 + dr : 1 + dr + h, 1 + dc : 1 + dc + w]
    full = direct.copy()
    for dr, dc in DIAGONAL_OFFSETS:
        full += padded[1 + dr : 1 + dr + h, 1 + dc : 1 + dc + w]
    return direct, full


# Each 3 x 3 code's tile: TILES[code, 1 + dr, 1 + dc], bit 3 * dr + dc + 4, is the cell dr rows
# and dc columns away. The 8-ring of a cell in circular order; per code, its ring and its runs.
TILES = (np.arange(512)[:, None] >> np.arange(9) & 1).reshape(512, 3, 3) != 0
_RING = ((-1, -1), (-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1))
_AROUND = TILES[:, [1 + dr for dr, _ in _RING], [1 + dc for _, dc in _RING]]
_RING_RUNS = np.count_nonzero(_AROUND > np.roll(_AROUND, -1, axis=1), axis=1)


class ComponentTable:
    """Corner census and validity of every component of a `LabelMap`, and
    each boundary cell's 3 x 3 code, which the other tables read.

    Built from a map's `box`, whose labels number the components 1..n so
    that 4-adjacent foreground cells share one (a set read as one component
    is all label 1); it keeps neither the map nor an array of the box's
    size, only columns over the foreground cells with a background
    8-neighbour (`neighbor_counts`). Each such boundary cell (`cells`,
    row-major box positions, labels `own`, classes `corner`) reads its
    8-ring once: the tile of its `code` (`TILES`) is set at itself and at
    its ring cells of its label; its N, E, S and W are the foreground's. 2
    or more runs of its label around the ring are an overlap, where two
    contours would meet (a crossing number: Yokoi et al., CGIP 1975). A
    diagonal pair of one label is a pathological window. With no thin point
    and no window a component is well-composed (Latecki et al., CVIU 1995);
    `valid` adds no overlap. `low` and `high` hold each label's first and
    last row and column in the box, rows 1..n, and `area` its cell count,
    summed where its runs along a row start (no cell of its label to the W)
    and end (none to the E). Fault positions are the box's plus `origin`.
    """

    def __init__(self, labels: LabelMap):
        box, n, origin = labels.box, labels.component_count, labels.origin
        height, width = box.shape
        fg = box != 0
        direct, full = neighbor_counts(fg)
        at = np.flatnonzero(fg & (full < 8))
        k = direct.ravel()[at]
        rows, cols = divmod(at, width)
        flat = box.ravel()
        own = flat[at].astype(np.intp)
        # Per row and column step, whether the ring cell is in the image; off it, reads are clipped.
        fits = {-1: (rows > 0, cols > 0), 0: (True, True), 1: (rows < height - 1, cols < width - 1)}
        code = np.full(at.size, 1 << 4, dtype=np.uint16)
        for dr, dc in _RING:
            same = flat.take(at + dr * width + dc, mode="clip") == own
            same &= fits[dr][0] & fits[dc][1]
            code |= np.left_shift(same, 3 * dr + dc + 4, dtype=np.uint16)
        self.cells, self.own, self.code, self.corner = at, own, code, k
        self.classes = np.bincount(own * 5 + k, minlength=5 * (n + 1)).reshape(n + 1, 5)
        self.overlaps = np.bincount(own[_RING_RUNS[code] >= 2], minlength=n + 1) > 0
        ends, starts = ~TILES[:, 1, 2].take(code), ~TILES[:, 1, 0].take(code)  # of its runs along a row
        self.area = np.bincount(own, ends * (cols + 1) - starts * cols, n + 1).astype(np.intp)
        low, high = np.full((2, n + 1), box.size), np.zeros((2, n + 1), dtype=np.intp)
        for axis, line in enumerate((rows, cols)):
            np.minimum.at(low[axis], own, line)
            np.maximum.at(high[axis], own, line)
        self.low, self.high = low[:, 1:].T, high[:, 1:].T

        wr, wc = divmod(np.flatnonzero(diagonal_pairs(fg)), width - 1)
        # Each row of a pair's window holds one cell of the pair beside a
        # background cell, so the row's sum is that cell's label.
        top = box[wr, wc] + box[wr, wc + 1]
        shared = top == box[wr + 1, wc] + box[wr + 1, wc + 1]
        # Thin points, then windows, each row-major: sorted stably by label.
        thin = k < 2
        faulty = np.concatenate([own[thin], top[shared]])
        self._faults = np.stack([
            np.repeat([0, 1], [np.count_nonzero(thin), np.count_nonzero(shared)]),
            np.concatenate([rows[thin], wr[shared]]) + origin[0],
            np.concatenate([cols[thin], wc[shared]]) + origin[1],
        ])[:, np.argsort(faulty, kind="stable")]
        counts = np.bincount(faulty, minlength=n + 1)
        self._starts = np.concatenate(([0], np.cumsum(counts))).tolist()
        self.valid = (counts == 0) & ~self.overlaps

    @cached_property
    def censuses(self) -> list[CornerCensus]:
        """The census of every row, built once; row 0 is the background's."""
        return [CornerCensus(k[2], k[3], k[4], sum(k)) for k in self.classes.tolist()]

    def faults(self, cid: int) -> list[tuple[str, Point2]]:
        """The thin points, then the pathological windows of `cid`, each row-major."""
        start, stop = self._starts[cid], self._starts[cid + 1]
        if start == stop:
            return []
        kinds, rows, cols = self._faults[:, start:stop].tolist()
        return [(_FAULTS[f], (r, c)) for f, r, c in zip(kinds, rows, cols)]


def _image(shape, origin=(0, 0)) -> tuple[slice, slice]:
    return tuple(slice(o, o + n) for o, n in zip(origin, shape))


class ComponentContext:
    """One component cut out of its image, with the arrays its checks share.

    `crop` is a copy of the component's box in the `image` rows and columns
    (two slices), whose first cell is at `origin`: a view would keep the
    image-sized mask it was cut from alive. `mask`, the crop grown by a
    background ring, is built on first read; a position in it plus `offset`
    is the image position. The component is row `cid` of `labels`, a
    `LabelMap`: its image's, or, for a `standalone` mask or point set, the
    crop's own, read as one component, row 1. Its census, faults, contours
    and hole count are read from that map's tables, and `classes` is cut
    from the map's `table` at its cells of label `cid`. These and the
    complement labeling are computed on first read and shared.
    """

    def __init__(self, crop: np.ndarray, origin: tuple[int, int], image, labels=None, cid=1):
        self.crop = crop.copy()
        self.image = image
        self.origin = origin
        self.offset = (origin[0] - 1, origin[1] - 1)
        self.standalone = labels is None
        if labels is None:
            labels = LabelMap(self.crop.view(np.uint8), 1, origin, tuple(s.stop for s in image))
        self.labels, self.cid = labels, cid

    @classmethod
    def of(cls, g: BinaryGrid | None, component) -> "ComponentContext":
        """Context of an image-sized mask or a point set, or the context given.

        The mask must have the shape of `g` and the points must lie in it;
        with no grid, a mask is its own image and a point set is read in its
        own bounding box.
        """
        if isinstance(component, cls):
            return component
        if isinstance(component, np.ndarray):
            if g is not None and component.shape != g.cells.shape:
                raise ValueError("component mask shape mismatch")
            mask = component.astype(bool, copy=False)
            window = bounding_box(mask)
            return cls(mask[window], (window[0].start, window[1].start), _image(mask.shape))
        pts = np.array(list(component), dtype=np.intp).reshape(-1, 2)
        if g is not None:
            outside = ((pts < 0) | (pts >= g.cells.shape)).any(axis=1)
            if outside.any():
                p = tuple(pts[outside][0].tolist())
                raise OutOfBoundsError(f"{p} outside {g.height}x{g.width} grid")
        if not pts.size:
            return cls(np.zeros((0, 0), dtype=bool), (0, 0), _image((0, 0) if g is None else g.cells.shape))
        low = pts.min(axis=0)
        crop = np.zeros(pts.max(axis=0) - low + 1, dtype=bool)
        crop[tuple((pts - low).T)] = True
        origin = tuple(low.tolist())
        image = _image(crop.shape, origin) if g is None else _image(g.cells.shape)
        return cls(crop, origin, image)

    @classmethod
    def of_label(cls, labels, component_id: int) -> "ComponentContext":
        """Context of one component of a `labeling.LabelMap`."""
        mask = labels.mask_of(component_id)
        rows, cols = labels.slices[component_id - 1]
        image = (slice(0, mask.shape[0]), slice(0, mask.shape[1]))
        return cls(mask[rows, cols], (rows.start, cols.start), image, labels, component_id)

    @cached_property
    def mask(self) -> np.ndarray:
        return _ringed(self.crop)

    @cached_property
    def classes(self) -> dict[Point2, int]:
        """The corner class of each boundary point by image position, row-major."""
        labels, table, width = self.labels, self.labels.table, self.labels.box.shape[1]
        top = (self.origin[0] - labels.origin[0]) * width  # its rows: a run of the row-major `cells`
        lo, hi = np.searchsorted(table.cells, [top, top + self.crop.shape[0] * width])
        mine = lo + np.flatnonzero(table.own[lo:hi] == self.cid)
        return dict(zip(_positions(*np.divmod(table.cells[mine], width), labels.origin), table.corner[mine].tolist()))

    @property
    def thin_points(self) -> list[Point2]:
        """Boundary points with fewer than 2 direct neighbors, row-major."""
        return [p for kind, p in self.labels.table.faults(self.cid) if kind == ISOLATED_OR_THIN_POINT]

    @cached_property
    def complement(self) -> tuple[np.ndarray, int]:
        """Labeled complement; thanks to the ring, region 1 is the unbounded one."""
        return label_mask(~self.mask)

    def positions(self, cells: np.ndarray) -> list[Point2]:
        """Image positions of the True cells of a `mask`-shaped array, row-major."""
        return _positions(*np.nonzero(cells), self.offset)


def _positions(rows: np.ndarray, cols: np.ndarray, offset) -> list[Point2]:
    return list(zip((rows + offset[0]).tolist(), (cols + offset[1]).tolist()))


def boundary_points(g: BinaryGrid, component) -> frozenset[Point2]:
    """Points of the component with some 8-neighbor position outside it."""
    ctx = ComponentContext.of(g, component)
    if not np.count_nonzero(ctx.crop):
        raise EmptyComponentError("boundary of an empty component")
    return frozenset(ctx.classes)


def classify_corners(g: BinaryGrid, component) -> CornerClassification:
    """Corner census of a component plus its per-point class map.

    Degenerate boundary points (fewer than 2 direct neighbors in the
    component) are counted in boundary_total and listed separately rather
    than raised, so validity reporting can consume them.
    """
    ctx = ComponentContext.of(g, component)
    if not np.count_nonzero(ctx.crop):
        raise EmptyComponentError("census of an empty component")
    return CornerClassification(census=ctx.labels.table.censuses[ctx.cid], context=ctx)


def find_pathological(g: BinaryGrid, component) -> PathologyReport:
    """Scan 2x2 windows for diagonal-pair intersections with the component.

    A window is pathological when exactly its two main-diagonal or exactly
    its two anti-diagonal cells belong to the component. Windows are visited
    once each (the report records how many), over the component's bounding
    box grown by one cell and clipped to the image.
    """
    ctx = ComponentContext.of(g, component)
    faults = ctx.labels.table.faults(ctx.cid)
    windows = tuple(p for kind, p in faults if kind == PATHOLOGICAL_WINDOW)
    # Windows reaching outside the image hold a background pair, so they
    # never hit; they are only left out of the count.
    scanned = 1
    for first, size, span in zip(ctx.offset, ctx.crop.shape, ctx.image):
        last = min(first + size, span.stop - 2)
        scanned *= max(last - max(first, span.start) + 1, 0)
    return PathologyReport(windows=windows, clean=not windows, windows_scanned=scanned)


def validate_component(g: BinaryGrid, component) -> ValidityReport:
    """Check the simple-closed-curve hypothesis for one component.

    Valid means: no boundary point with fewer than 2 direct neighbors, no
    pathological 2x2 window, and no two contours meeting at a point (see
    `ComponentTable`), so that the contours partition the boundary point set.
    Reasons are the thin points, then the windows, each row-major; failing
    neither, the first point the contour trace revisits. A set that is not
    one 4-connected piece is traced too: its contours cannot partition its
    boundary, and an empty one cannot be traced.
    """
    ctx = ComponentContext.of(g, component)
    table = ctx.labels.table
    reasons = table.faults(ctx.cid)
    if not reasons and (table.overlaps[ctx.cid] or ctx.standalone and label_mask(ctx.crop)[1] != 1):
        from .curves import trace_contours

        try:
            trace_contours(g, ctx)
        except ContourOverlapError as exc:
            reasons.append((CONTOUR_OVERLAP, exc.point))
    return ValidityReport(valid=not reasons, reasons=tuple(reasons))


def image_census(g: BinaryGrid) -> tuple[CornerCensus, int]:
    """Whole-image corner census in one bounded-constant pass.

    Classes are taken relative to the full foreground, so this equals the
    sum of per-component censuses. Returns the census and a pixel-touch
    count, an accounting model and not a measurement: one read of each
    cell for itself plus one per 8-neighbor, 9 touches per pixel total.
    """
    return ComponentTable(LabelMap(g.cells.view(np.uint8), 1)).censuses[1], 9 * g.cells.size
