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
from scipy import ndimage

from .errors import ContourOverlapError, EmptyComponentError, OutOfBoundsError
from .grid import BinaryGrid, DIRECT_OFFSETS, DIAGONAL_OFFSETS, Point2
from .labeling import label_mask

ISOLATED_OR_THIN_POINT = "isolated_or_thin_point"
PATHOLOGICAL_WINDOW = "pathological_window"
CONTOUR_OVERLAP = "contour_overlap"


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
    """Census plus the per-point class map behind it. The map is built on
    first read from `crop`: the boundary mask, the direct-neighbor counts
    and the offset of the component's crop."""

    census: CornerCensus
    degenerate_points: tuple[Point2, ...]
    crop: tuple[np.ndarray, np.ndarray, tuple[int, int]] = field(repr=False)

    @cached_property
    def classes(self) -> dict[Point2, int]:
        boundary, direct, offset = self.crop
        return dict(zip(_positions(boundary, offset), direct[boundary].tolist()))

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


def _shifted(padded: np.ndarray, dr: int, dc: int, shape) -> np.ndarray:
    h, w = shape
    return padded[1 + dr : 1 + dr + h, 1 + dc : 1 + dc + w]


def _ringed(mask: np.ndarray) -> np.ndarray:
    """The mask in a one-cell background ring; np.pad costs ~10x more here."""
    out = np.zeros((mask.shape[0] + 2, mask.shape[1] + 2), dtype=mask.dtype)
    out[1:-1, 1:-1] = mask
    return out


def diagonal_pairs(m: np.ndarray) -> np.ndarray:
    """Per 2x2 window of `m`, at its top-left cell: whether exactly its two
    main-diagonal or exactly its two anti-diagonal cells are set."""
    a, b, c, d = m[:-1, :-1], m[:-1, 1:], m[1:, :-1], m[1:, 1:]
    return (a & d & ~b & ~c) | (b & c & ~a & ~d)


def neighbor_counts(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell counts of direct and of all 8 neighbors inside the mask."""
    padded = _ringed(mask)
    direct = np.zeros(mask.shape, dtype=np.int8)
    for dr, dc in DIRECT_OFFSETS:
        direct += _shifted(padded, dr, dc, mask.shape)
    full = direct.copy()
    for dr, dc in DIAGONAL_OFFSETS:
        full += _shifted(padded, dr, dc, mask.shape)
    return direct, full


def _census(direct: np.ndarray, bnd: np.ndarray) -> CornerCensus:
    k = np.bincount(direct[bnd], minlength=5)
    return CornerCensus(
        c2=int(k[2]), c3=int(k[3]), c4=int(k[4]), boundary_total=int(bnd.sum())
    )


class ComponentContext:
    """One component cut out of its image, with the arrays its checks share.

    `mask` is `crop`, the component's box of an `image_shape` image whose
    first cell is at `origin`, grown by a background ring; a position in it
    plus `offset` is the image position. The neighbor counts, boundary,
    thin points and complement labeling are each computed on first read,
    then shared by the census, the validity checks, contour tracing, the
    hole oracle and 3D doubling. `trace_contours` keeps its result in `contours`.
    """

    def __init__(self, crop: np.ndarray, origin: tuple[int, int], image_shape: tuple[int, int]):
        self.image_shape = image_shape
        self.offset = (origin[0] - 1, origin[1] - 1)
        self.mask = _ringed(crop)
        self.area = int(self.mask.sum())
        self.contours = None

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
            window = (ndimage.find_objects(mask.view(np.uint8)) or [(slice(0, 0),) * 2])[0]
            return cls(mask[window], (window[0].start, window[1].start), mask.shape)
        pts = np.array(list(component), dtype=np.intp).reshape(-1, 2)
        if g is not None:
            outside = ((pts < 0) | (pts >= g.cells.shape)).any(axis=1)
            if outside.any():
                p = tuple(pts[outside][0].tolist())
                raise OutOfBoundsError(f"{p} outside {g.height}x{g.width} grid")
            if not pts.size:
                return cls(np.zeros((0, 0), dtype=bool), (0, 0), g.cells.shape)
        low = pts.min(axis=0)
        crop = np.zeros(pts.max(axis=0) - low + 1, dtype=bool)
        crop[tuple((pts - low).T)] = True
        return cls(crop, tuple(low.tolist()), crop.shape if g is None else g.cells.shape)

    @classmethod
    def of_label(cls, labels, component_id: int) -> "ComponentContext":
        """Context of one component of a `labeling.LabelMap`."""
        mask = labels.mask_of(component_id)
        window = labels.slices[component_id - 1]
        return cls(mask[window], (window[0].start, window[1].start), mask.shape)

    @cached_property
    def counts(self) -> tuple[np.ndarray, np.ndarray]:
        return neighbor_counts(self.mask)

    @cached_property
    def boundary(self) -> np.ndarray:
        return self.mask & (self.counts[1] < 8)

    @cached_property
    def thin_points(self) -> list[Point2]:
        """Boundary points with fewer than 2 direct neighbors, row-major."""
        return self.positions(self.boundary & (self.counts[0] < 2))

    @cached_property
    def complement(self) -> tuple[np.ndarray, int]:
        """Labeled complement; thanks to the ring, region 1 is the unbounded one."""
        return label_mask(~self.mask)

    @cached_property
    def census(self) -> CornerCensus:
        return _census(self.counts[0], self.boundary)

    def positions(self, cells: np.ndarray) -> list[Point2]:
        """Image positions of the True cells of a crop-shaped array, row-major."""
        return _positions(cells, self.offset)


def _positions(cells: np.ndarray, offset) -> list[Point2]:
    rows, cols = np.nonzero(cells)
    return list(zip((rows + offset[0]).tolist(), (cols + offset[1]).tolist()))


def boundary_points(g: BinaryGrid, component) -> frozenset[Point2]:
    """Points of the component with some 8-neighbor position outside it."""
    ctx = ComponentContext.of(g, component)
    if not ctx.area:
        raise EmptyComponentError("boundary of an empty component")
    return frozenset(ctx.positions(ctx.boundary))


def classify_corners(g: BinaryGrid, component) -> CornerClassification:
    """Corner census of a component plus its per-point class map.

    Degenerate boundary points (fewer than 2 direct neighbors in the
    component) are counted in boundary_total and listed separately rather
    than raised, so validity reporting can consume them.
    """
    ctx = ComponentContext.of(g, component)
    if not ctx.area:
        raise EmptyComponentError("census of an empty component")
    return CornerClassification(
        census=ctx.census,
        degenerate_points=tuple(ctx.thin_points),
        crop=(ctx.boundary, ctx.counts[0], ctx.offset),
    )


def find_pathological(g: BinaryGrid, component) -> PathologyReport:
    """Scan 2x2 windows for diagonal-pair intersections with the component.

    A window is pathological when exactly its two main-diagonal or exactly
    its two anti-diagonal cells belong to the component. Windows are visited
    once each (the report records how many), over the component's bounding
    box grown by one cell and clipped to the image.
    """
    ctx = ComponentContext.of(g, component)
    # Windows reaching outside the image hold a background pair, so they
    # never hit; they are only left out of the count.
    windows = tuple(ctx.positions(diagonal_pairs(ctx.mask)))
    scanned = 1
    for first, size, image_size in zip(ctx.offset, ctx.mask.shape, ctx.image_shape):
        last = min(first + size - 2, image_size - 2)
        scanned *= max(last - max(first, 0) + 1, 0)
    return PathologyReport(windows=windows, clean=not windows, windows_scanned=scanned)


def validate_component(g: BinaryGrid, component) -> ValidityReport:
    """Check the simple-closed-curve hypothesis for one component.

    Valid means: no boundary point with fewer than 2 direct neighbors, no
    pathological 2x2 window, and the traced contours partition the boundary
    point set with no point shared between contours.
    """
    ctx = ComponentContext.of(g, component)
    reasons = [(ISOLATED_OR_THIN_POINT, p) for p in ctx.thin_points]
    reasons += [(PATHOLOGICAL_WINDOW, w) for w in find_pathological(g, ctx).windows]
    if not reasons:
        # Contour structure is only meaningful once the local checks pass.
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
    count: one read of each cell for itself plus one per 8-neighbor shift,
    9 touches per pixel total.
    """
    fg = g.cells
    touches = fg.size  # self
    direct, full = neighbor_counts(fg)
    touches += 8 * fg.size  # one shifted read per neighbor direction
    return _census(direct, fg & (full < 8)), touches
