"""Connected-component labeling and the complement-component hole oracle.

Components are maximal sets of cells joined by direct-adjacency (4-connected)
paths. Ids are assigned by first occurrence in row-major scan order, starting
at 1; 0 is "not in the target set".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import BorderContactError, UnknownComponentError
from .grid import BinaryGrid, Point2

def label_runs(mask) -> tuple[np.ndarray, int]:
    """Face-connected components of a 2D or 3D bool mask (4-connected in 2D,
    6-connected in 3D): C-contiguous int32 labels with ids 1..n by first
    cell in row-major order (`scipy.ndimage.label`'s), 0 off the mask, and n.

    A run-based labelling (He, Chao and Suzuki, IEEE TIP 17, 2008) in
    whole-array steps. Runs are the maximal lines of cells along the last
    axis, numbered in scan order. Two runs one step apart along another axis
    touch iff the first cell of one, moved by that step, lies in the other:
    an image painted with run numbers, read one step back and one step ahead
    of each run's first cell, finds every pair. Each run points to the first
    run found behind it, a forest; the other pairs hook the larger of their
    roots under the smaller, with pointer jumping after each round. A root
    is its component's first run, so numbering the roots in order numbers
    the components by first cell.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim not in (2, 3):
        raise ValueError(f"no labelling of a {mask.ndim}D mask")
    shape, size = mask.shape, mask.size
    if not size:
        return np.zeros(shape, dtype=np.int32), 0
    width = shape[-1]
    framed = np.zeros((size // width, width + 2), dtype=bool)
    framed[:, 1:-1] = mask.reshape(-1, width)
    edges = np.flatnonzero(framed[:, 1:] != framed[:, :-1])
    edges -= edges // (width + 1)  # each run's first cell and the cell after its last
    count = edges.size // 2
    lengths = np.diff(np.concatenate(([0], edges, [size])))  # of the gaps and the runs between them
    paint = np.full(2 * count + 1, count, dtype=np.int32)
    paint[1::2] = np.arange(count)
    run = np.repeat(paint, lengths)  # each cell's run; `count` off the mask
    starts = edges[::2]
    parent, own, found, stride = np.arange(count + 1), np.arange(count), [], width
    for extent in shape[-2::-1]:
        line = starts % (stride * extent) if stride * extent < size else starts  # in the slab it spans
        back, ahead = run.take(starts - stride, mode="clip"), run.take(starts + stride, mode="clip")
        back[line < stride] = count
        ahead[line >= stride * (extent - 1)] = count
        found.append((back, ahead))
        np.minimum(parent[:-1], back, out=parent[:-1])
        stride *= extent
    pairs = []
    for back, ahead in found:
        extra = np.flatnonzero((back != parent[:-1]) & (back < count))
        pairs.append((extra, back[extra]))
        extra = np.flatnonzero((parent.take(ahead) != own) & (ahead < count))
        pairs.append((ahead[extra], extra))
    a, b = (np.concatenate(side) for side in zip(*pairs))
    while True:
        up = parent[parent]
        while (up != parent).any():
            parent, up = up, up[up]
        ra, rb = parent[a], parent[b]
        apart = np.flatnonzero(ra != rb)
        if not apart.size:
            break
        a, b, ra, rb = a[apart], b[apart], ra[apart], rb[apart]
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
    root = parent[:-1] == own
    paint = np.zeros(2 * count + 1, dtype=np.int32)
    paint[1::2] = np.cumsum(root, dtype=np.int32)[parent[:-1]]
    return np.repeat(paint, lengths).reshape(shape), int(np.count_nonzero(root))


def label_mask(mask: np.ndarray) -> tuple[np.ndarray, int]:
    """4-connected labeling of a bool mask with deterministic ids: 1..n by
    first occurrence in row-major order (`label_runs`)."""
    return label_runs(mask)


def bounding_box(mask: np.ndarray) -> tuple[slice, slice]:
    """The smallest box holding the mask's True cells, from one `any` per
    axis; an empty box at (0, 0) when it has none."""
    rows, cols = (np.flatnonzero(mask.any(axis=a)) for a in (1, 0))
    if not rows.size:
        return slice(0, 0), slice(0, 0)
    return slice(int(rows[0]), int(rows[-1]) + 1), slice(int(cols[0]), int(cols[-1]) + 1)


@dataclass(frozen=True)
class LabelMap:
    """Partition of target cells into 4-connected components.

    `box` labels the target's bounding box, whose first cell is at `origin`
    of an image of `shape` (by default `box`'s, so `LabelMap(labels, n)`
    maps a whole label image). The tables are built on `box` at image
    positions: off it, as off the image, no cell is a target cell. Each is
    built from this map alone and keeps no reference to it.
    """

    box: np.ndarray = field(repr=False)
    component_count: int
    origin: tuple[int, int] = (0, 0)
    shape: tuple[int, int] | None = None

    def __post_init__(self):
        object.__setattr__(self, "shape", self.shape or self.box.shape)

    @cached_property
    def slices(self) -> list[tuple[slice, slice]]:
        """Bounding box of each component as two slices; id i at index i - 1."""
        low, high = self.table.low + self.origin, self.table.high + self.origin
        (r0, c0), (r1, c1) = low.T.tolist(), (high.T + 1).tolist()
        return list(zip(map(slice, r0, r1), map(slice, c0, c1)))

    @cached_property
    def table(self):
        """Census and validity of every component, a `corners.ComponentTable`."""
        from .corners import ComponentTable  # corners imports this module

        return ComponentTable(self)

    @cached_property
    def complements(self) -> tuple[np.ndarray, np.ndarray]:
        """Hole regions of every component from one labelling (`hole_regions`) of `box`."""
        return hole_regions(self)

    @cached_property
    def hole_counts(self) -> list[int]:
        """`complements`' hole count of each label as a list; index 0 unused."""
        return self.complements[0].tolist()

    @cached_property
    def curves(self):
        """Contours of every component, a `curves.CurveTable`."""
        from .curves import CurveTable  # curves imports this module

        return CurveTable(self)

    @cached_property
    def surface(self):
        """Doubled-surface census of every component, a `solid3d.SurfaceTable`."""
        from .solid3d import SurfaceTable  # solid3d imports this module

        return SurfaceTable(self)

    def points_of(self, component_id: int) -> frozenset[Point2]:
        return frozenset(map(tuple, np.argwhere(self.mask_of(component_id)).tolist()))

    def mask_of(self, component_id: int) -> np.ndarray:
        """Image-sized mask of one component; only its bounding box is read."""
        if not 1 <= component_id <= self.component_count:
            raise UnknownComponentError(
                f"component {component_id} not in 1..{self.component_count}"
            )
        # The cut of `box` is worked out per call (kept for every row, as
        # slices, the cuts cost `analyze` more in garbage collections than
        # they save) and compared straight into the mask, with no temporary.
        (rows, cols), (r, c) = self.slices[component_id - 1], self.origin
        mask = np.zeros(self.shape, dtype=bool)
        cut = self.box[rows.start - r : rows.stop - r, cols.start - c : cols.stop - c]
        np.equal(cut, component_id, out=mask[rows, cols])
        return mask


def label_components(g: BinaryGrid, target: str = "foreground") -> LabelMap:
    """Label the foreground or the background of a grid: only the target's
    bounding box, empty at (0, 0) if it has no target cell (`LabelMap`)."""
    if target == "foreground":
        mask = g.cells
    elif target == "background":
        mask = ~g.cells
    else:
        raise ValueError(f"unknown target {target!r}")
    rows, cols = bounding_box(mask)
    labels, n = label_mask(mask[rows, cols])
    labels.setflags(write=False)
    return LabelMap(labels, n, (rows.start, cols.start), mask.shape)


def hole_regions(labels: LabelMap) -> tuple[np.ndarray, np.ndarray]:
    """The enclosed complement regions of every component of a map, from one labelling.

    Only the boundary cells of the map's `table` matter: the others have no
    background 4-neighbour, so they border no complement region. Each
    label's box, the table's, grown by a background ring, is placed on one
    canvas that holds only that component's boundary cells: shelves of
    boxes, tallest first, each shelf as tall as its first box, filled by one
    scatter of those cells. The canvas complement is labelled once,
    4-connected. Each shelf's top and bottom rows are rings or free canvas,
    so all rings and free canvas are region 1. Every other region lies in
    one box, whose scan order the move kept, and is either one that
    `holes_in_mask` counts for that component alone or one of cells left
    off, which starts on a foreground cell. Returns each label's hole count
    (index 0 unused) and the holes' first cells in scan order, grouped by
    label, as positions in the map's `box`.
    """
    box, n, table = labels.box, labels.component_count, labels.table
    if not n:
        return np.zeros(1, dtype=np.intp), np.zeros((0, 2), dtype=np.intp)
    at, own, low, high = table.cells, table.own, table.low, table.high
    order = np.argsort(low[:, 0] - high[:, 0], kind="stable")
    h, w = (high[order] - low[order] + 3).T
    # One row of boxes, cut into shelves about as long as the canvas is tall.
    run = np.cumsum(w) - w
    new = np.diff(run // max(math.isqrt(int(h @ w)), 1), prepend=-1) > 0
    shelf = np.cumsum(new) - 1
    left = run - run[new][shelf]
    tops = np.cumsum(h[new]) - h[new]
    shift = np.zeros((n + 1, 2), dtype=np.intp)  # canvas minus box position
    shift[order + 1] = np.stack([tops[shelf], left], axis=1) + 1 - low[order]
    canvas = np.zeros((h[new].sum(), (left + w).max()), dtype=box.dtype)
    width = canvas.shape[1]
    canvas.ravel()[at + at // box.shape[1] * (width - box.shape[1]) + (shift @ (width, 1))[own]] = own
    free = canvas == 0
    regions = label_mask(free)[0]
    # A region's first cell has no cell of its region above it; ids number
    # regions by first cell, so it raises the running maximum. The cell
    # above it is its component's.
    free[1:] &= ~free[:-1]
    at = np.flatnonzero(free)
    first = at[np.diff(np.maximum.accumulate(regions.ravel()[at]), prepend=1) > 0]
    owner = canvas.ravel()[first - width]
    cells = np.stack(divmod(first, width), axis=1) - shift[owner]
    # A hole starts on background: a cell of another component there would
    # touch the one above and share its label.
    hole = box[cells[:, 0], cells[:, 1]] == 0
    owner, cells = owner[hole], cells[hole]
    return np.bincount(owner, minlength=n + 1), cells[np.argsort(owner, kind="stable")]


def holes_in_mask(mask) -> int:
    """Number of enclosed complement regions of the mask's cells.

    The mask is taken as one isolated object: its bounding box is padded by
    one background ring, the complement is 4-connected-labeled, and every
    region other than the unbounded one counts as a hole. The mask may be
    any 2D array-like of truth values, or a `corners.ComponentContext`. A
    context reads its row of its `LabelMap`'s `hole_counts`, from the mosaic
    (`hole_regions`) that counts the same regions; an array labels its own
    ringed crop's complement, the reference the mosaic is tested against.
    """
    labels = getattr(mask, "labels", None)
    if isinstance(labels, LabelMap):
        return labels.hole_counts[mask.cid]
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2:
        raise ValueError(f"mask must be 2D, got shape {mask.shape}")
    return label_mask(~np.pad(mask[bounding_box(mask)], 1))[1] - 1


def count_holes_oracle(g: BinaryGrid, component_id: int) -> int:
    """Brute-force hole count of one foreground component.

    Reads the enclosed complement regions of that component alone from the
    image's mosaic (see `holes_in_mask`), so other foreground components can
    neither merge nor split them. A component touching the border is refused.
    """
    labels = label_components(g, "foreground")
    if not 1 <= component_id <= labels.component_count:
        raise UnknownComponentError(f"component {component_id} not in 1..{labels.component_count}")
    rows, cols = labels.slices[component_id - 1]
    if 0 in (rows.start, cols.start) or rows.stop == g.height or cols.stop == g.width:
        raise BorderContactError(f"component {component_id} touches the image border; pad_background first")
    return labels.hole_counts[component_id]
