"""Connected-component labeling and the complement-component hole oracle.

Components are maximal sets of cells joined by direct-adjacency (4-connected)
paths. Ids are assigned by first occurrence in row-major scan order, starting
at 1; 0 is "not in the target set".
"""

from __future__ import annotations

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
    parent = _joined(parent, *(np.concatenate(side) for side in zip(*pairs)))
    root = parent[:-1] == own
    paint = np.zeros(2 * count + 1, dtype=np.int32)
    paint[1::2] = np.cumsum(root, dtype=np.int32)[parent[:-1]]
    return np.repeat(paint, lengths).reshape(shape), int(np.count_nonzero(root))


def _joined(parent: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Each node's root once the forest `parent` (a root its tree's least node)
    joins each pair (a, b): rounds of pointer jumping, then hooking."""
    while True:
        up = parent[parent]
        while (up != parent).any():
            parent, up = up, up[up]
        ra, rb = parent[a], parent[b]
        apart = np.flatnonzero(ra != rb)
        if not apart.size:
            return parent
        a, b, ra, rb = a[apart], b[apart], ra[apart], rb[apart]
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))


def interval_roots(first: np.ndarray, last: np.ndarray, width: int) -> np.ndarray:
    """The root of each interval (`_joined`) once intervals on lines one apart
    that share a column are joined. Interval i spans positions first[i]..last[i]
    of one line, each line * width + a column of 0..width - 1; they are sorted
    and disjoint. The intervals below i that meet it are begin[i]..end[i] - 1.
    Each one below is seeded under its first above, as `label_runs` seeds its
    forest; two intervals on a line meet at most one below in common, so the
    other pairs are i and begin[i] where i - 1 meets begin[i] too."""
    begin = np.searchsorted(last, first + width)
    end = np.searchsorted(first, last + width, "right")
    above = np.cumsum(np.bincount(end, minlength=first.size + 1))[:-1]  # each one's first above with an end past it
    parent = np.arange(first.size)
    parent = np.where(np.append(begin, first.size).take(above) <= parent, above, parent)
    also = np.flatnonzero(begin[1:] < end[:-1]) + 1
    return _joined(parent, also, begin.take(also))


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
        """Hole regions of every component from the gaps between its runs (`hole_regions`)."""
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
    """The enclosed complement regions of every component of a map, from its runs.

    A run, a maximal line of one label's cells along a row, starts and ends at
    a boundary cell of the map's `table` with no W, or no E, cell of its label;
    a gap is the cells between two runs of one label on one row. Any other
    cell off a label in its ringed box joins the ring along its row, so the
    label's holes are the 4-connected regions of its gaps with no gap outside:
    on a row with no row of the label right above or below, or reaching past
    the first or last run of either. Gaps on adjacent rows that meet are
    joined by `interval_roots`, on the lines of their labels. Returns each
    label's hole count (index 0 unused) and the holes' first cells (their first
    gaps'), as `box` positions in scan order, grouped by label.
    """
    from .corners import TILES  # corners imports this module

    (height, width), n, table = labels.box.shape, labels.component_count, labels.table
    code, own, cells = table.code, table.own, table.cells
    starts, ends = (np.flatnonzero(~TILES[:, 1, c].take(code)) for c in (0, 2))  # each run's, row-major
    order = np.argsort(own.take(starts), kind="stable")
    starts, ends = starts.take(order), ends.take(order)  # by label
    label, (row, first), last = own.take(starts), np.divmod(cells.take(starts), width), cells.take(ends) % width
    line = label * (height + 1) + row  # the runs of one label on one row are a line
    new, end = np.diff(line, prepend=-1) != 0, np.diff(line, append=-1) != 0
    gap = np.flatnonzero(~new[1:])  # between run `gap` and the next
    at, a, b = np.cumsum(new).take(gap), last.take(gap) + 1, first.take(gap + 1) - 1
    line, low, high = (np.r_[-2, v, -2] for v in (line[new], first[new], last[end]))  # line `at` is a gap's
    below = line.take(at + 1) - line.take(at) == 1
    outside = (line.take(at) - line.take(at - 1) != 1) | ~below
    outside |= a < np.maximum(low.take(at - 1), low.take(at + 1))
    outside |= b > np.minimum(high.take(at - 1), high.take(at + 1))
    key = line.take(at) * width
    root = interval_roots(key + a, key + b, width)
    hole = (root == np.arange(gap.size)) & (np.bincount(root[outside], minlength=gap.size) == 0)
    return np.bincount(label[gap[hole]], minlength=n + 1), np.stack([row[gap[hole]], a[hole]], axis=1)


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
