"""Connected-component labeling and the complement-component hole oracle.

Components are maximal sets of cells joined by direct-adjacency (4-connected)
paths. Ids are assigned by first occurrence in row-major scan order, starting
at 1; 0 is "not in the target set".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import ndimage

from .errors import BorderContactError, UnknownComponentError
from .grid import BinaryGrid, Point2

# 4-connectivity structuring element.
_FOUR = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)


def label_mask(mask: np.ndarray) -> tuple[np.ndarray, int]:
    """4-connected labeling of a bool mask with deterministic ids.

    Ids are 1..n by first occurrence in row-major order, as
    `ndimage.label` numbers them: its union-find keeps the smallest
    provisional label of a component as the root, and the roots are
    compacted in order.
    """
    return ndimage.label(mask, structure=_FOUR)


@dataclass(frozen=True)
class LabelMap:
    """Partition of target cells into 4-connected components."""

    labels: np.ndarray = field(repr=False)
    component_count: int

    @cached_property
    def slices(self) -> list[tuple[slice, slice]]:
        """Bounding box of each component as two slices; id i at index i - 1."""
        return ndimage.find_objects(self.labels)

    @cached_property
    def table(self):
        """Census and validity of every component, a `corners.ComponentTable`."""
        from .corners import ComponentTable  # corners imports this module

        return ComponentTable(self.labels, self.component_count)

    @cached_property
    def surface(self):
        """Doubled-surface census of every component, a `solid3d.SurfaceTable`."""
        from .solid3d import SurfaceTable  # solid3d imports this module

        return SurfaceTable(self.labels, self.component_count)

    def points_of(self, component_id: int) -> frozenset[Point2]:
        return frozenset(map(tuple, np.argwhere(self.mask_of(component_id)).tolist()))

    def mask_of(self, component_id: int) -> np.ndarray:
        """Image-sized mask of one component; only its bounding box is read."""
        if not 1 <= component_id <= self.component_count:
            raise UnknownComponentError(
                f"component {component_id} not in 1..{self.component_count}"
            )
        window = self.slices[component_id - 1]
        mask = np.zeros(self.labels.shape, dtype=bool)
        mask[window] = self.labels[window] == component_id
        return mask


def label_components(g: BinaryGrid, target: str = "foreground") -> LabelMap:
    """Label the foreground or the background of a grid."""
    if target == "foreground":
        mask = g.cells
    elif target == "background":
        mask = ~g.cells
    else:
        raise ValueError(f"unknown target {target!r}")
    labels, n = label_mask(mask)
    labels.setflags(write=False)
    return LabelMap(labels=labels, component_count=n)


def holes_in_mask(mask) -> int:
    """Number of enclosed complement regions of the mask's cells.

    The mask is taken as one isolated object: its bounding box is padded by
    one background ring, the complement is 4-connected-labeled, and every
    region other than the unbounded one counts as a hole. The mask may be
    any 2D array-like of truth values; given a `corners.ComponentContext`,
    its complement labeling is read instead.
    """
    from .corners import ComponentContext  # corners imports this module

    if not isinstance(mask, ComponentContext):
        mask = np.asarray(mask, dtype=bool)
    return ComponentContext.of(None, mask).complement[1] - 1


def count_holes_oracle(g: BinaryGrid, component_id: int, labels: LabelMap | None = None) -> int:
    """Brute-force hole count of one foreground component.

    Counts the enclosed complement regions of that component alone (see
    `holes_in_mask`), so other foreground components can neither merge nor
    split them. A component touching the image border is refused.
    """
    from .corners import ComponentContext  # corners imports this module

    if labels is None:
        labels = label_components(g, "foreground")
    ctx = ComponentContext.of_label(labels, component_id)
    rows, cols = labels.slices[component_id - 1]
    if 0 in (rows.start, cols.start) or rows.stop == g.height or cols.stop == g.width:
        raise BorderContactError(
            f"component {component_id} touches the image border; pad_background first"
        )
    return holes_in_mask(ctx)
