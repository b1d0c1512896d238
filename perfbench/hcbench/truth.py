"""Expected answers for a generated image, computed without holecount.

Components are labelled with `scipy.ndimage` (4-connected foreground) and
numbered by first occurrence in row-major order, which is the numbering
the CLI promises. Each component is then examined alone on a crop padded
by one background pixel:

- holes: from the generator spec for the shapes it prescribes, otherwise
  the 8-connected complement regions of the crop minus the unbounded one
  (8-connected background is the consistent partner of a 4-connected
  foreground);
- boundary points: points with some 8-neighbour outside the component;
- corner classes: the number of direct neighbours inside the component;
- thin points (fewer than 2 direct neighbours) and pathological 2x2
  windows (exactly one diagonal pair inside), the two local reasons a
  component is invalid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .workloads import Generated

_FOUR = ndimage.generate_binary_structure(2, 1)
_EIGHT = ndimage.generate_binary_structure(2, 2)


@dataclass(frozen=True)
class ComponentTruth:
    area: int
    holes: int
    c2: int
    c3: int
    c4: int
    boundary: int
    thin: frozenset  # (row, col) of thin points
    windows: frozenset  # (row, col) of the top-left cell of pathological windows

    @property
    def locally_valid(self) -> bool:
        return not self.thin and not self.windows


@dataclass(frozen=True)
class ImageTruth:
    labels: np.ndarray  # first-occurrence numbered, 0 = background
    components: tuple[ComponentTruth, ...]
    all_valid: bool

    def first_locally_invalid(self) -> int | None:
        """1-based id of the first component with a thin point or window."""
        for i, t in enumerate(self.components):
            if not t.locally_valid:
                return i + 1
        return None


def first_occurrence_labels(mask: np.ndarray) -> tuple[np.ndarray, int]:
    raw, n = ndimage.label(mask, structure=_FOUR)
    if n == 0:
        return raw, 0
    flat = raw.ravel()
    nz = np.flatnonzero(flat)
    first = np.full(n + 1, flat.size, dtype=np.int64)
    np.minimum.at(first, flat[nz], nz)
    order = np.argsort(first[1:], kind="stable") + 1
    renumber = np.zeros(n + 1, dtype=raw.dtype)
    renumber[order] = np.arange(1, n + 1, dtype=raw.dtype)
    return renumber[raw], n


def _component(crop: np.ndarray, origin: tuple[int, int], holes: int | None) -> ComponentTruth:
    p = np.pad(crop, 1).astype(np.int8)
    direct = p[:-2, 1:-1] + p[2:, 1:-1] + p[1:-1, :-2] + p[1:-1, 2:]
    full = direct + p[:-2, :-2] + p[:-2, 2:] + p[2:, :-2] + p[2:, 2:]
    bnd = crop & (full < 8)
    r0, c0 = origin
    thin = frozenset(
        (int(r) + r0, int(c) + c0) for r, c in np.argwhere(crop & (direct < 2))
    )
    q = p.astype(bool)
    a, b, c, d = q[:-1, :-1], q[:-1, 1:], q[1:, :-1], q[1:, 1:]
    hits = (a & d & ~b & ~c) | (b & c & ~a & ~d)
    windows = frozenset(
        (int(r) + r0 - 1, int(cc) + c0 - 1) for r, cc in np.argwhere(hits)
    )
    if holes is None:
        _, regions = ndimage.label(~q, structure=_EIGHT)
        holes = regions - 1
    return ComponentTruth(
        area=int(crop.sum()),
        holes=holes,
        c2=int((bnd & (direct == 2)).sum()),
        c3=int((bnd & (direct == 3)).sum()),
        c4=int((bnd & (direct == 4)).sum()),
        boundary=int(bnd.sum()),
        thin=thin,
        windows=windows,
    )


def image_truth(g: Generated) -> ImageTruth:
    labels, _ = first_occurrence_labels(g.mask)
    spec_holes = {int(labels[p]): h for p, h in g.spec_holes.items()}
    if 0 in spec_holes or len(spec_holes) != len(g.spec_holes):
        raise ValueError("generator spec shapes are not separate components")
    comps = []
    for cid, sl in enumerate(ndimage.find_objects(labels), start=1):
        crop = labels[sl] == cid
        origin = (sl[0].start, sl[1].start)
        comps.append(_component(crop, origin, spec_holes.get(cid)))
    labels.setflags(write=False)
    return ImageTruth(labels=labels, components=tuple(comps), all_valid=g.all_valid)
