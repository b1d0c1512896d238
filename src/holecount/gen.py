"""Synthetic shape generation with known ground truth.

Randomness is numpy's PCG64 seeded through SeedSequence. A spec gives the same
grid bytes on any platform: that rests on PCG64's raw stream and on `_integers`,
a copy of `Generator.integers`' Lemire step that a test holds equal to numpy's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .corners import diagonal_pairs
from .errors import GenError
from .grid import BinaryGrid, grid_from_rows
from .labeling import label_components

RECT_WITH_HOLES = "rect_with_holes"
RANDOM_BLOB = "random_blob"
MAX_HOLE = 3  # largest hole side that `random_rect_spec` places

# The two worked example components, transcribed digit for digit, and the
# corner-class annotation grid for the first one (2 = outward corner,
# 4 = inward corner, 1 = other component point).
_M5 = """
00000000
00111100
01111100
01110000
00110000
00111000
00111000
00000000
"""

_M6 = """
00000000
00211200
02441200
02410000
00110000
00142000
00212000
00000000
"""

_M7 = """
00000000
00111111
01111111
01110011
01110011
00111111
00111111
00000000
"""


def paper_fixtures() -> dict:
    """Named reference grids: 'm5', 'm7', and 'm6_annotations'."""
    ann = tuple(
        tuple(int(ch) for ch in line)
        for line in _M6.split()
    )
    return {
        "m5": grid_from_rows(_M5.split()),
        "m7": grid_from_rows(_M7.split()),
        "m6_annotations": ann,
    }


@dataclass(frozen=True)
class ShapeSpec:
    kind: str
    dims: tuple[int, int]
    holes: tuple = ()  # ((row, col), (height, width)) per hole
    seed: int = 0
    target_area: int | None = None


def _check_hole_layout(dims, holes):
    h, w = dims
    for (r, c), (hh, ww) in holes:
        if hh < 1 or ww < 1:
            raise GenError(f"hole at {(r, c)} has empty size {(hh, ww)}")
        # The hole's 8-neighborhood ring must avoid the rect's perimeter.
        if r - 1 < 1 or c - 1 < 1 or r + hh > h - 2 or c + ww > w - 2:
            raise GenError(f"hole at {(r, c)} touches the boundary ring")
    for i, ((ri, ci), (hi, wi)) in enumerate(holes):
        for (rj, cj), (hj, wj) in holes[i + 1 :]:
            # Walls between holes must be at least 2 thick (expanded-by-1
            # boxes disjoint), else a wall pixel borders two hole regions
            # and the hole contours overlap.
            if (
                ri - 1 <= rj + hj
                and rj - 1 <= ri + hi
                and ci - 1 <= cj + wj
                and cj - 1 <= ci + wi
            ):
                raise GenError(
                    f"holes at {(ri, ci)} and {(rj, cj)} are closer than 2 cells"
                )


def _new_grid(shape, fill: bool) -> np.ndarray:
    """A bool array of `shape` set to `fill`, or a `GenError` if it cannot be."""
    try:
        return np.full(shape, fill, dtype=bool)
    except (MemoryError, ValueError):  # ValueError: past numpy's size limit
        raise GenError(f"grid {shape[0]}x{shape[1]} too large to allocate") from None


def gen_rect_with_holes(spec: ShapeSpec) -> BinaryGrid:
    """Solid rectangle with rectangular cavities; hole count is known."""
    h, w = spec.dims
    if h < 2 or w < 2:
        raise GenError(f"rectangle {h}x{w} too small")
    _check_hole_layout(spec.dims, spec.holes)
    arr = _new_grid((h, w), True)
    for (r, c), (hh, ww) in spec.holes:
        arr[r : r + hh, c : c + ww] = False
    return BinaryGrid(arr)


def random_rect_spec(seed: int, dims, hole_count: int) -> ShapeSpec:
    """Seeded random hole layout satisfying the separation invariants."""
    h, w = dims
    if hole_count < 0:
        raise GenError(f"hole count must be at least 0, got {hole_count}")
    if seed < 0:
        raise GenError(f"seed must be at least 0, got {seed}")
    if h * w > np.iinfo(np.intp).max:  # numpy could neither draw positions in it nor allocate it
        raise GenError(f"grid {h}x{w} too large to allocate")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0xA5])))
    holes = []
    attempts = 0
    while len(holes) < hole_count:
        attempts += 1
        if attempts > 10_000:
            raise GenError(
                f"cannot place {hole_count} holes in a {h}x{w} rectangle"
            )
        hh = int(rng.integers(1, MAX_HOLE + 1))
        ww = int(rng.integers(1, MAX_HOLE + 1))
        if h - 1 - hh < 1 or w - 1 - ww < 1:
            continue
        r = int(rng.integers(1, h - hh))
        c = int(rng.integers(1, w - ww))
        trial = holes + [((r, c), (hh, ww))]
        try:
            _check_hole_layout(dims, trial)
        except GenError:
            continue
        holes = trial
    return ShapeSpec(
        kind=RECT_WITH_HOLES, dims=(h, w), holes=tuple(holes), seed=seed
    )


def _integers(bit_generator):
    """`Generator.integers(n)` of a fresh PCG64, 1 <= n <= 2**32: Lemire's method on
    `next_uint32`'s words (each raw output's low half, then its high half). n = 1 takes none."""
    raw = iter(lambda: bit_generator.random_raw(1024).astype("<u8").view("<u4").tolist(), None)
    words = chain.from_iterable(raw).__next__

    def draw(n: int) -> int:
        if n == 1:
            return 0
        m = words() * n
        while m & 0xFFFFFFFF < 0x100000000 % n:  # numpy tests `< n` first; same words
            m = words() * n
        return m >> 32

    return draw


def _grow_blob(rng, shape, target) -> np.ndarray:
    """Randomized accretion of a 4-connected blob from the center. Draws come from `rng`'s
    raw words, so `rng` must hold no buffered 32-bit half (a fresh one does not); it is left
    past the words used. The grid is flat bytes: 0 free, 1 frontier, 2 blob, 3 off-grid."""
    h, w = shape
    stride = w + 2
    cells = bytearray(np.pad(_new_grid(shape, False), 1, constant_values=True).view(np.uint8) * 3)
    draw = _integers(rng.bit_generator)
    frontier = []
    p = (h // 2 + 1) * stride + w // 2 + 1
    for _ in range(target):  # the last pass's draw goes unused
        cells[p] = 2
        for q in (p - stride, p + stride, p - 1, p + 1):
            if not cells[q]:
                cells[q] = 1
                frontier.append(q)
        if not frontier:
            break
        i = draw(len(frontier))
        p, frontier[i] = frontier[i], frontier[-1]
        frontier.pop()
    return np.frombuffer(cells, np.uint8).reshape(h + 2, stride)[1:-1, 1:-1] == 2


def _fill_pathological(mask: np.ndarray) -> np.ndarray:
    """Fill the row-major-first background cell of each offending window,
    iterating to a fixpoint. Each pass fills at least one cell, the first
    window's, so the loop ends."""
    mask = mask.copy()
    while len(hits := np.argwhere(diagonal_pairs(mask))):
        for r, col in hits:
            cells = [(r, col), (r, col + 1), (r + 1, col), (r + 1, col + 1)]
            for rr, cc in cells:
                if not mask[rr, cc]:
                    mask[rr, cc] = True
                    break
    return mask


def gen_random_blob(spec: ShapeSpec) -> BinaryGrid:
    """Seeded random valid component by accretion, repair and upscaling.

    The blob is grown at half resolution from `SeedSequence([seed, 0])`, its
    pathological windows are filled to a fixpoint, and it is upscaled 2x.
    A 4-connected blob with no diagonal pinch, upscaled 2x, is well-composed
    (Latecki et al., CVIU 1995): each 2x2 window of the upscale is uniform,
    striped or a copy of a coarse window, so it has no diagonal pair and no
    thin point. A result that is not one valid component raises `GenError`.
    Hole count is not prescribed; ground truth comes from the complement
    oracle.
    """
    h, w = spec.dims
    if h < 4 or w < 4:
        raise GenError(f"blob grid {h}x{w} too small")
    target_area = (h * w) // 4 if spec.target_area is None else spec.target_area
    if target_area < 1:
        raise GenError(f"target area must be at least 1, got {target_area}")
    if spec.seed < 0:
        raise GenError(f"seed must be at least 0, got {spec.seed}")
    canvas = _new_grid((h, w), False)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([spec.seed, 0])))
    coarse = _fill_pathological(_grow_blob(rng, (h // 2, w // 2), max(1, target_area // 4)))
    canvas[: 2 * (h // 2), : 2 * (w // 2)] = coarse.repeat(2, axis=0).repeat(2, axis=1)
    g = BinaryGrid(canvas)
    labels = label_components(g)
    if labels.component_count != 1 or not labels.table.valid[1]:
        raise GenError(f"blob for seed {spec.seed} is not one valid component")
    return g
