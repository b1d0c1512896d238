"""Seeded benchmark inputs.

Every workload turns a seed into one image file. The shapes come from
`holecount.gen`, as a user would make them; the file bytes come from the
writers below, so a later change to holecount's own writers cannot change
what the benchmark feeds the program.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from holecount import gen

COMMANDS = ("analyze", "curves", "genus3d")


@dataclass(frozen=True)
class Generated:
    """One generated input: the mask, its file bytes and what the spec says.

    `spec_holes` maps a pixel of each generated shape to the hole count its
    generator spec prescribes; it is empty when the generator does not
    prescribe hole counts. `all_valid` says whether every component is
    valid by construction, so that every command must succeed on it.
    """

    mask: np.ndarray = field(repr=False)
    data: bytes = field(repr=False)
    suffix: str
    all_valid: bool
    spec_holes: dict = field(default_factory=dict, repr=False)


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, tag])))


def ascii01_bytes(mask: np.ndarray) -> bytes:
    """Rows of '0'/'1' characters, each ending in a newline."""
    h, w = mask.shape
    out = np.full((h, w + 1), ord("\n"), dtype=np.uint8)
    out[:, :w] = np.where(mask, ord("1"), ord("0"))
    return out.tobytes()


def pbm_p1_bytes(mask: np.ndarray) -> bytes:
    """Plain PBM: header, then one row per line with space-separated bits."""
    h, w = mask.shape
    body = np.full((h, 2 * w), ord(" "), dtype=np.uint8)
    body[:, 0::2] = np.where(mask, ord("1"), ord("0"))
    body[:, -1] = ord("\n")
    return f"P1\n{w} {h}\n".encode("ascii") + body.tobytes()


def large_single(seed: int, side: int = 320) -> Generated:
    """One side x side rectangle with 5 holes, padded by 1, as PBM P1."""
    spec = gen.random_rect_spec(seed, (side, side), 5)
    mask = np.pad(gen.gen_rect_with_holes(spec).cells, 1)
    return Generated(
        mask=mask,
        data=pbm_p1_bytes(mask),
        suffix="pbm",
        all_valid=True,
        spec_holes={(1, 1): len(spec.holes)},
    )


def many_small(seed: int, tiles: int = 20) -> Generated:
    """A tiles x tiles grid of 6-8 px rectangles with 0 or 1 hole, ascii01.

    Each shape sits in a 10 px cell at an offset that leaves at least two
    background pixels to the next shape.
    """
    cell = 10
    rng = _rng(seed, 0x5A11)
    mask = np.zeros((tiles * cell + 2, tiles * cell + 2), dtype=bool)
    spec_holes = {}
    for ty in range(tiles):
        for tx in range(tiles):
            h, w = (int(v) for v in rng.integers(6, 9, size=2))
            holes = int(rng.integers(0, 2))
            spec = gen.random_rect_spec(int(rng.integers(2**31)), (h, w), holes)
            shape = gen.gen_rect_with_holes(spec).cells
            r = 1 + ty * cell + int(rng.integers(0, cell - 2 - h + 1))
            c = 1 + tx * cell + int(rng.integers(0, cell - 2 - w + 1))
            mask[r : r + h, c : c + w] = shape
            spec_holes[(r, c)] = len(spec.holes)
    return Generated(
        mask=mask,
        data=ascii01_bytes(mask),
        suffix="txt",
        all_valid=True,
        spec_holes=spec_holes,
    )


def blob(seed: int, side: int = 512) -> Generated:
    """One seeded random blob on a side x side grid, ascii01."""
    spec = gen.ShapeSpec(kind=gen.RANDOM_BLOB, dims=(side, side), seed=seed)
    mask = np.array(gen.gen_random_blob(spec).cells)
    return Generated(mask=mask, data=ascii01_bytes(mask), suffix="txt", all_valid=True)


def noisy(seed: int, side: int = 192) -> Generated:
    """Bernoulli(0.55) noise, padded by 1, ascii01; most components invalid.

    A 12 px rectangle with one hole sits above the noise, apart from it, as
    component 1, so `curves` and `genus3d` finish one valid component before
    they reach the first invalid one and stop.
    """
    spec = gen.random_rect_spec(seed, (12, 12), 1)
    top = np.zeros((14, side + 2), dtype=bool)
    top[1:13, 1:13] = gen.gen_rect_with_holes(spec).cells
    noise = np.pad(_rng(seed, 0x9015E).random((side, side)) < 0.55, 1)
    mask = np.vstack([top, noise])
    return Generated(
        mask=mask,
        data=ascii01_bytes(mask),
        suffix="txt",
        all_valid=False,
        spec_holes={(1, 1): len(spec.holes)},
    )


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "large_single": large_single,
    "many_small": many_small,
    "blob": blob,
    "noisy": noisy,
}
