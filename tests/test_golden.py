"""Byte-for-byte output of `analyze`, `curves` and `genus3d` on fixed inputs.

Each case pins the exit code and the sha256 of stdout and of stderr, so a
change to the per-component path that alters any printed byte fails here.
The inputs cover one large valid component, many small ones, invalid noise
next to a valid component, a component touching the image border, and
components that touch only diagonally: valid holed rings, and a valid
rectangle next to a thin bar or next to a ring whose contours overlap.
"""

import hashlib

import numpy as np
import pytest

import holecount as hc
from holecount import cli


def blob(seed):
    return hc.gen_random_blob(hc.ShapeSpec(kind=hc.gen.RANDOM_BLOB, dims=(96, 96), seed=seed))


def rect_tile():
    """6 x 6 rectangles of 12 x 12 with 0-2 holes, 2 background cells apart."""
    arr = np.zeros((6 * 14 + 2, 6 * 14 + 2), dtype=bool)
    for i in range(6):
        for j in range(6):
            spec = hc.random_rect_spec(6 * i + j, (12, 12), (i + j) % 3)
            arr[1 + 14 * i : 13 + 14 * i, 1 + 14 * j : 13 + 14 * j] = hc.gen_rect_with_holes(spec).cells
    return hc.BinaryGrid(arr)


def noise_below_rect():
    """A valid rectangle with 2 holes above 48 x 48 Bernoulli(0.55) noise."""
    arr = np.zeros((60, 48), dtype=bool)
    arr[1:11, 1:21] = hc.gen_rect_with_holes(hc.random_rect_spec(4, (10, 20), 2)).cells
    arr[12:] = np.random.default_rng(3).random((48, 48)) < 0.55
    return hc.BinaryGrid(arr)


def border_shape():
    return hc.gen_rect_with_holes(hc.random_rect_spec(2, (12, 16), 2))


def ring(arr, top, left):
    """A 6 x 6 square with a 2 x 2 hole, first cell at (top, left)."""
    arr[top : top + 6, left : left + 6] = True
    arr[top + 2 : top + 4, left + 2 : left + 4] = False


def diagonal_rings():
    """Four valid holed rings and a valid L, touching only diagonally: the
    ring at (7, 7) touches the one at (1, 1) at a main-diagonal contact and
    the one at (1, 13) at an anti-diagonal one; the ring at (5, 21) touches
    the foot of the L, which has the smaller label though it lies below."""
    arr = np.zeros((14, 33), dtype=bool)
    ring(arr, 1, 1)
    ring(arr, 7, 7)
    ring(arr, 1, 13)
    ring(arr, 5, 21)
    arr[0:13, 30:32] = True
    arr[11:13, 27:32] = True
    return hc.BinaryGrid(arr)


def rect_touching_thin():
    """A valid rectangle with 2 holes; a 1-wide bar touches its lower right
    corner diagonally."""
    arr = np.zeros((14, 16), dtype=bool)
    arr[1:11, 1:13] = hc.gen_rect_with_holes(hc.random_rect_spec(5, (10, 12), 2)).cells
    arr[11, 13:16] = True
    return hc.BinaryGrid(arr)


def rect_touching_overlap():
    """A valid rectangle with 1 hole; a 1-wide ring, whose only fault is its
    overlapping contours, touches its lower right corner diagonally."""
    arr = np.zeros((13, 13), dtype=bool)
    arr[1:9, 1:9] = hc.gen_rect_with_holes(hc.random_rect_spec(6, (8, 8), 1)).cells
    arr[9:12, 9:12] = True
    arr[10, 10] = False
    return hc.BinaryGrid(arr)


INPUTS = {
    "blob1": lambda: blob(1),
    "blob7": lambda: blob(7),
    "tile": rect_tile,
    "noise": noise_below_rect,
    "border": border_shape,
    "rings": diagonal_rings,
    "thin": rect_touching_thin,
    "overlap": rect_touching_overlap,
}
COMMANDS = {
    "analyze": ["analyze"],
    "text": ["analyze", "--output", "text"],
    "novalidate": ["analyze", "--validate", "off"],
    "nooracle": ["analyze", "--oracle", "off"],
    "curves": ["curves"],
    "genus3d": ["genus3d"],
}
# (exit code, sha256 of stdout, sha256 of stderr), the first 16 hex digits.
GOLDEN = {
    ('blob1', 'analyze'): (0, 'b16e155151e302d4', 'e3b0c44298fc1c14'),
    ('blob1', 'text'): (0, '1cedae048165eb8a', 'e3b0c44298fc1c14'),
    ('blob1', 'novalidate'): (0, '26c9b02ad6222a28', 'e3b0c44298fc1c14'),
    ('blob1', 'nooracle'): (0, 'fad9b6eeb82b6165', 'e3b0c44298fc1c14'),
    ('blob1', 'curves'): (0, '87887cb02aafb189', 'e3b0c44298fc1c14'),
    ('blob1', 'genus3d'): (0, 'ef6dfff92a911793', 'e3b0c44298fc1c14'),
    ('blob7', 'analyze'): (0, '37453fc4c81931ab', 'e3b0c44298fc1c14'),
    ('blob7', 'text'): (0, '8965a12e0d6b73af', 'e3b0c44298fc1c14'),
    ('blob7', 'novalidate'): (0, '486ede29ac0d06c1', 'e3b0c44298fc1c14'),
    ('blob7', 'nooracle'): (0, '70672ad5533de92a', 'e3b0c44298fc1c14'),
    ('blob7', 'curves'): (0, '2d7146ac81d2c139', 'e3b0c44298fc1c14'),
    ('blob7', 'genus3d'): (0, 'c1bafe1d8c5cd4e2', 'e3b0c44298fc1c14'),
    ('tile', 'analyze'): (0, 'a20f8dbfae31db4c', 'e3b0c44298fc1c14'),
    ('tile', 'text'): (0, '7839b19a5ca9b29f', 'e3b0c44298fc1c14'),
    ('tile', 'novalidate'): (0, '68796843da544a9a', 'e3b0c44298fc1c14'),
    ('tile', 'nooracle'): (0, '3c16d5e84a2d993b', 'e3b0c44298fc1c14'),
    ('tile', 'curves'): (0, '7d2e1f38b1fb6887', 'e3b0c44298fc1c14'),
    ('tile', 'genus3d'): (0, 'b0419c4747e5cf0d', 'e3b0c44298fc1c14'),
    ('noise', 'analyze'): (0, '200b7d66a424f24a', 'e3b0c44298fc1c14'),
    ('noise', 'text'): (0, '72966207b474d6b3', 'e3b0c44298fc1c14'),
    ('noise', 'novalidate'): (2, '3ecbcc06f284a687', 'e3b0c44298fc1c14'),
    ('noise', 'nooracle'): (0, '9dbaf27dc4d34afe', 'e3b0c44298fc1c14'),
    ('noise', 'curves'): (1, 'e3b0c44298fc1c14', '983f294d136dfed7'),
    ('noise', 'genus3d'): (1, 'e3b0c44298fc1c14', '983f294d136dfed7'),
    ('border', 'analyze'): (0, '48641502feec43bf', 'e3b0c44298fc1c14'),
    ('border', 'text'): (0, '577d3090970738a8', 'e3b0c44298fc1c14'),
    ('border', 'novalidate'): (0, 'e5f74f98431e0c8e', 'e3b0c44298fc1c14'),
    ('border', 'nooracle'): (0, '83e837d9216eb9a5', 'e3b0c44298fc1c14'),
    ('border', 'curves'): (0, 'e1640d1397bdccdb', 'e3b0c44298fc1c14'),
    ('border', 'genus3d'): (0, 'a9433d66faacf97d', 'e3b0c44298fc1c14'),
    ('rings', 'analyze'): (0, '7a329f3b38f48c07', 'e3b0c44298fc1c14'),
    ('rings', 'text'): (0, '8987fed56e92f73a', 'e3b0c44298fc1c14'),
    ('rings', 'novalidate'): (0, 'b38020583ceba57d', 'e3b0c44298fc1c14'),
    ('rings', 'nooracle'): (0, 'c90a4bf03e6f368a', 'e3b0c44298fc1c14'),
    ('rings', 'curves'): (0, '88ebd970e2bf5ee9', 'e3b0c44298fc1c14'),
    ('rings', 'genus3d'): (0, 'bc4092f97ad22270', 'e3b0c44298fc1c14'),
    ('thin', 'analyze'): (0, '2a905b5707e80eb7', 'e3b0c44298fc1c14'),
    ('thin', 'text'): (0, '4d52390f81d82ae0', 'e3b0c44298fc1c14'),
    ('thin', 'novalidate'): (0, 'ff604801920aa17f', 'e3b0c44298fc1c14'),
    ('thin', 'nooracle'): (0, '84061a106325395a', 'e3b0c44298fc1c14'),
    ('thin', 'curves'): (1, 'e3b0c44298fc1c14', 'ae452b448a467f71'),
    ('thin', 'genus3d'): (1, 'e3b0c44298fc1c14', 'ae452b448a467f71'),
    ('overlap', 'analyze'): (0, 'a0bc25590a45f64c', 'e3b0c44298fc1c14'),
    ('overlap', 'text'): (0, 'adfe210623c2b1e7', 'e3b0c44298fc1c14'),
    ('overlap', 'novalidate'): (2, '5b373ed1d5140913', 'e3b0c44298fc1c14'),
    ('overlap', 'nooracle'): (0, '7f3630d1c1dc9f08', 'e3b0c44298fc1c14'),
    ('overlap', 'curves'): (1, 'e3b0c44298fc1c14', 'ac9ba2df8acae681'),
    ('overlap', 'genus3d'): (1, 'e3b0c44298fc1c14', 'ac9ba2df8acae681'),
}


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    out = {}
    for name, make in INPUTS.items():
        out[name] = root / f"{name}.txt"
        out[name].write_text(hc.to_ascii01(make()))
    return out


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("name", INPUTS)
def test_output_is_pinned(paths, capsys, name, command):
    code = cli.main(COMMANDS[command] + [str(paths[name])])
    captured = capsys.readouterr()
    assert (code, digest(captured.out), digest(captured.err)) == GOLDEN[name, command]
