import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import holecount as hc
from holecount.errors import OutOfBoundsError, ParseError

small_grids = arrays(
    dtype=bool,
    shape=st.tuples(st.integers(1, 12), st.integers(1, 12)),
)


def test_parse_pbm_small():
    g = hc.parse_image(b"P1\n2 2\n1 0 0 1", "pbm_p1")
    assert (g.height, g.width) == (2, 2)
    assert g.foreground_points() == {(0, 0), (1, 1)}


def test_parse_pbm_single_pixel():
    g = hc.parse_image(b"P1\n1 1\n1", "pbm_p1")
    assert (g.height, g.width) == (1, 1)
    assert g.is_foreground((0, 0))


def test_parse_pbm_comments_and_packed_digits():
    g = hc.parse_image(b"P1\n# a comment\n2 2 # another\n10\n01\n", "pbm_p1")
    assert g.foreground_points() == {(0, 0), (1, 1)}


@pytest.mark.parametrize(
    "data",
    [
        b"P4\n2 2\n",  # wrong magic
        b"P1\n2\n1 0",  # missing dimension
        b"P1\n2 2\n1 0 0",  # too few bits
        b"P1\n2 2\n1 0 0 1 1",  # too many bits
        b"P1\n2 2\n1 0 0 2",  # illegal raster char
        b"",
    ],
)
def test_parse_pbm_errors(data):
    with pytest.raises(ParseError):
        hc.parse_image(data, "pbm_p1")


@pytest.mark.parametrize("wrap", [bytearray, memoryview])
@pytest.mark.parametrize(
    "data,fmt",
    [(b"01\n10\n", "ascii01"), (b"P1\n2 2\n0 1\n1 0\n", "pbm_p1")],
)
def test_parse_bytes_like_input_as_bytes(wrap, data, fmt):
    assert hc.parse_image(wrap(data), fmt) == hc.parse_image(data, fmt)
    with pytest.raises(ParseError) as exc_info:
        hc.parse_image(wrap(data + b"0x\n"), fmt)
    with pytest.raises(ParseError) as from_bytes:
        hc.parse_image(data + b"0x\n", fmt)
    assert (str(exc_info.value), exc_info.value.line) == (str(from_bytes.value), from_bytes.value.line)


def test_parse_non_bytes_like_input_raises_type_error():
    # A buffer with gaps is not bytes-like either, though its bytes are canonical.
    for data, kind in [(5, "int"), (memoryview(b"0x1x\nx1x0x\n")[::2], "memoryview")]:
        with pytest.raises(TypeError, match=f"^decoding to str: need a bytes-like object, {kind} found$"):
            hc.parse_image(data, "ascii01")


def test_parse_ascii01_matrix5_foreground_tally(m5):
    # Independent tally: count the '1' characters of the transcription.
    from holecount.gen import _M5

    expected = _M5.count("1")
    assert (m5.height, m5.width) == (8, 8)
    assert m5.foreground_count() == expected == 20


def test_parse_ascii01_errors():
    with pytest.raises(ParseError):
        hc.parse_image("01\n011\n", "ascii01")
    with pytest.raises(ParseError):
        hc.parse_image("0x\n", "ascii01")
    with pytest.raises(ParseError):
        hc.parse_image("", "ascii01")
    with pytest.raises(ValueError, match="^unknown format 'png'$"):
        hc.parse_image(b"01\n", "png")


@settings(max_examples=50)
@given(small_grids)
def test_ascii01_roundtrip(cells):
    g = hc.BinaryGrid(cells)
    assert hc.parse_image(hc.to_ascii01(g), "ascii01") == g


@settings(max_examples=50)
@given(small_grids)
def test_pbm_roundtrip(cells):
    g = hc.BinaryGrid(cells)
    assert hc.parse_image(hc.to_pbm_p1(g), "pbm_p1") == g


def test_pad_single_foreground_cell():
    g = hc.grid_from_rows(["1"])
    p = hc.pad_background(g, 1)
    assert (p.height, p.width) == (3, 3)
    assert p.foreground_points() == {(1, 1)}


def test_pad_matrix7_clears_border(m7):
    assert m7.cells[:, -1].any()  # reaches the last column
    p = hc.pad_background(m7, 1)
    assert (p.height, p.width) == (10, 10)
    assert not p.cells[0].any() and not p.cells[-1].any()
    assert not p.cells[:, 0].any() and not p.cells[:, -1].any()
    assert p.foreground_count() == m7.foreground_count()


@settings(max_examples=30)
@given(small_grids, st.integers(1, 3))
def test_pad_dims_and_distance_multiset(cells, margin):
    g = hc.BinaryGrid(cells)
    p = hc.pad_background(g, margin)
    assert (p.height, p.width) == (g.height + 2 * margin, g.width + 2 * margin)

    def dists(grid):
        pts = sorted(grid.foreground_points())
        return sorted(
            abs(a[0] - b[0]) + abs(a[1] - b[1])
            for i, a in enumerate(pts)
            for b in pts[i + 1 :]
        )

    assert dists(p) == dists(g)


def test_pad_rejects_zero_margin():
    with pytest.raises(ValueError):
        hc.pad_background(hc.grid_from_rows(["1"]), 0)


def test_neighbors_interior():
    g = hc.BinaryGrid(np.zeros((5, 5), dtype=bool))
    direct = hc.neighbors(g, (2, 2), "direct")
    indirect = hc.neighbors(g, (2, 2), "indirect")
    assert len(direct) == 4
    assert len(indirect) == 8
    assert direct <= indirect


def test_neighbors_corner():
    g = hc.BinaryGrid(np.zeros((3, 3), dtype=bool))
    assert len(hc.neighbors(g, (0, 0), "direct")) == 2
    assert len(hc.neighbors(g, (0, 0), "indirect")) == 3


def test_neighbors_out_of_bounds():
    g = hc.BinaryGrid(np.zeros((3, 3), dtype=bool))
    with pytest.raises(OutOfBoundsError):
        hc.neighbors(g, (3, 0), "direct")
    with pytest.raises(ValueError, match="^unknown mode 'diagonal'$"):
        hc.neighbors(g, (0, 0), "diagonal")


@settings(max_examples=30)
@given(small_grids, st.data())
def test_neighbor_containment_property(cells, data):
    g = hc.BinaryGrid(cells)
    r = data.draw(st.integers(0, g.height - 1))
    c = data.draw(st.integers(0, g.width - 1))
    direct = hc.neighbors(g, (r, c), "direct")
    indirect = hc.neighbors(g, (r, c), "indirect")
    assert direct <= indirect
    assert len(direct) <= 4 and len(indirect) <= 8


@pytest.mark.parametrize("shape", [(2, 2, 2), (0, 3)])
def test_grid_must_be_2d_and_nonempty(shape):
    with pytest.raises(ValueError, match=r"^grid shape must be 2D and nonempty, got \("):
        hc.BinaryGrid(np.ones(shape, dtype=bool))


def test_grid_is_immutable(m5):
    with pytest.raises(ValueError):
        m5.cells[0, 0] = True
