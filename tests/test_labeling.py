import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import ndimage

import holecount as hc
from holecount import corners
from holecount.errors import BorderContactError, UnknownComponentError
from holecount.labeling import LabelMap, holes_in_mask, label_mask, label_runs


def test_matrix5_single_component(m5):
    lm = hc.label_components(m5, "foreground")
    assert lm.component_count == 1
    assert lm.points_of(1) == m5.foreground_points()


def test_diagonal_pixels_are_two_components():
    g = hc.grid_from_rows(["10", "01"])
    lm = hc.label_components(g, "foreground")
    assert lm.component_count == 2
    assert lm.points_of(1) == {(0, 0)}
    assert lm.points_of(2) == {(1, 1)}


def test_empty_grid_has_no_components():
    g = hc.BinaryGrid(np.zeros((4, 4), dtype=bool))
    lm = hc.label_components(g, "foreground")
    assert lm.component_count == 0
    assert {i: lm.points_of(i) for i in range(1, lm.component_count + 1)} == {}


def test_ids_follow_row_major_first_occurrence():
    g = hc.grid_from_rows(
        [
            "0010",
            "1010",
            "0000",
            "0101",
        ]
    )
    lm = hc.label_components(g, "foreground")
    firsts = [min(lm.points_of(i)) for i in range(1, lm.component_count + 1)]
    assert firsts == sorted(firsts)


def first_occurrence_renumbering(mask):
    """Reference ids: scipy's labels renumbered 1..n by the row-major
    position of each component's first cell (one full sort)."""
    raw, n = ndimage.label(mask, structure=ndimage.generate_binary_structure(2, 1))
    values, first = np.unique(raw, return_index=True)
    keep = values != 0
    remap = np.zeros(n + 1, dtype=raw.dtype)
    remap[values[keep][np.argsort(first[keep], kind="stable")]] = np.arange(1, n + 1)
    return remap[raw], n


@settings(max_examples=300, deadline=None)
@given(arrays(bool, st.tuples(st.integers(0, 40), st.integers(0, 40))))
@example(np.random.default_rng(0).random((512, 512)) < 0.3)
@example(np.random.default_rng(1).random((512, 512)) < 0.5)
@example(np.random.default_rng(2).random((512, 512)) < 0.6)
def test_label_ids_are_row_major_first_occurrence(mask):
    labels, n = label_mask(mask)
    expected, n_expected = first_occurrence_renumbering(mask)
    assert n == n_expected
    np.testing.assert_array_equal(labels, expected)


def test_background_labeling_mode(m7):
    lm = hc.label_components(hc.pad_background(m7, 1), "background")
    # Unbounded region plus the one cavity.
    assert lm.component_count == 2
    with pytest.raises(ValueError, match="^unknown target 'edges'$"):
        hc.label_components(m7, "edges")


def test_unknown_component_id(m5):
    lm = hc.label_components(m5, "foreground")
    with pytest.raises(UnknownComponentError):
        lm.points_of(2)
    with pytest.raises(UnknownComponentError):
        hc.count_holes_oracle(m5, 99)
    with pytest.raises(UnknownComponentError):
        hc.analyze_component(m5, 0)


def test_oracle_matrix5(m5):
    g = hc.pad_background(m5, 1)
    assert hc.count_holes_oracle(g, 1) == 0


def test_oracle_matrix7(m7):
    g = hc.pad_background(m7, 1)
    assert hc.count_holes_oracle(g, 1) == 1


def test_oracle_border_contact_raises(m7):
    with pytest.raises(BorderContactError):
        hc.count_holes_oracle(m7, 1)


@pytest.mark.parametrize("side", ["top", "left", "bottom", "right"])
def test_oracle_border_contact_on_each_side(side):
    padded = hc.pad_background(hc.grid_from_rows(["111", "101", "111"]), 2).cells
    cut = {"top": padded[2:], "left": padded[:, 2:], "bottom": padded[:-2], "right": padded[:, :-2]}
    with pytest.raises(BorderContactError):
        hc.count_holes_oracle(hc.BinaryGrid(cut[side]), 1)
    assert hc.count_holes_oracle(hc.BinaryGrid(padded), 1) == 1


def test_oracle_square_with_center_cavity():
    g = hc.pad_background(
        hc.grid_from_rows(["11111", "11111", "11011", "11111", "11111"]), 1
    )
    assert hc.count_holes_oracle(g, 1) == 1


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_oracle_rectangle_with_k_cavities(k):
    arr = np.ones((7, 3 * k + 7), dtype=bool)
    for i in range(k):
        arr[3, 3 * i + 3] = False
    g = hc.pad_background(hc.BinaryGrid(arr), 1)
    assert hc.count_holes_oracle(g, 1) == k


def test_oracle_isolates_component():
    # A second component sitting inside this one's cavity must not
    # change its hole count.
    g = hc.pad_background(
        hc.grid_from_rows(
            [
                "1111111",
                "1111111",
                "1100011",
                "1101011",
                "1100011",
                "1111111",
                "1111111",
            ]
        ),
        1,
    )
    lm = hc.label_components(g, "foreground")
    assert lm.component_count == 2
    assert hc.count_holes_oracle(g, 1) == 1
    assert hc.count_holes_oracle(g, 2) == 0


@pytest.mark.parametrize("margin", [1, 2, 3])
@pytest.mark.parametrize("shift", [(0, 0), (2, 5), (7, 1)])
def test_oracle_translation_and_padding_invariance(m7, margin, shift):
    dr, dc = shift
    arr = np.zeros((m7.height + dr, m7.width + dc), dtype=bool)
    arr[dr:, dc:] = m7.cells
    g = hc.pad_background(hc.BinaryGrid(arr), margin)
    assert hc.count_holes_oracle(g, 1) == 1


def test_holes_in_mask_matches_oracle(m5, m7, monkeypatch):
    # An array labels its own ringed crop: no component context is built.
    monkeypatch.setattr(corners.ComponentContext, "__init__", lambda *a: pytest.fail("context built"))
    assert holes_in_mask(m5.cells) == 0
    assert holes_in_mask(m7.cells) == 1
    # Any 2D array-like is a mask, nested lists included.
    assert holes_in_mask(m7.cells.tolist()) == 1
    assert holes_in_mask([[1, 1, 1, 1], [1, 0, 0, 1], [1, 0, 0, 1], [1, 1, 1, 1]]) == 1
    assert holes_in_mask([[1, 1, 1], [1, 0, 1], [1, 1, 1]]) == 1
    for shape in [(), (4,), (3, 3, 3)]:
        with pytest.raises(ValueError, match=rf"got shape {re.escape(str(shape))}$"):
            holes_in_mask(np.ones(shape, dtype=bool))


def rings(k):
    """k nested square rings of 1-thick walls, each in the hole of the one
    around it, a 1-wide gap apart: k components."""
    side = 4 * k - 1
    arr = np.zeros((side, side), dtype=bool)
    for i in range(k):
        arr[2 * i : side - 2 * i, 2 * i : side - 2 * i] = True
        arr[2 * i + 1 : side - 2 * i - 1, 2 * i + 1 : side - 2 * i - 1] = False
    return arr


def spiral(side, wall):
    """A square spiral of `wall`-thick walls and `wall`-wide corridors."""
    arr = np.zeros((side, side), dtype=bool)
    r = c = 0
    legs = [side - wall] + [m for m in range(side - wall, 0, -2 * wall) for _ in range(2)]
    for (dr, dc), m in zip([(0, 1), (1, 0), (0, -1), (-1, 0)] * side, legs):
        r2, c2 = r + dr * m, c + dc * m
        arr[min(r, r2) : max(r, r2) + wall, min(c, c2) : max(c, c2) + wall] = True
        r, c = r2, c2
    return arr


def comb(teeth, length, wall):
    """A `wall`-thick bar with `teeth` `wall`-wide teeth of `length`, `wall` apart."""
    arr = np.zeros((length + wall, (2 * teeth - 1) * wall), dtype=bool)
    arr[:wall] = True
    for t in range(teeth):
        arr[wall:, 2 * t * wall : (2 * t + 1) * wall] = True
    return arr


@st.composite
def masks_2d(draw):
    """Raw masks (empty, 0 x n, 1 x n and n x 1 included), nested rings,
    spirals and combs, each maybe negated or transposed."""
    kind = draw(st.sampled_from(["raw", "rings", "spiral", "comb"]))
    if kind == "raw":
        mask = draw(arrays(bool, st.tuples(st.integers(0, 30), st.integers(0, 30))))
    elif kind == "rings":
        mask = rings(draw(st.integers(1, 8)))
    elif kind == "spiral":
        mask = spiral(draw(st.integers(1, 40)), draw(st.integers(1, 3)))
    else:
        mask = comb(draw(st.integers(1, 12)), draw(st.integers(0, 20)), draw(st.integers(1, 2)))
    if draw(st.booleans()):
        mask = ~mask
    return mask.T if draw(st.booleans()) else mask


def assert_labels_as_ndimage(mask):
    """`ndimage.label`'s default structure is face connectivity."""
    labels, n = label_runs(mask)
    expected, n_expected = ndimage.label(mask)
    assert n == n_expected and type(n) is int
    assert labels.dtype == expected.dtype and labels.flags.c_contiguous
    np.testing.assert_array_equal(labels, expected)


@settings(max_examples=400, deadline=None)
@given(masks_2d())
@example(np.zeros((0, 0), dtype=bool))
@example(np.zeros((0, 5), dtype=bool))
@example(np.ones((1, 9), dtype=bool))
@example(np.ones((9, 1), dtype=bool))
@example(spiral(61, 1))
@example(comb(30, 40, 1))
@example(rings(12))
def test_label_runs_is_ndimage_label_in_2d(mask):
    """Same ids, count and dtype as `ndimage.label`; and the boxes of
    `LabelMap` are `find_objects`' (which has no answer for zero-size arrays)."""
    assert_labels_as_ndimage(mask)
    if mask.size:
        labels = LabelMap(*label_mask(mask))  # of the whole mask: its box is the image
        assert labels.slices == ndimage.find_objects(labels.box)


def hollow_cubes(k):
    """k nested hollow cubes, 1-thick, each in the cavity of the one around it."""
    side = 4 * k - 1
    arr = np.zeros((side, side, side), dtype=bool)
    for i in range(k):
        inner = slice(2 * i + 1, side - 2 * i - 1)
        arr[(slice(2 * i, side - 2 * i),) * 3] = True
        arr[inner, inner, inner] = False
    return arr


def layers(plane, k):
    """The first k of: a 2D mask, an empty layer, the mask, its complement.
    Parts of the mask apart in its plane meet only through other layers."""
    return np.stack([plane, np.zeros_like(plane), plane, ~plane][:k])


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        arrays(bool, st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(0, 7))),
        st.integers(1, 4).map(hollow_cubes),
        st.builds(layers, st.builds(spiral, st.integers(1, 20), st.integers(1, 2)), st.integers(1, 4)),
    ),
    st.booleans(),
)
@example(np.zeros((0, 3, 3), dtype=bool), False)
@example(np.ones((1, 1, 9), dtype=bool), False)
@example(np.ones((9, 1, 1), dtype=bool), False)
def test_label_runs_is_ndimage_label_in_3d(mask, negate):
    assert_labels_as_ndimage(~mask if negate else mask)


@pytest.mark.parametrize("shape", [(), (3,), (2, 2, 2, 2)])
def test_label_runs_refuses_other_dimensions(shape):
    with pytest.raises(ValueError):
        label_runs(np.ones(shape, dtype=bool))
