"""The image's doubled-surface table against each component's own surface.

`LabelMap.surface` doubles the foreground of a label image once and credits
every surface cell to a component. Each clean row must equal what
`double_component` -> `extract_surface` -> `classify_surface_points` ->
`euler_genus_oracle` gives on that component alone, and a row is flagged
exactly when that chain raises.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import ndimage

import holecount as hc
from holecount.errors import HolecountError


def alone(g, mask):
    """Census and Euler genus of one component's own surface, or None when
    the chain raises."""
    try:
        sc = hc.extract_surface(hc.double_component(g, mask))
        return hc.classify_surface_points(sc), hc.euler_genus_oracle(sc)
    except HolecountError:
        return None


def holed_rect(draw, h, w):
    rect = np.ones((h, w), dtype=bool)
    if h > 4 and w > 4 and draw(st.booleans()):
        rect[2 : h - 2, 2 : w - 2] = False
    return rect


@st.composite
def label_images(draw):
    """Several components, mostly valid in 2D: holed rectangles placed
    anywhere (touching the border, each other or nothing) or chained by
    single diagonal contacts, smoothed noise, a shape nested in a thick
    ring's hole. Raw noise brings the rows that the chain refuses: no cube,
    a non-manifold edge, several surface pieces."""
    kind = draw(st.sampled_from(["rects", "chain", "smooth", "nested", "noise"]))
    if kind == "noise":
        return hc.BinaryGrid(draw(arrays(bool, st.tuples(st.integers(1, 10), st.integers(1, 10)))))
    if kind == "smooth":
        noise = draw(arrays(bool, st.tuples(st.integers(2, 14), st.integers(2, 14))))
        noise = np.kron(noise, np.ones((draw(st.integers(1, 2)),) * 2, dtype=bool))
        smooth = draw(st.sampled_from([ndimage.binary_opening, ndimage.binary_closing]))
        return hc.BinaryGrid(np.pad(smooth(noise, np.ones((2, 2), dtype=bool)), draw(st.integers(0, 1))))
    if kind == "nested":
        inner = draw(st.integers(2, 8))
        cells = np.zeros((inner + 2, inner + 2), dtype=bool)
        cells[1:-1, 1:-1] = holed_rect(draw, inner, inner) if draw(st.booleans()) else draw(
            arrays(bool, (inner, inner))
        )
        return hc.BinaryGrid(np.pad(np.pad(cells, 2, constant_values=True), draw(st.integers(0, 1))))
    height, width = draw(st.integers(8, 24)), draw(st.integers(8, 24))
    cells = np.zeros((height + 40, width + 40), dtype=bool)  # cropped below
    r = c = 0
    for _ in range(draw(st.integers(1, 5))):
        h, w = draw(st.integers(2, 8)), draw(st.integers(2, 8))
        if kind == "rects":
            r, c = draw(st.integers(0, height - 2)), draw(st.integers(0, width - 2))
        cells[r : r + h, c : c + w] |= holed_rect(draw, h, w)
        r, c = r + h, c + w  # the next one touches this one's corner
    return hc.BinaryGrid(cells[:height, :width])


# A 1-wide ring (no cube) in a 2-thick one, whose hole it shares with a
# 2x2 square.
NESTED = [
    "111111111111",
    "111111111111",
    "110000000011",
    "110111011011",
    "110101011011",
    "110111000011",
    "110000000011",
    "111111111111",
    "111111111111",
]


@settings(max_examples=400, deadline=None)
@given(label_images())
@example(hc.grid_from_rows(NESTED))
@example(hc.grid_from_rows(["110", "111", "011"]))  # cubes meeting at a corner
@example(hc.grid_from_rows(["11011", "11111"]))  # two cubes joined by a bridge
@example(hc.grid_from_rows(["1100", "1100", "0011", "0011"]))  # two squares, one contact
@example(hc.grid_from_rows(["111000", "111000", "111000", "000111", "000101", "000111"]))
def test_clean_rows_match_each_component_alone(g):
    labels = hc.label_components(g)
    table = labels.surface
    for cid in range(1, labels.component_count + 1):
        row = (hc.SurfaceCensus(*table.points[cid, 3:].tolist()), int(table.genus[cid])) if table.clean[cid] else None
        assert row == alone(g, labels.mask_of(cid))
