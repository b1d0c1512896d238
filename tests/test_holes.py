import numpy as np
import pytest

import holecount as hc
from holecount import holes
from holecount.corners import CornerCensus
from holecount.errors import FormulaInapplicableError


def census(c2, c3, c4):
    return CornerCensus(c2=c2, c3=c3, c4=c4, boundary_total=c2 + c3 + c4)


@pytest.mark.parametrize(
    "c2,c4,expected",
    [
        (4, 0, 0),  # plain rectangle
        (8, 4, 0),  # worked example without a hole
        (6, 6, 1),  # worked example with one hole
        (4, 4, 1),  # rectangle with one cavity
        (4, 8, 2),  # rectangle with two cavities
        (4, 12, 3),
    ],
)
def test_formula_examples(c2, c4, expected):
    assert hc.holes_by_formula(census(c2, 10, c4)) == expected


def test_formula_two_cavities_cross_check():
    # The (c2=4, c4=8) -> 2 row above, realized as an actual grid.
    spec = hc.ShapeSpec(
        kind="rect_with_holes",
        dims=(7, 11),
        holes=(((2, 2), (2, 2)), ((2, 6), (2, 2))),
    )
    g = hc.gen_rect_with_holes(spec)
    c = hc.classify_corners(g, g.foreground_points()).census
    assert (c.c2, c.c4) == (4, 8)
    assert hc.holes_by_formula(c) == 2


def test_formula_rejects_non_divisible():
    with pytest.raises(FormulaInapplicableError):
        hc.holes_by_formula(census(5, 0, 0))


def test_analyze_matrix5(m5):
    rep = hc.analyze_component(m5, 1)
    assert rep.area == 20
    assert (rep.census.c2, rep.census.c4) == (8, 4)
    assert rep.holes_formula == 0
    assert rep.holes_oracle == 0
    assert rep.validity.valid
    assert rep.agreement is True


def test_analyze_matrix7(m7):
    rep = hc.analyze_component(m7, 1)
    assert rep.area == 35
    assert (rep.census.c2, rep.census.c4) == (6, 6)
    assert rep.holes_formula == 1 == rep.holes_oracle
    assert rep.agreement is True


def test_analyze_invalid_component_suppresses_formula():
    g = hc.grid_from_rows(["11"])
    rep = hc.analyze_component(g, 1)
    assert not rep.validity.valid
    assert rep.holes_formula is None
    assert rep.holes_oracle is None
    assert rep.agreement is None
    assert hc.analyze_component(g, 1, run_validation=False).holes_oracle == 0


def test_invalid_component_gets_no_oracle_count(monkeypatch):
    # Its 4-connected complement has two bounded regions, though the
    # component has one hole for an 8-connected background.
    g = hc.pad_background(hc.grid_from_rows(["1111", "1101", "1011", "1111"]), 1)
    assert hc.analyze_component(g, 1, run_validation=False).holes_oracle == 2
    monkeypatch.setattr(holes, "holes_in_mask", lambda ctx: pytest.fail("oracle ran"))
    rep = hc.analyze_component(g, 1)
    assert not rep.validity.valid
    assert (rep.holes_formula, rep.holes_oracle, rep.agreement) == (None, None, None)


def test_analyze_skip_validation_still_computes_formula():
    g = hc.grid_from_rows(["11", "11"])
    rep = hc.analyze_component(g, 1, run_validation=False)
    assert rep.validity is None
    assert rep.holes_formula == 0


def test_analyze_skip_oracle():
    g = hc.grid_from_rows(["11", "11"])
    rep = hc.analyze_component(g, 1, run_oracle=False)
    assert rep.holes_oracle is None
    assert rep.agreement is None


def test_analyze_image_two_components(m5, m7):
    combined = np.zeros((8, 17), dtype=bool)
    combined[:, :8] = m5.cells
    combined[:, 9:] = m7.cells
    reports = hc.analyze_image(hc.BinaryGrid(combined))
    assert [rep.component_id for rep in reports] == [1, 2]
    assert [rep.holes_formula for rep in reports] == [0, 1]
    assert all(rep.agreement for rep in reports)


def test_analyze_image_empty():
    g = hc.BinaryGrid(np.zeros((3, 3), dtype=bool))
    assert hc.analyze_image(g) == ()


def test_analyze_letter_b_shape():
    # A thick letter B: one component, two cavities.
    g = hc.grid_from_rows(
        [
            "11111111",
            "11111111",
            "11000011",
            "11000011",
            "11111111",
            "11111111",
            "11000011",
            "11000011",
            "11111111",
            "11111111",
        ]
    )
    (rep,) = hc.analyze_image(g)
    assert rep.holes_formula == 2 == rep.holes_oracle
    assert rep.agreement is True


def test_adding_cavity_adds_4_inward_corners():
    solid = hc.gen_rect_with_holes(
        hc.ShapeSpec(kind="rect_with_holes", dims=(9, 9))
    )
    holed = hc.gen_rect_with_holes(
        hc.ShapeSpec(kind="rect_with_holes", dims=(9, 9), holes=(((3, 3), (2, 2)),))
    )
    c0 = hc.classify_corners(solid, solid.foreground_points()).census
    c1 = hc.classify_corners(holed, holed.foreground_points()).census
    assert c1.c2 == c0.c2
    assert c1.c4 == c0.c4 + 4
    assert hc.holes_by_formula(c1) == hc.holes_by_formula(c0) + 1


def test_to_dict_schema(m7):
    d = hc.analyze_component(m7, 1).to_dict()
    assert set(d) == {
        "component_id",
        "area",
        "c2",
        "c3",
        "c4",
        "holes_formula",
        "holes_oracle",
        "valid",
        "agreement",
    }


@pytest.mark.parametrize("seed", range(10))
def test_formula_matches_oracle_on_blobs(seed):
    g = hc.gen_random_blob(
        hc.ShapeSpec(kind="random_blob", dims=(32, 32), seed=seed)
    )
    (rep,) = hc.analyze_image(g)
    assert rep.validity.valid
    assert rep.agreement is True


@pytest.mark.parametrize("shift", [(0, 0), (3, 1), (1, 4)])
def test_analysis_translation_invariant(m7, shift):
    dr, dc = shift
    arr = np.zeros((m7.height + dr + 1, m7.width + dc + 1), dtype=bool)
    arr[dr : dr + m7.height, dc : dc + m7.width] = m7.cells
    rep = hc.analyze_component(hc.BinaryGrid(arr), 1)
    base = hc.analyze_component(m7, 1)
    assert rep.census == base.census
    assert rep.holes_formula == base.holes_formula == 1
