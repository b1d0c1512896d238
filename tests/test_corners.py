import numpy as np
import pytest

import holecount as hc
from holecount.corners import (
    CONTOUR_OVERLAP,
    ISOLATED_OR_THIN_POINT,
    ComponentContext,
    image_census,
)
from holecount.errors import EmptyComponentError


def naive_pathological_windows(g, component):
    """Exhaustive reference scan over every 2x2 window of the plane."""
    comp = set(component)
    hits = []
    for r in range(-1, g.height):
        for c in range(-1, g.width):
            cells = [(r, c), (r, c + 1), (r + 1, c), (r + 1, c + 1)]
            inside = [p in comp for p in cells]
            if inside == [True, False, False, True] or inside == [
                False,
                True,
                True,
                False,
            ]:
                hits.append((r, c))
    return hits


def test_boundary_3x3_square():
    g = hc.grid_from_rows(["111", "111", "111"])
    pts = hc.boundary_points(g, g.foreground_points())
    assert pts == g.foreground_points() - {(1, 1)}
    assert len(pts) == 8


def test_boundary_matrix5_matches_annotations(m5, m6_annotations):
    pts = hc.boundary_points(m5, m5.foreground_points())
    annotated = {
        (r, c)
        for r, row in enumerate(m6_annotations)
        for c, v in enumerate(row)
        if v != 0
    }
    assert pts == annotated


def test_boundary_single_point():
    g = hc.grid_from_rows(["010", "000"])
    assert hc.boundary_points(g, {(0, 1)}) == {(0, 1)}


def test_boundary_empty_component_raises(m5):
    with pytest.raises(EmptyComponentError):
        hc.boundary_points(m5, set())


@pytest.mark.parametrize("empty", [set(), np.zeros((8, 8), dtype=bool)])
def test_validate_empty_component_raises(m5, empty):
    with pytest.raises(EmptyComponentError):
        hc.validate_component(m5, empty)


# Each check of a point set, and its error on an empty one (None: no error).
EMPTY_ERRORS = [
    (hc.boundary_points, "boundary of an empty component"),
    (hc.classify_corners, "census of an empty component"),
    (hc.validate_component, "cannot trace an empty component"),
    (hc.find_pathological, None),
    (hc.trace_contours, "cannot trace an empty component"),
    (hc.double_component, "cannot double an empty component"),
    (hc.second_proof_accounting, "cannot trace an empty component"),
]


@pytest.mark.parametrize("check, error", EMPTY_ERRORS, ids=[check.__name__ for check, _ in EMPTY_ERRORS])
def test_empty_point_set_with_or_without_grid(m5, check, error):
    """With no grid, an empty point set is its own empty image: each check
    raises or returns as it does with a grid."""
    for g in (m5, None):
        if error is None:
            assert check(g, set()) == hc.PathologyReport((), True, 0)
        else:
            with pytest.raises(EmptyComponentError, match=error):
                check(g, set())


def test_context_of_a_mask_of_another_shape_raises(m5):
    with pytest.raises(ValueError, match="component mask shape mismatch"):
        ComponentContext.of(m5, np.zeros((m5.height, m5.width + 1), dtype=bool))


def test_census_matrix5(m5):
    census = hc.classify_corners(m5, m5.foreground_points()).census
    assert (census.c2, census.c4) == (8, 4)
    assert census.c2 + census.c3 + census.c4 == census.boundary_total


def test_census_matrix7(m7):
    census = hc.classify_corners(m7, m7.foreground_points()).census
    assert (census.c2, census.c4) == (6, 6)


def test_census_2x2_square():
    g = hc.grid_from_rows(["11", "11"])
    census = hc.classify_corners(g, g.foreground_points()).census
    assert (census.c2, census.c3, census.c4) == (4, 0, 0)


def test_per_point_classes_match_matrix6(m5, m6_annotations):
    cls = hc.classify_corners(m5, m5.foreground_points())
    for r, row in enumerate(m6_annotations):
        for c, v in enumerate(row):
            if v == 2:
                assert cls.classes[(r, c)] == 2, (r, c)
            elif v == 4:
                assert cls.classes[(r, c)] == 4, (r, c)
            elif v == 1:
                assert cls.classes.get((r, c), 3) == 3, (r, c)


def test_per_point_classes_are_built_on_first_read(m7):
    cls = hc.classify_corners(m7, m7.foreground_points())
    assert "classes" not in vars(cls)
    assert set(cls.classes) == hc.boundary_points(m7, m7.foreground_points())
    assert sorted(cls.classes.values()).count(2) == cls.census.c2
    assert cls == hc.classify_corners(m7, m7.cells)
    assert cls != hc.classify_corners(hc.pad_background(m7, 1), hc.pad_background(m7, 1).cells)


def test_degenerate_points_reported_not_raised():
    g = hc.grid_from_rows(["11"])
    cls = hc.classify_corners(g, g.foreground_points())
    assert cls.degenerate_points == ((0, 0), (0, 1))
    assert cls.census.degenerate == 2


def test_pathological_diagonal_pair_as_one_set():
    g = hc.grid_from_rows(["10", "01"])
    union = {(0, 0), (1, 1)}
    report = hc.find_pathological(g, union)
    assert report.windows == ((0, 0),)
    assert not report.clean
    # Under 4-adjacency each pixel is its own component and is clean alone.
    for comp in ({(0, 0)}, {(1, 1)}):
        assert hc.find_pathological(g, comp).clean


def test_pathological_matrix5_clean(m5):
    comp = m5.foreground_points()
    report = hc.find_pathological(m5, comp)
    assert report.clean
    assert naive_pathological_windows(m5, comp) == []


def test_pathological_square_with_antidiagonal_notch():
    g = hc.grid_from_rows(["1111", "1011", "1101", "1111"])
    comp = g.foreground_points()
    report = hc.find_pathological(g, comp)
    assert (1, 1) in report.windows
    assert sorted(report.windows) == sorted(naive_pathological_windows(g, comp))


@pytest.mark.parametrize("seed", range(6))
def test_pathological_matches_naive_scan_on_blobs(seed):
    g = hc.gen_random_blob(
        hc.ShapeSpec(kind="random_blob", dims=(16, 16), seed=seed)
    )
    comp = g.foreground_points()
    report = hc.find_pathological(g, comp)
    assert sorted(report.windows) == sorted(naive_pathological_windows(g, comp))


def test_pathological_scan_visits_each_window_once(m5):
    report = hc.find_pathological(m5, m5.foreground_points())
    # Foreground spans rows 1..6, cols 1..5: top-left corners 0..6 x 0..5.
    assert report.windows_scanned == 7 * 6


@pytest.mark.parametrize("corner", [(0, 0), (5, 5), (3, 8)])
def test_pathological_scan_without_grid_is_the_bounding_box(corner):
    # With no grid the points' bounding box is the image, wherever it sits.
    r, c = corner
    square = {(r, c), (r, c + 1), (r + 1, c), (r + 1, c + 1)}
    assert hc.find_pathological(None, square).windows_scanned == 1
    bar = {(r, c + j) for j in range(4)}
    assert hc.find_pathological(None, bar).windows_scanned == 0


def test_validate_domino_thin():
    g = hc.grid_from_rows(["11"])
    report = hc.validate_component(g, g.foreground_points())
    assert not report.valid
    kinds = {k for k, _ in report.reasons}
    assert kinds == {ISOLATED_OR_THIN_POINT}
    assert len(report.reasons) == 2


def test_validate_width1_ring_overlap():
    g = hc.grid_from_rows(["111", "101", "111"])
    report = hc.validate_component(g, g.foreground_points())
    assert not report.valid
    assert {k for k, _ in report.reasons} == {CONTOUR_OVERLAP}


def test_validate_matrix7_valid(m7):
    assert hc.validate_component(m7, m7.foreground_points()).valid


def test_validate_matrix5_valid(m5):
    assert hc.validate_component(m5, m5.foreground_points()).valid


def census_of(cells):
    g = hc.BinaryGrid(cells)
    return hc.classify_corners(g, g.foreground_points()).census


@pytest.mark.parametrize("seed", range(8))
def test_census_invariant_under_symmetries(seed):
    g = hc.gen_random_blob(
        hc.ShapeSpec(kind="random_blob", dims=(20, 20), seed=seed)
    )
    base = census_of(g.cells)
    for k in (1, 2, 3):
        assert census_of(np.rot90(g.cells, k)) == base
    assert census_of(g.cells[::-1]) == base
    assert census_of(g.cells[:, ::-1]) == base


@pytest.mark.parametrize("seed", range(8))
def test_census_invariant_under_translation(seed):
    g = hc.gen_random_blob(
        hc.ShapeSpec(kind="random_blob", dims=(20, 20), seed=seed)
    )
    base = census_of(g.cells)
    shifted = np.zeros((g.height + 3, g.width + 5), dtype=bool)
    shifted[3:, 5:] = g.cells
    assert census_of(shifted) == base


@pytest.mark.parametrize("seed", range(10))
def test_valid_census_difference_divisible_by_4(seed):
    g = hc.gen_random_blob(
        hc.ShapeSpec(kind="random_blob", dims=(24, 24), seed=seed)
    )
    census = hc.classify_corners(g, g.cells).census
    assert (census.c2 - census.c4) % 4 == 0
    assert census.c2 + census.c3 + census.c4 == census.boundary_total


def test_image_census_sums_components(m5, m7):
    # m5 and m7 side by side with a separating background column.
    combined = np.zeros((8, 17), dtype=bool)
    combined[:, :8] = m5.cells
    combined[:, 9:] = m7.cells
    g = hc.BinaryGrid(combined)
    census, touches = image_census(g)
    c5 = hc.classify_corners(g, hc.label_components(g).mask_of(1)).census
    c7 = hc.classify_corners(g, hc.label_components(g).mask_of(2)).census
    assert census == c5 + c7
    assert touches == 9 * g.cells.size
