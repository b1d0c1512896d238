import re

import pytest

import holecount as hc
from holecount.curves import HOLE, OUTER, Contour, CurveCensus
from holecount.errors import ContourOverlapError, CurveError, ThinComponentError


def ring_5x5_minus_center():
    return hc.grid_from_rows(["11111", "11111", "11011", "11111", "11111"])


def test_trace_3x3_square():
    g = hc.grid_from_rows(["111", "111", "111"])
    contours = hc.trace_contours(g, g.foreground_points())
    assert len(contours) == 1
    assert contours[0].kind == OUTER
    assert len(contours[0].points) == 8
    assert contours[0].enclosed_region == frozenset({(1, 1)})


def test_trace_5x5_minus_center():
    g = ring_5x5_minus_center()
    contours = hc.trace_contours(g, g.foreground_points())
    assert [c.kind for c in contours] == [OUTER, HOLE]
    outer, hole = contours
    assert len(outer.points) == 16
    assert len(hole.points) == 8
    assert not set(outer.points) & set(hole.points)
    assert hole.enclosed_region == frozenset({(2, 2)})
    assert (2, 2) in outer.enclosed_region


def test_trace_width1_ring_overlaps():
    g = hc.grid_from_rows(["111", "101", "111"])
    with pytest.raises(ContourOverlapError):
        hc.trace_contours(g, g.foreground_points())


def test_trace_of_two_pieces_names_a_missed_boundary_point():
    # The walk from the first cell covers only the left piece; the first
    # boundary point it misses is the right piece's first cell.
    g = hc.grid_from_rows(["111001111", "111001111", "111001111"])
    with pytest.raises(ContourOverlapError) as exc:
        hc.trace_contours(g, g.foreground_points())
    assert exc.value.point == (0, 5)


def test_trace_domino_thin():
    g = hc.grid_from_rows(["11"])
    with pytest.raises(ThinComponentError):
        hc.trace_contours(g, g.foreground_points())


def test_trace_covers_boundary(m5, m7):
    for g in (m5, m7):
        comp = g.foreground_points()
        contours = hc.trace_contours(g, comp)
        union = set()
        for ct in contours:
            assert len(set(ct.points)) == len(ct.points)
            union |= set(ct.points)
        assert union == hc.boundary_points(g, comp)


def test_contours_are_closed_8_paths(m7):
    for ct in hc.trace_contours(m7, m7.foreground_points()):
        pts = ct.points
        for a, b in zip(pts, pts[1:] + pts[:1]):
            assert max(abs(a[0] - b[0]), abs(a[1] - b[1])) == 1


def test_contour_orientation():
    # Shoelace sum with x = col and y = row (y grows downward): a contour
    # that runs clockwise on screen comes out positive.
    def area2(pts):
        s = 0
        for (r1, c1), (r2, c2) in zip(pts, pts[1:] + pts[:1]):
            s += c1 * r2 - c2 * r1
        return s

    g = ring_5x5_minus_center()
    outer, hole = hc.trace_contours(g, g.foreground_points())
    assert area2(outer.points) > 0
    assert area2(hole.points) < 0


def test_curve_census_5x5_minus_center():
    g = ring_5x5_minus_center()
    comp = g.foreground_points()
    outer, hole = hc.trace_contours(g, comp)
    co = hc.curve_census(g, comp, outer)
    ch = hc.curve_census(g, comp, hole)
    assert (co.cp2, co.cp3, co.cp4) == (4, 12, 0)
    assert (ch.cp2, ch.cp3, ch.cp4) == (0, 4, 4)


def test_curve_census_matrix5_single_curve(m5):
    comp = m5.foreground_points()
    (outer,) = hc.trace_contours(m5, comp)
    cc = hc.curve_census(m5, comp, outer)
    assert (cc.cp2, cc.cp4) == (8, 4)


def test_curve_census_rejects_foreign_contour(m5):
    g = ring_5x5_minus_center()
    outer = hc.trace_contours(g, g.foreground_points())[0]
    with pytest.raises(ValueError):
        hc.curve_census(m5, m5.foreground_points(), outer)


def test_a_point_off_the_boundary_is_class_4():
    """Classes are read at boundary points; any other point of the set has
    all 8 neighbours in it, so all 4 direct ones. Here (1, 1) and (2, 2) of
    a 5 x 5 block, and the curve's corner (0, 0) once `interior` holds the
    cells around it."""
    g = hc.grid_from_rows(["11111"] * 5)
    diagonal = Contour(points=((0, 0), (1, 1), (2, 2)), kind=OUTER, _enclosed=frozenset)
    assert hc.curve_census(g, g.foreground_points(), diagonal) == CurveCensus(cp2=1, cp3=0, cp4=2)
    cycle = [(0, 0), (0, 1), (0, 2), (1, 2), (2, 2), (2, 1), (2, 0), (1, 0)]
    around = {(1, 1), (-1, -1), (-1, 0), (-1, 1), (0, -1), (1, -1)}
    res = hc.check_curve_lemma(cycle, interior=around)
    assert (res.cp2, res.cp3, res.cp4, res.holds) == (3, 2, 3, False)


def test_lemma_3x3_boundary_cycle():
    cycle = [(0, 0), (0, 1), (0, 2), (1, 2), (2, 2), (2, 1), (2, 0), (1, 0)]
    res = hc.check_curve_lemma(cycle, interior={(1, 1)})
    assert (res.cp2, res.cp4) == (4, 0)
    assert res.holds
    # Interior computed by filling gives the same answer.
    assert hc.check_curve_lemma(cycle) == res


def test_lemma_matrix5_curve(m5):
    (outer,) = hc.trace_contours(m5, m5.foreground_points())
    res = hc.check_curve_lemma(outer.points)
    assert (res.cp2, res.cp4) == (8, 4)
    assert res.holds


def test_lemma_L_shape():
    # 3x3 square minus its top-right corner cell: 8 boundary points.
    g = hc.grid_from_rows(["110", "111", "111"])
    (outer,) = hc.trace_contours(g, g.foreground_points())
    res = hc.check_curve_lemma(outer.points)
    assert (res.cp2, res.cp4) == (5, 1)
    assert res.holds


def test_lemma_rejects_open_curve():
    with pytest.raises(CurveError):
        hc.check_curve_lemma([(0, 0), (0, 1), (0, 2), (0, 4), (0, 5)])


def test_lemma_rejects_self_intersection():
    with pytest.raises(CurveError):
        hc.check_curve_lemma([(0, 0), (0, 1), (1, 1), (0, 1), (1, 0)])


def test_lemma_rejects_degenerate_curve():
    # Closed and distinct, but a point has a single neighbor in the
    # filled set; not a real digital curve.
    with pytest.raises(CurveError):
        hc.check_curve_lemma([(0, 0), (1, 1), (2, 2), (1, 2), (0, 1)])


@pytest.mark.parametrize(
    "cycle, interior, error",
    [
        ([(0, 0), (0, 1), (1, 1)], None, "curve too short (3 points)"),
        ([(0, 0), (0, 1), (1, 1), (1, 0)], {(2, 2)}, "pathological 2x2 window on the curve"),
    ],
)
def test_lemma_rejects_short_or_pathological_curve(cycle, interior, error):
    with pytest.raises(CurveError, match=re.escape(error)):
        hc.check_curve_lemma(cycle, interior=interior)


def test_accounting_matrix5(m5):
    acct = hc.second_proof_accounting(m5, m5.foreground_points())
    assert (acct.lhs, acct.rhs) == (-4, -4)
    assert acct.holds and acct.census_match
    assert acct.hole_count == 0


def test_accounting_matrix7(m7):
    acct = hc.second_proof_accounting(m7, m7.foreground_points())
    assert (acct.lhs, acct.rhs) == (0, 0)
    assert acct.holds and acct.census_match
    assert acct.hole_count == 1


def test_accounting_5x5_minus_center():
    g = ring_5x5_minus_center()
    acct = hc.second_proof_accounting(g, g.foreground_points())
    assert acct.lhs == 0 and acct.hole_count == 1
    assert acct.holds


@pytest.mark.parametrize("seed", range(8))
def test_per_curve_identities_on_blobs(seed):
    g = hc.gen_random_blob(
        hc.ShapeSpec(kind="random_blob", dims=(32, 32), seed=seed)
    )
    comp = g.cells
    contours = hc.trace_contours(g, comp)
    total = hc.classify_corners(g, comp).census
    sums = [0, 0, 0]
    for ct in contours:
        cc = hc.curve_census(g, comp, ct)
        if ct.kind == OUTER:
            assert cc.cp2 - cc.cp4 == 4
        else:
            assert cc.cp4 - cc.cp2 == 4
        sums[0] += cc.cp2
        sums[1] += cc.cp3
        sums[2] += cc.cp4
    assert tuple(sums) == (total.c2, total.c3, total.c4)
    # Number of hole contours equals the complement oracle.
    from holecount.labeling import holes_in_mask

    assert sum(ct.kind == HOLE for ct in contours) == holes_in_mask(g.cells)


@pytest.mark.parametrize(
    "rows, point",
    [
        # The hole contour starts on a point of the outer one.
        (["111", "101", "111"], (0, 1)),
        (["0000000", "0111110", "0101010", "0111110", "0000000"], (1, 2)),
        # The outer contour crosses the one-pixel bridge twice.
        (["1110111", "1111111", "1110111"], (1, 4)),
        # The outer contour passes the middle pixel twice, its only revisit.
        (["00000", "01100", "01110", "00110", "00000"], (2, 2)),
    ],
)
def test_trace_overlap_names_first_revisited_point(rows, point):
    g = hc.grid_from_rows(rows)
    with pytest.raises(ContourOverlapError) as info:
        hc.trace_contours(g, g.foreground_points())
    assert info.value.point == point
