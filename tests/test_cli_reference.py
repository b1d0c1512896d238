"""`curves` and `genus3d` stdout against a per-component reference.

On an image whose components are all valid, both commands write their JSON
straight from the image's tables. The reference here builds each entry from
the component's own point set (`LabelMap.points_of`), so the crop's own
tables produce it and the image's tables do not, and lays the list out with
`json.dumps(..., indent=2)`.
"""

import contextlib
import io
import json
import os
import tempfile

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import holecount as hc
from holecount import cli


def holed_rect(draw, h, w):
    """An h x w rectangle with some s x s holes on a grid of slots, walls 2
    thick between holes and around them, so it stays valid."""
    rect = np.ones((h, w), dtype=bool)
    s = draw(st.integers(1, 2))
    for r in range(2, h - s - 1, s + 2):
        for c in range(2, w - s - 1, s + 2):
            if draw(st.booleans()):
                rect[r : r + s, c : c + s] = False
    return rect


@st.composite
def valid_images(draw):
    """2-5 holed rectangles, each touching the one before at one diagonal
    contact (main or anti) or set apart from it by a gap."""
    arr = np.zeros((70, 140), dtype=bool)
    r, left, w = 1, 68, 0
    for _ in range(draw(st.integers(2, 5))):
        h, width = draw(st.integers(2, 11)), draw(st.integers(2, 11))
        gap = draw(st.sampled_from([0, 0, 1, 2]))
        # Below and right of the last one's bottom right cell, or below and
        # left of its bottom left cell.
        left, w = (left + w + gap if draw(st.booleans()) else left - width - gap), width
        arr[r : r + h, left : left + w] = holed_rect(draw, h, w)
        r += h + gap
    return hc.BinaryGrid(arr[: r + 1])


def curves_reference(g, labels):
    out = []
    for cid in range(1, labels.component_count + 1):
        points = labels.points_of(cid)
        accounting = hc.second_proof_accounting(g, points)
        contours = []
        for contour in hc.trace_contours(g, points):
            k = hc.curve_census(g, points, contour)
            lemma = (k.cp2 - k.cp4 if contour.kind == "outer" else k.cp4 - k.cp2) == 4
            contours.append({
                "kind": contour.kind,
                "points": [list(p) for p in contour.points],
                "cp2": k.cp2,
                "cp3": k.cp3,
                "cp4": k.cp4,
                "lemma_holds": lemma,
            })
        out.append({
            "component_id": cid,
            "contours": contours,
            "accounting": {"lhs": accounting.lhs, "rhs": accounting.rhs, "holds": accounting.holds},
        })
    return out


def genus3d_reference(g, labels):
    out = []
    for cid in range(1, labels.component_count + 1):
        points = labels.points_of(cid)
        census2d = hc.classify_corners(g, points).census
        sc = hc.extract_surface(hc.double_component(g, points))
        census = hc.classify_surface_points(sc)
        genus, euler = hc.genus_by_formula(census), hc.euler_genus_oracle(sc)
        checks = {
            "m6_zero": census.m6 == 0,
            "m3_eq_2c2": census.m3 == 2 * census2d.c2,
            "m5_eq_2c4": census.m5 == 2 * census2d.c4,
            "genus_eq_holes": genus == hc.holes_by_formula(census2d),
            "genus_eq_euler": genus == euler,
        }
        if genus == 0:
            checks["simply_connected_identity"] = hc.check_simply_connected_identity(census)
        out.append({
            "component_id": cid,
            "m3": census.m3,
            "m4": census.m4,
            "m5": census.m5,
            "m6": census.m6,
            "genus_formula": genus,
            "euler_genus_oracle": euler,
            "checks": checks,
        })
    return out


def contacts():
    """Two rings with 2 x 2 holes at a main-diagonal contact, a 2 x 2 square
    at an anti-diagonal one, and an 8 x 11 rectangle with six 1 x 1 holes
    at another main-diagonal one."""
    arr = np.zeros((22, 25), dtype=bool)
    for top in (1, 7):
        arr[top : top + 6, top : top + 6] = True
        arr[top + 2 : top + 4, top + 2 : top + 4] = False
    arr[13:15, 5:7] = True
    arr[13:21, 13:24] = True
    arr[[15, 15, 15, 18, 18, 18], [15, 18, 21, 15, 18, 21]] = False
    return hc.BinaryGrid(arr)


def run(command, path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([command, path])
    return code, out.getvalue()


@settings(max_examples=150, deadline=None)
@given(valid_images())
@example(contacts())
@example(hc.grid_from_rows(["000", "000"]))
def test_curves_and_genus3d_match_each_component_alone(g):
    labels = hc.label_components(g)
    assert labels.table.valid.all()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.txt")
        with open(path, "w") as fh:
            fh.write(hc.to_ascii01(g))
        for command, reference in (("curves", curves_reference), ("genus3d", genus3d_reference)):
            assert run(command, path) == (cli.EXIT_OK, json.dumps(reference(g, labels), indent=2) + "\n")
