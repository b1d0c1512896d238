"""`curves` and `genus3d` stdout against a per-component reference.

On an image whose components are all valid, both commands write their JSON
straight from the image's tables. The reference here builds each entry from
the component's own point set (`LabelMap.points_of`), so the crop's own
tables produce it and the image's tables do not, and lays the list out with
`json.dumps(..., indent=2)`. `curves`' text is also held to the writer that
filled a k-point template per contour (`per_contour_writer`), on images
whose coordinates cross a digit count. Both are written in joins of
`cli._CHUNK` lookups, so both are checked with joins of 1, 7 and
`cli._CHUNK` lookups.
"""

import contextlib
import io
import json
import os
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import holecount as hc
from holecount import cli, gen


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


_POINT = cli._array(5, ["%d", "%d"])
_CONTOUR = cli._object(3, [
    ("kind", '"%s"'), ("points", "%s"), ("cp2", "%d"), ("cp3", "%d"), ("cp4", "%d"), ("lemma_holds", "%s")
])
_CURVES = cli._object(1, [
    ("component_id", "%d"),
    ("contours", "%s"),
    ("accounting", cli._object(2, [("lhs", "%d"), ("rhs", "%d"), ("holds", "%s")])),
])


def per_contour_writer(labels) -> tuple[int, str]:
    """Exit code and stdout of `curves` on an image whose components are all
    valid, one contour at a time: its k points fill a template of k points,
    and it and its entry fill fixed templates, from the contour table."""
    table = labels.curves
    rows, begin, xy = table.rows, table.begin.tolist(), table.points.ravel().tolist()
    blocks, entries, holds = {}, [], True  # blocks: the layout of k points, by k
    for cid in range(1, labels.component_count + 1):
        counts = table.counts(cid)
        contours = []
        for i, (cp2, cp3, cp4) in enumerate(counts, rows[cid]):
            kind = "outer" if i == rows[cid] else "hole"
            lemma = (cp2 - cp4 if kind == "outer" else cp4 - cp2) == 4
            k = begin[i + 1] - begin[i]
            if k not in blocks:
                blocks[k] = cli._array(4, [_POINT] * k)
            points = blocks[k] % tuple(xy[2 * begin[i] : 2 * begin[i + 1]])
            contours.append(_CONTOUR % (kind, points, cp2, cp3, cp4, cli._BOOL[lemma]))
            holds = holds and lemma
        lhs, rhs = sum(cp4 - cp2 for cp2, _, cp4 in counts), -4 + 4 * (len(counts) - 1)
        entries.append(_CURVES % (cid, cli._array(2, contours), lhs, rhs, cli._BOOL[lhs == rhs]))
        holds = holds and lhs == rhs
    text = "".join(("[" if i == 0 else ",") + "\n  " + entry for i, entry in enumerate(entries))
    return (cli.EXIT_OK if holds else cli.EXIT_DISAGREEMENT), text + ("\n]\n" if entries else "[]\n")


def rect_tiles(draw):
    """Rows and columns of `gen_rect_with_holes` rectangles, 6-8 px with 0 or
    1 hole, apart from each other."""
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    arr = np.zeros((10 * rows, 10 * cols), dtype=bool)
    for r in range(rows):
        for c in range(cols):
            h, w, holes = draw(st.integers(6, 8)), draw(st.integers(6, 8)), draw(st.integers(0, 1))
            spec = gen.random_rect_spec(draw(st.integers(0, 2**16)), (h, w), holes)
            arr[10 * r : 10 * r + h, 10 * c : 10 * c + w] = gen.gen_rect_with_holes(spec).cells
    return arr


def nested_rings(draw):
    """Square rings, each 2 thick, in the hole of the one around it, the
    innermost around a square or nothing."""
    count, side = draw(st.integers(1, 3)), draw(st.integers(2, 4))
    n = side + 6 * count
    arr = np.zeros((n, n), dtype=bool)
    for i in range(count):
        arr[3 * i : n - 3 * i, 3 * i : n - 3 * i] = True
        arr[3 * i + 2 : n - 3 * i - 2, 3 * i + 2 : n - 3 * i - 2] = False
    arr[3 * count : n - 3 * count, 3 * count : n - 3 * count] = draw(st.booleans())
    return arr


@st.composite
def margined_images(draw):
    """Rectangle tiles, nested rings or diagonal contacts (`valid_images`),
    with top and left margins that put their coordinates across 9 -> 10,
    99 -> 100 or 999 -> 1000: each shape is at least 6 px each way."""
    kind = draw(st.sampled_from(["tiles", "rings", "contacts"]))
    shape = {"tiles": rect_tiles, "rings": nested_rings, "contacts": lambda d: d(valid_images()).cells}[kind](draw)
    top, left = (draw(st.integers(0, 9) | st.integers(94, 99) | st.integers(994, 999)) for _ in range(2))
    h, w = shape.shape
    arr = np.zeros((top + h + draw(st.integers(0, 2)), left + w + draw(st.integers(0, 2))), dtype=bool)
    arr[top : top + h, left : left + w] = shape
    return hc.BinaryGrid(arr)


def ring_past_1000():
    arr = np.zeros((1010, 1012), dtype=bool)
    arr[1001:1007, 1003:1009] = True
    arr[1003:1005, 1005:1007] = False
    return hc.BinaryGrid(arr)


def output_of(command, g):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.txt")
        with open(path, "w") as fh:
            fh.write(hc.to_ascii01(g))
        return run(command, path)


@settings(max_examples=60, deadline=None)
@given(margined_images(), st.sampled_from([1, 7, cli._CHUNK]))
@example(hc.grid_from_rows(["000", "000"]), cli._CHUNK)
@example(ring_past_1000(), cli._CHUNK)
def test_curves_text_matches_the_per_contour_writer(g, chunk):
    with mock.patch.object(cli, "_CHUNK", chunk):
        code, out = output_of("curves", g)
    assert (code, out) == per_contour_writer(hc.label_components(g))
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_curves_of_an_empty_image_and_of_a_ring_past_1000():
    assert output_of("curves", hc.grid_from_rows(["000", "000"])) == (cli.EXIT_OK, "[]\n")
    code, out = output_of("curves", ring_past_1000())
    (entry,) = json.loads(out)
    outer, hole = entry["contours"]
    assert code == cli.EXIT_OK and entry["accounting"] == {"lhs": 0, "rhs": 0, "holds": True}
    assert min(map(tuple, outer["points"])) == (1001, 1003) and min(map(tuple, hole["points"])) == (1002, 1004)


def holed_tiling():
    """A 20 x 20 tiling of `gen_rect_with_holes` rectangles, 6-8 px with 0
    or 1 hole: 400 rows of 27 lookups each, more than `cli._CHUNK`."""
    arr = np.zeros((200, 200), dtype=bool)
    for i in range(400):
        (r, c), h, w = divmod(i, 20), 6 + i % 3, 6 + i // 3 % 3
        arr[10 * r : 10 * r + h, 10 * c : 10 * c + w] = gen.gen_rect_with_holes(gen.random_rect_spec(i, (h, w), i % 2)).cells
    return hc.BinaryGrid(arr)


def large_rect():
    """One 240 x 240 rectangle with 2 holes, whose m4 is past 10^5."""
    return gen.gen_rect_with_holes(gen.random_rect_spec(1, (240, 240), 2))


def test_the_genus3d_examples_reach_their_cases():
    tiling, rect = holed_tiling(), large_rect()
    genera = [row["genus_formula"] for row in genus3d_reference(tiling, hc.label_components(tiling))]
    assert len(genera) == 400 and 27 * len(genera) > cli._CHUNK and set(genera) == {0, 1}
    assert genus3d_reference(rect, hc.label_components(rect))[0]["m4"] >= 10**5


@pytest.mark.parametrize("chunk", [1, 7, cli._CHUNK])
@settings(max_examples=40, deadline=None)
@given(g=valid_images())
@example(g=hc.grid_from_rows(["000", "000"]))
@example(g=holed_tiling())
@example(g=large_rect())
def test_genus3d_text_at_every_chunk_size(chunk, g):
    expected = json.dumps(genus3d_reference(g, hc.label_components(g)), indent=2) + "\n"
    with mock.patch.object(cli, "_CHUNK", chunk):
        assert output_of("genus3d", g) == (cli.EXIT_OK, expected)


def test_genus3d_number_texts_stay_small(tmp_path):
    """`genus3d` keeps one text per distinct value: on a 512 x 512
    rectangle with 5 holes, whose m4 is 524,192, its tracemalloc peak, the
    parse included, stays under 16 B per pixel. A text table indexed by
    value, up to m4, would need more than 100."""
    g = gen.gen_rect_with_holes(gen.random_rect_spec(1, (512, 512), 5))
    path = tmp_path / "g.txt"
    path.write_text(hc.to_ascii01(g))
    tracemalloc.start()
    try:
        code, out = run("genus3d", str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == cli.EXIT_OK and json.loads(out)[0]["m4"] == 524192
    assert peak < 16 * g.cells.size
