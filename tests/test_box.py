"""The tables work on the foreground's bounding box: a background margin
changes no result but its positions, a box at any edge of the image reads
as one in its middle, and no table sees more than the box.
"""

import contextlib
import io
import json
import re
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import ndimage

import holecount as hc
from holecount import cli, corners, labeling, solid3d
from holecount.labeling import LabelMap, label_mask

COMMANDS = [["analyze"], ["analyze", "--validate", "off"], ["analyze", "--oracle", "off"], ["curves"], ["genus3d"]]
RING = ["111111", "111111", "110011", "110011", "111111", "111111"]  # walls 2 cells thick


def pasted(labels):
    """The image-sized label array of a `LabelMap`: its box at its origin, 0 elsewhere."""
    image = np.zeros(labels.shape, dtype=labels.box.dtype)
    (r, c), (h, w) = labels.origin, labels.box.shape
    image[r : r + h, c : c + w] = labels.box
    return image


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    """One input file, rewritten by each request pair."""
    return tmp_path_factory.mktemp("box") / "grid.txt"


def run(path, argv):
    """Exit code, stdout and stderr of one in-process request."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([argv[0], str(path), *argv[1:]])
    return code, out.getvalue(), err.getvalue()


def requests(path, cells):
    path.write_text(hc.to_ascii01(hc.BinaryGrid(cells)))
    return {" ".join(argv): run(path, argv) for argv in COMMANDS}


# A 2D position (row, col), or a 3D point (x, y, z) = (col, row, z).
_POSITION = re.compile(r"\((\d+), (\d+)(?:, (\d+))?\)")


def shifted(text, top, left):
    """`text` with every position in it moved down `top` rows and right
    `left` columns."""

    def move(m):
        a, b, z = m.groups()
        if z is None:
            return f"({int(a) + top}, {int(b) + left})"
        return f"({int(a) + left}, {int(b) + top}, {z})"

    return _POSITION.sub(move, text)


def shifted_curves(out, top, left):
    entries = json.loads(out)
    for entry in entries:
        for contour in entry["contours"]:
            contour["points"] = [[r + top, c + left] for r, c in contour["points"]]
    return entries


def assert_moved(plain, padded, top, left):
    """Every request on the padded image gives what it gives on the image
    alone, with its positions moved by the margin."""
    for argv, (code, out, err) in plain.items():
        pcode, pout, perr = padded[argv]
        assert pcode == code, argv
        if argv == "curves" and out:
            assert json.loads(pout) == shifted_curves(out, top, left)
        else:
            assert pout == out, argv
        assert perr == shifted(err, top, left), argv


@settings(max_examples=150, deadline=None)
@given(
    arrays(bool, st.tuples(st.integers(1, 10), st.integers(1, 10))),
    st.tuples(*[st.integers(0, 3)] * 4),
)
@example(np.zeros((2, 3), dtype=bool), (1, 0, 2, 3))
@example(np.array([list(map(int, row)) for row in RING], dtype=bool), (0, 2, 3, 0))
@example(np.array([[1, 1, 1, 1], [1, 0, 0, 1], [1, 1, 1, 1]], dtype=bool), (3, 3, 3, 3))  # contours meet
def test_a_margin_changes_nothing_but_positions(path, cells, margin):
    top, bottom, left, right = margin
    padded = np.pad(cells, ((top, bottom), (left, right)))
    assert_moved(requests(path, cells), requests(path, padded), top, left)


@pytest.mark.parametrize("shape", [(1, 1), (3, 3), (4, 7)])
def test_an_all_background_image_has_no_entry(path, shape):
    path.write_text(hc.to_ascii01(hc.BinaryGrid(np.zeros(shape, dtype=bool))))
    for argv in (["analyze"], ["curves"], ["genus3d"]):
        assert run(path, argv) == (cli.EXIT_OK, "[]\n", "")
    labels = hc.label_components(hc.BinaryGrid(np.zeros(shape, dtype=bool)))
    assert (labels.component_count, labels.origin, labels.box.shape, labels.shape) == (0, (0, 0), (0, 0), shape)


@pytest.mark.parametrize("target", ["foreground", "background"])
def test_an_image_with_no_target_cell_labels_an_empty_box(target):
    """With no target cell there is nothing to label, whatever the image's
    size: the box is empty at (0, 0), and the map keeps the image's shape."""
    shape = (2048, 2048)
    g = hc.BinaryGrid(np.full(shape, target == "background"))
    labels = hc.label_components(g, target)
    assert (labels.component_count, labels.origin, labels.box.shape, labels.shape) == (0, (0, 0), (0, 0), shape)
    assert labels.slices == [] and labels.hole_counts == [0]


@pytest.mark.parametrize("corner", [(0, 0), (0, 6), (4, 0), (4, 6)])
def test_a_pixel_in_a_corner(path, corner):
    cells = np.zeros((5, 7), dtype=bool)
    cells[corner] = True
    labels = hc.label_components(hc.BinaryGrid(cells))
    assert (labels.origin, labels.box.shape, labels.shape) == (corner, (1, 1), (5, 7))
    assert np.array_equal(pasted(labels), cells.astype(np.int32))
    assert labels.slices == ndimage.find_objects(cells.view(np.uint8))
    assert np.array_equal(labels.mask_of(1), cells)
    path.write_text(hc.to_ascii01(hc.BinaryGrid(cells)))
    code, out, err = run(path, ["analyze"])
    assert (code, err) == (cli.EXIT_OK, "")
    assert [(row["area"], row["valid"]) for row in json.loads(out)] == [(1, False)]
    for argv in (["curves"], ["genus3d"]):
        assert run(path, argv) == (cli.EXIT_INPUT, "", f"component 1 invalid: isolated_or_thin_point at {corner}\n")


@pytest.mark.parametrize("side", ["top", "bottom", "left", "right"])
def test_a_ring_on_the_border_reads_as_one_inside(path, side):
    """A ring flush with one border of a 10 x 10 image (the box's edge is
    the image's there), against the same ring alone, which touches all four."""
    top = {"top": 0, "bottom": 4}.get(side, 2)
    left = {"left": 0, "right": 4}.get(side, 2)
    ring = np.array([list(map(int, row)) for row in RING], dtype=bool)
    padded = np.pad(ring, ((top, 4 - top), (left, 4 - left)))
    plain = requests(path, ring)
    assert json.loads(plain["genus3d"][1])[0]["genus_formula"] == 1
    assert_moved(plain, requests(path, padded), top, left)


@settings(max_examples=150, deadline=None)
@given(arrays(bool, st.tuples(st.integers(1, 9), st.integers(1, 9))), st.sampled_from(["foreground", "background"]))
@example(np.array([[1, 1, 1, 1, 1], [1, 0, 0, 0, 1], [1, 0, 1, 0, 1], [1, 1, 1, 1, 1]], dtype=bool), "background")
def test_a_box_map_is_the_map_of_the_whole_label_image(cells, target):
    """`label_components` labels only the target's box; its image-sized
    labels and boxes are those of the whole image's labelling, and its
    tables those of `LabelMap(*label_mask(mask))` built on the whole image,
    positions included."""
    g = hc.BinaryGrid(cells)
    mask = cells if target == "foreground" else ~cells
    boxed, whole = hc.label_components(g, target), LabelMap(*label_mask(mask))
    assert whole.origin == (0, 0) and whole.shape == mask.shape
    assert np.array_equal(pasted(boxed), pasted(whole)) and pasted(boxed).shape == mask.shape
    assert boxed.component_count == whole.component_count
    assert boxed.slices == whole.slices == ndimage.find_objects(pasted(whole))
    for cid in range(1, whole.component_count + 1):
        assert np.array_equal(boxed.mask_of(cid), whole.mask_of(cid))
        assert boxed.table.faults(cid) == whole.table.faults(cid)
    assert boxed.hole_counts == whole.hole_counts
    for name in ("classes", "overlaps", "valid"):
        assert np.array_equal(getattr(boxed.table, name), getattr(whole.table, name)), name
    for name in ("ok", "points", "begin", "rows"):
        assert np.array_equal(getattr(boxed.curves, name), getattr(whole.curves, name)), name
    for name in ("points", "genus", "clean"):  # row 0 is of no component
        assert np.array_equal(getattr(boxed.surface, name)[1:], getattr(whole.surface, name)[1:]), name


def calls_of(monkeypatch, module, name):
    """Shapes of the first argument of every call of `module.name`, through
    whichever holecount module it is called."""
    original, shapes = getattr(module, name), []

    def counted(*args, **kwargs):
        shapes.append(args[0].shape)
        return original(*args, **kwargs)

    for modname, m in list(sys.modules.items()):
        if modname.startswith("holecount") and getattr(m, name, None) is original:
            monkeypatch.setattr(m, name, counted)
    return shapes


def test_the_tables_see_only_the_box(path, monkeypatch):
    """On a 6 x 22 row of three rings in a 200 x 300 image, every request
    counts neighbours over the box, labels the box and nothing else (the
    mosaic of holes and `genus3d`'s runs of cubes label nothing), doubles
    nothing (the surface comes from the 3 x 3 table, built once per process)
    and pastes no image-sized label array."""
    cells = np.zeros((200, 300), dtype=bool)
    ring = np.array([list(map(int, row)) for row in RING], dtype=bool)
    for k in range(3):
        cells[90:96, 140 + 8 * k : 146 + 8 * k] = ring
    box = (6, 22)
    path.write_text(hc.to_ascii01(hc.BinaryGrid(cells)))
    counted = calls_of(monkeypatch, corners, "neighbor_counts")
    labeled = calls_of(monkeypatch, labeling, "label_mask")
    solid3d._pixel_table()  # built on first use, by one doubled strip of the 512 codes
    doubled = calls_of(monkeypatch, solid3d, "_cubes_and_faces")
    assert not hasattr(LabelMap, "labels")  # no image-sized label array to paste
    for argv in (["analyze"], ["analyze", "--output", "text"], ["curves"], ["genus3d"]):
        code, out, err = run(path, argv)
        assert (code, err) == (cli.EXIT_OK, ""), argv
        assert counted == [box], argv
        assert labeled == [box], argv
        assert doubled == [], argv
        del counted[:], labeled[:], doubled[:]
