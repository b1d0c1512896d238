"""The image's doubled-surface table against each component's own surface.

`LabelMap.surface` reads every boundary cell's credit from the 3 x 3 table
and credits every surface cell to a component. Each clean row must equal
what `double_component` -> `extract_surface` -> `classify_surface_points`
-> `euler_genus_oracle` gives on that component alone, and a row is flagged
exactly when that chain raises. Every column must equal the table built by
doubling the whole foreground (`doubled_table`, the package's earlier
`SurfaceTable`), and the 3 x 3 table must be the 3D array code's own. The
columns the surface reads from `ComponentTable` (each boundary cell's
own-label 3 x 3 code, each label's box and area) must equal what
separate reads of the label image give. On every 4 x 4 image, the corner,
mosaic, contour and surface tables must give each valid row one count.
"""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import ndimage

import holecount as hc
from holecount import corners, solid3d
from holecount.errors import HolecountError
from holecount.labeling import label_mask


def doubled_table(labels, n):
    """(points, genus, clean) of every label of a label image, from one
    doubling of its foreground into 3D arrays: each surface cell is
    credited to the label of its minimum corner's pixel, and one labelling
    of the cubes counts each label's surface pieces."""
    cubes, faces = solid3d._cubes_and_faces(np.repeat((labels != 0)[None], 2, axis=0))
    degree, edge_cells, vertex_class = solid3d._edges_and_points(faces)
    # Per pixel, over the cells whose minimum corner it is: V - E + F,
    # and whether an edge lies in other than 0 or 2 faces.
    chi, bad = np.zeros(labels.shape, dtype=np.int8), np.zeros(labels.shape, dtype=bool)
    for cells, add in [([vertex_class > 0], np.add), (faces, np.add), (edge_cells, np.subtract)]:
        for c in cells:
            at = chi[: c.shape[1], : c.shape[2]]
            for layer in c.view(np.int8):
                add(at, layer, out=at)
    for d in degree:
        at = bad[: d.shape[1], : d.shape[2]]
        at |= (d & ~2).any(axis=0)
    # Per label, the pixels of each code: a point's class on either layer
    # (0..6), and V - E + F + 5 (0..11).
    key, out = np.multiply(labels, 16, dtype=np.intp), np.empty(labels.shape, dtype=np.intp)
    tally = [np.bincount(np.add(key, c, out=out).ravel(), minlength=16 * (n + 1)) for c in (*vertex_class, chi + 5)]
    points = (tally[0] + tally[1]).reshape(n + 1, 16)[:, :7]
    genus = (2 - tally[2].reshape(n + 1, 16) @ np.arange(-5, 11)) // 2
    pieces, count = label_mask(cubes[0])
    owner = np.zeros(count + 1, dtype=labels.dtype)
    owner[pieces] = labels[:-1, :-1]
    clean = np.bincount(owner[1:], minlength=n + 1) == 1
    clean &= ~points[:, 1:3].any(axis=1) & (np.bincount(labels[bad], minlength=n + 1) == 0)
    return points, genus, clean


def assert_doubled_table(g):
    """Every column of `g`'s surface table equals `doubled_table`'s, rows
    1..n (row 0 is of no component)."""
    labels = hc.label_components(g)
    table = labels.surface
    for name, column in zip(("points", "genus", "clean"), doubled_table(labels.box, labels.component_count)):
        assert np.array_equal(getattr(table, name)[1:], column[1:]), name


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


# Two rings with 2-cell walls touching at one corner: there a boundary
# cell's foreground code and own-label code differ.
DIAGONAL = ["1111100000", "1111100000", "1101100000", "1111100000", "1111100000"]
DIAGONAL += [row[::-1] for row in DIAGONAL[::-1]]
# The 8-ring of a cell in circular order.
RING = ((-1, -1), (-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1))


def own_label_reads(labels, cells):
    """Per cell of the 3 x 3 around each of `cells` (flat positions in
    `labels`), whether it has that cell's label: a (3, 3, k) array of nine
    reads of `labels` grown by a background ring, as the package's earlier
    `SurfaceTable` read the foreground."""
    w, padded = labels.shape[1], np.pad(labels, 1)
    near = (w + 2) * np.arange(3)[:, None] + np.arange(3)
    return padded.ravel()[near[..., None] + cells + 2 * (cells // w)] == labels.ravel()[cells]


@settings(max_examples=400, deadline=None)
@given(label_images())
@example(hc.grid_from_rows(NESTED))
@example(hc.grid_from_rows(DIAGONAL))
@example(hc.grid_from_rows(["1"]))
def test_component_table_columns_match_separate_reads(g):
    """The boundary cells, their labels and own-label codes, the crossing
    count read from the code (against the package's earlier rolled ring),
    each label's box (`ndimage.find_objects`) and area (`np.bincount`)."""
    labels = hc.label_components(g)
    box, n, table = labels.box, labels.component_count, labels.table
    fg = box != 0
    boundary = fg & ~ndimage.binary_erosion(fg, np.ones((3, 3)), border_value=0)
    assert np.array_equal(table.cells, np.flatnonzero(boundary))
    assert np.array_equal(divmod(table.cells, box.shape[1]), np.nonzero(boundary))
    assert np.array_equal(table.own, box.ravel()[table.cells])
    same = own_label_reads(box, table.cells)
    assert np.array_equal(table.code, (1 << np.arange(9)) @ same.reshape(9, -1))
    inside = np.stack([same[1 + dr, 1 + dc] for dr, dc in RING])
    runs = np.count_nonzero(inside & ~np.roll(inside, -1, axis=0), axis=0)
    assert np.array_equal(corners._RING_RUNS[table.code], runs)
    spans = zip(table.low.tolist(), (table.high + 1).tolist())
    objects = ndimage.find_objects(box) if box.size else []  # scipy refuses an empty box
    assert [(slice(r0, r1), slice(c0, c1)) for (r0, c0), (r1, c1) in spans] == objects
    assert np.array_equal(table.area[1:], np.bincount(box.ravel(), minlength=n + 1)[1:])


def test_a_cell_met_only_at_a_corner_changes_no_credit():
    """Why own-label codes serve the 3 x 3 table: a corner cell of the 3 x 3
    whose two cells beside the centre are clear lies in no cube at the
    centre, so clearing it leaves the credit of every code as it was."""
    credits, kind = solid3d._pixel_table()
    code = np.arange(512)
    for corner, (a, b) in ((0, (1, 3)), (2, (1, 5)), (6, (3, 7)), (8, (5, 7))):
        alone = code[(code >> corner & 1 == 1) & (code >> a & 1 == 0) & (code >> b & 1 == 0)]
        assert alone.size == 64
        assert np.array_equal(credits[kind[alone]], credits[kind[alone & ~(1 << corner)]]), corner


@settings(max_examples=400, deadline=None)
@given(label_images())
@example(hc.grid_from_rows(NESTED))
@example(hc.grid_from_rows(["1"]))
def test_table_matches_the_doubled_box(g):
    assert_doubled_table(g)


def test_every_4x4_image_matches_the_doubled_box(every_4x4_image):
    """Every row of the 3 x 3 table is the doubled box's."""
    assert_doubled_table(every_4x4_image)


def dense_cube_runs(box):
    """The runs along each row of the map of the foreground's 2 x 2 blocks
    (`fg[:-1, :-1] & fg[1:, :-1] & fg[:-1, 1:] & fg[1:, 1:]`, by top left
    pixel), in scan order: each one's row, first and last column, and the
    label of its first block's top left pixel."""
    fg = box != 0
    cubes = fg[:-1, :-1] & fg[1:, :-1] & fg[:-1, 1:] & fg[1:, 1:]
    framed = np.pad(cubes, ((0, 0), (1, 1)))
    rows, cols = np.nonzero(framed[:, 1:] != framed[:, :-1])  # each run's first column, one past its last
    return rows[::2], cols[::2], cols[1::2] - 1, box[rows[::2], cols[::2]]


def assert_cube_runs(g):
    """The runs of cubes read at the boundary cells' codes, as `SurfaceTable`
    reads them, are the dense map's."""
    labels = hc.label_components(g)
    table, width = labels.table, labels.box.shape[1]
    ends = np.flatnonzero(solid3d._CUBE_RUN_ENDS.take(table.code))
    (row, first), last = np.divmod(table.cells.take(ends[::2]), width), table.cells.take(ends[1::2]) % width - 1
    runs = row, first, last, table.own.take(ends[::2])
    for name, got, want in zip(("row", "first", "last", "label"), runs, dense_cube_runs(labels.box)):
        assert np.array_equal(got, want), name


@settings(max_examples=400, deadline=None)
@given(label_images())
@example(hc.grid_from_rows(NESTED))
@example(hc.grid_from_rows(DIAGONAL))
@example(hc.grid_from_rows(["1"]))
@example(hc.BinaryGrid(np.zeros((3, 4), dtype=bool)))
def test_cube_runs_match_the_dense_map(g):
    assert_cube_runs(g)


def test_every_4x4_image_has_the_dense_maps_cube_runs(every_4x4_image):
    assert_cube_runs(every_4x4_image)


def test_the_surface_table_stays_run_sized():
    """Once the corner table and the 3 x 3 table are built, the surface
    table allocates less than a byte per box cell on a 1024 x 1024
    rectangle with holes: it joins the runs of cubes read at the boundary
    cells, with no map of cubes and no labelling."""
    labels = hc.label_components(hc.gen_rect_with_holes(hc.random_rect_spec(1, (1024, 1024), 5)))
    labels.table
    solid3d._pixel_table()
    tracemalloc.start()
    try:
        table = solid3d.SurfaceTable(labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (table.clean.tolist(), table.genus.tolist()[1:]) == ([False, True], [5])
    assert peak < labels.box.size


def test_every_4x4_image_gets_one_count_from_every_table(every_4x4_image):
    """The four tables of the 4 x 4 tiling, 168,529 components, checked
    against each other. A row is valid exactly when its contours partition
    its boundary. On each of the 1,898 valid rows the surface is clean, both
    formulas divide, and the corner formula, the mosaic's count, the hole
    contours, the formula genus and the Euler genus are one number (0: no
    valid 4 x 4 component has a hole, which needs a 5 x 5 box)."""
    labels = hc.label_components(every_4x4_image)
    table, curves, surface = labels.table, labels.curves, labels.surface
    assert (labels.component_count, np.count_nonzero(table.valid[1:])) == (168529, 1898)
    assert np.array_equal(table.valid, curves.ok)
    rows = np.flatnonzero(table.valid[1:]) + 1
    assert surface.clean[rows].all()
    c2, c4 = table.classes[rows, 2], table.classes[rows, 4]
    m3, m5, m6 = surface.points[rows][:, [3, 5, 6]].T
    assert not ((c4 - c2) % 4).any() and not ((m5 + 2 * m6 - m3) % 8).any()
    formula = 1 + (c4 - c2) // 4
    counts = {
        "mosaic": np.array(labels.hole_counts)[rows],
        "hole contours": np.diff(curves.rows)[rows] - 1,
        "formula genus": 1 + (m5 + 2 * m6 - m3) // 8,
        "Euler genus": surface.genus[rows],
    }
    for name, count in counts.items():
        assert np.array_equal(count, formula), name


def test_pixel_table_is_the_constructions_own():
    """Each code's row is what the 3D array code gives on that 3 x 3
    pattern alone, padded by background: its centre's point classes on
    both layers, the V - E + F of the cells whose minimum corner it is,
    and whether one of them is an edge in other than 0 or 2 faces."""
    credits, kind = solid3d._pixel_table()
    table = credits[kind]
    assert table.shape == (512, 4)
    for code in range(512):
        pattern = np.zeros((5, 5), dtype=bool)
        pattern[1:4, 1:4] = (code >> np.arange(9) & 1).reshape(3, 3)
        _, faces = solid3d._cubes_and_faces(np.repeat(pattern[None], 2, axis=0))
        degree, edge_cells, vertex_class = solid3d._edges_and_points(faces)
        centre = (slice(None), 2, 2)
        chi = np.count_nonzero(vertex_class[centre]) + sum(np.count_nonzero(f[centre]) for f in faces)
        chi -= sum(np.count_nonzero(e[centre]) for e in edge_cells)
        bad = any(((d[centre] != 0) & (d[centre] != 2)).any() for d in degree)
        assert table[code].tolist() == [*vertex_class[centre].tolist(), chi, bad], code
    assert table[511].tolist() == [4, 4, 0, 0]  # an interior cell
    assert not table[(np.arange(512) >> 4 & 1) == 0].any()  # a background centre credits nothing


def test_the_pixel_table_is_built_on_first_use(tmp_path):
    """`import holecount.cli` builds no table, so start-up does not pay for
    it; the first `genus3d` request builds it with one run of the 3D array
    code, on the strip of 512 tiles, and later requests reuse it."""
    path = tmp_path / "square.txt"
    path.write_text("0000\n0110\n0110\n0000\n")
    script = """
import contextlib, io, json, sys
doubled = []
def profile(frame, event, arg):
    if event == "call" and frame.f_code.co_name == "_cubes_and_faces":
        doubled.append(frame.f_locals["occupied"].shape)
sys.setprofile(profile)
import holecount.cli
from holecount import solid3d
seen = [(list(doubled), solid3d._pixel_table.cache_info().currsize)]
for _ in range(2):
    with contextlib.redirect_stdout(io.StringIO()):
        code = holecount.cli.main(["genus3d", sys.argv[1]])
    seen.append((code, list(doubled), solid3d._pixel_table.cache_info().currsize))
sys.setprofile(None)
print(json.dumps(seen))
"""
    src = str(Path(hc.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    argv = [sys.executable, "-c", script, str(path)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120, env=env)
    assert done.returncode == 0, done.stderr
    strip = [2, 5, 2560]
    assert json.loads(done.stdout) == [[[], 0], [0, [strip], 1], [0, [strip], 1]]
