"""The per-component context: results match a full-image reference, and the
work done per image grows with the components' crops, not pixels x
components.

The reference below recomputes every per-component result on image-sized
arrays, the way the package did before components were cropped: an
image-sized mask per component, its own neighbor counts, a pathology scan
and a contour trace over the whole padded image, and a complement labeling
of the whole padded image.
"""

import contextlib
import gc
import io
import json
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import ndimage

import holecount as hc
from holecount import cli, corners, curves, labeling, solid3d
from holecount.corners import (
    CONTOUR_OVERLAP,
    ISOLATED_OR_THIN_POINT,
    PATHOLOGICAL_WINDOW,
)
from holecount.curves import HOLE, OUTER

FOUR = ndimage.generate_binary_structure(2, 1)


def ref_label(mask):
    """4-connected labels renumbered 1..n by row-major first occurrence."""
    raw, n = ndimage.label(mask, structure=FOUR)
    values, first = np.unique(raw, return_index=True)
    remap = np.zeros(n + 1, dtype=int)
    remap[values[values != 0][np.argsort(first[values != 0])]] = np.arange(1, n + 1)
    return remap[raw], n


def ref_counts(mask):
    p = np.pad(mask, 1).astype(int)
    h, w = mask.shape
    shift = {(dr, dc): p[1 + dr : 1 + dr + h, 1 + dc : 1 + dc + w] for dr in (-1, 0, 1) for dc in (-1, 0, 1)}
    direct = shift[-1, 0] + shift[1, 0] + shift[0, -1] + shift[0, 1]
    full = sum(v for k, v in shift.items() if k != (0, 0))
    return direct, full


def points(cells, dr=0, dc=0):
    return [(int(r) + dr, int(c) + dc) for r, c in np.argwhere(cells)]


_N, _E, _S, _W = (-1, 0), (0, 1), (1, 0), (0, -1)
_LEFT = {_E: _N, _N: _W, _W: _S, _S: _E}
_RIGHT = {v: k for k, v in _LEFT.items()}


def _walk(mask, start, heading):
    """Left-hand-rule pixel walk, one step at a time; returns the cycle
    starting at `start`. `mask` has a background ring, so every neighbor of
    its cells is in range."""
    path = [start]
    p, d = start, heading
    while True:
        r, c = p
        q = None
        for nd in (_LEFT[d], d, _RIGHT[d], (-d[0], -d[1])):
            if mask[r + nd[0], c + nd[1]]:
                q = (r + nd[0], c + nd[1])
                break
        if q is None or q == start:
            return path
        path.append(q)
        p, d = q, nd


def ref_walks(mask):
    """`_walk`'s contours of a component as (kind, points, complement
    region), in image coordinates, and the complement labels of the padded
    mask; walked on the whole padded image."""
    padded = np.pad(mask, 1)
    regions, n = ref_label(~padded)
    starts = [(OUTER, tuple(np.argwhere(padded)[0].tolist()), _E, 1)]
    for rid in range(2, n + 1):
        r, c = np.argwhere(regions == rid)[0].tolist()
        starts.append((HOLE, (r - 1, c), _W, rid))
    walks = [(kind, [(r - 1, c - 1) for r, c in _walk(padded, start, d)], rid) for kind, start, d, rid in starts]
    return walks, regions


def ref_trace(mask, bnd):
    """Contours as (kind, points, enclosed) in image coordinates, or the
    overlap point: the first point walked twice, else the first point of the
    boundary and the walks that is not on both."""
    walks, regions = ref_walks(mask)
    seen = set()
    for _, path, _ in walks:
        for p in path:
            if p in seen:
                return p
            seen.add(p)
    expected = set(points(bnd))
    if seen != expected:
        return min(seen ^ expected)
    result = []
    for kind, path, rid in walks:
        if kind == OUTER:
            enclosed = set(points(regions != 1, -1, -1)) - set(path)
        else:
            enclosed = set(points(regions == rid, -1, -1))
        result.append((kind, path, enclosed))
    return result


def reference(g):
    """Per component: (to_dict, validity reasons, corner classes, contours)."""
    labels, n = ref_label(g.cells)
    out = []
    for cid in range(1, n + 1):
        mask = labels == cid
        direct, full = ref_counts(mask)
        bnd = mask & (full < 8)
        classes = {p: int(direct[p]) for p in points(bnd)}
        reasons = [(ISOLATED_OR_THIN_POINT, p) for p in points(bnd & (direct < 2))]
        a, b, c, d = (np.pad(mask, 1)[i : i + g.height + 1, j : j + g.width + 1] for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)))
        reasons += [(PATHOLOGICAL_WINDOW, p) for p in points((a & d & ~b & ~c) | (b & c & ~a & ~d), -1, -1)]
        contours = None
        if not reasons:
            contours = ref_trace(mask, bnd)
            if isinstance(contours, tuple):
                reasons.append((CONTOUR_OVERLAP, contours))
                contours = None
        k = np.bincount(direct[bnd], minlength=5)
        c2, c3, c4 = int(k[2]), int(k[3]), int(k[4])
        holes_formula = None if reasons or (c4 - c2) % 4 else 1 + (c4 - c2) // 4
        holes_oracle = None if reasons else ref_label(~np.pad(mask, 1))[1] - 1
        record = {
            "component_id": cid,
            "area": int(mask.sum()),
            "c2": c2,
            "c3": c3,
            "c4": c4,
            "holes_formula": holes_formula,
            "holes_oracle": holes_oracle,
            "valid": not reasons,
            "agreement": None if holes_formula is None else holes_formula == holes_oracle,
        }
        out.append((record, reasons, classes, contours))
    return out


@st.composite
def grids(draw):
    """Unconstrained noise, sometimes framed by a 2-thick ring so that the
    noise components sit nested in the ring's hole; the ring touches the
    image border unless a margin is drawn."""
    inner = draw(arrays(bool, st.tuples(st.integers(1, 10), st.integers(1, 10))))
    if draw(st.booleans()):
        inner = np.pad(np.pad(inner, 1), 2, constant_values=True)
        inner = np.pad(inner, draw(st.integers(0, 1)))
    return hc.BinaryGrid(inner)


NESTED = [
    "1111111",
    "1000001",
    "1011101",
    "1010101",
    "1011101",
    "1000001",
    "1111111",
]
# Two holes, a single point nested in the first one, border contact.
TWO_HOLES = [
    "111111111111",
    "111111111111",
    "110001100011",
    "110101100011",
    "110001100011",
    "111111111111",
    "111111111111",
]


@settings(max_examples=300, deadline=None)
@given(grids())
@example(hc.grid_from_rows(NESTED))
@example(hc.grid_from_rows(TWO_HOLES))
@example(hc.pad_background(hc.grid_from_rows(["1111", "1101", "1011", "1111"]), 1))
@example(hc.grid_from_rows(["111111", "111111", "110011", "110011", "111111", "111111"]))
def test_crop_path_matches_full_image_reference(g):
    reports = hc.analyze_image(g)
    ref = reference(g)
    assert len(reports) == len(ref)
    labels = hc.label_components(g)
    for rep, (record, reasons, classes, contours) in zip(reports, ref):
        cid = rep.component_id
        assert rep.to_dict() == record
        assert list(rep.validity.reasons) == reasons
        assert list(rep.classification.classes.items()) == list(classes.items())
        assert list(rep.classification.degenerate_points) == [p for p, k in classes.items() if k < 2]
        if contours is not None:
            for component in (labels.mask_of(cid), corners.ComponentContext.of_label(labels, cid)):
                traced = hc.trace_contours(g, component)
                assert [(ct.kind, list(ct.points), ct.enclosed_region) for ct in traced] == contours


@settings(max_examples=200, deadline=None)
@given(grids())
@example(hc.grid_from_rows(NESTED))
@example(hc.grid_from_rows(["1100", "1100", "0010"]))
def test_label_context_matches_a_context_of_its_mask(g):
    """A context read from the image's tables builds its ring and its
    complement only when they are read, and they, its boundary points'
    classes, its area and its census equal those of a context of the
    component's own mask. Other components may lie in the box, so the
    classes are cut from the image's table at the component's label."""
    labels = hc.label_components(g)
    for cid in range(1, labels.component_count + 1):
        ctx = corners.ComponentContext.of_label(labels, cid)
        alone = corners.ComponentContext.of(g, labels.mask_of(cid))
        assert not {"mask", "complement", "classes"} & set(vars(ctx))
        assert np.array_equal(ctx.mask, alone.mask)
        table, alone_table = ctx.labels.table, alone.labels.table
        census, alone_census = table.censuses[cid], alone_table.censuses[alone.cid]
        assert (ctx.offset, table.area[cid], census) == (alone.offset, alone_table.area[alone.cid], alone_census)
        assert list(ctx.classes.items()) == list(alone.classes.items())
        (regions, n), (alone_regions, alone_n) = ctx.complement, alone.complement
        assert n == alone_n and np.array_equal(regions, alone_regions)


@st.composite
def smooth_grids(draw):
    """Mostly valid shapes: noise opened, closed or median-smoothed, or
    holed rectangles chained so that each touches the one before at a
    single main- or anti-diagonal contact, where reading plain foreground
    instead of labels goes wrong."""
    kind = draw(st.sampled_from(["open", "close", "median", "rects"]))
    if kind != "rects":
        noise = draw(arrays(bool, st.tuples(st.integers(2, 14), st.integers(2, 14))))
        noise = np.kron(noise, np.ones((draw(st.integers(1, 2)),) * 2, dtype=bool))
        square = np.ones((2, 2), dtype=bool)
        if kind == "open":
            cells = ndimage.binary_opening(noise, square)
        elif kind == "close":
            cells = ndimage.binary_closing(noise, square)
        else:
            cells = ndimage.median_filter(noise.view(np.uint8), size=3).astype(bool)
        return hc.BinaryGrid(np.pad(cells, draw(st.integers(0, 1))))
    arr = np.zeros((32, 64), dtype=bool)
    r, left, w = 1, 30, 0
    for _ in range(draw(st.integers(2, 4))):
        h, width = draw(st.integers(2, 7)), draw(st.integers(2, 7))
        # Below and right of the last one's bottom right cell, or below and
        # left of its bottom left cell.
        left, w = (left + w if draw(st.booleans()) else left - width), width
        arr[r : r + h, left : left + w] = True
        if h > 4 and w > 4 and draw(st.booleans()):
            arr[r + 2 : r + h - 2, left + 2 : left + w - 2] = False
        r += h
    return hc.BinaryGrid(arr)


def euler_holes(mask):
    """1 - chi, chi = pixels - horizontal pairs - vertical pairs + 2x2 blocks."""
    m = mask.astype(int)
    pairs = (m[:, :-1] * m[:, 1:]).sum() + (m[:-1] * m[1:]).sum()
    blocks = (m[:-1, :-1] * m[:-1, 1:] * m[1:, :-1] * m[1:, 1:]).sum()
    return 1 - (m.sum() - pairs + blocks)


RINGS = [
    "11111100000000",
    "11111100000000",
    "11001100000000",
    "11001100000000",
    "11111100000000",
    "11111100000000",
    "00000011111100",
    "00000011111100",
    "00000011001100",
    "00000011001100",
    "00000011111100",
    "00000011111100",
]


# The ring's bottom right corner touches the L's foot; the L has the
# smaller label though the contact is at its top.
L_CONTACT = [
    "000000000011",
    "011111100011",
    "011111100011",
    "011001100011",
    "011001100011",
    "011111100011",
    "011111100011",
    "000000011111",
    "000000011111",
]


@settings(max_examples=200, deadline=None)
@given(smooth_grids())
@example(hc.grid_from_rows(RINGS))
@example(hc.grid_from_rows(L_CONTACT))
@example(hc.grid_from_rows(["111000", "111000", "111000", "000111", "000101", "000111"]))
@example(hc.grid_from_rows(["1100", "1100", "0010"]))
@example(hc.grid_from_rows(NESTED))
@example(hc.grid_from_rows(["111", "101", "111"]))
def test_table_matches_each_component_alone(g):
    labels = hc.label_components(g)
    table = labels.table
    for cid, (record, reasons, classes, _) in enumerate(reference(g), start=1):
        mask = labels.mask_of(cid)
        census = table.censuses[cid]
        assert census == hc.classify_corners(g, mask).census
        assert (census.c2, census.c3, census.c4) == (record["c2"], record["c3"], record["c4"])
        assert census.boundary_total == len(classes)
        alone = hc.validate_component(g, mask)
        assert hc.validate_component(g, corners.ComponentContext.of_label(labels, cid)) == alone
        assert list(alone.reasons) == reasons
        assert bool(table.valid[cid]) == alone.valid
        if alone.valid:
            assert euler_holes(mask) == record["holes_oracle"]
        # The label context's boundary points and classes, cut from the image's table.
        ctx = corners.ComponentContext.of_label(labels, cid)
        direct, full = ref_counts(mask)
        boundary = mask & (full < 8)
        assert list(ctx.classes) == list(map(tuple, np.argwhere(boundary).tolist()))
        assert list(ctx.classes.values()) == direct[boundary].tolist()
        assert table.area[cid] == np.count_nonzero(mask)
        assert hc.classify_corners(g, ctx).classes == classes


def write_grid(tmp_path, g):
    path = tmp_path / "grid.txt"
    path.write_text(hc.to_ascii01(g))
    return str(path)


@pytest.mark.parametrize(
    "g",
    [
        hc.grid_from_rows(["111111", "111111", "110011", "110011", "111111", "111111"]),
        hc.pad_background(hc.gen_rect_with_holes(hc.random_rect_spec(3, (12, 14), 2)), 1),
    ],
)
def test_cli_curves_points_match_reference(tmp_path, capsys, g):
    assert cli.main(["curves", write_grid(tmp_path, g)]) == cli.EXIT_OK
    (entry,) = json.loads(capsys.readouterr().out)
    (_, _, _, contours) = reference(g)[0]
    got = [(ct["kind"], [tuple(p) for p in ct["points"]]) for ct in entry["contours"]]
    assert got == [(kind, pts) for kind, pts, _ in contours]


def count_calls(monkeypatch, module, name):
    """Arguments of every call of `module.name`, whichever holecount module
    it is called through."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for modname, m in list(sys.modules.items()):
        if m is not None and (modname == "holecount" or modname.startswith("holecount.")):
            for key, value in list(vars(m).items()):
                if value is original:
                    monkeypatch.setattr(m, key, counted)
    return calls


def tile(k_rows, k_cols):
    """k_rows x k_cols rectangles with 0-2 holes, 2 background cells apart."""
    cell = 12
    arr = np.zeros((k_rows * cell + 2, k_cols * cell + 2), dtype=bool)
    for i in range(k_rows):
        for j in range(k_cols):
            spec = hc.random_rect_spec(i * k_cols + j, (10, 10), (i + j) % 3)
            arr[1 + i * cell : 11 + i * cell, 1 + j * cell : 11 + j * cell] = hc.gen_rect_with_holes(spec).cells
    return hc.BinaryGrid(arr)


def count_work(monkeypatch):
    """Calls of the per-component steps that a valid component skips when
    its census and validity come from the image's table."""
    return {
        "neighbor_counts": count_calls(monkeypatch, corners, "neighbor_counts"),
        "diagonal_pairs": count_calls(monkeypatch, corners, "diagonal_pairs"),
        "_positions": count_calls(monkeypatch, corners, "_positions"),
        "trace_contours": count_calls(monkeypatch, curves, "trace_contours"),
    }


def image_work(work):
    return {name: [args[0].size for args in calls] for name, calls in work.items()}


def test_analyze_labels_the_image_and_the_mosaic(monkeypatch):
    """One table pass over the image gives every census and validity, and
    one mosaic of its runs every oracle count: a request labels once, the
    image, and then neither the mosaic nor any crop."""
    g = tile(2, 3)
    work = count_work(monkeypatch)
    labeled = count_calls(monkeypatch, labeling, "label_mask")
    regions = count_calls(monkeypatch, labeling, "hole_regions")
    reports = hc.analyze_image(g)
    assert len(reports) == 6 and all(rep.agreement for rep in reports)
    assert [rep.holes_oracle for rep in reports] == [(i + j) % 3 for i in range(2) for j in range(3)]
    once = [22 * 34]  # the foreground's box, rows 1..22 and columns 1..34 of 26 x 38
    assert image_work(work) == {
        "neighbor_counts": once, "diagonal_pairs": once, "_positions": [], "trace_contours": []
    }
    assert [mask.shape for mask, in labeled] == [(22, 34)]
    assert len(regions) == 1


def test_genus3d_reads_validity_from_the_table(tmp_path, capsys, monkeypatch):
    g = tile(3, 4)
    work = count_work(monkeypatch)
    assert cli.main(["genus3d", write_grid(tmp_path, g)]) == cli.EXIT_OK
    assert len(json.loads(capsys.readouterr().out)) == 12
    once = [34 * 46]  # the foreground's box, rows 1..34 and columns 1..46 of 38 x 50
    assert image_work(work) == {
        "neighbor_counts": once, "diagonal_pairs": once, "_positions": [], "trace_contours": []
    }


def test_curves_traces_each_component_once(tmp_path, capsys, monkeypatch):
    """One contour table walks every component: a request labels the image
    once and builds one mosaic of its complements, which labels nothing,
    whatever the component count, counts neighbors once over the image and
    builds one contour table."""
    arr = np.zeros((242, 242), dtype=bool)
    for i in range(20):
        for j in range(20):
            arr[1 + 12 * i : 11 + 12 * i, 1 + 12 * j : 11 + 12 * j] = True
            arr[4 + 12 * i : 4 + 12 * i + (i + j) % 3, 4 + 12 * j : 7 + 12 * j] = False
    g = hc.BinaryGrid(arr)
    traced = count_calls(monkeypatch, curves, "trace_contours")
    built = count_calls(monkeypatch, curves, "CurveTable")
    labeled = count_calls(monkeypatch, labeling, "label_mask")
    regions = count_calls(monkeypatch, labeling, "hole_regions")
    counted = count_calls(monkeypatch, corners, "neighbor_counts")
    assert cli.main(["curves", write_grid(tmp_path, g)]) == cli.EXIT_OK
    assert len(json.loads(capsys.readouterr().out)) == 400
    assert traced == [] and len(built) == 1 and len(regions) == 1
    # The foreground's box, rows and columns 1..238 of 242, and nothing else.
    assert [mask.shape for mask, in labeled] == [(238, 238)]
    assert [mask.size for mask, in counted] == [238 * 238]


def test_curves_stops_before_the_contour_table(tmp_path, capsys, monkeypatch):
    """With component 2 invalid, no contours are traced, not even those of
    component 1, which would not be printed."""
    path = tmp_path / "two.txt"
    rows = ["0000000000", "0111111000", "0111111000", "0110011010", "0110011000", "0111111000"]
    path.write_text("\n".join(rows + ["0111111000", "0000000000"]) + "\n")
    regions = count_calls(monkeypatch, labeling, "hole_regions")
    built = count_calls(monkeypatch, curves, "CurveTable")
    assert cli.main(["curves", str(path)]) == cli.EXIT_INPUT
    out, err = capsys.readouterr()
    assert (out, err) == ("", "component 2 invalid: isolated_or_thin_point at (3, 8)\n")
    assert regions == [] and built == []


@pytest.mark.parametrize("command", ["analyze", "curves", "genus3d"])
def test_an_overlap_is_explained_from_the_image_tables(tmp_path, capsys, monkeypatch, command):
    """A ring with 1-cell walls, where the contours meet, is explained from
    the image's own tables: one neighbour count and one diagonal scan, and
    none over a crop of the ring."""
    path = write_grid(tmp_path, hc.grid_from_rows(["1111", "1001", "1111"]))
    counted = count_calls(monkeypatch, corners, "neighbor_counts")
    paired = count_calls(monkeypatch, corners, "diagonal_pairs")
    code = cli.main([command, path])
    out, err = capsys.readouterr()
    if command == "analyze":
        assert code == cli.EXIT_OK and '"valid": false' in out
    else:
        assert (code, err) == (cli.EXIT_INPUT, "component 1 invalid: contour_overlap at (0, 1)\n")
    assert [mask.shape for mask, in counted + paired] == [(3, 4)] * 2


@pytest.mark.parametrize("k", [1, 40])
def test_overlap_rows_share_one_contour_table(monkeypatch, k):
    """`analyze` on k rings with 1-cell walls reads every overlap from one
    `CurveTable` over the image, built on its one `ComponentTable` and one
    mosaic of hole regions, whatever k."""
    arr = np.zeros((5, 4 * k + 1), dtype=bool)
    for i in range(k):
        arr[1:4, 1 + 4 * i : 4 + 4 * i] = True
        arr[2, 2 + 4 * i] = False
    tables = count_calls(monkeypatch, corners, "ComponentTable")
    regions = count_calls(monkeypatch, labeling, "hole_regions")
    built = count_calls(monkeypatch, curves, "CurveTable")
    reports = hc.analyze_image(hc.BinaryGrid(arr))
    assert [rep.validity.reasons for rep in reports] == [((CONTOUR_OVERLAP, (1, 2 + 4 * i)),) for i in range(k)]
    assert len(tables) == len(regions) == len(built) == 1


def count_method_calls(monkeypatch, cls, name):
    """Arguments of every call of the method `cls.name`, less the instance."""
    calls, real = [], getattr(cls, name)
    monkeypatch.setattr(cls, name, lambda self, *args: calls.append(args) or real(self, *args))
    return calls


def count_inits(monkeypatch, cls):
    """Arguments of every construction of `cls`."""
    return count_method_calls(monkeypatch, cls, "__init__")


@pytest.mark.parametrize("n", [1, 60])
def test_genus3d_cuts_out_only_the_component_it_stops_at(tmp_path, capsys, monkeypatch, n):
    """n valid 4 x 4 squares, then a single point: `genus3d` stops at the
    point as `curves` does, with one context, the point's, and doubles no
    component, however many valid ones come first."""
    arr = np.zeros((6, 5 * n + 3), dtype=bool)
    for i in range(n):
        arr[1:5, 1 + 5 * i : 5 + 5 * i] = True
    arr[1, 5 * n + 1] = True
    path = write_grid(tmp_path, hc.BinaryGrid(arr))
    contexts = count_inits(monkeypatch, corners.ComponentContext)
    doubled = count_calls(monkeypatch, solid3d, "double_component")
    surfaces = count_inits(monkeypatch, solid3d.SurfaceComplex)
    for command in ("curves", "genus3d"):
        assert cli.main([command, path]) == cli.EXIT_INPUT
        assert capsys.readouterr() == ("", f"component {n + 1} invalid: isolated_or_thin_point at (1, {5 * n + 1})\n")
    assert [args[1] for args in contexts] == [(1, 5 * n + 1)] * 2
    assert doubled == surfaces == []


@settings(max_examples=200, deadline=None)
@given(grids())
@example(hc.grid_from_rows(["0000000", "0111000", "0111010", "0111000", "0000000"]))
@example(hc.grid_from_rows(["1111", "1001", "1111"]))
def test_a_request_cuts_out_only_the_component_it_stops_at(g):
    """`curves` and `genus3d` read every row from the image's tables: a
    request builds one context, of the component its error names, when it
    stops, and none otherwise."""
    data = hc.to_ascii01(g).encode()
    for command in ("curves", "genus3d"):
        out, err = io.StringIO(), io.StringIO()
        with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            contexts = count_inits(mp, corners.ComponentContext)
            mp.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
            cli.main([command, "-"])
        assert len(contexts) == (err.getvalue() != "")
        for args in contexts:
            assert err.getvalue().startswith(f"component {args[4]}")


# Five 1 x 2 dominoes, each cell a thin point.
DOMINOES = hc.grid_from_rows(["0" * 16, "0" + "110" * 5, "0" * 16])


def test_thin_points_are_decoded_once(monkeypatch):
    """The thin points and pathological windows of every component come
    from the image's table, sorted by label once: no component decodes its
    own, and `analyze` reads each row's faults once, in its validity check."""
    k, g = 5, DOMINOES
    decoded = count_calls(monkeypatch, corners, "_positions")
    faults = count_method_calls(monkeypatch, corners.ComponentTable, "faults")
    reports = hc.analyze_image(g)
    assert [rep.validity.reasons for rep in reports] == [
        ((ISOLATED_OR_THIN_POINT, (1, 3 * i + 1)), (ISOLATED_OR_THIN_POINT, (1, 3 * i + 2)))
        for i in range(k)
    ]
    assert len(decoded) == 0
    assert faults == [(cid,) for cid in range(1, k + 1)]


def owner(a):
    """The array that holds `a`'s memory."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


@pytest.mark.parametrize("g", [tile(2, 3), DOMINOES], ids=["tile", "dominoes"])
def test_reports_keep_no_image_sized_array(g):
    """Each report's context owns its crop and its ringed mask: a crop cut
    as a view of `mask_of`'s image-sized mask would keep one such mask alive
    per report, 32,768 of them on a 256 x 256 checkerboard."""
    reports = hc.analyze_image(g)
    assert len(reports) == (5 if g is DOMINOES else 6)
    for rep in reports:
        ctx = rep.classification.context
        rows, cols = ctx.crop.shape
        for a in (ctx.crop, ctx.mask):
            assert owner(a).size <= (rows + 2) * (cols + 2) < g.cells.size


@pytest.mark.parametrize("g", [tile(2, 3), DOMINOES], ids=["tile", "dominoes"])
def test_the_corner_table_keeps_no_box_sized_array(g):
    """The corner table keeps each per-cell fact as a column over the
    boundary cells and each per-label one as a row, 0..n: no array it
    holds, nor any that one of them is a view of, is as large as the box."""
    labels = hc.label_components(g)
    table, n = labels.table, labels.component_count
    bound = max(table.cells.size, n + 1)
    assert bound < labels.box.size
    assert {"cells", "own", "code", "corner"} <= set(vars(table))
    assert not {"direct", "boundary"} & set(vars(table))
    for name, a in vars(table).items():
        if isinstance(a, np.ndarray):
            longest = max(a.shape)  # with at most 5 values along the others
            assert longest <= bound and owner(a).size <= 5 * longest, name


def test_classes_are_decoded_once_on_first_read(monkeypatch):
    """A context decodes its boundary points' classes from the image's
    table on first read, through the one decoding helper, and keeps them."""
    labels = hc.label_components(tile(2, 3))
    ctx = corners.ComponentContext.of_label(labels, 2)
    decoded = count_calls(monkeypatch, corners, "_positions")
    assert "classes" not in vars(ctx)
    classes = ctx.classes
    assert ctx.classes is classes and hc.classify_corners(None, ctx).classes is classes
    assert len(decoded) == 1 and len(classes) == labels.table.censuses[2].boundary_total
    assert frozenset(classes) == hc.boundary_points(None, ctx)


def test_a_valid_row_rings_no_crop(tmp_path, capsys, monkeypatch):
    """An all-valid `analyze` request rings one array, the image's
    foreground in `neighbor_counts`, and cuts one mask per component; the
    text overlay paints every component's classes from the image's table
    at once, decoding no component's points. A context rings its crop only
    when its `mask` is read."""
    g = tile(2, 3)
    path = write_grid(tmp_path, g)
    ringed = count_calls(monkeypatch, corners, "_ringed")
    decoded = count_calls(monkeypatch, corners, "_positions")
    cut = count_method_calls(monkeypatch, labeling.LabelMap, "mask_of")
    for output in ("json", "text"):
        assert cli.main(["analyze", path, "--output", output]) == cli.EXIT_OK
        capsys.readouterr()
        assert [mask.shape for mask, in ringed] == [(22, 34)]  # the foreground's box in 26 x 38
        assert cut == [(cid,) for cid in range(1, 7)] and decoded == []
        del ringed[:], cut[:]
    ctx = hc.analyze_image(g)[0].classification.context
    ringed.clear()
    assert np.array_equal(ctx.mask, np.pad(ctx.crop, 1)) and ctx.mask is ctx.mask
    assert [mask.shape for mask, in ringed] == [ctx.crop.shape]


def test_context_arrays_are_cropped():
    g = hc.pad_background(hc.grid_from_rows(["111", "101", "111"]), 4)
    ctx = corners.ComponentContext.of(g, g.cells)
    assert ctx.offset == (3, 3)
    assert ctx.mask.shape == (5, 5)
    assert ctx.positions(ctx.mask) == sorted(g.foreground_points())
    assert ctx.complement[1] == 2


def test_label_map_has_no_point_sets(m7):
    lm = hc.label_components(hc.pad_background(m7, 2), "foreground")
    assert set(vars(lm)) <= {"box", "origin", "shape", "component_count", "slices"}
    assert lm.points_of(1) == hc.pad_background(m7, 2).foreground_points()
    assert lm.mask_of(1).shape == lm.shape == hc.pad_background(m7, 2).cells.shape


def test_tables_keep_no_reference_to_their_map(m7):
    """Each table is built from its `LabelMap` alone and keeps no reference
    to it, so no table -> map -> table cycle outlives a request: with the
    cycle collector off, dropping the map frees it while its tables live."""
    lm = hc.label_components(hc.pad_background(m7, 2))
    tables = [lm.table, lm.complements, lm.curves, lm.surface]
    ref = weakref.ref(lm)
    gc.disable()
    try:
        del lm
        assert ref() is None
    finally:
        gc.enable()
    assert tables[1][0].tolist() == [0, 1]  # the mosaic's hole counts


SQUARE = hc.grid_from_rows(["111", "111", "111"])


@pytest.mark.parametrize("point", [(-1, -1), (SQUARE.height, 0)])
@pytest.mark.parametrize(
    "check",
    [
        corners.classify_corners,
        corners.validate_component,
        corners.boundary_points,
        corners.find_pathological,
        curves.trace_contours,
        hc.double_component,
    ],
)
def test_points_outside_the_grid_raise(check, point):
    with pytest.raises(hc.OutOfBoundsError, match=r"outside 3x3 grid"):
        check(SQUARE, {point})


def spiral(side):
    """A square spiral of 2-thick walls and 2-wide corridors: one component
    whose outer contour runs the length of both sides of every wall."""
    arr = np.zeros((side, side), dtype=bool)
    r = c = 0
    legs = [side - 2] + [m for m in range(side - 2, 0, -4) for _ in range(2)]
    for (dr, dc), m in zip([(0, 1), (1, 0), (0, -1), (-1, 0)] * side, legs):
        r2, c2 = r + dr * m, c + dc * m
        arr[min(r, r2) : max(r, r2) + 2, min(c, c2) : max(c, c2) + 2] = True
        r, c = r2, c2
    return arr


def comb(teeth, length, thick=2):
    """A `thick` bar with `teeth` teeth of `length`, `thick` wide and apart."""
    arr = np.zeros((length + thick, 2 * thick * teeth - thick), dtype=bool)
    arr[:thick] = True
    for t in range(teeth):
        arr[thick:, 2 * thick * t : 2 * thick * t + thick] = True
    return arr


def many_holes(rows, cols):
    """A rectangle with rows x cols 2 x 2 holes behind 2-thick walls."""
    arr = np.ones((4 * rows + 2, 4 * cols + 2), dtype=bool)
    for i in range(rows):
        for j in range(cols):
            arr[2 + 4 * i : 4 + 4 * i, 2 + 4 * j : 4 + 4 * j] = False
    return arr


def hole_grid(k):
    """A square with k x k 3 x 3 holes behind 1-cell walls."""
    arr = np.ones((4 * k + 1, 4 * k + 1), dtype=bool)
    arr[1:, 1:].reshape(k, 4, k, 4)[:, :3, :, :3] = False
    return arr


@st.composite
def mosaics(draw):
    """Several shapes on one canvas, where they may touch, overlap or nest:
    holed noise, many holes, a shape in a thick ring's hole, rectangles
    that touch only at a corner, a spiral, a comb and raw noise."""
    side = 40
    arr = np.zeros((side, side), dtype=bool)
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["holed", "holes", "nested", "diagonal", "spiral", "comb", "noise"]))
        if kind == "holed":
            shape = np.pad(draw(arrays(bool, (6, 6))), 2, constant_values=True)
            shape = np.kron(shape, np.ones((2, 2), dtype=bool))
        elif kind == "holes":
            shape = many_holes(draw(st.integers(1, 4)), draw(st.integers(1, 4)))
        elif kind == "nested":
            inner = np.kron(draw(arrays(bool, (3, 3))), np.ones((2, 2), dtype=bool))
            shape = np.pad(np.pad(inner, 1), 2, constant_values=True)
        elif kind == "diagonal":
            h1, w1, h2, w2 = (draw(st.integers(2, 6)) for _ in range(4))
            shape = np.zeros((h1 + h2, w1 + w2), dtype=bool)
            shape[:h1, :w1] = shape[h1:, w1:] = True
            if draw(st.booleans()):
                shape = shape[:, ::-1]
        elif kind == "spiral":
            shape = spiral(draw(st.integers(6, 30)))
        elif kind == "comb":
            shape = comb(draw(st.integers(1, 6)), draw(st.integers(1, 8)))
        else:
            shape = draw(arrays(bool, st.tuples(st.integers(1, 8), st.integers(1, 8))))
        r = draw(st.integers(0, side - shape.shape[0]))
        c = draw(st.integers(0, side - shape.shape[1]))
        arr[r : r + shape.shape[0], c : c + shape.shape[1]] |= shape
    return hc.BinaryGrid(arr)


@settings(max_examples=300, deadline=None)
@given(mosaics())
@example(hc.BinaryGrid(np.pad(spiral(31), 1)))
@example(hc.BinaryGrid(np.pad(comb(6, 5), 1)))
@example(hc.BinaryGrid(np.pad(many_holes(3, 4), 1)))
@example(hc.grid_from_rows(NESTED))
@example(hc.grid_from_rows(L_CONTACT))
@example(hc.grid_from_rows(RINGS))
# Each walk visits new cells only, but the outer one passes the hole's
# start, and the hole's the outer one's.
@example(hc.grid_from_rows(["00000", "01100", "01110", "01010", "01110", "00000"]))
# A ring with 1-cell walls: both walks pass the other's start, and the
# first point walked twice is (0, 1), not the hole's start (0, 2).
@example(hc.grid_from_rows(["1111", "1001", "1111"]))
# Two holes: the first point walked twice is (0, 4), after the outer walk
# has passed the first hole's start (0, 3).
@example(hc.grid_from_rows(["0011110", "0111010", "0101110", "0111100"]))
# Nine and 100 holes with 1-cell walls: the outer walk passes the starts
# of the 3 and 10 holes under the top wall, and each hole's walk the start
# of the hole below it.
@example(hc.BinaryGrid(hole_grid(3)))
@example(hc.BinaryGrid(hole_grid(10)))
def test_contour_table_matches_the_walk(g):
    """The contour table's row of each component with no thin point is
    `_walk`'s walks, point for point, invalid components included; a row
    with a thin point has empty contours and is not `ok`. A row
    is flagged exactly where those walks fail to partition the boundary,
    and then names the same point as the trace; otherwise it has the
    trace's per-contour classes. The mosaic counts every component's holes
    as `holes_in_mask` does on the component alone."""
    labels = hc.label_components(g)
    holes, _ = labels.complements
    assert len(holes) == labels.component_count + 1
    for cid in range(1, labels.component_count + 1):
        mask = labels.mask_of(cid)
        assert holes[cid] == labeling.holes_in_mask(mask)
        direct, full = ref_counts(mask)
        bnd = mask & (full < 8)
        table = labels.curves
        if (direct[bnd] < 2).any():  # refused before the table is read, so not walked
            assert not table.ok[cid] and all(not len(pts) for _, pts in table.contours(cid))
            continue
        assert [(kind, list(map(tuple, pts.tolist()))) for kind, pts in table.contours(cid)] == [
            (kind, pts) for kind, pts, _ in ref_walks(mask)[0]
        ]
        contours = ref_trace(mask, bnd)
        if isinstance(contours, tuple):
            assert not table.ok[cid] and table.fault(cid) == contours
            continue
        assert table.ok[cid] and table.fault(cid) is None
        census = [tuple(sum(direct[p] == k for p in pts) for k in (2, 3, 4)) for _, pts, _ in contours]
        acct = table.accounting(cid)
        assert [(cc.cp2, cc.cp3, cc.cp4) for cc in acct.curve_censuses] == census
        assert acct == curves.second_proof_accounting(g, mask)


def dense_hole_regions(labels):
    """`hole_regions` of a map, cut per component: the first cell, as a `box`
    position, of each bounded region of `label_mask` of the complement of
    the component's crop grown by a background ring. A crop met before
    reuses its regions."""
    box, seen, counts, cells = labels.box, {}, [0], [np.zeros((0, 2), dtype=np.intp)]
    objects = ndimage.find_objects(box) if box.size else []  # scipy refuses an empty box
    for cid, (rows, cols) in enumerate(objects, start=1):
        crop = box[rows, cols] == cid
        key = crop.shape, crop.tobytes()
        if key not in seen:
            regions, _ = labeling.label_mask(~np.pad(crop, 1))
            _, first = np.unique(regions, return_index=True)  # 0 the crop, 1 the ring, then the holes
            seen[key] = np.stack(np.divmod(first[2:], crop.shape[1] + 2), axis=1) - 1
        counts.append(len(seen[key]))
        cells.append(seen[key] + (rows.start, cols.start))
    return np.array(counts), np.concatenate(cells)


def assert_dense_hole_regions(g):
    labels = hc.label_components(g)
    holes, firsts = labeling.hole_regions(labels)
    ref_holes, ref_firsts = dense_hole_regions(labels)
    assert holes.tolist() == ref_holes.tolist()
    assert firsts.tolist() == ref_firsts.tolist()
    return labels


def nested_rings(thick, side=27):
    """Concentric square rings `thick` cells thick, `thick` cells apart."""
    edge = np.minimum(np.arange(side), np.arange(side)[::-1])
    depth = np.minimum.outer(edge, edge)  # cells to the image's edge
    return (depth > 0) & ((depth - 1) // thick % 2 == 0)


@settings(max_examples=300, deadline=None)
@given(mosaics())
@example(hc.BinaryGrid(nested_rings(1)))
@example(hc.BinaryGrid(nested_rings(2)))
@example(hc.BinaryGrid(hole_grid(3)))
@example(hc.BinaryGrid(hole_grid(10)))
@example(hc.BinaryGrid(np.pad(comb(10, 8, thick=1), 1)))  # a 1-cell vertical comb
@example(hc.grid_from_rows(NESTED))  # a component in another's hole
@example(hc.grid_from_rows(["111", "101", "111"]))  # every cell on the box's edge
@example(hc.BinaryGrid(np.zeros((4, 5), dtype=bool)))  # no component, an empty box
def test_hole_regions_match_the_dense_reference(g):
    """Both outputs of the mosaic, each component's hole count and its
    holes' first cells, are the dense reference's, on every row, invalid
    ones included."""
    assert_dense_hole_regions(g)


def test_hole_regions_of_every_4x4_image(every_4x4_image):
    assert assert_dense_hole_regions(every_4x4_image).component_count == 168529


def test_the_mosaic_stays_run_sized():
    """Once the corner table is built, the mosaic allocates less than a
    byte per box cell on a 1024 x 1024 rectangle with holes: it works on
    runs and gaps, not on a canvas or a labelling of boxes."""
    labels = hc.label_components(hc.gen_rect_with_holes(hc.random_rect_spec(1, (1024, 1024), 5)))
    labels.table
    tracemalloc.start()
    try:
        holes, _ = labeling.hole_regions(labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert holes.tolist() == [0, 5]
    assert peak < labels.box.size


@settings(max_examples=300, deadline=None)
@given(arrays(bool, st.tuples(st.integers(1, 12), st.integers(1, 12))))
@example(np.zeros((5, 7), dtype=bool))
def test_box_of_a_mask_is_find_objects_box(mask):
    """A mask's context is cut at the box `ndimage.find_objects` gives, with
    its first cell as origin; an empty mask gets an empty box at (0, 0)."""
    box = (ndimage.find_objects(mask.view(np.uint8)) or [(slice(0, 0),) * 2])[0]
    assert corners.bounding_box(mask) == box
    for g in (None, hc.BinaryGrid(mask)):
        ctx = corners.ComponentContext.of(g, mask)
        assert ctx.origin == (box[0].start, box[1].start)
        assert np.array_equal(ctx.mask[1:-1, 1:-1], mask[box])
