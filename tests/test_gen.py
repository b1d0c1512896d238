import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import holecount as hc
from holecount import gen
from holecount.corners import diagonal_pairs, neighbor_counts
from holecount.errors import GenError
from holecount.labeling import holes_in_mask, label_mask


def test_fixture_names():
    fx = gen.paper_fixtures()
    assert set(fx) == {"m5", "m7", "m6_annotations"}
    assert (fx["m5"].height, fx["m5"].width) == (8, 8)
    assert (fx["m7"].height, fx["m7"].width) == (8, 8)
    assert len(fx["m6_annotations"]) == 8
    assert all(len(row) == 8 for row in fx["m6_annotations"])


def test_fixture_annotation_grid_matches_m5(m5, m6_annotations):
    # Nonzero annotation cells are exactly the component cells.
    ann_fg = {
        (r, c)
        for r, row in enumerate(m6_annotations)
        for c, v in enumerate(row)
        if v != 0
    }
    assert ann_fg == m5.foreground_points()


def test_rect_5x5_center_hole():
    spec = hc.ShapeSpec(
        kind=gen.RECT_WITH_HOLES, dims=(5, 5), holes=(((2, 2), (1, 1)),)
    )
    g = hc.gen_rect_with_holes(spec)
    assert not g.is_foreground((2, 2))
    c = hc.classify_corners(g, g.foreground_points()).census
    assert (c.c2, c.c4) == (4, 4)
    assert hc.holes_by_formula(c) == 1 == holes_in_mask(g.cells)


def test_rect_8x8_no_holes():
    g = hc.gen_rect_with_holes(hc.ShapeSpec(kind=gen.RECT_WITH_HOLES, dims=(8, 8)))
    assert g.foreground_count() == 64
    c = hc.classify_corners(g, g.foreground_points()).census
    assert (c.c2, c.c4) == (4, 0)
    assert hc.holes_by_formula(c) == 0


def test_rect_9x9_two_holes():
    spec = hc.ShapeSpec(
        kind=gen.RECT_WITH_HOLES,
        dims=(9, 9),
        holes=(((2, 2), (1, 1)), ((5, 5), (2, 2))),
    )
    g = hc.gen_rect_with_holes(spec)
    c = hc.classify_corners(g, g.foreground_points()).census
    assert (c.c2, c.c4) == (4, 8)
    assert hc.holes_by_formula(c) == 2 == holes_in_mask(g.cells)


@pytest.mark.parametrize(
    "holes",
    [
        (((0, 2), (1, 1)),),  # in the top row
        (((1, 1), (1, 1)),),  # ring touches the perimeter
        (((2, 2), (1, 1)), ((2, 4), (1, 1))),  # 1-wide wall between holes
        (((2, 2), (0, 2)),),  # empty hole
    ],
)
def test_rect_rejects_bad_layouts(holes):
    with pytest.raises(GenError):
        hc.gen_rect_with_holes(
            hc.ShapeSpec(kind=gen.RECT_WITH_HOLES, dims=(9, 9), holes=holes)
        )


def test_rect_rejects_tiny_dims():
    with pytest.raises(GenError):
        hc.gen_rect_with_holes(hc.ShapeSpec(kind=gen.RECT_WITH_HOLES, dims=(1, 5)))


@pytest.mark.parametrize("hole_count", [0, 1, 3, 5])
def test_random_rect_spec_places_requested_holes(hole_count):
    spec = hc.random_rect_spec(7, (20, 20), hole_count)
    g = hc.gen_rect_with_holes(spec)
    assert len(spec.holes) == hole_count
    assert holes_in_mask(g.cells) == hole_count
    rep = hc.analyze_component(g, 1)
    assert rep.validity.valid
    assert rep.holes_formula == hole_count


def test_random_rect_spec_deterministic():
    a = hc.random_rect_spec(42, (25, 25), 4)
    b = hc.random_rect_spec(42, (25, 25), 4)
    assert a == b
    assert np.array_equal(
        hc.gen_rect_with_holes(a).cells, hc.gen_rect_with_holes(b).cells
    )


def test_random_rect_spec_impossible_raises():
    with pytest.raises(GenError):
        hc.random_rect_spec(0, (6, 6), 10)


@pytest.mark.parametrize("seed", range(5))
def test_blob_deterministic(seed):
    spec = hc.ShapeSpec(kind=gen.RANDOM_BLOB, dims=(32, 32), seed=seed)
    a = hc.gen_random_blob(spec)
    b = hc.gen_random_blob(spec)
    assert a == b


def test_blob_seeds_differ():
    a = hc.gen_random_blob(hc.ShapeSpec(kind=gen.RANDOM_BLOB, dims=(32, 32), seed=0))
    b = hc.gen_random_blob(hc.ShapeSpec(kind=gen.RANDOM_BLOB, dims=(32, 32), seed=1))
    assert a != b


@pytest.mark.parametrize("seed", range(8))
def test_blob_is_single_valid_component(seed):
    g = hc.gen_random_blob(
        hc.ShapeSpec(kind=gen.RANDOM_BLOB, dims=(24, 24), seed=seed)
    )
    _, n = label_mask(g.cells)
    assert n == 1
    assert hc.validate_component(g, g.cells).valid


def test_blob_respects_target_area():
    g = hc.gen_random_blob(
        hc.ShapeSpec(kind=gen.RANDOM_BLOB, dims=(40, 40), seed=3, target_area=600)
    )
    # Coarse growth plus repair can only add cells beyond the target.
    assert g.foreground_count() >= 500


def test_blob_rejects_tiny_dims():
    with pytest.raises(GenError):
        hc.gen_random_blob(hc.ShapeSpec(kind=gen.RANDOM_BLOB, dims=(3, 8), seed=0))


def test_fill_pathological_repairs_checkerboard():
    mask = np.zeros((6, 6), dtype=bool)
    mask[2, 2] = mask[3, 3] = True
    fixed = gen._fill_pathological(mask)
    g = hc.BinaryGrid(fixed)
    assert hc.find_pathological(g, fixed).clean
    assert fixed[2, 2] and fixed[3, 3]  # repair only adds cells


@settings(max_examples=300, deadline=None)
@given(arrays(bool, st.tuples(st.integers(1, 12), st.integers(1, 12))))
@example(np.array([[1, 0, 1], [1, 0, 0], [0, 1, 1]], dtype=bool))  # takes two passes
def test_repaired_blob_upscales_to_a_well_composed_mask(mask):
    """No diagonal pair survives the repair, and its 2x upscale, on an odd
    canvas as `gen_random_blob` places it, has none and no thin point."""
    fixed = gen._fill_pathological(mask)
    assert not diagonal_pairs(fixed).any()
    h, w = fixed.shape
    canvas = np.zeros((2 * h + 1, 2 * w + 1), dtype=bool)
    canvas[: 2 * h, : 2 * w] = fixed.repeat(2, axis=0).repeat(2, axis=1)
    assert not diagonal_pairs(canvas).any()
    assert (neighbor_counts(canvas)[0][canvas] >= 2).all()


def _fresh(*entropy):
    return np.random.PCG64(np.random.SeedSequence(list(entropy)))


@pytest.mark.parametrize("seed", range(12))
def test_integers_equals_generator_integers(seed):
    pick = np.random.default_rng(seed + 1000)
    bounds = [1, 2, 3, 2**31 + 1, 2**32] * 40 + pick.integers(1, 10**6, 2500).tolist()
    pick.shuffle(bounds)
    rng = np.random.Generator(_fresh(seed, 3))
    draw = gen._integers(_fresh(seed, 3))
    # 2**31 + 1 rejects about half of all words; the 2,700 draws cross blocks of raw words.
    assert [draw(n) for n in bounds] == [int(rng.integers(n)) for n in bounds]


# The set-of-tuples accretion that drew through `rng.integers`, kept
# verbatim as the reference for the byte grid and the computed draws.
def _reference_grow_blob(rng, shape, target) -> np.ndarray:
    """Randomized accretion of a 4-connected blob from the center."""
    h, w = shape
    mask = np.zeros(shape, dtype=bool)
    start = (h // 2, w // 2)
    mask[start] = True
    frontier = []
    in_frontier = set()

    def push_neighbors(r, c):
        for nr, nc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            if 0 <= nr < h and 0 <= nc < w and not mask[nr, nc]:
                if (nr, nc) not in in_frontier:
                    in_frontier.add((nr, nc))
                    frontier.append((nr, nc))

    push_neighbors(*start)
    area = 1
    while area < target and frontier:
        i = int(rng.integers(len(frontier)))
        r, c = frontier[i]
        frontier[i] = frontier[-1]
        frontier.pop()
        in_frontier.discard((r, c))
        if mask[r, c]:
            continue
        mask[r, c] = True
        area += 1
        push_neighbors(r, c)
    return mask


@pytest.mark.parametrize("shape", [(2, 2), (1, 7), (3, 5), (16, 9), (31, 31), (64, 40)])
@pytest.mark.parametrize("target", [1, 2, 17, 300, 10**6])
def test_grow_blob_matches_reference(shape, target):
    for seed in range(6):
        got = gen._grow_blob(np.random.Generator(_fresh(seed, 0)), shape, target)
        want = _reference_grow_blob(np.random.Generator(_fresh(seed, 0)), shape, target)
        assert got.dtype == bool and np.array_equal(got, want)


@pytest.mark.parametrize(
    "dims, target_area, shift",
    [
        (dims, area, shift)
        for dims in [(4, 4), (5, 7), (9, 4), (17, 33), (64, 64), (130, 97)]
        for area in [None, 1, 6, 50, 10**7]
        for shift in [0, 3]
    ]
    + [((5, 7), None, 64), ((12, 9), 30, 64)],
)
def test_gen_random_blob_matches_reference(monkeypatch, dims, target_area, shift):
    # `shift` moves the seeds, so each layout is checked on more of them.
    specs = [
        hc.ShapeSpec(kind=gen.RANDOM_BLOB, dims=dims, seed=seed + shift, target_area=target_area)
        for seed in (0, 1, 2, 7, 12345)
    ]
    got = [hc.gen_random_blob(spec).cells for spec in specs]
    monkeypatch.setattr(gen, "_grow_blob", _reference_grow_blob)
    want = [hc.gen_random_blob(spec).cells for spec in specs]
    for a, b in zip(got, want, strict=True):
        assert np.array_equal(a, b)


@pytest.mark.parametrize(
    "seed, digest",
    [
        (1, "849b257dcb2bdec0a18fd5dbd4cae08863a547084b90d733be66c10f220124e8"),
        (7, "0d535477b66af9a8a5cad2f18eb882d2871417403ad1c05d6e37a1ed1ea45cfb"),
    ],
)
def test_gen_512_blob_stdout_is_pinned(capsys, seed, digest):
    from holecount import cli

    code = cli.main(["gen", "--kind", "random_blob", "--dims", "512x512", "--seed", str(seed)])
    assert code == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("shape", [(10**11, 10**11), (10**20, 4), (4, 10**20)])
def test_oversize_grids_raise_gen_error(shape):
    # numpy refuses these sizes before it allocates anything.
    with pytest.raises(GenError):
        gen._new_grid(shape, False)
    with pytest.raises(GenError):
        gen._grow_blob(np.random.Generator(_fresh(0, 0)), shape, 5)
    with pytest.raises(GenError):
        hc.random_rect_spec(0, shape, 2)
