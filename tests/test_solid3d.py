import numpy as np
import pytest

import holecount as hc
from holecount.errors import (
    EmptyComponentError,
    InvalidSurfaceError,
    MultipleSurfaceComponentsError,
    ThinSolidError,
)
from holecount.solid3d import VoxelSolid, face_edges, face_vertices


def doubled_surface(g):
    comp = g.foreground_points()
    return hc.extract_surface(hc.double_component(g, comp))


def test_single_cube_counts():
    g = hc.grid_from_rows(["11", "11"])
    sc = doubled_surface(g)
    assert (len(sc.vertices), len(sc.edges), len(sc.faces)) == (8, 12, 6)
    census = hc.classify_surface_points(sc)
    assert (census.m3, census.m4, census.m5, census.m6) == (8, 0, 0, 0)
    assert hc.genus_by_formula(census) == 0
    assert hc.euler_genus_oracle(sc) == 0
    assert hc.check_simply_connected_identity(census)


def test_doubled_2x3_rectangle_counts():
    g = hc.grid_from_rows(["111", "111"])
    sc = doubled_surface(g)
    assert (len(sc.vertices), len(sc.edges), len(sc.faces)) == (12, 20, 10)
    assert hc.euler_genus_oracle(sc) == 0


def test_single_point_has_no_cube():
    g = hc.grid_from_rows(["1"])
    with pytest.raises(ThinSolidError):
        doubled_surface(g)


@pytest.mark.parametrize("component", [frozenset(), np.zeros((2, 3), dtype=bool)], ids=["set", "mask"])
def test_double_empty_component_raises(component):
    g = hc.grid_from_rows(["011", "011"])
    with pytest.raises(EmptyComponentError, match="cannot double an empty component"):
        hc.double_component(g, component)


def test_width1_line_has_no_cube():
    g = hc.grid_from_rows(["1111"])
    with pytest.raises(ThinSolidError):
        doubled_surface(g)


def test_doubled_square_with_cavity_is_torus():
    g = hc.grid_from_rows(["11111", "11111", "11011", "11111", "11111"])
    sc = doubled_surface(g)
    chi = len(sc.vertices) - len(sc.edges) + len(sc.faces)
    assert chi == 0
    assert hc.euler_genus_oracle(sc) == 1
    census = hc.classify_surface_points(sc)
    assert hc.genus_by_formula(census) == 1
    assert not hc.check_simply_connected_identity(census)


def test_doubled_matrix5_census(m5):
    sc = doubled_surface(m5)
    census = hc.classify_surface_points(sc)
    flat = hc.classify_corners(m5, m5.foreground_points()).census
    assert census.m3 == 2 * flat.c2 == 16
    assert census.m5 == 2 * flat.c4 == 8
    assert census.m6 == 0
    assert hc.genus_by_formula(census) == 0 == hc.euler_genus_oracle(sc)
    assert hc.check_simply_connected_identity(census)


def test_doubled_matrix7_census(m7):
    sc = doubled_surface(m7)
    census = hc.classify_surface_points(sc)
    flat = hc.classify_corners(m7, m7.foreground_points()).census
    assert census.m3 == 2 * flat.c2 == 12
    assert census.m5 == 2 * flat.c4 == 12
    assert census.m6 == 0
    assert hc.genus_by_formula(census) == 1 == hc.euler_genus_oracle(sc)
    assert not hc.check_simply_connected_identity(census)


def test_genus_formula_rejects_non_divisible():
    from holecount.solid3d import SurfaceCensus

    with pytest.raises(InvalidSurfaceError):
        hc.genus_by_formula(SurfaceCensus(m3=9, m4=0, m5=0, m6=0))


def test_two_disjoint_cubes_raise_with_characteristics():
    pts = set()
    for dx, dy, dz in (
        (x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)
    ):
        pts.add((dx, dy, dz))
        pts.add((dx + 5, dy, dz))
    sc = hc.extract_surface(VoxelSolid(points=frozenset(pts)))
    with pytest.raises(MultipleSurfaceComponentsError) as exc_info:
        hc.euler_genus_oracle(sc)
    assert sorted(exc_info.value.euler_characteristics) == [2, 2]


def test_edge_sharing_cubes_are_non_manifold():
    pts = set()
    for x in (0, 1):
        for y in (0, 1):
            for z in (0, 1):
                pts.add((x, y, z))
                pts.add((x + 1, y + 1, z))
    with pytest.raises(InvalidSurfaceError):
        hc.extract_surface(VoxelSolid(points=frozenset(pts)))


def test_closed_surface_edge_property(m7):
    sc = doubled_surface(m7)
    for e in sc.edges:
        assert len(sc.edge_faces[e]) == 2


def test_face_vertices_and_edges_consistency():
    face = ((3, 4, 5), 1)
    vs = face_vertices(face)
    assert len(set(vs)) == 4
    es = face_edges(face)
    assert len(set(es)) == 4
    # Every edge endpoint is a face vertex.
    for (corner, axis) in es:
        unit = [0, 0, 0]
        unit[axis] = 1
        other = tuple(c + u for c, u in zip(corner, unit))
        assert corner in vs and other in vs


def _transform(pts, perm, flips):
    out = set()
    for p in pts:
        q = [p[perm[0]], p[perm[1]], p[perm[2]]]
        for a in range(3):
            if flips[a]:
                q[a] = -q[a]
        out.add(tuple(q))
    return frozenset(out)


@pytest.mark.parametrize(
    "perm,flips",
    [
        ((0, 1, 2), (False, False, False)),
        ((1, 0, 2), (True, False, False)),
        ((2, 1, 0), (False, True, True)),
        ((0, 2, 1), (True, True, False)),
    ],
)
def test_census_invariant_under_lattice_symmetries(m7, perm, flips):
    base_solid = hc.double_component(m7, m7.foreground_points())
    base = hc.classify_surface_points(hc.extract_surface(base_solid))
    moved = VoxelSolid(points=_transform(base_solid.points, perm, flips))
    census = hc.classify_surface_points(hc.extract_surface(moved))
    assert census == base


@pytest.mark.parametrize("seed", range(6))
def test_genus_equals_holes_on_blobs(seed):
    g = hc.gen_random_blob(
        hc.ShapeSpec(kind="random_blob", dims=(24, 24), seed=seed)
    )
    comp = g.foreground_points()
    flat = hc.classify_corners(g, comp).census
    holes = hc.holes_by_formula(flat)
    sc = doubled_surface(g)
    census = hc.classify_surface_points(sc)
    assert census.m6 == 0
    assert census.m3 == 2 * flat.c2
    assert census.m5 == 2 * flat.c4
    assert hc.genus_by_formula(census) == holes == hc.euler_genus_oracle(sc)
    assert hc.check_simply_connected_identity(census) == (holes == 0)


def test_export_obj_round_numbers():
    g = hc.grid_from_rows(["11", "11"])
    sc = doubled_surface(g)
    text = hc.export_obj(sc)
    lines = text.strip().splitlines()
    assert sum(ln.startswith("v ") for ln in lines) == 8
    assert sum(ln.startswith("f ") for ln in lines) == 6
    for ln in lines:
        if ln.startswith("f "):
            assert len(ln.split()) == 5
