"""The lattice-based surface path of `solid3d` against a set-based reference.

The reference below is the package's earlier `solid3d`, kept here as the
test oracle: every cell is a Python tuple, surface faces are found by
counting the 6 faces of each cube, edges and their faces are collected in
dicts, and surface components are found by a search over shared edges.
"""

import json
from collections import Counter, defaultdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import holecount as hc
from holecount import cli, labeling, solid3d
from holecount.errors import (
    HolecountError,
    InvalidSurfaceError,
    MultipleSurfaceComponentsError,
    ThinSolidError,
)
from holecount.solid3d import SurfaceCensus, VoxelSolid

CUBE_CORNERS = tuple((dx, dy, dz) for dx in (0, 1) for dy in (0, 1) for dz in (0, 1))
AXIS_UNIT = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def add(p, q):
    return (p[0] + q[0], p[1] + q[1], p[2] + q[2])


def ref_face_vertices(face):
    corner, axis = face
    u, v = (a for a in range(3) if a != axis)
    eu, ev = AXIS_UNIT[u], AXIS_UNIT[v]
    return (corner, add(corner, eu), add(add(corner, eu), ev), add(corner, ev))


def ref_face_edges(face):
    corner, axis = face
    u, v = (a for a in range(3) if a != axis)
    eu, ev = AXIS_UNIT[u], AXIS_UNIT[v]
    return ((corner, u), (corner, v), (add(corner, ev), u), (add(corner, eu), v))


def ref_extract_surface(pts):
    """(vertices, edges, faces, edge_faces) of the surface of a point set."""
    cubes = [p for p in pts if all(add(p, off) in pts for off in CUBE_CORNERS[1:])]
    if not cubes:
        raise ThinSolidError("solid contains no unit cube")
    face_count = Counter()
    for c in cubes:
        for axis in range(3):
            face_count[(c, axis)] += 1
            face_count[(add(c, AXIS_UNIT[axis]), axis)] += 1
    faces = [f for f, n in face_count.items() if n == 1]
    edge_faces = defaultdict(list)
    vertices = set()
    for f in faces:
        for e in ref_face_edges(f):
            edge_faces[e].append(f)
        vertices.update(ref_face_vertices(f))
    for e, fs in edge_faces.items():
        if len(fs) > 2:
            raise InvalidSurfaceError(f"non-manifold edge {e} shared by {len(fs)} surface faces")
    return frozenset(vertices), frozenset(edge_faces), frozenset(faces), dict(edge_faces)


def ref_classify(surface, strict=True):
    vertices, edges, _, _ = surface
    counts = Counter()
    for v in vertices:
        k = 0
        for axis in range(3):
            k += (v, axis) in edges
            k += (add(v, tuple(-u for u in AXIS_UNIT[axis])), axis) in edges
        if not 3 <= k <= 6:
            if strict:
                raise InvalidSurfaceError(f"surface point {v} has {k} surface neighbors")
            counts["other"] += 1
        else:
            counts[k] += 1
    return SurfaceCensus(m3=counts[3], m4=counts[4], m5=counts[5], m6=counts[6], other=counts["other"])


def ref_euler_genus(surface):
    vertices, edges, faces, edge_faces = surface
    for e, fs in edge_faces.items():
        if len(fs) != 2:
            raise InvalidSurfaceError(f"edge {e} lies in {len(fs)} surface faces; surface not closed")
    remaining, chis = set(faces), []
    while remaining:
        stack = [remaining.pop()]
        comp = set(stack)
        while stack:
            for e in ref_face_edges(stack.pop()):
                for nf in edge_faces[e]:
                    if nf in remaining:
                        remaining.remove(nf)
                        comp.add(nf)
                        stack.append(nf)
        vs = {v for f in comp for v in ref_face_vertices(f)}
        es = {e for f in comp for e in ref_face_edges(f)}
        chis.append(len(vs) - len(es) + len(comp))
    if len(chis) > 1:
        raise MultipleSurfaceComponentsError(chis)
    return (2 - (len(vertices) - len(edges) + len(faces))) // 2


def outcome(fn):
    """The result of fn(), or the error it raised: its type, plus the
    components' Euler characteristics (in any order) when there are several."""
    try:
        return fn()
    except MultipleSurfaceComponentsError as exc:
        return MultipleSurfaceComponentsError, sorted(exc.euler_characteristics)
    except HolecountError as exc:
        return type(exc)


def reference(points):
    try:
        surface = ref_extract_surface(points)
    except HolecountError as exc:
        return [type(exc)]
    vertices, edges, faces, edge_faces = surface
    return [
        vertices,
        edges,
        faces,
        {e: frozenset(fs) for e, fs in edge_faces.items()},
        ref_classify(surface, strict=False),
        outcome(lambda: hc.genus_by_formula(ref_classify(surface))),
        outcome(lambda: ref_euler_genus(surface)),
    ]


def lattice_path(solid):
    try:
        sc = hc.extract_surface(solid)
    except HolecountError as exc:
        return [type(exc)]
    return [
        sc.vertices,
        sc.edges,
        sc.faces,
        {e: frozenset(fs) for e, fs in sc.edge_faces.items()},
        hc.classify_surface_points(sc, strict=False),
        outcome(lambda: hc.genus_by_formula(hc.classify_surface_points(sc))),
        outcome(lambda: hc.euler_genus_oracle(sc)),
    ]


def box(x, y, z, size=(2, 2, 2)):
    """The lattice points of a box of unit cubes with minimum corner (x, y, z)."""
    return {
        (x + i, y + j, z + k)
        for i in range(size[0] + 1)
        for j in range(size[1] + 1)
        for k in range(size[2] + 1)
    }


@st.composite
def point_solids(draw):
    """Random occupancy of a box of 2x2x2 to 6x6x5 points at a possibly negative origin,
    joined with the corners of randomly chosen unit cubes, so that both
    thin and solid, manifold and non-manifold, one- and many-component
    solids come up."""
    shape = draw(st.tuples(st.integers(2, 6), st.integers(2, 6), st.integers(2, 5)))
    # Each array sets its cells with one chance of 1/2, 1/4 or 1/10.
    bits = st.sampled_from([1, 3, 9]).map(lambda k: st.sampled_from([True] + [False] * k))
    occupied = draw(arrays(bool, shape, elements=draw(bits), fill=st.nothing()))
    cubes = draw(arrays(bool, tuple(n - 1 for n in shape), elements=draw(bits), fill=st.nothing()))
    n = cubes.shape
    for dx, dy, dz in CUBE_CORNERS:
        occupied[dx : dx + n[0], dy : dy + n[1], dz : dz + n[2]] |= cubes
    origin = draw(st.tuples(*[st.integers(-4, 4)] * 3))
    return frozenset(map(tuple, (np.argwhere(occupied) + origin).tolist()))


@settings(max_examples=400, deadline=None)
@given(point_solids())
@example(frozenset())
@example(frozenset(box(0, 0, 0, (1, 1, 1)) | box(5, 0, 0, (1, 1, 1))))  # two cubes
@example(frozenset(box(0, 0, 0, (1, 1, 1)) | box(1, 1, 0, (1, 1, 1))))  # sharing an edge
@example(frozenset(box(0, 0, 0, (1, 1, 1)) | box(1, 1, 1, (1, 1, 1))))  # sharing a vertex
@example(frozenset(box(0, 0, 0, (3, 3, 1)) - {(1, 1, z) for z in range(2)} - {(2, 2, z) for z in range(2)}))
@example(frozenset(box(-2, -1, -3, (4, 4, 4)) - {(0, 1, -1)}))  # a cube with a cavity
@example(frozenset(box(0, 0, 0, (3, 3, 3)) - box(1, 1, 0, (1, 1, 3))))  # a torus
def test_lattice_path_matches_reference_on_point_solids(points):
    solid = VoxelSolid(points=points)
    assert solid.points == points
    assert lattice_path(solid) == reference(points)


@st.composite
def grids(draw):
    """Unconstrained 2D noise up to 10x10, sometimes in a 2-thick frame."""
    cells = draw(arrays(bool, st.tuples(st.integers(1, 10), st.integers(1, 10))))
    if draw(st.booleans()):
        cells = np.pad(np.pad(cells, 1), 2, constant_values=True)
    return hc.BinaryGrid(cells)


@settings(max_examples=200, deadline=None)
@given(grids())
@example(hc.grid_from_rows(["11111", "11111", "11011", "11111", "11111"]))
@example(hc.grid_from_rows(["1100", "1100", "0011", "0011"]))
def test_lattice_path_matches_reference_on_doubled_components(g):
    labels = hc.label_components(g)
    for cid in range(1, labels.component_count + 1):
        points = frozenset((c, r, z) for r, c in labels.points_of(cid) for z in (1, 2))
        solid = hc.double_component(g, labels.mask_of(cid))
        assert solid.points == points
        assert lattice_path(solid) == reference(points)


def test_face_helpers_match_reference():
    for corner in ((0, 0, 0), (-3, 4, 1)):
        for axis in range(3):
            face = (corner, axis)
            assert solid3d.face_vertices(face) == ref_face_vertices(face)
            assert solid3d.face_edges(face) == ref_face_edges(face)


def test_errors_name_the_cell():
    edge_pair = frozenset(box(0, 0, 0, (1, 1, 1)) | box(1, 1, 0, (1, 1, 1)))
    with pytest.raises(InvalidSurfaceError, match=r"non-manifold edge \(\(1, 1, 0\), 2\) shared by 4"):
        hc.extract_surface(VoxelSolid(points=edge_pair))
    vertex_pair = frozenset(box(0, 0, 0, (1, 1, 1)) | box(1, 1, 1, (1, 1, 1)))
    sc = hc.extract_surface(VoxelSolid(points=vertex_pair))
    assert hc.classify_surface_points(sc, strict=False).other == 0
    with pytest.raises(MultipleSurfaceComponentsError) as exc_info:
        hc.euler_genus_oracle(sc)
    assert exc_info.value.euler_characteristics == (2, 2)


def frame(thin, u, v, w):
    """The point with coordinate w on the `thin` axis and u, v on the other
    two axes, in increasing order."""
    p = [0, 0, 0]
    a, b = (k for k in range(3) if k != thin)
    p[a], p[b], p[thin] = u, v, w
    return tuple(p)


def slab(thin, squares):
    """The points of a one-cube-thick solid flat along the `thin` axis, made
    of the unit cubes with minimum corner (u, v, 0) for (u, v) in `squares`."""
    return frozenset(
        frame(thin, u + du, v + dv, dw) for u, v in squares for du in (0, 1) for dv in (0, 1) for dw in (0, 1)
    )


def square(u, v, k):
    return {(u + i, v + j) for i in range(k) for j in range(k)}


def without_faces(sc, thin, faces):
    """The surface with some faces taken out; a face is (u, v, w, normal),
    the normal one of "u", "v", "w"."""
    cells = [f.copy() for f in sc.face_cells]
    axes = dict(zip("uvw", [k for k in range(3) if k != thin] + [thin]))
    for u, v, w, normal in faces:
        cells[axes[normal]][tuple(np.subtract(frame(thin, u, v, w), sc.origin)[::-1])] = False
    return solid3d.SurfaceComplex(cells, sc.origin)


# Every error names the cell that comes first in the (x, y, z) order of the
# doubled lattice, and lists the components' chi in the order of their first
# cells. The texts are the ones the package gave when it worked on one
# (x, y, z)-ordered lattice. In every case the first cell in (z, y, x) order
# is another one: the two bad cells (or components) lie at (u1, v1) and
# (u2, v2) with u1 < u2, v1 > v2 and the same w.
ERROR_TEXTS = {
    "non-manifold edge": [
        "non-manifold edge ((0, 1, 5), 0) shared by 4 surface faces",
        "non-manifold edge ((1, 0, 5), 1) shared by 4 surface faces",
        "non-manifold edge ((1, 5, 0), 2) shared by 4 surface faces",
    ],
    "several components": ["surface has 2 components, chi = [0, 2]"] * 3,
    "open edge": [
        "edge ((1, 1, 1), 2) lies in 1 surface faces; surface not closed",
        "edge ((1, 1, 1), 2) lies in 1 surface faces; surface not closed",
        "edge ((1, 1, 1), 1) lies in 1 surface faces; surface not closed",
    ],
    "vertex class": [
        "surface point (1, 0, 3) has 2 surface neighbors",
        "surface point (0, 1, 3) has 2 surface neighbors",
        "surface point (0, 3, 1) has 2 surface neighbors",
    ],
}


def raise_error(kind, thin):
    if kind == "non-manifold edge":  # cube pairs sharing the edges at (1, 5) and (4, 1)
        hc.extract_surface(VoxelSolid(points=slab(thin, {(0, 4), (1, 5), (3, 0), (4, 1)})))
    elif kind == "several components":  # a ring at (0, 10), a cube at (10, 0)
        solid = VoxelSolid(points=slab(thin, (square(0, 10, 4) - square(1, 11, 2)) | {(10, 0)}))
        hc.euler_genus_oracle(hc.extract_surface(solid))
    else:
        sc = hc.extract_surface(VoxelSolid(points=slab(thin, square(0, 0, 3))))
        if kind == "open edge":  # a top face's four edges lose a face each
            hc.euler_genus_oracle(without_faces(sc, thin, [(1, 1, 1, "w")]))
        else:  # the top corners (0, 3) and (3, 0) lose an edge each
            damaged = [(0, 2, 1, "w"), (0, 3, 0, "v"), (2, 0, 1, "w"), (3, 0, 0, "u")]
            hc.classify_surface_points(without_faces(sc, thin, damaged))


@pytest.mark.parametrize("thin", [0, 1, 2], ids=["flat-in-x", "flat-in-y", "flat-in-z"])
@pytest.mark.parametrize("kind", list(ERROR_TEXTS))
def test_error_texts_name_the_first_cell_in_xyz_lattice_order(kind, thin):
    with pytest.raises(InvalidSurfaceError) as exc_info:
        raise_error(kind, thin)
    assert str(exc_info.value) == ERROR_TEXTS[kind][thin]


def test_genus3d_builds_no_point_sets(tmp_path, capsys, monkeypatch):
    """`genus3d` on an image of valid components doubles nothing (every row
    comes from the 3 x 3 table, built once per process), labels nothing but
    the foreground's box (no 3D lattice, no map of cubes), extracts no
    surface of a component of its own and decodes no tuple set of a solid or
    a surface."""
    cells = np.zeros((26, 38), dtype=bool)
    for i in range(2):
        for j in range(3):
            spec = hc.random_rect_spec(3 * i + j, (10, 10), (i + j) % 3)
            cells[1 + 12 * i : 11 + 12 * i, 1 + 12 * j : 11 + 12 * j] = hc.gen_rect_with_holes(spec).cells
    path = tmp_path / "tile.txt"
    path.write_text(hc.to_ascii01(hc.BinaryGrid(cells)))

    solid3d._pixel_table()  # built on first use, by one doubled strip of the 512 codes
    calls = {name: [] for name in ("extract_surface", "euler_genus_oracle", "_cubes_and_faces")}
    for name, seen in calls.items():
        original = getattr(solid3d, name)
        monkeypatch.setattr(solid3d, name, lambda *a, f=original, seen=seen: seen.append(a) or f(*a))
    labeled, label = [], labeling.label_runs
    for module in (labeling, solid3d):  # `solid3d` holds its own binding
        monkeypatch.setattr(module, "label_runs", lambda a: labeled.append(a.shape) or label(a))
    decoded = []
    monkeypatch.setattr(solid3d.SurfaceComplex, "_cells", lambda self, dim: decoded.append(dim) or {})
    monkeypatch.setattr(solid3d.VoxelSolid, "points", property(lambda self: decoded.append("points")))

    assert cli.main(["genus3d", str(path)]) == cli.EXIT_OK
    entries = json.loads(capsys.readouterr().out)
    assert [e["genus_formula"] for e in entries] == [(i + j) % 3 for i in range(2) for j in range(3)]
    assert calls["extract_surface"] == calls["euler_genus_oracle"] == calls["_cubes_and_faces"] == []
    # Rows 1..22 and columns 1..34 hold the foreground.
    assert labeled == [(22, 34)]  # the foreground's box only: the cubes are joined as runs
    assert decoded == []


def test_genus3d_stops_before_an_image_wide_surface(tmp_path, capsys, monkeypatch):
    """With component 2 invalid, no surface is built, neither an image-wide
    one nor one of the valid component 1: the reasons of component 2 are
    printed."""
    path = tmp_path / "two.txt"
    path.write_text("\n".join(["0000000", "0111000", "0111010", "0111000", "0000000"]) + "\n")
    built, extracted = [], []
    monkeypatch.setattr(solid3d.SurfaceTable, "__init__", lambda self, *a: built.append(a))
    original = solid3d.extract_surface
    monkeypatch.setattr(solid3d, "extract_surface", lambda s: extracted.append(s) or original(s))
    assert cli.main(["genus3d", str(path)]) == cli.EXIT_INPUT
    out, err = capsys.readouterr()
    assert (out, err) == ("", "component 2 invalid: isolated_or_thin_point at (2, 5)\n")
    assert built == [] and len(extracted) == 0
