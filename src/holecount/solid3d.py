"""Doubled 3D solids, digital surface classification, and genus.

A 2D component is embedded as two identical stacked layers z = 1, 2. The
solid is the set of unit cubes whose 8 corner points all belong to the
point set; its surface is the set of square faces bounding exactly one
solid cube. Surface points are classified by how many of their lattice
neighbors are reachable along surface edges (edges lying in at least one
surface face): 3 convex, 4 flat, 5 concave, 6 saddle-like.

Cells are keyed by their minimum corner: a face is (corner, normal_axis),
an edge is (corner, direction_axis), with axes 0 = x, 1 = y, 2 = z.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field

from .errors import (
    InvalidSurfaceError,
    MultipleSurfaceComponentsError,
    ThinSolidError,
)
from .grid import BinaryGrid
from .corners import ComponentContext

Point3 = tuple[int, int, int]
Face = tuple[Point3, int]
Edge = tuple[Point3, int]

_CUBE_CORNERS = tuple(
    (dx, dy, dz) for dx in (0, 1) for dy in (0, 1) for dz in (0, 1)
)
_AXIS_UNIT = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


@dataclass(frozen=True)
class VoxelSolid:
    points: frozenset[Point3]


@dataclass(frozen=True)
class SurfaceComplex:
    """Boundary cell complex of a voxel solid."""

    vertices: frozenset[Point3]
    edges: frozenset[Edge]
    faces: frozenset[Face]
    edge_faces: dict[Edge, tuple[Face, ...]] = field(repr=False)


@dataclass(frozen=True)
class SurfaceCensus:
    """Counts of surface points by surface-adjacent neighbor count."""

    m3: int
    m4: int
    m5: int
    m6: int
    other: int = 0

    @property
    def total(self) -> int:
        return self.m3 + self.m4 + self.m5 + self.m6 + self.other


def double_component(g: BinaryGrid, component) -> VoxelSolid:
    """Stack a component at z = 1 and z = 2; points are (col, row, z)."""
    ctx = ComponentContext.of(g, component)
    if not ctx.area:
        raise ValueError("cannot double an empty component")
    return VoxelSolid(
        points=frozenset((c, r, z) for r, c in ctx.positions(ctx.mask) for z in (1, 2))
    )


def _add(p: Point3, q) -> Point3:
    return (p[0] + q[0], p[1] + q[1], p[2] + q[2])


def face_vertices(face: Face) -> tuple[Point3, ...]:
    """The 4 corner points of a face, in cyclic order around the square."""
    corner, axis = face
    u, v = (a for a in range(3) if a != axis)
    eu, ev = _AXIS_UNIT[u], _AXIS_UNIT[v]
    return (corner, _add(corner, eu), _add(_add(corner, eu), ev), _add(corner, ev))


def face_edges(face: Face) -> tuple[Edge, ...]:
    corner, axis = face
    u, v = (a for a in range(3) if a != axis)
    eu, ev = _AXIS_UNIT[u], _AXIS_UNIT[v]
    return (
        (corner, u),
        (corner, v),
        (_add(corner, ev), u),
        (_add(corner, eu), v),
    )


def _cube_faces(c: Point3):
    for axis in range(3):
        yield (c, axis)
        yield (_add(c, _AXIS_UNIT[axis]), axis)


def extract_surface(s: VoxelSolid) -> SurfaceComplex:
    """Faces bounding exactly one solid cube, plus their edges and points."""
    pts = s.points
    cubes = [
        p for p in pts if all(_add(p, off) in pts for off in _CUBE_CORNERS[1:])
    ]
    if not cubes:
        raise ThinSolidError("solid contains no unit cube")
    face_count: Counter = Counter()
    for c in cubes:
        face_count.update(_cube_faces(c))
    surface_faces = [f for f, n in face_count.items() if n == 1]
    edge_faces: dict[Edge, list[Face]] = defaultdict(list)
    vertices = set()
    for f in surface_faces:
        for e in face_edges(f):
            edge_faces[e].append(f)
        vertices.update(face_vertices(f))
    for e, fs in edge_faces.items():
        if len(fs) > 2:
            raise InvalidSurfaceError(
                f"non-manifold edge {e} shared by {len(fs)} surface faces"
            )
    return SurfaceComplex(
        vertices=frozenset(vertices),
        edges=frozenset(edge_faces),
        faces=frozenset(surface_faces),
        edge_faces={e: tuple(fs) for e, fs in edge_faces.items()},
    )


def classify_surface_points(sc: SurfaceComplex, strict: bool = True) -> SurfaceCensus:
    """Tally surface points by number of surface-edge neighbors.

    With strict=True a count outside 3..6 raises InvalidSurfaceError;
    otherwise it lands in `other`.
    """
    counts = Counter()
    for v in sc.vertices:
        k = 0
        for axis in range(3):
            if (v, axis) in sc.edges:
                k += 1
            low = _add(v, tuple(-u for u in _AXIS_UNIT[axis]))
            if (low, axis) in sc.edges:
                k += 1
        if k < 3 or k > 6:
            if strict:
                raise InvalidSurfaceError(
                    f"surface point {v} has {k} surface neighbors"
                )
            counts["other"] += 1
        else:
            counts[k] += 1
    return SurfaceCensus(
        m3=counts[3], m4=counts[4], m5=counts[5], m6=counts[6],
        other=counts["other"],
    )


def check_simply_connected_identity(census: SurfaceCensus) -> bool:
    """m3 == 8 + m5 + 2*m6, which holds exactly for genus-0 surfaces."""
    return census.m3 == 8 + census.m5 + 2 * census.m6


def genus_by_formula(census: SurfaceCensus) -> int:
    """g = 1 + (m5 + 2*m6 - m3) / 8, exact."""
    diff = census.m5 + 2 * census.m6 - census.m3
    if diff % 8 != 0:
        raise InvalidSurfaceError(
            f"m5 + 2*m6 - m3 = {diff} is not divisible by 8"
        )
    return 1 + diff // 8


def _surface_components(sc: SurfaceComplex) -> list[set[Face]]:
    """Connected components of faces under shared-edge adjacency."""
    remaining = set(sc.faces)
    comps = []
    while remaining:
        seed = remaining.pop()
        comp = {seed}
        stack = [seed]
        while stack:
            f = stack.pop()
            for e in face_edges(f):
                for nf in sc.edge_faces[e]:
                    if nf in remaining:
                        remaining.remove(nf)
                        comp.add(nf)
                        stack.append(nf)
        comps.append(comp)
    return comps


def euler_genus_oracle(sc: SurfaceComplex) -> int:
    """Genus from chi = V - E + F; independent of the point-class census."""
    for e, fs in sc.edge_faces.items():
        if len(fs) != 2:
            raise InvalidSurfaceError(
                f"edge {e} lies in {len(fs)} surface faces; surface not closed"
            )
    comps = _surface_components(sc)
    if len(comps) > 1:
        chis = []
        for comp in comps:
            vs = set()
            es = set()
            for f in comp:
                vs.update(face_vertices(f))
                es.update(face_edges(f))
            chis.append(len(vs) - len(es) + len(comp))
        raise MultipleSurfaceComponentsError(chis)
    chi = len(sc.vertices) - len(sc.edges) + len(sc.faces)
    return (2 - chi) // 2


def export_obj(sc: SurfaceComplex) -> str:
    """Plain OBJ text (vertex list + quad faces) for visual inspection."""
    verts = sorted(sc.vertices)
    index = {v: i + 1 for i, v in enumerate(verts)}
    lines = [f"v {x} {y} {z}" for x, y, z in verts]
    for f in sorted(sc.faces):
        lines.append("f " + " ".join(str(index[v]) for v in face_vertices(f)))
    return "\n".join(lines) + "\n"
