"""Doubled 3D solids, digital surface classification, and genus.

A 2D component is embedded as two identical stacked layers z = 1, 2. The
solid is the set of unit cubes whose 8 corner points all belong to the
point set; its surface is the set of square faces bounding exactly one
solid cube. Surface points are classified by how many of their lattice
neighbors are reachable along surface edges (edges lying in at least one
surface face): 3 convex, 4 flat, 5 concave, 6 saddle-like.

Cells are keyed by their minimum corner: a face is (corner, normal_axis),
an edge is (corner, direction_axis), with axes 0 = x, 1 = y, 2 = z. Every
array is indexed z-major, `[z, y, x]`, so the doubled axis, only 2 or 3
cells long, is the outermost one and the inner loops run along x.

In the doubled cell lattice, position 2p + d (d in {0, 1}^3) holds the
cell with minimum corner p that spans the axes where d is 1. The work is
done on its parity sub-lattices, one array per kind of cell: the cubes,
the faces of each normal, the edges of each direction and the vertices,
each indexed by minimum corner. A face is on the surface when exactly one
of the two cubes along its normal is solid (an XOR); an edge's face count
is the sum of its 4 neighboring face slices and a vertex's class the sum
of its 6 neighboring edge slices. On one solid's surface, the full
lattice is assembled only as the input of the one labeling of surface
components; `SurfaceTable` credits every component of a label image from
a table of each pixel's credit by its 3 x 3 code, built by this array code
on first use and read at `corners.ComponentTable.code`, where it also
reads the runs of cubes that it joins into pieces. Tuple sets of public
attributes are decoded only when read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import EmptyComponentError, InvalidSurfaceError, MultipleSurfaceComponentsError, ThinSolidError
from .grid import BinaryGrid
from .corners import TILES, ComponentContext
from .labeling import LabelMap, interval_roots, label_runs

Point3 = tuple[int, int, int]
Face = tuple[Point3, int]
Edge = tuple[Point3, int]

# Index of the cells 0..k-2, and 1..k-1, along one point axis of a z-major array.
_LOW = tuple(tuple(slice(None, -1) if i == 2 - a else slice(None) for i in range(3)) for a in range(3))
_HIGH = tuple(tuple(slice(1, None) if i == 2 - a else slice(None) for i in range(3)) for a in range(3))
# Doubled-lattice parity of the edges of each direction and the faces of each normal.
_EDGE_PARITY = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
_FACE_PARITY = ((0, 1, 1), (1, 0, 1), (1, 1, 0))
# Per 3 x 3 code, a cube (2 x 2 cells) at the centre's top left or at its W's, not both. Along a row, a
# run of cubes starts at such a cell and ends at the next, one cell past its last cube: both have a
# background 8-neighbour (W or SW, E or SE), so both are boundary cells, and starts and ends alternate.
_CUBE_RUN_ENDS = TILES[:, 1:, 1:].all(axis=(1, 2)) != TILES[:, 1:, :2].all(axis=(1, 2))


def _spread(a: np.ndarray, axis: int, out: np.ndarray, op=np.add) -> None:
    """Fold each cell of `a` into the two cells of `out` on either side of
    it along a point axis; `out` is one cell longer than `a` there."""
    low, high = out[_LOW[axis]], out[_HIGH[axis]]
    op(low, a, out=low)
    op(high, a, out=high)


def _points(mask: np.ndarray, origin) -> list[Point3]:
    """The points `origin + (x, y, z)` of the True cells of a z-major mask."""
    return list(map(tuple, (np.argwhere(mask)[:, ::-1] + origin).tolist()))


def _sublattice(parity) -> tuple:
    """Index of the cells of one (x, y, z) parity in the z-major doubled lattice."""
    return tuple(slice(d, None, 2) for d in reversed(parity))


def _cubes_and_faces(occupied: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """The unit cubes whose 8 corners are all occupied, and per normal the
    faces that bound exactly one of them; all z-major, by minimum corner."""
    cubes = occupied
    for axis in range(3):
        cubes = cubes[_LOW[axis]] & cubes[_HIGH[axis]]
    faces = []
    for a in range(3):  # a face is between the two cubes along its normal
        faces.append(np.zeros([k + (i == 2 - a) for i, k in enumerate(cubes.shape)], dtype=bool))
        _spread(cubes, a, faces[a], np.bitwise_xor)
    return cubes, faces


def _edges_and_points(face_cells) -> tuple[list, list, np.ndarray]:
    """Per edge direction, each edge's number of surface faces and whether
    it has one; and each point's number of surface edges."""
    shape = np.add(face_cells[2].shape, (0, 1, 1))  # of the vertices; z is the normal
    edge_degree = []
    for a in range(3):
        degree = np.zeros([k - (i == 2 - a) for i, k in enumerate(shape)], dtype=np.int8)
        for b in {0, 1, 2} - {a}:
            _spread(face_cells[b].view(np.int8), 3 - a - b, degree)
        edge_degree.append(degree)
    edge_cells = [d > 0 for d in edge_degree]
    vertex_class = np.zeros(shape, dtype=np.int8)
    for a, e in enumerate(edge_cells):
        _spread(e.view(np.int8), a, vertex_class)
    return edge_degree, edge_cells, vertex_class


class VoxelSolid:
    """Lattice points of a solid: `occupied[z, y, x]` is the point `origin + (x, y, z)`."""

    def __init__(self, points: frozenset[Point3]):
        xyz = np.array(list(points), dtype=np.int64).reshape(-1, 3)
        self.origin = xyz.min(axis=0) if len(xyz) else np.zeros(3, dtype=np.int64)
        self.occupied = np.zeros((np.ptp(xyz, axis=0) + 1)[::-1] if len(xyz) else (0, 0, 0), dtype=bool)
        self.occupied[tuple((xyz - self.origin).T[::-1])] = True
        self.points = points

    @cached_property
    def points(self) -> frozenset[Point3]:
        return frozenset(_points(self.occupied, self.origin))


class SurfaceComplex:
    """Boundary cell complex of a voxel solid, on the parity sub-lattices.

    `face_cells[a]` marks the surface faces of normal a. From it come
    `edge_degree[a]`, the number of surface faces at each edge of direction
    a, `edge_cells[a]`, the edges with at least one, and `vertex_class`,
    the number of surface edges at each vertex. All are z-major and indexed
    by minimum corner, which is `origin + (x, y, z)`.
    """

    def __init__(self, face_cells, origin):
        self.face_cells, self.origin = tuple(face_cells), origin
        self.edge_degree, self.edge_cells, self.vertex_class = _edges_and_points(self.face_cells)

    def _families(self, dim: int) -> list[tuple]:
        """(axis, parity, mask, value) of each array of cells of one
        dimension: an edge's direction or a face's normal (None for the
        vertices), its doubled-lattice parity, its surface cells and the
        value an error names."""
        if dim == 0:
            return [(None, (0, 0, 0), self.vertex_class > 0, self.vertex_class)]
        if dim == 1:
            return list(zip(range(3), _EDGE_PARITY, self.edge_cells, self.edge_degree))
        return list(zip(range(3), _FACE_PARITY, self.face_cells, self.face_cells))

    def _cells(self, dim: int) -> list:
        """The surface cells of one dimension: points, or (corner, axis)."""
        if dim == 0:
            return _points(self.vertex_class > 0, self.origin)
        return [(p, a) for a, _, mask, _ in self._families(dim) for p in _points(mask, self.origin)]

    def _first(self, dim: int, bad) -> tuple:
        """Among the surface cells of one dimension whose value is `bad`, the
        first in the (x, y, z) order of the doubled lattice, and its value."""
        found = []
        for axis, parity, mask, value in self._families(dim):
            at = np.argwhere((mask & bad(value)).T)  # (x, y, z), in that order
            if len(at):
                found.append((tuple((2 * at[0] + parity).tolist()), axis, at[0], value))
        _, axis, at, value = min(found, key=lambda f: f[0])
        corner = tuple((at + self.origin).tolist())
        return (corner if axis is None else (corner, axis)), int(value[tuple(at[::-1])])

    vertices = cached_property(lambda self: frozenset(self._cells(0)))
    edges = cached_property(lambda self: frozenset(self._cells(1)))
    faces = cached_property(lambda self: frozenset(self._cells(2)))

    @cached_property
    def edge_faces(self) -> dict[Edge, tuple[Face, ...]]:
        out = dict.fromkeys(self.edges, ())
        for f in self._cells(2):
            for e in face_edges(f):
                out[e] += (f,)
        return out


@dataclass(frozen=True)
class SurfaceCensus:
    """Counts of surface points by surface-adjacent neighbor count."""

    m3: int
    m4: int
    m5: int
    m6: int
    other: int = 0


def double_component(g: BinaryGrid, component) -> VoxelSolid:
    """Stack a component at z = 1 and z = 2; points are (col, row, z)."""
    ctx = ComponentContext.of(g, component)
    if not np.count_nonzero(ctx.crop):
        raise EmptyComponentError("cannot double an empty component")
    solid = VoxelSolid.__new__(VoxelSolid)  # straight from the crop, with no point set
    solid.occupied = np.repeat(ctx.mask[None], 2, axis=0)
    solid.origin = np.array([ctx.offset[1], ctx.offset[0], 1])
    return solid


def _step(p: Point3, axis: int) -> Point3:
    return p[:axis] + (p[axis] + 1,) + p[axis + 1 :]


def face_vertices(face: Face) -> tuple[Point3, ...]:
    """The 4 corner points of a face, in cyclic order around the square."""
    corner, axis = face
    u, v = (a for a in range(3) if a != axis)
    return (corner, _step(corner, u), _step(_step(corner, u), v), _step(corner, v))


def face_edges(face: Face) -> tuple[Edge, ...]:
    corner, axis = face
    u, v = (a for a in range(3) if a != axis)
    return ((corner, u), (corner, v), (_step(corner, v), u), (_step(corner, u), v))


def extract_surface(s: VoxelSolid) -> SurfaceComplex:
    """Faces bounding exactly one solid cube, plus their edges and points."""
    cubes, faces = _cubes_and_faces(s.occupied)
    if not cubes.any():
        raise ThinSolidError("solid contains no unit cube")
    sc = SurfaceComplex(faces, s.origin)
    if any((d > 2).any() for d in sc.edge_degree):
        e, k = sc._first(1, lambda d: d > 2)
        raise InvalidSurfaceError(f"non-manifold edge {e} shared by {k} surface faces")
    return sc


def classify_surface_points(sc: SurfaceComplex, strict: bool = True) -> SurfaceCensus:
    """Tally surface points by number of surface-edge neighbors.

    With strict=True a count outside 3..6 raises InvalidSurfaceError;
    otherwise it lands in `other`.
    """
    counts = np.bincount(sc.vertex_class.ravel(), minlength=7).tolist()  # classes are 0..6
    if strict and (counts[1] or counts[2]):
        v, n = sc._first(0, lambda k: k < 3)
        raise InvalidSurfaceError(f"surface point {v} has {n} surface neighbors")
    return SurfaceCensus(*counts[3:7], other=counts[1] + counts[2])


def check_simply_connected_identity(census: SurfaceCensus) -> bool:
    """m3 == 8 + m5 + 2*m6, which holds exactly for genus-0 surfaces."""
    return census.m3 == 8 + census.m5 + 2 * census.m6


def genus_by_formula(census: SurfaceCensus) -> int:
    """g = 1 + (m5 + 2*m6 - m3) / 8, exact."""
    diff = census.m5 + 2 * census.m6 - census.m3
    if diff % 8 != 0:
        raise InvalidSurfaceError(f"m5 + 2*m6 - m3 = {diff} is not divisible by 8")
    return 1 + diff // 8


def euler_genus_oracle(sc: SurfaceComplex) -> int:
    """Genus from chi = V - E + F; independent of the point-class census."""
    if any((d & ~2).any() for d in sc.edge_degree):  # 0 only for 0 and 2
        e, k = sc._first(1, lambda d: d != 2)
        raise InvalidSurfaceError(f"edge {e} lies in {k} surface faces; surface not closed")
    # Faces joined by shared edges, on the doubled lattice: an edge's only
    # neighbors of dimension 1 or 2 are its faces.
    lattice = np.zeros([2 * k - 1 for k in sc.vertex_class.shape], dtype=bool)
    for dim in (1, 2):
        for _, parity, mask, _ in sc._families(dim):
            lattice[_sublattice(parity)] = mask
    labels, n = label_runs(lattice)
    if n > 1:
        raise MultipleSurfaceComponentsError(_component_chis(sc, labels, n))
    chi = np.count_nonzero(sc.vertex_class) - sum(map(np.count_nonzero, sc.edge_degree))
    chi += sum(map(np.count_nonzero, sc.face_cells))
    return int(2 - chi) // 2


def _component_chis(sc: SurfaceComplex, labels: np.ndarray, n: int) -> list[int]:
    """V - E + F of each surface component, in the order of the components'
    first cells in the (x, y, z) order of the doubled lattice. A vertex
    counts once in each component that owns one of its edges."""
    chi = sum(np.bincount(labels[_sublattice(p)].ravel(), minlength=n + 1) for p in _FACE_PARITY)
    chi -= sum(np.bincount(labels[_sublattice(p)].ravel(), minlength=n + 1) for p in _EDGE_PARITY)
    # In the padded lattice the vertex of corner p is at 2p + 1; its 6 neighbors are edges.
    padded, surface = np.pad(labels, 1), sc.vertex_class > 0
    around = [
        padded[tuple(slice(1 + d, 2 * k + d, 2) for d, k in zip(step, surface.shape))][surface]
        for step in np.concatenate([np.eye(3, dtype=int), -np.eye(3, dtype=int)])
    ]
    around = np.sort(around, axis=0)
    owners = np.where(np.diff(around, axis=0, prepend=0) != 0, around, 0)
    chi += np.bincount(owners.ravel(), minlength=n + 1)
    in_xyz_order = np.ascontiguousarray(labels.transpose()).ravel()
    _, first = np.unique(in_xyz_order[in_xyz_order > 0], return_index=True)
    return chi[np.argsort(first) + 1].tolist()


class SurfaceTable:
    """Surface census and Euler characteristic of every component's doubled
    solid, whose surface is found as `extract_surface` finds it, read from
    the `table` of a `LabelMap`, the `corners.ComponentTable` of its `box`;
    no reference to the map is kept. Row `cid` of `points` counts its points
    by class, 1..6 on the surface; of `genus`, (2 - (V - E + F)) / 2.

    Each surface cell is credited to its minimum corner's pixel p. It lies
    in the cubes at p + {-1, 0}^2, so p's 3 x 3 code decides it
    (`_pixel_table`), and those cubes hold only p's label: two components'
    solids share no lattice point. The table's own-label code serves as well
    as the foreground's: a cell of another label in it touches p only
    diagonally, with both cells between them background, so no cube at p
    holds it. A pixel off the boundary has code 511, a class-4 point on each
    layer and V - E + F = 0; a label has its area less its boundary count of
    them. Row `cid` is `clean` when its surface has a cube, every surface
    edge in 2 faces, every point with 3 or more surface neighbors, and one
    piece: when it passes every check of `extract_surface`,
    `classify_surface_points` and `euler_genus_oracle`. The surface of
    R x [1, 2] is connected iff R, the union of the cubes seen from above,
    is, so the 4-connected pieces of the cubes count pieces: cubes that meet
    only at a corner share an edge of 4 faces, not clean. The cubes' runs
    along the rows start and end (one pixel past the last cube) at boundary
    pixels, read from their codes (`_CUBE_RUN_ENDS`); runs on adjacent rows
    that share a column are joined (`labeling.interval_roots`), and a label
    is one piece when its runs have one root.
    """

    def __init__(self, labels: LabelMap):
        table, n = labels.table, labels.component_count
        (credits, kind), own, code = _pixel_table(), table.own, table.code
        tally = np.bincount(own * len(credits) + kind[code], minlength=(n + 1) * len(credits)).reshape(n + 1, -1)
        self.points = tally @ np.eye(7, dtype=np.intp)[credits[:, :2]].sum(axis=1)
        self.points[:, 4] += 2 * (table.area - table.classes.sum(axis=1))
        self.genus = (2 - tally @ credits[:, 2]) // 2
        ends = np.flatnonzero(_CUBE_RUN_ENDS.take(code))  # each run of cubes' start, then its end
        at = table.cells.take(ends)
        root = interval_roots(at[::2], at[1::2] - 1, labels.box.shape[1])
        self.clean = np.bincount(own.take(ends[::2])[root == np.arange(root.size)], minlength=n + 1) == 1
        self.clean &= ~self.points[:, 1:3].any(axis=1) & (tally @ credits[:, 3] == 0)


@cache
def _pixel_table() -> tuple[np.ndarray, np.ndarray]:
    """The distinct credits of a pixel, one per row, and each 3 x 3 foreground
    code's row (its tile, `corners.TILES`): its point's class on each layer,
    the V - E + F of the cells whose minimum corner it is, and 1 if one is an
    edge in other than 0 or 2 faces. Built on first use by the array code
    above, on a doubled strip of the tiles grown by a background ring."""
    tiles = np.pad(TILES, ((0, 0), (1, 1), (1, 1)))
    _, faces = _cubes_and_faces(np.repeat(tiles.transpose(1, 0, 2).reshape(1, 5, 2560), 2, axis=0))
    degree, edge_cells, vertex_class = _edges_and_points(faces)
    at = (slice(None), 2, slice(2, None, 5))  # each tile's centre, on every layer
    chi = sum(c[at].sum(axis=0) for c in (vertex_class > 0, *faces)) - sum(e[at].sum(axis=0) for e in edge_cells)
    bad = np.any([(d[at] & ~2).any(axis=0) for d in degree], axis=0)
    credits, kind = np.unique(np.column_stack([*vertex_class[at], chi, bad]), axis=0, return_inverse=True)
    credits.flags.writeable = kind.flags.writeable = False
    return credits, kind.reshape(512)  # 1-D under every numpy


def export_obj(sc: SurfaceComplex) -> str:
    """Plain OBJ text (vertex list + quad faces) for visual inspection."""
    verts = sorted(sc.vertices)
    index = {v: i + 1 for i, v in enumerate(verts)}
    lines = [f"v {x} {y} {z}" for x, y, z in verts]
    for f in sorted(sc.faces):
        lines.append("f " + " ".join(str(index[v]) for v in face_vertices(f)))
    return "\n".join(lines) + "\n"
