"""Doubled 3D solids, digital surface classification, and genus.

A 2D component is embedded as two identical stacked layers z = 1, 2. The
solid is the set of unit cubes whose 8 corner points all belong to the
point set; its surface is the set of square faces bounding exactly one
solid cube. Surface points are classified by how many of their lattice
neighbors are reachable along surface edges (edges lying in at least one
surface face): 3 convex, 4 flat, 5 concave, 6 saddle-like.

Cells are keyed by their minimum corner: a face is (corner, normal_axis),
an edge is (corner, direction_axis), with axes 0 = x, 1 = y, 2 = z. The
work is done on the doubled cell lattice, where position 2p + d (d in
{0, 1}^3) holds the cell with minimum corner p that spans the axes where d
is 1. A cell's dimension is its number of odd coordinates, and the cells
one dimension up or down that touch it are its 6 lattice neighbors, so
every incidence is a count of 6-neighbors. The tuple sets of the public
attributes are decoded from the lattice only when read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import ndimage

from .errors import InvalidSurfaceError, MultipleSurfaceComponentsError, ThinSolidError
from .grid import BinaryGrid
from .corners import ComponentContext

Point3 = tuple[int, int, int]
Face = tuple[Point3, int]
Edge = tuple[Point3, int]

_CUBE_CORNERS = tuple((dx, dy, dz) for dx in (0, 1) for dy in (0, 1) for dz in (0, 1))


class VoxelSolid:
    """Lattice points of a solid: `occupied[i]` is the point `origin + i`."""

    def __init__(self, points: frozenset[Point3]):
        xyz = np.array(list(points), dtype=np.int64).reshape(-1, 3)
        self.origin = xyz.min(axis=0) if len(xyz) else np.zeros(3, dtype=np.int64)
        self.occupied = np.zeros(np.ptp(xyz, axis=0) + 1 if len(xyz) else (0, 0, 0), dtype=bool)
        self.occupied[tuple((xyz - self.origin).T)] = True
        self.points = points

    @cached_property
    def points(self) -> frozenset[Point3]:
        return frozenset(map(tuple, (np.argwhere(self.occupied) + self.origin).tolist()))


class SurfaceComplex:
    """Boundary cell complex of a voxel solid, on the doubled cell lattice.

    `cells` marks the surface vertices, edges and faces, `dims` holds every
    lattice cell's dimension, and lattice position q is the cell with
    minimum corner `origin + q // 2`. `degree` counts each cell's surface
    6-neighbors: a vertex's surface edges (its class), 2 plus an edge's
    surface faces, or a face's 4 edges.
    """

    def __init__(self, cells: np.ndarray, dims: np.ndarray, degree: np.ndarray, origin):
        self.cells, self.dims, self.degree, self.origin = cells, dims, degree, origin

    def of_dim(self, dim: int) -> np.ndarray:
        """Mask of the surface cells of one dimension."""
        return self.cells & (self.dims == dim)

    def _cells(self, dim: int) -> dict:
        """Lattice position -> cell, for the surface cells of one dimension:
        a point, or (corner, axis) with an edge's direction or a face's normal."""
        pos = np.argwhere(self.of_dim(dim))
        cells = map(tuple, (pos // 2 + self.origin).tolist())
        if dim:
            odd = pos % 2
            cells = zip(cells, (odd.argmax(1) if dim == 1 else odd.argmin(1)).tolist())
        return dict(zip(map(tuple, pos.tolist()), cells))

    def _first(self, dim: int, where: np.ndarray) -> tuple:
        """The first surface cell of a dimension where `where` holds, and its degree."""
        pos = tuple(np.argwhere(self.of_dim(dim) & where)[0].tolist())
        return self._cells(dim)[pos], int(self.degree[pos])

    vertices = cached_property(lambda self: frozenset(self._cells(0).values()))
    edges = cached_property(lambda self: frozenset(self._cells(1).values()))
    faces = cached_property(lambda self: frozenset(self._cells(2).values()))

    @cached_property
    def edge_faces(self) -> dict[Edge, tuple[Face, ...]]:
        faces = self._cells(2)
        return {
            e: tuple(faces[q] for q in _neighbors(p) if q in faces)
            for p, e in self._cells(1).items()
        }


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


def _neighbors(p: tuple) -> list[tuple]:
    return [p[:a] + (p[a] + s,) + p[a + 1 :] for a in range(3) for s in (-1, 1)]


def _shifted(a: np.ndarray) -> list[np.ndarray]:
    """The array's value at each cell's 6 neighbors, 0 off the lattice."""
    padded = np.zeros([k + 2 for k in a.shape], dtype=a.dtype)  # np.pad is slower
    padded[1:-1, 1:-1, 1:-1] = a
    inner = [slice(1, -1)] * 3
    return [
        padded[tuple(inner[:axis] + [slice(s, s + k)] + inner[axis + 1 :])]
        for axis, k in enumerate(a.shape)
        for s in (0, 2)
    ]


def _six_count(cells: np.ndarray) -> np.ndarray:
    return sum(_shifted(cells.view(np.int8)))


def double_component(g: BinaryGrid, component) -> VoxelSolid:
    """Stack a component at z = 1 and z = 2; points are (col, row, z)."""
    ctx = ComponentContext.of(g, component)
    if not ctx.area:
        raise ValueError("cannot double an empty component")
    solid = VoxelSolid.__new__(VoxelSolid)  # straight from the crop, with no point set
    solid.occupied = np.repeat(ctx.mask.T[:, :, None], 2, axis=2)
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
    occ, n = s.occupied, [k - 1 for k in s.occupied.shape]
    cubes = np.logical_and.reduce(
        [occ[dx : dx + n[0], dy : dy + n[1], dz : dz + n[2]] for dx, dy, dz in _CUBE_CORNERS]
    )
    if not cubes.any():
        raise ThinSolidError("solid contains no unit cube")
    lattice = np.zeros([2 * k + 1 for k in n], dtype=bool)
    lattice[1::2, 1::2, 1::2] = cubes
    dims = sum((i % 2).astype(np.int8) for i in np.indices(lattice.shape, sparse=True))
    faces = (dims == 2) & (_six_count(lattice) == 1)
    edges = (dims == 1) & (_six_count(faces) > 0)
    cells = faces | edges | ((dims == 0) & (_six_count(edges) > 0))
    sc = SurfaceComplex(cells, dims, _six_count(cells), s.origin)
    if (sc.degree[edges] > 4).any():
        e, k = sc._first(1, sc.degree > 4)
        raise InvalidSurfaceError(f"non-manifold edge {e} shared by {k - 2} surface faces")
    return sc


def classify_surface_points(sc: SurfaceComplex, strict: bool = True) -> SurfaceCensus:
    """Tally surface points by number of surface-edge neighbors.

    With strict=True a count outside 3..6 raises InvalidSurfaceError;
    otherwise it lands in `other`.
    """
    k = sc.degree[sc.of_dim(0)]
    outside = (k < 3) | (k > 6)
    if strict and outside.any():
        v, n = sc._first(0, (sc.degree < 3) | (sc.degree > 6))
        raise InvalidSurfaceError(f"surface point {v} has {n} surface neighbors")
    counts = np.bincount(k[~outside], minlength=7).tolist()
    return SurfaceCensus(*counts[3:7], other=int(outside.sum()))


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
    if (sc.degree[sc.of_dim(1)] != 4).any():
        e, k = sc._first(1, sc.degree != 4)
        raise InvalidSurfaceError(f"edge {e} lies in {k - 2} surface faces; surface not closed")
    # Faces joined by shared edges: an edge's only neighbors of dimension 1
    # or 2 are its faces.
    six = ndimage.generate_binary_structure(3, 1)
    labels, n = ndimage.label(sc.cells & (sc.dims > 0), structure=six)
    if n > 1:
        # A vertex counts once in each component that owns one of its edges.
        around = np.sort([nb[sc.of_dim(0)] for nb in _shifted(labels)], axis=0)
        owners = np.where(np.diff(around, axis=0, prepend=0) != 0, around, 0)
        v, e, f = (
            np.bincount(cells.ravel(), minlength=n + 1)[1:]
            for cells in (owners, labels[sc.of_dim(1)], labels[sc.of_dim(2)])
        )
        raise MultipleSurfaceComponentsError((v - e + f).tolist())
    chi = sum((-1) ** d * int(sc.of_dim(d).sum()) for d in range(3))
    return (2 - chi) // 2


def export_obj(sc: SurfaceComplex) -> str:
    """Plain OBJ text (vertex list + quad faces) for visual inspection."""
    verts = sorted(sc.vertices)
    index = {v: i + 1 for i, v in enumerate(verts)}
    lines = [f"v {x} {y} {z}" for x, y, z in verts]
    for f in sorted(sc.faces):
        lines.append("f " + " ".join(str(index[v]) for v in face_vertices(f)))
    return "\n".join(lines) + "\n"
