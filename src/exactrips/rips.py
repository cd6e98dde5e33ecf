"""Exact-threshold Vietoris-Rips 2-skeleton over a point cloud.

Edges are pairs at squared distance <= a**2, compared as exact rationals
with the threshold INCLUSIVE: the rigid pairs of the construction sit at
length exactly a and must be present.  Triangles are the flag completion
(all three sides present), which is all the 2-skeleton needs since first
homology of a flag complex is determined by it.

Coordinates stay Fractions at the I/O boundary.  Every distance test
runs on the cloud's integer lattice: scaled once by L, the lcm of its
coordinate denominators, each squared distance is an int D, and
D <= floor(a**2 * L**2) is the exact threshold test (see
space.lattice_bound) with no Fraction, float or square root per pair.
Enumeration is the dense O(V^2) pair scan over those ints.  Everything
built here is immutable and deterministically ordered; the per-complex
indices (edge positions, scale-length edges, the edges that are triangle
sides) are built once, on demand.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations

from .digits import BinaryString, format_rational
from .space import lattice_bound

__all__ = [
    "RipsComplex2",
    "RigidEdge",
    "ScaleEdges",
    "MonotonicityError",
    "sq_dist",
    "build_edges",
    "build_complex",
    "sweep",
]


class MonotonicityError(RuntimeError):
    """Nested scales produced non-nested complexes: an implementation bug."""


def sq_dist(p, q) -> Fraction:
    """Exact squared Euclidean distance between two labeled points (or two
    lattice points, in which case it is an int)."""
    return sum((a - b) ** 2 for a, b in zip(p.coords, q.coords))


class _LatticePoint:
    """A cloud point's lattice ints, in the shape sq_dist reads."""

    __slots__ = ("coords",)

    def __init__(self, coords: tuple[int, ...]) -> None:
        self.coords = coords


def build_edges(cloud, a: Fraction) -> list[tuple[int, int]]:
    """All index pairs (i < j) with squared distance <= a**2, inclusive."""
    if a < 0:
        raise ValueError("scale must be nonnegative")
    L, lattice = cloud.lattice
    bound, _ = lattice_bound(Fraction(a), L)
    pts = [_LatticePoint(c) for c in lattice]
    edges = []
    for i in range(len(pts)):
        pi = pts[i]
        for j in range(i + 1, len(pts)):
            if sq_dist(pi, pts[j]) <= bound:
                edges.append((i, j))
    return edges


@dataclass(frozen=True)
class RigidEdge:
    """An edge of length exactly the scale joining a sheet point to its
    perpendicular partner on the {1}-slab (equal last three coordinates)."""

    edge_index: int
    sheet_vertex: int
    partner_vertex: int
    y: BinaryString
    x_fiber: Fraction


class ScaleEdges:
    """Sheet-to-{1}-slab edges of length exactly the scale, by edge order:
    the perpendicular ones are rigid, the rest are diagonal edge indices."""

    __slots__ = ("rigid", "diagonal")

    def __init__(self, rigid: tuple[RigidEdge, ...], diagonal: tuple[int, ...]) -> None:
        self.rigid = rigid
        self.diagonal = diagonal


@dataclass(frozen=True)
class RipsComplex2:
    """Vertices, edges and flag triangles of Rips(cloud, scale), canonically
    ordered: edges (i, j) with i < j lexicographic, triangles (i, j, k)
    with i < j < k lexicographic, per-vertex neighbor lists ascending."""

    cloud: object
    scale: Fraction
    edges: tuple[tuple[int, int], ...]
    triangles: tuple[tuple[int, int, int], ...]
    adjacency: tuple[tuple[int, ...], ...]

    @property
    def n_vertices(self) -> int:
        return len(self.cloud.points)

    def edge_index(self) -> dict[tuple[int, int], int]:
        """Edge -> its position in `edges`; built once, shared by callers."""
        return self._edge_index

    @cached_property
    def _edge_index(self) -> dict[tuple[int, int], int]:
        return {e: k for k, e in enumerate(self.edges)}

    @cached_property
    def scale_edges(self) -> ScaleEdges:
        """Rigid and diagonal scale-length edges, classified in one pass.

        Rigidity is the perpendicular-partner reading: squared length
        exactly scale**2 AND the slab endpoint's last three coordinates
        equal the sheet endpoint's, which is what makes the slab point the
        unique nearest one.
        """
        pts = self.cloud.points
        L, lattice = self.cloud.lattice
        bound, exact = lattice_bound(self.scale, L)
        if not exact:  # no lattice distance is exactly the scale
            return ScaleEdges((), ())
        rigid, diagonal = [], []
        for e_i, (i, j) in enumerate(self.edges):
            if pts[i].kind == "sheet" and pts[j].kind == "cube1":
                s, c = i, j
            elif pts[j].kind == "sheet" and pts[i].kind == "cube1":
                s, c = j, i
            else:
                continue
            u, v = lattice[s], lattice[c]
            if sum((x - y) ** 2 for x, y in zip(u, v)) != bound:
                continue
            if u[1:] != v[1:]:
                diagonal.append(e_i)
                continue
            sheet = pts[s]
            rigid.append(RigidEdge(e_i, s, c, sheet.sheet_y, sheet.sheet_x))
        return ScaleEdges(tuple(rigid), tuple(diagonal))

    @cached_property
    def triangle_sides(self) -> frozenset[int]:
        """Indices of the edges that are a side of some triangle; one pass."""
        idx, tris = self._edge_index, self.triangles
        return frozenset(idx[s] for i, j, k in tris for s in ((i, j), (i, k), (j, k)))

    def sides_in_triangles(self, edges) -> list[tuple[int, tuple[int, int, int]]]:
        """(edge index, triangle) for each side in `edges` of each triangle, by
        triangle, then sides (i,j), (i,k), (j,k); no scan if none is a side."""
        if self.triangle_sides.isdisjoint(edges):
            return []
        idx, tris = self._edge_index, self.triangles
        return [(idx[s], t) for t in tris for s in combinations(t, 2) if idx[s] in edges]

    def to_json_dict(self) -> dict:
        return {
            "scale": format_rational(self.scale),
            "vertices": self.n_vertices,
            "edges": [list(e) for e in self.edges],
            "triangles": [list(t) for t in self.triangles],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"


def _merge_intersect_above(left: list[int], right: list[int], floor: int) -> list[int]:
    # Sorted-list intersection keeping values > floor.
    out = []
    i = j = 0
    while i < len(left) and j < len(right):
        a, b = left[i], right[j]
        if a == b:
            if a > floor:
                out.append(a)
            i += 1
            j += 1
        elif a < b:
            i += 1
        else:
            j += 1
    return out


def build_complex(cloud, a: Fraction) -> RipsComplex2:
    """Edges plus flag triangles via sorted-adjacency intersection."""
    edges = build_edges(cloud, a)
    n = len(cloud.points)
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for i, j in edges:
        adjacency[i].append(j)
        adjacency[j].append(i)
    # Pair scan emits j ascending per i, so each list is already sorted.
    triangles = []
    for i, j in edges:
        for k in _merge_intersect_above(adjacency[i], adjacency[j], j):
            triangles.append((i, j, k))
    triangles.sort()
    return RipsComplex2(
        cloud=cloud,
        scale=Fraction(a),
        edges=tuple(edges),
        triangles=tuple(triangles),
        adjacency=tuple(tuple(nbrs) for nbrs in adjacency),
    )


def sweep(cloud, scales) -> list[RipsComplex2]:
    """Complexes at strictly ascending scales, with nesting asserted.

    A monotonicity violation cannot arise from valid input; it is raised
    as MonotonicityError to flag an implementation bug loudly.
    """
    scales = list(scales)
    if any(b <= a for a, b in zip(scales, scales[1:])):
        raise ValueError("scales must be strictly ascending")
    out: list[RipsComplex2] = []
    for a in scales:
        cx = build_complex(cloud, a)
        if out:
            prev = out[-1]
            if not set(prev.edges) <= set(cx.edges):
                raise MonotonicityError(f"edges at {prev.scale} not nested in {a}")
            if not set(prev.triangles) <= set(cx.triangles):
                raise MonotonicityError(f"triangles at {prev.scale} not nested in {a}")
        out.append(cx)
    return out
