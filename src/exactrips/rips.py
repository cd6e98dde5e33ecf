"""Exact-threshold Vietoris-Rips 2-skeleton over a point cloud.

Edges are pairs at squared distance <= a**2, compared as exact rationals
with the threshold INCLUSIVE: the rigid pairs of the construction sit at
length exactly a and must be present.  Triangles are the flag completion
(all three sides present), which is all the 2-skeleton needs since first
homology of a flag complex is determined by it.

A complex reads its cloud's integer lattice, point labels and length,
never its Fraction points, which a built cloud makes only at I/O.  Every
distance test runs on that lattice: scaled by L, the lcm of the cloud's
coordinate denominators, each squared distance is an int D, and
D <= floor(a**2 * L**2) is the exact threshold test (see
space.lattice_bound) with no Fraction, float or square root per pair.
Enumeration is the dense O(V^2) scan of `combinations` over those rows:
one comprehension tests every pair with the module's `sq_dist`, once per
pair, since the benchmark's traced `rips.pairs` counts those calls, and
`compress` picks the hits from `combinations(range(V), 2)` in the same
order, so every edge tuple shares the V vertex ints.

A complex is its sorted edge list, and owns that order (edge_index).
All else is derived once, on demand: int bitmask neighborhoods, each
edge's apex mask (its triangles and d2 columns), scale-length edge classes,
the masks less the rigid edges, and the triangles, listed only when read.
Sweeps check nesting on the masks, and reports write rows from them
(digits.MaskRows), each run of rows repeated in a report once.  The
`sweep` command ranks each distinct complex of a sweep once, and the
rigid-freeness check (harness.assert_rigid_free) reads each census
partner's sheet neighbors from its mask.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, compress
from typing import NamedTuple

from .digits import BinaryString, MaskRows, exact_type, format_rational
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
    "bits",
]


class MonotonicityError(RuntimeError):
    """Nested scales produced non-nested complexes: an implementation bug."""


def sq_dist(u, v):
    """Exact squared Euclidean distance between two 4-D coordinate rows (an
    int for two lattice rows, a Fraction for two Fraction rows)."""
    (a, b, c, d), (e, f, g, h) = u, v
    a -= e
    b -= f
    c -= g
    d -= h
    return a * a + b * b + c * c + d * d


def bits(mask: int):
    """Positions of the set bits of a nonnegative int, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def build_edges(cloud, a: Fraction) -> list[tuple[int, int]]:
    """All index pairs (i < j) with squared distance <= a**2, inclusive,
    for a Fraction or int a.  The module's `sq_dist` runs once per pair
    (traced `rips.pairs` counts it); `compress` takes the hits from the
    index pairs in the same order, so edges come out sorted and share V ints."""
    L, lattice = cloud.lattice
    bound, _ = lattice_bound(a, L)
    sq = sq_dist
    hits = [sq(u, v) <= bound for u, v in combinations(lattice, 2)]
    return list(compress(combinations(range(len(lattice)), 2), hits))


@dataclass(frozen=True)
class RigidEdge:
    """An edge of length exactly the scale joining a sheet point to its
    perpendicular partner on the {1}-slab (equal last three coordinates)."""

    edge_index: int
    sheet_vertex: int
    partner_vertex: int
    y: BinaryString
    x_fiber: Fraction


class ScaleEdges(NamedTuple):
    """Sheet-to-{1}-slab edges of length exactly the scale, by edge order:
    the perpendicular ones are rigid, the rest are diagonal edge indices."""

    rigid: tuple[RigidEdge, ...]
    diagonal: tuple[int, ...]


@dataclass(frozen=True)
class RipsComplex2:
    """Flag complex of a sorted edge list (i < j), triangles (i, j, k) with
    i < j < k lexicographic: Rips(cloud, scale) from build_complex, and from
    homology.collapse_edges the complex of the edges that survive collapse."""

    cloud: object
    scale: Fraction
    edges: tuple[tuple[int, int], ...]

    @property
    def n_vertices(self) -> int:
        return len(self.cloud)

    def edge_index(self, u: int, v: int) -> int:
        """Position of the edge {u, v}, given in either order, in `edges`;
        ValueError naming the pair if {u, v} is not an edge."""
        edges, e = self.edges, (u, v) if u < v else (v, u)
        k = bisect_left(edges, e)
        if k < len(edges) and edges[k] == e:
            return k
        raise ValueError(f"({u}, {v}) is not an edge")

    @cached_property
    def neighbor_masks(self) -> tuple[int, ...]:
        """Per vertex, the int whose set bits are its neighbors, read from a
        V-byte row of ASCII digits ("1" at each neighbor) reversed as a binary
        numeral: O(V**2), so built for full complexes only (collapse_edges sets it)."""
        V, one = self.n_vertices, ord("1")
        rows = [bytearray(b"0") * V for _ in range(V)]
        for i, j in self.edges:
            rows[i][j] = rows[j][i] = one
        return tuple([int(r[::-1] or b"0", 2) for r in rows])

    @cached_property
    def apex_masks(self) -> tuple[int, ...]:
        """Per edge (i, j), in order, the mask (nb[i] & nb[j]) >> (j + 1):
        its bit b is set iff (i, j, j + 1 + b) is a flag triangle."""
        nb = self.neighbor_masks
        return tuple([(nb[i] & nb[j]) >> (j + 1) for i, j in self.edges])

    @cached_property
    def n_triangles(self) -> int:
        """Number of flag triangles, counted without listing them."""
        return sum(map(int.bit_count, self.apex_masks))

    @cached_property
    def triangles(self) -> tuple[tuple[int, int, int], ...]:
        """Flag triangles, lexicographic: edges in order, apexes above j."""
        pairs = zip(self.edges, self.apex_masks)
        return tuple((i, j, j + 1 + b) for (i, j), m in pairs for b in bits(m))

    @cached_property
    def scale_edges(self) -> ScaleEdges:
        """Rigid and diagonal scale-length edges, classified in one pass.

        Rigidity is the perpendicular-partner reading: squared length
        exactly scale**2 AND the slab endpoint's last three coordinates
        equal the sheet endpoint's, which is what makes the slab point the
        unique nearest one.  Candidates are each sheet vertex's {1}-slab
        neighbors (neighbor and kind masks), sorted into edge order.
        """
        L, lattice = self.cloud.lattice
        bound, exact = lattice_bound(self.scale, L)
        if not exact:  # no lattice distance is exactly the scale
            return ScaleEdges((), ())
        kinds = self.cloud.kind_masks
        nb, found = self.neighbor_masks, []
        for s in bits(kinds.sheet):
            u0, u1, u2, u3 = lattice[s]
            for c in bits(nb[s] & kinds.cube1):
                v0, v1, v2, v3 = lattice[c]
                d0, d1, d2, d3 = u0 - v0, u1 - v1, u2 - v2, u3 - v3
                if d0 * d0 + d1 * d1 + d2 * d2 + d3 * d3 == bound:
                    found.append((self.edge_index(s, c), s, c))
        found.sort()
        rigid, diagonal = [], []
        for e_i, s, c in found:
            if lattice[s][1:] != lattice[c][1:]:
                diagonal.append(e_i)
            else:
                _, x, y = self.cloud.labels[s]
                rigid.append(RigidEdge(e_i, s, c, y, x))
        return ScaleEdges(tuple(rigid), tuple(diagonal))

    @cached_property
    def rigid_free_masks(self) -> tuple[int, ...]:
        """neighbor_masks with every rigid edge of scale_edges cleared."""
        masks = list(self.neighbor_masks)
        for r in self.scale_edges.rigid:
            masks[r.sheet_vertex] &= ~(1 << r.partner_vertex)
            masks[r.partner_vertex] &= ~(1 << r.sheet_vertex)
        return tuple(masks)

    def to_json_dict(self) -> dict:
        V, nb = self.n_vertices, self.neighbor_masks
        return {
            "scale": format_rational(self.scale),
            "vertices": V,
            "edges": MaskRows(list(zip(range(V))), [m >> (i + 1) for i, m in enumerate(nb)], V),
            "triangles": MaskRows(self.edges, self.apex_masks, V),
        }


def build_complex(cloud, a: Fraction) -> RipsComplex2:
    """The complex of the pair scan's edges, which come out sorted."""
    edges = tuple(build_edges(cloud, a))  # refuses a before Fraction(a) reads it
    return RipsComplex2(cloud, Fraction(a), edges)


def sweep(cloud, scales) -> list[RipsComplex2]:
    """Complexes at strictly ascending scales, with nesting asserted.

    Nesting is checked on the neighbor masks: every vertex keeps its
    neighbors.  That alone nests the triangles too, since an edge's
    triangle apexes are its endpoints' common neighbors and
    pn[i] & pn[j] <= nb[i] & nb[j] follows from pn <= nb.  A monotonicity
    violation cannot arise from valid input; it is raised as
    MonotonicityError to flag an implementation bug loudly.
    """
    scales = [exact_type("scale", a, Fraction, int) for a in scales]
    if not scales:
        raise ValueError("no scales given")
    if any(b <= a for a, b in zip(scales, scales[1:])):
        raise ValueError("scales must be strictly ascending")
    out: list[RipsComplex2] = []
    for a in scales:
        cx = build_complex(cloud, a)
        if out:
            prev = out[-1]
            pn, nb = prev.neighbor_masks, cx.neighbor_masks
            if any(p & ~q for p, q in zip(pn, nb)):
                raise MonotonicityError(f"edges at {prev.scale} not nested in {a}")
        out.append(cx)
    return out
