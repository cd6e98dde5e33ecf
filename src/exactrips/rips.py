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
Enumeration is the dense O(V^2) pair scan over those ints, one `sq_dist`
call per pair on 4-D rows (kept until the benchmark counts pairs per
build rather than `sq_dist` calls), each row's hits picked in C.

A complex is its sorted edge list, and owns that order (edge_index).
All else is derived once, on demand: int bitmask neighborhoods, each
edge's apex mask (its triangles and d2 columns), scale-length edge
classes, and the triangles, listed only when read.  Sweeps check nesting
on the masks, and reports write rows from them (digits.MaskRows), each
run of rows repeated in a report once.  The `sweep` command ranks each
distinct complex of a sweep once, and the second-neighbor witness reads
each {1}-slab partner's sheet neighbors from its mask.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress, repeat
from math import isqrt
from typing import NamedTuple

from .digits import BinaryString, MaskRows, format_rational, json_text
from .space import lattice_bound

__all__ = [
    "RipsComplex2",
    "RigidEdge",
    "ScaleEdges",
    "MonotonicityError",
    "NeighborViolation",
    "sq_dist",
    "build_edges",
    "build_complex",
    "sweep",
    "second_neighbor_witness",
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
    """All index pairs (i < j) with squared distance <= a**2, inclusive."""
    L, lattice = cloud.lattice
    bound, _ = lattice_bound(Fraction(a), L)
    sq, V, edges = sq_dist, len(lattice), []
    for i, u in enumerate(lattice):
        hits = [sq(u, v) <= bound for v in lattice[i + 1 :]]
        edges.extend(zip(repeat(i), compress(range(i + 1, V), hits)))
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


class ScaleEdges(NamedTuple):
    """Sheet-to-{1}-slab edges of length exactly the scale, by edge order:
    the perpendicular ones are rigid, the rest are diagonal edge indices."""

    rigid: tuple[RigidEdge, ...]
    diagonal: tuple[int, ...]


@dataclass(frozen=True)
class NeighborViolation:
    """A sheet point other than the rigid partner within the scale of a
    {1}-slab point, with the gap split the contradiction argument uses."""

    index: int
    eps: Fraction  # first-coordinate gap
    l_sq: Fraction  # squared gap of the 3-D projection
    dist_sq: Fraction


@dataclass(frozen=True)
class RipsComplex2:
    """Flag complex of a sorted edge list (i < j), triangles (i, j, k) with
    i < j < k lexicographic: Rips(cloud, scale) from build_complex, and in
    homology.betti01 the complex of the edges that survive collapse."""

    cloud: object
    scale: Fraction
    edges: tuple[tuple[int, int], ...]

    @property
    def n_vertices(self) -> int:
        return len(self.cloud)

    def edge_index(self, u: int, v: int) -> int:
        """Position of the edge {u, v}, given in either order, in `edges`."""
        return bisect_left(self.edges, (u, v) if u < v else (v, u))

    @cached_property
    def neighbor_masks(self) -> tuple[int, ...]:
        """Per vertex, the int whose set bits are its neighbors: a row of
        one ASCII digit per vertex, "1" at each neighbor, read in reverse
        as a binary numeral."""
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
        return sum(m.bit_count() for m in self.apex_masks)

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
            u = lattice[s]
            for c in bits(nb[s] & kinds.cube1):
                if sum((x - y) ** 2 for x, y in zip(u, lattice[c])) == bound:
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

    def sides_in_triangles(self, edges) -> list[tuple[int, tuple[int, int, int]]]:
        """(edge index, triangle) for each side in `edges` of each triangle, by
        triangle, then sides (i,j), (i,k), (j,k); an edge's triangles are
        its common neighbors k, and its side is (i,j) of (i,j,k) when k > j."""
        nb, hits = self.neighbor_masks, []
        for e in set(edges):
            i, j = self.edges[e]
            for k in bits(nb[i] & nb[j]):
                hits.append((tuple(sorted((i, j, k))), (k < i) + (k < j), e))
        return [(e, t) for t, _, e in sorted(hits)]

    def to_json_dict(self) -> dict:
        V, nb = self.n_vertices, self.neighbor_masks
        return {
            "scale": format_rational(self.scale),
            "vertices": V,
            "edges": MaskRows(list(zip(range(V))), [m >> (i + 1) for i, m in enumerate(nb)], V),
            "triangles": MaskRows(self.edges, self.apex_masks, V),
        }

    def to_json(self) -> str:
        return json_text(self.to_json_dict())


def build_complex(cloud, a: Fraction) -> RipsComplex2:
    """The complex of the pair scan's edges, which come out sorted."""
    return RipsComplex2(cloud, Fraction(a), tuple(build_edges(cloud, a)))


def sweep(cloud, scales) -> list[RipsComplex2]:
    """Complexes at strictly ascending scales, with nesting asserted.

    Nesting is checked on the neighbor masks: every vertex keeps its
    neighbors.  That alone nests the triangles too, since an edge's
    triangle apexes are its endpoints' common neighbors and
    pn[i] & pn[j] <= nb[i] & nb[j] follows from pn <= nb.  A monotonicity
    violation cannot arise from valid input; it is raised as
    MonotonicityError to flag an implementation bug loudly.
    """
    scales = list(scales)
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


def second_neighbor_witness(c: RipsComplex2, partners) -> list[list[NeighborViolation]]:
    """For each {1}-slab partner vertex, in input order, the sheet points
    within the scale of it other than its own rigid foot.

    The construction predicts only empty lists: a second neighbor would
    force eps > l**2 / 2 between the first-coordinate gap eps and the slab
    projection gap l, contradicting the close-expanding lower bound.  Any
    violation is returned with both gaps so the failed chain is inspectable.

    The edge scan has settled every distance: the candidates are the
    partner's sheet neighbors, nb[partner] & the sheet mask.  The rigid
    foot (partner - (a, 0, 0, 0)) is on the lattice iff a*L, so iff
    a**2 L**2, is an int (lattice_bound is exact); its row is then the
    partner's less isqrt(bound) = a*L in the first entry, and neighbors
    with that row are excluded.  The gaps of a violation are exact
    Fractions, computed from the lattice rows of the hits alone.
    """
    partners, kinds = list(partners), c.cloud.kind_masks
    bad = [(i, c.cloud.labels[i][0]) for i in partners if not kinds.cube1 >> i & 1]
    if bad:
        raise ValueError("witness scan expects {1}-slab partners; vertex %d is %s" % bad[0])
    L, lattice = c.cloud.lattice
    bound, exact = lattice_bound(c.scale, L)
    nb, shift, out = c.neighbor_masks, isqrt(bound), []
    for partner in partners:
        row = lattice[partner]
        foot = (row[0] - shift,) + row[1:] if exact else None
        hits = []
        for idx in bits(nb[partner] & kinds.sheet):
            q = lattice[idx]
            if q == foot:
                continue
            eps = Fraction(abs(q[0] - row[0]), L)
            l_sq = Fraction(sum((q[i] - row[i]) ** 2 for i in (1, 2, 3)), L * L)
            hits.append(NeighborViolation(idx, eps, l_sq, eps * eps + l_sq))
        out.append(hits)
    return out
