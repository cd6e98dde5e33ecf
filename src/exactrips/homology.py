"""Betti numbers over F2 from boundary ranks on int-mask columns.

beta0 = V - rank(d1) and beta1 = E - rank(d1) - rank(d2) on the
2-skeleton, which suffices for first homology of a flag complex.

`betti01` ranks the 2-skeleton left after collapsing dominated edges on
int bitmask neighborhoods, which keeps the flag complex's homotopy type
(Boissonnat & Pritam, *Edge collapse and persistence of flag complexes*,
SoCG 2020); an edge in no triangle, such as a rigid edge, never collapses.
An edge is deleted when *some* dominator exists, and that test reads only
the current graph, so the order in which candidates are tried cannot
change which edges survive.  `collapse_edges` therefore tries first a
per-vertex hint, the dominator it last found at the edge's lower end
(on cube grids a dominator usually serves many edges at one vertex),
and falls back to the candidates lowest-first.

`two_cliques` instead certifies a complex as two cliques joined by its n
rigid edges, which fixes beta0 = 1 and beta1 = n-1 with no collapse or rank.

A column is an int mask whose set bits are its nonzero rows.  `rank_f2`
reduces columns left to right with lowest-one pivoting (the lowest
nonzero row, i.e. the largest row index, as in standard boundary-matrix
reduction).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .rips import RipsComplex2

__all__ = [
    "Cycle",
    "boundary1",
    "boundary2",
    "rank_f2",
    "collapse_edges",
    "betti01",
    "two_cliques",
    "rigid_rank_lower_bound",
    "cycle_is_closed",
]


@dataclass(frozen=True)
class Cycle:
    """A closed 1-chain over F2, stored as ascending edge indices."""

    edge_indices: tuple[int, ...]

    def __post_init__(self) -> None:
        ei = self.edge_indices
        if any(b <= a for a, b in zip(ei, ei[1:])):
            raise ValueError("edge indices must be strictly ascending")


def boundary1(c) -> tuple[int, ...]:
    """Edge boundary: per edge (i, j), the mask with bits i and j."""
    return tuple(1 << i | 1 << j for i, j in c.edges)


def _triangle_masks(c):
    # Per flag triangle, the mask of its sides' positions in the sorted
    # edge list, built as the triangle is read.
    idx = {e: r for r, e in enumerate(c.edges)}
    for i, j, k in c.triangles:
        yield 1 << idx[(i, j)] | 1 << idx[(i, k)] | 1 << idx[(j, k)]


def boundary2(c) -> tuple[int, ...]:
    """Triangle boundary: per triangle, the mask of its three edge rows."""
    return tuple(_triangle_masks(c))


def rank_f2(columns) -> int:
    """F2 rank of int-mask columns by left-to-right reduction with
    lowest-one pivoting: the pivot of a column is its lowest one (highest
    set bit), and columns sharing a pivot are added by xor until settled.
    """
    pivots: dict[int, int] = {}
    for mask in columns:
        while mask:
            low = mask.bit_length() - 1
            other = pivots.get(low)
            if other is None:
                pivots[low] = mask
                break
            mask ^= other
    return len(pivots)


def collapse_edges(c) -> list[tuple[int, int]]:
    """The edges of c that survive domination collapse, in order: ascending
    passes delete each edge uv that some w outside {u, v} dominates
    (N[u] & N[v] <= N[w], closed neighborhoods of the current graph) until
    a pass deletes none.  The hint last[u], the bit of the dominator last
    found at u, is tried first; it is masked by the candidates `rest`,
    since v itself would always pass the test."""
    closed = [m | 1 << v for v, m in enumerate(c.neighbor_masks)]
    last = [0] * len(closed)
    alive, removed = list(c.edges), True
    while removed:
        kept = []
        for u, v in alive:
            common = closed[u] & closed[v]
            rest = common & ~(1 << u | 1 << v)
            w = last[u] & rest
            if not w or common & closed[w.bit_length() - 1] != common:
                while rest:
                    w = rest & -rest
                    if common & closed[w.bit_length() - 1] == common:
                        last[u] = w
                        break
                    rest ^= w
                else:
                    kept.append((u, v))
                    continue
            closed[u] ^= 1 << v
            closed[v] ^= 1 << u
        alive, removed = kept, len(kept) < len(alive)
    return alive


def betti01(c) -> tuple[int, int]:
    """(beta0, beta1) of the 2-skeleton, ranked after edge collapse."""
    edges = collapse_edges(c)
    r1 = rank_f2(1 << i | 1 << j for i, j in edges)
    r2 = rank_f2(_triangle_masks(RipsComplex2(c.cloud, c.scale, tuple(edges))))
    return c.n_vertices - r1, len(edges) - r1 - r2


def two_cliques(c, rigid):
    """Certify c as two cliques joined by the rigid edges `rigid`.

    With S the mask of their sheet ends and P of their partner ends, the
    shape holds iff S | P covers all V = 2n vertices, nb[s] is
    S & ~(1 << s) | 1 << partner(s) for each s in S, and the same against
    P for each partner.  A triangle with ends on both sides would need two
    rigid edges at one vertex, so the triangles are the cliques' own.
    Returns ((beta0, beta1, triangles), None) = ((1, n-1, 2*C(n,3)), None)
    when it holds, else (None, (v, w)): v is the first vertex on no rigid
    edge (w None), or else the first whose neighborhood is wrong, and w
    the first vertex it lacks or should not have.
    """
    other, S, P = {}, 0, 0
    for r in rigid:
        s, p = r.sheet_vertex, r.partner_vertex
        other[s], other[p] = p, s
        S, P = S | 1 << s, P | 1 << p
    n = len(rigid)
    if len(other) != 2 * n:
        raise ValueError("rigid edges must have distinct endpoints")
    nb = c.neighbor_masks
    uncovered = (1 << len(nb)) - 1 & ~(S | P)
    if uncovered:
        return None, ((uncovered & -uncovered).bit_length() - 1, None)
    for v, mask in enumerate(nb):
        wrong = mask ^ ((S if S >> v & 1 else P) & ~(1 << v) | 1 << other[v])
        if wrong:
            return None, (v, (wrong & -wrong).bit_length() - 1)
    return (1, n - 1, 2 * comb(n, 3)), None


def cycle_is_closed(c, cycle: Cycle) -> bool:
    """True iff every vertex meets an even number of the cycle's edges."""
    odd = 0  # bit v set iff vertex v has odd degree so far
    for e in cycle.edge_indices:
        i, j = c.edges[e]
        odd ^= 1 << i ^ 1 << j
    return not odd


def rigid_rank_lower_bound(c, rigid, cycles) -> int:
    """F2 rank of the cycles' restrictions to the rigid edge coordinates.

    Rigid edges lie in no triangle, so the d2 rows at their indices are
    zero and the rigid coordinates of any 1-cycle are invariant under
    adding boundaries: the rank of the restrictions lower-bounds beta1.

    Preconditions are verified, not assumed: every rigid edge must be
    absent from every triangle and every chain must be closed.
    """
    rigid = list(rigid)
    rigid_set = set(rigid)
    if len(rigid_set) != len(rigid):
        raise ValueError("rigid edge indices must be distinct")
    for e in rigid:
        if not 0 <= e < len(c.edges):
            raise ValueError(f"rigid edge index out of range: {e}")
    hits = c.sides_in_triangles(rigid_set)
    if hits:
        e, (i, j, k) = hits[0]
        side = c.edges[e]
        raise ValueError(f"edge {side} is rigid but occurs in triangle ({i},{j},{k})")
    for cycle in cycles:
        if not cycle_is_closed(c, cycle):
            raise ValueError(f"chain {cycle.edge_indices} is not a cycle")
    position = {e: r for r, e in enumerate(rigid)}
    return rank_f2(
        sum(1 << position[e] for e in cycle.edge_indices if e in rigid_set)
        for cycle in cycles
    )
