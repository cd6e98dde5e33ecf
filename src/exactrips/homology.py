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
per-vertex hint, the vertex w it last found dominating an edge at the
lower end u (on cube grids a dominator usually serves many edges at one
vertex), with one mask test, w != v and N[u] & N[v] & ~N[w] == 0, and
falls back to the candidates lowest-first.  `betti01` hands collapse's
final closed masks, each less its own bit, to the collapsed complex as
its neighbor masks.

`two_cliques` instead certifies a complex as two cliques joined by its n
rigid edges, which fixes beta0 = 1 and beta1 = n-1 with no collapse or rank.

A column is an int mask whose set bits are its nonzero rows; a d2 column
is edge r = (i, j) with its sides (i, k) and (j, k) for an apex k of its
apex mask, at the positions of RipsComplex2.edge_index.  `rank_f2` reduces
columns left to right with lowest-one pivoting (the lowest nonzero row,
i.e. the largest row index, as in standard boundary-matrix reduction).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .rips import RipsComplex2, bits

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
    # The d2 columns in triangle order (see the module docstring).
    for r, ((i, j), m) in enumerate(zip(c.edges, c.apex_masks)):
        for k in bits(m << j + 1):
            yield 1 << r | 1 << c.edge_index(i, k) | 1 << c.edge_index(j, k)


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


def collapse_edges(c, closed=None) -> list[tuple[int, int]]:
    """The edges of c that survive domination collapse, in order: ascending
    passes delete each edge uv that some w outside {u, v} dominates
    (N[u] & N[v] <= N[w], closed neighborhoods of the current graph) until
    a pass deletes none.  The hint, the vertex w = last[u], passes iff
    w != v and N[u] & N[v] & ~N[w] == 0, which refuses a w whose edge to u
    has collapsed.  `closed`, if given, is the list of c's N[v] as masks,
    left holding the collapsed graph's (betti01 hands them to its complex)."""
    if closed is None:
        closed = [m | 1 << v for v, m in enumerate(c.neighbor_masks)]
    last = [len(closed) - 1] * len(closed)  # starts at the top vertex, never a lower end u
    alive, removed = list(c.edges), True
    while removed:
        kept = []
        for u, v in alive:
            common = closed[u] & closed[v]
            w = last[u]
            if w == v or common & ~closed[w]:
                rest = common & ~(1 << u | 1 << v)
                while rest:
                    w = (rest & -rest).bit_length() - 1
                    if not common & ~closed[w]:
                        last[u] = w
                        break
                    rest &= rest - 1
                else:
                    kept.append((u, v))
                    continue
            closed[u] ^= 1 << v
            closed[v] ^= 1 << u
        alive, removed = kept, len(kept) < len(alive)
    return alive


def betti01(c) -> tuple[int, int]:
    """(beta0, beta1) of the 2-skeleton, ranked after edge collapse on a
    complex whose neighbor masks are collapse's closed masks less own bits."""
    closed = [m | 1 << v for v, m in enumerate(c.neighbor_masks)]
    cc = RipsComplex2(c.cloud, c.scale, tuple(collapse_edges(c, closed)))
    vars(cc)["neighbor_masks"] = tuple([m ^ 1 << v for v, m in enumerate(closed)])
    r1 = rank_f2(boundary1(cc))
    r2 = rank_f2(_triangle_masks(cc))
    return c.n_vertices - r1, len(cc.edges) - r1 - r2


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
    the first vertex it lacks or should not have.  With no rigid edge the
    shape cannot hold; on a complex with no vertex that is (None, (None, None)).
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
    if uncovered or not n:
        return None, (next(bits(uncovered), None), None)
    for v, mask in enumerate(nb):
        wrong = mask ^ ((S if S >> v & 1 else P) & ~(1 << v) | 1 << other[v])
        if wrong:
            return None, (v, next(bits(wrong)))
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
