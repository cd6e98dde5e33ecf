"""Betti numbers over F2 from sparse boundary ranks.

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

`rank_f2` reduces sparse columns left to right with lowest-one pivoting
(the lowest nonzero row, i.e. the largest row index, as in standard
boundary-matrix reduction).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import lt

from .rips import RipsComplex2

__all__ = [
    "SparseF2Matrix",
    "Cycle",
    "boundary1",
    "boundary2",
    "rank_f2",
    "collapse_edges",
    "betti01",
    "rigid_rank_lower_bound",
    "cycle_is_closed",
]

@dataclass(frozen=True)
class SparseF2Matrix:
    """Column-major sparse F2 matrix: each column lists its 1-rows ascending."""

    nrows: int
    ncols: int
    columns: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.columns) != self.ncols:
            raise ValueError("column count mismatch")
        for col in self.columns:
            if not all(map(lt, col, col[1:])):
                raise ValueError(f"malformed column (unsorted or duplicate rows): {col}")
            if col and (col[0] < 0 or col[-1] >= self.nrows):
                raise ValueError(f"row index out of range in column {col}")


@dataclass(frozen=True)
class Cycle:
    """A closed 1-chain over F2, stored as ascending edge indices."""

    edge_indices: tuple[int, ...]

    def __post_init__(self) -> None:
        ei = self.edge_indices
        if any(b <= a for a, b in zip(ei, ei[1:])):
            raise ValueError("edge indices must be strictly ascending")


def boundary1(c) -> SparseF2Matrix:
    """Edge boundary: column per edge (i, j) hitting rows i and j."""
    return SparseF2Matrix(
        nrows=c.n_vertices,
        ncols=len(c.edges),
        columns=tuple((i, j) for i, j in c.edges),
    )


def _triangle_rows(c) -> tuple[tuple[int, int, int], ...]:
    # Per flag triangle, the positions of its sides in the sorted edge
    # list; (i,j) < (i,k) < (j,k) there, so each row is ascending.
    idx = {e: r for r, e in enumerate(c.edges)}
    return tuple((idx[(i, j)], idx[(i, k)], idx[(j, k)]) for i, j, k in c.triangles)


def boundary2(c) -> SparseF2Matrix:
    """Triangle boundary: column per triangle hitting its three edge rows."""
    cols = _triangle_rows(c)
    return SparseF2Matrix(nrows=len(c.edges), ncols=len(cols), columns=cols)


def rank_f2(m: SparseF2Matrix) -> int:
    """F2 rank by left-to-right column reduction with lowest-one pivoting.

    Columns are packed into integer bitmasks internally; the pivot of a
    column is its lowest one (highest set bit) and columns sharing a pivot
    are added by symmetric difference (xor) until settled.
    """
    pivots: dict[int, int] = {}
    rank = 0
    for col in m.columns:
        mask = 0
        for r in col:
            mask |= 1 << r
        while mask:
            low = mask.bit_length() - 1
            other = pivots.get(low)
            if other is None:
                pivots[low] = mask
                rank += 1
                break
            mask ^= other
    return rank


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
    d2 = _triangle_rows(RipsComplex2(c.cloud, c.scale, tuple(edges)))
    r1 = rank_f2(SparseF2Matrix(c.n_vertices, len(edges), tuple(edges)))
    r2 = rank_f2(SparseF2Matrix(len(edges), len(d2), d2))
    return c.n_vertices - r1, len(edges) - r1 - r2


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
    columns = []
    for cycle in cycles:
        rows = sorted(position[e] for e in cycle.edge_indices if e in rigid_set)
        columns.append(tuple(rows))
    restricted = SparseF2Matrix(
        nrows=len(rigid), ncols=len(columns), columns=tuple(columns)
    )
    return rank_f2(restricted)
