"""Betti numbers over F2 from sparse boundary ranks, plus oracles.

beta0 = V - rank(d1) and beta1 = E - rank(d1) - rank(d2) on the
2-skeleton, which suffices for first homology of a flag complex.

Two independent routes coexist on purpose: `rank_f2` reduces sparse
columns left to right with lowest-one pivoting (the lowest nonzero row,
i.e. the largest row index, as in standard boundary-matrix reduction),
while `dense_rank_f2` is a plain dense row-echelon eliminator.
`betti_bruteforce` rebuilds tiny complexes from scratch and uses only the
dense route, so it can referee the sparse pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from operator import lt

__all__ = [
    "SparseF2Matrix",
    "Cycle",
    "boundary1",
    "boundary2",
    "rank_f2",
    "dense_rank_f2",
    "betti01",
    "betti_bruteforce",
    "rigid_rank_lower_bound",
    "cycle_is_closed",
]

BRUTE_FORCE_MAX_POINTS = 12


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


def boundary2(c) -> SparseF2Matrix:
    """Triangle boundary: column per triangle hitting its three edge rows."""
    edge_idx = c.edge_index()
    cols = []
    for i, j, k in c.triangles:
        try:
            rows = sorted((edge_idx[(i, j)], edge_idx[(i, k)], edge_idx[(j, k)]))
        except KeyError as missing:
            raise ValueError(
                f"triangle ({i},{j},{k}) has a side missing from the edge list: "
                f"{missing}"
            ) from None
        cols.append(tuple(rows))
    return SparseF2Matrix(nrows=len(c.edges), ncols=len(c.triangles), columns=tuple(cols))


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


def dense_rank_f2(rows) -> int:
    """Dense row-echelon Gaussian elimination over F2 (independent route)."""
    m = [list(r) for r in rows]
    if not m or not m[0]:
        return 0
    ncols = len(m[0])
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                m[r] = [a ^ b for a, b in zip(m[r], m[rank])]
        rank += 1
        if rank == len(m):
            break
    return rank


def betti01(c) -> tuple[int, int]:
    """(beta0, beta1) of the 2-skeleton via sparse boundary ranks."""
    r1 = rank_f2(boundary1(c))
    r2 = rank_f2(boundary2(c))
    return c.n_vertices - r1, len(c.edges) - r1 - r2


def betti_bruteforce(cloud, a) -> tuple[int, int]:
    """Oracle Betti numbers for clouds of at most 12 points.

    Rebuilds the complex by testing every pair and every triple from
    scratch and ranks dense boundary matrices by row elimination; shares
    no code path with build_complex / rank_f2.
    """
    pts = cloud.points
    n = len(pts)
    if n > BRUTE_FORCE_MAX_POINTS:
        raise ValueError(f"brute-force oracle capped at {BRUTE_FORCE_MAX_POINTS} points")
    aa = a * a

    def within(i: int, j: int) -> bool:
        return (
            sum((x - y) ** 2 for x, y in zip(pts[i].coords, pts[j].coords)) <= aa
        )

    edges = [e for e in combinations(range(n), 2) if within(*e)]
    triangles = [
        t
        for t in combinations(range(n), 3)
        if within(t[0], t[1]) and within(t[0], t[2]) and within(t[1], t[2])
    ]
    d1 = [[1 if v in e else 0 for e in edges] for v in range(n)]
    r1 = dense_rank_f2(d1) if edges else 0
    d2 = [
        [1 if set(e) <= set(t) else 0 for t in triangles] for e in edges
    ]
    r2 = dense_rank_f2(d2) if triangles else 0
    return n - r1, len(edges) - r1 - r2


def cycle_is_closed(c, cycle: Cycle) -> bool:
    """True iff every vertex meets an even number of the cycle's edges."""
    degree: dict[int, int] = {}
    for e in cycle.edge_indices:
        i, j = c.edges[e]
        degree[i] = degree.get(i, 0) + 1
        degree[j] = degree.get(j, 0) + 1
    return all(d % 2 == 0 for d in degree.values())


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
