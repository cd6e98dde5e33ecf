"""Independent oracles used by the test suite.

These deliberately share no code with the package: union-find for
component counting, a tiny random-cloud generator for cross-checking
the homology engine, and plain Fraction scans that referee the
integer-lattice distance tests.
"""

from __future__ import annotations

import random
from fractions import Fraction

from exactrips.space import Cloud, LabeledPoint4


class UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        root = i
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[i] != root:
            self.parent[i], i = root, self.parent[i]
        return root

    def union(self, i: int, j: int) -> None:
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[ri] = rj

    def component_count(self) -> int:
        return len({self.find(i) for i in range(len(self.parent))})


def component_count(n_vertices: int, edges) -> int:
    uf = UnionFind(n_vertices)
    for i, j in edges:
        uf.union(i, j)
    return uf.component_count()


def random_rational(rng: random.Random, max_num: int = 8, max_den: int = 6) -> Fraction:
    return Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))


def random_cloud(rng: random.Random, max_points: int = 10) -> Cloud:
    n = rng.randint(1, max_points)
    points = tuple(
        LabeledPoint4(
            tuple(random_rational(rng) for _ in range(4)),
            "cube1",
        )
        for _ in range(n)
    )
    return Cloud(points, None)


def _fraction_sq_dist(p, q) -> Fraction:
    return sum((a - b) ** 2 for a, b in zip(p.coords, q.coords))


def fraction_edges(cloud, a: Fraction) -> list[tuple[int, int]]:
    """Every pair (i < j) within a, inclusive, by Fraction arithmetic."""
    pts = cloud.points
    return [
        (i, j)
        for i in range(len(pts))
        for j in range(i + 1, len(pts))
        if _fraction_sq_dist(pts[i], pts[j]) <= a * a
    ]


def fraction_scale_edges(cx) -> tuple[list[tuple], list[int]]:
    """(rigid, diagonal) sheet-to-{1}-slab edges of length exactly the
    scale, as two Fraction scans over the edges: rigid ones as
    (edge index, sheet vertex, partner vertex, y, x), diagonal ones as
    edge indices."""
    pts = cx.cloud.points
    aa = cx.scale * cx.scale
    rigid, diagonal = [], []
    for e_i, (i, j) in enumerate(cx.edges):
        for s, c in ((i, j), (j, i)):
            if pts[s].kind == "sheet" and pts[c].kind == "cube1":
                if _fraction_sq_dist(pts[s], pts[c]) == aa:
                    if pts[s].coords[1:] == pts[c].coords[1:]:
                        rigid.append((e_i, s, c, pts[s].sheet_y, pts[s].sheet_x))
                    else:
                        diagonal.append(e_i)
    return rigid, diagonal


def fraction_witness(partner, cloud, a: Fraction) -> list[tuple]:
    """(index, eps, l_sq, dist_sq) of every sheet point within a of the
    partner, other than its rigid sheet point, by Fraction arithmetic."""
    rigid_coords = (partner.coords[0] - a,) + tuple(partner.coords[1:])
    out = []
    for idx, p in enumerate(cloud.points):
        if p.kind != "sheet" or tuple(p.coords) == rigid_coords:
            continue
        eps = abs(p.coords[0] - partner.coords[0])
        l_sq = sum((p.coords[k] - partner.coords[k]) ** 2 for k in (1, 2, 3))
        if eps * eps + l_sq <= a * a:
            out.append((idx, eps, l_sq, eps * eps + l_sq))
    return out
