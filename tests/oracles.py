"""Independent oracles used by the test suite.

These deliberately share no code with the package: union-find for
component counting, a tiny random-cloud generator for cross-checking
the homology engine, plain Fraction scans that referee the
integer-lattice distance tests, and digit-by-digit versions of the
digit-string operations, on plain tuples of digits, that referee the
packed (int value, depth) strings.
"""

from __future__ import annotations

import random
from fractions import Fraction

from exactrips.embedding import MalformedImageError
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


def fraction_triangle_sides(cx, edges) -> list[tuple[int, tuple]]:
    """(edge index, triangle) for each side in `edges` of each triangle,
    by triangle and then side, found by a scan of the triangle list."""
    position = {e: k for k, e in enumerate(cx.edges)}
    return [
        (position[side], (i, j, k))
        for i, j, k in cx.triangles
        for side in ((i, j), (i, k), (j, k))
        if position[side] in edges
    ]


# Digit strings as plain tuples, most significant digit first.


def _digit(digits: tuple, k: int) -> int:
    return digits[k] if 0 <= k < len(digits) else 0


def tuple_to_ternary(q: Fraction, depth: int) -> tuple:
    """Greedy base-3 digits of q in [0, 1] by long division; q = 1 is all 2s."""
    if q == 1:
        return (2,) * depth
    num, den = q.numerator, q.denominator
    digits = []
    for _ in range(depth):
        num *= 3
        d, num = divmod(num, den)
        digits.append(d)
    return tuple(digits)


def tuple_ternary_value(digits: tuple) -> Fraction:
    acc = 0
    for d in digits:
        acc = acc * 3 + d
    return Fraction(acc, 3 ** len(digits))


def tuple_first_difference(s: tuple, t: tuple):
    for k in range(max(len(s), len(t))):
        if _digit(s, k) != _digit(t, k):
            return k
    return None


def tuple_delta3(s: tuple, t: tuple) -> Fraction:
    k = tuple_first_difference(s, t)
    return Fraction(0) if k is None else Fraction(1, 3**k)


def tuple_interleave(i: int, t: tuple, b: tuple, blocks: int) -> tuple:
    out = []
    for k in range(blocks):
        out += [_digit(t, 6 * k + 2 * i), _digit(t, 6 * k + 2 * i + 1), _digit(b, k)]
    return tuple(out)


def tuple_decode(strings, blocks: int) -> tuple[tuple, tuple]:
    """Inverse interleave of three digit tuples, raising MalformedImageError
    for the first defect: per string its length, then its reserved digits;
    then the shared digits."""
    if len(strings) != 3:
        raise MalformedImageError("exactly three coordinate strings required")
    for s in strings:
        if len(s) != 3 * blocks:
            raise MalformedImageError(
                f"coordinate string must have {3 * blocks} digits, got {len(s)}"
            )
        for k in range(blocks):
            if s[3 * k + 2] == 2:
                raise MalformedImageError(
                    f"digit 2 at reserved position {3 * k + 2}: not an image point"
                )
    b = []
    for k in range(blocks):
        shared = {s[3 * k + 2] for s in strings}
        if len(shared) != 1:
            raise MalformedImageError(f"coordinates disagree on shared digit {k}")
        b.append(shared.pop())
    t = [0] * (6 * blocks)
    for i, s in enumerate(strings):
        for k in range(blocks):
            t[6 * k + 2 * i] = s[3 * k]
            t[6 * k + 2 * i + 1] = s[3 * k + 1]
    return tuple(t), tuple(b)


def tuple_digit_data_equals(pt: tuple, py: tuple, qt: tuple, qy: tuple) -> bool:
    return all(
        _digit(pt, k) == _digit(qt, k) for k in range(max(len(pt), len(qt)))
    ) and all(_digit(py, k) == _digit(qy, k) for k in range(max(len(py), len(qy))))
