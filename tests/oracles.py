"""Independent oracles used by the test suite.

These deliberately share no code with the package: union-find for
component counting, a tiny random-cloud generator for cross-checking
the homology engine, plain Fraction scans that referee the
integer-lattice distance tests, a walk over every edge that referees
the scale-length edge census read off the neighbor masks, a Fraction
scan of each census partner's sheet points that referees the
second-neighbor witness read off the masks,
digit-by-digit versions of the digit-string operations, on plain tuples
of digits, that referee the packed (int value, depth) strings, the
lemma facts and the equivalence ratios in Fraction arithmetic, on those
tuples, that referee their int comparisons, the full flag route (every
triangle, sorted-list intersection, d2 columns from a dict of edge
positions, full boundary ranks) with a set-based domination test that
referee the edge-collapse Betti engine, a collapse that tries every
candidate dominator in turn, which referees the hinted search, a
breadth-first search over adjacency lists and an edge dict that referees
cycle completion on neighbor masks,
the stdlib's indented JSON encoder that referees the shared report
writer, one randrange call per digit that referees the lemma suite's
word-batched digit draw, a per-digit reserved scan that referees the
base-27 block walk, the lemma suite's first positional test (min first
coordinate difference <= k//2 + 1) that referees fact2's 2m <= k + 2,
dense F2 elimination and a from-scratch Betti count
on tiny clouds that referee the sparse homology route, the
hand-listed record builders that referee the field-driven JSON records,
the Fraction sampling route, points keyed on their Fraction
coordinates, that referees build_cloud's int rows, and cloud_of, which
puts hand-built Fraction points on their lattice.
"""

from __future__ import annotations

import json
import math
import random
from collections import deque
from fractions import Fraction
from itertools import combinations, product
from types import SimpleNamespace

from exactrips.embedding import MalformedImageError
from exactrips.harness import DisconnectionError
from exactrips.homology import boundary1, rank_f2
from exactrips.rips import RigidEdge, ScaleEdges, bits
from exactrips.space import SHEET_SCALE, Cloud, LabeledPoint4, lattice_bound


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


def cloud_of(points) -> Cloud:
    """The Cloud of hand-built LabeledPoint4s: its lattice is the points'
    coordinates times L, the lcm of their reduced denominators."""
    points = tuple(points)
    ratios = [c.as_integer_ratio() for p in points for c in p.coords]
    dens = {d for _, d in ratios}
    L = math.lcm(*dens)
    times = {d: L // d for d in dens}
    flat = iter([n * times[d] for n, d in ratios])
    labels = tuple([(p.kind, p.sheet_x, p.sheet_y) for p in points])
    return Cloud((L, tuple(zip(flat, flat, flat, flat))), labels)


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
    return cloud_of(points)


BRUTE_FORCE_MAX_POINTS = 12


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


def edge_walk_scale_edges(cx) -> ScaleEdges:
    """Rigid and diagonal scale-length edges by a walk over every edge,
    testing each sheet-to-{1}-slab one on the lattice."""
    pts = cx.cloud.points
    L, lattice = cx.cloud.lattice
    bound, exact = lattice_bound(cx.scale, L)
    if not exact:  # no lattice distance is exactly the scale
        return ScaleEdges((), ())
    rigid, diagonal = [], []
    for e_i, (i, j) in enumerate(cx.edges):
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


def fraction_witness(cloud, rigid, a: Fraction) -> list[tuple[int, int]]:
    """(edge index, vertex) per rigid edge in order, then per sheet point
    within a of its partner other than its own sheet vertex, ascending,
    by a Fraction scan of the cloud's points."""
    out = []
    for r in rigid:
        partner = cloud.points[r.partner_vertex].coords
        for idx, p in enumerate(cloud.points):
            if p.kind == "sheet" and idx != r.sheet_vertex:
                if sum((u - v) ** 2 for u, v in zip(p.coords, partner)) <= a * a:
                    out.append((r.edge_index, idx))
    return out


def triangles_on_edges(cx, edges) -> list[tuple[int, tuple]]:
    """(edge index, triangle) per given edge index, in the given order
    (repeats kept), then per triangle with that edge as a side,
    lexicographic, found by a scan of the triangle list."""
    return [(e, t) for e in edges for t in cx.triangles if set(cx.edges[e]) <= set(t)]


def neighbor_lists(n_vertices: int, edges) -> list[list[int]]:
    """Per vertex, its neighbors in the edge list, ascending."""
    nbrs = [[] for _ in range(n_vertices)]
    for i, j in edges:
        nbrs[i].append(j)
        nbrs[j].append(i)
    return [sorted(vs) for vs in nbrs]


def merge_intersect_triangles(cx) -> list[tuple[int, int, int]]:
    """Flag triangles by intersecting the ascending neighbor lists of each
    edge's endpoints above its larger end, sorted."""
    nbrs = neighbor_lists(cx.n_vertices, cx.edges)
    triangles = []
    for i, j in cx.edges:
        left, right = nbrs[i], nbrs[j]
        a = b = 0
        while a < len(left) and b < len(right):
            if left[a] == right[b]:
                if left[a] > j:
                    triangles.append((i, j, left[a]))
                a += 1
                b += 1
            elif left[a] < right[b]:
                a += 1
            else:
                b += 1
    triangles.sort()
    return triangles


def bfs_cycle_completion(cx, e1, e2, banned) -> tuple[int, ...]:
    """The chain of rigid edges e1 and e2 plus shortest paths partner to
    partner and sheet to sheet over the edges not in `banned`, as ascending
    edge indices.  Breadth-first over ascending adjacency lists, so ties
    break lexicographically on vertex indices; DisconnectionError when a
    path is missing."""
    nbrs = neighbor_lists(cx.n_vertices, cx.edges)
    edge_idx = {e: k for k, e in enumerate(cx.edges)}

    def path(start: int, goal: int) -> list[int]:
        if start == goal:
            return []
        parent = {start: start}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in nbrs[u]:
                e = edge_idx[(u, v) if u < v else (v, u)]
                if e in banned or v in parent:
                    continue
                parent[v] = u
                if v == goal:
                    out = []
                    while v != start:
                        u = parent[v]
                        out.append(edge_idx[(u, v) if u < v else (v, u)])
                        v = u
                    return out
                queue.append(v)
        raise DisconnectionError(f"no path from vertex {start} to {goal}")

    chain = {e1.edge_index, e2.edge_index}
    for e in path(e1.partner_vertex, e2.partner_vertex):
        chain ^= {e}
    for e in path(e2.sheet_vertex, e1.sheet_vertex):
        chain ^= {e}
    return tuple(sorted(chain))


def triangle_columns(cx) -> tuple[int, ...]:
    """Per flag triangle (i, j, k), in order, the mask of the positions of
    its sides in the edge list, looked up in a dict of edge positions."""
    position = {e: r for r, e in enumerate(cx.edges)}
    return tuple(
        1 << position[(i, j)] | 1 << position[(i, k)] | 1 << position[(j, k)]
        for i, j, k in merge_intersect_triangles(cx)
    )


def full_flag_betti01(cx) -> tuple[int, int]:
    """(beta0, beta1) from the boundary ranks of the whole flag 2-skeleton,
    with no edge collapse and d2 columns of the oracle's own."""
    r1 = rank_f2(boundary1(cx))
    r2 = rank_f2(triangle_columns(cx))
    return cx.n_vertices - r1, len(cx.edges) - r1 - r2


def dominated_edges(n_vertices: int, edges) -> list[tuple[int, int]]:
    """Edges uv of the graph with some w not in {u, v} whose closed
    neighborhood holds N[u] & N[v], by set arithmetic."""
    closed = [{v} for v in range(n_vertices)]
    for u, v in edges:
        closed[u].add(v)
        closed[v].add(u)
    return [
        (u, v)
        for u, v in edges
        if any(closed[u] & closed[v] <= closed[w] for w in range(n_vertices) if w not in (u, v))
    ]


def collapse_referee(c) -> list[tuple[int, int]]:
    """The edges of c that survive domination collapse, in order: ascending
    passes delete each edge uv that some w outside {u, v} dominates
    (N[u] & N[v] <= N[w], closed neighborhoods of the current graph) until
    a pass deletes none; every candidate w is tried, lowest first."""
    closed = [m | 1 << v for v, m in enumerate(c.neighbor_masks)]
    alive, removed = list(c.edges), True
    while removed:
        kept = []
        for u, v in alive:
            common = closed[u] & closed[v]
            if any(not common & ~closed[w] for w in bits(common ^ 1 << u ^ 1 << v)):
                closed[u] ^= 1 << v
                closed[v] ^= 1 << u
            else:
                kept.append((u, v))
        alive, removed = kept, len(kept) < len(alive)
    return alive


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


def fraction_check_facts(p, q, blocks: int, images=None) -> SimpleNamespace:
    """The four facts and their combination in Fraction arithmetic, the way
    check_facts evaluated them before it compared ints, on digit tuples.

    Returns every field a fact report reads.  `images`, two triples of
    coordinate digit tuples, replaces the interleaving of p and q.
    """
    if images is None:
        images = [
            tuple(tuple_interleave(i, a.t.digits, a.y.digits, blocks) for i in range(3))
            for a in (p, q)
        ]
    sp, sq = images
    x_gap = abs(tuple_ternary_value(p.t.digits) - tuple_ternary_value(q.t.digits))
    t_delta = tuple_delta3(p.t.digits, q.t.digits)
    coord_deltas = tuple(map(tuple_delta3, sp, sq))
    max_delta = max(coord_deltas)
    coord_gaps = tuple(
        abs(tuple_ternary_value(a) - tuple_ternary_value(b)) for a, b in zip(sp, sq)
    )
    linf, l2_sq = max(coord_gaps), sum(g * g for g in coord_gaps)
    return SimpleNamespace(
        fact1=x_gap <= t_delta,
        fact2=t_delta <= 9 * max_delta * max_delta,
        fact3=linf >= Fraction(1, 81) * max_delta,
        fact4=linf * linf <= l2_sq,
        combined=l2_sq >= Fraction(1, 243) ** 2 * x_gap,
        x_gap=x_gap,
        t_delta=t_delta,
        coord_deltas=coord_deltas,
        linf=linf,
        l2_sq=l2_sq,
        t_first_diff=tuple_first_difference(p.t.digits, q.t.digits),
        coord_first_diffs=tuple(map(tuple_first_difference, sp, sq)),
        coord_gaps=coord_gaps,
    )


def ratio_estimate_equivalence(samples) -> tuple[Fraction, Fraction]:
    """Largest and smallest d2/d1, from the list of Fraction ratios."""
    ratios = [Fraction(d2) / d1 for d1, d2 in samples]
    return max(ratios), min(ratios)


def tuple_digit_data_equals(pt: tuple, py: tuple, qt: tuple, qy: tuple) -> bool:
    return all(
        _digit(pt, k) == _digit(qt, k) for k in range(max(len(pt), len(qt)))
    ) and all(_digit(py, k) == _digit(qy, k) for k in range(max(len(py), len(qy))))


def json_text_reference(obj) -> str:
    """The report text every JSON writer once produced directly."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def randrange_digits(rng: random.Random, base: int, depth: int) -> tuple:
    """`depth` digits, one rng.randrange(base) call each, in draw order."""
    return tuple(rng.randrange(base) for _ in range(depth))


def reserved_twos(digits: tuple, blocks: int) -> int:
    """How many of the reserved digits 3k+2, k < blocks, are 2."""
    return sum(_digit(digits, 3 * k + 2) == 2 for k in range(blocks))


def positional_bound_fails(t_first_diff: int, coord_first_diffs) -> bool:
    """The positional mechanism fails: t first differs at index k, yet no
    image coordinate first differs at an index <= k//2 + 1."""
    coord_diffs = [d for d in coord_first_diffs if d is not None]
    return not coord_diffs or min(coord_diffs) > t_first_diff // 2 + 1


# The hand-listed record builders the reports were written with before
# records were written from their own fields.


def _rational(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def fact_report_dict(r) -> dict:
    return {
        "fact1": r.fact1,
        "fact2": r.fact2,
        "fact3": r.fact3,
        "fact4": r.fact4,
        "combined": r.combined,
        "x_gap": _rational(r.x_gap),
        "t_delta": _rational(r.t_delta),
        "coord_deltas": [_rational(d) for d in r.coord_deltas],
        "linf": _rational(r.linf),
        "l2_sq": _rational(r.l2_sq),
        "t_first_diff": r.t_first_diff,
        "coord_first_diffs": list(r.coord_first_diffs),
    }


def close_expanding_record(p, q, dist_a: Fraction, dist_b_sq: Fraction) -> dict:
    """The counterexample record for a pair check_close_expanding returns."""
    return {
        "p": {"t": p.t.text(), "y": p.y.text()},
        "q": {"t": q.t.text(), "y": q.y.text()},
        "dist_a": _rational(dist_a),
        "dist_b_sq": _rational(dist_b_sq),
    }


def cloud_config_dict(cfg) -> dict:
    return {
        "sheets": [y.text() for y in cfg.sheets],
        "scale": _rational(cfg.scale),
        "x_values": [_rational(x) for x in cfg.x_values],
        "blocks": cfg.blocks,
        "cube_grid": cfg.cube_grid,
        "include_cube0": cfg.include_cube0,
        "include_partners": cfg.include_partners,
    }


def rigid_edge_row(r) -> dict:
    return {
        "edge_index": r.edge_index,
        "sheet_vertex": r.sheet_vertex,
        "partner_vertex": r.partner_vertex,
        "y": r.y.text(),
        "x_fiber": _rational(r.x_fiber),
    }


def lemma_suite_dict(rep) -> dict:
    passed = (
        not rep.fact_failures
        and not rep.mechanism_failures
        and not rep.roundtrip_failures
        and not rep.reserved_failures
        and not rep.ultrametric_failures
        and not rep.parabola_failures
        and rep.close_expanding_ok
        and rep.equivalence_ok
    )
    return {
        "seed": rep.seed,
        "samples": rep.samples,
        "blocks": rep.blocks,
        "fact_pairs": rep.fact_pairs,
        "fact_failures": list(rep.fact_failures),
        "mechanism_checks": rep.mechanism_checks,
        "mechanism_failures": list(rep.mechanism_failures),
        "roundtrips": rep.roundtrips,
        "roundtrip_failures": list(rep.roundtrip_failures),
        "reserved_checks": rep.reserved_checks,
        "reserved_failures": list(rep.reserved_failures),
        "ultrametric_triples": rep.ultrametric_triples,
        "ultrametric_failures": list(rep.ultrametric_failures),
        "parabola_checks": rep.parabola_checks,
        "parabola_failures": list(rep.parabola_failures),
        "close_expanding_ok": rep.close_expanding_ok,
        "close_expanding_counterexample": rep.close_expanding_counterexample,
        "equivalence_samples": rep.equivalence_samples,
        "equivalence_c1": _rational(rep.equivalence_c1),
        "equivalence_c2": _rational(rep.equivalence_c2),
        "equivalence_ok": rep.equivalence_ok,
        "passed": passed,
    }


def fraction_build_cloud(cfg) -> Cloud:
    """build_cloud(cfg) by Fraction coordinates: each sheet point's image
    coordinates are the values of its digit-tuple interleavings, points
    merge on their Fraction coordinates (first emission wins), and the
    cloud's lattice is derived from them (cloud_of)."""
    points, seen = [], set()

    def emit(p: LabeledPoint4) -> None:
        if p.coords not in seen:
            seen.add(p.coords)
            points.append(p)

    fibers = [(x, False) for x in cfg.x_values]
    if cfg.include_partners:
        fibers.append(((1 - cfg.scale) * SHEET_SCALE, True))
    for x, partners in fibers:
        t = tuple_to_ternary(x, 6 * cfg.blocks)
        for y in cfg.sheets:
            image = (tuple_ternary_value(tuple_interleave(i, t, y.digits, cfg.blocks)) for i in range(3))
            sheet = LabeledPoint4((x / SHEET_SCALE, *image), "sheet", x, y)
            emit(sheet)
            if partners:
                emit(LabeledPoint4((Fraction(1), *sheet.coords[1:]), "cube1"))
    if cfg.cube_grid > 0:
        ticks = [Fraction(k, cfg.cube_grid) for k in range(cfg.cube_grid + 1)]
        for first, kind in ((Fraction(1), "cube1"), (Fraction(0), "cube0")):
            if kind == "cube1" or cfg.include_cube0:
                for c in product(ticks, repeat=3):
                    emit(LabeledPoint4((first, *c), kind))
    return cloud_of(points)
