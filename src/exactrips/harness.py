"""Verification pipeline for the large-first-homology construction.

The main experiment builds, per sheet count n and per scale a in the
window, the minimal cloud: n fiber points at first coordinate 1-a plus
their {1}-slab partners.  It then checks the whole chain of the argument
on the finite sample:

  * exactly n edges of length exactly a join a sheet point to its
    perpendicular partner (the rigid edges),
  * no rigid edge lies in any triangle (cross-checked geometrically by
    the second-neighbor scan),
  * any two rigid edges complete to a 1-cycle through short non-rigid
    edges, and the F2 rank of the cycles' rigid coordinates is n-1,
  * beta1 equals n-1 (two filled cliques joined by n parallel edges).

Growth of beta1 with n is the finite stand-in for the unbounded rank the
construction produces in the limit: every added sheet adds an independent
class, uniformly over the scale window.

All randomness is seeded and all reports are deterministically ordered,
so repeated runs are byte-identical.
"""

from __future__ import annotations

import json
import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .digits import (
    BinaryString,
    TernaryString,
    delta3,
    format_rational,
    ternary_value,  # not called here; kept for perfbench --trace 1 to wrap
)
from .embedding import (
    CLOSE_EXPANDING_CONSTANT,
    COORD_METRIC_CONSTANT,
    IManyPoint,
    check_close_expanding,
    check_facts,
    decode,
    embed_strings,
    estimate_equivalence,
)
from .homology import Cycle, betti01, cycle_is_closed, rigid_rank_lower_bound
from .rips import RigidEdge, RipsComplex2, build_complex
from .space import (
    DEFAULT_BLOCKS,
    CloudConfig,
    build_cloud,
    circle_above_parabola,
    second_neighbor_witness,
)

__all__ = [
    "RigidEdge",
    "RigidFreeReport",
    "ExperimentRow",
    "ExperimentReport",
    "LemmaSuiteReport",
    "DisconnectionError",
    "OpenChainError",
    "find_rigid_edges",
    "find_diagonal_scale_edges",
    "assert_rigid_free",
    "complete_to_cycle",
    "default_sheets",
    "minimal_config",
    "theorem_experiment",
    "run_lemma_suite",
]

DEFAULT_SEED = 7
DEFAULT_SAMPLES = 10_000
DEFAULT_SUITE_BLOCKS = 12


class DisconnectionError(RuntimeError):
    """No non-rigid path between cycle endpoints: the cloud is undersampled."""


class OpenChainError(RuntimeError):
    """Cycle completion produced a chain that is not closed: a bug."""


def find_rigid_edges(c: RipsComplex2) -> list[RigidEdge]:
    """All rigid edges of the complex (see RipsComplex2.scale_edges).

    Diagonal edges of the same length are not rigid; see
    find_diagonal_scale_edges.
    """
    return list(c.scale_edges.rigid)


def find_diagonal_scale_edges(c: RipsComplex2) -> list[int]:
    """Sheet-to-slab edges of length exactly the scale that are not
    perpendicular; reported separately, never classified rigid."""
    return list(c.scale_edges.diagonal)


@dataclass(frozen=True)
class RigidFreeReport:
    """Outcome of the triangle-freeness check on the rigid edges."""

    checked: int
    triangle_violations: tuple[tuple[int, tuple[int, int, int]], ...]
    witness_violations: tuple[tuple[int, int], ...]  # (edge_index, offending vertex)

    @property
    def ok(self) -> bool:
        return not self.triangle_violations and not self.witness_violations

    def to_json_dict(self) -> dict:
        return {
            "checked": self.checked,
            "triangle_violations": [
                {"edge": e, "triangle": list(t)} for e, t in self.triangle_violations
            ],
            "witness_violations": [
                {"edge": e, "vertex": v} for e, v in self.witness_violations
            ],
            "ok": self.ok,
        }


def assert_rigid_free(c: RipsComplex2, rigid) -> RigidFreeReport:
    """Confirm every rigid edge lies in zero triangles, two ways.

    The primary check looks the rigid edges up among the triangle sides
    (the rows of the triangle boundary at rigid indices must be empty;
    see RipsComplex2.sides_in_triangles); the cross-check runs the
    second-neighbor scan on each partner, which catches the same failure
    geometrically.  Violations are report content, not exceptions.
    """
    rigid = list(rigid)
    tri_violations = c.sides_in_triangles({r.edge_index for r in rigid})
    witness_violations = []
    for r in rigid:
        partner = c.cloud.points[r.partner_vertex]
        for v in second_neighbor_witness(partner, c.cloud, c.scale):
            witness_violations.append((r.edge_index, v.index))
    return RigidFreeReport(
        checked=len(rigid),
        triangle_violations=tuple(tri_violations),
        witness_violations=tuple(witness_violations),
    )


def _bfs_path(c: RipsComplex2, start: int, goal: int, banned: set[int]) -> list[int]:
    # Shortest path over non-banned edges; neighbors explored in ascending
    # order so ties break lexicographically on vertex indices.
    if start == goal:
        return []
    edge_idx = c.edge_index()
    parent: dict[int, int] = {start: start}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v in c.adjacency[u]:
            e = edge_idx[(u, v) if u < v else (v, u)]
            if e in banned or v in parent:
                continue
            parent[v] = u
            if v == goal:
                path = []
                while v != start:
                    u = parent[v]
                    path.append(edge_idx[(u, v) if u < v else (v, u)])
                    v = u
                path.reverse()
                return path
            queue.append(v)
    raise DisconnectionError(
        f"no non-rigid path from vertex {start} to {goal}: undersampled cloud"
    )


def complete_to_cycle(e1: RigidEdge, e2: RigidEdge, c: RipsComplex2) -> Cycle:
    """Close two rigid edges into a 1-cycle through short non-rigid edges.

    Connects partner to partner and sheet to sheet by shortest non-rigid
    paths (breadth-first, lexicographic tie-breaking); in the minimal
    configuration both paths are single edges and the result is a
    4-cycle.  The returned chain always satisfies the closedness contract.
    """
    if e1.edge_index == e2.edge_index:
        raise ValueError("two distinct rigid edges required")
    banned = {r.edge_index for r in find_rigid_edges(c)}
    chain: set[int] = {e1.edge_index, e2.edge_index}
    for e in _bfs_path(c, e1.partner_vertex, e2.partner_vertex, banned):
        chain ^= {e}
    for e in _bfs_path(c, e2.sheet_vertex, e1.sheet_vertex, banned):
        chain ^= {e}
    cycle = Cycle(tuple(sorted(chain)))
    if not cycle_is_closed(c, cycle):
        raise OpenChainError("cycle completion produced an open chain (bug)")
    return cycle


def default_sheets(n: int) -> tuple[BinaryString, ...]:
    """n pairwise distinct sheet labels: fixed-width binary counters."""
    if n < 1:
        raise ValueError("need at least one sheet")
    width = max(1, (n - 1).bit_length())
    return tuple(BinaryString.from_int(j, width) for j in range(n))


def minimal_config(
    n: int, scale: Fraction, blocks: int = DEFAULT_BLOCKS
) -> CloudConfig:
    """The minimal cloud config: n fiber sheets with partners, nothing else."""
    return CloudConfig(
        sheets=default_sheets(n),
        scale=Fraction(scale),
        x_values=(),
        blocks=blocks,
        cube_grid=0,
        include_cube0=False,
        include_partners=True,
    )


@dataclass(frozen=True)
class ExperimentRow:
    n: int
    scale: Fraction
    vertices: int
    edges: int
    triangles: int
    betti0: int
    betti1: int
    rigid_count: int
    rigid_free: bool
    lower_bound: int
    verdict: bool

    def to_csv_cells(self) -> list[str]:
        return [
            str(self.n),
            format_rational(self.scale),
            str(self.vertices),
            str(self.edges),
            str(self.triangles),
            str(self.betti0),
            str(self.betti1),
            str(self.rigid_count),
            "true" if self.rigid_free else "false",
            str(self.lower_bound),
            "pass" if self.verdict else "fail",
        ]


EXPERIMENT_CSV_HEADER = (
    "n,scale,vertices,edges,triangles,betti0,betti1,"
    "rigid_count,rigid_free,lower_bound,verdict"
)


@dataclass(frozen=True)
class ExperimentReport:
    rows: tuple[ExperimentRow, ...]
    blocks: int
    cube_grid: int
    include_cube0: bool

    @property
    def all_pass(self) -> bool:
        return all(r.verdict for r in self.rows)

    def to_csv_text(self) -> str:
        lines = [EXPERIMENT_CSV_HEADER]
        lines.extend(",".join(r.to_csv_cells()) for r in self.rows)
        return "\n".join(lines) + "\n"


def theorem_experiment(
    sheet_counts,
    scales,
    blocks: int = DEFAULT_BLOCKS,
    cube_grid: int = 0,
    include_cube0: bool = False,
) -> ExperimentReport:
    """Run the construction's checks over sheet counts and window scales.

    In the minimal configuration the row passes iff beta0 = 1,
    beta1 = n-1, exactly n rigid edges all triangle-free, and the rigid
    rank lower bound from the n-1 pairwise completed cycles equals n-1.
    With cube grids present the Betti equality is relaxed to
    beta1 >= n-1 (coarse grids contribute threshold edges of their own);
    the census and the lower bound stay exact.
    """
    sheet_counts = list(sheet_counts)
    if any(b <= a for a, b in zip(sheet_counts, sheet_counts[1:])):
        raise ValueError("sheet counts must be strictly ascending")
    minimal = cube_grid == 0 and not include_cube0
    rows = []
    for n in sheet_counts:
        for a in scales:
            cfg = CloudConfig(
                sheets=default_sheets(n),
                scale=Fraction(a),
                x_values=(),
                blocks=blocks,
                cube_grid=cube_grid,
                include_cube0=include_cube0,
                include_partners=True,
            )
            cloud = build_cloud(cfg)
            cx = build_complex(cloud, cfg.scale)
            b0, b1 = betti01(cx)
            rigid = find_rigid_edges(cx)
            free = assert_rigid_free(cx, rigid)
            cycles = [
                complete_to_cycle(rigid[0], rigid[k], cx)
                for k in range(1, len(rigid))
            ]
            lb = rigid_rank_lower_bound(
                cx, [r.edge_index for r in rigid], cycles
            )
            ok = (
                len(rigid) == n
                and free.ok
                and lb == n - 1
                and lb <= b1
                and (b1 == n - 1 if minimal else b1 >= n - 1)
                and (b0 == 1 if minimal else True)
            )
            rows.append(
                ExperimentRow(
                    n=n,
                    scale=Fraction(a),
                    vertices=cx.n_vertices,
                    edges=len(cx.edges),
                    triangles=len(cx.triangles),
                    betti0=b0,
                    betti1=b1,
                    rigid_count=len(rigid),
                    rigid_free=free.ok,
                    lower_bound=lb,
                    verdict=ok,
                )
            )
    return ExperimentReport(
        rows=tuple(rows),
        blocks=blocks,
        cube_grid=cube_grid,
        include_cube0=include_cube0,
    )


@dataclass(frozen=True)
class LemmaSuiteReport:
    """Counts and counterexamples from the randomized lemma checks."""

    seed: int
    samples: int
    blocks: int
    fact_pairs: int
    fact_failures: tuple[dict, ...]
    mechanism_checks: int
    mechanism_failures: tuple[dict, ...]
    roundtrips: int
    roundtrip_failures: tuple[dict, ...]
    reserved_checks: int
    reserved_failures: tuple[dict, ...]
    ultrametric_triples: int
    ultrametric_failures: tuple[dict, ...]
    parabola_checks: int
    parabola_failures: tuple[dict, ...]
    close_expanding_ok: bool
    close_expanding_counterexample: dict | None
    equivalence_samples: int
    equivalence_c1: Fraction
    equivalence_c2: Fraction
    equivalence_ok: bool

    @property
    def passed(self) -> bool:
        return (
            not self.fact_failures
            and not self.mechanism_failures
            and not self.roundtrip_failures
            and not self.reserved_failures
            and not self.ultrametric_failures
            and not self.parabola_failures
            and self.close_expanding_ok
            and self.equivalence_ok
        )

    def to_json_dict(self) -> dict:
        return {
            "seed": self.seed,
            "samples": self.samples,
            "blocks": self.blocks,
            "fact_pairs": self.fact_pairs,
            "fact_failures": list(self.fact_failures),
            "mechanism_checks": self.mechanism_checks,
            "mechanism_failures": list(self.mechanism_failures),
            "roundtrips": self.roundtrips,
            "roundtrip_failures": list(self.roundtrip_failures),
            "reserved_checks": self.reserved_checks,
            "reserved_failures": list(self.reserved_failures),
            "ultrametric_triples": self.ultrametric_triples,
            "ultrametric_failures": list(self.ultrametric_failures),
            "parabola_checks": self.parabola_checks,
            "parabola_failures": list(self.parabola_failures),
            "close_expanding_ok": self.close_expanding_ok,
            "close_expanding_counterexample": self.close_expanding_counterexample,
            "equivalence_samples": self.equivalence_samples,
            "equivalence_c1": format_rational(self.equivalence_c1),
            "equivalence_c2": format_rational(self.equivalence_c2),
            "equivalence_ok": self.equivalence_ok,
            "passed": self.passed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"


def _random_digits(rng: random.Random, cls, depth: int):
    # One rng.randrange(base) per digit, most significant first.
    draw, base, value = rng.randrange, cls.base, 0
    for _ in range(depth):
        value = value * base + draw(base)
    return cls.from_int(value, depth)


def _random_point(rng: random.Random, blocks: int) -> IManyPoint:
    t = _random_digits(rng, TernaryString, rng.randint(1, 6 * blocks))
    y = _random_digits(rng, BinaryString, rng.randint(0, blocks))
    return IManyPoint.from_digits(t, y)


def _random_pair(rng: random.Random, blocks: int) -> tuple[IManyPoint, IManyPoint]:
    p = _random_point(rng, blocks)
    while True:
        q = _random_point(rng, blocks)
        if not p.digit_data_equals(q):
            return p, q


def run_lemma_suite(seed: int, samples: int, blocks: int) -> LemmaSuiteReport:
    """Randomized exact verification of both geometric lemmas.

    Runs `samples` fact checks on random digit-string pairs (with the
    positional mechanism behind the digit-shift inequality), the same
    number of decode round trips, reserved-digit scans, ultrametric
    triples, the circle/parabola grid, the close-expanding bound over all
    sampled pairs, and the per-coordinate metric-equivalence estimate.
    Failures are report content, reported verbatim.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if blocks < 1:
        raise ValueError("blocks must be at least 1")
    rng = random.Random(seed)

    fact_failures = []
    mechanism_checks = 0
    mechanism_failures = []
    expanding_pairs = []
    equivalence_samples = []
    for _ in range(samples):
        p, q = _random_pair(rng, blocks)
        report = check_facts(p, q, blocks)
        if not report.all_hold:
            fact_failures.append(
                {
                    "p": {"t": p.t.text(), "y": p.y.text()},
                    "q": {"t": q.t.text(), "y": q.y.text()},
                    "report": report.to_json_dict(),
                }
            )
        if report.t_first_diff is not None:
            mechanism_checks += 1
            bound = report.t_first_diff // 2 + 1
            coord_diffs = [d for d in report.coord_first_diffs if d is not None]
            if not coord_diffs or min(coord_diffs) > bound:
                mechanism_failures.append(
                    {
                        "p": {"t": p.t.text(), "y": p.y.text()},
                        "q": {"t": q.t.text(), "y": q.y.text()},
                        "t_first_diff": report.t_first_diff,
                        "coord_first_diffs": list(report.coord_first_diffs),
                    }
                )
        expanding_pairs.append((p, q, report.x_gap, report.l2_sq))
        for d1, d2 in zip(report.coord_deltas, report.coord_gaps):
            if d1 > 0:
                equivalence_samples.append((d1, d2))

    roundtrips = 0
    roundtrip_failures = []
    reserved_checks = 0
    reserved_failures = []
    for _ in range(samples):
        p = _random_point(rng, blocks)
        strings = embed_strings(p, blocks)
        for s in strings:
            for k in range(blocks):
                reserved_checks += 1
                if s.digit(3 * k + 2) == 2:
                    reserved_failures.append(
                        {"t": p.t.text(), "y": p.y.text(), "coord_digits": s.text()}
                    )
        t_back, y_back = decode(strings, blocks)
        roundtrips += 1
        if t_back != p.t.padded(6 * blocks) or y_back != p.y.padded(blocks):
            roundtrip_failures.append(
                {
                    "t": p.t.text(),
                    "y": p.y.text(),
                    "t_back": t_back.text(),
                    "y_back": y_back.text(),
                }
            )

    ultrametric_failures = []
    for _ in range(samples):
        depth = rng.randint(1, 6 * blocks)
        s, t, u = (_random_digits(rng, TernaryString, depth) for _ in range(3))
        if delta3(s, u) > max(delta3(s, t), delta3(t, u)) or delta3(s, t) != delta3(
            t, s
        ) or delta3(s, s) != 0:
            ultrametric_failures.append(
                {"s": s.text(), "t": t.text(), "u": u.text()}
            )

    parabola_checks = 0
    parabola_failures = []
    for r in (Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(2)):
        for k in range(32):
            x = -r + 2 * r * Fraction(k, 31)
            parabola_checks += 1
            if not circle_above_parabola(r, x):
                parabola_failures.append(
                    {"r": format_rational(r), "x": format_rational(x)}
                )

    expanding_ok, counterexample = check_close_expanding(
        expanding_pairs, CLOSE_EXPANDING_CONSTANT
    )
    cex_dict = None
    if counterexample is not None:
        p, q, dist_a, dist_b_sq = counterexample
        cex_dict = {
            "p": {"t": p.t.text(), "y": p.y.text()},
            "q": {"t": q.t.text(), "y": q.y.text()},
            "dist_a": format_rational(dist_a),
            "dist_b_sq": format_rational(dist_b_sq),
        }

    c1, c2 = estimate_equivalence(equivalence_samples)
    equivalence_ok = c2 >= COORD_METRIC_CONSTANT and c1 <= 1

    return LemmaSuiteReport(
        seed=seed,
        samples=samples,
        blocks=blocks,
        fact_pairs=samples,
        fact_failures=tuple(fact_failures),
        mechanism_checks=mechanism_checks,
        mechanism_failures=tuple(mechanism_failures),
        roundtrips=roundtrips,
        roundtrip_failures=tuple(roundtrip_failures),
        reserved_checks=reserved_checks,
        reserved_failures=tuple(reserved_failures),
        ultrametric_triples=samples,
        ultrametric_failures=tuple(ultrametric_failures),
        parabola_checks=parabola_checks,
        parabola_failures=tuple(parabola_failures),
        close_expanding_ok=expanding_ok,
        close_expanding_counterexample=cex_dict,
        equivalence_samples=len(equivalence_samples),
        equivalence_c1=c1,
        equivalence_c2=c2,
        equivalence_ok=equivalence_ok,
    )
