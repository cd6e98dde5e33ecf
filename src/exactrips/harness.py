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
  * beta1 equals n-1: the complex is checked, not assumed, to be two
    filled cliques joined by the n rigid edges, else collapsed and ranked.

Growth of beta1 with n is the finite stand-in for the unbounded rank the
construction produces in the limit: every added sheet adds an independent
class, uniformly over the scale window.

All randomness is seeded and all reports are deterministically ordered,
so repeated runs are byte-identical.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, fields
from fractions import Fraction

from .digits import (
    BinaryString,
    TernaryString,
    delta3,
    format_rational,
    json_fields,
    json_text,
    ternary_value,  # not called here; kept for perfbench --trace 1 to wrap
)
from .embedding import (
    COORD_METRIC_CONSTANT,
    IManyPoint,
    MalformedImageError,
    check_close_expanding,  # not called here; kept for perfbench --trace 1 to wrap
    check_facts,
    decode,
    embed_strings,
    estimate_equivalence,
)
from .homology import Cycle, betti01, cycle_is_closed, rigid_rank_lower_bound, two_cliques
from .rips import RigidEdge, RipsComplex2, bits, build_complex
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
    second-neighbor scan over all partners in one call, which catches the
    same failure geometrically.  Violations are report content, not exceptions.
    """
    rigid = list(rigid)
    tri_violations = c.sides_in_triangles({r.edge_index for r in rigid})
    hits = second_neighbor_witness(c.cloud, [r.partner_vertex for r in rigid], c.scale)
    witness_violations = [(r.edge_index, v.index) for r, vs in zip(rigid, hits) for v in vs]
    return RigidFreeReport(
        checked=len(rigid),
        triangle_violations=tuple(tri_violations),
        witness_violations=tuple(witness_violations),
    )


def _bfs_path(c: RipsComplex2, start: int, goal: int, allowed) -> list[int]:
    # Edge indices of a shortest path over the neighbor masks `allowed`;
    # neighbors explored in ascending order so ties break lexicographically
    # on vertex indices.
    if start == goal:
        return []
    if allowed[start] >> goal & 1:  # the one shortest path is the edge itself
        return [c.edge_index(start, goal)]
    parent: dict[int, int] = {start: start}
    seen, queue = 1 << start, deque([start])
    while queue:
        u = queue.popleft()
        for v in bits(allowed[u] & ~seen):
            seen |= 1 << v
            parent[v] = u
            if v == goal:
                path = []
                while v != start:
                    u = parent[v]
                    path.append(c.edge_index(u, v))
                    v = u
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
    allowed = list(c.neighbor_masks)
    for r in find_rigid_edges(c):
        allowed[r.sheet_vertex] &= ~(1 << r.partner_vertex)
        allowed[r.partner_vertex] &= ~(1 << r.sheet_vertex)
    # A shortest path repeats no edge, so each is added as a set.
    chain = {e1.edge_index, e2.edge_index}
    chain ^= set(_bfs_path(c, e1.partner_vertex, e2.partner_vertex, allowed))
    chain ^= set(_bfs_path(c, e2.sheet_vertex, e1.sheet_vertex, allowed))
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
        """The fields in order: a Fraction as num/den, a bool as true or
        false, and the verdict as pass or fail."""
        cells = json_fields(self)
        cells["verdict"] = "pass" if self.verdict else "fail"
        return [str(v).lower() if type(v) is bool else str(v) for v in cells.values()]


EXPERIMENT_CSV_HEADER = ",".join(f.name for f in fields(ExperimentRow))


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

    With cube_grid 0 the cloud is minimal, {0}-slab grid or not, and the row
    passes iff beta0 = 1, beta1 = n-1, exactly n rigid edges all triangle-free,
    and the rigid rank lower bound from the n-1 completed cycles equals n-1.
    There beta0, beta1 and T come from homology.two_cliques when it holds,
    else, as on grid rows, from collapse and rank.
    With cube grids present the Betti equality is relaxed to
    beta1 >= n-1 (coarse grids contribute threshold edges of their own);
    the census and the lower bound stay exact.
    """
    sheet_counts, scales = list(sheet_counts), list(scales)
    if not sheet_counts or not scales:
        raise ValueError("need at least one sheet count and one scale")
    if any(b <= a for a, b in zip(sheet_counts, sheet_counts[1:])):
        raise ValueError("sheet counts must be strictly ascending")
    minimal = cube_grid == 0
    rows = []
    for n in sheet_counts:
        for a in scales:
            cfg = CloudConfig(
                default_sheets(n), Fraction(a), (), blocks, cube_grid, include_cube0
            )
            cloud = build_cloud(cfg)
            cx = build_complex(cloud, cfg.scale)
            rigid = find_rigid_edges(cx)
            counts, _ = two_cliques(cx, rigid) if minimal else (None, None)
            b0, b1, triangles = counts or (*betti01(cx), cx.n_triangles)
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
                    triangles=triangles,
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
        """No failure records, and both `_ok` verdicts hold."""
        names = (f.name for f in fields(self))
        failures = (getattr(self, k) for k in names if k.endswith("_failures"))
        return self.close_expanding_ok and self.equivalence_ok and not any(failures)

    def to_json_dict(self) -> dict:
        return json_fields(self) | {"passed": self.passed}

    def to_json(self) -> str:
        return json_text(self.to_json_dict())


# Byte b read as the ASCII digit of its top two bits, and per base the
# bytes whose top two bits are not a digit of that base.
_TOP2 = bytes(48 + (b >> 6) for b in range(256))
_REJECT = {base: bytes(range(64 * base, 256)) for base in (2, 3)}
_INT_CHUNK = 640  # digits int() converts at any int_max_str_digits setting


def _random_digits(rng: random.Random, cls, depth: int):
    """`depth` digits of rng.randrange(cls.base), most significant first.

    randrange(n) draws getrandbits(k) with k = n.bit_length(), which is 2
    for both bases: the top two bits of one 32-bit word, redrawn while at
    least n.  getrandbits(32 * m) returns m whole words, the first drawn
    least significant, so byte 3 of every 4 little-endian bytes is the top
    of each word in draw order.  Each round draws one word per digit still
    missing, so the generator ends where the per-digit loop ends.
    """
    base, reject = cls.base, _REJECT[cls.base]
    chars, need = b"", depth
    while need:
        tops = rng.getrandbits(32 * need).to_bytes(4 * need, "little")[3::4]
        got = tops.translate(_TOP2, reject)
        chars += got
        need -= len(got)
    value = 0
    for i in range(0, depth, _INT_CHUNK):
        piece = chars[i : i + _INT_CHUNK]
        value = value * base ** len(piece) + int(piece, base)
    return cls.from_int(value, depth)


def _reserved_twos(s: TernaryString, blocks: int) -> int:
    """How many reserved digits 3k+2, k < blocks, of s are 2.

    Digit 3k+2 ends block k, so it is the last ternary digit of one base-27
    block; the walk reads the lowest `blocks` blocks, all of a 3*blocks-digit
    coordinate string.
    """
    v, twos = s.value, 0
    for _ in range(blocks):
        v, block = divmod(v, 27)
        twos += block % 3 == 2
    return twos


def _random_point(rng: random.Random, blocks: int) -> IManyPoint:
    t = _random_digits(rng, TernaryString, rng.randint(1, 6 * blocks))
    y = _random_digits(rng, BinaryString, rng.randint(0, blocks))
    return IManyPoint.from_digits(t, y)


def _digits_record(p: IManyPoint, **extra) -> dict:
    return {"t": p.t.text(), "y": p.y.text(), **extra}


def _pair_record(p: IManyPoint, q: IManyPoint, **extra) -> dict:
    return {"p": _digits_record(p), "q": _digits_record(q), **extra}


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
    triples, the circle/parabola grid and the per-coordinate
    metric-equivalence estimate.  The close-expanding bound is each fact
    check's `combined` inequality; its counterexample is the first pair,
    in sample order, where that fails.  Failures are report content,
    reported verbatim: an image that `decode` rejects as malformed is a
    round-trip failure carrying the decoder's message.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if blocks < 1:
        raise ValueError("blocks must be at least 1")
    rng = random.Random(seed)

    fact_failures = []
    mechanism_checks = 0
    mechanism_failures = []
    expanding_counterexample = None
    equivalence_samples = []
    scaled = [3 ** (3 * blocks - k) for k in range(3 * blocks)]
    for _ in range(samples):
        p, q = _random_pair(rng, blocks)
        report = check_facts(p, q, blocks)
        if not report.all_hold:
            fact_failures.append(_pair_record(p, q, report=report.to_json_dict()))
        if not report.combined and expanding_counterexample is None:
            expanding_counterexample = _pair_record(
                p,
                q,
                dist_a=format_rational(report.x_gap),
                dist_b_sq=format_rational(report.l2_sq),
            )
        if report.t_first_diff is not None:
            mechanism_checks += 1
            bound = report.t_first_diff // 2 + 1
            coord_diffs = [d for d in report.coord_first_diffs if d is not None]
            if not coord_diffs or min(coord_diffs) > bound:
                mechanism_failures.append(
                    _pair_record(
                        p,
                        q,
                        t_first_diff=report.t_first_diff,
                        coord_first_diffs=list(report.coord_first_diffs),
                    )
                )
        # (delta, gap) scaled by 3**(3*blocks): 3**-k becomes scaled[k].
        for k, gap in zip(report.coord_first_diffs, report.gaps):
            if k is not None:
                equivalence_samples.append((scaled[k], gap))

    roundtrip_failures = []
    reserved_checks = 0
    reserved_failures = []
    for _ in range(samples):
        p = _random_point(rng, blocks)
        strings = embed_strings(p, blocks)
        for s in strings:
            reserved_checks += blocks
            for _ in range(_reserved_twos(s, blocks)):
                reserved_failures.append(_digits_record(p, coord_digits=s.text()))
        try:
            t_back, y_back = decode(strings, blocks)
        except MalformedImageError as exc:
            roundtrip_failures.append(_digits_record(p, error=str(exc)))
            continue
        if t_back != p.t.padded(6 * blocks) or y_back != p.y.padded(blocks):
            roundtrip_failures.append(
                _digits_record(p, t_back=t_back.text(), y_back=y_back.text())
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
            x = r * Fraction(2 * k - 31, 31)  # -r + 2r k/31
            parabola_checks += 1
            if not circle_above_parabola(r, x):
                parabola_failures.append(
                    {"r": format_rational(r), "x": format_rational(x)}
                )

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
        roundtrips=samples,
        roundtrip_failures=tuple(roundtrip_failures),
        reserved_checks=reserved_checks,
        reserved_failures=tuple(reserved_failures),
        ultrametric_triples=samples,
        ultrametric_failures=tuple(ultrametric_failures),
        parabola_checks=parabola_checks,
        parabola_failures=tuple(parabola_failures),
        close_expanding_ok=expanding_counterexample is None,
        close_expanding_counterexample=expanding_counterexample,
        equivalence_samples=len(equivalence_samples),
        equivalence_c1=c1,
        equivalence_c2=c2,
        equivalence_ok=equivalence_ok,
    )
