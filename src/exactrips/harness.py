"""Verification pipeline for the large-first-homology construction.

The main experiment builds, per sheet count n and per scale a in the
window, the minimal cloud: n fiber points at first coordinate 1-a plus
their {1}-slab partners.  It then checks the whole chain of the argument
on the finite sample:

  * exactly n edges of length exactly a join a sheet point to its
    perpendicular partner (the rigid edges),
  * no rigid edge lies in any triangle (cross-checked by the partner's
    sheet neighbors other than its census foot),
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
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, fields
from fractions import Fraction
from operator import attrgetter

from .digits import (
    BinaryString,
    TernaryString,
    delta3,
    format_rational,
    json_fields,
    json_text,
    power,
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
    reserved_twos,
)
from .homology import Cycle, betti01, cycle_is_closed, rigid_rank_lower_bound, two_cliques
from .rips import RigidEdge, RipsComplex2, bits, build_complex
from .space import DEFAULT_BLOCKS, CloudConfig, build_cloud, circle_above_parabola_cleared

__all__ = [
    "RigidFreeReport",
    "ExperimentRow",
    "ExperimentReport",
    "LemmaSuiteReport",
    "DisconnectionError",
    "OpenChainError",
    "find_rigid_edges",
    "assert_rigid_free",
    "complete_to_cycle",
    "default_sheets",
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
    """All rigid edges of the complex, a list of c.scale_edges.rigid, read
    once per row and per completed cycle (to refuse foreign edges): kept a
    function because perfbench --trace 1 counts the calls as rigid_scans."""
    return list(c.scale_edges.rigid)


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

    Both checks read the masks in one pass over the rigid edges, in input
    order, so an edge given twice is listed twice.  The primary check
    lists, per edge (s, p), the triangle sorted((s, p, k)) for each common
    neighbor k of its ends, ascending: those are all the triangles on it.
    The cross-check, the second-neighbor witness, lists its partner's
    sheet neighbors other than its census foot, ascending.  The argument
    expects none: a second neighbor would force eps > l**2 / 2 between the
    first-coordinate gap eps and the slab projection gap l, contradicting
    the close-expanding lower bound.  Violations are report content; an
    edge that is not c's edge (s, p) raises ValueError.
    """
    rigid = list(rigid)
    nb, sheet = c.neighbor_masks, c.cloud.kind_masks.sheet
    triangles, witnesses = [], []
    for r in rigid:
        s, p = r.sheet_vertex, r.partner_vertex
        if not 0 <= r.edge_index < len(c.edges) or {*c.edges[r.edge_index]} != {s, p}:
            raise ValueError(f"edge {r.edge_index} of this complex does not join {s} and {p}")
        triangles += [(r.edge_index, tuple(sorted((s, p, k)))) for k in bits(nb[s] & nb[p])]
        witnesses += [(r.edge_index, v) for v in bits(nb[p] & sheet & ~(1 << s))]
    return RigidFreeReport(len(rigid), tuple(triangles), tuple(witnesses))


def _bfs_path(c: RipsComplex2, start: int, goal: int) -> list[int]:
    # Edge indices of a shortest path over c.rigid_free_masks, neighbors
    # explored in ascending order so ties break lexicographically on vertices.
    allowed = c.rigid_free_masks
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

    Connects partner to partner and sheet to sheet by shortest paths over
    c.rigid_free_masks (breadth-first, lexicographic tie-breaking); in the
    minimal configuration both paths are single edges and the result is a
    4-cycle.  The returned chain always satisfies the closedness contract.
    ValueError unless e1 and e2 are two distinct rigid edges of c.
    """
    if e1.edge_index == e2.edge_index:
        raise ValueError("two distinct rigid edges required")
    rigid = find_rigid_edges(c)
    for e in (e1, e2):
        k = bisect_left(rigid, e.edge_index, key=attrgetter("edge_index"))
        if rigid[k : k + 1] != [e]:
            raise ValueError(f"edge {e.edge_index} is not a rigid edge of this complex")
    # A shortest path repeats no edge, so each is added as a set.
    chain = {e1.edge_index, e2.edge_index}
    chain ^= set(_bfs_path(c, e1.partner_vertex, e2.partner_vertex))
    chain ^= set(_bfs_path(c, e2.sheet_vertex, e1.sheet_vertex))
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
    A rigid edge in a triangle fails the row with lower_bound 0 and no
    cycle completed, since the bound assumes no rigid edge has a triangle.
    There beta0, beta1 and T come from homology.two_cliques when it holds,
    else, as on grid rows, from collapse and rank.
    With cube grids present the Betti equality is relaxed to
    beta1 >= n-1 (coarse grids contribute threshold edges of their own);
    the census and the lower bound stay exact.
    Each scale goes to CloudConfig as given: a Fraction or int, never a
    float or bool (ValueError), and each row's scale is the config's.
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
                default_sheets(n), a, (), blocks, cube_grid, include_cube0
            )
            cloud = build_cloud(cfg)
            cx = build_complex(cloud, cfg.scale)
            rigid = find_rigid_edges(cx)
            counts, _ = two_cliques(cx, rigid) if minimal else (None, None)
            b0, b1, triangles = counts or (*betti01(cx), cx.n_triangles)
            free = assert_rigid_free(cx, rigid)
            lb = 0  # a rigid edge in a triangle voids the bound's premise
            if not free.triangle_violations:
                cycles = [complete_to_cycle(rigid[0], r, cx) for r in rigid[1:]]
                lb = rigid_rank_lower_bound(cx, [r.edge_index for r in rigid], cycles)
            ok = (
                len(rigid) == n
                and free.ok
                and lb == n - 1
                and (b1 == n - 1 if minimal else b1 >= n - 1)
                and (b0 == 1 if minimal else True)
            )
            rows.append(
                ExperimentRow(
                    n=n,
                    scale=cfg.scale,
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


# Per base, byte b read as the ASCII digit of its top two bits, or as "x"
# where those bits are not a digit of that base.
_TOP2 = {base: bytes(48 + (b >> 6) if b >> 6 < base else 120 for b in range(256))
         for base in (2, 3)}
_INT_CHUNK = 640  # digits int() converts at any int_max_str_digits setting


class _WordStream:
    """The 32-bit words of random.Random(seed), read in bulk.

    Each draw returns what the same call on the generator itself returns,
    from the same words in the same order.  Words are drawn REFILL or more
    at a time, so those past the last one read are drawn and never read:
    harmless for a generator no one else holds.  A refill is
    `getrandbits(32 * m)`, m whole words with the first drawn least
    significant, as little-endian bytes: word i is _buf[4i : 4i + 4], its
    top byte _tops[i].  Per base, _views holds one _TOP2 character per word:
    the digit randrange(base) takes from the word, or "x" where it rejects.
    """

    __slots__ = ("_rng", "_buf", "_tops", "_views", "_pos")
    REFILL = 4096

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed)
        self._buf, self._pos = b"", 0  # _pos: the next word's index
        self._refill(0)

    def _refill(self, m: int) -> None:
        # Keep the unread words, add at least m fresh ones, start at word 0.
        fresh = max(m, self.REFILL)
        words = self._rng.getrandbits(32 * fresh).to_bytes(4 * fresh, "little")
        self._buf = self._buf[4 * self._pos :] + words
        tops = self._tops = self._buf[3::4]
        self._views = {base: tops.translate(table) for base, table in _TOP2.items()}
        self._pos = 0

    def below(self, n: int) -> int:
        """rng.randrange(n), n >= 1: getrandbits(k) for k = n.bit_length(),
        drawn again while at least n.  getrandbits(k) is the top k bits of
        one word for k <= 32; wider, it fills whole words least significant
        first and keeps the top k % 32 bits of the last."""
        k = n.bit_length()
        if k <= 8:  # the top k bits of one word's top byte
            while True:
                if self._pos == len(self._tops):
                    self._refill(1)
                r = self._tops[self._pos] >> (8 - k)
                self._pos += 1
                if r < n:
                    return r
        words = (k + 31) // 32
        low, drop = 32 * (words - 1), 32 * words - k
        while True:
            if self._pos + words > len(self._buf) // 4:
                self._refill(words)
            at = 4 * self._pos
            self._pos += words
            x = int.from_bytes(self._buf[at : at + 4 * words], "little")
            r = x & ((1 << low) - 1) | x >> (low + drop) << low
            if r < n:
                return r

    def digits(self, cls, depth: int):
        """`depth` digits of rng.randrange(cls.base), most significant first.

        randrange takes the top two bits of one word for both bases.  The
        draw ends at its depth-th accepted word: it spans depth words, then
        one more for each "x" among the words it added last.
        """
        base, pos = cls.base, self._pos
        start, end = pos, pos + depth
        view = self._views[base]
        while True:
            if end > len(view):  # the unread words, from pos, go to offset 0
                self._refill(end - pos)
                start, end, pos, view = start - pos, end - pos, 0, self._views[base]
            rejected = view.count(b"x", start, end)
            if not rejected:
                break
            start, end = end, end + rejected
        self._pos = end
        chars = view[pos:end].replace(b"x", b"")
        value = int(chars[:_INT_CHUNK] or b"0", base)
        for i in range(_INT_CHUNK, depth, _INT_CHUNK):
            piece = chars[i : i + _INT_CHUNK]
            value = value * base ** len(piece) + int(piece, base)
        return cls.from_int(value, depth)


def _random_point(rng: _WordStream, blocks: int) -> IManyPoint:
    # randint(lo, hi) is lo + randrange(hi - lo + 1).
    t = rng.digits(TernaryString, 1 + rng.below(6 * blocks))
    y = rng.digits(BinaryString, rng.below(blocks + 1))
    return IManyPoint(t, y)


def _digits_record(p: IManyPoint, **extra) -> dict:
    return {"t": p.t.text(), "y": p.y.text(), **extra}


def _pair_record(p: IManyPoint, q: IManyPoint, **extra) -> dict:
    return {"p": _digits_record(p), "q": _digits_record(q), **extra}


def _random_pair(rng: _WordStream, blocks: int) -> tuple[IManyPoint, IManyPoint]:
    p = _random_point(rng, blocks)
    while True:
        q = _random_point(rng, blocks)
        if not p.digit_data_equals(q):
            return p, q


def run_lemma_suite(seed: int, samples: int, blocks: int) -> LemmaSuiteReport:
    """Randomized exact verification of both geometric lemmas.

    Runs `samples` fact checks on random digit-string pairs, the same
    number of decode round trips, reserved-digit scans, ultrametric triples,
    the circle/parabola grid and the per-coordinate metric-equivalence
    estimate.  The positional mechanism behind the digit-shift inequality
    is each fact check's fact2 (on pairs whose t strings differ), the
    close-expanding bound its `combined` inequality, whose counterexample
    is the first pair, in sample order, where it fails.  Failures are
    report content, reported verbatim: an image that `decode` rejects as
    malformed is a round-trip failure carrying the decoder's message.

    The samples are drawn from random.Random(seed): per point a t depth
    randint(1, 6*blocks) and its base-3 digits, then a label depth
    randint(0, blocks) and its base-2 digits, each digit a
    randrange(base); per triple a depth randint(1, 6*blocks) and three
    strings of it.  The suite reads these from the generator's words in
    bulk (_WordStream), which returns the same values in the same order,
    so the samples and the report bytes are those of the calls themselves.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if blocks < 1:
        raise ValueError("blocks must be at least 1")
    rng = _WordStream(seed)

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
            if not report.fact2:
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
    reserved_failures = []
    for _ in range(samples):
        p = _random_point(rng, blocks)
        strings = embed_strings(p, blocks)
        try:
            t_back, y_back = decode(strings, blocks)
        except MalformedImageError as exc:
            # decode refuses every image with a reserved 2, so only a
            # refused image needs the reserved-digit scan.
            for s in strings:
                for _ in range(reserved_twos(s, blocks)):
                    reserved_failures.append(_digits_record(p, coord_digits=s.text()))
            roundtrip_failures.append(_digits_record(p, error=str(exc)))
            continue
        # decode returns 6*blocks t digits and `blocks` label digits.
        if t_back.value != p.t.value_at(6 * blocks) or y_back.value != p.y.value_at(blocks):
            roundtrip_failures.append(
                _digits_record(p, t_back=t_back.text(), y_back=y_back.text())
            )

    ultrametric_failures = []
    from_int = TernaryString.from_int
    for _ in range(samples):
        # Three draws of `depth` digits read the words of one of 3 * depth.
        depth = 1 + rng.below(6 * blocks)
        top = power(3, depth)
        head, u = divmod(rng.digits(TernaryString, 3 * depth).value, top)
        s, t = divmod(head, top)
        s, t, u = from_int(s, depth), from_int(t, depth), from_int(u, depth)
        st = delta3(s, t)
        if delta3(s, u) > max(st, delta3(t, u)) or st != delta3(t, s) or delta3(s, s) != 0:
            ultrametric_failures.append(
                {"s": s.text(), "t": t.text(), "u": u.text()}
            )

    parabola_checks = 0
    parabola_failures = []
    for r in (Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(2)):
        # x = -r + 2r k/31: over 31 den(r), r is 31 num(r) and x num(r)(2k - 31).
        for k in range(32):
            parabola_checks += 1
            if not circle_above_parabola_cleared(31 * r.numerator, r.numerator * (2 * k - 31)):
                x = r * Fraction(2 * k - 31, 31)
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
        reserved_checks=3 * blocks * samples,
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
