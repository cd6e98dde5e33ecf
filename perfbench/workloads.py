"""The benchmark's four workloads.

Each workload makes its inputs from the seed, runs one verified batch
through the public API of ``exactrips`` and derives the exact counts of a
batch from its output bytes.  A traced batch is the same call made inside
``instrument``, which spans the module globals the program looks up.  The
modules are passed in as ``ex`` because the benchmark re-imports them for
every set-up.

Why these four (see README.md for the layer map):

- growth: the paper's headline experiment on minimal clouds; Fraction edge
  scans and the harness's rigid-edge and cycle-completion rescans.
- grid:   cube-grid clouds with ~3e5 triangles; triangle enumeration,
  boundary2 and the F2 rank.
- lemmas: the randomized lemma suite; digits and embedding only, never rips
  or homology.
- sweep:  the CLI sweep of one CSV cloud over many scales; CSV parsing,
  nested complexes and a large JSON report.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from speed import timed
from tracer import Tracer, patched

# The seed at which the experiments use the repo's DEFAULT_SCALES (growth
# only the interior one) and the first lemma call the CLI's default seed,
# so outputs match the CLI's.
DEFAULT_SEED = 7

FULL_SIZES = {
    "growth": {"sheets": 32, "scales": 1},
    "grid": {"sheets": 8, "cube_grid": 3, "scales": 3},
    "lemmas": {"calls": 20, "samples": 100, "blocks": 12},
    "sweep": {"sheets": 8, "cube_grid": 2, "x_values": 1, "scales": 9, "calls": 3},
}

TINY_SIZES = {
    "growth": {"sheets": 3, "scales": 1},
    "grid": {"sheets": 3, "cube_grid": 1, "scales": 3},
    "lemmas": {"calls": 2, "samples": 50, "blocks": 12},
    "sweep": {"sheets": 3, "cube_grid": 1, "x_values": 1, "scales": 2, "calls": 2},
}


@dataclass
class Batch:
    """Output bytes of one verified batch, and the latency (at the reference
    speed, see speed.py), check outcome and wall time of each op (one public
    call) in it."""

    output: bytes
    op_s: list[float]
    op_ok: list[bool]
    op_wall_s: list[float] = field(default_factory=list)


def seeded_fiber(rng: random.Random, blocks: int, lo: Fraction, hi: Fraction) -> Fraction:
    """A sheet parameter j / 3**(6*blocks) in [lo, hi) with j odd and the
    last six ternary digits of j nonzero.

    Such a parameter terminates at the working depth, so its sheet points
    are exact; every embedded coordinate reduces to denominator
    3**(3*blocks - 1), as for the default interior fiber 1/2, and the first
    coordinate j / (2 * 3**(6*blocks + 10)) is already reduced.  The cost
    of the exact arithmetic then does not depend on the seed.
    """
    den = 3 ** (6 * blocks)
    while True:
        j = rng.randrange(int(lo * den), int(hi * den))
        if j % 2 and all(j // 3**p % 3 for p in range(6)):
            return Fraction(j, den)


# Sheet parameters that share their first two digit blocks (a cell of this
# width) embed within 3**-6 of each other in every coordinate, which keeps
# the complexes' sizes fixed across seeds.
CELL = Fraction(1, 3**12)


def cell_of(x: Fraction) -> tuple[Fraction, Fraction]:
    lo = x // CELL * CELL
    return lo, lo + CELL


def window_scale(ex, x: Fraction) -> Fraction:
    """The window scale whose fiber value is x."""
    return 1 - x / ex.space.SHEET_SCALE


def den_bits_max(cloud) -> int:
    return max(c.denominator.bit_length() for p in cloud.points for c in p.coords)


def json_documents(output: bytes) -> list:
    """The JSON reports of a batch, written one after another, each ending
    in a newline."""
    text, decoder = output.decode(), json.JSONDecoder()
    docs, pos = [], 0
    while pos < len(text):
        doc, pos = decoder.raw_decode(text, pos)
        docs.append(doc)
        pos += 1
    return docs


@contextlib.contextmanager
def instrument(ex, tr: Tracer):
    """Spans and counters around the module globals the public calls look up.

    The traced batch makes the same public call as the untraced one; for
    its length, each global below is replaced by a wrapper that spans the
    original.  A span's self time excludes its child spans, so
    ``rips.triangles`` (build_complex) is the flag-triangle enumeration
    without its edge scan, ``rips.sweep`` is the nesting checks, and
    ``harness.complete_to_cycle`` excludes the rigid-edge rescan it makes
    through find_rigid_edges.  ``rips.pairs`` counts the distance
    evaluations of the edge scan itself.
    """
    d, em, sp, rips, hom, h, cli = (
        ex.digits, ex.embedding, ex.space, ex.rips, ex.homology, ex.harness, ex.cli
    )
    wrap, count = tr.wrap, tr.count
    pending = {}  # id of a boundary matrix -> (span of its rank, the matrix)
    rank_f2, sq_dist = hom.rank_f2, rips.sq_dist
    pairs = 0

    def counted_sq_dist(p, q):
        nonlocal pairs
        pairs += 1
        return sq_dist(p, q)

    def boundary(k: int):
        def after(m, cx):
            pending[id(m)] = (f"homology.rank_d{k}", m)

        return wrap(f"homology.boundary{k}", getattr(hom, f"boundary{k}"), after)

    def rank(m):
        # Named by the boundary matrix it is given; other ranks (the rigid
        # lower bound's) stay in their caller's self time.
        name, matrix = pending.pop(id(m), (None, None))
        if matrix is not m:
            return rank_f2(m)
        r = tr.call(name, rank_f2, m)
        if name == "homology.rank_d2":
            count(name, r)
        return r

    def cloud_counts(cloud, *args):
        count("space.vertices", len(cloud))
        tr.peak("space.den_bits_max", den_bits_max(cloud))

    def write_counts(result, path, text):
        count("cli.out_bytes", len(text.encode()))

    build_cloud = wrap("space.build_cloud", sp.build_cloud, cloud_counts)
    build_complex = wrap(
        "rips.triangles", rips.build_complex,
        lambda cx, *a: count("rips.triangles", len(cx.triangles)),
    )
    delta3 = wrap("digits.delta3", d.delta3)
    ternary_value = wrap("digits.ternary_value", d.ternary_value)
    embed_strings = wrap("embedding.embed_strings", em.embed_strings)
    boundary1, boundary2 = boundary(1), boundary(2)
    replacements = [
        (rips, "sq_dist", counted_sq_dist),
        (rips, "build_edges", wrap(
            "rips.build_edges", rips.build_edges,
            lambda edges, *a: count("rips.edges", len(edges)),
        )),
        (rips, "build_complex", build_complex),
        (h, "build_complex", build_complex),
        (cli, "build_complex", build_complex),
        (cli, "sweep", wrap("rips.sweep", rips.sweep)),
        (h, "build_cloud", build_cloud),
        (cli, "build_cloud", build_cloud),
        (cli, "_load_cloud", wrap("space.csv_parse", cli._load_cloud, cloud_counts)),
        (hom, "boundary1", boundary1),
        (hom, "boundary2", boundary2),
        (cli, "boundary1", boundary1),
        (cli, "boundary2", boundary2),
        (hom, "rank_f2", rank),
        (cli, "rank_f2", rank),
        (h, "rigid_rank_lower_bound", wrap("homology.rigid_lb", h.rigid_rank_lower_bound)),
        (h, "find_rigid_edges", wrap(
            "harness.find_rigid_edges", h.find_rigid_edges,
            lambda rigid, *a: count("harness.rigid_scans"),
        )),
        (h, "assert_rigid_free", wrap(
            "harness.assert_rigid_free", h.assert_rigid_free,
            lambda free, cx, rigid: count("harness.rigid_edges", len(rigid)),
        )),
        (h, "complete_to_cycle", wrap(
            "harness.complete_to_cycle", h.complete_to_cycle,
            lambda cycle, *a: count("harness.cycles"),
        )),
        (h, "delta3", delta3),
        (em, "delta3", delta3),
        (h, "ternary_value", ternary_value),
        (em, "ternary_value", ternary_value),
        (em, "to_ternary", wrap("digits.to_ternary", d.to_ternary)),
        (h, "embed_strings", embed_strings),
        (em, "embed_strings", embed_strings),
        (h, "check_facts", wrap(
            "embedding.check_facts", h.check_facts,
            lambda report, *a: count("embedding.fact_pairs"),
        )),
        (h, "decode", wrap(
            "embedding.decode", h.decode, lambda back, *a: count("embedding.roundtrips")
        )),
        (h, "check_close_expanding", wrap(
            "embedding.check_close_expanding", h.check_close_expanding
        )),
        (h, "estimate_equivalence", wrap(
            "embedding.estimate_equivalence", h.estimate_equivalence,
            lambda c, samples: count("embedding.equivalence_samples", len(samples)),
        )),
        (cli, "_json_text", wrap("cli.json", cli._json_text)),
        (cli, "_write", wrap("cli.json", cli._write, write_counts)),
    ]
    with contextlib.ExitStack() as stack:
        for module, attr, replacement in replacements:
            stack.enter_context(patched(module, attr, replacement))
        try:
            yield
        finally:
            count("rips.pairs", pairs)


@dataclass
class ExperimentInputs:
    sheet_counts: list[int]
    scales: list[Fraction]
    blocks: int
    cube_grid: int
    include_cube0: bool


class Experiment:
    """theorem_experiment, one row (one sheet count at one scale) per op.

    Minimal clouds (growth) check beta1 = n - 1; cube-grid clouds (grid)
    check the rigid rank lower bound n - 1.  Every row must pass.
    """

    unit = "row"

    def __init__(self, name: str, minimal: bool) -> None:
        self.name = name
        self.minimal = minimal

    def setup(self, ex, seed: int, sizes: dict, workdir: Path) -> ExperimentInputs:
        # The window's upper end, an interior scale and its lower end.
        scales = list(ex.space.DEFAULT_SCALES)
        if seed != DEFAULT_SEED:
            # The interior fiber stays in the cell of the default fiber 1/2.
            fiber = seeded_fiber(
                random.Random(seed), ex.space.DEFAULT_BLOCKS, *cell_of(Fraction(1, 2))
            )
            scales[1] = window_scale(ex, fiber)
        if sizes["scales"] not in (1, 3):
            raise ValueError("an experiment runs at the interior scale or at all three")
        n = sizes["sheets"]
        return ExperimentInputs(
            sheet_counts=list(range(1, n + 1)) if self.minimal else [n],
            scales=scales if sizes["scales"] == 3 else scales[1:2],
            blocks=ex.space.DEFAULT_BLOCKS,
            cube_grid=0 if self.minimal else sizes["cube_grid"],
            include_cube0=not self.minimal,
        )

    def units(self, inp: ExperimentInputs) -> int:
        return len(inp.sheet_counts) * len(inp.scales)

    ops = units

    def run(self, ex, inp: ExperimentInputs) -> Batch:
        rows, op_s, op_wall_s = [], [], []
        for n in inp.sheet_counts:
            for a in inp.scales:
                report, wall_s, ref_s = timed(
                    ex.harness.theorem_experiment,
                    [n], [a], inp.blocks, inp.cube_grid, inp.include_cube0,
                )
                op_s.append(ref_s)
                op_wall_s.append(wall_s)
                rows.extend(report.rows)
        report = ex.harness.ExperimentReport(
            tuple(rows), inp.blocks, inp.cube_grid, inp.include_cube0
        )
        return Batch(
            report.to_csv_text().encode(), op_s, [self._row_ok(r) for r in rows], op_wall_s
        )

    def _row_ok(self, row) -> bool:
        if self.minimal:
            return row.verdict and row.betti0 == 1 and row.betti1 == row.n - 1
        return row.verdict and row.lower_bound == row.n - 1

    def counts(self, output: bytes) -> dict:
        c = dict.fromkeys(
            ["space.vertices", "space.vertex_pairs", "rips.edges", "rips.triangles",
             "homology.rank_d2", "harness.rigid_edges", "harness.cycles"], 0
        )
        for line in output.decode().splitlines()[1:]:
            cells = line.split(",")
            v, e, t, b0, b1, rigid = (int(cells[i]) for i in range(2, 8))
            c["space.vertices"] += v
            c["space.vertex_pairs"] += v * (v - 1) // 2
            c["rips.edges"] += e
            c["rips.triangles"] += t
            c["homology.rank_d2"] += e - (v - b0) - b1
            c["harness.rigid_edges"] += rigid
            c["harness.cycles"] += max(rigid - 1, 0)
        c["out_bytes"] = len(output)
        return c


@dataclass
class LemmaInputs:
    seeds: list[int]
    samples: int
    blocks: int


class Lemmas:
    """run_lemma_suite(seed + 1000*k, samples, blocks) for k < calls: one op
    per call, a unit per sample.

    Short calls keep each op close to its calibration rounds (speed.py);
    the suite's fixed work per call is under 1% of a call of 100 samples.
    The first call uses the workload seed itself.
    """

    name = "lemmas"
    unit = "sample"

    def setup(self, ex, seed: int, sizes: dict, workdir: Path) -> LemmaInputs:
        seeds = [seed + 1000 * k for k in range(sizes["calls"])]
        return LemmaInputs(seeds, sizes["samples"], sizes["blocks"])

    def units(self, inp: LemmaInputs) -> int:
        return len(inp.seeds) * inp.samples

    def ops(self, inp: LemmaInputs) -> int:
        return len(inp.seeds)

    def run(self, ex, inp: LemmaInputs) -> Batch:
        texts, op_s, op_ok, op_wall_s = [], [], [], []
        for seed in inp.seeds:
            report, wall_s, ref_s = timed(
                ex.harness.run_lemma_suite, seed, inp.samples, inp.blocks
            )
            op_s.append(ref_s)
            op_wall_s.append(wall_s)
            texts.append(report.to_json())
            op_ok.append(report.passed)
        return Batch("".join(texts).encode(), op_s, op_ok, op_wall_s)

    def counts(self, output: bytes) -> dict:
        reports = json_documents(output)
        c = {
            key: sum(d[field] for d in reports)
            for key, field in (
                ("embedding.fact_pairs", "fact_pairs"),
                ("embedding.mechanism_checks", "mechanism_checks"),
                ("embedding.roundtrips", "roundtrips"),
                ("embedding.reserved_checks", "reserved_checks"),
                ("embedding.equivalence_samples", "equivalence_samples"),
                ("digits.ultrametric_triples", "ultrametric_triples"),
                ("space.parabola_checks", "parabola_checks"),
            )
        }
        c["out_bytes"] = len(output)
        return c


@dataclass
class SweepInputs:
    cloud_path: Path
    out_path: Path
    scale_runs: list[list[Fraction]]


class Sweep:
    """`exactrips sweep` on a CSV cloud written at set-up, one op per call:
    the ascending scales are split into `calls` runs of consecutive scales,
    each swept by one call; a unit per scale.  The scales are the two window
    ends and seeded interior scales; the cloud has seeded x_values on every
    sheet.  Short calls keep each op close to its calibration rounds
    (speed.py)."""

    name = "sweep"
    unit = "scale"

    def setup(self, ex, seed: int, sizes: dict, workdir: Path) -> SweepInputs:
        sp = ex.space
        blocks = sp.DEFAULT_BLOCKS
        rng = random.Random(seed)
        # The k-th x value stays in the cell of (k+1)/(count+1); the m interior
        # scales take one fiber in each 1/m of the window.  The cloud is built
        # for the lower window end, so its rigid partners do not move with the seed.
        n_x, m = sizes["x_values"], sizes["scales"] - 2
        x_values = [seeded_fiber(rng, blocks, *cell_of(Fraction(k + 1, n_x + 1))) for k in range(n_x)]
        interior = [seeded_fiber(rng, blocks, Fraction(k, m), Fraction(k + 1, m)) for k in range(m)]
        lo, hi = sp.scale_window()
        scales = sorted([lo, hi] + [window_scale(ex, x) for x in interior])
        calls = sizes["calls"]
        if len(scales) % calls:
            raise ValueError("the calls must split the scales evenly")
        per_call = len(scales) // calls
        cfg = sp.CloudConfig(
            sheets=ex.harness.default_sheets(sizes["sheets"]),
            scale=lo,
            x_values=tuple(x_values),
            blocks=blocks,
            cube_grid=sizes["cube_grid"],
            include_cube0=True,
            include_partners=True,
        )
        cloud_path = workdir / "cloud.csv"
        cloud_path.write_text(sp.build_cloud(cfg).to_csv_text())
        return SweepInputs(
            cloud_path,
            workdir / "sweep.json",
            [scales[k : k + per_call] for k in range(0, len(scales), per_call)],
        )

    def units(self, inp: SweepInputs) -> int:
        return sum(len(run) for run in inp.scale_runs)

    def ops(self, inp: SweepInputs) -> int:
        return len(inp.scale_runs)

    def run(self, ex, inp: SweepInputs) -> Batch:
        fr = ex.digits.format_rational
        reports, op_s, op_ok, op_wall_s = [], [], [], []
        for scales in inp.scale_runs:
            argv = [
                "sweep",
                "--cloud", str(inp.cloud_path),
                "--scales", ",".join(fr(a) for a in scales),
                "--out", str(inp.out_path),
            ]
            with contextlib.redirect_stdout(io.StringIO()):
                code, wall_s, ref_s = timed(ex.cli.main, argv)
            op_s.append(ref_s)
            op_wall_s.append(wall_s)
            reports.append(inp.out_path.read_bytes())
            op_ok.append(code == 0)
        return Batch(b"".join(reports), op_s, op_ok, op_wall_s)

    def counts(self, output: bytes) -> dict:
        reports = json_documents(output)
        betti = [b for report in reports for b in report["betti"]]
        c = {
            "space.vertices": sum(report["betti"][0]["vertices"] for report in reports),
            "space.vertex_pairs": sum(b["vertices"] * (b["vertices"] - 1) // 2 for b in betti),
        }
        for key, field in (
            ("rips.edges", "edges"),
            ("rips.triangles", "triangles"),
            ("homology.rank_d2", "rank_d2"),
        ):
            c[key] = sum(b[field] for b in betti)
        c["cli.out_bytes"] = len(output)
        return c


WORKLOADS = {
    "growth": Experiment("growth", minimal=True),
    "grid": Experiment("grid", minimal=False),
    "lemmas": Lemmas(),
    "sweep": Sweep(),
}
