"""Benchmark of exactrips: one workload per run, verified, from one process.

    python3 perfbench/run.py --workload growth --seed 7 --seconds 30 --trace 0

Runs from the root of a checkout and imports the package from its ``src/``.
A run repeats verified batches while the next would still end within
``--seconds``; with ``--trace 1`` each is followed by a traced batch, the
same public call made inside ``workloads.instrument``.  Every
SETUP_EVERY_S, before a batch, it times a block of SETUP_REPS set-ups
(fresh import plus input generation).  Every timed call is bracketed by
calibration rounds and reported in seconds at the reference speed
(speed.py); the raw wall times are kept in the record.

- ``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, measured
  with tracing off.
- ``--trace 1`` prints the per-layer metrics: median self times of the
  spans, exact counts, and the tracing overhead (traced minus untraced
  batch time).

Every batch is checked: the per-op invariants, the output digest against
the first batch, and in a traced run the traced counts against the first
traced batch's.  After the loop, the counts read from the output are
checked against the traced counts and, at the default seed and full sizes,
the digest and counts against ``expected.json``.  A violation counts as
failed ops.  The second-to-last line of output is a JSON record of the
environment, seed, sizes, exact counts and digests; the last line is the
result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

from speed import timed
from tracer import Tracer
from workloads import DEFAULT_SEED, FULL_SIZES, WORKLOADS, instrument

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MODULES = ("digits", "embedding", "space", "rips", "homology", "harness", "cli")
SETUP_REPS = 10
SETUP_EVERY_S = 3.0


class Modules:
    """The exactrips modules, freshly imported from src."""

    def __init__(self, src: Path) -> None:
        for name in [m for m in sys.modules if m == "exactrips" or m.startswith("exactrips.")]:
            del sys.modules[name]
        for name in MODULES:
            module = importlib.import_module(f"exactrips.{name}")
            if Path(module.__file__).resolve().parent != src / "exactrips":
                raise ImportError(f"exactrips.{name} imported from {module.__file__}, not {src}")
            setattr(self, name, module)


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def environment() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in f if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "exactrips").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "git_rev": git_rev(ROOT / ".git"),
        "src_sha256": src.hexdigest(),
    }


def git_rev(git: Path) -> str | None:
    """HEAD's commit id read from the .git directory, None outside a repository."""
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def op_latencies(batches: list[list[float]]) -> list[float]:
    """Each op's latency: its median over the run's batches."""
    return [statistics.median(op) for op in zip(*batches)]


def tail(latencies: list[float]) -> tuple[float, float]:
    """(latency, percentile) of the highest percentile with ten ops beyond it.

    With fewer than eleven ops no percentile has ten ops beyond it, and the
    median (percentile 50) stands in.
    """
    xs = sorted(latencies)
    if len(xs) < 11:
        return statistics.median(xs), 50.0
    return xs[-11], 100.0 * (len(xs) - 10) / len(xs)


class Verifier:
    """Checks every batch of a run and keeps the failure tally.

    The first batch's output is kept on disk and counted only by
    ``finish``, after the run's peak memory has been read, so that the
    counting does not show in ``peak_rss_mb``.
    """

    def __init__(self, workload, seed: int, sizes: dict, workdir: Path) -> None:
        self.workload = workload
        expected = json.loads((HERE / "expected.json").read_text()).get(workload.name)
        at_default = seed == DEFAULT_SEED and sizes == FULL_SIZES[workload.name]
        self.expected = expected if at_default else None
        self.first_output = workdir / "first_output"
        self.digest = self.traced_counts = None
        self.attempted = self.failed = self.traced_ops = 0
        self.problems: list[str] = []

    def check(self, batch, n_ops: int, traced_counts: dict | None = None) -> None:
        """Tally one batch; batch is None when it raised."""
        self.attempted += n_ops
        if traced_counts is not None:
            self.traced_ops += n_ops
        if batch is None:
            self._fail(n_ops, "batch raised")
            return
        bad = batch.op_ok.count(False) + n_ops - len(batch.op_ok)
        if bad:
            self._fail(bad, f"{bad} ops failed their invariants")
            return
        digest = hashlib.sha256(batch.output).hexdigest()
        if self.digest is None:
            self.digest = digest
            self.first_output.write_bytes(batch.output)
        elif digest != self.digest:
            self._fail(n_ops, "output differs from the first batch")
            return
        if traced_counts is not None:
            if self.traced_counts is None:
                self.traced_counts = dict(traced_counts)
            elif dict(traced_counts) != self.traced_counts:
                self._fail(n_ops, "traced counts differ between batches")

    def finish(self) -> dict:
        """The exact counts of the run: those read from the first output and
        those the traced batches recorded, checked against each other and,
        at the default seed and full sizes, against expected.json."""
        try:
            counts = self.workload.counts(self.first_output.read_bytes())
        except Exception:
            traceback.print_exc()
            self._fail(self.attempted, "output could not be counted")
            return {}
        traced = self.traced_counts or {}
        if any(counts[k] != v for k, v in traced.items() if k in counts):
            self._fail(self.traced_ops, "traced counts differ from the output's counts")
        counts.update(traced)
        if self.expected and (
            self.digest != self.expected["sha256"]
            or any(self.expected["counts"].get(k) != v for k, v in counts.items())
        ):
            self._fail(self.attempted, "output or counts differ from expected.json")
        return counts

    def _fail(self, n: int, why: str) -> None:
        self.failed = min(self.attempted, self.failed + n)
        if why not in self.problems:
            self.problems.append(why)


def setup_block(workload, seed: int, sizes: dict, workdir: Path):
    """SETUP_REPS set-ups: fresh import plus input generation; the last one's
    (modules, inputs)."""
    for _ in range(SETUP_REPS):
        ex = Modules(ROOT / "src")
        inputs = workload.setup(ex, seed, sizes, workdir)
    return ex, inputs


def run_batch(fn, *args):
    gc.collect()
    try:
        return fn(*args)
    except Exception:
        traceback.print_exc()
        return None


def measure(name: str, seed: int, seconds: float, trace: bool, sizes: dict) -> tuple[dict, dict]:
    """One benchmark run; returns (record, result)."""
    workload = WORKLOADS[name]
    workdir = Path(tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT))
    try:
        verifier = Verifier(workload, seed, sizes, workdir)
        setup_s, plain, plain_wall, traced, tracers = [], [], [], [], []
        start = perf_counter()
        last_setup = peak_rss_mb = None
        while True:
            began = perf_counter()
            # One set-up is tens of milliseconds: time SETUP_REPS in a block,
            # and a block every SETUP_EVERY_S, so that the blocks sample the
            # same machine states as the batches.
            if last_setup is None or began - last_setup >= SETUP_EVERY_S:
                last_setup = began
                gc.collect()
                (ex, inputs), _, block_s = timed(setup_block, workload, seed, sizes, workdir)
                setup_s.append(block_s / SETUP_REPS)
                n_ops = workload.ops(inputs)
            batch = run_batch(workload.run, ex, inputs)
            verifier.check(batch, n_ops)
            if peak_rss_mb is None:
                # Read after the first batch: later batches only add the
                # allocator's fragmentation from repeating the work, which
                # grows with the number of batches a run fits in.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if batch is not None:
                plain.append(batch.op_s)
                plain_wall.append(sum(batch.op_wall_s))
            if trace:
                tr = Tracer()
                with instrument(ex, tr):
                    batch = run_batch(workload.run, ex, inputs)
                verifier.check(batch, n_ops, tr.counts)
                if batch is not None:
                    traced.append(batch.op_s)
                    # Self times are scaled to the reference speed as the batch's ops were.
                    scale = sum(batch.op_s) / sum(batch.op_wall_s)
                    tracers.append({k: v * scale for k, v in tr.self_s.items()})
            now = perf_counter()
            # Start no batch that would end past the deadline if it took as long as this one.
            if (now - start) + (now - began) > seconds:
                break
        counts = verifier.finish()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not plain or (trace and not traced):
        raise RuntimeError("every batch raised; nothing was measured")

    median = statistics.median
    op_s = op_latencies(plain)
    verify_s = sum(op_s)
    tail_s, tail_pct = tail(op_s)
    self_s = {
        span: median(tr.get(span, 0.0) for tr in tracers)
        for span in sorted({span for tr in tracers for span in tr})
    }
    if trace:
        values = {
            "trace.overhead_s": sum(op_latencies(traced)) - verify_s,
            "rips.edge_yield": counts.get("rips.edges", 0) / max(counts.get("rips.pairs", 0), 1),
            "homology.d2_useful": counts.get("homology.rank_d2", 0)
            / max(counts.get("rips.triangles", 0), 1),
        }
        for metric in spec()["per_layer"]:
            key = metric["name"]
            if key not in values:
                values[key] = self_s.get(key[:-2], 0.0) if key.endswith("_s") else counts.get(key, 0)
        metrics = spec()["per_layer"]
    else:
        values = {
            "verify_s": verify_s,
            "units_per_s": workload.units(inputs) / verify_s,
            "op_p50_s": median(op_s),
            "op_tail_s": tail_s,
            "setup_s": median(setup_s),
            "peak_rss_mb": peak_rss_mb,
            "pass_frac": 1 - verifier.failed / verifier.attempted,
        }
        metrics = spec()["end_to_end"]

    record = {
        "workload": name,
        "seed": seed,
        "sizes": sizes,
        "trace": int(trace),
        "seconds": seconds,
        "environment": environment(),
        "units_per_batch": workload.units(inputs),
        "unit": workload.unit,
        "ops_per_batch": n_ops,
        "batch_s": [sum(batch) for batch in plain],
        "batch_wall_s": plain_wall,
        "traced_batch_s": [sum(batch) for batch in traced],
        "op_s": plain,
        "op_count": len(op_s),
        "op_tail_pct": tail_pct,
        "setup_s": setup_s,
        "self_s": self_s,
        "counts": counts,
        "sha256": verifier.digest,
        "attempted": verifier.attempted,
        "failed": verifier.failed,
        "failed_frac": verifier.failed / verifier.attempted,
        "problems": verifier.problems,
    }
    result = {
        "correct": verifier.failed == 0,
        "attempted": verifier.attempted,
        "failed": verifier.failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics
        },
    }
    return record, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = ROOT / "src"
    if not (src / "exactrips" / "__init__.py").is_file():
        print(f"error: no exactrips package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    record, result = measure(
        args.workload, args.seed, args.seconds, bool(args.trace), FULL_SIZES[args.workload]
    )
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
