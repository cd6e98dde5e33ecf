"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench

Every workload, untraced and traced, must emit every metric BENCHMARK.json
names, with its unit, and pass its correctness checks; every kind of check
must count its violations as failed ops.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import speed  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED, FULL_SIZES, TINY_SIZES, WORKLOADS, Batch, instrument,
)

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_emits_every_metric(name, trace):
    record, result = run.measure(name, 3, 0, trace, TINY_SIZES[name])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert record["sha256"] and record["counts"] and not record["problems"]
    assert record["environment"]["python"] and record["sizes"] == TINY_SIZES[name]
    if trace:
        assert record["traced_batch_s"]
    else:
        assert result["metrics"]["pass_frac"]["value"] == 1.0
        assert result["metrics"]["verify_s"]["value"] > 0


def test_seed_changes_inputs_deterministically():
    rec_a, _ = run.measure("growth", 3, 0, False, TINY_SIZES["growth"])
    rec_b, _ = run.measure("growth", 3, 0, False, TINY_SIZES["growth"])
    rec_c, _ = run.measure("growth", 4, 0, False, TINY_SIZES["growth"])
    assert rec_a["sha256"] == rec_b["sha256"] != rec_c["sha256"]
    assert rec_a["counts"] == rec_b["counts"]


class _Stub:
    name = "growth"

    def counts(self, output):
        return {"out_bytes": len(output)}


def test_verifier_counts_every_violation(tmp_path):
    v = run.Verifier(_Stub(), seed=3, sizes={}, workdir=tmp_path)
    v.check(Batch(b"a", [1.0, 1.0], [True, True]), 2)
    v.check(Batch(b"a", [1.0, 1.0], [True, False]), 2)  # an op broke an invariant
    v.check(Batch(b"b", [1.0, 1.0], [True, True]), 2)  # output differs from the first
    v.check(None, 2)  # the batch raised
    v.check(Batch(b"a", [1.0, 1.0], [True, True]), 2, {"out_bytes": 5})
    v.check(Batch(b"a", [1.0, 1.0], [True, True]), 2, {"out_bytes": 6})  # counts moved
    assert (v.attempted, v.failed) == (12, 7)
    v.finish()  # the output has 1 byte, the traced batches counted 5
    assert (v.attempted, v.failed) == (12, 11)
    assert len(v.problems) == 5


def test_verifier_checks_expected_output_at_default_seed(tmp_path):
    v = run.Verifier(_Stub(), seed=DEFAULT_SEED, sizes=FULL_SIZES["growth"], workdir=tmp_path)
    assert v.expected is not None
    v.check(Batch(b"not the growth csv", [1.0], [True]), 1)
    v.check(Batch(b"not the growth csv", [1.0], [True]), 1)
    assert v.failed == 0
    v.finish()
    assert v.failed == 2


def test_timed_returns_the_result_and_both_times():
    result, wall_s, ref_s = speed.timed(sum, range(10**5))
    assert result == sum(range(10**5))
    assert wall_s > 0 and ref_s > 0
    assert speed.calibration_s() > 0


def test_traced_batch_makes_the_same_call(tmp_path):
    """instrument only wraps module globals: the traced output is the untraced
    output, and every wrapped global is restored afterwards."""
    ex = run.Modules(HERE.parent / "src")
    before = {(m, k): v for m in run.MODULES for k, v in vars(getattr(ex, m)).items()}
    for name, workload in WORKLOADS.items():
        inputs = workload.setup(ex, 3, TINY_SIZES[name], tmp_path)
        plain = workload.run(ex, inputs)
        tr = Tracer()
        with instrument(ex, tr):
            traced = workload.run(ex, inputs)
        assert traced.output == plain.output
        assert tr.self_s and tr.counts
    after = {(m, k): v for m in run.MODULES for k, v in vars(getattr(ex, m)).items()}
    assert after == before


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = json.loads((tmp_path / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [sys.executable, *cmd[1:], "--workload", "growth", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
