"""Golden digests of the lemma suite's report bytes.

The digests were taken from the digit-tuple implementation, before the
digit strings were packed into integers.  Equal digests mean the suite
draws the same random samples, checks them in the same order and writes
the same bytes.
"""

import hashlib

import pytest

from exactrips.cli import main
from exactrips.harness import run_lemma_suite

GOLDEN = {
    (7, 100, 12): "1923ddf8f360e8b09dc550623cb06be0202b4755b295f7070f04bd7170194fa4",
    (1, 200, 1): "e6348b0109b8de48378e1960b2922f0c641fd83c1aa3173f6330d9f7a24dffe2",
    (2, 150, 3): "53dda1c89ace5dd6c00661318cba8066075184f28970a792532e42f73146775d",
    (3, 120, 2): "17da5e4245ecfa10680b05913d3aa97edbea1f907f51beb0e02b7247313b127a",
    (11, 60, 12): "d1b8a14e497b063f6b753a63fa5583554ef17e82b92115944500a9b3c0ff23f1",
    (2024, 80, 5): "98b11ffef075b16ef669e91ad5bde04c59896f062f2bbae124d70b41652b51c7",
}

CLI_GOLDEN = "577cd9a55cc26d8d0a8b7e879c5d8357df4841d711239fca3f19446976c21770"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("seed,samples,blocks", sorted(GOLDEN))
def test_lemma_report_bytes(seed, samples, blocks):
    report = run_lemma_suite(seed, samples, blocks)
    assert report.passed
    assert _sha256(report.to_json().encode()) == GOLDEN[(seed, samples, blocks)]


def test_verify_lemmas_output_file_bytes(tmp_path):
    out = tmp_path / "report.json"
    argv = ["verify-lemmas", "--blocks", "4", "--samples", "300", "--seed", "5"]
    assert main(argv + ["--out", str(out)]) == 0
    assert _sha256(out.read_bytes()) == CLI_GOLDEN
