"""Every pinned output: the SHA-256 of each file or text the program
writes for a fixed input, all in one dict, PINS.

A pin's name is `<family>/<key>`, and its family's producer makes the
bytes from the key:

  json/<seed>/<kind>, json/sweep9   JSON writers on small seeded clouds
  lemma/<seed>-<samples>-<blocks>   run_lemma_suite's report
  lemma/verify-lemmas-5-300-4       the verify-lemmas output file
  build/<id>                        build_cloud's CSV text
  cli/<id>                          the output file of CLI_ARGV[id]

Each pin is its own test, run in a fresh working directory.  A changed
output fails with the digest it has now, so a deliberate re-pin is a
one-line change to PINS, which CHANGES.md names with its reason.
"""

import hashlib
import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from exactrips.cli import main
from exactrips.digits import BinaryString, format_rational, json_fields, json_text
from exactrips.harness import default_sheets, run_lemma_suite
from exactrips.rips import build_complex
from exactrips.space import CloudConfig, build_cloud, scale_window

PINS = {
    # The json digests were taken from the ``json.dumps(obj, indent=2,
    # sort_keys=True) + "\\n"`` writers, before the shared ``json_text``
    # writer replaced them.  Equal digests mean the `betti`, `rigid` and
    # `sweep` subcommands, and ``json_text`` on a complex's
    # ``to_json_dict`` and on a config's fields, write the same bytes.
    "json/1/betti": "9e7e31d7e7f0287d698f3afe3331597b41de09577d376e77bdc5d405d0f21260",
    "json/1/complex": "079b966ce4f6fbf2fece9f02cf727b5de9afa7e22b200b213e1f33328d99732d",
    "json/1/config": "c9f556d93b446fd8ee919c8bfe522e24c3c0e43275621fe6f4b718e85d6118e4",
    "json/1/rigid": "6de68dbb25d49f576e22f26bdabcd4681bcc0cef504e5e696e8417fcdc34c5ab",
    "json/1/sweep": "b7693497ab6c99966f79338da85868794c9034ad366c981eb99a4e6f89a3fd24",
    "json/2/betti": "092302b14919f6904cd9d8c2e0faad379ca2b6cbddf009beb011efbf5568f89f",
    "json/2/complex": "6474a3894b7341428108fd528eb04d1ec0d03906dd581b7b7037fed64da4c151",
    "json/2/config": "2796d328073d43ebd9258883b4cc669d1eb02d0ebbf05a48a4421a98affb36e8",
    "json/2/rigid": "5314a595dd43d0a2a74f6e334d6b02e53b509da949549e865b4358f962f8b3dd",
    "json/2/sweep": "bf4b400b08f8fe412d443fa5435bc3f9516cc90fa52ac4606fe689c9aaa79818",
    "json/3/betti": "242c6e4365891016a7219ef6ffb7fcbd014f59b41c4580b77409030afd98d2ac",
    "json/3/complex": "2998a7448cdc9fb9f88e17a70e6ce7bb4ee6f9d833925ff1c42c615746d15f91",
    "json/3/config": "2608c6e1928b2e8cc04ecfb59fc72a9836747a33568d0e2e5938e882f3287fc7",
    "json/3/rigid": "d6acca18a209eb15e8e1c36c0920b7f34bf8db22f41add26995a88304988d5eb",
    "json/3/sweep": "abb9b9582e45c4abce66f700eb9b46e577c6ea9ea3239dbada021468efa163f8",
    # Seed 1's `sweep` at the window ends and the 7 interior eighths of the
    # window, taken before sweeps reused repeated row runs and Betti numbers:
    # its first eight complexes are equal.
    "json/sweep9": "5fe9f40d95bfbb773d1cc3478eb7b30729c8996fb6e0cb4b47c6423c4220fade",
    # The lemma digests were taken from the digit-tuple implementation,
    # before the digit strings were packed into integers, the 50-block one
    # from the per-digit randrange draw, before digits were drawn a batch of
    # words at a time, and the 42- and 43-block ones from the generator's
    # own randint and getrandbits calls, before the suite read its words
    # from a bulk buffer.  Equal digests mean the suite draws the same
    # random samples, checks them in the same order and writes the same
    # bytes.
    "lemma/7-100-12": "1923ddf8f360e8b09dc550623cb06be0202b4755b295f7070f04bd7170194fa4",
    "lemma/1-200-1": "e6348b0109b8de48378e1960b2922f0c641fd83c1aa3173f6330d9f7a24dffe2",
    "lemma/2-150-3": "53dda1c89ace5dd6c00661318cba8066075184f28970a792532e42f73146775d",
    "lemma/3-120-2": "17da5e4245ecfa10680b05913d3aa97edbea1f907f51beb0e02b7247313b127a",
    "lemma/11-60-12": "d1b8a14e497b063f6b753a63fa5583554ef17e82b92115944500a9b3c0ff23f1",
    "lemma/2024-80-5": "98b11ffef075b16ef669e91ad5bde04c59896f062f2bbae124d70b41652b51c7",
    # t depths up to 300 digits: single draws of over 8,000 random bits,
    # and first_difference on depths past its 256-entry power table.
    "lemma/5-40-50": "79b9e1a995c9b513cfd12fbfe32ab137df75e28f8f6475f88c4560cc9406c806",
    # 6*blocks = 252 and 258: the t depth draw randint(1, 6*blocks) keeps
    # 8 and then 9 bits of its word, past the word's top byte.
    "lemma/3-30-42": "0cdbf3c5ebacc1a33ca5f71eb534946753770da8fea0e1b3dc2cfc8a25bdaf00",
    "lemma/3-30-43": "9ca22f4e3df27869e7448afe997d447c4c8aadd4baca77bf0199e50bb5a907f2",
    "lemma/verify-lemmas-5-300-4": "577cd9a55cc26d8d0a8b7e879c5d8357df4841d711239fca3f19446976c21770",
    # SHA-256 of Cloud.to_csv_text(), written by the per-label route, before
    # build_cloud expanded each x once for every sheet label.
    "build/A-eight-sheets-five-x": "f4961c2d2eef20e585910fc0da2b335a7840a8b77ba9050d840319cf0e479304",
    "build/B-uneven-labels": "b9b23e3605f17a8a0b62da0c814e2f34f2441358bf15ba3ebea0c17c28a4180c",
    # The cli digests were checked with sha256sum on CI's Python 3.11 leg
    # from the change that added each one until they moved here.
    "cli/e256": "5d9ee74a8246c95c15150c0f6f97742a24d95d48193573fd3f6a3b97be8d29a1",
    "cli/e64": "2821f30d366b21d91184d05bfa093aaa02eb20936c0e5459ea502403594b7efb",
    "cli/e1024": "0ae1e934fdb07d71c7d4be8bfeeedea6dab9e202f42ba05b9c4bc809e5a2d4da",
    "cli/e8g6": "0dbd3c090b8c2c69dd45d225e0c2f4c356fc808fc06feb9bcd0e5e1203e3880f",
    "cli/g3-sweep": "5a525f12ad339c0fa89ad9714c89642b2558edbe2721e38d31c3b0e69cabe1d5",
    "cli/g3-sweep9": "bb941b976866376daac3c0dd228322489f11ebed2fe45b212e20a293e1ce7388",
    "cli/g3-betti": "f9c95f92070d4e1d35b09de1e9fa8b726e496f41d4dfacfa03384486bce75c3d",
    "cli/g3-rigid": "56c5406991fa6813d7738c34b41395c127dfb40b137913398e1c5f8737e3dd36",
    "cli/lemmas-7-10000-12": "8806a30bbf67dfa73f28a271a65472f846090312a02b12bf87077bc629609f48",
}


def run_cli(argv: list[str]) -> bytes:
    """The bytes `main(argv)` writes to its --out file; it must exit 0."""
    assert main([*argv, "--out", "out"]) == 0, argv
    return Path("out").read_bytes()


def seeded_config(seed: int) -> CloudConfig:
    """2-4 sheets, two seeded x values, partners at the lower window end,
    cube grid 1 on both slabs: 20-32 points."""
    rng = random.Random(seed)
    lo, _ = scale_window()
    return CloudConfig(
        sheets=default_sheets(rng.randint(2, 4)),
        scale=lo,
        x_values=tuple(Fraction(v, 3**6) for v in rng.sample(range(3**6 + 1), 2)),
        cube_grid=1,
        include_cube0=True,
    )


def json_bytes(key: str) -> bytes:
    """`<seed>/<kind>`: the config, the complex at the window's midpoint,
    or a `betti`, `rigid` or `sweep` report on the seeded cloud;
    `sweep9`: seed 1's sweep over the window ends and its 7 interior
    eighths."""
    seed, _, kind = key.rpartition("/")
    cfg = seeded_config(int(seed or 1))  # sweep9 has no seed part: seed 1
    cloud = build_cloud(cfg)
    lo, hi = scale_window()
    mid = (lo + hi) / 2
    if kind == "config":
        return json_text(json_fields(cfg)).encode()
    if kind == "complex":
        return json_text(build_complex(cloud, mid).to_json_dict()).encode()
    Path("cloud.csv").write_text(cloud.to_csv_text())
    command, *options = {
        "betti": ["betti", "--scale", format_rational(mid)],
        "rigid": ["rigid", "--scale", format_rational(lo)],
        "sweep": ["sweep", "--scales", ",".join(format_rational(a) for a in (lo, mid, hi))],
        "sweep9": [
            "sweep",
            "--scales",
            ",".join(format_rational(lo + (hi - lo) * k / 8) for k in range(9)),
        ],
    }[kind]
    return run_cli([command, "--cloud", "cloud.csv", *options])


def lemma_bytes(key: str) -> bytes:
    """`<seed>-<samples>-<blocks>`: the suite's report, which must pass;
    `verify-lemmas-5-300-4`: the file `verify-lemmas` writes."""
    if key == "verify-lemmas-5-300-4":
        return run_cli(["verify-lemmas", "--blocks", "4", "--samples", "300", "--seed", "5"])
    seed, samples, blocks = map(int, key.split("-"))
    report = run_lemma_suite(seed, samples, blocks)
    assert report.passed
    return report.to_json().encode()


def _labels(*texts):
    return tuple(BinaryString.from_text(s) for s in texts)


BUILD_CONFIGS = {
    # x = 1/2 is the fiber x_a of this scale: its sheet points merge.
    "A-eight-sheets-five-x": CloudConfig(
        sheets=_labels(*(format(v, "03b") for v in range(8))),
        scale=Fraction(236195, 236196),
        x_values=(Fraction(1, 2), Fraction(1), Fraction(0), Fraction(2, 3), Fraction(5, 7)),
        blocks=8,
        cube_grid=2,
        include_cube0=True,
    ),
    "B-uneven-labels": CloudConfig(
        sheets=_labels("0", "1", "01", "011", "0011"),
        scale=Fraction(118097, 118098),
        x_values=(Fraction(1, 3), Fraction(7, 729)),
        blocks=3,
        cube_grid=1,
    ),
}


def build_bytes(key: str) -> bytes:
    return build_cloud(BUILD_CONFIGS[key]).to_csv_text().encode()


# Cube grid 3 plus cube0, 8 sheets, 4 x values: 176 vertices, so vertex
# indices reach three digits.
G3_CONFIG = {
    "sheets": ["000", "001", "010", "011", "100", "101", "110", "111"],
    "scale": "118097/118098",
    "x_values": ["1/5", "2/5", "3/5", "4/5"],
    "cube_grid": 3,
    "include_cube0": True,
}

CLI_ARGV = {
    "e256": ["experiment", "--sheets", "256", "--scales", "236195/236196"],
    # 192 minimal rows: fibers 0, 1/2 and 1.
    "e64": ["experiment", "--sheets", ",".join(str(n) for n in range(1, 65))],
    "e1024": ["experiment", "--sheets", "1024", "--blocks", "10", "--scales", "236195/236196"],
    # The witness pack here is shifted by the cube0 and grid points.
    "e8g6": [
        "experiment", "--sheets", "8", "--scales", "236195/236196",
        "--cube-grid", "6", "--include-cube0",
    ],
    "g3-sweep": ["sweep", "--cloud", "g3.csv", "--scales", "118097/118098,236195/236196,1"],
    # 9 scales, the window ends and its 7 interior eighths: 4 distinct
    # complexes, so most rows and Betti numbers repeat the scale below.
    "g3-sweep9": [
        "sweep", "--cloud", "g3.csv", "--scales",
        "118097/118098,944777/944784,157463/157464,944779/944784,236195/236196,"
        "314927/314928,472391/472392,944783/944784,1",
    ],
    # Rigid edges at four-digit edge indices (2428-2969), and d2 columns
    # of the collapse survivors.
    "g3-betti": ["betti", "--cloud", "g3.csv", "--scale", "236195/236196"],
    "g3-rigid": ["rigid", "--cloud", "g3.csv", "--scale", "118097/118098"],
    # The README-size suite.
    "lemmas-7-10000-12": ["verify-lemmas", "--blocks", "12", "--samples", "10000", "--seed", "7"],
}


def cli_bytes(key: str) -> bytes:
    """The output file of CLI_ARGV[key]; a `g3-` run first builds g3.csv
    from G3_CONFIG with `build`."""
    if key.startswith("g3-"):
        Path("g3.json").write_text(json.dumps(G3_CONFIG))
        assert main(["build", "--config", "g3.json", "--out", "g3.csv"]) == 0
    return run_cli(CLI_ARGV[key])


PRODUCERS = {"json": json_bytes, "lemma": lemma_bytes, "build": build_bytes, "cli": cli_bytes}


@pytest.mark.parametrize("name", list(PINS))
def test_pin(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    family, _, key = name.partition("/")
    assert hashlib.sha256(PRODUCERS[family](key)).hexdigest() == PINS[name]


def test_every_digest_is_pinned_here():
    here = Path(__file__)
    digest = re.compile(r"\b[0-9a-f]{64}\b", re.IGNORECASE)
    holders = [
        path.name
        for path in sorted(here.parent.glob("*.py"))
        if path != here and digest.search(path.read_text(encoding="utf-8"))
    ]
    assert holders == []
    ci = here.parent.parent / ".github" / "workflows" / "ci.yml"
    assert "sha256sum" not in ci.read_text(encoding="utf-8")
