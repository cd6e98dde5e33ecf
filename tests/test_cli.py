"""End-to-end CLI runs: file formats, exit codes, determinism."""

import json
import random
import runpy
import sys
import tracemalloc
from fractions import Fraction

import pytest

from exactrips import cli, harness
from exactrips.cli import main
from exactrips.digits import BinaryString, format_rational, json_fields, json_text
from exactrips.harness import DisconnectionError, OpenChainError, default_sheets
from exactrips.homology import betti01
from exactrips.rips import MonotonicityError, build_complex
from exactrips.space import Cloud, CloudConfig, build_cloud, scale_window


def _write_config(tmp_path, **overrides):
    cfg = CloudConfig(
        sheets=(BinaryString((0,)), BinaryString((1,))),
        scale=Fraction(1),
        **overrides,
    )
    path = tmp_path / "cfg.json"
    path.write_text(json_text(json_fields(cfg)))
    return path


def test_build_and_betti(tmp_path):
    cfg = _write_config(tmp_path)
    cloud_path = tmp_path / "cloud.csv"
    assert main(["build", "--config", str(cfg), "--out", str(cloud_path)]) == 0
    cloud = Cloud.from_csv_text(cloud_path.read_text())
    assert len(cloud) == 4

    betti_path = tmp_path / "betti.json"
    assert (
        main(["betti", "--cloud", str(cloud_path), "--scale", "1", "--out", str(betti_path)])
        == 0
    )
    report = json.loads(betti_path.read_text())
    assert report == {
        "scale": "1/1",
        "vertices": 4,
        "edges": 4,
        "triangles": 0,
        "rank_d1": 3,
        "rank_d2": 0,
        "betti0": 1,
        "betti1": 1,
    }


def test_rigid_subcommand(tmp_path):
    cfg = _write_config(tmp_path)
    cloud_path = tmp_path / "cloud.csv"
    main(["build", "--config", str(cfg), "--out", str(cloud_path)])
    out = tmp_path / "rigid.json"
    assert (
        main(["rigid", "--cloud", str(cloud_path), "--scale", "1", "--out", str(out)])
        == 0
    )
    report = json.loads(out.read_text())
    assert report["rigid_count"] == 2
    assert report["freeness"]["ok"] is True
    assert report["diagonal_scale_edges"] == []
    assert {e["x_fiber"] for e in report["edges"]} == {"0/1"}


def test_rigid_negative_scale_exit_code(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    cloud_path = tmp_path / "cloud.csv"
    main(["build", "--config", str(cfg), "--out", str(cloud_path)])
    capsys.readouterr()
    out = tmp_path / "rigid.json"
    argv = ["rigid", "--cloud", str(cloud_path), "--scale", "-1", "--out", str(out)]
    assert main(argv) == 2
    assert not out.exists()
    assert capsys.readouterr().err == "error: scale must be nonnegative\n"


def test_rigid_failure_exit_code(tmp_path):
    # Hand-written cloud with an intruder on the rigid segment, at the
    # first coordinate (1/2) / 118098 its sheet label names.
    cloud_path = tmp_path / "bad.csv"
    cloud_path.write_text(
        "sheet:x=0/1:y=0,0/1,0/1,0/1,0/1\n"
        "cube1,1/1,0/1,0/1,0/1\n"
        "sheet:x=1/2:y=0,1/236196,0/1,0/1,0/1\n"
    )
    out = tmp_path / "rigid.json"
    assert (
        main(["rigid", "--cloud", str(cloud_path), "--scale", "1", "--out", str(out)])
        == 1
    )
    report = json.loads(out.read_text())
    assert not report["freeness"]["ok"]


def test_mislabelled_cloud_exit_code(tmp_path, capsys):
    # The perpendicular pair would count as one rigid edge if the labels
    # were not checked against the first coordinates.
    cloud_path = tmp_path / "mislabelled.csv"
    cloud_path.write_text("cube1,0,0,0,0\nsheet:x=1/2:y=0,1,0,0,0\n")
    out = tmp_path / "rigid.json"
    argv = ["rigid", "--cloud", str(cloud_path), "--scale", "1", "--out", str(out)]
    assert main(argv) == 2
    assert not out.exists()
    assert "label cube1 needs first coordinate 1/1" in capsys.readouterr().err


def test_non_ascii_label_digits_exit_code(tmp_path, capsys):
    # int() reads the Arabic-Indic one as 1; a label takes ASCII digits only.
    cloud_path = tmp_path / "cloud.csv"
    main(["build", "--config", str(_write_config(tmp_path)), "--out", str(cloud_path)])
    text = cloud_path.read_text()
    assert text.count(":y=1,") == 1
    cloud_path.write_text(text.replace(":y=1,", ":y=\u0661,"))
    capsys.readouterr()
    out = tmp_path / "rigid.json"
    argv = ["rigid", "--cloud", str(cloud_path), "--scale", "1", "--out", str(out)]
    assert main(argv) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.count("error: ") == 1
    assert "binary digits must be 0 or 1, got '\u0661'" in err


def _scale_args(command):
    return ["--scales", "1"] if command == "sweep" else ["--scale", "1"]


@pytest.mark.parametrize("command", ["betti", "rigid", "sweep"])
@pytest.mark.parametrize(
    "row, message",
    [
        ("cube0,0,0,0", "cloud row needs label + 4 coordinates: 'cube0,0,0,0'"),
        ("cube2,0,0,0,0", "unrecognised point label 'cube2'"),
    ],
    ids=["four-cells", "unknown-label"],
)
def test_malformed_cloud_row_exit_code(tmp_path, capsys, command, row, message):
    cloud_path = tmp_path / "cloud.csv"
    cloud_path.write_text(f"cube1,1,0,0,0\n{row}\n")
    out = tmp_path / "out.json"
    argv = [command, "--cloud", str(cloud_path), *_scale_args(command), "--out", str(out)]
    assert main(argv) == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["betti", "rigid", "sweep"])
def test_blank_lines_in_a_cloud_are_skipped(tmp_path, command):
    plain = tmp_path / "plain.csv"
    main(["build", "--config", str(_write_config(tmp_path)), "--out", str(plain)])
    first, *rest = plain.read_text().splitlines()
    gappy = tmp_path / "gappy.csv"
    gappy.write_text("\n".join(["", first, "", "   ", *rest, "", ""]))
    reports = []
    for cloud_path in (plain, gappy):
        out = tmp_path / f"{cloud_path.stem}.json"
        argv = [command, "--cloud", str(cloud_path), *_scale_args(command), "--out", str(out)]
        assert main(argv) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["experiment", "--sheets", "0"], "need at least one sheet"),
        (["experiment", "--sheets", "2", "--cube-grid", "-1"], "cube_grid must be nonnegative"),
        (["verify-lemmas", "--blocks", "0"], "blocks must be at least 1"),
    ],
    ids=["no-sheets", "negative-grid", "no-blocks"],
)
def test_out_of_range_argument_exit_code(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_int_quirk_rationals_exit_code(tmp_path, capsys):
    # int() reads "1_0" as 10; the CLI takes ASCII digits only.
    cfg = _write_config(tmp_path)
    cloud_path = tmp_path / "cloud.csv"
    main(["build", "--config", str(cfg), "--out", str(cloud_path)])
    quirky = tmp_path / "quirky.csv"
    quirky.write_text("cube1,1,1_0/1_0,0,0\n")
    capsys.readouterr()
    out = tmp_path / "betti.json"
    for cloud, scale in ((cloud_path, "1_0"), (quirky, "1")):
        argv = ["betti", "--cloud", str(cloud), "--scale", scale, "--out", str(out)]
        assert main(argv) == 2
        assert not out.exists()
        assert "not a rational: '1_0" in capsys.readouterr().err


def test_float_scale_exit_code(tmp_path, capsys):
    # parse_rational refuses decimals before a float could reach the scan.
    out = tmp_path / "rows.csv"
    assert main(["experiment", "--sheets", "2", "--scales", "0.1", "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == "error: not a rational: '0.1'\n"


@pytest.mark.parametrize(
    "extra",
    [
        ["experiment", "--sheets", "1_0", "--blocks", "4"],
        ["experiment", "--sheets", "2", "--blocks", "\uff14"],
        ["experiment", "--sheets", "\u0662", "--blocks", "4"],
        ["experiment", "--sheets", "2", "--blocks", "4", "--cube-grid", "0_1"],
        ["verify-lemmas", "--samples", "1_0"],
        ["verify-lemmas", "--seed", "\uff17"],
        ["verify-lemmas", "--blocks", "1_2"],
    ],
)
def test_int_quirk_integers_exit_code(tmp_path, capsys, extra):
    # int() reads "1_0" as 10 and full-width or Arabic-Indic digits as
    # ASCII ones; the CLI takes ASCII digits only.
    out = tmp_path / "out"
    try:
        code = main(extra + ["--out", str(out)])
    except SystemExit as exc:  # argparse rejects a bad typed option
        code = exc.code
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "error: not an integer: " in err or "invalid parse_int value: " in err


def _raise(exc):
    def raiser(*args, **kwargs):
        raise exc

    return raiser


@pytest.mark.parametrize(
    "exc",
    [
        DisconnectionError("no non-rigid path from vertex 1 to 3"),
        OpenChainError("cycle completion produced an open chain (bug)"),
    ],
)
def test_internal_failure_in_experiment_exit_code(tmp_path, monkeypatch, capsys, exc):
    monkeypatch.setattr(harness, "complete_to_cycle", _raise(exc))
    out = tmp_path / "exp.csv"
    assert main(["experiment", "--sheets", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {type(exc).__name__}: {exc}\n"


def test_internal_failure_in_sweep_exit_code(tmp_path, monkeypatch, capsys):
    cfg = _write_config(tmp_path)
    cloud_path = tmp_path / "cloud.csv"
    main(["build", "--config", str(cfg), "--out", str(cloud_path)])
    capsys.readouterr()
    exc = MonotonicityError("edges at 1/2 not nested in 1")
    monkeypatch.setattr(cli, "sweep", _raise(exc))
    out = tmp_path / "sweep.json"
    argv = ["sweep", "--cloud", str(cloud_path), "--scales", "1", "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: MonotonicityError: edges at 1/2 not nested in 1\n"
    assert "Traceback" not in captured.out + captured.err


def test_rigid_census_of_another_complex_exit_code(tmp_path, monkeypatch, capsys):
    # A census read off a 4-sheet complex, handed to the freeness check of
    # a 2-sheet one: its edges lie past the small complex's vertices.
    cfg = _write_config(tmp_path)
    cloud_path = tmp_path / "cloud.csv"
    main(["build", "--config", str(cfg), "--out", str(cloud_path)])
    capsys.readouterr()
    big = CloudConfig(default_sheets(4), Fraction(1))
    foreign = harness.find_rigid_edges(build_complex(build_cloud(big), Fraction(1)))
    monkeypatch.setattr(cli, "find_rigid_edges", lambda cx: foreign)
    out = tmp_path / "rigid.json"
    argv = ["rigid", "--cloud", str(cloud_path), "--scale", "1", "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: edge ")
    assert "of this complex does not join" in captured.err
    assert "Traceback" not in captured.out + captured.err
    assert not out.exists()


def test_module_entry_point_exits_with_mains_code(tmp_path, monkeypatch, capsys):
    # `python -m exactrips.cli` runs the module as __main__, in this process;
    # a fresh run needs the imported module out of sys.modules first.
    out = tmp_path / "lemmas.json"
    argv = ["exactrips.cli", "verify-lemmas", "--samples", "1", "--blocks", "1", "--out", str(out)]
    monkeypatch.setattr(sys, "argv", argv)
    monkeypatch.delitem(sys.modules, "exactrips.cli")
    with pytest.raises(SystemExit) as exit_:
        runpy.run_module("exactrips.cli", run_name="__main__")
    assert exit_.value.code == 0
    assert capsys.readouterr().out == f"verify-lemmas: pass ({out})\n"
    assert json.loads(out.read_text())["passed"] is True


def test_sweep_subcommand(tmp_path):
    cfg = _write_config(tmp_path, cube_grid=1)
    cloud_path = tmp_path / "cloud.csv"
    main(["build", "--config", str(cfg), "--out", str(cloud_path)])
    out = tmp_path / "sweep.json"
    code = main(
        [
            "sweep",
            "--cloud",
            str(cloud_path),
            "--scales",
            "118097/118098,236195/236196,1",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["scales"] == ["118097/118098", "236195/236196", "1/1"]
    sizes = [len(c["edges"]) for c in payload["complexes"]]
    assert sizes == sorted(sizes)


def _seeded_cloud_and_scales(seed: int):
    """A seeded 3-sheet cloud with cube grid 1, and the window ends plus 6
    seeded scales inside the window: most fall between the same two
    critical values, so most consecutive complexes are equal."""
    rng = random.Random(seed)
    lo, hi = scale_window()
    cfg = CloudConfig(
        sheets=default_sheets(3),
        scale=lo,
        x_values=tuple(Fraction(v, 3**6) for v in rng.sample(range(3**6 + 1), 2)),
        cube_grid=1,
        include_cube0=True,
    )
    inside = {lo + (hi - lo) * Fraction(rng.randrange(1, 1000), 1000) for _ in range(6)}
    return build_cloud(cfg).to_csv_text(), sorted({lo, hi} | inside)


@pytest.mark.parametrize(
    "cloud_text, scales",
    [
        ("cube0,0,0,0,0\ncube0,0,0,0,0\n", [0, 1]),
        ("cube0,0,0,0,0\ncube0,0,0,0,0\ncube1,1,0,0,0\n", [0, 1, 2, 3]),
        _seeded_cloud_and_scales(1),
        _seeded_cloud_and_scales(2),
    ],
    ids=["coincident", "coincident-then-far", "seeded-1", "seeded-2"],
)
def test_sweep_ranks_each_distinct_complex_once(tmp_path, monkeypatch, cloud_text, scales):
    cloud_path, out = tmp_path / "cloud.csv", tmp_path / "sweep.json"
    cloud_path.write_text(cloud_text)
    ranked = []

    def counted_betti01(c):
        ranked.append(c.edges)
        return betti01(c)

    monkeypatch.setattr(cli, "betti01", counted_betti01)
    texts = [format_rational(Fraction(a)) for a in scales]
    argv = ["sweep", "--cloud", str(cloud_path), "--scales", ",".join(texts), "--out", str(out)]
    assert main(argv) == 0
    payload = json.loads(out.read_text())
    edge_sets = [tuple(map(tuple, c["edges"])) for c in payload["complexes"]]
    distinct = [e for k, e in enumerate(edge_sets) if k == 0 or e != edge_sets[k - 1]]
    assert ranked == distinct
    assert len(distinct) == len(set(edge_sets)) < len(scales)
    for text, report in zip(texts, payload["betti"]):
        path = tmp_path / "betti.json"
        assert main(["betti", "--cloud", str(cloud_path), "--scale", text, "--out", str(path)]) == 0
        assert json.loads(path.read_text()) == report


def test_experiment_subcommand_and_determinism(tmp_path):
    out1 = tmp_path / "exp1.csv"
    out2 = tmp_path / "exp2.csv"
    argv = ["experiment", "--sheets", "2,3", "--out", ""]
    for out in (out1, out2):
        argv[-1] = str(out)
        assert main(list(argv)) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().strip().split("\n")
    assert len(lines) == 1 + 2 * 3  # header + counts x default scales
    assert all(line.endswith("pass") for line in lines[1:])


def test_verify_lemmas_subcommand(tmp_path):
    out = tmp_path / "report.json"
    code = main(
        [
            "verify-lemmas",
            "--blocks",
            "4",
            "--samples",
            "50",
            "--seed",
            "7",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert report["fact_pairs"] == 50


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["betti", "--cloud", "nope.csv"])  # missing required args
    assert exc.value.code == 2


def test_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"sheets\": []}")
    assert main(["build", "--config", str(bad), "--out", str(tmp_path / "x.csv")]) == 2
    missing = tmp_path / "missing.json"
    assert main(["build", "--config", str(missing), "--out", str(tmp_path / "x.csv")]) == 2


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"sheets": 5}', "config key 'sheets' must be list: 5"),
        ('{"sheets": [1]}', "config key 'sheets' must list strings: [1]"),
        ("[]", "a cloud config must be a JSON object"),
        ('{"scale": "1"}', "config key 'sheets' must be list: None"),
        ('{"sheets": ["0"], "include_cube0": "false"}', "config key 'include_cube0' must be bool: 'false'"),
        ('{"sheets": ["0"], "include_partners": 1}', "config key 'include_partners' must be bool: 1"),
        ('{"sheets": ["0"], "blocks": 1.9}', "config key 'blocks' must be int: 1.9"),
        ('{"sheets": ["0"], "cube_grid": true}', "config key 'cube_grid' must be int: True"),
        ('{"sheets": ["0"], "x_values": "1/2"}', "config key 'x_values' must be list: '1/2'"),
        ('{"sheets": ["0"], "scale": true}', "config key 'scale' must be str or int: True"),
        (
            '{"sheets": ["0"], "x_values": ["1/2", false]}',
            "config key 'x_values' must list str or int: ['1/2', False]",
        ),
        (
            '{"sheets": ["00", "01", "10"], "blocks": 1}',
            "sheet labels must differ in their first blocks=1 digits "
            "(telling 3 labels apart takes blocks >= 2)",
        ),
        pytest.param(
            '{"sheets": ["\u0660\u0661", "\u0661\u0660"]}',
            "binary digits must be 0 or 1, got '\u0660\u0661'",
            id="arabic-indic-sheets",
        ),
        pytest.param(
            '{"sheets": ["0", "1a"]}',
            "binary digits must be 0 or 1, got '1a'",
            id="letter-sheet",
        ),
        pytest.param(
            # The CLI flag's spelling: before the check, a 4-point cloud
            # without the grid was built and `build` exited 0.
            '{"sheets": ["0", "1"], "scale": "1", "cube-grid": 2, "include_cube0": true}',
            "unknown config keys ['cube-grid']; the keys are sheets, scale, x_values, "
            "blocks, cube_grid, include_cube0, include_partners",
            id="misspelt-key",
        ),
        pytest.param(
            "[" * 200000 + "]" * 200000,
            "config JSON is nested too deeply",
            id="nested-too-deeply",
        ),
    ],
)
def test_malformed_config_exit_code(tmp_path, capsys, text, message):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    out = tmp_path / "x.csv"
    assert main(["build", "--config", str(bad), "--out", str(out)]) == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_experiment_sheets_past_blocks_exit_code(tmp_path, capsys):
    # 257 default labels are 9 bits wide; 8 blocks would merge two sheets.
    out = tmp_path / "x.csv"
    assert main(["experiment", "--sheets", "257", "--out", str(out)]) == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: sheet labels must differ in their first blocks=8 digits "
        "(telling 257 labels apart takes blocks >= 9)\n"
    )


@pytest.mark.parametrize("sheets, scales", [("2", ","), (",", "1"), ("", "")])
def test_experiment_empty_lists_exit_code(tmp_path, capsys, sheets, scales):
    out = tmp_path / "exp.csv"
    argv = ["experiment", "--sheets", sheets, "--scales", scales, "--out", str(out)]
    assert main(argv) == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: need at least one sheet count and one scale\n"


def test_sweep_empty_scales_exit_code(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    cloud_path = tmp_path / "cloud.csv"
    main(["build", "--config", str(cfg), "--out", str(cloud_path)])
    capsys.readouterr()
    out = tmp_path / "sweep.json"
    argv = ["sweep", "--cloud", str(cloud_path), "--scales", ",", "--out", str(out)]
    assert main(argv) == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: no scales given\n"


@pytest.mark.parametrize("size", [0, 5, 2**21, 2**21 + 1, 2**24 + 7])
def test_large_report_is_written_in_slices(tmp_path, size):
    # The text layer encodes each write into a second object, so a report
    # written whole is held twice: the peak inside _write stays under three
    # slices, whatever the report's size.
    text = ("0123456789abcdef" * (size // 16 + 1))[:size]
    path = tmp_path / "report.json"
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        cli._write(str(path), text)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 3 * cli._WRITE_SLICE
    assert path.read_text() == text
