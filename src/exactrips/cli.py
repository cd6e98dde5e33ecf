"""Command line interface.

Subcommands mirror the pipeline stages: verify-lemmas, build, betti,
rigid, experiment, sweep.  Rationals are written "num/den" everywhere
(bare integers accepted on input).  JSON reports all come from the one
writer digits.json_text, which joins one shared list of pieces once into
the bytes json.dumps(obj, indent=2, sort_keys=True) writes.  Records (lemma
and fact reports, rigid edges) are written from their fields by
digits.json_fields.  Exit codes:

  0  all checks pass
  1  a mathematical check failed (counterexample in the report; a lemma
     sample whose image does not decode is one such failure)
  2  usage or config error, or an internal failure (a complex sweep that
     is not nested, rigid edges with no non-rigid path between them, a
     completed cycle that is not closed), reported on one stderr line as
     "error: <ExceptionClass>: <message>"
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .digits import format_rational, json_fields, parse_int, parse_rational
# _json_text is looked up at call time; perfbench --trace 1 patches it.
from .digits import json_text as _json_text
from .harness import (
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    DEFAULT_SUITE_BLOCKS,
    DisconnectionError,
    OpenChainError,
    assert_rigid_free,
    find_rigid_edges,
    run_lemma_suite,
    theorem_experiment,
)
# boundary1/2 and rank_f2 are unused here; perfbench --trace 1 patches them.
from .homology import betti01, boundary1, boundary2, rank_f2
from .rips import MonotonicityError, build_complex, sweep
from .space import Cloud, CloudConfig, DEFAULT_BLOCKS, DEFAULT_SCALES, build_cloud

__all__ = ["main"]


# Characters per write: the text layer encodes each write into a second
# object, so a report larger than this is written in slices of it.
_WRITE_SLICE = 2**21


def _write(path: str, text: str) -> None:
    with open(path, "w") as f:
        for start in range(0, len(text), _WRITE_SLICE):
            f.write(text[start : start + _WRITE_SLICE])


def _load_cloud(path: str) -> Cloud:
    return Cloud.from_csv_text(Path(path).read_text())


def _rational_list(text: str):
    return [parse_rational(part) for part in text.split(",") if part.strip()]


def _betti_report(cx, betti: tuple[int, int]) -> dict:
    b0, b1 = betti  # the full complex's ranks follow from its Betti numbers
    r1 = cx.n_vertices - b0
    return {
        "scale": format_rational(cx.scale),
        "vertices": cx.n_vertices,
        "edges": len(cx.edges),
        "triangles": cx.n_triangles,
        "rank_d1": r1,
        "rank_d2": len(cx.edges) - r1 - b1,
        "betti0": b0,
        "betti1": b1,
    }


def _cmd_verify_lemmas(args) -> int:
    report = run_lemma_suite(seed=args.seed, samples=args.samples, blocks=args.blocks)
    _write(args.out, report.to_json())
    print(f"verify-lemmas: {'pass' if report.passed else 'FAIL'} ({args.out})")
    return 0 if report.passed else 1


def _cmd_build(args) -> int:
    cfg = CloudConfig.from_json(Path(args.config).read_text())
    cloud = build_cloud(cfg)
    _write(args.out, cloud.to_csv_text())
    print(f"build: {len(cloud)} points ({args.out})")
    return 0


def _cmd_betti(args) -> int:
    cloud = _load_cloud(args.cloud)
    cx = build_complex(cloud, parse_rational(args.scale))
    report = _betti_report(cx, betti01(cx))
    _write(args.out, _json_text(report))
    print(f"betti: b0={report['betti0']} b1={report['betti1']} ({args.out})")
    return 0


def _cmd_rigid(args) -> int:
    cloud = _load_cloud(args.cloud)
    cx = build_complex(cloud, parse_rational(args.scale))
    rigid = find_rigid_edges(cx)
    free = assert_rigid_free(cx, rigid)
    report = {
        "scale": format_rational(cx.scale),
        "rigid_count": len(rigid),
        "edges": [json_fields(r) for r in rigid],
        "diagonal_scale_edges": cx.scale_edges.diagonal,
        "freeness": free.to_json_dict(),
    }
    _write(args.out, _json_text(report))
    print(f"rigid: {len(rigid)} edges, free={free.ok} ({args.out})")
    return 0 if free.ok else 1


def _cmd_experiment(args) -> int:
    report = theorem_experiment(
        sheet_counts=[parse_int(s) for s in args.sheets.split(",") if s.strip()],
        scales=_rational_list(args.scales),
        blocks=args.blocks,
        cube_grid=args.cube_grid,
        include_cube0=args.include_cube0,
    )
    _write(args.out, report.to_csv_text())
    verdict = "pass" if report.all_pass else "FAIL"
    print(f"experiment: {len(report.rows)} rows, {verdict} ({args.out})")
    return 0 if report.all_pass else 1


def _cmd_sweep(args) -> int:
    """Nested complexes at ascending scales.  Equal ones can only be
    neighbours, so betti01 ranks each distinct edge tuple once; json_text
    builds each repeated row run's text once."""
    cloud = _load_cloud(args.cloud)
    complexes = sweep(cloud, _rational_list(args.scales))
    reports, edges = [], None
    for c in complexes:
        if c.edges != edges:
            edges, betti = c.edges, betti01(c)
        reports.append(_betti_report(c, betti))
    payload = {
        "scales": [format_rational(c.scale) for c in complexes],
        "complexes": [c.to_json_dict() for c in complexes],
        "betti": reports,
    }
    _write(args.out, _json_text(payload))
    print(f"sweep: {len(complexes)} scales ({args.out})")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exactrips",
        description="Exact-arithmetic Rips homology over the 4-D sheet construction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-lemmas", help="randomized exact lemma checks")
    p.add_argument("--blocks", type=parse_int, default=DEFAULT_SUITE_BLOCKS)
    p.add_argument("--samples", type=parse_int, default=DEFAULT_SAMPLES)
    p.add_argument("--seed", type=parse_int, default=DEFAULT_SEED)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_verify_lemmas)

    p = sub.add_parser("build", help="sample a cloud from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("betti", help="Betti numbers of Rips(cloud, scale)")
    p.add_argument("--cloud", required=True)
    p.add_argument("--scale", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_betti)

    p = sub.add_parser("rigid", help="rigid-edge census and triangle-freeness")
    p.add_argument("--cloud", required=True)
    p.add_argument("--scale", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_rigid)

    p = sub.add_parser("experiment", help="Betti growth over sheet counts and scales")
    p.add_argument("--sheets", required=True, help="comma-separated ascending counts")
    p.add_argument(
        "--scales",
        default=",".join(format_rational(a) for a in DEFAULT_SCALES),
        help="comma-separated rationals in the window",
    )
    p.add_argument("--blocks", type=parse_int, default=DEFAULT_BLOCKS)
    p.add_argument("--cube-grid", dest="cube_grid", type=parse_int, default=0)
    p.add_argument("--include-cube0", dest="include_cube0", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("sweep", help="nested complexes at ascending scales")
    p.add_argument("--cloud", required=True)
    p.add_argument("--scales", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MonotonicityError, DisconnectionError, OpenChainError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
