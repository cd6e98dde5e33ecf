"""Acceptance gate: every criterion at its stated size and tolerance.

All tolerances are zero: integer equality or exact rational comparison.
Each test ends by printing a single pass line (visible with pytest -s);
a failed assertion is the fail line.
"""

import random
from fractions import Fraction

from exactrips.cli import main as cli_main
from exactrips.digits import BinaryString, TernaryString
from exactrips.embedding import IManyPoint, decode, embed_strings
from exactrips.harness import (
    assert_rigid_free,
    complete_to_cycle,
    find_rigid_edges,
    minimal_config,
    run_lemma_suite,
)
from exactrips.homology import (
    SparseF2Matrix,
    betti01,
    rank_f2,
    rigid_rank_lower_bound,
)
from exactrips.rips import build_complex, build_edges, sq_dist, sweep
from exactrips.space import (
    CloudConfig,
    build_cloud,
    circle_above_parabola,
    second_neighbor_witness,
)

from oracles import betti_bruteforce, component_count, dense_rank_f2, random_cloud

TEST_SCALES = (
    Fraction(1),
    Fraction(236195, 236196),
    Fraction(118097, 118098),
)
SHEET_COUNTS = (2, 3, 5, 8, 13)


def _minimal(n, a):
    cloud = build_cloud(minimal_config(n, a))
    return cloud, build_complex(cloud, a)


def test_criterion_01_minimal_betti_law():
    for n in SHEET_COUNTS:
        for a in TEST_SCALES:
            cloud, cx = _minimal(n, a)
            b0, b1 = betti01(cx)
            assert b0 == 1, (n, a, b0)
            assert b1 == n - 1, (n, a, b1)
            if n <= 5:
                assert betti_bruteforce(cloud, a) == (b0, b1)
    print("ACCEPTANCE 1 minimal-configuration Betti law: PASS")


def test_criterion_02_rigid_edge_census():
    for n in SHEET_COUNTS:
        for a in TEST_SCALES:
            _, cx = _minimal(n, a)
            rigid = find_rigid_edges(cx)
            assert len(rigid) == n, (n, a)
            report = assert_rigid_free(cx, rigid)
            assert report.ok, (n, a, report)
            for r in rigid:
                partner = cx.cloud.points[r.partner_vertex]
                assert second_neighbor_witness(partner, cx.cloud, a) == []
    print("ACCEPTANCE 2 rigid-edge census and freeness: PASS")


def test_criterion_03_rank_lower_bound():
    for n in SHEET_COUNTS:
        for a in TEST_SCALES:
            _, cx = _minimal(n, a)
            rigid = find_rigid_edges(cx)
            cycles = [
                complete_to_cycle(rigid[0], rigid[k], cx) for k in range(1, n)
            ]
            lb = rigid_rank_lower_bound(cx, [r.edge_index for r in rigid], cycles)
            _, b1 = betti01(cx)
            assert lb == n - 1, (n, a, lb)
            assert lb <= b1
    print("ACCEPTANCE 3 rigid rank lower bound: PASS")


def test_criterion_04_lemma1_property_suite():
    report = run_lemma_suite(seed=7, samples=10_000, blocks=12)
    assert report.fact_pairs == 10_000
    assert report.fact_failures == ()
    assert report.mechanism_failures == ()
    assert report.close_expanding_ok
    assert report.close_expanding_counterexample is None
    assert report.passed
    print("ACCEPTANCE 4 close-expanding fact suite (10^4 pairs, blocks=12): PASS")


def test_criterion_05_injectivity_round_trips():
    rng = random.Random(11)
    for blocks in (4, 8, 12):
        for _ in range(1000):
            tdepth = rng.randint(1, 6 * blocks)
            ydepth = rng.randint(0, blocks)
            p = IManyPoint.from_digits(
                TernaryString(tuple(rng.randrange(3) for _ in range(tdepth))),
                BinaryString(tuple(rng.randrange(2) for _ in range(ydepth))),
            )
            strings = embed_strings(p, blocks)
            for s in strings:
                assert all(s.digits[3 * k + 2] != 2 for k in range(blocks))
            t_back, y_back = decode(strings, blocks)
            assert t_back == p.t.padded(6 * blocks)
            assert y_back.digits == tuple(p.y.digit(k) for k in range(blocks))
    print("ACCEPTANCE 5 decode/embed identity (10^3 x blocks 4,8,12): PASS")


def test_criterion_06_circle_above_parabola_grid():
    checks = 0
    for r in (Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(2)):
        for k in range(32):
            x = -r + 2 * r * Fraction(k, 31)
            assert circle_above_parabola(r, x)
            checks += 1
    assert checks == 128
    print("ACCEPTANCE 6 circle-above-parabola grid (4 x 32): PASS")


def test_criterion_07_homology_engine_oracles():
    rng = random.Random(13)
    for _ in range(100):
        cloud = random_cloud(rng, 10)
        a = Fraction(rng.randint(0, 8), rng.randint(1, 3))
        cx = build_complex(cloud, a)
        fast = betti01(cx)
        assert fast == betti_bruteforce(cloud, a)
        assert fast[0] == component_count(len(cloud.points), cx.edges)
    for _ in range(100):
        dense = [[rng.randrange(2) for _ in range(20)] for _ in range(20)]
        cols = tuple(tuple(r for r in range(20) if dense[r][c]) for c in range(20))
        assert rank_f2(SparseF2Matrix(nrows=20, ncols=20, columns=cols)) == dense_rank_f2(dense)
    print("ACCEPTANCE 7 homology engine vs brute-force/union-find/dense oracles: PASS")


def test_criterion_08_rips_threshold_and_nesting():
    a = Fraction(118097, 118098)
    cfg = minimal_config(2, a)
    cloud = build_cloud(cfg)
    at = set(build_edges(cloud, a))
    below = set(build_edges(cloud, a - Fraction(1, 10**30)))
    removed = at - below
    assert removed == {
        e for e in at if sq_dist(cloud.points[e[0]], cloud.points[e[1]]) == a * a
    }
    assert len(removed) == 2
    scales = [a + (1 - a) * Fraction(k, 4) for k in range(5)]
    complexes = sweep(cloud, scales)  # raises on any nesting violation
    for prev, nxt in zip(complexes, complexes[1:]):
        assert set(prev.edges) <= set(nxt.edges)
        assert set(prev.triangles) <= set(nxt.triangles)
    print("ACCEPTANCE 8 inclusive threshold and 5-scale window nesting: PASS")


def test_criterion_09_betti_growth_per_sheet():
    a = Fraction(236195, 236196)
    prev = None
    for n in range(1, 33):
        _, cx = _minimal(n, a)
        _, b1 = betti01(cx)
        if prev is None:
            assert b1 == 0
        else:
            assert b1 - prev == 1, (n, b1, prev)
        prev = b1
    assert prev == 31
    print("ACCEPTANCE 9 beta1 grows by one per sheet (n=1..32): PASS")


def test_criterion_10_determinism(tmp_path):
    outs = []
    for tag in ("a", "b"):
        csv_path = tmp_path / f"exp_{tag}.csv"
        json_path = tmp_path / f"lemmas_{tag}.json"
        assert (
            cli_main(
                ["experiment", "--sheets", "2,3,5", "--out", str(csv_path)]
            )
            == 0
        )
        assert (
            cli_main(
                [
                    "verify-lemmas",
                    "--samples",
                    "100",
                    "--blocks",
                    "6",
                    "--seed",
                    "7",
                    "--out",
                    str(json_path),
                ]
            )
            == 0
        )
        outs.append((csv_path.read_bytes(), json_path.read_bytes()))
    assert outs[0] == outs[1]
    print("ACCEPTANCE 10 byte-identical repeated runs: PASS")
