"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Every numeric comparison is an exact rational equality or inequality
(tolerance zero).  Ground truth comes from the brute-force oracles; the
seeded families are deterministic, so every run checks the same instances.
Run with ``pytest -s tests/test_acceptance.py`` to see the summary lines.
"""

import subprocess
import sys
import time
from fractions import Fraction
import pytest

from kinterdict.dual import (
    dual_breakpoints,
    dual_vertex_candidates,
    exact_fractional_optimum,
)
from kinterdict.fptas import (
    GeometricGrid,
    accept_level,
    approx_fractional_optimum,
    approx_interdiction,
    rounded_profit_units,
    search_optimum_guess,
    split_accuracy,
)
from kinterdict.generator import SplitMix64, generate_instance
from kinterdict.instance import InterdictionVector, preprocess, serialize_instance
from kinterdict.nominal import fractional_knapsack
from kinterdict.oracles import (
    best_integer_packing,
    brute_force_opt_f,
    brute_force_opt_i,
    oracle_report,
)

from conftest import (
    T1,
    T2,
    all_interdictions,
    alpha_of,
    ceil_div,
    dot_capacity,
    dual_point,
    edge_family,
    family,
    random_rat,
    surviving_reduced_profit,
)


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def xvec(inst, bits):
    return InterdictionVector.from_bits(bits, inst.c)


@pytest.fixture(scope="module")
def family_single():
    """500 seeded instances, n <= 10, t = 1, values <= 20, with exact opt."""
    insts = family(seed=1001, count=500, n_lo=0, n_hi=10, pmax=20, wmax=20, cmax=20)
    return [(inst, exact_fractional_optimum(inst)[0]) for inst in insts]


def test_criterion_1_dual_decomposition_exactness(family_single):
    start = time.time()
    checked = 0
    for inst, exact_value in family_single:
        oracle_value, _ = brute_force_opt_f(inst)
        assert exact_value == oracle_value, f"mismatch on n={inst.n}"
        checked += 1
    elapsed = time.time() - start
    _report(
        "C1 dual-decomposition exactness",
        checked >= 500 and elapsed < 60,
        f"{checked} instances exact, {elapsed:.1f}s",
    )


def test_criterion_2_fptas_guarantee(family_single):
    start = time.time()
    checked = 0
    for inst, opt in family_single:
        for eps in (Fraction(2), Fraction(1), Fraction(1, 2), Fraction(1, 10)):
            sol = approx_fractional_optimum(inst, eps)
            assert sol.f_value <= (1 + eps) * opt, f"envelope broken at eps={eps}"
            if sol.z_star is not None:
                assert sol.z_star <= (1 + split_accuracy(eps)) * opt
            checked += 1
    elapsed = time.time() - start
    _report(
        "C2 FPTAS (1+eps) guarantee",
        checked >= 2000 and elapsed < 300,
        f"{checked} solves within envelope, {elapsed:.1f}s",
    )


def test_criterion_3_two_plus_eps_guarantee():
    start = time.time()
    insts = family(
        seed=1003, count=200, n_lo=4, n_hi=14, pmax=12, wmax=8, cmax=9,
        budget_frac=Fraction(2, 5), cap_frac=Fraction(2, 5),
    )
    checked = 0
    for inst in insts:
        opt_i, _ = brute_force_opt_i(inst)
        for eps in (Fraction(1), Fraction(1, 2)):
            sol = approx_interdiction(inst, eps)
            k = best_integer_packing(inst, xvec(inst, sol.x))
            assert k <= (2 + eps) * opt_i, f"2+eps broken at eps={eps}, n={inst.n}"
            checked += 1
    elapsed = time.time() - start
    _report(
        "C3 (2+eps) interdiction guarantee",
        checked >= 400 and elapsed < 300,
        f"{checked} solves on {len(insts)} instances, {elapsed:.1f}s",
    )


def test_criterion_4_sandwich_and_additive_bounds():
    start = time.time()
    insts = (
        [T1, T2]
        + family(seed=1004, count=120, n_lo=0, n_hi=10)
        + family(seed=1005, count=50, n_lo=0, n_hi=6, t=2, wmax=8)
        + edge_family(seed=1006, count=40, n_hi=7)
    )
    violations = 0
    for inst in insts:
        rep = oracle_report(inst)
        if not (rep.opt_i <= rep.opt_f):
            violations += 1
        if inst.t == 1 and not (rep.opt_f <= 2 * rep.opt_i or rep.opt_i == 0):
            violations += 1
        if not (rep.opt_f <= (1 + inst.t) * rep.opt_i or rep.opt_i == 0):
            violations += 1
        if not (rep.opt_i >= rep.opt_f - rep.p_star):
            violations += 1
    elapsed = time.time() - start
    _report(
        "C4 sandwich and additive bounds",
        violations == 0,
        f"{len(insts)} instances, {violations} violations, {elapsed:.1f}s",
    )


def test_criterion_5_candidate_completeness():
    start = time.time()
    insts = (
        [T1]
        + family(seed=1010, count=15, n_lo=0, n_hi=8, pmax=12, wmax=12)
        + edge_family(seed=1011, count=15, n_hi=8)
    )
    checked = 0
    for inst in insts:
        points = list(dual_breakpoints(inst))
        values = [alpha_of(pt)[0] for pt in points]
        mids = [dual_point((a + b) / 2) for a, b in zip(values, values[1:])]
        for x in all_interdictions(inst):
            f = fractional_knapsack(inst, x).value
            best = min(
                dot_capacity(inst, pt) + surviving_reduced_profit(inst, x, pt)
                for pt in points
            )
            assert best == f, "candidate minimum missed F(x)"
            assert all(
                dot_capacity(inst, pt) + surviving_reduced_profit(inst, x, pt)
                >= best
                for pt in mids
            ), "midpoint scan beat the candidate set"
            checked += 1
    elapsed = time.time() - start
    _report(
        "C5 candidate-set completeness",
        checked > 0,
        f"{checked} (instance, x) pairs exact, {elapsed:.1f}s",
    )


def test_criterion_6_monotone_acceptance_and_rounding_sandwich():
    start = time.time()
    fixtures = (
        [T1, T2]
        + family(seed=1012, count=8, n_lo=1, n_hi=7)
        + family(seed=1013, count=4, n_lo=2, n_hi=5, t=2, wmax=6)
    )
    scans = 0
    for inst in fixtures:
        if sum(inst.p) == 0:
            continue
        if sum(c for c, p in zip(inst.c, inst.p) if p > 0) <= inst.B:
            continue
        cands = (
            dual_breakpoints(inst) if inst.t == 1 else dual_vertex_candidates(inst)
        )
        for eps in (Fraction(1), Fraction(1, 2)):
            e = split_accuracy(eps)
            grid = GeometricGrid.build(inst, e)
            scan = [
                accept_level(inst, grid, j, cands).passed
                for j in range(grid.J + 1)
            ]
            assert scan[-1], "top level rejected"
            first = scan.index(True)
            assert all(scan[first:]), "accepted set not upward closed"
            j, _, _ = search_optimum_guess(inst, grid, cands)
            assert grid.point(j).z == grid.point(first).z, "binary search missed"
            scans += 1

    # rounding sandwich on 500 random (x, alpha, level) samples
    rng = SplitMix64(1014)
    pool = [i for i in fixtures if i.n > 0 and sum(i.p) > 0]
    samples = 0
    while samples < 500:
        inst = pool[rng.uniform(0, len(pool) - 1)]
        e = split_accuracy(Fraction(1))
        grid = GeometricGrid.build(inst, e)
        pt = grid.point(rng.uniform(0, grid.J))
        a = dual_point(*(random_rat(rng, max_num=15) for _ in range(inst.t)))
        bits = [rng.uniform(0, 1) for _ in range(inst.n)]
        units = rounded_profit_units(inst, a, pt.delta)
        rounded = sum(u for u, b in zip(units, bits) if not b) * pt.delta
        exact = surviving_reduced_profit(inst, xvec(inst, bits), a)
        assert exact <= rounded <= exact + e * pt.z, "rounding sandwich broken"
        samples += 1
    elapsed = time.time() - start
    _report(
        "C6 monotone acceptance + rounding sandwich",
        scans > 0 and samples == 500,
        f"{scans} full scans match binary search, {samples} sandwich samples, "
        f"{elapsed:.1f}s",
    )


def test_criterion_7_multidimensional():
    start = time.time()
    insts = family(
        seed=1007, count=100, n_lo=0, n_hi=6, t=2, wmax=8, cmax=9,
        cap_frac=Fraction(1, 2),
    )
    exact_checked = 0
    for inst in insts:
        v_candidates, _, _ = exact_fractional_optimum(inst)
        v_oracle, _ = brute_force_opt_f(inst)
        assert v_candidates == v_oracle, "t=2 candidate solver != vertex oracle"
        exact_checked += 1

    big = family(
        seed=1008, count=20, n_lo=7, n_hi=10, t=2, pmax=12, wmax=4, cmax=9,
        cap_frac=Fraction(2, 5),
    )
    guarantee_checked = 0
    eps = Fraction(1)
    for inst in big:
        opt_i, _ = brute_force_opt_i(inst)
        sol = approx_interdiction(inst, eps)
        k = best_integer_packing(inst, xvec(inst, sol.x))
        assert k <= (1 + inst.t + eps) * opt_i, "1+t+eps guarantee broken"
        guarantee_checked += 1
    elapsed = time.time() - start
    _report(
        "C7 multidimensional (t=2)",
        exact_checked >= 100 and guarantee_checked >= 20 and elapsed < 600,
        f"{exact_checked} exact matches, {guarantee_checked} guarantee checks, "
        f"{elapsed:.1f}s",
    )


def test_criterion_8_complexity_envelope(family_single):
    start = time.time()
    # per-table state bound, recovered exactly from solver stats
    for inst, _ in family_single[:120]:
        reduced, _ = preprocess(inst)
        if sum(reduced.p) == 0:
            continue
        for eps in (Fraction(1), Fraction(1, 10)):
            sol = approx_fractional_optimum(inst, eps)
            if sol.stats.dp_tables == 0:
                continue
            e = split_accuracy(eps)
            grid = GeometricGrid.build(reduced, e)
            per_table = reduced.n * (grid.kmax + 1)
            assert sol.stats.dp_states == sol.stats.dp_tables * per_table
            bound = reduced.n * (ceil_div(reduced.n * (1 + e), e) + 1)
            assert per_table <= bound, "per-table state bound exceeded"

    # soft scaling: doubling n multiplies total DP work by a factor in [4, 16]
    def work(n: int) -> float:
        total = 0
        for seed in (1, 2, 3, 4):
            inst = generate_instance(n=n, t=1, seed=seed, pmax=100, wmax=100, cmax=100)
            sol = approx_fractional_optimum(inst, Fraction(1))
            total += sol.stats.dp_states
        return total / 4

    w10, w20, w40 = work(10), work(20), work(40)
    r1, r2 = w20 / w10, w40 / w20
    ok = 4 <= r1 <= 16 and 4 <= r2 <= 16
    elapsed = time.time() - start
    _report(
        "C8 complexity envelope",
        ok,
        f"state bound exact; doubling ratios {r1:.1f} and {r2:.1f} in [4,16], "
        f"{elapsed:.1f}s",
    )


def _run_cli(*argv) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "kinterdict", *argv],
        capture_output=True,
        timeout=300,
    )


def _mask_wall_ms(csv_bytes: bytes) -> list[str]:
    lines = csv_bytes.decode().splitlines()
    masked = [lines[0]]
    for line in lines[1:]:
        cols = line.split(",")
        cols[-1] = "_"
        masked.append(",".join(cols))
    return masked


def test_criterion_9_determinism(tmp_path):
    start = time.time()
    # generator: identical seed, byte-identical file
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["gen", "--n", "12", "--seed", "5", "--pmax", "40", "--output"]
    assert _run_cli(*argv, str(a)).returncode == 0
    assert _run_cli(*argv, str(b)).returncode == 0
    assert a.read_bytes() == b.read_bytes(), "gen not byte-deterministic"

    # solve: one worker vs many workers, byte-identical stdout
    (tmp_path / "t1.json").write_text(serialize_instance(T1))
    for target in ("t1.json", "a.json"):
        path = str(tmp_path / target)
        outs = set()
        for jobs in ("1", "3", "1"):
            r = _run_cli("solve", "--input", path, "--eps", "0.5", "--jobs", jobs)
            assert r.returncode == 0
            outs.add(r.stdout)
        assert len(outs) == 1, f"solve output varies with workers on {target}"

    # bench: identical rows regardless of worker count (wall_ms masked)
    d = tmp_path / "bench"
    d.mkdir()
    (d / "t1.json").write_text(serialize_instance(T1))
    (d / "t2.json").write_text(serialize_instance(T2))
    (d / "gen.json").write_bytes(a.read_bytes())
    csv1, csv3 = tmp_path / "r1.csv", tmp_path / "r3.csv"
    r = _run_cli("bench", "--dir", str(d), "--eps", "1,0.5", "--csv", str(csv1), "--jobs", "1")
    assert r.returncode == 0
    r = _run_cli("bench", "--dir", str(d), "--eps", "1,0.5", "--csv", str(csv3), "--jobs", "3")
    assert r.returncode == 0
    assert _mask_wall_ms(csv1.read_bytes()) == _mask_wall_ms(csv3.read_bytes())
    elapsed = time.time() - start
    _report(
        "C9 determinism across workers",
        True,
        f"gen/solve/bench byte-stable, {elapsed:.1f}s",
    )
