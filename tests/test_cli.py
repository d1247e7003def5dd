import concurrent.futures
import csv
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from kinterdict import cli, dual, fptas, instance, nominal, oracles
from kinterdict.cli import build_parser, main
from kinterdict.generator import generate_instance
from kinterdict.instance import Instance, parse_instance, serialize_instance

from conftest import T1, T2, EMPTY, dot_capacity, scaled_dantzig_bound

T1_JSON = serialize_instance(T1)
T2_JSON = serialize_instance(T2)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def count_calls(monkeypatch, module, name):
    """Record calls of module.name made through any kinterdict module."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("kinterdict") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


# solve

def test_solve_t1_json(tmp_path, capsys):
    path = write(tmp_path, "t1.json", T1_JSON)
    code, out, _ = run(capsys, "solve", "--input", path, "--eps", "0.5")
    assert code == 0
    doc = json.loads(out)
    assert doc["guarantee"] == "2+eps-of-opt-i"
    assert doc["x"] == [1, 0]
    assert doc["f_value"] == "2"
    # f_value <= (2 + eps) * OPT_I = 5 with oracle OPT_I = 2
    assert Fraction(doc["f_value"]) <= 5
    assert doc["stats"]["dp_states"] > 0


def test_solve_empty_instance(tmp_path, capsys):
    path = write(tmp_path, "empty.json", serialize_instance(EMPTY))
    code, out, _ = run(capsys, "solve", "--input", path, "--eps", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["f_value"] == "0" and doc["x"] == []


def test_solve_t2_tagged_multi(tmp_path, capsys):
    path = write(tmp_path, "t2.json", T2_JSON)
    code, out, _ = run(capsys, "solve", "--input", path, "--eps", "1")
    assert code == 0
    assert json.loads(out)["guarantee"] == "1+t+eps-of-opt-i"


def test_solve_text_output(tmp_path, capsys):
    path = write(tmp_path, "t1.json", T1_JSON)
    code, out, _ = run(capsys, "solve", "--input", path, "--eps", "1", "--output", "text")
    assert code == 0
    assert out.startswith("interdict: ")
    assert "f_value: 2" in out


def test_solve_rejects_zero_eps(tmp_path, capsys):
    path = write(tmp_path, "t1.json", T1_JSON)
    code, _, err = run(capsys, "solve", "--input", path, "--eps", "0")
    assert code == 3 and "eps" in err


def test_solve_rejects_garbage_eps(tmp_path, capsys):
    path = write(tmp_path, "t1.json", T1_JSON)
    code, _, _ = run(capsys, "solve", "--input", path, "--eps", "fast")
    assert code == 3


def test_solve_missing_file(tmp_path, capsys):
    code, _, err = run(capsys, "solve", "--input", str(tmp_path / "no.json"), "--eps", "1")
    assert code == 2 and "error" in err


def test_solve_malformed_instance(tmp_path, capsys):
    path = write(tmp_path, "bad.json", "{broken")
    code, _, _ = run(capsys, "solve", "--input", path, "--eps", "1")
    assert code == 2


def test_solve_schema_violation(tmp_path, capsys):
    path = write(tmp_path, "bad.json", '{"n":1,"t":1,"p":[-1],"c":[1],"w":[[1]],"B":1,"C":[1]}')
    code, _, err = run(capsys, "solve", "--input", path, "--eps", "1")
    assert code == 2 and "p[0]" in err


def _one_item(p_json):
    return f'{{"n":1,"t":1,"p":[{p_json}],"c":[1],"w":[[1]],"B":1,"C":[1]}}'.encode()


def test_solve_bad_digits_long_numbers_and_bad_utf8_exit_2(tmp_path, capsys):
    # a superscript two, Arabic-Indic twelve, 5000 digits as a string and
    # as a JSON number, bytes that are not UTF-8, and JSON nested past the
    # recursion limit (json raises RecursionError): none is an instance
    long = "9" * 5000
    cases = [
        (_one_item('"\u00b2"'), "p[0]"),
        (_one_item('"\u0661\u0662"'), "p[0]"),
        (_one_item(f'"{long}"'), "p[0]"),
        (_one_item(long), "invalid JSON"),
        (b"\xff\xfe{", "invalid JSON"),
        (b"[" * 100_000, "invalid JSON"),
    ]
    for k, (data, where) in enumerate(cases):
        path = tmp_path / f"bad{k}.json"
        path.write_bytes(data)
        code, out, err = run(capsys, "solve", "--input", str(path), "--eps", "1")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and where in err


# exact-optf

def test_exact_optf_t1(tmp_path, capsys):
    path = write(tmp_path, "t1.json", T1_JSON)
    code, out, _ = run(capsys, "exact-optf", "--input", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["opt_f"] == "2" and doc["x"] == [1, 0]


def test_exact_optf_zero_profits(tmp_path, capsys):
    path = write(
        tmp_path, "z.json",
        '{"n":2,"t":1,"p":[0,0],"c":[1,1],"w":[[1,1]],"B":1,"C":[2]}',
    )
    code, out, _ = run(capsys, "exact-optf", "--input", path)
    assert code == 0 and json.loads(out)["opt_f"] == "0"


def test_exact_optf_t2(tmp_path, capsys):
    path = write(tmp_path, "t2.json", T2_JSON)
    code, out, _ = run(capsys, "exact-optf", "--input", path)
    assert code == 0 and json.loads(out)["opt_f"] == "3"


# oracle

def test_oracle_t1(tmp_path, capsys):
    path = write(tmp_path, "t1.json", T1_JSON)
    code, out, _ = run(capsys, "oracle", "--input", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["opt_i"] == 2
    assert doc["opt_f"] == "2"
    assert doc["p_star"] == 2
    assert doc["optimal_x_list"] == [[1, 0]]


def test_oracle_budget_covers_everything(tmp_path, capsys):
    path = write(
        tmp_path, "b.json",
        '{"n":2,"t":1,"p":[3,2],"c":[1,1],"w":[[2,2]],"B":2,"C":[2]}',
    )
    code, out, _ = run(capsys, "oracle", "--input", path)
    assert code == 0 and json.loads(out)["opt_i"] == 0


def test_oracle_too_large_exits_4(tmp_path, capsys):
    path = write(tmp_path, "t1.json", T1_JSON)
    code, _, err = run(capsys, "oracle", "--input", path, "--max-n", "1")
    assert code == 4 and "exceeds" in err


def test_oracle_with_too_many_optima_exits_4(tmp_path, capsys, monkeypatch):
    # zero profits make each of the 2^10 interdictions optimal, past a cap
    # of 100 optima to list
    monkeypatch.setattr(oracles.brute_force_opt_i, "__defaults__", (20, 100))
    zeros = [0] * 10
    text = json.dumps(
        {"n": 10, "t": 1, "p": zeros, "c": zeros, "w": [zeros], "B": 0, "C": [0]}
    )
    path = write(tmp_path, "zeros.json", text)
    code, out, err = run(capsys, "oracle", "--input", path)
    assert code == 4 and out == ""
    assert err == "error: more than 100 optimal interdictions\n"


def test_oracle_packing_over_state_limit_exits_4(tmp_path, capsys):
    # Six items fit --max-n, but their t = 3 packing DP predicts more states
    # than the work budget.  One item with C = 2 * 10^7 fits the work
    # budget, 2^1 x 20000001 states, but its packing row does not fit the
    # state limit, which refuses it before any row exists.
    t3 = generate_instance(n=6, t=3, seed=300, pmax=100, wmax=100, cmax=30)
    cases = (
        (
            serialize_instance(t3),
            "error: 2^6 interdictions x 25350408 packing states exceeds "
            "limit 100000000\n",
        ),
        (
            '{"n":1,"t":1,"p":[5],"c":[1],"w":[[1]],"B":0,"C":[20000000]}',
            "error: 1 items x 20000001 capacity states exceeds limit 10000000\n",
        ),
    )
    for k, (text, expected) in enumerate(cases):
        path = write(tmp_path, f"case-{k}.json", text)
        start = time.perf_counter()
        code, out, err = run(capsys, "oracle", "--input", path, "--max-n", "12")
        assert time.perf_counter() - start < 5
        assert code == 4 and out == "" and err == expected


def test_oracle_over_work_budget_exits_4_at_once(tmp_path, capsys):
    # `gen` defaults.  Each packing call fits its state limit, but 2^n of
    # them do not fit the oracle's work budget: 2^20 x 8920 and 2^10 x 839790
    # predicted states.  A raised --max-n is refused before 2^40 costs exist.
    cases = (
        (20, 1, 3, ()), (10, 2, 4, ()), (40, 1, 3, ("--max-n", "40")),
    )
    for n, t, seed, flags in cases:
        inst = generate_instance(n=n, t=t, seed=seed)
        path = write(tmp_path, f"gen-{n}-{t}.json", serialize_instance(inst))
        start = time.perf_counter()
        code, out, err = run(capsys, "oracle", "--input", path, *flags)
        assert time.perf_counter() - start < 5
        assert code == 4 and out == ""
        assert err.startswith(f"error: 2^{n} interdictions")
        assert "exceeds limit 100000000" in err


def test_oracle_over_lp_point_budget_exits_4_at_once(tmp_path, capsys):
    # each fits the integer oracle's budget, but 2^n relaxed LP evaluations
    # predict 23.3M and 495M basic points; at n = 10 the oracle ran 30 s
    for n, points in ((10, 22784), (12, 120832)):
        inst = generate_instance(n=n, t=2, seed=1, wmax=3)
        path = write(tmp_path, f"gen-{n}.json", serialize_instance(inst))
        start = time.perf_counter()
        code, out, err = run(capsys, "oracle", "--input", path)
        assert time.perf_counter() - start < 5
        assert code == 4 and out == ""
        assert err == (
            f"error: 2^{n} interdictions x {points} LP points exceeds limit 2000000\n"
        )


# the parser

def test_parser_is_built_once_and_each_call_gets_a_fresh_namespace():
    parser = build_parser()
    assert build_parser() is parser
    solve = parser.parse_args(["solve", "--input", "a.json", "--eps", "1"])
    oracle = parser.parse_args(["oracle", "--input", "b.json"])
    again = parser.parse_args(["solve", "--input", "c.json", "--eps", "2"])
    assert len({id(solve), id(oracle), id(again)}) == 3
    assert (solve.input, solve.eps, solve.jobs) == ("a.json", "1", 1)
    assert oracle.max_n == 20 and not hasattr(oracle, "eps")
    assert (again.input, again.eps) == ("c.json", "2")


# gen

def test_gen_deterministic_bytes(tmp_path, capsys):
    a = str(tmp_path / "a.json")
    b = str(tmp_path / "b.json")
    argv = ["gen", "--n", "6", "--t", "2", "--seed", "11", "--pmax", "30",
            "--wmax", "12", "--cmax", "9", "--output"]
    assert main(argv + [a]) == 0
    assert main(argv + [b]) == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    inst = parse_instance((tmp_path / "a.json").read_bytes())
    assert inst.n == 6 and inst.t == 2
    assert all(1 <= v <= 30 for v in inst.p)
    assert all(1 <= v <= 12 for row in inst.W for v in row)


def test_gen_empty_instance_is_valid(tmp_path, capsys):
    out = str(tmp_path / "e.json")
    assert main(["gen", "--n", "0", "--seed", "1", "--output", out]) == 0
    inst = parse_instance((tmp_path / "e.json").read_bytes())
    assert inst.n == 0 and inst.B == 0 and inst.C == (0,)


def test_gen_full_budget_fraction(tmp_path, capsys):
    out = str(tmp_path / "f.json")
    assert main(
        ["gen", "--n", "5", "--seed", "3", "--budget-frac", "1", "--output", out]
    ) == 0
    inst = parse_instance((tmp_path / "f.json").read_bytes())
    assert inst.B == sum(inst.c)


def test_gen_rejects_bad_params(tmp_path, capsys):
    out = str(tmp_path / "x.json")
    code, _, _ = run(capsys, "gen", "--n", "-2", "--seed", "1", "--output", out)
    assert code == 3
    code, _, _ = run(
        capsys, "gen", "--n", "2", "--seed", "1", "--budget-frac", "nope",
        "--output", out,
    )
    assert code == 3


# bench

def test_bench_fixture_directory(tmp_path, capsys):
    d = tmp_path / "instances"
    d.mkdir()
    (d / "t1.json").write_text(T1_JSON)
    (d / "t2.json").write_text(T2_JSON)
    out = str(tmp_path / "out.csv")
    code, _, _ = run(capsys, "bench", "--dir", str(d), "--eps", "1,0.5", "--csv", out)
    assert code == 0
    with open(out, newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 4  # two instances x two eps
    assert [r["instance"] for r in rows] == ["t1.json", "t1.json", "t2.json", "t2.json"]
    assert [r["eps"] for r in rows[:2]] == ["1/2", "1"]
    for r in rows:
        if r["ratio"]:
            assert Fraction(r["ratio"]) <= 1 + Fraction(r["eps"])
        assert int(r["dp_states"]) >= 0


def test_bench_header_matches_contract(tmp_path, capsys):
    d = tmp_path / "i"
    d.mkdir()
    (d / "t1.json").write_text(T1_JSON)
    out = tmp_path / "o.csv"
    run(capsys, "bench", "--dir", str(d), "--eps", "1", "--csv", str(out))
    header = out.read_text().splitlines()[0]
    assert header == "instance,n,t,eps,f_value,opt_f,ratio,dp_states,wall_ms"


def test_bench_empty_directory(tmp_path, capsys):
    d = tmp_path / "empty"
    d.mkdir()
    out = tmp_path / "o.csv"
    code, _, err = run(capsys, "bench", "--dir", str(d), "--eps", "1", "--csv", str(out))
    assert code == 1
    assert out.read_text().splitlines() == [
        "instance,n,t,eps,f_value,opt_f,ratio,dp_states,wall_ms"
    ]


def test_bench_skips_unreadable_with_note(tmp_path, capsys):
    d = tmp_path / "mixed"
    d.mkdir()
    (d / "good.json").write_text(T1_JSON)
    (d / "bad.json").write_text("{nope")
    (d / "nested.json").write_text("[" * 100_000)
    out = tmp_path / "o.csv"
    code, _, err = run(capsys, "bench", "--dir", str(d), "--eps", "1", "--csv", str(out))
    assert code == 0
    assert "skipping bad.json" in err and "skipping nested.json" in err
    with open(out, newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 1 and rows[0]["instance"] == "good.json"


def test_bench_all_bad_files_nonzero_exit(tmp_path, capsys):
    d = tmp_path / "allbad"
    d.mkdir()
    (d / "bad.json").write_text("{nope")
    out = tmp_path / "o.csv"
    code, _, _ = run(capsys, "bench", "--dir", str(d), "--eps", "1", "--csv", str(out))
    assert code == 1


def test_bench_parses_once_and_reuses_candidates(tmp_path, capsys, monkeypatch):
    d = tmp_path / "instances"
    d.mkdir()
    (d / "t1.json").write_text(T1_JSON)
    (d / "t2.json").write_text(T2_JSON)
    parsed = count_calls(monkeypatch, instance, "parse_instance")
    vertices = count_calls(monkeypatch, dual, "dual_vertex_candidates")
    out = str(tmp_path / "out.csv")
    code, _, _ = run(capsys, "bench", "--dir", str(d), "--eps", "1,0.5", "--csv", out)
    assert code == 0
    assert len(parsed) == 2
    # one enumeration per row, shared by the solve and the opt_f column
    assert len(vertices) == 4
    with open(out, newline="") as f:
        rows = list(csv.DictReader(f))
    assert all(r["opt_f"] for r in rows)


def test_bench_missing_directory(tmp_path, capsys):
    code, _, _ = run(
        capsys, "bench", "--dir", str(tmp_path / "nope"), "--eps", "1",
        "--csv", str(tmp_path / "o.csv"),
    )
    assert code == 2


# self-certification guards every emitted solution

def test_solve_emits_value_matching_independent_recompute(tmp_path, capsys):
    from kinterdict.dual import fractional_value
    from kinterdict.instance import InterdictionVector, preprocess

    path = write(tmp_path, "t2.json", T2_JSON)
    code, out, _ = run(capsys, "solve", "--input", path, "--eps", "0.25")
    assert code == 0
    doc = json.loads(out)
    reduced, index_map = preprocess(T2)
    bits = tuple(doc["x"][i] for i in range(T2.n) if index_map[i] is not None)
    x = InterdictionVector.from_bits(bits, reduced.c)
    assert Fraction(doc["f_value"]) == fractional_value(reduced, x)


def test_solve_t3_enumerates_vertices_and_preprocesses_once(
    tmp_path, capsys, monkeypatch
):
    inst = generate_instance(n=8, t=3, seed=1)
    path = write(tmp_path, "t3.json", serialize_instance(inst))
    vertices = count_calls(monkeypatch, dual, "dual_vertex_candidates")
    preprocessed = count_calls(monkeypatch, instance, "preprocess")
    code, out, _ = run(capsys, "solve", "--input", path, "--eps", "1")
    assert code == 0
    assert json.loads(out)["guarantee"] == "1+t+eps-of-opt-i"
    assert len(vertices) == 1
    assert len(preprocessed) == 1


def test_exact_optf_builds_fewer_knapsacks_than_candidates(
    tmp_path, capsys, monkeypatch
):
    # the first instance of the exact-scan benchmark corpus at seed 1
    inst = generate_instance(
        n=40, t=1, seed=1_040_100, pmax=100, wmax=100, cmax=100,
        budget_frac=Fraction(1, 2), cap_frac=Fraction(1, 2),
    )
    path = write(tmp_path, "n40.json", serialize_instance(inst))
    points = len(dual.dual_vertex_candidates(instance.preprocess(inst)[0]))
    knapsacks = count_calls(monkeypatch, nominal, "knapsack_max_budget")
    code, out, _ = run(capsys, "exact-optf", "--input", path)
    assert code == 0 and "opt_f" in json.loads(out)
    assert points == 40
    assert 1 <= len(knapsacks) < points


def test_exact_optf_proves_candidates_out_before_the_dantzig_bound(
    tmp_path, capsys, monkeypatch
):
    # the first instance of the exact-scan benchmark corpus at seed 1: the
    # alpha . C screen and the inherited floor leave two of its seven
    # candidates for the sorted Dantzig bound
    inst = generate_instance(
        n=40, t=1, seed=1_040_100, pmax=100, wmax=100, cmax=100,
        budget_frac=Fraction(1, 2), cap_frac=Fraction(1, 2),
    )
    path = write(tmp_path, "n40.json", serialize_instance(inst))
    assert len(dual.prepare(inst, 0).candidates) == 7
    bounds = count_calls(monkeypatch, nominal, "lp_least_units")
    code, out, _ = run(capsys, "exact-optf", "--input", path)
    assert code == 0 and "opt_f" in json.loads(out)
    assert len(bounds) == 2


def test_a_request_builds_each_reduced_profit_row_once_and_sorts_the_origin_once(
    tmp_path, capsys, monkeypatch
):
    # the first instance of the fptas-t1 and exact-scan benchmark corpora at
    # seed 1 (the same one), and the first of multi-cap: one solve, its
    # certificate included, and one exact-optf each build a candidate's
    # reduced profits at most once, and sort the origin's items, whose
    # reduced profits are p, once: for U in prepare
    shapes = ((40, 1, 1_040_100, "1/2"), (20, 2, 1_020_200, "1"))
    rows = count_calls(monkeypatch, dual, "scaled_reduced_profits")
    sorts = count_calls(monkeypatch, nominal, "_sorted_items")
    bounds = count_calls(monkeypatch, nominal, "lp_least_units")
    for n, t, seed, eps in shapes:
        inst = generate_instance(
            n=n, t=t, seed=seed, pmax=100, wmax=100, cmax=100,
            budget_frac=Fraction(1, 2), cap_frac=Fraction(1, 2),
        )
        path = write(tmp_path, f"n{n}.json", serialize_instance(inst))
        origin = list(instance.preprocess(inst)[0].p)
        for argv in (("solve", "--eps", eps), ("exact-optf",)):
            for calls in (rows, sorts, bounds):
                calls.clear()
            code, _, _ = run(capsys, argv[0], "--input", path, *argv[1:])
            assert code == 0
            points = [(scale, alpha) for _, _, scale, alpha in rows]
            assert len(rows) > 1 and len(set(points)) == len(points)
            assert [list(args[0]) for args in sorts + bounds].count(origin) == 1


def test_a_bench_row_bounds_each_candidate_once(tmp_path, capsys, monkeypatch):
    # the first instance of the exact-scan benchmark corpus at seed 1: the
    # FPTAS and the exact scan of one bench row share the prepared set, so
    # each candidate's Dantzig bound is computed once for both
    inst = generate_instance(
        n=40, t=1, seed=1_040_100, pmax=100, wmax=100, cmax=100,
        budget_frac=Fraction(1, 2), cap_frac=Fraction(1, 2),
    )
    d = tmp_path / "instances"
    d.mkdir()
    write(d, "n40.json", serialize_instance(inst))
    bounds = count_calls(monkeypatch, nominal, "lp_least_units")
    out = str(tmp_path / "out.csv")
    code, _, _ = run(
        capsys, "bench", "--dir", str(d), "--eps", "1/2", "--csv", out,
        "--exact-max-n", "40",
    )
    assert code == 0
    with open(out, newline="") as f:
        assert [r["opt_f"] != "" for r in csv.DictReader(f)] == [True]
    rows = [tuple(args[0]) for args in bounds]
    assert rows and len(set(rows)) == len(rows)


def test_accept_level_level_by_level_bounds_each_candidate_once(monkeypatch):
    # C6 calls accept_level once per grid level on one candidate set; the
    # set keeps each Dantzig bound, so no level computes one again
    inst = instance.preprocess(generate_instance(n=12, t=1, seed=3))[0]
    cands = dual.dual_vertex_candidates(inst)
    grid = fptas.GeometricGrid.build(inst, fptas.split_accuracy(Fraction(1, 4)))
    bounds = count_calls(monkeypatch, nominal, "lp_least_units")
    passed = [
        fptas.accept_level(inst, grid, j, cands).passed for j in range(grid.J + 1)
    ]
    assert passed[-1] and not passed[0]
    rows = [tuple(args[0]) for args in bounds]
    assert rows and len(set(rows)) == len(rows)


def test_bench_certifies_each_row_as_solve_does(tmp_path, capsys, monkeypatch):
    # a row whose recomputed F(x) disagrees with the solver's fails, as
    # solve does, rather than being written
    d = tmp_path / "instances"
    d.mkdir()
    (d / "t1.json").write_text(T1_JSON)
    path = str(d / "t1.json")
    out = tmp_path / "out.csv"
    monkeypatch.setattr(
        cli, "fractional_value", lambda *args: dual.fractional_value(*args) + 1
    )
    for argv in (
        ("solve", "--input", path, "--eps", "1"),
        ("bench", "--dir", str(d), "--eps", "1", "--csv", str(out)),
    ):
        with pytest.raises(fptas.InternalInvariantError, match="recomputed"):
            main(list(argv))
    assert not out.exists()


def _ends_cleanly(*argv):
    # a fresh process, so that a crash shows as a traceback on stderr
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "kinterdict", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert "Traceback" not in proc.stderr
    return proc.returncode, proc.stderr


def test_solve_at_an_eps_past_the_float_range_ends_cleanly(tmp_path):
    # eps' = 1e5000 does not fit in a float; the grid has J <= 1
    path = write(tmp_path, "n40.json", serialize_instance(generate_instance(n=40, t=1, seed=1)))
    for eps in ("1e10000", "1e617"):
        code, _ = _ends_cleanly("solve", "--input", path, "--eps", eps)
        assert code in (0, 4)


def test_bench_at_an_eps_past_the_digit_limit_ends_cleanly(tmp_path):
    d = tmp_path / "instances"
    d.mkdir()
    (d / "t1.json").write_text(T1_JSON)
    out = tmp_path / "out.csv"
    code, _ = _ends_cleanly("bench", "--dir", str(d), "--eps", "1e10000", "--csv", str(out))
    assert code == 0
    rows = out.read_text().splitlines()
    assert len(rows) == 2 and rows[1].split(",")[3] == "1" + "0" * 10000


def test_gen_past_the_digit_limit_exits_3(tmp_path):
    out = tmp_path / "x.json"
    for flag, frac in (("--budget-frac", "1e10000"), ("--cap-frac", "1e5000")):
        code, err = _ends_cleanly("gen", "--n", "5", "--seed", "1", flag, frac, "--output", str(out))
        assert code == 3 and err.startswith("error: ") and " digits" in err
        assert not out.exists()


def test_exact_optf_with_costs_and_budget_beyond_ten_trillion(tmp_path, capsys):
    # scaling every cost and the budget by 10**13 leaves the feasible
    # interdictions, hence opt_f and x, unchanged; a knapsack table with a
    # column per budget unit would not fit in memory
    inst = generate_instance(n=24, t=1, seed=1)
    scale = 10**13
    scaled = Instance(
        n=inst.n, t=inst.t, p=inst.p, c=tuple(c * scale for c in inst.c),
        W=inst.W, B=inst.B * scale, C=inst.C,
    )
    code, plain, _ = run(
        capsys, "exact-optf", "--input", write(tmp_path, "a.json", serialize_instance(inst))
    )
    assert code == 0
    code, big, _ = run(
        capsys, "exact-optf", "--input", write(tmp_path, "b.json", serialize_instance(scaled))
    )
    assert code == 0
    a, b = json.loads(plain), json.loads(big)
    assert (b["opt_f"], b["x"]) == (a["opt_f"], a["x"])


def test_exact_optf_solves_the_doubling_costs_at_the_lp_root(tmp_path, capsys):
    # p_i = c_i = 2^(n-1-i) and B = 2^(n-1) - 1: every subset has its own
    # cost, so the whole frontier of the last k items holds 2^k pairs; but
    # the greedy removal fills the budget, so the LP bound fixes every item
    # and no frontier row is stored
    n = 40
    p = [2 ** (n - 1 - i) for i in range(n)]
    inst = Instance(
        n=n, t=1, p=tuple(p), c=tuple(p), W=((1,) * n,), B=(2**n - 1) // 2, C=(n,)
    )
    path = write(tmp_path, "doubling.json", serialize_instance(inst))
    start = time.perf_counter()
    code, out, _ = run(capsys, "exact-optf", "--input", path)
    assert time.perf_counter() - start < 15
    assert code == 0
    # every item fits the capacity, so F(x) is the surviving profit; item 0
    # costs more than the budget and all the others fit it together
    result = json.loads(out)
    assert result["opt_f"] == str(2 ** (n - 1))
    assert result["x"] == [0] + [1] * (n - 1)


def test_exact_optf_over_the_frontier_pair_budget_exits_4(tmp_path, capsys):
    # p_i = c_i = 2^(n-i): every subset has its own cost, so the frontier of
    # the last k items holds 2^k pairs, and unguarded the stored rows grow
    # as 2^n.  The costs are even and B odd, so the greedy removal never
    # fills the budget, the LP bound fixes no item, and every row is stored
    n = 40
    p = [2 ** (n - i) for i in range(n)]
    inst = Instance(
        n=n, t=1, p=tuple(p), c=tuple(p), W=((1,) * n,),
        B=2 ** (n - 1) + 2 ** (n - 3) + 1, C=(n,),
    )
    path = write(tmp_path, "adversarial.json", serialize_instance(inst))
    start = time.perf_counter()
    code, out, err = run(capsys, "exact-optf", "--input", path)
    assert time.perf_counter() - start < 15
    assert code == 4 and out == ""
    assert err == (
        f"error: knapsack frontiers exceed {nominal.FRONTIER_PAIR_LIMIT} pairs\n"
    )


def test_exact_optf_on_equal_ratios_exits_4_within_the_pair_budget(tmp_path, capsys):
    # w_i uniform on [1, R] and p_i = c_i = w_i + R/10: at alpha = 0 every
    # reduced profit equals its cost, so all ratios tie, the LP bound fixes
    # nothing and the greedy removal does not fill B.  The knapsack's one
    # stored run counts its pairs against the budget, so it stops in seconds
    n, R = 80, 10**6
    rng = random.Random(1)
    w = [rng.randint(1, R) for _ in range(n)]
    p = [wi + R // 10 for wi in w]
    inst = Instance(
        n=n, t=1, p=tuple(p), c=tuple(p), W=(tuple(w),), B=sum(p) // 3,
        C=(sum(w) // 3,),
    )
    path = write(tmp_path, "equal_ratio.json", serialize_instance(inst))
    start = time.perf_counter()
    code, out, err = run(capsys, "exact-optf", "--input", path)
    assert time.perf_counter() - start < 15
    assert code == 4 and out == ""
    assert err == (
        f"error: knapsack frontiers exceed {nominal.FRONTIER_PAIR_LIMIT} pairs\n"
    )


def test_solve_and_exact_optf_over_the_vertex_read_budget_exit_4(tmp_path, capsys):
    # t = n = 16 with every item kept: the vertex walk would read
    # C(32, 16) - 1 = 601,080,389 zero-sets, so it is refused before it starts
    inst = generate_instance(n=16, t=16, seed=1, cap_frac=1)
    path = write(tmp_path, "t16.json", serialize_instance(inst))
    limit = dual.VERTEX_READ_LIMIT
    expected = f"error: vertex walk reads 601080389 zero-sets, beyond {limit}\n"
    for argv in (("solve", "--eps", "1"), ("exact-optf",)):
        start = time.perf_counter()
        code, out, err = run(capsys, argv[0], "--input", path, *argv[1:])
        assert time.perf_counter() - start < 5
        assert (code, out, err) == (4, "", expected)


def test_solve_over_the_grid_bit_budget_exits_4(tmp_path, capsys):
    # eps 1/30000 on t = 1, n = 6 gives eps' = 1/125000, and a total profit
    # of 324 a top grid level of about log(324) / log1p(eps') x 17 = 12.3M
    # numerator bits; an eps' that underflows a float has no finite estimate
    inst = generate_instance(n=6, t=1, seed=1)
    path = write(tmp_path, "g6.json", serialize_instance(inst))
    limit = fptas.GRID_BIT_LIMIT
    for eps, bits in (("1/30000", "1.23e+07"), (f"1/{10**400}", "inf")):
        start = time.perf_counter()
        code, out, err = run(capsys, "solve", "--input", path, "--eps", eps)
        assert time.perf_counter() - start < 5
        expected = f"error: grid top level has about {bits} numerator bits, beyond {limit}\n"
        assert (code, out, err) == (4, "", expected)


def test_solve_and_exact_optf_over_the_vertex_cell_budget_exit_4(tmp_path, capsys):
    # t = 300 capacities and n = 2 items: the walk would read only
    # C(302, 2) - 1 = 45,450 zero-sets, but its nodes at depth 1 would build
    # a cofactor table of C(301, 2) rows of width 301, 13,590,150 cells, so
    # it is refused before any plan is built
    inst = generate_instance(n=2, t=300, seed=1, cap_frac=1)
    path = write(tmp_path, "t300.json", serialize_instance(inst))
    limit = dual.VERTEX_CELL_LIMIT
    expected = (
        f"error: vertex walk builds a cofactor table of 13590150 cells, beyond {limit}\n"
    )
    for argv in (("solve", "--eps", "1"), ("exact-optf",)):
        start = time.perf_counter()
        code, out, err = run(capsys, argv[0], "--input", path, *argv[1:])
        assert time.perf_counter() - start < 5
        assert (code, out, err) == (4, "", expected)


def test_solve_and_exact_optf_on_wide_t_finish(tmp_path, capsys):
    # t = 40 capacities and n = 3 items: the vertex walk stops at depth
    # n = 3 and reads its zero-sets there, with no loop over the 2^40 - 1
    # free sets of coordinates.  cap_frac 1 keeps every item, so the
    # candidates are enumerated; a solve counts those within its bound,
    # the walk for eps / (1 + t)
    inst = generate_instance(n=3, t=40, seed=1, cap_frac=1)
    path = write(tmp_path, "wide.json", serialize_instance(inst))
    start = time.perf_counter()
    code, out, _ = run(capsys, "solve", "--input", path, "--eps", "1")
    assert time.perf_counter() - start < 10
    assert code == 0
    solved = json.loads(out)
    bounded = dual.prepare(inst, Fraction(1, 41)).candidates
    assert solved["stats"]["candidates"] == len(bounded)
    assert len(dual.dual_vertex_candidates(inst)) > 40
    start = time.perf_counter()
    code, out, _ = run(capsys, "exact-optf", "--input", path)
    assert time.perf_counter() - start < 10
    assert code == 0
    assert Fraction(json.loads(out)["opt_f"]) <= Fraction(solved["f_value"])


def test_certify_refuses_a_value_above_the_candidates_bound():
    # over the origin alone, the set cut at 0, x = (0, 0) on T1 reads 5, the
    # profit of both items, where the vertex alpha = 3/2 gives the true 3:
    # the value agrees with the set, and only its bound shows the set is cut
    # too low to certify it
    sol = fptas.Solution(
        x=(0, 0), f_value=Fraction(5), guarantee=fptas.GUARANTEE_OPT_F,
        z_star=None, alpha_star=None, additive_cert=Fraction(2),
        stats=fptas.SolveStats(candidates=1, dp_tables=0, dp_states=0),
    )
    cut = dual.PreparedInstance(T1, (0, 1), dual.dual_vertex_candidates(T1, 0), Fraction(0))
    with pytest.raises(fptas.InternalInvariantError, match="value 5 is above the candidates' bound 0"):
        cli._certify(T1, sol, cut)
    # cut at 3, the set holds alpha = 3/2, and the true value is certified
    within = dual.PreparedInstance(T1, (0, 1), dual.dual_vertex_candidates(T1, 3), Fraction(0))
    cli._certify(T1, replace(sol, f_value=Fraction(3)), within)


class _FakePool:
    """Records max_workers and maps in the calling process."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


def test_jobs_are_clamped_to_cpus_and_tasks(tmp_path, capsys, monkeypatch):
    # a huge --jobs must not become that many forked workers, and a solve
    # runs in one process at any --jobs: bench imports the pool from
    # concurrent.futures when it starts one, so the recording fake put
    # there is the pool every command would build
    monkeypatch.setattr(_FakePool, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _FakePool)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    path = write(tmp_path, "t2.json", T2_JSON)
    assert run(capsys, "solve", "--input", path, "--eps", "1", "--jobs", "1000")[0] == 0
    assert _FakePool.sizes == []

    d = tmp_path / "instances"
    d.mkdir()
    (d / "t1.json").write_text(T1_JSON)
    (d / "t2.json").write_text(T2_JSON)
    _FakePool.sizes.clear()
    code, _, _ = run(
        capsys, "bench", "--dir", str(d), "--eps", "1,1/2,1/4", "--csv",
        str(tmp_path / "o.csv"), "--jobs", "1000",
    )
    assert code == 0
    assert _FakePool.sizes == [6]  # 2 instances x 3 eps; the solves run serially

    monkeypatch.setattr(os, "cpu_count", lambda: None)
    _FakePool.sizes.clear()
    assert run(capsys, "solve", "--input", path, "--eps", "1", "--jobs", "1000")[0] == 0
    assert _FakePool.sizes == []


_POOL_PROBE = """
import contextlib, io, json, sys
from kinterdict.cli import main

codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
pool = ("multiprocessing", "concurrent.futures.process")
print(json.dumps([codes, [name for name in pool if name in sys.modules]]))
"""


def test_commands_without_a_pool_never_import_one(tmp_path):
    # only a bench of more than one worker needs the process pool; a fresh
    # interpreter shows what the other commands load, which this one,
    # with pytest's own imports, cannot
    path = write(tmp_path, "t2.json", T2_JSON)
    d = tmp_path / "instances"
    d.mkdir()
    (d / "t1.json").write_text(T1_JSON)
    (d / "t2.json").write_text(T2_JSON)
    commands = [
        ["gen", "--n", "8", "--seed", "1", "--output", str(tmp_path / "gen.json")],
        ["solve", "--input", path, "--eps", "1", "--jobs", "3"],
        ["solve", "--input", str(tmp_path / "gen.json"), "--eps", "1/2"],
        ["exact-optf", "--input", path],
        ["oracle", "--input", path],
        ["bench", "--dir", str(d), "--eps", "1,1/2", "--csv", str(tmp_path / "o.csv"),
         "--jobs", "1"],
    ]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", _POOL_PROBE, json.dumps(commands)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    codes, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0] * len(commands)
    assert loaded == []


def test_gen_unwritable_output_path(tmp_path, capsys):
    code, _, err = run(
        capsys, "gen", "--n", "2", "--seed", "1",
        "--output", str(tmp_path / "missing_dir" / "x.json"),
    )
    assert code == 2 and "error" in err


# accuracies whose grid values run past Python's int-to-str digit limit

def _gen(tmp_path, capsys, *argv):
    path = str(tmp_path / "gen.json")
    assert run(capsys, "gen", *argv, "--output", path)[0] == 0
    return path


def test_solve_eps_1_50_renders_a_z_star_beyond_4300_digits(tmp_path, capsys):
    path = _gen(tmp_path, capsys, "--n", "40", "--seed", "5")
    code, out, _ = run(capsys, "solve", "--input", path, "--eps", "1/50")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["z_star"]) > 4300
    assert doc["guarantee"] == "2+eps-of-opt-i"


def test_solve_n160_within_its_guarantee_of_the_exact_scan(tmp_path, capsys):
    # a size the value DP's differential tests never reach: on t = 1,
    # solve --eps 1/10 runs the relaxed FPTAS at eps 1/20
    path = _gen(tmp_path, capsys, "--n", "160", "--t", "1", "--seed", "3")
    code, out, _ = run(capsys, "solve", "--input", path, "--eps", "1/10")
    assert code == 0
    f_value = Fraction(json.loads(out)["f_value"])
    code, out, _ = run(capsys, "exact-optf", "--input", path)
    assert code == 0
    opt_f = Fraction(json.loads(out)["opt_f"])
    assert opt_f <= f_value <= (1 + Fraction(1, 20)) * opt_f


def test_solve_t3_eps_1_100_exits_0(tmp_path, capsys):
    path = _gen(tmp_path, capsys, "--n", "20", "--t", "3", "--seed", "3")
    code, out, _ = run(capsys, "solve", "--input", path, "--eps", "1/100")
    assert code == 0
    assert json.loads(out)["guarantee"] == "1+t+eps-of-opt-i"


def test_solve_scans_at_most_two_levels_on_n40(tmp_path, capsys, monkeypatch):
    # the search bracket decides every other level on the binary search's
    # path; a plain search scans 6 or 7 levels on these instances
    levels = count_calls(monkeypatch, fptas, "accept_level")
    for seed in range(1, 9):
        path = _gen(tmp_path, capsys, "--n", "40", "--t", "1", "--seed", str(seed))
        levels.clear()
        code, _, _ = run(capsys, "solve", "--input", path, "--eps", "1/2")
        assert code == 0
        assert 1 <= len(levels) <= 2


def test_solve_jobs_2_matches_jobs_1_where_both_screens_fire(
    tmp_path, capsys, monkeypatch
):
    inst = generate_instance(n=12, t=1, seed=3)
    reduced = instance.preprocess(inst)[0]
    cands = dual.dual_vertex_candidates(reduced)
    # solve --eps 1/2 runs the relaxed FPTAS at eps 1/4 on t = 1
    grid = fptas.GeometricGrid.build(reduced, fptas.split_accuracy(Fraction(1, 4)))
    levels, runs = [], Counter()
    accept_level, rounded_dual_bound = fptas.accept_level, fptas.rounded_dual_bound

    def level(inst, grid, j, *args):
        levels.append(j)
        return accept_level(inst, grid, j, *args)

    def bound(inst, a, point, *, limit, base, **kwargs):
        # a DP runs only for a candidate whose alpha . C and Dantzig lower
        # bound are both within the cap it is given
        assert base == dot_capacity(inst, a) <= limit
        assert Fraction(scaled_dantzig_bound(inst, a), a[0]) <= limit
        runs[point.z] += 1
        return rounded_dual_bound(inst, a, point, limit=limit, base=base, **kwargs)

    monkeypatch.setattr(fptas, "accept_level", level)
    monkeypatch.setattr(fptas, "rounded_dual_bound", bound)
    fptas.search_optimum_guess(reduced, grid, cands)
    fired = 0
    for j in levels:
        point = grid.point(j)
        limit = (1 + grid.eps_internal) * point.z
        within = [a for a in cands if dot_capacity(reduced, a) <= limit]
        screened = [
            a for a in within
            if Fraction(scaled_dantzig_bound(reduced, a), a[0]) <= limit
        ]
        assert runs[point.z] <= len(screened)
        # some candidates fail the alpha . C screen, some the Dantzig one
        fired += len(screened) < len(within) < len(cands)
    assert fired > 0
    monkeypatch.undo()

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    path = write(tmp_path, "n12.json", serialize_instance(inst))
    outs = [
        run(capsys, "solve", "--input", path, "--eps", "1/2", "--jobs", jobs)
        for jobs in ("1", "2")
    ]
    assert outs[0][0] == 0 and outs[0] == outs[1]
