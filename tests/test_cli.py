import csv
import json
import os
import sys
from fractions import Fraction

from kinterdict import cli, dual, fptas, instance, nominal
from kinterdict.cli import build_parser, main
from kinterdict.generator import generate_instance
from kinterdict.instance import Instance, parse_instance, serialize_instance

from conftest import T1, T2, EMPTY

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


def test_oracle_packing_over_state_limit_exits_4(tmp_path, capsys):
    # six items fit --max-n, but the t = 3 packing DP has 4225068 capacity
    # states per item, over best_integer_packing's state limit
    inst = generate_instance(n=6, t=3, seed=300, pmax=100, wmax=100, cmax=30)
    path = write(tmp_path, "t3.json", serialize_instance(inst))
    code, out, err = run(capsys, "oracle", "--input", path, "--max-n", "12")
    assert code == 4 and out == ""
    assert err.startswith("error: ") and "exceeds limit" in err
    assert "Traceback" not in err


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
    out = tmp_path / "o.csv"
    code, _, err = run(capsys, "bench", "--dir", str(d), "--eps", "1", "--csv", str(out))
    assert code == 0
    assert "bad.json" in err
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
    # one enumeration per t = 2 row, shared by the solve and the opt_f column
    assert len(vertices) == 2
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
    points = len(dual.candidate_set(instance.preprocess(inst)[0]))
    knapsacks = count_calls(monkeypatch, nominal, "knapsack_max_budget")
    code, out, _ = run(capsys, "exact-optf", "--input", path)
    assert code == 0 and "opt_f" in json.loads(out)
    assert points == 40
    assert 1 <= len(knapsacks) < points


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
    # a huge --jobs must not become that many forked workers
    monkeypatch.setattr(_FakePool, "sizes", [])
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _FakePool)
    monkeypatch.setattr(fptas, "ProcessPoolExecutor", _FakePool)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    path = write(tmp_path, "t2.json", T2_JSON)
    assert run(capsys, "solve", "--input", path, "--eps", "1", "--jobs", "1000")[0] == 0
    tasks = len(dual.candidate_set(instance.preprocess(T2)[0]))
    assert _FakePool.sizes == [min(8, tasks)]

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
    assert _FakePool.sizes == []  # an unknown CPU count means one process


def test_gen_unwritable_output_path(tmp_path, capsys):
    code, _, err = run(
        capsys, "gen", "--n", "2", "--seed", "1",
        "--output", str(tmp_path / "missing_dir" / "x.json"),
    )
    assert code == 2 and "error" in err
