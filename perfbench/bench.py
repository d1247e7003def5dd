"""Workloads, timed and traced phases, and metrics of the kinterdict benchmark.

Each request is one in-process call of ``kinterdict.cli.main`` on a
generated instance file, with stdout captured: one closed-loop client, one
request at a time.  See run.py for the command line.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import sqrt
from pathlib import Path

from kinterdict import cli
from kinterdict.generator import generate_instance
from kinterdict.instance import parse_instance, serialize_instance

import calibrate
from checker import answer_digest, check_answer
from tracer import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = HERE / ".work"
GOLDEN = HERE / "golden.json"
DEFAULT_SEED = 1
SETUP_REPEATS = 3
# Traced runs, the drift reference and smoke runs use the first instances of
# the corpus; timed runs use all of it.
TRACE_SIZE = 12
# scripts/scaling_study.py's parameters; ``solve --eps 2`` on t=1 runs the
# relaxed FPTAS at eps = 1, as the study does.
SCALING_SIZES = (10, 20, 40)
SCALING_SEEDS = (1, 2, 3, 4, 5)


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]  # CLI command and flags; --input is added per request
    shapes: tuple[tuple[int, int], ...]  # (n, t) of successive instances, cycled
    size: int  # instances in the timed corpus: about one pass per run, so the
    # latency median is taken over many instances and moves little with the seed


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fptas-t1", ("solve", "--eps", "1/2"), ((40, 1),), 44),
        # t=2 at n=20 costs about as much per request as t=3 at n=12, so the
        # alternating mix keeps a single latency mode.
        Workload("multi-cap", ("solve", "--eps", "1"), ((20, 2), (12, 3)), 48),
        Workload("exact-scan", ("exact-optf",), ((40, 1),), 120),
    )
}


def corpus(w: Workload, seed: int, size: int) -> list[tuple[str, bytes]]:
    """The workload's instances as (file name, bytes); same seed, same bytes."""
    made: Counter = Counter()
    out = []
    for k in range(size):
        n, t = w.shapes[k % len(w.shapes)]
        j = made[n, t]
        made[n, t] += 1
        inst = generate_instance(
            n=n,
            t=t,
            seed=seed * 1_000_000 + n * 1000 + t * 100 + j,
            pmax=100,
            wmax=100,
            cmax=100,
            budget_frac=Fraction(1, 2),
            cap_frac=Fraction(1, 2),
        )
        out.append((f"n{n}-t{t}-{j:02d}.json", serialize_instance(inst).encode()))
    return out


def corpus_digest(files) -> str:
    h = hashlib.sha256()
    for name, data in files:
        h.update(name.encode() + b"\0" + data)
    return h.hexdigest()[:16]


def call_cli(argv) -> tuple[object, str, str]:
    """One request: (exit code or exception text, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    except (Exception, SystemExit) as exc:
        rc = repr(exc)
    return rc, out.getvalue(), err.getvalue()


class Session:
    """Issues requests on one corpus and keeps what the checks need.

    Every request on an instance must print byte-identical output (solver
    stats included); a request that differs from the first answer fails.
    """

    def __init__(self, w: Workload, files, directory: Path):
        self.w = w
        self.files = files
        directory.mkdir(parents=True, exist_ok=True)
        self.paths = [directory / name for name, _ in files]
        for path, (_, data) in zip(self.paths, files):
            path.write_bytes(data)
        self.outputs: dict[int, str] = {}
        self.served: Counter = Counter()  # certified-so-far requests per instance
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.latencies_ns: list[int] = []

    def request(self, idx: int, counted: bool = True) -> int:
        argv = (self.w.argv[0], "--input", str(self.paths[idx]), *self.w.argv[1:])
        start = time.perf_counter_ns()
        rc, text, err = call_cli(argv)
        latency = time.perf_counter_ns() - start
        ok = rc == 0 and self.outputs.setdefault(idx, text) == text
        if not ok:
            why = f"exit {rc}: {err.strip()[:200]}" if rc != 0 else "output changed"
            self.errors.append(f"{self.paths[idx].name}: {why}")
        if counted:
            self.attempted += 1
            self.latencies_ns.append(latency)
            if ok:
                self.served[idx] += 1
            else:
                self.failed += 1
        return latency

    def run_pass(self) -> int:
        """One request per instance in corpus order; returns the wall in ns."""
        return sum(self.request(i) for i in range(len(self.paths)))

    def check(self) -> Fraction:
        """Exact check of every distinct answer; returns max f_value / opt_f."""
        worst = Fraction(0)
        for idx, text in sorted(self.outputs.items()):
            inst = parse_instance(self.files[idx][1])
            reason, ratio = check_answer(self.w.argv, inst, text)
            if reason is not None:
                self.errors.append(f"{self.paths[idx].name}: {reason}")
                self.failed += self.served.pop(idx, 0)
            worst = max(worst, ratio)
        return worst

    def digests(self) -> dict[str, str]:
        return {
            self.paths[i].name: answer_digest(self.w.argv, text)
            for i, text in sorted(self.outputs.items())
        }


def tail(sorted_values) -> tuple[float, int]:
    """Value with ten samples above it (the least one when there are fewer
    than eleven samples), and its percentile by nearest rank."""
    n = len(sorted_values)
    rank = max(n - 10, 1)
    return sorted_values[rank - 1], (100 * rank) // n


def warm_up(w: Workload, directory: Path) -> None:
    """One untimed request on the default seed's first instance.

    The instance does not depend on the run's seed, so set-up time does not
    move with the corpus.
    """
    Session(w, corpus(w, DEFAULT_SEED, 1), directory / "warm-up").request(0, counted=False)


def setup_probe(w: Workload, seed: int) -> None:
    """Imports are done; write the corpus and make the warm-up request."""
    directory = WORK_DIR / f"setup-{os.getpid()}"
    try:
        Session(w, corpus(w, seed, w.size), directory)
        warm_up(w, directory)
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def setup_seconds(w: Workload, seed: int, repeats: int) -> tuple[list[float], list[float]]:
    """Wall time of fresh processes from start to the end of their warm-up,
    raw and scaled by the calibration kernel timed just before and after."""
    raw, scaled = [], []
    for _ in range(repeats):
        before = [calibrate.kernel_ns() for _ in range(3)]
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", w.name, "--seed", str(seed)],
            cwd=ROOT, check=True, stdout=subprocess.DEVNULL,  # no timeout: it polls
        )
        raw.append(time.perf_counter() - start)
        after = [calibrate.kernel_ns() for _ in range(3)]
        scaled.append(raw[-1] * calibrate.REFERENCE_NS / statistics.median(before + after))
    return raw, scaled


def timed_phase(s: Session, seconds: float) -> tuple[float, list[float]]:
    """Closed loop over the corpus for at least ``seconds`` and one full pass,
    with the calibration kernel timed before each request and after the last.

    Returns the wall time and each request's scale (see calibrate.py).
    """
    calibrate.warm_up()
    kernels = [calibrate.kernel_ns()]
    start = time.perf_counter()
    k = 0
    while k < len(s.paths) or time.perf_counter() - start < seconds:
        s.request(k % len(s.paths))
        kernels.append(calibrate.kernel_ns())
        k += 1
    return time.perf_counter() - start, calibrate.scales(kernels, k)


def dp_states_per_doubling(directory: Path) -> tuple[float, list[float]]:
    """Mean solve DP states at n = 10, 20, 40; returns (geometric mean, ratios)."""
    means = []
    for n in SCALING_SIZES:
        total = 0
        for seed in SCALING_SEEDS:
            inst = generate_instance(n=n, t=1, seed=seed, pmax=100, wmax=100, cmax=100)
            path = directory / f"scaling-n{n}-{seed}.json"
            path.write_text(serialize_instance(inst))
            rc, text, err = call_cli(("solve", "--input", str(path), "--eps", "2"))
            if rc != 0:
                raise RuntimeError(f"scaling solve failed: {rc} {err}")
            total += json.loads(text)["stats"]["dp_states"]
        means.append(total / len(SCALING_SEEDS))
    ratios = [b / a for a, b in zip(means, means[1:])]
    return sqrt(means[-1] / means[0]), ratios


def output_drift(s: Session, directory: Path) -> int:
    """Instances of the default-seed corpus whose answer digest changed."""
    golden = json.loads(GOLDEN.read_text()).get(s.w.name, {}).get("answers", {})
    files = corpus(s.w, DEFAULT_SEED, min(len(s.files), TRACE_SIZE))
    if s.files == files:
        digests = s.digests()
    else:
        ref = Session(s.w, files, directory / "ref")
        for i in range(len(ref.paths)):
            ref.request(i, counted=False)
        digests = ref.digests()
    return sum(1 for name, _ in files if digests.get(name) != golden.get(name))


def _frac(num: int, den: int) -> float:
    return num / den if den else 0.0


def traced_phase(s: Session, seconds: float, directory: Path):
    """Untraced and traced passes over the corpus, alternating, for ``seconds``.

    At least two traced passes run, so their counts can be compared.
    """
    tracer = Tracer()
    per_pass = []
    untraced_ns = traced_ns = 0
    start = time.perf_counter()
    while len(per_pass) < 2 or time.perf_counter() - start < seconds:
        untraced_ns += s.run_pass()
        tracer.counts.clear()
        tracer.install()
        try:
            for i in range(len(s.paths)):
                tracer.request_id = (len(per_pass), i)
                traced_ns += s.request(i)
        finally:
            tracer.uninstall()
        per_pass.append(Counter(tracer.counts))
    if any(c != per_pass[0] for c in per_pass):
        s.errors.append("per-layer counts differ between traced passes")
    counts = per_pass[0]
    passes = len(per_pass)
    requests = passes * len(s.paths)
    self_ns = tracer.self_ns()

    m = {}
    for layer in LAYERS:
        if layer not in ("fptas.search", "fptas.split_grid"):
            m[f"{layer}.calls"] = (counts[f"{layer}.calls"], "count")
        m[f"{layer}.self_ms"] = (self_ns[layer] / 1e6 / requests, "ms/req")
    m["fptas.dp_build.cells"] = (counts["fptas.dp_build.cells"], "count")
    m["fptas.round.zero_unit_frac"] = (
        _frac(counts["fptas.round.zero_units"], counts["fptas.round.items"]), "fraction")
    m["fptas.candidate.useful_frac"] = (
        _frac(counts["fptas.candidate.useful"], counts["fptas.candidate.calls"]), "fraction")
    m["fptas.level.passed_frac"] = (
        _frac(counts["fptas.level.passed"], counts["fptas.level.calls"]), "fraction")
    m["dual.candidates.points"] = (counts["dual.candidates.points"], "count")
    m["linalg.solve.useful_frac"] = (
        _frac(counts["linalg.solve.useful"], counts["linalg.solve.calls"]), "fraction")
    m["nominal.knapsack.cells"] = (counts["nominal.knapsack.cells"], "count")

    stats = Counter()
    if s.w.argv[0] == "solve":
        for text in s.outputs.values():
            stats.update(json.loads(text)["stats"])
    for key in ("candidates", "dp_tables", "dp_states"):
        m[f"fptas.stats.{key}"] = (stats[key], "count")

    doubling, ratios = dp_states_per_doubling(directory)
    if not all(4 <= r <= 16 for r in ratios):
        s.errors.append(f"DP states per doubling {ratios} outside [4, 16]")
    m["fptas.dp_states_per_doubling"] = (doubling, "ratio")
    m["check.output_drift"] = (output_drift(s, directory), "count")
    m["trace.overhead_frac"] = (traced_ns / untraced_ns - 1, "fraction")

    request_ms = traced_ns / 1e6 / requests
    notes = [f"traced passes={passes} requests={requests} "
             f"mean traced request={request_ms:.3f} ms"]
    for layer in sorted(LAYERS, key=lambda name: -self_ns[name]):
        ms = self_ns[layer] / 1e6 / requests
        notes.append(f"share {layer:28s} {ms:10.3f} ms/req {100 * ms / request_ms:6.2f}%")
    notes.append(f"dp states per doubling: {' '.join(f'{r:.3f}' for r in ratios)}")
    notes += [f"patched {fn} in {' '.join(mods)}" for fn, mods in tracer.holders.items()]
    return m, notes


def provenance(seed: int) -> str:
    model = platform.machine() or "unknown"  # platform.processor() would fork uname
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return (f"seed={seed} python={platform.python_version()} cpus={os.cpu_count()} "
            f"cpu_model={model!r} commit={_commit()}")


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    with contextlib.suppress(OSError):
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    return "unknown"


def run_workload(w: Workload, seed: int, seconds: float, trace: bool,
                 size: int | None = None, setup_repeats: int = SETUP_REPEATS):
    """One benchmark run; returns (result, human-readable lines, session)."""
    directory = WORK_DIR / str(os.getpid())
    if size is None:
        size = TRACE_SIZE if trace else w.size
    try:
        files = corpus(w, seed, size)
        s = Session(w, files, directory / "corpus")
        warm_up(w, directory)
        lines = [f"# {provenance(seed)}",
                 f"# workload={w.name} instances={len(files)} "
                 f"corpus_digest={corpus_digest(files)}"]
        if trace:
            metrics, notes = traced_phase(s, seconds, directory)
            s.check()
        else:
            elapsed, scale = timed_phase(s, seconds)
            usage = [resource.getrusage(who).ru_maxrss
                     for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
            worst = s.check()
            raw_setups, setups = setup_seconds(w, seed, setup_repeats)
            raw_lat = sorted(ns / 1e6 for ns in s.latencies_ns)
            lat = sorted(ns / 1e6 * f for ns, f in zip(s.latencies_ns, scale))
            tail_ms, pct = tail(lat)
            certified = s.attempted - s.failed
            metrics = {
                "setup_s": (statistics.median(setups), "s"),
                "throughput_ops": (certified / (sum(lat) / 1e3), "1/s"),
                "latency_ms_p50": (statistics.median(lat), "ms"),
                "latency_ms_tail": (tail_ms, "ms"),
                "certified_frac": (certified / s.attempted, "fraction"),
                "ratio_to_opt_max": (float(worst), "ratio"),
                "peak_rss_mb": (sum(usage) / 1024, "MB"),
            }
            notes = [f"latency samples={len(lat)} tail=p{pct}",
                     f"timings scaled to a {calibrate.REFERENCE_NS / 1e6:g} ms kernel; "
                     f"scale median={statistics.median(scale):.4f} "
                     f"min={min(scale):.4f} max={max(scale):.4f}",
                     f"raw wall: throughput={certified / elapsed:.4f} 1/s "
                     f"p50={statistics.median(raw_lat):.4f} ms "
                     f"tail={tail(raw_lat)[0]:.4f} ms",
                     f"setup runs: raw {' '.join(f'{t:.4f}' for t in raw_setups)} s, "
                     f"scaled {' '.join(f'{t:.4f}' for t in setups)} s",
                     f"max rss: self={usage[0]} KiB children={usage[1]} KiB",
                     f"failed_frac={s.failed / s.attempted} "
                     f"ratio_to_opt_max={worst}"]
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    lines += [f"# {note}" for note in notes]
    lines += [f"# error: {e}" for e in s.errors[:20]]
    lines += [f"{name} = {value} {unit}" for name, (value, unit) in metrics.items()]
    result = {
        "correct": not s.errors and s.failed == 0,
        "attempted": s.attempted,
        "failed": s.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    return result, lines, s


def record_golden() -> int:
    """Write the default-seed answer digests of every workload to golden.json."""
    golden = {}
    for w in WORKLOADS.values():
        directory = WORK_DIR / f"golden-{os.getpid()}"
        try:
            files = corpus(w, DEFAULT_SEED, TRACE_SIZE)
            s = Session(w, files, directory)
            for i in range(len(files)):
                s.request(i)
            s.check()
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        if s.errors:
            print("\n".join(s.errors), file=sys.stderr)
            return 1
        golden[w.name] = {"corpus_digest": corpus_digest(files), "answers": s.digests()}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0
