"""antsearch benchmark: four workloads, end-to-end metrics, per-layer tracing.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from ./src.
Each operation runs in its own process (perfbench/child.py) so that its wall
time and peak RSS (ru_maxrss from wait4) are the ones a user of the CLI sees.

--trace 0 measures set-up several times, then repeats the workload's
operation until the next one would end after S seconds (at least once), and
prints the end-to-end metrics as medians.  --trace 1 runs the operation
traced, untraced, traced again, and prints the per-layer metrics derived from the
spans plus the tracing overhead.  The last line of stdout is the result
object; the line before it is a report with provenance, per-operation
details, output digests and the benchmark's own checks.

This process stays small on purpose: Linux charges a child's ru_maxrss with
the parent's peak RSS (the child inherits it at fork and keeps it over exec),
so the parent imports no numpy and never loads a large output.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench"
PINS = BENCH / "digests.json"

SETUP_REPEATS = 9
TRACED_SETUPS = 3
DEADLINE_S = 170.0

SEARCH = "nonuniform-search:D=256,l=2"
# Two 64-trial cells per operation, seeds 2N and 2N+1.  Wall time follows the
# number of unfound trials (each runs 16 walkers to the budget), which is
# binomial; two independent cells halve that variance.  Fewer trials per cell
# risk a cell with no unfound trial, which ends far sooner.
COIN_TRIALS = 64


def _simulate(alg, D, trials, fmt, seed, extra=()):
    return ["simulate", "--alg", alg, "--target", "uniform", "--D", str(D), "--n", "16",
            "--trials", str(trials), "--seed", str(seed), "--format", fmt, *extra]


class Workload:
    def __init__(self, specs, invocations, predicate, serial_baseline=False):
        self.specs = specs  # machines built by set-up
        self.invocations = invocations  # (seed, extra CLI args) -> [(label, mode, args)]
        self.predicate = predicate  # (output paths by label) -> (ok, details)
        self.serial_baseline = serial_baseline  # traced run also times --jobs 1


def _coin_ok(out):
    ok, rates = True, {}
    for label, path in out.items():
        lines = path.read_text(encoding="utf-8").splitlines()[1:]
        n = len(lines)
        rate = sum(1 for line in lines if line.split(",")[3] == "True") / n if n else 0.0
        # find_rate >= 0.9 judged at this sample size: a sample consistent with
        # a find probability of 0.9 may fall 5 sigma short, as verification_suite
        # allows; the true rate is about 0.94, so a flat 0.9 fails 1 run in 6.
        ok = ok and n == COIN_TRIALS and rate >= 0.9 - 5 * math.sqrt(0.9 * 0.1 / n)
        rates[label] = rate
    return ok, {"find_rate": rates}


def _records_ok(out):
    res = _run_child("check-records", [str(out["json"]), str(out["csv"])], OUT / "check.out", None)
    if res["rc"] != 0:
        return False, {"error": res["stderr"]}
    verdict = json.loads(Path(res["path"]).read_text(encoding="utf-8"))
    return verdict["agree"] and verdict["trials"] == 20000, verdict


def _coverage_ok(out):
    rep = json.loads(out["json"].read_text(encoding="utf-8"))
    ok = (
        rep["hit_probability"] < 0.5
        and rep["per_agent_mean_fraction"] < 0.25
        and rep["post_r0_containment"] >= 0.99
    )
    return ok, {k: rep[k] for k in ("hit_probability", "per_agent_mean_fraction", "post_r0_containment")}


def _exact_ok(out):
    doc = json.loads(out["json"].read_text(encoding="utf-8"))
    cert = doc["certificate"]
    fallbacks = int(not cert["exact"]) + sum(
        1 for rep in doc["reports"] for c in rep["recurrent_classes"] if not c["exact"]
    )
    ok = all(v == "1/1" for v in doc["absorption"].values()) and cert["exact"] and cert["holds"] and not fallbacks
    return ok, {"absorption_states": len(doc["absorption"]), "certificate_holds": cert["holds"],
                "float_fallbacks": fallbacks}


WORKLOADS = {
    "coin-search": Workload(
        [SEARCH],
        lambda seed, extra: [(f"csv{i}", "cli", _simulate(SEARCH, 256, COIN_TRIALS, "csv", 2 * seed + i, extra))
                             for i in (0, 1)],
        _coin_ok,
    ),
    "records": Workload(
        ["nonuniform:D=8"],
        lambda seed, extra: [(fmt, "cli", _simulate("nonuniform:D=8", 8, 20000, fmt, seed, extra))
                             for fmt in ("json", "csv")],
        _records_ok,
        serial_baseline=True,
    ),
    "coverage": Workload(
        ["walkbaseline"],
        lambda seed, extra: [("json", "cli", ["coverage", "--alg", "walkbaseline", "--D", "256", "--n", "16",
                                               "--trials", "20", "--seed", str(seed), *extra])],
        _coverage_ok,
    ),
    # exact Fraction analysis has no randomness: the seed does not enter
    "exact-analysis": Workload(
        ["uniform:l=1,n=4,K=4,cap=8", SEARCH],
        lambda seed, extra: [("json", "exact", [])],
        _exact_ok,
    ),
}


# ---------------------------------------------------------------------------
# child processes

_T0 = time.perf_counter()


def _env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


_ENV = _env()


def _run_child(mode, args, out_path, trace_path):
    """Run child.py to completion; wall seconds, peak RSS and exit code."""
    cmd = [sys.executable, str(BENCH / "child.py"), mode]
    if mode != "check-records":
        cmd.append(str(trace_path) if trace_path else "-")
    cmd.extend(args)
    err_path = out_path.with_suffix(".err")
    timeout = max(5.0, DEADLINE_S - (time.perf_counter() - _T0))
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT, env=_ENV)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = rc = os.waitstatus_to_exitcode(status)
    stderr = err_path.read_text(encoding="utf-8", errors="replace")[-2000:] if rc else ""
    return {"path": str(out_path), "wall_s": wall, "rss_mb": usage.ru_maxrss / 1024, "rc": rc, "stderr": stderr}


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class Runner:
    def __init__(self, name, seed):
        self.seed = seed
        self.workload = WORKLOADS[name]
        self.verdicts = {}  # digest -> (ok, details): same bytes, same verdict
        self.ops = []
        self.setups = []

    def setup(self, traced):
        i = len(self.setups)
        trace = OUT / f"setup{i}.trace.json" if traced else None
        res = _run_child("setup", self.workload.specs, OUT / f"setup{i}.out", trace)
        res["ok"] = res["rc"] == 0
        if res["ok"]:
            res["setup_s"] = json.loads(Path(res["path"]).read_text(encoding="utf-8"))["setup_s"]
        res["trace"] = trace
        self.setups.append(res)
        return res

    def op(self, traced=False, serial=False):
        """One execution of the workload: its invocations, then the predicate."""
        i = len(self.ops)
        plan = self.workload.invocations(self.seed, ["--jobs", "1"] if serial else [])
        op = {"wall_s": 0.0, "rss_mb": 0.0, "rc": [], "digests": {}, "traces": [], "cli_bytes": 0,
              "traced": traced, "serial": serial}
        outputs = {}
        for label, mode, args in plan:
            path = OUT / f"{label}.out"
            trace = OUT / f"op{i}.{label}.trace.json" if traced else None
            res = _run_child(mode, args, path, trace)
            op["wall_s"] += res["wall_s"]
            op["rss_mb"] = max(op["rss_mb"], res["rss_mb"])
            op["rc"].append(res["rc"])
            if res["rc"]:
                op["stderr"] = res["stderr"]
            op["digests"][label] = _sha256(path)
            if mode == "cli":
                op["cli_bytes"] += os.path.getsize(path)
            if trace:
                op["traces"].append(trace)
            outputs[label] = path
        key = tuple(sorted(op["digests"].items()))
        if any(op["rc"]):
            op["ok"], op["detail"] = False, {"error": "non-zero exit"}
        else:
            if key not in self.verdicts:
                self.verdicts[key] = self.workload.predicate(outputs)
            op["ok"], op["detail"] = self.verdicts[key]
        self.ops.append(op)
        return op


# ---------------------------------------------------------------------------
# metrics


def _ratio(a, b):
    return a / b if b else 0.0


def _median(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


_EMPTY = tracing.empty_totals()


def _layer_metrics(op):
    """Per-layer metrics of one traced operation (all its invocations)."""
    spans = []
    restored = True
    for path in op["traces"]:
        if not path.is_file():  # the child was killed before writing its spans
            restored = False
            continue
        doc = json.loads(path.read_text(encoding="utf-8"))
        base = len(spans)
        spans.extend([s[0], None if s[1] is None else s[1] + base, *s[2:]] for s in doc["spans"])
        restored = restored and doc["restored"]
    totals = tracing.layer_totals(spans)
    del spans

    def get(name):
        return totals.get(name, _EMPTY)

    def self_s(name):
        return get(name)["self_ns"] / 1e9

    rng_e, rng_x = get("rng.engine"), get("rng.experiments")
    draws = rng_e["units"] + rng_x["units"]
    rng_ns = rng_e["self_ns"] + rng_x["self_ns"]
    batch = get("engine.run_batch")
    battrs = batch["attrs"]
    # two engine draws per walker-event, two calls per loop iteration
    events, iterations = rng_e["units"] // 2, rng_e["calls"] // 2
    exp = get("experiments.run_experiment")
    cov = get("experiments.coverage_experiment")
    cli_self = self_s("cli.main")
    m = {
        "rng.draws": draws,
        "rng.calls": rng_e["calls"] + rng_x["calls"],
        "rng.self_s": rng_ns / 1e9,
        "rng.ns_per_draw": _ratio(rng_ns, draws),
        "engine.run_batch_s": batch["self_ns"] / 1e9,
        "engine.walker_events": events,
        "engine.iterations": iterations,
        "engine.ns_per_walker_event": _ratio(batch["self_ns"], events),
        "engine.us_per_iteration": _ratio(batch["self_ns"] / 1e3, iterations),
        "engine.occupancy": _ratio(events, battrs.get("walker_slots", 0)),
        "engine.events_per_move": _ratio(events, battrs.get("moves", 0)),
        **{f"engine.outcome.{k}": battrs.get(f"outcome.{k}", 0)
           for k in ("found", "budget", "step_cap", "halted", "superseded")},
        "grid_sim.swarm_from_batch_s": self_s("grid_sim.swarm_from_batch"),
        "grid_sim.target_resolve_s": self_s("grid_sim.TargetSpec.resolve"),
        "experiments.self_s": (exp["self_ns"] + get("experiments.chunk")["self_ns"]) / 1e9,
        "experiments.chunks": get("experiments.chunk")["calls"],
        "experiments.cpu_over_wall": _ratio(exp["cpu_ns"], exp["total_ns"]),
        "experiments.coverage_s": cov["self_ns"] / 1e9,
        "experiments.coverage_ns_per_walker_step": _ratio(cov["self_ns"], rng_x["units"]) if cov["calls"] else 0.0,
        "experiments.coverage_visited_mb": cov["attrs"].get("visited_bytes", 0) / 2**20,
        "cli.self_s": cli_self,
        "cli.output_bytes": op["cli_bytes"] if get("cli.main")["calls"] else 0,
        "cli.emit_mb_per_s": _ratio(op["cli_bytes"] / 2**20, cli_self),
        "chain_analysis.absorption_s": self_s("chain_analysis.absorption_probabilities"),
        "chain_analysis.mixing_certificate_s": self_s("chain_analysis.mixing_certificate"),
        "chain_analysis.stationary_s": self_s("chain_analysis.stationary"),
        "chain_analysis.decompose_s": self_s("chain_analysis.decompose"),
        "chain_analysis.float_fallbacks": sum(t["attrs"].get("float_fallbacks", 0) for t in totals.values()),
        "automaton.step_distribution_s": self_s("automaton.step_distribution"),
    }
    counters = {
        name: [t["calls"], t["units"], sorted(t["attrs"].items())]
        for name, t in sorted(totals.items())
    }
    counters["cli.output_bytes"] = op["cli_bytes"]
    return m, counters, restored


def _setup_layer_metrics(setups):
    build, tables, restored = [], [], True
    for res in setups:
        if not res["trace"].is_file():
            restored = False
            continue
        doc = json.loads(res["trace"].read_text(encoding="utf-8"))
        totals = tracing.layer_totals(doc["spans"])
        build.append(totals.get("algorithms.build_from_spec", _EMPTY)["self_ns"] / 1e9)
        tables.append(totals.get("engine.build_tables", _EMPTY)["self_ns"] / 1e9)
        restored = restored and doc["restored"]
    return {"engine.build_tables_s": _median(tables), "algorithms.build_s": _median(build)}, restored


# ---------------------------------------------------------------------------
# runs


def _provenance():
    info = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "git_commit": None,
        "git_dirty": None,
    }
    if (ROOT / ".git").exists():
        try:
            head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
            status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, capture_output=True, text=True)
        except OSError:
            pass
        else:
            if head.returncode == 0:
                info["git_commit"] = head.stdout.strip()
                info["git_dirty"] = bool(status.stdout.strip())
    return info


def run_untraced(runner, seconds):
    for _ in range(SETUP_REPEATS):
        runner.setup(traced=False)
    start = time.perf_counter()
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        runner.op()
        longest = max(longest, time.perf_counter() - t0)
        if time.perf_counter() - start + longest > seconds:
            break
    ops, setups = runner.ops, runner.setups
    metrics = {
        "wall_s": statistics.median(o["wall_s"] for o in ops),
        "setup_s": _median(s["setup_s"] for s in setups if s["ok"]),
        "peak_rss_mb": statistics.median(o["rss_mb"] for o in ops),
        "ops_ok_frac": sum(o["ok"] for o in ops + setups) / len(ops + setups),
    }
    return metrics, {}


def run_traced(runner):
    for _ in range(TRACED_SETUPS):
        runner.setup(traced=True)
    # untraced between the two traced operations, so drift in machine speed
    # over the run does not read as tracing overhead
    traced = [runner.op(traced=True)]
    plain = runner.op()
    traced.append(runner.op(traced=True))
    layers = [_layer_metrics(op) for op in traced]
    setup_metrics, setup_restored = _setup_layer_metrics(runner.setups)
    metrics = {k: statistics.median(lm[0][k] for lm in layers) for k in layers[0][0]}
    metrics.update(setup_metrics)
    if runner.workload.serial_baseline:
        serial = runner.op(serial=True)
        metrics["experiments.jobs_speedup"] = serial["wall_s"] / plain["wall_s"]
    else:
        metrics["experiments.jobs_speedup"] = 0.0
    traced_wall = statistics.median(op["wall_s"] for op in traced)
    metrics["trace.overhead_s"] = traced_wall - plain["wall_s"]
    metrics["trace.overhead_frac"] = (traced_wall - plain["wall_s"]) / plain["wall_s"]
    checks = {
        "wrappers_restored": setup_restored and all(lm[2] for lm in layers),
        "counters_repeat": layers[0][1] == layers[1][1],
    }
    return metrics, checks


def _declared(section):
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc[section]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "antsearch" / "__init__.py").is_file():
        print(f"error: no antsearch sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    units = _declared("per_layer" if args.trace else "end_to_end")
    provenance = _provenance()
    provenance["loadavg_start"] = os.getloadavg()
    runner = Runner(args.workload, args.seed)
    if args.trace:
        metrics, checks = run_traced(runner)
    else:
        metrics, checks = run_untraced(runner, args.seconds)
    provenance["loadavg_end"] = os.getloadavg()

    pins = json.loads(PINS.read_text(encoding="utf-8"))
    pinned = pins.get(args.workload, {}).get(str(args.seed))
    digests = runner.ops[0]["digests"]
    # traced and untraced, serial and default --jobs: the same bytes
    checks["digests_identical"] = all(op["digests"] == digests for op in runner.ops)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "provenance": provenance,
        "digests": digests,
        "digest_pin": "unpinned" if pinned is None else ("match" if pinned == digests else "changed"),
        "checks": checks,
        "setups": [{k: s.get(k) for k in ("setup_s", "wall_s", "rss_mb", "rc")} for s in runner.setups],
        "ops": [{k: op.get(k) for k in ("wall_s", "rss_mb", "rc", "ok", "detail", "traced", "serial", "stderr")}
                for op in runner.ops],
    }
    print(json.dumps(report))
    attempted = len(runner.ops) + len(runner.setups)
    failed = sum(1 for x in runner.ops + runner.setups if not x["ok"])
    correct = failed == 0 and all(checks.values())
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
