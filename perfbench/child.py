"""One benchmark operation in its own process.

    python3 perfbench/child.py setup TRACE SPEC...     import, build, cold build_tables
    python3 perfbench/child.py cli TRACE ARG...        antsearch.cli.main(ARG...)
    python3 perfbench/child.py exact TRACE             the exact-analysis queries
    python3 perfbench/child.py check-records JSON CSV  m_moves agreement of two outputs

TRACE is a path for the span file, or "-" to run untraced.  The program's
output goes to stdout; run.py times the process and reads its rusage.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402


def _frac(v):
    return f"{v.numerator}/{v.denominator}"


def _batch_counts(span, args, kwargs, res):
    import numpy as np
    from antsearch.engine import STATUS_NAMES
    from tracing import INLINE

    walkers = len(args[1])
    outcomes = np.bincount(res.status, minlength=6)
    return {
        "walkers": walkers,
        # walker slots the loop iterated over: iterations (two engine rng calls
        # each) times the batch size, the denominator of occupancy
        "walker_slots": span[INLINE].get("rng.engine", (0,))[0] // 2 * walkers,
        "moves": int(res.moves.sum()),
        **{f"outcome.{name}": int(outcomes[code]) for code, name in STATUS_NAMES.items() if code},
    }


def _coverage_counts(span, args, kwargs, res):
    D, n, trials = args[1], args[4], args[5]
    return {"visited_bytes": trials * n * (2 * D + 1) ** 2 * 2}


def _fallbacks(is_fallback):
    return lambda span, args, kwargs, res: {"float_fallbacks": int(is_fallback(res))}


def install(tracer):
    """Wrap each layer's public functions where their callers bind them."""
    from antsearch import algorithms, chain_analysis, cli, engine, experiments, grid_sim

    w = tracer.wrap
    w(cli, "main", "cli.main")
    w(cli, "build_from_spec", "algorithms.build_from_spec")
    w(algorithms, "build_from_spec", "algorithms.build_from_spec")
    w(cli, "run_experiment", "experiments.run_experiment", cpu=True)
    w(cli, "coverage_experiment", "experiments.coverage_experiment", on_result=_coverage_counts)
    w(engine, "build_tables", "engine.build_tables")
    w(experiments, "build_tables", "engine.build_tables")
    # the pool's unit of work; outside its children it is per-trial dict assembly
    w(experiments, "_chunk_records", "experiments.chunk")
    w(experiments, "run_batch", "engine.run_batch", on_result=_batch_counts)
    w(experiments, "coverage_mask", "chain_analysis.coverage_mask")
    w(experiments, "reach_bound", "chain_analysis.reach_bound")
    w(chain_analysis, "absorption_probabilities", "chain_analysis.absorption_probabilities")
    w(chain_analysis, "mixing_certificate", "chain_analysis.mixing_certificate",
      on_result=_fallbacks(lambda cert: not cert["exact"]))
    w(chain_analysis, "stationary", "chain_analysis.stationary",
      on_result=_fallbacks(lambda pi: any(not isinstance(v, Fraction) for v in pi.values())))
    w(chain_analysis, "drift_profile", "chain_analysis.drift_profile",
      on_result=_fallbacks(lambda prof: sum(not cp.exact for cp in prof.classes)))
    w(chain_analysis, "decompose", "chain_analysis.decompose")
    w(chain_analysis, "analyze_report", "chain_analysis.analyze_report")
    w(chain_analysis, "step_distribution", "automaton.step_distribution")
    inline = tracer.wrap_inline
    inline(experiments, "swarm_from_batch", "grid_sim.swarm_from_batch")
    inline(grid_sim.TargetSpec, "resolve", "grid_sim.TargetSpec.resolve")
    inline(engine, "uniforms_at", "rng.engine", units=lambda args: len(args[0]))
    inline(experiments, "uniforms_at", "rng.experiments", units=lambda args: len(args[0]))


def setup(specs):
    import antsearch  # noqa: F401
    from antsearch import algorithms, engine

    for spec in specs:
        a, _ = algorithms.build_from_spec(spec)
        engine.build_tables(a)
    return {"setup_s": time.perf_counter() - T_START}


def exact():
    """Four exact queries; no rng and no engine."""
    from antsearch import algorithms, chain_analysis

    uni, _ = algorithms.build_from_spec("uniform:l=1,n=4,K=4,cap=8")
    halt = algorithms.uniform_halt_state(1, 4, 4, 8)
    absorption = chain_analysis.absorption_probabilities(uni, [halt])
    search, _ = algorithms.build_from_spec("nonuniform-search:D=256,l=2")
    rec = chain_analysis.decompose(search).recurrent_classes[0]
    cert = chain_analysis.mixing_certificate(search, rec, 0, 1024)
    reports = [chain_analysis.analyze_report(uni, 256), chain_analysis.analyze_report(search, 256)]
    return {
        "absorption": {str(s): _frac(v) for s, v in sorted(absorption.items())},
        "certificate": {k: _frac(v) if isinstance(v, Fraction) else v for k, v in cert.items()},
        "reports": reports,
    }


def check_records(json_path, csv_path):
    with open(json_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    from_json = [(r["trial"], r["m_moves"]) for r in doc["records"]]
    del doc
    with open(csv_path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    cols = lines[0].split(",")
    t, m = cols.index("trial"), cols.index("m_moves")
    from_csv = [(int(c[t]), int(c[m])) for c in (line.split(",") for line in lines[1:])]
    return {"agree": from_json == from_csv, "trials": len(from_json)}


def main(argv):
    mode = argv[0]
    if mode == "check-records":
        print(json.dumps(check_records(argv[1], argv[2])))
        return 0
    trace_path, rest = argv[1], argv[2:]
    tracer = None
    if trace_path != "-":
        import antsearch  # noqa: F401  (import before wrapping, so setup spans only cover builds)
        import tracing  # sits beside this file; untraced children never load it

        tracer = tracing.Tracer()
        install(tracer)
    rc = 0
    try:
        if mode == "setup":
            print(json.dumps(setup(rest)))
        elif mode == "cli":
            from antsearch import cli

            rc = cli.main(rest)
        elif mode == "exact":
            print(json.dumps(exact(), indent=1))
        else:
            raise SystemExit(f"unknown mode {mode!r}")
    finally:
        if tracer is not None:
            sys.stdout.flush()
            restored = tracer.restore()
            tracer.dump(trace_path, restored=restored)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
