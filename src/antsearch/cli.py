"""Command-line surface: build machines, simulate, analyze, sweep, verify.

Exit codes: 0 success, 1 validation error, 2 verification-suite failure.
All randomized commands require --seed; outputs are byte-deterministic for
a given seed.  Trial chunks run serially; --jobs is accepted and ignored.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .algorithms import KINDS, build_from_spec
from .automaton import chi, from_json, min_probability, to_json, validate
from .chain_analysis import analyze_report
from .experiments import (
    ExperimentConfig,
    coverage_experiment,
    run_experiment,
    sweep_rows_to_csv,
    verification_suite,
)
from .grid_sim import TargetSpec, run_agent, trace_rows


class _Parser(argparse.ArgumentParser):
    # Spec'd exit codes: argparse's default exit status for bad flags is 2,
    # which is reserved here for suite failures; remap usage errors to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _effective_spec(alg: str, args) -> str:
    """Merge --D/--l/--K/--cap/--n flag values into an algorithm spec string
    that does not already fix them, so `--alg nonuniform --D 8` works.

    A flag fills a parameter of the same name, so --n reaches only the
    uniform kind, whose parameters include the agent count n."""
    if alg.startswith("file:"):
        return alg
    kind, _, rest = alg.partition(":")
    kind = kind.strip()
    if kind not in KINDS:
        return alg  # let build_from_spec produce the canonical error
    order = KINDS[kind].params
    present = {}
    for part in rest.split(",") if rest else []:
        key = part.split("=", 1)[0].strip()
        present[key] = part.strip()
    parts = []
    for key in order:
        if key in present:
            parts.append(present[key])
        elif getattr(args, key, None) is not None:
            parts.append(f"{key}={getattr(args, key)}")
    for key, frag in present.items():
        if key not in order:
            parts.append(frag)
    return f"{kind}:{','.join(parts)}" if parts else kind


def _load_automaton(spec: str):
    if spec.startswith("file:"):
        path = spec[len("file:"):]
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            raise ValueError(f"cannot read automaton file {path}: {e.strerror or e}")
        try:
            a = from_json(text)
        except json.JSONDecodeError as e:
            raise ValueError(
                f"automaton file {path}: invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}"
            )
        except ValueError as e:
            raise ValueError(f"automaton file {path}: {e}")
        rep = validate(a)
        if not rep.ok:
            raise ValueError(f"automaton file {path}: {rep.errors[0]}")
        return a, {"kind": "file", "params": {"path": path}}
    return build_from_spec(spec)


def _parse_target(text: str, D: int | None) -> TargetSpec:
    if text == "corner":
        if D is None:
            raise ValueError("--target corner needs --D")
        return TargetSpec.corner(D)
    if text == "uniform":
        if D is None:
            raise ValueError("--target uniform needs --D")
        return TargetSpec.uniform(D)
    try:
        x_s, y_s = text.split(",")
        return TargetSpec.fixed(int(x_s), int(y_s))
    except ValueError:
        raise ValueError(f"--target must be x,y or corner or uniform, got {text!r}") from None


def _emit(text: str, out: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _default_budget(D: int, n: int) -> int:
    return 64 * (D * D // n + D)


def _records_csv(records: list[dict]) -> str:
    lines = ["trial,target_x,target_y,found,m_moves,m_steps,finder,exhausted"]
    for r in records:
        m_steps = "" if r["m_steps"] is None else str(r["m_steps"])
        finder = "" if r["finder"] is None else str(r["finder"])
        lines.append(
            f"{r['trial']},{r['target'][0]},{r['target'][1]},{r['found']},"
            f"{r['m_moves']},{m_steps},{finder},{r['exhausted']}"
        )
    return "\n".join(lines) + "\n"


def _cmd_chi(args) -> int:
    a, info = _load_automaton(_effective_spec(args.alg, args))
    m = chi(a)
    lines = [f"b={m.b} ℓ={m.ell} χ={m.chi:g}"]
    p0 = min_probability(a)
    detail = f"states={a.n_states} p_min={p0.numerator}/{p0.denominator}"
    if "fragment" in info:
        f = info["fragment"]
        detail += (
            f" fragment: internal={f['states']} b={f['b']} ℓ={f['ell']} χ={f['chi']:g}"
        )
    lines.append(detail)
    _emit("\n".join(lines), args.out)
    return 0


def _cmd_simulate(args) -> int:
    a, _ = _load_automaton(_effective_spec(args.alg, args))
    if args.D is None and (args.target in ("corner", "uniform") or args.budget is None):
        raise ValueError("simulate needs --D (for the target and the default budget)")
    target = _parse_target(args.target, args.D)
    if args.n < 1:
        raise ValueError("--n must be >= 1")
    budget = args.budget if args.budget is not None else _default_budget(args.D, args.n)
    if args.trace:
        if args.trials != 1 or args.n != 1:
            raise ValueError("--trace requires --trials 1 and --n 1")
        run = run_agent(a, target, budget, args.seed, record=True)
        rows = trace_rows(a, run.events)
        lines = ["step,state,action,x,y"]
        lines.extend(f"{s},{st},{act},{x},{y}" for s, st, act, x, y in rows)
        _emit("\n".join(lines), args.out)
        return 0
    cfg = ExperimentConfig(
        automaton=a,
        target=target,
        trials=args.trials,
        budget=budget,
        master_seed=args.seed,
        n=args.n,
        D=args.D,
        ell=args.l,
        algorithm=args.alg,
    )
    result = run_experiment(cfg)
    if args.format == "csv":
        _emit(_records_csv(result.records), args.out)
    else:
        _emit(json.dumps({"row": result.row, "records": result.records}, indent=2), args.out)
    return 0


def _cmd_analyze(args) -> int:
    a, _ = _load_automaton(_effective_spec(args.alg, args))
    if args.D is None:
        raise ValueError("analyze needs --D")
    report = analyze_report(a, args.D)
    _emit(json.dumps(report, indent=2), args.out)
    return 0


def _cmd_sweep(args) -> int:
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ValueError(f"cannot read sweep file {args.file}: {e.strerror or e}")
    try:
        plan = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(
            f"sweep file {args.file}: invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}"
        )
    if not isinstance(plan, dict):
        raise ValueError(f"sweep file {args.file}: top level must be an object")
    for key in ("algorithm", "target", "D", "n", "trials"):
        if key not in plan:
            raise ValueError(f"sweep file {args.file}: missing required key {key!r}")
    if "budget" not in plan and "budget_factor" not in plan:
        raise ValueError(f"sweep file {args.file}: needs either 'budget' or 'budget_factor'")
    for key in ("D", "n", "l"):
        if key in plan and not (
            isinstance(plan[key], list) and all(type(v) is int and v >= 1 for v in plan[key])
        ):
            raise ValueError(f"sweep file {args.file}: {key!r} must be a list of positive integers")
    template = plan["algorithm"]
    Ds = plan["D"]
    ns = plan["n"]
    ells = plan.get("l", [None])
    trials = int(plan["trials"])
    rows = []
    for D in Ds:
        for n in ns:
            for ell in ells:
                fields = {"D": D, "n": n}
                if ell is not None:
                    fields["l"] = ell
                try:
                    alg = template.format(**fields)
                except (KeyError, IndexError) as e:
                    raise ValueError(
                        f"sweep file {args.file}: algorithm template {template!r} "
                        f"references unknown field {e}"
                    ) from None
                a, _ = _load_automaton(alg)
                budget = (
                    int(plan["budget"])
                    if "budget" in plan
                    else int(plan["budget_factor"]) * (D * D // n + D)
                )
                cfg = ExperimentConfig(
                    automaton=a,
                    target=_parse_target(plan["target"], D),
                    trials=trials,
                    budget=budget,
                    master_seed=args.seed,
                    n=n,
                    D=D,
                    ell=ell,
                    algorithm=alg,
                )
                rows.append(run_experiment(cfg).row)
    if args.format == "json":
        _emit(json.dumps(rows, indent=2), args.out)
    else:
        _emit(sweep_rows_to_csv(rows), args.out)
    return 0


def _cmd_coverage(args) -> int:
    a, _ = _load_automaton(_effective_spec(args.alg, args))
    if args.D is None:
        raise ValueError("coverage needs --D")
    delta = args.budget if args.budget is not None else args.D * args.D
    w = math.ceil(args.D / 16)
    report = coverage_experiment(a, args.D, delta, w, args.n, args.trials, args.seed)
    _emit(json.dumps(report, indent=2), args.out)
    return 0


def _cmd_verify(args) -> int:
    report = verification_suite(seed=args.seed)
    _emit(json.dumps(report, indent=2), args.out)
    return 0 if report["passed"] else 2


def _cmd_export(args) -> int:
    a, _ = _load_automaton(_effective_spec(args.alg, args))
    _emit(to_json(a), args.out)
    return 0


# Kept so that existing command lines still parse; chunks always run serially.
_JOBS_HELP = "accepted and ignored (no-op); trial chunks run serially"


def _build_parser() -> _Parser:
    parser = _Parser(prog="antsearch", description="Grid-search automata: simulate and analyze.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add(name, fn, help_):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(fn=fn)
        return p

    def alg_flags(p, with_n=True):
        p.add_argument("--alg", required=True, help="algorithm spec, e.g. nonuniform:D=64, or file:PATH")
        p.add_argument("--D", type=int, help="search radius (max-norm)")
        p.add_argument("--l", type=int, help="resolution exponent parameter")
        p.add_argument("--K", type=int, help="uniform algorithm gate constant")
        p.add_argument("--cap", type=int, help="uniform algorithm phase cap")
        if with_n:
            p.add_argument("--n", type=int, default=1, help="number of agents (default 1)")

    p = add("chi", _cmd_chi, "print selection-complexity accounting for a machine")
    alg_flags(p, with_n=False)
    p.add_argument("--n", type=int, help="agent count parameter (uniform machines)")
    p.add_argument("--out", help="write output to this path instead of stdout")

    p = add("simulate", _cmd_simulate, "run seeded swarm trials")
    alg_flags(p)
    p.add_argument("--target", required=True, help="x,y | corner | uniform")
    p.add_argument("--trials", type=int, default=1, help="number of independent trials (default 1)")
    p.add_argument("--budget", type=int, help="move budget per agent (default 64*(D^2/n + D))")
    p.add_argument("--seed", type=int, required=True, help="master seed")
    p.add_argument("--jobs", type=int, help=_JOBS_HELP)
    p.add_argument("--out", help="write output to this path instead of stdout")
    p.add_argument("--format", choices=["csv", "json"], default="json", help="output format")
    p.add_argument("--trace", action="store_true", help="emit one agent's step trace (trials=1, n=1)")

    p = add("analyze", _cmd_analyze, "exact chain decomposition and coverage report")
    alg_flags(p, with_n=False)
    p.add_argument("--n", type=int, help="agent count parameter (uniform machines)")
    p.add_argument("--out", help="write output to this path instead of stdout")

    p = add("sweep", _cmd_sweep, "run a declarative sweep plan (JSON file)")
    p.add_argument("file", help="sweep plan JSON file")
    p.add_argument("--seed", type=int, required=True, help="master seed")
    p.add_argument("--jobs", type=int, help=_JOBS_HELP)
    p.add_argument("--out", help="write output to this path instead of stdout")
    p.add_argument("--format", choices=["csv", "json"], default="csv", help="output format")

    p = add("coverage", _cmd_coverage, "coverage statistics for n agents over Delta steps")
    alg_flags(p)
    p.add_argument("--trials", type=int, default=20, help="number of independent trials (default 20)")
    p.add_argument("--budget", type=int, help="steps per agent Delta (default D^2)")
    p.add_argument("--seed", type=int, required=True, help="master seed")
    p.add_argument("--out", help="write output to this path instead of stdout")

    p = add("verify", _cmd_verify, "run the finite-scale verification suite")
    p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    p.add_argument("--out", help="write output to this path instead of stdout")

    p = add("export-automaton", _cmd_export, "write a machine as JSON")
    alg_flags(p, with_n=False)
    p.add_argument("--n", type=int, help="agent count parameter (uniform machines)")
    p.add_argument("--out", help="write output to this path instead of stdout")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
