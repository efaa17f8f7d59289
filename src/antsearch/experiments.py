"""Seeded simulation campaigns and the finite-scale verification suite.

Everything here is deterministic given a master seed: chunks run serially
in trial order, every random draw is addressed by (seed, trial, agent, draw
index), and aggregate rows carry the exact parameters that produced them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .algorithms import (
    UniformProgram,
    boost_exponent,
    covering_phase,
    expected_iteration_moves,
    hit_probability_per_iteration,
    search_visit_probability,
    uniform_rho,
    walk_automaton,
    walk_length_pmf,
)
from .automaton import Automaton, min_probability
from .chain_analysis import coverage_mask, reach_bound
from .engine import build_tables, cumulative_table, run_batch
from .grid_sim import TargetSpec, batch_inputs, default_step_cap, swarm_from_batch
from .rng import WalkerStream, stream_keys, uniforms_at

# Trials are simulated in walker chunks of about this size to bound memory.
# A trajectory does not depend on the batch it runs in, so neither do results.
_CHUNK_WALKERS = 4096


@dataclass(frozen=True)
class ExperimentConfig:
    automaton: Automaton
    target: TargetSpec
    trials: int
    budget: int
    master_seed: int
    n: int = 1
    D: int | None = None
    ell: int | None = None
    algorithm: str = ""
    step_cap: int | None = None


@dataclass
class ExperimentResult:
    row: dict
    records: list[dict] = field(repr=False)


def _chunk_records(tables, cfg: ExperimentConfig, t0: int, t1: int, step_cap: int) -> list[dict]:
    n = cfg.n
    targets, keys, trial_idx, tx, ty = batch_inputs(cfg.master_seed, cfg.target, range(t0, t1), np.arange(n))
    res = run_batch(tables, keys, trial_idx, tx, ty, cfg.budget, step_cap)
    records = []
    for j in range(t1 - t0):
        sw = swarm_from_batch(res, range(j * n, (j + 1) * n), targets[j])
        records.append(
            {
                "trial": t0 + j,
                "target": [targets[j][0], targets[j][1]],
                "found": sw.found,
                "m_moves": sw.m_moves if sw.found else cfg.budget,
                "m_steps": sw.m_steps,
                "finder": sw.finder,
                "exhausted": not sw.found,
                "agents": [
                    {
                        "found": ag.found,
                        "moves": ag.moves,
                        "steps": ag.steps,
                        "outcome": ag.outcome,
                        "x": ag.x,
                        "y": ag.y,
                    }
                    for ag in sw.agents
                ],
            }
        )
    return records


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    if cfg.trials < 1:
        raise ValueError("trials must be >= 1")
    if cfg.n < 1:
        raise ValueError("n must be >= 1")
    if cfg.budget < 1:
        raise ValueError("budget must be >= 1")
    tables = build_tables(cfg.automaton)
    step_cap = cfg.step_cap if cfg.step_cap is not None else default_step_cap(cfg.budget)

    chunk_trials = max(1, _CHUNK_WALKERS // cfg.n)
    records = []
    for t0 in range(0, cfg.trials, chunk_trials):
        records.extend(_chunk_records(tables, cfg, t0, min(t0 + chunk_trials, cfg.trials), step_cap))

    m_moves = np.array([r["m_moves"] for r in records], dtype=np.float64)
    found = np.array([r["found"] for r in records], dtype=bool)
    mean = float(m_moves.mean())
    std = float(m_moves.std(ddof=1)) if cfg.trials > 1 else 0.0
    ci95 = 1.96 * std / math.sqrt(cfg.trials)
    found_steps = [r["m_steps"] for r in records if r["found"]]
    row = {
        "schema": 1,
        "algorithm": cfg.algorithm,
        "D": cfg.D,
        "n": cfg.n,
        "l": cfg.ell,
        "trials": cfg.trials,
        "budget": cfg.budget,
        "seed": cfg.master_seed,
        "mean_m_moves": mean,
        "std_m_moves": std,
        "ci95_m_moves": ci95,
        "find_rate": float(found.mean()),
        "exhaust_rate": float(1.0 - found.mean()),
        "mean_m_steps": float(np.mean(found_steps)) if found_steps else None,
    }
    return ExperimentResult(row=row, records=records)


SWEEP_COLUMNS = [
    "schema",
    "algorithm",
    "D",
    "n",
    "l",
    "trials",
    "budget",
    "seed",
    "mean_m_moves",
    "std_m_moves",
    "ci95_m_moves",
    "find_rate",
    "exhaust_rate",
    "mean_m_steps",
]


def sweep_rows_to_csv(rows: list[dict]) -> str:
    lines = [",".join(SWEEP_COLUMNS)]
    for row in rows:
        cells = []
        for col in SWEEP_COLUMNS:
            v = row.get(col)
            if v is None:
                cells.append("")
            elif isinstance(v, float):
                cells.append(repr(v))
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def speedup(stats_n, stats_1) -> float:
    """Mean single-agent cost divided by mean n-agent cost."""

    def _mean(s):
        return float(s["mean_m_moves"]) if isinstance(s, dict) else float(s)

    mn = _mean(stats_n)
    m1 = _mean(stats_1)
    if mn <= 0:
        raise ValueError("mean M_moves for the multi-agent stats must be positive")
    return m1 / mn


def fit_scaling_exponent(series) -> float:
    """Least-squares slope of log(mean moves) against log(D)."""
    pts = [(float(d), float(m)) for d, m in series]
    if len({d for d, _ in pts}) < 3:
        raise ValueError("need at least 3 distinct D values to fit a slope")
    if any(d <= 0 or m <= 0 for d, m in pts):
        raise ValueError("D values and means must be positive")
    xs = np.log([d for d, _ in pts])
    ys = np.log([m for _, m in pts])
    return float(np.polyfit(xs, ys, 1)[0])


def uniform_monotonicity_check(
    ell: int,
    n: int,
    K: int,
    D_list,
    trials: int,
    seed: int,
    budget: int = 10**6,
    phase_cap: int | None = None,
    compare_ell: int | None = None,
) -> dict:
    """Check that mean cost of the uniform algorithm grows with D.

    Consecutive D values pass when the larger-D mean is not below the
    smaller-D mean by more than the two 95% half-widths combined.  With
    compare_ell set, also report the cost inflation ratio per D and the
    exponent log2(ratio)/compare_ell implied by it (reported, not gated).
    """
    from .algorithms import compile_uniform

    Ds = list(D_list)
    if not Ds or Ds != sorted(Ds):
        raise ValueError("D_list must be nonempty and ascending")

    def _cell(ell_: int, D: int) -> dict:
        cap = phase_cap if phase_cap is not None else covering_phase(max(Ds), ell_) + 6
        a = compile_uniform(ell_, n, K, cap)
        cfg = ExperimentConfig(
            automaton=a,
            target=TargetSpec.corner(D),
            trials=trials,
            budget=budget,
            master_seed=seed,
            n=n,
            D=D,
            ell=ell_,
            algorithm=f"uniform:l={ell_},n={n},K={K},cap={cap}",
        )
        return run_experiment(cfg).row

    rows = [_cell(ell, D) for D in Ds]
    pairs = []
    for lo, hi in zip(rows, rows[1:]):
        slack = lo["ci95_m_moves"] + hi["ci95_m_moves"]
        pairs.append(
            {
                "D_lo": lo["D"],
                "D_hi": hi["D"],
                "mean_lo": lo["mean_m_moves"],
                "mean_hi": hi["mean_m_moves"],
                "monotone_ok": hi["mean_m_moves"] >= lo["mean_m_moves"] - slack,
            }
        )
    report = {
        "ell": ell,
        "n": n,
        "K": K,
        "trials": trials,
        "seed": seed,
        "budget": budget,
        "rows": rows,
        "pairs": pairs,
        "monotone": all(p["monotone_ok"] for p in pairs),
    }
    if compare_ell is not None:
        per_d = []
        for base_row, D in zip(rows, Ds):
            cmp_row = _cell(compare_ell, D)
            base = base_row["mean_m_moves"]
            ratio = cmp_row["mean_m_moves"] / base if base > 0 else float("inf")
            c_fit = math.log2(ratio) / compare_ell if ratio > 0 and math.isfinite(ratio) else float("nan")
            per_d.append(
                {
                    "D": D,
                    "mean_base": base,
                    "mean_compare": cmp_row["mean_m_moves"],
                    "ratio": ratio,
                    "c_fit": c_fit,
                }
            )
        report["inflation"] = {
            "ell_base": ell,
            "ell_compare": compare_ell,
            "per_D": per_d,
            "all_finite": all(math.isfinite(e["ratio"]) and e["ratio"] > 0 for e in per_d),
        }
    return report


def coverage_experiment(
    a: Automaton,
    D: int,
    delta: int,
    w: int,
    n: int,
    trials: int,
    seed: int,
    c: int = 2,
    r0: int | None = None,
) -> dict:
    """Simulate n agents for delta steps each and measure square coverage.

    Reports, over the (2D+1)^2 square: the per-agent mean visited fraction,
    the mean per-trial union fraction, the probability a uniform non-origin
    target lands in the union (exact per trial, averaged over trials), the
    empirical hit rate on one sampled target per trial, and the fraction of
    post-r0 union visits contained in the drift-predicted strip of width w.
    """
    if D < 1 or delta < 1 or n < 1 or trials < 1 or w < 0:
        raise ValueError("need D >= 1, delta >= 1, n >= 1, trials >= 1, w >= 0")
    tables = build_tables(a)
    b = (a.n_states - 1).bit_length()
    p0 = min_probability(a)
    r0_bound = reach_bound(b, p0, c, D)
    r0_eff = r0 if r0 is not None else r0_bound
    vacuous = r0_eff is None or r0_eff >= delta

    side = 2 * D + 1
    cells = side * side
    origin_cell = D * side + D
    walkers = trials * n
    # one sampled uniform target per trial, for the empirical hit rate
    targets, keys, _, _, _ = batch_inputs(seed, TargetSpec.uniform(D), range(trials), np.arange(n))

    # Full rows (self-loop included): one uniform draw per step.
    cum, tgt = cumulative_table(a.rows)

    is_move = tables.is_move
    is_origin = tables.is_origin
    dxs = tables.dx
    dys = tables.dy

    state = np.full(walkers, tables.start, dtype=np.int64)
    x = np.zeros(walkers, dtype=np.int64)
    y = np.zeros(walkers, dtype=np.int64)
    visited = np.zeros((walkers, cells), dtype=bool)
    visited[:, origin_cell] = True
    post = None if vacuous else np.zeros((walkers, cells), dtype=bool)
    widx = np.arange(walkers)

    for t in range(delta):
        u = uniforms_at(keys, t)
        j = (u[:, None] > cum[state]).sum(axis=1)
        state = tgt[state, j]
        mv = is_move[state]
        if mv.any():
            x[mv] += dxs[state[mv]]
            y[mv] += dys[state[mv]]
        org = is_origin[state]
        if org.any():
            x[org] = 0
            y[org] = 0
        in_sq = mv & (np.abs(x) <= D) & (np.abs(y) <= D)
        if in_sq.any():
            cell = (x[in_sq] + D) * side + (y[in_sq] + D)
            visited[widx[in_sq], cell] = True
            if post is not None and (t + 1) > r0_eff:
                post[widx[in_sq], cell] = True

    per_agent_mean = float(visited.mean())
    union = visited.reshape(trials, n, cells).any(axis=1)
    union_mean = float(union.mean(axis=1).mean())
    # Exact hit probability for a uniform non-origin target, given the paths:
    # per trial it is (union size excluding the origin) / (cells - 1).
    hit_probability = float(((union.sum(axis=1) - 1) / (cells - 1)).mean())
    hits = sum(bool(union[trial, (tx + D) * side + (ty + D)]) for trial, (tx, ty) in enumerate(targets))

    mask = coverage_mask(a, D, delta, w)
    if post is None:
        post_cells = 0
        containment = 1.0
    else:
        post_union = post.any(axis=0)
        post_cells = int(post_union.sum())
        containment = float(mask[post_union].mean()) if post_cells else 1.0

    return {
        "schema": 1,
        "D": D,
        "delta": delta,
        "w": w,
        "n": n,
        "trials": trials,
        "seed": seed,
        "r0": r0_eff,
        "r0_bound": r0_bound,
        "post_r0_vacuous": vacuous,
        "per_agent_mean_fraction": per_agent_mean,
        "union_mean_fraction": union_mean,
        "hit_probability": hit_probability,
        "sampled_target_hit_rate": hits / trials,
        "post_r0_cells": post_cells,
        "post_r0_containment": containment,
        "coverage_cells": int(mask.sum()),
        "coverage_fraction": float(mask.mean()),
    }


def _geometric_lengths(u: np.ndarray, cont: float) -> np.ndarray:
    # Number of successes before the first failure when each trial
    # continues with probability cont: floor(log(1-u) / log(cont)).
    return np.floor(np.log1p(-u) / math.log(cont)).astype(np.int64)


def _check(name: str, passed: bool, **details) -> dict:
    out = {"name": name, "passed": bool(passed)}
    out.update(details)
    return out


def _iteration_move_mean(seed: int, Ds: list[int]) -> dict | None:
    if not Ds:
        return None
    rows = []
    ok = True
    N = 100_000
    keys = stream_keys(seed, np.arange(N, dtype=np.uint64), np.full(N, 101, dtype=np.uint64))
    for D in Ds:
        cont = 1.0 - 1.0 / D
        V = _geometric_lengths(uniforms_at(keys, 1), cont)
        H = _geometric_lengths(uniforms_at(keys, 3), cont)
        total = (V + H).astype(np.float64)
        mean = float(total.mean())
        sem = float(total.std(ddof=1)) / math.sqrt(N)
        exact = float(expected_iteration_moves(D))
        row_ok = abs(mean - exact) <= 5 * sem and mean <= 2 * D
        rows.append({"D": D, "mean": mean, "exact": exact, "sem": sem, "ok": row_ok})
        ok = ok and row_ok
    return _check("iteration_move_mean", ok, trials=N, rows=rows)


def _conditional_move_inflation(seed: int, Ds: list[int]) -> dict | None:
    if not Ds:
        return None
    rows = []
    ok = True
    N = 100_000
    keys = stream_keys(seed, np.arange(N, dtype=np.uint64), np.full(N, 102, dtype=np.uint64))
    for D in Ds:
        cont = 1.0 - 1.0 / D
        sv = np.where(uniforms_at(keys, 0) < 0.5, 1, -1)
        V = _geometric_lengths(uniforms_at(keys, 1), cont)
        sh = np.where(uniforms_at(keys, 2) < 0.5, 1, -1)
        H = _geometric_lengths(uniforms_at(keys, 3), cont)
        # Target (1, 0): the iteration hits iff the vertical leg ends on the
        # x-axis and the horizontal leg goes right at least one move.
        hit = (V == 0) & (sh > 0) & (H >= 1)
        total = (V + H).astype(np.float64)
        miss = total[~hit]
        mean_all = float(total.mean())
        mean_miss = float(miss.mean())
        sem = float(miss.std(ddof=1)) / math.sqrt(miss.size) + 2 * float(total.std(ddof=1)) / math.sqrt(N)
        row_ok = mean_miss <= 2 * mean_all + 5 * sem
        rows.append(
            {
                "D": D,
                "mean_all": mean_all,
                "mean_missing": mean_miss,
                "hit_rate": float(hit.mean()),
                "ok": row_ok,
            }
        )
        ok = ok and row_ok
    return _check("conditional_move_inflation", ok, trials=N, target=[1, 0], rows=rows)


def _find_cost_by_iteration(seed: int, Ds: list[int]) -> dict | None:
    if 4 not in Ds:
        return None
    D = 4
    N = 1_000_000
    I = 5
    cont = 1.0 - 1.0 / D
    keys = stream_keys(seed, np.arange(N, dtype=np.uint64), np.full(N, 103, dtype=np.uint64))
    cum_moves = np.zeros(N, dtype=np.int64)
    first_hit = np.zeros(N, dtype=np.int64)  # 0 = no hit within I iterations
    moves_at_hit = np.zeros(N, dtype=np.int64)
    for j in range(I):
        sv = np.where(uniforms_at(keys, 4 * j) < 0.5, 1, -1)
        V = _geometric_lengths(uniforms_at(keys, 4 * j + 1), cont)
        sh = np.where(uniforms_at(keys, 4 * j + 2) < 0.5, 1, -1)
        H = _geometric_lengths(uniforms_at(keys, 4 * j + 3), cont)
        # Target (D, D): hit iff the vertical leg ends exactly at height D
        # and the horizontal leg runs right for at least D moves.
        hit = (sv * V == D) & (sh > 0) & (H >= D)
        new = hit & (first_hit == 0)
        first_hit[new] = j + 1
        moves_at_hit[new] = cum_moves[new] + V[new] + D
        cum_moves += V + H
    rows = []
    ok = True
    for i in range(1, I + 1):
        sel = moves_at_hit[first_hit == i].astype(np.float64)
        if sel.size < 30:
            rows.append({"iteration": i, "count": int(sel.size), "ok": True, "skipped": True})
            continue
        mean = float(sel.mean())
        sem = float(sel.std(ddof=1)) / math.sqrt(sel.size)
        bound = 4.0 * i * D
        row_ok = mean <= bound + 5 * sem
        rows.append({"iteration": i, "count": int(sel.size), "mean": mean, "bound": bound, "ok": row_ok})
        ok = ok and row_ok
    return _check("find_cost_by_iteration", ok, D=D, trials=N, target=[D, D], rows=rows)


def _per_iteration_hit_floor(Ds: list[int], ns: list[int]) -> dict | None:
    use = [D for D in Ds if D in (2, 4, 8)]
    if not use:
        return None
    rows = []
    ok = True
    for D in use:
        p_min = None
        floor = Fraction(1, 64 * D)
        floor_ok = True
        for x_ in range(-D, D + 1):
            for y_ in range(-D, D + 1):
                if x_ == 0 and y_ == 0:
                    continue
                p = hit_probability_per_iteration(D, (x_, y_))
                if p < floor:
                    floor_ok = False
                if p_min is None or p < p_min:
                    p_min = p
        n_values = sorted(set(ns) | {1, 16, 64 * D})
        miss_ok = True
        for n in n_values:
            q = (1 - p_min) ** n
            if q > (1 - floor) ** n:
                miss_ok = False
            if q > max(1 - Fraction(n, 128 * D), Fraction(1, 2)):
                miss_ok = False
        row_ok = floor_ok and miss_ok
        rows.append(
            {
                "D": D,
                "p_min": f"{p_min.numerator}/{p_min.denominator}",
                "floor": f"1/{64 * D}",
                "n_values": n_values,
                "ok": row_ok,
            }
        )
        ok = ok and row_ok
    return _check("per_iteration_hit_floor", ok, rows=rows)


def _walk_length_pmf_check(seed: int, Ds: list[int], ells: list[int], factory) -> dict | None:
    if not Ds or not ells:
        return None
    rows = []
    ok = True
    N = 100_000
    for ell in ells:
        ks = sorted({boost_exponent(D, ell) for D in Ds if D >= 2})
        ks = [k for k in ks if k >= 1 and k * ell <= 10]
        if not ks:
            continue
        for k in ks:
            # Exact floor: pmf is nonincreasing in i, so the last index is
            # the binding one; still sweep them all since the range is tiny.
            floor = Fraction(1, 2 ** (k * ell + 2))
            exact_ok = all(walk_length_pmf(k, ell, i) >= floor for i in range(2 ** (k * ell) + 1))
            rows.append({"kind": "exact", "k": k, "ell": ell, "ok": exact_ok})
            ok = ok and exact_ok
        k = 2 if 2 in ks else ks[0]
        machine = factory(k, ell, "up")
        tables = build_tables(machine)
        keys = stream_keys(seed, np.arange(N, dtype=np.uint64), np.full(N, 104, dtype=np.uint64))
        res = run_batch(
            tables,
            keys,
            np.arange(N, dtype=np.int64),
            np.full(N, 1, dtype=np.int64),
            np.full(N, 1, dtype=np.int64),
            budget=100_000,
            step_cap=10**7,
        )
        emp_ok = True
        emp_rows = []
        for i in (0, 1, 2):
            p = float(walk_length_pmf(k, ell, i))
            freq = float((res.moves == i).mean())
            sigma = math.sqrt(p * (1 - p) / N)
            i_ok = abs(freq - p) <= 5 * sigma
            emp_rows.append({"i": i, "pmf": p, "freq": freq, "ok": i_ok})
            emp_ok = emp_ok and i_ok
        rows.append({"kind": "empirical", "k": k, "ell": ell, "trials": N, "points": emp_rows, "ok": emp_ok})
        ok = ok and emp_ok
    if not rows:
        return None
    return _check("walk_length_pmf", ok, rows=rows)


def _area_visit_floor(Ds: list[int], ells: list[int]) -> dict | None:
    if not Ds or not ells:
        return None
    rows = []
    ok = True
    for ell in ells:
        ks = sorted({boost_exponent(D, ell) for D in Ds if D >= 2})
        ks = [k for k in ks if k >= 1 and k * ell <= 5]
        for k in ks:
            R = 2 ** (k * ell)
            floor = Fraction(1, 2 ** (k * ell + 6))
            sect_ok = True
            worst = None
            for x_ in range(-R, R + 1):
                for y_ in range(-R, R + 1):
                    p = search_visit_probability(k, ell, x_, y_)
                    if worst is None or p < worst:
                        worst = p
                    if p < floor:
                        sect_ok = False
            rows.append(
                {
                    "k": k,
                    "ell": ell,
                    "R": R,
                    "worst": f"{worst.numerator}/{worst.denominator}",
                    "floor": f"1/{2 ** (k * ell + 6)}",
                    "ok": sect_ok,
                }
            )
            ok = ok and sect_ok
    if not rows:
        return None
    return _check("area_visit_floor", ok, rows=rows)


def _phase_checks(seed: int, Ds: list[int], ells: list[int]) -> list[dict]:
    out = []
    if 1 not in ells:
        return out
    use = [D for D in Ds if D in (4, 8)]
    ell = 1
    K = 8
    n = 16
    trials = 1000
    if use:
        vol_rows = []
        vol_ok = True
        find_rows = []
        find_ok = True
        keys = stream_keys(
            seed,
            np.repeat(np.arange(trials, dtype=np.uint64), n),
            np.tile(np.arange(n, dtype=np.uint64) + 105_000, trials),
        )
        u_counts = uniforms_at(keys, 0).reshape(trials, n)
        u_hits = uniforms_at(keys, 1).reshape(trials, n)
        for D in use:
            i0 = covering_phase(D, ell)
            rho = uniform_rho(i0, ell, n, K)
            # Searches per agent in phase i0: geometric with exit chance
            # 1/rho, counted as searches before the gate fires.
            counts = np.floor(np.log1p(-u_counts) / math.log1p(-1.0 / rho)).astype(np.int64)
            totals = counts.sum(axis=1)
            threshold = n * 2 ** ((K // 2 + i0) * ell)
            frac = float((totals >= threshold).mean())
            p_target = 1.0 - 2.0 ** -(2 * ell + 2)
            sigma = math.sqrt(p_target * (1 - p_target) / trials)
            row_ok = frac >= p_target - 5 * sigma
            vol_rows.append(
                {
                    "D": D,
                    "i0": i0,
                    "rho": rho,
                    "threshold": int(threshold),
                    "fraction": frac,
                    "needed": p_target - 5 * sigma,
                    "ok": row_ok,
                }
            )
            vol_ok = vol_ok and row_ok

            p_hit = float(search_visit_probability(i0, ell, D, D))
            # Conditional on N_a searches, an agent finds the corner with
            # probability 1 - (1 - p_hit)^N_a; one uniform decides it.
            agent_hit = u_hits < 1.0 - np.power(1.0 - p_hit, counts)
            rate = float(agent_hit.any(axis=1).mean())
            p_target2 = 1.0 - 2.0 ** -(2 * ell + 1)
            sigma2 = math.sqrt(p_target2 * (1 - p_target2) / trials)
            row_ok2 = rate >= p_target2 - 5 * sigma2
            find_rows.append(
                {
                    "D": D,
                    "i0": i0,
                    "p_hit": p_hit,
                    "rate": rate,
                    "needed": p_target2 - 5 * sigma2,
                    "ok": row_ok2,
                }
            )
            find_ok = find_ok and row_ok2
        out.append(_check("phase_search_volume", vol_ok, ell=ell, K=K, n=n, trials=trials, rows=vol_rows))
        out.append(_check("phase_find_probability", find_ok, ell=ell, K=K, n=n, trials=trials, rows=find_rows))

    # Phase move bound: run the procedural program with an unreachable
    # target and cap at phase 3; each phase's moves stay within 4*rho*2^i.
    pm_trials = 200
    pm_n, pm_K, pm_phases = 4, 2, 3
    prog = UniformProgram(ell, pm_n, pm_K)
    per_phase = [[] for _ in range(pm_phases)]
    for trial in range(pm_trials):
        stream = WalkerStream(seed, trial, 106)
        run = prog.run((10**6, 10**6), budget=10**12, stream=stream, max_phase=pm_phases)
        for i, st in enumerate(run.phases):
            per_phase[i].append(st.moves)
    pm_rows = []
    pm_ok = True
    for i in range(1, pm_phases + 1):
        vals = np.array(per_phase[i - 1], dtype=np.float64)
        rho = uniform_rho(i, ell, pm_n, pm_K)
        bound = 4.0 * rho * 2 ** (i * ell)
        mean = float(vals.mean())
        sem = float(vals.std(ddof=1)) / math.sqrt(vals.size)
        row_ok = mean + 5 * sem <= bound or mean <= bound
        pm_rows.append({"phase": i, "mean": mean, "bound": bound, "count": int(vals.size), "ok": row_ok})
        pm_ok = pm_ok and row_ok
    out.append(_check("phase_move_bound", pm_ok, ell=ell, n=pm_n, K=pm_K, trials=pm_trials, rows=pm_rows))
    return out


def verification_suite(seed: int = 0, grid: dict | None = None, overrides: dict | None = None) -> dict:
    """Run the finite-scale checks behind the cost and coverage claims.

    grid maps "D", "ell", "n" to value lists; shrinking it shrinks the run.
    overrides may replace the walk machine factory ("walk_automaton") so a
    deliberately wrong machine can be fed in as a negative control.
    """
    if grid is None:
        grid = {"D": [2, 4, 8, 16], "ell": [1, 2], "n": [1, 4]}
    overrides = overrides or {}
    factory = overrides.get("walk_automaton", walk_automaton)
    Ds = sorted({int(d) for d in grid.get("D", [])})
    ells = sorted({int(e) for e in grid.get("ell", [])})
    ns = sorted({int(v) for v in grid.get("n", [])})

    checks = []
    for maybe in (
        _iteration_move_mean(seed, Ds),
        _conditional_move_inflation(seed, Ds),
        _find_cost_by_iteration(seed, Ds),
        _per_iteration_hit_floor(Ds, ns),
        _walk_length_pmf_check(seed, Ds, ells, factory),
        _area_visit_floor(Ds, ells),
    ):
        if maybe is not None:
            checks.append(maybe)
    if Ds and ells:
        checks.extend(_phase_checks(seed, Ds, ells))

    return {
        "schema": 1,
        "seed": seed,
        "grid": {"D": Ds, "ell": ells, "n": ns},
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
    }
