"""Acceptance gate: nine end-to-end checks, one printed verdict line each.

The verdict lines go to sys.__stdout__, which bypasses sys-level capture:
run `pytest -v --capture=sys tests/test_acceptance.py` (or `-s`) to see them.
Heavy criteria (4, 5, and 8) together take a few minutes.
"""

import json
import math
import sys
import time
from fractions import Fraction

import numpy as np

from antsearch.algorithms import (
    build_coin,
    build_from_spec,
    build_nonuniform,
    build_random_walk_baseline,
    coin_automaton,
    search_visit_probability,
    walk_length_pmf,
)
from antsearch.automaton import chi, min_probability, step_distribution
from antsearch.chain_analysis import (
    absorption_probabilities,
    decompose,
    mixing_certificate,
    stationary,
)
from antsearch.cli import main
from antsearch.engine import build_tables, run_batch
from antsearch.experiments import (
    ExperimentConfig,
    coverage_experiment,
    fit_scaling_exponent,
    run_experiment,
    speedup,
    uniform_monotonicity_check,
)
from antsearch.grid_sim import TargetSpec
from antsearch.rng import stream_keys
from helpers import brute_decompose, random_automaton, random_dense_chain

F = Fraction


def _report(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num} {status} - {detail}", file=sys.__stdout__, flush=True)


# ---------------------------------------------------------------------------


def test_criterion_1_coin_exactness():
    t0 = time.perf_counter()
    exact_ok = True
    for k in range(1, 9):
        for ell in range(1, 5):
            a = coin_automaton(k, ell)
            tails = k + 2
            got = absorption_probabilities(a, [tails])[a.start]
            exact_ok = exact_ok and got == F(1, 2 ** (k * ell))

    N = 10**6
    a = coin_automaton(3, 2)
    tables = build_tables(a)
    keys = stream_keys(23, np.arange(N, dtype=np.uint64), np.zeros(N, dtype=np.uint64))
    res = run_batch(
        tables,
        keys,
        np.arange(N, dtype=np.int64),
        np.full(N, 1, dtype=np.int64),
        np.full(N, 1, dtype=np.int64),
        budget=1,
        step_cap=10**6,
    )
    freq = float((res.state == 3 + 2).mean())
    p = 1 / 64
    sigma = math.sqrt(p * (1 - p) / N)
    dev = abs(freq - p) / sigma
    elapsed = time.perf_counter() - t0

    ok = exact_ok and dev <= 5 and elapsed < 10
    _report(
        1,
        ok,
        f"32 exact tail probabilities 1/2^(k*l); empirical freq {freq:.6f} is "
        f"{dev:.2f} sigma from 1/64 at 10^6 draws; {elapsed:.1f}s (<10s)",
    )
    assert ok


def test_criterion_2_selection_complexity_accounting():
    a, _ = build_from_spec("nonuniform-search:D=256,l=2")
    m = chi(a)
    main_ok = (m.b, m.ell, m.chi) == (5, 2, 6.0)
    formula_ok = m.chi == math.log2(math.log2(256)) + 3
    coin_ok = all(
        build_coin(k, 1).bits == math.ceil(math.log2(k)) for k in (2, 4, 8)
    )
    ok = main_ok and formula_ok and coin_ok
    _report(
        2,
        ok,
        f"nonuniform-search D=256 l=2: b={m.b} chi={m.chi:g} = log2(log2 D)+3; "
        f"coin counter bits equal ceil(log2 k) for k in {{2,4,8}}",
    )
    assert ok


def test_criterion_3_distribution_floors():
    t0 = time.perf_counter()
    pmf_ok = True
    pmf_checked = 0
    for k in range(1, 11):
        for ell in range(1, 11):
            if k * ell > 10:
                continue
            floor = F(1, 2 ** (k * ell + 2))
            for i in range(2 ** (k * ell) + 1):
                pmf_ok = pmf_ok and walk_length_pmf(k, ell, i) >= floor
                pmf_checked += 1

    area_ok = True
    area_checked = 0
    for k in range(1, 6):
        for ell in range(1, 6):
            if k * ell > 5:
                continue
            R = 2 ** (k * ell)
            floor = F(1, 2 ** (k * ell + 6))
            for x in range(-R, R + 1):
                for y in range(-R, R + 1):
                    area_ok = area_ok and search_visit_probability(k, ell, x, y) >= floor
                    area_checked += 1
    elapsed = time.perf_counter() - t0

    ok = pmf_ok and area_ok and elapsed < 60
    _report(
        3,
        ok,
        f"walk pmf >= 2^-(kl+2) at {pmf_checked} points (kl<=10); search visit "
        f">= 2^-(kl+6) at {area_checked} cells (kl<=5); {elapsed:.1f}s (<60s)",
    )
    assert ok


def test_criterion_4_scaling_and_speedup():
    t0 = time.perf_counter()

    def cell(D: int, n: int) -> dict:
        cfg = ExperimentConfig(
            automaton=build_nonuniform(D),
            target=TargetSpec.corner(D),
            trials=10_000,
            budget=1200 * (D * D // n + D),
            master_seed=9,
            n=n,
            D=D,
            algorithm=f"nonuniform:D={D}",
        )
        return run_experiment(cfg).row

    rows = {D: cell(D, 1) for D in (8, 16, 32, 64)}
    slope = fit_scaling_exponent([(D, r["mean_m_moves"]) for D, r in rows.items()])
    r4 = cell(64, 4)
    r16 = cell(64, 16)
    ratio = speedup(r16, r4)
    exhaust = max(
        [r["exhaust_rate"] for r in rows.values()] + [r4["exhaust_rate"], r16["exhaust_rate"]]
    )
    elapsed = time.perf_counter() - t0

    ok = 1.8 <= slope <= 2.2 and 2.5 <= ratio <= 6.0 and exhaust < 0.01 and elapsed < 600
    _report(
        4,
        ok,
        f"corner-target slope {slope:.4f} in [1.8,2.2] over D in {{8,16,32,64}}; "
        f"n:4->16 speedup {ratio:.4f} in [2.5,6] at D=64; max exhaust rate "
        f"{exhaust:.4f} (<0.01); 10^4 trials per cell; {elapsed:.1f}s (<600s)",
    )
    assert ok


def test_criterion_5_uniform_monotonicity_and_inflation():
    rep = uniform_monotonicity_check(
        1, 4, 4, [4, 8, 16], trials=300, seed=2, compare_ell=2
    )
    means = [r["mean_m_moves"] for r in rep["rows"]]
    ratios = [e["ratio"] for e in rep["inflation"]["per_D"]]
    ok = rep["monotone"] and rep["inflation"]["all_finite"]
    _report(
        5,
        ok,
        f"mean moves over D in {{4,8,16}}: {means[0]:.1f}/{means[1]:.1f}/{means[2]:.1f} "
        f"monotone within CI overlap; l=1 vs l=2 inflation ratios "
        f"{ratios[0]:.3f}/{ratios[1]:.3f}/{ratios[2]:.3f} all finite",
    )
    assert ok


def test_criterion_6_decomposition_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(6)
    structure_ok = True
    fixed_point_ok = True
    for _ in range(200):
        a = random_automaton(rng)
        d = decompose(a)
        classes, periods, cyclic = brute_decompose(a)
        structure_ok = structure_ok and [
            frozenset(rc.states) for rc in d.recurrent_classes
        ] == classes
        for rc in d.recurrent_classes:
            comp = frozenset(rc.states)
            structure_ok = structure_ok and rc.period == periods[comp]
            structure_ok = structure_ok and tuple(
                frozenset(g) for g in rc.cyclic_classes
            ) == cyclic[comp]
            pi = stationary(a, rc, 0)
            init = [F(0)] * a.n_states
            for s, v in pi.items():
                init[s] = v
            dist = step_distribution(a, init, rc.period)
            fixed_point_ok = fixed_point_ok and {s: dist[s] for s in pi} == pi
    elapsed = time.perf_counter() - t0

    ok = structure_ok and fixed_point_ok and elapsed < 60
    _report(
        6,
        ok,
        f"200 seeded machines (<=6 states): classes/periods/cyclic classes match "
        f"brute force; every stationary law satisfies pi P^t = pi exactly; "
        f"{elapsed:.1f}s (<60s)",
    )
    assert ok


def test_criterion_7_mixing_certificates():
    rng = np.random.default_rng(7)
    ok = True
    worst_margin = None
    for _ in range(100):
        a = random_dense_chain(rng)
        rc = decompose(a).recurrent_classes[0]
        p0 = min_probability(a)
        ok = ok and p0 >= F(1, 8)
        beta = int(rng.integers(0, 65))
        cert = mixing_certificate(a, rc, 0, beta)
        n = a.n_states
        ok = ok and cert["exact"]
        ok = ok and cert["bound"] == (1 - p0**n) ** (beta // n)
        ok = ok and cert["measured"] <= cert["bound"] and cert["holds"]
        margin = float(cert["bound"] - cert["measured"])
        worst_margin = margin if worst_margin is None else min(worst_margin, margin)
    _report(
        7,
        ok,
        f"100 seeded irreducible chains (|S|<=5, p0>=1/8, beta<=64): measured "
        f"inf-distance <= (1-p0^|S|)^floor(beta/|S|) every time; smallest slack "
        f"{worst_margin:.3g}",
    )
    assert ok


def test_criterion_8_coverage_contrast():
    t0 = time.perf_counter()
    D = 256
    base = coverage_experiment(
        build_random_walk_baseline(), D, D * D, 16, 16, 20, 11
    )
    hit = base["hit_probability"]
    frac = base["per_agent_mean_fraction"]
    containment = base["post_r0_containment"]
    vacuous = base["post_r0_vacuous"]

    a, _ = build_from_spec("nonuniform-search:D=256,l=2")
    budget = 64 * (D * D // 16 + D)
    cfg = ExperimentConfig(
        automaton=a,
        target=TargetSpec.uniform(D),
        trials=400,
        budget=budget,
        master_seed=5,
        n=16,
        D=D,
        ell=2,
        algorithm="nonuniform-search:D=256,l=2",
    )
    find = run_experiment(cfg).row["find_rate"]
    elapsed = time.perf_counter() - t0

    ok = (
        hit < 0.5
        and frac < 0.25
        and containment >= 0.99
        and find >= 0.9
        and elapsed < 900
    )
    vac_note = (
        f"post-R0 window empty (R0 bound {base['r0_bound']} exceeds Delta={D*D}), "
        f"containment 1.0 holds vacuously"
        if vacuous
        else f"post-R0 containment {containment:.4f} (>=0.99)"
    )
    _report(
        8,
        ok,
        f"baseline walk D=256 Delta=D^2 n=16: uniform-target hit {hit:.4f} (<0.5), "
        f"per-agent visited fraction {frac:.4f} (<0.25), {vac_note}; "
        f"nonuniform-search finds uniform target at rate {find:.4f} (>=0.9) within "
        f"budget 64(D^2/n+D)={budget}; {elapsed:.1f}s (<900s)",
    )
    assert ok


def test_criterion_9_cli_determinism(tmp_path):
    sim = [
        "simulate",
        "--alg", "nonuniform:D=8",
        "--target", "corner",
        "--D", "8",
        "--trials", "100",
        "--n", "2",
        "--seed", "12",
        "--format", "csv",
    ]
    sim_blobs = []
    for jobs in ("1", "4"):
        out = tmp_path / f"sim-j{jobs}.csv"
        rc = main(sim + ["--jobs", jobs, "--out", str(out)])
        sim_blobs.append((rc, out.read_bytes()))
    sim_ok = sim_blobs[0] == sim_blobs[1] and sim_blobs[0][0] == 0

    plan = tmp_path / "plan.json"
    plan.write_text(
        json.dumps(
            {
                "algorithm": "nonuniform:D={D}",
                "target": "corner",
                "D": [4, 8],
                "n": [1, 2],
                "trials": 25,
                "budget_factor": 64,
            }
        )
    )
    sweep_blobs = []
    for jobs in ("1", "3"):
        out = tmp_path / f"sweep-j{jobs}.csv"
        rc = main(["sweep", str(plan), "--seed", "4", "--jobs", jobs, "--out", str(out)])
        sweep_blobs.append((rc, out.read_bytes()))
    sweep_ok = sweep_blobs[0] == sweep_blobs[1] and sweep_blobs[0][0] == 0

    ok = sim_ok and sweep_ok
    _report(
        9,
        ok,
        "simulate (100 trials, csv records) and sweep (4 cells) byte-identical "
        "across --jobs 1 vs 4 and 1 vs 3 at fixed --seed",
    )
    assert ok
