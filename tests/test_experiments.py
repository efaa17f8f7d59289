"""Experiment-layer tests: aggregation, chunking invariance, sweeps,
coverage measurements, and the verification suite."""

import math
from fractions import Fraction

import numpy as np
import pytest

from antsearch.algorithms import build_nonuniform, walk_automaton
from antsearch import experiments
from antsearch.automaton import Action, make_automaton
from antsearch.experiments import (
    SWEEP_COLUMNS,
    ExperimentConfig,
    coverage_experiment,
    fit_scaling_exponent,
    run_experiment,
    speedup,
    sweep_rows_to_csv,
    uniform_monotonicity_check,
    verification_suite,
)
from antsearch.grid_sim import TargetSpec, default_step_cap, run_swarm

F = Fraction
O, U, R = Action.ORIGIN, Action.UP, Action.RIGHT


def _right_walker():
    return make_automaton(0, [O, R], [[(1, 1)], [(1, 1)]])


def _up_walker():
    return make_automaton(0, [O, U], [[(1, 1)], [(1, 1)]])


# ---------------------------------------------------------------------------
# run_experiment


def test_deterministic_walker_row():
    cfg = ExperimentConfig(
        automaton=_right_walker(),
        target=TargetSpec.fixed(5, 0),
        trials=10,
        budget=100,
        master_seed=4,
    )
    res = run_experiment(cfg)
    row = res.row
    assert row["schema"] == 1
    assert row["mean_m_moves"] == 5.0
    assert row["std_m_moves"] == 0.0
    assert row["ci95_m_moves"] == 0.0
    assert row["find_rate"] == 1.0
    assert row["exhaust_rate"] == 0.0
    assert row["mean_m_steps"] == 5.0
    assert len(res.records) == 10
    assert res.records[0] == {
        "trial": 0,
        "target": [5, 0],
        "found": True,
        "m_moves": 5,
        "m_steps": 5,
        "finder": 0,
        "exhausted": False,
        "agents": [
            {"found": True, "moves": 5, "steps": 5, "outcome": "found", "x": 5, "y": 0}
        ],
    }


def test_geometric_leg_mean_matches_closed_form():
    # Legs from the origin have length 1 + Geom(1/2); a leg reaches x=3 with
    # probability 1/4, failed legs cost 4/3 moves on average, so the expected
    # total is 3 * 4/3 + 3 = 7.
    a = make_automaton(0, [O, R], [[(1, 1)], [(1, F(1, 2)), (0, F(1, 2))]])
    cfg = ExperimentConfig(
        automaton=a,
        target=TargetSpec.fixed(3, 0),
        trials=4000,
        budget=10**6,
        master_seed=11,
    )
    row = run_experiment(cfg).row
    assert row["find_rate"] == 1.0
    sem = row["std_m_moves"] / math.sqrt(4000)
    assert abs(row["mean_m_moves"] - 7.0) <= 5 * sem


def test_unfound_trials_charge_the_budget():
    cfg = ExperimentConfig(
        automaton=_right_walker(),
        target=TargetSpec.fixed(0, 3),  # unreachable for a pure right walker
        trials=4,
        budget=17,
        master_seed=0,
    )
    res = run_experiment(cfg)
    assert res.row["find_rate"] == 0.0
    assert res.row["exhaust_rate"] == 1.0
    assert res.row["mean_m_moves"] == 17.0
    assert res.row["mean_m_steps"] is None
    for rec in res.records:
        assert rec["exhausted"] and rec["m_moves"] == 17 and rec["finder"] is None


def _chunk_size_invariant(monkeypatch, cfg):
    # A trajectory must not depend on the batch it runs in: records and row
    # are the same with many small chunks and with one chunk per experiment.
    runs = []
    for walkers in (7, 2**20):
        monkeypatch.setattr(experiments, "_CHUNK_WALKERS", walkers)
        runs.append(run_experiment(cfg))
    assert runs[0].records == runs[1].records
    assert runs[0].row == runs[1].row


def test_chunk_size_does_not_change_records_single_agent(monkeypatch):
    cfg = ExperimentConfig(
        automaton=_right_walker(),
        target=TargetSpec.fixed(5, 0),
        trials=5000,
        budget=10,
        master_seed=9,
    )
    _chunk_size_invariant(monkeypatch, cfg)


def test_chunk_size_does_not_change_records_swarm(monkeypatch):
    cfg = ExperimentConfig(
        automaton=build_nonuniform(4),
        target=TargetSpec.uniform(4),
        trials=20,
        budget=300,
        master_seed=21,
        n=512,  # wider than 7 walkers: one trial per chunk, spread over 20
    )
    _chunk_size_invariant(monkeypatch, cfg)


def test_records_match_manual_swarm_runs():
    a = build_nonuniform(4)
    cfg = ExperimentConfig(
        automaton=a,
        target=TargetSpec.fixed(1, 1),
        trials=7,
        budget=500,
        master_seed=13,
        n=3,
    )
    res = run_experiment(cfg)
    for t in range(7):
        sw = run_swarm(a, 3, (1, 1), 500, 13, trial=t, step_cap=default_step_cap(500))
        rec = res.records[t]
        assert rec["trial"] == t
        assert rec["found"] == sw.found
        assert rec["m_moves"] == (sw.m_moves if sw.found else 500)
        assert rec["m_steps"] == sw.m_steps
        assert rec["finder"] == sw.finder
        for ra, ag in zip(rec["agents"], sw.agents):
            assert ra == {
                "found": ag.found,
                "moves": ag.moves,
                "steps": ag.steps,
                "outcome": ag.outcome,
                "x": ag.x,
                "y": ag.y,
            }


def test_run_experiment_rejects_bad_config():
    ok = dict(
        automaton=_right_walker(),
        target=TargetSpec.fixed(1, 0),
        trials=1,
        budget=1,
        master_seed=0,
    )
    with pytest.raises(ValueError):
        run_experiment(ExperimentConfig(**{**ok, "trials": 0}))
    with pytest.raises(ValueError):
        run_experiment(ExperimentConfig(**{**ok, "budget": 0}))
    with pytest.raises(ValueError):
        run_experiment(ExperimentConfig(**{**ok, "n": 0}))


# ---------------------------------------------------------------------------
# sweep serialization and derived statistics


def test_sweep_rows_to_csv_golden():
    rows = [
        {
            "schema": 1,
            "algorithm": "nonuniform:D=4",
            "D": 4,
            "n": 1,
            "l": None,
            "trials": 2,
            "budget": 100,
            "seed": 7,
            "mean_m_moves": 12.5,
            "std_m_moves": 0.5,
            "ci95_m_moves": 0.6929646455628166,
            "find_rate": 1.0,
            "exhaust_rate": 0.0,
            "mean_m_steps": None,
        }
    ]
    text = sweep_rows_to_csv(rows)
    lines = text.splitlines()
    assert lines[0] == ",".join(SWEEP_COLUMNS)
    assert lines[1] == "1,nonuniform:D=4,4,1,,2,100,7,12.5,0.5,0.6929646455628166,1.0,0.0,"
    assert text.endswith("\n")
    # floats round-trip exactly through repr
    assert float(lines[1].split(",")[10]) == 0.6929646455628166


def test_speedup_accepts_rows_and_floats():
    assert speedup({"mean_m_moves": 25.0}, {"mean_m_moves": 100.0}) == 4.0
    assert speedup(25.0, 100.0) == 4.0
    with pytest.raises(ValueError):
        speedup(0.0, 100.0)


def test_fit_scaling_exponent():
    series = [(8, 3 * 8**2), (16, 3 * 16**2), (32, 3 * 32**2), (64, 3 * 64**2)]
    assert fit_scaling_exponent(series) == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(ValueError, match="3 distinct"):
        fit_scaling_exponent([(8, 10), (8, 11)])
    with pytest.raises(ValueError, match="positive"):
        fit_scaling_exponent([(8, 10), (16, -1), (32, 12)])


def test_uniform_monotonicity_check_quick():
    rep = uniform_monotonicity_check(
        1, 2, 4, [2, 4], trials=50, seed=1, budget=10**5, compare_ell=2
    )
    assert [r["D"] for r in rep["rows"]] == [2, 4]
    assert len(rep["pairs"]) == 1
    pair = rep["pairs"][0]
    assert {"D_lo", "D_hi", "mean_lo", "mean_hi", "monotone_ok"} <= set(pair)
    assert isinstance(rep["monotone"], bool)
    infl = rep["inflation"]
    assert infl["ell_base"] == 1 and infl["ell_compare"] == 2
    assert len(infl["per_D"]) == 2
    for entry in infl["per_D"]:
        assert entry["ratio"] > 0 and math.isfinite(entry["ratio"])
    assert infl["all_finite"]


def test_uniform_monotonicity_check_rejects_bad_d_list():
    with pytest.raises(ValueError):
        uniform_monotonicity_check(1, 2, 4, [4, 2], trials=5, seed=0)
    with pytest.raises(ValueError):
        uniform_monotonicity_check(1, 2, 4, [], trials=5, seed=0)


# ---------------------------------------------------------------------------
# coverage experiment


def test_coverage_experiment_deterministic_column():
    # the up walker visits exactly the column (0, 0..8) inside the square
    rep = coverage_experiment(_up_walker(), 8, 9, 1, 2, 3, 5)
    assert rep["schema"] == 1
    assert rep["r0_bound"] == 12  # ceil(2 * 2 * log2(8)) with p0 = 1
    assert rep["r0"] == 12
    assert rep["post_r0_vacuous"]  # r0 >= delta
    assert rep["post_r0_cells"] == 0
    assert rep["post_r0_containment"] == 1.0
    assert rep["per_agent_mean_fraction"] == pytest.approx(9 / 289)
    assert rep["union_mean_fraction"] == pytest.approx(9 / 289)
    assert rep["hit_probability"] == pytest.approx(8 / 288)
    assert rep["coverage_cells"] == 30  # columns -1..1, rows -1..8


def test_coverage_experiment_post_r0_window():
    rep = coverage_experiment(_up_walker(), 8, 9, 1, 2, 3, 5, r0=4)
    assert not rep["post_r0_vacuous"]
    # steps 5..9 put the walker at y = 5..9; y = 9 is outside the square
    assert rep["post_r0_cells"] == 4
    assert rep["post_r0_containment"] == 1.0
    column = {(0, yy) for yy in range(0, 9)}
    want = sum(TargetSpec.uniform(8).resolve(5, t) in column for t in range(3)) / 3
    assert rep["sampled_target_hit_rate"] == want


def test_coverage_experiment_rejects_bad_args():
    for args in ((0, 9, 1, 1, 1), (8, 0, 1, 1, 1), (8, 9, -1, 1, 1), (8, 9, 1, 0, 1), (8, 9, 1, 1, 0)):
        D, delta, w, n, trials = args
        with pytest.raises(ValueError):
            coverage_experiment(_up_walker(), D, delta, w, n, trials, 0)


# ---------------------------------------------------------------------------
# verification suite


def test_verification_suite_reduced_grid_passes():
    suite = verification_suite(seed=0, grid={"D": [2], "ell": [], "n": [1]})
    assert suite["passed"]
    names = [c["name"] for c in suite["checks"]]
    assert names == [
        "iteration_move_mean",
        "conditional_move_inflation",
        "per_iteration_hit_floor",
    ]
    assert suite["grid"] == {"D": [2], "ell": [], "n": [1]}


def test_verification_suite_empty_grid_is_vacuously_green():
    suite = verification_suite(seed=0, grid={"D": [], "ell": [], "n": []})
    assert suite["passed"]
    assert suite["checks"] == []


def test_verification_suite_flags_wrong_walk_machine():
    # negative control: a walk machine with the wrong stopping resolution must
    # trip the empirical length-law check and fail the suite
    grid = {"D": [4], "ell": [1], "n": [1]}
    bad = verification_suite(
        seed=0,
        grid=grid,
        overrides={"walk_automaton": lambda k, ell, d: walk_automaton(k, ell + 1, d)},
    )
    assert not bad["passed"]
    by_name = {c["name"]: c["passed"] for c in bad["checks"]}
    assert by_name["walk_length_pmf"] is False

    good = verification_suite(seed=0, grid=grid)
    assert good["passed"]
    assert {c["name"] for c in good["checks"]} >= {
        "walk_length_pmf",
        "area_visit_floor",
        "find_cost_by_iteration",
        "phase_search_volume",
        "phase_find_probability",
        "phase_move_bound",
    }
