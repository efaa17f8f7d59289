from fractions import Fraction

import numpy as np
import pytest

from antsearch.algorithms import (
    KINDS,
    build_from_spec,
    build_nonuniform,
    build_nonuniform_search,
    build_random_walk_baseline,
    compile_uniform,
    walk_automaton,
)
from antsearch.automaton import Action, make_automaton
from antsearch.engine import build_tables, cumulative_table, run_batch
from antsearch.grid_sim import (
    TargetSpec,
    apply_action,
    default_step_cap,
    run_agent,
    run_swarm,
    trace_rows,
)
from antsearch.rng import stream_keys

from helpers import KIND_EXAMPLES, kind_spec, reference_run_agent


def _right_walker():
    # moves right forever: deterministic costs
    return make_automaton(
        0,
        [Action.ORIGIN, Action.RIGHT],
        [[(1, Fraction(1))], [(1, Fraction(1))]],
    )


def test_apply_action():
    assert apply_action((2, 3), Action.UP) == (2, 4)
    assert apply_action((2, 3), Action.LEFT) == (1, 3)
    assert apply_action((2, 3), Action.ORIGIN) == (0, 0)
    assert apply_action((2, 3), Action.NONE) == (2, 3)


def test_target_spec():
    assert TargetSpec.corner(5).resolve(0, 0) == (5, 5)
    assert TargetSpec.fixed(-2, 1).resolve(9, 3) == (-2, 1)
    with pytest.raises(ValueError):
        TargetSpec.fixed(0, 0)
    with pytest.raises(ValueError):
        TargetSpec.corner(0)
    spec = TargetSpec.uniform(4)
    seen = set()
    for trial in range(200):
        x, y = spec.resolve(123, trial)
        assert (x, y) != (0, 0)
        assert max(abs(x), abs(y)) <= 4
        assert spec.resolve(123, trial) == (x, y)  # deterministic
        seen.add((x, y))
    assert len(seen) > 40  # spread over the square


def test_right_walker_deterministic_cost():
    a = _right_walker()
    for agent_count in (1, 3):
        results = [
            run_swarm(a, agent_count, (5, 0), budget=100, master_seed=s, trial=0) for s in range(4)
        ]
        for sw in results:
            assert sw.found and sw.m_moves == 5 and sw.m_steps == 5 and sw.finder == 0
        costs = [sw.m_moves for sw in results]
        assert float(np.mean(costs)) == 5.0
        assert float(np.std(costs)) == 0.0


def test_agent_statuses():
    a = _right_walker()
    missed = run_agent(a, (0, 5), budget=50, master_seed=1)  # off the walker's ray
    assert not missed.found and missed.outcome == "budget" and missed.moves == 50

    capped = run_agent(a, (0, 5), budget=50, master_seed=1, step_cap=7)
    assert capped.outcome == "step_cap" and capped.steps == 7

    w = walk_automaton(1, 1, "up")  # halts in a port after a geometric run
    halted = run_agent(w, (9, 9), budget=1000, master_seed=3)
    assert halted.outcome == "halted"
    assert halted.x == 0 and halted.y == halted.moves


def test_engine_matches_scalar_reference():
    cases = [
        (build_nonuniform(2), (1, 1), 500),
        (build_nonuniform(4), (4, 4), 2000),
        (build_nonuniform_search(4, 1), (-3, 2), 2000),
        (build_random_walk_baseline(), (2, -1), 400),
        (compile_uniform(1, 2, 2, 6), (3, 3), 800),
        (walk_automaton(2, 1, "left"), (-2, 0), 50),
    ]
    for a, target, budget in cases:
        for seed in (0, 1, 2):
            for agent in (0, 1):
                got = run_agent(a, target, budget, seed, trial=seed + 1, agent=agent, step_cap=5000)
                want = reference_run_agent(
                    a, target, budget, seed, trial=seed + 1, agent=agent, step_cap=5000
                )
                assert got.moves == want["moves"], (target, seed, agent)
                assert got.steps == want["steps"]
                assert (got.x, got.y) == (want["x"], want["y"])
                assert got.state == want["state"]
                assert got.found == (want["status"] == 1)


def test_swarm_equals_independent_agent_minima():
    # retirement must not change either minimum or the finder identity
    a = build_random_walk_baseline()
    n = 6
    for trial in range(12):
        sw = run_swarm(a, n, (1, 1), budget=3000, master_seed=77, trial=trial)
        solo = [
            run_agent(a, (1, 1), budget=3000, master_seed=77, trial=trial, agent=i)
            for i in range(n)
        ]
        found = [(i, r) for i, r in enumerate(solo) if r.found]
        if not found:
            assert not sw.found
            continue
        m_moves = min(r.moves for _, r in found)
        m_steps = min(r.steps for _, r in found)
        finder = min(i for i, r in found if r.moves == m_moves)
        assert sw.found
        assert sw.m_moves == m_moves
        assert sw.m_steps == m_steps
        assert sw.finder == finder
        # superseded swarm agents never beat the minima in their solo runs
        for i, r in enumerate(solo):
            if sw.agents[i].outcome == "superseded":
                assert not (r.found and (r.moves < m_moves or r.steps < m_steps))


def test_m_steps_at_least_m_moves():
    a = build_nonuniform(4)
    for trial in range(10):
        sw = run_swarm(a, 4, (2, 2), budget=5000, master_seed=13, trial=trial)
        if sw.found:
            assert sw.m_steps >= sw.m_moves


def test_trace_matches_run_counters():
    for spec, target in [("nonuniform:D=2", (1, 1)), ("walkbaseline", (2, 0))]:
        a, _ = build_from_spec(spec)
        run = run_agent(a, target, budget=500, master_seed=21, record=True)
        rows = trace_rows(a, run.events)
        assert rows[0] == (0, a.start, a.labels[a.start].value, 0, 0)
        assert len(rows) == run.steps + 1
        move_rows = sum(1 for r in rows[1:] if r[2] in ("up", "down", "left", "right"))
        assert move_rows == run.moves
        # positions replay exactly under apply_action
        pos = (0, 0)
        for step, state, action, x, y in rows[1:]:
            pos = apply_action(pos, Action(action))
            assert pos == (x, y)
        assert pos == (run.x, run.y)


def test_trace_found_run_ends_on_target():
    a, _ = build_from_spec("nonuniform:D=2")
    seed = 0
    while True:
        run = run_agent(a, (1, 1), budget=200, master_seed=seed, record=True)
        if run.found:
            break
        seed += 1
    rows = trace_rows(a, run.events)
    assert (rows[-1][3], rows[-1][4]) == (1, 1)


def test_run_agent_equals_swarm_member():
    # one walker's trajectory is the same alone or inside a swarm
    a = build_nonuniform(2)
    sw = run_swarm(a, 3, (1, 0), budget=1000, master_seed=5, trial=4)
    for agent in range(3):
        solo = run_agent(a, (1, 0), budget=1000, master_seed=5, trial=4, agent=agent)
        member = sw.agents[agent]
        if member.outcome == "superseded":
            continue  # retired early by design; solo run continues further
        assert (solo.moves, solo.steps, solo.x, solo.y, solo.state) == (
            member.moves,
            member.steps,
            member.x,
            member.y,
            member.state,
        )
        assert solo.outcome == member.outcome


def test_default_step_cap_monotone():
    assert default_step_cap(1) == (1 << 20) + 32
    assert default_step_cap(1000) > default_step_cap(10)


def test_run_batch_rejects_bad_inputs():
    a = build_nonuniform(2)
    tables = build_tables(a)
    keys = stream_keys(0, np.zeros(1, dtype=np.uint64), np.zeros(1, dtype=np.uint64))
    one = np.ones(1, dtype=np.int64)
    zero = np.zeros(1, dtype=np.int64)
    with pytest.raises(ValueError, match="budget"):
        run_batch(tables, keys, zero, one, one, budget=0, step_cap=10)
    with pytest.raises(ValueError, match="step_cap"):
        run_batch(tables, keys, zero, one, one, budget=10, step_cap=0)
    with pytest.raises(ValueError, match=r"\(0,0\)"):
        run_batch(tables, keys, zero, zero, zero, budget=10, step_cap=10)


def _assert_exact_cdf(rows, cum, target):
    # Each column holds the float of the exact Fraction CDF of its row (so the
    # last one is exactly 1.0); padding sits above any uniform.
    for s, row in enumerate(rows):
        total = sum(p for _, p in row)
        acc = Fraction(0)
        for j, (t, p) in enumerate(row):
            acc += p
            assert cum[s, j] == float(acc / total)
            assert target[s, j] == t
        assert (cum[s, len(row):] > 1.0).all()


@pytest.mark.parametrize("kind", sorted(KIND_EXAMPLES))
def test_cumulative_tables_match_exact_cdf(kind):
    assert set(KIND_EXAMPLES) == set(KINDS)
    a, _ = build_from_spec(kind_spec(kind, KIND_EXAMPLES[kind]))
    cum, target = cumulative_table(a.rows)
    _assert_exact_cdf(a.rows, cum, target)
    tables = build_tables(a)
    exits = [[(t, p) for t, p in row if t != s] for s, row in enumerate(a.rows)]
    _assert_exact_cdf(exits, tables.exit_cum, tables.exit_target)
