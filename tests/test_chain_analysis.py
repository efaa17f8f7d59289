"""Chain-structure tests: decomposition, stationary laws, mixing certificates,
reach and coverage bounds, tail bounds, arrival checks."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from antsearch.algorithms import build_random_walk_baseline
from antsearch.automaton import (
    Action,
    chi,
    make_automaton,
    min_probability,
    step_distribution,
)
from antsearch.chain_analysis import (
    absorption_probabilities,
    analyze_report,
    chernoff_lower,
    chernoff_twosided,
    chernoff_upper,
    coverage_mask,
    decompose,
    drift_profile,
    inf_norm_distance,
    mixing_certificate,
    predict_coverage,
    reach_bound,
    recurrence_arrival_check,
    rosenthal_bound,
    stationary,
    tv_distance,
)
from antsearch.rng import stream_keys, uniforms_at
from helpers import brute_decompose, random_automaton, random_dense_chain

F = Fraction
O, U, D, L, R = Action.ORIGIN, Action.UP, Action.DOWN, Action.LEFT, Action.RIGHT


def _lazy_two_state():
    # 0 keeps itself with prob 1/2, else hops to 1; 1 always returns
    return make_automaton(0, [O, U], [[(0, F(1, 2)), (1, F(1, 2))], [(0, 1)]])


def _period3_gadget():
    # 0 -> {1,3} -> 2 -> 0; every cycle has length 3
    return make_automaton(
        0,
        [O, U, D, L],
        [[(1, F(1, 2)), (3, F(1, 2))], [(2, 1)], [(0, 1)], [(2, 1)]],
    )


# ---------------------------------------------------------------------------
# decomposition


def test_decompose_irreducible_aperiodic():
    d = decompose(_lazy_two_state())
    assert d.transient == ()
    (rc,) = d.recurrent_classes
    assert rc.states == (0, 1)
    assert rc.period == 1
    assert rc.cyclic_classes == ((0, 1),)


def test_decompose_cycle_with_tail():
    a = make_automaton(0, [O, U, D, L], [[(1, 1)], [(2, 1)], [(3, 1)], [(1, 1)]])
    d = decompose(a)
    assert d.transient == (0,)
    (rc,) = d.recurrent_classes
    assert rc.states == (1, 2, 3)
    assert rc.period == 3
    assert rc.cyclic_classes == ((1,), (2,), (3,))


def test_decompose_two_classes():
    # transient start splits into a 2-cycle and an absorbing state
    a = make_automaton(
        0,
        [O, R, L, U],
        [[(1, F(1, 2)), (3, F(1, 2))], [(2, 1)], [(1, 1)], [(3, 1)]],
    )
    d = decompose(a)
    assert d.transient == (0,)
    first, second = d.recurrent_classes
    assert first.states == (1, 2) and first.period == 2
    assert first.cyclic_classes == ((1,), (2,))
    assert second.states == (3,) and second.period == 1


def test_decompose_rejects_invalid():
    bad = make_automaton(0, [O], [[(0, F(1, 2))]])
    with pytest.raises(ValueError, match="invalid automaton"):
        decompose(bad)


def test_decompose_matches_brute_force():
    # 200 seeded machines, cross-checked against the transitive-closure oracle
    rng = np.random.default_rng(6)
    for _ in range(200):
        a = random_automaton(rng)
        d = decompose(a)
        classes, periods, cyclic = brute_decompose(a)
        assert [frozenset(rc.states) for rc in d.recurrent_classes] == classes
        for rc in d.recurrent_classes:
            comp = frozenset(rc.states)
            assert rc.period == periods[comp]
            assert tuple(frozenset(g) for g in rc.cyclic_classes) == cyclic[comp]
        rec_all = {s for rc in d.recurrent_classes for s in rc.states}
        assert set(d.transient) == set(range(a.n_states)) - rec_all
        assert rec_all or a.n_states == 0


# ---------------------------------------------------------------------------
# stationary laws


def test_stationary_frozen_two_state():
    a = _lazy_two_state()
    (rc,) = decompose(a).recurrent_classes
    pi = stationary(a, rc)
    assert pi == {0: F(2, 3), 1: F(1, 3)}
    # raw state tuples are accepted in place of the class object
    assert stationary(a, (0, 1)) == pi
    with pytest.raises(ValueError, match="not a recurrent class"):
        stationary(a, (0,))
    with pytest.raises(ValueError, match="tau"):
        stationary(a, rc, tau=1)


def test_stationary_cyclic_conditionals():
    a = _period3_gadget()
    (rc,) = decompose(a).recurrent_classes
    assert rc.period == 3
    assert rc.cyclic_classes == ((0,), (1, 3), (2,))
    assert stationary(a, rc, 0) == {0: F(1)}
    assert stationary(a, rc, 1) == {1: F(1, 2), 3: F(1, 2)}
    assert stationary(a, rc, 2) == {2: F(1)}
    # one chain step rotates pi_1 onto pi_2, exactly
    init = [F(0)] * a.n_states
    init[1] = F(1, 2)
    init[3] = F(1, 2)
    dist = step_distribution(a, init, 1)
    assert {2: dist[2]} == stationary(a, rc, 2)
    assert dist[0] == dist[1] == dist[3] == 0


def test_stationary_fixed_point_on_random_machines():
    # pi P^t = pi, exactly, for every recurrent class of 200 seeded machines
    rng = np.random.default_rng(60)
    for _ in range(200):
        a = random_automaton(rng)
        for rc in decompose(a).recurrent_classes:
            pi = stationary(a, rc, 0)
            assert all(isinstance(v, F) for v in pi.values())
            assert sum(pi.values()) == 1
            init = [F(0)] * a.n_states
            for s, v in pi.items():
                init[s] = v
            dist = step_distribution(a, init, rc.period)
            assert {s: dist[s] for s in pi} == pi
            assert sum(dist[s] for s in pi) == 1


def test_stationary_float_fallback():
    # denominators overflow a 3-bit budget, forcing the power-iteration path
    a = make_automaton(
        0, [O, U], [[(0, F(1, 3)), (1, F(2, 3))], [(0, F(3, 5)), (1, F(2, 5))]]
    )
    (rc,) = decompose(a).recurrent_classes
    assert stationary(a, rc) == {0: F(9, 19), 1: F(10, 19)}
    fb = stationary(a, rc, 0, max_bits=3)
    assert all(isinstance(v, float) for v in fb.values())
    assert abs(fb[0] - 9 / 19) < 1e-9 and abs(fb[1] - 10 / 19) < 1e-9


# ---------------------------------------------------------------------------
# distances and the minorization bound


def test_distances_frozen_values():
    d1 = {"a": F(1, 2), "b": F(1, 2)}
    d2 = {"a": F(1, 4), "b": F(3, 4)}
    assert tv_distance(d1, d2) == F(1, 4)
    assert inf_norm_distance(d1, d2) == F(1, 4)
    assert tv_distance([1, 0], [0, 1]) == 1
    assert inf_norm_distance(d1, d1) == 0


def test_distances_mismatched_support():
    with pytest.raises(ValueError, match="mismatched"):
        tv_distance({"a": 1}, {"b": 1})
    with pytest.raises(ValueError, match="mismatched"):
        inf_norm_distance([1, 0], [1, 0, 0])
    with pytest.raises(ValueError, match="mismatched"):
        tv_distance({"a": 1}, [1])


def test_inf_norm_never_exceeds_tv():
    rng = np.random.default_rng(8)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        p = rng.dirichlet(np.ones(n))
        q = rng.dirichlet(np.ones(n))
        assert inf_norm_distance(list(p), list(q)) <= tv_distance(list(p), list(q)) + 1e-15


def test_rosenthal_bound_values():
    assert rosenthal_bound(F(1, 4), 8, 1) == F(6561, 65536)
    assert rosenthal_bound(F(1, 2), 3, 2) == F(1, 2)
    assert rosenthal_bound(1, 5, 2) == 0
    assert rosenthal_bound(F(1, 4), 0, 3) == 1
    for eps, k, k0 in ((0, 1, 1), (F(3, 2), 1, 1), (F(1, 2), 1, 0), (F(1, 2), -1, 1)):
        with pytest.raises(ValueError):
            rosenthal_bound(eps, k, k0)


# ---------------------------------------------------------------------------
# mixing certificates


def test_mixing_certificate_frozen():
    # both rows already equal the stationary law, so distance is 0 after 1 step
    a = make_automaton(
        0, [O, U], [[(0, F(1, 2)), (1, F(1, 2))], [(0, F(1, 2)), (1, F(1, 2))]]
    )
    (rc,) = decompose(a).recurrent_classes
    cert = mixing_certificate(a, rc, 0, 8)
    assert cert["epsilon"] == F(1, 4)
    assert cert["k"] == 8 and cert["k0"] == 2
    assert cert["bound"] == F(81, 256)
    assert cert["measured"] == 0
    assert cert["beta_used"] == 8 and not cert["rounded_up"]
    assert cert["exact"] and cert["holds"]
    assert cert["norm"] == "inf"


def test_mixing_certificate_rounds_beta_to_period():
    a = _period3_gadget()
    (rc,) = decompose(a).recurrent_classes
    cert = mixing_certificate(a, rc, 0, 7)
    assert cert["beta_used"] == 9 and cert["rounded_up"]
    assert cert["period"] == 3
    assert cert["epsilon"] == F(1, 16)
    assert cert["k"] == 3 and cert["k0"] == 2
    assert cert["bound"] == F(15, 16)
    # the tau-0 class is a single state, so the conditional law is a point mass
    assert cert["measured"] == 0 and cert["holds"]
    with pytest.raises(ValueError, match="beta"):
        mixing_certificate(a, rc, 0, -1)


def test_mixing_certificate_random_dense_chains():
    # 100 seeded irreducible aperiodic chains with entries >= 1/8; the measured
    # distance must sit under (1 - p0^n)^(beta // n) every time
    rng = np.random.default_rng(7)
    for _ in range(100):
        a = random_dense_chain(rng)
        d = decompose(a)
        assert len(d.recurrent_classes) == 1
        rc = d.recurrent_classes[0]
        assert rc.states == tuple(range(a.n_states)) and rc.period == 1
        p0 = min_probability(a)
        assert p0 >= F(1, 8)
        beta = int(rng.integers(0, 65))
        cert = mixing_certificate(a, rc, 0, beta)
        n = a.n_states
        assert cert["exact"]
        assert cert["beta_used"] == beta
        assert cert["epsilon"] == p0**n
        assert cert["bound"] == (1 - p0**n) ** (beta // n)
        assert cert["measured"] <= cert["bound"]
        assert cert["holds"]


# ---------------------------------------------------------------------------
# drift profiles


def test_drift_profile_baseline_is_driftless():
    prof = drift_profile(build_random_walk_baseline())
    (cp,) = prof.classes
    assert cp.states == (1, 2, 3, 4) and cp.period == 1
    assert cp.pi == {s: F(1, 4) for s in (1, 2, 3, 4)}
    for act in (U, D, L, R):
        assert cp.label_mass[act.value] == F(1, 4)
    assert cp.label_mass[O.value] == 0
    assert cp.drift == (F(0), F(0))
    assert cp.exact


def test_drift_profile_two_classes():
    a = make_automaton(
        0,
        [O, R, L, U],
        [[(1, F(1, 2)), (3, F(1, 2))], [(2, 1)], [(1, 1)], [(3, 1)]],
    )
    prof = drift_profile(a)
    cyc, absorb = prof.classes
    assert cyc.states == (1, 2) and cyc.period == 2
    assert cyc.pi == {1: F(1, 2), 2: F(1, 2)}
    assert cyc.pi_tau == ({1: F(1)}, {2: F(1)})
    assert cyc.drift == (F(0), F(0))  # right and left cancel
    assert absorb.states == (3,)
    assert absorb.drift == (F(0), F(1))


# ---------------------------------------------------------------------------
# reach bound


def test_reach_bound_values():
    assert reach_bound(0, F(1, 2), 1, 2) == 2
    assert reach_bound(1, F(1, 2), 1, 4) == 16
    assert reach_bound(3, F(1, 4), 2, 256) == 8388608
    # non-power-of-two D goes through float log2
    assert reach_bound(0, F(1, 2), 1, 3) == 4


def test_reach_bound_saturates():
    assert reach_bound(40, F(1, 3), 2, 256) is None
    assert reach_bound(3, F(1, 4), 2, 256, max_bits=8) is None


def test_reach_bound_rejects_bad_args():
    for args in ((0, 0, 1, 2), (0, 2, 1, 2), (-1, F(1, 2), 1, 2), (0, F(1, 2), 0, 2), (0, F(1, 2), 1, 1)):
        with pytest.raises(ValueError):
            reach_bound(*args)


# ---------------------------------------------------------------------------
# coverage prediction


def _up_walker():
    return make_automaton(0, [O, U], [[(1, 1)], [(1, 1)]])


def test_coverage_mask_axis_strip():
    # drift (0,1), delta=5, w=1: columns x in {-1,0,1}, rows y in [-1,6]
    mask = coverage_mask(_up_walker(), 8, 5, 1)
    assert int(mask.sum()) == 24
    side = 17
    for x in range(-8, 9):
        for y in range(-8, 9):
            want = abs(x) <= 1 and -1 <= y <= 6
            assert bool(mask[(x + 8) * side + (y + 8)]) == want
    assert int(coverage_mask(_up_walker(), 8, 5, 0).sum()) == 6


def test_coverage_mask_zero_drift_square():
    mask = coverage_mask(build_random_walk_baseline(), 8, 64, 2)
    assert int(mask.sum()) == 25


def test_coverage_mask_monotone():
    a = _up_walker()
    cells = [int(coverage_mask(a, 6, 4, w).sum()) for w in range(4)]
    assert cells == sorted(cells) and len(set(cells)) == 4
    by_delta = [int(coverage_mask(a, 6, d, 1).sum()) for d in (1, 3, 5, 50)]
    assert by_delta == sorted(by_delta)


def test_coverage_mask_rejects_bad_args():
    a = _up_walker()
    for D_, delta, w in ((0, 1, 1), (1, 0, 1), (1, 1, -1)):
        with pytest.raises(ValueError):
            coverage_mask(a, D_, delta, w)


def _strip_member(x, y, px, py, delta, w):
    # independent oracle: some r in [0, delta] has |x - r px| <= w and |y - r py| <= w
    lo, hi = F(0), F(delta)
    for coord, p in ((x, px), (y, py)):
        if p == 0:
            if abs(coord) > w:
                return False
        else:
            a_, b_ = F(coord - w) / p, F(coord + w) / p
            if a_ > b_:
                a_, b_ = b_, a_
            lo, hi = max(lo, a_), min(hi, b_)
    return lo <= hi


def test_coverage_mask_matches_interval_oracle():
    up = _up_walker()
    alternator = make_automaton(0, [O, R, U], [[(1, 1)], [(2, 1)], [(1, 1)]])
    biased = make_automaton(
        0,
        [O, R, D],
        [[(1, 1)], [(1, F(3, 4)), (2, F(1, 4))], [(1, F(1, 2)), (2, F(1, 2))]],
    )
    assert drift_profile(biased).classes[0].drift == (F(2, 3), F(-1, 3))
    for a in (up, alternator, biased, build_random_walk_baseline()):
        drifts = [cp.drift for cp in drift_profile(a).classes]
        for delta in (3, 10, 100):
            for w in (0, 1, 2):
                mask = coverage_mask(a, 6, delta, w)
                for x in range(-6, 7):
                    for y in range(-6, 7):
                        want = any(_strip_member(x, y, px, py, delta, w) for px, py in drifts)
                        assert bool(mask[(x + 6) * 13 + (y + 6)]) == want


def test_predict_coverage_summary():
    pc = predict_coverage(_up_walker(), 8, 5, 1)
    assert pc.cells == 24
    assert pc.fraction == 24 / 289
    assert (pc.D, pc.delta, pc.w) == (8, 5, 1)
    assert pc.drifts == ((F(0), F(1)),)


# ---------------------------------------------------------------------------
# tail bounds


def test_chernoff_frozen_values():
    assert chernoff_upper(8, 0.5) == math.exp(-1.0)
    assert chernoff_lower(6, 0.5) == math.exp(-0.5)
    assert chernoff_twosided(300, 0.5) == 2 * math.exp(-25.0)
    assert chernoff_twosided(3, 0.1) == 1.0  # clamped
    assert chernoff_upper(0, 0.5) == 1.0
    assert chernoff_upper(10, 0) == 1.0


def test_chernoff_ordering_and_domain():
    for mu, delta in ((5, 0.3), (100, 0.9), (2, 1.0)):
        assert chernoff_upper(mu, delta) <= chernoff_lower(mu, delta)
        assert chernoff_twosided(mu, delta) <= 1.0
    for mu, delta in ((-1, 0.5), (1, -0.1), (1, 1.5)):
        with pytest.raises(ValueError):
            chernoff_upper(mu, delta)
        with pytest.raises(ValueError):
            chernoff_lower(mu, delta)
        with pytest.raises(ValueError):
            chernoff_twosided(mu, delta)


# ---------------------------------------------------------------------------
# arrival into recurrent classes


def _absorbing_after_coinflips():
    # stays transient with prob 1/2 per step, else falls into the absorbing class
    return make_automaton(0, [O, U], [[(0, F(1, 2)), (1, F(1, 2))], [(1, 1)]])


def test_recurrence_arrival_check_full_horizon():
    chk = recurrence_arrival_check(_absorbing_after_coinflips(), 2, 4, 4000, 3)
    assert chk["r0"] == 32 and chk["horizon"] == 32 and not chk["capped"]
    assert chk["fraction"] == 1.0
    assert chk["threshold"] == 1 - 1 / 16
    assert chk["passes"]


def test_recurrence_arrival_check_capped():
    chk = recurrence_arrival_check(_absorbing_after_coinflips(), 2, 4, 4000, 3, max_steps=2)
    assert chk["horizon"] == 2 and chk["capped"]
    # two coin flips leave ~1/4 of walkers transient
    assert abs(chk["fraction"] - 0.75) < 0.05
    with pytest.raises(ValueError, match="trials"):
        recurrence_arrival_check(_absorbing_after_coinflips(), 2, 4, 0, 3)


# ---------------------------------------------------------------------------
# absorption probabilities


def test_absorption_gamblers_ruin():
    # fair ruin chain on 0..4; start anywhere, absorb at both ends
    a = make_automaton(
        2,
        [U, U, O, U, U],
        [
            [(0, 1)],
            [(0, F(1, 2)), (2, F(1, 2))],
            [(1, F(1, 2)), (3, F(1, 2))],
            [(2, F(1, 2)), (4, F(1, 2))],
            [(4, 1)],
        ],
    )
    probs = absorption_probabilities(a, [4])
    assert probs == {0: F(0), 1: F(1, 4), 2: F(1, 2), 3: F(3, 4), 4: F(1)}
    both = absorption_probabilities(a, [0, 4])
    assert all(v == 1 for v in both.values())


def test_absorption_rejects_bad_targets():
    a = _lazy_two_state()
    with pytest.raises(ValueError):
        absorption_probabilities(a, [])
    with pytest.raises(ValueError):
        absorption_probabilities(a, [5])


# ---------------------------------------------------------------------------
# aggregate report


def test_analyze_report_frozen():
    rep = analyze_report(_lazy_two_state(), 4)
    assert rep["schema"] == 1 and rep["n_states"] == 2
    m = chi(_lazy_two_state())
    assert rep["chi"] == {"b": m.b, "ell": m.ell, "chi": m.chi}
    assert rep["transient_states"] == []
    (cls,) = rep["recurrent_classes"]
    assert cls["states"] == [0, 1] and cls["period"] == 1
    assert cls["stationary"] == {"0": "2/3", "1": "1/3"}
    assert cls["label_mass"]["up"] == "1/3"
    assert cls["drift"] == ["0/1", "1/3"]
    assert cls["drift_float"][1] == pytest.approx(1 / 3)
    assert rep["r0"] == 32
    assert rep["coverage"] == {"w": 1, "delta": 16, "cells": 18, "fraction": 18 / 81}
    json.loads(json.dumps(rep))  # fully serializable


# ---------------------------------------------------------------------------
# empirical concentration of directional step counts


def test_upward_step_concentration():
    # 10^4 walks of 10^4 steps each; the count of up-labeled steps stays within
    # five binomial sigmas of r*p_up in at least 99.99% of runs
    a = build_random_walk_baseline()
    (cp,) = drift_profile(a).classes
    p_up = cp.label_mass[U.value]
    assert p_up == F(1, 4)
    assert len(set(a.rows)) == 1  # every state draws from the same row
    row = a.rows[0]
    cum = np.cumsum([float(p) for _, p in row])
    up_slot = np.array([a.labels[t] is U for t, _ in row])
    runs = 10_000
    r = 10_000
    keys = stream_keys(3, np.arange(runs, dtype=np.uint64), np.zeros(runs, dtype=np.uint64))
    x_up = np.zeros(runs, dtype=np.int64)
    for t in range(r):
        u = uniforms_at(keys, t)
        j = (u[:, None] > cum[None, :]).sum(axis=1)
        x_up += up_slot[j]
    sigma = math.sqrt(r * float(p_up) * (1 - float(p_up)))
    within = np.abs(x_up - r * float(p_up)) <= 5 * sigma
    assert within.mean() >= 0.9999
