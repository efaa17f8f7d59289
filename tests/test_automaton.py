import json
import math
from fractions import Fraction

import numpy as np
import pytest

from antsearch.automaton import (
    Action,
    SizeBudgetExceeded,
    chi,
    from_json,
    make_automaton,
    min_probability,
    resolution_exponent,
    step_distribution,
    to_json,
    validate,
)
from antsearch.algorithms import build_from_spec

SPECS = [
    "nonuniform:D=2",
    "nonuniform:D=64",
    "nonuniform-search:D=256,l=2",
    "coin:k=3,l=2",
    "walk:k=2,l=1,dir=up",
    "search:k=2,l=1",
    "uniform:l=1,n=4,K=4,cap=8",
    "walkbaseline",
]


def test_builders_validate():
    for spec in SPECS:
        a, _ = build_from_spec(spec)
        report = validate(a)
        assert report.ok, (spec, report.errors)


def test_validate_rejects_bad_machines():
    # row does not sum to 1
    a = make_automaton(0, [Action.ORIGIN, Action.NONE], [[(1, Fraction(1, 2))], [(1, 1)]])
    rep = validate(a)
    assert not rep.ok and any("stochastic" in e for e in rep.errors)
    # dangling transition target
    a = make_automaton(0, [Action.ORIGIN], [[(3, 1)]])
    rep = validate(a)
    assert not rep.ok and any("dangling" in e for e in rep.errors)
    # duplicate target entries
    a = make_automaton(
        0, [Action.ORIGIN, Action.NONE], [[(1, Fraction(1, 2)), (1, Fraction(1, 2))], [(1, 1)]]
    )
    rep = validate(a)
    assert not rep.ok and any("duplicate" in e for e in rep.errors)
    # start not labeled origin
    a = make_automaton(0, [Action.UP], [[(0, 1)]])
    rep = validate(a)
    assert not rep.ok and any("Origin" in e for e in rep.errors)


def test_resolution_exponent_is_minimal():
    cases = [Fraction(1, 2), Fraction(1, 4), Fraction(1, 3), Fraction(15, 512), Fraction(1), Fraction(7, 8)]
    for p in cases:
        ell = resolution_exponent(p)
        assert p >= Fraction(1, 2**ell)
        if ell > 1:
            assert p < Fraction(1, 2 ** (ell - 1))
    assert resolution_exponent(Fraction(1, 2)) == 1
    assert resolution_exponent(Fraction(1)) == 1
    with pytest.raises(ValueError):
        resolution_exponent(Fraction(0))


def test_chi_accounting():
    a, _ = build_from_spec("nonuniform-search:D=256,l=2")
    m = chi(a)
    assert (a.n_states, m.b, m.ell) == (22, 5, 2)
    assert m.chi == 6.0
    assert m.chi == math.log2(math.log2(256)) + 3

    a16, _ = build_from_spec("nonuniform:D=16")
    assert min_probability(a16) == Fraction(1, 256)  # the q^2 origin self-loop
    m16 = chi(a16)
    assert (m16.b, m16.ell) == (3, 8)
    assert m16.chi == 6.0


def _two_state():
    return make_automaton(
        0,
        [Action.ORIGIN, Action.NONE],
        [
            [(0, Fraction(3, 4)), (1, Fraction(1, 4))],
            [(0, Fraction(1, 2)), (1, Fraction(1, 2))],
        ],
    )


def test_step_distribution_frozen_two_step():
    a = _two_state()
    dist = step_distribution(a, (Fraction(1), Fraction(0)), 2)
    # hand-computed: row0 of P^2
    assert dist == (Fraction(11, 16), Fraction(5, 16))
    assert step_distribution(a, (Fraction(1), Fraction(0)), 0) == (Fraction(1), Fraction(0))


def test_step_distribution_is_a_semigroup():
    rng = np.random.default_rng(5)
    from helpers import random_automaton

    for _ in range(20):
        a = random_automaton(rng)
        init = tuple(
            Fraction(1, a.n_states) if s < a.n_states - 1 else 1 - Fraction(a.n_states - 1, a.n_states)
            for s in range(a.n_states)
        )
        d5 = step_distribution(a, init, 5)
        d23 = step_distribution(a, step_distribution(a, init, 2), 3)
        assert d5 == d23
        assert sum(d5) == 1


def test_step_distribution_size_budget():
    a = make_automaton(
        0,
        [Action.ORIGIN, Action.NONE],
        [
            [(0, Fraction(1, 3)), (1, Fraction(2, 3))],
            [(0, Fraction(3, 5)), (1, Fraction(2, 5))],
        ],
    )
    with pytest.raises(SizeBudgetExceeded):
        step_distribution(a, (Fraction(1), Fraction(0)), 200, max_bits=16)


def test_step_distribution_rejects_bad_init():
    a = _two_state()
    with pytest.raises(ValueError):
        step_distribution(a, (Fraction(1),), 1)
    with pytest.raises(ValueError):
        step_distribution(a, (Fraction(1, 2), Fraction(1, 3)), 1)
    with pytest.raises(ValueError):
        step_distribution(a, (Fraction(1), Fraction(0)), -1)


def test_json_round_trip_builders():
    for spec in SPECS:
        a, _ = build_from_spec(spec)
        b = from_json(to_json(a))
        assert b.start == a.start
        assert b.labels == a.labels
        assert b.rows == a.rows
        assert chi(b) == chi(a)


def test_from_json_rejects_malformed():
    with pytest.raises(json.JSONDecodeError) as exc:
        from_json("{ not json")
    assert exc.value.lineno == 1

    good = json.loads(to_json(_two_state()))

    bad = json.loads(json.dumps(good))
    bad["states"][1]["id"] = 5  # gap in ids
    with pytest.raises(ValueError):
        from_json(json.dumps(bad))

    bad = json.loads(json.dumps(good))
    bad["states"][0]["label"] = "sideways"
    with pytest.raises(ValueError):
        from_json(json.dumps(bad))

    bad = json.loads(json.dumps(good))
    bad["states"][0]["transitions"][0]["den"] = 0
    with pytest.raises(ValueError):
        from_json(json.dumps(bad))

    bad = json.loads(json.dumps(good))
    bad["states"][0]["transitions"] = bad["states"][0]["transitions"][:1]
    with pytest.raises(ValueError):
        from_json(json.dumps(bad))
