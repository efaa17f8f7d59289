"""Markov-chain structure of an automaton: classes, periods, stationary laws,
mixing certificates, reach and coverage bounds.

Everything here treats the automaton as a plain finite Markov chain (labels
matter only for drift).  Exact rational arithmetic is the default; float
fallbacks engage only when a declared size budget is exceeded, and results
carry an `exact` flag when the distinction matters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .automaton import (
    Action,
    Automaton,
    SizeBudgetExceeded,
    chi,
    min_probability,
    reaches,
    step_distribution,
    validate,
)
from .engine import cumulative_table
from .rng import stream_keys, uniforms_at

# ---------------------------------------------------------------------------
# decomposition


@dataclass(frozen=True)
class RecurrentClass:
    states: tuple[int, ...]
    period: int
    cyclic_classes: tuple[tuple[int, ...], ...]  # G_0..G_{t-1}; one-step edges map G_t into G_{t+1 mod t}


@dataclass(frozen=True)
class ClassDecomposition:
    recurrent_classes: tuple[RecurrentClass, ...]
    transient: tuple[int, ...]


def _adjacency(a: Automaton) -> list[list[int]]:
    return [[t for t, _ in row] for row in a.rows]


def _sccs(n: int, adj: list[list[int]]) -> list[list[int]]:
    """Iterative Tarjan; components in reverse topological order."""
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for j in range(pi, len(adj[v])):
                u = adj[v][j]
                if index[u] == -1:
                    work[-1] = (v, j + 1)
                    work.append((u, 0))
                    advanced = True
                    break
                if on_stack[u]:
                    low[v] = min(low[v], index[u])
            if advanced:
                continue
            work.pop()
            if work:
                pv = work[-1][0]
                low[pv] = min(low[pv], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    u = stack.pop()
                    on_stack[u] = False
                    comp.append(u)
                    if u == v:
                        break
                comps.append(comp)
    return comps


def _class_structure(states: list[int], adj: list[list[int]]) -> RecurrentClass:
    """Period and cyclic classes of one recurrent class via BFS residues."""
    sset = set(states)
    root = min(states)
    level = {root: 0}
    frontier = [root]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v in sset and v not in level:
                    level[v] = level[u] + 1
                    nxt.append(v)
        frontier = nxt
    g = 0
    for u in states:
        for v in adj[u]:
            if v in sset:
                g = math.gcd(g, level[u] + 1 - level[v])
    t = g if g > 0 else 1
    classes = [sorted(s for s in states if level[s] % t == tau) for tau in range(t)]
    for u in states:  # sanity: edges advance the residue by exactly one
        for v in adj[u]:
            if v in sset:
                assert (level[u] + 1 - level[v]) % t == 0
    return RecurrentClass(
        states=tuple(sorted(states)),
        period=t,
        cyclic_classes=tuple(tuple(c) for c in classes),
    )


def decompose(a: Automaton) -> ClassDecomposition:
    """Recurrent classes (with period and cyclic classes) and transient states."""
    report = validate(a)
    if not report.ok:
        raise ValueError("invalid automaton: " + "; ".join(report.errors))
    adj = _adjacency(a)
    rec: list[RecurrentClass] = []
    transient: list[int] = []
    for comp in _sccs(a.n_states, adj):
        cset = set(comp)
        closed = all(t in cset for u in comp for t in adj[u])
        if closed:
            rec.append(_class_structure(comp, adj))
        else:
            transient.extend(comp)
    rec.sort(key=lambda r: r.states[0])
    return ClassDecomposition(recurrent_classes=tuple(rec), transient=tuple(sorted(transient)))


def _as_class(a: Automaton, rec) -> RecurrentClass:
    if isinstance(rec, RecurrentClass):
        return rec
    states = tuple(sorted(int(s) for s in rec))
    for cand in decompose(a).recurrent_classes:
        if cand.states == states:
            return cand
    raise ValueError(f"states {states} are not a recurrent class of this automaton")


# ---------------------------------------------------------------------------
# exact linear algebra


def _bits_ok(x: Fraction, max_bits: int) -> bool:
    return x.numerator.bit_length() <= max_bits and x.denominator.bit_length() <= max_bits


def _gauss_solve(A: list[list[Fraction]], b: list[Fraction], max_bits: int) -> list[Fraction]:
    n = len(A)
    M = [row[:] + [b[i]] for i, row in enumerate(A)]
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col] != 0), None)
        if piv is None:
            raise RuntimeError("singular stationary system; decomposition bug")
        M[col], M[piv] = M[piv], M[col]
        inv = 1 / M[col][col]
        M[col] = [v * inv for v in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                f = M[r][col]
                M[r] = [vr - f * vc for vr, vc in zip(M[r], M[col])]
                for v in M[r]:
                    if not _bits_ok(v, max_bits):
                        raise SizeBudgetExceeded("stationary solve exceeded the rational size budget")
    return [M[i][n] for i in range(n)]


def _class_matrix(a: Automaton, states: tuple[int, ...]) -> list[list[Fraction]]:
    pos = {s: i for i, s in enumerate(states)}
    P = [[Fraction(0)] * len(states) for _ in states]
    for s in states:
        for t, p in a.rows[s]:
            P[pos[s]][pos[t]] += p  # recurrent classes are closed: t is in states
    return P


def _global_class_stationary(a: Automaton, states: tuple[int, ...], max_bits: int) -> dict[int, Fraction]:
    """Exact pi with pi P = pi, sum 1, on one closed class."""
    P = _class_matrix(a, states)
    m = len(states)
    A = [[P[j][i] - (1 if i == j else 0) for j in range(m)] for i in range(m)]
    A[m - 1] = [Fraction(1)] * m  # replace one redundant balance row with normalization
    b = [Fraction(0)] * (m - 1) + [Fraction(1)]
    sol = _gauss_solve(A, b, max_bits)
    return {s: sol[i] for i, s in enumerate(states)}


def _float_matrix(a: Automaton) -> np.ndarray:
    """Dense float64 transition matrix, for the fallbacks past the size budget."""
    full = np.zeros((a.n_states, a.n_states))
    for s, row in enumerate(a.rows):
        for t, p in row:
            full[s, t] += float(p)
    return full


def _float_stationary_tau(a: Automaton, rec: RecurrentClass, tau: int, tol: float = 1e-12) -> dict[int, float]:
    G = rec.cyclic_classes[tau]
    M = np.linalg.matrix_power(_float_matrix(a), rec.period)[np.ix_(G, G)]
    v = np.full(len(G), 1.0 / len(G))
    for _ in range(1_000_000):
        v2 = v @ M
        if np.abs(v2 - v).max() < tol:
            v = v2
            break
        v = v2
    v = v / v.sum()
    return {s: float(v[i]) for i, s in enumerate(G)}


def stationary(a: Automaton, rec, tau: int = 0, max_bits: int = 200_000) -> dict[int, Fraction] | dict[int, float]:
    """pi_tau: the stationary law of the period-step chain on cyclic class tau.

    Exact rationals by default; falls back to float power iteration
    (tolerance 1e-12) when the exact solve exceeds max_bits.  The global class
    stationary pi has mass exactly 1/t on each cyclic class, so pi_tau is its
    conditional: pi_tau = t * pi restricted to G_tau.
    """
    rc = _as_class(a, rec)
    if not 0 <= tau < rc.period:
        raise ValueError(f"tau must be in [0, {rc.period})")
    try:
        pi = _global_class_stationary(a, rc.states, max_bits)
    except SizeBudgetExceeded:
        return _float_stationary_tau(a, rc, tau)
    out = {s: pi[s] * rc.period for s in rc.cyclic_classes[tau]}
    assert sum(out.values()) == 1
    return out


# ---------------------------------------------------------------------------
# distances and bounds


def _paired(d1, d2):
    if isinstance(d1, dict) or isinstance(d2, dict):
        if not (isinstance(d1, dict) and isinstance(d2, dict) and set(d1) == set(d2)):
            raise ValueError("distributions have mismatched supports")
        return [(d1[k], d2[k]) for k in d1]
    if len(d1) != len(d2):
        raise ValueError("distributions have mismatched supports")
    return list(zip(d1, d2))


def tv_distance(d1, d2):
    """Total variation: half the L1 distance."""
    pairs = _paired(d1, d2)
    return sum(abs(p - q) for p, q in pairs) / 2


def inf_norm_distance(d1, d2):
    """Pointwise max distance; never larger than tv_distance."""
    pairs = _paired(d1, d2)
    return max(abs(p - q) for p, q in pairs)


def rosenthal_bound(epsilon, k: int, k0: int):
    """(1 - epsilon)^floor(k / k0): distance bound after k steps given a
    one-in-k0-steps minorization of strength epsilon."""
    if not 0 < epsilon <= 1:
        raise ValueError("epsilon must be in (0, 1]")
    if k0 < 1 or k < 0:
        raise ValueError("need k0 >= 1 and k >= 0")
    return (1 - epsilon) ** (k // k0)


def mixing_certificate(a: Automaton, rec, tau: int, beta: int, max_bits: int = 200_000) -> dict:
    """Check measured convergence on one cyclic class against the generic bound.

    epsilon = p0^|S| with p0 the least transition probability anywhere in the
    machine; k0 = ceil(|S| / t); beta is rounded up to a multiple of t (noted)
    so the chain lands back on G_tau.  The bound holds for total variation;
    the measured distance uses the ∞-norm, which TV dominates, so the check
    is conservative.
    """
    rc = _as_class(a, rec)
    if beta < 0:
        raise ValueError("beta must be >= 0")
    t = rc.period
    beta_used = ((beta + t - 1) // t) * t
    n = a.n_states
    p0 = min_probability(a)
    epsilon = p0**n
    k = beta_used // t
    k0 = (n + t - 1) // t
    bound = rosenthal_bound(epsilon, k, k0)
    pi_tau = stationary(a, rc, tau, max_bits=max_bits)
    exact = all(isinstance(v, Fraction) for v in pi_tau.values())
    G = rc.cyclic_classes[tau]
    measured = Fraction(0) if exact else 0.0
    for s in G:
        init = [Fraction(0)] * n
        init[s] = Fraction(1)
        try:
            dist = step_distribution(a, init, beta_used, max_bits=max_bits)
            restricted = {u: dist[u] for u in G}
        except SizeBudgetExceeded:
            exact = False
            full = _float_matrix(a)
            vec = np.zeros(n)
            vec[s] = 1.0
            for _ in range(beta_used):
                vec = vec @ full
            restricted = {u: float(vec[u]) for u in G}
        if exact:
            assert sum(restricted.values()) == 1  # multiples of t return to G_tau
        ref = pi_tau if exact else {u: float(pi_tau[u]) for u in G}
        d = inf_norm_distance(restricted, ref)
        measured = max(measured, d if exact else float(d))
    holds = measured <= bound if exact else float(measured) <= float(bound) + 1e-9
    return {
        "states": rc.states,
        "tau": tau,
        "period": t,
        "beta_requested": beta,
        "beta_used": beta_used,
        "rounded_up": beta_used != beta,
        "epsilon": epsilon,
        "k": k,
        "k0": k0,
        "bound": bound,
        "measured": measured,
        "exact": exact,
        "norm": "inf",
        "note": "bound stated for total variation; inf-norm <= TV, so this check is conservative",
        "holds": bool(holds),
    }


# ---------------------------------------------------------------------------
# stationary profile and drift


@dataclass(frozen=True)
class ClassProfile:
    states: tuple[int, ...]
    period: int
    pi: dict  # global stationary on the class
    pi_tau: tuple  # per cyclic class, conditional stationary
    label_mass: dict  # action value -> stationary mass
    drift: tuple  # (p_right - p_left, p_up - p_down)
    exact: bool


@dataclass(frozen=True)
class StationaryProfile:
    classes: tuple[ClassProfile, ...]


def drift_profile(a: Automaton, max_bits: int = 200_000) -> StationaryProfile:
    """Per recurrent class: stationary law, label masses, and drift vector.

    Label masses average the cyclic classes uniformly (each carries exactly
    mass 1/t under the global stationary law), which matches a long-run
    block average over whole periods.
    """
    decomp = decompose(a)
    profiles = []
    for rc in decomp.recurrent_classes:
        try:
            pi = _global_class_stationary(a, rc.states, max_bits)
            exact = True
            zero = Fraction(0)
        except SizeBudgetExceeded:
            exact = False
            pis = [_float_stationary_tau(a, rc, tau) for tau in range(rc.period)]
            pi = {s: v / rc.period for d in pis for s, v in d.items()}
            zero = 0.0
        pi_tau = tuple(
            {s: pi[s] * rc.period for s in G} for G in rc.cyclic_classes
        )
        mass = {act.value: zero for act in Action}
        for s in rc.states:
            mass[a.labels[s].value] += pi[s]
        drift = (
            mass[Action.RIGHT.value] - mass[Action.LEFT.value],
            mass[Action.UP.value] - mass[Action.DOWN.value],
        )
        profiles.append(
            ClassProfile(
                states=rc.states,
                period=rc.period,
                pi=pi,
                pi_tau=pi_tau,
                label_mass=mass,
                drift=drift,
                exact=exact,
            )
        )
    return StationaryProfile(classes=tuple(profiles))


# ---------------------------------------------------------------------------
# reach bound and coverage prediction


def _exact_log2(D: int):
    if D & (D - 1) == 0:
        return D.bit_length() - 1
    return Fraction(math.log2(D))


def reach_bound(b: int, p0, c: int, D: int, max_bits: int = 1_000_000) -> int | None:
    """ceil(p0^(-2^b) * 2^b * c * log2(D)); None when the rational blows past max_bits."""
    p0 = Fraction(p0)
    if not 0 < p0 <= 1:
        raise ValueError("p0 must be in (0, 1]")
    if b < 0 or c < 1 or D < 2:
        raise ValueError("need b >= 0, c >= 1, D >= 2")
    needed = (2**b) * max(p0.denominator.bit_length(), 1)
    if needed > max_bits:
        return None
    val = p0 ** -(2**b) * (2**b) * c * _exact_log2(D)
    return math.ceil(val)


@dataclass(frozen=True)
class CoveragePrediction:
    cells: int
    fraction: float
    D: int
    delta: int
    w: int
    drifts: tuple


def coverage_mask(a: Automaton, D: int, delta: int, w: int) -> np.ndarray:
    """Boolean membership grid for predict_coverage, indexed [(x+D)*side + (y+D)].

    The region is the union over recurrent classes of the strip of half-width
    w around {r * drift : 0 <= r <= delta}, clipped to the max-norm D-square,
    united with the origin square of radius w (which covers zero-drift
    classes).  Cells are decided in float with an exact rational recheck on
    the boundary band, so membership is exact.
    """
    if D < 1 or delta < 1 or w < 0:
        raise ValueError("need D >= 1, delta >= 1, w >= 0")
    profile = drift_profile(a)
    drifts = [cp.drift for cp in profile.classes]
    side = 2 * D + 1
    xs = np.arange(-D, D + 1)
    X = np.repeat(xs, side).astype(float)
    Y = np.tile(xs, side).astype(float)
    covered = (np.abs(X) <= w) & (np.abs(Y) <= w)
    for px, py in drifts:
        pxf, pyf = float(px), float(py)
        if pxf == 0.0 and pyf == 0.0:
            continue
        best = np.full(X.shape, np.inf)
        cands: list[np.ndarray] = [np.zeros_like(X), np.full_like(X, float(delta))]
        if pxf != 0.0:
            cands.append(X / pxf)
        if pyf != 0.0:
            cands.append(Y / pyf)
        if pxf + pyf != 0.0:
            cands.append((X + Y) / (pxf + pyf))
        if pxf - pyf != 0.0:
            cands.append((X - Y) / (pxf - pyf))
        for r in cands:
            rc = np.clip(r, 0.0, float(delta))
            d = np.maximum(np.abs(X - rc * pxf), np.abs(Y - rc * pyf))
            best = np.minimum(best, d)
        member = best <= w + 1e-9
        # cells too close to the boundary for float arithmetic get exact treatment
        border = np.abs(best - w) <= 1e-6
        for i in np.nonzero(border)[0]:
            member[i] = _exact_strip_member(
                int(X[i]), int(Y[i]), Fraction(px), Fraction(py), delta, w
            )
        covered |= member
    return covered


def predict_coverage(a: Automaton, D: int, delta: int, w: int) -> CoveragePrediction:
    """Exact cell count and area fraction of the predicted coverage region."""
    covered = coverage_mask(a, D, delta, w)
    drifts = [cp.drift for cp in drift_profile(a).classes]
    cells = int(covered.sum())
    side = 2 * D + 1
    return CoveragePrediction(
        cells=cells,
        fraction=cells / side**2,
        D=D,
        delta=delta,
        w=w,
        drifts=tuple(drifts),
    )


def _exact_strip_member(x: int, y: int, px: Fraction, py: Fraction, delta: int, w: int) -> bool:
    cands = [Fraction(0), Fraction(delta)]
    if px != 0:
        cands.append(Fraction(x) / px)
    if py != 0:
        cands.append(Fraction(y) / py)
    if px + py != 0:
        cands.append(Fraction(x + y) / (px + py))
    if px - py != 0:
        cands.append(Fraction(x - y) / (px - py))
    best = None
    for r in cands:
        r = min(max(r, Fraction(0)), Fraction(delta))
        d = max(abs(x - r * px), abs(y - r * py))
        best = d if best is None else min(best, d)
    return best <= w


# ---------------------------------------------------------------------------
# tail bounds


def _check_chernoff_args(mu, delta) -> None:
    if mu < 0:
        raise ValueError("mu must be >= 0")
    if not 0 <= delta <= 1:
        raise ValueError("delta must be in [0, 1]")


def chernoff_upper(mu, delta) -> float:
    """Bound on P[X > (1 + delta) mu]."""
    _check_chernoff_args(mu, delta)
    return math.exp(-(delta**2) * mu / 2)


def chernoff_lower(mu, delta) -> float:
    """Bound on P[X < (1 - delta) mu]."""
    _check_chernoff_args(mu, delta)
    return math.exp(-(delta**2) * mu / 3)


def chernoff_twosided(mu, delta) -> float:
    """Two-sided bound, clamped into [0, 1] for reporting."""
    _check_chernoff_args(mu, delta)
    return min(2 * math.exp(-(delta**2) * mu / 3), 1.0)


# ---------------------------------------------------------------------------
# arrival into recurrent classes


def recurrence_arrival_check(
    a: Automaton, c: int, D: int, trials: int, seed: int, max_steps: int = 200_000
) -> dict:
    """Simulate plain chain steps and measure arrival into any recurrent class.

    Walks are cut off at min(R_0, max_steps) steps; arrival probability is
    non-decreasing in the horizon (recurrent classes are closed), so a pass
    under a capped horizon is sound, and the cap is reported.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    decomp = decompose(a)
    rec_states = {s for rc in decomp.recurrent_classes for s in rc.states}
    if not rec_states:
        raise ValueError("automaton has no recurrent class")
    b = (a.n_states - 1).bit_length()
    p0 = min_probability(a)
    r0 = reach_bound(b, p0, c, D)
    horizon = max_steps if r0 is None else min(r0, max_steps)
    capped = r0 is None or horizon < r0

    cum, tgt = cumulative_table(a.rows)
    in_rec = np.zeros(a.n_states, dtype=bool)
    in_rec[list(rec_states)] = True

    keys = stream_keys(seed, np.arange(trials, dtype=np.uint64), np.zeros(trials, dtype=np.uint64))
    state = np.full(trials, a.start, dtype=np.int64)
    alive = ~in_rec[state]
    idx = np.nonzero(alive)[0]
    for step in range(horizon):
        if idx.size == 0:
            break
        u = uniforms_at(keys[idx], step)
        rows_c = cum[state[idx]]
        j = (u[:, None] > rows_c).sum(axis=1)
        state[idx] = tgt[state[idx], j]
        idx = idx[~in_rec[state[idx]]]
    fraction = float(in_rec[state].mean())
    threshold = 1.0 - 1.0 / D**c
    sigma = math.sqrt(threshold * (1 - threshold) / trials)
    return {
        "r0": r0,
        "horizon": horizon,
        "capped": capped,
        "trials": trials,
        "fraction": fraction,
        "threshold": threshold,
        "sigma": sigma,
        "passes": fraction >= threshold - 5 * sigma,
    }


# ---------------------------------------------------------------------------
# absorption probabilities (exact hitting of a target state set)


def absorption_probabilities(a: Automaton, targets, max_bits: int = 200_000) -> dict[int, Fraction]:
    """Exact probability, per start state, of ever hitting the target set."""
    targets = set(int(t) for t in targets)
    n = a.n_states
    if not targets or any(t < 0 or t >= n for t in targets):
        raise ValueError("targets must be a nonempty subset of states")
    can_reach = reaches(a, targets)
    unknown = [s for s in range(n) if can_reach[s] and s not in targets]
    pos = {s: i for i, s in enumerate(unknown)}
    m = len(unknown)
    A = [[Fraction(0)] * m for _ in range(m)]
    bvec = [Fraction(0)] * m
    for s in unknown:
        i = pos[s]
        A[i][i] += 1
        for t, p in a.rows[s]:
            if t in targets:
                bvec[i] += p
            elif t in pos:
                A[i][pos[t]] -= p
    sol = _gauss_solve(A, bvec, max_bits) if m else []
    out: dict[int, Fraction] = {}
    for s in range(n):
        if s in targets:
            out[s] = Fraction(1)
        elif s in pos:
            out[s] = sol[pos[s]]
        else:
            out[s] = Fraction(0)
    return out


# ---------------------------------------------------------------------------
# aggregate JSON report


def _frac_str(v) -> str:
    f = Fraction(v) if not isinstance(v, Fraction) else v
    return f"{f.numerator}/{f.denominator}"


def analyze_report(a: Automaton, D: int, c: int = 2, w: int | None = None, delta: int | None = None) -> dict:
    """JSON-ready structural report: decomposition, stationary laws, drifts,
    selection complexity, reach bound, and predicted coverage."""
    decomp = decompose(a)
    profile = drift_profile(a)
    metric = chi(a)
    if w is None:
        w = max(1, math.ceil(D / (16 * a.n_states)))
    if delta is None:
        delta = D * D
    b = (a.n_states - 1).bit_length()
    r0 = reach_bound(b, min_probability(a), c, D)
    cov = predict_coverage(a, D, delta, w)
    classes_json = []
    for rc, cp in zip(decomp.recurrent_classes, profile.classes):
        rational = cp.exact
        classes_json.append(
            {
                "states": list(rc.states),
                "period": rc.period,
                "cyclic_classes": [list(g) for g in rc.cyclic_classes],
                "stationary": {
                    str(s): (_frac_str(v) if rational else float(v)) for s, v in sorted(cp.pi.items())
                },
                "stationary_tau": [
                    {str(s): (_frac_str(v) if rational else float(v)) for s, v in sorted(d.items())}
                    for d in cp.pi_tau
                ],
                "label_mass": {
                    k: (_frac_str(v) if rational else float(v)) for k, v in sorted(cp.label_mass.items())
                },
                "drift": [
                    _frac_str(cp.drift[0]) if rational else float(cp.drift[0]),
                    _frac_str(cp.drift[1]) if rational else float(cp.drift[1]),
                ],
                "drift_float": [float(cp.drift[0]), float(cp.drift[1])],
                "exact": rational,
            }
        )
    return {
        "schema": 1,
        "n_states": a.n_states,
        "chi": {"b": metric.b, "ell": metric.ell, "chi": metric.chi},
        "transient_states": list(decomp.transient),
        "recurrent_classes": classes_json,
        "D": D,
        "c": c,
        "r0": r0 if r0 is not None else "saturated",
        "coverage": {
            "w": w,
            "delta": delta,
            "cells": cov.cells,
            "fraction": cov.fraction,
        },
    }
