"""Vectorized batch executor for plane-search automata.

Walkers advance sojourn by sojourn: each event draws the length of the stay
in the current state (the self-loop count, geometric via inverse CDF) and one
exit transition.  Every event consumes exactly two uniforms from the walker's
counter-based stream, so a trajectory is a pure function of
(master seed, trial, agent) and never depends on batch composition or
chunking.

Termination statuses:
  FOUND       landed on the target with a move action
  BUDGET      move budget exhausted (no further find is possible)
  STEPCAP     step safety cap reached
  HALTED      entered a state from which no move-labeled state is reachable
  SUPERSEDED  retired because a finder in the same trial already beat it on
              both metrics (moves and steps); cannot affect either minimum
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .automaton import ACTION_DELTA, Action, Automaton, reaches, validate
from .rng import uniforms_at

ACTIVE = 0
FOUND = 1
BUDGET = 2
STEPCAP = 3
HALTED = 4
SUPERSEDED = 5

STATUS_NAMES = {
    ACTIVE: "active",
    FOUND: "found",
    BUDGET: "budget",
    STEPCAP: "step_cap",
    HALTED: "halted",
    SUPERSEDED: "superseded",
}

_BIG = 1 << 60  # sojourn cap for absorbing states; also the limit on caps
_INF = 1 << 62


@dataclass(eq=False)
class EngineTables:
    start: int
    n_states: int
    qself: np.ndarray  # float64: self-loop probability
    absorbing: np.ndarray  # bool: exact self-loop probability 1
    is_move: np.ndarray  # bool
    is_origin: np.ndarray  # bool
    dx: np.ndarray  # int64 label deltas
    dy: np.ndarray
    dead: np.ndarray  # bool: walker can never move (and never find) again
    exit_cum: np.ndarray  # float64 (n, max_out): renormalized non-self CDF, pad 2.0
    exit_target: np.ndarray  # int64 (n, max_out)


def cumulative_table(rows) -> tuple[np.ndarray, np.ndarray]:
    """Float CDF and target matrices of (target, probability) rows.

    Each row is normalised by its own total, so a row with its self-loop
    removed becomes the exit law.  Columns are padded with 2.0, above any
    uniform, and a nonempty row's last entry is pinned to 1.0 so float
    rounding can never let a draw run past the row; an empty row stays all
    padding.  A uniform u selects column (u > cum[s]).sum().
    """
    width = max(1, max(len(row) for row in rows))
    cum = np.full((len(rows), width), 2.0)
    target = np.zeros((len(rows), width), dtype=np.int64)
    for s, row in enumerate(rows):
        if not row:
            continue
        total = sum(p for _, p in row)
        acc = Fraction(0)
        for j, (t, p) in enumerate(row):
            acc += p
            cum[s, j] = min(float(acc / total), 1.0)
            target[s, j] = t
        cum[s, len(row) - 1] = 1.0
    return cum, target


@lru_cache(maxsize=128)
def build_tables(a: Automaton) -> EngineTables:
    report = validate(a)
    if not report.ok:
        raise ValueError("invalid automaton: " + "; ".join(report.errors))
    n = a.n_states
    qself = np.zeros(n)
    absorbing = np.zeros(n, dtype=bool)
    exits: list[list[tuple[int, Fraction]]] = []
    for s, row in enumerate(a.rows):
        q = sum((p for t, p in row if t == s), Fraction(0))
        # an absorbing state has no exit; the row stays empty (all padding)
        exits.append([(t, p) for t, p in row if t != s])
        if q == 1:
            absorbing[s] = True
            qself[s] = 1.0
            continue
        qf = float(q)
        if qf >= 1.0:
            raise ValueError(
                f"state {s}: self-loop probability {q} rounds to 1.0 in float64; "
                "this machine cannot be simulated at float resolution"
            )
        qself[s] = qf
    exit_cum, exit_target = cumulative_table(exits)

    is_move = np.zeros(n, dtype=bool)
    is_origin = np.zeros(n, dtype=bool)
    dx = np.zeros(n, dtype=np.int64)
    dy = np.zeros(n, dtype=np.int64)
    for s, lab in enumerate(a.labels):
        is_origin[s] = lab is Action.ORIGIN
        d = ACTION_DELTA[lab]
        dx[s], dy[s] = d
        is_move[s] = d != (0, 0)

    reach_move = np.array(reaches(a, set(np.flatnonzero(is_move).tolist())), dtype=bool)
    # In a machine with moves, any move-unreachable state is a dead end worth
    # halting at once (it may still shuffle between none-states forever).  In
    # a move-free machine (a bare coin), only absorption ends the run.
    if is_move.any():
        dead = ~reach_move
    else:
        dead = absorbing.copy()
    return EngineTables(
        start=a.start,
        n_states=n,
        qself=qself,
        absorbing=absorbing,
        is_move=is_move,
        is_origin=is_origin,
        dx=dx,
        dy=dy,
        dead=dead,
        exit_cum=exit_cum,
        exit_target=exit_target,
    )


@dataclass(eq=False)
class BatchResult:
    moves: np.ndarray  # int64
    steps: np.ndarray  # int64
    x: np.ndarray  # int64 final position
    y: np.ndarray
    status: np.ndarray  # int8, one of the module constants (never ACTIVE)
    state: np.ndarray  # int64 final automaton state
    events: list | None  # only for recorded single-walker runs


def run_batch(
    tables: EngineTables,
    keys: np.ndarray,
    trial_idx: np.ndarray,
    target_x: np.ndarray,
    target_y: np.ndarray,
    budget: int,
    step_cap: int,
    record: bool = False,
    draw_base: int = 0,
) -> BatchResult:
    """Run one walker per key until every walker reaches a terminal status.

    trial_idx groups walkers into trials for the retirement rule: once some
    walker of a trial has found the target, co-walkers whose (moves, steps)
    already both reach the trial's best-known (min moves, min steps) are
    retired as SUPERSEDED.  Any find they could still make would take at
    least one more move and one more step, so both minima and the identity
    of the minimal finder are unchanged; walkers that could still tie stay
    live.  Retirement uses only same-trial information, keeping trajectories
    and metrics independent of how trials are batched together.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if step_cap < 1:
        raise ValueError("step_cap must be >= 1")
    if budget >= _BIG or step_cap >= _BIG:
        raise ValueError("budget and step_cap must be below 2^60")
    w = len(keys)
    if record and w != 1:
        raise ValueError("event recording is only supported for single-walker batches")
    keys = np.asarray(keys, dtype=np.uint64)
    trial_idx = np.asarray(trial_idx, dtype=np.int64)
    target_x = np.asarray(target_x, dtype=np.int64)
    target_y = np.asarray(target_y, dtype=np.int64)
    if np.any((target_x == 0) & (target_y == 0)):
        raise ValueError("target (0,0) is excluded")

    state = np.full(w, tables.start, dtype=np.int64)
    x = np.zeros(w, dtype=np.int64)
    y = np.zeros(w, dtype=np.int64)
    moves = np.zeros(w, dtype=np.int64)
    steps = np.zeros(w, dtype=np.int64)
    status = np.full(w, ACTIVE, dtype=np.int8)
    n_slots = int(trial_idx.max()) + 1 if w else 0
    best_m = np.full(n_slots, _INF, dtype=np.int64)
    best_s = np.full(n_slots, _INF, dtype=np.int64)
    active = np.arange(w)
    events: list | None = [] if record else None
    e = 0

    while active.size:
        s = state[active]
        # terminal checks, in fixed precedence
        d = tables.dead[s]
        b = ~d & (moves[active] >= budget)
        c = ~d & ~b & (steps[active] >= step_cap)
        sup = (
            ~d & ~b & ~c
            & (moves[active] >= best_m[trial_idx[active]])
            & (steps[active] >= best_s[trial_idx[active]])
        )
        if d.any():
            status[active[d]] = HALTED
        if b.any():
            status[active[b]] = BUDGET
        if c.any():
            status[active[c]] = STEPCAP
        if sup.any():
            status[active[sup]] = SUPERSEDED
        keep = ~(d | b | c | sup)
        if not keep.all():
            active = active[keep]
            if not active.size:
                break
            s = state[active]

        u1 = uniforms_at(keys[active], draw_base + 2 * e)
        u2 = uniforms_at(keys[active], draw_base + 2 * e + 1)

        q = tables.qself[s]
        g = np.zeros(active.size, dtype=np.int64)
        mid = (q > 0.0) & (q < 1.0)
        if mid.any():
            gf = np.floor(np.log1p(-u1[mid]) / np.log(q[mid]))
            g[mid] = np.minimum(gf, float(_BIG)).astype(np.int64)
        g[q >= 1.0] = _BIG

        is_mv = tables.is_move[s]
        allow = step_cap - steps[active]
        if is_mv.any():
            allow[is_mv] = np.minimum(allow[is_mv], budget - moves[active][is_mv])
        geff = np.minimum(g, allow)

        # a move-state sojourn sweeps a straight segment; check it for the target
        dxs = tables.dx[s]
        dys = tables.dy[s]
        rx = target_x[active] - x[active]
        ry = target_y[active] - y[active]
        t_along = dxs * rx + dys * ry
        perp = dxs * ry - dys * rx
        seg = is_mv & (perp == 0) & (t_along >= 1) & (t_along <= geff)
        if seg.any():
            idx = active[seg]
            moves[idx] += t_along[seg]
            steps[idx] += t_along[seg]
            x[idx] = target_x[idx]
            y[idx] = target_y[idx]
            status[idx] = FOUND

        ns = ~seg
        soj = active[ns]
        adds = geff[ns]
        steps[soj] += adds
        mv_ns = is_mv[ns]
        if mv_ns.any():
            moved = soj[mv_ns]
            moves[moved] += adds[mv_ns]
            x[moved] += dxs[ns][mv_ns] * adds[mv_ns]
            y[moved] += dys[ns][mv_ns] * adds[mv_ns]

        natural = ns & (geff == g) & (moves[active] < budget) & (steps[active] < step_cap)
        exited_state = -1
        if natural.any():
            exi = active[natural]
            cum = tables.exit_cum[state[exi]]
            idx2 = (u2[natural][:, None] > cum).sum(axis=1)
            s2 = tables.exit_target[state[exi], idx2]
            state[exi] = s2
            steps[exi] += 1
            org2 = tables.is_origin[s2]
            if org2.any():
                x[exi[org2]] = 0
                y[exi[org2]] = 0
            mv2 = tables.is_move[s2]
            if mv2.any():
                mm = exi[mv2]
                x[mm] += tables.dx[s2[mv2]]
                y[mm] += tables.dy[s2[mv2]]
                moves[mm] += 1
                hit = (x[mm] == target_x[mm]) & (y[mm] == target_y[mm])
                if hit.any():
                    status[mm[hit]] = FOUND
            if record:
                exited_state = int(s2[0])

        if record and active.size:
            if seg[0]:
                events.append((int(s[0]), int(t_along[0]), "seg", -1))
            elif natural[0]:
                events.append((int(s[0]), int(geff[0]), "exit", exited_state))
            else:
                events.append((int(s[0]), int(geff[0]), "stay", -1))

        found_now = active[status[active] == FOUND]
        if found_now.size:
            np.minimum.at(best_m, trial_idx[found_now], moves[found_now])
            np.minimum.at(best_s, trial_idx[found_now], steps[found_now])
            active = active[status[active] == ACTIVE]
        e += 1

    return BatchResult(moves=moves, steps=steps, x=x, y=y, status=status, state=state, events=events)
