"""Grid-level execution: positions, targets, single agents, and swarms.

An agent walks the integer plane under its automaton: each transition is one
step, transitions into move-labeled states are moves, and the target counts
as found only when a move lands on it.  The origin label teleports to (0,0)
at no move cost.  All randomness comes from counter-based per-(trial, agent)
streams, so results depend only on the master seed and the identifiers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import engine
from .automaton import ACTION_DELTA, Action, Automaton
from .engine import BatchResult, build_tables
from .rng import aux_stream, stream_keys


def apply_action(pos: tuple[int, int], action: Action) -> tuple[int, int]:
    """Position after performing one action at pos."""
    if action is Action.ORIGIN:
        return (0, 0)
    dx, dy = ACTION_DELTA[action]
    return (pos[0] + dx, pos[1] + dy)


def default_step_cap(budget: int) -> int:
    """Safety net against moveless churn; generous enough never to bind normally."""
    return (1 << 20) + 32 * budget


@dataclass(frozen=True)
class TargetSpec:
    """Where the target sits: a fixed cell, the corner (D, D), or uniform.

    Uniform draws use a dedicated per-trial auxiliary stream (never the agent
    streams), uniformly over the (2D+1)^2 square with (0,0) redrawn.
    """

    kind: str  # "fixed" | "corner" | "uniform"
    xy: tuple[int, int] | None = None
    D: int | None = None

    @staticmethod
    def fixed(x: int, y: int) -> "TargetSpec":
        if (x, y) == (0, 0):
            raise ValueError("target (0,0) is excluded")
        return TargetSpec("fixed", xy=(x, y))

    @staticmethod
    def corner(D: int) -> "TargetSpec":
        if D < 1:
            raise ValueError("D must be >= 1")
        return TargetSpec("corner", D=D)

    @staticmethod
    def uniform(D: int) -> "TargetSpec":
        if D < 1:
            raise ValueError("D must be >= 1")
        return TargetSpec("uniform", D=D)

    def resolve(self, master_seed: int, trial: int) -> tuple[int, int]:
        if self.kind == "fixed":
            return self.xy  # type: ignore[return-value]
        if self.kind == "corner":
            return (self.D, self.D)  # type: ignore[return-value]
        if self.kind == "uniform":
            side = 2 * self.D + 1  # type: ignore[operator]
            total = side * side
            stream = aux_stream(master_seed, trial)
            while True:
                u = stream.random()
                idx = min(int(u * total), total - 1)
                x = idx // side - self.D
                y = idx % side - self.D
                if (x, y) != (0, 0):
                    return (x, y)
        raise ValueError(f"unknown target kind {self.kind!r}")


def _as_target(target) -> TargetSpec:
    if isinstance(target, TargetSpec):
        return target
    x, y = target
    return TargetSpec.fixed(int(x), int(y))


@dataclass
class AgentRun:
    found: bool
    moves: int
    steps: int
    outcome: str  # found | budget | step_cap | halted | superseded
    x: int
    y: int
    state: int
    events: list | None = None


@dataclass
class SwarmResult:
    found: bool
    m_moves: int | None
    m_steps: int | None
    finder: int | None
    target: tuple[int, int]
    agents: list[AgentRun]

    @property
    def exhausted(self) -> bool:
        return not self.found


def _agent_run(res: BatchResult, i: int, events: list | None = None) -> AgentRun:
    st = int(res.status[i])
    return AgentRun(
        found=st == engine.FOUND,
        moves=int(res.moves[i]),
        steps=int(res.steps[i]),
        outcome=engine.STATUS_NAMES[st],
        x=int(res.x[i]),
        y=int(res.y[i]),
        state=int(res.state[i]),
        events=events,
    )


def batch_inputs(master_seed: int, target, trials: range, agents) -> tuple:
    """Engine inputs for every (trial, agent) pair, trial-major.

    Returns (targets, keys, trial_idx, target_x, target_y): the resolved
    target of each trial, then per walker its stream key, its trial's index
    within the batch, and that trial's target coordinates.
    """
    spec = _as_target(target)
    agents = np.asarray(agents, dtype=np.uint64)
    n = agents.size
    targets = [spec.resolve(master_seed, t) for t in trials]
    keys = stream_keys(
        master_seed,
        np.repeat(np.arange(trials.start, trials.stop, dtype=np.uint64), n),
        np.tile(agents, len(trials)),
    )
    trial_idx = np.repeat(np.arange(len(trials), dtype=np.int64), n)
    tx = np.repeat(np.array([t[0] for t in targets], dtype=np.int64), n)
    ty = np.repeat(np.array([t[1] for t in targets], dtype=np.int64), n)
    return targets, keys, trial_idx, tx, ty


def run_agent(
    a: Automaton,
    target,
    budget: int,
    master_seed: int,
    trial: int = 0,
    agent: int = 0,
    step_cap: int | None = None,
    record: bool = False,
) -> AgentRun:
    """Run one agent to termination; a batch of one, so it reproduces exactly
    the trajectory the same (trial, agent) pair would take inside any swarm."""
    tables = build_tables(a)
    _, keys, trial_idx, tx, ty = batch_inputs(master_seed, target, range(trial, trial + 1), [agent])
    cap = default_step_cap(budget) if step_cap is None else step_cap
    res = engine.run_batch(tables, keys, trial_idx, tx, ty, budget, cap, record=record)
    return _agent_run(res, 0, events=res.events)


def run_swarm(
    a: Automaton,
    n: int,
    target,
    budget: int,
    master_seed: int,
    trial: int = 0,
    step_cap: int | None = None,
) -> SwarmResult:
    """Run n agents on one target; metrics are minima over the finders.

    m_moves and m_steps are independent minima (the fastest-by-moves and the
    fastest-by-steps finder may differ); finder is the lowest agent id among
    those achieving m_moves.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    tables = build_tables(a)
    targets, keys, trial_idx, tx, ty = batch_inputs(master_seed, target, range(trial, trial + 1), np.arange(n))
    cap = default_step_cap(budget) if step_cap is None else step_cap
    res = engine.run_batch(tables, keys, trial_idx, tx, ty, budget, cap)
    return swarm_from_batch(res, list(range(n)), targets[0])


def swarm_from_batch(res: BatchResult, idx: list[int], target: tuple[int, int]) -> SwarmResult:
    """Assemble one trial's SwarmResult from batch rows idx (in agent order)."""
    agents = [_agent_run(res, i) for i in idx]
    found_ids = [j for j, ag in enumerate(agents) if ag.found]
    if found_ids:
        m_moves = min(agents[j].moves for j in found_ids)
        m_steps = min(agents[j].steps for j in found_ids)
        finder = min(j for j in found_ids if agents[j].moves == m_moves)
        return SwarmResult(True, m_moves, m_steps, finder, target, agents)
    return SwarmResult(False, None, None, None, target, agents)


def trace_rows(a: Automaton, events: list) -> list[tuple[int, int, str, int, int]]:
    """Expand recorded events into (step, state, action, x, y) rows.

    Row 0 is the start state at the origin; each later row is one transition
    with the action of the state being entered already applied.
    """
    labels = a.labels
    pos = (0, 0)
    rows = [(0, a.start, labels[a.start].value, 0, 0)]
    step = 0
    for s, count, kind, nxt in events:
        for _ in range(count):
            step += 1
            pos = apply_action(pos, labels[s])
            rows.append((step, s, labels[s].value, pos[0], pos[1]))
        if kind == "exit":
            step += 1
            pos = apply_action(pos, labels[nxt])
            rows.append((step, nxt, labels[nxt].value, pos[0], pos[1]))
    return rows
