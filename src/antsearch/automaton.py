"""Finite state machines with exact rational transitions and movement labels.

An agent program is a labeled Markov chain: each state carries one of six
actions (four unit moves, an origin teleport, or nothing), and each row of
the transition matrix is a list of (target, probability) pairs whose exact
rational probabilities sum to 1.  Keeping probabilities rational makes
row-stochasticity and the selection complexity chi exact assertions; floats
appear only in Monte Carlo statistics and analysis fallbacks.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Sequence


class Action(Enum):
    UP = "up"
    DOWN = "down"
    LEFT = "left"
    RIGHT = "right"
    ORIGIN = "origin"
    NONE = "none"


MOVE_ACTIONS = frozenset({Action.UP, Action.DOWN, Action.LEFT, Action.RIGHT})

# unit displacement of each move action; ORIGIN teleports, NONE holds still
ACTION_DELTA = {
    Action.UP: (0, 1),
    Action.DOWN: (0, -1),
    Action.LEFT: (-1, 0),
    Action.RIGHT: (1, 0),
    Action.ORIGIN: (0, 0),
    Action.NONE: (0, 0),
}

Row = tuple[tuple[int, Fraction], ...]


@dataclass(frozen=True)
class Automaton:
    """Immutable agent chain; states are dense ids 0..n-1 in matrix order."""

    start: int
    labels: tuple[Action, ...]
    rows: tuple[Row, ...]

    @property
    def n_states(self) -> int:
        return len(self.labels)

    def row_dict(self, s: int) -> dict[int, Fraction]:
        return dict(self.rows[s])


def make_automaton(start: int, labels: Sequence[Action], rows: Iterable[Iterable[tuple[int, object]]]) -> Automaton:
    """Normalize python-level lists into an Automaton (probabilities -> Fraction)."""
    norm_rows = tuple(
        tuple((int(t), p if isinstance(p, Fraction) else Fraction(p)) for t, p in row)
        for row in rows
    )
    return Automaton(start=start, labels=tuple(labels), rows=norm_rows)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    errors: tuple[str, ...]


def validate(a: Automaton) -> ValidationReport:
    """Check the model invariants; failures are reported, never raised."""
    errors: list[str] = []
    n = a.n_states
    if n == 0:
        return ValidationReport(False, ("automaton has no states",))
    if len(a.rows) != n:
        errors.append(f"{len(a.rows)} rows for {n} states")
    if not (0 <= a.start < n):
        errors.append(f"start {a.start} is not a declared state")
    for s, lab in enumerate(a.labels):
        if not isinstance(lab, Action):
            errors.append(f"state {s}: missing label")
    if 0 <= a.start < n and a.labels[a.start] is not Action.ORIGIN:
        errors.append(f"start must be Origin (state {a.start} is labeled {a.labels[a.start].value})")
    for s, row in enumerate(a.rows[:n]):
        total = Fraction(0)
        seen: set[int] = set()
        for t, p in row:
            if not (0 <= t < n):
                errors.append(f"state {s}: dangling transition to {t}")
            if t in seen:
                errors.append(f"state {s}: duplicate transition target {t}")
            seen.add(t)
            if not isinstance(p, Fraction) or p <= 0 or p > 1:
                errors.append(f"state {s}: transition probability {p} outside (0, 1]")
            total += p
        if total != 1:
            errors.append(f"state {s}: row not stochastic (sums to {total})")
    return ValidationReport(ok=not errors, errors=tuple(errors))


@dataclass(frozen=True)
class ChiMetric:
    """Selection complexity: b memory bits, ell probability resolution, chi = b + log2(ell)."""

    b: int
    ell: int
    chi: float


def min_probability(a: Automaton) -> Fraction:
    """Smallest nonzero transition probability in the chain."""
    return min(p for row in a.rows for _, p in row)


def resolution_exponent(p: Fraction) -> int:
    """Smallest positive integer ell with p >= 2**-ell (exact integer arithmetic)."""
    if p <= 0:
        raise ValueError("probability must be positive")
    ell = 1
    scaled = p.numerator * 2
    while scaled < p.denominator:
        scaled *= 2
        ell += 1
    return ell


def chi(a: Automaton) -> ChiMetric:
    report = validate(a)
    if not report.ok:
        raise ValueError("invalid automaton: " + "; ".join(report.errors))
    b = (a.n_states - 1).bit_length()
    ell = resolution_exponent(min_probability(a))
    return ChiMetric(b=b, ell=ell, chi=b + math.log2(ell))


def reaches(a: Automaton, seeds) -> list[bool]:
    """Per state, whether some path leads from it into seeds (a seed reaches
    itself); a backward search over the transition graph."""
    hit = [s in seeds for s in range(a.n_states)]
    preds: list[list[int]] = [[] for _ in range(a.n_states)]
    for s, row in enumerate(a.rows):
        for t, _ in row:
            preds[t].append(s)
    work = [s for s in range(a.n_states) if hit[s]]
    while work:
        v = work.pop()
        for u in preds[v]:
            if not hit[u]:
                hit[u] = True
                work.append(u)
    return hit


class SizeBudgetExceeded(OverflowError):
    """Rational arithmetic grew past the configured bit budget."""


def step_distribution(
    a: Automaton,
    init: Sequence[Fraction],
    k: int,
    max_bits: int = 200_000,
) -> tuple[Fraction, ...]:
    """Exact k-step push-forward init.P^k.

    Raises SizeBudgetExceeded when any intermediate denominator outgrows
    max_bits; callers that only need approximate answers fall back to float
    matrix powers.
    """
    n = a.n_states
    if len(init) != n:
        raise ValueError(f"initial distribution has {len(init)} entries for {n} states")
    dist = [p if isinstance(p, Fraction) else Fraction(p) for p in init]
    if sum(dist) != 1:
        raise ValueError("initial distribution must sum to exactly 1")
    if k < 0:
        raise ValueError("k must be >= 0")
    for _ in range(k):
        nxt = [Fraction(0)] * n
        for s, mass in enumerate(dist):
            if mass == 0:
                continue
            for t, p in a.rows[s]:
                nxt[t] += mass * p
        dist = nxt
        if max(q.denominator.bit_length() for q in dist) > max_bits:
            raise SizeBudgetExceeded(f"denominators exceed {max_bits} bits at this horizon")
    return tuple(dist)


def to_json(a: Automaton, indent: int | None = 2) -> str:
    """Serialize to the interchange schema (states sorted by id)."""
    doc = {
        "start": a.start,
        "states": [
            {
                "id": s,
                "label": a.labels[s].value,
                "transitions": [
                    {"to": t, "num": p.numerator, "den": p.denominator} for t, p in a.rows[s]
                ],
            }
            for s in range(a.n_states)
        ],
    }
    return json.dumps(doc, indent=indent)


def from_json(text: str) -> Automaton:
    """Parse and validate the interchange schema; rejects anything invalid.

    Raises json.JSONDecodeError on malformed JSON (with line/column) and
    ValueError on schema or model violations.
    """
    doc = json.loads(text)
    if not isinstance(doc, dict) or "start" not in doc or "states" not in doc:
        raise ValueError("automaton JSON must be an object with 'start' and 'states'")
    states = doc["states"]
    if not isinstance(states, list) or not states:
        raise ValueError("'states' must be a non-empty list")
    ids = sorted(st.get("id") for st in states)
    if ids != list(range(len(states))):
        raise ValueError("state ids must be exactly 0..N-1 with no gaps")
    by_id = {st["id"]: st for st in states}
    labels = []
    rows = []
    for s in range(len(states)):
        st = by_id[s]
        try:
            labels.append(Action(st["label"]))
        except (KeyError, ValueError):
            raise ValueError(f"state {s}: unknown label {st.get('label')!r}") from None
        row = []
        for tr in st.get("transitions", []):
            num, den = tr.get("num"), tr.get("den")
            if not isinstance(num, int) or not isinstance(den, int) or den <= 0 or num < 0:
                raise ValueError(f"state {s}: transition needs integer num >= 0 and den > 0")
            row.append((tr["to"], Fraction(num, den)))
        rows.append(row)
    a = make_automaton(int(doc["start"]), labels, rows)
    report = validate(a)
    if not report.ok:
        raise ValueError("invalid automaton: " + "; ".join(report.errors))
    return a
