"""Independent oracles used by the tests.

Everything here recomputes package quantities by a different route (exact
DP over the product of machine state and position, brute-force graph
enumeration, or a scalar replay of the vectorized executor) so that tests
compare two implementations rather than one implementation with itself.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from antsearch.automaton import ACTION_DELTA, Action, Automaton, make_automaton
from antsearch.engine import (
    BUDGET,
    FOUND,
    HALTED,
    STEPCAP,
    _BIG,
    build_tables,
)
from antsearch.rng import stream_key, uniforms_at

# One parameter set per machine kind of algorithms.KINDS, in spec order.
KIND_EXAMPLES = {
    "nonuniform": {"D": 8},
    "nonuniform-search": {"D": 16, "l": 2},
    "coin": {"k": 3, "l": 2},
    "walk": {"k": 2, "l": 1, "dir": "up"},
    "search": {"k": 2, "l": 1},
    "uniform": {"l": 1, "n": 4, "K": 2, "cap": 3},
    "walkbaseline": {},
}


def kind_spec(kind: str, params: dict) -> str:
    """The explicit spec string, e.g. uniform:l=1,n=4."""
    if not params:
        return kind
    return kind + ":" + ",".join(f"{k}={v}" for k, v in params.items())


# ---------------------------------------------------------------------------
# exact visit/hit probability, one excursion from the start state

def visit_probability_oracle(a: Automaton, target: tuple[int, int], box: int) -> Fraction:
    """P[the walker steps onto target before re-entering the start state or an
    absorbing state], starting from the start state at the origin.

    Exact, by memoized recursion over (state, x, y).  Positions leaving the
    max-norm box are treated as permanent misses; that is only valid for
    machines whose excursions cannot re-approach the target after leaving a
    box that contains it (one-way legs), which holds for every machine this
    oracle is applied to.  Raises on probability cycles among stay-in-place
    states, which would make the recursion ill-founded.
    """
    tx, ty = target
    if (tx, ty) == (0, 0):
        raise ValueError("target (0,0) is excluded")
    memo: dict[tuple[int, int, int], Fraction] = {}
    on_stack: set[tuple[int, int, int]] = set()

    def visit(s: int, x: int, y: int) -> Fraction:
        key = (s, x, y)
        if key in memo:
            return memo[key]
        if key in on_stack:
            raise RuntimeError("cycle among non-moving states; oracle not applicable")
        on_stack.add(key)
        total = Fraction(0)
        for t, p in a.rows[s]:
            if t == a.start:
                continue  # excursion over
            lab = a.labels[t]
            dx, dy = ACTION_DELTA[lab]
            if (dx, dy) != (0, 0):
                nx, ny = x + dx, y + dy
                if (nx, ny) == (tx, ty):
                    total += p
                    continue
                if abs(nx) > box or abs(ny) > box:
                    continue  # out of the box: counted as a miss
                total += p * visit(t, nx, ny)
            else:
                if lab is Action.ORIGIN:
                    nx, ny = 0, 0
                else:
                    nx, ny = x, y
                row = a.row_dict(t)
                if row.get(t, Fraction(0)) == 1:
                    continue  # absorbing, never moves again
                total += p * visit(t, nx, ny)
        on_stack.discard(key)
        memo[key] = total
        return total

    return visit(a.start, 0, 0)


def _gauss(aug: list[list[Fraction]]) -> list[Fraction]:
    n = len(aug)
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise RuntimeError("singular oracle system")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]


def expected_moves_oracle(a: Automaton) -> Fraction:
    """Exact expected number of move-labeled transitions in one excursion
    (from the start state until the next transition into it), by a rational
    linear solve over machine states only."""
    n = a.n_states
    move = [ACTION_DELTA[lab] != (0, 0) for lab in a.labels]
    # E_s = sum_t p(s,t) * (move(t) + E_t [t != start]) ; solve (I - M) E = c
    aug = [[Fraction(0)] * (n + 1) for _ in range(n)]
    for s in range(n):
        aug[s][s] = Fraction(1)
        for t, p in a.rows[s]:
            aug[s][n] += p * (1 if move[t] else 0)
            if t != a.start:
                aug[s][t] -= p
    sol = _gauss(aug)
    return sol[a.start]


# ---------------------------------------------------------------------------
# brute-force chain decomposition

def brute_decompose(a: Automaton):
    """(recurrent classes, periods, cyclic classes) by transitive closure and
    boolean matrix powers; O(n^3)-ish, fine for the small machines in tests."""
    n = a.n_states
    adj = [[False] * n for _ in range(n)]
    for s in range(n):
        for t, p in a.rows[s]:
            if p > 0:
                adj[s][t] = True
    reach = [row[:] for row in adj]
    for s in range(n):
        reach[s][s] = True
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                ri = reach[i]
                rk = reach[k]
                for j in range(n):
                    if rk[j]:
                        ri[j] = True
    classes = []
    seen = set()
    for s in range(n):
        if s in seen:
            continue
        comp = frozenset(t for t in range(n) if reach[s][t] and reach[t][s])
        if s in comp:
            seen |= comp
            # recurrent iff closed
            closed = all((v in comp) for u in comp for v in range(n) if adj[u][v])
            if closed:
                classes.append(comp)
    classes.sort(key=min)

    periods = {}
    cyclic = {}
    for comp in classes:
        root = min(comp)
        # gcd of return lengths up to |S|^2 + 2|S| via boolean powers
        limit = n * n + 2 * n
        cur = {root}
        g = 0
        for length in range(1, limit + 1):
            nxt = set()
            for u in cur:
                for v in range(n):
                    if adj[u][v] and v in comp:
                        nxt.add(v)
            cur = nxt
            if root in cur:
                g = math.gcd(g, length)
        t = g if g else 1
        periods[comp] = t
        # residue classes by BFS from root over (state, step mod t)
        residue = {root: 0}
        frontier = [root]
        while frontier:
            new = []
            for u in frontier:
                for v in range(n):
                    if adj[u][v] and v in comp and v not in residue:
                        residue[v] = (residue[u] + 1) % t
                        new.append(v)
            frontier = new
        groups = tuple(
            frozenset(u for u, r in residue.items() if r == tau) for tau in range(t)
        )
        cyclic[comp] = groups
    return classes, periods, cyclic


# ---------------------------------------------------------------------------
# scalar replay of the vectorized executor

def reference_run_agent(
    a: Automaton,
    target: tuple[int, int],
    budget: int,
    master_seed: int,
    trial: int = 0,
    agent: int = 0,
    step_cap: int = 10**6,
) -> dict:
    """Pure-scalar mirror of one engine walker, same draws, same float ops."""
    tables = build_tables(a)
    tx, ty = target
    key = np.array([stream_key(master_seed, trial, agent)], dtype=np.uint64)
    state = tables.start
    x = y = 0
    moves = steps = 0
    e = 0
    while True:
        if tables.dead[state]:
            return dict(status=HALTED, moves=moves, steps=steps, x=x, y=y, state=state)
        if moves >= budget:
            return dict(status=BUDGET, moves=moves, steps=steps, x=x, y=y, state=state)
        if steps >= step_cap:
            return dict(status=STEPCAP, moves=moves, steps=steps, x=x, y=y, state=state)
        u1 = float(uniforms_at(key, 2 * e)[0])
        u2 = float(uniforms_at(key, 2 * e + 1)[0])
        q = float(tables.qself[state])
        if q <= 0.0:
            g = 0
        elif q >= 1.0:
            g = _BIG
        else:
            g = int(min(np.floor(np.log1p(-u1) / np.log(q)), float(_BIG)))
        allow = step_cap - steps
        mv = bool(tables.is_move[state])
        if mv:
            allow = min(allow, budget - moves)
        geff = min(g, allow)
        dx = int(tables.dx[state])
        dy = int(tables.dy[state])
        rx, ry = tx - x, ty - y
        t_along = dx * rx + dy * ry
        perp = dx * ry - dy * rx
        if mv and perp == 0 and 1 <= t_along <= geff:
            return dict(
                status=FOUND, moves=moves + t_along, steps=steps + t_along, x=tx, y=ty, state=state
            )
        steps += geff
        if mv:
            moves += geff
            x += dx * geff
            y += dy * geff
        if geff == g and moves < budget and steps < step_cap:
            row = tables.exit_cum[state]
            j = int((u2 > row).sum())
            nxt = int(tables.exit_target[state, j])
            steps += 1
            if tables.is_origin[nxt]:
                x = y = 0
            if tables.is_move[nxt]:
                x += int(tables.dx[nxt])
                y += int(tables.dy[nxt])
                moves += 1
                if x == tx and y == ty:
                    return dict(status=FOUND, moves=moves, steps=steps, x=x, y=y, state=nxt)
            state = nxt
        e += 1


# ---------------------------------------------------------------------------
# seeded random machines for decomposition and mixing tests

_LABELS = [Action.NONE, Action.ORIGIN, Action.UP, Action.DOWN, Action.LEFT, Action.RIGHT]


def random_automaton(rng: np.random.Generator, max_states: int = 6) -> Automaton:
    """Random valid machine: eighth-grained sparse rows, arbitrary labels."""
    n = int(rng.integers(1, max_states + 1))
    labels = [(_LABELS[int(rng.integers(0, len(_LABELS)))]) for _ in range(n)]
    start = int(rng.integers(0, n))
    labels[start] = Action.ORIGIN
    rows = []
    for _ in range(n):
        k = int(rng.integers(1, min(n, 4) + 1))
        targets = rng.choice(n, size=k, replace=False)
        weights = rng.integers(1, 9, size=k)
        tot = int(weights.sum())
        rows.append([(int(t), Fraction(int(w), tot)) for t, w in zip(targets, weights)])
    return make_automaton(start, labels, rows)


def random_dense_chain(rng: np.random.Generator, max_states: int = 5) -> Automaton:
    """Irreducible aperiodic chain: every entry a positive multiple of 1/8.

    Rows are compositions of 8 into |S| positive parts, so every probability
    is >= 1/8, the chain is one recurrent class, and min probability is 1/8
    whenever some entry is exactly 1/8.
    """
    n = int(rng.integers(2, max_states + 1))
    labels = [(_LABELS[int(rng.integers(0, len(_LABELS)))]) for _ in range(n)]
    start = int(rng.integers(0, n))
    labels[start] = Action.ORIGIN
    rows = []
    for _ in range(n):
        # composition of 8 into n positive parts (requires n <= 8)
        cuts = np.sort(rng.choice(np.arange(1, 8), size=n - 1, replace=False))
        parts = np.diff(np.concatenate([[0], cuts, [8]]))
        rows.append([(t, Fraction(int(w), 8)) for t, w in enumerate(parts)])
    return make_automaton(start, labels, rows)
