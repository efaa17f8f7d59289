"""Builders for the search machines, their procedural twins, and closed forms.

Every machine exists in two routes that tests compare against each other:
a compiled Automaton whose selection complexity is measurable, and either a
procedural reference program or an exact closed form.  The two routes are
implemented independently on purpose; collapsing them would turn the
equivalence checks into tautologies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .automaton import (
    Action,
    Automaton,
    ChiMetric,
    chi,
    make_automaton,
    resolution_exponent,
    validate,
)

_EXIT_SENTINEL = 10**9
_DIRS = {"up": Action.UP, "down": Action.DOWN, "left": Action.LEFT, "right": Action.RIGHT}

FragRow = tuple[tuple[object, Fraction], ...]  # targets: internal int or port name str


@dataclass(frozen=True)
class Fragment:
    """A sub-machine with one entry and named exit ports.

    Ids are internal (0..n-1); a row target may instead be a port name that
    the surrounding machine wires up.  `bits` counts only internal states:
    when a fragment is spliced into a host, the host's register indexes these
    states while the exits reuse host states, so the fragment's own memory
    cost is ceil(log2(internal states)).
    """

    labels: tuple[Action, ...]
    rows: tuple[FragRow, ...]
    entry: int
    ports: tuple[str, ...]

    @property
    def n_states(self) -> int:
        return len(self.labels)

    @property
    def bits(self) -> int:
        return (len(self.labels) - 1).bit_length()


def fragment_chi(frag: Fragment) -> ChiMetric:
    """Selection complexity of the fragment itself (internal states only)."""
    p_min = min(p for row in frag.rows for _, p in row)
    ell = resolution_exponent(p_min)
    return ChiMetric(b=frag.bits, ell=ell, chi=frag.bits + math.log2(ell))


def fragment_automaton(frag: Fragment) -> Automaton:
    """Standalone machine: origin start -> entry, each port -> absorbing state."""
    n = frag.n_states
    port_id = {name: 1 + n + i for i, name in enumerate(frag.ports)}
    labels = [Action.ORIGIN] + list(frag.labels) + [Action.NONE] * len(frag.ports)
    rows: list[list[tuple[int, Fraction]]] = [[(1 + frag.entry, Fraction(1))]]
    for row in frag.rows:
        rows.append([(port_id[t] if isinstance(t, str) else 1 + t, p) for t, p in row])
    for name in frag.ports:
        rows.append([(port_id[name], Fraction(1))])
    a = make_automaton(0, labels, rows)
    report = validate(a)
    assert report.ok, report.errors
    return a


def fragment_port_ids(frag: Fragment) -> dict[str, int]:
    """Port state ids inside fragment_automaton(frag)."""
    return {name: 1 + frag.n_states + i for i, name in enumerate(frag.ports)}


# ---------------------------------------------------------------------------
# coin / walk / search fragments

def build_coin(k: int, ell: int) -> Fragment:
    """Boosted coin: tails iff k consecutive tails of a 2^-ell coin.

    k flips are performed (never k+1): the tails probability 2^-(k*ell) is
    the load-bearing quantity downstream, so the flip count matches it.
    k = 0 degenerates to tails with probability 1.
    """
    if k < 0 or ell < 1:
        raise ValueError("coin needs k >= 0 and ell >= 1")
    if k == 0:
        return Fragment(
            labels=(Action.NONE,),
            rows=((("tails", Fraction(1)),),),
            entry=0,
            ports=("heads", "tails"),
        )
    ph = 1 - Fraction(1, 2**ell)
    pt = Fraction(1, 2**ell)
    rows = []
    for j in range(k):
        nxt: object = j + 1 if j + 1 < k else "tails"
        rows.append((("heads", ph), (nxt, pt)))
    return Fragment(labels=(Action.NONE,) * k, rows=tuple(rows), entry=0, ports=("heads", "tails"))


def coin_automaton(k: int, ell: int) -> Automaton:
    """Standalone boosted coin; ids: 0 origin, 1..max(k,1) flips, then heads, tails."""
    return fragment_automaton(build_coin(k, ell))


def _emit_walk(labels: list[Action], rows: list[list], k: int, ell: int, action: Action, exit_to: int) -> int:
    """Append a walk block (entry + move + k-1 flip states); returns the entry id.

    The entry and the move state carry the same row: heads performs (another)
    move, a full tails chain exits.  Probabilities are never multiplied
    together, so the block's resolution stays exactly ell.
    """
    base = len(labels)
    if k == 0:
        labels.append(Action.NONE)
        rows.append([(exit_to, Fraction(1))])
        return base
    ph = 1 - Fraction(1, 2**ell)
    pt = Fraction(1, 2**ell)
    move = base + 1
    chain = list(range(base + 2, base + k + 1))
    labels.extend([Action.NONE, action] + [Action.NONE] * (k - 1))
    first_tail = chain[0] if chain else exit_to
    rows.append([(move, ph), (first_tail, pt)])  # entry
    rows.append([(move, ph), (first_tail, pt)])  # move: heads keeps moving
    for j, f in enumerate(chain):
        nxt = chain[j + 1] if j + 1 < len(chain) else exit_to
        rows.append([(move, ph), (nxt, pt)])
    return base


def _walk_block_size(k: int) -> int:
    return k + 1 if k >= 1 else 1


def build_walk(k: int, ell: int, direction: str) -> Fragment:
    """Geometric walk: repeat {move one step with prob 1 - 2^-(k*ell), else exit}."""
    if direction not in _DIRS:
        raise ValueError(f"direction must be one of {sorted(_DIRS)}")
    if k < 0 or ell < 1:
        raise ValueError("walk needs k >= 0 and ell >= 1")
    labels: list[Action] = []
    rows: list[list] = []
    entry = _emit_walk(labels, rows, k, ell, _DIRS[direction], _EXIT_SENTINEL)
    frows = tuple(
        tuple(("exit" if t == _EXIT_SENTINEL else t, p) for t, p in row) for row in rows
    )
    return Fragment(labels=tuple(labels), rows=frows, entry=entry, ports=("exit",))


def walk_automaton(k: int, ell: int, direction: str) -> Automaton:
    return fragment_automaton(build_walk(k, ell, direction))


def _emit_search_section(labels: list[Action], rows: list[list], k: int, ell: int, exit_to: int) -> int:
    """Append a full search section; returns its entry (the vertical chooser).

    Layout from the base id: chooser_v, up block, down block, chooser_h,
    left block, right block.  Vertical walks exit to chooser_h, horizontal
    walks to exit_to.
    """
    wb = _walk_block_size(k)
    base = len(labels)
    up_e = base + 1
    down_e = up_e + wb
    chooser_h = down_e + wb
    left_e = chooser_h + 1
    right_e = left_e + wb
    half = Fraction(1, 2)
    labels.append(Action.NONE)
    rows.append([(up_e, half), (down_e, half)])
    assert _emit_walk(labels, rows, k, ell, Action.UP, chooser_h) == up_e
    assert _emit_walk(labels, rows, k, ell, Action.DOWN, chooser_h) == down_e
    labels.append(Action.NONE)
    rows.append([(left_e, half), (right_e, half)])
    assert len(rows) - 1 == chooser_h
    assert _emit_walk(labels, rows, k, ell, Action.LEFT, exit_to) == left_e
    assert _emit_walk(labels, rows, k, ell, Action.RIGHT, exit_to) == right_e
    return base


def build_search(k: int, ell: int) -> Fragment:
    """One square sweep: fair vertical walk, then fair horizontal walk."""
    if k < 0 or ell < 1:
        raise ValueError("search needs k >= 0 and ell >= 1")
    labels: list[Action] = []
    rows: list[list] = []
    entry = _emit_search_section(labels, rows, k, ell, _EXIT_SENTINEL)
    frows = tuple(
        tuple(("exit" if t == _EXIT_SENTINEL else t, p) for t, p in row) for row in rows
    )
    return Fragment(labels=tuple(labels), rows=frows, entry=entry, ports=("exit",))


def search_automaton(k: int, ell: int) -> Automaton:
    return fragment_automaton(build_search(k, ell))


# ---------------------------------------------------------------------------
# the five-state machine and its memory-bounded variant

def build_nonuniform(D: int) -> Automaton:
    """Five-state searcher for a known distance bound D.

    Row pattern: a walk that would be empty is skipped in state space, so the
    origin row jumps straight into whichever walk is first non-empty (both
    empty: the 1/D^2 self-loop), and the vertical rows exit either into a
    non-empty horizontal walk or, when that walk is empty too, straight back
    to the origin with the residual 1/D^2.
    """
    if D < 2:
        raise ValueError("D must be >= 2")
    one = Fraction(1)
    q = Fraction(1, D)
    g = one - q  # continue probability of each walk
    O, U, Dn, L, R = range(5)
    rows = [
        [(O, q * q), (U, g / 2), (Dn, g / 2), (L, q * g / 2), (R, q * g / 2)],
        [(U, g), (L, q * g / 2), (R, q * g / 2), (O, q * q)],
        [(Dn, g), (L, q * g / 2), (R, q * g / 2), (O, q * q)],
        [(L, g), (O, q)],
        [(R, g), (O, q)],
    ]
    labels = [Action.ORIGIN, Action.UP, Action.DOWN, Action.LEFT, Action.RIGHT]
    a = make_automaton(0, labels, rows)
    report = validate(a)
    assert report.ok, report.errors
    return a


def boost_exponent(D: int, ell: int) -> int:
    """Smallest k >= 1 with 2^(k*ell) >= D."""
    if D < 2 or ell < 1:
        raise ValueError("need D >= 2 and ell >= 1")
    k = 1
    while 2 ** (k * ell) < D:
        k += 1
    return k


def build_nonuniform_search(D: int, ell: int) -> Automaton:
    """The five-state searcher with each 1/D stop-coin replaced by a boosted coin.

    k = boost_exponent(D, ell), so walks stop with probability 2^-(k*ell) <= 1/D.
    Explicit chooser and entry states keep every transition probability at
    least 2^-ell; the machine has 4k + 6 states.
    """
    k = boost_exponent(D, ell)
    labels: list[Action] = [Action.ORIGIN]
    rows: list[list] = [None]  # type: ignore[list-item]
    wb = _walk_block_size(k)
    up_e = 1
    down_e = up_e + wb
    chooser_h = down_e + wb
    left_e = chooser_h + 1
    right_e = left_e + wb
    half = Fraction(1, 2)
    rows[0] = [(up_e, half), (down_e, half)]
    assert _emit_walk(labels, rows, k, ell, Action.UP, chooser_h) == up_e
    assert _emit_walk(labels, rows, k, ell, Action.DOWN, chooser_h) == down_e
    labels.append(Action.NONE)
    rows.append([(left_e, half), (right_e, half)])
    assert len(rows) - 1 == chooser_h
    assert _emit_walk(labels, rows, k, ell, Action.LEFT, 0) == left_e
    assert _emit_walk(labels, rows, k, ell, Action.RIGHT, 0) == right_e
    a = make_automaton(0, labels, rows)
    report = validate(a)
    assert report.ok, report.errors
    assert a.n_states == 4 * k + 6
    return a


def build_random_walk_baseline() -> Automaton:
    """Uniform random walk: origin start, then a uniform choice of move forever."""
    q = Fraction(1, 4)
    moves = [Action.UP, Action.DOWN, Action.LEFT, Action.RIGHT]
    rows = [[(t, q) for t in range(1, 5)] for _ in range(5)]
    a = make_automaton(0, [Action.ORIGIN] + moves, rows)
    report = validate(a)
    assert report.ok, report.errors
    return a


# ---------------------------------------------------------------------------
# distance-free searcher (growing phases)

def uniform_kappa(i: int, ell: int, n: int, K: int) -> int:
    """Gate-coin boost exponent of phase i for n agents."""
    if i < 1 or ell < 1 or n < 1 or K < 1:
        raise ValueError("need i, ell, K >= 1 and n >= 1")
    m = (n.bit_length() - 1) // ell  # floor(log2(n) / ell)
    return K + max(i - m, 0)


def uniform_rho(i: int, ell: int, n: int, K: int) -> int:
    """Expected-rounds scale of phase i's gate: rho = 2^(kappa * ell)."""
    return 2 ** (uniform_kappa(i, ell, n, K) * ell)


def covering_phase(D: int, ell: int) -> int:
    """First phase whose search square reaches distance D: smallest i with 2^(i*ell) >= D."""
    if D < 1 or ell < 1:
        raise ValueError("need D >= 1 and ell >= 1")
    i = 1
    while 2 ** (i * ell) < D:
        i += 1
    return i


def _uniform_phase_size(i: int, ell: int, n: int, K: int) -> int:
    return uniform_kappa(i, ell, n, K) + 4 * i + 6


def compile_uniform(ell: int, n: int, K: int, phase_cap: int) -> Automaton:
    """Flatten phases 1..phase_cap of the distance-free searcher into one machine.

    Each phase: an origin-labeled state that doubles as the first gate flip
    (heads enters a search round, a full tails chain advances the phase),
    the remaining gate flip states, and a search section for squares of side
    2^(i*ell) whose exit returns to the phase's origin state.  Tails at the
    final phase fall into an absorbing halt state, which the simulator
    reports as a distinct cap-exhausted outcome.
    """
    if phase_cap < 1:
        raise ValueError("phase_cap must be >= 1")
    bases = [0]
    for i in range(1, phase_cap + 1):
        bases.append(bases[-1] + _uniform_phase_size(i, ell, n, K))
    halt = bases[-1]
    ph = 1 - Fraction(1, 2**ell)
    pt = Fraction(1, 2**ell)
    labels: list[Action] = []
    rows: list[list] = []
    for i in range(1, phase_cap + 1):
        base = bases[i - 1]
        kappa = uniform_kappa(i, ell, n, K)
        chooser_v = base + kappa
        next_origin = bases[i] if i < phase_cap else halt
        assert len(labels) == base
        # gate flip 1 lives on the origin state itself
        labels.append(Action.ORIGIN)
        rows.append([(chooser_v, ph), (base + 1 if kappa >= 2 else next_origin, pt)])
        for j in range(2, kappa + 1):
            labels.append(Action.NONE)
            nxt = base + j if j < kappa else next_origin
            rows.append([(chooser_v, ph), (nxt, pt)])
        assert _emit_search_section(labels, rows, i, ell, base) == chooser_v
    labels.append(Action.NONE)
    rows.append([(halt, Fraction(1))])
    a = make_automaton(0, labels, rows)
    report = validate(a)
    assert report.ok, report.errors
    return a


def uniform_halt_state(ell: int, n: int, K: int, phase_cap: int) -> int:
    total = 0
    for i in range(1, phase_cap + 1):
        total += _uniform_phase_size(i, ell, n, K)
    return total


# ---------------------------------------------------------------------------
# procedural reference programs

def sample_walk_length(stop_p: float, u: float) -> int:
    """Inverse-CDF geometric: number of moves before a stop of probability stop_p."""
    if stop_p >= 1.0:
        return 0
    return int(math.floor(math.log1p(-u) / math.log1p(-stop_p)))


def iteration_hit_move(v: int, h: int, tx: int, ty: int) -> int | None:
    """Move index (1-based) at which the v-then-h iteration first reaches (tx, ty)."""
    if tx == 0 and ty == 0:
        raise ValueError("target (0,0) is excluded")
    if tx == 0:
        if ty * v > 0 and abs(v) >= abs(ty):
            return abs(ty)
        return None
    if v == ty and h * tx > 0 and abs(h) >= abs(tx):
        return abs(v) + abs(tx)
    return None


@dataclass
class PhaseStat:
    searches: int
    moves: int


@dataclass
class ProgramRun:
    found: bool
    moves: int
    found_phase: int | None
    phases: list[PhaseStat]


class UniformProgram:
    """Procedural reference for the distance-free searcher (phases unbounded)."""

    def __init__(self, ell: int, n: int, K: int):
        if ell < 1 or n < 1 or K < 1:
            raise ValueError("need ell, K >= 1 and n >= 1")
        self.ell = ell
        self.n = n
        self.K = K

    def run(
        self,
        target: tuple[int, int],
        budget: int,
        stream,
        max_rounds: int = 10**7,
        max_phase: int | None = None,
    ) -> ProgramRun:
        tx, ty = target
        moves = 0
        phases: list[PhaseStat] = []
        rounds = 0
        i = 0
        while True:
            i += 1
            if max_phase is not None and i > max_phase:
                return ProgramRun(False, moves, None, phases)
            stat = PhaseStat(searches=0, moves=0)
            phases.append(stat)
            gate_tails = 2.0 ** -(uniform_kappa(i, self.ell, self.n, self.K) * self.ell)
            stop_p = 2.0 ** -(i * self.ell)
            while True:
                rounds += 1
                if rounds > max_rounds:
                    raise RuntimeError("round guard tripped; raise max_rounds")
                if stream.random() < gate_tails:
                    break  # phase gate shows tails: next phase
                stat.searches += 1
                sv = 1 if stream.random() < 0.5 else -1
                V = sample_walk_length(stop_p, stream.random())
                sh = 1 if stream.random() < 0.5 else -1
                H = sample_walk_length(stop_p, stream.random())
                hit = iteration_hit_move(sv * V, sh * H, tx, ty)
                full = abs(V) + abs(H)
                if hit is not None and moves + hit <= budget:
                    stat.moves += hit
                    return ProgramRun(True, moves + hit, i, phases)
                take = min(full, budget - moves)
                stat.moves += take
                moves += take
                if moves >= budget:
                    return ProgramRun(False, moves, None, phases)


# ---------------------------------------------------------------------------
# closed forms

def expected_iteration_moves(D: int) -> Fraction:
    """Exact mean moves of one iteration: two geometric walks, 2(D-1) <= 2D."""
    if D < 2:
        raise ValueError("D must be >= 2")
    return Fraction(2 * (D - 1))


def _axis_visit_probability(stop: Fraction, x: int, y: int) -> Fraction:
    """P[one vertical-then-horizontal iteration visits (x, y)], walks Geom0(stop)."""
    g = 1 - stop
    ax, ay = abs(x), abs(y)
    if ax == 0 and ay == 0:
        return Fraction(1)
    if ax == 0:
        return Fraction(1, 2) * g**ay
    # vertical walk must end exactly at height y, then go the right way >= |x|
    p_vend = stop if ay == 0 else Fraction(1, 2) * g**ay * stop
    return p_vend * Fraction(1, 2) * g**ax


def hit_probability_per_iteration(D: int, target: tuple[int, int]) -> Fraction:
    """Exact P[one iteration of the five-state machine visits target]."""
    if D < 2:
        raise ValueError("D must be >= 2")
    x, y = target
    if (x, y) == (0, 0):
        raise ValueError("target (0,0) is excluded")
    if abs(x) > D or abs(y) > D:
        raise ValueError(f"target {target} outside the distance-{D} square")
    return _axis_visit_probability(Fraction(1, D), x, y)


def search_visit_probability(k: int, ell: int, x: int, y: int) -> Fraction:
    """Exact P[one search sweep visits (x, y)] with stop probability 2^-(k*ell)."""
    if k < 0 or ell < 1:
        raise ValueError("need k >= 0 and ell >= 1")
    return _axis_visit_probability(Fraction(1, 2 ** (k * ell)), x, y)


def walk_length_pmf(k: int, ell: int, i: int) -> Fraction:
    """P[walk performs exactly i moves] = (1 - 2^-(k*ell))^i * 2^-(k*ell)."""
    if i < 0:
        raise ValueError("i must be >= 0")
    q = Fraction(1, 2 ** (k * ell))
    return (1 - q) ** i * q


# ---------------------------------------------------------------------------
# spec strings (the CLI surface)

def _parse_params(text: str, spec: str) -> dict[str, str]:
    params: dict[str, str] = {}
    if not text:
        return params
    for part in text.split(","):
        if "=" not in part:
            raise ValueError(f"malformed algorithm spec {spec!r}: expected key=value, got {part!r}")
        key, val = part.split("=", 1)
        params[key.strip()] = val.strip()
    return params


def _int_param(params: dict[str, str], key: str, spec: str, default: int | None = None) -> int:
    if key not in params:
        if default is not None:
            return default
        raise ValueError(f"algorithm spec {spec!r} is missing required parameter {key!r}")
    try:
        return int(params[key])
    except ValueError:
        raise ValueError(f"algorithm spec {spec!r}: parameter {key!r} must be an integer") from None


def _fragment_kind(frag: Fragment) -> tuple[Automaton, dict]:
    fc = fragment_chi(frag)
    return fragment_automaton(frag), {
        "fragment": {"states": frag.n_states, "b": fc.b, "ell": fc.ell, "chi": fc.chi},
        "ports": fragment_port_ids(frag),
    }


def _nonuniform_search_kind(D: int, ell: int) -> tuple[Automaton, dict]:
    k = boost_exponent(D, ell)
    info = {"boost_k": k, "stop_probability": Fraction(1, 2 ** (k * ell))}
    return build_nonuniform_search(D, ell), info


def _uniform_kind(ell: int, n: int, K: int, cap: int) -> tuple[Automaton, dict]:
    info = {"halt_state": uniform_halt_state(ell, n, K, cap)}
    return compile_uniform(ell, n, K, cap), info


@dataclass(frozen=True)
class MachineKind:
    """One spec kind: its parameters in spec order, the defaults of the
    optional ones (a str default marks a string parameter; the rest are
    integers), and a builder taking the values positionally and returning
    (automaton, extra info)."""

    params: tuple[str, ...]
    build: Callable[..., tuple[Automaton, dict]]
    defaults: tuple[tuple[str, object], ...] = ()


KINDS: dict[str, MachineKind] = {
    "nonuniform": MachineKind(("D",), lambda D: (build_nonuniform(D), {})),
    "nonuniform-search": MachineKind(("D", "l"), _nonuniform_search_kind),
    "coin": MachineKind(("k", "l"), lambda k, ell: _fragment_kind(build_coin(k, ell))),
    "walk": MachineKind(
        ("k", "l", "dir"),
        lambda k, ell, direction: _fragment_kind(build_walk(k, ell, direction)),
        defaults=(("dir", ""),),
    ),
    "search": MachineKind(("k", "l"), lambda k, ell: _fragment_kind(build_search(k, ell))),
    "uniform": MachineKind(("l", "n", "K", "cap"), _uniform_kind, defaults=(("K", 4), ("cap", 8))),
    "walkbaseline": MachineKind((), lambda: (build_random_walk_baseline(), {})),
}


def build_from_spec(spec: str) -> tuple[Automaton, dict]:
    """Build a machine from a CLI spec string; returns (automaton, info).

    info carries the kind, parsed parameters, and for coin/walk/search kinds
    the fragment-level accounting (internal states and bits) alongside the
    standalone machine.
    """
    kind, _, rest = spec.partition(":")
    kind = kind.strip()
    params = _parse_params(rest, spec)
    entry = KINDS.get(kind)
    if entry is None:
        raise ValueError(f"unknown algorithm kind {kind!r}; expected one of {', '.join(KINDS)}")
    if params and not entry.params:
        raise ValueError(f"algorithm spec {spec!r}: {kind} takes no parameters")
    defaults = dict(entry.defaults)
    values: dict = {}
    for key in entry.params:
        default = defaults.get(key)
        if isinstance(default, str):
            values[key] = params.get(key, default)
        else:
            values[key] = _int_param(params, key, spec, default)
    a, extra = entry.build(*values.values())
    return a, {"kind": kind, "params": values, **extra}
