"""Counter-based random streams, one per (trial, agent) pair.

Draw number ``e`` of a stream is a pure function of (master_seed, trial,
agent, e).  Nothing about batching or execution order can change a draw,
which is what makes every randomized result in this package
bit-reproducible.

The mixer is SplitMix64 (Steele, Lea and Flood, "Fast splittable
pseudorandom number generators"), used in counter mode: the stream key is a
triple hash of seed/trial/agent, and draw e reads the mixed value at offset
e * golden-ratio.  numpy Generators are deliberately kept off the hot path;
one Generator object per walker turns buffer refills into the dominant cost
when thousands of walkers advance in lockstep, while this scheme is a
handful of vectorized uint64 ops per draw.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_TRIAL_SALT = 0xD1342543DE82EF95
_AGENT_SALT = 0xAF251AF3B0F025B5
# reserved pseudo-agent index for per-trial auxiliary draws (target placement)
AUX_AGENT = 0xFFFFFFFF

_U53 = 1.0 / (1 << 53)

_NP_M1 = np.uint64(0xBF58476D1CE4E5B9)
_NP_M2 = np.uint64(0x94D049BB133111EB)
_NP_30 = np.uint64(30)
_NP_27 = np.uint64(27)
_NP_31 = np.uint64(31)
_NP_11 = np.uint64(11)


def mix64_int(z: int) -> int:
    """SplitMix64 finalizer on a python int, mod 2**64."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer on a uint64 array (wraps silently, matches mix64_int)."""
    z = (z ^ (z >> _NP_30)) * _NP_M1
    z = (z ^ (z >> _NP_27)) * _NP_M2
    return z ^ (z >> _NP_31)


def stream_key(master_seed: int, trial: int, agent: int) -> int:
    """Key of the (trial, agent) stream under master_seed, as a python int."""
    k = mix64_int(master_seed)
    k = mix64_int(k ^ ((trial * _TRIAL_SALT) & _MASK))
    return mix64_int(k ^ ((agent * _AGENT_SALT) & _MASK))


def stream_keys(master_seed: int, trials: np.ndarray, agents: np.ndarray) -> np.ndarray:
    """Vectorized stream_key over parallel trial/agent index arrays."""
    k0 = np.uint64(mix64_int(master_seed))
    t = mix64(k0 ^ (trials.astype(np.uint64) * np.uint64(_TRIAL_SALT)))
    return mix64(t ^ (agents.astype(np.uint64) * np.uint64(_AGENT_SALT)))


def _bits_to_unit(bits: np.ndarray) -> np.ndarray:
    # top 53 bits -> [0, 1); exact in float64, identical scalar or vector
    return (bits >> _NP_11).astype(np.float64) * _U53


def uniforms_at(keys: np.ndarray, draw_index: int) -> np.ndarray:
    """Draw number draw_index of each stream in keys, as float64 in [0, 1)."""
    off = np.uint64((draw_index * GOLDEN) & _MASK)
    return _bits_to_unit(mix64(keys + off))


def uniform_at(key: int, draw_index: int) -> float:
    """Scalar twin of uniforms_at (same value, python arithmetic)."""
    bits = mix64_int((key + draw_index * GOLDEN) & _MASK)
    return (bits >> 11) * _U53


class WalkerStream:
    """Sequential view of one stream; duck-compatible with Generator.random().

    Used by procedural reference programs and anywhere a caller wants plain
    scalar draws.  The vectorized engine reads the same streams by absolute
    draw index instead.
    """

    __slots__ = ("key", "drawn")

    def __init__(self, master_seed: int, trial: int = 0, agent: int = 0):
        self.key = stream_key(master_seed, trial, agent)
        self.drawn = 0

    def random(self) -> float:
        u = uniform_at(self.key, self.drawn)
        self.drawn += 1
        return u


def aux_stream(master_seed: int, trial: int) -> WalkerStream:
    """Per-trial auxiliary stream (target placement etc.), disjoint from agents."""
    return WalkerStream(master_seed, trial, AUX_AGENT)
