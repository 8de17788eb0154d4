"""YCSB-style operation streams.

Six canonical mixes (a-f). Each stream is a load phase of uniform-random
inserts followed by an operation phase drawn from the mix. Keys are hashed
sequence numbers so that every word is a dense random bit pattern; popular
ranks map to insertion order (the first loaded key is the hottest).

Zipfian sampling uses the standard 0.99 exponent. The `latest` distribution
draws a zipf rank and counts it back from the most recent insert.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

MASK64 = (1 << 64) - 1
GOLDEN64 = 0x9E3779B97F4A7C15

# workload -> (read%, update%, insert%, distribution), as commonly tabled;
# e and f repeat b and a respectively
MIXES = {
    "a": (50, 50, 0, "zipfian"),
    "b": (95, 0, 5, "zipfian"),
    "c": (100, 0, 0, "zipfian"),
    "d": (5, 95, 0, "latest"),
    "e": (95, 0, 5, "zipfian"),
    "f": (50, 50, 0, "zipfian"),
}

ZIPF_THETA = 0.99

OP_READ, OP_UPDATE, OP_INSERT = 0, 1, 2


def splitmix64(x: int) -> int:
    x = (x + GOLDEN64) & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


def _draw(state: int, word_bits: int) -> int:
    """A dense word_bits-wide draw: lane j of each 64 bits is step j of the
    splitmix64 sequence from `state`, so lane 0 alone is a word <= 64 bits."""
    word = splitmix64(state)
    for lane in range(1, (word_bits + 63) // 64):
        word |= splitmix64(state + lane * GOLDEN64) << (64 * lane)
    return word & ((1 << word_bits) - 1)


# the per-seed bases: key i of a seed is drawn from _key_base(seed) + i,
# value i from _value_base(seed) + i
def _key_base(seed: int) -> int:
    return splitmix64(seed)


def _value_base(seed: int) -> int:
    return splitmix64(~seed & MASK64)


def make_key(seed: int, index: int, word_bits: int) -> int:
    return _draw(_key_base(seed) + index, word_bits)


def make_value(seed: int, counter: int, word_bits: int) -> int:
    return _draw(_value_base(seed) + counter, word_bits)


@dataclass(frozen=True)
class WorkloadSpec:
    workload_id: str
    read_pct: int
    update_pct: int
    insert_pct: int
    distribution: str
    op_count: int
    load_count: int
    seed: int

    def __post_init__(self):
        for name in ("read_pct", "update_pct", "insert_pct"):
            pct = getattr(self, name)
            # a bool is an int to Python, but not a percentage
            if type(pct) is not int or not 0 <= pct <= 100:
                raise ConfigError(f"{name} must be an int in 0..100, "
                                  f"not {pct!r}")
        if self.read_pct + self.update_pct + self.insert_pct != 100:
            raise ConfigError("operation mix must sum to 100")
        if self.distribution not in ("zipfian", "latest"):
            raise ConfigError(f"unknown distribution {self.distribution!r}")
        if self.op_count < 0 or self.load_count < 1:
            raise ConfigError("need a positive load and a non-negative op count")

    @classmethod
    def from_table(cls, workload_id: str, op_count: int, load_count: int,
                   seed: int) -> "WorkloadSpec":
        if workload_id not in MIXES:
            raise ConfigError(f"workload must be one of {sorted(MIXES)}")
        r, u, i, dist = MIXES[workload_id]
        return cls(workload_id, r, u, i, dist, op_count, load_count, seed)


class OpStream:
    """Materialized stream: a load phase plus mixed operations, all numpy
    arrays so multi-million-op streams stay cheap. Words wider than 64 bits
    are Python ints in object arrays, so they are stored losslessly."""

    def __init__(self, load_keys, load_values, ops, keys, values):
        self.load_keys = load_keys
        self.load_values = load_values
        self.ops = ops
        self.keys = keys
        self.values = values

    def __len__(self):
        return len(self.ops)

    # tolist gives Python ints, and the object arrays hold ints already
    def iter_load(self):
        return zip(self.load_keys.tolist(), self.load_values.tolist())

    def iter_ops(self):
        return zip(self.ops.tolist(), self.keys.tolist(),
                   self.values.tolist())


def _zipf_cdf(n: int, theta: float) -> list[float]:
    ranks = np.arange(1, n + 1, dtype=np.float64)
    return np.cumsum(ranks ** -theta).tolist()


def generate(spec: WorkloadSpec, word_bits: int = 64) -> OpStream:
    """Build the full deterministic stream for one workload in one pass:
    every key is drawn once, a load key when the load phase is built and
    an inserted key when its insert is drawn."""
    rng = np.random.default_rng(spec.seed)
    n_load, n_ops = spec.load_count, spec.op_count
    # make_key and make_value with the seed hashed once
    key_base, value_base = _key_base(spec.seed), _value_base(spec.seed)
    words = np.uint64 if word_bits <= 64 else object
    keyspace = [_draw(key_base + i, word_bits) for i in range(n_load)]
    load_keys = np.array(keyspace, dtype=words)
    load_values = np.array([_draw(value_base + i, word_bits)
                            for i in range(n_load)], dtype=words)

    ops = np.empty(n_ops, dtype=np.uint8)
    keys = np.empty(n_ops, dtype=words)
    values = np.zeros(n_ops, dtype=words)

    # one cdf sized for the final keyspace; sampling over the current size n
    # rescales into its prefix: bisect over cdf[:n] makes the same float64
    # comparisons as np.searchsorted(cdf[:n], ..., side="right")
    cdf = _zipf_cdf(n_load + n_ops, ZIPF_THETA)
    mix_draw = rng.random(n_ops).tolist()
    rank_draw = rng.random(n_ops).tolist()
    read_cut = spec.read_pct / 100.0
    update_cut = read_cut + spec.update_pct / 100.0
    latest = spec.distribution == "latest"

    counter = n_load                   # next value's draw index
    for i, (d, r) in enumerate(zip(mix_draw, rank_draw)):
        op = (OP_READ if d < read_cut else
              OP_UPDATE if d < update_cut else OP_INSERT)
        ops[i] = op
        n = len(keyspace)
        if op == OP_INSERT:
            key = _draw(key_base + n, word_bits)
            keyspace.append(key)
        else:
            rank = bisect_right(cdf, r * cdf[n - 1], 0, n)
            if rank >= n:
                rank = n - 1
            key = keyspace[n - 1 - rank if latest else rank]
        keys[i] = key
        if op != OP_READ:
            values[i] = _draw(value_base + counter, word_bits)
            counter += 1
    return OpStream(load_keys, load_values, ops, keys, values)
