"""YCSB-style operation streams.

Six canonical mixes (a-f). Each stream is a load phase of uniform-random
inserts followed by an operation phase drawn from the mix. Keys are hashed
sequence numbers so that every word is a dense random bit pattern; popular
ranks map to insertion order (the first loaded key is the hottest).

Zipfian sampling uses the standard 0.99 exponent. The `latest` distribution
draws a zipf rank and counts it back from the most recent insert.
"""

from __future__ import annotations

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
OP_NAMES = ("read", "update", "insert")


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


def make_key(seed: int, index: int, word_bits: int) -> int:
    return _draw(splitmix64(seed) + index, word_bits)


def make_value(seed: int, counter: int, word_bits: int) -> int:
    return _draw(splitmix64(~seed & MASK64) + counter, word_bits)


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

    def iter_load(self):
        for k, v in zip(self.load_keys.tolist(), self.load_values.tolist()):
            yield int(k), int(v)

    def iter_ops(self):
        for op, k, v in zip(self.ops.tolist(), self.keys.tolist(),
                            self.values.tolist()):
            yield op, int(k), int(v)


def zipf_head_probability(n: int, theta: float = ZIPF_THETA) -> float:
    """Analytic probability of the most popular rank under zipf(theta)."""
    ranks = np.arange(1, n + 1, dtype=np.float64)
    return float(1.0 / np.sum(ranks ** -theta))


def _zipf_cdf(n: int, theta: float) -> np.ndarray:
    ranks = np.arange(1, n + 1, dtype=np.float64)
    return np.cumsum(ranks ** -theta)


def generate(spec: WorkloadSpec, word_bits: int = 64) -> OpStream:
    """Build the full deterministic stream for one workload."""
    rng = np.random.default_rng(spec.seed)
    n_load = spec.load_count
    words = np.uint64 if word_bits <= 64 else object
    load_keys = np.array([make_key(spec.seed, i, word_bits)
                          for i in range(n_load)], dtype=words)
    load_values = np.array([make_value(spec.seed, i, word_bits)
                            for i in range(n_load)], dtype=words)

    n_ops = spec.op_count
    ops = np.empty(n_ops, dtype=np.uint8)
    keys = np.empty(n_ops, dtype=words)
    values = np.zeros(n_ops, dtype=words)

    # one cdf sized for the final keyspace; sampling over the current size n
    # just rescales into its prefix
    max_n = n_load + n_ops
    cdf = _zipf_cdf(max_n, ZIPF_THETA)

    mix_draw = rng.random(n_ops)
    rank_draw = rng.random(n_ops)
    read_cut = spec.read_pct / 100.0
    update_cut = read_cut + spec.update_pct / 100.0

    key_index: list[int] = []          # op -> keyspace index, filled below
    n_current = n_load
    n_inserts = 0
    n_updates = 0
    for i in range(n_ops):
        d = mix_draw[i]
        if d < read_cut:
            op = OP_READ
        elif d < update_cut:
            op = OP_UPDATE
        else:
            op = OP_INSERT
        ops[i] = op
        if op == OP_INSERT:
            key_index.append(n_current)
            values[i] = make_value(spec.seed, n_load + n_inserts + n_updates,
                                   word_bits)
            n_current += 1
            n_inserts += 1
            continue
        rank = int(np.searchsorted(cdf[:n_current],
                                   rank_draw[i] * cdf[n_current - 1],
                                   side="right"))
        if rank >= n_current:
            rank = n_current - 1
        if spec.distribution == "latest":
            idx = n_current - 1 - rank
        else:
            idx = rank
        key_index.append(idx)
        if op == OP_UPDATE:
            values[i] = make_value(spec.seed, n_load + n_inserts + n_updates,
                                   word_bits)
            n_updates += 1
    for i, idx in enumerate(key_index):
        keys[i] = make_key(spec.seed, idx, word_bits)
    return OpStream(load_keys, load_values, ops, keys, values)
