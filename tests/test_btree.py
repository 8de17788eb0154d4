"""Counting B-tree baseline and the write-amplification experiment."""

import random

import pytest

from skrmbetree.btree import (BTree, betree_config_for_capacity,
                              write_count_experiment, write_count_series)
from skrmbetree.errors import ConfigError, StructureError


def test_single_insert_counts_one_write():
    t = BTree(4)
    t.insert(10, 1)
    assert t.kv_writes == 1
    assert t.get(10) == 1


def test_overwrite_counts_and_replaces():
    t = BTree(4)
    t.insert(10, 1)
    t.insert(10, 2)
    assert t.get(10) == 2
    assert len(t) == 1
    assert t.kv_writes == 2


def test_split_relocation_count_oracle():
    # capacity 4: the fifth ascending insert splits the root; mid = 2, so
    # two pairs move right and the median is promoted: 1 + 3 writes
    t = BTree(4)
    for k in range(1, 5):
        t.insert(k, k)
    before = t.kv_writes
    t.insert(5, 5)
    assert t.kv_writes - before == 1 + 3
    t.audit()


def test_oracle_equivalence_and_audit():
    rng = random.Random(4)
    t = BTree(16)
    shadow = {}
    for _ in range(5000):
        k = rng.randrange(1200)    # narrow keyspace forces overwrites
        v = rng.randrange(1 << 32)
        t.insert(k, v)
        shadow[k] = v
    t.audit()
    assert len(t) == len(shadow)
    for k, v in shadow.items():
        assert t.get(k) == v
    assert t.get(999_999) is None


def test_audit_accepts_keys_past_64_bits():
    # insert takes any int key; the root's range must not cap it at 2^64
    t = BTree(4)
    keys = [1 << 70, 3, -5, (1 << 64) + 1, 1 << 64, 7, 1 << 90]
    for k in keys:
        t.insert(k, k)
    t.audit()
    assert all(t.get(k) == k for k in keys)
    # a child key equal to its upper separator still fails the audit
    t.root.children[0].pairs[-1] = (t.root.pairs[0][0], 0)
    with pytest.raises(StructureError):
        t.audit()


def test_capacity_floor():
    with pytest.raises(ConfigError):
        BTree(3)


def test_betree_config_for_capacity_shape():
    cfg = betree_config_for_capacity(16)
    assert cfg.node_pairs == 16
    assert cfg.pivot_pairs + cfg.buffer_pairs == 16
    assert cfg.pivot_pairs < cfg.buffer_pairs


def test_write_count_experiment_n1_ratio_one():
    b, be, ratio = write_count_experiment(1, seed=3)
    assert (b, be) == (1, 1)
    assert ratio == 1.0


def test_write_count_series_deterministic_and_monotone():
    rows = write_count_series([100, 1000], seed=5)
    again = write_count_series([100, 1000], seed=5)
    assert rows == again
    assert [r["n_inserts"] for r in rows] == [100, 1000]
    assert rows[0]["ratio"] >= 1.0
    assert rows[1]["ratio"] > rows[0]["ratio"]
    for r in rows:
        assert r["ratio"] == r["betree_writes"] / r["btree_writes"]


def test_write_count_series_rejects_bad_samples():
    with pytest.raises(ConfigError):
        write_count_series([], seed=1)
    with pytest.raises(ConfigError):
        write_count_series([0, 10], seed=1)
