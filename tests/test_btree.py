"""Counting B-tree baseline and the write-amplification experiment."""

import random

import numpy as np
import pytest

from skrmbetree.btree import (BTree, betree_config_for_capacity,
                              write_count_series)
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


def _leftmost(tree):
    """The leftmost leaf and its parent."""
    parent, node = None, tree.root
    while node.children is not None:
        parent, node = node, node.children[0]
    return node, parent


def _pairs_reversed(tree):
    _leftmost(tree)[0].pairs.reverse()
    return "pairs unsorted"


def _key_at_separator(tree):
    leaf, parent = _leftmost(tree)
    leaf.pairs[-1] = (parent.pairs[0][0], 0)
    return "keys escape their range"


def _leaf_overflow(tree):
    # the leftmost leaf's range is open below
    leaf = _leftmost(tree)[0]
    while len(leaf.pairs) <= tree.capacity:
        leaf.pairs.insert(0, (leaf.pairs[0][0] - 1, 0))
    return "node over capacity"


def _leaf_underfull(tree):
    del _leftmost(tree)[0].pairs[1:]
    return "node underfull"


def _child_lost(tree):
    tree.root.children.pop()
    return "child count mismatch"


def _grandchild_lifted(tree):
    # the leftmost leaf takes its parent's place: its keys stay in range
    tree.root.children[0] = tree.root.children[0].children[0]
    return "leaves at unequal depth"


@pytest.mark.parametrize("corrupt", [
    _pairs_reversed, _key_at_separator, _leaf_overflow, _leaf_underfull,
    _child_lost, _grandchild_lifted], ids=lambda f: f.__name__.strip("_"))
def test_audit_names_each_broken_invariant(corrupt):
    # capacity 4 and 60 keys give three levels
    t = BTree(4)
    for i in range(60):
        t.insert(i * 7919 % 509, i)
    t.audit()
    assert t.root.children[0].children[0].children is None
    message = corrupt(t)
    with pytest.raises(StructureError, match=f"^{message}$"):
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
    row = write_count_series([1], seed=3)[-1]
    assert (row["btree_writes"], row["betree_writes"]) == (1, 1)
    assert row["ratio"] == 1.0


def test_write_count_series_deterministic_and_monotone():
    rows = write_count_series([100, 1000], seed=5)
    again = write_count_series([100, 1000], seed=5)
    assert rows == again
    assert [r["n_inserts"] for r in rows] == [100, 1000]
    assert rows[0]["ratio"] >= 1.0
    assert rows[1]["ratio"] > rows[0]["ratio"]
    for r in rows:
        assert r["ratio"] == r["betree_writes"] / r["btree_writes"]


def test_write_count_series_rows_are_pinned():
    # the write_count_series counts before the bulk pair moves; any change
    # to how a flush or a split moves messages must leave them as they are
    rows = write_count_series([10**3, 10**4], seed=7)
    assert [(r["n_inserts"], r["btree_writes"], r["betree_writes"])
            for r in rows] == [(1000, 1828, 5987), (10000, 18091, 108691)]


def test_write_count_series_rejects_bad_samples():
    with pytest.raises(ConfigError):
        write_count_series([], seed=1)
    with pytest.raises(ConfigError):
        write_count_series([0, 10], seed=1)


@pytest.mark.parametrize("bad", (2.9, 3.0, True, "40", np.float64(2)))
def test_write_count_series_refuses_a_size_that_is_no_int(bad):
    # a size is not rounded, truncated or parsed: 2.9 would be 2 inserts
    # and True one
    with pytest.raises(ConfigError, match="sample size must be an integer"):
        write_count_series([3, bad], seed=1)
    rows = write_count_series([np.int64(3), np.uint8(2)], seed=1)
    assert [r["n_inserts"] for r in rows] == [2, 3]
    assert all(type(r["n_inserts"]) is int for r in rows)
