"""Counting B-tree baseline.

A classic in-memory B-tree (pairs in every node, median promotion on
split) that counts key-value pair writes: one for each placement or
overwrite, one for every pair relocated by a split (the moved half plus
the promoted median). Pivot bookkeeping is not a pair write and is not
counted, on either tree.

The write-count experiment streams identical random inserts through this
tree and through the buffered tree and reports how many times each wrote a
pair. The buffered tree rewrites a pair once per level it trickles
through, so the ratio grows with tree height.
"""

from __future__ import annotations

import bisect

from .betree import BeTree
from .config import TreeConfig
from .errors import ConfigError, StructureError
from .layout import NullStore
from .workload import make_key, make_value


class BTreeNode:
    __slots__ = ("pairs", "children")

    def __init__(self):
        self.pairs: list[tuple[int, int]] = []
        self.children: list["BTreeNode"] | None = None   # None marks a leaf


class BTree:
    def __init__(self, capacity: int = 16):
        if capacity < 4:
            raise ConfigError("node capacity must be >= 4")
        self.capacity = capacity
        self.root = BTreeNode()
        self.kv_writes = 0

    # ---------------------------------------------------------------- insert

    def insert(self, key: int, value: int) -> None:
        split = self._insert(self.root, key, value)
        if split is not None:
            median, right = split
            root = BTreeNode()
            root.pairs = [median]
            root.children = [self.root, right]
            self.root = root

    def _insert(self, node: BTreeNode, key: int, value: int):
        i = bisect.bisect_left(node.pairs, key, key=lambda p: p[0])
        if i < len(node.pairs) and node.pairs[i][0] == key:
            node.pairs[i] = (key, value)
            self.kv_writes += 1
            return None
        if node.children is None:
            node.pairs.insert(i, (key, value))
            self.kv_writes += 1
        else:
            split = self._insert(node.children[i], key, value)
            if split is None:
                return None
            median, right = split
            node.pairs.insert(i, median)
            node.children.insert(i + 1, right)
        if len(node.pairs) <= self.capacity:
            return None
        return self._split(node)

    def _split(self, node: BTreeNode):
        mid = len(node.pairs) // 2
        median = node.pairs[mid]
        right = BTreeNode()
        right.pairs = node.pairs[mid + 1:]
        if node.children is not None:
            right.children = node.children[mid + 1:]
            node.children = node.children[:mid + 1]
        node.pairs = node.pairs[:mid]
        # the moved half plus the promoted median are pair rewrites
        self.kv_writes += len(right.pairs) + 1
        return median, right

    # ----------------------------------------------------------------- query

    def get(self, key: int):
        node = self.root
        while True:
            i = bisect.bisect_left(node.pairs, key, key=lambda p: p[0])
            if i < len(node.pairs) and node.pairs[i][0] == key:
                return node.pairs[i][1]
            if node.children is None:
                return None
            node = node.children[i]

    def __len__(self):
        def count(node):
            n = len(node.pairs)
            if node.children is not None:
                n += sum(count(c) for c in node.children)
            return n
        return count(self.root)

    # ----------------------------------------------------------------- audit

    def audit(self) -> None:
        depths = set()

        # insert takes any int key, so the root's range is open (None) at
        # both ends
        def walk(node, lo, hi, depth, is_root):
            keys = [k for k, _v in node.pairs]
            if keys != sorted(set(keys)):
                raise StructureError("pairs unsorted")
            if keys and ((lo is not None and keys[0] < lo)
                         or (hi is not None and keys[-1] >= hi)):
                raise StructureError("keys escape their range")
            if len(keys) > self.capacity:
                raise StructureError("node over capacity")
            if not is_root and len(keys) < self.capacity // 2:
                raise StructureError("node underfull")
            if node.children is None:
                depths.add(depth)
                return
            if len(node.children) != len(keys) + 1:
                raise StructureError("child count mismatch")
            bounds = [lo] + keys + [hi]
            for child, (clo, chi) in zip(node.children,
                                         zip(bounds, bounds[1:])):
                walk(child, clo, chi, depth + 1, False)

        walk(self.root, None, None, 0, True)
        if len(depths) != 1:
            raise StructureError("leaves at unequal depth")


def betree_config_for_capacity(capacity: int) -> TreeConfig:
    """Buffered-tree shape with the same per-node pair budget, skewed to
    the write-optimized end: most of the node feeds the buffer, so pairs
    descend through many shallow-fanout levels."""
    pivots = max(2, capacity // 8)
    return TreeConfig(node_pairs=capacity, pivot_pairs=pivots,
                      buffer_pairs=capacity - pivots, element_pairs=capacity)


def write_count_series(samples, seed: int, node_capacity: int = 16):
    """Stream one insert sequence through both trees, recording the pair
    write counters at each sampled size. Returns a list of dicts."""
    samples = sorted(set(int(s) for s in samples))
    if not samples or samples[0] < 1:
        raise ConfigError("sample sizes must be >= 1")
    btree = BTree(node_capacity)
    betree = BeTree(NullStore(), betree_config_for_capacity(node_capacity),
                    word_bits=64)
    rows = []
    done = 0
    for target in samples:
        for i in range(done, target):
            key = make_key(seed, i, 64)
            value = make_value(seed, i, 64)
            btree.insert(key, value)
            betree.upsert(key, value)
        done = target
        rows.append({
            "n_inserts": target,
            "btree_writes": btree.kv_writes,
            "betree_writes": betree.kv_writes,
            "ratio": betree.kv_writes / btree.kv_writes,
        })
    return rows


def write_count_experiment(n_inserts: int, seed: int,
                           node_capacity: int = 16):
    """(btree_writes, betree_writes, ratio) after n identical inserts."""
    row = write_count_series([n_inserts], seed, node_capacity)[-1]
    return row["btree_writes"], row["betree_writes"], row["ratio"]
