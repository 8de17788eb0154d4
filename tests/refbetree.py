"""The buffered tree with per-message pair moves: the flush-path reference.

`BeTree` makes each level of a flush cascade one lean pass: one key set of
the run decides whether the dedupe walk and the shadow-kill walk run, and
each runs only when it drops something; `held_mask` checks a batch's slots
in one loop; `_hand_over` frees a batch leaving a node with one mask, hands
out the destination's lowest free slots in one loop over ints and merges
the batch into the destination's buffer in place by a stable key sort;
`_release` frees the drops of a walk with one mask; and a NullStore tree
builds no moved-pair writes. `RefBeTree` keeps the per-message form they
replaced, with its own recursive `_flush`, `_dedupe_batch`,
`_shadow_kill_in_child`, `_hand_over` and `_release`: each message gives
its slot back and takes the lowest free one, the child buffer is sorted by
(key, seq), the dedupe and the shadow kill always walk their runs, the
re-pick after a child flush tests a dedupe drop on its own, and every
moved pair's write goes to the store. Flushes, splits and drops all take
these paths, so a test that replays one stream through both trees holds
the lean path to exactly the slots, orders, masks and counts of this one.
"""

import bisect
from operator import attrgetter

from skrmbetree.betree import BeTree
from skrmbetree.errors import StructureError
from skrmbetree.layout import KIND_INTERNAL

_KEY = attrgetter("key")
_ORDER = attrgetter("key", "seq")


def give_slot(node, slot):
    """Return one buffer slot to `node`'s pool."""
    if slot < 0 or not node.span >> slot & 1:
        raise StructureError(f"node {node.node_id} has no buffer slot {slot}")
    bit = 1 << slot
    if node._free & bit:
        raise StructureError(f"slot {slot} freed twice")
    node._free |= bit


class RefBeTree(BeTree):

    def _move(self, msgs, src, dst):
        for m in msgs:
            give_slot(src, m.slot)
            m.slot = dst.take_slot()

    def _release(self, node, msgs):
        for m in msgs:
            give_slot(node, m.slot)
            if self.arena is not None:
                self.arena.free(m.payload)

    def _hand_over(self, src, lo, hi, dst=None, writes=()):
        batch = src.buffer[lo:hi]
        src.splice(lo, hi)
        if dst is None:
            for m in batch:
                give_slot(src, m.slot)
            return batch
        self._move(batch, src, dst)
        dst.splice(0, len(dst.buffer), sorted(dst.buffer + batch, key=_ORDER))
        self.store.write_pairs(dst.node_id,
                               [*writes, *self._slot_writes(batch)])
        self.kv_writes += len(batch)
        return batch

    def _dedupe_batch(self, node, lo, hi):
        run = node.buffer[lo:hi]
        survivors = []
        for m in run:
            if survivors and survivors[-1].key == m.key:
                self._release(node, [survivors.pop()])
            survivors.append(m)
        if len(survivors) < len(run):
            node.splice(lo, hi, survivors)
        return survivors

    def _shadow_kill_in_child(self, child, batch):
        buf = child.buffer
        if not buf:
            return
        dead = []
        i, n = 0, len(buf)
        for m in batch:
            key = m.key
            while i < n and buf[i].key < key:
                i += 1
            while i < n and buf[i].key == key:
                if buf[i].seq >= m.seq:
                    raise StructureError(
                        "message order inverted between levels")
                dead.append(buf[i])
                i += 1
            if i == n:
                break
        if dead:
            gone = set(map(id, dead))
            child.splice(0, n, [m for m in buf if id(m) not in gone])
            for old in dead:
                self._release(child, [old])

    def _flush(self, node):
        if not node.buffer:
            raise StructureError(
                f"node {node.node_id} has no free slot and nothing to flush")
        while node.buffer:
            buf = node.buffer
            pivots = node.pivots
            ci = lo = hi = start = 0
            for i in range(1, len(pivots)):
                end = bisect.bisect_left(buf, pivots[i][0], start, key=_KEY)
                if end - start > hi - lo:
                    ci, lo, hi = i - 1, start, end
                start = end
            if len(buf) - start > hi - lo:
                ci, lo, hi = len(pivots) - 1, start, len(buf)
            batch = self._dedupe_batch(node, lo, hi)
            child = self.nodes[pivots[ci][1]]
            if child.kind == KIND_INTERNAL:
                self._shadow_kill_in_child(child, batch)
                if child._free.bit_count() < len(batch):
                    before, size = list(pivots), len(node.buffer)
                    self._flush(child)
                    if len(batch) < hi - lo:
                        continue
                    while (node.pivots == before and len(node.buffer) == size
                           and child._free.bit_count() < len(batch)):
                        self._flush(child)
                    if node.pivots != before or len(node.buffer) != size:
                        continue
            if child.kind == KIND_INTERNAL:
                self._hand_over(node, lo, lo + len(batch), child)
            else:
                arrivals = []
                for m in self._hand_over(node, lo, lo + len(batch)):
                    if self.arena is not None:
                        value = self.store.arena_read(
                            m.payload, self.word_bits,
                            expect=self.arena.values[m.payload])
                        self.arena.free(m.payload)
                    else:
                        value = m.payload
                    arrivals.append((m.key, value))
                self._leaf_merge(child, arrivals)
            return
