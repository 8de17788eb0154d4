"""Write-optimized key-value tree with buffered messages.

Internal nodes hold a few pivots plus a buffer of pending upserts; inserts
land in the root buffer and trickle down in batches, so each key-value pair
is written once per level instead of once per probe. When a buffer is full
the child owed the most messages receives them all as one batch, which is
what makes the batched compare write on the device worthwhile.

Two independent device optimizations hang off the config:

encoding
    Buffer payload words hold short indices into a value arena instead of
    full values. The value is spilled to the arena once at upsert time and
    rejoined when its message reaches a leaf, so every hop in between moves
    ceil(log2(arena_capacity)) bits instead of a full word.

parallel_ports
    Batches are written through all ports of a node in one shared pass.

Shadowed messages (an older upsert overtaken by a newer one for the same
key) are dropped the moment a flush or merge sees both; dropping is free,
the slot and arena index are simply reused.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from operator import attrgetter, itemgetter

from .config import index_bits_for
from .errors import (ArenaFullError, ConfigError, StructureError)
from .layout import KIND_INTERNAL, KIND_LEAF


class ValueArena:
    """Fixed pool of value slots addressed by short indices.

    Holds a logical mirror of every live slot so the device image can be
    cross-checked. Freed indices are reused LIFO; allocation past capacity
    raises rather than silently widening the index.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ConfigError("arena capacity must be >= 1")
        self.capacity = capacity
        self.index_bits = index_bits_for(capacity)
        self.values: dict[int, int] = {}
        self._free: list[int] = []
        self._next = 0
        self.high_water = 0

    @property
    def occupancy(self) -> int:
        return len(self.values)

    def alloc(self, value: int) -> int:
        if self._free:
            idx = self._free.pop()
        elif self._next < self.capacity:
            idx = self._next
            self._next += 1
        else:
            raise ArenaFullError(
                f"all {self.capacity} arena slots hold in-flight values")
        values = self.values
        values[idx] = value
        if len(values) > self.high_water:
            self.high_water = len(values)
        return idx

    def free(self, idx: int) -> None:
        if idx not in self.values:
            raise StructureError(f"arena slot {idx} is not live")
        del self.values[idx]
        self._free.append(idx)


@dataclass(slots=True)
class Message:
    """One buffered upsert: payload is the value itself, or its arena index
    when encoding is on. slot is the pair slot it occupies on the device."""
    key: int
    payload: int
    seq: int
    slot: int


_KEY = attrgetter("key")
_ORDER = attrgetter("key", "seq")
_SEQ = attrgetter("seq")
_FIRST = itemgetter(0)


class LeafNode:
    kind = KIND_LEAF

    def __init__(self, node_id: int):
        self.node_id = node_id
        self.parent: int | None = None
        self.elements: list[tuple[int, int]] = []   # (key, value) sorted


class InternalNode:
    kind = KIND_INTERNAL

    def __init__(self, node_id: int, pivot_pairs: int, node_pairs: int):
        self.node_id = node_id
        self.parent: int | None = None
        self.pivots: list[tuple[int, int]] = []     # (key, child_id) sorted
        self.buffer: list[Message] = []             # sorted by (key, seq)
        # newest-first (slots, keys, messages) of the buffer, built by the
        # first scan after a change; None until then
        self.scan_order: tuple[list, list, list] | None = None
        # bit s set: s is a buffer slot
        self.span = (1 << node_pairs) - (1 << pivot_pairs)
        # bit s set: buffer slot s is free
        self._free = self.span

    def splice(self, lo: int, hi: int, msgs=()) -> None:
        """Replace buffer[lo:hi] with msgs and drop the scan order. Besides
        `BeTree._hand_over`, which drops it itself, every other change to
        the buffer's messages goes through here, so the scan order never
        outlives one."""
        self.buffer[lo:hi] = msgs
        self.scan_order = None

    def take_slot(self) -> int:
        """The lowest free buffer slot."""
        free = self._free
        if not free:
            raise StructureError(f"node {self.node_id} has no free slot")
        low = free & -free
        self._free = free ^ low
        return low.bit_length() - 1

    def held_mask(self, msgs: list) -> int:
        """The mask of the buffer slots `msgs` hold, one each, built in one
        loop over the messages. Changes nothing; refuses a slot outside the
        buffer span, a free one, or one that two of the messages share."""
        mask = 0
        try:
            for m in msgs:
                mask |= 1 << m.slot
        except ValueError:
            # a negative shift count: the lowest slot is below the span
            raise StructureError(f"node {self.node_id} has no buffer slot "
                                 f"{min(m.slot for m in msgs)}") from None
        if mask & ~self.span:
            raise StructureError(f"node {self.node_id} has no buffer slot "
                                 f"{(mask & ~self.span).bit_length() - 1}")
        if mask & self._free:
            raise StructureError(
                f"node {self.node_id} slot "
                f"{(mask & self._free).bit_length() - 1} is already free")
        if mask.bit_count() != len(msgs):
            raise StructureError(
                f"node {self.node_id} holds two messages in one slot")
        return mask


class BeTree:
    """The tree proper. All device traffic goes through `store`; pass a
    NullStore for pure structure work."""

    def __init__(self, store, cfg, word_bits: int,
                 planned_upserts: int | None = None):
        self.store = store
        self.cfg = cfg
        self.word_bits = word_bits
        self.arena = (ValueArena(cfg.arena_slots(planned_upserts or 0,
                                                  word_bits))
                      if cfg.encoding else None)
        self.nodes: dict[int, LeafNode | InternalNode] = {}
        self._next_node = 0
        self.seq = 0
        self.kv_writes = 0      # pair placements plus inter-node moves
        self.height = 1
        self.root_id = self._new_node(KIND_LEAF, None).node_id

    # -------------------------------------------------------------- plumbing

    @property
    def payload_width(self) -> int:
        return self.arena.index_bits if self.arena else self.word_bits

    def _new_node(self, kind: str, parent: int | None):
        nid = self._next_node
        self._next_node += 1
        if kind == KIND_LEAF:
            node = LeafNode(nid)
        else:
            node = InternalNode(nid, self.cfg.pivot_pairs, self.cfg.node_pairs)
        node.parent = parent
        self.nodes[nid] = node
        self.store.add_node(nid, kind)
        return node

    def _check_word(self, value: int, what: str) -> None:
        if not (0 <= value < (1 << self.word_bits)):
            raise ConfigError(f"{what} does not fit in {self.word_bits} bits")

    def _pair_writes(self, old, new) -> list:
        """The pair writes that turn the (key, word) list `old` into `new`,
        slot by slot: one per pair that changed, with None for the word of
        it that did not. Pair i of either list sits in pair slot i."""
        writes = []
        for i, (k, v) in enumerate(new):
            ok, ov = old[i] if i < len(old) else (None, None)
            kw = k if ok != k else None
            vw = v if ov != v else None
            if kw is not None or vw is not None:
                writes.append((i, kw, vw, self.word_bits))
        return writes

    def _slot_writes(self, msgs) -> list:
        """The pair writes that put `msgs` in their slots."""
        width = self.payload_width
        return [(m.slot, m.key, m.payload, width) for m in msgs]

    def _hand_over(self, src: InternalNode, lo: int, hi: int, dst=None,
                   writes=()) -> list:
        """Take the batch `src.buffer[lo:hi]` out of `src`, freeing its
        slots with one OR, and return it. With `dst` the batch takes dst's
        lowest free slots in message order, merges into its buffer in place
        and is written there after `writes`. A batch that `src` does not
        hold one slot per message, or that `dst` has no room for, is refused
        before anything changes. Both buffers change in place, and both drop
        their scan orders."""
        batch = src.buffer[lo:hi]
        freed = src.held_mask(batch)
        if dst is not None:
            free = dst._free
            if free.bit_count() < len(batch):
                raise StructureError(
                    f"node {dst.node_id} has {free.bit_count()} free slots "
                    f"for {len(batch)} messages")
        del src.buffer[lo:hi]
        src.scan_order = None
        src._free |= freed
        if dst is None:
            return batch
        for m in batch:
            low = free & -free
            free ^= low
            m.slot = low.bit_length() - 1
        dst._free = free
        self.kv_writes += len(batch)
        # two sorted runs, and no batch key is left in dst: a stable key
        # sort keeps dst's own ties in seq order, and merges in linear time
        dst.buffer += batch
        dst.buffer.sort(key=_KEY)
        dst.scan_order = None
        # on NullStore the moved pairs' writes would be thrown away
        if self.store.has_device:
            writes = [*writes, *self._slot_writes(batch)]
        if writes:
            self.store.write_pairs(dst.node_id, writes)
        return batch

    def _release(self, node: InternalNode, msgs) -> None:
        # shadowed upserts die in place: no device traffic, the slots and
        # arena indices just return to their pools
        freed = node.held_mask(msgs)
        if self.arena is not None:
            for m in msgs:
                self.arena.free(m.payload)
        node._free |= freed

    # ---------------------------------------------------------------- upsert

    def upsert(self, key: int, value: int) -> None:
        """Drop one message into the root buffer, flushing the root first
        while it has no free slot. The new message is newer than every
        buffered one, so it goes right after the last message of its key:
        the buffer stays (key, seq)-sorted. A key or value that does not
        fit in word_bits is refused before anything changes."""
        wb = self.word_bits
        if not 0 <= key < 1 << wb:
            raise ConfigError(f"key does not fit in {wb} bits")
        if not 0 <= value < 1 << wb:
            raise ConfigError(f"value does not fit in {wb} bits")
        self.seq += 1
        root = self.nodes[self.root_id]
        if root.kind == KIND_LEAF:
            self._leaf_merge(root, [(key, value)])
            return
        store, arena = self.store, self.arena
        if arena is not None:
            payload = arena.alloc(value)
            store.arena_write(payload, value, wb)
            width = arena.index_bits
        else:
            payload, width = value, wb
        while not root._free:
            self._flush(root)
            root = self.nodes[self.root_id]
        slot = root.take_slot()
        at = bisect.bisect_right(root.buffer, key, key=_KEY)
        root.splice(at, at, [Message(key, payload, self.seq, slot)])
        # on NullStore the pair's write would be thrown away
        if store.has_device:
            store.write_pairs(root.node_id, [(slot, key, payload, width)])
        self.kv_writes += 1

    # ---------------------------------------------------------------- flush

    def _flush(self, node: InternalNode) -> None:
        """Move the largest same-child batch of buffered messages one level
        down (or into the leaf), possibly recursing to make room. Each
        level is one pass: the run is found with one bisect per pivot, and
        one key set of it decides whether the dedupe walk and whether the
        shadow-kill walk run; each runs only when it will drop something."""
        if not node.buffer:
            # a node is flushed for lack of free slots, which a sound slot
            # pool never reports for an empty buffer; looping would hang
            raise StructureError(
                f"node {node.node_id} has no free slot and nothing to flush")
        while node.buffer:
            # the buffer is key-sorted and pivot 0 anchors the node's key
            # range, so child i's messages are the run between the first
            # keys at or above pivots i and i + 1; the first largest run wins
            buf = node.buffer
            pivots = node.pivots
            ci = lo = hi = start = 0
            for i in range(1, len(pivots)):
                end = bisect.bisect_left(buf, pivots[i][0], start, key=_KEY)
                if end - start > hi - lo:
                    ci, lo, hi = i - 1, start, end
                start = end
            size = len(buf)
            if size - start > hi - lo:
                ci, lo, hi = len(pivots) - 1, start, size
            batch = buf[lo:hi]
            keys = set(map(_KEY, batch))
            if len(keys) < len(batch):
                batch = self._dedupe_batch(node, lo, hi)
                hi = lo + len(batch)
            child = self.nodes[pivots[ci][1]]
            if child.kind == KIND_LEAF:
                arrivals = []
                for m in self._hand_over(node, lo, hi):
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
            if not keys.isdisjoint(map(_KEY, child.buffer)):
                self._shadow_kill_in_child(child, batch)
            if child._free.bit_count() < len(batch):
                # the choice stands while the runs that made it do. A
                # dedupe drop shortens this buffer, and a split of this
                # node shows in its pivots' content or its buffer (the
                # slack rule can keep the pivots); after either, pick again
                # once the child has been flushed
                before = pivots.copy()
                self._flush(child)
                while (len(node.buffer) == size and node.pivots == before
                       and child._free.bit_count() < len(batch)):
                    self._flush(child)
                if len(node.buffer) != size or node.pivots != before:
                    continue
            self._hand_over(node, lo, hi, child)
            return

    def _dedupe_batch(self, node: InternalNode, lo: int, hi: int):
        # buffer[lo:hi] is (key, seq)-sorted and repeats a key; only the
        # newest of each key survives, and the survivors stay in place as
        # buffer[lo:lo + n]
        survivors, dropped = [], []
        for m in node.buffer[lo:hi]:
            if survivors and survivors[-1].key == m.key:
                dropped.append(survivors.pop())
            survivors.append(m)
        self._release(node, dropped)
        node.splice(lo, hi, survivors)
        return survivors

    def _shadow_kill_in_child(self, child: InternalNode, batch) -> None:
        # both runs are key-sorted, the batch holds one message per key and
        # shares a key with the child, so one walk in step finds every
        # child message the batch overtakes
        buf = child.buffer
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
        # by identity: Message equality compares every field
        gone = set(map(id, dead))
        self._release(child, dead)
        child.splice(0, n, [m for m in buf if id(m) not in gone])

    # ------------------------------------------------------------ leaf merge

    def _leaf_merge(self, leaf: LeafNode, arrivals) -> None:
        """Fold arrived (key, value) pairs into a leaf, splitting as needed.
        Arrivals are key-sorted with at most one entry per key (dedupe
        happened upstream); an arrival replaces the leaf's pair for its key.
        """
        old = leaf.elements
        # one merge walk of the two key-sorted runs; `arrived` holds each
        # arrival's index in the merged list, so every other pair is an old
        # one that stayed
        merged, arrived = [], []
        i, n = 0, len(old)
        for pair in arrivals:
            j = bisect.bisect_left(old, pair[0], i, n, key=_FIRST)
            merged += old[i:j]
            if j < n and old[j][0] == pair[0]:
                j += 1
            arrived.append(len(merged))
            merged.append(pair)
            i = j
        merged += old[i:]
        self.kv_writes += len(arrivals)
        cap = self.cfg.element_pairs
        n_chunks = max(1, -(-len(merged) // cap))
        base, extra = divmod(len(merged), n_chunks)
        bounds = [0]
        for c in range(n_chunks):
            bounds.append(bounds[-1] + base + (c < extra))
        leaf.elements = merged[:bounds[1]]
        self.store.write_pairs(leaf.node_id,
                               self._pair_writes(old, leaf.elements))
        # each chunk's pivot goes beside its left neighbour's: an earlier
        # pivot may have split the parent, leaving the old leaf in a node
        # whose key range ends below this chunk
        left = leaf
        done = bisect.bisect_left(arrived, bounds[1])
        for lo, hi in zip(bounds[1:], bounds[2:]):
            chunk = merged[lo:hi]
            sibling = self._new_node(KIND_LEAF, left.parent)
            sibling.elements = chunk
            self.store.write_pairs(sibling.node_id, self._pair_writes([], chunk))
            # the old pairs that stayed are moved into the sibling
            upto = bisect.bisect_left(arrived, hi, done)
            self.kv_writes += (hi - lo) - (upto - done)
            done = upto
            self._on_split(left, chunk[0][0], sibling)
            left = sibling

    # ---------------------------------------------------------------- splits

    def _on_split(self, child, sep: int, sibling) -> None:
        if child.parent is None:
            root = self._new_node(KIND_INTERNAL, None)
            root.pivots = [(0, child.node_id), (sep, sibling.node_id)]
            child.parent = sibling.parent = root.node_id
            self.root_id = root.node_id
            self.height += 1
            self.store.write_pairs(root.node_id,
                                   self._pair_writes([], root.pivots))
        else:
            self._add_pivot(self.nodes[child.parent], sep, sibling)

    def _add_pivot(self, node: InternalNode, sep: int, new_child) -> None:
        new_child.parent = node.node_id
        old_pivots = list(node.pivots)
        bisect.insort(node.pivots, (sep, new_child.node_id), key=_FIRST)
        if len(node.pivots) <= self.cfg.pivot_pairs:
            self.store.write_pairs(node.node_id,
                                   self._pair_writes(old_pivots, node.pivots))
            return
        mid = len(node.pivots) // 2
        # with two-pivot nodes the upper piece of a midpoint split comes
        # out full; an ascending run would then re-split it on every leaf
        # split and drag the cascade to the root each time, growing the
        # height linearly. When the new pivot is the topmost one, hand
        # the upper piece the slack instead.
        pos = node.pivots.index((sep, new_child.node_id))
        if (pos == len(node.pivots) - 1
                and len(node.pivots) - mid >= self.cfg.pivot_pairs):
            mid += 1
        sep2 = node.pivots[mid][0]
        sibling = self._new_node(KIND_INTERNAL, node.parent)
        sibling.pivots = node.pivots[mid:]
        node.pivots = node.pivots[:mid]
        for _k, cid in sibling.pivots:
            self.nodes[cid].parent = sibling.node_id
        # keys at or above sep2 are a suffix of the key-sorted buffer
        cut = bisect.bisect_left(node.buffer, sep2, key=_KEY)
        self._hand_over(node, cut, len(node.buffer), sibling,
                        self._pair_writes([], sibling.pivots))
        self.store.write_pairs(node.node_id,
                               self._pair_writes(old_pivots, node.pivots))
        self._on_split(node, sep2, sibling)

    # ----------------------------------------------------------------- query

    def query(self, key: int):
        """The live value of `key`, or None. Every internal node on the
        path is one pass: the tree knows its own keys, so it lists each key
        read its search makes and hands them, with the payload read the
        search ends on and the words it expects, to the store as one
        `scan_keys`. The device reads and bills every listed word; the
        store compares them with the tree's and raises StructureError on
        the first that differs, so the tree's keys decide the search. At
        the leaf the value read is a `read_payload` of its own: the value
        a query returns is what the store's value read returns."""
        self._check_word(key, "key")
        store = self.store
        device = store.has_device
        node = self.nodes[self.root_id]
        while node.kind == KIND_INTERNAL:
            nid = node.node_id
            order = node.scan_order
            if order is None:
                newest = sorted(node.buffer, key=_SEQ, reverse=True)
                order = node.scan_order = ([m.slot for m in newest],
                                           [m.key for m in newest], newest)
            slots, keys, newest = order
            # newest first, so the first hit is the live version
            if key in keys:
                i = keys.index(key)
                hit = newest[i]
                payload = hit.payload
                if device:
                    expect = keys[:i + 1]
                    expect.append(payload)
                    payload = store.scan_keys(
                        nid, slots[:i + 1], expect,
                        (hit.slot, self.payload_width))[-1]
                if self.arena is not None:
                    return store.arena_read(payload, self.word_bits,
                                            expect=self.arena.values[payload])
                return payload
            # a miss reads the whole buffer, then the pivot probes
            pivots = node.pivots
            lo, hi = 0, len(pivots)
            probes, probe_keys = [], []
            while hi - lo > 1:
                mid = (lo + hi) // 2
                pivot = pivots[mid][0]
                probes.append(mid)
                probe_keys.append(pivot)
                if pivot <= key:
                    lo = mid
                else:
                    hi = mid
            child = pivots[lo][1]
            if device:
                child = store.scan_keys(nid, slots + probes,
                                        [*keys, *probe_keys, child],
                                        (lo, self.word_bits))[-1]
            node = self.nodes[child]
        elements = node.elements
        lo, hi = 0, len(elements)
        probes, probe_keys = [], []
        hit = None
        while lo < hi:
            mid = (lo + hi) // 2
            k = elements[mid][0]
            probes.append(mid)
            probe_keys.append(k)
            if k == key:
                hit = mid
                break
            if k < key:
                lo = mid + 1
            else:
                hi = mid
        if device:
            store.scan_keys(node.node_id, probes, probe_keys)
        if hit is None:
            return None
        return store.read_payload(node.node_id, hit, self.word_bits,
                                  expect=elements[hit][1])

    # ------------------------------------------------------------- housekeeping

    def flush_all(self) -> None:
        """Push every buffered message down to its leaf. Afterwards the
        arena is empty and queries never stop early."""
        while True:
            # ids are handed out in order and nodes never go away, so the
            # dict is already in id order
            pending = [nid for nid, n in self.nodes.items()
                       if n.kind == KIND_INTERNAL and n.buffer]
            if not pending:
                return
            for nid in pending:
                node = self.nodes[nid]
                while node.buffer:
                    self._flush(node)

    def stats(self) -> dict:
        leaves = sum(1 for n in self.nodes.values() if n.kind == KIND_LEAF)
        buffered = sum(len(n.buffer) for n in self.nodes.values()
                       if n.kind == KIND_INTERNAL)
        out = {"nodes": len(self.nodes), "leaves": leaves,
               "height": self.height, "buffered": buffered,
               "kv_writes": self.kv_writes}
        if self.arena is not None:
            out["arena_occupancy"] = self.arena.occupancy
            out["arena_high_water"] = self.arena.high_water
        return out

    # ----------------------------------------------------------------- audit

    def audit(self) -> None:
        """Full structural check; raises StructureError on the first
        violation. With a device-backed store also cross-checks every
        occupied slot and arena cell against the logical state."""
        seen: set[int] = set()
        live_arena: set[int] = set()
        self._audit_node(self.root_id, None, 0, 1 << self.word_bits,
                         seen, live_arena)
        if seen != set(self.nodes):
            raise StructureError("unreachable nodes exist")
        if self.arena is not None:
            if live_arena != set(self.arena.values):
                raise StructureError("arena live set out of sync with buffers")
            if self.arena.occupancy > self.arena.capacity:
                raise StructureError("arena over capacity")
            if self.store.has_device:
                for idx, value in self.arena.values.items():
                    got = self.store.peek_arena(idx, self.word_bits)
                    if got != value:
                        raise StructureError(
                            f"arena slot {idx} holds {got:#x} not {value:#x}")

    def _audit_node(self, nid, parent, lo, hi, seen, live_arena):
        if nid in seen:
            raise StructureError(f"node {nid} reached twice")
        seen.add(nid)
        node = self.nodes[nid]
        if node.parent != parent:
            raise StructureError(f"node {nid} parent pointer wrong")
        if node.kind == KIND_LEAF:
            self._audit_leaf(node, lo, hi)
            return
        piv = node.pivots
        if not piv:
            raise StructureError(f"internal node {nid} has no pivots")
        if nid != self.root_id and self.cfg.pivot_pairs >= 3 and len(piv) < 2:
            raise StructureError(f"internal node {nid} underfull")
        if len(piv) > self.cfg.pivot_pairs:
            raise StructureError(f"internal node {nid} pivot overflow")
        keys = [k for k, _c in piv]
        if keys != sorted(set(keys)):
            raise StructureError(f"node {nid} pivots unsorted")
        if not (lo <= keys[0] and keys[-1] < hi):
            raise StructureError(f"node {nid} pivots out of range")
        if len(node.buffer) > self.cfg.buffer_pairs:
            raise StructureError(f"node {nid} buffer overflow")
        order = [_ORDER(m) for m in node.buffer]
        if order != sorted(order):
            raise StructureError(f"node {nid} buffer unsorted")
        free = node._free
        if free & ~node.span:
            raise StructureError(f"node {nid} frees a slot outside its buffer")
        # the messages hold distinct, non-free slots of the span, and with
        # the free ones they cover it
        if node.held_mask(node.buffer) | free != node.span:
            raise StructureError(f"node {nid} slot bookkeeping leaks")
        for m in node.buffer:
            if not (lo <= m.key < hi):
                raise StructureError(f"node {nid} buffers a foreign key")
            if self.arena is not None:
                if m.payload in live_arena:
                    raise StructureError("arena index shared by two messages")
                if m.payload not in self.arena.values:
                    raise StructureError("message points at a dead arena slot")
                live_arena.add(m.payload)
        if self.store.has_device:
            for i, (k, cid) in enumerate(piv):
                got = self.store.peek_pair(nid, i, self.word_bits)
                if got != (k, cid):
                    raise StructureError(
                        f"node {nid} pivot {i} device mismatch")
            for m in node.buffer:
                got = self.store.peek_pair(nid, m.slot, self.payload_width)
                if got != (m.key, m.payload):
                    raise StructureError(
                        f"node {nid} slot {m.slot} device mismatch")
        bounds = keys[1:] + [hi]
        for (k, cid), nxt in zip(piv, bounds):
            self._audit_node(cid, nid, k, nxt, seen, live_arena)

    def _audit_leaf(self, leaf: LeafNode, lo, hi) -> None:
        nid = leaf.node_id
        keys = [k for k, _v in leaf.elements]
        if keys != sorted(set(keys)):
            raise StructureError(f"leaf {nid} unsorted or duplicated")
        if len(keys) > self.cfg.element_pairs:
            raise StructureError(f"leaf {nid} over capacity")
        if keys and not (lo <= keys[0] and keys[-1] < hi):
            raise StructureError(f"leaf {nid} keys out of range")
        if (nid != self.root_id
                and len(keys) < self.cfg.element_pairs // 2):
            raise StructureError(f"leaf {nid} underfull")
        if self.store.has_device:
            for i, (k, v) in enumerate(leaf.elements):
                got = self.store.peek_pair(nid, i, self.word_bits)
                if got != (k, v):
                    raise StructureError(
                        f"leaf {nid} slot {i} device mismatch")
