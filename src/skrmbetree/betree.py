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

from .errors import (ArenaFullError, ConfigError, StructureError)
from .layout import KIND_INTERNAL, KIND_LEAF


def index_bits_for(capacity: int) -> int:
    """Bits needed to address `capacity` arena slots; 1 slot needs none."""
    if capacity < 1:
        raise ConfigError("capacity must be >= 1")
    return (capacity - 1).bit_length()


def encoding_overhead_bytes(capacity: int) -> int:
    """Device bytes the arena itself occupies: index width times slots."""
    return (index_bits_for(capacity) * capacity + 7) // 8


def next_pow2(n: int) -> int:
    return 1 if n <= 1 else 1 << (n - 1).bit_length()


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
        self.values[idx] = value
        if self.occupancy > self.high_water:
            self.high_water = self.occupancy
        return idx

    def free(self, idx: int) -> None:
        if idx not in self.values:
            raise StructureError(f"arena slot {idx} is not live")
        del self.values[idx]
        self._free.append(idx)


@dataclass
class Message:
    """One buffered upsert: payload is the value itself, or its arena index
    when encoding is on. slot is the pair slot it occupies on the device."""
    key: int
    payload: int
    seq: int
    slot: int

    def order(self):
        return (self.key, self.seq)


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
        self._free = set(range(pivot_pairs, node_pairs))

    def free_slots(self) -> int:
        return len(self._free)

    def take_slot(self) -> int:
        slot = min(self._free)
        self._free.remove(slot)
        return slot

    def give_slot(self, slot: int) -> None:
        if slot in self._free:
            raise StructureError(f"slot {slot} freed twice")
        self._free.add(slot)


class BeTree:
    """The tree proper. All device traffic goes through `store`; pass a
    NullStore for pure structure work."""

    def __init__(self, store, cfg, word_bits: int,
                 planned_upserts: int | None = None):
        self.store = store
        self.cfg = cfg
        self.word_bits = word_bits
        if cfg.encoding:
            cap = cfg.arena_capacity
            if cap is None:
                cap = next_pow2(max(256, planned_upserts or 0))
            self.arena = ValueArena(cap)
            if self.arena.index_bits > word_bits:
                raise ConfigError("arena index wider than a payload word")
        else:
            self.arena = None
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

    def _route(self, node: InternalNode, key: int) -> int:
        # rightmost pivot at or below the key; pivot 0 anchors the range
        return bisect.bisect_right(node.pivots, key, key=lambda p: p[0]) - 1

    def _kill_message(self, node: InternalNode, msg: Message) -> None:
        # shadowed upsert dies in place: no device traffic, the slot and
        # arena index just return to their pools
        node.buffer.remove(msg)
        node.give_slot(msg.slot)
        if self.arena is not None:
            self.arena.free(msg.payload)

    # ---------------------------------------------------------------- upsert

    def upsert(self, key: int, value: int) -> None:
        self._check_word(key, "key")
        self._check_word(value, "value")
        self.seq += 1
        root = self.nodes[self.root_id]
        if root.kind == KIND_LEAF:
            self._leaf_merge(root, [(key, value)])
            return
        if self.arena is not None:
            payload = self.arena.alloc(value)
            self.store.arena_write(payload, value, self.word_bits)
        else:
            payload = value
        while True:
            root = self.nodes[self.root_id]
            if root.free_slots() > 0:
                break
            self._flush(root)
        slot = root.take_slot()
        msg = Message(key, payload, self.seq, slot)
        bisect.insort(root.buffer, msg, key=Message.order)
        self.store.write_pairs(root.node_id,
                               [(slot, key, payload, self.payload_width)])
        self.kv_writes += 1

    # ---------------------------------------------------------------- flush

    def _flush(self, node: InternalNode) -> None:
        """Move the largest same-child batch of buffered messages one level
        down (or into the leaf), possibly recursing to make room."""
        while node.buffer:
            counts = [0] * len(node.pivots)
            for m in node.buffer:
                counts[self._route(node, m.key)] += 1
            ci = max(range(len(counts)), key=lambda i: (counts[i], -i))
            batch = [m for m in node.buffer
                     if self._route(node, m.key) == ci]
            batch = self._dedupe_batch(node, batch)
            child = self.nodes[node.pivots[ci][1]]
            if child.kind == KIND_INTERNAL:
                self._shadow_kill_in_child(child, batch)
                if child.free_slots() < len(batch):
                    self._flush(child)
                    # splits may have rerouted everything; start over
                    continue
                writes = []
                for m in batch:
                    node.buffer.remove(m)
                    node.give_slot(m.slot)
                    m.slot = child.take_slot()
                    bisect.insort(child.buffer, m, key=Message.order)
                    writes.append((m.slot, m.key, m.payload,
                                   self.payload_width))
                self.store.write_pairs(child.node_id, writes)
                self.kv_writes += len(writes)
            else:
                arrivals = []
                for m in batch:
                    node.buffer.remove(m)
                    node.give_slot(m.slot)
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

    def _dedupe_batch(self, node: InternalNode, batch: list[Message]):
        # batch is (key, seq)-sorted; only the newest of each key survives
        survivors = []
        for m in batch:
            if survivors and survivors[-1].key == m.key:
                self._kill_message(node, survivors.pop())
            survivors.append(m)
        return survivors

    def _shadow_kill_in_child(self, child: InternalNode, batch) -> None:
        keys = {m.key: m.seq for m in batch}
        for old in [m for m in child.buffer if m.key in keys]:
            if old.seq >= keys[old.key]:
                raise StructureError("message order inverted between levels")
            self._kill_message(child, old)

    # ------------------------------------------------------------ leaf merge

    def _leaf_merge(self, leaf: LeafNode, arrivals) -> None:
        """Fold arrived (key, value) pairs into a leaf, splitting as needed.
        Arrivals carry at most one entry per key (dedupe happened upstream).
        """
        old = leaf.elements
        old_keys = {k for k, _v in old}
        arrival_keys = {k for k, _v in arrivals}
        merged = dict(old)
        merged.update(arrivals)
        new_list = sorted(merged.items())
        self.kv_writes += len(arrivals)
        cap = self.cfg.element_pairs
        if len(new_list) <= cap:
            self._write_leaf_diffs(leaf, new_list)
            return
        n_chunks = -(-len(new_list) // cap)
        base, extra = divmod(len(new_list), n_chunks)
        chunks = []
        at = 0
        for i in range(n_chunks):
            size = base + (1 if i < extra else 0)
            chunks.append(new_list[at:at + size])
            at += size
        self._write_leaf_diffs(leaf, chunks[0])
        # each chunk's pivot goes beside its left neighbour's: an earlier
        # pivot may have split the parent, leaving the old leaf in a node
        # whose key range ends below this chunk
        left = leaf
        for chunk in chunks[1:]:
            sibling = self._new_node(KIND_LEAF, left.parent)
            sibling.elements = chunk
            self.store.write_pairs(
                sibling.node_id,
                [(i, k, v, self.word_bits) for i, (k, v) in enumerate(chunk)])
            moved = sum(1 for k, _v in chunk
                        if k in old_keys and k not in arrival_keys)
            self.kv_writes += moved
            self._on_split(left, chunk[0][0], sibling)
            left = sibling

    def _write_leaf_diffs(self, leaf: LeafNode, new_list) -> None:
        old = leaf.elements
        writes = []
        for i, (k, v) in enumerate(new_list):
            ok, ov = old[i] if i < len(old) else (None, None)
            kw = k if ok != k else None
            vw = v if ov != v else None
            if kw is not None or vw is not None:
                writes.append((i, kw, vw, self.word_bits))
        leaf.elements = new_list
        self.store.write_pairs(leaf.node_id, writes)

    # ---------------------------------------------------------------- splits

    def _on_split(self, child, sep: int, sibling) -> None:
        if child.parent is None:
            root = self._new_node(KIND_INTERNAL, None)
            root.pivots = [(0, child.node_id), (sep, sibling.node_id)]
            child.parent = sibling.parent = root.node_id
            self.root_id = root.node_id
            self.height += 1
            self.store.write_pairs(
                root.node_id,
                [(0, 0, child.node_id, self.word_bits),
                 (1, sep, sibling.node_id, self.word_bits)])
        else:
            self._add_pivot(self.nodes[child.parent], sep, sibling)

    def _add_pivot(self, node: InternalNode, sep: int, new_child) -> None:
        new_child.parent = node.node_id
        old_pivots = list(node.pivots)
        bisect.insort(node.pivots, (sep, new_child.node_id),
                      key=lambda p: p[0])
        if len(node.pivots) <= self.cfg.pivot_pairs:
            self._write_pivot_diffs(node, old_pivots)
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
        writes = [(i, k, cid, self.word_bits)
                  for i, (k, cid) in enumerate(sibling.pivots)]
        moved = [m for m in node.buffer if m.key >= sep2]
        for m in moved:
            node.buffer.remove(m)
            node.give_slot(m.slot)
            m.slot = sibling.take_slot()
            bisect.insort(sibling.buffer, m, key=Message.order)
            writes.append((m.slot, m.key, m.payload, self.payload_width))
        self.store.write_pairs(sibling.node_id, writes)
        self.kv_writes += len(moved)
        self._write_pivot_diffs(node, old_pivots)
        self._on_split(node, sep2, sibling)

    def _write_pivot_diffs(self, node: InternalNode, old_pivots) -> None:
        writes = []
        for i, (k, cid) in enumerate(node.pivots):
            ok, ocid = old_pivots[i] if i < len(old_pivots) else (None, None)
            kw = k if ok != k else None
            vw = cid if ocid != cid else None
            if kw is not None or vw is not None:
                writes.append((i, kw, vw, self.word_bits))
        self.store.write_pairs(node.node_id, writes)

    # ----------------------------------------------------------------- query

    def query(self, key: int):
        self._check_word(key, "key")
        node = self.nodes[self.root_id]
        while node.kind == KIND_INTERNAL:
            hit = self._scan_buffer(node, key)
            if hit is not None:
                payload = self.store.read_payload(node.node_id, hit.slot,
                                                  self.payload_width,
                                                  expect=hit.payload)
                if self.arena is not None:
                    return self.store.arena_read(
                        payload, self.word_bits,
                        expect=self.arena.values[payload])
                return payload
            node = self.nodes[self._probe_pivots(node, key)]
        return self._search_leaf(node, key)

    def _scan_buffer(self, node: InternalNode, key: int):
        # newest first, so the first hit is the live version
        for m in sorted(node.buffer, key=lambda m: -m.seq):
            got = self.store.read_key(node.node_id, m.slot, expect=m.key)
            if got == key:
                return m
        return None

    def _probe_pivots(self, node: InternalNode, key: int) -> int:
        lo, hi = 0, len(node.pivots)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            got = self.store.read_key(node.node_id, mid,
                                      expect=node.pivots[mid][0])
            if got <= key:
                lo = mid
            else:
                hi = mid
        return self.store.read_payload(node.node_id, lo, self.word_bits,
                                       expect=node.pivots[lo][1])

    def _search_leaf(self, leaf: LeafNode, key: int):
        lo, hi = 0, len(leaf.elements)
        while lo < hi:
            mid = (lo + hi) // 2
            got = self.store.read_key(leaf.node_id, mid,
                                      expect=leaf.elements[mid][0])
            if got == key:
                return self.store.read_payload(leaf.node_id, mid,
                                               self.word_bits,
                                               expect=leaf.elements[mid][1])
            if got < key:
                lo = mid + 1
            else:
                hi = mid
        return None

    # ------------------------------------------------------------- housekeeping

    def flush_all(self) -> None:
        """Push every buffered message down to its leaf. Afterwards the
        arena is empty and queries never stop early."""
        while True:
            pending = [nid for nid, n in sorted(self.nodes.items())
                       if n.kind == KIND_INTERNAL and n.buffer]
            if not pending:
                return
            for nid in pending:
                node = self.nodes.get(nid)
                if node is not None and node.kind == KIND_INTERNAL:
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
        order = [m.order() for m in node.buffer]
        if order != sorted(order):
            raise StructureError(f"node {nid} buffer unsorted")
        slots = [m.slot for m in node.buffer]
        span = range(self.cfg.pivot_pairs, self.cfg.node_pairs)
        if len(set(slots)) != len(slots) or any(s not in span for s in slots):
            raise StructureError(f"node {nid} buffer slots corrupt")
        if set(slots) | node._free != set(span):
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
