"""Buffered-tree behaviour: oracle equivalence, arena bookkeeping, audits."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellimage import cell_image, load_image, total_skyrmions
from refbetree import RefBeTree
from refquery import reference_query
from skrmbetree.betree import BeTree, InternalNode, Message, ValueArena
from skrmbetree.config import (CostModel, Geometry, TreeConfig,
                               index_bits_for, next_pow2)
from skrmbetree.device import Device
from skrmbetree.errors import ArenaFullError, ConfigError, StructureError
from skrmbetree.layout import KIND_INTERNAL, KIND_LEAF, DeviceStore, NullStore


def make_cfg(node_pairs=4, pivot_pairs=2, element_pairs=4, strategy="dcw",
             parallel=False, encoding=False, arena_capacity=None):
    return TreeConfig(node_pairs=node_pairs, pivot_pairs=pivot_pairs,
                      element_pairs=element_pairs, strategy=strategy,
                      parallel_ports=parallel, encoding=encoding,
                      arena_capacity=arena_capacity)


def make_device_tree(mapping, strategy="dcw", parallel=False, encoding=False,
                     word_bits=16, planned=512, **cfg_kw):
    cfg = make_cfg(strategy=strategy, parallel=parallel, encoding=encoding,
                   **cfg_kw)
    ports = 2 * cfg.node_pairs if mapping == "word" else cfg.node_pairs
    geom = Geometry(interport_bits=word_bits, ports_per_track=ports)
    device = Device(geom, CostModel())
    store = DeviceStore(device, mapping, cfg, word_bits)
    return BeTree(store, cfg, word_bits, planned_upserts=planned), device


def make_null_tree(word_bits=16, planned=4096, **cfg_kw):
    cfg = make_cfg(**cfg_kw)
    return BeTree(NullStore(), cfg, word_bits, planned_upserts=planned)


def leaf_depths(tree):
    depths = set()
    for node in tree.nodes.values():
        if node.kind == KIND_LEAF:
            depth, at = 1, node
            while at.parent is not None:
                at = tree.nodes[at.parent]
                depth += 1
            depths.add(depth)
    return depths


# ------------------------------------------------------------ index widths

def test_index_width_arithmetic():
    assert index_bits_for(1) == 0
    assert index_bits_for(2) == 1
    assert index_bits_for(256) == 8
    assert index_bits_for(257) == 9
    assert index_bits_for(131072) == 17
    with pytest.raises(ConfigError):
        index_bits_for(0)


def encoding_overhead_bytes(capacity: int) -> int:
    """Device bytes the arena itself occupies: index width times slots."""
    return (index_bits_for(capacity) * capacity + 7) // 8


def test_encoding_overhead_examples():
    assert encoding_overhead_bytes(256) == 256
    assert encoding_overhead_bytes(131072) == 278528
    # a single slot needs no index bits, so the arena map costs nothing
    assert encoding_overhead_bytes(1) == 0


def test_next_pow2():
    assert [next_pow2(n) for n in (0, 1, 2, 3, 256, 257)] == \
        [1, 1, 2, 4, 256, 512]


# ------------------------------------------------------------------- arena

def test_arena_slot_lifecycle():
    arena = ValueArena(4)
    idx = [arena.alloc(v) for v in (10, 20, 30, 40)]
    assert sorted(idx) == [0, 1, 2, 3]
    assert arena.occupancy == arena.high_water == 4
    with pytest.raises(ArenaFullError):
        arena.alloc(50)
    arena.free(idx[1])
    arena.free(idx[2])
    # freed slots come back newest first
    assert arena.alloc(60) == idx[2]
    assert arena.alloc(70) == idx[1]
    with pytest.raises(StructureError):
        arena.free(99)
    with pytest.raises(ConfigError):
        ValueArena(0)


def test_arena_sized_from_planned_upserts():
    tree = make_null_tree(encoding=True, planned=1000)
    assert tree.arena.capacity == 1024
    assert tree.arena.index_bits == 10
    # small plans still get the floor capacity
    tree = make_null_tree(encoding=True, planned=10)
    assert tree.arena.capacity == 256
    # an explicit capacity wins over the plan
    tree = make_null_tree(encoding=True, planned=1000, arena_capacity=32)
    assert tree.arena.capacity == 32
    assert make_null_tree(encoding=False).arena is None
    with pytest.raises(ConfigError):
        make_null_tree(encoding=True, arena_capacity=1 << 17, word_bits=16)


# --------------------------------------------------------------- slot pool

def test_slot_pool_misuse_fails_typed_and_changes_nothing():
    # a bad message comes after a good one, so a release that went message
    # by message would already have freed the first slot and arena index
    tree = make_null_tree(encoding=True)
    node = InternalNode(7, pivot_pairs=2, node_pairs=4)
    assert [node.take_slot(), node.take_slot()] == [2, 3]
    with pytest.raises(StructureError, match="node 7 has no free slot"):
        node.take_slot()
    assert node._free == 0
    held = [Message(1, tree.arena.alloc(10), 1, 2),
            Message(2, tree.arena.alloc(20), 2, 3)]
    tree._release(node, held[1:])
    assert node._free == 1 << 3
    assert tree.arena.values == {0: 10}
    bad_batches = [([held[0], Message(3, 0, 3, bad)], f"no buffer slot {bad}")
                   for bad in (0, 1, 4, 99, -1)]
    bad_batches += [(held, "node 7 slot 3 is already free"),
                    ([held[0], held[0]], "node 7 holds two messages in one "
                                         "slot")]
    for batch, message in bad_batches:
        with pytest.raises(StructureError, match=message):
            tree._release(node, batch)
        assert node._free == 1 << 3
        assert tree.arena.values == {0: 10}
    assert node.take_slot() == 3
    assert node.held_mask(held) == 1 << 2 | 1 << 3


@pytest.mark.parametrize("slots,dst_taken,message", [
    ([2, 1], 0, "node 1 has no buffer slot 1"),
    ([2, 9], 0, "node 1 has no buffer slot 9"),
    ([2, -1], 0, "node 1 has no buffer slot -1"),
    ([2, 5], 0, "node 1 slot 5 is already free"),
    ([2, 2], 0, "node 1 holds two messages in one slot"),
    ([2, 3], 3, "node 2 has 1 free slots for 2 messages"),
])
def test_move_refuses_a_bad_batch_and_changes_nothing(slots, dst_taken,
                                                      message):
    # src holds slots 2, 3 and 4 of its buffer span 2..5 and buffers the
    # batch after a message of its own; the bad message comes last, so a
    # hand-over that went message by message would already have moved the
    # first one. A refused batch stays in src's buffer, and neither
    # buffer, mask, write count nor device counter moves
    tree, device = make_device_tree("word", node_pairs=6)
    src = InternalNode(1, pivot_pairs=2, node_pairs=6)
    dst = InternalNode(2, pivot_pairs=2, node_pairs=6)
    for _ in range(3):
        src.take_slot()
    held = [dst.take_slot() for _ in range(dst_taken)]
    dst.splice(0, 0, [Message(20 + s, 0, s, s) for s in held])
    batch = [Message(10 + i, i, i, s) for i, s in enumerate(slots)]
    src.splice(0, 0, [Message(5, 0, 0, 4), *batch])

    def state():
        return ([(m.key, m.slot) for m in src.buffer], src._free,
                [(m.key, m.slot) for m in dst.buffer], dst._free,
                tree.kv_writes, device.counters.as_flat_dict())

    before = state()
    # a flush into a leaf hands over to no node, so only src can refuse
    for target in (dst,) if dst_taken else (dst, None):
        with pytest.raises(StructureError, match=message):
            tree._hand_over(src, 1, 1 + len(batch), target)
        assert state() == before
    assert [m.slot for m in batch] == slots


def test_move_takes_the_lowest_free_slots_in_message_order():
    tree = make_null_tree()
    src = InternalNode(1, pivot_pairs=2, node_pairs=6)
    dst = InternalNode(2, pivot_pairs=2, node_pairs=6)
    for _ in range(3):
        src.take_slot()
    dst.take_slot()
    own = Message(5, 0, 0, 3)
    batch = [Message(10, 0, 1, 4), Message(11, 0, 2, 2)]
    src.splice(0, 0, [own, *batch])
    dst.splice(0, 0, [Message(12, 0, 0, 2)])
    assert tree._hand_over(src, 1, 3, dst) == batch
    assert [m.slot for m in batch] == [3, 4]
    assert src.buffer == [own]
    assert [m.key for m in dst.buffer] == [10, 11, 12]
    assert src._free == 1 << 2 | 1 << 4 | 1 << 5
    assert dst._free == 1 << 5
    assert tree.kv_writes == 2
    assert tree._hand_over(src, 1, 1, dst) == []
    assert (src._free, dst._free) == (1 << 2 | 1 << 4 | 1 << 5, 1 << 5)
    assert tree.kv_writes == 2
    # with no destination the batch only leaves src
    assert tree._hand_over(src, 0, 1) == [own]
    assert (src.buffer, src._free, tree.kv_writes) == ([], src.span, 2)


def test_full_pool_over_an_empty_buffer_fails_typed():
    # a pool that reports no free slot while nothing is buffered would send
    # the flush loop of upsert round forever
    tree = make_null_tree()
    for i in range(40):
        tree.upsert(i, i)
    tree.flush_all()
    root = tree.nodes[tree.root_id]
    assert root.kind != KIND_LEAF and not root.buffer
    root._free = 0
    with pytest.raises(StructureError, match="nothing to flush"):
        tree.upsert(99, 1)


# ------------------------------------------------------- oracle equivalence

def test_null_store_matches_dict_oracle():
    rng = np.random.default_rng(11)
    tree = make_null_tree()
    oracle = {}
    for _ in range(4000):
        key = int(rng.integers(0, 700))
        if rng.random() < 0.6:
            value = int(rng.integers(0, 2**16))
            tree.upsert(key, value)
            oracle[key] = value
        else:
            assert tree.query(key) == oracle.get(key)
    tree.flush_all()
    tree.audit()
    for key in range(700):
        assert tree.query(key) == oracle.get(key)
    assert len(oracle) <= tree.stats()["kv_writes"]


@pytest.mark.parametrize("mapping,strategy,parallel,encoding", [
    ("word", "naive", False, False),
    ("word", "dcw", False, True),
    ("word", "bcw", True, True),
    ("bit_interleaved", "dcw", False, False),
    ("bit_interleaved", "bcw", True, True),
])
def test_device_backed_matches_dict_oracle(mapping, strategy, parallel,
                                           encoding):
    rng = np.random.default_rng(5)
    tree, _dev = make_device_tree(mapping, strategy, parallel, encoding)
    oracle = {}
    for step in range(300):
        key = int(rng.integers(0, 80))
        value = int(rng.integers(0, 2**16))
        tree.upsert(key, value)
        oracle[key] = value
        if step % 7 == 0:
            probe = int(rng.integers(0, 90))
            assert tree.query(probe) == oracle.get(probe)
    tree.flush_all()
    tree.audit()
    for key, value in oracle.items():
        assert tree.query(key) == value
    if encoding:
        assert tree.arena.occupancy == 0


def test_newest_of_duplicate_upserts_wins():
    tree = make_null_tree(encoding=True)
    for i in range(6):
        tree.upsert(i * 100, i)          # splits the root leaf
    for version in range(30):
        tree.upsert(300, 1000 + version)
    assert tree.query(300) == 1029
    tree.flush_all()
    tree.audit()
    assert tree.query(300) == 1029
    assert tree.arena.occupancy == 0


# -------------------------------------------------------- encoding traffic

class RecordingStore(NullStore):
    """Logical store that remembers node kinds and every write it is asked
    to perform, so tests can check widths without a device."""

    # the tree skips the pair writes a NullStore would throw away; this
    # store keeps them, so it asks for every write a device would get
    has_device = True

    def __init__(self):
        self.kinds = {}
        self.pair_writes = []
        self.arena_writes = 0

    def add_node(self, node_id, kind):
        self.kinds[node_id] = kind

    def write_pairs(self, node_id, writes):
        self.pair_writes.append((node_id, list(writes)))

    def arena_write(self, index, value, width):
        self.arena_writes += 1


def test_buffered_value_hits_the_device_once():
    store = RecordingStore()
    cfg = make_cfg(encoding=True)
    tree = BeTree(store, cfg, 16, planned_upserts=512)
    for i in range(8):
        tree.upsert(i * 50, i)           # grow past the leaf-only root
    assert tree.nodes[tree.root_id].kind != KIND_LEAF
    before = store.arena_writes
    keys = [3, 77, 145, 77, 260, 333, 3, 401, 478, 77]
    for i, key in enumerate(keys):
        tree.upsert(key, 5000 + i)
    # one full-width arena write per upsert, even for repeated keys;
    # flushes afterwards move only the short index
    assert store.arena_writes - before == len(keys)
    tree.flush_all()
    assert store.arena_writes - before == len(keys)
    for node_id, writes in store.pair_writes:
        for _slot, _key, _payload, width in writes:
            if (store.kinds[node_id] != KIND_LEAF
                    and _slot >= cfg.pivot_pairs):
                assert width == tree.arena.index_bits
            else:
                assert width == 16


def test_arena_occupancy_tracks_buffered_messages():
    rng = np.random.default_rng(3)
    tree = make_null_tree(encoding=True)
    for _ in range(600):
        tree.upsert(int(rng.integers(0, 50)), int(rng.integers(0, 2**16)))
        assert tree.stats()["buffered"] == tree.arena.occupancy
    tree.flush_all()
    tree.audit()
    assert tree.arena.occupancy == 0
    assert tree.stats()["buffered"] == 0


def test_full_arena_refuses_further_upserts():
    tree = make_null_tree(encoding=True, arena_capacity=2,
                          node_pairs=16, pivot_pairs=2)
    for i in range(5):
        tree.upsert(i * 10, i)           # root becomes internal
    tree.upsert(100, 1)
    tree.upsert(101, 2)
    with pytest.raises(ArenaFullError):
        tree.upsert(102, 3)


@pytest.mark.parametrize("mapping", ("word", "bit_interleaved"))
@pytest.mark.parametrize("policy", ("lazy", "eager"))
@pytest.mark.parametrize("strategy", ("naive", "bcw+ports"))
def test_arena_exhaustion_fails_typed_and_harmless(mapping, policy, strategy):
    # two-slot buffers and two-pair leaves: flushes free and reuse arena
    # slots and grow the tree to height 4 before six in-flight values
    # exhaust the arena
    cfg = make_cfg(node_pairs=4, pivot_pairs=2, element_pairs=2,
                   strategy=strategy.split("+")[0],
                   parallel=strategy == "bcw+ports", encoding=True,
                   arena_capacity=6)
    ports = 2 * cfg.node_pairs if mapping == "word" else cfg.node_pairs
    geom = Geometry(interport_bits=16, ports_per_track=ports,
                    shift_policy=policy)
    device = Device(geom, CostModel())
    tree = BeTree(DeviceStore(device, mapping, cfg, 16), cfg, 16)
    rng = np.random.default_rng(5)
    oracle = {}
    for _ in range(200):
        key, value = (int(v) for v in rng.integers(0, 1 << 16, size=2))
        counters, image = device.counters.as_flat_dict(), _device_image(device)
        try:
            tree.upsert(key, value)
        except ArenaFullError:
            break
        oracle[key] = value
    else:
        pytest.fail("the arena never filled")
    # the refused upsert charged nothing and touched no cell
    assert device.counters.as_flat_dict() == counters
    after = _device_image(device)
    assert len(after) == len(image)
    assert all(np.array_equal(a[0], b[0]) and a[1] == b[1]
               for a, b in zip(image, after))
    tree.audit()
    for k, v in oracle.items():
        assert tree.query(k) == v
    # draining the buffers frees the arena; the refused key then lands
    tree.flush_all()
    tree.upsert(key, value)
    oracle[key] = value
    tree.audit()
    for k, v in oracle.items():
        assert tree.query(k) == v


# ----------------------------------------------------------- flush traffic

def test_flush_moves_a_batch_in_one_write_pass():
    tree, device = make_device_tree("word", strategy="bcw", parallel=True)
    for i in range(200):
        tree.upsert(i, i % 97)
    assert tree.height >= 3
    tree.flush_all()
    tree.upsert(60, 1234)
    root = tree.nodes[tree.root_id]
    assert len(root.buffer) == 1
    before = device.counters.shift_steps
    tree._flush(root)
    moved = device.counters.shift_steps - before
    # one through-port pass on the child track, plus at most one
    # interport of alignment
    assert 2 * 16 <= moved <= 3 * 16
    assert not root.buffer
    assert tree.query(60) == 1234


def test_kv_writes_do_not_depend_on_the_store():
    rng = np.random.default_rng(9)
    stream = [(int(rng.integers(0, 120)), int(rng.integers(0, 2**16)))
              for _ in range(500)]
    runs = []
    for build in (
        lambda: make_null_tree(),
        lambda: make_device_tree("word", "dcw")[0],
        lambda: make_device_tree("word", "bcw", parallel=True,
                                 encoding=True)[0],
        lambda: make_device_tree("bit_interleaved", "bcw", parallel=True,
                                 encoding=True)[0],
    ):
        tree = build()
        for key, value in stream:
            tree.upsert(key, value)
        stats = tree.stats()
        runs.append({k: stats[k] for k in
                     ("nodes", "leaves", "height", "buffered", "kv_writes")})
    assert all(r == runs[0] for r in runs[1:])


def test_query_sees_buffered_then_flushed_value():
    tree, _dev = make_device_tree("word", strategy="dcw", encoding=True)
    for i in range(6):
        tree.upsert(i * 100, i)
    tree.upsert(250, 4321)
    buffered = tree.stats()["buffered"]
    assert buffered >= 1
    assert tree.query(250) == 4321
    tree.flush_all()
    assert tree.query(250) == 4321


def _device_image(device):
    """Every track's and group's offset and cells."""
    return [(h.offset, list(h.cells))
            for h in (*device.tracks.values(), *device.groups.values())]


def _flip_bit(store, node_id, pair_slot, word):
    """Flip bit 0 of one stored word of a node: its key or its payload."""
    if store.mapping == "word":
        tr = store.homes[node_id]
        cells = cell_image(tr)
        payload_base = store.cfg.node_pairs if word == "payload" else 0
        cells[tr.slot_start(payload_base + pair_slot)] ^= 1
        load_image(tr, cells)
    else:
        group, offset = store.homes[node_id]
        cells = cell_image(group)
        row = store.word_bits if word == "payload" else 0
        cells[row, group.slot_start(pair_slot) + offset] ^= 1
        load_image(group, cells)


@pytest.mark.parametrize("target", ("buffered-key", "buffer-hit-payload",
                                    "pivot-child-id", "leaf-key",
                                    "leaf-value"))
@pytest.mark.parametrize("mapping", ("word", "bit_interleaved"))
def test_corrupt_word_fails_the_query_naming_node_slot_and_word(mapping,
                                                                target):
    # six-slot buffers over two-pivot roots; one bit of one stored word is
    # flipped, and the query that reads it names where it sits
    tree, _ = make_device_tree(mapping, node_pairs=8, element_pairs=4)
    for i in range(9):
        tree.upsert(i * 1000 + 7, i)
    root = tree.nodes[tree.root_id]
    newest = sorted(root.buffer, key=lambda m: -m.seq)
    assert len(newest) == 4
    # a buffered message in the middle of the newest-first order, and a
    # leaf key under the last pivot that no message shadows
    victim = newest[2]
    slot_of_child = len(root.pivots) - 1
    leaf = tree.nodes[root.pivots[slot_of_child][1]]
    assert leaf.kind == KIND_LEAF
    mid = len(leaf.elements) // 2
    leaf_key = leaf.elements[mid][0]
    assert leaf_key not in {m.key for m in root.buffer}
    key, node_id, slot, word = {
        "buffered-key": (victim.key, root.node_id, victim.slot, "key"),
        "buffer-hit-payload": (victim.key, root.node_id, victim.slot,
                               "payload"),
        "pivot-child-id": (leaf_key, root.node_id, slot_of_child, "payload"),
        "leaf-key": (leaf_key, leaf.node_id, mid, "key"),
        "leaf-value": (leaf_key, leaf.node_id, mid, "payload"),
    }[target]
    assert tree.query(key) is not None
    _flip_bit(tree.store, node_id, slot, word)
    with pytest.raises(StructureError,
                       match=f"^node {node_id} slot {slot} {word}: "):
        tree.query(key)


@settings(max_examples=200, deadline=None)
@given(store=st.sampled_from(["null", "word", "bit_interleaved"]),
       policy=st.sampled_from(["lazy", "eager"]),
       buffer_pairs=st.integers(1, 3), element_pairs=st.integers(1, 3),
       encoding=st.booleans(),
       ops=st.lists(st.tuples(st.booleans(), st.integers(0, 15),
                              st.integers(0, 255)), max_size=60))
def test_one_pass_query_matches_the_per_read_reference(
        store, policy, buffer_pairs, element_pairs, encoding, ops):
    # twin trees take the same upserts; each query runs as one key pass per
    # node on one twin and as one read_key per key read on the other. Keys
    # 0..15 in two-pivot nodes with tiny buffers and leaves give hits and
    # misses in buffers, on pivot keys and in leaves, and empty buffers
    cfg = TreeConfig(node_pairs=2 + buffer_pairs, pivot_pairs=2,
                     element_pairs=element_pairs,
                     encoding=encoding)
    trees, devices = [], []
    for _ in range(2):
        if store == "null":
            tree = BeTree(NullStore(), cfg, 8, planned_upserts=len(ops))
        else:
            ports = cfg.node_pairs * (2 if store == "word" else 1)
            device = Device(Geometry(interport_bits=8, ports_per_track=ports,
                                     shift_policy=policy),
                            CostModel(), record_steps=True)
            devices.append(device)
            tree = BeTree(DeviceStore(device, store, cfg, 8), cfg, 8,
                          planned_upserts=len(ops))
        trees.append(tree)
    one_pass, per_read = trees
    oracle = {}

    def query_both(key):
        got = one_pass.query(key)
        assert got == reference_query(per_read, key) == oracle.get(key)
        if devices:
            assert (devices[0].counters.as_flat_dict()
                    == devices[1].counters.as_flat_dict())
            assert devices[0].counters.trace == devices[1].counters.trace
            assert _device_image(devices[0]) == _device_image(devices[1])

    for upsert, key, value in ops:
        if upsert:
            for tree in trees:
                tree.upsert(key, value)
            oracle[key] = value
        else:
            query_both(key)
    for tree in trees:
        tree.flush_all()
    for key in range(16):
        query_both(key)


# ------------------------------------------------------------------ audits

def test_audit_cross_checks_the_device_image():
    tree, _dev = make_device_tree("word", strategy="dcw")
    for i in range(40):
        tree.upsert(i, i + 7)
    tree.audit()
    leaf = next(n for n in tree.nodes.values()
                if n.kind == KIND_LEAF and n.elements)
    key, value = leaf.elements[0]
    leaf.elements[0] = (key, value ^ 1)  # logical edit, device unchanged
    with pytest.raises(StructureError):
        tree.audit()


@pytest.mark.parametrize("corrupt,message", [
    (lambda free, used: free | 1, "frees a slot outside its buffer"),
    (lambda free, used: free | 1 << 8, "frees a slot outside its buffer"),
    (lambda free, used: free | 1 << used, "slot {used} is already free"),
    (lambda free, used: free & (free - 1), "slot bookkeeping leaks"),
])
def test_audit_checks_the_free_slot_mask(corrupt, message):
    tree = make_null_tree(node_pairs=6, element_pairs=2)
    for key in (10, 20, 30, 40):
        tree.upsert(key, key)
    root = tree.nodes[tree.root_id]
    assert root.kind != KIND_LEAF and root.buffer and root._free
    tree.audit()
    used = root.buffer[0].slot
    root._free = corrupt(root._free, used)
    with pytest.raises(StructureError, match=f"node {root.node_id} "
                       f"{message.format(used=used)}"):
        tree.audit()


def test_audit_flags_unsorted_leaf():
    tree = make_null_tree()
    for i in range(40):
        tree.upsert(i, i)
    tree.flush_all()
    leaf = next(n for n in tree.nodes.values()
                if n.kind == KIND_LEAF and len(n.elements) >= 2)
    leaf.elements.reverse()
    with pytest.raises(StructureError):
        tree.audit()


def _audit_tree(store):
    """A 4-level tree with encoding on, its root buffer full and pivot_pairs
    3, so a non-root internal node can be underfull. The same upserts give
    the same tree on every store."""
    shape = dict(node_pairs=8, pivot_pairs=3, element_pairs=4, encoding=True,
                 planned=60)
    tree = (make_null_tree(**shape) if store == "null"
            else make_device_tree(store, **shape)[0])
    for i in range(60):
        key = i * 7919 % 509
        tree.upsert(key, (key * 31 + i) % 2**16)
    tree.audit()
    return tree


def _pick(tree, kind, test=lambda node: True):
    """The first non-root node of `kind` that passes `test`."""
    return next(n for n in tree.nodes.values() if n.kind == kind
                and n.node_id != tree.root_id and test(n))


def _buffered(tree):
    return _pick(tree, KIND_INTERNAL, lambda n: len(n.buffer) >= 2)


def _wrong_parent(tree):
    leaf = _pick(tree, KIND_LEAF)
    leaf.parent = leaf.node_id
    return f"node {leaf.node_id} parent pointer wrong"


def _child_twice(tree):
    # pivot 1 names pivot 0's child, on the device too
    root = tree.nodes[tree.root_id]
    key, _child = root.pivots[1]
    first = root.pivots[0][1]
    root.pivots[1] = (key, first)
    tree.store.write_pairs(root.node_id, [(1, None, first, tree.word_bits)])
    return f"node {first} reached twice"


def _no_pivots(tree):
    node = _pick(tree, KIND_INTERNAL)
    node.pivots = []
    return f"internal node {node.node_id} has no pivots"


def _one_pivot(tree):
    node = _pick(tree, KIND_INTERNAL)
    del node.pivots[1:]
    return f"internal node {node.node_id} underfull"


def _pivot_overflow(tree):
    node = _pick(tree, KIND_INTERNAL)
    while len(node.pivots) <= tree.cfg.pivot_pairs:
        key, child = node.pivots[-1]
        node.pivots.append((key + 1, child))
    return f"internal node {node.node_id} pivot overflow"


def _pivots_reversed(tree):
    node = _pick(tree, KIND_INTERNAL)
    node.pivots.reverse()
    return f"node {node.node_id} pivots unsorted"


def _pivot_past_range(tree):
    root = tree.nodes[tree.root_id]
    root.pivots[-1] = (1 << tree.word_bits, root.pivots[-1][1])
    return f"node {root.node_id} pivots out of range"


def _buffer_overflow(tree):
    node = _buffered(tree)
    node.buffer += [node.buffer[-1]] * (tree.cfg.buffer_pairs + 1
                                        - len(node.buffer))
    return f"node {node.node_id} buffer overflow"


def _buffer_reversed(tree):
    node = _buffered(tree)
    node.buffer.reverse()
    return f"node {node.node_id} buffer unsorted"


def _shared_slot(tree):
    node = _buffered(tree)
    node.buffer[1].slot = node.buffer[0].slot
    return f"node {node.node_id} holds two messages in one slot"


def _pivot_slot_buffered(tree):
    node = _buffered(tree)
    node.buffer[0].slot = 0
    return f"node {node.node_id} has no buffer slot 0"


def _foreign_key(tree):
    root = tree.nodes[tree.root_id]
    root.buffer[-1].key = 1 << tree.word_bits
    return f"node {root.node_id} buffers a foreign key"


def _shared_arena_index(tree):
    node = _buffered(tree)
    node.buffer[1].payload = node.buffer[0].payload
    return "arena index shared by two messages"


def _arena_index_freed(tree):
    tree.arena.free(_buffered(tree).buffer[0].payload)
    return "message points at a dead arena slot"


def _subtree_dropped(tree):
    # the root's last pivot, and with it a subtree, is lost; the pivots
    # left keep their device slots
    tree.nodes[tree.root_id].pivots.pop()
    return "unreachable nodes exist"


def _arena_index_leaked(tree):
    tree.arena.alloc(1)
    return "arena live set out of sync with buffers"


def _arena_shrunk(tree):
    tree.arena.capacity = tree.arena.occupancy - 1
    return "arena over capacity"


def _leaf_reversed(tree):
    leaf = _pick(tree, KIND_LEAF)
    leaf.elements.reverse()
    return f"leaf {leaf.node_id} unsorted or duplicated"


def _leaf_overflow(tree):
    leaf = _pick(tree, KIND_LEAF)
    while len(leaf.elements) <= tree.cfg.element_pairs:
        leaf.elements.append((leaf.elements[-1][0] + 1, 0))
    return f"leaf {leaf.node_id} over capacity"


def _leaf_key_past_range(tree):
    # the leaf holding the largest key is the rightmost one
    leaf = max((n for n in tree.nodes.values() if n.kind == KIND_LEAF),
               key=lambda n: n.elements[-1])
    leaf.elements[-1] = (1 << tree.word_bits, 0)
    return f"leaf {leaf.node_id} keys out of range"


def _leaf_underfull(tree):
    leaf = _pick(tree, KIND_LEAF)
    del leaf.elements[1:]
    return f"leaf {leaf.node_id} underfull"


def _pivot_cell_flipped(tree):
    root = tree.root_id
    _flip_bit(tree.store, root, 1, "key")
    return f"node {root} pivot 1 device mismatch"


def _buffered_cell_flipped(tree):
    node = _buffered(tree)
    slot = node.buffer[0].slot
    _flip_bit(tree.store, node.node_id, slot, "key")
    return f"node {node.node_id} slot {slot} device mismatch"


def _leaf_cell_flipped(tree):
    leaf = _pick(tree, KIND_LEAF)
    _flip_bit(tree.store, leaf.node_id, 0, "key")
    return f"leaf {leaf.node_id} slot 0 device mismatch"


def _arena_cell_flipped(tree):
    # bit 0 of the value: arena slot i is word slot `port` of a track, or
    # row 0 of a group's column `offset` past port `port`
    index = next(iter(tree.arena.values))
    home, port, offset = tree.store._arena_at(index)
    cells = cell_image(home)
    if tree.store.mapping == "word":
        cells[home.slot_start(port)] ^= 1
    else:
        cells[0, home.slot_start(port) + offset] ^= 1
    load_image(home, cells)
    return f"arena slot {index} holds"


# every raise site of BeTree.audit, _audit_node and _audit_leaf, with the
# span and shared-slot ones of the held_mask it calls, but the free-mask
# ones, which test_audit_checks_the_free_slot_mask reaches; the flipped
# cells need a device
_AUDIT_CORRUPTIONS = [_wrong_parent, _child_twice, _no_pivots, _one_pivot,
                      _pivot_overflow, _pivots_reversed, _pivot_past_range,
                      _buffer_overflow, _buffer_reversed, _shared_slot,
                      _pivot_slot_buffered, _foreign_key, _shared_arena_index,
                      _arena_index_freed, _subtree_dropped,
                      _arena_index_leaked, _arena_shrunk, _leaf_reversed,
                      _leaf_overflow, _leaf_key_past_range, _leaf_underfull]
_CELL_FLIPS = [_pivot_cell_flipped, _buffered_cell_flipped,
               _leaf_cell_flipped, _arena_cell_flipped]


@pytest.mark.parametrize("store,corrupt", [
    *((store, corrupt) for corrupt in _AUDIT_CORRUPTIONS
      for store in ("null", "word", "bit_interleaved")),
    *((store, corrupt) for corrupt in _CELL_FLIPS
      for store in ("word", "bit_interleaved")),
], ids=lambda p: p if isinstance(p, str) else p.__name__.strip("_"))
def test_audit_names_each_broken_invariant(store, corrupt):
    tree = _audit_tree(store)
    message = corrupt(tree)
    with pytest.raises(StructureError, match=f"^{message}"):
        tree.audit()


def test_deep_ascending_build_stays_sound():
    tree = make_null_tree()
    for i in range(3000):
        tree.upsert(i, i * 3 % 2**16)
    tree.flush_all()
    tree.audit()
    assert tree.height >= 4
    assert leaf_depths(tree) == {tree.height}
    for probe in (0, 1, 1499, 2998, 2999):
        assert tree.query(probe) == probe * 3 % 2**16
    assert tree.query(3001) is None


@pytest.mark.parametrize("mapping", ["word", "bit_interleaved"])
def test_flush_wider_than_a_leaf_keeps_every_key(mapping):
    # four-message flushes into three-pair leaves split one leaf into three
    # or more pieces; each piece's pivot must land in the internal node
    # that covers its keys, also after an earlier piece split the parent
    rng = np.random.default_rng(17)
    tree, _dev = make_device_tree(mapping, node_pairs=6, pivot_pairs=2,
                                  element_pairs=3)
    oracle = {}
    for _ in range(400):
        key = int(rng.integers(0, 2**16))
        oracle[key] = int(rng.integers(0, 2**16))
        tree.upsert(key, oracle[key])
    tree.audit()
    for key, value in oracle.items():
        assert tree.query(key) == value
    tree.flush_all()
    tree.audit()
    for key, value in oracle.items():
        assert tree.query(key) == value


def test_out_of_range_words_are_rejected():
    tree = make_null_tree(word_bits=16)
    with pytest.raises(ConfigError):
        tree.upsert(1 << 16, 0)
    with pytest.raises(ConfigError):
        tree.upsert(0, 1 << 16)
    with pytest.raises(ConfigError):
        tree.query(-1)


def _byte_tree(store, cfg, planned, tree_cls=BeTree):
    """A tree of 8-bit words on NullStore or on a device of either mapping."""
    if store == "null":
        return tree_cls(NullStore(), cfg, 8, planned_upserts=planned)
    ports = cfg.node_pairs * (2 if store == "word" else 1)
    geom = Geometry(interport_bits=8, ports_per_track=ports)
    return tree_cls(DeviceStore(Device(geom, CostModel()), store, cfg, 8),
                    cfg, 8, planned_upserts=planned)


def _tree_state(tree):
    """Every node's pairs, messages (with their slots, in buffer order) and
    free mask, the write count, and the device's counters if it has one."""
    nodes = []
    for nid, node in tree.nodes.items():
        if node.kind == KIND_LEAF:
            nodes.append((nid, node.parent, node.elements))
        else:
            nodes.append((nid, node.parent, node.pivots, node._free,
                          [(m.key, m.seq, m.payload, m.slot)
                           for m in node.buffer]))
    counters = (tree.store.device.counters.as_flat_dict()
                if tree.store.has_device else None)
    return nodes, tree.kv_writes, tree.height, counters


@settings(max_examples=200, deadline=None)
@given(store=st.sampled_from(["null", "word", "bit_interleaved"]),
       encoding=st.booleans(), parallel=st.booleans(),
       pivot_pairs=st.integers(2, 5), buffer_pairs=st.integers(1, 6),
       element_pairs=st.integers(1, 3),
       ops=st.lists(st.tuples(st.booleans(), st.integers(0, 63),
                              st.integers(0, 255)),
                    min_size=30, max_size=150))
def test_bulk_moves_match_the_per_message_reference(
        store, encoding, parallel, pivot_pairs, buffer_pairs, element_pairs,
        ops):
    # the same stream through the bulk flush path and the per-message one:
    # after every op each message sits in the same slot, in the same buffer
    # order, every free mask and write count agrees, and so does every
    # device counter
    cfg = TreeConfig(node_pairs=pivot_pairs + buffer_pairs,
                     pivot_pairs=pivot_pairs, element_pairs=element_pairs,
                     strategy="bcw" if parallel else "dcw",
                     parallel_ports=parallel, encoding=encoding)
    bulk = _byte_tree(store, cfg, len(ops))
    ref = _byte_tree(store, cfg, len(ops), RefBeTree)
    __tracebackhide__ = _hide_mismatch
    for i, (upsert, key, value) in enumerate(ops):
        for tree in (bulk, ref):
            if upsert:
                tree.upsert(key, value)
            else:
                tree.query(key)
        _assert_same_state(bulk, ref, f"op {i}")
    bulk.flush_all()
    ref.flush_all()
    _assert_same_state(bulk, ref, "flush_all")
    bulk.audit()


class _StateMismatch(AssertionError):
    """The bulk and the reference tree's `_tree_state`s differ."""


def _hide_mismatch(excinfo):
    # pytest drops a frame naming this as its __tracebackhide__ from a
    # mismatch's report. Hypothesis has pytest render every failing example
    # it shrinks through, and rendering a frame of this long module parses
    # the whole file again each time; the message says where the trees
    # differ
    return excinfo.errisinstance(_StateMismatch)


def _assert_same_state(bulk, ref, after):
    """Raise `_StateMismatch` naming `after` and the first node and field,
    or the first other part, in which the two trees' `_tree_state`s
    differ."""
    __tracebackhide__ = _hide_mismatch
    got, want = _tree_state(bulk), _tree_state(ref)
    if got == want:
        return
    (got_nodes, *got_rest), (want_nodes, *want_rest) = got, want
    for a, b in zip(got_nodes, want_nodes):
        if a == b:
            continue
        if len(a) != len(b):
            raise _StateMismatch(f"after {after}: node {a[0]} is a leaf in "
                                 f"one tree and internal in the other")
        fields = (("id", "parent", "elements") if len(a) == 3 else
                  ("id", "parent", "pivots", "free mask", "buffer"))
        name, x, y = next((f, x, y) for f, x, y in zip(fields, a, b) if x != y)
        raise _StateMismatch(f"after {after}: node {a[0]} {name}: bulk {x!r}, "
                             f"reference {y!r}")
    if len(got_nodes) != len(want_nodes):
        raise _StateMismatch(f"after {after}: bulk has {len(got_nodes)} "
                             f"nodes, reference {len(want_nodes)}")
    for name, x, y in zip(("kv_writes", "height", "counters"), got_rest,
                          want_rest):
        if x != y:
            if name == "counters":
                x, y = ({k: v for k, v in c.items() if x[k] != y[k]}
                        for c in (x, y))
            raise _StateMismatch(f"after {after}: {name}: bulk {x!r}, "
                                 f"reference {y!r}")


class _RepickWatch(BeTree):
    """A BeTree that sorts each child flush a node's `_flush` makes by what
    it left in the node: its own dedupe drop had shortened its buffer
    ("dedupe"), its pivots grew in place ("grown"), a split of it rebound
    them to a list that differs in content ("pivots"), or, by the slack
    rule, to an equal one while the cut moved part of its buffer
    ("slack")."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.branches = Counter()
        self._frames = []       # [node, dropped since its last child flush]

    def _dedupe_batch(self, node, lo, hi):
        self._frames[-1][1] = True
        return super()._dedupe_batch(node, lo, hi)

    def _flush(self, node):
        frames = self._frames
        outer = frames[-1] if frames else None
        if outer is not None:
            parent = outer[0]
            pivots, before = parent.pivots, list(parent.pivots)
            size, dropped = len(parent.buffer), outer[1]
            outer[1] = False
        frames.append([node, False])
        try:
            super()._flush(node)
        finally:
            frames.pop()
        if outer is None:
            return
        if dropped:
            self.branches["dedupe"] += 1
        if parent.pivots is pivots:
            if parent.pivots != before:
                self.branches["grown"] += 1
        elif parent.pivots != before:
            self.branches["pivots"] += 1
        elif len(parent.buffer) != size:
            self.branches["slack"] += 1


@pytest.mark.parametrize("store", ["null", "word", "bit_interleaved"])
@pytest.mark.parametrize("branch,pivot_pairs,buffer_pairs,keys", [
    ("dedupe", 2, 3, [5, 7, 8, 15, 5, 10, 15, 14, 9, 2, 9, 13]),
    ("pivots", 2, 3, [11, 0, 7, 0, 12, 11, 2, 13, 9, 10, 3, 4, 3, 8, 11, 0,
                      4, 2, 1, 11]),
    ("slack", 2, 3, [28, 23, 21, 92, 213, 43, 188, 207, 171, 218, 78]),
    ("grown", 3, 1, [4, 2, 8, 3, 15, 14, 15, 12]),
])
def test_each_repick_branch_of_flush_matches_the_reference(
        store, branch, pivot_pairs, buffer_pairs, keys):
    # after a child flush a node picks its child again only when its pivots
    # differ in content or its buffer length changed. Each stream takes its
    # branch (the count proves it) and stays equal to the reference after
    # every upsert; each would part from it if the rule missed the branch:
    # a buffer length taken after the dedupe ("dedupe"), a pivot count for
    # the content ("pivots"), no length check ("slack", whose distinct keys
    # drop nothing) or an identity check of the pivots ("grown")
    cfg = TreeConfig(node_pairs=pivot_pairs + buffer_pairs,
                     pivot_pairs=pivot_pairs, element_pairs=1)
    watched = _byte_tree(store, cfg, len(keys), _RepickWatch)
    ref = _byte_tree(store, cfg, len(keys), RefBeTree)
    for i, key in enumerate(keys):
        watched.upsert(key, i)
        ref.upsert(key, i)
        _assert_same_state(watched, ref, f"upsert {i}")
    assert watched.branches[branch] > 0
    watched.flush_all()
    ref.flush_all()
    _assert_same_state(watched, ref, "flush_all")
    watched.audit()


def _upsert_state(tree):
    """What a refused upsert must leave as it was: `_tree_state` (every
    buffer and free mask, the device counters), the sequence number and
    the value arena."""
    arena = tree.arena
    return (_tree_state(tree), tree.seq,
            None if arena is None else (dict(arena.values), list(arena._free),
                                        arena._next, arena.high_water))


@settings(max_examples=200, deadline=None)
@given(store=st.sampled_from(["null", "word", "bit_interleaved"]),
       encoding=st.booleans(), parallel=st.booleans(),
       buffer_pairs=st.integers(1, 4), element_pairs=st.integers(1, 3),
       ops=st.lists(st.tuples(st.integers(0, 15), st.integers(0, 255),
                              st.sampled_from([None, "key", "value"]),
                              st.sampled_from([-1, 256])),
                    min_size=10, max_size=100))
def test_upsert_places_after_its_key_and_refuses_bad_words_unchanged(
        store, encoding, parallel, buffer_pairs, element_pairs, ops):
    # `RefBeTree` inherits upsert, so the bulk-moves test cannot catch a
    # misplaced root message: after each upsert into an internal root the
    # new message sits right after the last buffered one of its key, and
    # the buffer stays (key, seq)-sorted. Sixteen keys repeat, and the
    # small nodes flush and split the root. Before an upsert, a key or
    # value of -1 or 2**8 is refused with the word check's error and
    # changes nothing
    cfg = TreeConfig(node_pairs=2 + buffer_pairs, pivot_pairs=2,
                     element_pairs=element_pairs,
                     strategy="bcw" if parallel else "dcw",
                     parallel_ports=parallel, encoding=encoding)
    tree = _byte_tree(store, cfg, len(ops))
    for key, value, bad, word in ops:
        if bad is not None:
            before = _upsert_state(tree)
            args = (word, value) if bad == "key" else (key, word)
            with pytest.raises(ConfigError,
                               match=f"^{bad} does not fit in 8 bits$"):
                tree.upsert(*args)
            assert _upsert_state(tree) == before
        # a leaf root takes the pair itself, and may split into an
        # internal root that buffers nothing yet
        leaf_root = tree.nodes[tree.root_id].kind == KIND_LEAF
        tree.upsert(key, value)
        if leaf_root:
            continue
        buf = tree.nodes[tree.root_id].buffer
        at = next(i for i, m in enumerate(buf) if m.seq == tree.seq)
        assert buf[at].key == key
        assert all(m.key <= key for m in buf[:at])
        assert all(m.key > key for m in buf[at + 1:])
        order = [(m.key, m.seq) for m in buf]
        assert order == sorted(order)
    tree.audit()


@settings(max_examples=300, deadline=None)
@given(store=st.sampled_from(["null", "word", "bit_interleaved"]),
       buffer_pairs=st.integers(1, 3), element_pairs=st.integers(1, 3),
       encoding=st.booleans(),
       strategy=st.sampled_from(["naive", "dcw", "bcw", "bcw+ports"]),
       ops=st.lists(st.tuples(st.booleans(), st.integers(0, 15),
                              st.integers(0, 255)), max_size=60))
def test_degenerate_shapes_match_the_oracle(store, buffer_pairs, element_pairs,
                                            encoding, strategy, ops):
    # two-pivot nodes with one to three buffer slots and tiny leaves: every
    # flush moves a whole child run and most merges split
    parallel = strategy == "bcw+ports"
    cfg = TreeConfig(node_pairs=2 + buffer_pairs, pivot_pairs=2,
                     element_pairs=element_pairs,
                     strategy=strategy.split("+")[0], parallel_ports=parallel,
                     encoding=encoding)
    tree = _byte_tree(store, cfg, len(ops))
    oracle = {}
    for upsert, key, value in ops:
        if upsert:
            tree.upsert(key, value)
            oracle[key] = value
        else:
            assert tree.query(key) == oracle.get(key)
    tree.audit()
    tree.flush_all()
    tree.audit()
    for key in range(16):
        assert tree.query(key) == oracle.get(key)
    if encoding:
        assert tree.arena.occupancy == 0


def _assert_bookkeeping(tree):
    """Each internal node's scan order is unset or its buffer newest first,
    and its free mask is exactly the buffer slots no message holds."""
    span = range(tree.cfg.pivot_pairs, tree.cfg.node_pairs)
    for node in tree.nodes.values():
        if node.kind == KIND_LEAF:
            continue
        if node.scan_order is not None:
            newest = sorted(node.buffer, key=lambda m: m.seq, reverse=True)
            slots, keys, msgs = node.scan_order
            assert slots == [m.slot for m in newest]
            assert keys == [m.key for m in newest]
            assert [id(m) for m in msgs] == [id(m) for m in newest]
        used = {m.slot for m in node.buffer}
        assert node._free == sum(1 << s for s in span if s not in used)


@settings(max_examples=300, deadline=None)
@given(store=st.sampled_from(["null", "word", "bit_interleaved"]),
       buffer_pairs=st.integers(1, 3), element_pairs=st.integers(1, 3),
       encoding=st.booleans(),
       ops=st.lists(st.tuples(st.booleans(), st.integers(0, 255),
                              st.integers(0, 255)),
                    min_size=20, max_size=120))
def test_scan_order_and_slot_masks_follow_every_buffer_change(
        store, buffer_pairs, element_pairs, encoding, ops):
    # queries between upserts leave scan orders cached all over the tree,
    # so a buffer change that keeps a stale one shows after that op; the
    # wide key range grows the internal levels whose splits move messages
    cfg = TreeConfig(node_pairs=2 + buffer_pairs, pivot_pairs=2,
                     element_pairs=element_pairs,
                     encoding=encoding)
    tree = _byte_tree(store, cfg, len(ops))
    for upsert, key, value in ops:
        if upsert:
            tree.upsert(key, value)
        else:
            tree.query(key)
        _assert_bookkeeping(tree)
    tree.flush_all()
    _assert_bookkeeping(tree)


class _ShadowDevice(Device):
    """A device that also keeps the image its writes should leave: the
    last value written to each slot, as the int its cells spell. A naive
    write clears the slot's whole span first; a compare write leaves the
    cells past `width` as they were. Nothing ever clears a dead slot."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.shadow = {}

    def _land(self, where, value, width, naive):
        kept = 0 if naive else self.shadow.get(where, 0) >> width << width
        self.shadow[where] = kept | value

    def write_words(self, track, writes, mode, parallel=False):
        super().write_words(track, writes, mode, parallel)
        for slot, value, width in writes:
            self._land((track.track_id, slot), value, width, mode == "naive")

    def bi_write_node(self, group, node_offset, pairs, key_rows, mode,
                      parallel):
        super().bi_write_node(group, node_offset, pairs, key_rows, mode,
                              parallel)
        naive = mode == "naive"
        for port, key, payload, width in pairs:
            where = group.group_id, port, node_offset
            if key is not None:
                self._land((*where, 0), key, key_rows, naive)
            if payload is not None:
                self._land((*where, key_rows), payload, width, naive)


@settings(max_examples=200, deadline=None)
@given(config=st.sampled_from(
           [("word", s) for s in ("naive", "dcw", "pw", "bcw", "bcw+ports")]
           + [("bit_interleaved", s)
              for s in ("naive", "dcw", "bcw", "bcw+ports")]),
       encoding=st.booleans(), buffer_pairs=st.integers(1, 3),
       ops=st.lists(st.tuples(st.booleans(), st.integers(0, 15),
                              st.integers(0, 255)), max_size=60))
def test_skyrmions_are_conserved_against_a_shadow_image(config, encoding,
                                                        buffer_pairs, ops):
    # after every op the device holds exactly the skyrmions of the words
    # last written to each slot, so no write loses or strands a skyrmion
    mapping, strategy = config
    cfg = TreeConfig(node_pairs=2 + buffer_pairs, pivot_pairs=2,
                     element_pairs=2,
                     strategy=strategy.split("+")[0],
                     parallel_ports=strategy == "bcw+ports", encoding=encoding)
    ports = cfg.node_pairs * (2 if mapping == "word" else 1)
    device = _ShadowDevice(Geometry(interport_bits=8,
                                    ports_per_track=ports), CostModel())
    tree = BeTree(DeviceStore(device, mapping, cfg, 8), cfg, 8,
                  planned_upserts=len(ops))
    for upsert, key, value in ops:
        if upsert:
            tree.upsert(key, value)
        else:
            tree.query(key)
        assert total_skyrmions(device) == sum(
            v.bit_count() for v in device.shadow.values())
    tree.flush_all()
    assert total_skyrmions(device) == sum(
        v.bit_count() for v in device.shadow.values())


# -------------------------------------------------------------- leaf merge

def _rewrite_leaf(tree, leaf, new_list):
    tree.store.write_pairs(leaf.node_id,
                           tree._pair_writes(leaf.elements, new_list))
    leaf.elements = new_list


def _dict_leaf_merge(tree, leaf, arrivals):
    """The leaf merge as a dict update and a full re-sort, with set lookups
    for the moved pairs: the reference for the merge walk."""
    old = leaf.elements
    old_keys = {k for k, _v in old}
    arrival_keys = {k for k, _v in arrivals}
    merged = dict(old)
    merged.update(arrivals)
    new_list = sorted(merged.items())
    tree.kv_writes += len(arrivals)
    cap = tree.cfg.element_pairs
    if len(new_list) <= cap:
        _rewrite_leaf(tree, leaf, new_list)
        return
    n_chunks = -(-len(new_list) // cap)
    base, extra = divmod(len(new_list), n_chunks)
    chunks, at = [], 0
    for i in range(n_chunks):
        size = base + (1 if i < extra else 0)
        chunks.append(new_list[at:at + size])
        at += size
    _rewrite_leaf(tree, leaf, chunks[0])
    left = leaf
    for chunk in chunks[1:]:
        sibling = tree._new_node(KIND_LEAF, left.parent)
        sibling.elements = chunk
        tree.store.write_pairs(
            sibling.node_id,
            [(i, k, v, tree.word_bits) for i, (k, v) in enumerate(chunk)])
        tree.kv_writes += sum(1 for k, _v in chunk
                              if k in old_keys and k not in arrival_keys)
        tree._on_split(left, chunk[0][0], sibling)
        left = sibling


def _merge_state(tree):
    nodes = {}
    for nid, node in tree.nodes.items():
        body = (node.elements if node.kind == KIND_LEAF
                else (node.pivots, [(m.key, m.payload, m.slot)
                                    for m in node.buffer]))
        nodes[nid] = (node.kind, node.parent, body)
    return nodes, tree.root_id, tree.height, tree.kv_writes


_PAIRS = st.dictionaries(st.integers(0, 63), st.integers(0, 255),
                         max_size=20)


@settings(max_examples=200, deadline=None)
@given(store=st.sampled_from(["null", "word", "bit_interleaved"]),
       strategy=st.sampled_from(["naive", "dcw"]),
       element_pairs=st.integers(1, 6), first=_PAIRS, second=_PAIRS)
def test_leaf_merge_walk_matches_the_dict_merge(store, strategy,
                                                element_pairs, first, second):
    # a root leaf takes a batch that fits, then one of any size: below,
    # at and above element_pairs, so it splits into up to 21 chunks and
    # grows the tree. Both trees must agree on every node, the height, the
    # kv_writes, and on a device on every counter and cell
    cfg = TreeConfig(node_pairs=6, pivot_pairs=2,
                     element_pairs=element_pairs, strategy=strategy)
    trees, devices = [], []
    for _ in range(2):
        if store == "null":
            tree = BeTree(NullStore(), cfg, 8)
        else:
            ports = cfg.node_pairs * (2 if store == "word" else 1)
            device = Device(Geometry(interport_bits=8, ports_per_track=ports),
                            CostModel(), record_steps=True)
            devices.append(device)
            tree = BeTree(DeviceStore(device, store, cfg, 8), cfg, 8)
        trees.append(tree)
    walk, ref = trees
    ref._leaf_merge = lambda leaf, arrivals: _dict_leaf_merge(ref, leaf,
                                                              arrivals)
    leaf = {id(t): t.nodes[t.root_id] for t in trees}
    for batch in (sorted(first.items())[:element_pairs],
                  sorted(second.items())):
        for tree in trees:
            tree._leaf_merge(leaf[id(tree)], list(batch))
        assert _merge_state(walk) == _merge_state(ref)
        if devices:
            assert (devices[0].counters.as_flat_dict()
                    == devices[1].counters.as_flat_dict())
            assert devices[0].counters.trace == devices[1].counters.trace
            assert _device_image(devices[0]) == _device_image(devices[1])
    walk.audit()
    want = dict(sorted(first.items())[:element_pairs])
    want.update(second)
    assert {k: v for n in walk.nodes.values() if n.kind == KIND_LEAF
            for k, v in n.elements} == want
