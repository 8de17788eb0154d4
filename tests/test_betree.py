"""Buffered-tree behaviour: oracle equivalence, arena bookkeeping, audits."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellimage import cell_image, load_image
from skrmbetree.betree import (BeTree, ValueArena, encoding_overhead_bytes,
                               index_bits_for, next_pow2)
from skrmbetree.config import CostModel, Geometry, TreeConfig
from skrmbetree.device import Device
from skrmbetree.errors import ArenaFullError, ConfigError, StructureError
from skrmbetree.layout import KIND_LEAF, DeviceStore, NullStore


def make_cfg(node_pairs=4, pivot_pairs=2, element_pairs=4, strategy="dcw",
             parallel=False, encoding=False, arena_capacity=None):
    return TreeConfig(node_pairs=node_pairs, pivot_pairs=pivot_pairs,
                      buffer_pairs=node_pairs - pivot_pairs,
                      element_pairs=element_pairs, strategy=strategy,
                      parallel_ports=parallel, encoding=encoding,
                      arena_capacity=arena_capacity)


def make_device_tree(mapping, strategy="dcw", parallel=False, encoding=False,
                     word_bits=16, planned=512, **cfg_kw):
    cfg = make_cfg(strategy=strategy, parallel=parallel, encoding=encoding,
                   **cfg_kw)
    ports = 2 * cfg.node_pairs if mapping == "word" else cfg.node_pairs
    geom = Geometry(word_bits=word_bits, interport_bits=word_bits,
                    ports_per_track=ports)
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


def _device_image(device):
    handles = list(device.tracks.values()) + list(device.groups.values())
    return [(cell_image(h), h.offset) for h in handles]


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
    geom = Geometry(word_bits=16, interport_bits=16, ports_per_track=ports,
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


def _read_key_by_key(tree, node, key):
    """The buffer scan as one read_key per message, newest first: the
    reference for what a scan charges."""
    for m in sorted(node.buffer, key=lambda m: -m.seq):
        if tree.store.read_key(node.node_id, m.slot, expect=m.key) == key:
            return m
    return None


@pytest.mark.parametrize("mapping", ("word", "bit_interleaved"))
def test_corrupt_buffered_key_fails_the_scan_at_the_same_read(mapping):
    # six-slot buffers; the corrupted message sits in the middle of the
    # newest-first order, so the scan pays for reads before it fails
    runs = []
    for reference in (False, True):
        tree, device = make_device_tree(mapping, node_pairs=8,
                                        element_pairs=4)
        for i in range(9):
            tree.upsert(i * 1000 + 7, i)
        root = tree.nodes[tree.root_id]
        newest = sorted(root.buffer, key=lambda m: -m.seq)
        assert len(newest) == 4
        victim = newest[2]
        if mapping == "word":
            tr = tree.store.layout.track_of(root.node_id)
            cells = cell_image(tr)
            cells[tr.slot_start(2 * victim.slot)] ^= 1
            load_image(tr, cells)
        else:
            group, offset = tree.store.layout.locate(root.node_id)
            cells = cell_image(group)
            cells[0, group.slot_start(victim.slot) + offset] ^= 1
            load_image(group, cells)
        if reference:
            tree._scan_buffer = (
                lambda node, key, tree=tree: _read_key_by_key(tree, node, key))
        device.counters.trace = []
        before = device.counters.snapshot()
        with pytest.raises(StructureError, match="key"):
            tree.query(victim.key)
        runs.append((device.counters.as_flat_dict(), device.counters.trace,
                     [(h.offset, cell_image(h).tobytes())
                      for h in (*device.tracks.values(),
                                *device.groups.values())]))
        # three keys read, the third one wrong
        assert device.counters.delta(before).detect == 3 * 16
    assert runs[0] == runs[1]


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
                     buffer_pairs=buffer_pairs, element_pairs=element_pairs,
                     strategy=strategy.split("+")[0], parallel_ports=parallel,
                     encoding=encoding)
    if store == "null":
        tree = BeTree(NullStore(), cfg, 8, planned_upserts=len(ops))
    else:
        ports = cfg.node_pairs * (2 if store == "word" else 1)
        geom = Geometry(word_bits=8, interport_bits=8, ports_per_track=ports)
        tree = BeTree(DeviceStore(Device(geom, CostModel()), store, cfg, 8),
                      cfg, 8, planned_upserts=len(ops))
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

    def write_serial(self, track, slot, value, width, mode):
        super().write_serial(track, slot, value, width, mode)
        self._land((track.track_id, slot), value, width, mode == "naive")

    def write_pw(self, track, slot, value, width):
        super().write_pw(track, slot, value, width)
        self._land((track.track_id, slot), value, width, False)

    def write_batch_bcw(self, track, writes):
        super().write_batch_bcw(track, writes)
        for slot, value, width in writes:
            self._land((track.track_id, slot), value, width, False)

    def bi_write_node(self, group, node_offset, words, mode, parallel):
        super().bi_write_node(group, node_offset, words, mode, parallel)
        for port, row_start, _span, width, value in words:
            self._land((group.group_id, port, node_offset, row_start), value,
                       width, mode == "naive")


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
                     buffer_pairs=buffer_pairs, element_pairs=2,
                     strategy=strategy.split("+")[0],
                     parallel_ports=strategy == "bcw+ports", encoding=encoding)
    ports = cfg.node_pairs * (2 if mapping == "word" else 1)
    device = _ShadowDevice(Geometry(word_bits=8, interport_bits=8,
                                    ports_per_track=ports), CostModel())
    tree = BeTree(DeviceStore(device, mapping, cfg, 8), cfg, 8,
                  planned_upserts=len(ops))
    for upsert, key, value in ops:
        if upsert:
            tree.upsert(key, value)
        else:
            tree.query(key)
        assert device.total_skyrmions() == sum(
            v.bit_count() for v in device.shadow.values())
    tree.flush_all()
    assert device.total_skyrmions() == sum(
        v.bit_count() for v in device.shadow.values())
