"""Node placement and charged store accesses."""

import numpy as np
import pytest

from skrmbetree.config import (CostModel, ExperimentConfig, Geometry,
                               TreeConfig)
from skrmbetree.device import Device
from skrmbetree.errors import CapacityError, StructureError
from skrmbetree.layout import KIND_INTERNAL, KIND_LEAF, DeviceStore


def make_store(mapping, word_bits=16, strategy="bcw", parallel=True,
               ports=8, max_tracks=None):
    geom = Geometry(word_bits=word_bits, interport_bits=word_bits,
                    ports_per_track=ports)
    dev = Device(geom, CostModel())
    cfg = TreeConfig(node_pairs=4, pivot_pairs=2, buffer_pairs=2,
                     element_pairs=4, strategy=strategy,
                     parallel_ports=parallel, max_tracks=max_tracks)
    return DeviceStore(dev, mapping, cfg, word_bits)


def test_port_density_parity_between_mappings():
    word = ExperimentConfig(mapping="word").geometry()
    bit = ExperimentConfig(mapping="bit_interleaved").geometry()
    # same number of access ports per stored bit under both mappings
    word_bits_stored = word.ports_per_track * word.interport_bits
    bit_bits_stored = bit.ports_per_track * bit.interport_bits
    assert word.ports_per_track / word_bits_stored == \
        bit.ports_per_track / bit_bits_stored
    assert word.interport_bits == bit.interport_bits == word.word_bits


@pytest.mark.parametrize("mapping", ("word", "bit_interleaved"))
def test_node_image_round_trip(mapping):
    # >= 500 random node images survive a write/read cycle bit for bit
    rng = np.random.default_rng(1)
    store = make_store(mapping)
    wb = store.word_bits
    for node_id in range(500):
        kind = KIND_LEAF if node_id % 2 else KIND_INTERNAL
        store.add_node(node_id, kind)
        image = [(slot, int(rng.integers(0, 2**wb)),
                  int(rng.integers(0, 2**wb)), wb)
                 for slot in range(store.cfg.node_pairs)]
        store.write_pairs(node_id, image)
        for slot, key, payload, width in image:
            assert store.read_key(node_id, slot) == key
            assert store.read_payload(node_id, slot, width) == payload


@pytest.mark.parametrize("mapping", ("word", "bit_interleaved"))
def test_allocation_injectivity(mapping):
    store = make_store(mapping)
    for node_id in range(200):
        store.add_node(node_id, (KIND_INTERNAL, KIND_LEAF)[node_id % 2])
    alloc = store.allocation_json()["nodes"]
    assert len(alloc) == 200
    if mapping == "word":
        homes = {entry["track"] for entry in alloc.values()}
    else:
        homes = {(entry["group"], entry["offset"]) for entry in alloc.values()}
    assert len(homes) == 200


def test_bit_interleaved_pools_never_mix_kinds():
    store = make_store("bit_interleaved")
    for node_id in range(60):
        store.add_node(node_id, (KIND_INTERNAL, KIND_LEAF)[node_id % 2])
    alloc = store.allocation_json()["nodes"]
    by_group = {}
    for entry in alloc.values():
        by_group.setdefault(entry["group"], set()).add(entry["kind"])
    assert all(len(kinds) == 1 for kinds in by_group.values())


def test_group_align_moves_every_track_equally():
    store = make_store("bit_interleaved")
    store.add_node(0, KIND_INTERNAL)
    group, offset = store.layout.locate(0)
    dev = store.device
    steps = dev.align(group, 0) or 0
    before = dev.counters.snapshot()
    moved = dev.group_align(group, 5)
    d = dev.counters.delta(before)
    assert moved == 5
    assert d.shift == group.n_tracks * 5
    assert d.shift_steps == 5


def test_track_budget_enforced_word():
    store = make_store("word", max_tracks=2)
    store.add_node(0, KIND_INTERNAL)
    store.add_node(1, KIND_LEAF)
    with pytest.raises(CapacityError):
        store.add_node(2, KIND_LEAF)


def test_track_budget_enforced_bit():
    # one group of 2 * word_bits tracks exhausts a 40-track budget
    store = make_store("bit_interleaved", max_tracks=40)
    store.add_node(0, KIND_INTERNAL)
    with pytest.raises(CapacityError):
        store.add_node(1, KIND_LEAF)


def test_expectation_mismatch_raises():
    store = make_store("word")
    store.add_node(0, KIND_LEAF)
    store.write_pairs(0, [(0, 7, 9, store.word_bits)])
    with pytest.raises(StructureError):
        store.read_key(0, 0, expect=8)


def test_partial_pair_write_leaves_other_word():
    store = make_store("word")
    store.add_node(0, KIND_LEAF)
    store.write_pairs(0, [(1, 111, 222, store.word_bits)])
    store.write_pairs(0, [(1, None, 333, store.word_bits)])
    assert store.read_key(0, 1) == 111
    assert store.read_payload(0, 1, store.word_bits) == 333


def test_arena_round_trip_and_peek():
    for mapping in ("word", "bit_interleaved"):
        store = make_store(mapping)
        for index in (0, 3, 17):
            store.arena_write(index, index * 41 + 5, store.word_bits)
        for index in (0, 3, 17):
            assert store.arena_read(index, store.word_bits) == index * 41 + 5
            assert store.peek_arena(index, store.word_bits) == index * 41 + 5


def test_peek_matches_charged_read_after_shifts():
    store = make_store("bit_interleaved")
    store.add_node(0, KIND_INTERNAL)
    store.add_node(1, KIND_INTERNAL)
    store.write_pairs(0, [(2, 0xBEEF, 0x1234, store.word_bits)])
    store.write_pairs(1, [(2, 0xCAFE, 0x5678, store.word_bits)])
    # aligning node 1 displaces node 0's column; peeks must still see it
    assert store.peek_pair(0, 2, store.word_bits) == (0xBEEF, 0x1234)
    assert store.read_key(0, 2) == 0xBEEF


def test_node_read_detects_per_mapping():
    # reading 4 pairs is 8 words: the word mapping streams every bit past
    # one port, one detect step each; bit-interleaved senses a word's rows
    # in one simultaneous fire
    for mapping in ("word", "bit_interleaved"):
        store = make_store(mapping)
        wb = store.word_bits
        store.add_node(0, KIND_INTERNAL)
        store.write_pairs(0, [(s, s + 1, s + 2, wb) for s in range(4)])
        before = store.device.counters.snapshot()
        for s in range(4):
            assert store.read_key(0, s) == s + 1
            assert store.read_payload(0, s, wb) == s + 2
        d = store.device.counters.delta(before)
        assert d.detect == 8 * wb
        assert d.detect_steps == (8 * wb if mapping == "word" else 8)


@pytest.mark.parametrize("mapping", ("word", "bit_interleaved"))
def test_scan_keys_stops_at_a_wrong_key_and_bills_like_read_key(mapping):
    stores = [make_store(mapping) for _ in range(2)]
    for store in stores:
        store.add_node(0, KIND_INTERNAL)
        store.write_pairs(0, [(s, 100 + s, s, store.word_bits)
                              for s in range(4)])
    slots = [3, 1, 2, 0]
    keys = [100 + s for s in slots]
    scan, ref = stores
    before = scan.device.counters.as_flat_dict()
    # an empty scan reads nothing and moves nothing, not even an align
    assert scan.scan_keys(0, [], []) == []
    assert scan.device.counters.as_flat_dict() == before
    assert scan.scan_keys(0, slots, keys) == [103, 101, 102, 100]
    assert [ref.read_key(0, s, expect=100 + s) for s in slots] == \
        [103, 101, 102, 100]
    assert (scan.device.counters.as_flat_dict()
            == ref.device.counters.as_flat_dict())
    # the second key read is not the one expected: the pass pays for two
    # reads, as read_key would up to its raise, and the store raises
    with pytest.raises(StructureError, match="slot 1 key"):
        scan.scan_keys(0, slots, [103, 999, 102, 100])
    with pytest.raises(StructureError, match="slot 1 key"):
        for s, want in zip(slots, [103, 999, 102, 100]):
            ref.read_key(0, s, expect=want)
    assert (scan.device.counters.as_flat_dict()
            == ref.device.counters.as_flat_dict())


@pytest.mark.parametrize("mapping", ("word", "bit_interleaved"))
def test_scan_keys_payload_read_bills_like_read_payload_after_the_keys(
        mapping):
    # pair slot s holds key 100 + s and a 5-bit payload s + 3
    stores = [make_store(mapping) for _ in range(2)]
    for store in stores:
        store.add_node(0, KIND_INTERNAL)
        store.write_pairs(0, [(s, 100 + s, s + 3, 5) for s in range(4)])
    scan, ref = stores
    slots = [3, 1, 2]
    keys = [100 + s for s in slots]
    visits = [(slots, keys, (0, 5, 3)),     # keys, then a narrower payload
              ([], [], (2, 5, 5)),          # an empty key list: payload only
              (slots[:1], keys[:1], (3, 5, 6))]
    for pair_slots, want_keys, payload in visits:
        got = scan.scan_keys(0, pair_slots, want_keys, payload)
        assert got == want_keys + [payload[2]]
        for s, k in zip(pair_slots, want_keys):
            ref.read_key(0, s, expect=k)
        ref.read_payload(0, payload[0], payload[1], expect=payload[2])
        assert (scan.device.counters.as_flat_dict()
                == ref.device.counters.as_flat_dict())
    # a wrong key stops the pass before the payload read, which is never
    # paid for; a wrong payload raises after its read
    with pytest.raises(StructureError, match="slot 1 key"):
        scan.scan_keys(0, slots, [103, 999, 102], (0, 5, 3))
    with pytest.raises(StructureError, match="slot 1 key"):
        for s, want in zip(slots, [103, 999, 102]):
            ref.read_key(0, s, expect=want)
    assert (scan.device.counters.as_flat_dict()
            == ref.device.counters.as_flat_dict())
    with pytest.raises(StructureError, match="slot 0 payload"):
        scan.scan_keys(0, slots, keys, (0, 5, 4))
    for s, k in zip(slots, keys):
        ref.read_key(0, s, expect=k)
    with pytest.raises(StructureError, match="slot 0 payload"):
        ref.read_payload(0, 0, 5, expect=4)
    assert (scan.device.counters.as_flat_dict()
            == ref.device.counters.as_flat_dict())
