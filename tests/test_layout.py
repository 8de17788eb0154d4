"""Node placement and charged store accesses."""

import numpy as np
import pytest

from skrmbetree.config import (CostModel, ExperimentConfig, Geometry,
                               TreeConfig)
from skrmbetree.device import Device
from skrmbetree.errors import (CapacityError, ConfigError, PortRangeError,
                               StructureError)
from skrmbetree.layout import KIND_INTERNAL, KIND_LEAF, DeviceStore


def make_store(mapping, word_bits=16, strategy="bcw", parallel=True,
               ports=8, max_tracks=None, policy="lazy", record_steps=False):
    geom = Geometry(interport_bits=word_bits,
                    ports_per_track=ports, shift_policy=policy)
    dev = Device(geom, CostModel(), record_steps=record_steps)
    cfg = TreeConfig(node_pairs=4, pivot_pairs=2, element_pairs=4,
                     strategy=strategy, parallel_ports=parallel,
                     max_tracks=max_tracks)
    return DeviceStore(dev, mapping, cfg, word_bits)


def test_port_density_parity_between_mappings():
    word = ExperimentConfig(mapping="word").geometry()
    bit = ExperimentConfig(mapping="bit_interleaved").geometry()
    # same number of access ports per stored bit under both mappings
    word_bits_stored = word.ports_per_track * word.interport_bits
    bit_bits_stored = bit.ports_per_track * bit.interport_bits
    assert word.ports_per_track / word_bits_stored == \
        bit.ports_per_track / bit_bits_stored
    assert (word.interport_bits == bit.interport_bits
            == ExperimentConfig().word_bits)


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
    assert sorted(store.homes) == list(range(200))
    if mapping == "word":
        homes = {track.track_id for track in store.homes.values()}
    else:
        homes = {(group.group_id, offset)
                 for group, offset in store.homes.values()}
    assert len(homes) == 200


def test_bit_interleaved_pools_never_mix_kinds():
    store = make_store("bit_interleaved")
    kinds = {node_id: (KIND_INTERNAL, KIND_LEAF)[node_id % 2]
             for node_id in range(60)}
    for node_id, kind in kinds.items():
        store.add_node(node_id, kind)
    by_group = {}
    for node_id, (group, _offset) in store.homes.items():
        by_group.setdefault(group.group_id, set()).add(kinds[node_id])
    assert all(len(group_kinds) == 1 for group_kinds in by_group.values())


def test_word_placement_pins_every_home():
    # one new track per node in id order, then arena tracks added as a
    # slot on them is first used: slot i is word slot i % ports of arena
    # track i // ports
    store = make_store("word")
    dev, wb, ports = store.device, store.word_bits, 8
    for node_id in range(5):
        store.add_node(node_id, (KIND_INTERNAL, KIND_LEAF)[node_id % 2])
    node_tracks = list(dev.tracks.values())
    assert [store.homes[n] for n in range(5)] == node_tracks
    store.arena_write(3, 0x33, wb)
    assert len(store.arena) == 1
    store.arena_write(2 * ports + 5, 0x55, wb)
    assert len(store.arena) == 3
    assert list(dev.tracks.values()) == node_tracks + store.arena
    for index, value in ((3, 0x33), (2 * ports + 5, 0x55)):
        track = store.arena[index // ports]
        assert track.cells[index % ports + 1] == value
        assert store.peek_arena(index, wb) == value
    assert not dev.groups


@pytest.mark.parametrize("node_pairs", (16, 5))
@pytest.mark.parametrize("strategy", ("dcw", "bcw+ports"))
def test_word_layout_keys_then_payloads(node_pairs, strategy):
    # pair slot s keeps its key in word slot s (segment s + 1) and its
    # payload in word slot node_pairs + s (segment node_pairs + s + 1);
    # the peek and a charged node visit read the same words
    wb = 16
    geom = Geometry(interport_bits=wb, ports_per_track=2 * node_pairs)
    cfg = TreeConfig(node_pairs=node_pairs, pivot_pairs=2,
                     element_pairs=node_pairs,
                     strategy=strategy.split("+")[0],
                     parallel_ports=strategy == "bcw+ports")
    store = DeviceStore(Device(geom, CostModel()), "word", cfg, wb)
    store.add_node(0, KIND_LEAF)
    pairs = [(s, 0x100 + s, 0x8000 + 3 * s, wb) for s in range(node_pairs)]
    store.write_pairs(0, pairs)
    cells = store.homes[0].cells
    for s, key, payload, _width in pairs:
        assert cells[s + 1] == key
        assert cells[node_pairs + s + 1] == payload
        assert store.peek_pair(0, s, wb) == (key, payload)
    slots = list(range(node_pairs))[::-1]
    words = [cells[s + 1] for s in slots] + [cells[node_pairs + 2]]
    assert store.scan_keys(0, slots, words, (1, wb)) == words


def _assert_refuses_every_access(mapping, ports, bad):
    """Every access to pair slot `bad` of a 4-pair node, the uncharged
    peek too, raises PortRangeError before any cell, offset or counter
    changes."""
    store = make_store(mapping, ports=ports)
    store.add_node(0, KIND_LEAF)
    store.write_pairs(0, [(s, 100 + s, s, 16) for s in range(4)])
    home, dev = store.homes[0], store.device
    track = home if mapping == "word" else home[0]
    before = list(track.cells), track.offset, dev.counters.as_flat_dict()
    for access in (lambda: store.read_key(0, bad),
                   lambda: store.read_payload(0, bad, 16),
                   lambda: store.scan_keys(0, [1, bad], [101, 0]),
                   lambda: store.scan_keys(0, [1], [101, 0], (bad, 16)),
                   lambda: store.write_pairs(0, [(1, 7, None, 16),
                                                 (bad, 7, None, 16)]),
                   lambda: store.write_pairs(0, [(bad, None, 7, 16)]),
                   lambda: store.peek_pair(0, bad, 16)):
        with pytest.raises(PortRangeError,
                           match=f"(pair slot|port) {bad} outside"):
            access()
        assert before == (track.cells, track.offset,
                          dev.counters.as_flat_dict())


@pytest.mark.parametrize("bad", (-1, 4))
def test_word_store_refuses_a_pair_slot_that_would_alias(bad):
    # pair slots 4..7 are word slots of pairs 0..3's payloads, and -1 is
    # pair 3's key
    _assert_refuses_every_access("word", 8, bad)


@pytest.mark.parametrize("bad", (-1, 4))
def test_bit_interleaved_store_refuses_a_port_outside_the_group(bad):
    # on a 4-port group, port 4 would read the right overflow column and
    # -1 is no port at all
    _assert_refuses_every_access("bit_interleaved", 4, bad)


def test_bit_interleaved_placement_pins_every_home():
    # each kind fills the interport columns of its own 2 * word_bits-row
    # group in order; arena slot i sits in word_bits-row group
    # i // (ports * interport) at (port, offset) = divmod(i % (ports *
    # interport), interport)
    store = make_store("bit_interleaved")
    dev, wb = store.device, store.word_bits
    ports, interport = 8, wb
    for node_id in range(40):
        store.add_node(node_id, (KIND_INTERNAL, KIND_LEAF)[node_id % 2])
    node_groups = list(dev.groups.values())
    assert len(node_groups) == 4
    assert all(g.n_tracks == 2 * wb for g in node_groups)
    for node_id in range(40):
        rank = node_id // 2   # place among the nodes of its kind
        group = node_groups[node_id % 2 + 2 * (rank // interport)]
        assert store.homes[node_id] == (group, rank % interport)
    per_group = ports * interport
    indices = (0, 5, per_group - 1, per_group, per_group + 37)
    for index in indices:
        store.arena_write(index, index + 1, wb)
    assert len(store.arena) == 2
    assert list(dev.groups.values()) == node_groups + store.arena
    assert all(g.n_tracks == wb for g in store.arena)
    for index in indices:
        group = store.arena[index // per_group]
        port, offset = divmod(index % per_group, interport)
        assert group.cells[group.slot_start(port) + offset] == index + 1
        assert store.peek_arena(index, wb) == index + 1
    assert not dev.tracks


@pytest.mark.parametrize("mapping", ("word", "bit_interleaved"))
def test_placement_errors_are_typed_and_place_nothing(mapping):
    store = make_store(mapping)
    store.add_node(0, KIND_LEAF)
    dev = store.device
    tracks = dict(dev.tracks)
    groups = dict(dev.groups)
    homes = dict(store.homes)
    # the other kind has no group yet: a late duplicate check would make one
    for kind in (KIND_LEAF, KIND_INTERNAL):
        with pytest.raises(ConfigError, match="already placed"):
            store.add_node(0, kind)
    with pytest.raises(ConfigError, match="unknown mapping"):
        DeviceStore(dev, "bogus", store.cfg, store.word_bits)
    assert dev.tracks == tracks
    assert dev.groups == groups
    assert store.homes == homes


@pytest.mark.parametrize("mapping", ["word", "bit_interleaved"])
def test_a_store_refuses_a_word_wider_than_the_interport(mapping):
    # a word slot is one interport of cells: the geometry holds no word
    # size, so the store checks its own against the geometry
    store = make_store(mapping, word_bits=16)
    dev, cfg = store.device, store.cfg
    for wb in (1, 8, 16):
        assert DeviceStore(dev, mapping, cfg, wb).word_bits == wb
    for wb in (17, 64, 0):
        with pytest.raises(ConfigError, match="word_bits must be in"):
            DeviceStore(dev, mapping, cfg, wb)


def _store_state(store):
    dev = store.device
    return (dev.counters.as_flat_dict(), len(store.arena),
            dict(dev.tracks), dict(dev.groups), dict(store.homes),
            dict(store._pools),
            [list(t.cells) for t in (*dev.tracks.values(),
                                     *dev.groups.values())])


@pytest.mark.parametrize("mapping", ("word", "bit_interleaved"))
def test_store_refuses_a_negative_arena_slot_and_a_bad_kind(mapping):
    # -1 would index past the end of an empty arena list, and once an
    # arena track exists it would alias that track's last slot. Only a
    # write places arena tracks: a read or peek of slot 5000, on a track
    # or group never written, would place every one up to it
    store = make_store(mapping)
    store.add_node(0, KIND_LEAF)
    wb = store.word_bits
    for arena_in_use in (False, True):
        if arena_in_use:
            store.arena_write(0, 3, wb)
        before = _store_state(store)
        for index, access in ((-1, lambda: store.arena_write(-1, 5, wb)),
                              (-1, lambda: store.arena_read(-1, wb)),
                              (-1, lambda: store.peek_arena(-1, wb)),
                              (5000, lambda: store.arena_read(5000, wb)),
                              (5000, lambda: store.peek_arena(5000, wb))):
            with pytest.raises(PortRangeError, match=f"arena slot {index} "):
                access()
            assert _store_state(store) == before
        # a misspelt kind would open a pool of its own
        for kind in ("lef", None, KIND_LEAF.upper()):
            with pytest.raises(ConfigError, match="node kind"):
                store.add_node(1, kind)
            assert _store_state(store) == before
    assert store.peek_arena(0, wb) == 3
    assert len(store.arena) == 1
    # a write past the track budget places no arena track or group: 21
    # arena tracks of 8 slots, or 5 groups of 16 tracks, are refused whole
    store = make_store(mapping, max_tracks=5 if mapping == "word" else 40)
    before = _store_state(store)
    with pytest.raises(CapacityError):
        store.arena_write(160 if mapping == "word" else 600, 1, 16)
    assert _store_state(store) == before


def test_group_align_moves_every_track_equally():
    store = make_store("bit_interleaved")
    store.add_node(0, KIND_INTERNAL)
    group, offset = store.homes[0]
    dev = store.device
    steps = dev.align(group, 0) or 0
    before = dev.counters.snapshot()
    moved = dev.group_align(group, 5)
    d = dev.counters.delta(before)
    assert moved == 5
    assert d.shift == group.n_tracks * 5
    assert d.shift_steps == 5


def test_store_refuses_pw_on_the_bit_interleaved_mapping():
    # pw moves skyrmions along one track; a column write cannot, and the
    # store must refuse it rather than bill it as dcw
    make_store("word", strategy="pw", parallel=False)
    with pytest.raises(ConfigError, match="pw"):
        make_store("bit_interleaved", strategy="pw", parallel=False)


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


@pytest.mark.parametrize("policy", ("lazy", "eager"))
@pytest.mark.parametrize("mapping", ("word", "bit_interleaved"))
def test_peek_matches_charged_read_after_shifts(mapping, policy):
    # charged reads leave tracks and groups where their sweeps end (reading
    # node 1 displaces node 0's column), and one more shift moves every
    # home off offset 0: a peek reads the cells where they lie, so it sees
    # what the charged read after it sees, and charges and moves nothing
    store = make_store(mapping, policy=policy)
    dev, wb = store.device, store.word_bits
    pairs = {0: [(2, 0xBEEF, 0x1234, wb), (3, 0x0F0F, 0x5, 3)],
             1: [(2, 0xCAFE, 0x5678, wb), (0, 0x7, 0x1, 1)]}
    for node_id, writes in pairs.items():
        store.add_node(node_id, KIND_INTERNAL)
        store.write_pairs(node_id, writes)
    arena = {index: index * 41 + 5 for index in (0, 5, 17)}
    for index, value in arena.items():
        store.arena_write(index, value, wb)
        assert store.arena_read(index, wb) == value
    homes = [*dev.tracks.values(), *dev.groups.values()]
    for node_id in pairs:
        store.read_key(node_id, 2)
    for home in homes:
        dev.shift(home, "left", 1)
    assert all(home.offset for home in homes)

    def state():
        return dev.counters.as_flat_dict(), [home.offset for home in homes]

    for node_id, writes in pairs.items():
        for slot, key, payload, width in writes:
            before = state()
            peek = store.peek_pair(node_id, slot, width)
            assert state() == before
            assert peek == (store.read_key(node_id, slot),
                            store.read_payload(node_id, slot, width)) \
                == (key, payload)
    for index, value in arena.items():
        before = state()
        peek = store.peek_arena(index, wb)
        assert state() == before
        assert peek == store.arena_read(index, wb) == value


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
def test_scan_keys_bills_like_read_key_and_names_a_wrong_key(mapping):
    stores = [make_store(mapping) for _ in range(2)]
    for store in stores:
        store.add_node(0, KIND_INTERNAL)
        store.write_pairs(0, [(s, 100 + s, s, store.word_bits)
                              for s in range(4)])
    slots = [3, 1, 2, 0]
    keys = [100 + s for s in slots]
    scan, ref = stores
    before = scan.device.counters.as_flat_dict()
    # an empty scan reads nothing and moves nothing, not even an align,
    # and refuses an expected word it cannot read
    assert scan.scan_keys(0, [], []) == []
    with pytest.raises(ConfigError, match="1 expected words for a pass of 0"):
        scan.scan_keys(0, [], [5])
    assert scan.device.counters.as_flat_dict() == before
    assert scan.scan_keys(0, slots, keys) == [103, 101, 102, 100]
    assert [ref.read_key(0, s, expect=100 + s) for s in slots] == \
        [103, 101, 102, 100]
    assert (scan.device.counters.as_flat_dict()
            == ref.device.counters.as_flat_dict())
    # the first key that differs from the tree's is the one named
    with pytest.raises(StructureError, match="node 0 slot 1 key: device "
                       "holds 0x65, tree expected 0x3e7"):
        scan.scan_keys(0, slots, [103, 999, 102, 998])


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
    visits = [(slots, keys, 0, 3),      # keys, then a narrower payload
              ([], [], 2, 5),           # an empty key list: payload only
              (slots[:1], keys[:1], 3, 6)]
    for pair_slots, want_keys, pay_slot, want in visits:
        got = scan.scan_keys(0, pair_slots, want_keys + [want], (pay_slot, 5))
        assert got == want_keys + [want]
        for s, k in zip(pair_slots, want_keys):
            ref.read_key(0, s, expect=k)
        ref.read_payload(0, pay_slot, 5, expect=want)
        assert (scan.device.counters.as_flat_dict()
                == ref.device.counters.as_flat_dict())
    # a wrong key is named before a wrong payload; a wrong payload alone
    # is named as one
    with pytest.raises(StructureError, match="node 0 slot 1 key"):
        scan.scan_keys(0, slots, [103, 999, 102, 4], (0, 5))
    with pytest.raises(StructureError, match="node 0 slot 0 payload: device "
                       "holds 0x3, tree expected 0x4"):
        scan.scan_keys(0, slots, keys + [4], (0, 5))
    # an expectation list of the wrong length is refused
    with pytest.raises(ConfigError, match="3 expected words for a pass of 4"):
        scan.scan_keys(0, slots, keys, (0, 5))


@pytest.mark.parametrize("mapping", ("word", "bit_interleaved"))
@pytest.mark.parametrize("policy", ("lazy", "eager"))
def test_scan_keys_full_width_payload_bills_like_read_payload_after_the_keys(
        mapping, policy):
    # a payload as wide as the keys (an internal miss's child id, or a
    # buffer hit without encoding) is, on the word mapping, one more read
    # of the key pass; pair slot s holds key 100 + s and payload 0xA000 + s
    stores = [make_store(mapping, policy=policy, record_steps=True)
              for _ in range(2)]
    for store in stores:
        store.add_node(0, KIND_INTERNAL)
        store.write_pairs(0, [(s, 100 + s, 0xA000 + s, 16) for s in range(4)])
    scan, ref = stores
    home = scan.homes[0] if mapping == "word" else scan.homes[0][0]
    ref_home = ref.homes[0] if mapping == "word" else ref.homes[0][0]
    # visits chained so each starts where the last left the track: both
    # sweep ends, a payload only, a payload slot that is also a key slot
    visits = [([3, 1, 2], 0), ([0], 2), ([], 1), ([2, 0, 3, 1], 3),
              ([1, 1], 1), ([], 0), ([3], 3)]
    for pair_slots, pay_slot in visits:
        keys = [100 + s for s in pair_slots]
        want = keys + [0xA000 + pay_slot]
        assert scan.scan_keys(0, pair_slots, want, (pay_slot, 16)) == want
        got = [ref.read_key(0, s, expect=100 + s) for s in pair_slots]
        got.append(ref.read_payload(0, pay_slot, 16, expect=0xA000 + pay_slot))
        assert got == want
        assert home.offset == ref_home.offset
        assert (scan.device.counters.as_flat_dict()
                == ref.device.counters.as_flat_dict())
        assert scan.device.counters.trace == ref.device.counters.trace
    # a wrong folded payload is named as a payload, even where its pair
    # slot is also one of the pass's key slots
    with pytest.raises(StructureError, match="node 0 slot 1 payload: device "
                       "holds 0xa001, tree expected 0xa002"):
        scan.scan_keys(0, [1, 2], [101, 102, 0xA002], (1, 16))
    with pytest.raises(StructureError, match="node 0 slot 3 payload"):
        scan.scan_keys(0, [], [0xA000], (3, 16))
