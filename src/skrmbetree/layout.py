"""Placement of tree nodes and the value arena onto the device.

Two mappings:

word mapping
    One track per node. Pair slot s owns two word slots: 2s holds the key,
    2s+1 the payload. A track therefore carries 2 * node_pairs ports.

bit_interleaved mapping
    Nodes share groups of 2 * word_bits tracks that shift in lockstep. Key
    bit b lives on row b, payload bit b on row word_bits + b. A node is one
    column offset inside every interport region, so a group holds
    ports_per_track * interport_bits nodes and pair slot s sits under port
    s. Detecting or flipping a whole word is a per-port pulse across rows,
    which is where port parallelism pays.

Groups never mix node kinds: internal nodes, leaves and arena rows shift on
different groups so a hot buffer never drags leaf tracks around.
"""

from __future__ import annotations

from . import strategies
from .errors import CapacityError, ConfigError, StructureError

KIND_INTERNAL = "internal"
KIND_LEAF = "leaf"
KIND_ARENA = "arena"


def _check_track_budget(device, max_tracks, need: int = 1) -> None:
    if max_tracks is None:
        return
    used = len(device.tracks) + sum(g.n_tracks for g in device.groups.values())
    if used + need > max_tracks:
        raise CapacityError(
            f"track budget {max_tracks} exhausted ({used} in use, {need} more needed)")


class WordBasedLayout:
    mapping = "word"

    def __init__(self, device, max_tracks=None):
        self.device = device
        self.max_tracks = max_tracks
        self.assignments: dict[int, object] = {}   # node_id -> Racetrack
        self.kinds: dict[int, str] = {}

    def place_node(self, node_id: int, kind: str):
        if node_id in self.assignments:
            raise ConfigError(f"node {node_id} already placed")
        _check_track_budget(self.device, self.max_tracks)
        tr = self.device.new_track()
        self.assignments[node_id] = tr
        self.kinds[node_id] = kind
        return tr

    def track_of(self, node_id: int):
        return self.assignments[node_id]

    def key_slot(self, pair_slot: int) -> int:
        return 2 * pair_slot

    def payload_slot(self, pair_slot: int) -> int:
        return 2 * pair_slot + 1

    def to_json(self) -> dict:
        return {"mapping": self.mapping,
                "nodes": {str(n): {"track": t.track_id, "kind": self.kinds[n]}
                          for n, t in sorted(self.assignments.items())}}


class BitInterleavedLayout:
    mapping = "bit_interleaved"

    def __init__(self, device, word_bits: int, max_tracks=None):
        self.device = device
        self.word_bits = word_bits
        self.max_tracks = max_tracks
        # pair slot s sits under port s, so one column offset holds a whole
        # node and a group packs interport_bits of them
        self.nodes_per_group = device.geom.interport_bits
        self.assignments: dict[int, tuple[int, int, str]] = {}
        self._pools: dict[str, tuple[int, int]] = {}  # kind -> (group_id, fill)

    def place_node(self, node_id: int, kind: str):
        if node_id in self.assignments:
            raise ConfigError(f"node {node_id} already placed")
        pool = self._pools.get(kind)
        if pool is None or pool[1] >= self.nodes_per_group:
            rows = 2 * self.word_bits
            _check_track_budget(self.device, self.max_tracks, rows)
            g = self.device.new_group(rows)
            pool = (g.group_id, 0)
        group_id, fill = pool
        self._pools[kind] = (group_id, fill + 1)
        self.assignments[node_id] = (group_id, fill, kind)
        return self.device.groups[group_id], fill

    def locate(self, node_id: int):
        group_id, offset, _kind = self.assignments[node_id]
        return self.device.groups[group_id], offset

    def to_json(self) -> dict:
        return {"mapping": self.mapping,
                "nodes": {str(n): {"group": g, "offset": o, "kind": k}
                          for n, (g, o, k) in sorted(self.assignments.items())}}


class _WordArenaMap:
    """Arena slots on the word mapping: plain tracks, one value per word
    slot, filled in index order."""

    def __init__(self, device, max_tracks=None):
        self.device = device
        self.max_tracks = max_tracks
        self.track_ids: list[int] = []
        self.slots_per_track = device.geom.ports_per_track

    def locate(self, index: int):
        t, slot = divmod(index, self.slots_per_track)
        while t >= len(self.track_ids):
            _check_track_budget(self.device, self.max_tracks)
            self.track_ids.append(self.device.new_track().track_id)
        return self.device.track(self.track_ids[t]), slot

    def to_json(self) -> dict:
        return {"tracks": list(self.track_ids),
                "slots_per_track": self.slots_per_track}


class _BiArenaMap:
    """Arena slots on the bit-interleaved mapping: word_bits-row groups, one
    value per (port, column) cell."""

    def __init__(self, device, word_bits: int, max_tracks=None):
        self.device = device
        self.word_bits = word_bits
        self.max_tracks = max_tracks
        geom = device.geom
        self.slots_per_group = geom.ports_per_track * geom.interport_bits
        self.group_ids: list[int] = []

    def locate(self, index: int):
        g, r = divmod(index, self.slots_per_group)
        while g >= len(self.group_ids):
            _check_track_budget(self.device, self.max_tracks, self.word_bits)
            self.group_ids.append(self.device.new_group(self.word_bits).group_id)
        interport = self.device.geom.interport_bits
        port, offset = divmod(r, interport)
        return self.device.groups[self.group_ids[g]], port, offset

    def to_json(self) -> dict:
        return {"groups": list(self.group_ids),
                "slots_per_group": self.slots_per_group}


class DeviceStore:
    """Charged access path between the tree and the device.

    Owns placement, translates pair-slot reads/writes into passes under the
    configured strategy, and asserts that what the cells hold matches what
    the caller expects (a mismatch means the simulation lost data).
    """

    has_device = True

    def __init__(self, device, mapping: str, tree_cfg, word_bits: int):
        self.device = device
        self.mapping = mapping
        self.cfg = tree_cfg
        self.word_bits = word_bits
        self.parallel = tree_cfg.parallel_ports
        self.strategy = tree_cfg.strategy
        if mapping == "word":
            self.layout = WordBasedLayout(device, tree_cfg.max_tracks)
            self.arena_map = _WordArenaMap(device, tree_cfg.max_tracks)
        elif mapping == "bit_interleaved":
            self.layout = BitInterleavedLayout(device, word_bits,
                                               tree_cfg.max_tracks)
            self.arena_map = _BiArenaMap(device, word_bits, tree_cfg.max_tracks)
        else:
            raise ConfigError(f"unknown mapping {mapping!r}")

    # ------------------------------------------------------------- placement

    def add_node(self, node_id: int, kind: str) -> None:
        self.layout.place_node(node_id, kind)

    def allocation_json(self) -> dict:
        out = self.layout.to_json()
        out["arena"] = self.arena_map.to_json()
        return out

    # ----------------------------------------------------------------- reads

    @staticmethod
    def _checked(got: int, expect, what: str, *where) -> int:
        # the message is built only on a mismatch: reads run hot
        if expect is not None and got != expect:
            raise StructureError(f"{what.format(*where)}: device holds "
                                 f"{got:#x}, tree expected {expect:#x}")
        return got

    def read_key(self, node_id: int, pair_slot: int, expect=None) -> int:
        if self.mapping == "word":
            tr = self.layout.track_of(node_id)
            got = self.device.read_word(tr, self.layout.key_slot(pair_slot),
                                        self.word_bits)
        else:
            group, offset = self.layout.locate(node_id)
            self.device.group_align(group, offset)
            got = self.device.bi_read_word(group, pair_slot, offset, 0,
                                           self.word_bits)
        return self._checked(got, expect, "node {} slot {} key", node_id,
                             pair_slot)

    def scan_keys(self, node_id: int, pair_slots, expect,
                  payload=None) -> list[int]:
        """Read the keys of `pair_slots` in order, then the payload
        `payload` names, as one charged pass: a node visit. Each key read
        must equal its entry in `expect`; the pass stops at the first that
        does not, and that one raises with no payload read. `payload` is
        ``(pair_slot, width, expected)``, and the payload read must equal
        its expected value too. Returns the words read, the payload last."""
        if not pair_slots and payload is None:
            return []
        device, wb = self.device, self.word_bits
        if self.mapping == "word":
            # pair slot s is word slots 2s (key) and 2s + 1 (payload), as
            # WordBasedLayout.key_slot and payload_slot place them
            got = device.scan_words(
                self.layout.track_of(node_id), [2 * s for s in pair_slots],
                wb, expect,
                None if payload is None else (2 * payload[0] + 1, payload[1]))
        else:
            group, offset = self.layout.locate(node_id)
            device.group_align(group, offset)
            got = device.bi_scan_words(
                group, pair_slots, offset, 0, wb, expect,
                None if payload is None else (payload[0], wb, payload[1]))
        last = len(got) - 1
        if last < len(pair_slots):
            self._checked(got[last], expect[last], "node {} slot {} key",
                          node_id, pair_slots[last])
        else:
            self._checked(got[last], payload[2], "node {} slot {} payload",
                          node_id, payload[0])
        return got

    def read_payload(self, node_id: int, pair_slot: int, width: int,
                     expect=None) -> int:
        if self.mapping == "word":
            tr = self.layout.track_of(node_id)
            got = self.device.read_word(tr, self.layout.payload_slot(pair_slot),
                                        width)
        else:
            group, offset = self.layout.locate(node_id)
            self.device.group_align(group, offset)
            got = self.device.bi_read_word(group, pair_slot, offset,
                                           self.word_bits, width)
        return self._checked(got, expect, "node {} slot {} payload", node_id,
                             pair_slot)

    # ---------------------------------------------------------------- writes

    def write_pairs(self, node_id: int, writes) -> None:
        """writes: list of (pair_slot, key, payload, payload_width); key or
        payload may be None to leave that word untouched."""
        if not writes:
            return
        if self.mapping == "word":
            self._write_pairs_word(node_id, writes)
        else:
            self._write_pairs_bi(node_id, writes)

    def _write_pairs_word(self, node_id, writes):
        layout, wb = self.layout, self.word_bits
        tr = layout.track_of(node_id)
        word_writes = []
        for pair_slot, key, payload, pwidth in writes:
            if key is not None:
                word_writes.append((layout.key_slot(pair_slot), key, wb))
            if payload is not None:
                word_writes.append((layout.payload_slot(pair_slot), payload,
                                    pwidth))
        strategies.apply_strategy(self.device, tr, word_writes, self.strategy,
                                  self.parallel)

    def _write_pairs_bi(self, node_id, writes):
        group, offset = self.layout.locate(node_id)
        self.device.group_align(group, offset)
        wb = self.word_bits
        words = []
        for pair_slot, key, payload, pwidth in writes:
            if key is not None:
                words.append((pair_slot, 0, wb, wb, key))
            if payload is not None:
                words.append((pair_slot, wb, wb, pwidth, payload))
        # naive clears the whole row span; compare strategies flip in place
        self.device.bi_write_node(
            group, offset, words,
            "naive" if self.strategy == "naive" else "dcw", self.parallel)

    # ----------------------------------------------------------------- arena

    def arena_write(self, index: int, value: int, width: int) -> None:
        # values are spilled once per upsert; compare-write keeps that cheap
        if self.mapping == "word":
            tr, slot = self.arena_map.locate(index)
            self.device.write_serial(tr, slot, value, width, "dcw")
        else:
            group, port, offset = self.arena_map.locate(index)
            self.device.group_align(group, offset)
            self.device.bi_write_node(
                group, offset, [(port, 0, self.word_bits, width, value)],
                "dcw", self.parallel)

    def arena_read(self, index: int, width: int, expect=None) -> int:
        if self.mapping == "word":
            tr, slot = self.arena_map.locate(index)
            got = self.device.read_word(tr, slot, width)
        else:
            group, port, offset = self.arena_map.locate(index)
            self.device.group_align(group, offset)
            got = self.device.bi_read_word(group, port, offset, 0, width)
        return self._checked(got, expect, "arena slot {}", index)

    # ------------------------------------------------- uncharged verification

    def peek_pair(self, node_id: int, pair_slot: int,
                  payload_width: int) -> tuple[int, int]:
        wb = self.word_bits
        if self.mapping == "word":
            # word slot w is the track's segment w + 1
            cells = self.layout.track_of(node_id).cells
            key = cells[self.layout.key_slot(pair_slot) + 1]
            payload = cells[self.layout.payload_slot(pair_slot) + 1]
        else:
            # cells never move; a node's column for port p is the fixed
            # index slot_start(p) + offset whatever the alignment
            group, offset = self.layout.locate(node_id)
            col = group.cells[group.slot_start(pair_slot) + offset]
            key, payload = col, col >> wb
        return key & ((1 << wb) - 1), payload & ((1 << payload_width) - 1)

    def peek_arena(self, index: int, width: int) -> int:
        if self.mapping == "word":
            tr, slot = self.arena_map.locate(index)
            word = tr.cells[slot + 1]
        else:
            group, port, offset = self.arena_map.locate(index)
            word = group.cells[group.slot_start(port) + offset]
        return word & ((1 << width) - 1)


class NullStore:
    """Logical-only stand-in: same surface as DeviceStore, no device, no
    cost. Used for pure structure work such as write-count experiments."""

    has_device = False

    def add_node(self, node_id, kind):
        pass

    def write_pairs(self, node_id, writes):
        pass

    def read_key(self, node_id, pair_slot, expect=None):
        return expect

    def read_payload(self, node_id, pair_slot, width, expect=None):
        return expect

    def arena_write(self, index, value, width):
        pass

    def arena_read(self, index, width, expect=None):
        return expect

    def allocation_json(self):
        return {"mapping": None, "nodes": {}, "arena": {}}
