"""Placement of tree nodes and the value arena onto the device.

Two mappings:

word mapping
    One track per node, in id order. Pair slot s owns two word slots: 2s
    holds the key, 2s+1 the payload. A track therefore carries
    2 * node_pairs ports. Arena slot i is word slot i % ports_per_track of
    arena track i // ports_per_track; arena tracks are added when a slot
    on them is first used.

bit_interleaved mapping
    Nodes share groups of 2 * word_bits tracks that shift in lockstep. Key
    bit b lives on row b, payload bit b on row word_bits + b. A node is one
    column offset inside every interport region, so a group holds
    interport_bits nodes, filled in order, and pair slot s sits under port
    s. Detecting or flipping a whole word is a per-port pulse across rows,
    which is where port parallelism pays. Arena slot i lives in word_bits-row
    group i // (ports * interport), at (port, offset) =
    divmod(i % (ports * interport), interport).

Groups never mix node kinds: internal nodes, leaves and arena rows shift on
different groups so a hot buffer never drags leaf tracks around. The track
budget (max_tracks) is checked before every new track or group.
"""

from __future__ import annotations

from . import strategies
from .errors import CapacityError, ConfigError, StructureError

KIND_INTERNAL = "internal"
KIND_LEAF = "leaf"


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
        geom = device.geom
        if mapping == "word":
            self._arena_slots = geom.ports_per_track
        elif mapping == "bit_interleaved":
            if self.strategy == "pw":
                raise ConfigError("pw is a single-word word-based strategy; "
                                  "it cannot drive the bit_interleaved "
                                  "mapping")
            self._arena_slots = geom.ports_per_track * geom.interport_bits
        else:
            raise ConfigError(f"unknown mapping {mapping!r}")
        # node id -> its Racetrack (word) or (group, column offset)
        self.homes: dict[int, object] = {}
        # bit-interleaved: kind -> (group being filled, columns used)
        self._pools: dict[str, tuple[object, int]] = {}
        # arena tracks (word) or word_bits-row groups, in index order
        self.arena: list = []

    # ------------------------------------------------------------- placement

    def _budget(self, need: int) -> None:
        max_tracks = self.cfg.max_tracks
        if max_tracks is None:
            return
        used = len(self.device.tracks) + sum(
            g.n_tracks for g in self.device.groups.values())
        if used + need > max_tracks:
            raise CapacityError(f"track budget {max_tracks} exhausted "
                                f"({used} in use, {need} more needed)")

    def add_node(self, node_id: int, kind: str) -> None:
        if node_id in self.homes:
            raise ConfigError(f"node {node_id} already placed")
        if self.mapping == "word":
            self._budget(1)
            self.homes[node_id] = self.device.new_track()
            return
        columns = self.device.geom.interport_bits
        group, used = self._pools.get(kind, (None, columns))
        if used == columns:
            self._budget(2 * self.word_bits)
            group, used = self.device.new_group(2 * self.word_bits), 0
        self._pools[kind] = (group, used + 1)
        self.homes[node_id] = (group, used)

    def _arena_at(self, index: int):
        """Home of arena slot `index` as (track or group, port, column
        offset); on the word mapping the offset is always 0."""
        n, cell = divmod(index, self._arena_slots)
        while n >= len(self.arena):
            if self.mapping == "word":
                self._budget(1)
                self.arena.append(self.device.new_track())
            else:
                self._budget(self.word_bits)
                self.arena.append(self.device.new_group(self.word_bits))
        if self.mapping == "word":
            return self.arena[n], cell, 0
        port, offset = divmod(cell, self.device.geom.interport_bits)
        return self.arena[n], port, offset

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
            got = self.device.read_word(self.homes[node_id], 2 * pair_slot,
                                        self.word_bits)
        else:
            group, offset = self.homes[node_id]
            got = self.device.bi_read_word(group, pair_slot, offset, 0,
                                           self.word_bits)
        return self._checked(got, expect, "node {} slot {} key", node_id,
                             pair_slot)

    def scan_keys(self, node_id: int, pair_slots, expect,
                  payload=None) -> list[int]:
        """Read the keys of `pair_slots` in order, then the payload
        `payload` names, as one charged pass: a node visit. `payload` is
        ``(pair_slot, width)``. The device reads and bills every word;
        the store then compares them with `expect`, the tree's keys and,
        last, its payload, and raises on the first that differs. Returns
        the words read, the payload last."""
        if not pair_slots and payload is None:
            return []
        device, wb = self.device, self.word_bits
        if self.mapping == "word":
            # pair slot s is word slots 2s (key) and 2s + 1 (payload)
            got = device.scan_words(
                self.homes[node_id], [2 * s for s in pair_slots], wb,
                None if payload is None else (2 * payload[0] + 1, payload[1]))
        else:
            group, offset = self.homes[node_id]
            got = device.bi_scan_words(
                group, pair_slots, offset, 0, wb,
                None if payload is None else (payload[0], wb, payload[1]))
        if got != expect:
            for i, (word, want) in enumerate(zip(got, expect)):
                if i < len(pair_slots):
                    self._checked(word, want, "node {} slot {} key", node_id,
                                  pair_slots[i])
                else:
                    self._checked(word, want, "node {} slot {} payload",
                                  node_id, payload[0])
            raise ConfigError(f"{len(expect)} expected words for a pass of "
                              f"{len(got)} reads")
        return got

    def read_payload(self, node_id: int, pair_slot: int, width: int,
                     expect=None) -> int:
        if self.mapping == "word":
            got = self.device.read_word(self.homes[node_id],
                                        2 * pair_slot + 1, width)
        else:
            group, offset = self.homes[node_id]
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
        wb = self.word_bits
        word_writes = []
        for pair_slot, key, payload, pwidth in writes:
            if key is not None:
                word_writes.append((2 * pair_slot, key, wb))
            if payload is not None:
                word_writes.append((2 * pair_slot + 1, payload, pwidth))
        strategies.apply_strategy(self.device, self.homes[node_id],
                                  word_writes, self.strategy, self.parallel)

    def _write_pairs_bi(self, node_id, writes):
        # pair slot s is the column under port s, the key on rows
        # [0, word_bits) and the payload on the next word_bits rows: the
        # device takes the pair writes as they are. Naive clears each
        # word's whole span; compare strategies flip in place
        group, offset = self.homes[node_id]
        self.device.bi_write_node(
            group, offset, writes, self.word_bits,
            "naive" if self.strategy == "naive" else "dcw", self.parallel)

    # ----------------------------------------------------------------- arena

    def arena_write(self, index: int, value: int, width: int) -> None:
        # values are spilled once per upsert; compare-write keeps that cheap
        home, port, offset = self._arena_at(index)
        if self.mapping == "word":
            self.device.write_serial(home, port, value, width, "dcw")
        else:
            # the value is the key word of a width-row pair on the
            # word_bits-row arena group
            self.device.bi_write_node(home, offset, ((port, value, None, 0),),
                                      width, "dcw", self.parallel)

    def arena_read(self, index: int, width: int, expect=None) -> int:
        home, port, offset = self._arena_at(index)
        if self.mapping == "word":
            got = self.device.read_word(home, port, width)
        else:
            got = self.device.bi_read_word(home, port, offset, 0, width)
        return self._checked(got, expect, "arena slot {}", index)

    # ------------------------------------------------- uncharged verification

    def peek_pair(self, node_id: int, pair_slot: int,
                  payload_width: int) -> tuple[int, int]:
        wb = self.word_bits
        if self.mapping == "word":
            # word slot w is the track's segment w + 1
            cells = self.homes[node_id].cells
            key = cells[2 * pair_slot + 1]
            payload = cells[2 * pair_slot + 2]
        else:
            # cells never move; a node's column for port p is the fixed
            # index slot_start(p) + offset whatever the alignment
            group, offset = self.homes[node_id]
            col = group.cells[group.slot_start(pair_slot) + offset]
            key, payload = col, col >> wb
        return key & ((1 << wb) - 1), payload & ((1 << payload_width) - 1)

    def peek_arena(self, index: int, width: int) -> int:
        home, port, offset = self._arena_at(index)
        if self.mapping == "word":
            word = home.cells[port + 1]
        else:
            word = home.cells[home.slot_start(port) + offset]
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
