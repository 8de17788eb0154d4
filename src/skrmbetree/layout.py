"""Placement of tree nodes and the value arena onto the device.

Two mappings:

word mapping
    One track per node, in id order. Pair slot s keeps its key in word
    slot s and its payload in word slot node_pairs + s, so the tree's pair
    slots are the track's key slots as they stand, and a track carries
    2 * node_pairs ports. Arena slot i is word slot i % ports_per_track of
    arena track i // ports_per_track; arena tracks are added when a slot
    on them is first written.

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

from .errors import (CapacityError, ConfigError, PortRangeError,
                     StructureError)

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
        # the mapping is fixed for the store's life; the hot paths test
        # this flag rather than the name
        self._word = mapping == "word"
        self.cfg = tree_cfg
        self.word_bits = word_bits
        self.parallel = tree_cfg.parallel_ports
        # word mapping: pair slot s's payload sits in word slot s + this
        self._payload_base = tree_cfg.node_pairs
        self._pair_slots = frozenset(range(tree_cfg.node_pairs))
        self.strategy = tree_cfg.strategy
        geom = device.geom
        if not 1 <= word_bits <= geom.interport_bits:
            # a word slot is one interport of cells
            raise ConfigError(f"word_bits must be in [1, interport_bits = "
                              f"{geom.interport_bits}], not {word_bits}")
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
        if kind not in (KIND_INTERNAL, KIND_LEAF):
            raise ConfigError(f"node kind must be {KIND_INTERNAL!r} or "
                              f"{KIND_LEAF!r}, not {kind!r}")
        if self._word:
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

    def _arena_at(self, index: int, place: bool = False):
        """Home of arena slot `index` as (track or group, port, column
        offset); on the word mapping the offset is always 0. Only a write
        (`place`) adds arena tracks or groups, up to the slot's; any other
        access to a slot on one never placed is refused."""
        if index < 0:
            # -1 would alias the last slot of the last arena track
            raise PortRangeError(f"arena slot {index} is negative")
        n, cell = divmod(index, self._arena_slots)
        missing = n + 1 - len(self.arena)
        if missing > 0:
            if not place:
                raise PortRangeError(f"arena slot {index} was never written")
            # the budget covers every missing track or group, so a refused
            # write places none of them
            self._budget(missing * (1 if self._word else self.word_bits))
            for _ in range(missing):
                self.arena.append(self.device.new_track() if self._word
                                  else self.device.new_group(self.word_bits))
        if self._word:
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

    def _slot_error(self, pair_slots) -> PortRangeError:
        """Word mapping: a pair slot past node_pairs aliases another's."""
        bad = next(s for s in pair_slots if s not in self._pair_slots)
        return PortRangeError(f"pair slot {bad} outside "
                              f"0..{self._payload_base - 1}")

    def read_key(self, node_id: int, pair_slot: int, expect=None) -> int:
        if self._word:
            if pair_slot not in self._pair_slots:
                raise self._slot_error((pair_slot,))
            got = self.device.read_word(self.homes[node_id], pair_slot,
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
        ``(pair_slot, width)``. On the word mapping the pair slots, once
        checked, are the track's key slots and go to the device as they
        are, and a payload as wide as the keys goes as one more of them.
        The device reads and bills every word; the store then
        compares them with `expect`, the tree's keys and, last, its
        payload, and raises on the first that differs. Returns the words
        read, the payload last."""
        if not pair_slots and payload is None:
            if expect:
                raise ConfigError(f"{len(expect)} expected words for a pass "
                                  f"of 0 reads")
            return []
        device, wb = self.device, self.word_bits
        if self._word:
            # pair slot s is word slots s (key) and node_pairs + s (payload)
            known = self._pair_slots
            if not known.issuperset(pair_slots) or (
                    payload is not None and payload[0] not in known):
                raise self._slot_error((*pair_slots, payload[0]) if payload
                                       else pair_slots)
            track = self.homes[node_id]
            if payload is None:
                got = device.scan_words(track, pair_slots, wb)
            elif payload[1] == wb:
                # a payload as wide as the keys is one more read of the
                # key pass, billed as the same read made after it
                got = device.scan_words(
                    track, [*pair_slots, self._payload_base + payload[0]], wb)
            else:
                got = device.scan_words(
                    track, pair_slots, wb,
                    (self._payload_base + payload[0], payload[1]))
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
        if self._word:
            if pair_slot not in self._pair_slots:
                raise self._slot_error((pair_slot,))
            got = self.device.read_word(self.homes[node_id],
                                        self._payload_base + pair_slot, width)
        else:
            group, offset = self.homes[node_id]
            got = self.device.bi_read_word(group, pair_slot, offset,
                                           self.word_bits, width)
        if got != expect and expect is not None:
            self._checked(got, expect, "node {} slot {} payload", node_id,
                          pair_slot)
        return got

    # ---------------------------------------------------------------- writes

    def write_pairs(self, node_id: int, writes) -> None:
        """writes: list of (pair_slot, key, payload, payload_width); key or
        payload may be None to leave that word untouched."""
        if not writes:
            return
        if self._word:
            self._write_pairs_word(node_id, writes)
        else:
            self._write_pairs_bi(node_id, writes)

    def _write_pairs_word(self, node_id, writes):
        wb, base, known = self.word_bits, self._payload_base, self._pair_slots
        word_writes = []
        for pair_slot, key, payload, pwidth in writes:
            if pair_slot not in known:
                raise self._slot_error((pair_slot,))
            if key is not None:
                word_writes.append((pair_slot, key, wb))
            if payload is not None:
                word_writes.append((base + pair_slot, payload, pwidth))
        # the config allows parallel ports only with bcw: a parallel write
        # is the shared bcw pass, any other one word at a time
        if self.parallel:
            self.device.write_batch_bcw(self.homes[node_id], word_writes)
        else:
            self.device.write_words(self.homes[node_id], word_writes,
                                    self.strategy)

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
        home, port, offset = self._arena_at(index, place=True)
        if self._word:
            self.device.write_words(home, ((port, value, width),), "dcw")
        else:
            # the value is the key word of a width-row pair on the
            # word_bits-row arena group
            self.device.bi_write_node(home, offset, ((port, value, None, 0),),
                                      width, "dcw", self.parallel)

    def arena_read(self, index: int, width: int, expect=None) -> int:
        home, port, offset = self._arena_at(index)
        if self._word:
            got = self.device.read_word(home, port, width)
        else:
            got = self.device.bi_read_word(home, port, offset, 0, width)
        if got != expect and expect is not None:
            self._checked(got, expect, "arena slot {}", index)
        return got

    # ------------------------------------------------- uncharged verification

    def peek_pair(self, node_id: int, pair_slot: int,
                  payload_width: int) -> tuple[int, int]:
        peek = self.device.peek_word
        if self._word:
            if pair_slot not in self._pair_slots:
                raise self._slot_error((pair_slot,))
            track = self.homes[node_id]
            return (peek(track, pair_slot, 0, 0, self.word_bits),
                    peek(track, self._payload_base + pair_slot, 0, 0,
                         payload_width))
        group, offset = self.homes[node_id]
        return (peek(group, pair_slot, offset, 0, self.word_bits),
                peek(group, pair_slot, offset, self.word_bits, payload_width))

    def peek_arena(self, index: int, width: int) -> int:
        home, port, offset = self._arena_at(index)
        return self.device.peek_word(home, port, offset, 0, width)


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
