"""Racetrack device model: cells, ports, primitives, and charged bulk passes.

A track is a line of bit cells with equally spaced access ports. Shifting
moves every skyrmion on the track; in code the cells stay put and a signed
``offset`` records the displacement, so cell content is addressed in
track-local coordinates that never move. The cell under port ``p`` at
offset ``o`` is index ``(p + 1) * interport - o``; word slot ``w`` owns the
cell range ``[(w + 1) * interport, (w + 2) * interport)``; bit ``j`` of
slot ``w`` passes under port ``w`` at offset ``-j``. One interport-sized
overflow region at each end absorbs a full write pass, so the boundary
condition is ``|offset| <= interport``.

Cells are Python ints. A track is a list of ``n_ports + 2`` ints, one per
interport segment: bit ``j`` of segment ``k`` is cell ``k * interport + j``,
so the word in slot ``w`` is ``old = cells[w + 1] & mask`` and a write is
``segment ^ old | value``, each on an int no wider than one interport.
A track group is one int per cell column whose bit ``r`` is row ``r``, so a
word stored down a column is ``column >> row_start & mask``.

A node visit of a query is one charged pass: ``scan_words`` and
``bi_scan_words`` read every key word they are given and then, as a final
word of its own width, the payload the search chose, billed exactly as the
same reads made one at a time. A scan judges nothing it reads; the store
compares the words with the tree's. A node write is one call too:
``write_words`` writes a node's words one after another, billed as the same
words written one at a time, and ``bi_write_node`` takes the store's pair
writes and diffs each pair's key and payload rows against its column in one
read, billed as the key word and then the payload word written one at a
time. No caller aligns: a pass positions its own track, or brings its
node's column under the ports with one ``group_align`` shift set.

All primitives and passes bump the device's OpCounters. Aggregated passes
charge identical totals to a primitive-by-primitive replay; the test suite
holds them to that.
"""

from __future__ import annotations

from operator import index

from .config import CostModel, Geometry
from .counters import OpCounters
from .errors import (BoundaryError, ConfigError, DoubleInjectError,
                     PortRangeError)

RIGHT = "right"
LEFT = "left"


class Racetrack:
    """One track: its cells as one int per interport segment (bit j of
    segment k is cell k * interport + j) plus its current shift offset.
    Word slot w is segment w + 1; segments 0 and n_ports + 1 are the
    overflow regions."""

    __slots__ = ("track_id", "cells", "offset", "interport", "n_ports")

    def __init__(self, track_id: int, n_ports: int, interport: int):
        self.track_id = track_id
        self.n_ports = n_ports
        self.interport = interport
        self.cells = [0] * (n_ports + 2)
        self.offset = 0

    def slot_start(self, word_slot: int) -> int:
        return (word_slot + 1) * self.interport

    def port_cell(self, port: int) -> int:
        """Track-local index of the cell currently under `port`."""
        return (port + 1) * self.interport - self.offset

    def popcount(self) -> int:
        return sum(seg.bit_count() for seg in self.cells)


class TrackGroup:
    """A bundle of tracks shifted in lockstep (bit-interleaved mapping).

    The cells are a list of ``(n_ports + 2) * interport`` ints, one per
    cell column, and bit r of a column is the cell of row r: one row is one
    track. Every row shares the group offset, which is what lets one shift
    set align a whole node.
    """

    __slots__ = ("group_id", "cells", "offset", "interport", "n_ports", "n_tracks")

    def __init__(self, group_id: int, n_tracks: int, n_ports: int, interport: int):
        self.group_id = group_id
        self.n_tracks = n_tracks
        self.n_ports = n_ports
        self.interport = interport
        self.cells = [0] * ((n_ports + 2) * interport)
        self.offset = 0

    def slot_start(self, port: int) -> int:
        return (port + 1) * self.interport

    def popcount(self) -> int:
        return sum(col.bit_count() for col in self.cells)


_MODES = ("naive", "dcw")
_WORD_MODES = _MODES + ("bcw", "pw")


class Device:
    """Owns the track pool, the counters, and every charging rule."""

    def __init__(self, geometry: Geometry, cost: CostModel | None = None,
                 record_steps: bool = False, count_new_detect: bool = False):
        self.geom = geometry
        # every track and group this device makes has ports_per_track
        # ports; the scans check their slots against this set
        self._ports = frozenset(range(geometry.ports_per_track))
        self._eager = geometry.shift_policy == "eager"
        self.cost = cost if cost is not None else CostModel()
        self.counters = OpCounters(trace=[] if record_steps else None)
        self.count_new_detect = count_new_detect
        self.tracks: dict[int, Racetrack] = {}
        self.groups: dict[int, TrackGroup] = {}
        self._next_track = 0
        self._next_group = 0

    # ------------------------------------------------------------ allocation

    def new_track(self) -> Racetrack:
        tr = Racetrack(self._next_track, self.geom.ports_per_track,
                       self.geom.interport_bits)
        self.tracks[tr.track_id] = tr
        self._next_track += 1
        return tr

    def new_group(self, n_tracks: int) -> TrackGroup:
        g = TrackGroup(self._next_group, n_tracks, self.geom.ports_per_track,
                       self.geom.interport_bits)
        self.groups[g.group_id] = g
        self._next_group += 1
        return g

    def total_skyrmions(self) -> int:
        return (sum(t.popcount() for t in self.tracks.values())
                + sum(g.popcount() for g in self.groups.values()))

    # ------------------------------------------------------------ primitives

    def shift(self, handle, direction: str, steps: int) -> None:
        """Shift one track, or a track group in lockstep. Energy per track
        per step; latency one step per step (simultaneous movement).
        steps = 0 is a no-op."""
        if steps < 0:
            raise ConfigError("steps must be >= 0")
        if direction not in (LEFT, RIGHT):
            raise ConfigError("direction must be 'left' or 'right'")
        if steps == 0:
            return
        delta = steps if direction == RIGHT else -steps
        limit = self.geom.interport_bits
        if abs(handle.offset + delta) > limit:
            raise BoundaryError(
                f"shift {direction} {steps} would move offset to "
                f"{handle.offset + delta}, past the overflow region ({limit})")
        handle.offset += delta
        self.counters.record_shift(getattr(handle, "n_tracks", 1), steps)

    @staticmethod
    def _single(track) -> Racetrack:
        """`track` itself; a track group is refused."""
        if not isinstance(track, Racetrack):
            raise ConfigError("the primitives and word passes act on single "
                              "tracks, not on a track group")
        return track

    def _cell(self, track, port: int) -> tuple[list, int, int]:
        """The single track's segments, and the segment and bit mask of the
        cell under `port`."""
        tr = self._single(track)
        if not (0 <= port < tr.n_ports):
            raise PortRangeError(f"port {port} outside 0..{tr.n_ports - 1}")
        seg, bit = divmod(tr.port_cell(port), tr.interport)
        return tr.cells, seg, 1 << bit

    def detect(self, track, port: int) -> int:
        """Read the bit under one port. Pure: no cell change."""
        cells, seg, bit = self._cell(track, port)
        self.counters.record("detect", 1)
        return 1 if cells[seg] & bit else 0

    def inject(self, track, port: int) -> None:
        """Write a skyrmion (1) at the cell under the port."""
        cells, seg, bit = self._cell(track, port)
        if cells[seg] & bit:
            raise DoubleInjectError(f"cell under port {port} already holds a skyrmion")
        cells[seg] |= bit
        self.counters.record("inject", 1)

    def remove(self, track, port: int) -> None:
        """Destroy the skyrmion under the port; removing an empty cell is a
        free non-event (no count)."""
        cells, seg, bit = self._cell(track, port)
        if cells[seg] & bit:
            cells[seg] ^= bit
            self.counters.record("remove", 1)

    def align(self, handle, target_offset: int) -> int:
        """Minimal shifts to bring one track or track group to
        `target_offset`. Returns the steps issued; 0 when already aligned.
        """
        delta = target_offset - handle.offset
        if delta == 0:
            return 0
        self.shift(handle, RIGHT if delta > 0 else LEFT, abs(delta))
        return abs(delta)

    # ----------------------------------------------- word-based charged passes

    @staticmethod
    def _check_words(tr: Racetrack, writes) -> list[int]:
        """Check every (slot, value, width) word of a batch on one track:
        the slot on the track, the width within one interport segment, the
        value below 2**width and no slot twice. Return the values as Python
        ints, whatever integer type carried them."""
        n_ports, ip = tr.n_ports, tr.interport
        seen = set()
        values = []
        for slot, value, width in writes:
            value = index(value)
            if not (0 <= slot < n_ports):
                raise PortRangeError(f"word slot {slot} outside this track")
            if not (0 <= width <= ip):
                raise ConfigError(f"width {width} outside one interport "
                                  f"segment (0..{ip})")
            if value < 0 or value >> width:
                raise ConfigError(f"value {value} does not fit in {width} bits")
            if slot in seen:
                raise ConfigError(f"slot {slot} written twice in one batch")
            seen.add(slot)
            values.append(value)
        return values

    def write_serial(self, track, slot: int, value: int, width: int,
                     mode: str) -> None:
        """One word through its port, naive or dcw; the one-word
        :meth:`write_words`."""
        if mode not in _MODES:
            raise ConfigError(f"unknown write mode {mode!r}")
        self.write_words(track, ((slot, value, width),), mode)

    def write_words(self, track, writes, mode: str) -> None:
        """Write the (slot, value, width) words of one track one after
        another, each its own through-port pass, as one call; every port
        action is its own latency step.

        A naive write clears the slot's whole interport span and injects
        the new 1s blind; dcw detects the `width` live bits, compares old
        and new as two ints and flips only the differences, leaving bits
        past `width` alone. bcw is the one-word :meth:`write_batch_bcw`: it
        flips as dcw does, but the detects at one bit position fire
        together, one step per bit even when each counts twice. pw detects
        nothing: it matches the old and new 1s first to first in position
        order, shifts each survivor to its new cell and injects or removes
        only the population difference.

        Each word is billed as its own write: the first pays the align home
        and every word the 2 * interport out-and-back stream, plus a pw
        word's repositioning shifts, then its detects, injects and removes,
        in the same trace order. Every word is checked before any cell,
        offset or counter changes; no words cost nothing.
        """
        tr = self._single(track)
        if mode not in _WORD_MODES:
            raise ConfigError(f"unknown write mode {mode!r}")
        if not writes:
            return
        values = self._check_words(tr, writes)
        naive, pw = mode == "naive", mode == "pw"
        per_bit = 2 if self.count_new_detect else 1
        # a bcw detect step fires every doubled detect of its bit together
        step_bit = 1 if mode == "bcw" else per_bit
        c = self.counters
        trace = c.trace
        cells = tr.cells
        stream = 2 * tr.interport
        step = abs(tr.offset) + stream
        tr.offset = 0
        shifts = det = inj = rem = 0
        # a naive word replaces the slot's whole segment; a word is written
        # back only when it changed, so a width-0 word never is
        for (slot, _value, width), value in zip(writes, values):
            seg = cells[slot + 1]
            old = seg if naive else seg & (1 << width) - 1
            if old != value:
                cells[slot + 1] = seg ^ old | value
            if naive:
                d, i, r = 0, value.bit_count(), old.bit_count()
            elif pw:
                # survivors move first old to first new, a shift per cell;
                # the 1s left over are injected or removed
                o, n = old, value
                while o and n:
                    step += abs((o & -o).bit_length() - (n & -n).bit_length())
                    o, n = o & o - 1, n & n - 1
                d, i, r = 0, n.bit_count(), o.bit_count()
            else:
                d, i, r = (width, (value & ~old).bit_count(),
                           (old & ~value).bit_count())
            shifts += step
            det += d
            inj += i
            rem += r
            if trace is not None:
                c.log_steps("shift", step, step)
                c.log_steps("detect", per_bit * d, step_bit * d)
                c.log_steps("inject", i, i)
                c.log_steps("remove", r, r)
            step = stream
        c.shift += shifts
        c.shift_steps += shifts
        c.detect += per_bit * det
        c.detect_steps += step_bit * det
        c.inject += inj
        c.inject_steps += inj
        c.remove += rem
        c.remove_steps += rem

    def write_pw(self, track, slot: int, value: int, width: int) -> None:
        """One word in mode pw; the one-word :meth:`write_words`."""
        self.write_words(track, ((slot, value, width),), "pw")

    def write_batch_bcw(self, track, writes) -> None:
        """Batched compare-write: one shared out-and-back pass; at every bit
        position all live slots detect in parallel (one step) and flip
        differing bits in parallel (one step billed at the slowest kind),
        after the align home and one 2 * interport stream that ends home.

        writes: list of (word_slot, value, width) on one track. Each slot
        compares its old and new words as two ints: inject mask new & ~old,
        remove mask old & ~new. A bit position is live while some slot is
        that wide, and its flip fire is inject-only, remove-only or mixed
        by which of the ORed masks hold the bit.
        """
        tr = self._single(track)
        if not writes:
            return
        values = self._check_words(tr, writes)
        cells = tr.cells
        det = act = inj = rem = inj_or = rem_or = 0
        for (slot, _value, width), value in zip(writes, values):
            seg = cells[slot + 1]
            old = seg & (1 << width) - 1
            if old != value:
                cells[slot + 1] = seg ^ old | value
            det += width
            if width > act:
                act = width
            i, r = value & ~old, old & ~value
            inj += i.bit_count()
            rem += r.bit_count()
            inj_or |= i
            rem_or |= r
        both = (inj_or & rem_or).bit_count()
        inj_only, rem_only = inj_or.bit_count() - both, rem_or.bit_count() - both
        # a column that both injects and removes is one mixed fire, billed
        # at the slower kind
        if self.cost.dominant(("inject", "remove")) == "inject":
            inj_only += both
        else:
            rem_only += both
        if self.count_new_detect:
            det *= 2
        shifts = abs(tr.offset) + 2 * tr.interport
        tr.offset = 0
        c = self.counters
        c.shift += shifts
        c.shift_steps += shifts
        c.detect += det
        c.detect_steps += act
        c.inject += inj
        c.inject_steps += inj_only
        c.remove += rem
        c.remove_steps += rem_only
        if c.trace is not None:
            c.log_steps("shift", shifts, shifts)
            c.log_steps("detect", det, act)
            c.log_steps("inject", inj, inj_only)
            c.log_steps("remove", rem, rem_only)

    def read_word(self, track, slot: int, width: int) -> int:
        """Stream one word's bits through its port, detecting each; the
        one-slot scan."""
        return self.scan_words(track, (slot,), width)[0]

    def scan_words(self, track, slots, width: int, then=None) -> list[int]:
        """Read the words in `slots` one after another, then the word
        `then` names, and return them, the `then` word last. `then` is one
        more read at its own width, ``(slot, width)``: a node visit's
        payload read after its key reads.

        Each read sweeps from whichever end of the bit range is closer to
        the current offset, so back-to-back reads ping-pong instead of
        paying a realign pass. Lazy policy leaves the track where the sweep
        ends; eager returns it home. A read is charged the align shifts to
        the near end, width - 1 sweep shifts to the far end, width serial
        detects, then the eager return: exactly what align/shift/record
        and an eager align home would bill one by one, in the same order.
        Every slot and width is checked before any read is charged.
        """
        tr = track if isinstance(track, Racetrack) else self._single(track)
        n_ports, ip = tr.n_ports, tr.interport
        if not self._ports.issuperset(slots):
            bad = next(s for s in slots if s not in self._ports)
            raise PortRangeError(f"word slot {bad} outside this track")
        if not (0 <= width <= ip):
            raise ConfigError(f"width {width} outside one interport segment "
                              f"(0..{ip})")
        if then is not None:
            then_slot, then_width = then
            if not 0 <= then_slot < n_ports:
                raise PortRangeError(f"word slot {then_slot} outside this "
                                     f"track")
            if not 0 <= then_width <= ip:
                raise ConfigError(f"width {then_width} outside one interport "
                                  f"segment (0..{ip})")
        cells, mask = tr.cells, (1 << width) - 1
        words = [cells[slot + 1] & mask for slot in slots]
        n = len(words)
        if then is None:
            self._bill_reads(tr, n, width)
            return words
        words.append(cells[then_slot + 1] & (1 << then_width) - 1)
        if then_width == width:
            self._bill_reads(tr, n + 1, width)
        else:
            self._bill_reads(tr, n, width)
            self._bill_reads(tr, 1, then_width)
        return words

    def _bill_reads(self, tr: Racetrack, n: int, width: int) -> None:
        """Charge `n` reads of `width` bits in a row from the track's
        current offset, and leave the offset where they end."""
        # width 0 reads 0, free. Both sweep ends lie in [1 - width, 0];
        # width <= interport keeps them inside the overflow region, so no
        # shift can overrun.
        if not (n and width):
            return
        # the first read sweeps from the end nearer the current offset;
        # every later one starts where the last left off (lazy) or at home
        # (eager), so it sweeps width - 1 and, eager, returns width - 1
        offset, lo = tr.offset, 1 - width
        near, far = (0, lo) if abs(offset) <= abs(offset - lo) else (lo, 0)
        sweep = abs(near - offset) + width - 1
        if self._eager:
            home, back, tr.offset = -far, width - 1, 0
        else:
            # the lazy end alternates between the two sweep ends
            home, back, tr.offset = 0, 0, far if n % 2 else near
        shifts = sweep + home + (n - 1) * (width - 1 + back)
        detects = width * n
        c = self.counters
        c.shift += shifts
        c.shift_steps += shifts
        c.detect += detects
        c.detect_steps += detects
        if c.trace is not None:
            for _ in range(n):
                c.log_steps("shift", sweep, sweep)
                c.log_steps("detect", width, width)
                c.log_steps("shift", home, home)
                sweep, home = width - 1, back

    # -------------------------------------------- bit-interleaved charged ops

    @staticmethod
    def _check_column(group: TrackGroup, node_offset: int) -> None:
        if not (0 <= node_offset < group.interport):
            raise ConfigError("node offset outside the interport region")

    def group_align(self, group: TrackGroup, node_offset: int) -> int:
        """Bring a node column under the ports; the whole group moves as one
        shift set. Every bit-interleaved pass aligns through here."""
        self._check_column(group, node_offset)
        # billed as align -> shift would: the target offset lies inside the
        # overflow region, so no shift past it is possible
        steps = abs(node_offset + group.offset)
        if steps:
            group.offset = -node_offset
            self.counters.record_shift(group.n_tracks, steps)
        return steps

    @staticmethod
    def _rows_error(group: TrackGroup, row_start: int, rows: int):
        return ConfigError(f"rows {row_start}..{row_start + rows - 1} "
                           f"outside the group's {group.n_tracks} tracks")

    def bi_read_word(self, group: TrackGroup, port: int, node_offset: int,
                     row_start: int, width: int) -> int:
        """Read one word stored one-bit-per-track at a node's column; the
        one-port scan."""
        return self.bi_scan_words(group, (port,), node_offset, row_start,
                                  width)[0]

    def bi_scan_words(self, group: TrackGroup, ports, node_offset: int,
                      row_start: int, width: int, then=None) -> list[int]:
        """Read the node's words under `ports` one after another, then the
        word `then` names, and return them, the `then` word last. `then`
        is ``(port, row_start, width)``: a node visit's payload read, on
        its own rows.

        Once every check passes, the pass aligns the group itself
        (:meth:`group_align`); with no ports and no `then` it only checks
        the node offset. Every row head sits over the same column, so
        sensing a word is a single simultaneous fire regardless of how
        writes are driven.
        """
        n_ports, rows = group.n_ports, group.n_tracks
        if not self._ports.issuperset(ports):
            bad = next(p for p in ports if p not in self._ports)
            raise PortRangeError(f"port {bad} outside 0..{n_ports - 1}")
        if row_start < 0 or width < 0 or row_start + width > rows:
            raise self._rows_error(group, row_start, width)
        if then is not None:
            then_port, then_row, then_width = then
            if not 0 <= then_port < n_ports:
                raise PortRangeError(f"port {then_port} outside "
                                     f"0..{n_ports - 1}")
            if then_row < 0 or then_width < 0 or then_row + then_width > rows:
                raise self._rows_error(group, then_row, then_width)
        if not ports and then is None:
            self._check_column(group, node_offset)
            return []
        self.group_align(group, node_offset)
        ip = group.interport
        # port p's word is rows row_start.. of the column at
        # (p + 1) * interport + node_offset; width 0 reads 0
        cols, mask = group.cells, (1 << width) - 1
        words = [cols[(port + 1) * ip + node_offset] >> row_start & mask
                 for port in ports]
        c = self.counters
        n = len(words)
        if width and n:
            c.detect += width * n
            c.detect_steps += n
            if c.trace is not None:
                c.trace.extend([("detect", width)] * n)
        if then is not None:
            words.append(cols[(then_port + 1) * ip + node_offset] >> then_row
                         & (1 << then_width) - 1)
            if then_width:
                c.detect += then_width
                c.detect_steps += 1
                if c.trace is not None:
                    c.trace.append(("detect", then_width))
        return words

    def bi_write_word(self, group: TrackGroup, port: int, node_offset: int,
                      row_start: int, span: int, width: int, value: int,
                      mode: str, parallel: bool) -> None:
        """Write one word across tracks at a node's column; the one-pair
        node write with `span` key rows. A word takes one of two shapes: a
        key, ``row_start == 0`` and ``width == span``, or a payload,
        ``row_start == span`` and ``width <= span``. Any other shape is
        refused before any change."""
        if row_start == 0 and width == span:
            pair = (port, value, None, 0)
        elif row_start == span and width <= span:
            pair = (port, None, value, width)
        else:
            raise ConfigError(f"rows {row_start}..{row_start + width - 1} "
                              f"of a {span}-row span are neither a key nor "
                              f"a payload word")
        self.bi_write_node(group, node_offset, (pair,), span, mode, parallel)

    def bi_write_node(self, group: TrackGroup, node_offset: int, pairs,
                      key_rows: int, mode: str, parallel: bool) -> None:
        """Write pairs of one node at its column offset, naive or
        compare-and-flip, each word billed as its own pass.

        pairs: (pair_slot, key, payload, payload_width) per pair, as the
        store writes them; key or payload None leaves that word alone. Pair
        slot s is the column under port s. The key fills rows
        [0, key_rows), the payload rows [key_rows, key_rows +
        payload_width) of a key_rows-row span, least significant bit first;
        values of any integer type, numpy scalars included, land as the
        equal Python int. A naive write clears each word's whole key_rows
        span, a compare write leaves the rows past the word's width alone.
        Every pair is checked before any cell, offset or counter changes,
        then the pass aligns the group itself (:meth:`group_align`); no
        pairs only check the node offset. Each pair's column is read once
        and written back at most once.

        Sensing (the compare pass) and the unconditional clear pulse of a
        naive write carry no per-row data, so they fire all rows of a word
        in one step. Patterned pulses that drive each row from its own data
        bit need the parallel write drivers: one step per word with them,
        one step per landed instance without.
        """
        if mode not in _MODES:
            raise ConfigError(f"unknown write mode {mode!r}")
        if not pairs:
            self._check_column(group, node_offset)
            return
        n_ports, rows, ip = group.n_ports, group.n_tracks, group.interport
        if not 0 <= key_rows <= rows:
            raise self._rows_error(group, 0, key_rows)
        naive = mode == "naive"
        per_bit = 2 if self.count_new_detect else 1
        key_mask = (1 << key_rows) - 1
        # naive: a removal wherever the span held a 1, an inject wherever
        # the new word has one; compare: only the bits that differ
        keep = 0 if naive else -1
        seen = set()
        plan = []
        det = det_steps = 0
        for port, key, payload, width in pairs:
            if not (0 <= port < n_ports):
                raise PortRangeError(f"port {port} outside 0..{n_ports - 1}")
            if port in seen:
                raise ConfigError(f"port {port} written twice in one batch")
            seen.add(port)
            # m: the rows the pair's words own; v: the new words in place
            m = v = kd = pd = 0
            if key is not None:
                v = index(key)
                if v < 0 or v >> key_rows:
                    raise ConfigError(f"value {v} does not fit in "
                                      f"{key_rows} bits")
                m = key_mask
                kd = 0 if naive else per_bit * key_rows
            if payload is not None:
                payload = index(payload)
                if not 0 <= width <= key_rows:
                    raise ConfigError(f"width {width} outside the "
                                      f"{key_rows}-row span")
                if payload < 0 or payload >> width:
                    raise ConfigError(f"value {payload} does not fit in "
                                      f"{width} bits")
                if 2 * key_rows > rows:
                    raise self._rows_error(group, key_rows, key_rows)
                m |= (key_mask if naive else (1 << width) - 1) << key_rows
                v |= payload << key_rows
                pd = 0 if naive else per_bit * width
            det += kd + pd
            det_steps += (kd > 0) + (pd > 0)
            plan.append(((port + 1) * ip + node_offset, m, v, kd, pd))
        self.group_align(group, node_offset)
        cols = group.cells
        # the naive clear-all pulse fires before inject-all, two pulses,
        # never one. Compare: flips are sequenced as a remove phase then an
        # inject phase; the two pulse polarities never share a fire. A fire
        # is one step when parallel, one step per instance otherwise, and
        # no step at all when nothing fires.
        serial_rem = not (parallel or naive)
        serial_inj = not parallel
        c = self.counters
        trace = c.trace
        inj = inj_steps = rem = rem_steps = 0
        for at, m, v, kd, pd in plan:
            col = cols[at]
            old = col & m
            if old != v:
                cols[at] = col ^ old | v
            # split each flip mask at row key_rows into its two words
            r, i = old & ~(v & keep), v & ~(old & keep)
            rk, ik = (r & key_mask).bit_count(), (i & key_mask).bit_count()
            rp, ipay = r.bit_count() - rk, i.bit_count() - ik
            rks = rk if serial_rem else rk > 0
            rps = rp if serial_rem else rp > 0
            iks = ik if serial_inj else ik > 0
            ips = ipay if serial_inj else ipay > 0
            rem += rk + rp
            rem_steps += rks + rps
            inj += ik + ipay
            inj_steps += iks + ips
            if trace is not None:
                c.log_steps("detect", kd, kd > 0)
                c.log_steps("remove", rk, rks)
                c.log_steps("inject", ik, iks)
                c.log_steps("detect", pd, pd > 0)
                c.log_steps("remove", rp, rps)
                c.log_steps("inject", ipay, ips)
        c.detect += det
        c.detect_steps += det_steps
        c.remove += rem
        c.remove_steps += rem_steps
        c.inject += inj
        c.inject_steps += inj_steps
