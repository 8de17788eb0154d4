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
so the word in slot ``w`` is ``cells[w + 1] & mask`` and a write is
``segment & ~mask | value``, each on an int no wider than one interport.
A track group is one int per cell column whose bit ``r`` is row ``r``, so a
word stored down a column is ``column >> row_start & mask``.

A node visit of a query is one charged pass: ``scan_words`` and
``bi_scan_words`` read a node's keys and then, as a final word of its own
width, the payload the search chose, billed exactly as the same reads made
one at a time.

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


def _cut_after_miss(words: list, expect) -> None:
    """Drop the words after the first that differs from its entry in
    `expect`: a scan stops at a read the caller did not expect."""
    for i, (word, want) in enumerate(zip(words, expect)):
        if word != want:
            del words[i + 1:]
            return


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
    def _swap_words(tr: Racetrack, writes,
                    span: int = 0) -> list[tuple[int, int]]:
        """Check every (slot, value, width) word, then write each into its
        slot and return (value, old word) per word, the value as a Python
        int whatever integer type carried it. Nothing changes unless every
        word is valid. A word replaces its `width` cells, or `span` cells
        when given (the naive clear takes the whole interport span)."""
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
        # only changed words are written back, so a width-0 word never is
        cells = tr.cells
        swapped = []
        for (slot, _value, width), value in zip(writes, values):
            seg = cells[slot + 1]
            mask = (1 << (span or width)) - 1
            old = seg & mask
            if old != value:
                cells[slot + 1] = seg & ~mask | value
            swapped.append((value, old))
        return swapped

    def _bill_pass(self, tr: Racetrack, det: int, det_steps: int, inj: int,
                   inj_steps: int, rem: int, rem_steps: int,
                   repos: int = 0) -> None:
        """Charge a through-port write pass: the align home, the
        2 * interport out-and-back stream plus `repos` repositioning
        shifts, then the detects, injects and removes, exactly what
        align/record_shift/record would bill one by one, in the same trace
        order. The stream ends home, so the eager return costs nothing."""
        shifts = abs(tr.offset) + 2 * tr.interport + repos
        tr.offset = 0
        c = self.counters
        c.shift += shifts
        c.shift_steps += shifts
        c.detect += det
        c.detect_steps += det_steps
        c.inject += inj
        c.inject_steps += inj_steps
        c.remove += rem
        c.remove_steps += rem_steps
        if c.trace is not None:
            c.log_steps("shift", shifts, shifts)
            c.log_steps("detect", det, det_steps)
            c.log_steps("inject", inj, inj_steps)
            c.log_steps("remove", rem, rem_steps)

    def write_serial(self, track, slot: int, value: int, width: int,
                     mode: str) -> None:
        """One word through its port, naive or dcw; every port action is its
        own latency step.

        A naive write clears the slot's whole interport span and injects
        the new 1s blind; dcw detects the `width` live bits, compares old
        and new as two ints and flips only the differences, leaving bits
        past `width` alone.
        """
        tr = self._single(track)
        if mode not in _MODES:
            raise ConfigError(f"unknown write mode {mode!r}")
        if mode == "naive":
            (value, old), = self._swap_words(tr, ((slot, value, width),),
                                             tr.interport)
            det, inj, rem = 0, value.bit_count(), old.bit_count()
        else:
            (value, old), = self._swap_words(tr, ((slot, value, width),))
            det, inj, rem = (width, (value & ~old).bit_count(),
                             (old & ~value).bit_count())
        if self.count_new_detect:
            det *= 2
        self._bill_pass(tr, det, det, inj, inj, rem, rem)

    def write_pw(self, track, slot: int, value: int, width: int) -> None:
        """Permutation-style write: reuse surviving skyrmions, shifting each
        to its new cell; only the population difference is injected or
        removed. Single-word by construction.

        Survivors are matched first-to-first in position order, each match
        charging one shift per cell of displacement."""
        tr = self._single(track)
        (value, old), = self._swap_words(tr, ((slot, value, width),))
        olds = [i for i in range(width) if old >> i & 1]
        news = [i for i in range(width) if value >> i & 1]
        reused = min(len(olds), len(news))
        inj, rem = len(news) - reused, len(olds) - reused
        self._bill_pass(tr, 0, 0, inj, inj, rem, rem,
                        sum(abs(o - n) for o, n in zip(olds, news)))

    def write_batch_bcw(self, track, writes) -> None:
        """Batched compare-write: one shared out-and-back pass; at every bit
        position all live slots detect in parallel (one step) and flip
        differing bits in parallel (one step billed at the slowest kind).

        writes: list of (word_slot, value, width) on one track. Each slot
        compares its old and new words as two ints: inject mask new & ~old,
        remove mask old & ~new. A bit position is live while some slot is
        that wide, and its flip fire is inject-only, remove-only or mixed
        by which of the ORed masks hold the bit.
        """
        tr = self._single(track)
        if not writes:
            return
        swapped = self._swap_words(tr, writes)
        det = act = inj = rem = inj_or = rem_or = 0
        for (_slot, _value, width), (value, old) in zip(writes, swapped):
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
        self._bill_pass(tr, det, act, inj, inj_only, rem, rem_only)

    def read_word(self, track, slot: int, width: int) -> int:
        """Stream one word's bits through its port, detecting each; the
        one-slot scan."""
        return self.scan_words(track, (slot,), width)[0]

    def scan_words(self, track, slots, width: int, expect=None,
                   then=None) -> list[int]:
        """Read the words in `slots` one after another, then the word
        `then` names, and return them.

        Stops after the first word that differs from its entry in `expect`
        (None: no such stop), so a read the caller did not expect is the
        last one paid for. `then` is one more read at its own width,
        ``(slot, width)``, made only when no word stopped the scan: a node
        visit's payload read after its key reads.

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
        if expect is not None and len(expect) != len(slots):
            raise ConfigError(f"{len(expect)} expected words for "
                              f"{len(slots)} slots")
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
        if expect is not None and words != expect:
            _cut_after_miss(words, expect)
            then = None
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

    def group_align(self, group: TrackGroup, node_offset: int) -> int:
        """Bring a node column under the ports; the whole group moves as one
        shift set."""
        if not (0 <= node_offset < group.interport):
            raise ConfigError("node offset outside the interport region")
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
        """Read one word stored one-bit-per-track at an aligned column; the
        one-port scan."""
        return self.bi_scan_words(group, (port,), node_offset, row_start,
                                  width)[0]

    def bi_scan_words(self, group: TrackGroup, ports, node_offset: int,
                      row_start: int, width: int, expect=None,
                      then=None) -> list[int]:
        """Read the node's words under `ports` one after another, then the
        word `then` names, and return them, stopping as :meth:`scan_words`
        does. `then` is ``(port, row_start, width)``: a node visit's
        payload read, on its own rows.

        Every row head sits over the same column, so sensing a word is a
        single simultaneous fire regardless of how writes are driven.
        """
        n_ports, rows = group.n_ports, group.n_tracks
        if not self._ports.issuperset(ports):
            bad = next(p for p in ports if p not in self._ports)
            raise PortRangeError(f"port {bad} outside 0..{n_ports - 1}")
        if row_start < 0 or width < 0 or row_start + width > rows:
            raise self._rows_error(group, row_start, width)
        if expect is not None and len(expect) != len(ports):
            raise ConfigError(f"{len(expect)} expected words for "
                              f"{len(ports)} ports")
        if then is not None:
            then_port, then_row, then_width = then
            if not 0 <= then_port < n_ports:
                raise PortRangeError(f"port {then_port} outside "
                                     f"0..{n_ports - 1}")
            if then_row < 0 or then_width < 0 or then_row + then_width > rows:
                raise self._rows_error(group, then_row, then_width)
        ip = group.interport
        if group.offset != -node_offset or not (0 <= node_offset < ip):
            raise ConfigError("group not aligned to the requested node offset")
        # port p's word is rows row_start.. of the column at
        # (p + 1) * interport + node_offset; width 0 reads 0
        cols, mask = group.cells, (1 << width) - 1
        words = [cols[(port + 1) * ip + node_offset] >> row_start & mask
                 for port in ports]
        if expect is not None and words != expect:
            _cut_after_miss(words, expect)
            then = None
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
        """Write one word across tracks at an aligned column; the one-word
        node write."""
        self.bi_write_node(group, node_offset,
                           [(port, row_start, span, width, value)], mode,
                           parallel)

    def bi_write_node(self, group: TrackGroup, node_offset: int, words,
                      mode: str, parallel: bool) -> None:
        """Write words of one node at an aligned column offset, naive or
        compare-and-flip, each billed as its own pass.

        words: (port, row_start, span, width, value) per word; the value,
        of any integer type, numpy scalars included, fills rows
        [row_start, row_start + width), least significant bit first. A
        naive write clears the whole row span, a compare write leaves rows
        past `width` alone. Every word is checked before any cell or
        counter changes.

        Sensing (the compare pass) and the unconditional clear pulse of a
        naive write carry no per-row data, so they fire all rows in one
        step. Patterned pulses that drive each row from its own data bit
        need the parallel write drivers: one step with them, one step per
        landed instance without.
        """
        if mode not in _MODES:
            raise ConfigError(f"unknown write mode {mode!r}")
        ip = group.interport
        if group.offset != -node_offset or not (0 <= node_offset < ip):
            raise ConfigError("group not aligned to the requested node offset")
        if not words:
            return
        n_ports, rows = group.n_ports, group.n_tracks
        seen = set()
        values = []
        for port, row_start, span, width, value in words:
            value = index(value)
            if not (0 <= port < n_ports):
                raise PortRangeError(f"port {port} outside 0..{n_ports - 1}")
            if row_start < 0 or span < 0 or row_start + span > rows:
                raise self._rows_error(group, row_start, span)
            if not (0 <= width <= span):
                raise ConfigError(f"width {width} outside the {span}-row span")
            if value < 0 or value >> width:
                raise ConfigError(f"value does not fit in {width} bits")
            if (port, row_start) in seen:
                raise ConfigError(f"word at port {port} row {row_start} "
                                  f"written twice in one batch")
            seen.add((port, row_start))
            values.append(value)
        cols = group.cells
        naive = mode == "naive"
        # the naive clear-all pulse fires before inject-all, two pulses,
        # never one. Compare: flips are sequenced as a remove phase then an
        # inject phase; the two pulse polarities never share a fire. A fire
        # is one step when parallel, one step per instance otherwise, and
        # no step at all when nothing fires.
        serial_rem = not (parallel or naive)
        serial_inj = not parallel
        per_bit = 2 if self.count_new_detect else 1
        c = self.counters
        trace = c.trace
        det = det_steps = inj = inj_steps = rem = rem_steps = 0
        # a word is the rows [row_start, row_start + width) of its port's
        # column; words sharing a column apply in order
        for (port, row_start, span, width, _value), value in zip(words,
                                                                 values):
            at = (port + 1) * ip + node_offset
            col = cols[at]
            if naive:
                clear = ((1 << span) - 1) << row_start
                d, r, i = 0, (col & clear).bit_count(), value.bit_count()
                cols[at] = col & ~clear | value << row_start
            else:
                mask = (1 << width) - 1
                old = col >> row_start & mask
                d, r, i = (per_bit * width, (old & ~value).bit_count(),
                           (value & ~old).bit_count())
                if old != value:
                    cols[at] = col & ~(mask << row_start) | value << row_start
            ds = d > 0
            rs = r if serial_rem else r > 0
            is_ = i if serial_inj else i > 0
            det += d
            det_steps += ds
            rem += r
            rem_steps += rs
            inj += i
            inj_steps += is_
            if trace is not None:
                c.log_steps("detect", d, ds)
                c.log_steps("remove", r, rs)
                c.log_steps("inject", i, is_)
        c.detect += det
        c.detect_steps += det_steps
        c.remove += rem
        c.remove_steps += rem_steps
        c.inject += inj
        c.inject_steps += inj_steps
