"""Racetrack device model: cells, ports, primitives, and charged bulk passes.

A track is a line of bit cells with equally spaced access ports. Shifting
moves every skyrmion on the track; in code the cell array stays put and a
signed ``offset`` records the displacement, so cell content is addressed in
track-local coordinates that never move. The cell under port ``p`` at
offset ``o`` is index ``(p + 1) * interport - o``; word slot ``w`` owns the
cell range ``[(w + 1) * interport, (w + 2) * interport)``; bit ``j`` of
slot ``w`` passes under port ``w`` at offset ``-j``. One interport-sized
overflow region at each end absorbs a full write pass, so the boundary
condition is ``|offset| <= interport``.

All primitives and passes bump the device's OpCounters. Aggregated passes
charge identical totals to a primitive-by-primitive replay; the test suite
holds them to that.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .config import CostModel, Geometry
from .counters import OpCounters
from .errors import (AllocationError, BoundaryError, ConfigError,
                     DoubleInjectError, PortRangeError)

RIGHT = "right"
LEFT = "left"


class Racetrack:
    """One track: a 1-D cell array plus its current shift offset."""

    __slots__ = ("track_id", "cells", "offset", "interport", "n_ports")

    def __init__(self, track_id: int, n_ports: int, interport: int):
        self.track_id = track_id
        self.n_ports = n_ports
        self.interport = interport
        self.cells = np.zeros((n_ports + 2) * interport, dtype=np.uint8)
        self.offset = 0

    def slot_start(self, word_slot: int) -> int:
        return (word_slot + 1) * self.interport

    def port_cell(self, port: int) -> int:
        """Track-local index of the cell currently under `port`."""
        return (port + 1) * self.interport - self.offset

    def popcount(self) -> int:
        return int(self.cells.sum())


class TrackGroup:
    """A bundle of tracks shifted in lockstep (bit-interleaved mapping).

    Row r of the 2-D cell array is one track; every row shares the group
    offset, which is what lets one shift set align a whole node.
    """

    __slots__ = ("group_id", "cells", "offset", "interport", "n_ports", "n_tracks")

    def __init__(self, group_id: int, n_tracks: int, n_ports: int, interport: int):
        self.group_id = group_id
        self.n_tracks = n_tracks
        self.n_ports = n_ports
        self.interport = interport
        self.cells = np.zeros((n_tracks, (n_ports + 2) * interport), dtype=np.uint8)
        self.offset = 0

    def slot_start(self, port: int) -> int:
        return (port + 1) * self.interport

    def popcount(self) -> int:
        return int(self.cells.sum())


_MODES = {"naive": kernels.MODE_NAIVE, "dcw": kernels.MODE_DCW}


_U8 = np.dtype(np.uint8)


def _head_bits(bits, width: int):
    """The first `width` bits; raises when fewer are given or any of them
    is not 0 or 1."""
    head = bits
    if len(head) != width:
        head = bits[:width]
        if len(head) != width:
            raise ConfigError(f"{len(bits)} bits given for width {width}")
    # one byte per bit: deleting the 0 and 1 bytes must leave nothing
    if getattr(head, "dtype", None) is _U8:
        bad = head.tobytes().translate(None, b"\x00\x01")
    else:
        head = np.asarray(head)
        bad = ((head != 0) & (head != 1)).any()
    if bad:
        raise ConfigError("bits must be 0 or 1")
    return head


class Device:
    """Owns the track pool, the counters, and every charging rule."""

    def __init__(self, geometry: Geometry, cost: CostModel | None = None,
                 record_steps: bool = False, count_new_detect: bool = False):
        self.geom = geometry
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

    def track(self, track_id: int) -> Racetrack:
        try:
            return self.tracks[track_id]
        except KeyError:
            raise AllocationError(f"unknown track {track_id}") from None

    def total_skyrmions(self) -> int:
        return (sum(t.popcount() for t in self.tracks.values())
                + sum(g.popcount() for g in self.groups.values()))

    # ------------------------------------------------------------ primitives

    def _resolve(self, tracks):
        if isinstance(tracks, (Racetrack, TrackGroup)):
            return [tracks]
        if isinstance(tracks, int):
            return [self.track(tracks)]
        return [t if isinstance(t, (Racetrack, TrackGroup)) else self.track(t)
                for t in tracks]

    def shift(self, tracks, direction: str, steps: int) -> None:
        """Shift a set of tracks together. Energy per track per step;
        latency one step per step (simultaneous movement). steps = 0 is a
        no-op."""
        if steps < 0:
            raise ConfigError("steps must be >= 0")
        if direction not in (LEFT, RIGHT):
            raise ConfigError("direction must be 'left' or 'right'")
        if steps == 0:
            return
        handles = ((tracks,) if isinstance(tracks, (Racetrack, TrackGroup))
                   else self._resolve(tracks))
        delta = steps if direction == RIGHT else -steps
        limit = self.geom.interport_bits
        for h in handles:
            if abs(h.offset + delta) > limit:
                raise BoundaryError(
                    f"shift {direction} {steps} would move offset to "
                    f"{h.offset + delta}, past the overflow region ({limit})")
        width = 0
        for h in handles:
            h.offset += delta
            width += getattr(h, "n_tracks", 1)
        self.counters.record_shift(width, steps)

    def _check_port(self, handle, port: int) -> None:
        if not (0 <= port < handle.n_ports):
            raise PortRangeError(f"port {port} outside 0..{handle.n_ports - 1}")

    def detect(self, track, port: int) -> int:
        """Read the bit under one port. Pure: no cell change."""
        tr = self._resolve(track)[0]
        self._check_port(tr, port)
        bit = int(tr.cells[tr.port_cell(port)])
        self.counters.record("detect", 1)
        return bit

    def inject(self, track, port: int) -> None:
        """Write a skyrmion (1) at the cell under the port."""
        tr = self._resolve(track)[0]
        self._check_port(tr, port)
        idx = tr.port_cell(port)
        if tr.cells[idx]:
            raise DoubleInjectError(f"cell under port {port} already holds a skyrmion")
        tr.cells[idx] = 1
        self.counters.record("inject", 1)

    def remove(self, track, port: int) -> None:
        """Destroy the skyrmion under the port; removing an empty cell is a
        free non-event (no count)."""
        tr = self._resolve(track)[0]
        self._check_port(tr, port)
        idx = tr.port_cell(port)
        if tr.cells[idx]:
            tr.cells[idx] = 0
            self.counters.record("remove", 1)

    def align(self, tracks, target_offset: int) -> int:
        """Minimal shifts to reach `target_offset` on every given track.

        All tracks must sit at one common offset already (they are a shift
        set). Returns the steps issued; 0 when already aligned.
        """
        if isinstance(tracks, (Racetrack, TrackGroup)):
            handles = tracks
            current = tracks.offset
        else:
            handles = self._resolve(tracks)
            offsets = {h.offset for h in handles}
            if len(offsets) != 1:
                raise ConfigError("align needs tracks at a common offset")
            current = offsets.pop()
        delta = target_offset - current
        if delta == 0:
            return 0
        self.shift(handles, RIGHT if delta > 0 else LEFT, abs(delta))
        return abs(delta)

    def _finish(self, tracks) -> None:
        # eager policy restores the home position after every access
        if self.geom.shift_policy == "eager":
            self.align(tracks, 0)

    # ----------------------------------------------- word-based charged passes

    @staticmethod
    def _check_slot(tr: Racetrack, slot: int, width: int) -> None:
        if not (0 <= slot < tr.n_ports):
            raise PortRangeError(f"word slot {slot} outside this track")
        if not (0 <= width <= tr.interport):
            raise ConfigError(f"width {width} outside one interport segment "
                              f"(0..{tr.interport})")

    def _slot_array(self, tr: Racetrack, writes):
        starts = np.empty(len(writes), dtype=np.int64)
        widths = np.empty(len(writes), dtype=np.int64)
        seen = set()
        max_w = 0
        for i, (slot, _bits, width) in enumerate(writes):
            self._check_slot(tr, slot, width)
            if slot in seen:
                raise ConfigError(f"slot {slot} written twice in one batch")
            seen.add(slot)
            starts[i] = tr.slot_start(slot)
            widths[i] = width
            max_w = max(max_w, width)
        return starts, widths, max_w

    def _charge_pass_shifts(self, tr: Racetrack) -> None:
        """The out-and-back stream of a through-port write: align home, shift
        the word span out, write while shifting back. Exactly 2 * interport
        shift steps plus any lazy-alignment slack."""
        self.align(tr, 0)
        self.counters.record_shift(1, 2 * tr.interport)

    def write_serial(self, track, slot: int, bits: np.ndarray, width: int,
                     mode: str) -> None:
        """One word through its port, naive or dcw; every port action is its
        own latency step.

        Charged as one pass: the align home, the 2 * interport out-and-back
        stream, then the detects, injects and removes, exactly what
        align/record_shift/record would bill one by one, in the same trace
        order. The stream ends home, so the eager return costs nothing.
        """
        tr = track if isinstance(track, Racetrack) else self._resolve(track)[0]
        self._check_slot(tr, slot, width)
        if mode not in _MODES:
            raise ConfigError(f"unknown write mode {mode!r}")
        bits = np.ascontiguousarray(_head_bits(bits, width))
        det, inj, rem = kernels.word_write(tr.cells, tr.slot_start(slot),
                                           tr.interport, width, bits,
                                           _MODES[mode])
        if self.count_new_detect:
            det *= 2
        shifts = abs(tr.offset) + 2 * tr.interport
        tr.offset = 0
        c = self.counters
        c.shift += shifts
        c.shift_steps += shifts
        c.detect += det
        c.detect_steps += det
        c.inject += inj
        c.inject_steps += inj
        c.remove += rem
        c.remove_steps += rem
        if c.trace is not None:
            c.log_steps("shift", shifts, shifts)
            c.log_steps("detect", det, det)
            c.log_steps("inject", inj, inj)
            c.log_steps("remove", rem, rem)

    def write_pw(self, track, slot: int, bits: np.ndarray, width: int) -> None:
        """Permutation-style write: reuse surviving skyrmions, shifting each
        to its new cell; only the population difference is injected or
        removed. Single-word by construction."""
        tr = self._resolve(track)[0]
        self._check_slot(tr, slot, width)
        new = np.ascontiguousarray(_head_bits(bits, width))
        start = tr.slot_start(slot)
        old = tr.cells[start:start + width]
        inj, rem, repos = kernels.pw_match(old, new)
        self.align(tr, 0)
        self.counters.record_shift(1, 2 * tr.interport + int(repos))
        self.counters.record("inject", int(inj))
        self.counters.record("remove", int(rem))
        tr.cells[start:start + width] = new
        self._finish(tr)

    def write_batch_bcw(self, track, writes) -> None:
        """Batched compare-write: one shared out-and-back pass; at every bit
        position all live slots detect in parallel (one step) and flip
        differing bits in parallel (one step billed at the slowest kind).

        writes: list of (word_slot, bits, width) on one track.
        """
        if not writes:
            return
        tr = self._resolve(track)[0]
        starts, widths, max_w = self._slot_array(tr, writes)
        mat = np.zeros((len(writes), max_w), dtype=np.uint8)
        for i, (_slot, bits, width) in enumerate(writes):
            mat[i, :width] = _head_bits(bits, width)
        self._charge_pass_shifts(tr)
        det, inj, rem, act, inj_only, rem_only, both = kernels.bcw_batch(
            tr.cells, starts, widths, mat)
        det, inj, rem, act = int(det), int(inj), int(rem), int(act)
        if self.count_new_detect:
            det *= 2
        # a column that both injects and removes is one mixed fire, billed
        # at the slower kind
        if self.cost.dominant(("inject", "remove")) == "inject":
            inj_steps, rem_steps = int(inj_only) + int(both), int(rem_only)
        else:
            inj_steps, rem_steps = int(inj_only), int(rem_only) + int(both)
        c = self.counters
        c.detect += det
        c.detect_steps += act
        c.inject += inj
        c.inject_steps += inj_steps
        c.remove += rem
        c.remove_steps += rem_steps
        if c.trace is not None:
            c.log_steps("detect", det, act)
            c.log_steps("inject", inj, inj_steps)
            c.log_steps("remove", rem, rem_steps)
        self._finish(tr)

    def read_word(self, track, slot: int, width: int) -> int:
        """Stream one word's bits through its port, detecting each; the
        one-slot scan."""
        return self.scan_words(track, (slot,), width)[0]

    def scan_words(self, track, slots, width: int, expect=None,
                   target=None) -> list[int]:
        """Read the words in `slots` one after another and return them.

        Stops after the first word that equals `target` or differs from
        its entry in `expect` (None: no such stop), so a buffer scan pays
        for the reads up to its hit and no further.

        Each read sweeps from whichever end of the bit range is closer to
        the current offset, so back-to-back reads ping-pong instead of
        paying a realign pass. Lazy policy leaves the track where the sweep
        ends; eager returns it home. A read is charged the align shifts to
        the near end, width - 1 sweep shifts to the far end, width serial
        detects, then the eager return: exactly what align/shift/record/
        _finish would bill one by one, in the same trace order.
        """
        tr = track if isinstance(track, Racetrack) else self._resolve(track)[0]
        n_ports, ip = tr.n_ports, tr.interport
        for slot in slots:
            if not (0 <= slot < n_ports):
                raise PortRangeError(f"word slot {slot} outside this track")
        if not (0 <= width <= ip):
            raise ConfigError(f"width {width} outside one interport segment "
                              f"(0..{ip})")
        if expect is not None and len(expect) != len(slots):
            raise ConfigError(f"{len(expect)} expected words for "
                              f"{len(slots)} slots")
        # bits most significant first; slot starts are >= interport, so
        # start - 1 never wraps to the array end. Width 0 reads 0, free.
        # Both sweep ends lie in [1 - width, 0]; width <= interport keeps
        # them inside the overflow region, so no shift can overrun.
        raw = tr.cells.tobytes()
        c = self.counters
        eager = self.geom.shift_policy == "eager"
        lo = 1 - width
        offset = tr.offset
        shifts = 0
        words = []
        for slot in slots:
            start = (slot + 1) * ip
            word = int(raw[start + width - 1:start - 1:-1]
                       .translate(kernels.BIT_DIGITS) or b"0", 2)
            words.append(word)
            if width:
                if abs(offset) <= abs(offset - lo):
                    near, far = 0, lo
                else:
                    near, far = lo, 0
                sweep = abs(near - offset) + width - 1
                home = -far if eager else 0
                offset = 0 if eager else far
                shifts += sweep + home
                if c.trace is not None:
                    c.log_steps("shift", sweep, sweep)
                    c.log_steps("detect", width, width)
                    c.log_steps("shift", home, home)
            if word == target or (expect is not None
                                  and word != expect[len(words) - 1]):
                break
        tr.offset = offset
        detects = width * len(words)
        c.shift += shifts
        c.shift_steps += shifts
        c.detect += detects
        c.detect_steps += detects
        return words

    # -------------------------------------------- bit-interleaved charged ops

    def group_align(self, group: TrackGroup, node_offset: int) -> int:
        """Bring a node column under the ports; the whole group moves as one
        shift set."""
        if not (0 <= node_offset < group.interport):
            raise ConfigError("node offset outside the interport region")
        return self.align(group, -node_offset)

    @staticmethod
    def _columns(group: TrackGroup, node_offset: int, lo: int, hi: int):
        """Index of the cell columns of ports lo..hi at a node offset: one
        column, or every interport-th from lo's."""
        col = (lo + 1) * group.interport + node_offset
        if lo == hi:
            return col
        return slice(col, col + (hi - lo) * group.interport + 1,
                     group.interport)

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
                      target=None) -> list[int]:
        """Read the node's words under `ports` one after another and return
        them, stopping as :meth:`scan_words` does.

        Every row head sits over the same column, so sensing a word is a
        single simultaneous fire regardless of how writes are driven.
        """
        n_ports = group.n_ports
        for port in ports:
            if not (0 <= port < n_ports):
                raise PortRangeError(f"port {port} outside 0..{n_ports - 1}")
        if row_start < 0 or width < 0 or row_start + width > group.n_tracks:
            raise self._rows_error(group, row_start, width)
        if expect is not None and len(expect) != len(ports):
            raise ConfigError(f"{len(expect)} expected words for "
                              f"{len(ports)} ports")
        ip = group.interport
        if group.offset != -node_offset or not (0 <= node_offset < ip):
            raise ConfigError("group not aligned to the requested node offset")
        if not ports:
            return []
        # column-major bytes of the node's columns, rows most significant
        # first: each port's word is one run of `width` bytes (none when
        # width is 0, whatever rows the slice then spans)
        lo = min(ports)
        raw = group.cells[
            row_start + width - 1:row_start - 1 if row_start else None:-1,
            self._columns(group, node_offset, lo, max(ports))].tobytes("F")
        words = []
        for port in ports:
            at = (port - lo) * width
            word = int(raw[at:at + width].translate(kernels.BIT_DIGITS)
                       or b"0", 2)
            words.append(word)
            if word == target or (expect is not None
                                  and word != expect[len(words) - 1]):
                break
        if width:
            c = self.counters
            c.detect += width * len(words)
            c.detect_steps += len(words)
            if c.trace is not None:
                c.trace.extend([("detect", width)] * len(words))
        return words

    def bi_write_word(self, group: TrackGroup, port: int, node_offset: int,
                      row_start: int, span: int, width: int, bits: np.ndarray,
                      mode: str, parallel: bool) -> None:
        """Write one word across tracks at an aligned column; the one-word
        node write."""
        value = kernels.bits_to_int(_head_bits(bits, width))
        self.bi_write_node(group, node_offset,
                           [(port, row_start, span, width, value)], mode,
                           parallel)

    def bi_write_node(self, group: TrackGroup, node_offset: int, words,
                      mode: str, parallel: bool) -> None:
        """Write words of one node at an aligned column offset, naive or
        compare-and-flip, each billed as its own pass.

        words: (port, row_start, span, width, value) per word; the value
        fills rows [row_start, row_start + width), least significant bit
        first. A naive write clears the whole row span, a compare write
        leaves rows past `width` alone. Every word is checked before any
        cell or counter changes.

        Sensing (the compare pass) and the unconditional clear pulse of a
        naive write carry no per-row data, so they fire all rows in one
        step. Patterned pulses that drive each row from its own data bit
        need the parallel write drivers: one step with them, one step per
        landed instance without.
        """
        if not words:
            return
        if mode not in _MODES:
            raise ConfigError(f"unknown write mode {mode!r}")
        n_ports, rows = group.n_ports, group.n_tracks
        seen = set()
        for port, row_start, span, width, value in words:
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
        ip = group.interport
        if group.offset != -node_offset or not (0 <= node_offset < ip):
            raise ConfigError("group not aligned to the requested node offset")
        ports = [w[0] for w in words]
        lo = min(ports)
        # the node's columns as one bytearray, one column after another and
        # most significant row first: a word is the run of `width` bytes
        # ending `row_start` bytes before its column's end, compared as two
        # ints and written back with the rest in one go
        view = group.cells[::-1, self._columns(group, node_offset, lo,
                                               max(ports))]
        buf = bytearray(view.tobytes("F"))
        digits, to_cells = kernels.BIT_DIGITS, kernels.DIGIT_BITS
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
        for port, row_start, span, width, value in words:
            end = (port - lo + 1) * rows - row_start
            new = (format(value, f"0{width}b").encode().translate(to_cells)
                   if width else b"")
            if naive:
                d, r, i = 0, buf.count(1, end - span, end), value.bit_count()
                buf[end - span:end] = bytes(span - width) + new
            else:
                old = int(buf[end - width:end].translate(digits) or b"0", 2)
                d, r, i = (per_bit * width, (old & ~value).bit_count(),
                           (value & ~old).bit_count())
                buf[end - width:end] = new
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
        view[...] = np.frombuffer(buf, dtype=np.uint8).reshape(
            view.shape[::-1]).T
        c.detect += det
        c.detect_steps += det_steps
        c.remove += rem
        c.remove_steps += rem_steps
        c.inject += inj
        c.inject_steps += inj_steps
