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
        self.counters.record_shift(width, steps, lockstep=True)

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
        own latency step."""
        tr = self._resolve(track)[0]
        self._check_slot(tr, slot, width)
        self._charge_pass_shifts(tr)
        det, inj, rem = kernels.word_write(tr.cells, tr.slot_start(slot),
                                           tr.interport, width,
                                           np.ascontiguousarray(bits[:width]),
                                           _MODES[mode])
        if self.count_new_detect:
            det *= 2
        self.counters.record("detect", det)
        self.counters.record("inject", inj)
        self.counters.record("remove", rem)
        self._finish(tr)

    def write_pw(self, track, slot: int, bits: np.ndarray, width: int) -> None:
        """Permutation-style write: reuse surviving skyrmions, shifting each
        to its new cell; only the population difference is injected or
        removed. Single-word by construction."""
        tr = self._resolve(track)[0]
        self._check_slot(tr, slot, width)
        start = tr.slot_start(slot)
        old = tr.cells[start:start + width]
        new = np.ascontiguousarray(bits[:width])
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
        starts, widths, _ = self._slot_array(tr, writes)
        max_w = int(widths.max())
        mat = np.zeros((len(writes), max_w), dtype=np.uint8)
        for i, (_slot, bits, width) in enumerate(writes):
            mat[i, :width] = bits[:width]
        self._charge_pass_shifts(tr)
        if self.counters.trace is not None:
            self._bcw_traced(tr, starts, widths, mat)
        else:
            det, inj, rem, act, inj_only, rem_only, both = kernels.bcw_batch(
                tr.cells, starts, widths, mat)
            if self.count_new_detect:
                det *= 2
            c = self.counters
            c.detect += int(det)
            c.detect_steps += int(act)
            c.inject += int(inj)
            c.remove += int(rem)
            dom_both = self.cost.dominant(("inject", "remove"))
            inj_steps = int(inj_only) + (int(both) if dom_both == "inject" else 0)
            rem_steps = int(rem_only) + (int(both) if dom_both == "remove" else 0)
            c.inject_steps += inj_steps
            c.remove_steps += rem_steps
        self._finish(tr)

    def _bcw_traced(self, tr, starts, widths, mat):
        # slow reference path used when a step trace is requested; must
        # charge exactly what the kernel path charges
        max_w = mat.shape[1]
        for i in range(max_w):
            live = [s for s in range(len(starts)) if widths[s] > i]
            if not live:
                continue
            n_det = len(live) * (2 if self.count_new_detect else 1)
            self.counters.record("detect", n_det, parallel=True)
            inj = rem = 0
            for s in live:
                idx = int(starts[s]) + i
                old = int(tr.cells[idx])
                new = int(mat[s, i])
                if old != new:
                    if new:
                        inj += 1
                    else:
                        rem += 1
                    tr.cells[idx] = new
            self.counters.record_mixed(self.cost, inject=inj, remove=rem,
                                       parallel=True)

    def read_word(self, track, slot: int, width: int) -> int:
        """Stream one word's bits through its port, detecting each.

        The sweep starts from whichever end of the bit range is closer to
        the current offset, so back-to-back reads ping-pong instead of
        paying a realign pass. Lazy policy leaves the track where the sweep
        ends; eager returns it home.

        Charged as one pass: the align shifts to the near end, width - 1
        sweep shifts to the far end, width serial detects, then the eager
        return, exactly what align/shift/record/_finish would bill one by
        one, in the same trace order.
        """
        tr = track if isinstance(track, Racetrack) else self._resolve(track)[0]
        self._check_slot(tr, slot, width)
        if width == 0:
            return 0
        # both sweep ends lie in [1 - width, 0]; width <= interport keeps
        # them inside the overflow region, so no shift below can overrun
        offset = tr.offset
        lo = 1 - width
        if abs(offset) <= abs(offset - lo):
            near, far = 0, lo
        else:
            near, far = lo, 0
        approach = abs(near - offset)
        eager = self.geom.shift_policy == "eager"
        home = abs(far) if eager else 0
        tr.offset = 0 if eager else far
        shifts = approach + width - 1 + home
        c = self.counters
        c.shift += shifts
        c.shift_steps += shifts
        c.detect += width
        c.detect_steps += width
        if c.trace is not None:
            c.log_steps("shift", approach + width - 1, approach + width - 1)
            c.log_steps("detect", width, width)
            c.log_steps("shift", home, home)
        # bits most significant first; slot starts are >= interport, so
        # start - 1 never wraps to the array end
        start = tr.slot_start(slot)
        msb_first = tr.cells[start + width - 1:start - 1:-1]
        return int(msb_first.tobytes().translate(kernels.BIT_DIGITS), 2)

    # -------------------------------------------- bit-interleaved charged ops

    def group_align(self, group: TrackGroup, node_offset: int) -> int:
        """Bring a node column under the ports; the whole group moves as one
        shift set."""
        if not (0 <= node_offset < group.interport):
            raise ConfigError("node offset outside the interport region")
        return self.align(group, -node_offset)

    @staticmethod
    def _column(group: TrackGroup, port: int, node_offset: int,
                row_start: int, rows: int) -> int:
        """Cell column of port `port` at an aligned node offset, after
        checking that rows [row_start, row_start + rows) exist. Raises
        before any cell or counter changes."""
        if not (0 <= port < group.n_ports):
            raise PortRangeError(f"port {port} outside 0..{group.n_ports - 1}")
        if group.offset != -node_offset or not (0 <= node_offset < group.interport):
            raise ConfigError("group not aligned to the requested node offset")
        if row_start < 0 or rows < 0 or row_start + rows > group.n_tracks:
            raise ConfigError(f"rows {row_start}..{row_start + rows - 1} "
                              f"outside the group's {group.n_tracks} tracks")
        return (port + 1) * group.interport + node_offset

    def bi_read_word(self, group: TrackGroup, port: int, node_offset: int,
                     row_start: int, width: int) -> int:
        """Read one word stored one-bit-per-track at an aligned column.

        Every row head sits over the same column, so sensing is a single
        simultaneous fire regardless of how writes are driven.
        """
        col = self._column(group, port, node_offset, row_start, width)
        if width == 0:
            return 0
        c = self.counters
        c.detect += width
        c.detect_steps += 1
        if c.trace is not None:
            c.trace.append(("detect", width))
        return kernels.bits_to_int(group.cells[row_start:row_start + width, col])

    def bi_write_word(self, group: TrackGroup, port: int, node_offset: int,
                      row_start: int, span: int, width: int, bits: np.ndarray,
                      mode: str, parallel: bool) -> None:
        """Write one word across tracks at an aligned column, naive or
        compare-and-flip.

        Sensing (the compare pass) and the unconditional clear pulse of a
        naive write carry no per-row data, so they fire all rows in one
        step. Patterned pulses that drive each row from its own data bit
        need the parallel write drivers: one step with them, one step per
        landed instance without.
        """
        col = self._column(group, port, node_offset, row_start, span)
        if not (0 <= width <= span):
            raise ConfigError(f"width {width} outside the {span}-row span")
        bits = bits[:width]
        if len(bits) != width:
            raise ConfigError(f"{len(bits)} bits given for width {width}")
        if mode not in _MODES:
            raise ConfigError(f"unknown write mode {mode!r}")
        # the numpy kernel compares columns as 0/1 bytes
        if bits.dtype != np.uint8 or not bits.flags.c_contiguous:
            bits = np.ascontiguousarray(bits, dtype=np.uint8)
        det, inj, rem = kernels.bi_write(group.cells, row_start, span, width,
                                         col, bits, _MODES[mode])
        det, inj, rem = int(det), int(inj), int(rem)
        # naive: the clear-all pulse fires before inject-all, two pulses,
        # never one. Compare: flips are sequenced as a remove phase then an
        # inject phase; the two pulse polarities never share a fire. A fire
        # is one step when parallel, one step per instance otherwise, and
        # no step at all when nothing fires.
        det_steps = 1 if det else 0
        if self.count_new_detect:
            det *= 2
        if parallel or mode == "naive":
            rem_steps = 1 if rem else 0
        else:
            rem_steps = rem
        inj_steps = (1 if inj else 0) if parallel else inj
        c = self.counters
        c.detect += det
        c.detect_steps += det_steps
        c.remove += rem
        c.remove_steps += rem_steps
        c.inject += inj
        c.inject_steps += inj_steps
        if c.trace is not None:
            c.log_steps("detect", det, det_steps)
            c.log_steps("remove", rem, rem_steps)
            c.log_steps("inject", inj, inj_steps)

    def counters_json(self) -> dict:
        return self.counters.as_flat_dict(self.cost)
