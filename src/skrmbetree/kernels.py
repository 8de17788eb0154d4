"""Hot inner loops over track cell arrays, in two interchangeable backends.

The loop implementations compile with numba's @njit when available; the
``_np_*`` twins are vectorized numpy and are used when numba is missing or
disabled. Selection happens at import via the ``SKRMBETREE_NUMBA`` env var:
``auto`` (default) uses numba when importable, ``1`` requires it, ``0``
forces the numpy path. Both backends must return identical numbers; the
test suite checks them against each other and against brute force.

Cells are uint8 arrays, one byte per bit cell. Word patterns are uint8 bit
arrays with index 0 the least significant bit.
"""

from __future__ import annotations

import os

import numpy as np

# write modes shared with device.py
MODE_NAIVE = 0
MODE_DCW = 1


# bit cell bytes <-> ASCII binary digits; a bit array converts to an int by
# translating its reversed bytes into a digit string for int(..., 2)
BIT_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
DIGIT_BITS = bytes.maketrans(b"01", b"\x00\x01")


def int_to_bits(value: int, width: int) -> np.ndarray:
    """Little-endian bit array of `value`, exactly `width` cells."""
    if value < 0 or value >> width:
        raise ValueError(f"value does not fit in {width} bits")
    if width == 0:
        return np.zeros(0, dtype=np.uint8)
    digits = bytearray(format(value, f"0{width}b")[::-1], "ascii")
    return np.frombuffer(digits.translate(DIGIT_BITS), dtype=np.uint8)


def bits_to_int(bits: np.ndarray) -> int:
    """Value of a little-endian 0/1 bit array (inverse of int_to_bits)."""
    if len(bits) == 0:
        return 0
    if bits.dtype != np.uint8:
        bits = bits.astype(np.uint8)
    return int(bits[::-1].tobytes().translate(BIT_DIGITS), 2)


# ---------------------------------------------------------------- loop backend


def _loop_xor_counts(old, new):
    """(injects, removes) to turn pattern `old` into `new`."""
    inj = 0
    rem = 0
    for i in range(old.shape[0]):
        o = old[i]
        n = new[i]
        if o == 0 and n == 1:
            inj += 1
        elif o == 1 and n == 0:
            rem += 1
    return inj, rem


def _loop_word_write(cells, start, span, width, new_bits, mode):
    """Apply one word write in place; returns (detects, injects, removes).

    naive mode clears the whole `span` (stale bits die too) and injects the
    new 1s blind. dcw mode detects each of the `width` live bits and flips
    only differences, leaving bits beyond `width` alone.
    """
    detects = 0
    injects = 0
    removes = 0
    if mode == MODE_NAIVE:
        for i in range(span):
            if cells[start + i] == 1:
                removes += 1
                cells[start + i] = 0
        for i in range(width):
            if new_bits[i] == 1:
                injects += 1
                cells[start + i] = 1
    else:
        for i in range(width):
            detects += 1
            o = cells[start + i]
            n = new_bits[i]
            if o != n:
                if n == 1:
                    injects += 1
                else:
                    removes += 1
                cells[start + i] = n
    return detects, injects, removes


def _loop_bcw_batch(cells, starts, widths, new_mat):
    """One batched compare-write pass over same-track word slots.

    Visits every bit position once; at each position all slots still live
    (width > bit) detect in parallel and flip differing bits in parallel.
    Returns (detects, injects, removes, active_bits, bits_inj_only,
    bits_rem_only, bits_both) where the last four classify per-bit parallel
    steps for latency billing.
    """
    n_slots = starts.shape[0]
    max_width = 0
    for s in range(n_slots):
        if widths[s] > max_width:
            max_width = widths[s]
    detects = 0
    injects = 0
    removes = 0
    active_bits = 0
    bits_inj_only = 0
    bits_rem_only = 0
    bits_both = 0
    for i in range(max_width):
        active = False
        inj_here = 0
        rem_here = 0
        for s in range(n_slots):
            if widths[s] <= i:
                continue
            active = True
            detects += 1
            o = cells[starts[s] + i]
            n = new_mat[s, i]
            if o != n:
                if n == 1:
                    inj_here += 1
                else:
                    rem_here += 1
                cells[starts[s] + i] = n
        if active:
            active_bits += 1
        if inj_here > 0 and rem_here > 0:
            bits_both += 1
        elif inj_here > 0:
            bits_inj_only += 1
        elif rem_here > 0:
            bits_rem_only += 1
        injects += inj_here
        removes += rem_here
    return detects, injects, removes, active_bits, bits_inj_only, bits_rem_only, bits_both


def _loop_pw_match(old, new):
    """Skyrmion-reuse accounting: (injects, removes, reposition_shifts).

    Surviving skyrmions are matched first-to-first in position order; each
    match charges one shift per cell of displacement. Leftover old 1s are
    removed, leftover new 1s injected.
    """
    width = old.shape[0]
    n_old = 0
    n_new = 0
    for i in range(width):
        if old[i] == 1:
            n_old += 1
        if new[i] == 1:
            n_new += 1
    reused = n_old if n_old < n_new else n_new
    shifts = 0
    oi = 0
    ni = 0
    for _ in range(reused):
        while old[oi] == 0:
            oi += 1
        while new[ni] == 0:
            ni += 1
        d = oi - ni
        if d < 0:
            d = -d
        shifts += d
        oi += 1
        ni += 1
    return n_new - reused, n_old - reused, shifts


def _loop_bi_write(cells2d, row_start, span, width, col, new_bits, mode):
    """Column write for the bit-interleaved mapping; same contract as
    _loop_word_write but one bit per track row at a fixed column."""
    detects = 0
    injects = 0
    removes = 0
    if mode == MODE_NAIVE:
        for r in range(span):
            if cells2d[row_start + r, col] == 1:
                removes += 1
                cells2d[row_start + r, col] = 0
        for r in range(width):
            if new_bits[r] == 1:
                injects += 1
                cells2d[row_start + r, col] = 1
    else:
        for r in range(width):
            detects += 1
            o = cells2d[row_start + r, col]
            n = new_bits[r]
            if o != n:
                if n == 1:
                    injects += 1
                else:
                    removes += 1
                cells2d[row_start + r, col] = n
    return detects, injects, removes


# --------------------------------------------------------------- numpy backend


def _np_xor_counts(old, new):
    inj = int(np.count_nonzero((old == 0) & (new == 1)))
    rem = int(np.count_nonzero((old == 1) & (new == 0)))
    return inj, rem


def _np_word_write(cells, start, span, width, new_bits, mode):
    if mode == MODE_NAIVE:
        region = cells[start:start + span]
        removes = int(np.count_nonzero(region))
        region[:] = 0
        live = new_bits[:width]
        injects = int(np.count_nonzero(live))
        cells[start:start + width] = live
        return 0, injects, removes
    live = new_bits[:width]
    old = cells[start:start + width]
    injects = int(np.count_nonzero((old == 0) & (live == 1)))
    removes = int(np.count_nonzero((old == 1) & (live == 0)))
    cells[start:start + width] = live
    return width, injects, removes


def _np_bcw_batch(cells, starts, widths, new_mat):
    n_slots = len(starts)
    max_width = int(widths.max()) if n_slots else 0
    if max_width == 0:
        return 0, 0, 0, 0, 0, 0, 0
    idx = starts[:, None] + np.arange(max_width)[None, :]
    live = np.arange(max_width)[None, :] < widths[:, None]
    old = cells[idx]
    new = new_mat[:, :max_width]
    inj_cells = live & (old == 0) & (new == 1)
    rem_cells = live & (old == 1) & (new == 0)
    flat = idx[live]
    cells[flat] = new[live]
    inj_per_bit = inj_cells.sum(axis=0)
    rem_per_bit = rem_cells.sum(axis=0)
    has_inj = inj_per_bit > 0
    has_rem = rem_per_bit > 0
    return (int(np.count_nonzero(live)),
            int(inj_per_bit.sum()),
            int(rem_per_bit.sum()),
            int(np.count_nonzero(live.any(axis=0))),
            int(np.count_nonzero(has_inj & ~has_rem)),
            int(np.count_nonzero(has_rem & ~has_inj)),
            int(np.count_nonzero(has_inj & has_rem)))


def _np_pw_match(old, new):
    old_pos = np.flatnonzero(old)
    new_pos = np.flatnonzero(new)
    reused = min(len(old_pos), len(new_pos))
    shifts = int(np.abs(old_pos[:reused] - new_pos[:reused]).sum())
    return len(new_pos) - reused, len(old_pos) - reused, shifts


def _np_bi_write(cells2d, row_start, span, width, col, new_bits, mode):
    # new_bits must be contiguous 0/1 uint8: the compare reads the column
    # and the word as two ints, far cheaper than elementwise numpy ops on
    # a strided column of a few dozen cells
    if mode == MODE_NAIVE:
        region = cells2d[row_start:row_start + span, col]
        removes = region.tobytes().count(1)
        region[:] = 0
        live = new_bits[:width]
        cells2d[row_start:row_start + width, col] = live
        return 0, live.tobytes().count(1), removes
    if width == 0:
        return 0, 0, 0
    live = new_bits[:width]
    old = cells2d[row_start:row_start + width, col]
    o = int(old.tobytes().translate(BIT_DIGITS), 2)
    n = int(live.tobytes().translate(BIT_DIGITS), 2)
    old[:] = live
    return width, (n & ~o).bit_count(), (o & ~n).bit_count()


# ------------------------------------------------------------ backend selection

LOOP_IMPLS = {
    "xor_counts": _loop_xor_counts,
    "word_write": _loop_word_write,
    "bcw_batch": _loop_bcw_batch,
    "pw_match": _loop_pw_match,
    "bi_write": _loop_bi_write,
}

NUMPY_IMPLS = {
    "xor_counts": _np_xor_counts,
    "word_write": _np_word_write,
    "bcw_batch": _np_bcw_batch,
    "pw_match": _np_pw_match,
    "bi_write": _np_bi_write,
}


def _pick_backend():
    flag = os.environ.get("SKRMBETREE_NUMBA", "auto").strip().lower()
    if flag in ("0", "off", "false", "no"):
        return "numpy", NUMPY_IMPLS
    try:
        from numba import njit
    except ImportError:
        if flag in ("1", "on", "true", "yes"):
            raise
        return "numpy", NUMPY_IMPLS
    compiled = {name: njit(cache=True)(fn) for name, fn in LOOP_IMPLS.items()}
    return "numba", compiled


BACKEND, _IMPLS = _pick_backend()

xor_counts = _IMPLS["xor_counts"]
word_write = _IMPLS["word_write"]
bcw_batch = _IMPLS["bcw_batch"]
pw_match = _IMPLS["pw_match"]
bi_write = _IMPLS["bi_write"]
