"""Per-bit reference loops over uint8 cell arrays, off the simulated path:
the device keeps its cells as ints and runs no kernel.

The tests run these loops on a uint8 image of the cells as the per-bit
oracles of the device's int passes. ``perfbench/`` wraps these names and
reads ``BACKEND``. Index 0 of a bit array is the least significant bit.
"""

from __future__ import annotations

import numpy as np

# write modes of word_write and bi_write
MODE_NAIVE = 0
MODE_DCW = 1

# read only by perfbench/run.py, which records it and warms no kernel for it
BACKEND = "python"


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


def xor_counts(old, new):
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


def word_write(cells, start, span, width, new_bits, mode):
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


def bcw_batch(cells, starts, widths, new_mat):
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


def pw_match(old, new):
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


def bi_write(cells2d, row_start, span, width, col, new_bits, mode):
    """Column write for the bit-interleaved mapping; same contract as
    word_write but one bit per track row at a fixed column."""
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
