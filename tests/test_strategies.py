"""Write-strategy equivalence and cost-ordering properties.

The core property: every strategy leaves the slot holding exactly the new
pattern; they only differ in primitive counts. Counts are held to the
bitwise-xor oracle (dcw), to popcount reuse (pw), and to each other
(pw <= dcw <= naive injects).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skrmbetree import kernels
from skrmbetree.config import CostModel, Geometry
from skrmbetree.device import Device
from skrmbetree.errors import ConfigError, UnsupportedBatchError
from skrmbetree.strategies import (BatchUpdate, WordPattern, apply_strategy,
                                   pw_write)

WIDTHS = (4, 8, 16, 64)
TRIALS = 1000


def fresh_track(width, ports=4):
    geom = Geometry(word_bits=width, interport_bits=width,
                    ports_per_track=ports)
    dev = Device(geom, CostModel())
    return dev, dev.new_track()


def xor_oracle(old, new):
    inj = int(np.count_nonzero((old == 0) & (new == 1)))
    rem = int(np.count_nonzero((old == 1) & (new == 0)))
    return inj, rem


def test_word_pattern_round_trip():
    p = WordPattern.from_int(0x2B, 8)
    assert p.width == 8
    assert p.popcount == 4
    assert p.as_int() == 0x2B
    with pytest.raises(ConfigError):
        WordPattern(np.array([0, 2], dtype=np.uint8))


def test_batch_update_validation():
    a = WordPattern.from_int(1, 4)
    with pytest.raises(ConfigError):
        BatchUpdate([0, 0], [a, a])
    with pytest.raises(ConfigError):
        BatchUpdate([0, 1], [a])
    batch = BatchUpdate([1, 0], [a, a])
    assert [w[0] for w in batch.writes()] == [1, 0]


def test_pw_refuses_multi_word_batches():
    dev, tr = fresh_track(8)
    bits = kernels.int_to_bits(3, 8)
    with pytest.raises(UnsupportedBatchError):
        pw_write(dev, tr, [(0, bits, 8), (1, bits, 8)])


@pytest.mark.parametrize("width", WIDTHS)
def test_all_strategies_land_the_new_pattern(width):
    rng = np.random.default_rng(width)
    for strategy in ("naive", "dcw", "pw", "bcw"):
        dev, tr = fresh_track(width)
        start = tr.slot_start(1)
        for _ in range(TRIALS // 4):
            old = rng.integers(0, 2, size=width, dtype=np.uint8)
            new = rng.integers(0, 2, size=width, dtype=np.uint8)
            tr.cells[start:start + width] = old
            apply_strategy(dev, tr, [(1, new, width)], strategy,
                           parallel=(strategy == "bcw"))
            assert np.array_equal(tr.cells[start:start + width], new), strategy


@pytest.mark.parametrize("width", WIDTHS)
def test_dcw_counts_equal_xor_oracle(width):
    rng = np.random.default_rng(width + 100)
    dev, tr = fresh_track(width)
    start = tr.slot_start(0)
    for _ in range(TRIALS):
        old = rng.integers(0, 2, size=width, dtype=np.uint8)
        new = rng.integers(0, 2, size=width, dtype=np.uint8)
        tr.cells[start:start + width] = old
        before = dev.counters.snapshot()
        apply_strategy(dev, tr, [(0, new, width)], "dcw", parallel=False)
        d = dev.counters.delta(before)
        assert (d.inject, d.remove) == xor_oracle(old, new)
        assert d.detect == width


@pytest.mark.parametrize("width", WIDTHS)
def test_inject_ordering_pw_dcw_naive(width):
    rng = np.random.default_rng(width + 200)
    for _ in range(TRIALS // 4):
        old = rng.integers(0, 2, size=width, dtype=np.uint8)
        new = rng.integers(0, 2, size=width, dtype=np.uint8)
        counts = {}
        for strategy in ("naive", "dcw", "pw"):
            dev, tr = fresh_track(width)
            start = tr.slot_start(0)
            tr.cells[start:start + width] = old
            before = dev.counters.snapshot()
            apply_strategy(dev, tr, [(0, new, width)], strategy,
                           parallel=False)
            counts[strategy] = dev.counters.delta(before).inject
        assert counts["pw"] <= counts["dcw"] <= counts["naive"]


def test_dcw_flip_count_is_minimal():
    # any write that turns old into new must flip at least the xor bits,
    # so dcw (inject + remove == hamming distance) cannot be beaten
    rng = np.random.default_rng(5)
    for _ in range(200):
        old = rng.integers(0, 2, size=8, dtype=np.uint8)
        new = rng.integers(0, 2, size=8, dtype=np.uint8)
        dev, tr = fresh_track(8)
        start = tr.slot_start(0)
        tr.cells[start:start + 8] = old
        before = dev.counters.snapshot()
        apply_strategy(dev, tr, [(0, new, 8)], "dcw", parallel=False)
        d = dev.counters.delta(before)
        assert d.inject + d.remove == int(np.count_nonzero(old != new))


def test_bcw_batch_counts_match_serial_dcw():
    # same flips, shared pass: only shift charges may differ
    rng = np.random.default_rng(9)
    olds = [rng.integers(0, 2, size=16, dtype=np.uint8) for _ in range(6)]
    news = [rng.integers(0, 2, size=16, dtype=np.uint8) for _ in range(6)]

    def run(parallel):
        dev, tr = fresh_track(16, ports=8)
        for slot, old in enumerate(olds):
            s = tr.slot_start(slot)
            tr.cells[s:s + 16] = old
        writes = [(slot, new, 16) for slot, new in enumerate(news)]
        apply_strategy(dev, tr, writes, "bcw", parallel=parallel)
        return dev.counters

    batch, serial = run(True), run(False)
    assert batch.inject == serial.inject
    assert batch.remove == serial.remove
    assert batch.detect == serial.detect
    assert batch.shift_steps < serial.shift_steps


def test_empty_batch_is_free():
    dev, tr = fresh_track(8)
    apply_strategy(dev, tr, [], "bcw", parallel=True)
    assert dev.counters.as_flat_dict() == Device(dev.geom).counters.as_flat_dict()


@pytest.mark.parametrize("name", sorted(kernels.LOOP_IMPLS))
def test_kernel_backends_agree(name):
    rng = np.random.default_rng(21)
    loop = kernels.LOOP_IMPLS[name]
    vec = kernels.NUMPY_IMPLS[name]
    for trial in range(300):
        width = int(rng.choice((4, 8, 16, 64)))
        old = rng.integers(0, 2, size=width, dtype=np.uint8)
        new = rng.integers(0, 2, size=width, dtype=np.uint8)
        if name in ("xor_counts", "pw_match"):
            assert loop(old, new) == vec(old, new)
        elif name == "word_write":
            mode = trial % 2
            a = rng.integers(0, 2, size=width * 3, dtype=np.uint8)
            b = a.copy()
            ra = loop(a, width, width * 2, width, new, mode)
            rb = vec(b, width, width * 2, width, new, mode)
            assert ra == rb and np.array_equal(a, b)
        elif name == "bi_write":
            # naive clears stale rows past `width` up to `span`; the word
            # may start past row 0 of the group and may be empty
            mode = trial % 2
            row_start = int(rng.integers(0, 4))
            live = 0 if trial % 7 == 0 else int(rng.integers(0, width + 1))
            span = live + int(rng.integers(0, 3))
            a = rng.integers(0, 2, size=(row_start + span, 32), dtype=np.uint8)
            b = a.copy()
            col = int(rng.integers(0, 32))
            ra = loop(a, row_start, span, live, col, new, mode)
            rb = vec(b, row_start, span, live, col, new, mode)
            assert ra == rb and np.array_equal(a, b)
        else:   # bcw_batch
            n = int(rng.integers(1, 6))
            starts = (rng.choice(16, size=n, replace=False) * 64).astype(np.int64)
            widths = rng.integers(1, width + 1, size=n).astype(np.int64)
            mat = rng.integers(0, 2, size=(n, int(widths.max())), dtype=np.uint8)
            a = rng.integers(0, 2, size=1200, dtype=np.uint8)
            b = a.copy()
            ra = loop(a, starts, widths, mat)
            rb = vec(b, starts, widths, mat)
            assert ra == rb and np.array_equal(a, b)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), width=st.integers(0, 256))
def test_bit_conversions_match_packbits(data, width):
    value = data.draw(st.integers(0, (1 << width) - 1))
    bits = kernels.int_to_bits(value, width)
    # reference: little-endian bytes unpacked bit by bit
    raw = value.to_bytes((width + 7) // 8, "little")
    want = np.unpackbits(np.frombuffer(raw, dtype=np.uint8),
                         bitorder="little")[:width]
    assert bits.dtype == np.uint8 and bits.flags.writeable
    assert np.array_equal(bits, want)
    assert kernels.bits_to_int(bits) == value
    assert kernels.bits_to_int(bits.astype(np.int64)) == value
    with pytest.raises(ValueError):
        kernels.int_to_bits(value + (1 << width), width)
    with pytest.raises(ValueError):
        kernels.int_to_bits(-1 - value, width)
