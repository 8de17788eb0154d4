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

from cellimage import cell_image, load_image
from skrmbetree import kernels
from skrmbetree.config import CostModel, Geometry
from skrmbetree.device import Device
from skrmbetree.strategies import apply_strategy

WIDTHS = (4, 8, 16, 64)
TRIALS = 1000


def fresh_track(width, ports=4):
    geom = Geometry(interport_bits=width, ports_per_track=ports)
    dev = Device(geom, CostModel())
    return dev, dev.new_track()


def xor_oracle(old, new):
    inj = int(np.count_nonzero((old == 0) & (new == 1)))
    rem = int(np.count_nonzero((old == 1) & (new == 0)))
    return inj, rem


def value_of(bits):
    """The int a little-endian bit array spells."""
    return sum(int(b) << i for i, b in enumerate(bits))


def load_cells(tr, start, bits):
    """Overwrite the cells from `start` on with `bits`."""
    cells = cell_image(tr)
    cells[start:start + len(bits)] = bits
    load_image(tr, cells)


@pytest.mark.parametrize("width", WIDTHS)
def test_all_strategies_land_the_new_pattern(width):
    rng = np.random.default_rng(width)
    for strategy in ("naive", "dcw", "pw", "bcw"):
        dev, tr = fresh_track(width)
        start = tr.slot_start(1)
        for _ in range(TRIALS // 4):
            old = rng.integers(0, 2, size=width, dtype=np.uint8)
            new = rng.integers(0, 2, size=width, dtype=np.uint8)
            load_cells(tr, start, old)
            apply_strategy(dev, tr, [(1, value_of(new), width)], strategy,
                           parallel=(strategy == "bcw"))
            assert np.array_equal(cell_image(tr)[start:start + width],
                                  new), strategy


class _CallSpy:
    """Forwards to a Device and logs every name looked up on it from
    outside (apply_strategy looks up only the methods it calls); calls the
    device makes on itself are not seen."""

    def __init__(self, device):
        self._device = device
        self.calls = []

    def __getattr__(self, name):
        self.calls.append(name)
        return getattr(self._device, name)


# the one device call a node write of three words makes per route: the
# node's words in one serial pass, or one shared pass with parallel ports
_ROUTED_CALLS = {"naive": ["write_words"], "dcw": ["write_words"],
                 "bcw": ["write_words"], "ports": ["write_batch_bcw"],
                 "pw": ["write_words"]}


@pytest.mark.parametrize("strategy", ("naive", "dcw", "pw", "bcw", "ports"))
def test_apply_strategy_routes_to_one_device_pass_per_word(strategy):
    # without parallel ports every word is its own pass, pw included; with
    # them the whole batch shares one bcw pass. Either way a node write is
    # one device call
    rng = np.random.default_rng(17)
    writes = [(slot, int(rng.integers(0, 256)), 8) for slot in (3, 0, 2)]
    routed, direct = fresh_track(8), fresh_track(8)
    image = rng.integers(0, 2, size=len(cell_image(routed[1])),
                         dtype=np.uint8)
    load_image(routed[1], image)
    load_image(direct[1], image)
    parallel = strategy == "ports"
    spy = _CallSpy(routed[0])
    apply_strategy(spy, routed[1], writes, "bcw" if parallel else strategy,
                   parallel)
    assert spy.calls == _ROUTED_CALLS[strategy]
    dev, tr = direct
    if parallel:
        dev.write_batch_bcw(tr, writes)
    else:
        for slot, value, width in writes:
            if strategy == "pw":
                dev.write_pw(tr, slot, value, width)
            elif strategy == "bcw":
                dev.write_batch_bcw(tr, [(slot, value, width)])
            else:
                dev.write_serial(tr, slot, value, width, strategy)
    assert routed[1].cells == tr.cells
    assert routed[0].counters.as_flat_dict() == dev.counters.as_flat_dict()


@pytest.mark.parametrize("width", WIDTHS)
def test_dcw_counts_equal_xor_oracle(width):
    rng = np.random.default_rng(width + 100)
    dev, tr = fresh_track(width)
    start = tr.slot_start(0)
    for _ in range(TRIALS):
        old = rng.integers(0, 2, size=width, dtype=np.uint8)
        new = rng.integers(0, 2, size=width, dtype=np.uint8)
        load_cells(tr, start, old)
        before = dev.counters.snapshot()
        apply_strategy(dev, tr, [(0, value_of(new), width)], "dcw",
                       parallel=False)
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
            load_cells(tr, start, old)
            before = dev.counters.snapshot()
            apply_strategy(dev, tr, [(0, value_of(new), width)], strategy,
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
        load_cells(tr, start, old)
        before = dev.counters.snapshot()
        apply_strategy(dev, tr, [(0, value_of(new), 8)], "dcw",
                       parallel=False)
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
            load_cells(tr, s, old)
        writes = [(slot, value_of(new), 16) for slot, new in enumerate(news)]
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
