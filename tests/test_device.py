"""Device primitives: coordinates, charging rules, pass arithmetic."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skrmbetree import kernels
from skrmbetree.config import CostModel, Geometry
from skrmbetree.counters import accumulate_cost, latency_from_trace
from skrmbetree.device import Device
from skrmbetree.errors import (BoundaryError, ConfigError, DoubleInjectError,
                               PortRangeError)


def small_device(word_bits=8, ports=4, policy="lazy", **kw):
    geom = Geometry(word_bits=word_bits, interport_bits=word_bits,
                    ports_per_track=ports, shift_policy=policy)
    return Device(geom, CostModel(), **kw)


def test_inject_detect_remove_round_trip():
    dev = small_device()
    tr = dev.new_track()
    assert dev.detect(tr, 1) == 0
    dev.inject(tr, 1)
    assert dev.detect(tr, 1) == 1
    dev.remove(tr, 1)
    assert dev.detect(tr, 1) == 0
    c = dev.counters
    assert (c.detect, c.inject, c.remove) == (3, 1, 1)


def test_double_inject_rejected():
    dev = small_device()
    tr = dev.new_track()
    dev.inject(tr, 0)
    with pytest.raises(DoubleInjectError):
        dev.inject(tr, 0)


def test_remove_of_empty_cell_is_free():
    dev = small_device()
    tr = dev.new_track()
    dev.remove(tr, 2)
    assert dev.counters.remove == 0
    assert dev.counters.remove_steps == 0


def test_port_range_checked():
    dev = small_device(ports=4)
    tr = dev.new_track()
    with pytest.raises(PortRangeError):
        dev.detect(tr, 4)
    with pytest.raises(PortRangeError):
        dev.inject(tr, -1)


def test_shift_moves_the_port_window_not_the_data():
    dev = small_device()
    tr = dev.new_track()
    dev.inject(tr, 1)
    cell = tr.port_cell(1)
    dev.shift(tr, "right", 3)
    # track-local content stays put; the port now faces another cell
    assert tr.cells[cell] == 1
    assert dev.detect(tr, 1) == 0
    assert tr.port_cell(1) == cell - 3


def test_shift_boundary_overflow_region():
    dev = small_device(word_bits=8)
    tr = dev.new_track()
    dev.shift(tr, "right", 8)
    with pytest.raises(BoundaryError):
        dev.shift(tr, "right", 1)
    dev.shift(tr, "left", 16)
    with pytest.raises(BoundaryError):
        dev.shift(tr, "left", 1)


def test_lockstep_shift_billing():
    dev = small_device()
    a, b, c = dev.new_track(), dev.new_track(), dev.new_track()
    dev.shift([a, b, c], "left", 5)
    # energy per track and step, latency once per step
    assert dev.counters.shift == 15
    assert dev.counters.shift_steps == 5


def test_group_shift_counts_every_track():
    dev = small_device()
    g = dev.new_group(16)
    dev.shift(g, "right", 2)
    assert dev.counters.shift == 32
    assert dev.counters.shift_steps == 2


def test_align_needs_common_offset():
    dev = small_device()
    a, b = dev.new_track(), dev.new_track()
    dev.shift(a, "right", 1)
    with pytest.raises(ConfigError):
        dev.align([a, b], 0)
    assert dev.align(a, 0) == 1
    assert dev.align([a, b], 0) == 0


def rand_bits(rng, width):
    return rng.integers(0, 2, size=width, dtype=np.uint8)


def test_write_serial_content_and_pass_shifts():
    dev = small_device(word_bits=8)
    tr = dev.new_track()
    bits = kernels.int_to_bits(0xA5, 8)
    dev.write_serial(tr, 2, bits, 8, "naive")
    start = tr.slot_start(2)
    assert kernels.bits_to_int(tr.cells[start:start + 8]) == 0xA5
    # through-port pass from home: exactly 2 * interport shift steps
    assert dev.counters.shift_steps == 16
    assert tr.offset == 0


def test_write_serial_dcw_flips_only_differences():
    dev = small_device(word_bits=8)
    tr = dev.new_track()
    dev.write_serial(tr, 0, kernels.int_to_bits(0x0F, 8), 8, "naive")
    before = dev.counters.snapshot()
    dev.write_serial(tr, 0, kernels.int_to_bits(0x3C, 8), 8, "dcw")
    d = dev.counters.delta(before)
    # 0x0F -> 0x3C: inject bits 4,5; remove bits 0,1
    assert (d.inject, d.remove, d.detect) == (2, 2, 8)


def test_naive_clears_stale_wide_content():
    dev = small_device(word_bits=8)
    tr = dev.new_track()
    dev.write_serial(tr, 1, kernels.int_to_bits(0xFF, 8), 8, "naive")
    dev.write_serial(tr, 1, kernels.int_to_bits(0x1, 4), 4, "naive")
    start = tr.slot_start(1)
    assert kernels.bits_to_int(tr.cells[start:start + 8]) == 0x1


def test_serial_naive_batch_pass_arithmetic():
    # one pass per word, each exactly 2 * interport from home
    for n in (1, 2, 4, 8):
        dev = small_device(word_bits=8, ports=16)
        tr = dev.new_track()
        rng = np.random.default_rng(n)
        for slot in range(n):
            dev.write_serial(tr, slot, rand_bits(rng, 8), 8, "naive")
        assert dev.counters.shift_steps == n * 16


def test_bcw_batch_single_shared_pass():
    dev = small_device(word_bits=8, ports=16)
    tr = dev.new_track()
    rng = np.random.default_rng(3)
    writes = [(slot, rand_bits(rng, 8), 8) for slot in range(8)]
    dev.write_batch_bcw(tr, writes)
    assert dev.counters.shift_steps == 16
    for slot, bits, width in writes:
        start = tr.slot_start(slot)
        assert np.array_equal(tr.cells[start:start + width], bits)


def test_bcw_rejects_duplicate_slots():
    dev = small_device()
    tr = dev.new_track()
    bits = kernels.int_to_bits(1, 8)
    with pytest.raises(ConfigError):
        dev.write_batch_bcw(tr, [(0, bits, 8), (0, bits, 8)])


def test_bcw_trace_agrees_with_aggregate_counters():
    rng = np.random.default_rng(7)
    writes = [(slot, rand_bits(rng, 8), 8) for slot in range(6)]
    results = []
    for record in (False, True):
        dev = small_device(word_bits=8, ports=8, record_steps=record)
        tr = dev.new_track()
        for slot, _, _ in writes:
            tr.cells[tr.slot_start(slot):tr.slot_start(slot) + 8] = \
                rand_bits(np.random.default_rng(slot), 8)
        dev.write_batch_bcw(tr, [(s, b.copy(), w) for s, b, w in writes])
        results.append(dev.counters.as_flat_dict(dev.cost))
        if record:
            _, lat = accumulate_cost(dev.counters, dev.cost)
            # trace sums step by step, so only float association differs
            assert latency_from_trace(dev.counters.trace, dev.cost) == \
                pytest.approx(lat)
    assert results[0] == results[1]


def test_write_pw_reuses_population():
    dev = small_device(word_bits=8)
    tr = dev.new_track()
    dev.write_serial(tr, 0, kernels.int_to_bits(0b00001111, 8), 8, "naive")
    before = dev.counters.snapshot()
    dev.write_pw(tr, 0, kernels.int_to_bits(0b11110000, 8), 8)
    d = dev.counters.delta(before)
    # same popcount: pure repositioning, no injects or removes
    assert (d.inject, d.remove) == (0, 0)
    assert d.shift_steps == 16 + 4 * 4
    start = tr.slot_start(0)
    assert kernels.bits_to_int(tr.cells[start:start + 8]) == 0b11110000


def test_read_word_value_and_detects():
    dev = small_device(word_bits=8)
    tr = dev.new_track()
    dev.write_serial(tr, 3, kernels.int_to_bits(0x5A, 8), 8, "naive")
    before = dev.counters.snapshot()
    assert dev.read_word(tr, 3, 8) == 0x5A
    d = dev.counters.delta(before)
    assert d.detect == 8
    assert d.detect_steps == 8      # one port, bits stream by serially


def test_read_word_ping_pong_avoids_realign():
    dev = small_device(word_bits=8)
    tr = dev.new_track()
    dev.read_word(tr, 0, 8)
    before = dev.counters.snapshot()
    dev.read_word(tr, 0, 8)
    # second sweep starts from the end where the first one stopped
    assert dev.counters.delta(before).shift_steps == 7


def test_eager_policy_returns_home():
    dev = small_device(word_bits=8, policy="eager")
    tr = dev.new_track()
    dev.read_word(tr, 0, 8)
    assert tr.offset == 0
    lazy = small_device(word_bits=8)
    tr2 = lazy.new_track()
    lazy.read_word(tr2, 0, 8)
    assert tr2.offset != 0
    # eager pays the return shifts that lazy skips
    assert dev.counters.shift_steps > lazy.counters.shift_steps


def test_read_word_rejects_width_past_the_slot():
    dev = small_device(word_bits=8)
    tr = dev.new_track()
    dev.write_serial(tr, 1, kernels.int_to_bits(0xFF, 8), 8, "naive")
    dev.shift(tr, "left", 3)
    before = dev.counters.as_flat_dict()
    # width 9 would pick up bit 0 of slot 1; width 11 would overrun the
    # overflow region after paying the align
    for width in (9, 11, -1):
        with pytest.raises(ConfigError):
            dev.read_word(tr, 0, width)
        assert dev.counters.as_flat_dict() == before
        assert tr.offset == -3
    with pytest.raises(PortRangeError):
        dev.read_word(tr, 4, 8)
    assert dev.counters.as_flat_dict() == before


def _cells_value(tr, slot, width):
    start = tr.slot_start(slot)
    return sum(int(b) << i for i, b in enumerate(tr.cells[start:start + width]))


def _composed_read(dev, tr, slot, width):
    """read_word as the primitives bill it one call at a time."""
    if width == 0:
        return 0
    lo = -(width - 1)
    near = 0 if abs(tr.offset) <= abs(tr.offset - lo) else lo
    far = lo if near == 0 else 0
    dev.align(tr, near)
    if width > 1:
        dev.shift(tr, "right" if far > near else "left", width - 1)
    dev.counters.record("detect", width)
    value = _cells_value(tr, slot, width)
    if dev.geom.shift_policy == "eager":
        dev.align(tr, 0)
    return value


_SLOTS = 4
_READ_OPS = st.lists(st.one_of(
    st.tuples(st.just("write"), st.integers(0, _SLOTS - 1),
              st.integers(0, 255), st.integers(0, 8),
              st.sampled_from(["naive", "dcw"])),
    st.tuples(st.just("read"), st.integers(0, _SLOTS - 1),
              st.integers(0, 8)),
    st.tuples(st.just("align"), st.integers(-8, 8))), max_size=40)


@settings(max_examples=150, deadline=None)
@given(policy=st.sampled_from(["lazy", "eager"]), record=st.booleans(),
       ops=_READ_OPS)
# both sweep ends equally far away: the sweep starts from the home end
@example(policy="lazy", record=True, ops=[("align", -2), ("read", 1, 5)])
@example(policy="eager", record=False, ops=[("align", -2), ("read", 1, 5)])
def test_read_word_bills_like_the_composed_primitives(policy, record, ops):
    devs = [small_device(word_bits=8, ports=_SLOTS, policy=policy,
                         record_steps=record) for _ in range(2)]
    trs = [d.new_track() for d in devs]
    for op in ops:
        got = []
        for dev, tr, read in zip(devs, trs, (Device.read_word, _composed_read)):
            if op[0] == "write":
                _, slot, value, width, mode = op
                value &= (1 << width) - 1
                dev.write_serial(tr, slot, kernels.int_to_bits(value, width),
                                 width, mode)
            elif op[0] == "read":
                got.append(read(dev, tr, op[1], op[2]))
            else:
                dev.align(tr, op[1])
        assert len(set(got)) <= 1
        if got:
            assert got[0] == _cells_value(trs[0], op[1], op[2])
        assert trs[0].offset == trs[1].offset
        assert (devs[0].counters.as_flat_dict()
                == devs[1].counters.as_flat_dict())
        assert devs[0].counters.trace == devs[1].counters.trace


def _composed_bi_write(dev, group, port, node_offset, row_start, span,
                       width, bits, mode, parallel):
    """bi_write_word billed through OpCounters.record, one fire per call."""
    col = group.slot_start(port) + node_offset
    det, inj, rem = kernels.bi_write(group.cells, row_start, span, width, col,
                                     np.ascontiguousarray(bits[:width]),
                                     kernels.MODE_NAIVE if mode == "naive"
                                     else kernels.MODE_DCW)
    c = dev.counters
    c.record("detect", int(det), parallel=True)
    c.record("remove", int(rem), parallel=parallel or mode == "naive")
    c.record("inject", int(inj), parallel=parallel)


def _composed_bi_read(dev, group, port, node_offset, row_start, width):
    if width == 0:
        return 0
    col = group.slot_start(port) + node_offset
    dev.counters.record("detect", width, parallel=True)
    return sum(int(b) << i for i, b in
               enumerate(group.cells[row_start:row_start + width, col]))


@settings(max_examples=100, deadline=None)
@given(record=st.booleans(), ops=st.lists(st.one_of(
    st.tuples(st.just("write"), st.integers(0, 3), st.integers(0, 255),
              st.integers(0, 8), st.sampled_from(["naive", "dcw"]),
              st.booleans()),
    st.tuples(st.just("read"), st.integers(0, 3), st.integers(0, 8))),
    max_size=30))
def test_bi_word_ops_bill_like_record(record, ops):
    devs = [small_device(word_bits=8, ports=4, record_steps=record)
            for _ in range(2)]
    groups = [d.new_group(8) for d in devs]
    for dev, g in zip(devs, groups):
        dev.group_align(g, 2)
    sides = ((Device.bi_write_word, Device.bi_read_word),
             (_composed_bi_write, _composed_bi_read))
    for op in ops:
        got = []
        for dev, g, (write, read) in zip(devs, groups, sides):
            if op[0] == "write":
                _, port, value, width, mode, parallel = op
                value &= (1 << width) - 1
                bits = kernels.int_to_bits(value, width)
                write(dev, g, port, 2, 0, 8, width, bits, mode, parallel)
            else:
                got.append(read(dev, g, op[1], 2, 0, op[2]))
        assert len(set(got)) <= 1
        assert np.array_equal(groups[0].cells, groups[1].cells)
        assert (devs[0].counters.as_flat_dict()
                == devs[1].counters.as_flat_dict())
        assert devs[0].counters.trace == devs[1].counters.trace


def test_group_align_and_column_check():
    dev = small_device(word_bits=8, ports=4)
    g = dev.new_group(16)
    assert dev.group_align(g, 3) == 3
    assert g.offset == -3
    with pytest.raises(ConfigError):
        dev.group_align(g, 8)
    with pytest.raises(ConfigError):
        dev.bi_read_word(g, 0, 5, 0, 8)     # not aligned to column 5


def test_bi_write_read_round_trip():
    dev = small_device(word_bits=8, ports=4)
    g = dev.new_group(16)
    dev.group_align(g, 2)
    bits = kernels.int_to_bits(0xC3, 8)
    dev.bi_write_word(g, 1, 2, 0, 8, 8, bits, "naive", parallel=False)
    assert dev.bi_read_word(g, 1, 2, 0, 8) == 0xC3
    dev.bi_write_word(g, 1, 2, 0, 8, 8, kernels.int_to_bits(0x3C, 8), "dcw",
                      parallel=False)
    assert dev.bi_read_word(g, 1, 2, 0, 8) == 0x3C


def test_bi_read_is_one_simultaneous_step():
    dev = small_device(word_bits=8, ports=4)
    g = dev.new_group(16)
    dev.group_align(g, 0)
    before = dev.counters.snapshot()
    dev.bi_read_word(g, 2, 0, 0, 8)
    d = dev.counters.delta(before)
    assert d.detect == 8
    assert d.detect_steps == 1


def test_bi_naive_write_step_billing():
    dev = small_device(word_bits=8, ports=4)
    g = dev.new_group(16)
    dev.group_align(g, 1)
    dev.bi_write_word(g, 0, 1, 0, 8, 8, kernels.int_to_bits(0xFF, 8),
                      "naive", parallel=False)
    before = dev.counters.snapshot()
    dev.bi_write_word(g, 0, 1, 0, 8, 8, kernels.int_to_bits(0x0F, 8),
                      "naive", parallel=False)
    d = dev.counters.delta(before)
    # dataless clear pulse: 8 removes in one step; patterned injects
    # serialize without the parallel drivers
    assert (d.remove, d.remove_steps) == (8, 1)
    assert (d.inject, d.inject_steps) == (4, 4)


def test_bi_compare_write_parallel_phases():
    dev = small_device(word_bits=8, ports=4)
    g = dev.new_group(16)
    dev.group_align(g, 1)
    dev.bi_write_word(g, 0, 1, 0, 8, 8, kernels.int_to_bits(0x0F, 8),
                      "dcw", parallel=True)
    before = dev.counters.snapshot()
    dev.bi_write_word(g, 0, 1, 0, 8, 8, kernels.int_to_bits(0xF0, 8),
                      "dcw", parallel=True)
    d = dev.counters.delta(before)
    # compare pass one fire, then one remove-phase and one inject-phase pulse
    assert (d.detect, d.detect_steps) == (8, 1)
    assert (d.remove, d.remove_steps) == (4, 1)
    assert (d.inject, d.inject_steps) == (4, 1)


def test_accumulate_cost_matches_hand_arithmetic():
    dev = small_device(word_bits=8)
    tr = dev.new_track()
    dev.write_serial(tr, 0, kernels.int_to_bits(0xFF, 8), 8, "naive")
    c = dev.counters
    energy, latency = accumulate_cost(c, dev.cost)
    assert energy == c.shift * 20.0 + c.inject * 200.0
    assert latency == c.shift_steps * 0.5 + c.inject_steps * 1.0


def test_skyrmion_conservation_bookkeeping():
    dev = small_device(word_bits=8)
    tr = dev.new_track()
    rng = np.random.default_rng(0)
    total = 0
    for slot in (0, 1, 2):
        bits = rand_bits(rng, 8)
        dev.write_serial(tr, slot, bits, 8, "naive")
        total += int(bits.sum())
    assert dev.total_skyrmions() == total
