"""Device primitives: coordinates, charging rules, pass arithmetic."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cellimage import cell_image, load_image
from skrmbetree import kernels
from skrmbetree.config import CostModel, Geometry
from skrmbetree.counters import accumulate_cost
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


@pytest.mark.parametrize("call", [
    lambda dev, g: dev.detect(g, 1),
    lambda dev, g: dev.inject(g, 1),
    lambda dev, g: dev.remove(g, 1),
    lambda dev, g: dev.write_serial(g, 1, 5, 8, "dcw"),
    lambda dev, g: dev.write_pw(g, 1, 5, 8),
    lambda dev, g: dev.write_batch_bcw(g, [(1, 5, 8)]),
    lambda dev, g: dev.write_batch_bcw(g, []),
    lambda dev, g: dev.read_word(g, 1, 8),
    lambda dev, g: dev.write_words(g, [(1, 5, 8), (0, 3, 8)], "naive"),
    lambda dev, g: dev.write_words(g, [], "dcw"),
], ids=["detect", "inject", "remove", "write_serial", "write_pw",
        "write_batch_bcw", "write_batch_bcw_empty", "read_word",
        "write_words", "write_words_empty"])
def test_single_track_calls_refuse_a_track_group(call):
    # the primitives and word passes act on one track; a group fails
    # typed and unchanged, even with nothing to write
    dev = small_device(word_bits=8, ports=4, record_steps=True)
    g = dev.new_group(16)
    load_image(g, np.random.default_rng(3).integers(
        0, 2, size=cell_image(g).shape, dtype=np.uint8))
    dev.shift(g, "left", 3)
    before = list(g.cells), g.offset, dev.counters.as_flat_dict()
    trace = list(dev.counters.trace)
    with pytest.raises(ConfigError, match="single tracks"):
        call(dev, g)
    assert before == (g.cells, g.offset, dev.counters.as_flat_dict())
    assert dev.counters.trace == trace


def test_shift_moves_the_port_window_not_the_data():
    dev = small_device()
    tr = dev.new_track()
    dev.inject(tr, 1)
    cell = tr.port_cell(1)
    dev.shift(tr, "right", 3)
    # track-local content stays put; the port now faces another cell
    assert cell_image(tr)[cell] == 1
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


def test_group_shift_counts_every_track():
    # energy per track and step, latency once per step
    dev = small_device()
    g = dev.new_group(16)
    dev.shift(g, "right", 2)
    assert dev.counters.shift == 32
    assert dev.counters.shift_steps == 2
    assert dev.align(g, 0) == 2
    assert dev.align(g, 0) == 0
    assert dev.counters.shift == 64
    assert dev.counters.shift_steps == 4
    tr = dev.new_track()
    dev.shift(tr, "right", 1)
    assert dev.align(tr, 0) == 1
    assert dev.align(tr, 0) == 0
    assert tr.offset == 0


def _cells_value(tr, slot, width):
    start = tr.slot_start(slot)
    return sum(int(b) << i
               for i, b in enumerate(cell_image(tr)[start:start + width]))


def _load_slots(tr, image, slots):
    """Fill the cells of word slots 0..slots-1 with the bits of `image`."""
    cells = cell_image(tr)
    cells[tr.slot_start(0):tr.slot_start(slots)] = kernels.int_to_bits(
        image, slots * tr.interport)
    load_image(tr, cells)


def _fill_ones(handle):
    load_image(handle, np.ones_like(cell_image(handle)))


def test_write_serial_content_and_pass_shifts():
    dev = small_device(word_bits=8)
    tr = dev.new_track()
    dev.write_serial(tr, 2, 0xA5, 8, "naive")
    assert _cells_value(tr, 2, 8) == 0xA5
    # through-port pass from home: exactly 2 * interport shift steps
    assert dev.counters.shift_steps == 16
    assert tr.offset == 0


def test_write_serial_dcw_flips_only_differences():
    dev = small_device(word_bits=8)
    tr = dev.new_track()
    dev.write_serial(tr, 0, 0x0F, 8, "naive")
    before = dev.counters.snapshot()
    dev.write_serial(tr, 0, 0x3C, 8, "dcw")
    d = dev.counters.delta(before)
    # 0x0F -> 0x3C: inject bits 4,5; remove bits 0,1
    assert (d.inject, d.remove, d.detect) == (2, 2, 8)


def test_naive_clears_stale_wide_content():
    dev = small_device(word_bits=8)
    tr = dev.new_track()
    dev.write_serial(tr, 1, 0xFF, 8, "naive")
    dev.write_serial(tr, 1, 0x1, 4, "naive")
    assert _cells_value(tr, 1, 8) == 0x1


def test_serial_naive_batch_pass_arithmetic():
    # one pass per word, each exactly 2 * interport from home
    for n in (1, 2, 4, 8):
        dev = small_device(word_bits=8, ports=16)
        tr = dev.new_track()
        rng = np.random.default_rng(n)
        for slot in range(n):
            dev.write_serial(tr, slot, int(rng.integers(0, 256)), 8, "naive")
        assert dev.counters.shift_steps == n * 16


def test_bcw_batch_single_shared_pass():
    dev = small_device(word_bits=8, ports=16)
    tr = dev.new_track()
    rng = np.random.default_rng(3)
    writes = [(slot, int(rng.integers(0, 256)), 8) for slot in range(8)]
    dev.write_batch_bcw(tr, writes)
    assert dev.counters.shift_steps == 16
    for slot, value, width in writes:
        assert _cells_value(tr, slot, width) == value


def test_bcw_rejects_duplicate_slots():
    dev = small_device()
    tr = dev.new_track()
    with pytest.raises(ConfigError):
        dev.write_batch_bcw(tr, [(0, 1, 8), (0, 1, 8)])


def test_write_pw_reuses_population():
    dev = small_device(word_bits=8)
    tr = dev.new_track()
    dev.write_serial(tr, 0, 0b00001111, 8, "naive")
    before = dev.counters.snapshot()
    dev.write_pw(tr, 0, 0b11110000, 8)
    d = dev.counters.delta(before)
    # same popcount: pure repositioning, no injects or removes
    assert (d.inject, d.remove) == (0, 0)
    assert d.shift_steps == 16 + 4 * 4
    assert _cells_value(tr, 0, 8) == 0b11110000


def test_read_word_value_and_detects():
    dev = small_device(word_bits=8)
    tr = dev.new_track()
    dev.write_serial(tr, 3, 0x5A, 8, "naive")
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
    dev.write_serial(tr, 1, 0xFF, 8, "naive")
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
                dev.write_serial(tr, slot, value & ((1 << width) - 1), width,
                                 mode)
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


def _composed_serial(dev, tr, slot, value, width, mode):
    """write_serial as the primitives bill it one call at a time, with the
    per-bit loop kernel applying the cells."""
    dev.align(tr, 0)
    dev.counters.record_shift(1, 2 * tr.interport)
    cells = cell_image(tr)
    det, inj, rem = kernels.word_write(
        cells, tr.slot_start(slot), tr.interport, width,
        kernels.int_to_bits(value, width),
        kernels.MODE_NAIVE if mode == "naive" else kernels.MODE_DCW)
    load_image(tr, cells)
    dev.counters.record("detect", det * (2 if dev.count_new_detect else 1))
    dev.counters.record("inject", inj)
    dev.counters.record("remove", rem)
    if dev.geom.shift_policy == "eager":
        dev.align(tr, 0)


@settings(max_examples=150, deadline=None)
@given(policy=st.sampled_from(["lazy", "eager"]), record=st.booleans(),
       doubled=st.booleans(), image=st.integers(0, (1 << 8 * _SLOTS) - 1),
       ops=st.lists(st.one_of(
           st.tuples(st.integers(0, _SLOTS - 1), st.integers(0, 255),
                     st.integers(0, 8), st.sampled_from(["naive", "dcw"])),
           st.integers(-8, 8)), max_size=12))
def test_write_serial_bills_like_the_composed_primitives(policy, record,
                                                         doubled, image, ops):
    # a tuple op writes (slot, value, width, mode); an int op realigns the
    # track so the pass pays the align home
    devs = [small_device(word_bits=8, ports=_SLOTS, policy=policy,
                         record_steps=record, count_new_detect=doubled)
            for _ in range(2)]
    trs = [d.new_track() for d in devs]
    for tr in trs:
        _load_slots(tr, image, _SLOTS)
    for op in ops:
        if isinstance(op, int):
            for dev, tr in zip(devs, trs):
                dev.align(tr, op)
            continue
        slot, value, width, mode = op
        value &= (1 << width) - 1
        devs[0].write_serial(trs[0], slot, value, width, mode)
        _composed_serial(devs[1], trs[1], slot, value, width, mode)
        assert trs[0].cells == trs[1].cells
        assert trs[0].offset == trs[1].offset
        assert (devs[0].counters.as_flat_dict()
                == devs[1].counters.as_flat_dict())
        assert devs[0].counters.trace == devs[1].counters.trace


def _composed_bcw(dev, tr, writes):
    """write_batch_bcw billed bit position by bit position: every live
    slot detects in one parallel fire, then the differing bits flip in one
    mixed fire."""
    dev.align(tr, 0)
    dev.counters.record_shift(1, 2 * tr.interport)
    per_slot = 2 if dev.count_new_detect else 1
    cells = cell_image(tr)
    for i in range(max(width for _slot, _value, width in writes)):
        live = [(slot, value) for slot, value, width in writes if width > i]
        dev.counters.record("detect", per_slot * len(live), parallel=True)
        inj = rem = 0
        for slot, value in live:
            idx = tr.slot_start(slot) + i
            old, new = int(cells[idx]), value >> i & 1
            if old != new:
                inj += new
                rem += old
                cells[idx] = new
        dev.counters.record_mixed(dev.cost, inject=inj, remove=rem)
    load_image(tr, cells)
    if dev.geom.shift_policy == "eager":
        dev.align(tr, 0)


def _kernel_bcw(dev, tr, writes):
    """write_batch_bcw as the bit-array pass billed it, with the per-bit
    loop kernel applying the cells and classifying the bit positions."""
    starts = np.array([tr.slot_start(s) for s, _v, _w in writes], np.int64)
    widths = np.array([w for _s, _v, w in writes], np.int64)
    mat = np.zeros((len(writes), int(widths.max())), np.uint8)
    for row, (_slot, value, width) in zip(mat, writes):
        row[:width] = kernels.int_to_bits(value, width)
    dev.align(tr, 0)
    dev.counters.record_shift(1, 2 * tr.interport)
    cells = cell_image(tr)
    det, inj, rem, act, inj_steps, rem_steps, both = kernels.bcw_batch(
        cells, starts, widths, mat)
    load_image(tr, cells)
    if dev.cost.dominant(("inject", "remove")) == "inject":
        inj_steps += both
    else:
        rem_steps += both
    c = dev.counters
    for kind, n, steps in (("detect", det * (2 if dev.count_new_detect else 1),
                            act), ("inject", inj, inj_steps),
                           ("remove", rem, rem_steps)):
        c._bump(kind, n, steps)
        if c.trace is not None:
            c.log_steps(kind, n, steps)
    if dev.geom.shift_policy == "eager":
        dev.align(tr, 0)


def _one_word_write(dev, tr, writes, mode):
    """The words written one device call at a time, as a node write made
    them before write_words."""
    for slot, value, width in writes:
        if mode == "bcw":
            dev.write_batch_bcw(tr, [(slot, value, width)])
        elif mode == "pw":
            dev.write_pw(tr, slot, value, width)
        else:
            dev.write_serial(tr, slot, value, width, mode)


def _composed_words(dev, tr, writes, mode):
    """The words written one at a time by the primitive-and-kernel
    oracles: composed primitives for naive and dcw, the per-bit loop
    kernels for a one-word bcw pass and for pw."""
    for slot, value, width in writes:
        if mode == "bcw":
            _kernel_bcw(dev, tr, [(slot, value, width)])
        elif mode == "pw":
            _kernel_pw(dev, tr, slot, value, width)
        else:
            _composed_serial(dev, tr, slot, value, width, mode)


_WORD_BATCHES = st.dictionaries(
    st.integers(0, _SLOTS - 1), st.tuples(st.integers(0, 255),
                                          st.integers(0, 8)),
    min_size=1).map(lambda words: [(slot, value & ((1 << width) - 1), width)
                                   for slot, (value, width) in words.items()])


@settings(max_examples=200, deadline=None)
@given(mode=st.sampled_from(["naive", "dcw", "bcw", "pw"]),
       policy=st.sampled_from(["lazy", "eager"]), record=st.booleans(),
       doubled=st.booleans(), image=st.integers(0, (1 << 8 * _SLOTS) - 1),
       start=st.integers(-8, 8), writes=_WORD_BATCHES)
def test_write_words_bills_like_one_word_at_a_time(mode, policy, record,
                                                   doubled, image, start,
                                                   writes):
    # the batch, the same words as one-word device calls, and the words
    # composed from primitives: cells, offset, counters and trace agree
    devs = [small_device(word_bits=8, ports=_SLOTS, policy=policy,
                         record_steps=record, count_new_detect=doubled)
            for _ in range(3)]
    trs = [d.new_track() for d in devs]
    for dev, tr in zip(devs, trs):
        _load_slots(tr, image, _SLOTS)
        dev.align(tr, start)
    devs[0].write_words(trs[0], writes, mode)
    _one_word_write(devs[1], trs[1], writes, mode)
    _composed_words(devs[2], trs[2], writes, mode)
    for dev, tr in zip(devs[1:], trs[1:]):
        assert trs[0].cells == tr.cells
        assert trs[0].offset == tr.offset == 0
        assert devs[0].counters.as_flat_dict() == dev.counters.as_flat_dict()
        assert devs[0].counters.trace == dev.counters.trace
    for slot, value, width in writes:
        assert _cells_value(trs[0], slot, width) == value


_BAD_WORDS = {
    "slot past the track": (_SLOTS, 1, 8),
    "negative slot": (-1, 1, 8),
    "width past interport": (0, 1, 9),
    "negative width": (0, 0, -1),
    "value too wide": (0, 0x100, 8),
    "negative value": (0, -1, 8),
}


@settings(max_examples=150, deadline=None)
@given(mode=st.sampled_from(["naive", "dcw", "bcw", "pw"]),
       policy=st.sampled_from(["lazy", "eager"]), doubled=st.booleans(),
       bad=st.sampled_from(sorted(_BAD_WORDS)
                           + ["duplicate slot", "unknown mode"]),
       writes=_WORD_BATCHES, data=st.data())
def test_write_words_rejects_a_bad_word_anywhere_before_any_change(
        mode, policy, doubled, bad, writes, data):
    dev = small_device(word_bits=8, ports=_SLOTS, policy=policy,
                       record_steps=True, count_new_detect=doubled)
    tr = dev.new_track()
    _fill_ones(tr)
    dev.shift(tr, "left", 3)    # off home: a charged align would show
    if bad == "unknown mode":
        # every word is good, the empty batch too
        mode = data.draw(st.sampled_from(["bogus", None]))
        writes = data.draw(st.sampled_from([writes, []]))
    elif bad == "duplicate slot":
        at = data.draw(st.integers(1, len(writes)))
        writes.insert(at, writes[data.draw(st.integers(0, at - 1))])
    else:
        writes.insert(data.draw(st.integers(0, len(writes))), _BAD_WORDS[bad])
    before = list(tr.cells), tr.offset, dev.counters.as_flat_dict()
    trace = list(dev.counters.trace)
    with pytest.raises((ConfigError, PortRangeError)):
        dev.write_words(tr, writes, mode)
    assert before == (tr.cells, tr.offset, dev.counters.as_flat_dict())
    assert dev.counters.trace == trace


@pytest.mark.parametrize("mode", ("naive", "dcw", "bcw", "pw"))
@pytest.mark.parametrize("policy", ("lazy", "eager"))
def test_write_words_empty_batch_is_free(mode, policy):
    # no words: no align home, no stream, no trace entry
    dev = small_device(word_bits=8, ports=_SLOTS, policy=policy,
                       record_steps=True)
    tr = dev.new_track()
    _fill_ones(tr)
    dev.shift(tr, "left", 3)
    before = list(tr.cells), tr.offset, dev.counters.as_flat_dict()
    trace = list(dev.counters.trace)
    dev.write_words(tr, [], mode)
    assert before == (tr.cells, tr.offset, dev.counters.as_flat_dict())
    assert dev.counters.trace == trace


_BCW_PORTS = 6
_BCW_OPS = st.lists(st.one_of(
    st.dictionaries(st.integers(0, _BCW_PORTS - 1),
                    st.tuples(st.integers(0, 255), st.integers(0, 8)),
                    min_size=1),
    st.integers(-8, 8)), max_size=12)


@settings(max_examples=150, deadline=None)
@given(policy=st.sampled_from(["lazy", "eager"]), record=st.booleans(),
       doubled=st.booleans(), slow_remove=st.booleans(),
       image=st.integers(0, (1 << 8 * _BCW_PORTS) - 1), ops=_BCW_OPS)
def test_bcw_batch_bills_like_the_per_bit_fires(policy, record, doubled,
                                                 slow_remove, image, ops):
    # a dict op is one batch {slot: (value, width)}; an int op realigns
    # the track so the pass pays lazy slack. slow_remove makes remove the
    # dominant kind of a mixed fire. The references: every bit position
    # billed as its own fires, and the bit-array pass on the loop kernel.
    cost = CostModel(latency_remove=1.5) if slow_remove else CostModel()
    geom = Geometry(word_bits=8, interport_bits=8, ports_per_track=_BCW_PORTS,
                    shift_policy=policy)
    devs = [Device(geom, cost, record_steps=record, count_new_detect=doubled)
            for _ in range(3)]
    trs = [d.new_track() for d in devs]
    for tr in trs:
        _load_slots(tr, image, _BCW_PORTS)
    for op in ops:
        if isinstance(op, int):
            for dev, tr in zip(devs, trs):
                dev.align(tr, op)
            continue
        writes = [(slot, value & ((1 << width) - 1), width)
                  for slot, (value, width) in op.items()]
        devs[0].write_batch_bcw(trs[0], writes)
        _composed_bcw(devs[1], trs[1], writes)
        _kernel_bcw(devs[2], trs[2], writes)
        for dev, tr in zip(devs[1:], trs[1:]):
            assert trs[0].cells == tr.cells
            assert trs[0].offset == tr.offset
            assert (devs[0].counters.as_flat_dict()
                    == dev.counters.as_flat_dict())
        assert devs[0].counters.trace == devs[2].counters.trace
    if record:
        _, lat = accumulate_cost(devs[0].counters, cost)
        # the latency recomputed from the step log, one unit per step;
        # the trace sums step by step, so only float association differs
        assert sum(cost.latency(kind) for kind, _width
                   in devs[0].counters.trace) == pytest.approx(lat)


def _kernel_pw(dev, tr, slot, value, width):
    """write_pw as the bit-array pass billed it, with the per-bit loop
    kernel matching the skyrmions."""
    start = tr.slot_start(slot)
    new = kernels.int_to_bits(value, width)
    cells = cell_image(tr)
    inj, rem, repos = kernels.pw_match(cells[start:start + width], new)
    dev.align(tr, 0)
    dev.counters.record_shift(1, 2 * tr.interport + repos)
    dev.counters.record("inject", inj)
    dev.counters.record("remove", rem)
    cells[start:start + width] = new
    load_image(tr, cells)
    if dev.geom.shift_policy == "eager":
        dev.align(tr, 0)


@settings(max_examples=150, deadline=None)
@given(policy=st.sampled_from(["lazy", "eager"]), record=st.booleans(),
       doubled=st.booleans(), image=st.integers(0, (1 << 8 * _SLOTS) - 1),
       ops=st.lists(st.one_of(
           st.tuples(st.integers(0, _SLOTS - 1), st.integers(0, 255),
                     st.integers(0, 8)),
           st.integers(-8, 8)), max_size=12))
def test_write_pw_bills_like_the_per_bit_kernel(policy, record, doubled, image,
                                             ops):
    # a tuple op writes (slot, value, width); an int op realigns the track
    devs = [small_device(word_bits=8, ports=_SLOTS, policy=policy,
                         record_steps=record, count_new_detect=doubled)
            for _ in range(2)]
    trs = [d.new_track() for d in devs]
    for tr in trs:
        _load_slots(tr, image, _SLOTS)
    for op in ops:
        if isinstance(op, int):
            for dev, tr in zip(devs, trs):
                dev.align(tr, op)
            continue
        slot, value, width = op
        value &= (1 << width) - 1
        devs[0].write_pw(trs[0], slot, value, width)
        _kernel_pw(devs[1], trs[1], slot, value, width)
        assert trs[0].cells == trs[1].cells
        assert trs[0].offset == trs[1].offset
        assert (devs[0].counters.as_flat_dict()
                == devs[1].counters.as_flat_dict())
        assert devs[0].counters.trace == devs[1].counters.trace


def _composed_bi_write(dev, group, port, node_offset, row_start, span,
                       width, value, mode, parallel):
    """bi_write_word billed through OpCounters.record, one fire per call,
    with the per-bit loop kernel applying the cells."""
    col = group.slot_start(port) + node_offset
    cells = cell_image(group)
    det, inj, rem = kernels.bi_write(
        cells, row_start, span, width, col,
        kernels.int_to_bits(value, width),
        kernels.MODE_NAIVE if mode == "naive" else kernels.MODE_DCW)
    load_image(group, cells)
    c = dev.counters
    c.record("detect", int(det) * (2 if dev.count_new_detect else 1),
             parallel=True)
    c.record("remove", int(rem), parallel=parallel or mode == "naive")
    c.record("inject", int(inj), parallel=parallel)


def _composed_bi_read(dev, group, port, node_offset, row_start, width):
    if width == 0:
        return 0
    col = group.slot_start(port) + node_offset
    dev.counters.record("detect", width, parallel=True)
    return sum(int(b) << i for i, b in
               enumerate(cell_image(group)[row_start:row_start + width, col]))


# the two word shapes of bi_write_word on a 16-row group: an 8-row key on
# rows 0..7, or a payload of width 0..8 on rows 8.. of an 8-row span
_BI_WORD_SHAPE = st.one_of(st.just((0, 8)),
                           st.tuples(st.just(8), st.integers(0, 8)))


@settings(max_examples=100, deadline=None)
@given(record=st.booleans(), ops=st.lists(st.one_of(
    st.tuples(st.just("write"), st.integers(0, 3), st.integers(0, 255),
              _BI_WORD_SHAPE, st.sampled_from(["naive", "dcw"]),
              st.booleans()),
    st.tuples(st.just("read"), st.integers(0, 3), st.sampled_from([0, 8]),
              st.integers(0, 8))),
    max_size=30))
def test_bi_word_ops_bill_like_record(record, ops):
    devs = [small_device(word_bits=8, ports=4, record_steps=record)
            for _ in range(2)]
    groups = [d.new_group(16) for d in devs]
    for dev, g in zip(devs, groups):
        dev.group_align(g, 2)
    sides = ((Device.bi_write_word, Device.bi_read_word),
             (_composed_bi_write, _composed_bi_read))
    for op in ops:
        got = []
        for dev, g, (write, read) in zip(devs, groups, sides):
            if op[0] == "write":
                _, port, value, (row_start, width), mode, parallel = op
                value &= (1 << width) - 1
                write(dev, g, port, 2, row_start, 8, width, value, mode,
                      parallel)
            else:
                _, port, row_start, width = op
                got.append(read(dev, g, port, 2, row_start, width))
        assert len(set(got)) <= 1
        assert groups[0].cells == groups[1].cells
        assert (devs[0].counters.as_flat_dict()
                == devs[1].counters.as_flat_dict())
        assert devs[0].counters.trace == devs[1].counters.trace


@pytest.mark.parametrize("row_start,span,width", [
    (0, 8, 4), (0, 8, 0), (0, 8, 9), (4, 8, 4), (1, 8, 8), (8, 8, 9),
    (8, 4, 4), (16, 8, 8), (4, 4, 5),
])
@pytest.mark.parametrize("mode", ("naive", "dcw"))
def test_bi_write_word_refuses_every_other_shape(row_start, span, width,
                                                 mode):
    # a key is rows [0, span), a payload rows [span, span + width) with
    # width <= span; any other word is refused with nothing moved or billed
    dev = small_device(word_bits=8, ports=4, record_steps=True)
    g = dev.new_group(16)
    _fill_ones(g)
    dev.group_align(g, 3)
    _assert_refused_unchanged(
        dev, g,
        lambda: dev.bi_write_word(g, 1, 2, row_start, span, width, 0, mode,
                                  True),
        ConfigError, match="neither a key nor a payload")


# the slots a scan reads, repeats allowed
_SCAN_SLOTS = st.lists(st.integers(0, 3), max_size=8)
_LONG_SCAN = [0, 1, 2, 3, 0, 1, 2]


@settings(max_examples=200, deadline=None)
@given(policy=st.sampled_from(["lazy", "eager"]), record=st.booleans(),
       image=st.integers(0, (1 << 8 * _SLOTS) - 1), start=st.integers(-8, 8),
       width=st.integers(0, 8), composed=st.booleans(), slots=_SCAN_SLOTS)
# widths 0 and 1, whose sweeps are empty and one cell long, and starts
# right of home and left of the far sweep end, each under both policies
@example(policy="lazy", record=True, image=0x5A3C, start=3, width=0,
         composed=True, slots=_LONG_SCAN)
@example(policy="eager", record=True, image=0x5A3C, start=-5, width=1,
         composed=True, slots=_LONG_SCAN)
@example(policy="lazy", record=True, image=0x5A3C, start=6, width=1,
         composed=True, slots=_LONG_SCAN)
@example(policy="lazy", record=True, image=0xF0E1D2C3, start=-8, width=3,
         composed=True, slots=_LONG_SCAN)
@example(policy="eager", record=True, image=0xF0E1D2C3, start=8, width=5,
         composed=True, slots=_LONG_SCAN)
@example(policy="eager", record=True, image=0xF0E1D2C3, start=-7, width=4,
         composed=True, slots=[3, 2, 1])
def test_scan_words_bills_like_sequential_reads(policy, record, image, start,
                                                width, composed, slots):
    # the reference reads one slot at a time through read_word (the
    # one-slot scan) or through the primitives (align/shift/record)
    devs = [small_device(word_bits=8, ports=_SLOTS, policy=policy,
                         record_steps=record) for _ in range(2)]
    trs = [d.new_track() for d in devs]
    for dev, tr in zip(devs, trs):
        _load_slots(tr, image, _SLOTS)
        dev.align(tr, start)
    values = [_cells_value(trs[0], s, width) for s in slots]
    got = devs[0].scan_words(trs[0], slots, width)
    read = _composed_read if composed else Device.read_word
    want = [read(devs[1], trs[1], s, width) for s in slots]
    assert got == want == values
    assert trs[0].offset == trs[1].offset
    assert devs[0].counters.as_flat_dict() == devs[1].counters.as_flat_dict()
    assert devs[0].counters.trace == devs[1].counters.trace


def _column_value(group, port, node_offset, row_start, width):
    col = group.slot_start(port) + node_offset
    return sum(int(b) << i for i, b in
               enumerate(cell_image(group)[row_start:row_start + width, col]))


@settings(max_examples=150, deadline=None)
@given(policy=st.sampled_from(["lazy", "eager"]), record=st.booleans(),
       width=st.integers(0, 8), composed=st.booleans(),
       seed=st.integers(0, 2**32 - 1), slots=_SCAN_SLOTS)
def test_bi_scan_words_bills_like_sequential_reads(policy, record, width,
                                                   composed, seed, slots):
    # rows 3..3+width of a 12-track group at node offset 2
    devs = [small_device(word_bits=8, ports=4, policy=policy,
                         record_steps=record) for _ in range(2)]
    groups = [d.new_group(12) for d in devs]
    cells = np.random.default_rng(seed).integers(
        0, 2, size=cell_image(groups[0]).shape, dtype=np.uint8)
    for dev, g in zip(devs, groups):
        load_image(g, cells)
        dev.group_align(g, 2)
    values = [_column_value(groups[0], p, 2, 3, width) for p in slots]
    got = devs[0].bi_scan_words(groups[0], slots, 2, 3, width)
    read = _composed_bi_read if composed else Device.bi_read_word
    want = [read(devs[1], groups[1], p, 2, 3, width) for p in slots]
    assert got == want == values
    assert groups[0].offset == groups[1].offset == -2
    assert np.array_equal(cell_image(groups[0]), cells)
    assert devs[0].counters.as_flat_dict() == devs[1].counters.as_flat_dict()
    assert devs[0].counters.trace == devs[1].counters.trace


@settings(max_examples=200, deadline=None)
@given(policy=st.sampled_from(["lazy", "eager"]), record=st.booleans(),
       image=st.integers(0, (1 << 8 * _SLOTS) - 1), start=st.integers(-8, 8),
       width=st.integers(0, 8), then_slot=st.integers(0, _SLOTS - 1),
       then_width=st.integers(0, 8), slots=_SCAN_SLOTS)
# an empty key list reads only the payload; equal and unequal widths under
# both policies
@example(policy="lazy", record=True, image=0xF0E1D2C3, start=-7, width=4,
         then_slot=1, then_width=8, slots=[3, 2, 1])
@example(policy="eager", record=True, image=0xF0E1D2C3, start=5, width=8,
         then_slot=0, then_width=3, slots=[])
@example(policy="lazy", record=True, image=0x5A3C, start=6, width=8,
         then_slot=2, then_width=8, slots=_LONG_SCAN)
@example(policy="eager", record=True, image=0x5A3C, start=-8, width=1,
         then_slot=3, then_width=0, slots=_LONG_SCAN)
def test_scan_words_final_read_bills_like_a_read_word_after_the_scan(
        policy, record, image, start, width, then_slot, then_width, slots):
    devs = [small_device(word_bits=8, ports=_SLOTS, policy=policy,
                         record_steps=record) for _ in range(2)]
    trs = [d.new_track() for d in devs]
    for dev, tr in zip(devs, trs):
        _load_slots(tr, image, _SLOTS)
        dev.align(tr, start)
    values = [_cells_value(trs[0], s, width) for s in slots]
    got = devs[0].scan_words(trs[0], slots, width, (then_slot, then_width))
    want = devs[1].scan_words(trs[1], slots, width)
    want.append(devs[1].read_word(trs[1], then_slot, then_width))
    assert got == want
    assert got == values + [_cells_value(trs[0], then_slot, then_width)]
    assert trs[0].offset == trs[1].offset
    assert devs[0].counters.as_flat_dict() == devs[1].counters.as_flat_dict()
    assert devs[0].counters.trace == devs[1].counters.trace


@settings(max_examples=150, deadline=None)
@given(record=st.booleans(), width=st.integers(0, 8),
       then_port=st.integers(0, 3), then_row=st.integers(0, 4),
       then_width=st.integers(0, 8), seed=st.integers(0, 2**32 - 1),
       slots=_SCAN_SLOTS)
def test_bi_scan_words_final_read_bills_like_a_bi_read_word_after_the_scan(
        record, width, then_port, then_row, then_width, seed, slots):
    # keys on rows 3..3+width, the payload on its own rows, of a 12-track
    # group at node offset 2
    devs = [small_device(word_bits=8, ports=4, record_steps=record)
            for _ in range(2)]
    groups = [d.new_group(12) for d in devs]
    cells = np.random.default_rng(seed).integers(
        0, 2, size=cell_image(groups[0]).shape, dtype=np.uint8)
    for dev, g in zip(devs, groups):
        load_image(g, cells)
        dev.group_align(g, 2)
    values = [_column_value(groups[0], p, 2, 3, width) for p in slots]
    then = (then_port, then_row, then_width)
    got = devs[0].bi_scan_words(groups[0], slots, 2, 3, width, then)
    want = devs[1].bi_scan_words(groups[1], slots, 2, 3, width)
    want.append(devs[1].bi_read_word(groups[1], then_port, 2, then_row,
                                     then_width))
    assert got == want
    assert got == values + [_column_value(groups[0], then_port, 2, then_row,
                                          then_width)]
    assert groups[0].offset == groups[1].offset == -2
    assert np.array_equal(cell_image(groups[0]), cells)
    assert devs[0].counters.as_flat_dict() == devs[1].counters.as_flat_dict()
    assert devs[0].counters.trace == devs[1].counters.trace


@pytest.mark.parametrize("then,error", [
    ((4, 8), PortRangeError), ((-1, 8), PortRangeError),
    ((0, 9), ConfigError), ((0, -1), ConfigError),
])
@pytest.mark.parametrize("policy", ("lazy", "eager"))
def test_scan_words_checks_the_final_read_before_any_charge(then, error,
                                                            policy):
    dev = small_device(word_bits=8, ports=4, policy=policy,
                       record_steps=True)
    tr = dev.new_track()
    _fill_ones(tr)
    dev.shift(tr, "left", 3)
    before = cell_image(tr), tr.offset, dev.counters.as_flat_dict()
    trace = list(dev.counters.trace)
    with pytest.raises(error):
        dev.scan_words(tr, [0, 1, 2], 8, then)
    after = cell_image(tr), tr.offset, dev.counters.as_flat_dict()
    assert np.array_equal(before[0], after[0])
    assert before[1:] == after[1:]
    assert dev.counters.trace == trace


@pytest.mark.parametrize("then,error", [
    ((4, 8, 8), PortRangeError), ((-1, 8, 8), PortRangeError),
    ((0, 10, 8), ConfigError), ((0, -1, 4), ConfigError),
    ((0, 0, -1), ConfigError),
])
def test_bi_scan_words_checks_the_final_read_before_any_charge(then, error):
    # the group sits at column 0 and the refused pass asks for column 3:
    # it must not move the group there
    dev = small_device(word_bits=8, ports=4, record_steps=True)
    g = dev.new_group(16)
    _fill_ones(g)
    dev.group_align(g, 0)
    before = _device_state(dev, g), list(dev.counters.trace)
    with pytest.raises(error):
        dev.bi_scan_words(g, [0, 1], 3, 0, 8, then)
    after = _device_state(dev, g), list(dev.counters.trace)
    assert np.array_equal(before[0][0], after[0][0])
    assert before[0][1:] == after[0][1:]
    assert before[1] == after[1]


@pytest.mark.parametrize("offset", (-8, -7, -1, 0, 1, 7, 8))
@pytest.mark.parametrize("port", (0, 3))
def test_primitives_at_segment_edges_address_the_cell_image(offset, port):
    # offsets up to +-interport put the cell under ports 0 and n - 1 on
    # either side of a segment boundary, down to the first cell of the
    # left overflow region and the first of the right one
    dev = small_device(word_bits=8, ports=4)
    tr = dev.new_track()
    image = np.random.default_rng(port * 17 + offset + 8).integers(
        0, 2, size=cell_image(tr).shape, dtype=np.uint8)
    load_image(tr, image)
    dev.align(tr, offset)
    idx = (port + 1) * tr.interport - offset
    assert tr.port_cell(port) == idx
    for _ in range(2):
        assert dev.detect(tr, port) == image[idx]
        if image[idx]:
            with pytest.raises(DoubleInjectError):
                dev.inject(tr, port)
            dev.remove(tr, port)
        else:
            dev.inject(tr, port)
        image[idx] ^= 1
        assert np.array_equal(cell_image(tr), image)
        assert tr.popcount() == int(image.sum())


# (pair_slot, key, payload, payload_width) node writes on an 8-bit word: a
# key or payload may be None, a payload narrower than its 8-row span is the
# encoded arena index
_NODE_PAIRS = st.lists(
    st.tuples(st.integers(0, 3), st.none() | st.integers(0, 255),
              st.none() | st.integers(0, 255), st.integers(0, 8)),
    max_size=4, unique_by=lambda p: p[0]).map(
    lambda pairs: [(port, key, None if payload is None
                    else payload & ((1 << width) - 1), width)
                   for port, key, payload, width in pairs])


def _pair_words(pairs, key_rows):
    """The (port, row_start, span, width, value) words of node pairs, each
    key before its payload."""
    words = []
    for port, key, payload, width in pairs:
        if key is not None:
            words.append((port, 0, key_rows, key_rows, key))
        if payload is not None:
            words.append((port, key_rows, key_rows, width, payload))
    return words


@settings(max_examples=200, deadline=None)
@given(record=st.booleans(), doubled=st.booleans(), parallel=st.booleans(),
       mode=st.sampled_from(["naive", "dcw"]), seed=st.integers(0, 2**32 - 1),
       pairs=_NODE_PAIRS)
@example(record=True, doubled=False, parallel=True, mode="dcw", seed=0,
         pairs=[])
# a key and an encoded 3-bit payload in one column, a lone payload, a
# width-0 payload and a lone key
@example(record=True, doubled=True, parallel=False, mode="naive", seed=1,
         pairs=[(1, 0xA5, 5, 3), (0, None, 0x81, 8), (2, 0x3C, 0, 0),
                (3, 0x0F, None, 8)])
@example(record=True, doubled=True, parallel=False, mode="dcw", seed=1,
         pairs=[(1, 0xA5, 5, 3), (0, None, 0x81, 8), (2, 0x3C, 0, 0),
                (3, 0x0F, None, 8)])
def test_bi_write_node_bills_like_per_word_writes(record, doubled, parallel,
                                                  mode, seed, pairs):
    # the node write must land and bill as its key and payload words
    # written one at a time, key first: by bi_write_word and by the per-bit
    # kernel billed through OpCounters.record
    devs = [small_device(word_bits=8, ports=4, record_steps=record,
                         count_new_detect=doubled) for _ in range(3)]
    groups = [d.new_group(16) for d in devs]
    cells = np.random.default_rng(seed).integers(
        0, 2, size=cell_image(groups[0]).shape, dtype=np.uint8)
    for dev, g in zip(devs, groups):
        load_image(g, cells)
        dev.group_align(g, 2)
    aligned = devs[0].counters.as_flat_dict()
    devs[0].bi_write_node(groups[0], 2, pairs, 8, mode, parallel)
    for dev, g, write in zip(devs[1:], groups[1:],
                             (Device.bi_write_word, _composed_bi_write)):
        for port, row_start, span, width, value in _pair_words(pairs, 8):
            write(dev, g, port, 2, row_start, span, width, value, mode,
                  parallel)
    for dev, g in zip(devs[1:], groups[1:]):
        assert groups[0].cells == g.cells
        assert g.offset == -2
        assert (devs[0].counters.as_flat_dict()
                == dev.counters.as_flat_dict())
        assert devs[0].counters.trace == dev.counters.trace
    if not pairs:
        assert np.array_equal(cell_image(groups[0]), cells)
        assert devs[0].counters.as_flat_dict() == aligned


def _assert_refused_unchanged(dev, g, call, error, match=None):
    """`call` raises `error` with no cell, offset, counter or trace
    change."""
    before = _device_state(dev, g), list(dev.counters.trace)
    with pytest.raises(error, match=match):
        call()
    after = _device_state(dev, g), list(dev.counters.trace)
    assert np.array_equal(before[0][0], after[0][0])
    assert before[0][1:] == after[0][1:]
    assert before[1] == after[1]


# (pair_slot, key, payload, payload_width) batches with 8 key rows on a
# 16-row group
@pytest.mark.parametrize("words,offset,error", [
    # a port off the group
    ([(1, 5, 5, 8), (4, 5, 5, 8)], 2, PortRangeError),
    ([(1, 5, None, 0), (-1, 5, None, 0)], 2, PortRangeError),
    # a port twice, also as a key and a payload of one pair
    ([(1, 5, None, 0), (2, 5, 6, 8), (1, None, 3, 4)], 2, ConfigError),
    # a key or payload too wide, or negative
    ([(1, 5, 5, 8), (2, 256, None, 0)], 2, ConfigError),
    ([(1, -1, None, 0)], 2, ConfigError),
    ([(1, 5, 5, 8), (2, None, 16, 4)], 2, ConfigError),
    ([(1, 5, 5, 8), (2, None, 16, 4)], 3, ConfigError),
    ([(1, 5, 5, 8), (2, 5, -1, 8)], 2, ConfigError),
    # a payload width past the 8-row span, or negative
    ([(1, 5, 5, 8), (2, 5, 5, 9)], 2, ConfigError),
    ([(1, 5, 0, -1)], 2, ConfigError),
    # a port twice, for another column
    ([(1, 5, 5, 8), (1, 5, 5, 8)], 3, ConfigError),
    # a node offset outside the interport region, an empty batch too
    ([(1, 5, 5, 8)], 8, ConfigError),
    ([(1, 5, 5, 8)], -1, ConfigError),
    ([], 8, ConfigError),
    ([], -1, ConfigError),
])
@pytest.mark.parametrize("mode", ("naive", "dcw", "bogus"))
def test_bi_write_node_rejects_bad_batches_before_any_change(words, offset,
                                                             error, mode):
    # the valid pairs in front of the bad one must not land. A refused
    # batch for column 3 leaves the group at column 2, an empty batch has
    # its offset checked too, and an unknown mode fails before anything
    # else.
    dev = small_device(word_bits=8, ports=4, record_steps=True)
    g = dev.new_group(16)
    dev.group_align(g, 2)
    bogus = mode == "bogus"
    _assert_refused_unchanged(
        dev, g, lambda: dev.bi_write_node(g, offset, words, 8, mode, True),
        ConfigError if bogus else error,
        match="unknown write mode" if bogus else None)


@pytest.mark.parametrize("pairs,key_rows,rows", [
    # payload rows past a word_bits-row group, a width-0 payload too
    ([(1, 5, None, 0), (2, None, 5, 8)], 8, 8),
    ([(1, 5, None, 0), (2, 5, 0, 0)], 8, 8),
    # key rows past the group, or negative
    ([(1, 5, None, 0)], 9, 8),
    ([(1, 5, None, 0)], 17, 16),
    ([(1, 0, None, 0)], -1, 16),
])
@pytest.mark.parametrize("mode", ("naive", "dcw"))
def test_bi_write_node_rejects_rows_past_the_group(pairs, key_rows, rows,
                                                   mode):
    dev = small_device(word_bits=8, ports=4, record_steps=True)
    g = dev.new_group(rows)
    dev.group_align(g, 2)
    _assert_refused_unchanged(
        dev, g, lambda: dev.bi_write_node(g, 3, pairs, key_rows, mode, True),
        ConfigError)


def test_group_align_and_column_check():
    dev = small_device(word_bits=8, ports=4, record_steps=True)
    g = dev.new_group(16)
    _fill_ones(g)
    assert dev.group_align(g, 3) == 3
    assert g.offset == -3
    before = _device_state(dev, g), list(dev.counters.trace)
    # a node offset outside the interport region is refused by the align
    # and by every pass, an empty one too, with nothing moved or billed
    for offset in (8, -1):
        for call in (lambda: dev.group_align(g, offset),
                     lambda: dev.bi_read_word(g, 0, offset, 0, 8),
                     lambda: dev.bi_scan_words(g, [], offset, 0, 8),
                     lambda: dev.bi_write_word(g, 0, offset, 0, 8, 8, 0,
                                               "dcw", False),
                     lambda: dev.bi_write_node(g, offset, [], 8, "naive",
                                               True)):
            with pytest.raises(ConfigError):
                call()
    # an empty pass at another column checks it and moves nothing
    assert dev.bi_scan_words(g, [], 5, 0, 8) == []
    dev.bi_write_node(g, 5, [], 8, "dcw", False)
    after = _device_state(dev, g), list(dev.counters.trace)
    assert np.array_equal(before[0][0], after[0][0])
    assert before[0][1:] == after[0][1:]
    assert before[1] == after[1]
    # a pass that reads something positions the group itself
    assert dev.bi_read_word(g, 0, 5, 0, 8) == 0xFF
    assert g.offset == -5


@settings(max_examples=200, deadline=None)
@given(record=st.booleans(), doubled=st.booleans(), start=st.integers(-8, 8),
       node_offset=st.integers(0, 7), seed=st.integers(0, 2**32 - 1),
       scan=st.booleans(), width=st.integers(0, 8), slots=_SCAN_SLOTS,
       then=st.none() | st.tuples(st.integers(0, 3), st.integers(0, 8),
                                  st.integers(0, 8)),
       mode=st.sampled_from(["naive", "dcw"]), parallel=st.booleans(),
       pairs=_NODE_PAIRS)
def test_bi_passes_position_their_own_group(record, doubled, start,
                                            node_offset, seed, scan, width,
                                            slots, then, mode, parallel,
                                            pairs):
    # from a group left at any offset, a scan (keys on rows 3..3+width,
    # then a payload on its own rows) or a node write must match an
    # explicit group_align followed by the same pass: words, cells,
    # offset, every counter and the trace. A pass with nothing to read or
    # write moves and bills nothing.
    devs = [small_device(word_bits=8, ports=4, record_steps=record,
                         count_new_detect=doubled) for _ in range(2)]
    groups = [d.new_group(16) for d in devs]
    cells = np.random.default_rng(seed).integers(
        0, 2, size=cell_image(groups[0]).shape, dtype=np.uint8)
    for dev, g in zip(devs, groups):
        load_image(g, cells)
        dev.align(g, start)
    empty = not (slots or then) if scan else not pairs
    before = devs[0].counters.as_flat_dict(), list(devs[0].counters.trace
                                                   or [])
    if not empty:
        devs[1].group_align(groups[1], node_offset)
    if scan:
        got = [dev.bi_scan_words(g, slots, node_offset, 3, width, then)
               for dev, g in zip(devs, groups)]
        assert got[0] == got[1]
    else:
        for dev, g in zip(devs, groups):
            dev.bi_write_node(g, node_offset, pairs, 8, mode, parallel)
    assert groups[0].cells == groups[1].cells
    assert groups[0].offset == groups[1].offset
    assert devs[0].counters.as_flat_dict() == devs[1].counters.as_flat_dict()
    assert devs[0].counters.trace == devs[1].counters.trace
    if empty:
        assert groups[0].offset == start
        assert before == (devs[0].counters.as_flat_dict(),
                          list(devs[0].counters.trace or []))


def test_bi_write_read_round_trip():
    dev = small_device(word_bits=8, ports=4)
    g = dev.new_group(16)
    dev.group_align(g, 2)
    dev.bi_write_word(g, 1, 2, 0, 8, 8, 0xC3, "naive", parallel=False)
    assert dev.bi_read_word(g, 1, 2, 0, 8) == 0xC3
    dev.bi_write_word(g, 1, 2, 0, 8, 8, 0x3C, "dcw", parallel=False)
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
    dev.bi_write_word(g, 0, 1, 0, 8, 8, 0xFF, "naive", parallel=False)
    before = dev.counters.snapshot()
    dev.bi_write_word(g, 0, 1, 0, 8, 8, 0x0F, "naive", parallel=False)
    d = dev.counters.delta(before)
    # dataless clear pulse: 8 removes in one step; patterned injects
    # serialize without the parallel drivers
    assert (d.remove, d.remove_steps) == (8, 1)
    assert (d.inject, d.inject_steps) == (4, 4)


def test_bi_compare_write_parallel_phases():
    dev = small_device(word_bits=8, ports=4)
    g = dev.new_group(16)
    dev.group_align(g, 1)
    dev.bi_write_word(g, 0, 1, 0, 8, 8, 0x0F, "dcw", parallel=True)
    before = dev.counters.snapshot()
    dev.bi_write_word(g, 0, 1, 0, 8, 8, 0xF0, "dcw", parallel=True)
    d = dev.counters.delta(before)
    # compare pass one fire, then one remove-phase and one inject-phase pulse
    assert (d.detect, d.detect_steps) == (8, 1)
    assert (d.remove, d.remove_steps) == (4, 1)
    assert (d.inject, d.inject_steps) == (4, 1)


def test_accumulate_cost_matches_hand_arithmetic():
    dev = small_device(word_bits=8)
    tr = dev.new_track()
    dev.write_serial(tr, 0, 0xFF, 8, "naive")
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
        value = int(rng.integers(0, 256))
        dev.write_serial(tr, slot, value, 8, "naive")
        total += value.bit_count()
    assert dev.total_skyrmions() == total


def _device_state(dev, g):
    return cell_image(g), g.offset, dev.counters.as_flat_dict()


@pytest.mark.parametrize("call", [
    lambda dev, g: dev.bi_read_word(g, 0, 0, 10, 12),
    lambda dev, g: dev.bi_read_word(g, 0, 0, -1, 4),
    lambda dev, g: dev.bi_read_word(g, 0, 0, 0, -1),
    lambda dev, g: dev.bi_write_word(g, 0, 0, 10, 12, 6, 0x3F, "naive", False),
    lambda dev, g: dev.bi_write_word(g, 0, 0, 8, 10, 8, 0xFF, "dcw", True),
    lambda dev, g: dev.bi_write_word(g, 0, 0, -1, 8, 8, 0xFF, "dcw", False),
    lambda dev, g: dev.bi_write_word(g, 0, 0, 0, 8, 9, 0x1FF, "naive", False),
    lambda dev, g: dev.bi_write_word(g, 0, 0, 0, 8, 8, 0x100, "dcw", False),
    lambda dev, g: dev.bi_write_word(g, 0, 0, 0, 8, 8, 0xFF, "pw", False),
])
def test_bi_ops_reject_rows_outside_the_group(call):
    dev = small_device(word_bits=8, ports=4)
    g = dev.new_group(16)
    _fill_ones(g)
    before = _device_state(dev, g)
    with pytest.raises(ConfigError):
        call(dev, g)
    after = _device_state(dev, g)
    assert np.array_equal(before[0], after[0])
    assert before[1:] == after[1:]


# word writes that must raise before any change: a value past its width
# (the int form of a short bit array), a negative value, an unknown mode,
# a bad word in a batch behind a good one, a slot written twice, a width
# past the interport segment, a slot off the track
@pytest.mark.parametrize("call", [
    lambda dev, tr: dev.write_serial(tr, 1, 0x1A5, 8, "naive"),
    lambda dev, tr: dev.write_serial(tr, 1, -1, 8, "dcw"),
    lambda dev, tr: dev.write_serial(tr, 1, 0xFF, 8, "pw"),
    lambda dev, tr: dev.write_serial(tr, 1, 0xFF, 8, "bcw"),
    lambda dev, tr: dev.write_pw(tr, 1, 0x100, 8),
    lambda dev, tr: dev.write_batch_bcw(tr, [(0, 0xFF, 8), (1, 0x1FF, 8)]),
    lambda dev, tr: dev.write_batch_bcw(tr, [(0, 0xFF, 8), (1, -3, 8)]),
    lambda dev, tr: dev.write_batch_bcw(tr, [(2, 0xFF, 8), (0, 1, 8),
                                             (2, 0x0F, 8)]),
    lambda dev, tr: dev.write_batch_bcw(tr, [(0, 0xFF, 8), (1, 1, 9)]),
    lambda dev, tr: dev.write_batch_bcw(tr, [(0, 0xFF, 8), (4, 1, 8)]),
    lambda dev, tr: dev.write_serial(tr, 1, 0, -1, "dcw"),
    lambda dev, tr: dev.write_serial(tr, -1, 0, 8, "naive"),
    lambda dev, tr: dev.write_pw(tr, 1, 0x1FF, 9),
])
@pytest.mark.parametrize("policy", ("lazy", "eager"))
def test_word_writes_reject_short_bits_and_unknown_modes(call, policy):
    dev = small_device(word_bits=8, policy=policy, record_steps=True)
    tr = dev.new_track()
    _fill_ones(tr)
    dev.shift(tr, "left", 3)    # off home: a charged align would show
    before = _device_state(dev, tr), list(dev.counters.trace)
    with pytest.raises((ConfigError, PortRangeError)):
        call(dev, tr)
    after = _device_state(dev, tr), list(dev.counters.trace)
    assert np.array_equal(before[0][0], after[0][0])
    assert before[0][1:] == after[0][1:]
    assert before[1] == after[1]


# a one-bit word holds 0 or 1: each pass must refuse a 2 or a 3 behind a
# valid word, whatever integer type carries it
_NON_BINARY_WRITES = {
    "serial-naive": lambda dev, tr, g, v: dev.write_serial(tr, 1, v, 1,
                                                           "naive"),
    "serial-dcw": lambda dev, tr, g, v: dev.write_serial(tr, 1, v, 1, "dcw"),
    "pw": lambda dev, tr, g, v: dev.write_pw(tr, 1, v, 1),
    "bcw": lambda dev, tr, g, v: dev.write_batch_bcw(tr, [(0, 1, 1),
                                                          (1, v, 1)]),
    "bi": lambda dev, tr, g, v: dev.bi_write_word(g, 1, 3, 8, 8, 1, v, "dcw",
                                                  True),
}


@pytest.mark.parametrize("bad", (2, 3))
@pytest.mark.parametrize("dtype", (np.uint8, np.int64))
@pytest.mark.parametrize("name", sorted(_NON_BINARY_WRITES))
@pytest.mark.parametrize("policy", ("lazy", "eager"))
def test_writes_reject_bits_other_than_0_and_1(name, bad, dtype, policy):
    dev = small_device(word_bits=8, policy=policy, record_steps=True)
    tr, g = dev.new_track(), dev.new_group(16)
    for h in (tr, g):
        _fill_ones(h)
        dev.shift(h, "left", 3)     # off home: a charged align would show
    before = ([(cell_image(h), h.offset) for h in (tr, g)],
              dev.counters.as_flat_dict(), list(dev.counters.trace))
    for value in (bad, dtype(bad)):
        with pytest.raises(ConfigError, match="does not fit in 1 bits"):
            _NON_BINARY_WRITES[name](dev, tr, g, value)
    assert all(np.array_equal(c, cell_image(h)) and o == h.offset
               for (c, o), h in zip(before[0], (tr, g)))
    assert dev.counters.as_flat_dict() == before[1]
    assert dev.counters.trace == before[2]


# each write with its value as a Python int or a numpy integer scalar; a
# 64-bit word in slot 3 lands past bit 255 of the track
_ANY_INT_WRITES = {
    "bi_write_word": lambda dev, tr, g, port, v, mode, parallel:
        dev.bi_write_word(g, port, 1, 8, 8, 8, v, mode, parallel),
    "bi_write_node": lambda dev, tr, g, port, v, mode, parallel:
        dev.bi_write_node(g, 1, [(port, v, v >> 3, 5),
                                 ((port + 1) % 4, None, v & 0x1F, 5)], 8,
                          mode, parallel),
    "write_serial": lambda dev, tr, g, port, v, mode, parallel:
        dev.write_serial(tr, port, v, 64, mode),
    "write_pw": lambda dev, tr, g, port, v, mode, parallel:
        dev.write_pw(tr, port, v, 64),
    "write_batch_bcw": lambda dev, tr, g, port, v, mode, parallel:
        dev.write_batch_bcw(tr, [(port, v, 64),
                                 ((port + 1) % 4, v & 0xFF, 8)]),
}


def test_bi_write_takes_any_integer_bit_dtype():
    # numpy integer scalars write what the equal Python ints write, on
    # the bit-interleaved and on every word-mapping write
    for name, write in sorted(_ANY_INT_WRITES.items()):
        rng = np.random.default_rng(4)
        wide = not name.startswith("bi_")
        devs = [small_device(word_bits=64 if wide else 8, ports=4,
                             record_steps=True) for _ in range(3)]
        trs = [d.new_track() for d in devs]
        groups = [d.new_group(16) for d in devs]
        for dev, g in zip(devs, groups):
            dev.group_align(g, 1)
        for trial in range(40):
            value = int(rng.integers(0, 2**63 if wide else 256))
            mode = ("naive", "dcw")[trial % 2]
            port = int(rng.integers(0, 4))
            for dev, tr, g, v in zip(devs, trs, groups,
                                     (value, np.int64(value),
                                      np.uint64(value))):
                write(dev, tr, g, port, v, mode, trial % 3 == 0)
            for dev, tr, g in zip(devs[1:], trs[1:], groups[1:]):
                assert trs[0].cells == tr.cells, name
                assert groups[0].cells == g.cells, name
                assert (devs[0].counters.as_flat_dict()
                        == dev.counters.as_flat_dict()), name
                assert devs[0].counters.trace == dev.counters.trace, name
            assert devs[0].total_skyrmions() == sum(
                cell_image(h).sum() for h in (trs[0], groups[0])), name


def _doubling_cases():
    values = (0xA5, 0x3C, 0xF0)

    def serial(dev):
        tr = dev.new_track()
        dev.write_serial(tr, 1, values[0], 8, "naive")
        dev.write_serial(tr, 1, values[1], 8, "dcw")
        return cell_image(tr)

    def bcw(dev):
        tr = dev.new_track()
        dev.write_batch_bcw(tr, [(s, v, 8) for s, v in enumerate(values)])
        dev.write_batch_bcw(tr, [(s, v & 0x3F, 6)
                                 for s, v in enumerate(values[::-1])])
        return cell_image(tr)

    def bi(dev):
        g = dev.new_group(16)
        dev.group_align(g, 2)
        for i, v in enumerate(values):
            dev.bi_write_word(g, i, 2, 0, 8, 8, v, "dcw", i % 2 == 0)
            dev.bi_write_word(g, i, 2, 8, 8, 8, v, "naive", False)
        return cell_image(g)

    return [("write_serial", serial, False), ("bcw", bcw, False),
            ("bcw_traced", bcw, True), ("bi_write_word", bi, False)]


@pytest.mark.parametrize("name,run,record", _doubling_cases(),
                         ids=[c[0] for c in _doubling_cases()])
def test_count_new_detect_doubles_detects(name, run, record):
    plain = small_device(word_bits=8, ports=4, record_steps=record)
    doubled = small_device(word_bits=8, ports=4, record_steps=record,
                           count_new_detect=True)
    cells = [run(plain), run(doubled)]
    assert np.array_equal(cells[0], cells[1])
    a = plain.counters.as_flat_dict()
    b = doubled.counters.as_flat_dict()
    assert a["detect"] > 0 and b["detect"] == 2 * a["detect"]
    # only the serial write bills one latency step per detect
    want_steps = a["detect_steps"] * (2 if name == "write_serial" else 1)
    assert b["detect_steps"] == want_steps
    rest = {k for k in a if k not in ("detect", "detect_steps")}
    assert {k: a[k] for k in rest} == {k: b[k] for k in rest}
