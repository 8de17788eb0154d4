"""Time the cell-array kernels under the numpy and numba backends, and the
node-granular device passes against the per-word calls they replace.

Runs each kernel over pregenerated random inputs and prints per-call
times plus the speedup. Without numba the loop implementations run as
plain Python instead, so the numpy backend still gets a number. Also
cross-checks that both backends return the same numbers on a fresh copy
of every input, since a fast wrong kernel would be worse than useless.

The device-pass section times a 12-slot ``Device.scan_words`` against 12
``read_word`` calls, a node visit (the 12-slot scan with the payload read
as its final word) against the scan followed by one ``read_word``, a
12-word ``Device.bi_write_node`` against 12
``bi_write_word`` calls, and a 12-word int ``Device.write_batch_bcw`` on
the word mapping against the bit-array pass it replaced (``int_to_bits``
rows into the numpy ``kernels.bcw_batch`` on a uint8 copy of the cells),
after checking that both sides return the same words and leave the same
cells, offsets and all eight counters. It also times a one-word
``bi_write_node``, the shape of ``DeviceStore.arena_write``, which pays a
node write's fixed per-call cost for a single word.

Usage: python benchmarks/kernel_bench.py [--calls 2000] [--word-bits 64]
"""

import argparse
import time

import numpy as np

from skrmbetree import kernels
from skrmbetree.config import CostModel, Geometry
from skrmbetree.device import Device

# a ycsb-sized node: 16 pairs, 4 pivots, so a full buffer is 12 messages
NODE_PAIRS, BUFFER_SLOTS = 16, range(4, 16)


def build_inputs(rng, n, word_bits, batch):
    span = word_bits
    track_cells = rng.integers(0, 2, size=4096, dtype=np.uint8)
    group_cells = rng.integers(0, 2, size=(2 * word_bits, 1024), dtype=np.uint8)
    cases = []
    for _ in range(n):
        old = rng.integers(0, 2, size=word_bits, dtype=np.uint8)
        new = rng.integers(0, 2, size=word_bits, dtype=np.uint8)
        start = int(rng.integers(0, 4096 - span))
        starts = rng.choice(4096 // span, size=batch, replace=False).astype(np.int64) * span
        widths = np.full(batch, word_bits, dtype=np.int64)
        new_mat = rng.integers(0, 2, size=(batch, word_bits), dtype=np.uint8)
        col = int(rng.integers(0, 1024))
        cases.append((old, new, start, starts, widths, new_mat, col))
    return track_cells, group_cells, cases


def make_runners(track_cells, group_cells, cases, word_bits):
    # mutating kernels reuse one arena; both backends get the same treatment
    def run_xor(impl):
        for old, new, *_ in cases:
            impl(old, new)

    def run_word(impl):
        for old, new, start, *_ in cases:
            impl(track_cells, start, word_bits, word_bits, new, kernels.MODE_DCW)

    def run_bcw(impl):
        for _, _, _, starts, widths, new_mat, _ in cases:
            impl(track_cells, starts, widths, new_mat)

    def run_pw(impl):
        for old, new, *_ in cases:
            impl(old, new)

    def run_bi(impl):
        for old, new, _, _, _, _, col in cases:
            impl(group_cells, 0, word_bits, word_bits, col, new, kernels.MODE_DCW)

    return {"xor_counts": run_xor, "word_write": run_word,
            "bcw_batch": run_bcw, "pw_match": run_pw, "bi_write": run_bi}


def check_parity(loop_impls, np_impls, rng, word_bits):
    def same(name, cells, *args):
        copy = cells.copy()
        if (loop_impls[name](cells, *args) != np_impls[name](copy, *args)
                or not np.array_equal(cells, copy)):
            raise SystemExit(f"backend mismatch: {name}")

    for trial in range(200):
        old = rng.integers(0, 2, size=word_bits, dtype=np.uint8)
        new = rng.integers(0, 2, size=word_bits, dtype=np.uint8)
        if loop_impls["xor_counts"](old, new) != np_impls["xor_counts"](old, new):
            raise SystemExit("backend mismatch: xor_counts")
        if loop_impls["pw_match"](old, new) != np_impls["pw_match"](old, new):
            raise SystemExit("backend mismatch: pw_match")
        mode = trial % 2
        same("word_write", rng.integers(0, 2, size=256, dtype=np.uint8),
             3, word_bits, word_bits, new, mode)
        # naive writes clear stale rows past the live width up to the span
        row_start = int(rng.integers(0, 4))
        width = int(rng.integers(0, word_bits + 1))
        span = width + int(rng.integers(0, 3))
        same("bi_write",
             rng.integers(0, 2, size=(row_start + span, 32), dtype=np.uint8),
             row_start, span, width, int(rng.integers(0, 32)), new, mode)
        n = int(rng.integers(1, 6))
        starts = rng.choice(8, size=n, replace=False).astype(np.int64) * word_bits
        widths = rng.integers(1, word_bits + 1, size=n).astype(np.int64)
        mat = rng.integers(0, 2, size=(n, int(widths.max())), dtype=np.uint8)
        same("bcw_batch", rng.integers(0, 2, size=9 * word_bits, dtype=np.uint8),
             starts, widths, mat)


def _twin_devices(word_bits, ports, policy="lazy"):
    geom = Geometry(word_bits=word_bits, interport_bits=word_bits,
                    ports_per_track=ports, shift_policy=policy)
    return Device(geom, CostModel()), Device(geom, CostModel())


def _n_cells(handle):
    return (handle.n_ports + 2) * handle.interport


def _scan_setup(rng, word_bits, policy="lazy"):
    """Twin tracks with the same random cells, one int per interport
    segment (the interport is word_bits), and the buffer's key slots."""
    devs = _twin_devices(word_bits, 2 * NODE_PAIRS, policy)
    trs = [d.new_track() for d in devs]
    segments = [_rand_value(rng, word_bits) for _ in trs[0].cells]
    for tr in trs:
        tr.cells = list(segments)
    return devs, trs, [2 * s for s in BUFFER_SLOTS]


def _node_setup(rng, word_bits):
    devs = _twin_devices(word_bits, NODE_PAIRS)
    groups = [d.new_group(2 * word_bits) for d in devs]
    cells = [_rand_value(rng, 2 * word_bits)
             for _ in range(_n_cells(groups[0]))]
    for dev, g in zip(devs, groups):
        g.cells = list(cells)
        dev.group_align(g, 3)
    return devs, groups


def track_image(tr):
    """A track's cells as the uint8 array the kernels take: segment k
    holds cells k * interport and up."""
    return np.array([seg >> j & 1 for seg in tr.cells
                     for j in range(tr.interport)], np.uint8)


def group_image(g):
    """A group's cells as the kernels' (rows, columns) uint8 array."""
    return np.array([[col >> r & 1 for col in g.cells]
                     for r in range(g.n_tracks)], np.uint8)


def _rand_value(rng, width):
    """A random int of `width` bits (also a random run of cells)."""
    return int.from_bytes(rng.bytes(width // 8 + 1), "little") >> (
        8 - width % 8)


def _node_words(rng, word_bits):
    """Six pairs, a key and a narrower encoded payload each: 12 words."""
    words = []
    for port in rng.choice(BUFFER_SLOTS, size=6, replace=False):
        words.append((int(port), 0, word_bits, word_bits,
                      _rand_value(rng, word_bits)))
        width = int(rng.integers(1, word_bits + 1))
        words.append((int(port), word_bits, word_bits, width,
                      _rand_value(rng, width)))
    return words


def _bcw_words(rng, word_bits):
    """The node words of _node_words at their word-mapping slots: pair
    slot s holds its key in word slot 2s and its payload in 2s + 1."""
    return [(2 * port + (row > 0), value, width)
            for port, row, _span, width, value in _node_words(rng, word_bits)]


def bcw_by_kernel(dev, tr, cells, writes):
    """The bit-array bcw pass the int pass replaced, billed as it was:
    ``int_to_bits`` rows in an (n, max width) matrix, the uint8 `cells` of
    the track applied and the bit positions classified by the numpy
    kernel. Lazy policy, no step trace and no doubled detects, as the
    bench devices are built."""
    starts = np.array([tr.slot_start(s) for s, _v, _w in writes], np.int64)
    widths = np.array([w for _s, _v, w in writes], np.int64)
    mat = np.zeros((len(writes), int(widths.max())), np.uint8)
    for row, (_slot, value, width) in zip(mat, writes):
        row[:width] = kernels.int_to_bits(value, width)
    dev.align(tr, 0)
    dev.counters.record_shift(1, 2 * tr.interport)
    det, inj, rem, act, inj_steps, rem_steps, both = (
        int(n) for n in kernels.NUMPY_IMPLS["bcw_batch"](cells, starts,
                                                          widths, mat))
    if dev.cost.dominant(("inject", "remove")) == "inject":
        inj_steps += both
    else:
        rem_steps += both
    c = dev.counters
    c.detect += det
    c.detect_steps += act
    c.inject += inj
    c.inject_steps += inj_steps
    c.remove += rem
    c.remove_steps += rem_steps


def check_device_parity(rng, word_bits):
    """Each pass against the per-word calls it replaces, plus the node
    write's cells against the loop kernel applied word by word."""
    for trial in range(100):
        devs, trs, slots = _scan_setup(rng, word_bits,
                                       ("lazy", "eager")[trial % 2])
        devs[0].align(trs[0], -trial % word_bits)
        devs[1].align(trs[1], -trial % word_bits)
        got = devs[0].scan_words(trs[0], slots, word_bits)
        want = [devs[1].read_word(trs[1], s, word_bits) for s in slots]
        if (got != want or trs[0].offset != trs[1].offset
                or devs[0].counters != devs[1].counters):
            raise SystemExit("device pass mismatch: scan_words")
        # the visit's payload: the last buffer slot's payload word, narrower
        then = (slots[-1] + 1, 1 + trial % word_bits)
        got = devs[0].scan_words(trs[0], slots, word_bits, None, then)
        want = devs[1].scan_words(trs[1], slots, word_bits)
        want.append(devs[1].read_word(trs[1], *then))
        if (got != want or trs[0].offset != trs[1].offset
                or devs[0].counters != devs[1].counters):
            raise SystemExit("device pass mismatch: scan_words final read")
        devs, groups = _node_setup(rng, word_bits)
        words = _node_words(rng, word_bits)
        mode = ("naive", "dcw")[trial % 2]
        oracle = group_image(groups[0])
        devs[0].bi_write_node(groups[0], 3, words, mode, trial % 3 == 0)
        for port, row_start, span, width, value in words:
            devs[1].bi_write_word(groups[1], port, 3, row_start, span, width,
                                  value, mode, trial % 3 == 0)
            kernels.LOOP_IMPLS["bi_write"](
                oracle, row_start, span, width, (port + 1) * word_bits + 3,
                kernels.int_to_bits(value, width),
                kernels.MODE_NAIVE if mode == "naive" else kernels.MODE_DCW)
        if (groups[0].cells != groups[1].cells
                or not np.array_equal(group_image(groups[0]), oracle)
                or devs[0].counters != devs[1].counters):
            raise SystemExit("device pass mismatch: bi_write_node")
        devs, trs, _ = _scan_setup(rng, word_bits)
        for dev, tr in zip(devs, trs):
            dev.align(tr, -trial % word_bits)
        writes = _bcw_words(rng, word_bits)
        cells = track_image(trs[1])
        devs[0].write_batch_bcw(trs[0], writes)
        bcw_by_kernel(devs[1], trs[1], cells, writes)
        if (not np.array_equal(track_image(trs[0]), cells)
                or trs[0].offset != trs[1].offset
                or devs[0].counters != devs[1].counters):
            raise SystemExit("device pass mismatch: write_batch_bcw")


def time_device_passes(rng, args):
    wb, calls = args.word_bits, args.calls
    (dev, _), (tr, _), slots = _scan_setup(rng, wb)
    (ndev, _), (group, _) = _node_setup(rng, wb)
    batches = [_node_words(rng, wb) for _ in range(calls)]
    (bdev, kdev), (btr, ktr), _ = _scan_setup(rng, wb)
    kcells = track_image(ktr)
    bcw_batches = [_bcw_words(rng, wb) for _ in range(calls)]
    singles = [ws[:1] for ws in batches]

    def scan():
        for _ in range(calls):
            dev.scan_words(tr, slots, wb)

    def reads():
        for _ in range(calls):
            for s in slots:
                dev.read_word(tr, s, wb)

    then = (slots[-1] + 1, wb)

    def visit():
        for _ in range(calls):
            dev.scan_words(tr, slots, wb, None, then)

    def scan_then_read():
        for _ in range(calls):
            dev.scan_words(tr, slots, wb)
            dev.read_word(tr, *then)

    def node():
        for ws in batches:
            ndev.bi_write_node(group, 3, ws, "dcw", True)

    def per_word():
        for ws in batches:
            for port, row_start, span, width, value in ws:
                ndev.bi_write_word(group, port, 3, row_start, span, width,
                                   value, "dcw", True)

    def bcw_ints():
        for ws in bcw_batches:
            bdev.write_batch_bcw(btr, ws)

    def bcw_bits():
        for ws in bcw_batches:
            bcw_by_kernel(kdev, ktr, kcells, ws)

    def one_word():
        for ws in singles:
            ndev.bi_write_node(group, 3, ws, "dcw", True)

    # the right-hand column is the replaced path: per-word calls for the
    # scan and the node write, the scan and a separate payload read for
    # the visit, the bit-array kernel pass for write_batch_bcw
    print(f"\n{'device pass (12 words)':<24} {'pass us':>10} "
          f"{'before us':>12} {'speedup':>8}")
    for name, one, many in (("scan_words", scan, reads),
                            ("node visit (12 + 1)", visit, scan_then_read),
                            ("bi_write_node", node, per_word),
                            ("write_batch_bcw", bcw_ints, bcw_bits)):
        one()
        many()
        t_one = min(_timed(one) for _ in range(args.repeat)) / calls * 1e6
        t_many = min(_timed(many) for _ in range(args.repeat)) / calls * 1e6
        print(f"{name:<24} {t_one:>10.2f} {t_many:>12.2f} "
              f"{t_many / t_one:>7.1f}x")
    # no replaced path to set beside it: the fixed cost of one node write
    one_word()
    t = min(_timed(one_word) for _ in range(args.repeat)) / calls * 1e6
    print(f"{'bi_write_node (1 word)':<24} {t:>10.2f}")


def main():
    ap = argparse.ArgumentParser(description="kernel backend micro-benchmark")
    ap.add_argument("--calls", type=int, default=2000,
                    help="kernel calls per timing pass")
    ap.add_argument("--word-bits", type=int, default=64)
    ap.add_argument("--batch", type=int, default=16,
                    help="words per bcw batch")
    ap.add_argument("--repeat", type=int, default=5,
                    help="timing passes; best is reported")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    try:
        from numba import njit
        loop_label = "numba"
        loop_impls = {name: njit(cache=True)(fn)
                      for name, fn in kernels.LOOP_IMPLS.items()}
    except ImportError:
        loop_label = "python"
        loop_impls = kernels.LOOP_IMPLS
    np_impls = kernels.NUMPY_IMPLS

    rng = np.random.default_rng(args.seed)
    check_parity(loop_impls, np_impls, rng, args.word_bits)
    track_cells, group_cells, cases = build_inputs(
        rng, args.calls, args.word_bits, args.batch)
    runners = make_runners(track_cells, group_cells, cases, args.word_bits)

    print(f"{args.calls} calls/pass, best of {args.repeat}, "
          f"word_bits={args.word_bits}, batch={args.batch}, "
          f"loops run as {loop_label}")
    print(f"{'kernel':<12} {'numpy us':>10} {loop_label + ' us':>10} "
          f"{'speedup':>8}")
    for name, run in runners.items():
        run(loop_impls[name])  # warm-up (numba compiles here) outside the clock
        times = {}
        for label, impls in (("numpy", np_impls), ("loop", loop_impls)):
            best = min(_timed(run, impls[name]) for _ in range(args.repeat))
            times[label] = best / args.calls * 1e6
        ratio = times["numpy"] / times["loop"] if times["loop"] else float("inf")
        print(f"{name:<12} {times['numpy']:>10.2f} {times['loop']:>10.2f} "
              f"{ratio:>7.1f}x")

    check_device_parity(rng, args.word_bits)
    time_device_passes(rng, args)


def _timed(run, *args):
    t0 = time.perf_counter()
    run(*args)
    return time.perf_counter() - t0


if __name__ == "__main__":
    main()
