"""Time the cell-array kernels under the numpy and numba backends.

Runs each kernel over pregenerated random inputs and prints per-call
times plus the speedup. Without numba the loop implementations run as
plain Python instead, so the numpy backend still gets a number. Also
cross-checks that both backends return the same numbers on a fresh copy
of every input, since a fast wrong kernel would be worse than useless.

Usage: python benchmarks/kernel_bench.py [--calls 2000] [--word-bits 64]
"""

import argparse
import time

import numpy as np

from skrmbetree import kernels


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


def _timed(run, impl):
    t0 = time.perf_counter()
    run(impl)
    return time.perf_counter() - t0


if __name__ == "__main__":
    main()
