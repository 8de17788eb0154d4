"""End-to-end gates for the shipped artifact.

One test per gate, each printing a single pass/fail line under -v. The
comparison runs share a cache so the headline and ablation gates replay
each configuration once.
"""

import functools
import json
import time

import numpy as np
import pytest

from cellimage import cell_image
from test_betree import encoding_overhead_bytes
from skrmbetree.bench import emit, run_single
from skrmbetree.btree import write_count_series
from skrmbetree.config import (CostModel, ExperimentConfig, Geometry,
                               TreeConfig)
from skrmbetree.device import Device
from skrmbetree.kernels import bits_to_int

ENTRIES = 10_000          # load phase size; op phase matches it
WORD_BYTES = 8
SEED = 42

UNIT_ENERGY = {"detect": 2.0, "shift": 20.0, "remove": 20.0, "inject": 200.0}
UNIT_LATENCY = {"detect": 0.1, "shift": 0.5, "remove": 0.8, "inject": 1.0}


def config_for(workload, mapping, strategy, encoding, parallel,
               entries=ENTRIES):
    tree = TreeConfig(strategy=strategy, encoding=encoding,
                      parallel_ports=parallel)
    return ExperimentConfig(workload=workload, mapping=mapping,
                            entries=entries, word_bytes=WORD_BYTES,
                            seed=SEED, tree=tree)


@functools.lru_cache(maxsize=None)
def timed_point(workload, mapping, strategy, encoding, parallel):
    cfg = config_for(workload, mapping, strategy, encoding, parallel)
    t0 = time.perf_counter()
    report = run_single(cfg)
    return report, time.perf_counter() - t0


def reduction(base, value):
    return 100.0 * (base - value) / base


@pytest.mark.slow
def test_headline_latency_reductions_word_mapping():
    # full configuration vs naive, word mapping, 10^4 entries / 8-byte
    # words: latency must drop on every workload and the best write-heavy
    # workload (a, d or f) must land in [50%, 90%]; each run < 120 s
    write_heavy = {}
    for workload in "abcdef":
        base, t_base = timed_point(workload, "word", "naive", False, False)
        full, t_full = timed_point(workload, "word", "bcw", True, True)
        assert t_base < 120.0 and t_full < 120.0
        red = reduction(base.latency_ns, full.latency_ns)
        assert red > 0.0, f"workload {workload} got slower: {red:.2f}%"
        if workload in "adf":
            write_heavy[workload] = red
    best = max(write_heavy.values())
    assert 50.0 <= best <= 90.0, f"best write-heavy reduction {best:.2f}%"


@pytest.mark.slow
def test_headline_reductions_bit_interleaved_mapping():
    # same protocol on the bit-interleaved mapping: latency and energy
    # both drop everywhere, best latency reduction in [50%, 90%]
    latency_reds = []
    for workload in "abcdef":
        base, _ = timed_point(workload, "bit_interleaved", "naive",
                              False, False)
        full, _ = timed_point(workload, "bit_interleaved", "bcw", True, True)
        lat = reduction(base.latency_ns, full.latency_ns)
        eng = reduction(base.energy_fJ, full.energy_fJ)
        assert lat > 0.0, f"workload {workload} latency: {lat:.2f}%"
        assert eng > 0.0, f"workload {workload} energy: {eng:.2f}%"
        latency_reds.append(lat)
    best = max(latency_reds)
    assert 50.0 <= best <= 90.0, f"best latency reduction {best:.2f}%"


def test_batch_flush_shift_step_formula():
    # one-by-one writes charge exactly N * 2 * word_bits shift steps; a
    # batched pass charges 2 * word_bits within +/- one interport of
    # alignment slack, independent of N
    rng = np.random.default_rng(SEED)
    for word_bits in (8, 64):
        for n_words in (1, 2, 4, 8, 16):
            geom = Geometry(interport_bits=word_bits, ports_per_track=32)
            words = [bits_to_int(rng.integers(0, 2, size=word_bits,
                                              dtype=np.uint8))
                     for _ in range(n_words)]

            dev = Device(geom, CostModel())
            track = dev.new_track()
            for slot, value in enumerate(words):
                dev.write_serial(track, slot, value, word_bits, "naive")
            assert dev.counters.shift_steps == n_words * 2 * word_bits

            dev = Device(geom, CostModel())
            track = dev.new_track()
            batch = [(slot, value, word_bits)
                     for slot, value in enumerate(words)]
            dev.write_batch_bcw(track, batch)
            assert dev.counters.shift_steps == 2 * word_bits
            assert abs(dev.counters.shift_steps - 2 * word_bits) <= word_bits

            # a displaced track pays its alignment inside the slack bound
            dev.shift(track, "left", 3)
            before = dev.counters.shift_steps
            dev.write_batch_bcw(track, batch)
            charged = dev.counters.shift_steps - before
            assert charged == 2 * word_bits + 3
            assert abs(charged - 2 * word_bits) <= word_bits


def test_arena_index_overhead_arithmetic():
    assert encoding_overhead_bytes(256) == 256
    assert encoding_overhead_bytes(131072) == 278528
    assert encoding_overhead_bytes(1) == 0
    # 16-byte pairs: the side table costs 1.6% of 10^3 pairs and 1.74%
    # of 10^6 pairs
    pair_bytes = 2 * WORD_BYTES
    small = 100.0 * encoding_overhead_bytes(256) / (10**3 * pair_bytes)
    large = 100.0 * encoding_overhead_bytes(131072) / (10**6 * pair_bytes)
    assert small == 1.6
    assert round(large, 2) == 1.74


def test_strategy_count_oracles():
    # >= 1000 random (old, new) pairs per width: every strategy leaves the
    # track holding new; compare-write counts equal the xor oracle; inject
    # counts order pw <= dcw <= naive on every trial
    rng = np.random.default_rng(7)
    for width in (4, 8, 16, 64):
        geom = Geometry(interport_bits=width, ports_per_track=2)
        devices = {name: Device(geom, CostModel())
                   for name in ("naive", "dcw", "pw", "bcw")}
        tracks = {name: dev.new_track() for name, dev in devices.items()}
        for _ in range(1000):
            old_bits = rng.integers(0, 2, size=width, dtype=np.uint8)
            new_bits = rng.integers(0, 2, size=width, dtype=np.uint8)
            old = bits_to_int(old_bits)
            new = bits_to_int(new_bits)
            counts = {}
            for name, dev in devices.items():
                track = tracks[name]
                dev.write_serial(track, 0, old, width, "naive")
                before = dev.counters.snapshot()
                if name == "pw":
                    dev.write_pw(track, 0, new, width)
                elif name == "bcw":
                    dev.write_batch_bcw(track, [(0, new, width)])
                else:
                    dev.write_serial(track, 0, new, width, name)
                counts[name] = dev.counters.delta(before)
                start = track.slot_start(0)
                assert bits_to_int(
                    cell_image(track)[start:start + width]) == new
            rising = new & ~old
            falling = old & ~new
            assert counts["dcw"].inject == bin(rising).count("1")
            assert counts["dcw"].remove == bin(falling).count("1")
            assert counts["dcw"].detect == width
            assert (counts["pw"].inject <= counts["dcw"].inject
                    <= counts["naive"].inject)


@pytest.mark.slow
def test_write_amplification_trend():
    # pair-write ratio >= 1 at 10^3, strictly increasing by decade, and
    # >= 8x at 10^6, all inside 300 s
    t0 = time.perf_counter()
    rows = write_count_series([10**3, 10**4, 10**5, 10**6], seed=7)
    elapsed = time.perf_counter() - t0
    ratios = [row["ratio"] for row in rows]
    assert ratios[0] >= 1.0
    assert all(a < b for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] >= 8.0, f"ratio at 10^6 is {ratios[-1]:.2f}"
    assert elapsed < 300.0


@pytest.mark.slow
def test_reads_match_in_memory_oracle_with_audit():
    # every read of every workload checked against a dict oracle, plus a
    # full structural audit before and after a forced flush, which raises
    # on an arena slot the flush leaves
    for mapping in ("word", "bit_interleaved"):
        for workload in "abcdef":
            cfg = config_for(workload, mapping, "bcw", True, True)
            report = run_single(cfg, check_oracle=True, audit=True)
            assert report.json_record()["read_misses"] == 0


def test_emitted_costs_recompute_exactly():
    reports = [run_single(config_for("a", "word", "bcw", True, True,
                                     entries=1000)),
               run_single(config_for("b", "bit_interleaved", "dcw",
                                     False, False, entries=1000))]
    for record in json.loads(emit(reports, "json")):
        energy = 0.0
        latency = 0.0
        for kind in ("detect", "shift", "remove", "inject"):
            energy += record[kind] * UNIT_ENERGY[kind]
            latency += record[kind + "_steps"] * UNIT_LATENCY[kind]
        assert record["energy_fJ"] == energy
        assert record["latency_ns"] == latency


def test_single_toggle_ablation_directions():
    # parallel ports alone must cut shift count; encoding alone must cut
    # inject count by more than 50% on workload a
    base, _ = timed_point("a", "word", "naive", False, False)
    ports_only, _ = timed_point("a", "word", "bcw", False, True)
    encoding_only, _ = timed_point("a", "word", "bcw", True, False)
    assert ports_only.shift < base.shift
    inject_red = reduction(base.inject, encoding_only.inject)
    assert inject_red > 50.0, f"encoding-only inject reduction {inject_red:.2f}%"
