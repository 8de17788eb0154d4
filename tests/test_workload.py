"""Operation-stream generation: mixes, distributions, determinism."""

import numpy as np
import pytest

from skrmbetree.errors import ConfigError
from skrmbetree.workload import (MASK64, MIXES, OP_INSERT, OP_READ, OP_UPDATE,
                                 WorkloadSpec, generate, make_key, make_value,
                                 zipf_head_probability)


def spec_for(workload, ops, load, seed=42):
    return WorkloadSpec.from_table(workload, ops, load, seed)


def test_mix_table():
    assert MIXES["a"] == (50, 50, 0, "zipfian")
    assert MIXES["c"] == (100, 0, 0, "zipfian")
    assert MIXES["d"] == (5, 95, 0, "latest")
    # e and f rehearse the same mixes as b and a
    assert MIXES["e"] == MIXES["b"]
    assert MIXES["f"] == MIXES["a"]
    spec = spec_for("a", 100, 50)
    assert (spec.read_pct, spec.update_pct, spec.insert_pct) == (50, 50, 0)
    with pytest.raises(ConfigError):
        WorkloadSpec.from_table("z", 100, 50, 1)
    with pytest.raises(ConfigError):
        WorkloadSpec("x", 60, 60, 0, "zipfian", 100, 50, 1)
    with pytest.raises(ConfigError):
        WorkloadSpec("x", 100, 0, 0, "pareto", 100, 50, 1)
    with pytest.raises(ConfigError):
        WorkloadSpec("x", 100, 0, 0, "zipfian", 100, 0, 1)


def test_stream_shape_and_load_phase():
    stream = generate(spec_for("a", 200, 120), 64)
    assert len(stream) == 200
    assert len(stream.load_keys) == len(stream.load_values) == 120
    # hashed 64-bit keys do not collide at this scale
    assert len(set(stream.load_keys.tolist())) == 120
    pairs = list(stream.iter_load())
    assert pairs[0] == (int(stream.load_keys[0]), int(stream.load_values[0]))
    assert all(isinstance(k, int) for k, _v in pairs)


def test_workload_c_is_read_only():
    stream = generate(spec_for("c", 3000, 400), 64)
    assert np.all(stream.ops == OP_READ)
    assert np.all(stream.values == 0)
    # every probed key belongs to the loaded keyspace
    loaded = set(stream.load_keys.tolist())
    assert set(stream.keys.tolist()) <= loaded


def test_streams_are_deterministic():
    a1 = generate(spec_for("b", 1500, 300), 64)
    a2 = generate(spec_for("b", 1500, 300), 64)
    for field in ("load_keys", "load_values", "ops", "keys", "values"):
        assert np.array_equal(getattr(a1, field), getattr(a2, field))
    other = generate(spec_for("b", 1500, 300, seed=43), 64)
    assert not np.array_equal(a1.keys, other.keys)


def test_operation_mix_tracks_the_table():
    stream = generate(spec_for("b", 20000, 100), 64)
    reads = int(np.count_nonzero(stream.ops == OP_READ))
    inserts = int(np.count_nonzero(stream.ops == OP_INSERT))
    assert abs(reads / 20000 - 0.95) < 0.01
    assert abs(inserts / 20000 - 0.05) < 0.01
    assert not np.any(stream.ops == OP_UPDATE)


def test_zipf_head_frequency_matches_analytic_value():
    n_load, n_ops = 500, 40000
    stream = generate(spec_for("c", n_ops, n_load), 64)
    hottest = make_key(42, 0, 64)
    got = int(np.count_nonzero(stream.keys == hottest)) / n_ops
    want = zipf_head_probability(n_load)
    assert abs(got - want) / want < 0.05
    assert zipf_head_probability(1) == 1.0


def test_latest_distribution_prefers_recent_keys():
    n_load = 300
    stream = generate(spec_for("d", 4000, n_load), 64)
    newest = make_key(42, n_load - 1, 64)
    oldest = make_key(42, 0, 64)
    newest_hits = int(np.count_nonzero(stream.keys == newest))
    oldest_hits = int(np.count_nonzero(stream.keys == oldest))
    assert newest_hits > 5 * max(oldest_hits, 1)
    # the newest key is the head of the reversed rank order
    want = zipf_head_probability(n_load)
    assert abs(newest_hits / 4000 - want) / want < 0.15


def test_inserts_extend_the_keyspace_in_order():
    n_load = 200
    stream = generate(spec_for("b", 4000, n_load), 64)
    inserted = [int(k) for op, k, _v in stream.iter_ops()
                if op == OP_INSERT]
    assert inserted
    assert inserted == [make_key(42, n_load + j, 64)
                        for j in range(len(inserted))]
    assert not set(inserted) & set(stream.load_keys.tolist())


@pytest.mark.parametrize("word_bits", (8, 16, 64, 128, 256))
def test_words_fit_the_configured_width(word_bits):
    stream = generate(spec_for("a", 500, 100), word_bits)
    top = 1 << word_bits
    for arr in (stream.load_keys, stream.load_values, stream.keys,
                stream.values):
        assert int(arr.max()) < top
    assert make_key(7, 3, word_bits) < top
    assert make_value(7, 3, word_bits) < top
    assert make_key(7, 3, word_bits) == make_key(7, 3, word_bits)
    assert make_key(7, 3, word_bits) != make_key(8, 3, word_bits)


@pytest.mark.parametrize("word_bits", (128, 256))
def test_wide_words_are_dense_above_64_bits(word_bits):
    # every bit above 64 is set in about half the distinct words (zipfian
    # ops repeat hot keys); the low 64 bits are the 64-bit draw, so
    # narrower streams are unchanged
    stream = generate(spec_for("a", 400, 400), word_bits)
    for arr in (stream.load_keys, stream.load_values, stream.keys,
                stream.values[stream.ops != OP_READ]):
        words = set(arr.tolist())
        assert len(words) > 100
        for bit in range(64, word_bits):
            share = sum(w >> bit & 1 for w in words) / len(words)
            assert 0.3 < share < 0.7, (bit, share)
    for i in range(50):
        assert make_key(42, i, word_bits) & MASK64 == make_key(42, i, 64)
        assert make_value(42, i, word_bits) & MASK64 == make_value(42, i, 64)
    assert len(set(stream.load_keys.tolist())) == 400
