"""Operation-stream generation: mixes, distributions, determinism."""

import hashlib

import numpy as np
import pytest

from skrmbetree.errors import ConfigError
from skrmbetree.workload import (MASK64, MIXES, OP_INSERT, OP_READ, OP_UPDATE,
                                 ZIPF_THETA, WorkloadSpec, generate, make_key,
                                 make_value)


def zipf_head_probability(n: int, theta: float = ZIPF_THETA) -> float:
    """Analytic probability of the most popular rank under zipf(theta)."""
    ranks = np.arange(1, n + 1, dtype=np.float64)
    return float(1.0 / np.sum(ranks ** -theta))


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


@pytest.mark.parametrize("pcts,field", [
    ((60, -20, 60), "update_pct"),     # sums to 100, one share negative
    ((-1, 101, 0), "read_pct"),
    ((0, 0, 101), "insert_pct"),
    ((50.0, 50, 0), "read_pct"),       # not an int
    ((99, True, 0), "update_pct"),     # a bool is no percentage
    ((100, 0, False), "insert_pct"),
])
def test_spec_refuses_a_share_outside_0_to_100(pcts, field):
    with pytest.raises(ConfigError, match=f"^{field} must be an int in "
                                          f"0..100"):
        WorkloadSpec("x", *pcts, "zipfian", 1000, 50, 1)


def test_stream_shape_and_load_phase():
    stream = generate(spec_for("a", 200, 120), 64)
    assert len(stream) == 200
    assert len(stream.load_keys) == len(stream.load_values) == 120
    # hashed 64-bit keys do not collide at this scale
    assert len(set(stream.load_keys.tolist())) == 120
    pairs = list(stream.iter_load())
    assert pairs[0] == (int(stream.load_keys[0]), int(stream.load_values[0]))
    assert all(isinstance(k, int) for k, _v in pairs)


@pytest.mark.parametrize("word_bytes", (4, 8, 32))
def test_iterated_ops_and_words_are_the_arrays_as_python_ints(word_bytes):
    # uint64 arrays up to 8-byte words, object arrays of ints past them
    stream = generate(spec_for("a", 200, 120), 8 * word_bytes)
    for rows, arrays in ((stream.iter_load(),
                          (stream.load_keys, stream.load_values)),
                         (stream.iter_ops(),
                          (stream.ops, stream.keys, stream.values))):
        rows = list(rows)
        assert len(rows) == len(arrays[0])
        for i, row in enumerate(rows):
            assert len(row) == len(arrays)
            for got, array in zip(row, arrays):
                assert type(got) is int
                assert got == array[i]


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


_STREAM_FIELDS = ("load_keys", "load_values", "ops", "keys", "values")


def _stream_digest(stream):
    """sha256 over all five arrays, each with its dtype and shape; object
    arrays (words past 64 bits) hash as the repr of their int list."""
    h = hashlib.sha256()
    for field in _STREAM_FIELDS:
        arr = getattr(stream, field)
        h.update(f"{field}:{arr.dtype.str}:{arr.shape};".encode())
        h.update(repr(arr.tolist()).encode() if arr.dtype == object
                 else arr.tobytes())
    return h.hexdigest()


# generate(from_table(mix, 700, 300, seed=7), 8 * word_bytes); e and f
# share b's and a's mixes, so their streams are the same today
_PINNED_DIGESTS = {
    ("a", 4):
        "0566383b835dfeeddd278c1e552aba000595c5324f73da72f48b86ad9dcecafe",
    ("a", 8):
        "7032189d6ec3a87173d7ba32cadace37226c3a6d484558ce21f78da3eec77d7f",
    ("a", 16):
        "7ba4a7ba37d45850157074a28547964f3461178d0afbb42c4c2b57e568ac90c8",
    ("a", 32):
        "baeeb31602ba078f7f4c02d1d96ae7190f5135ea6f478d2c18d499ed6120c537",
    ("b", 4):
        "9af87222e3c934090b13a659d4e9c4f5c7c14ba7abf9d6102335b21bc00c6bc7",
    ("b", 8):
        "7d899f538fa182dc77c632605586447b1900d845383e44ad96b7f07a0fcbc6ba",
    ("b", 16):
        "4564ed6254c72ee2dfcf5b685e421a1567c5a619ddf46643db40df88709ea6b1",
    ("b", 32):
        "f9f311134a68a21b0e866934a125aec924db76cda96908701ac471964350a7f2",
    ("c", 4):
        "239a2c62889606040b40be761f9b43569f16d318e2cc74fa68517716158c737b",
    ("c", 8):
        "1f0b51f1ac9dfd596a12d8b850183b7d53bfa58315e047e16b0c3595ba758018",
    ("c", 16):
        "5d47c8fa78e13d2432204f55b9fa1bc9f05cceb05849e5b96be42985d20ba690",
    ("c", 32):
        "93ff9784bd6cfcbc01dbb98cea230d0450908911d0e6dec3be8676151c0f4926",
    ("d", 4):
        "5a4f7644d221ab4ba7f8a37d5e76e2d3e62eceadf0ac820c64ce1ca626115e90",
    ("d", 8):
        "fcbc41075bc3a080e27354bb7b31eed4bbf9a0ed9d373efa8228ef5fd4128fae",
    ("d", 16):
        "7878e728dca70173171447e4eea7eb7ff32a69bd886c1ae0d7edc4d89fb767d0",
    ("d", 32):
        "8821902f85bebfdd5633e49e187beda1a0aacb4475f717880ff4d20411968c80",
    ("e", 4):
        "9af87222e3c934090b13a659d4e9c4f5c7c14ba7abf9d6102335b21bc00c6bc7",
    ("e", 8):
        "7d899f538fa182dc77c632605586447b1900d845383e44ad96b7f07a0fcbc6ba",
    ("e", 16):
        "4564ed6254c72ee2dfcf5b685e421a1567c5a619ddf46643db40df88709ea6b1",
    ("e", 32):
        "f9f311134a68a21b0e866934a125aec924db76cda96908701ac471964350a7f2",
    ("f", 4):
        "0566383b835dfeeddd278c1e552aba000595c5324f73da72f48b86ad9dcecafe",
    ("f", 8):
        "7032189d6ec3a87173d7ba32cadace37226c3a6d484558ce21f78da3eec77d7f",
    ("f", 16):
        "7ba4a7ba37d45850157074a28547964f3461178d0afbb42c4c2b57e568ac90c8",
    ("f", 32):
        "baeeb31602ba078f7f4c02d1d96ae7190f5135ea6f478d2c18d499ed6120c537",
}


@pytest.mark.parametrize("mix,word_bytes", sorted(_PINNED_DIGESTS))
def test_stream_digest_is_pinned(mix, word_bytes):
    stream = generate(WorkloadSpec.from_table(mix, 700, 300, 7),
                      8 * word_bytes)
    assert _stream_digest(stream) == _PINNED_DIGESTS[mix, word_bytes]


def test_edge_stream_digests_are_pinned():
    # one load key grown by mix b's inserts; a load phase with no ops
    one_key = generate(WorkloadSpec.from_table("b", 50, 1, 7), 64)
    assert _stream_digest(one_key) == (
        "dd7e00f4f4bdd130435efd05ca1a290d3eab13d4972eb09a0dcaf7569a6bce96")
    no_ops = generate(WorkloadSpec.from_table("a", 0, 40, 7), 64)
    assert _stream_digest(no_ops) == (
        "9fe44a4424abe900365d5254d3681486347fb7c793b1f8c02c39552ca48cc79d")
