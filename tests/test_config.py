"""Configuration dataclasses and the key = value settings file."""

from dataclasses import fields

import pytest

from skrmbetree.config import (CostModel, ExperimentConfig, Geometry,
                               TreeConfig, apply_file_settings,
                               read_config_file)
from skrmbetree.errors import ConfigError


def test_cost_model_rejects_nonpositive_units():
    with pytest.raises(ConfigError):
        CostModel(energy_shift=0)
    with pytest.raises(ConfigError):
        CostModel(latency_inject=-1.0)
    # a non-finite unit is refused in code as it is in a settings file
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ConfigError, match="finite"):
            CostModel(energy_detect=bad)
        with pytest.raises(ConfigError, match="finite"):
            CostModel(latency_shift=bad)
    model = CostModel()
    assert model.energy("inject") == 200.0
    assert model.latency("detect") == 0.1
    assert model.dominant(("remove", "inject")) == "inject"


def test_geometry_validation_and_shape():
    Geometry(word_bits=16, interport_bits=32, ports_per_track=4)
    with pytest.raises(ConfigError):
        Geometry(word_bits=32, interport_bits=16)
    with pytest.raises(ConfigError):
        Geometry(shift_policy="sideways")


def test_tree_config_validation():
    with pytest.raises(ConfigError):
        TreeConfig(node_pairs=16, pivot_pairs=4, buffer_pairs=4)
    with pytest.raises(ConfigError):
        TreeConfig(strategy="xor")
    # parallel port updates only exist for the batched compare write
    with pytest.raises(ConfigError):
        TreeConfig(strategy="dcw", parallel_ports=True)
    with pytest.raises(ConfigError):
        TreeConfig(arena_capacity=0)
    # a track budget below one track could place nothing
    for bad in (0, -3):
        with pytest.raises(ConfigError, match="max_tracks must be >= 1"):
            TreeConfig(max_tracks=bad)
    assert TreeConfig(max_tracks=1).max_tracks == 1
    # a leaf's elements sit in the node's pair slots
    with pytest.raises(ConfigError):
        TreeConfig(node_pairs=6, pivot_pairs=2, buffer_pairs=4,
                   element_pairs=7)


def test_experiment_geometry_follows_mapping():
    word = ExperimentConfig(mapping="word")
    bit = ExperimentConfig(mapping="bit_interleaved")
    assert word.geometry().ports_per_track == 2 * word.tree.node_pairs
    assert bit.geometry().ports_per_track == bit.tree.node_pairs
    assert word.word_bits == 64
    assert word.ops == word.entries
    cfg = ExperimentConfig(op_count=123)
    assert cfg.ops == 123
    with pytest.raises(ConfigError):
        ExperimentConfig(mapping="bit_interleaved",
                         tree=TreeConfig(strategy="pw"))


def test_experiment_refuses_a_bad_op_count_or_workload():
    # checked when the config is built, not when the stream is generated
    assert ExperimentConfig(op_count=0).ops == 0
    for kw in ({"op_count": -1}, {"workload": "z"}, {"workload": "A"}):
        with pytest.raises(ConfigError):
            ExperimentConfig(**kw)


def test_experiment_refuses_an_unknown_shift_policy():
    # checked when the config is built, not when the geometry is derived
    assert ExperimentConfig(shift_policy="eager").geometry().shift_policy \
        == "eager"
    with pytest.raises(ConfigError, match="shift_policy must be one of"):
        ExperimentConfig(shift_policy="sideways")


def test_baseline_projection():
    cfg = ExperimentConfig(tree=TreeConfig(strategy="bcw", encoding=True,
                                           parallel_ports=True))
    assert not cfg.is_baseline()
    base = cfg.baseline()
    assert base.is_baseline()
    assert base.tree.strategy == "naive"
    assert base.entries == cfg.entries and base.seed == cfg.seed


def test_settings_file_round_trip(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text(
        "# comparison point\n"
        "workload = d\n"
        "entries = 500   # desk scale\n"
        "word_bits = 16\n"
        "strategy = bcw\n"
        "parallel_ports = on\n"
        "encoding = yes\n"
        "energy_inject = 150\n"
        "\n")
    settings = read_config_file(path)
    assert settings["workload"] == "d"
    assert settings["entries"] == 500
    assert settings["parallel_ports"] is True
    cfg = apply_file_settings(ExperimentConfig(), settings)
    assert cfg.workload == "d"
    assert cfg.word_bytes == 2
    assert cfg.tree.strategy == "bcw"
    assert cfg.tree.encoding and cfg.tree.parallel_ports
    assert cfg.cost.energy_inject == 150.0


# a value other than the default for every experiment-level field
_EXP_SAMPLES = {"workload": "c", "mapping": "bit_interleaved",
                "entries": 500, "op_count": 7, "word_bytes": 2, "seed": 9,
                "shift_policy": "eager"}


@pytest.mark.parametrize("key", [f.name for f in fields(ExperimentConfig)
                                 if f.name not in ("tree", "cost")])
def test_settings_file_sets_every_experiment_field(tmp_path, key):
    value = _EXP_SAMPLES[key]
    assert getattr(ExperimentConfig(), key) != value
    path = tmp_path / "run.conf"
    path.write_text(f"{key} = {value}\n")
    cfg = apply_file_settings(ExperimentConfig(), read_config_file(path))
    assert getattr(cfg, key) == value


def test_settings_file_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.conf"
    bad.write_text("entries 500\n")
    with pytest.raises(ConfigError):
        read_config_file(bad)
    bad.write_text("= 5\n")
    with pytest.raises(ConfigError):
        read_config_file(bad)
    with pytest.raises(ConfigError):
        apply_file_settings(ExperimentConfig(), {"entires": 5})
    with pytest.raises(ConfigError):
        apply_file_settings(ExperimentConfig(), {"word_bits": 12})
    with pytest.raises(ConfigError):
        read_config_file(tmp_path / "missing.conf")


def test_settings_file_rejects_a_key_set_twice(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text("entries = 100\n# more\nseed = 3\n entries = 100\n")
    with pytest.raises(ConfigError) as err:
        read_config_file(path)
    msg = str(err.value)
    assert "run.conf:4:" in msg and "entries" in msg and "line 1" in msg


def test_settings_file_that_is_not_utf8_is_a_config_error(tmp_path):
    path = tmp_path / "run.conf"
    path.write_bytes(b"entries = 100\nseed = \xff\n")
    with pytest.raises(ConfigError) as err:
        read_config_file(path)
    assert str(path) in str(err.value)


def test_experiment_seed_must_be_non_negative(tmp_path):
    # the workload stream seeds numpy's PCG64, which takes no negative seed
    assert ExperimentConfig(seed=0).seed == 0
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        ExperimentConfig(seed=-1)
    path = tmp_path / "run.conf"
    path.write_text("seed = -1\n")
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        apply_file_settings(ExperimentConfig(), read_config_file(path))


def test_settings_file_geometry_keys_must_agree():
    # word mapping: two word slots per pair, interport = word size
    agree = {"word_bits": 16, "node_pairs": 8, "pivot_pairs": 2,
             "buffer_pairs": 6, "element_pairs": 8, "ports_per_track": 16,
             "interport_bits": 16}
    cfg = apply_file_settings(ExperimentConfig(), agree)
    assert cfg.geometry().ports_per_track == 16
    assert cfg.geometry().interport_bits == 16
    for key, bad, derived in (("ports_per_track", 8, 16),
                              ("interport_bits", 32, 16)):
        with pytest.raises(ConfigError) as err:
            apply_file_settings(ExperimentConfig(), {**agree, key: bad})
        assert f"{key} = {bad}" in str(err.value)
        assert f"{key} = {derived}" in str(err.value)
    # the bit-interleaved mapping derives one port per pair
    bit = apply_file_settings(ExperimentConfig(),
                              {"mapping": "bit_interleaved",
                               "ports_per_track": 16})
    assert bit.geometry().ports_per_track == 16
    with pytest.raises(ConfigError):
        apply_file_settings(ExperimentConfig(),
                            {"mapping": "bit_interleaved",
                             "ports_per_track": 32})



# each settings-file line parses by the type of the field it sets
@pytest.mark.parametrize("line,key,want", [
    ("seed = 1", "seed", 1),
    ("seed = 0", "seed", 0),
    ("entries = 500", "entries", 500),
    ("encoding = 1", "encoding", True),
    ("encoding = Off", "encoding", False),
    ("latency_shift = 2", "latency_shift", 2.0),
    ("latency_shift = 0.25", "latency_shift", 0.25),
    ("arena_capacity = none", "arena_capacity", None),
    ("max_tracks = 64", "max_tracks", 64),
    ("workload = 1", "workload", "1"),
])
def test_settings_file_parses_by_field_type(tmp_path, line, key, want):
    path = tmp_path / "run.conf"
    path.write_text(line + "\n")
    got = read_config_file(path)[key]
    assert got == want and type(got) is type(want)


@pytest.mark.parametrize("line", [
    "encoding = maybe",
    "parallel_ports = 2",
    "latency_shift = yes",
    "energy_inject = nan",
    "entries = 1.5",
    "node_pairs = 16.0",
    "seed = true",
    "op_count = -",
    "word_bits = sixteen",
])
def test_settings_file_rejects_values_of_the_wrong_type(tmp_path, line):
    path = tmp_path / "run.conf"
    path.write_text("# header\n" + line + "\n")
    key, _, value = line.partition(" = ")
    with pytest.raises(ConfigError) as err:
        read_config_file(path)
    assert f"run.conf:2: {key} = {value!r}" in str(err.value)
    # the same value handed over from code fails the same way
    with pytest.raises(ConfigError, match=key):
        apply_file_settings(ExperimentConfig(), {key: value})


@pytest.mark.parametrize("key,value", [
    ("seed", True), ("entries", 1.5), ("encoding", 1), ("workload", 5),
    ("latency_shift", False), ("node_pairs", None),
])
def test_typed_settings_must_match_the_field_type(key, value):
    with pytest.raises(ConfigError, match=key):
        apply_file_settings(ExperimentConfig(), {key: value})


def test_cli_rejects_a_mistyped_settings_file(tmp_path, capsys):
    from skrmbetree.cli import main
    conf = tmp_path / "run.conf"
    conf.write_text("entries = 1.5\n")
    assert main(["run", "--config", str(conf), "--format", "json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "entries = '1.5'" in err
    # seed = 1 is the int 1, not True
    conf.write_text("seed = 1\nentries = 40\nop_count = 40\n")
    out = tmp_path / "out.json"
    assert main(["run", "--config", str(conf), "--format", "json",
                 "--out", str(out)]) == 0
    assert '"seed": 1,' in out.read_text()
