"""Configuration dataclasses and the key = value settings file."""

from dataclasses import fields

import numpy as np
import pytest

from skrmbetree import config
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
    Geometry(interport_bits=32, ports_per_track=4)
    with pytest.raises(ConfigError, match="interport_bits must be >= 1"):
        Geometry(interport_bits=0)
    with pytest.raises(ConfigError):
        Geometry(shift_policy="sideways")


def test_tree_config_validation():
    # the buffer takes the slots the pivots leave, and gets at least one
    assert TreeConfig(node_pairs=16, pivot_pairs=4).buffer_pairs == 12
    for node_pairs in (16, 15):
        with pytest.raises(ConfigError, match="pivot_pairs must be < "
                                              "node_pairs"):
            TreeConfig(node_pairs=node_pairs, pivot_pairs=16)
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
        TreeConfig(node_pairs=6, pivot_pairs=2, element_pairs=7)


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
        "word_bytes = 2\n"
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


@pytest.mark.parametrize("key", ("ports_per_track", "interport_bits",
                                 "buffer_pairs", "word_bits"))
def test_settings_refuse_a_geometry_key(tmp_path, key):
    # the track geometry follows from the tree shape and word size, the
    # buffer from the node's shape, and word_bits from word_bytes: a key
    # that restates one is as unknown as a typo, from a file or from code
    path = tmp_path / "run.conf"
    path.write_text(f"entries = 500\n{key} = 64\n")
    with pytest.raises(ConfigError, match=f"run.conf:2: unknown config key "
                                          f"'{key}'"):
        read_config_file(path)
    with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
        apply_file_settings(ExperimentConfig(), {"entries": 500}, {key: 64})


def test_a_later_layer_overrides_the_word_size(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text("word_bytes = 8\n")
    cfg = apply_file_settings(ExperimentConfig(word_bytes=4),
                              read_config_file(path), {"word_bytes": 2})
    assert cfg.word_bytes == 2


@pytest.mark.parametrize("conf", ("ports_per_track = 32\n",
                                  "interport_bits = 64\n",
                                  "word_bits = 16\nword_bytes = 2\n",
                                  "buffer_pairs = 12\n"))
def test_cli_refuses_a_key_the_config_refuses_before_out(tmp_path, capsys,
                                                         conf):
    from skrmbetree.cli import main
    path = tmp_path / "run.conf"
    path.write_text("entries = 40\n" + conf)
    out = tmp_path / "out.csv"
    out.write_text("kept\n")
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert out.read_text() == "kept\n"


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
    "word_bytes = sixteen",
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


# every int field of the configs built from code, with a value each passes
_INT_FIELDS = {(cls, f.name): value
               for cls, valid in ((ExperimentConfig, {"op_count": 10}),
                                  (TreeConfig, {"arena_capacity": 64,
                                                "max_tracks": 4}),
                                  (Geometry, {}))
               for f in fields(cls) if f.type in ("int", "int | None")
               for value in [valid.get(f.name, f.default)]}


def test_the_int_field_list_is_complete():
    assert sorted(name for _cls, name in _INT_FIELDS) == sorted([
        "entries", "op_count", "word_bytes", "seed", "node_pairs",
        "pivot_pairs", "element_pairs", "arena_capacity", "max_tracks",
        "interport_bits", "ports_per_track"])


@pytest.mark.parametrize("cls,name", list(_INT_FIELDS),
                         ids=[f"{c.__name__}.{n}" for c, n in _INT_FIELDS])
def test_int_fields_built_from_code_are_type_checked(cls, name):
    # a bool, a float or text is refused naming the field, even where its
    # value would pass as a number; a numpy int passes as a Python int
    good = _INT_FIELDS[cls, name]
    for bad in (True, float(good), good + 0.5, str(good)):
        with pytest.raises(ConfigError, match=f"{name} must be an integer"):
            cls(**{name: bad})
    cfg = cls(**{name: np.int64(good)})
    assert getattr(cfg, name) == good and type(getattr(cfg, name)) is int


# every field of the four config classes; a wrong value of each kind, and
# a good one other than the default where the kind has room for one
_CONFIGS = (ExperimentConfig, TreeConfig, CostModel, Geometry)
_FIELDS = [(cls, f.name, f.type) for cls in _CONFIGS for f in fields(cls)]
_WRONG = {
    "int": (True, 2.5, "2", None),
    "int | None": (True, 2.5, "2"),
    "bool": ("off", 1, None),
    "float": (True, "2.0", float("nan"), float("inf")),
    "str": ("sideways", 5),
    "TreeConfig": (None, "tree", CostModel()),
    "CostModel": (None, "cost", TreeConfig()),
}


def _good_values(cls, name, kind):
    """(value given, value stored) pairs the field takes, and the other
    fields each needs set beside it."""
    default = {f.name: f.default for f in fields(cls)}[name]
    if kind in ("int", "int | None"):
        given = _INT_FIELDS[cls, name]
        return [(np.int64(given), given)], {}
    if kind == "float":
        return [(3, 3.0), (np.float32(0.5), 0.5)], {}
    if kind == "bool":
        return [(True, True), (False, False)], (
            {"strategy": "bcw"} if name == "parallel_ports" else {})
    if kind == "str":
        return [(v, v) for v in config._CHOICES[name] if v != default], {}
    other = (TreeConfig(strategy="dcw") if kind == "TreeConfig"
             else CostModel(energy_inject=150))
    return [(other, other)], {}


def test_every_field_annotation_has_a_type_check():
    # a field of a kind the check does not know fails here; and every str
    # field is a choice field
    assert {kind for _cls, _name, kind in _FIELDS} <= set(_WRONG)
    assert sorted({name for _cls, name, kind in _FIELDS if kind == "str"}) \
        == sorted(config._CHOICES) == ["mapping", "shift_policy",
                                        "strategy", "workload"]


@pytest.mark.parametrize("cls,name,kind", _FIELDS,
                         ids=[f"{c.__name__}.{n}" for c, n, _k in _FIELDS])
def test_every_field_refuses_a_value_of_the_wrong_kind(cls, name, kind):
    for bad in _WRONG[kind]:
        with pytest.raises(ConfigError, match=f"^{name} must be "):
            cls(**{name: bad})
    goods, beside = _good_values(cls, name, kind)
    assert goods
    for given, stored in goods:
        got = getattr(cls(**beside, **{name: given}), name)
        assert got == stored and type(got) is type(stored)


def test_the_wrong_kinds_that_used_to_run_are_refused():
    # each of these built a config that ran: the arena on for "off",
    # doubled detects for "no", 1 fJ billed per detect for True; a missing
    # tree or cost model failed only inside the run
    for build, name in (
            (lambda: TreeConfig(encoding="off"), "encoding"),
            (lambda: TreeConfig(strategy="bcw", count_new_detect="no"),
             "count_new_detect"),
            (lambda: CostModel(energy_detect=True), "energy_detect"),
            (lambda: ExperimentConfig(cost=None), "cost"),
            (lambda: ExperimentConfig(tree="x"), "tree"),
            (lambda: ExperimentConfig(tree=None), "tree")):
        with pytest.raises(ConfigError, match=f"^{name} must be "):
            build()


@pytest.mark.parametrize("command", ("run", "sweep"))
@pytest.mark.parametrize("flag,key", [(["--encoding", "maybe"], "encoding"),
                                      (["--entries", "1.5"], "entries"),
                                      (["--seed", "x"], "seed")])
def test_cli_refuses_a_mistyped_flag_before_out(command, flag, key, tmp_path,
                                                capsys, monkeypatch):
    from skrmbetree import cli
    for name in ("run_experiment", "run_sweep"):
        monkeypatch.setattr(cli, name, lambda *args, **kw: pytest.fail(
            "simulated before the flags were checked"))
    out = tmp_path / "out.csv"
    out.write_text("kept\n")
    assert cli.main([command, *flag, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {key} = {flag[1]!r}: expected " + (
        "bool (1/true/on/yes/0/false/off/no)\n" if key == "encoding"
        else "int\n")
    assert out.read_text() == "kept\n"


@pytest.mark.parametrize("flags,lines", [
    (["--encoding", "On"], "encoding = On"),
    (["--strategy", "bcw", "--parallel-ports", "yes"],
     "strategy = bcw\nparallel_ports = yes"),
    (["--entries", "500"], "entries = 500"),
    (["--ops", "0"], "op_count = 0"),
    (["--word-bytes", "2"], "word_bytes = 2"),
    (["--seed", "7"], "seed = 7"),
])
def test_a_flag_builds_the_config_its_settings_line_builds(flags, lines,
                                                           tmp_path,
                                                           monkeypatch):
    from skrmbetree import cli
    built = []
    monkeypatch.setattr(cli, "run_experiment",
                        lambda cfg, *args, **kw: built.append(cfg) or [])
    monkeypatch.setattr(cli, "emit", lambda rows, fmt: "")
    conf = tmp_path / "run.conf"
    conf.write_text(lines + "\n")
    assert cli.main(["run", *flags]) == 0
    assert cli.main(["run", "--config", str(conf)]) == 0
    by_flag, by_file = built
    assert by_flag == by_file
    assert by_flag != ExperimentConfig()
