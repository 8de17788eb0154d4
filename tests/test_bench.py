"""Benchmark harness: comparison sets, emission formats, CLI."""

import json
import pathlib
import subprocess
import sys

import pytest

import skrmbetree
from skrmbetree import bench, cli
from skrmbetree.bench import (MetricsReport, emit, parse_csv, run_experiment,
                              run_single, run_sweep, with_reductions)
from skrmbetree.betree import BeTree
from skrmbetree.cli import main
from skrmbetree.config import ExperimentConfig, TreeConfig
from skrmbetree.errors import ConfigError, StructureError

UNIT_ENERGY = {"detect": 2.0, "shift": 20.0, "remove": 20.0, "inject": 200.0}
UNIT_LATENCY = {"detect": 0.1, "shift": 0.5, "remove": 0.8, "inject": 1.0}


def tiny_cfg(**kw):
    tree_kw = {"strategy": kw.pop("strategy", "dcw"),
               "encoding": kw.pop("encoding", False),
               "parallel_ports": kw.pop("parallel", False)}
    kw.setdefault("workload", "a")
    kw.setdefault("entries", 60)
    kw.setdefault("op_count", 60)
    kw.setdefault("word_bytes", 2)
    return ExperimentConfig(tree=TreeConfig(**tree_kw), **kw)


def fake_report(latency, energy):
    return MetricsReport(workload="a", mapping="word", strategy="dcw",
                         encoding=False, parallel_updates=False,
                         word_bytes=2, entries=1, shift=0, detect=0,
                         remove=0, inject=0, shift_steps=0, detect_steps=0,
                         remove_steps=0, inject_steps=0,
                         energy_fJ=energy, latency_ns=latency)


def test_comparison_set_is_baseline_first():
    reports = run_experiment(tiny_cfg(strategy="bcw", encoding=True,
                                      parallel=True))
    assert len(reports) == 2
    base, tuned = reports
    assert base.strategy == "naive"
    assert not base.encoding and not base.parallel_updates
    assert base.latency_reduction_pct == 0.0
    assert base.energy_reduction_pct == 0.0
    assert tuned.strategy == "bcw"
    want = 100.0 * (base.latency_ns - tuned.latency_ns) / base.latency_ns
    assert tuned.latency_reduction_pct == want
    want = 100.0 * (base.energy_fJ - tuned.energy_fJ) / base.energy_fJ
    assert tuned.energy_reduction_pct == want
    # a baseline request reports just the one row
    assert len(run_experiment(tiny_cfg(strategy="naive"))) == 1


def test_reduction_formula():
    tuned = with_reductions(fake_report(200.0, 1000.0),
                            fake_report(150.0, 900.0))
    assert tuned.latency_reduction_pct == 25.0
    assert tuned.energy_reduction_pct == pytest.approx(10.0)
    zero = with_reductions(fake_report(0.0, 0.0), fake_report(10.0, 10.0))
    assert zero.latency_reduction_pct == 0.0


def test_costs_recompute_exactly_from_the_json_record():
    rec = run_single(tiny_cfg(strategy="bcw", parallel=True)).json_record()
    energy = 0.0
    latency = 0.0
    for kind in ("detect", "shift", "remove", "inject"):
        energy += rec[kind] * UNIT_ENERGY[kind]
        latency += rec[kind + "_steps"] * UNIT_LATENCY[kind]
    assert rec["energy_fJ"] == energy
    assert rec["latency_ns"] == latency


def test_csv_round_trip():
    reports = run_experiment(tiny_cfg(strategy="dcw", encoding=True))
    rows = parse_csv(emit(reports, "csv"))
    assert len(rows) == len(reports)
    for row, rep in zip(rows, reports):
        assert row["strategy"] == rep.strategy
        assert row["encoding"] == ("on" if rep.encoding else "off")
        assert row["shift"] == rep.shift and row["inject"] == rep.inject
        # repr round-trips floats exactly
        assert row["energy_fJ"] == rep.energy_fJ
        assert row["latency_ns"] == rep.latency_ns
        assert row["latency_reduction_pct"] == rep.latency_reduction_pct


def test_emission_is_deterministic():
    cfg = tiny_cfg(strategy="bcw", encoding=True, parallel=True)
    first = run_experiment(cfg)
    second = run_experiment(cfg)
    assert emit(first, "csv") == emit(second, "csv")
    assert emit(first, "json") == emit(second, "json")


@pytest.mark.parametrize("cfg", [
    tiny_cfg(strategy="bcw", encoding=True, parallel=True),
    tiny_cfg(strategy="dcw", mapping="bit_interleaved"),
    tiny_cfg(strategy="naive"),
], ids=["word-full", "bit-dcw", "baseline"])
def test_a_comparison_set_generates_its_stream_once(cfg, monkeypatch):
    # every row replays the one stream; the reports are those of rows that
    # each generate their own
    want = [run_single(cfg.baseline())]
    if not cfg.is_baseline():
        want.append(with_reductions(want[0], run_single(cfg)))
    calls = []
    generate = bench.generate
    monkeypatch.setattr(bench, "generate",
                        lambda *args: calls.append(args) or generate(*args))
    assert run_experiment(cfg) == want
    assert len(calls) == 1


def test_emit_validates_and_the_cli_writes_its_text(tmp_path):
    reports = run_experiment(tiny_cfg())
    # emit only returns the text; the CLI's --out is the one file writer
    out = tmp_path / "rows.csv"
    assert main(["run", "--workload", "a", "--entries", "60", "--ops", "60",
                 "--word-bytes", "2", "--strategy", "dcw", "--encoding",
                 "off", "--parallel-ports", "off", "--out", str(out)]) == 0
    assert out.read_text() == emit(reports, "csv")
    with pytest.raises(ConfigError):
        emit([], "csv")
    with pytest.raises(ConfigError):
        emit(reports, "xml")


def pinned_reports():
    plain = MetricsReport(
        workload="a", mapping="word", strategy="naive", encoding=False,
        parallel_updates=False, word_bytes=2, entries=60, shift=11,
        detect=22, remove=3, inject=4, shift_steps=5, detect_steps=6,
        remove_steps=7, inject_steps=8, energy_fJ=1234.5,
        latency_ns=0.1 + 0.2, extra={"seed": 7, "reads": 30, "kv_writes": 12})
    tuned = MetricsReport(
        workload="d", mapping="bit_interleaved", strategy="bcw",
        encoding=True, parallel_updates=True, word_bytes=4, entries=100,
        shift=9, detect=8, remove=1, inject=2, shift_steps=3, detect_steps=2,
        remove_steps=1, inject_steps=1, energy_fJ=2.0 / 3, latency_ns=1e-05,
        latency_reduction_pct=100.0 / 3, energy_reduction_pct=-12.5)
    return [plain, tuned]


PINNED_CSV = """\
workload,mapping,strategy,encoding,parallel_updates,word_bytes,entries,\
shift,detect,remove,inject,energy_fJ,latency_ns,latency_reduction_pct,\
energy_reduction_pct
a,word,naive,off,off,2,60,11,22,3,4,1234.5,0.30000000000000004,0.0,0.0
d,bit_interleaved,bcw,on,on,4,100,9,8,1,2,0.6666666666666666,1e-05,\
33.333333333333336,-12.5
"""

PINNED_JSON = """\
[
  {
    "workload": "a",
    "mapping": "word",
    "strategy": "naive",
    "encoding": "off",
    "parallel_updates": "off",
    "word_bytes": 2,
    "entries": 60,
    "shift": 11,
    "detect": 22,
    "remove": 3,
    "inject": 4,
    "energy_fJ": 1234.5,
    "latency_ns": 0.30000000000000004,
    "latency_reduction_pct": 0.0,
    "energy_reduction_pct": 0.0,
    "shift_steps": 5,
    "detect_steps": 6,
    "remove_steps": 7,
    "inject_steps": 8,
    "seed": 7,
    "reads": 30,
    "kv_writes": 12
  },
  {
    "workload": "d",
    "mapping": "bit_interleaved",
    "strategy": "bcw",
    "encoding": "on",
    "parallel_updates": "on",
    "word_bytes": 4,
    "entries": 100,
    "shift": 9,
    "detect": 8,
    "remove": 1,
    "inject": 2,
    "energy_fJ": 0.6666666666666666,
    "latency_ns": 1e-05,
    "latency_reduction_pct": 33.333333333333336,
    "energy_reduction_pct": -12.5,
    "shift_steps": 3,
    "detect_steps": 2,
    "remove_steps": 1,
    "inject_steps": 1
  }
]
"""


def test_emitted_text_is_pinned():
    # header, column and key order, on/off words and float repr, byte for
    # byte; extra keys reach the JSON only
    assert emit(pinned_reports(), "csv") == PINNED_CSV
    assert emit(pinned_reports(), "json") == PINNED_JSON


def test_write_counts_text_is_pinned(tmp_path):
    out = tmp_path / "wc"
    assert main(["write-counts", "--n", "1000", "--out", str(out)]) == 0
    assert out.read_text() == (
        "n_inserts,btree_writes,betree_writes,ratio\n"
        "1000,1774,5966,3.363021420518602\n")
    assert main(["write-counts", "--n", "1000", "--format", "json",
                 "--out", str(out)]) == 0
    assert out.read_text() == (
        '[\n  {\n    "n_inserts": 1000,\n    "btree_writes": 1774,\n'
        '    "betree_writes": 5966,\n    "ratio": 3.363021420518602\n  }\n]\n')


def test_sweep_covers_the_grid():
    reports = run_sweep(tiny_cfg(strategy="bcw", parallel=True),
                        entries_grid=(40, 60), word_bytes_grid=(2,))
    assert len(reports) == 4
    assert [r.entries for r in reports] == [40, 40, 60, 60]
    for base, tuned in zip(reports[::2], reports[1::2]):
        assert base.strategy == "naive" and tuned.strategy == "bcw"
        assert tuned.latency_reduction_pct != 0.0


def test_checked_run_carries_tree_stats():
    rep = run_single(tiny_cfg(strategy="bcw", encoding=True, parallel=True),
                     check_oracle=True, audit=True)
    extra = rep.json_record()
    assert extra["reads"] > 0
    assert extra["read_misses"] == 0
    assert extra["kv_writes"] > 0
    assert extra["arena_occupancy"] == 0


def test_oracle_mismatch_is_a_structure_error(monkeypatch):
    real_query = BeTree.query

    def off_by_one(self, key):
        got = real_query(self, key)
        return None if got is None else got ^ 1

    monkeypatch.setattr(BeTree, "query", off_by_one)
    with pytest.raises(StructureError, match="oracle says"):
        run_single(tiny_cfg(), check_oracle=True)


def test_leaked_arena_slots_are_a_structure_error(monkeypatch):
    # a flush that moves nothing leaves every buffered value in the arena
    monkeypatch.setattr(BeTree, "flush_all", lambda self: None)
    with pytest.raises(StructureError, match="arena slots leaked"):
        run_single(tiny_cfg(strategy="bcw", encoding=True), audit=True)


# --------------------------------------------------------------------- CLI

def test_cli_run_emits_comparison_csv(tmp_path):
    out = tmp_path / "run.csv"
    rc = main(["run", "--workload", "a", "--entries", "60", "--ops", "60",
               "--word-bytes", "2", "--strategy", "bcw",
               "--parallel-ports", "on", "--encoding", "on",
               "--out", str(out)])
    assert rc == 0
    rows = parse_csv(out.read_text())
    assert [r["strategy"] for r in rows] == ["naive", "bcw"]
    assert rows[1]["latency_reduction_pct"] > 0.0


def test_cli_accepts_bit_mapping_alias(tmp_path):
    out = tmp_path / "run.json"
    rc = main(["run", "--workload", "c", "--mapping", "bit", "--entries",
               "50", "--ops", "50", "--word-bytes", "2", "--strategy", "dcw",
               "--format", "json", "--out", str(out)])
    assert rc == 0
    rows = json.loads(out.read_text())
    assert rows[0]["mapping"] == "bit_interleaved"
    assert {"shift_steps", "detect_steps"} <= set(rows[0])


def test_cli_config_file_and_flag_precedence(tmp_path):
    conf = tmp_path / "point.conf"
    conf.write_text("workload = b\nentries = 50\nword_bits = 16\n"
                    "strategy = bcw\nparallel_ports = on\nseed = 9\n")
    out = tmp_path / "run.json"
    rc = main(["run", "--config", str(conf), "--workload", "c",
               "--format", "json", "--out", str(out)])
    assert rc == 0
    rows = json.loads(out.read_text())
    # the flag wins over the file; the file fills everything else
    assert rows[0]["workload"] == "c"
    assert rows[0]["word_bytes"] == 2
    assert rows[0]["entries"] == 50
    assert rows[1]["parallel_updates"] == "on"
    assert rows[1]["seed"] == 9


@pytest.mark.parametrize("argv, conf, want", (
    # the file alone plans 20000 upserts, 15 index bits; with the flag, 100
    (["run", "--entries", "50"], "encoding = on\nword_bits = 8\n", [(50, 1)]),
    # the grid sets every point's entries and word size
    (["sweep", "--entries-grid", "50", "--word-bytes-grid", "1"],
     "encoding = on\nword_bits = 8\n", [(50, 1)]),
    (["sweep", "--word-bytes", "1", "--entries-grid", "50,60",
      "--word-bytes-grid", "2"], "encoding = on\n", [(50, 2), (60, 2)]),
    # the derived keys agree with the file's own geometry; flags change it
    (["run", "--word-bytes", "8", "--mapping", "bit"],
     "word_bits = 32\ninterport_bits = 32\nports_per_track = 32\n",
     [(10_000, 8)]),
), ids=["run-file-word", "sweep-file-word", "sweep-flag-word",
        "run-derived-keys"])
def test_cli_checks_only_the_finished_config(argv, conf, want, tmp_path,
                                             monkeypatch):
    # the file, the flags and the grid apply as one config, so a check that
    # spans fields never fires on a half-built one
    ran = []
    for module in (bench, cli):
        monkeypatch.setattr(module, "run_experiment",
                            lambda cfg, *args, **kw: ran.append(cfg) or [])
    monkeypatch.setattr(cli, "emit", lambda rows, fmt: "")
    (tmp_path / "run.conf").write_text(conf)
    assert main([*argv, "--config", str(tmp_path / "run.conf")]) == 0
    assert [(cfg.entries, cfg.word_bytes) for cfg in ran] == want


def test_cli_write_counts(tmp_path):
    out = tmp_path / "wc.json"
    rc = main(["write-counts", "--n", "400", "--seed", "3",
               "--node-capacity", "8", "--format", "json",
               "--out", str(out)])
    assert rc == 0
    rows = json.loads(out.read_text())
    assert [r["n_inserts"] for r in rows] == [400]
    assert rows[0]["ratio"] >= 1.0


def test_cli_write_counts_takes_a_negative_seed(tmp_path):
    # write-counts draws its keys through splitmix64, which masks any seed
    out = tmp_path / "wc.csv"
    assert main(["write-counts", "--n", "400", "--seed", "-1",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n_inserts,btree_writes,betree_writes,ratio"
    assert [line.split(",")[0] for line in lines[1:]] == ["400"]


def test_cli_sweep(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--workload", "a", "--strategy", "dcw",
               "--entries-grid", "40", "--word-bytes-grid", "2",
               "--out", str(out)])
    assert rc == 0
    rows = parse_csv(out.read_text())
    assert [r["strategy"] for r in rows] == ["naive", "dcw"]


@pytest.mark.parametrize("command", ("run", "sweep"))
def test_cli_check_audits_the_tree(command, tmp_path, monkeypatch):
    # --check must audit on every subcommand that offers it: run and sweep
    # each audit before and after the full flush, baseline and tuned run
    audits = []
    monkeypatch.setattr(BeTree, "audit", lambda tree: audits.append(tree))
    grid = (["--entries-grid", "40", "--word-bytes-grid", "2"]
            if command == "sweep" else ["--entries", "40", "--word-bytes", "2"])
    rc = main([command, "--workload", "a", "--strategy", "dcw", *grid,
               "--check", "--out", str(tmp_path / "out.csv")])
    assert rc == 0
    assert len(audits) == 4
    audits.clear()
    rc = main([command, "--workload", "a", "--strategy", "dcw", *grid,
               "--out", str(tmp_path / "out.csv")])
    assert rc == 0 and not audits


@pytest.mark.parametrize("argv", (
    ["run", "--entries", "40"],
    ["sweep", "--entries-grid", "40", "--word-bytes-grid", "2"],
    ["write-counts", "--n", "400"],
))
def test_cli_refuses_an_unwritable_out_before_simulating(argv, tmp_path,
                                                         capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("simulated before the --out path was checked")

    for name in ("run_experiment", "run_sweep", "write_count_series"):
        monkeypatch.setattr(cli, name, never)
    for out in (tmp_path / "missing" / "x.csv", tmp_path):
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err
        assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def _never(*args, **kwargs):
    raise AssertionError("simulated before the arguments were checked")


@pytest.mark.parametrize("argv, conf, fragment", (
    (["run", "--seed", "-1"], None, "seed must be >= 0"),
    (["sweep", "--seed", "-1"], None, "seed must be >= 0"),
    (["run", "--config"], b"seed = -1\n", "seed must be >= 0"),
    (["run", "--config"], b"entries = \xff\n", "run.conf"),
), ids=["run-seed", "sweep-seed", "file-seed", "file-not-utf8"])
def test_cli_refuses_bad_settings_before_opening_out(argv, conf, fragment,
                                                     tmp_path, capsys,
                                                     monkeypatch):
    for name in ("run_experiment", "run_sweep"):
        monkeypatch.setattr(cli, name, _never)
    if conf is not None:
        (tmp_path / "run.conf").write_bytes(conf)
        argv = [*argv, str(tmp_path / "run.conf")]
    out = tmp_path / "out.csv"
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and fragment in err
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv, conf, fragment", (
    (["run", "--entries", "50", "--ops", "-1"], None, "op_count must be >= 0"),
    (["sweep", "--ops", "-1", "--entries-grid", "40"], None,
     "op_count must be >= 0"),
    (["run", "--config"], "workload = z\n", "workload must be one of"),
    (["run", "--config"], "op_count = -3\n", "op_count must be >= 0"),
    (["write-counts", "--n", "0"], None, "--n must be >= 1"),
    (["write-counts", "--n", "-5"], None, "--n must be >= 1"),
    (["write-counts", "--node-capacity", "3"], None,
     "--node-capacity must be >= 4"),
    (["sweep", "--entries-grid", "0,10", "--word-bytes-grid", "4"], None,
     "entries must be >= 1"),
    (["sweep", "--entries-grid", "40", "--word-bytes-grid", "8,0"], None,
     "word_bytes must be >= 1"),
    (["run", "--config"], "max_tracks = -3\n", "max_tracks must be >= 1"),
    (["run", "--entries", "2000", "--word-bytes", "1", "--strategy", "bcw",
      "--encoding", "on", "--parallel-ports", "on"], None,
     "arena index wider than a payload word"),
    (["sweep", "--strategy", "bcw", "--encoding", "on", "--parallel-ports",
      "on", "--entries-grid", "100,2000", "--word-bytes-grid", "1"], None,
     "arena index wider than a payload word"),
    (["run", "--entries", "50", "--config"],
     "encoding = on\nstrategy = dcw\narena_capacity = 512\nword_bits = 8\n",
     "arena index wider than a payload word"),
), ids=["run-ops", "sweep-ops", "file-workload", "file-ops", "wc-n-0",
        "wc-n-negative", "wc-capacity", "sweep-entries-grid",
        "sweep-word-bytes-grid", "file-max-tracks", "run-arena-width",
        "sweep-arena-width", "file-arena-width"])
def test_cli_refuses_bad_sizes_before_emptying_out(argv, conf, fragment,
                                                   tmp_path, capsys,
                                                   monkeypatch):
    # a bad op count, workload, grid point, track budget, arena width or
    # write-counts size is refused before the simulation runs and before
    # --out is opened, so the file keeps what it held
    for name in ("run_experiment", "run_sweep", "write_count_series"):
        monkeypatch.setattr(cli, name, _never)
    if conf is not None:
        (tmp_path / "run.conf").write_text(conf)
        argv = [*argv, str(tmp_path / "run.conf")]
    out = tmp_path / "out.csv"
    out.write_text("kept\n")
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and fragment in err
    assert err.count("\n") == 1
    assert out.read_text() == "kept\n"


@pytest.mark.parametrize("grid", (["--entries-grid", ""],
                                  ["--entries-grid", ","],
                                  ["--word-bytes-grid", ""]))
def test_cli_sweep_refuses_an_empty_grid_before_opening_out(grid, tmp_path,
                                                            capsys,
                                                            monkeypatch):
    monkeypatch.setattr(cli, "run_sweep", _never)
    out = tmp_path / "sweep.csv"
    out.write_text("kept\n")
    with pytest.raises(SystemExit) as exc:
        main(["sweep", *grid, "--out", str(out)])
    assert exc.value.code == 2
    assert "expected comma-separated ints" in capsys.readouterr().err
    assert out.read_text() == "kept\n"


@pytest.mark.parametrize("grid", (["--entries-grid", "1000000,0"],
                                  ["--word-bytes-grid", "8,0"]))
def test_sweep_checks_every_grid_point_before_running_the_first(
        grid, capsys, monkeypatch):
    monkeypatch.setattr(bench, "run_experiment", _never)
    assert main(["sweep", *grid]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "must be >= 1" in err
    with pytest.raises(ConfigError):
        run_sweep(tiny_cfg(), entries_grid=(10**6, 0), word_bytes_grid=(2,))


def test_cli_reports_config_errors(tmp_path, capsys):
    conf = tmp_path / "bad.conf"
    conf.write_text("entries = 0\n")
    rc = main(["run", "--config", str(conf)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    rc = main(["run", "--mapping", "bit", "--strategy", "pw"])
    assert rc == 2


def test_a_simulation_loads_no_kernel():
    # the device computes on int cells; the per-bit loops in kernels.py are
    # the tests' oracles, so a run on either mapping must not import them
    src = pathlib.Path(skrmbetree.__file__).resolve().parents[1]
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "import skrmbetree\n"
        "from skrmbetree.bench import run_single\n"
        "from skrmbetree.config import ExperimentConfig, TreeConfig\n"
        "full = TreeConfig(strategy='bcw', encoding=True, parallel_ports=True)\n"
        "for mapping in ('word', 'bit_interleaved'):\n"
        "    run_single(ExperimentConfig(mapping=mapping, entries=60,\n"
        "                                op_count=60, word_bytes=2, tree=full),\n"
        "               check_oracle=True)\n"
        "print('skrmbetree.kernels' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]
