"""Benchmark harness: comparison sets, emission formats, CLI."""

import json
import pathlib
import subprocess
import sys

import pytest

import skrmbetree
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


def test_emit_writes_files_and_validates(tmp_path):
    reports = run_experiment(tiny_cfg())
    out = tmp_path / "rows.csv"
    text = emit(reports, "csv", out)
    assert out.read_text() == text
    with pytest.raises(ConfigError):
        emit([], "csv")
    with pytest.raises(ConfigError):
        emit(reports, "xml")


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


def test_cli_write_counts(tmp_path):
    out = tmp_path / "wc.json"
    rc = main(["write-counts", "--n", "400", "--seed", "3",
               "--node-capacity", "8", "--format", "json",
               "--out", str(out)])
    assert rc == 0
    rows = json.loads(out.read_text())
    assert [r["n_inserts"] for r in rows] == [400]
    assert rows[0]["ratio"] >= 1.0


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
