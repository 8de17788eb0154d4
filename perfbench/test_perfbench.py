"""Checks of the benchmark itself, at tiny sizes.

Run with:  python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_simulator()

TINY = 0.02
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny(name, trace=0, pins=None, seed=42):
    return run.run_workload(name, seed=seed, seconds=0.1, trace=trace,
                            scale=TINY, pins=pins)


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_tiny_run_passes_every_check(name):
    full = tiny(name, pins=run.load_pins(run.PINS))
    res = full["result"]
    assert (res["correct"], res["failed"]) == (True, 0), full["problems"]
    assert res["attempted"] > 0
    assert {m["name"] for m in SPEC["end_to_end"]} == set(res["metrics"])
    for m in SPEC["end_to_end"]:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
        assert res["metrics"][m["name"]]["value"] > 0


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_tiny_traced_run_reports_every_layer_metric(name):
    full = tiny(name, trace=1)
    res = full["result"]
    assert (res["correct"], res["failed"]) == (True, 0), full["problems"]
    assert {m["name"] for m in SPEC["per_layer"]} == set(res["metrics"])
    for m in SPEC["per_layer"]:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
    assert res["metrics"]["betree.self_s"]["value"] > 0
    assert res["metrics"]["layout.self_s"]["value"] > 0
    assert full["span_sample"]


def test_trace_balance_check_catches_lost_or_extra_time():
    from tracing import Tracer
    case = run.make_case("ycsb-c-word-naive", 42, TINY)
    tracer = Tracer()
    rep = run.run_replay(case, None, tracer)
    assert run.trace_balance_problem(tracer, rep.wall_ns) is None
    # self time counted twice somewhere
    key = next(iter(tracer.agg))
    tracer.agg[key][1] += 10**6
    assert run.trace_balance_problem(tracer, rep.wall_ns)
    tracer.agg[key][1] -= 10**6
    # wall time the tracer did not see
    assert run.trace_balance_problem(tracer, rep.wall_ns + 10**7)


def test_replay_matches_run_single():
    from skrmbetree.bench import run_single
    case = run.make_case("ycsb-a-word-full", 7, TINY)
    rep = run.run_replay(case, case.prepare())
    report = run_single(case.cfg)
    assert not rep.problems
    for k in run.COUNTERS + ("energy_fJ", "latency_ns"):
        assert rep.outputs[k] == getattr(report, k)
    assert rep.outputs["kv_writes"] == report.extra["kv_writes"]


@pytest.mark.parametrize("name", ["ycsb-d-bi-full", "writecount-nullstore"])
def test_tampered_pin_fails_ops(name):
    clean = tiny(name)
    outputs = dict(clean["outputs"])
    key = "shift" if "shift" in outputs else "betree_writes"
    outputs[key] += 1
    pins = {"workloads": {name: {"seed": 42, "size": clean["meta"]["size"],
                                 "outputs": outputs}}}
    res = tiny(name, pins=pins)["result"]
    assert not res["correct"]
    assert 0 < res["failed"] <= res["attempted"]


@pytest.mark.parametrize("name,store", [("ycsb-c-word-naive", "DeviceStore"),
                                        ("writecount-nullstore", "NullStore")])
def test_store_returning_a_wrong_value_fails_ops(monkeypatch, name, store):
    from skrmbetree import layout
    cls = getattr(layout, store)
    honest_add, honest_read = cls.add_node, cls.read_payload
    kinds = {}

    def add_node(self, node_id, kind):
        kinds[id(self), node_id] = kind
        return honest_add(self, node_id, kind)

    # leaf values only: a wrong child id from a pivot could send a query
    # round a cycle of nodes
    def lying(self, node_id, pair_slot, width, expect=None):
        got = honest_read(self, node_id, pair_slot, width, expect)
        return got ^ 1 if kinds.get((id(self), node_id)) == "leaf" else got

    monkeypatch.setattr(cls, "add_node", add_node)
    monkeypatch.setattr(cls, "read_payload", lying)
    full = tiny(name)
    res = full["result"]
    assert not res["correct"]
    assert res["failed"] > 0
    assert any("oracle" in p for p in full["problems"])


def test_exits_nonzero_without_the_simulator(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py",
                           "--workload", "ycsb-a-word-full", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
