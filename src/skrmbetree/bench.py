"""Experiment orchestration and metrics emission.

A run builds a fresh device, store and tree for one configuration, replays
the workload's load and operation phases, and reports the device counters
plus derived energy/latency. Comparison sets put the naive baseline of the
same mapping first, and every other row carries its reduction percentages
against that baseline.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field, replace

from .betree import BeTree
from .config import ExperimentConfig
from .counters import accumulate_cost
from .device import Device
from .errors import ConfigError, StructureError
from .layout import DeviceStore
from .workload import OP_READ, WorkloadSpec, generate

CSV_COLUMNS = [
    "workload", "mapping", "strategy", "encoding", "parallel_updates",
    "word_bytes", "entries", "shift", "detect", "remove", "inject",
    "energy_fJ", "latency_ns", "latency_reduction_pct",
    "energy_reduction_pct",
]


@dataclass
class MetricsReport:
    workload: str
    mapping: str
    strategy: str
    encoding: bool
    parallel_updates: bool
    word_bytes: int
    entries: int
    shift: int
    detect: int
    remove: int
    inject: int
    shift_steps: int
    detect_steps: int
    remove_steps: int
    inject_steps: int
    energy_fJ: float
    latency_ns: float
    latency_reduction_pct: float = 0.0
    energy_reduction_pct: float = 0.0
    extra: dict = field(default_factory=dict)

    def csv_row(self) -> dict:
        return {
            "workload": self.workload,
            "mapping": self.mapping,
            "strategy": self.strategy,
            "encoding": "on" if self.encoding else "off",
            "parallel_updates": "on" if self.parallel_updates else "off",
            "word_bytes": self.word_bytes,
            "entries": self.entries,
            "shift": self.shift,
            "detect": self.detect,
            "remove": self.remove,
            "inject": self.inject,
            "energy_fJ": repr(self.energy_fJ),
            "latency_ns": repr(self.latency_ns),
            "latency_reduction_pct": repr(self.latency_reduction_pct),
            "energy_reduction_pct": repr(self.energy_reduction_pct),
        }

    def json_record(self) -> dict:
        rec = self.csv_row()
        rec["energy_fJ"] = self.energy_fJ
        rec["latency_ns"] = self.latency_ns
        rec["latency_reduction_pct"] = self.latency_reduction_pct
        rec["energy_reduction_pct"] = self.energy_reduction_pct
        rec["shift_steps"] = self.shift_steps
        rec["detect_steps"] = self.detect_steps
        rec["remove_steps"] = self.remove_steps
        rec["inject_steps"] = self.inject_steps
        rec.update(self.extra)
        return rec


def run_single(cfg: ExperimentConfig, check_oracle: bool = False,
               audit: bool = False) -> MetricsReport:
    """Replay one workload against one configuration and report counters."""
    device = Device(cfg.geometry(), cfg.cost,
                    count_new_detect=cfg.tree.count_new_detect)
    store = DeviceStore(device, cfg.mapping, cfg.tree, cfg.word_bits)
    spec = WorkloadSpec.from_table(cfg.workload, cfg.ops, cfg.entries,
                                   cfg.seed)
    planned = spec.load_count + spec.op_count
    tree = BeTree(store, cfg.tree, cfg.word_bits, planned_upserts=planned)
    stream = generate(spec, cfg.word_bits)

    oracle: dict[int, int] = {}
    for key, value in stream.iter_load():
        tree.upsert(key, value)
        if check_oracle:
            oracle[key] = value
    reads = misses = 0
    for op, key, value in stream.iter_ops():
        if op == OP_READ:
            got = tree.query(key)
            reads += 1
            if got is None:
                misses += 1
            if check_oracle and got != oracle.get(key):
                raise StructureError(
                    f"query({key:#x}) returned {got}, oracle says "
                    f"{oracle.get(key)}")
        else:
            tree.upsert(key, value)
            if check_oracle:
                oracle[key] = value
    if audit:
        tree.audit()
        tree.flush_all()
        tree.audit()
        if tree.arena is not None and tree.arena.occupancy != 0:
            raise StructureError("arena slots leaked after full flush")

    counters = device.counters
    energy, latency = accumulate_cost(counters, cfg.cost)
    t = cfg.tree
    return MetricsReport(
        workload=cfg.workload, mapping=cfg.mapping, strategy=t.strategy,
        encoding=t.encoding, parallel_updates=t.parallel_ports,
        word_bytes=cfg.word_bytes, entries=cfg.entries,
        shift=counters.shift, detect=counters.detect,
        remove=counters.remove, inject=counters.inject,
        shift_steps=counters.shift_steps, detect_steps=counters.detect_steps,
        remove_steps=counters.remove_steps, inject_steps=counters.inject_steps,
        energy_fJ=energy, latency_ns=latency,
        extra={"seed": cfg.seed, "ops": cfg.ops, "reads": reads,
               "read_misses": misses, **tree.stats()},
    )


def _reduction(base: float, value: float) -> float:
    if base == 0:
        return 0.0
    return 100.0 * (base - value) / base


def with_reductions(baseline: MetricsReport,
                    report: MetricsReport) -> MetricsReport:
    report.latency_reduction_pct = _reduction(baseline.latency_ns,
                                              report.latency_ns)
    report.energy_reduction_pct = _reduction(baseline.energy_fJ,
                                             report.energy_fJ)
    return report


def run_experiment(cfg: ExperimentConfig, check_oracle: bool = False,
                   audit: bool = False) -> list[MetricsReport]:
    """Baseline-first comparison set for one configuration."""
    base_cfg = cfg.baseline()
    reports = [run_single(base_cfg, check_oracle, audit)]
    if not cfg.is_baseline():
        reports.append(with_reductions(reports[0],
                                       run_single(cfg, check_oracle, audit)))
    return reports


def run_sweep(cfg: ExperimentConfig, entries_grid=(10**3, 10**4, 10**5, 10**6),
              word_bytes_grid=(4, 8, 16, 32), check_oracle: bool = False,
              audit: bool = False) -> list[MetricsReport]:
    """Grid of comparison sets over dataset size and word size."""
    reports = []
    for entries in entries_grid:
        for wb in word_bytes_grid:
            point = replace(cfg, entries=int(entries), word_bytes=int(wb))
            reports.extend(run_experiment(point, check_oracle, audit))
    return reports


def emit(reports, fmt: str, path=None) -> str:
    """Serialize reports; returns the text, optionally writing it to path."""
    if not reports:
        raise ConfigError("nothing to emit")
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS,
                                lineterminator="\n")
        writer.writeheader()
        for r in reports:
            writer.writerow(r.csv_row())
        text = buf.getvalue()
    elif fmt == "json":
        text = json.dumps([r.json_record() for r in reports], indent=2)
        text += "\n"
    else:
        raise ConfigError(f"format must be csv or json, not {fmt!r}")
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def parse_csv(text: str) -> list[dict]:
    """Read an emitted CSV back into typed dicts (round-trip check)."""
    rows = []
    for raw in csv.DictReader(text.splitlines()):
        row: dict = dict(raw)
        for k in ("word_bytes", "entries", "shift", "detect", "remove",
                  "inject"):
            row[k] = int(row[k])
        for k in ("energy_fJ", "latency_ns", "latency_reduction_pct",
                  "energy_reduction_pct"):
            row[k] = float(row[k])
        rows.append(row)
    return rows
