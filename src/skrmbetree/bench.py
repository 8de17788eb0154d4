"""Experiment orchestration and metrics emission.

A run builds a fresh device, store and tree for one configuration, replays
the workload's load and operation phases, and reports the device counters
plus derived energy/latency. Comparison sets put the naive baseline of the
same mapping first, and every other row carries its reduction percentages
against that baseline. Each report becomes one row record
(`MetricsReport.json_record`), and `format_rows` writes the records of
every command, reports and write counts alike, as CSV or JSON.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field, fields, replace

from .betree import BeTree
from .config import ExperimentConfig
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

    def json_record(self) -> dict:
        """The report as one output row: the CSV_COLUMNS fields in order,
        then the per-kind step counts, then the run extras. The two toggles
        read on or off."""
        rec = {name: getattr(self, name) for name in CSV_COLUMNS}
        rec.update((f.name, getattr(self, f.name)) for f in fields(self)
                   if f.name.endswith("_steps"))
        for name in ("encoding", "parallel_updates"):
            rec[name] = "on" if rec[name] else "off"
        rec.update(self.extra)
        return rec


def _spec(cfg: ExperimentConfig) -> WorkloadSpec:
    return WorkloadSpec.from_table(cfg.workload, cfg.ops, cfg.entries,
                                   cfg.seed)


def run_single(cfg: ExperimentConfig, check_oracle: bool = False,
               audit: bool = False, stream=None) -> MetricsReport:
    """Replay one workload against one configuration and report counters.

    `stream` is the workload's stream for cfg when the caller already has
    it (a comparison set generates one for all its rows); None generates
    it here."""
    device = Device(cfg.geometry(), cfg.cost,
                    count_new_detect=cfg.tree.count_new_detect)
    store = DeviceStore(device, cfg.mapping, cfg.tree, cfg.word_bits)
    spec = _spec(cfg)
    planned = spec.load_count + spec.op_count
    tree = BeTree(store, cfg.tree, cfg.word_bits, planned_upserts=planned)
    if stream is None:
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

    # the report is the run's own, taken before the audit's flush adds
    # its counts, so a checked run reports what an unchecked one does
    t = cfg.tree
    report = MetricsReport(
        workload=cfg.workload, mapping=cfg.mapping, strategy=t.strategy,
        encoding=t.encoding, parallel_updates=t.parallel_ports,
        word_bytes=cfg.word_bytes, entries=cfg.entries,
        **device.counters.as_flat_dict(cfg.cost),
        extra={"seed": cfg.seed, "ops": cfg.ops, "reads": reads,
               "read_misses": misses, **tree.stats()},
    )
    if audit:
        tree.audit()
        tree.flush_all()
        tree.audit()
        if tree.arena is not None and tree.arena.occupancy != 0:
            raise StructureError("arena slots leaked after full flush")
    return report


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
    """Baseline-first comparison set for one configuration. The baseline
    differs from cfg only in its tree settings, so both replay one stream,
    generated once."""
    stream = generate(_spec(cfg), cfg.word_bits)
    reports = [run_single(cfg.baseline(), check_oracle, audit, stream)]
    if not cfg.is_baseline():
        reports.append(with_reductions(
            reports[0], run_single(cfg, check_oracle, audit, stream)))
    return reports


def sweep_points(cfg: ExperimentConfig, entries_grid,
                 word_bytes_grid) -> list[ExperimentConfig]:
    """Every point of a sweep grid, each built, and so checked."""
    return [replace(cfg, entries=entries, word_bytes=wb)
            for entries in entries_grid for wb in word_bytes_grid]


def run_sweep(cfg: ExperimentConfig, entries_grid=(10**3, 10**4, 10**5, 10**6),
              word_bytes_grid=(4, 8, 16, 32), check_oracle: bool = False,
              audit: bool = False) -> list[MetricsReport]:
    """Grid of comparison sets over dataset size and word size; every
    point is built, and so checked, before the first one runs."""
    return [report
            for point in sweep_points(cfg, entries_grid, word_bytes_grid)
            for report in run_experiment(point, check_oracle, audit)]


def format_rows(rows: list[dict], fmt: str, columns) -> str:
    """Serialize row records as CSV or JSON text: the one writer of every
    command's output.

    JSON keeps each record whole. CSV writes `columns` as the header and
    cuts each record to them; the csv module writes floats with repr, so
    parsing them back gives the same values."""
    if not rows:
        raise ConfigError("nothing to emit")
    if fmt == "json":
        return json.dumps(rows, indent=2) + "\n"
    if fmt != "csv":
        raise ConfigError(f"format must be csv or json, not {fmt!r}")
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n",
                            extrasaction="ignore")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def emit(reports, fmt: str) -> str:
    """Serialize reports as CSV (the CSV_COLUMNS) or JSON (whole records)."""
    return format_rows([r.json_record() for r in reports], fmt, CSV_COLUMNS)
