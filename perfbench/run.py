#!/usr/bin/env python3
"""Host-time benchmark of the skrmbetree simulator, checked for exactness.

Replays one fixed workload through the public API the way
``skrmbetree.bench.run_single`` does, timing every tree call from outside.
One process, one thread, one client, closed loop: each call starts when the
previous one returns. A replay starts from an empty device and covers the
load phase and the operation phase. A run replays several streams, each
generated from its own seed (stream 0 from ``--seed``), in three passes
of about ``--seconds / 3`` each, on a fresh tree every time; an operation's
time is the fastest of its three runs (see best_per_op). At least two
streams always run. The first replay of stream 0 runs in a fresh
interpreter, which also reports its peak RSS.

Every replay is checked outside the timed region: each query against an
in-memory oracle, then (after the counter snapshot) the tree audit, which
cross-checks the device image and the value arena, a full flush and a
second audit, the leaf contents against the oracle, an exact recompute of
energy and latency from the eight counters, equality with the first replay
of the run, and, at the pinned seed and size, the pinned outputs in
``pinned.json``. A mismatch or ``SimError`` makes ops fail; nothing is
skipped.

``--trace 0`` reports host-side end-to-end metrics. ``--trace 1`` runs one
untraced reference replay, then traced passes (stream generation plus one
replay under the wrappers of ``tracing.py``) and reports per-layer self time
and call counts per pass. The simulated counters are outputs: they are
pinned, never optimized, and the model is not validated against hardware.

Usage:
  python3 perfbench/run.py --workload ycsb-a-word-full --seed 42 \
      --seconds 10 --trace 0
  python3 perfbench/run.py --workload all     # every workload, one table

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import resource
import time
from pathlib import Path

from timing import OpTimer, speed_factor

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
PINS = HERE / "pinned.json"

COUNTERS = ("detect", "shift", "remove", "inject",
            "detect_steps", "shift_steps", "remove_steps", "inject_steps")

# name -> workload definition; sizes are multiplied by the ``scale`` of
# run_workload, which only the benchmark's own test sets. Sizes are
# chosen so that one replay takes a few seconds and a run holds several
# streams (see README.md).
WORKLOADS = {
    "ycsb-a-word-full": {"mix": "a", "mapping": "word", "full": True,
                         "entries": 5_000, "ops": 5_000},
    "ycsb-c-word-naive": {"mix": "c", "mapping": "word", "full": False,
                          "entries": 2_000, "ops": 2_000},
    "ycsb-d-bi-full": {"mix": "d", "mapping": "bit_interleaved",
                       "full": True, "entries": 5_000, "ops": 10_000},
    "writecount-nullstore": {"inserts": 7_500, "capacity": 16},
}

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "ops/s",
                    "upsert_p50_us": "us", "upsert_p99_us": "us",
                    "query_p50_us": "us", "query_p99_us": "us",
                    "peak_rss_mb": "MB"}

IMPORT_REPEATS = (3, 2, 2)   # import timings of setup_s before each pass
PASSES = len(IMPORT_REPEATS)  # replays per stream; an op's time is its best
SETUP_ROUNDS = 5    # streams generated (and timed) during set-up
MIN_STREAMS = 2     # pooled streams give ycsb-d at least 1000 query samples
# allowed gap between the traced time (layer self times plus harness gaps)
# and the wall time taken around the traced region: the cost of the two
# clock reads and calls at its edges
TRACE_SLACK_NS = 50_000
TRACE_SLACK_SHARE = 1e-3


class BenchError(Exception):
    """The benchmark cannot run here (e.g. the simulator sources are missing)."""


def import_simulator():
    init = SRC / "skrmbetree" / "__init__.py"
    if not init.is_file():
        raise BenchError(f"simulator sources not found at {init}")
    sys.path.insert(0, str(SRC))
    import skrmbetree
    if Path(skrmbetree.__file__).resolve() != init.resolve():
        raise BenchError(f"imported {skrmbetree.__file__}, not {init}")
    return skrmbetree


# ------------------------------------------------------------------ workloads


class Replay:
    """Timings, outputs and problems of one replay on a fresh tree."""

    def __init__(self):
        self.upsert_ns: list[float] = []   # at quiet host speed (timing.py)
        self.query_ns: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.outputs: dict = {}
        self.problems: list[str] = []
        self.peak_rss_mb = 0.0   # set by run_replay(memory=True)
        self.wall_ns = 0         # set by a traced run_replay

    @property
    def op_ns(self) -> float:
        return sum(self.upsert_ns) + sum(self.query_ns)

    def fail_all(self, why: str) -> None:
        self.problems.append(why)
        self.failed = self.attempted


def _leaf_contents(tree) -> dict:
    out = {}
    for node in tree.nodes.values():
        if node.kind == "leaf":
            out.update(node.elements)
    return out


def _recompute(outputs, cost) -> tuple[float, float]:
    """Energy and latency from the eight counters alone, in PRIMITIVES order."""
    energy = latency = 0.0
    for kind in ("detect", "shift", "remove", "inject"):
        energy += outputs[kind] * getattr(cost, "energy_" + kind)
        latency += outputs[kind + "_steps"] * getattr(cost, "latency_" + kind)
    return energy, latency


class YcsbCase:
    """A YCSB mix replayed through Device -> DeviceStore -> BeTree."""

    def __init__(self, name: str, spec: dict, seed: int, scale: float):
        from skrmbetree.config import ExperimentConfig, TreeConfig
        self.name, self.seed = name, seed
        entries = max(10, round(spec["entries"] * scale))
        ops = max(10, round(spec["ops"] * scale))
        tree = (TreeConfig(strategy="bcw", encoding=True, parallel_ports=True)
                if spec["full"] else TreeConfig())
        self.cfg = ExperimentConfig(workload=spec["mix"],
                                    mapping=spec["mapping"], entries=entries,
                                    op_count=ops, word_bytes=8, seed=seed,
                                    tree=tree)
        self.size = {"entries": entries, "ops": self.cfg.ops}

    def prepare(self, tracer=None):
        from skrmbetree import workload
        cfg = self.cfg
        spec = workload.WorkloadSpec.from_table(cfg.workload, cfg.ops,
                                                cfg.entries, cfg.seed)
        stream = workload.generate(spec, cfg.word_bits)
        return {"planned": spec.load_count + spec.op_count,
                "load": (stream.load_keys.tolist(),
                         stream.load_values.tolist()),
                "ops": (stream.ops.tolist(), stream.keys.tolist(),
                        stream.values.tolist())}

    def build(self, inputs):
        from skrmbetree.betree import BeTree
        from skrmbetree.device import Device
        from skrmbetree.layout import DeviceStore
        cfg = self.cfg
        device = Device(cfg.geometry(), cfg.cost,
                        count_new_detect=cfg.tree.count_new_detect)
        store = DeviceStore(device, cfg.mapping, cfg.tree, cfg.word_bits)
        tree = BeTree(store, cfg.tree, cfg.word_bits,
                      planned_upserts=inputs["planned"])
        return device, tree

    def replay(self, inputs, state, rep: Replay):
        """The timed calls; returns the oracle, or None after a SimError."""
        from skrmbetree.counters import accumulate_cost
        from skrmbetree.errors import SimError
        from skrmbetree.workload import OP_READ, OP_UPDATE
        device, tree = state
        oracle: dict[int, int] = {}
        reads = misses = 0
        timer = OpTimer()
        up_lat, q_lat = rep.upsert_ns, rep.query_ns
        upsert, query = tree.upsert, tree.query
        load_keys, load_values = inputs["load"]
        stream = zip(*inputs["ops"])
        try:
            for op, k, v in itertools.chain(
                    zip([OP_UPDATE] * len(load_keys), load_keys, load_values),
                    stream):
                rep.attempted += 1
                if op == OP_READ:
                    t0 = timer.start()
                    got = query(k)
                    timer.stop(t0, q_lat)
                    reads += 1
                    misses += got is None
                    if got != oracle.get(k):
                        rep.failed += 1
                        rep.problems.append(f"query({k:#x}) returned {got}, "
                                            f"oracle says {oracle.get(k)}")
                else:
                    t0 = timer.start()
                    upsert(k, v)
                    timer.stop(t0, up_lat)
                    oracle[k] = v
        except SimError as err:
            rep.fail_all(f"{type(err).__name__} during replay: {err}")
            return None
        # snapshot first: flush_all in check() charges the device
        c = device.counters
        out = {k: getattr(c, k) for k in COUNTERS}
        out["energy_fJ"], out["latency_ns"] = accumulate_cost(c, self.cfg.cost)
        out.update(kv_writes=tree.kv_writes, height=tree.height,
                   nodes=len(tree.nodes), reads=reads, read_misses=misses,
                   arena_high_water=(tree.arena.high_water
                                     if tree.arena is not None else 0))
        rep.outputs = out
        return oracle

    def check(self, state, oracle, rep: Replay) -> None:
        from skrmbetree.errors import SimError
        _device, tree = state
        out = rep.outputs
        if _recompute(out, self.cfg.cost) != (out["energy_fJ"],
                                              out["latency_ns"]):
            rep.fail_all("energy/latency do not recompute from the counters")
        try:
            tree.audit()
            tree.flush_all()
            tree.audit()
        except SimError as err:
            rep.fail_all(f"audit: {type(err).__name__}: {err}")
            return
        if tree.arena is not None and tree.arena.occupancy != 0:
            rep.fail_all("arena slots leaked after full flush")
        if _leaf_contents(tree) != oracle:
            rep.fail_all("leaf contents after flush differ from the oracle")


class WriteCountCase:
    """The write_count_series insert stream through BTree and BeTree on
    NullStore. After the stream (and the output snapshot) every key is read
    back once through both trees: the oracle check of the stream, timed as
    the query samples. Reads write nothing, so the write counts are those
    of write_count_series."""

    def __init__(self, name: str, spec: dict, seed: int, scale: float):
        self.name, self.seed = name, seed
        self.capacity = spec["capacity"]
        self.inserts = max(10, round(spec["inserts"] * scale))
        self.size = {"inserts": self.inserts, "capacity": self.capacity}

    def _stream(self):
        from skrmbetree.workload import make_key, make_value
        seed = self.seed
        return {"keys": [make_key(seed, i, 64) for i in range(self.inserts)],
                "values": [make_value(seed, i, 64)
                           for i in range(self.inserts)]}

    def prepare(self, tracer=None):
        if tracer is None:
            return self._stream()
        return tracer.span("workload", "workload.write_count_stream",
                           self._stream)

    def build(self, inputs):
        from skrmbetree.betree import BeTree
        from skrmbetree.btree import BTree, betree_config_for_capacity
        from skrmbetree.layout import NullStore
        return (BTree(self.capacity),
                BeTree(NullStore(), betree_config_for_capacity(self.capacity),
                       word_bits=64))

    def replay(self, inputs, state, rep: Replay):
        """The timed calls; returns the oracle, or None after a SimError."""
        from skrmbetree.errors import SimError
        btree, betree = state
        oracle: dict[int, int] = {}
        timer = OpTimer()
        b_insert, e_upsert = btree.insert, betree.upsert
        b_get, e_query = btree.get, betree.query
        up_lat, q_lat = rep.upsert_ns, rep.query_ns
        keys = inputs["keys"]
        try:
            for k, v in zip(keys, inputs["values"]):
                rep.attempted += 1
                t0 = timer.start()
                b_insert(k, v)
                e_upsert(k, v)
                timer.stop(t0, up_lat)
                oracle[k] = v
            rep.outputs = {"btree_writes": btree.kv_writes,
                           "betree_writes": betree.kv_writes,
                           "height": betree.height,
                           "nodes": len(betree.nodes)}
            for k in keys:
                rep.attempted += 1
                t0 = timer.start()
                got_b = b_get(k)
                got_e = e_query(k)
                timer.stop(t0, q_lat)
                if got_b != oracle[k] or got_e != oracle[k]:
                    rep.failed += 1
                    rep.problems.append(
                        f"get/query({k:#x}) returned {got_b}/{got_e}, "
                        f"oracle says {oracle[k]}")
        except SimError as err:
            rep.fail_all(f"{type(err).__name__} during replay: {err}")
            return None
        return oracle

    def check(self, state, oracle, rep: Replay) -> None:
        from skrmbetree.errors import SimError
        btree, betree = state
        try:
            btree.audit()
            betree.audit()
            betree.flush_all()
            betree.audit()
        except SimError as err:
            rep.fail_all(f"audit: {type(err).__name__}: {err}")
            return
        if len(btree) != len(oracle):
            rep.fail_all("B-tree holds a different number of keys than the "
                         "oracle")
        if _leaf_contents(betree) != oracle:
            rep.fail_all("leaf contents after flush differ from the oracle")


def make_case(name: str, seed: int, scale: float):
    spec = WORKLOADS[name]
    cls = WriteCountCase if "inserts" in spec else YcsbCase
    return cls(name, spec, seed, scale)


# ------------------------------------------------------------------ measuring


def import_s() -> float:
    """Time of importing the simulator in a fresh interpreter (and, with
    the numba backend, compiling every kernel once)."""
    code = (
        "import sys, time\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "t = time.perf_counter()\n"
        "from skrmbetree import kernels\n"
        "import skrmbetree\n"
        "if kernels.BACKEND == 'numba':\n"
        "    import numpy as np\n"
        "    b = np.zeros(8, np.uint8)\n"
        "    kernels.word_write(np.zeros(64, np.uint8), 0, 8, 8, b, 0)\n"
        "    kernels.bcw_batch(np.zeros(64, np.uint8), np.zeros(1, np.int64),\n"
        "                      np.full(1, 8, np.int64), np.zeros((1, 8), np.uint8))\n"
        "    kernels.pw_match(b, b)\n"
        "    kernels.xor_counts(b, b)\n"
        "    kernels.bi_write(np.zeros((8, 8), np.uint8), 0, 8, 8, 0, b, 0)\n"
        "print(time.perf_counter() - t)\n")
    # Not scaled by the speed probe: an import is mostly file reads and
    # unmarshalling, and slowed 1.0-1.25x in the host's slow phases where
    # the probe slowed 1.8x, so scaling would overcorrect.
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise BenchError(f"import subprocess failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def stream_seed(seed: int, j: int) -> int:
    """Seed of a run's j-th stream; stream 0 is the run's own seed."""
    return seed if j == 0 else (seed * 1_000_003 + j) % (1 << 32)


def setup_streams(name, seed, scale):
    """(round_s, [(case, inputs)]): the median over several set-up rounds,
    each generating one stream and constructing its device, store and tree,
    scaled to quiet host speed."""
    rounds, streams = [], []
    for j in range(SETUP_ROUNDS):
        factor = speed_factor()
        t0 = time.perf_counter()
        case = make_case(name, stream_seed(seed, j), scale)
        inputs = case.prepare()
        case.build(inputs)
        rounds.append((time.perf_counter() - t0) * factor)
        streams.append((case, inputs))
    return statistics.median(rounds), streams


def run_replay(case, inputs, tracer=None, memory=False) -> Replay:
    """One replay on a fresh tree, then its checks. With a tracer, stream
    generation and the replay run traced, and ``wall_ns`` is the time
    around the traced region from the harness's own clock. With
    ``memory``, ``peak_rss_mb`` is the process's peak RSS after the replay,
    before the checks. The checks are never traced or measured."""
    rep = Replay()
    if tracer is not None:
        from tracing import install
        w0 = time.perf_counter_ns()
        tracer.start()
        undo = install(tracer)
        try:
            inputs = case.prepare(tracer)
            state = case.build(inputs)
            oracle = case.replay(inputs, state, rep)
        finally:
            undo()
            tracer.stop()
            rep.wall_ns = time.perf_counter_ns() - w0
    else:
        state = case.build(inputs)
        oracle = case.replay(inputs, state, rep)
        if memory:
            rep.peak_rss_mb = (resource.getrusage(resource.RUSAGE_SELF)
                               .ru_maxrss / 1024)
    if oracle is not None:
        case.check(state, oracle, rep)
    return rep


def replay_in_child(name, seed, scale) -> Replay:
    """One replay of stream ``seed`` in a fresh interpreter, as a user runs
    one workload: import, generate, build, replay, check. Its peak RSS is
    that of one workload run, whatever the harness holds."""
    code = ("import sys\n"
            f"sys.path.insert(0, {str(HERE)!r})\n"
            "import run\n"
            f"run.child_main({name!r}, {seed!r}, {scale!r})\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise BenchError(f"replay subprocess failed: {proc.stderr.strip()}")
    rep = Replay()
    vars(rep).update(json.loads(proc.stdout.strip().splitlines()[-1]))
    return rep


def child_main(name, seed, scale) -> None:
    import_simulator()
    case = make_case(name, seed, scale)
    print(json.dumps(vars(run_replay(case, case.prepare(), memory=True))))


def trace_balance_problem(tracer, wall_ns) -> str | None:
    """The layer self times plus the harness time (the gaps between
    top-level spans, timed by the tracer) must make up ``wall_ns``, a wall
    time taken outside the tracer, within TRACE_SLACK_*."""
    layer_ns = sum(tracer.self_ns(layer) for layer in tracer.layers())
    traced_ns = layer_ns + tracer.harness_ns
    slack = TRACE_SLACK_NS * tracer.regions + TRACE_SLACK_SHARE * wall_ns
    if traced_ns > wall_ns or wall_ns - traced_ns > slack:
        return (f"layer self times {layer_ns} ns plus harness "
                f"{tracer.harness_ns} ns do not make up the traced wall "
                f"time {wall_ns} ns")
    return None


def _digest(outputs: dict) -> str:
    text = json.dumps(outputs, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def check_against(case, reps, pins) -> None:
    """Every replay of one stream must repeat the first exactly and, at the
    pinned seed and size, the pinned outputs."""
    first = reps[0].outputs
    pin = (pins or {}).get("workloads", {}).get(case.name)
    if pin is not None and (pin["seed"], pin["size"]) != (case.seed, case.size):
        pin = None
    for rep in reps:
        if not rep.outputs:
            continue
        if rep.outputs != first:
            rep.fail_all("outputs differ between replays of one stream")
        if pin is not None:
            bad = sorted(k for k, v in pin["outputs"].items()
                         if rep.outputs.get(k) != v)
            if bad:
                rep.fail_all(f"outputs differ from pinned values: {bad}")


def _pct_us(samples_ns, q) -> float:
    import numpy as np
    return float(np.percentile(samples_ns, q)) / 1e3


def best_per_op(reps, attr):
    """Each operation's fastest time over the run's replays.

    Replays of one stream execute the same operations in the same order, so
    position i is one operation in every replay. Host disturbances that the
    speed probe misses hit replays at different operations; the
    per-operation minimum removes them while keeping the operations' own
    spread.
    """
    import numpy as np
    rows = [getattr(r, attr) for r in reps]
    n = min(len(row) for row in rows)   # shorter only when a replay failed
    return np.array([row[:n] for row in rows], dtype=np.float64).min(axis=0)


def end_to_end(runs, setup_s, peak_rss_mb) -> dict:
    """runs: [(case, replays of its stream)]; timings pool every stream's
    per-operation bests."""
    import numpy as np
    up = np.concatenate([best_per_op(reps, "upsert_ns") for _c, reps in runs])
    qs = np.concatenate([best_per_op(reps, "query_ns") for _c, reps in runs])
    values = {"setup_s": setup_s,
              "ops_per_s": (len(up) + len(qs)) * 1e9 / float(up.sum() + qs.sum()),
              "upsert_p50_us": _pct_us(up, 50),
              "upsert_p99_us": _pct_us(up, 99),
              "query_p50_us": _pct_us(qs, 50),
              "query_p99_us": _pct_us(qs, 99),
              "peak_rss_mb": peak_rss_mb}
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]}
            for k, v in values.items()}


def _ops_per_s(reps) -> float:
    calls = sum(len(r.upsert_ns) + len(r.query_ns) for r in reps)
    return calls * 1e9 / sum(r.op_ns for r in reps)


def per_layer(tracer, reps, ref) -> dict:
    """Per-pass layer metrics of the traced replays `reps`; `ref` is the
    untraced replay of the same stream, the base of the tracing overhead."""
    tr = tracer
    passes = len(reps)
    out = reps[0].outputs
    upserts = tr.calls("BeTree.upsert") / passes
    queries = tr.calls("BeTree.query") / passes
    writes = tr.calls("DeviceStore.write_pairs") + tr.calls("NullStore.write_pairs")
    items = tr.items("DeviceStore.write_pairs") + tr.items("NullStore.write_pairs")
    q_reads = sum(tr.calls(f"{cls}.{fn}", root="BeTree.query")
                  for cls in ("DeviceStore", "NullStore")
                  for fn in ("read_key", "read_payload", "arena_read"))
    btree_writes = out.get("btree_writes", 0)
    betree_writes = out.get("betree_writes", out.get("kv_writes", 0))

    def per_pass(n):
        return n / passes

    def self_s(layer):
        return tr.self_ns(layer) / 1e9 / passes

    def calls(name):
        return per_pass(tr.calls(name))

    m = {
        "workload.generate_s": (self_s("workload"), "s"),
        "workload.ops": (reps[0].attempted, "count"),
        "betree.self_s": (self_s("betree"), "s"),
        "betree.kv_writes_per_upsert": (betree_writes / upserts if upserts else 0.0, "ratio"),
        "betree.height": (out.get("height", 0), "count"),
        "betree.nodes": (out.get("nodes", 0), "count"),
        "betree.arena_high_water": (out.get("arena_high_water", 0), "count"),
        "betree.write_ratio": (betree_writes / btree_writes if btree_writes else 0.0, "ratio"),
        "layout.self_s": (self_s("layout"), "s"),
        "layout.write_pairs_calls": (per_pass(writes), "count"),
        "layout.pairs_per_write": (items / writes if writes else 0.0, "ratio"),
        "layout.reads_per_query": (per_pass(q_reads) / queries if queries else 0.0, "ratio"),
        "layout.arena_calls": (calls("DeviceStore.arena_write") + calls("DeviceStore.arena_read"), "count"),
        "strategies.self_s": (self_s("strategies"), "s"),
        "strategies.apply_calls": (calls("strategies.apply_strategy"), "count"),
        "device.self_s": (self_s("device"), "s"),
        "device.read_word_calls": (calls("Device.read_word"), "count"),
        "device.bcw_passes": (calls("Device.write_batch_bcw"), "count"),
        "device.bi_write_calls": (calls("Device.bi_write_word"), "count"),
        "device.align_calls": (calls("Device.align"), "count"),
        "counters.self_s": (self_s("counters"), "s"),
        "counters.record_calls": (calls("OpCounters.record") + calls("OpCounters.record_shift")
                                  + calls("OpCounters.record_mixed"), "count"),
        "kernels.self_s": (self_s("kernels"), "s"),
        "kernels.bcw_batch_calls": (calls("kernels.bcw_batch"), "count"),
        "kernels.bi_write_calls": (calls("kernels.bi_write"), "count"),
        "kernels.word_write_calls": (calls("kernels.word_write"), "count"),
        "kernels.int_to_bits_calls": (calls("kernels.int_to_bits"), "count"),
        "kernels.bits_to_int_calls": (calls("kernels.bits_to_int"), "count"),
        "btree.self_s": (self_s("btree"), "s"),
        "btree.kv_writes": (btree_writes, "count"),
        "trace.overhead_pct": (100.0 * (_ops_per_s([ref]) / _ops_per_s(reps) - 1.0), "%"),
        "trace.harness_s": (tr.harness_ns / 1e9 / passes, "s"),
        "trace.wall_s": (sum(r.wall_ns for r in reps) / 1e9 / passes, "s"),
    }
    for k in COUNTERS:
        m[f"device.{k}"] = (out.get(k, 0), "count")
    m["device.sim_latency_ns"] = (out.get("latency_ns", 0.0), "ns")
    m["device.sim_energy_fJ"] = (out.get("energy_fJ", 0.0), "fJ")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def _git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def metadata(sim, name, seed, runs) -> dict:
    import numpy as np
    from skrmbetree import kernels
    try:
        import numba  # noqa: F401
        has_numba = True
    except ImportError:
        has_numba = False
    first = runs[0][1][0].outputs
    return {"workload": name, "seed": seed, "size": runs[0][0].size,
            "backend": kernels.BACKEND, "numba": has_numba,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "simulator": sim.__version__,
            "git_revision": _git_revision(),
            "streams": [c.seed for c, _reps in runs],
            "replays": sum(len(reps) for _c, reps in runs),
            "digest": _digest(first) if first else None,
            "model": "unvalidated against hardware; no error figure",
            "load": "closed loop, 1 process, 1 thread, 1 client"}


def run_workload(name, seed, seconds, trace, scale=1.0, pins=None) -> dict:
    """Measure one workload; returns the full result (``result`` holds the
    contract line)."""
    sim = import_simulator()
    round_s, streams = setup_streams(name, seed, scale)
    runs = []
    extra = {}
    if trace:
        from tracing import Tracer
        case, inputs = streams[0]
        ref = run_replay(case, inputs)
        tracer = Tracer()
        traced = []
        begin = time.perf_counter()
        longest = 0.0
        while True:
            t0 = time.perf_counter()
            traced.append(run_replay(case, None, tracer))
            longest = max(longest, time.perf_counter() - t0)
            if time.perf_counter() - begin + longest > seconds:
                break
        runs.append((case, [ref] + traced))
        problem = trace_balance_problem(tracer,
                                        sum(r.wall_ns for r in traced))
        if problem:
            for rep in traced:
                rep.fail_all(problem)
        metrics = per_layer(tracer, traced, ref)
        extra = {"edges": tracer.edges(),
                 "span_sample": [dict(zip(("op", "depth", "layer", "name",
                                            "t0_ns", "t1_ns"), s))
                                 for s in tracer.spans]}
    else:
        # first pass: one replay of each stream until a third of the time
        # is gone; then two more passes over the same streams, so that an
        # operation's three runs lie about seconds / 3 apart and seldom all
        # meet a host disturbance. The import timings of setup_s are spread
        # over the passes too: taken together they would all fall in one
        # host phase.
        imports = [import_s() for _ in range(IMPORT_REPEATS[0])]
        begin = time.perf_counter()
        longest = 0.0
        for j in itertools.count():
            t0 = time.perf_counter()
            if j < len(streams):
                case, inputs = streams[j]
            else:
                case = make_case(name, stream_seed(seed, j), scale)
                inputs = case.prepare()
                streams.append((case, inputs))
            if j == 0:
                runs.append((case, [replay_in_child(name, case.seed, scale)]))
            else:
                runs.append((case, [run_replay(case, inputs)]))
            longest = max(longest, time.perf_counter() - t0)
            if (j + 1 >= MIN_STREAMS
                    and time.perf_counter() - begin + longest > seconds / PASSES):
                break
        for repeats in IMPORT_REPEATS[1:]:
            imports += [import_s() for _ in range(repeats)]
            for (case, reps), (_case, inputs) in zip(runs, streams):
                reps.append(run_replay(case, inputs))
        setup_s = statistics.median(imports) + round_s
    for case, reps in runs:
        check_against(case, reps, pins)
    if not trace:
        metrics = end_to_end(runs, setup_s, runs[0][1][0].peak_rss_mb)
    reps = [r for _c, rs in runs for r in rs]
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    result = {"correct": failed == 0 and attempted > 0,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    problems = [p for r in reps for p in r.problems]
    return {"result": result, "meta": metadata(sim, name, seed, runs),
            "outputs": runs[0][1][0].outputs, "problems": problems[:50],
            **extra}


def load_pins(path) -> dict | None:
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError:
        return None


def _run_all(args) -> int:
    """Every workload in its own process, one after another."""
    rows, total = [], {"correct": True, "attempted": 0, "failed": 0,
                       "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        rows.append((name, res))
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            total["metrics"][f"{name}.{k}"] = v
    for name, res in rows:
        print(f"{name}: attempted={res['attempted']} failed={res['failed']} "
              f"correct={res['correct']}")
        for k, v in res["metrics"].items():
            print(f"  {k:<28} {v['value']:>16.6g} {v['unit']}")
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=list(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=25.0,
                    help="measurement window; an untraced run replays at "
                         "least two streams, a traced run one pass")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return _run_all(args)
    try:
        full = run_workload(args.workload, args.seed, args.seconds,
                            args.trace, pins=load_pins(PINS))
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    try:
        RESULTS.mkdir(exist_ok=True)
        out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(full, indent=1) + "\n")
    except OSError as err:
        print(f"warning: result file not written: {err}", file=sys.stderr)
    for p in full["problems"]:
        print(f"problem: {p}", file=sys.stderr)
    print(json.dumps({"meta": full["meta"]}))
    print(json.dumps(full["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
