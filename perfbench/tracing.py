"""Per-layer tracing by wrapping the simulator's public functions from outside.

Nothing under ``src/`` is edited: :func:`install` swaps class and module
attributes for timing wrappers and returns a function that puts the
originals back. Every wrapped call is a span of one layer. A span's self
time is its duration minus the durations of its direct children. The
harness time is timed on its own: the gaps between top-level spans inside
the traced regions (``start`` to ``stop``). Self times plus harness time
should make up the wall time of the regions; the caller checks that
against a clock of its own.

Aggregates are kept per (layer, parent layer, function, root operation),
where the root operation is the outermost span of the call (``BeTree.query``
for everything a query does). Full spans are kept only for the first
``sample_ops`` root operations.
"""

from __future__ import annotations

import time

HARNESS = "harness"


class Tracer:
    def __init__(self, sample_ops: int = 20):
        self.clock = time.perf_counter_ns
        self.agg: dict[tuple, list] = {}    # key -> [calls, self_ns, items]
        self.sample_ops = sample_ops
        self.spans: list[tuple] = []        # (root_seq, depth, layer, name, t0, t1)
        self.roots = 0
        self._stack = [[HARNESS, 0, None]]  # [layer, child_ns, root name]
        self._gap_from = None    # end of the last top-level span in a region
        self.harness_ns = 0      # region time outside every top-level span
        self.regions = 0

    def start(self) -> None:
        self.regions += 1
        self._gap_from = self.clock()

    def stop(self) -> None:
        self.harness_ns += self.clock() - self._gap_from
        self._gap_from = None

    def call(self, layer, name, fn, args, kwargs, items=None):
        stack = self._stack
        parent = stack[-1]
        root = parent[2]
        if root is None:
            root = name
            self.roots += 1
        frame = [layer, 0, root]
        stack.append(frame)
        t0 = self.clock()
        if len(stack) == 2:
            self.harness_ns += t0 - self._gap_from
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = self.clock()
            stack.pop()
            if len(stack) == 1:
                self._gap_from = t1
            dur = t1 - t0
            parent[1] += dur
            key = (layer, parent[0], name, root)
            rec = self.agg.get(key)
            if rec is None:
                rec = self.agg[key] = [0, 0, 0]
            rec[0] += 1
            rec[1] += dur - frame[1]
            if items is not None:
                rec[2] += items(args)
            if self.roots <= self.sample_ops:
                self.spans.append((self.roots, len(stack) - 1, layer, name,
                                   t0, t1))

    def span(self, layer, name, fn, *args):
        """Trace one call made by the harness itself."""
        return self.call(layer, name, fn, args, {})

    # ------------------------------------------------------------- queries

    def self_ns(self, layer) -> int:
        return sum(r[1] for k, r in self.agg.items() if k[0] == layer)

    def calls(self, name=None, layer=None, root=None) -> int:
        return sum(r[0] for k, r in self.agg.items()
                   if (name is None or k[2] == name)
                   and (layer is None or k[0] == layer)
                   and (root is None or k[3] == root))

    def items(self, name) -> int:
        return sum(r[2] for k, r in self.agg.items() if k[2] == name)

    def layers(self) -> set:
        return {k[0] for k in self.agg}

    def edges(self) -> list[dict]:
        """Self time and calls per (layer, parent layer), largest first."""
        out: dict[tuple, list] = {}
        for (layer, parent, _name, _root), (calls, self_ns, _items) in self.agg.items():
            rec = out.setdefault((layer, parent), [0, 0])
            rec[0] += calls
            rec[1] += self_ns
        return [{"layer": l, "parent": p, "calls": c, "self_s": s / 1e9}
                for (l, p), (c, s) in sorted(out.items(),
                                             key=lambda kv: -kv[1][1])]


def _wrapper(tracer, layer, name, fn, items):
    def traced(*args, **kwargs):
        return tracer.call(layer, name, fn, args, kwargs, items)
    return traced


def _write_items(args):
    # DeviceStore.write_pairs(self, node_id, writes)
    return len(args[2])


def install(tracer: Tracer):
    """Wrap every traced entry point; returns the function that undoes it."""
    from skrmbetree import betree, btree, counters, device, kernels, layout
    from skrmbetree import strategies, workload

    targets = [
        (betree.BeTree, "betree", ("upsert", "query")),
        (btree.BTree, "btree", ("insert", "get")),
        (layout.DeviceStore, "layout",
         ("add_node", "read_key", "read_payload", "write_pairs",
          "arena_write", "arena_read")),
        (layout.NullStore, "layout",
         ("add_node", "read_key", "read_payload", "write_pairs",
          "arena_write", "arena_read")),
        (strategies, "strategies", ("apply_strategy",)),
        (device.Device, "device",
         ("new_track", "new_group", "shift", "detect", "inject", "remove",
          "align", "write_serial", "write_pw", "write_batch_bcw",
          "read_word", "group_align", "bi_read_word", "bi_write_word")),
        (counters.OpCounters, "counters",
         ("record", "record_shift", "record_mixed")),
        # device.py and layout.py call these through the module object
        (kernels, "kernels",
         ("word_write", "bcw_batch", "pw_match", "bi_write", "xor_counts",
          "int_to_bits", "bits_to_int")),
        (workload, "workload", ("generate",)),
    ]
    saved = []
    for owner, layer, names in targets:
        prefix = owner.__name__.rsplit(".", 1)[-1]
        for attr in names:
            fn = owner.__dict__[attr]
            items = _write_items if attr == "write_pairs" else None
            saved.append((owner, attr, fn))
            setattr(owner, attr,
                    _wrapper(tracer, layer, f"{prefix}.{attr}", fn, items))

    def uninstall():
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)
    return uninstall
