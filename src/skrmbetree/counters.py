"""Operation counters and cost accounting.

Counts are per primitive instance (a shift of one track by one cell, one
detect at one port, ...). Latency is tracked as per-kind *step* tallies:
a parallel step that fires N ports at once adds N to the instance count of
its kind but only one step. A mixed parallel step (injects and removes in
the same fire) bills one step of whichever kind has the larger unit
latency. Energy and latency are derived on demand so a recompute from the
exported numbers reproduces them exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import PRIMITIVES, CostModel


@dataclass
class OpCounters:
    detect: int = 0
    shift: int = 0
    remove: int = 0
    inject: int = 0
    detect_steps: int = 0
    shift_steps: int = 0
    remove_steps: int = 0
    inject_steps: int = 0
    trace: list | None = None   # optional (kind, width) step log for tests

    def count(self, kind: str) -> int:
        return getattr(self, kind)

    def steps(self, kind: str) -> int:
        return getattr(self, kind + "_steps")

    def _bump(self, kind, n, steps):
        if kind == "detect":
            self.detect += n
            self.detect_steps += steps
        elif kind == "shift":
            self.shift += n
            self.shift_steps += steps
        elif kind == "inject":
            self.inject += n
            self.inject_steps += steps
        elif kind == "remove":
            self.remove += n
            self.remove_steps += steps
        else:
            raise ValueError(f"unknown primitive {kind!r}")

    def log_steps(self, kind: str, n: int, steps: int) -> None:
        """Append `steps` trace entries for n instances of one kind: one
        (kind, n) entry when they fired together, n (kind, 1) entries when
        each was its own step. Call only when ``trace`` is not None."""
        if steps:
            self.trace.extend([(kind, n // steps)] * steps)

    def record(self, kind: str, n: int, parallel: bool = False) -> None:
        """n primitive instances of one kind; one step if fired in parallel."""
        if n == 0:
            return
        if n < 0:
            raise ValueError("negative op count")
        steps = 1 if parallel else n
        self._bump(kind, n, steps)
        if self.trace is not None:
            self.log_steps(kind, n, steps)

    def record_shift(self, tracks: int, steps: int) -> None:
        """steps shift steps over `tracks` tracks moved together.

        Energy scales with tracks * steps; lockstep movement costs one
        latency step per shift step regardless of width.
        """
        if steps == 0 or tracks == 0:
            return
        n = tracks * steps
        self.shift += n
        self.shift_steps += steps
        if self.trace is not None:
            self.log_steps("shift", n, steps)

    def record_mixed(self, model: CostModel, inject: int = 0,
                     remove: int = 0) -> None:
        """One parallel write fire that may issue injects and removes
        together: a single step billed at the dominant (slowest) kind."""
        if inject < 0 or remove < 0:
            raise ValueError("negative op count")
        if inject == 0 and remove == 0:
            return
        kinds = [k for k, n in (("inject", inject), ("remove", remove)) if n]
        dom = model.dominant(kinds)
        self.inject += inject
        self.remove += remove
        self._bump(dom, 0, 1)
        if self.trace is not None:
            self.trace.append((dom, inject + remove))

    def snapshot(self) -> "OpCounters":
        return OpCounters(self.detect, self.shift, self.remove, self.inject,
                          self.detect_steps, self.shift_steps,
                          self.remove_steps, self.inject_steps)

    def delta(self, earlier: "OpCounters") -> "OpCounters":
        """Counts accumulated since `earlier` (a snapshot of this counter)."""
        out = OpCounters()
        for kind in PRIMITIVES:
            out._bump(kind, self.count(kind) - earlier.count(kind),
                      self.steps(kind) - earlier.steps(kind))
        return out

    def as_flat_dict(self, model: CostModel | None = None) -> dict:
        out = {kind: self.count(kind) for kind in PRIMITIVES}
        out.update({kind + "_steps": self.steps(kind) for kind in PRIMITIVES})
        if model is not None:
            energy, latency = accumulate_cost(self, model)
            out["energy_fJ"] = energy
            out["latency_ns"] = latency
        return out


def accumulate_cost(counters: OpCounters, model: CostModel) -> tuple[float, float]:
    """(energy_fJ, latency_ns) for a counter set under a cost model.

    Pure function of the exported numbers: energy from instance counts,
    latency from step counts, summed in fixed kind order.
    """
    energy = 0.0
    latency = 0.0
    for kind in PRIMITIVES:
        energy += counters.count(kind) * model.energy(kind)
        latency += counters.steps(kind) * model.latency(kind)
    return energy, latency

