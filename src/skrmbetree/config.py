"""Run configuration: unit costs, track geometry, tree shape, experiment knobs.

Everything here can be set from code, from CLI flags, or from a plain
``key = value`` text file whose keys mirror the dataclass field names
(see :func:`read_config_file`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .errors import ConfigError
from .workload import MIXES

PRIMITIVES = ("detect", "shift", "remove", "inject")

MAPPINGS = ("word", "bit_interleaved")
STRATEGIES = ("naive", "dcw", "pw", "bcw")
SHIFT_POLICIES = ("lazy", "eager")


def index_bits_for(capacity: int) -> int:
    """Bits needed to address `capacity` arena slots; 1 slot needs none."""
    if capacity < 1:
        raise ConfigError("capacity must be >= 1")
    return (capacity - 1).bit_length()


def next_pow2(n: int) -> int:
    return 1 if n <= 1 else 1 << (n - 1).bit_length()


@dataclass(frozen=True)
class CostModel:
    """Per-primitive unit costs.

    Defaults are the usual skyrmion racetrack figures: detect 2 fJ / 0.1 ns,
    shift 20 fJ / 0.5 ns, remove 20 fJ / 0.8 ns, inject 200 fJ / 1.0 ns.
    Energy is charged per primitive instance; latency per (possibly parallel)
    step, so a step that fires many ports at once still costs one unit.
    """

    energy_detect: float = 2.0
    energy_shift: float = 20.0
    energy_remove: float = 20.0
    energy_inject: float = 200.0
    latency_detect: float = 0.1
    latency_shift: float = 0.5
    latency_remove: float = 0.8
    latency_inject: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{f.name} must be finite and positive")

    def energy(self, kind: str) -> float:
        return getattr(self, "energy_" + kind)

    def latency(self, kind: str) -> float:
        return getattr(self, "latency_" + kind)

    def dominant(self, kinds) -> str:
        """Kind with the largest unit latency; a mixed parallel step bills as it."""
        return max(kinds, key=self.latency)


@dataclass(frozen=True)
class Geometry:
    """Physical shape of one track family.

    A track has ``ports_per_track`` access ports spaced ``interport_bits``
    cells apart, so the data region holds ports_per_track * interport_bits
    cells, plus one interport-sized overflow region at each end so a full
    write pass can shift out without losing skyrmions.
    """

    word_bits: int = 64
    interport_bits: int = 64
    ports_per_track: int = 32
    shift_policy: str = "lazy"

    def __post_init__(self):
        if self.word_bits < 1:
            raise ConfigError("word_bits must be >= 1")
        if self.interport_bits < self.word_bits:
            raise ConfigError("interport_bits must be >= word_bits")
        if self.ports_per_track < 1:
            raise ConfigError("ports_per_track must be >= 1")
        if self.shift_policy not in SHIFT_POLICIES:
            raise ConfigError(f"shift_policy must be one of {SHIFT_POLICIES}")


@dataclass(frozen=True)
class TreeConfig:
    """Shape and feature toggles for the message-buffer tree."""

    node_pairs: int = 16        # key-value slots per node (B)
    pivot_pairs: int = 4        # pivot slots in an internal node
    buffer_pairs: int = 12      # message slots in an internal node
    element_pairs: int = 16     # element slots in a leaf
    encoding: bool = False      # buffer payloads hold arena indices, not values
    parallel_ports: bool = False
    strategy: str = "naive"
    count_new_detect: bool = False
    arena_capacity: int | None = None   # None: sized from the planned upsert count
    max_tracks: int | None = None       # None: unbounded pool

    def __post_init__(self):
        if self.pivot_pairs < 2:
            raise ConfigError("pivot_pairs must be >= 2")
        if self.buffer_pairs < 1 or self.element_pairs < 1:
            raise ConfigError("buffer and element capacities must be >= 1")
        if self.pivot_pairs + self.buffer_pairs != self.node_pairs:
            raise ConfigError("pivot_pairs + buffer_pairs must equal node_pairs")
        if self.element_pairs > self.node_pairs:
            # a leaf's elements sit in the node's pair slots (its ports)
            raise ConfigError("element_pairs must be <= node_pairs")
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"strategy must be one of {STRATEGIES}")
        if self.parallel_ports and self.strategy != "bcw":
            raise ConfigError("parallel port updates run the batched compare "
                              "write; parallel_ports requires strategy=bcw")
        if self.arena_capacity is not None and self.arena_capacity < 1:
            raise ConfigError("arena_capacity must be >= 1")
        if self.max_tracks is not None and self.max_tracks < 1:
            raise ConfigError("max_tracks must be >= 1")

    def arena_slots(self, planned: int, word_bits: int) -> int:
        """Value-arena slots for `planned` upserts: arena_capacity, else
        the power of two at or above `planned`, at least 256. An arena
        whose index is wider than a `word_bits` payload word is refused."""
        cap = self.arena_capacity
        if cap is None:
            cap = next_pow2(max(256, planned))
        if index_bits_for(cap) > word_bits:
            raise ConfigError("arena index wider than a payload word")
        return cap


@dataclass(frozen=True)
class ExperimentConfig:
    """One benchmark run: a workload replayed against one tree configuration."""

    workload: str = "a"
    mapping: str = "word"
    entries: int = 10_000
    op_count: int | None = None     # None: same as entries
    word_bytes: int = 8
    seed: int = 42
    tree: TreeConfig = TreeConfig()
    cost: CostModel = CostModel()
    shift_policy: str = "lazy"

    def __post_init__(self):
        if self.workload not in MIXES:
            raise ConfigError(f"workload must be one of {sorted(MIXES)}")
        if self.mapping not in MAPPINGS:
            raise ConfigError(f"mapping must be one of {MAPPINGS}")
        if self.word_bytes < 1:
            raise ConfigError("word_bytes must be >= 1")
        if self.entries < 1:
            raise ConfigError("entries must be >= 1")
        if self.op_count is not None and self.op_count < 0:
            raise ConfigError("op_count must be >= 0")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.shift_policy not in SHIFT_POLICIES:
            raise ConfigError(f"shift_policy must be one of {SHIFT_POLICIES}")
        if self.tree.strategy == "pw" and self.mapping == "bit_interleaved":
            raise ConfigError("pw is a single-word word-based strategy; "
                              "it cannot drive the bit_interleaved mapping")
        if self.tree.encoding:
            # a run plans entries + ops upserts: an arena too wide for
            # them is refused here, before any work
            self.tree.arena_slots(self.entries + self.ops, self.word_bits)

    @property
    def word_bits(self) -> int:
        return self.word_bytes * 8

    @property
    def ops(self) -> int:
        return self.entries if self.op_count is None else self.op_count

    def geometry(self) -> Geometry:
        """Track geometry implied by this run.

        Word-based tracks hold one node each: two word slots per pair.
        Bit-interleaved tracks hold one bit column of many nodes: one port
        per pair slot.
        """
        return _geometry(self.mapping, self.tree.node_pairs, self.word_bits,
                         self.shift_policy)

    def baseline(self) -> "ExperimentConfig":
        """The naive reference configuration on the same mapping."""
        return replace(self, tree=replace(self.tree, strategy="naive",
                                          encoding=False, parallel_ports=False))

    def is_baseline(self) -> bool:
        t = self.tree
        return t.strategy == "naive" and not t.encoding and not t.parallel_ports


BOOL_WORDS = {"1": True, "true": True, "on": True, "yes": True,
               "0": False, "false": False, "off": False, "no": False}

# settings key -> the annotated type of the field it sets; word_bits and
# the two derived geometry keys take their Geometry types
_KEY_TYPES = {f.name: f.type
              for cls in (Geometry, ExperimentConfig, TreeConfig, CostModel)
              for f in fields(cls) if f.name not in ("tree", "cost")}

def _parse(key: str, value):
    """`value` as the type of the field `key` sets: text from a settings
    file, or an already typed value from code.

    Bool fields take only True/False and the bool words, int fields only
    integers (a bool is not one), ``int | None`` fields also None or
    ``none``, float fields any finite number, str fields only text.
    """
    kind = _KEY_TYPES.get(key)
    if kind is None:
        raise ConfigError(f"unknown config key {key!r}")
    if kind == "int | None" and (value is None
                                 or str(value).lower() == "none"):
        return None
    want = {"bool": bool, "float": float, "str": str}.get(kind, int)
    got = value
    if isinstance(value, str) and want is not str:
        try:
            got = (BOOL_WORDS.get(value.lower()) if want is bool
                   else want(value))
        except ValueError:
            pass
    if want is float and type(got) is int:
        got = float(got)
    if type(got) is not want or (want is float and not math.isfinite(got)):
        raise ConfigError(f"{key} = {value!r}: expected {kind}"
                          + (f" ({'/'.join(BOOL_WORDS)})" if want is bool
                             else ""))
    return got


def read_config_file(path) -> dict:
    """Parse a plain ``key = value`` file into a {key: value} dict.

    Blank lines and ``#`` comments are skipped. Each value is parsed as the
    type of the field its key names; an unknown key, a value of the wrong
    type or a key set twice raises ConfigError.
    """
    out = {}
    line_of = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read settings file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        if key in line_of:
            raise ConfigError(f"{path}:{lineno}: {key} is set again, first "
                              f"on line {line_of[key]}")
        line_of[key] = lineno
        try:
            out[key] = _parse(key, value.strip())
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
    return out


_COST_KEYS = [f.name for f in fields(CostModel)]
_TREE_KEYS = [f.name for f in fields(TreeConfig)]
_EXP_KEYS = [f.name for f in fields(ExperimentConfig)
             if f.name not in ("tree", "cost")]


def _geometry(mapping: str, node_pairs: int, word_bits: int,
              shift_policy: str) -> Geometry:
    ports = 2 * node_pairs if mapping == "word" else node_pairs
    return Geometry(word_bits=word_bits, interport_bits=word_bits,
                    ports_per_track=ports, shift_policy=shift_policy)


def apply_file_settings(cfg: ExperimentConfig, *layers: dict) -> ExperimentConfig:
    """Overlay layers of settings onto an ExperimentConfig, each over the
    ones before it: a parsed config file, then the CLI flags. Each value is
    checked against its field's type. All layers apply in one replace, so
    the cross-field checks see only the finished config, never a
    half-applied one.

    Geometry keys (word_bits, ...) adjust the experiment-level fields they
    derive from; ports_per_track and interport_bits are derived from the
    tree shape and word size, so they must agree with what their own layer
    and the ones before it give (a later layer may change the word size).
    Unknown keys raise, so typos do not pass silently.
    """
    cost_kw, tree_kw, exp_kw = {}, {}, {}
    derived = []    # (key, value, the geometry its layer gives)
    for settings in layers:
        layer_derived = []
        for key, value in settings.items():
            value = _parse(key, value)
            if key in _COST_KEYS:
                cost_kw[key] = value
            elif key in _TREE_KEYS:
                tree_kw[key] = value
            elif key in _EXP_KEYS:
                exp_kw[key] = value
            elif key == "word_bits":
                if value % 8:
                    raise ConfigError("word_bits from file must be a multiple of 8")
                exp_kw["word_bytes"] = value // 8
            else:
                # ports_per_track or interport_bits: accepted so a
                # device-level settings file can be shared
                layer_derived.append((key, value))
        at = (exp_kw.get("mapping", cfg.mapping),
              tree_kw.get("node_pairs", cfg.tree.node_pairs),
              8 * exp_kw.get("word_bytes", cfg.word_bytes),
              exp_kw.get("shift_policy", cfg.shift_policy))
        derived += [(key, value, at) for key, value in layer_derived]
    cfg = replace(cfg, cost=replace(cfg.cost, **cost_kw),
                  tree=replace(cfg.tree, **tree_kw), **exp_kw)
    # checked once the finished config stands, so a bad field is named first
    for key, value, at in derived:
        want = getattr(_geometry(*at), key)
        if value != want:
            raise ConfigError(
                f"{key} = {value} from file disagrees with the geometry this "
                f"run derives ({key} = {want})")
    return cfg
