"""Run configuration: unit costs, track geometry, tree shape, experiment knobs.

Everything here can be set from code, from CLI flags, or from a plain
``key = value`` text file (see :func:`read_config_file`). A settings key is
the name of an ExperimentConfig, TreeConfig or CostModel field. A value
that follows from others has no key: the track geometry follows from the
tree shape and word size, and a node's buffer slots from its shape.
However a config is built, its fields are type-checked by one rule
(:func:`_typed_fields`); settings text is first parsed as its field's type.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from numbers import Real
from operator import index
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


def as_int(value, what: str) -> int:
    """`value` as a Python int: an int or a numpy int passes; a bool, a
    float or text is refused rather than rounded or parsed."""
    try:
        if not isinstance(value, bool):
            return index(value)
    except TypeError:
        pass
    raise ConfigError(f"{what} must be an integer, not {value!r}")


def as_float(value, what: str) -> float:
    """`value` as a finite Python float: any real number but a bool."""
    try:
        if (isinstance(value, Real) and not isinstance(value, bool)
                and math.isfinite(value)):
            return float(value)
    except OverflowError:   # an int too large for a float
        pass
    raise ConfigError(f"{what} must be a finite number, not {value!r}")


# the values each str field takes
_CHOICES = {"workload": tuple(sorted(MIXES)), "mapping": MAPPINGS,
            "strategy": STRATEGIES, "shift_policy": SHIFT_POLICIES}
# the least value of each int field that has one (None always passes)
_LEAST = {"interport_bits": 1, "ports_per_track": 1, "pivot_pairs": 2,
          "element_pairs": 1, "arena_capacity": 1, "max_tracks": 1,
          "entries": 1, "op_count": 0, "word_bytes": 1, "seed": 0}


def _typed_fields(cfg) -> None:
    """Type-check every field of the frozen config `cfg` by its annotation
    and store each value as checked; each __post_init__ runs this first.
    An int takes what as_int does, at least its _LEAST (``int | None``
    also None), a float what as_float does, a bool only True or False, a
    str one of its _CHOICES, and `tree` and `cost` an instance of their
    class."""
    for f in fields(cfg):
        name, kind, value = f.name, f.type, getattr(cfg, f.name)
        ok = True
        if kind == "int" or kind == "int | None" and value is not None:
            value = as_int(value, name)
            if name in _LEAST and value < _LEAST[name]:
                raise ConfigError(f"{name} must be >= {_LEAST[name]}")
        elif kind == "float":
            value = as_float(value, name)
        elif kind == "bool":
            ok, want = value is True or value is False, "True or False"
        elif kind == "str":
            ok = isinstance(value, str) and value in _CHOICES[name]
            want = f"one of {_CHOICES[name]}"
        elif kind != "int | None":  # a kind with no check: KeyError
            cls = {"TreeConfig": TreeConfig, "CostModel": CostModel}[kind]
            ok, want = isinstance(value, cls), f"a {kind}"
        if not ok:
            raise ConfigError(f"{name} must be {want}, not {value!r}")
        object.__setattr__(cfg, name, value)


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
        _typed_fields(self)
        for f in fields(self):
            if getattr(self, f.name) <= 0:
                raise ConfigError(f"{f.name} must be positive")

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
    write pass can shift out without losing skyrmions. The geometry holds
    no word size: a word slot is one interport, and the store that lays
    words out refuses a word wider than that.
    """

    interport_bits: int = 64
    ports_per_track: int = 32
    shift_policy: str = "lazy"

    def __post_init__(self):
        _typed_fields(self)


@dataclass(frozen=True)
class TreeConfig:
    """Shape and feature toggles for the message-buffer tree."""

    node_pairs: int = 16        # key-value slots per node (B)
    pivot_pairs: int = 4        # pivot slots in an internal node
    element_pairs: int = 16     # element slots in a leaf
    encoding: bool = False      # buffer payloads hold arena indices, not values
    parallel_ports: bool = False
    strategy: str = "naive"
    count_new_detect: bool = False
    arena_capacity: int | None = None   # None: sized from the planned upsert count
    max_tracks: int | None = None       # None: unbounded pool

    def __post_init__(self):
        _typed_fields(self)
        if self.pivot_pairs >= self.node_pairs:
            raise ConfigError("pivot_pairs must be < node_pairs: an internal "
                              "node needs a buffer slot")
        if self.element_pairs > self.node_pairs:
            # a leaf's elements sit in the node's pair slots (its ports)
            raise ConfigError("element_pairs must be <= node_pairs")
        if self.parallel_ports and self.strategy != "bcw":
            raise ConfigError("parallel port updates run the batched compare "
                              "write; parallel_ports requires strategy=bcw")

    @property
    def buffer_pairs(self) -> int:
        """Message slots in an internal node: the slots its pivots leave."""
        return self.node_pairs - self.pivot_pairs

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
        _typed_fields(self)
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
        ports = self.tree.node_pairs * (2 if self.mapping == "word" else 1)
        return Geometry(interport_bits=self.word_bits, ports_per_track=ports,
                        shift_policy=self.shift_policy)

    def baseline(self) -> "ExperimentConfig":
        """The naive reference configuration on the same mapping."""
        return replace(self, tree=replace(self.tree, strategy="naive",
                                          encoding=False, parallel_ports=False))

    def is_baseline(self) -> bool:
        t = self.tree
        return t.strategy == "naive" and not t.encoding and not t.parallel_ports


BOOL_WORDS = {"1": True, "true": True, "on": True, "yes": True,
               "0": False, "false": False, "off": False, "no": False}

# settings key -> the config class whose field it sets, and its annotation
_KEYS = {f.name: (cls, f.type)
         for cls in (ExperimentConfig, TreeConfig, CostModel)
         for f in fields(cls) if f.name not in ("tree", "cost")}

def _parse(key: str, value):
    """`value` for the field `key` sets: settings text, from a file or a
    flag, as the field's type (a bool word, an integer or ``none``, a
    finite number, or the text itself); any other value as it is."""
    if key not in _KEYS:
        raise ConfigError(f"unknown config key {key!r}")
    kind = _KEYS[key][1]
    if not isinstance(value, str) or kind == "str":
        return value
    try:
        if kind == "bool":
            return BOOL_WORDS[value.lower()]
        if kind == "float":
            return as_float(float(value), key)
        return (None if kind == "int | None" and value.lower() == "none"
                else int(value))
    except (KeyError, ValueError, ConfigError):
        raise ConfigError(f"{key} = {value!r}: expected {kind}"
                          + (f" ({'/'.join(BOOL_WORDS)})" if kind == "bool"
                             else "")) from None


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


def apply_file_settings(cfg: ExperimentConfig, *layers: dict) -> ExperimentConfig:
    """Overlay layers of settings onto an ExperimentConfig, each over the
    ones before it: a parsed config file, then the CLI flags. Text is
    parsed as its field's type, and the built configs check every value.
    All layers apply in one replace, so the cross-field checks see only
    the finished config, never a half-applied one.

    A key is a config field name. Unknown keys raise, so typos do not pass
    silently.
    """
    kw = {ExperimentConfig: {}, TreeConfig: {}, CostModel: {}}
    for settings in layers:
        for key, value in settings.items():
            value = _parse(key, value)
            kw[_KEYS[key][0]][key] = value
    return replace(cfg, cost=replace(cfg.cost, **kw[CostModel]),
                   tree=replace(cfg.tree, **kw[TreeConfig]),
                   **kw[ExperimentConfig])
