"""Skyrmion racetrack memory simulator with a buffered key-value tree.

The device layer counts every shift/detect/inject/remove with exact
latency-step accounting; the tree layer turns upserts into batched,
compare-written, optionally index-encoded device traffic. See the README
for the CLI and the cost model.
"""

from .betree import BeTree, ValueArena, encoding_overhead_bytes
from .btree import BTree, write_count_experiment, write_count_series
from .config import (CostModel, ExperimentConfig, Geometry, TreeConfig,
                     index_bits_for, read_config_file)
from .counters import OpCounters, accumulate_cost
from .device import Device
from .layout import DeviceStore, NullStore
from .workload import WorkloadSpec, generate

__version__ = "0.1.0"

__all__ = [
    "BeTree", "BTree", "CostModel", "Device", "DeviceStore",
    "ExperimentConfig", "Geometry", "NullStore", "OpCounters", "TreeConfig",
    "ValueArena", "WorkloadSpec", "accumulate_cost",
    "encoding_overhead_bytes", "generate", "index_bits_for",
    "read_config_file", "write_count_experiment", "write_count_series",
]
