"""Golden counters: exact end-to-end output of small checked runs.

Each case replays one workload through ``run_single`` with the oracle and
the audit on, and pins all eight device counters plus the tree's
``kv_writes``; the same run without the checks must report the same. The
cases cover both mappings, all four strategies, encoding on/off, parallel
ports on/off, lazy/eager shift policy and 4/8 byte words. A refactor or
speed-up must leave every number unchanged; a change to what gets counted
must update this table on purpose.
"""

import pytest

from skrmbetree.bench import run_single
from skrmbetree.config import ExperimentConfig, TreeConfig

SMALL = dict(node_pairs=5, pivot_pairs=2, element_pairs=4)

# (workload, mapping, strategy, encoding, parallel ports, shift policy,
#  word bytes, entries, small nodes) ->
# (shift, detect, remove, inject,
#  shift_steps, detect_steps, remove_steps, inject_steps, kv_writes)
GOLDEN = [
    (("a", "word", "naive", False, False, "lazy", 8, 300, False),
     (694838, 263104, 77046, 105717, 694838, 263104, 77046, 105717, 1342)),
    (("c", "word", "naive", False, False, "eager", 4, 300, False),
     (898358, 381088, 27209, 39237, 898358, 381088, 27209, 39237, 936)),
    (("a", "word", "dcw", False, False, "eager", 8, 300, False),
     (950114, 479168, 38070, 66741, 950114, 479168, 38070, 66741, 1342)),
    (("b", "word", "dcw", True, False, "lazy", 4, 300, True),
     (652619, 471860, 16765, 31832, 652619, 471860, 16765, 31832, 1953)),
    (("a", "word", "pw", False, False, "lazy", 4, 300, False),
     (514359, 140704, 4435, 18593, 514359, 140704, 4435, 18593, 1400)),
    (("d", "word", "pw", True, False, "eager", 8, 300, True),
     (1759855, 65612, 14913, 55441, 1759855, 65612, 14913, 55441, 3848)),
    (("a", "word", "bcw", True, True, "lazy", 8, 400, False),
     (557901, 634622, 44799, 83690, 557901, 456052, 17594, 37549, 1938)),
    (("d", "word", "bcw", False, False, "eager", 4, 300, False),
     (294086, 147360, 25584, 40334, 294086, 147360, 25584, 40334, 1717)),
    (("a", "bit_interleaved", "naive", False, False, "lazy", 8, 300, False),
     (341248, 263104, 77046, 105717, 2666, 4111, 2434, 105717, 1342)),
    (("c", "bit_interleaved", "dcw", True, False, "eager", 4, 300, True),
     (1525120, 468418, 15981, 30401, 25279, 15813, 15981, 30401, 1854)),
    (("d", "bit_interleaved", "bcw", True, True, "lazy", 8, 400, False),
     (1427840, 364554, 54751, 94391, 20023, 7236, 4712, 6193, 2388)),
    (("a", "bit_interleaved", "bcw", False, True, "eager", 4, 300, True),
     (893504, 334432, 38203, 58562, 13961, 10451, 4897, 6350, 2889)),
]

KEYS = ("shift", "detect", "remove", "inject", "shift_steps", "detect_steps",
        "remove_steps", "inject_steps")


@pytest.mark.parametrize("case,want", GOLDEN,
                         ids=["-".join(map(str, c)) for c, _ in GOLDEN])
def test_golden_counters(case, want):
    workload, mapping, strategy, encoding, parallel, policy, wb, n, small = case
    cfg = ExperimentConfig(
        workload=workload, mapping=mapping, entries=n, word_bytes=wb,
        shift_policy=policy,
        tree=TreeConfig(strategy=strategy, encoding=encoding,
                        parallel_ports=parallel, **(SMALL if small else {})))
    # the checks leave the report as it is: it is the run's own, taken
    # before the audit's flush
    reports = (run_single(cfg, check_oracle=True, audit=True), run_single(cfg))
    got = [tuple(getattr(r, k) for k in KEYS) + (r.extra["kv_writes"],)
           for r in reports]
    assert got == [want, want]
