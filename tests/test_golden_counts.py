"""Golden counters: exact end-to-end output of small checked runs.

Each case replays one workload through ``run_single`` with the oracle and
the audit on, and pins all eight device counters plus the tree's
``kv_writes``. The cases cover both mappings, all four strategies,
encoding on/off, parallel ports on/off, lazy/eager shift policy and 4/8
byte words. A refactor or speed-up must leave every number unchanged; a
change to what gets counted must update this table on purpose.
"""

import pytest

from skrmbetree.bench import run_single
from skrmbetree.config import ExperimentConfig, TreeConfig

SMALL = dict(node_pairs=5, pivot_pairs=2, buffer_pairs=3, element_pairs=4)

# (workload, mapping, strategy, encoding, parallel ports, shift policy,
#  word bytes, entries, small nodes) ->
# (shift, detect, remove, inject,
#  shift_steps, detect_steps, remove_steps, inject_steps, kv_writes)
GOLDEN = [
    (("a", "word", "naive", False, False, "lazy", 8, 300, False),
     (750510, 263104, 86709, 119166, 750510, 263104, 86709, 119166, 1527)),
    (("c", "word", "naive", False, False, "eager", 4, 300, False),
     (954166, 381088, 37763, 53001, 954166, 381088, 37763, 53001, 1117)),
    (("a", "word", "dcw", False, False, "eager", 8, 300, False),
     (1005282, 506752, 42801, 75258, 1005282, 506752, 42801, 75258, 1527)),
    (("b", "word", "dcw", True, False, "lazy", 4, 300, True),
     (788247, 531840, 22078, 49993, 788247, 531840, 22078, 49993, 2684)),
    (("a", "word", "pw", False, False, "lazy", 4, 300, False),
     (558443, 140704, 4914, 20357, 558443, 140704, 4914, 20357, 1566)),
    (("d", "word", "pw", True, False, "eager", 8, 300, True),
     (2157985, 80972, 16717, 73851, 2157985, 80972, 16717, 73851, 4723)),
    (("a", "word", "bcw", True, True, "lazy", 8, 400, False),
     (575519, 670110, 50014, 91605, 575519, 468404, 18433, 40056, 2129)),
    (("d", "word", "bcw", False, False, "eager", 4, 300, False),
     (322438, 161536, 28531, 44114, 322438, 161536, 28531, 44114, 1880)),
    (("a", "bit_interleaved", "naive", False, False, "lazy", 8, 300, False),
     (413568, 263104, 86709, 119166, 3231, 4111, 2745, 119166, 1527)),
    (("c", "bit_interleaved", "dcw", True, False, "eager", 4, 300, True),
     (1832128, 525904, 21181, 47648, 30969, 17914, 21181, 47648, 2552)),
    (("d", "bit_interleaved", "bcw", True, True, "lazy", 8, 400, False),
     (1725568, 405212, 60907, 103404, 23814, 7916, 5153, 6726, 2594)),
    (("a", "bit_interleaved", "bcw", False, True, "eager", 4, 300, True),
     (1157952, 393888, 46571, 76700, 18093, 12309, 6004, 8162, 3691)),
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
    report = run_single(cfg, check_oracle=True, audit=True)
    got = tuple(getattr(report, k) for k in KEYS) + (report.extra["kv_writes"],)
    assert got == want
