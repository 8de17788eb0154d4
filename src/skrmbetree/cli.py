"""Command line front end.

Three subcommands:

run           one workload/configuration comparison (baseline first)
write-counts  pair-write totals of a plain B-tree vs the buffered tree
sweep         run grid over dataset sizes and word sizes
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from .bench import emit, run_experiment, run_sweep
from .btree import write_count_series
from .config import (BOOL_WORDS, ExperimentConfig, apply_file_settings,
                     read_config_file)
from .errors import SimError


def _onoff(text: str) -> bool:
    try:
        return BOOL_WORDS[text.lower()]
    except KeyError:
        raise argparse.ArgumentTypeError(
            f"expected on or off, got {text!r}") from None


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated ints: {text!r}")


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="FILE",
                   help="key = value settings file applied before flags")
    p.add_argument("--workload", choices=list("abcdef"))
    p.add_argument("--mapping", choices=["word", "bit", "bit_interleaved"])
    p.add_argument("--strategy", choices=["naive", "dcw", "pw", "bcw"])
    p.add_argument("--encoding", type=_onoff, metavar="on|off")
    p.add_argument("--parallel-ports", type=_onoff, metavar="on|off")
    p.add_argument("--entries", type=int)
    p.add_argument("--ops", type=int, help="operation-phase length (default: entries)")
    p.add_argument("--word-bytes", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--check", action="store_true",
                   help="verify reads against an in-memory oracle and audit the tree")
    p.add_argument("--out", metavar="FILE", help="write here instead of stdout")
    p.add_argument("--format", choices=["csv", "json"], default="csv")


def build_config(args) -> ExperimentConfig:
    cfg = ExperimentConfig()
    if args.config:
        cfg = apply_file_settings(cfg, read_config_file(args.config))
    # flags override the file, overlaid the same way
    flags = {"workload": args.workload,
             "mapping": ("bit_interleaved" if args.mapping == "bit"
                         else args.mapping),
             "entries": args.entries, "op_count": args.ops,
             "word_bytes": args.word_bytes, "seed": args.seed,
             "strategy": args.strategy, "encoding": args.encoding,
             "parallel_ports": args.parallel_ports}
    return apply_file_settings(
        cfg, {key: value for key, value in flags.items() if value is not None})


def _deliver(text: str, out) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_run(args) -> int:
    cfg = build_config(args)
    reports = run_experiment(cfg, check_oracle=args.check, audit=args.check)
    _deliver(emit(reports, args.format), args.out)
    return 0


def cmd_sweep(args) -> int:
    cfg = build_config(args)
    reports = run_sweep(cfg, entries_grid=args.entries_grid,
                        word_bytes_grid=args.word_bytes_grid,
                        check_oracle=args.check, audit=args.check)
    _deliver(emit(reports, args.format), args.out)
    return 0


def cmd_write_counts(args) -> int:
    decades = [10 ** e for e in range(3, 7) if 10 ** e <= args.n]
    samples = sorted(set(decades + [args.n]))
    rows = write_count_series(samples, args.seed, args.node_capacity)
    if args.format == "json":
        text = json.dumps(rows, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(
            buf, fieldnames=["n_inserts", "btree_writes", "betree_writes",
                             "ratio"],
            lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({**row, "ratio": repr(row["ratio"])})
        text = buf.getvalue()
    _deliver(text, args.out)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="skrmbetree",
        description="Skyrmion racetrack memory simulator with a buffered "
                    "key-value tree on top")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="one workload comparison")
    _add_run_flags(p_run)
    p_run.set_defaults(fn=cmd_run)

    p_sweep = sub.add_parser("sweep", help="grid over sizes and word widths")
    _add_run_flags(p_sweep)
    p_sweep.add_argument("--entries-grid", type=_int_list,
                         default=[10**3, 10**4, 10**5, 10**6],
                         metavar="N,N,...")
    p_sweep.add_argument("--word-bytes-grid", type=_int_list,
                         default=[4, 8, 16, 32], metavar="K,K,...")
    p_sweep.set_defaults(fn=cmd_sweep)

    p_wc = sub.add_parser("write-counts",
                          help="B-tree vs buffered-tree pair-write totals")
    p_wc.add_argument("--n", type=int, default=10**6)
    p_wc.add_argument("--seed", type=int, default=42)
    p_wc.add_argument("--node-capacity", type=int, default=16)
    p_wc.add_argument("--out", metavar="FILE")
    p_wc.add_argument("--format", choices=["csv", "json"], default="csv")
    p_wc.set_defaults(fn=cmd_write_counts)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except SimError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
