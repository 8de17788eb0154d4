"""Command line front end.

Three subcommands:

run           one workload/configuration comparison (baseline first)
write-counts  pair-write totals of a plain B-tree vs the buffered tree
sweep         run grid over dataset sizes and word sizes
"""

from __future__ import annotations

import argparse
import contextlib
import sys

from .bench import emit, format_rows, run_experiment, run_sweep, sweep_points
from .btree import write_count_series
from .config import (BOOL_WORDS, MAPPINGS, STRATEGIES, ExperimentConfig,
                     apply_file_settings, read_config_file)
from .errors import ConfigError, SimError
from .workload import MIXES


def _onoff(text: str) -> bool:
    try:
        return BOOL_WORDS[text.lower()]
    except KeyError:
        raise argparse.ArgumentTypeError(
            f"expected on or off, got {text!r}") from None


def _int_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(f"expected comma-separated ints: {text!r}")
    return values


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="FILE",
                   help="key = value settings file applied before flags")
    p.add_argument("--workload", choices=sorted(MIXES))
    p.add_argument("--mapping", choices=[*MAPPINGS, "bit"])
    p.add_argument("--strategy", choices=STRATEGIES)
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


def build_config(args, **overrides) -> ExperimentConfig:
    """The config the settings file, then the flags, then `overrides` (a
    sweep's first grid point) give, built once: a check that spans
    fields sees only the finished config."""
    flags = {"workload": args.workload,
             "mapping": ("bit_interleaved" if args.mapping == "bit"
                         else args.mapping),
             "entries": args.entries, "op_count": args.ops,
             "word_bytes": args.word_bytes, "seed": args.seed,
             "strategy": args.strategy, "encoding": args.encoding,
             "parallel_ports": args.parallel_ports, **overrides}
    return apply_file_settings(
        ExperimentConfig(),
        read_config_file(args.config) if args.config else {},
        {key: value for key, value in flags.items() if value is not None})


def _output(path):
    """The file `--out` names, opened for writing, or stdout without one.
    Each command opens it before it simulates anything, so a path that
    cannot be written fails at once rather than after a long run; as with
    a shell redirection, the file is emptied when the command starts."""
    if not path:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w")
    except OSError as exc:
        raise ConfigError(f"cannot write --out {path}: {exc.strerror}") from None


def cmd_run(args) -> int:
    cfg = build_config(args)
    with _output(args.out) as out:
        out.write(emit(run_experiment(cfg, check_oracle=args.check,
                                      audit=args.check), args.format))
    return 0


def cmd_sweep(args) -> int:
    # the grid sets entries and word size, so the base config takes them
    # from its first point; a bad point fails here, before --out is emptied
    cfg = build_config(args, entries=args.entries_grid[0],
                       word_bytes=args.word_bytes_grid[0])
    sweep_points(cfg, args.entries_grid, args.word_bytes_grid)
    with _output(args.out) as out:
        out.write(emit(run_sweep(cfg, entries_grid=args.entries_grid,
                                 word_bytes_grid=args.word_bytes_grid,
                                 check_oracle=args.check, audit=args.check),
                       args.format))
    return 0


def cmd_write_counts(args) -> int:
    if args.n < 1:
        raise ConfigError("--n must be >= 1")
    if args.node_capacity < 4:
        raise ConfigError("--node-capacity must be >= 4")
    decades = [10 ** e for e in range(3, 7) if 10 ** e <= args.n]
    samples = sorted(set(decades + [args.n]))
    with _output(args.out) as out:
        out.write(format_rows(
            write_count_series(samples, args.seed, args.node_capacity),
            args.format,
            ["n_inserts", "btree_writes", "betree_writes", "ratio"]))
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
