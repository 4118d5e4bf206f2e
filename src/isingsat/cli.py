"""Command-line entry point.

Four subcommands: generate (the formula of each instance a spec names),
preprocess (the simplification ladder on one instance; ``--level 1`` gives
the implication-form encoding of a multiplier's gates), solve (decompose +
anneal, single cell or config-file sweep) and report (per cell of
runs.jsonl, solved-% and time to solution, charging every repeat the
iterations it ran, at the cap and at the best cutoff below it, written to
aggregates.csv and printed; plus runtime plot data).
Every command that reads an instance takes it one way: ``-i`` with a spec
of ``harness.SPEC_FORMS``, a bare DIMACS path among them.  generate writes
one instance to ``-o`` or each instance to ``--dir`` as
``<instance id>.cnf``, the id that solve records.  Each value of solve is
set one way: ``-i/--instance`` takes the instance, ``-o`` the runs file
(``results/runs.jsonl`` when left out), and every other setting a flag or,
with ``--sweep``, the config file.
Bad input (a malformed file or spec, an out-of-range value, a file that
cannot be read, a flag given twice, a flag that another one overrides or
that does not apply, an output that names an input or another output)
ends in one ``isingsat: error: ...`` line and exit status 2, before any
file is written.  One case still writes first: a formula that a repeat
rejects, such as one left with a clause wider than 3 after the ladder,
ends a sweep at the first cell that meets it, after the records of the
cells before it.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

from .cnf import write_dimacs
from .decompose import STRATEGIES, iterate
from .preprocess import ConditionRecord, MAX_LEVEL, run_ladder
from .harness import (SPEC_FORMS, SweepConfig, aggregate_records,
                      expand_instances, load_records, load_timings,
                      open_runs_file, run_experiment, runtime_report,
                      spec_file, timings_path_for, write_csv)
from .solver import BACKENDS


DEFAULT_OUTPUT = "instance.cnf"  # what generate writes without -o or --dir
DEFAULT_RUNS = "results/runs.jsonl"  # where solve appends its records
RUNTIME_PLOT = Path("plotdata", "runtime_by_level.csv")  # report's, beside -o


def _refuse_overwrites(reads, writes) -> None:
    """Refuse a command that would write over one of its inputs or write one
    file twice; ``reads`` and ``writes`` are (role, path or None) pairs."""
    seen = {Path(path).resolve(): role for role, path in reads if path}
    for role, path in filter(lambda pair: pair[1], writes):
        key = Path(path).resolve()
        if key in seen:
            raise ValueError(f"{path} is both {seen[key]} and {role}")
        seen[key] = role


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.dir and args.output:
        raise ValueError("--dir names every file it writes; drop -o/--output")
    instances = expand_instances(args.instance)
    if len(instances) > 1 and not args.dir:
        raise ValueError(f"{args.instance} names {len(instances)} instances; "
                         "give --dir to write one file each")
    paths = [Path(args.dir, f"{instance_id}.cnf") if args.dir
             else Path(args.output or DEFAULT_OUTPUT) for instance_id, _ in instances]
    flag = "--dir" if args.dir else "-o/--output"
    _refuse_overwrites([("-i/--instance", spec_file(args.instance))],
                       [(flag, path) for path in paths])
    if args.dir:
        Path(args.dir).mkdir(parents=True, exist_ok=True)
    for (instance_id, cnf), path in zip(instances, paths):
        path.write_text(write_dimacs(cnf, comments=[
            f"{instance_id} from spec {args.instance}"]))
        print(f"wrote {path}: n={cnf.num_vars} m={cnf.num_clauses}")
    return 0


def _condition_json(cond: tuple[ConditionRecord, ...]) -> str:
    rows = [dataclasses.asdict(r) for r in cond]
    return json.dumps(rows, indent=1)


def _cmd_preprocess(args: argparse.Namespace) -> int:
    instances = expand_instances(args.input)
    if len(instances) > 1:
        raise ValueError(f"{args.input} names {len(instances)} instances; "
                         "preprocess takes one")
    [(_id, cnf)] = instances
    outputs = {"-o/--output": args.output, "--cond": args.cond, "--report": args.report}
    _refuse_overwrites([("-i/--input", spec_file(args.input))], outputs.items())
    for name in filter(None, outputs.values()):
        folder = Path(name).parent
        if not folder.is_dir():
            raise ValueError(f"cannot write {name}: no directory {folder}")
    res = run_ladder(cnf, level=args.level, seed=args.seed)
    Path(args.output).write_text(write_dimacs(res.cnf))
    if args.cond:
        Path(args.cond).write_text(_condition_json(res.condition))
    if args.report:
        rows = [{"pass": r.name, "vars_remaining": r.vars_after,
                 "clauses_remaining": r.clauses_after,
                 "wall_time": round(r.wall_time, 6)} for r in res.reports]
        Path(args.report).write_text(json.dumps(rows, indent=1))
    print(f"level {args.level}: {cnf.num_vars} vars / {cnf.num_clauses} clauses "
          f"-> {res.vars_remaining} vars / {res.cnf.num_clauses} clauses"
          + (" [UNSAT residual]" if res.cnf.is_unsat_marked() else ""))
    return 0


_LIST_FLAGS = {"levels": "--level", "strategies": "--strategy",
               "backends": "--backend"}


def _cmd_solve(args: argparse.Namespace) -> int:
    # a setting flag left out is None, so SweepConfig supplies its default
    given = {k: v for k, v in vars(args).items()
             if k in SweepConfig.__dataclass_fields__ and v is not None}
    if args.sweep:
        clash = [*(["-i/--instance"] if args.instance else []),
                 *(_LIST_FLAGS.get(k, "--" + k.replace("_", "-")) for k in given)]
        if clash:
            raise ValueError("--sweep takes the instances and every setting "
                             f"from its file; drop {', '.join(clash)}")
        config = SweepConfig.from_file(args.sweep)
    else:
        if not args.instance:
            raise ValueError("solve needs -i/--instance or --sweep")
        config = SweepConfig(instances=[args.instance], **given)
    runs = Path(args.output)
    _refuse_overwrites(
        [("--sweep", args.sweep),
         *(("an instance file", spec_file(spec)) for spec in config.instances)],
        [("-o/--output", runs),
         ("the timings file of -o/--output", timings_path_for(runs)),
         ("--trace", args.trace)])
    if args.trace:
        # replays the first repeat up to its first solver call; every spec
        # is expanded first, so a bad one writes no trace
        instances = [pair for spec in config.instances
                     for pair in expand_instances(spec)]
        cnf = instances[0][1]
        res = run_ladder(cnf, level=config.levels[0], seed=config.seed)
        run = iterate(res.cnf, res.condition, cnf, strategy=config.strategies[0],
                      backend=config.backends[0], budget=config.budget, cap=1,
                      seed=config.seed, num_samples=config.num_samples,
                      collect_trace=True)
        if not run.trace:
            raise ValueError("--trace dumps the anneal trace of the first "
                             "repeat's first solver call, but it records none "
                             "(the backend is tabu, or the repeat makes no "
                             "solver call); drop --trace")
        # a malformed runs file, or one this sweep may not resume, writes no trace
        open_runs_file(runs, config, [iid for iid, _ in instances])
        with Path(args.trace).open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["sweep", "temperature", "best_energy"])
            w.writerows(run.trace)
        print(f"anneal trace of the first solver call -> {args.trace}")

    def progress(rec):
        status = "solved" if rec.solved else f"failed ({rec.reason})"
        print(f"  {rec.instance} L{rec.level} {rec.strategy}/{rec.backend} "
              f"seed={rec.seed}: {status} in {rec.iterations_used} iterations")

    records = run_experiment(config, runs.parent, runs.name, progress=progress)
    solved = sum(r.solved for r in records)
    print(f"{solved}/{len(records)} repeats solved -> {runs}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    runs, out_csv = Path(args.input), Path(args.output)
    timings_path, plot_path = timings_path_for(runs), out_csv.parent / RUNTIME_PLOT
    _refuse_overwrites(
        [("-i/--input", runs), ("the timings file of -i/--input", timings_path)],
        [("-o/--output", out_csv), ("the plot data", plot_path)])
    records = load_records(runs)
    if not records:
        print("no records", file=sys.stderr)
        return 1
    # read every input before the first file is written
    timings = load_timings(timings_path)
    plot_path.parent.mkdir(exist_ok=True)  # -o's directory must exist
    rows = aggregate_records(records)
    write_csv(rows, out_csv)
    write_csv(runtime_report(records, timings), plot_path)
    # the rows as written, under their column names; an empty cell prints "-"
    table = [list(rows[0]), *([str(v) or "-" for v in row.values()] for row in rows)]
    widths = [max(map(len, column)) for column in zip(*table)]
    for line in table:
        print("  ".join(map(str.ljust, line, widths)).rstrip())
    print(f"aggregates -> {out_csv}")
    print(f"plot data  -> {plot_path}")
    return 0


class _StoreOnce(argparse.Action):
    """argparse's default store action, refusing a flag given twice in one
    parse (an abbreviation counts as its flag): otherwise the last one would
    win.  A default is set without the action, so it never counts."""

    namespace = None  # the namespace of the parse that last stored the flag

    def __call__(self, parser, namespace, values, option_string=None):
        if self.namespace is namespace:
            raise argparse.ArgumentError(self, "given more than once")
        self.namespace = namespace
        setattr(namespace, self.dest, values)


class _Parser(argparse.ArgumentParser):
    """A parser, and through ``parser_class`` its subparsers, whose
    rejections (a bad flag value, an unknown flag, a flag given twice) are
    one error line."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.register("action", None, _StoreOnce)

    def error(self, message: str):
        self.exit(2, f"isingsat: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="isingsat",
        description="factorization CNFs, preprocessing ladder, and "
                    "spin-budgeted decomposition on an emulated Ising annealer")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write the formula of each instance "
                       "a spec names")
    g.add_argument("-i", "--instance", required=True, help=SPEC_FORMS)
    g.add_argument("-o", "--output", help=f"output file (default {DEFAULT_OUTPUT})")
    g.add_argument("--dir", help="directory for one <instance id>.cnf per "
                   "instance; needed when the spec names more than one")
    g.set_defaults(func=_cmd_generate)

    pre = sub.add_parser("preprocess", help="run the simplification ladder "
                         "(--level 1 gives the implication-form encoding)")
    pre.add_argument("-i", "--input", required=True,
                     help=f"one instance: {SPEC_FORMS}")
    pre.add_argument("--level", type=int, default=MAX_LEVEL,
                    help=f"cumulative ladder level 0..{MAX_LEVEL}")
    pre.add_argument("--seed", type=int, default=SweepConfig.seed)
    pre.add_argument("-o", "--output", required=True)
    pre.add_argument("--cond", help="write the condition list as JSON")
    pre.add_argument("--report", help="write per-pass statistics as JSON")
    pre.set_defaults(func=_cmd_preprocess)

    # a setting's dest is its SweepConfig field and its help shows that
    # field's default; a list field takes one value (nargs=1)
    s = sub.add_parser("solve", help="preprocess + decompose + solve repeats")
    s.add_argument("-i", "--instance",
                   help="instance spec, e.g. semiprime:8:143, or a DIMACS file")
    s.add_argument("--sweep", help="JSON sweep config (full factorial); "
                                   "takes no instance or setting flag")
    dflt = {f.name: "default: " + str(f.default_factory()
                                      if f.default is dataclasses.MISSING
                                      else f.default)
            for f in dataclasses.fields(SweepConfig) if f.name != "instances"}
    s.add_argument("--strategy", dest="strategies", nargs=1, choices=STRATEGIES,
                   help=dflt["strategies"])
    s.add_argument("--backend", dest="backends", nargs=1, choices=BACKENDS,
                   help=dflt["backends"])
    s.add_argument("--level", dest="levels", nargs=1, type=int, metavar="LEVEL",
                   help=f"0..{MAX_LEVEL}, {dflt['levels']}")
    s.add_argument("--budget", type=int, help=f"spins per slice, {dflt['budget']}")
    s.add_argument("--cap", type=int, help=f"iterations per repeat, {dflt['cap']}")
    s.add_argument("--repeats", type=int, help=dflt["repeats"])
    s.add_argument("--seed", type=int, help=dflt["seed"])
    s.add_argument("--num-samples", type=int,
                   help=f"chip reads per solver call, {dflt['num_samples']}")
    s.add_argument("-o", "--output", default=DEFAULT_RUNS,
                   help=f"runs file, default: {DEFAULT_RUNS}")
    s.add_argument("--trace", help="CSV dump of the anneal trace of the first "
                   "repeat's first solver call, written before the sweep; "
                   "refused when it makes none (tabu, or a ladder that "
                   "solves it)")
    s.set_defaults(func=_cmd_solve)

    r = sub.add_parser("report", help="per cell: solved-%%, mean iterations "
                       "charged and TTS at the cap, then the best cutoff with "
                       "its solved-%% and TTS; writes the table to -o and "
                       "prints it, plus runtime plot data")
    r.add_argument("-i", "--input", required=True, help="runs.jsonl")
    r.add_argument("-o", "--output", default="aggregates.csv")
    r.set_defaults(func=_cmd_report)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # DimacsError is a ValueError
        print(f"isingsat: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
