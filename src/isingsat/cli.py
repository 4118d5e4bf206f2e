"""Command-line entry point.

Subcommands: generate (semiprime or backbone CNFs), preprocess (simplification
ladder), solve (decompose + anneal, single cell or config-file sweep), tts
(time-to-solution from runs.jsonl), report (aggregates + runtime plot data).
Each value of solve is set one way: ``-i/--instance`` takes a spec or a
DIMACS file, ``-o`` the runs file (``results/runs.jsonl`` when left out),
and every other setting a flag or, with ``--sweep``, the config file.
Bad input (a malformed file or spec, an out-of-range value, a file that
cannot be read, a flag that another one overrides or that does not apply)
ends in one ``isingsat: error: ...`` line and exit status 2, before any
file is written.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

from .circuit import EncodingOption, generate_instance, semiprime_catalog
from .cnf import parse_dimacs, write_dimacs
from .decompose import STRATEGIES
from .preprocess import ConditionRecord, MAX_LEVEL, run_ladder
from .harness import (BackboneSpec, SweepConfig, aggregate_records,
                      expand_instances, generate_backbone_instance,
                      load_records, load_timings, preprocess_and_decompose,
                      run_experiment, timings_path_for, write_aggregates,
                      write_runtime_report)
from .solver import BACKENDS


DEFAULT_OUTPUT = "instance.cnf"  # what generate writes without -o or --dir
DEFAULT_RUNS = "results/runs.jsonl"  # where solve appends its records


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.backbone:
        clash = [f"--{dest}" for dest in ("bits", "semiprime", "all", "option", "dir")
                 if getattr(args, dest) is not None]
        if clash:
            raise ValueError("--backbone writes one random 3SAT formula to -o; "
                             f"drop {', '.join(clash)}")
        n, m, percent = args.backbone
        spec = BackboneSpec(n=n, m=m, b=percent / 100.0)
        cnf = generate_backbone_instance(spec, 0 if args.seed is None else args.seed)
        output = args.output or DEFAULT_OUTPUT
        Path(output).write_text(write_dimacs(cnf))
        print(f"wrote {output}: n={cnf.num_vars} m={cnf.num_clauses}")
        return 0
    if args.bits is None:
        raise ValueError("generate needs --bits or --backbone")
    if args.seed is not None:
        raise ValueError("a semiprime formula is not random; drop --seed")
    if args.all and args.semiprime is not None:
        raise ValueError("--all writes every semiprime of the catalog; drop --semiprime")
    if args.dir and args.output:
        raise ValueError("--dir names every file it writes; drop -o/--output")
    if args.all and not args.dir:
        raise ValueError("generate --all needs --dir: every instance would overwrite -o")
    option = EncodingOption.OPTION2 if args.option == 2 else EncodingOption.OPTION1
    # None picks the smallest semiprime of the catalog
    targets = ([c.semiprime for c in semiprime_catalog(args.bits)] if args.all
               else [args.semiprime])
    outdir = Path(args.dir) if args.dir else None
    for number in targets:
        cnf, _nl, inst = generate_instance(args.bits, number, option)
        if outdir:
            outdir.mkdir(parents=True, exist_ok=True)
            path = outdir / f"semiprime-{args.bits:02d}-{number}.cnf"
        else:
            path = Path(args.output or DEFAULT_OUTPUT)
        path.write_text(write_dimacs(cnf, comments=[
            f"product {inst.semiprime} = {inst.p} * {inst.q}",
            f"bits {inst.bit_width}",
        ]))
        print(f"wrote {path}: {inst.semiprime} = {inst.p}*{inst.q}, "
              f"n={cnf.num_vars} m={cnf.num_clauses}")
    return 0


def _condition_json(cond: tuple[ConditionRecord, ...]) -> str:
    rows = [dataclasses.asdict(r) for r in cond]
    return json.dumps(rows, indent=1)


def _cmd_preprocess(args: argparse.Namespace) -> int:
    cnf = parse_dimacs(Path(args.input).read_text())
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
    if args.trace:
        # replays the first repeat up to its first solver call
        _instance_id, cnf = expand_instances(config.instances[0])[0]
        run, _pre_time = preprocess_and_decompose(
            cnf, config, level=config.levels[0], strategy=config.strategies[0],
            backend=config.backends[0], seed=config.seed, cap=1,
            collect_trace=True)
        if not run.trace:
            raise ValueError("--trace dumps the anneal trace of the first "
                             "repeat's first solver call, but it records none "
                             "(the backend is tabu, or the repeat makes no "
                             "solver call); drop --trace")
        with Path(args.trace).open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["sweep", "temperature", "best_energy"])
            w.writerows(run.trace)
        print(f"anneal trace of the first solver call -> {args.trace}")

    def progress(rec):
        status = "solved" if rec.solved else f"failed ({rec.reason})"
        print(f"  {rec.instance} L{rec.level} {rec.strategy}/{rec.backend} "
              f"seed={rec.seed}: {status} in {rec.iterations_used} iterations")

    runs = Path(args.output)
    records = run_experiment(config, runs.parent, runs.name, progress=progress)
    solved = sum(r.solved for r in records)
    print(f"{solved}/{len(records)} repeats solved -> {runs}")
    return 0


def _cmd_tts(args: argparse.Namespace) -> int:
    records = load_records(args.input)
    if not records:
        print("no records", file=sys.stderr)
        return 1
    print(f"{'instance':32} {'lvl':>3} {'strategy':8} {'backend':8} "
          f"{'p':>6} {'t':>9} {'tts':>12}")
    for row in aggregate_records(records):
        print(f"{row['instance']:32} {row['level']:>3} {row['strategy']:8} "
              f"{row['backend']:8} {row['solved'] / row['repeats']:6.2f} "
              f"{row['mean_iterations_solved']:9.2f} {float(row['tts']):12.2f}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    records = load_records(args.input)
    if not records:
        print("no records", file=sys.stderr)
        return 1
    # read every input before the first file is written
    timings = load_timings(timings_path_for(Path(args.input)))
    out_csv = Path(args.output)
    write_aggregates(records, out_csv)
    plot_path = write_runtime_report(records, out_csv.parent, timings)
    print(f"aggregates -> {out_csv}")
    print(f"plot data  -> {plot_path}")
    return 0


class _Parser(argparse.ArgumentParser):
    """A parser, and through ``parser_class`` its subparsers, whose
    rejections (a bad flag value, an unknown flag) are one error line."""

    def error(self, message: str):
        self.exit(2, f"isingsat: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="isingsat",
        description="factorization CNFs, preprocessing ladder, and "
                    "spin-budgeted decomposition on an emulated Ising annealer")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write semiprime or backbone CNFs")
    g.add_argument("--bits", type=int, help="semiprime bit width (4..16)")
    g.add_argument("--semiprime", type=int, help="specific product from the catalog")
    g.add_argument("--all", action="store_true", default=None,
                   help="whole catalog for --bits")
    g.add_argument("--option", type=int, choices=(1, 2),
                   help="OR-gate encoding option (default 1)")
    g.add_argument("--backbone", nargs=3, type=int, metavar=("N", "M", "B"),
                   help="random 3SAT with planted backbone; B an integer percent")
    g.add_argument("--seed", type=int, help="--backbone seed (default 0)")
    g.add_argument("-o", "--output", help=f"output file (default {DEFAULT_OUTPUT})")
    g.add_argument("--dir", help="directory for --all output")
    g.set_defaults(func=_cmd_generate)

    pre = sub.add_parser("preprocess", help="run the simplification ladder")
    pre.add_argument("-i", "--input", required=True)
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
    s.add_argument("--stop-on-solve", action="store_true", default=None,
                   help="stop a cell's repeats after the first success; tts "
                   "and report then read p = 1/k from the k repeats kept, an "
                   "overestimate (0.25 expected for a true p of 0.1 over 20 "
                   "repeats), so leave it off to estimate TTS")
    s.add_argument("-o", "--output", default=DEFAULT_RUNS,
                   help=f"runs file, default: {DEFAULT_RUNS}")
    s.add_argument("--trace", help="CSV dump of the anneal trace of the first "
                   "repeat's first solver call, written before the sweep; "
                   "refused when it makes none (tabu, or a ladder that "
                   "solves it)")
    s.set_defaults(func=_cmd_solve)

    t = sub.add_parser("tts", help="time-to-solution table from runs.jsonl")
    t.add_argument("-i", "--input", required=True)
    t.set_defaults(func=_cmd_tts)

    r = sub.add_parser("report", help="aggregates.csv + runtime plot data")
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
