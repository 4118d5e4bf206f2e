"""Pinned benchmark of the sweep path that ``isingsat solve --sweep`` runs.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload factor-anneal --seed 1 --seconds 30 --trace 0

Each repeat goes through ``harness.run_experiment`` with a ``SweepConfig``,
records included, into a fresh temporary directory.  Load is one closed-loop
client in one thread: a repeat starts when the previous one has written its
record.  Every workload has a pinned instance and pinned repeat seeds
1..seeds; ``--seed`` only rotates the order in which they run.

``--trace 0`` runs rounds over the pinned seeds until ``--seconds`` have
passed (at least four rounds).  Each round's records must hash to the same
digest, and to the digest an earlier run of the same code stored.  Solve
quality comes from the records, which are exact.

Other work on a shared host slows a repeat by up to 60%, for minutes at a
time.  So a fixed pure-Python loop is timed before and after every repeat,
and each time is rescaled to a host on which that loop takes ``REF_CAL``
seconds; a seed's time is its median over the rounds.

``--trace 1`` runs the same rounds, but each seed runs twice in a row: plain
and with spans around every layer call, in turns.  It prints the per-layer
metrics and the tracing overhead (traced over plain time, both rescaled as
above).

The last stdout line is the JSON result; the lines above are a summary.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

from bench_stats import (check_digest, declared_metrics, records_digest,
                         result_line, tree_digest)

HERE = Path(__file__).resolve().parent
STATE_DIR = Path(".bench_build") / "perfbench"
RUNS = "runs.jsonl"
MIN_ROUNDS = 4
CAL_LOOPS = 200_000
REF_CAL = 0.020  # seconds the calibration loop takes on an idle 2-CPU host
KERNEL_SECONDS = 1.0
KERNEL_SPINS = (20, 45)


@dataclass(frozen=True)
class Workload:
    spec: str
    level: int
    strategy: str
    backend: str
    budget: int
    num_samples: int
    cap: int
    seeds: int  # repeats per round, with seeds 1..seeds


# Caps and seed counts are sized so one round takes about 2-4 s with the
# pure-Python kernel on a 2-CPU host: a 30 s run then makes 7 or more rounds,
# enough for a steady median per seed.
WORKLOADS: dict[str, Workload] = {
    # The paper's main configuration; the anneal kernel is ~98% of an iteration.
    "factor-anneal": Workload("semiprime:10:551", level=7, strategy="dfs",
                              backend="emulator", budget=45, num_samples=10,
                              cap=6, seeds=2),
    # Largest unreduced formula in small slices: whole-formula glue dominates.
    "slice-glue": Workload("semiprime:16:32881", level=0, strategy="dfs",
                           backend="emulator", budget=20, num_samples=1,
                           cap=60, seeds=2),
    # Width-3 random clauses, BFS, tabu on the unscaled model.
    "backbone-tabu": Workload("backbone:100:429:50", level=7, strategy="bfs",
                              backend="tabu", budget=45, num_samples=1,
                              cap=40, seeds=3),
}


@dataclass
class Block:
    records: list = field(default_factory=list)
    walls: list[float] = field(default_factory=list)  # per repeat, from outside
    cals: list[float] = field(default_factory=list)  # calibration around each
    errors: int = 0


def run_seeds(harness, cfg, seeds: list[int], out_dir: Path, block: Block) -> Block:
    """One repeat per seed, in order, each through ``run_experiment``.

    A repeat's wall time runs from the end of instance generation to the end
    of its record write, as the ``progress`` callback sees it.  A repeat that
    raises is counted in ``block.errors`` and the next seed runs.
    """
    mark = [0.0]
    generate = harness.expand_instances

    def expand(spec):
        out = generate(spec)
        mark[0] = time.perf_counter()
        return out

    def progress(rec):
        block.walls.append(time.perf_counter() - mark[0])
        block.records.append(rec)

    harness.expand_instances = expand
    try:
        before = calibrate()
        for seed in seeds:
            try:
                harness.run_experiment(replace(cfg, seed=seed, repeats=1),
                                       out_dir, RUNS, progress)
            except Exception:  # noqa: BLE001 - a failed repeat is counted, not fatal
                traceback.print_exc()
                block.errors += 1
                continue
            after = calibrate()
            block.cals.append((before + after) / 2)
            before = after
    finally:
        harness.expand_instances = generate
    return block


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes: the host's speed right now."""
    t0 = time.perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(CAL_LOOPS):
        acc += i * i
        table[i & 1023] = acc
    return time.perf_counter() - t0


def per_seed(blocks: list[Block]) -> dict[int, float]:
    """Each seed's median over the blocks of its rescaled ``walls`` entry.

    A wall time is multiplied by REF_CAL over the calibration measured
    around it, which cancels a slowdown that hits both alike.
    """
    times: dict[int, list[float]] = {}
    for block in blocks:
        for rec, wall, cal in zip(block.records, block.walls, block.cals):
            times.setdefault(rec.seed, []).append(wall * REF_CAL / cal)
    return {seed: statistics.median(ts) for seed, ts in times.items()}


def check_records(harness, block: Block, path: Path, w: Workload) -> list[str]:
    """Problems with a block's records; empty when they are consistent."""
    problems = []
    written = [r.to_json() for r in harness.load_records(path)] if path.exists() else []
    if written != [r.to_json() for r in block.records]:
        problems.append("runs.jsonl does not round-trip the returned records")
    for r in block.records:
        if r.iterations_used > w.cap or r.best_satisfied > r.num_clauses:
            problems.append(f"record out of range: {r.key}")
        if r.solved != (r.best_satisfied == r.num_clauses) or r.solved != r.verified:
            problems.append(f"solved/verified/satisfied disagree: {r.key}")
    return problems


def setup_time(spec: str) -> float:
    """Process start to generated instance, in a fresh interpreter.

    ``wait`` blocks without a timeout because a timed wait polls in 50 ms
    steps; a timer kills a probe that hangs instead.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "setup_probe.py"), spec])
    killer = threading.Timer(120, proc.kill)
    killer.start()
    try:
        code = proc.wait()
    finally:
        killer.cancel()
    if code:
        raise RuntimeError(f"setup probe exited with {code}")
    return time.perf_counter() - t0


def kernel_rate(mod, n: int, seconds: float) -> tuple[float, list]:
    """Spin updates/s of ``mod.anneal`` on the model ``isingsat bench`` builds."""
    from isingsat.solver import _kernels_py as pure

    rng = random.Random(3)
    jd = [0.0] * (n * n)
    for i in range(n):
        for q in range(i + 1, n):
            v = float(rng.randint(-7, 7))
            jd[i * n + q] = v
            jd[q * n + i] = v
    h = [float(rng.randint(-5, 5)) for _ in range(n)]
    sweeps = 500
    outs = []
    t0 = time.perf_counter()
    while True:
        outs.append(mod.anneal(n, jd, h, sweeps, 10.0, 0.05,
                               pure.mix_seed(3, len(outs)), False))
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds and len(outs) >= 3:
            return len(outs) * n * sweeps / elapsed, outs


def kernel_metrics() -> tuple[dict[str, float], list[str]]:
    """Pure and selected kernel rates at 20 and 45 spins, and their parity."""
    from isingsat.solver import _kernels_py as pure
    from isingsat.solver import kernels

    out: dict[str, float] = {"kernel.compiled": float(kernels.COMPILED_KERNELS)}
    problems = []
    for n in KERNEL_SPINS:
        pure_rate, pure_outs = kernel_rate(pure, n, KERNEL_SECONDS)
        out[f"kernel.pure_updates_per_s_n{n}"] = pure_rate
        if kernels.anneal is pure.anneal:
            out[f"kernel.selected_updates_per_s_n{n}"] = pure_rate
            continue
        sel_rate, sel_outs = kernel_rate(kernels, n, KERNEL_SECONDS)
        out[f"kernel.selected_updates_per_s_n{n}"] = sel_rate
        for (ps, pe, _), (cs, ce, _) in zip(pure_outs, sel_outs):
            if pe != ce or list(ps) != list(cs):
                problems.append(f"compiled and pure anneal differ at {n} spins")
                break
    return out, problems


def unit_of(name: str) -> str:
    if "_ms" in name:
        return "ms"
    if "_per_s" in name:
        return "1/s"
    if name in ("preprocess.vars_remaining", "trace.spans"):
        return "count"
    if name == "kernel.compiled":
        return "flag"
    return "frac"


def git_commit(root: Path) -> str:
    """HEAD of the checkout's git directory, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")

    root = Path.cwd()
    src = root / "src"
    if not (src / "isingsat" / "__init__.py").is_file():
        print(f"perfbench: no isingsat sources under {src}", file=sys.stderr)
        return 2
    bench = json.loads((root / "BENCHMARK.json").read_text())
    declared = declared_metrics(bench, "per_layer" if args.trace else "end_to_end")
    sys.path.insert(0, str(src))
    import isingsat
    from isingsat import harness
    from isingsat.solver import kernels

    if not Path(isingsat.__file__).resolve().is_relative_to(src.resolve()):
        print(f"perfbench: imported isingsat from {isingsat.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload]
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "config": w.__dict__,
        "kernel_impl": "compiled" if kernels.COMPILED_KERNELS else "pure",
        "isingsat_version": isingsat.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "git_commit": git_commit(root),
    }
    print("meta " + json.dumps(meta, sort_keys=True), flush=True)

    cfg = harness.SweepConfig(
        instances=[w.spec], levels=[w.level], strategies=[w.strategy],
        backends=[w.backend], cap=w.cap, budget=w.budget,
        num_samples=w.num_samples)
    k = args.seed % w.seeds
    order = list(range(1, w.seeds + 1))
    order = order[k:] + order[:k]
    state = root / STATE_DIR
    state.mkdir(parents=True, exist_ok=True)

    problems: list[str] = []
    setups: list[float] = []
    plain: list[Block] = []
    traced: list[Block] = []
    missing: list[str] = []
    if args.trace:
        from bench_trace import Tracer, layer_metrics, repeat_self_sums

        tracer = Tracer()
    else:
        # This probe fills the bytecode cache, which users pay once per
        # install, so it is not counted.  The counted probes sit between
        # rounds, so they sample the host as the rounds do.
        setup_time(w.spec)
    with tempfile.TemporaryDirectory(dir=state) as tmp:
        deadline = time.perf_counter() + args.seconds
        last = 0.0
        while len(plain) < MIN_ROUNDS or time.perf_counter() + last <= deadline:
            t0 = time.perf_counter()
            out = Path(tmp) / str(len(plain))
            plain.append(Block())
            if not args.trace:
                before = calibrate()
                probe = setup_time(w.spec)
                setups.append(probe * REF_CAL * 2 / (before + calibrate()))
                run_seeds(harness, cfg, order, out / "plain", plain[-1])
            else:
                # Plain and traced repeats alternate seed by seed, and every
                # other round runs the traced one first, so drift in machine
                # speed hits both sides of the overhead alike.
                traced.append(Block())
                for seed in order:
                    for kind in ("plain", "traced")[::1 if len(plain) % 2 else -1]:
                        if kind == "plain":
                            run_seeds(harness, cfg, [seed], out / kind, plain[-1])
                            continue
                        with tracer.installed() as missing:
                            run_seeds(harness, cfg, [seed], out / kind, traced[-1])
            last = time.perf_counter() - t0
        digests = []
        written = [(Path(tmp) / str(i) / kind / RUNS, block)
                   for kind, blocks in (("plain", plain), ("traced", traced))
                   for i, block in enumerate(blocks)]
        for path, block in written:
            problems += check_records(harness, block, path, w)
            digests.append(records_digest(path) if path.exists() else "")
    if len(set(digests)) != 1:
        problems.append(f"records differ between rounds of this run: {digests}")
    code_key = f"{tree_digest(src)}|{json.dumps(w.__dict__, sort_keys=True)}"
    stored = check_digest(state / "digests.json", code_key, digests[0])
    if stored:
        problems.append(f"records digest {digests[0]} differs from {stored}, "
                        "stored by an earlier run of the same code")
    first = sorted(plain[0].records, key=lambda r: r.seed)
    if [r.seed for r in first] != list(range(1, w.seeds + 1)):
        problems.append(f"round 0 wrote {len(first)} of {w.seeds} records")
    if missing:
        print("hooks missing: " + ", ".join(missing), flush=True)

    failed = sum(b.errors for b in plain + traced)
    attempted = sum(len(b.records) for b in plain + traced) + failed
    solved = sum(r.solved for r in first)
    unsat_left = [r.num_clauses - r.best_satisfied for r in first]
    typical = per_seed(plain)
    cals = [c for b in plain + traced for c in b.cals]
    print("records " + json.dumps({
        "seeds": w.seeds, "cap": w.cap, "solved": solved,
        "unsat_left": unsat_left, "digest": digests[0]}), flush=True)
    print(f"timed: {len(plain)} rounds of {w.seeds} repeats; calibration median "
          f"{statistics.median(cals) * 1000:.1f} ms; rescaled median per seed "
          + ", ".join(f"{s}: {t:.3f} s" for s, t in sorted(typical.items())),
          flush=True)

    if args.trace:
        traced_records = [r for b in traced for r in b.records]
        plain_records = [r for b in plain for r in b.records]
        metrics = layer_metrics(tracer.spans, min(w.budget, 45),
                                [x for b in traced for x in b.walls])
        metrics["trace.overhead_frac"] = (
            sum(per_seed(traced).values()) / sum(typical.values()) - 1)
        self_sums = per_seed([Block(traced_records, repeat_self_sums(tracer.spans),
                                    [c for b in traced for c in b.cals])])
        inner = per_seed([Block(plain_records, [r.wall_time for r in plain_records],
                                [c for b in plain for c in b.cals])])
        metrics["trace.self_sum_excess_frac"] = (
            sum(self_sums.values()) / sum(inner.values()) - 1)
        metrics["host.cal_ms_p50"] = 1000 * statistics.median(cals)
        kmetrics, kproblems = kernel_metrics()
        metrics.update(kmetrics)
        problems += kproblems
        units = {name: unit_of(name) for name in metrics}
        counts: dict[str, int] = {}
        for span in tracer.spans:
            counts[span.name] = counts.get(span.name, 0) + 1
        print("spans: " + ", ".join(f"{k} {v}" for k, v in sorted(counts.items())))
        for name in sorted(metrics):
            print(f"  {name:44} {metrics[name]:14.6g} {units[name]}")
    else:
        iters = {r.seed: r.iterations_used for b in plain for r in b.records}
        metrics = {
            "iters_per_s": sum(iters[s] for s in typical) / sum(typical.values()),
            "repeat_s_p50": statistics.median(typical.values()),
            "setup_s": statistics.median(setups),
            "solve_rate_est": (solved + 1) / (w.seeds + 2),
            "unsat_left_mean": statistics.fmean(unsat_left),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {"iters_per_s": "1/s", "repeat_s_p50": "s", "setup_s": "s",
                 "solve_rate_est": "frac", "unsat_left_mean": "count",
                 "peak_rss_mb": "MB"}
    for msg in problems:
        print("FAIL " + msg, flush=True)
    print(result_line(not problems and failed == 0, attempted, failed,
                      {k: (v, units[k]) for k, v in metrics.items()}, declared))
    return 1 if problems or failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
