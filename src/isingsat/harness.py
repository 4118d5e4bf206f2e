"""Experiment orchestration: instances, repeats, metrics, and persistence.

One *repeat* is the whole flow — preprocess the instance at the requested
level with the repeat's seed (so branch guesses differ between repeats), then
decompose and solve the residual.  An *instance is solved* when any repeat
succeeds, and per-repeat success probability feeds the time-to-solution
estimate.

Records land in an append-only ``runs.jsonl``.  The serialized record
contains only fields that are pure functions of (instance, seed, config) —
re-running a cell reproduces it byte for byte; measured wall-clock times go
to a ``timings.csv`` sidecar keyed by record id instead.  ``solver_time``
stays in the record because it is defined as #solver calls × a configured
per-call time constant, not a measurement.
"""
from __future__ import annotations

import csv
import json
import math
import os
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .circuit import generate_instance, semiprime_catalog
from .cnf import Cnf, brute_force_solutions, make_cnf, parse_dimacs
from .decompose import DecompositionRun, iterate
from .preprocess import MAX_LEVEL, run_ladder
from .qubo import ChipProfile

__all__ = [
    "RunRecord",
    "TtsEstimate",
    "BackboneSpec",
    "BACKBONE_M_GRID",
    "BACKBONE_B_GRID",
    "compute_tts",
    "generate_backbone_instance",
    "expand_instances",
    "run_repeat",
    "run_experiment",
    "load_records",
    "aggregate_records",
    "runtime_report",
    "results_dir",
]

# chip annealing time per solver call is not public; this constant makes
# solver_time a relative, deterministic quantity (configurable in sweeps)
DEFAULT_PER_CALL_TIME = 0.001

RESULTS_ENV = "ISINGSAT_RESULTS"


def results_dir(override: str | None = None) -> Path:
    """Results directory: explicit argument, else $ISINGSAT_RESULTS, else ./results."""
    if override:
        return Path(override)
    return Path(os.environ.get(RESULTS_ENV, "results"))


# ---------------------------------------------------------------------------
# run records


_VOLATILE_FIELDS = ("preprocess_time", "wall_time")  # measured, not derived


@dataclass(frozen=True)
class RunRecord:
    """One repeat of the preprocess→decompose→solve flow."""

    instance: str
    strategy: str
    level: int
    backend: str
    seed: int
    cap: int
    solved: bool
    verified: bool
    iterations_used: int
    solver_calls: int
    best_satisfied: int
    num_clauses: int
    solver_time: float
    reason: str = ""
    preprocess_time: float = 0.0
    wall_time: float = 0.0

    def __post_init__(self) -> None:
        if self.solved and not self.verified:
            raise ValueError("a solved record must be verified")
        if self.iterations_used > self.cap:
            raise ValueError("iterations_used exceeds the cap")

    @property
    def key(self) -> str:
        return f"{self.instance}|{self.level}|{self.strategy}|{self.backend}|{self.seed}"

    def to_json(self) -> str:
        """Canonical serialization: deterministic fields only, sorted keys."""
        d = asdict(self)
        for f in _VOLATILE_FIELDS:
            d.pop(f, None)
        return json.dumps(d, sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_json(line: str) -> "RunRecord":
        return RunRecord(**json.loads(line))


# ---------------------------------------------------------------------------
# time to solution


@dataclass(frozen=True)
class TtsEstimate:
    """Expected iterations to reach a solution with 95% confidence."""

    p: float
    t: float
    tts: float
    num_records: int
    num_solved: int


def compute_tts(records: list[RunRecord]) -> TtsEstimate:
    """p = solved share; t = mean iterations of solved repeats; tts per the
    standard rescaling tts = t * ln(0.05)/ln(1-p), clamped to t when p >= 0.95
    and infinite when nothing solved."""
    if not records:
        raise ValueError("compute_tts needs at least one record")
    total = len(records)
    solved = [r for r in records if r.solved]
    p = len(solved) / total
    t = sum(r.iterations_used for r in solved) / len(solved) if solved else 0.0
    if p == 0.0:
        tts = math.inf
    elif p >= 0.95:
        tts = t
    else:
        tts = t * math.log(0.05) / math.log(1.0 - p)
    return TtsEstimate(p=p, t=t, tts=tts, num_records=total, num_solved=len(solved))


# ---------------------------------------------------------------------------
# controlled-backbone instances


BACKBONE_M_GRID = (403, 411, 418, 423, 429, 435, 441, 449)
BACKBONE_B_GRID = (0.10, 0.30, 0.50, 0.70, 0.90)


@dataclass(frozen=True)
class BackboneSpec:
    """Random-3SAT family with a planted backbone fraction."""

    n: int = 100
    m: int = 403
    b: float = 0.10

    def on_grid(self) -> bool:
        return (self.n == 100 and self.m in BACKBONE_M_GRID
                and any(abs(self.b - g) < 1e-9 for g in BACKBONE_B_GRID))


def _false_lit(v: int, target: dict[int, bool]) -> int:
    return -v if target[v] else v


def _true_lit(v: int, target: dict[int, bool]) -> int:
    return v if target[v] else -v


def generate_backbone_instance(spec: BackboneSpec, seed: int,
                               force: bool = False, max_tries: int = 60,
                               pins_per_var: int = 3) -> Cnf:
    """Random 3SAT satisfied by a hidden target with ~b*n backbone variables.

    Planted variables are pinned along a shuffled chain: each gets implication
    pins (its true literal plus the falsified literals of the next planted
    variables in chain order) and one all-true pin.  The chain makes every
    planted value depend on a path through all the others, so the forcing
    depth grows with the planted count instead of each variable being locally
    rewarded; the all-true pin removes the complemented target, which would
    otherwise satisfy every implication pin and compete as an attractor.  On
    brute-forceable sizes (n <= 24) the instance is rejected until every
    solution agrees with the target on the planted set — the planted set is
    then a subset of the true backbone.  Larger sizes are emitted unchecked.
    Off-grid specs need ``force``.
    """
    if not force and not spec.on_grid():
        raise ValueError(
            f"spec (n={spec.n}, m={spec.m}, b={spec.b}) is outside the "
            "reference grid; pass force to generate anyway")
    if spec.n < 3 or spec.m < 1 or not 0.0 <= spec.b <= 1.0:
        raise ValueError("need n >= 3, m >= 1, 0 <= b <= 1")
    import random

    rng = random.Random(seed)
    all_vars = list(range(1, spec.n + 1))
    k = round(spec.b * spec.n)
    for _attempt in range(max_tries):
        target = {v: bool(rng.getrandbits(1)) for v in all_vars}
        planted = sorted(rng.sample(all_vars, k))
        order = planted[:]
        rng.shuffle(order)
        clauses: list[tuple[int, ...]] = []
        pool = planted if len(planted) >= 3 else all_vars
        for idx, v in enumerate(order):
            others = [u for u in pool if u != v]
            for pin_no in range(pins_per_var):
                if len(clauses) >= spec.m:
                    break
                all_true = pins_per_var >= 2 and pin_no == pins_per_var - 1
                if not all_true and k >= 3:
                    a = order[(idx + 1 + pin_no) % k]
                    b2 = order[(idx + 2 + pin_no) % k]
                    if v in (a, b2) or a == b2:
                        a, b2 = rng.sample(others, 2)
                else:
                    a, b2 = rng.sample(others, 2)
                if all_true:
                    lits = [_true_lit(v, target), _true_lit(a, target),
                            _true_lit(b2, target)]
                else:
                    lits = [_true_lit(v, target), _false_lit(a, target),
                            _false_lit(b2, target)]
                rng.shuffle(lits)
                clauses.append(tuple(lits))
        while len(clauses) < spec.m:
            vs = rng.sample(all_vars, 3)
            lits = [v if rng.getrandbits(1) else -v for v in vs]
            if not any((l > 0) == target[abs(l)] for l in lits):
                pick = rng.randrange(3)
                lits[pick] = _true_lit(abs(lits[pick]), target)
            clauses.append(tuple(lits))
        rng.shuffle(clauses)
        cnf = make_cnf(spec.n, clauses[: spec.m],
                       provenance=f"backbone n={spec.n} m={spec.m} b={spec.b} seed={seed}")
        if spec.n > 24 or not planted:
            return cnf
        sols = brute_force_solutions(cnf)
        if sols and all(s[v] == target[v] for s in sols for v in planted):
            return cnf
    raise RuntimeError(f"could not plant a verified backbone after {max_tries} tries")


# ---------------------------------------------------------------------------
# instance specs


def expand_instances(spec: str) -> list[tuple[str, Cnf]]:
    """Expand one instance spec into (id, cnf) pairs.

    Forms: ``semiprime:BITS`` (whole catalog), ``semiprime:BITS:N``,
    ``backbone:N:M:B[:SEED]`` (B in percent), ``file:PATH`` or a bare path.
    """
    parts = spec.split(":")
    if parts[0] == "semiprime":
        bits = int(parts[1])
        targets = [int(parts[2])] if len(parts) > 2 else None
        out = []
        for inst in semiprime_catalog(bits):
            if targets and inst.semiprime not in targets:
                continue
            cnf, _nl, _ = generate_instance(bits, inst.semiprime)
            out.append((f"semiprime-{bits:02d}-{inst.semiprime}", cnf))
        if targets and not out:
            raise ValueError(f"{targets[0]} is not in the {bits}-bit catalog")
        return out
    if parts[0] == "backbone":
        n, m = int(parts[1]), int(parts[2])
        b = float(parts[3]) / 100.0
        seed = int(parts[4]) if len(parts) > 4 else 0
        bs = BackboneSpec(n=n, m=m, b=b)
        cnf = generate_backbone_instance(bs, seed, force=not bs.on_grid())
        return [(f"backbone-n{n}-m{m}-b{int(round(b * 100))}-s{seed}", cnf)]
    path = Path(parts[1] if parts[0] == "file" else spec)
    cnf = parse_dimacs(path.read_text(), provenance=str(path))
    return [(path.stem, cnf)]


# ---------------------------------------------------------------------------
# repeats and sweeps


def run_repeat(instance_id: str, cnf: Cnf, *, level: int, strategy: str,
               backend: str, seed: int, cap: int = 5000, budget: int = 45,
               num_samples: int = 10, max_guesses: int = 1,
               flip_on_conflict: bool = False,
               per_call_time: float = DEFAULT_PER_CALL_TIME,
               profile: ChipProfile | None = None) -> RunRecord:
    """One full repeat: ladder at ``level`` with this seed, then decompose."""
    t0 = time.perf_counter()
    res = run_ladder(cnf, level=level, seed=seed, max_guesses=max_guesses,
                     flip_on_conflict=flip_on_conflict)
    pre_time = time.perf_counter() - t0
    run: DecompositionRun = iterate(
        res.cnf, res.condition, cnf, strategy=strategy, backend=backend,
        profile=profile, budget=budget, cap=cap, seed=seed,
        num_samples=num_samples)
    wall = time.perf_counter() - t0
    return RunRecord(
        instance=instance_id,
        strategy=strategy,
        level=level,
        backend=backend,
        seed=seed,
        cap=cap,
        solved=run.solved,
        verified=run.verified,
        iterations_used=run.iterations_used,
        solver_calls=run.solver_calls,
        best_satisfied=run.best_satisfied,
        num_clauses=run.num_clauses,
        solver_time=run.solver_calls * per_call_time,
        reason=run.reason,
        preprocess_time=pre_time,
        wall_time=wall,
    )


@dataclass
class SweepConfig:
    """Full-factorial sweep description (the documented config schema)."""

    instances: list[str]
    levels: list[int] = field(default_factory=lambda: [MAX_LEVEL])
    strategies: list[str] = field(default_factory=lambda: ["dfs"])
    backends: list[str] = field(default_factory=lambda: ["emulator"])
    repeats: int = 20
    seed: int = 1
    cap: int = 5000
    budget: int = 45
    num_samples: int = 10
    max_guesses: int = 1
    per_call_time: float = DEFAULT_PER_CALL_TIME
    stop_on_solve: bool = False

    @staticmethod
    def from_file(path: str | Path) -> "SweepConfig":
        data = json.loads(Path(path).read_text())
        unknown = set(data) - {f for f in SweepConfig.__dataclass_fields__}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if not data.get("instances"):
            raise ValueError("config must name at least one instance")
        return SweepConfig(**data)


def _existing_keys(runs_path: Path) -> dict[str, bool]:
    """Keys of the records already written, each with whether it solved.

    An interrupted append leaves a last line without its newline.  If that
    line parses it gets its newline back; if not, it is cut off so that its
    cell runs again.  A malformed line anywhere else still raises.
    """
    if not runs_path.exists():
        return {}
    data = runs_path.read_bytes()
    if data and not data.endswith(b"\n"):
        tail = data.rfind(b"\n") + 1
        try:
            json.loads(data[tail:])
        except ValueError:
            with runs_path.open("r+b") as fh:
                fh.truncate(tail)
        else:
            with runs_path.open("ab") as fh:
                fh.write(b"\n")
    return {rec.key: rec.solved for rec in load_records(runs_path)}


def _append_timing(timings_path: Path, rec: RunRecord) -> None:
    new = not timings_path.exists()
    with timings_path.open("a", newline="") as fh:
        w = csv.writer(fh)
        if new:
            w.writerow(["key", "preprocess_time", "wall_time"])
        w.writerow([rec.key, f"{rec.preprocess_time:.6f}", f"{rec.wall_time:.6f}"])


def timings_path_for(runs_path: Path) -> Path:
    return runs_path.with_name(runs_path.stem + ".timings.csv")


def run_experiment(config: SweepConfig, out_dir: str | Path | None = None,
                   runs_filename: str = "runs.jsonl",
                   progress=None) -> list[RunRecord]:
    """Run the factorial sweep, appending to runs.jsonl; completed cells are
    skipped so interrupted sweeps resume without duplicating records, and
    with ``stop_on_solve`` a resumed cell runs no seed after one that
    already solved."""
    out = results_dir(str(out_dir) if out_dir else None)
    out.mkdir(parents=True, exist_ok=True)
    runs_path = out / runs_filename
    timings_path = timings_path_for(runs_path)
    done = _existing_keys(runs_path)
    records: list[RunRecord] = []
    for spec in config.instances:
        for instance_id, cnf in expand_instances(spec):
            for level in config.levels:
                for strategy in config.strategies:
                    for backend in config.backends:
                        solved_here = False
                        for rep in range(config.repeats):
                            seed = config.seed + rep
                            key = (f"{instance_id}|{level}|{strategy}|"
                                   f"{backend}|{seed}")
                            if key in done:
                                # a resumed cell stops where the whole run would
                                solved_here = solved_here or done[key]
                                continue
                            if config.stop_on_solve and solved_here:
                                break
                            rec = run_repeat(
                                instance_id, cnf, level=level,
                                strategy=strategy, backend=backend, seed=seed,
                                cap=config.cap, budget=config.budget,
                                num_samples=config.num_samples,
                                max_guesses=config.max_guesses,
                                per_call_time=config.per_call_time)
                            solved_here = solved_here or rec.solved
                            with runs_path.open("a") as fh:
                                fh.write(rec.to_json() + "\n")
                            _append_timing(timings_path, rec)
                            done[key] = rec.solved
                            records.append(rec)
                            if progress:
                                progress(rec)
    return records


# ---------------------------------------------------------------------------
# reporting


def load_records(runs_path: str | Path) -> list[RunRecord]:
    lines = Path(runs_path).read_text().splitlines()
    return [RunRecord.from_json(ln) for ln in lines if ln.strip()]


def aggregate_records(records: list[RunRecord]) -> list[dict]:
    """Solved-% and TTS per (instance, level, strategy, backend) cell."""
    cells: dict[tuple, list[RunRecord]] = {}
    for r in records:
        cells.setdefault((r.instance, r.level, r.strategy, r.backend), []).append(r)
    rows = []
    for (inst, level, strategy, backend), recs in sorted(cells.items()):
        est = compute_tts(recs)
        rows.append({
            "instance": inst,
            "level": level,
            "strategy": strategy,
            "backend": backend,
            "repeats": est.num_records,
            "solved": est.num_solved,
            "solved_pct": round(100.0 * est.p, 2),
            "mean_iterations_solved": round(est.t, 2),
            "tts": "inf" if math.isinf(est.tts) else round(est.tts, 2),
        })
    return rows


def write_aggregates(records: list[RunRecord], path: str | Path) -> None:
    rows = aggregate_records(records)
    with Path(path).open("w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=list(rows[0].keys()) if rows else
                           ["instance", "level", "strategy", "backend"])
        w.writeheader()
        w.writerows(rows)


def runtime_report(records: list[RunRecord],
                   timings: dict[str, tuple[float, float]] | None = None) -> list[dict]:
    """Per-level preprocessing vs solver time (stacked-bar plot data)."""
    by_level: dict[int, list[RunRecord]] = {}
    for r in records:
        by_level.setdefault(r.level, []).append(r)
    rows = []
    for level, recs in sorted(by_level.items()):
        pre = [timings[r.key][0] if timings and r.key in timings else r.preprocess_time
               for r in recs]
        rows.append({
            "level": level,
            "records": len(recs),
            "mean_preprocess_time": round(sum(pre) / len(recs), 6),
            "mean_solver_time": round(sum(r.solver_time for r in recs) / len(recs), 6),
            "mean_solver_calls": round(sum(r.solver_calls for r in recs) / len(recs), 2),
            "solved_pct": round(100.0 * sum(r.solved for r in recs) / len(recs), 2),
        })
    return rows


def load_timings(timings_path: str | Path) -> dict[str, tuple[float, float]]:
    out: dict[str, tuple[float, float]] = {}
    p = Path(timings_path)
    if not p.exists():
        return out
    with p.open(newline="") as fh:
        for row in csv.DictReader(fh):
            out[row["key"]] = (float(row["preprocess_time"]), float(row["wall_time"]))
    return out


def write_runtime_report(records: list[RunRecord], out_dir: Path,
                         timings: dict[str, tuple[float, float]] | None = None) -> Path:
    plotdata = out_dir / "plotdata"
    plotdata.mkdir(parents=True, exist_ok=True)
    rows = runtime_report(records, timings)
    path = plotdata / "runtime_by_level.csv"
    with path.open("w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=list(rows[0].keys()) if rows else ["level"])
        w.writeheader()
        w.writerows(rows)
    return path
