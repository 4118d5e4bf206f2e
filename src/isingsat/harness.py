"""Experiment orchestration: instances, repeats, metrics, and persistence.

One *repeat* is the whole flow — preprocess the instance at the requested
level with the repeat's seed (so branch guesses differ between repeats), then
decompose and solve the residual.  An *instance is solved* when any repeat
succeeds.  Time to solution charges every repeat the iterations it ran,
solved or not, and one sweep gives it at every cutoff up to the cap
(:func:`tts_curve`).

Records land in an append-only ``runs.jsonl``.  The serialized record
contains only fields that are pure functions of (instance, seed, config) —
re-running a cell reproduces it byte for byte; measured wall-clock times go
to a ``timings.csv`` sidecar keyed by record id instead.  ``solver_time``
stays in the record because it is defined as #solver calls ×
``PER_CALL_TIME``, not a measurement.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import time
from dataclasses import asdict, dataclass, field, fields
from itertools import product
from pathlib import Path
from typing import Callable

from .circuit import generate_instance, semiprime_catalog
from .cnf import Cnf, brute_force_solutions, make_cnf, parse_dimacs, write_dimacs
from .decompose import STRATEGIES, iterate
from .preprocess import MAX_LEVEL, run_ladder
from .qubo import SPIN_BUDGET
from .solver import BACKENDS

# chip annealing time per solver call is not public; this constant makes
# solver_time a relative, deterministic quantity
PER_CALL_TIME = 0.001

# ---------------------------------------------------------------------------
# run records


_VOLATILE_FIELDS = ("preprocess_time", "wall_time")  # measured, not derived
# a record field's declared type -> the JSON value types it loads from
_JSON_TYPES = {"bool": (bool,), "int": (int,), "float": (int, float), "str": (str,)}


def _loads(text: str):
    """``json.loads``, refusing a value nested too deeply for the parser
    with a ``json.JSONDecodeError`` like any other malformed JSON, not a
    RecursionError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise json.JSONDecodeError("nested too deeply", text, 0) from None


def cell_key(instance: str, level: int, strategy: str, backend: str,
             seed: int) -> str:
    """Identity of one repeat: the key of ``runs.jsonl`` resume and timings."""
    return f"{instance}|{level}|{strategy}|{backend}|{seed}"


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
        return cell_key(self.instance, self.level, self.strategy, self.backend,
                        self.seed)

    def to_json(self) -> str:
        """Canonical serialization: deterministic fields only, sorted keys."""
        d = asdict(self)
        for f in _VOLATILE_FIELDS:
            d.pop(f, None)
        return json.dumps(d, sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_json(line: str) -> "RunRecord":
        """ValueError unless ``line`` is an object of the record's fields,
        each of its declared type: a bool is no int, an int may be a float."""
        try:
            record = RunRecord(**_loads(line))
        except TypeError:  # not an object, or keys that are not the fields
            raise ValueError(f"not a run record: {line.strip()}") from None
        for f in fields(RunRecord):
            value = getattr(record, f.name)
            if type(value) not in _JSON_TYPES[f.type]:
                raise ValueError(f"{f.name} must be {f.type}, got {value!r}")
        return record


# ---------------------------------------------------------------------------
# time to solution


@dataclass(frozen=True)
class TtsPoint:
    """One cutoff of a cell's TTS curve, in iterations."""

    cutoff: int
    p: float  # share of the cell's repeats solved within the cutoff
    cost: float  # mean of min(iterations_used, cutoff) over all repeats
    tts: float


def tts_curve(records: list[RunRecord]) -> list[TtsPoint]:
    """Expected iterations to a 95%-confident solve of one cell, restarting
    each repeat at cutoff c: tts(c) = cost(c) * ln(0.05) / ln(1 - p(c)),
    cost(c) itself when p(c) >= 0.95 and infinite when p(c) is 0 (Rønnow
    et al., Science 345, 420 (2014); Luby, Sinclair and Zuckerman, Inf.
    Process. Lett. 47, 173 (1993)).  A repeat's path does not depend on
    its cap, so a record at the cell's smallest cap C also gives the repeat
    cut at any c <= C.  Between two solves p is flat and the cost rises,
    so the points, ascending, are at each solve within C and at C last."""
    if not records:
        raise ValueError("tts_curve needs at least one record")
    n = len(records)
    cap = min(r.cap for r in records)
    cutoffs = {r.iterations_used for r in records
               if r.solved and r.iterations_used <= cap} | {cap}
    points = []
    for c in sorted(cutoffs):
        p = sum(r.solved and r.iterations_used <= c for r in records) / n
        cost = sum(min(r.iterations_used, c) for r in records) / n
        if p == 0.0:
            tts = math.inf
        elif p >= 0.95:
            tts = cost
        else:
            tts = cost * math.log(0.05) / math.log(1.0 - p)
        points.append(TtsPoint(cutoff=c, p=p, cost=cost, tts=tts))
    return points


# ---------------------------------------------------------------------------
# controlled-backbone instances


BACKBONE_TRIES = 60  # re-plants before giving up on a verified backbone
PINS_PER_VAR = 3  # implication pins per planted variable, the last all-true


def _false_lit(v: int, target: dict[int, bool]) -> int:
    return -v if target[v] else v


def _true_lit(v: int, target: dict[int, bool]) -> int:
    return v if target[v] else -v


def generate_backbone_instance(n: int, m: int, b: float, seed: int) -> Cnf:
    """Random 3SAT of ``n`` variables and ``m`` clauses satisfied by a hidden
    target with ~b*n backbone variables.  The paper's reference grid is
    n = 100, m in {403, 411, 418, 423, 429, 435, 441, 449} and b in {0.10,
    0.30, 0.50, 0.70, 0.90}; any other triple is generated the same way.

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
    The seed must be >= 0.  An (n, m, b) whose clauses cannot pin its
    planted set in ``BACKBONE_TRIES`` tries is bad input and raises
    ValueError.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if n < 3 or m < 1 or not 0.0 <= b <= 1.0:
        raise ValueError("need n >= 3, m >= 1, 0 <= b <= 1")
    import random

    rng = random.Random(seed)
    all_vars = list(range(1, n + 1))
    k = round(b * n)
    for _attempt in range(BACKBONE_TRIES):
        target = {v: bool(rng.getrandbits(1)) for v in all_vars}
        planted = sorted(rng.sample(all_vars, k))
        order = planted[:]
        rng.shuffle(order)
        clauses: list[tuple[int, ...]] = []
        pool = planted if len(planted) >= 3 else all_vars
        for idx, v in enumerate(order):
            others = [u for u in pool if u != v]
            for pin_no in range(PINS_PER_VAR):
                if len(clauses) >= m:
                    break
                all_true = pin_no == PINS_PER_VAR - 1
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
        while len(clauses) < m:
            vs = rng.sample(all_vars, 3)
            lits = [v if rng.getrandbits(1) else -v for v in vs]
            if not any((l > 0) == target[abs(l)] for l in lits):
                pick = rng.randrange(3)
                lits[pick] = _true_lit(abs(lits[pick]), target)
            clauses.append(tuple(lits))
        rng.shuffle(clauses)
        cnf = make_cnf(n, clauses[:m])
        if n > 24 or not planted:
            return cnf
        sols = brute_force_solutions(cnf)
        if sols and all(s[v] == target[v] for s in sols for v in planted):
            return cnf
    raise ValueError(
        f"could not plant a verified backbone after {BACKBONE_TRIES} tries")


# ---------------------------------------------------------------------------
# instance specs


SPEC_FORMS = ("semiprime:BITS (whole catalog), semiprime:BITS:N, "
              "backbone:N:M:B[:SEED] (B an integer percent), file:PATH or a bare path")


def spec_file(spec: str) -> Path | None:
    """The DIMACS file an instance spec reads; None for a generated one."""
    if spec.split(":")[0] in ("semiprime", "backbone"):
        return None
    return Path(spec.removeprefix("file:"))


def expand_instances(spec: str) -> list[tuple[str, Cnf]]:
    """Expand one instance spec into (id, cnf) pairs; the forms are
    ``SPEC_FORMS``.  A file's id is its stem plus the first 12 hex digits
    of the sha256 of its formula in DIMACS: two formulas under one file
    name keep apart in ``runs.jsonl``, and an equal formula under that name
    shares their records."""
    parts = spec.split(":")
    bad = f"bad instance spec {spec!r}; the forms are {SPEC_FORMS}"
    if (parts[0] == "semiprime" and len(parts) not in (2, 3)
            or parts[0] == "backbone" and len(parts) not in (4, 5)):
        raise ValueError(bad)
    try:
        if parts[0] == "semiprime":
            bits, *targets = map(int, parts[1:])
        elif parts[0] == "backbone":
            n, m, percent = map(int, parts[1:4])
            seed = int(parts[4]) if len(parts) > 4 else 0
    except ValueError:
        raise ValueError(bad) from None
    if parts[0] == "semiprime":
        numbers = targets or semiprime_catalog(bits)
        return [(f"semiprime-{bits:02d}-{number}", generate_instance(bits, number)[0])
                for number in numbers]
    if parts[0] == "backbone":
        cnf = generate_backbone_instance(n, m, percent / 100.0, seed)
        return [(f"backbone-n{n}-m{m}-b{percent}-s{seed}", cnf)]
    path = spec_file(spec)
    cnf = parse_dimacs(path.read_text())
    digest = hashlib.sha256(write_dimacs(cnf).encode()).hexdigest()[:12]
    return [(f"{path.stem}-{digest}", cnf)]


# ---------------------------------------------------------------------------
# repeats and sweeps


@dataclass
class SweepConfig:
    """Full-factorial sweep description (the documented config schema).

    The one place that declares, defaults and checks a sweep's settings;
    ``isingsat solve`` takes its flag defaults from here.  Each field, with
    its default and allowed values (lists are non-empty, counts are ints):

    * ``instances`` (required): specs, see ``SPEC_FORMS``
    * ``levels`` (``[MAX_LEVEL]``): each 0..``MAX_LEVEL``
    * ``strategies`` (``["dfs"]``): each one of ``STRATEGIES``
    * ``backends`` (``["emulator"]``): each one of ``BACKENDS``
    * ``repeats`` (20): per cell, >= 0; repeat k runs seed ``seed + k``
    * ``seed`` (1): >= 0
    * ``cap`` (5000): decomposition iterations per repeat, >= 0
    * ``budget`` (45): spins per slice, 0..``SPIN_BUDGET``
    * ``num_samples`` (10): chip reads per solver call, >= 1

    Any other value raises ``ValueError`` from the constructor, ``replace``
    and ``from_file``.  One sweep gives TTS at every cutoff up to ``cap``
    (:func:`tts_curve`).
    """

    instances: list[str]
    levels: list[int] = field(default_factory=lambda: [MAX_LEVEL])
    strategies: list[str] = field(default_factory=lambda: ["dfs"])
    backends: list[str] = field(default_factory=lambda: ["emulator"])
    repeats: int = 20
    seed: int = 1
    cap: int = 5000
    budget: int = 45
    num_samples: int = 10

    def __post_init__(self) -> None:
        for name, kind, allowed in (("instances", str, ()), ("levels", int, ()),
                                    ("strategies", str, STRATEGIES),
                                    ("backends", str, BACKENDS)):
            values = getattr(self, name)
            if not (isinstance(values, list) and values
                    and all(type(v) is kind for v in values)):
                raise ValueError(f"{name} must be a non-empty list of {kind.__name__}")
            for v in values:
                if allowed and v not in allowed:
                    raise ValueError(f"{v!r} is not one of the {name}: {', '.join(allowed)}")
        ranges = [("level", v, 0, MAX_LEVEL) for v in self.levels] + [
            ("repeats", self.repeats, 0, None), ("seed", self.seed, 0, None),
            ("cap", self.cap, 0, None), ("budget", self.budget, 0, SPIN_BUDGET),
            ("num_samples", self.num_samples, 1, None)]
        for name, value, low, high in ranges:
            if type(value) is not int:
                raise ValueError(f"{name} must be an int, got {value!r}")
            if value < low or high is not None and value > high:
                bound = f">= {low}" if high is None else f"between {low} and {high}"
                raise ValueError(f"{name} must be {bound}, got {value}")

    @staticmethod
    def from_file(path: str | Path) -> "SweepConfig":
        data = _loads(Path(path).read_text())
        if not isinstance(data, dict):
            raise ValueError("a sweep config is a JSON object")
        unknown = set(data) - {f.name for f in fields(SweepConfig)}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if "instances" not in data:
            raise ValueError("config must name at least one instance")
        return SweepConfig(**data)


def run_repeat(instance_id: str, cnf: Cnf, config: SweepConfig, *, level: int,
               strategy: str, backend: str, seed: int) -> RunRecord:
    """One full repeat of a cell, up to the config's cap: the ladder, then
    the decomposition of its residual."""
    t0 = time.perf_counter()
    res = run_ladder(cnf, level=level, seed=seed)
    pre_time = time.perf_counter() - t0
    run = iterate(res.cnf, res.condition, cnf, strategy=strategy, backend=backend,
                  budget=config.budget, cap=config.cap, seed=seed,
                  num_samples=config.num_samples, collect_trace=False)
    wall = time.perf_counter() - t0
    return RunRecord(
        instance=instance_id,
        strategy=strategy,
        level=level,
        backend=backend,
        seed=seed,
        cap=config.cap,
        solved=run.solved,
        verified=run.solved,
        iterations_used=run.iterations_used,
        solver_calls=run.solver_calls,
        best_satisfied=run.best_satisfied,
        num_clauses=run.num_clauses,
        solver_time=run.solver_calls * PER_CALL_TIME,
        reason=run.reason,
        preprocess_time=pre_time,
        wall_time=wall,
    )


def _torn_tail(data: bytes, parse: Callable[[str], object]) -> int | None:
    """Where a torn append starts at the end of ``data``, or None: an
    interrupted append leaves a last line without its newline, torn when
    ``parse`` rejects it with a ValueError (if not, it lost only that)."""
    tail = data.rfind(b"\n") + 1
    if tail == len(data):
        return None
    try:
        parse(data[tail:].decode())
    except ValueError:
        return tail
    return None


def _read_lines(path: Path, mend: Callable[[str], object],
                parse: Callable[[str], object], skip: int) -> list:
    """``parse`` of each non-blank line of ``path`` after the first ``skip``.

    A torn append at the end (:func:`_torn_tail` with ``mend``, the parser
    the file is mended with) is left out.  A line that ``parse`` rejects
    anywhere else re-raises its ValueError with a message that names
    ``path`` and the line number; the type is kept, so a caller that
    catches ``json.JSONDecodeError`` still does.
    """
    data = path.read_bytes()
    lines = data[:_torn_tail(data, mend)].decode().splitlines()
    rows = []
    for n, line in enumerate(lines[skip:], start=skip + 1):
        if not line.strip():
            continue
        try:
            rows.append(parse(line))
        except ValueError as exc:
            exc.args = (f"{path}: line {n} is malformed ({exc})",)
            raise
    return rows


def _mend_tail(path: Path, parse: Callable[[str], object]) -> None:
    """Cut a torn append (:func:`_torn_tail`) off ``path``, so that its cell
    runs again, or give a last line that lost only its newline the newline
    back.  A malformed line anywhere else is left for the reader to refuse."""
    data = path.read_bytes() if path.exists() else b""
    tail = _torn_tail(data, parse)
    if tail is not None:
        os.truncate(path, tail)
    elif data and not data.endswith(b"\n"):
        with path.open("ab") as fh:
            fh.write(b"\n")


def _timing_row(line: str) -> tuple[str, tuple[float, float]]:
    """The key and measured times of one sidecar row; ValueError unless it
    has three fields and both times parse (a ``csv.Error``, such as a field
    over the csv module's size limit, is one too)."""
    try:
        key, pre, wall = next(csv.reader([line]))
    except csv.Error as exc:
        raise ValueError(str(exc)) from None
    return key, (float(pre), float(wall))


def _append_timing(timings_path: Path, rec: RunRecord) -> None:
    with timings_path.open("a", newline="") as fh:
        w = csv.writer(fh)
        if fh.tell() == 0:
            w.writerow(["key", "preprocess_time", "wall_time"])
        w.writerow([rec.key, f"{rec.preprocess_time:.6f}", f"{rec.wall_time:.6f}"])


def timings_path_for(runs_path: Path) -> Path:
    return runs_path.with_name(runs_path.stem + ".timings.csv")


def open_runs_file(runs_path: Path, config: SweepConfig,
                   instance_ids: list[str]) -> dict[str, int]:
    """Mend a torn append to ``runs_path`` and its timings file, then read
    the key and cap of each of its records (a malformed one raises
    ValueError).  Raises ValueError, too, when the sweep of ``config``
    over ``instance_ids`` would skip a record at a smaller cap than
    ``config.cap``."""
    _mend_tail(runs_path, _loads)
    _mend_tail(timings_path_for(runs_path), _timing_row)
    done = ({rec.key: rec.cap for rec in load_records(runs_path)}
            if runs_path.exists() else {})
    for key in (cell_key(instance_id, *cell, config.seed + rep)
                for instance_id in instance_ids
                for cell in product(config.levels, config.strategies, config.backends)
                for rep in range(config.repeats)):
        if done.get(key, config.cap) < config.cap:
            raise ValueError(f"{runs_path} holds {key} at cap {done[key]}, "
                             f"below this sweep's cap {config.cap}; resuming "
                             "would skip it, so write to another runs file")
    return done


def run_experiment(config: SweepConfig, out_dir: Path,
                   runs_filename: str = "runs.jsonl",
                   progress=None) -> list[RunRecord]:
    """Run the factorial sweep, appending to ``out_dir / runs_filename``;
    completed repeats are skipped so interrupted sweeps resume without
    duplicating records, and a torn append to either file is mended first.
    Every spec is expanded before either file is touched, so a bad spec
    writes nothing.  ``out_dir`` is made when the first record is appended.

    A completed repeat is one with a record at the sweep's cap or a larger
    one, which :func:`tts_curve` cuts at the cell's smallest cap.  A sweep
    that would skip a record at a smaller cap raises ValueError before its
    first repeat.  ``budget`` and ``num_samples`` are not in the records,
    so a resumed sweep cannot check them yet; a manifest of the sweep's
    settings beside the runs file would."""
    instances = [pair for spec in config.instances
                 for pair in expand_instances(spec)]
    runs_path = out_dir / runs_filename
    timings_path = timings_path_for(runs_path)
    done = open_runs_file(runs_path, config, [iid for iid, _cnf in instances])
    records: list[RunRecord] = []
    cells = list(product(config.levels, config.strategies, config.backends))
    for instance_id, cnf in instances:
        for level, strategy, backend in cells:
            for rep in range(config.repeats):
                seed = config.seed + rep
                key = cell_key(instance_id, level, strategy, backend, seed)
                if key in done:
                    continue
                rec = run_repeat(instance_id, cnf, config, level=level,
                                 strategy=strategy, backend=backend, seed=seed)
                if not records:
                    out_dir.mkdir(parents=True, exist_ok=True)
                with runs_path.open("a") as fh:
                    fh.write(rec.to_json() + "\n")
                _append_timing(timings_path, rec)
                done[key] = rec.cap
                records.append(rec)
                if progress:
                    progress(rec)
    return records


# ---------------------------------------------------------------------------
# reporting


def load_records(runs_path: str | Path) -> list[RunRecord]:
    """The records of a runs file, skipping a torn append at its end."""
    return _read_lines(Path(runs_path), _loads, RunRecord.from_json, 0)


def _rounded(tts: float) -> float | str:
    return "inf" if math.isinf(tts) else round(tts, 2)


def aggregate_records(records: list[RunRecord]) -> list[dict]:
    """Per (instance, level, strategy, backend) cell: solved-%, the mean
    iterations charged and TTS at the cap, then the cutoff with the least
    TTS (the smallest on a tie) with its solved-% and TTS, all from
    :func:`tts_curve`.  The cutoff columns are empty when nothing solved."""
    cells: dict[tuple, list[RunRecord]] = {}
    for r in records:
        cells.setdefault((r.instance, r.level, r.strategy, r.backend), []).append(r)
    rows = []
    for (inst, level, strategy, backend), recs in sorted(cells.items()):
        curve = tts_curve(recs)
        at_cap = curve[-1]
        best = min(curve, key=lambda pt: (pt.tts, pt.cutoff))
        solved = best.p > 0.0
        rows.append({
            "instance": inst,
            "level": level,
            "strategy": strategy,
            "backend": backend,
            "repeats": len(recs),
            "solved": round(at_cap.p * len(recs)),
            "solved_pct": round(100.0 * at_cap.p, 2),
            "mean_iterations": round(at_cap.cost, 2),
            "tts": _rounded(at_cap.tts),
            "best_cutoff": best.cutoff if solved else "",
            "solved_pct_at_cutoff": round(100.0 * best.p, 2) if solved else "",
            "tts_at_cutoff": _rounded(best.tts) if solved else "",
        })
    return rows


def runtime_report(records: list[RunRecord],
                   timings: dict[str, tuple[float, float]]) -> list[dict]:
    """Per-level preprocessing vs solver time (stacked-bar plot data).

    Preprocessing time is measured, so it comes from the ``timings`` sidecar
    only: the mean is over the records it times, and the cell is empty when
    it times none of a level's records.
    """
    by_level: dict[int, list[RunRecord]] = {}
    for r in records:
        by_level.setdefault(r.level, []).append(r)
    rows = []
    for level, recs in sorted(by_level.items()):
        pre = [timings[r.key][0] for r in recs if r.key in timings]
        rows.append({
            "level": level,
            "records": len(recs),
            "mean_preprocess_time": round(sum(pre) / len(pre), 6) if pre else "",
            "mean_solver_time": round(sum(r.solver_time for r in recs) / len(recs), 6),
            "mean_solver_calls": round(sum(r.solver_calls for r in recs) / len(recs), 2),
            "solved_pct": round(100.0 * sum(r.solved for r in recs) / len(recs), 2),
        })
    return rows


def load_timings(timings_path: str | Path) -> dict[str, tuple[float, float]]:
    """Measured (preprocess, wall) times by record key from a sidecar, if
    there is one.  A torn append at the end is skipped; any other malformed
    row raises ValueError (:func:`_read_lines`).
    """
    p = Path(timings_path)
    if not p.exists():
        return {}
    # line 1 is the header
    return dict(_read_lines(p, _timing_row, _timing_row, 1))


def write_csv(rows: list[dict], path: Path) -> None:
    """``rows``, at least one (a report of no records is refused), as a CSV
    under their keys."""
    with path.open("w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=list(rows[0]))
        w.writeheader()
        w.writerows(rows)
