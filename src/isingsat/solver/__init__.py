"""Ising ground-state search backends.

Two interchangeable solvers over the same :class:`~isingsat.qubo.IsingModel`
interface:

* :func:`solve_emulator` — a simulated annealer standing in for the 45-spin
  all-to-all chip.  It refuses models that would not fit the device: more
  spins than the budget, fractional coefficients, or coefficients outside the
  programmable range (run :func:`isingsat.qubo.scale_to_chip` first).
* :func:`solve_tabu` — a single-flip tabu search with no size or coefficient
  restrictions, used as the software baseline.  Its effort is a fixed move
  budget rather than wall-clock time so identical requests give identical
  results on any machine.

Both draw randomness from a seeded xorshift64* generator; per-sample seeds
are derived with splitmix64, so a request's outcome depends only on
(model, seed, parameters).

The inner loops live in :mod:`.kernels`: a C kernel compiled on first import
and cached in ``__pycache__``, or, without a C compiler, the pure-Python
oracle it is tested against bit for bit.  ``COMPILED_KERNELS`` says which
one runs.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..qubo import CHIP, IsingModel
from .kernels import COMPILED_KERNELS, anneal, mix_seed, tabu

__all__ = [
    "COMPILED_KERNELS",
    "SolveRequest",
    "SolveResult",
    "INITIAL_TEMP",
    "FINAL_TEMP",
    "SWEEPS",
    "DEFAULT_TABU_MOVES",
    "TABU_TENURE",
    "solve_emulator",
    "solve_tabu",
    "solve",
]

# Geometric cooling from INITIAL_TEMP to FINAL_TEMP over SWEEPS sweeps, tuned
# so 20-spin random instances hit their exact optimum in at least half the runs.
INITIAL_TEMP = 10.0
FINAL_TEMP = 0.05
SWEEPS = 500

DEFAULT_TABU_MOVES = 2000
TABU_TENURE = 10


@dataclass(frozen=True)
class SolveRequest:
    """One solver call: a model plus everything that determines its outcome.

    ``budget`` overrides the emulator's spin budget (None: chip default).
    """

    model: IsingModel
    seed: int = 0
    num_samples: int = 1
    backend: str = "emulator"
    budget: int | None = None
    collect_trace: bool = False

    def __post_init__(self) -> None:
        if self.num_samples < 1:
            raise ValueError("num_samples must be >= 1")


@dataclass(frozen=True)
class SolveResult:
    """Best configuration found, every sample, and where they came from.

    ``best_energy`` is recomputed from ``best_spins`` through the model — it
    is never the solver's own bookkeeping.  ``wall_time`` is informational
    and excluded from the deterministic record.
    """

    best_spins: tuple[int, ...]
    best_energy: float
    samples: tuple[tuple[tuple[int, ...], float], ...]
    wall_time: float
    backend: str
    trace: tuple[tuple[int, float, float], ...] = field(default=())


def _dense(model: IsingModel) -> tuple[list[float], list[float]]:
    n = model.num_spins
    jd = [0.0] * (n * n)
    for (i, j), v in model.j.items():
        jd[i * n + j] = float(v)
        jd[j * n + i] = float(v)
    h = [0.0] * n
    for i, v in model.h.items():
        h[i] = float(v)
    return jd, h


def _empty_result(model: IsingModel, backend: str, started: float) -> SolveResult:
    e = model.energy(())
    return SolveResult((), e, (((), e),), time.perf_counter() - started, backend)


def _check_chip(model: IsingModel, budget: int | None) -> None:
    cap = CHIP.spin_budget if budget is None else budget
    if model.num_spins > cap:
        raise ValueError(
            f"model needs {model.num_spins} spins but the chip has {cap}"
        )
    for kind, coeffs in (("coupling", model.j), ("field", model.h)):
        for where, v in coeffs.items():
            if abs(v - round(v)) > 1e-9:
                raise ValueError(
                    f"{kind} {where} = {v} is not an integer; scale_to_chip first"
                )
            if not CHIP.coeff_min <= v <= CHIP.coeff_max:
                raise ValueError(
                    f"{kind} {where} = {v} outside programmable range "
                    f"[{CHIP.coeff_min}, {CHIP.coeff_max}]"
                )


def _finish(model: IsingModel, backend: str, picks: list[tuple[list[int], float]],
            started: float,
            trace: tuple[tuple[int, float, float], ...]) -> SolveResult:
    samples: list[tuple[tuple[int, ...], float]] = []
    best_idx = 0
    for k, (spins, _raw) in enumerate(picks):
        e = model.energy(spins)
        samples.append((tuple(spins), e))
        if e < samples[best_idx][1]:
            best_idx = k
    best_spins, best_energy = samples[best_idx]
    return SolveResult(
        best_spins=best_spins,
        best_energy=best_energy,
        samples=tuple(samples),
        wall_time=time.perf_counter() - started,
        backend=backend,
        trace=trace,
    )


def solve_emulator(request: SolveRequest) -> SolveResult:
    """Anneal on the emulated chip; rejects models the device could not hold."""
    started = time.perf_counter()
    model = request.model
    _check_chip(model, request.budget)
    if model.num_spins == 0:
        return _empty_result(model, "emulator", started)
    jd, h = _dense(model)
    picks: list[tuple[list[int], float]] = []
    traces: list[tuple[tuple[int, float, float], ...]] = []
    for k in range(request.num_samples):
        spins, raw, tr = anneal(
            model.num_spins, jd, h, SWEEPS, INITIAL_TEMP, FINAL_TEMP,
            mix_seed(request.seed, k), request.collect_trace,
        )
        picks.append((spins, raw))
        if request.collect_trace:
            traces.append(tuple((s, t, e + model.offset) for s, t, e in tr))
    best_k = min(range(len(picks)), key=lambda k: picks[k][1])
    trace = traces[best_k] if traces else ()
    return _finish(model, "emulator", picks, started, trace)


def solve_tabu(request: SolveRequest) -> SolveResult:
    """Tabu-search baseline: no spin cap, fixed move budget, tenure 10."""
    started = time.perf_counter()
    model = request.model
    if model.num_spins == 0:
        return _empty_result(model, "tabu", started)
    jd, h = _dense(model)
    picks: list[tuple[list[int], float]] = []
    for k in range(request.num_samples):
        spins, raw, _moves = tabu(model.num_spins, jd, h, DEFAULT_TABU_MOVES,
                                  TABU_TENURE, mix_seed(request.seed, k))
        picks.append((spins, raw))
    return _finish(model, "tabu", picks, started, ())


def solve(request: SolveRequest) -> SolveResult:
    """Route a request to its backend."""
    if request.backend == "emulator":
        return solve_emulator(request)
    if request.backend == "tabu":
        return solve_tabu(request)
    raise ValueError(f"unknown backend {request.backend!r}")
