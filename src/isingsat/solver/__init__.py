"""Ising ground-state search backends.

Two interchangeable solvers over the same :class:`~isingsat.qubo.IsingModel`
interface:

* :func:`solve_emulator` — a simulated annealer standing in for the 45-spin
  all-to-all chip.  It refuses models that would not fit the device: more
  than ``SPIN_BUDGET`` spins, fractional coefficients, or coefficients outside
  the programmable range (run :func:`isingsat.qubo.scale_to_chip` first).
* :func:`solve_tabu` — a single-flip tabu search with no size or coefficient
  restrictions, used as the software baseline.  Its effort is a fixed move
  budget rather than wall-clock time so identical calls give identical
  results on any machine.

:func:`solve` routes a call to the backend it names.  Every backend draws
randomness from a seeded xorshift64* generator; per-read seeds are derived
with splitmix64, so a call's outcome depends only on (model, seed, number of
reads).  Of a call's reads, the result keeps the first one with the lowest
model energy.

The inner loops live in :mod:`.kernels`: a C kernel compiled on first import
and cached in ``__pycache__``, or, without a C compiler, the pure-Python
oracle it is tested against bit for bit.  ``COMPILED_KERNELS`` says which
one runs.
"""
from __future__ import annotations

from dataclasses import dataclass

from ..qubo import COEFF_MAX, COEFF_MIN, SPIN_BUDGET, IsingModel
from .kernels import COMPILED_KERNELS, anneal, mix_seed, tabu

__all__ = [
    "BACKENDS",
    "COMPILED_KERNELS",
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

BACKENDS = ("emulator", "tabu")


@dataclass(frozen=True)
class SolveResult:
    """The spins of the best read, and that read's anneal trace.

    The best read is the first with the lowest energy under the model, not
    under the kernel's own bookkeeping.  ``trace`` holds (sweep,
    temperature, best energy so far) rows when the call collected them,
    else it is empty.
    """

    best_spins: tuple[int, ...]
    trace: tuple[tuple[int, float, float], ...]


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


def _check_chip(model: IsingModel) -> None:
    if model.num_spins > SPIN_BUDGET:
        raise ValueError(
            f"model needs {model.num_spins} spins but the chip has {SPIN_BUDGET}"
        )
    for kind, coeffs in (("coupling", model.j), ("field", model.h)):
        for where, v in coeffs.items():
            if abs(v - round(v)) > 1e-9:
                raise ValueError(
                    f"{kind} {where} = {v} is not an integer; scale_to_chip first"
                )
            if not COEFF_MIN <= v <= COEFF_MAX:
                raise ValueError(
                    f"{kind} {where} = {v} outside programmable range "
                    f"[{COEFF_MIN}, {COEFF_MAX}]"
                )


def _finish(model: IsingModel, reads: list[list[int]],
            traces: list[tuple[tuple[int, float, float], ...]]) -> SolveResult:
    """Keep the first read with the lowest model energy, with its trace."""
    energies = [model.energy(spins) for spins in reads]
    best = energies.index(min(energies))
    return SolveResult(tuple(reads[best]), traces[best] if traces else ())


def solve_emulator(model: IsingModel, *, seed: int, num_samples: int,
                   collect_trace: bool) -> SolveResult:
    """Anneal on the emulated chip; rejects models the device could not hold."""
    _check_chip(model)
    if model.num_spins == 0:
        return SolveResult((), ())
    jd, h = _dense(model)
    reads: list[list[int]] = []
    traces: list[tuple[tuple[int, float, float], ...]] = []
    for k in range(num_samples):
        spins, _raw, tr = anneal(
            model.num_spins, jd, h, SWEEPS, INITIAL_TEMP, FINAL_TEMP,
            mix_seed(seed, k), collect_trace,
        )
        reads.append(spins)
        if collect_trace:
            traces.append(tuple((s, t, e + model.offset) for s, t, e in tr))
    return _finish(model, reads, traces)


def solve_tabu(model: IsingModel, *, seed: int, num_samples: int) -> SolveResult:
    """Tabu-search baseline: no spin cap, fixed move budget, tenure 10."""
    if model.num_spins == 0:
        return SolveResult((), ())
    jd, h = _dense(model)
    reads = [tabu(model.num_spins, jd, h, DEFAULT_TABU_MOVES, TABU_TENURE,
                  mix_seed(seed, k))[0]
             for k in range(num_samples)]
    return _finish(model, reads, [])


def solve(model: IsingModel, *, backend: str, seed: int, num_samples: int,
          collect_trace: bool) -> SolveResult:
    """Route a call to its backend; only the emulator collects a trace."""
    if num_samples < 1:
        raise ValueError("num_samples must be >= 1")
    if backend == "emulator":
        return solve_emulator(model, seed=seed, num_samples=num_samples,
                              collect_trace=collect_trace)
    if backend == "tabu":
        return solve_tabu(model, seed=seed, num_samples=num_samples)
    raise ValueError(f"unknown backend {backend!r}")
