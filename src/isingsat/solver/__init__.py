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

Both draw randomness from a seeded xorshift64* generator; per-read seeds
are derived with splitmix64, so a request's outcome depends only on
(model, seed, parameters).  Of a request's reads, the result keeps the
first one with the lowest model energy.

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
    """The spins of the best read, and that read's anneal trace.

    The best read is the first with the lowest energy under the model, not
    under the kernel's own bookkeeping.  ``trace`` holds (sweep,
    temperature, best energy so far) rows when the request collected them,
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


def _check_chip(model: IsingModel, budget: int | None) -> None:
    cap = SPIN_BUDGET if budget is None else budget
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


def solve_emulator(request: SolveRequest) -> SolveResult:
    """Anneal on the emulated chip; rejects models the device could not hold."""
    model = request.model
    _check_chip(model, request.budget)
    if model.num_spins == 0:
        return SolveResult((), ())
    jd, h = _dense(model)
    reads: list[list[int]] = []
    traces: list[tuple[tuple[int, float, float], ...]] = []
    for k in range(request.num_samples):
        spins, _raw, tr = anneal(
            model.num_spins, jd, h, SWEEPS, INITIAL_TEMP, FINAL_TEMP,
            mix_seed(request.seed, k), request.collect_trace,
        )
        reads.append(spins)
        if request.collect_trace:
            traces.append(tuple((s, t, e + model.offset) for s, t, e in tr))
    return _finish(model, reads, traces)


def solve_tabu(request: SolveRequest) -> SolveResult:
    """Tabu-search baseline: no spin cap, fixed move budget, tenure 10."""
    model = request.model
    if model.num_spins == 0:
        return SolveResult((), ())
    jd, h = _dense(model)
    reads = [tabu(model.num_spins, jd, h, DEFAULT_TABU_MOVES, TABU_TENURE,
                  mix_seed(request.seed, k))[0]
             for k in range(request.num_samples)]
    return _finish(model, reads, [])


def solve(request: SolveRequest) -> SolveResult:
    """Route a request to its backend."""
    if request.backend == "emulator":
        return solve_emulator(request)
    if request.backend == "tabu":
        return solve_tabu(request)
    raise ValueError(f"unknown backend {request.backend!r}")
