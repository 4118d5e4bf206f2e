"""Ising ground-state search: :func:`solve` on one of two backends.

Both backends take the same :class:`~isingsat.qubo.IsingModel`:

* ``"emulator"`` — a simulated annealer standing in for the 45-spin
  all-to-all chip.  It refuses models that would not fit the device: more
  than ``SPIN_BUDGET`` spins, coefficients that are not integers, or
  coefficients outside the programmable range (run
  :func:`isingsat.qubo.scale_to_chip` first).
* ``"tabu"`` — a single-flip tabu search with no size or coefficient
  restrictions, used as the software baseline.  Its effort is a fixed move
  budget rather than wall-clock time so identical calls give identical
  results on any machine.

Every backend draws randomness from a seeded xorshift64* generator; per-read
seeds are derived with splitmix64, so a call's outcome depends only on
(model, seed, number of reads).  Of a call's reads, the result keeps the
first one with the lowest model energy.

The inner loops live in :mod:`.kernels`: a C kernel compiled on first import
and cached in ``__pycache__``, or, without a C compiler, the pure-Python
oracle it is tested against bit for bit.  ``kernels.COMPILED_KERNELS``
says which one runs.
"""
from __future__ import annotations

from dataclasses import dataclass

from ..qubo import COEFF_MAX, COEFF_MIN, SPIN_BUDGET, IsingModel
from .kernels import anneal, mix_seed, tabu

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
    """The kernels' inputs: a symmetric row-major n*n coupling matrix and
    the fields."""
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
            if not float(v).is_integer():
                raise ValueError(
                    f"{kind} {where} = {v} is not an integer; scale_to_chip first"
                )
            if not COEFF_MIN <= v <= COEFF_MAX:
                raise ValueError(
                    f"{kind} {where} = {v} outside programmable range "
                    f"[{COEFF_MIN}, {COEFF_MAX}]"
                )


def solve(model: IsingModel, *, backend: str, seed: int, num_samples: int,
          collect_trace: bool) -> SolveResult:
    """Run ``num_samples`` reads of ``backend``, read k seeded with
    ``mix_seed(seed, k)``, and keep the first with the lowest model energy.

    The emulator first checks that the model fits the chip, and only it
    collects a trace, with the model's offset added to each energy.
    """
    if num_samples < 1:
        raise ValueError("num_samples must be >= 1")
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}")
    emulator = backend == "emulator"
    if emulator:
        _check_chip(model)
    n = model.num_spins
    if n == 0:
        return SolveResult((), ())
    jd, h = _dense(model)
    if emulator:
        reads = [anneal(n, jd, h, SWEEPS, INITIAL_TEMP, FINAL_TEMP,
                        mix_seed(seed, k), collect_trace)
                 for k in range(num_samples)]
    else:
        reads = [tabu(n, jd, h, DEFAULT_TABU_MOVES, TABU_TENURE, mix_seed(seed, k))
                 for k in range(num_samples)]
    # a read is (spins, kernel energy, anneal trace rows or tabu move count)
    energies = [model.energy(spins) for spins, _, _ in reads]
    spins, _, extra = reads[energies.index(min(energies))]
    trace = (tuple((s, t, e + model.offset) for s, t, e in extra)
             if emulator and collect_trace else ())
    return SolveResult(tuple(spins), trace)
