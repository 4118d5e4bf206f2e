"""Ising ground-state search: :func:`solve` on one of two backends.

Both backends take the same :class:`~isingsat.qubo.IsingModel`; a call lays
it out once for all its reads, the fields as a list and the couplings as
``kernels.couplings`` builds them from the model's pairs: the compiled
kernel's neighbour lists of the nonzero couplings, or the pure oracle's
dense, symmetric row-major n*n matrix.  The kernels also take that matrix
as a list, wherever it comes from.  A pair index outside the model, a spin
paired with itself and a pair given twice are refused:

* ``"emulator"`` — a simulated annealer standing in for the 45-spin
  all-to-all chip.  It refuses models that would not fit the device: more
  than ``SPIN_BUDGET`` spins, or a coefficient the chip cannot hold
  (:func:`isingsat.qubo.chip_misfit`; run
  :func:`isingsat.qubo.scale_to_chip` first).
* ``"tabu"`` — a single-flip tabu search with no size or coefficient
  restrictions, used as the software baseline.  Its effort is a fixed move
  budget rather than wall-clock time so identical calls give identical
  results on any machine.  The search draws no random numbers after its
  start, so once it is back in a state it was in since its last improvement
  it only repeats that cycle; the C kernel then stops and returns the full
  budget's result.

Every backend draws randomness from a seeded xorshift64* generator; per-read
seeds are derived with splitmix64, so a call's outcome depends only on
(model, seed, number of reads).  Of a call's reads, the result keeps the
first one with the lowest energy as the kernel tracked it, which is exact on
the quarter-integer and integer models the pipeline builds.

The inner loops live in :mod:`.kernels`: a C kernel compiled on first import
and cached in ``__pycache__``, or, without a C compiler, the pure-Python
oracle it is tested against bit for bit.  The two give identical results;
the C kernel's Metropolis test calls ``exp`` only where two cheap bounds
cannot decide it, and its tabu stops at a repeated state, where the oracle
runs out the budget.  ``kernels.COMPILED_KERNELS`` says which one runs.
This package and the oracle import ``qubo``'s chip constants and models,
and ``qubo`` imports ``kernels`` last, so either may be imported first.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from ..qubo import SPIN_BUDGET, IsingModel, chip_misfit
from .kernels import anneal, couplings, mix_seed, scale, tabu

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

    The best read is the first with the lowest energy the kernel itself
    tracked.  ``trace`` holds (sweep, temperature, best energy so far) rows
    when the call collected them, else it is empty.
    """

    best_spins: tuple[int, ...]
    trace: tuple[tuple[int, float, float], ...]


def _check_chip(model: IsingModel) -> None:
    n = model.num_spins
    if n > SPIN_BUDGET:
        raise ValueError(
            f"model needs {n} spins but the chip has {SPIN_BUDGET}")
    try:
        if scale(model.j, model.h, model.offset) is None:
            return  # the chip holds every coefficient; else a misfit is named
    except ValueError:  # a coefficient that is not finite, or too small to scale
        pass
    p = model.pairs
    pair_terms = ((f"coupling {(i, k)}", v) for i, k, v in sorted(zip(p[::2], p[1::2], model.j)))
    fields = ((f"field {i}", v) for i, v in enumerate(model.h))
    for name, v in chain(pair_terms, fields):
        if why := chip_misfit(v):
            raise ValueError(f"{name} = {v} {why}")


def solve(model: IsingModel, *, backend: str, seed: int, num_samples: int,
          collect_trace: bool) -> SolveResult:
    """Run ``num_samples`` reads of ``backend``, read k seeded with
    ``mix_seed(seed, k)``, and keep the first with the lowest kernel energy.

    The kernels track a read's energy incrementally, without the offset.
    When every coefficient is a small multiple of 1/4, as on the pipeline's
    quarter-integer (tabu) and integer (emulator) models, that energy is
    exact, so the pick equals the pick by ``model.energy``.
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
    jd = couplings(n, model.pairs, model.j)
    h = model.h.tolist()
    if emulator:
        reads = [anneal(n, jd, h, SWEEPS, INITIAL_TEMP, FINAL_TEMP,
                        mix_seed(seed, k), collect_trace)
                 for k in range(num_samples)]
    else:
        reads = [tabu(n, jd, h, DEFAULT_TABU_MOVES, TABU_TENURE,
                      mix_seed(seed, k))
                 for k in range(num_samples)]
    # a read is (spins, kernel energy, anneal trace rows or tabu move count)
    energies = [energy for _, energy, _ in reads]
    spins, _, extra = reads[energies.index(min(energies))]
    trace = (tuple((s, t, e + model.offset) for s, t, e in extra)
             if emulator and collect_trace else ())
    return SolveResult(tuple(spins), trace)
