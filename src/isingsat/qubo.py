"""CNF to QUBO/Ising conversion and chip-range coefficient scaling.

Each clause becomes a penalty polynomial over binary variables: zero on every
assignment that satisfies the clause, at least one otherwise.  A slice's
clauses arrive as the decomposition's literal codes, ``2 * r`` for the
variable of rank ``r`` and ``2 * r + 1`` for its negation, so the build
never sees a variable number.  Width-3 clauses need one ancilla variable
each, so a slice with n occurring ranks and m3 three-literal clauses costs
n + m3 QUBO variables; 1- and 2-literal clauses need no ancilla.  Negated
literals are handled by the substitution v -> 1 - v, never by extra
variables.  The substituted coefficients are a constant table keyed by
clause width and sign pattern (14 entries); building a QUBO only looks them
up.  Both models keep their pair terms in maps keyed ``(i, k)``, ``i < k``,
so no step costs n².

The table, both builds, :func:`cnf_to_qubo` and :func:`qubo_to_ising`, and
the rule of :func:`scale_to_chip` run in :mod:`.solver.kernels`: compiled,
or as the pure-Python oracle ``_kernels_py``, with identical fields, floats
and key order.  Every QUBO coefficient is a small integer, which the Ising
step only halves and quarters, so neither build rounds; the chip scaling
rounds in doubles, and both implementations round alike, zero signs
included.

The width-3 gadget coefficients were frozen from an exhaustive 16-row
enumeration (min over the ancilla: 0 on the seven satisfying rows, exactly 1
on the falsifying row):

    P(a, b, c, w) = ab + a + b - 2aw - 2bw + cw + 1 - c

An empty clause cannot be satisfied at all; it contributes a constant +1 to
the offset, which is what makes frozen MaxSAT subproblems (where conflicting
units are kept verbatim) price their unavoidable violations.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .cnf import Clause

Pair = tuple[int, int]


@dataclass
class QuboModel:
    """Quadratic model over binary variables x in {0,1}.

    energy(x) = offset + sum_i linear[i]*x_i + sum_{i<j} quadratic[i,j]*x_i*x_j

    ``quadratic`` keys are ordered pairs ``i < j``; :func:`cnf_to_qubo`
    builds every model, with each field, in one step.  ``ranks[i]`` is the
    rank of the variable QUBO index ``i`` encodes, for each ``i`` below
    ``len(ranks)``; the ancillas follow.
    """

    num_vars: int
    linear: dict[int, float]
    quadratic: dict[Pair, float]
    offset: float
    ranks: list[int]

    def energy(self, x: Sequence[int] | Mapping[int, int]) -> float:
        return self.offset + sum(a * x[i] for i, a in self.linear.items()) + sum(
            b * x[i] * x[j] for (i, j), b in self.quadratic.items())


@dataclass
class IsingModel:
    """Pairwise spin model: H(s) = sum_{i<k} J_ik s_i s_k + sum_i h_i s_i + offset.

    ``j`` maps each coupled pair ``(i, k)``, ``i < k``, to J_ik, as
    :attr:`QuboModel.quadratic` does, and ``h`` holds the n fields.
    """

    num_spins: int
    j: dict[Pair, float]
    h: list[float]
    offset: float

    def energy(self, s: Sequence[int]) -> float:
        return self.offset + sum(a * x for a, x in zip(self.h, s)) + sum(
            b * s[i] * s[k] for (i, k), b in self.j.items())


# Capacity and integer coefficient range of the emulated annealer board,
# the one device every slice is annealed on.
SPIN_BUDGET = 45
COEFF_MIN = -14
COEFF_MAX = 14


@dataclass(frozen=True)
class DistortionReport:
    """What integer rounding did to a scaled model."""

    max_rel_error: float


def cnf_to_qubo(clauses: Sequence[Clause]) -> QuboModel:
    """Sum of clause gadgets over the ranks the clauses' literal codes hold.

    QUBO indices are contiguous: the occurring ranks first (sorted, listed
    in ``ranks``), then one ancilla per width-3 clause in clause order.
    Minimum energy is 0 iff the clauses can all hold; every unsatisfiable
    clause at the optimum adds 1, and empty clauses add their +1 directly to
    the offset.  A code that is not an int is a TypeError, a code that is
    negative or beyond a C ``int``, or a clause wider than 3, a ValueError.
    """
    return QuboModel(*kernels.qubo(clauses))


def qubo_to_ising(q: QuboModel) -> IsingModel:
    """Exact change of variables x_i = (1 + s_i)/2; energies match assignment-wise."""
    return IsingModel(*kernels.ising(q.num_vars, q.linear, q.quadratic, q.offset))


def chip_misfit(v: float) -> str | None:
    """Why the chip cannot hold the coefficient ``v``, or None when it can:
    it holds integers in ``COEFF_MIN..COEFF_MAX``."""
    if not float(v).is_integer():
        return "is not an integer; scale_to_chip first"
    if not COEFF_MIN <= v <= COEFF_MAX:
        return f"outside programmable range [{COEFF_MIN}, {COEFF_MAX}]"
    return None


def scale_to_chip(m: IsingModel) -> tuple[IsingModel, DistortionReport]:
    """Fit coefficients into the chip's integer range.

    A model whose every coefficient the chip holds (:func:`chip_misfit`)
    passes through untouched.  Otherwise every coefficient (and the offset)
    is scaled so the largest magnitude lands on ``COEFF_MAX``, then J/h are
    rounded to integers (ties away from zero) and clamped; the scaled model
    keeps the same pairs.  Positive scaling preserves the energy ordering
    exactly; only the rounding step can distort, which the report
    quantifies.  The rule is the kernel ``scale``; a coefficient that is not
    finite is a ValueError.
    """
    if m.num_spins > SPIN_BUDGET:
        raise ValueError(
            f"{m.num_spins} spins exceed the chip budget {SPIN_BUDGET}")
    scaled = kernels.scale(m.j, m.h, m.offset)
    if scaled is None:
        return m, DistortionReport(max_rel_error=0.0)
    j, h, offset, max_rel = scaled
    return IsingModel(m.num_spins, j, h, offset), DistortionReport(max_rel_error=max_rel)


# Last: the solver package imports this module's chip constants and models,
# so importing it at the top would fail when this module is imported first.
from .solver import kernels  # noqa: E402
