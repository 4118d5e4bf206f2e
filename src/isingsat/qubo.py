"""CNF to QUBO/Ising conversion and chip-range coefficient scaling.

Each clause becomes a penalty polynomial over binary variables: zero on every
assignment that satisfies the clause, at least one otherwise.  Width-3
clauses need one ancilla variable each, so a formula with n occurring
variables and m3 three-literal clauses costs n + m3 QUBO variables; 1- and
2-literal clauses need no ancilla.  Negated literals are handled by the
substitution v -> 1 - v, never by extra variables.  The substituted
coefficients are a constant table keyed by clause width and sign pattern
(14 entries); building a QUBO only looks them up.

The width-3 gadget coefficients were frozen from an exhaustive 16-row
enumeration (min over the ancilla: 0 on the seven satisfying rows, exactly 1
on the falsifying row):

    P(a, b, c, w) = ab + a + b - 2aw - 2bw + cw + 1 - c

An empty clause cannot be satisfied at all; it contributes a constant +1 to
the offset, which is what makes frozen MaxSAT subproblems (where conflicting
units are kept verbatim) price their unavoidable violations.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .cnf import Cnf

Pair = tuple[int, int]


def _pair(i: int, j: int) -> Pair:
    return (i, j) if i < j else (j, i)


@dataclass
class QuboModel:
    """Quadratic model over binary variables x in {0,1}.

    energy(x) = offset + sum_i linear[i]*x_i + sum_{i<j} quadratic[i,j]*x_i*x_j

    ``source_var_map`` maps a QUBO index back to the CNF variable it encodes;
    ancilla indices are absent from it.
    """

    num_vars: int
    linear: dict[int, float] = field(default_factory=dict)
    quadratic: dict[Pair, float] = field(default_factory=dict)
    offset: float = 0.0
    source_var_map: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        for i, j in self.quadratic:
            if not 0 <= i < j < self.num_vars:
                raise ValueError(f"quadratic key ({i},{j}) is not an ordered pair in range")

    def add_linear(self, i: int, coeff: float) -> None:
        self.linear[i] = self.linear.get(i, 0.0) + coeff

    def add_quadratic(self, i: int, j: int, coeff: float) -> None:
        if i == j:
            self.add_linear(i, coeff)  # x*x = x for binaries
            return
        key = _pair(i, j)
        self.quadratic[key] = self.quadratic.get(key, 0.0) + coeff

    def energy(self, x: Sequence[int] | Mapping[int, int]) -> float:
        e = self.offset
        for i, a in self.linear.items():
            e += a * x[i]
        for (i, j), b in self.quadratic.items():
            e += b * x[i] * x[j]
        return e


@dataclass
class IsingModel:
    """Pairwise spin model: H(s) = sum_{i<j} J_ij s_i s_j + sum_i h_i s_i + offset."""

    num_spins: int
    j: dict[Pair, float] = field(default_factory=dict)
    h: dict[int, float] = field(default_factory=dict)
    offset: float = 0.0

    def energy(self, s: Sequence[int] | Mapping[int, int]) -> float:
        e = self.offset
        for i, a in self.h.items():
            e += a * s[i]
        for (i, k), b in self.j.items():
            e += b * s[i] * s[k]
        return e

    def max_abs_coeff(self) -> float:
        coeffs = [abs(v) for v in self.j.values()] + [abs(v) for v in self.h.values()]
        return max(coeffs, default=0.0)


# Capacity and integer coefficient range of the emulated annealer board,
# the one device every slice is annealed on.
SPIN_BUDGET = 45
COEFF_MIN = -14
COEFF_MAX = 14


@dataclass(frozen=True)
class DistortionReport:
    """What integer rounding did to a scaled model."""

    max_rel_error: float


# The penalties 1 - a, (1 - a)(1 - b) and P(a, b, c, w), with a -> 1 - x for
# each negative literal, expanded once.  Keyed by the literal signs (True =
# positive, so the width is the key's length), each entry holds the offset, a
# linear coefficient per slot and a quadratic coefficient per pair of
# _PAIRS.  Slots 0..width-1 are the literals' variables in clause order, slot
# 3 the width-3 ancilla.
_PAIRS = {1: (), 2: ((0, 1),), 3: ((0, 1), (0, 3), (1, 3), (2, 3))}
_GADGETS = {
    (True,): (1, (-1,), ()),
    (False,): (0, (1,), ()),
    (True, True): (1, (-1, -1), (1,)),
    (True, False): (0, (0, 1), (-1,)),
    (False, True): (0, (1, 0), (-1,)),
    (False, False): (0, (0, 0), (1,)),
    (True, True, True): (1, (1, 1, -1, 0), (1, -2, -2, 1)),
    (True, True, False): (0, (1, 1, 1, 1), (1, -2, -2, -1)),
    (True, False, True): (2, (2, -1, -1, -2), (-1, -2, 2, 1)),
    (True, False, False): (1, (2, -1, 1, -1), (-1, -2, 2, -1)),
    (False, True, True): (2, (-1, 2, -1, -2), (-1, 2, -2, 1)),
    (False, True, False): (1, (-1, 2, 1, -1), (-1, 2, -2, -1)),
    (False, False, True): (4, (-2, -2, -1, -4), (1, 2, 2, 1)),
    (False, False, False): (3, (-2, -2, 1, -3), (1, 2, 2, -1)),
}


def cnf_to_qubo(cnf: Cnf) -> QuboModel:
    """Sum of clause gadgets over the occurring variables.

    QUBO indices are contiguous: occurring CNF variables first (sorted),
    then one ancilla per width-3 clause in clause order.  Minimum energy is
    0 iff the formula is satisfiable; every unsatisfiable clause at the
    optimum adds 1, and empty clauses add their +1 directly to the offset.
    """
    width = cnf.max_clause_width()
    if width > 3:
        raise ValueError(f"clause width {width} exceeds 3; reduce the formula first")
    occurring = cnf.occurring_vars()
    index_of = {v: i for i, v in enumerate(occurring)}
    model = QuboModel(
        num_vars=len(occurring) + sum(1 for c in cnf.clauses if len(c) == 3),
        source_var_map={i: v for v, i in index_of.items()},
    )
    next_ancilla = len(occurring)
    for clause in cnf.clauses:
        if len(clause) == 0:
            model.offset += 1.0
            continue
        slots = [index_of[abs(lit)] for lit in clause]
        if len(clause) == 3:
            slots.append(next_ancilla)
            next_ancilla += 1
        offset, linear, quadratic = _GADGETS[tuple(lit > 0 for lit in clause)]
        model.offset += offset
        for slot, coeff in zip(slots, linear):
            if coeff:
                model.add_linear(slot, coeff)
        for (s, t), coeff in zip(_PAIRS[len(clause)], quadratic):
            if coeff:  # a repeated variable folds in as x*x = x
                model.add_quadratic(slots[s], slots[t], coeff)
    return model


def qubo_to_ising(q: QuboModel) -> IsingModel:
    """Exact change of variables x_i = (1 + s_i)/2; energies match assignment-wise."""
    m = IsingModel(num_spins=q.num_vars)
    m.offset = q.offset
    for i, a in q.linear.items():
        m.h[i] = m.h.get(i, 0.0) + a / 2.0
        m.offset += a / 2.0
    for (i, j), b in q.quadratic.items():
        m.j[(i, j)] = m.j.get((i, j), 0.0) + b / 4.0
        m.h[i] = m.h.get(i, 0.0) + b / 4.0
        m.h[j] = m.h.get(j, 0.0) + b / 4.0
        m.offset += b / 4.0
    m.h = {i: v for i, v in m.h.items() if v != 0.0}
    m.j = {k: v for k, v in m.j.items() if v != 0.0}
    return m


def _round_away(v: float) -> int:
    return math.floor(v + 0.5) if v >= 0 else math.ceil(v - 0.5)


def scale_to_chip(m: IsingModel) -> tuple[IsingModel, DistortionReport]:
    """Fit coefficients into the chip's integer range.

    Already-integral models inside the range pass through untouched.
    Otherwise every coefficient (and the offset) is scaled so the largest
    magnitude lands on ``COEFF_MAX``, then J/h are rounded to integers (ties
    away from zero) and clamped.  Positive scaling preserves the energy
    ordering exactly; only the rounding step can distort, which the report
    quantifies.
    """
    if m.num_spins > SPIN_BUDGET:
        raise ValueError(
            f"{m.num_spins} spins exceed the chip budget {SPIN_BUDGET}")
    coeffs = list(m.j.values()) + list(m.h.values())
    in_range = all(
        float(v).is_integer() and COEFF_MIN <= v <= COEFF_MAX for v in coeffs)
    if in_range:
        return m, DistortionReport(max_rel_error=0.0)
    maxabs = m.max_abs_coeff()
    scale = COEFF_MAX / maxabs if maxabs else 1.0

    def fit(v: float) -> int:
        r = _round_away(v * scale)
        return max(COEFF_MIN, min(COEFF_MAX, r))

    scaled = IsingModel(
        num_spins=m.num_spins,
        j={k: float(fit(v)) for k, v in m.j.items()},
        h={i: float(fit(v)) for i, v in m.h.items()},
        offset=m.offset * scale,
    )
    max_rel = 0.0
    for before, after in zip(coeffs, list(scaled.j.values()) + list(scaled.h.values())):
        target = before * scale
        if target != 0.0:
            max_rel = max(max_rel, abs(after - target) / abs(target))
    return scaled, DistortionReport(max_rel_error=max_rel)
