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

from .cnf import Clause, Cnf

Pair = tuple[int, int]


def _pair(i: int, j: int) -> Pair:
    return (i, j) if i < j else (j, i)


@dataclass
class QuboModel:
    """Quadratic model over binary variables x in {0,1}.

    energy(x) = offset + sum_i linear[i]*x_i + sum_{i<j} quadratic[i,j]*x_i*x_j

    ``source_var_map`` maps a QUBO index back to the CNF variable it encodes;
    ancilla indices are absent from it and listed in ``ancilla_map`` keyed by
    the clause position that required them.
    """

    num_vars: int
    linear: dict[int, float] = field(default_factory=dict)
    quadratic: dict[Pair, float] = field(default_factory=dict)
    offset: float = 0.0
    ancilla_map: dict[int, int] = field(default_factory=dict)
    source_var_map: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        for i, j in self.quadratic:
            if not 0 <= i < j < self.num_vars:
                raise ValueError(f"quadratic key ({i},{j}) is not an ordered pair in range")

    @property
    def var_index(self) -> dict[int, int]:
        """CNF variable -> QUBO index (inverse of source_var_map)."""
        return {v: q for q, v in self.source_var_map.items()}

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
    spin_map: dict[int, int] = field(default_factory=dict)

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


@dataclass(frozen=True)
class ChipProfile:
    """Capacity and coefficient limits of the emulated annealer board."""

    spin_budget: int = 45
    coeff_min: int = -14
    coeff_max: int = 14

    def __post_init__(self):
        if self.spin_budget <= 0:
            raise ValueError("spin_budget must be positive")
        if not self.coeff_min < 0 < self.coeff_max:
            raise ValueError("coefficient range must straddle zero")


@dataclass(frozen=True)
class DistortionReport:
    """What integer rounding did to a scaled model."""

    scale: float
    max_rel_error: float
    collapsed: bool  # distinct coefficient values merged (or vanished) by rounding


@dataclass(frozen=True)
class ClauseGadget:
    """One clause's penalty polynomial: offset + linear + quadratic terms."""

    offset: float
    linear: dict[int, float]
    quadratic: dict[Pair, float]


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


def _add_clause(model: QuboModel, clause: Clause, ancilla: int | None,
                index_of: Mapping[int, int]) -> None:
    """Add the tabled gadget of a width 1-3 ``clause`` to ``model``."""
    slots = [index_of[abs(lit)] for lit in clause]
    if len(clause) == 3:
        if ancilla is None:
            raise ValueError("width-3 clause needs an ancilla index")
        slots.append(ancilla)
    offset, linear, quadratic = _GADGETS[tuple(lit > 0 for lit in clause)]
    model.offset += offset
    for slot, coeff in zip(slots, linear):
        if coeff:
            model.add_linear(slot, coeff)
    for (s, t), coeff in zip(_PAIRS[len(clause)], quadratic):
        if coeff:
            model.add_quadratic(slots[s], slots[t], coeff)  # a repeated variable: x*x = x


def clause_gadget(clause: Clause, ancilla: int | None = None,
                  index_of: Mapping[int, int] | None = None) -> ClauseGadget:
    """Penalty polynomial for one clause of width 1-3.

    Variables are addressed through ``index_of`` (defaults to identity on the
    clause's own variable indices).  Width-3 clauses require ``ancilla``, the
    index of a fresh variable; the penalty, minimized over that ancilla, is 0
    exactly on satisfying assignments and 1 on the falsifying one.
    """
    if len(clause) == 0:
        raise ValueError("empty clause has no gadget (it is the UNSAT marker)")
    if len(clause) > 3:
        raise ValueError(f"clause width {len(clause)} exceeds 3")
    if index_of is None:
        index_of = {abs(l): abs(l) for l in clause}
    model = QuboModel(num_vars=0)  # accumulator only; never range-checked
    _add_clause(model, clause, ancilla, index_of)
    return ClauseGadget(model.offset, model.linear, model.quadratic)


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
    for ci, clause in enumerate(cnf.clauses):
        if len(clause) == 0:
            model.offset += 1.0
            continue
        ancilla = None
        if len(clause) == 3:
            ancilla = next_ancilla
            model.ancilla_map[ci] = ancilla
            next_ancilla += 1
        _add_clause(model, clause, ancilla, index_of)
    return model


def qubo_to_ising(q: QuboModel) -> IsingModel:
    """Exact change of variables x_i = (1 + s_i)/2; energies match assignment-wise."""
    m = IsingModel(num_spins=q.num_vars,
                   spin_map={i: i for i in range(q.num_vars)})
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


def scale_to_chip(m: IsingModel, profile: ChipProfile) -> tuple[IsingModel, DistortionReport]:
    """Fit coefficients into the chip's integer range.

    Already-integral models inside the range pass through untouched.
    Otherwise every coefficient (and the offset) is scaled so the largest
    magnitude lands on ``coeff_max``, then J/h are rounded to integers (ties
    away from zero) and clamped.  Positive scaling preserves the energy
    ordering exactly; only the rounding step can distort, which the report
    quantifies.
    """
    if m.num_spins > profile.spin_budget:
        raise ValueError(
            f"{m.num_spins} spins exceed the chip budget {profile.spin_budget}")
    coeffs = list(m.j.values()) + list(m.h.values())
    in_range = all(
        float(v).is_integer() and profile.coeff_min <= v <= profile.coeff_max
        for v in coeffs
    )
    if in_range:
        return m, DistortionReport(scale=1.0, max_rel_error=0.0, collapsed=False)
    maxabs = m.max_abs_coeff()
    scale = profile.coeff_max / maxabs if maxabs else 1.0

    def fit(v: float) -> int:
        r = _round_away(v * scale)
        return max(profile.coeff_min, min(profile.coeff_max, r))

    scaled = IsingModel(
        num_spins=m.num_spins,
        j={k: float(fit(v)) for k, v in m.j.items()},
        h={i: float(fit(v)) for i, v in m.h.items()},
        offset=m.offset * scale,
        spin_map=dict(m.spin_map),
    )
    max_rel = 0.0
    for before, after in zip(coeffs, list(scaled.j.values()) + list(scaled.h.values())):
        target = before * scale
        if target != 0.0:
            max_rel = max(max_rel, abs(after - target) / abs(target))
    distinct_before = {round(v * scale, 12) for v in coeffs if v != 0.0}
    distinct_after = {fit(v) for v in coeffs if v != 0.0}
    collapsed = (0 in distinct_after and 0 not in distinct_before) or \
        len(distinct_after) < len(distinct_before)
    return scaled, DistortionReport(scale=scale, max_rel_error=max_rel,
                                    collapsed=collapsed)


def export_triplets(q: QuboModel) -> str:
    """Sparse ``i j value`` text, diagonal entries carrying the linear terms."""
    lines = [f"{i} {i} {q.linear[i]:.12g}" for i in sorted(q.linear)]
    lines += [f"{i} {j} {q.quadratic[i, j]:.12g}"
              for i, j in sorted(q.quadratic)]
    return "\n".join(lines) + "\n"
