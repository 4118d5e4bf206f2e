"""Clause penalty gadgets, QUBO assembly, spin conversion, chip scaling."""
from __future__ import annotations

import itertools
import random

import pytest

from isingsat.cnf import clause_satisfied, make_cnf
from isingsat.qubo import (
    ChipProfile,
    IsingModel,
    QuboModel,
    clause_gadget,
    cnf_to_qubo,
    export_triplets,
    qubo_to_ising,
    scale_to_chip,
)

from conftest import mixed_random_cnf


def _poly_energy(poly, x):
    e = poly.offset
    for i, a in poly.linear.items():
        e += a * x[i]
    for (i, j), b in poly.quadratic.items():
        e += b * x[i] * x[j]
    return e


def _gadget_min(clause, x_vars):
    """Penalty minimized over the ancilla (index -1 by convention here)."""
    poly = clause_gadget(clause, ancilla=-1) if len(clause) == 3 else clause_gadget(clause)
    if len(clause) < 3:
        return _poly_energy(poly, x_vars)
    vals = []
    for w in (0, 1):
        x = dict(x_vars)
        x[-1] = w
        vals.append(_poly_energy(poly, x))
    return min(vals)


# clauses that repeat a variable: their gadget terms fold together (x*x = x)
_REPEATED_VAR_CLAUSES = [(1, -1), (1, 1, 2), (1, -1, 2)]


@pytest.mark.parametrize("width", [1, 2, 3])
def test_gadget_penalty_indicator(width):
    """min-over-ancilla penalty is 0 on satisfying rows, 1 on falsifying ones."""
    clauses = [tuple(s * (i + 1) for i, s in enumerate(signs))
               for signs in itertools.product((1, -1), repeat=width)]
    clauses += [c for c in _REPEATED_VAR_CLAUSES if len(c) == width]
    for clause in clauses:
        vs = sorted({abs(lit) for lit in clause})
        for bits in itertools.product((0, 1), repeat=len(vs)):
            x = dict(zip(vs, bits))
            a = {v: bool(b) for v, b in x.items()}
            expect = 0 if clause_satisfied(clause, a) else 1
            assert _gadget_min(clause, x) == expect, (clause, bits)


def test_gadget_width3_integer_coefficients():
    poly = clause_gadget((1, 2, 3), ancilla=4)
    assert poly.linear == {1: 1.0, 2: 1.0, 3: -1.0}
    assert poly.quadratic == {(1, 2): 1.0, (1, 4): -2.0, (2, 4): -2.0, (3, 4): 1.0}
    assert poly.offset == 1.0


def test_gadget_rejects_bad_widths():
    with pytest.raises(ValueError):
        clause_gadget(())
    with pytest.raises(ValueError):
        clause_gadget((1, 2, 3, 4))
    with pytest.raises(ValueError):
        clause_gadget((1, 2, 3))  # no ancilla supplied


def _qubo_min(q: QuboModel):
    best = None
    for bits in itertools.product((0, 1), repeat=q.num_vars):
        e = q.energy(bits)
        best = e if best is None else min(best, e)
    return best


def test_qubo_minimum_counts_unsatisfied_clauses():
    rng = random.Random(11)
    cnfs = [mixed_random_cnf(rng.randint(2, 5), rng.randint(1, 6), rng)
            for _ in range(25)]
    cnfs += [make_cnf(cnf.num_vars, cnf.clauses + (extra,))
             for cnf, extra in zip(cnfs, _REPEATED_VAR_CLAUSES)]
    for cnf in cnfs:
        q = cnf_to_qubo(cnf)
        # brute-force MaxSAT optimum over the occurring variables
        occ = cnf.occurring_vars()
        best_unsat = min(
            sum(0 if clause_satisfied(c, dict(zip(occ, vals))) else 1 for c in cnf.clauses)
            for vals in itertools.product((False, True), repeat=len(occ))
        )
        assert _qubo_min(q) == pytest.approx(best_unsat)


def test_qubo_index_layout():
    cnf = make_cnf(9, [(2, -5, 7), (5, 9)])
    q = cnf_to_qubo(cnf)
    # occurring vars sorted first, then one ancilla per width-3 clause
    assert q.source_var_map == {0: 2, 1: 5, 2: 7, 3: 9}
    assert q.ancilla_map == {0: 4}
    assert q.num_vars == 5
    assert q.var_index == {2: 0, 5: 1, 7: 2, 9: 3}


def test_qubo_empty_clause_is_constant_penalty():
    cnf = make_cnf(2, [(1, 2), ()])
    q = cnf_to_qubo(cnf)
    assert _qubo_min(q) == pytest.approx(1.0)


def test_qubo_rejects_wide_clauses():
    with pytest.raises(ValueError):
        cnf_to_qubo(make_cnf(4, [(1, 2, 3, 4)]))


def test_quadratic_key_ordering_enforced():
    with pytest.raises(ValueError):
        QuboModel(num_vars=3, quadratic={(2, 1): 1.0})


def test_ising_matches_qubo_assignmentwise():
    rng = random.Random(5)
    for _ in range(20):
        cnf = mixed_random_cnf(rng.randint(2, 5), rng.randint(1, 6), rng)
        q = cnf_to_qubo(cnf)
        m = qubo_to_ising(q)
        assert m.num_spins == q.num_vars
        for bits in itertools.product((0, 1), repeat=q.num_vars):
            spins = tuple(2 * b - 1 for b in bits)
            assert m.energy(spins) == pytest.approx(q.energy(bits))


def test_chip_profile_validation():
    with pytest.raises(ValueError):
        ChipProfile(spin_budget=0)
    with pytest.raises(ValueError):
        ChipProfile(coeff_min=1, coeff_max=14)
    p = ChipProfile()
    assert p.spin_budget == 45 and p.coeff_min == -14 and p.coeff_max == 14


def test_scale_passthrough_for_integral_models():
    m = IsingModel(num_spins=2, j={(0, 1): 3.0}, h={0: -2.0}, offset=1.5)
    scaled, rep = scale_to_chip(m, ChipProfile())
    assert scaled is m
    assert rep.scale == 1.0 and rep.max_rel_error == 0.0 and not rep.collapsed


def test_scale_maps_largest_to_coeff_max():
    m = IsingModel(num_spins=2, j={(0, 1): 28.0}, h={0: 7.0, 1: -3.5})
    scaled, rep = scale_to_chip(m, ChipProfile())
    assert rep.scale == pytest.approx(0.5)
    assert scaled.j[(0, 1)] == 14.0
    assert scaled.h[0] == 4.0 and scaled.h[1] == -2.0
    assert rep.max_rel_error == pytest.approx(abs(4.0 - 3.5) / 3.5)


def test_scale_preserves_ordering_when_exact():
    # coefficients already proportional to integers: ordering survives exactly
    m = IsingModel(num_spins=3, j={(0, 1): 0.5, (1, 2): -0.25}, h={0: 0.25})
    scaled, rep = scale_to_chip(m, ChipProfile())
    assert rep.max_rel_error == 0.0
    spins_sets = list(itertools.product((-1, 1), repeat=3))
    order_before = sorted(spins_sets, key=m.energy)
    order_after = sorted(spins_sets, key=scaled.energy)
    assert order_before == order_after


def test_scale_reports_collapse():
    m = IsingModel(num_spins=2, j={(0, 1): 1000.0}, h={0: 0.01})
    _, rep = scale_to_chip(m, ChipProfile())
    assert rep.collapsed  # the tiny field rounds to zero


def test_scale_budget_guard():
    m = IsingModel(num_spins=46)
    with pytest.raises(ValueError):
        scale_to_chip(m, ChipProfile())


def test_export_triplets_format():
    q = QuboModel(num_vars=3, linear={0: 1.0, 2: -2.0}, quadratic={(0, 2): 3.0})
    text = export_triplets(q)
    assert text == "0 0 1\n2 2 -2\n0 2 3\n"
