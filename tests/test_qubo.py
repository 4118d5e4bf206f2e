"""Clause penalty gadgets, QUBO assembly, spin conversion, chip scaling."""
from __future__ import annotations

import itertools
import random

import pytest

from isingsat.cnf import clause_satisfied, make_cnf
from isingsat.qubo import (
    IsingModel,
    QuboModel,
    cnf_to_qubo,
    qubo_to_ising,
    scale_to_chip,
)

from conftest import mixed_random_cnf


def _gadget_min(clause, x_vars):
    """Penalty of the one-clause formula, minimized over its ancilla if any."""
    q = cnf_to_qubo(make_cnf(max(abs(lit) for lit in clause), [clause]))
    x = [x_vars[q.source_var_map[i]] for i in range(len(q.source_var_map))]
    ancillas = q.num_vars - len(q.source_var_map)
    return min(q.energy(x + list(w))
               for w in itertools.product((0, 1), repeat=ancillas))


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
    q = cnf_to_qubo(make_cnf(3, [(1, 2, 3)]))  # ancilla at index 3
    assert q.linear == {0: 1.0, 1: 1.0, 2: -1.0}
    assert q.quadratic == {(0, 1): 1.0, (0, 3): -2.0, (1, 3): -2.0, (2, 3): 1.0}
    assert q.offset == 1.0


def test_gadget_rejects_bad_widths():
    q = cnf_to_qubo(make_cnf(1, [()]))  # no gadget, only its constant penalty
    assert (q.num_vars, q.linear, q.quadratic, q.offset) == (0, {}, {}, 1.0)
    with pytest.raises(ValueError):
        cnf_to_qubo(make_cnf(4, [(1, 2, 3, 4)]))


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
    assert q.num_vars == 5


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


def test_scale_passthrough_for_integral_models():
    m = IsingModel(num_spins=2, j={(0, 1): 3.0}, h={0: -2.0}, offset=1.5)
    scaled, rep = scale_to_chip(m)
    assert scaled is m
    assert rep.max_rel_error == 0.0


def test_scale_maps_largest_to_coeff_max():
    m = IsingModel(num_spins=2, j={(0, 1): 28.0}, h={0: 7.0, 1: -3.5})
    scaled, rep = scale_to_chip(m)
    assert scaled.j[(0, 1)] == 14.0
    assert scaled.h[0] == 4.0 and scaled.h[1] == -2.0
    assert rep.max_rel_error == pytest.approx(abs(4.0 - 3.5) / 3.5)


def test_scale_preserves_ordering_when_exact():
    # coefficients already proportional to integers: ordering survives exactly
    m = IsingModel(num_spins=3, j={(0, 1): 0.5, (1, 2): -0.25}, h={0: 0.25})
    scaled, rep = scale_to_chip(m)
    assert rep.max_rel_error == 0.0
    spins_sets = list(itertools.product((-1, 1), repeat=3))
    order_before = sorted(spins_sets, key=m.energy)
    order_after = sorted(spins_sets, key=scaled.energy)
    assert order_before == order_after


def test_scale_budget_guard():
    m = IsingModel(num_spins=46)
    with pytest.raises(ValueError):
        scale_to_chip(m)
