"""Multiplier netlists, semiprime catalogs, and CNF encodings."""
from __future__ import annotations

from collections import Counter

import pytest

from isingsat.circuit import (
    IMPLICATION_FORM,
    ROW_ENCODING,
    build_multiplier,
    encode_netlist,
    factor_widths,
    gate_clauses,
    generate_instance,
    semiprime_catalog,
    simulate,
)
from isingsat.cnf import evaluate
from isingsat.preprocess import run_ladder


def test_factor_widths():
    assert factor_widths(4) == (2, 2)
    assert factor_widths(5) == (3, 2)
    assert factor_widths(8) == (4, 4)
    assert factor_widths(11) == (6, 5)


@pytest.mark.parametrize("wa,wb", [(1, 1), (2, 2), (3, 2), (4, 3), (5, 5)])
def test_multiplier_simulates_products(wa, wb):
    nl = build_multiplier(wa, wb)
    assert len(nl.output_bits) == wa + wb
    for a in range(1 << wa):
        for b in range(1 << wb):
            _, product = simulate(nl, a, b)
            assert product == a * b, (wa, wb, a, b)


def test_simulate_bounds():
    nl = build_multiplier(2, 2)
    with pytest.raises(ValueError):
        simulate(nl, 4, 1)


def _sieve(limit):
    flags = [True] * limit
    primes = []
    for i in range(2, limit):
        if flags[i]:
            primes.append(i)
            for j in range(i * i, limit, i):
                flags[j] = False
    return primes


def test_catalog_matches_independent_sieve():
    for bits in (4, 5, 7, 8):
        wa, wb = factor_widths(bits)
        primes = _sieve(1 << max(wa, wb))
        expect = set()
        for p in primes:
            for q in primes:
                if p.bit_length() == wa and q.bit_length() == wb:
                    s = p * q
                    if s.bit_length() == bits:
                        expect.add(s)
        got = semiprime_catalog(bits)
        assert got == sorted(expect), bits


def test_catalog_small_widths_exact():
    assert semiprime_catalog(4) == [9]
    assert semiprime_catalog(5) == [21]


def test_catalog_width_bounds():
    with pytest.raises(ValueError):
        semiprime_catalog(3)
    with pytest.raises(ValueError):
        semiprime_catalog(17)


@pytest.mark.parametrize("bits,occ", [(4, 18), (5, 28), (7, 71), (8, 104), (10, 171), (11, 205)])
def test_instance_occurring_variable_counts(bits, occ):
    # every wire of the multiplier occurs in some clause
    cnf, _ = generate_instance(bits, semiprime_catalog(bits)[0])
    assert len(cnf.occurring_vars()) == occ
    assert cnf.num_vars == occ


def test_eight_bit_instance_shape():
    cnf, nl = generate_instance(8, 143)
    assert cnf.num_vars == 104
    assert cnf.max_clause_width() == 3
    units = {c[0] for c in cnf.clauses if len(c) == 1}
    # 8 product bits, the constant-zero wire, and both factor MSB pins
    assert len(units) == 11
    assert nl.input_bits_a[-1] in units and nl.input_bits_b[-1] in units


def _factors(semiprime):
    """The prime factors, the narrow one first: it is the a-input rail."""
    q = next(d for d in range(2, semiprime) if semiprime % d == 0)
    return q, semiprime // q


def test_factor_assignment_satisfies_cnf(catalog45):
    for bits, semiprime, cnf, nl in catalog45:
        wires, product = simulate(nl, *_factors(semiprime))
        assert product == semiprime
        assert evaluate(cnf, wires)


def test_wrong_product_assignment_fails():
    cnf, nl = generate_instance(4, 9)
    wires, product = simulate(nl, 3, 2)  # 6 != 9
    assert product != 9
    assert not evaluate(cnf, wires)


def test_unknown_semiprime_rejected():
    with pytest.raises(ValueError):
        generate_instance(4, 15)  # 3*5 has a 3-bit factor, not full-width 2+2


def _multiset(clauses):
    return Counter(tuple(sorted(c)) for c in clauses)


def test_option2_same_factor_solutions():
    # the option-2 (implication-form) encoding has one path, ladder level 1:
    # it rewrites the rows of every AND/OR gate, XOR gates keep theirs, and
    # the factors' wires satisfy the result
    for bits in range(4, 11):
        for semiprime in semiprime_catalog(bits):
            cnf, nl = generate_instance(bits, semiprime)
            implication = [c for g in nl.gates
                           for c in gate_clauses(
                               IMPLICATION_FORM.get(g.kind, ROW_ENCODING[g.kind]),
                               *g.inputs, g.output)]
            implication += [c for c in cnf.clauses if len(c) == 1]
            level1 = run_ladder(cnf, 1, seed=1).cnf
            assert level1.num_vars == cnf.num_vars
            assert _multiset(level1.clauses) == _multiset(implication), semiprime
            wires, _ = simulate(nl, *_factors(semiprime))
            assert evaluate(level1, wires), semiprime


def test_encode_netlist_fixes_product_and_zero():
    nl = build_multiplier(2, 2)
    cnf = encode_netlist(nl, 9)
    units = {c[0] for c in cnf.clauses if len(c) == 1}
    assert -nl.const_zero in units
    # 9 = 1001: output bits 0 and 3 true, 1 and 2 false
    assert nl.output_bits[0] in units and nl.output_bits[3] in units
    assert -nl.output_bits[1] in units and -nl.output_bits[2] in units
