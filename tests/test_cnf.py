"""DIMACS round-trips, evaluation, and the brute-force reference solver."""
from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from isingsat.cnf import (
    Cnf,
    DimacsError,
    brute_force_solutions,
    clause_satisfied,
    count_satisfied,
    evaluate,
    literal_true,
    make_cnf,
    parse_dimacs,
    write_dimacs,
)

from conftest import mixed_random_cnf


def test_parse_basic():
    cnf = parse_dimacs("c comment\np cnf 3 2\n1 -2 0\n2 3 0\n")
    assert cnf.num_vars == 3
    assert cnf.clauses == ((1, -2), (2, 3))


def test_parse_multiline_clause_and_trailing():
    cnf = parse_dimacs("p cnf 2 1\n1\n-2 0\n")
    assert cnf.clauses == ((1, -2),)


def test_parse_empty_clause_is_kept():
    cnf = parse_dimacs("p cnf 2 2\n0\n1 2 0\n")
    assert cnf.clauses[0] == ()
    assert cnf.is_unsat_marked()


def test_parse_errors():
    with pytest.raises(DimacsError):
        parse_dimacs("1 2 0\n")  # missing header
    with pytest.raises(DimacsError):
        parse_dimacs("p cnf 2 1\n3 0\n")  # literal out of range
    with pytest.raises(DimacsError):
        parse_dimacs("p cnf 2 1\n1 x 0\n")  # junk token
    with pytest.raises(DimacsError):
        parse_dimacs("p cnf 2 1\n1 2\n")  # unterminated clause


def test_parse_count_mismatch_tolerated():
    cnf = parse_dimacs("p cnf 2 5\n1 0\n")
    assert cnf.clauses == ((1,),)


def test_roundtrip_preserves_clauses():
    rng = random.Random(7)
    for _ in range(20):
        cnf = mixed_random_cnf(10, 25, rng)
        again = parse_dimacs(write_dimacs(cnf))
        assert again.num_vars == cnf.num_vars
        assert again.clauses == cnf.clauses


def test_roundtrip_empty_clause():
    cnf = make_cnf(3, [(1, 2), ()])
    again = parse_dimacs(write_dimacs(cnf))
    assert again.clauses == cnf.clauses


def test_literal_and_clause_eval():
    a = {1: True, 2: False}
    assert literal_true(1, a) and not literal_true(-1, a)
    assert literal_true(-2, a)
    assert clause_satisfied((1, 2), a)
    assert not clause_satisfied((-1, 2), a)
    assert not clause_satisfied((), a)  # empty clause is never satisfied


def test_evaluate_counts():
    cnf = make_cnf(2, [(1,), (2,), (-1, -2)])
    assert count_satisfied(cnf.clauses, {1: True, 2: False}) == 2
    assert not evaluate(cnf, {1: True, 2: False})
    assert count_satisfied(cnf.clauses, {1: True, 2: True}) == 2  # last clause falsified
    assert not evaluate(cnf, {1: True, 2: True})
    assert evaluate(make_cnf(2, [(1,), (-1, -2)]), {1: True, 2: False})


def test_evaluate_requires_complete_assignment():
    cnf = make_cnf(2, [(1, 2)])
    with pytest.raises(ValueError):
        evaluate(cnf, {1: True})


def test_count_satisfied_subset():
    clauses = [(1,), (-1,), (1, -2)]
    assert count_satisfied(clauses, {1: True, 2: True}) == 2


def test_brute_force_tiny():
    cnf = make_cnf(2, [(1, 2), (-1, 2)])
    sols = brute_force_solutions(cnf)
    assert all(s[2] for s in sols)
    assert len(sols) == 2


def test_brute_force_unsat():
    cnf = make_cnf(1, [(1,), (-1,)])
    assert brute_force_solutions(cnf) == []


def test_brute_force_var_cap():
    cnf = make_cnf(30, [(1, 2, 3)])
    with pytest.raises(ValueError):
        brute_force_solutions(cnf)


def test_brute_force_restricted_variables():
    # only vars 1,2 occur; enumerating over them ignores var 3
    cnf = make_cnf(3, [(1, 2)])
    sols = brute_force_solutions(cnf, variables=[1, 2])
    assert len(sols) == 3
    assert all(set(s) == {1, 2} for s in sols)


@given(st.integers(min_value=1, max_value=6), st.data())
@settings(max_examples=60, deadline=None)
def test_brute_force_matches_direct_check(n, data):
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    m = rng.randint(1, 4 * n)
    cnf = mixed_random_cnf(n, m, rng)
    sols = brute_force_solutions(cnf)
    # every reported solution satisfies; count matches full enumeration
    for s in sols:
        assert evaluate(cnf, s)
    total = 0
    for bits in range(2 ** n):
        a = {v: bool(bits >> (v - 1) & 1) for v in range(1, n + 1)}
        if evaluate(cnf, a):
            total += 1
    assert len(sols) == total


def test_occurring_vars_and_width():
    cnf = make_cnf(10, [(1, -3), (3, 7, 9)])
    assert cnf.occurring_vars() == [1, 3, 7, 9]
    assert cnf.max_clause_width() == 3
