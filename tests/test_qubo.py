"""Clause penalty gadgets, QUBO assembly, spin conversion, chip scaling."""
from __future__ import annotations

import itertools
import math
import os
import random
import struct
import subprocess
import sys
import tracemalloc
from array import array
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import isingsat
from isingsat import decompose, solver
from isingsat.cnf import clause_satisfied, make_cnf
from isingsat.harness import expand_instances
from isingsat.preprocess import run_ladder
from isingsat.qubo import (
    COEFF_MAX,
    COEFF_MIN,
    IsingModel,
    QuboModel,
    cnf_to_qubo,
    qubo_to_ising,
    scale_to_chip,
)
from isingsat.solver import _kernels_py, kernels
from isingsat.solver._kernels_py import _GADGETS, table_of

from conftest import (codes, ising_model, mixed_random_cnf, mutated_table, outcome_of, pair_terms,
                      resized)


def _gadget_min(clause, x_vars):
    """Penalty of the one-clause formula, minimized over its ancilla if any."""
    q = cnf_to_qubo(codes([clause]))
    x = [x_vars[q.ranks[i]] for i in range(len(q.ranks))]
    ancillas = q.num_vars - len(q.ranks)
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
    q = cnf_to_qubo(codes([(1, 2, 3)]))  # ancilla at index 3
    assert q.linear == array("d", [1.0, 1.0, -1.0, 0.0])
    assert q.pairs == array("i", [0, 1, 0, 3, 1, 3, 2, 3])  # in the gadget's order
    assert q.quadratic == array("d", [1.0, -2.0, -2.0, 1.0])
    assert q.offset == 1.0


def test_gadget_rejects_bad_widths():
    q = cnf_to_qubo(codes([()]))  # no gadget, only its constant penalty
    assert (q.num_vars, q.linear, q.pairs, q.quadratic, q.offset) == (
        0, array("d"), array("i"), array("d"), 1.0)
    with pytest.raises(ValueError):
        cnf_to_qubo(codes([(1, 2, 3, 4)]))
    with pytest.raises(ValueError, match="clause width 5 exceeds 3"):
        cnf_to_qubo(codes([(1,), (1, 2, 3, 4), (1, 2, 3, 4, 5), ()]))


def _expand_gadgets(clauses):
    """The QUBO of ``clauses`` expanded term by term from the 14 rows of
    ``_GADGETS``: the literals' variables, then the width-3 ancilla, take
    the row's linear coefficients in order and its pair coefficients for the
    pairs below; a zero term adds nothing, and a pair of one variable twice
    adds to its linear term (x*x = x)."""
    pairs = {1: [], 2: [(0, 1)], 3: [(0, 1), (0, 3), (1, 3), (2, 3)]}
    occurring = sorted({abs(lit) for clause in clauses for lit in clause})
    index = {v: i for i, v in enumerate(occurring)}
    linear, quadratic, offset = {}, {}, 0
    ancillas = 0
    for clause in clauses:
        if not clause:
            offset += 1
            continue
        constant, lin, quad = _GADGETS[tuple(lit > 0 for lit in clause)]
        slots = [index[abs(lit)] for lit in clause]
        if len(clause) == 3:
            slots.append(len(occurring) + ancillas)
            ancillas += 1
        offset += constant
        terms = [((slot,), c) for slot, c in zip(slots, lin)]
        terms += [((slots[s], slots[t]), c) for (s, t), c in zip(pairs[len(clause)], quad)]
        for term, c in terms:
            key = tuple(sorted(set(term)))
            if c and len(key) == 2:
                quadratic[key] = quadratic.get(key, 0) + c
            elif c:
                linear[key[0]] = linear.get(key[0], 0) + c
    return len(occurring) + ancillas, linear, quadratic, offset, occurring


@st.composite
def _clause_lists(draw):
    """Clauses of widths 0-3 over variables 1-5, either sign, which repeat
    variables and whole clauses."""
    lit = st.integers(1, 5).flatmap(lambda v: st.sampled_from((v, -v)))
    clauses = draw(st.lists(st.lists(lit, max_size=3).map(tuple), max_size=10))
    repeats = draw(st.lists(st.sampled_from(clauses), max_size=3)) if clauses else []
    return clauses + repeats


@given(_clause_lists())
@example([(2, 2, 3), (-2, 2, 3), (4, -4), (1,), (-1,), (), (2, 2, 3), (5, -3, -5)])
@settings(max_examples=200, deadline=None)
def test_cnf_to_qubo_matches_the_gadget_table_term_by_term(clauses):
    q = cnf_to_qubo(codes(clauses))
    num_vars, linear, quadratic, offset, occurring = _expand_gadgets(clauses)
    assert (q.num_vars, q.offset, q.ranks.tolist()) == (num_vars, offset, occurring)
    assert list(q.linear) == [linear.get(i, 0) for i in range(num_vars)]
    # the pairs in the order the clauses first touch them
    assert list(pair_terms(q.pairs, q.quadratic).items()) == list(quadratic.items())
    assert type(q.offset) is float and q.linear.typecode == q.quadratic.typecode == "d"


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
        q = cnf_to_qubo(codes(cnf.clauses))
        assert all(0 <= i < j < q.num_vars for i, j in pair_terms(q.pairs, q.quadratic))
        # brute-force MaxSAT optimum over the occurring variables
        occ = cnf.occurring_vars()
        best_unsat = min(
            sum(0 if clause_satisfied(c, dict(zip(occ, vals))) else 1 for c in cnf.clauses)
            for vals in itertools.product((False, True), repeat=len(occ))
        )
        assert _qubo_min(q) == pytest.approx(best_unsat)


def test_qubo_index_layout():
    cnf = make_cnf(9, [(2, -5, 7), (5, 9)])
    q = cnf_to_qubo(codes(cnf.clauses))
    # occurring vars sorted first, then one ancilla per width-3 clause
    assert q.ranks == array("i", [2, 5, 7, 9])
    assert q.num_vars == 5


def test_qubo_empty_clause_is_constant_penalty():
    cnf = make_cnf(2, [(1, 2), ()])
    q = cnf_to_qubo(codes(cnf.clauses))
    assert _qubo_min(q) == pytest.approx(1.0)


def test_qubo_rejects_wide_clauses():
    with pytest.raises(ValueError):
        cnf_to_qubo(codes([(1, 2, 3, 4)]))


def test_qubo_imports_first_in_a_fresh_interpreter():
    # qubo calls the solver package's kernels, and that package imports qubo
    code = ("import array, isingsat.qubo as q; "
            "print(q.cnf_to_qubo(array.array('i', [2, 4, 2, 5])).num_vars)")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(isingsat.__file__))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.split() == ["2"]


def test_qubo_rejects_bad_literals():
    """A code is a C int of at least 0; a negative one is refused before a
    clause's width is."""
    for bad in (-1, -(2**31)):
        with pytest.raises(IndexError, match="an item is outside the index"):
            cnf_to_qubo(table_of([[0, 1], [2, bad]]))
        with pytest.raises(IndexError, match="an item is outside the index"):
            cnf_to_qubo(table_of([[1, 2, 3, 4], [1, bad]]))


def test_ising_matches_qubo_assignmentwise():
    rng = random.Random(5)
    for _ in range(20):
        cnf = mixed_random_cnf(rng.randint(2, 5), rng.randint(1, 6), rng)
        q = cnf_to_qubo(codes(cnf.clauses))
        m = qubo_to_ising(q)
        n = m.num_spins
        assert n == q.num_vars and len(m.h) == n
        assert m.pairs is q.pairs and len(m.j) == len(q.quadratic)
        for bits in itertools.product((0, 1), repeat=q.num_vars):
            spins = tuple(2 * b - 1 for b in bits)
            assert m.energy(spins) == pytest.approx(q.energy(bits))


def test_scale_passthrough_for_integral_models():
    m = ising_model(2, {(0, 1): 3.0}, [-2.0, 0.0], 1.5)
    scaled, rep = scale_to_chip(m)
    assert scaled is m
    assert rep.max_rel_error == 0.0


def test_scale_maps_largest_to_coeff_max():
    m = ising_model(2, {(0, 1): 28.0}, [7.0, -3.5], 0.0)
    scaled, rep = scale_to_chip(m)
    assert scaled.pairs is m.pairs and scaled.j == array("d", [14.0])
    assert scaled.h == array("d", [4.0, -2.0])
    assert rep.max_rel_error == pytest.approx(abs(4.0 - 3.5) / 3.5)


def test_scale_preserves_ordering_when_exact():
    # coefficients already proportional to integers: ordering survives exactly
    m = ising_model(3, {(0, 1): 0.5, (1, 2): -0.25}, [0.25, 0.0, 0.0], 0.0)
    scaled, rep = scale_to_chip(m)
    assert rep.max_rel_error == 0.0
    spins_sets = list(itertools.product((-1, 1), repeat=3))
    order_before = sorted(spins_sets, key=m.energy)
    order_after = sorted(spins_sets, key=scaled.energy)
    assert order_before == order_after


def test_scale_budget_guard():
    m = ising_model(46, {}, [0.0] * 46, 0.0)
    with pytest.raises(ValueError):
        scale_to_chip(m)


def _slice_clauses(rng: random.Random) -> list[tuple[int, ...]]:
    """A slice's clause list: widths 0-3 over few variables, so clauses
    repeat a variable or hold both of its literals, and some are empty."""
    n = rng.randint(1, 6)
    return [tuple(rng.choice((v, -v)) for v in rng.choices(range(1, n + 1), k=w))
            for w in rng.choices((0, 1, 2, 3, 3), k=rng.randint(1, 12))]


def _kernel_inputs(monkeypatch, m: IsingModel, backend: str):
    """The (n, pairs, j) that ``solve`` lays out with ``couplings``, once
    per call, and the fields it hands the kernel of ``backend``, which gets
    that one layout on every read."""
    build, built, calls = solver.couplings, [], []

    def couplings(*args):
        built.append((args, build(*args)))
        return built[-1][1]

    def kernel(n, jd, h, *rest):
        calls.append((n, jd, h))
        return [1] * n, 0.0, []

    monkeypatch.setattr(solver, "couplings", couplings)
    monkeypatch.setattr(solver, "anneal" if backend == "emulator" else "tabu", kernel)
    solver.solve(m, backend=backend, seed=1, num_samples=2, collect_trace=False)
    (args, layout), = built
    assert len(calls) == 2 and calls[0] == calls[1]
    n, jd, h = calls[0]
    assert n == args[0] and jd is layout and type(h) is list  # the fields as a list
    return args, h


def _bits(values) -> bytes:
    return struct.pack(f"<{len(values)}d", *values)  # tells 0.0 from -0.0


def _round_clamp(x: float) -> float:
    r = int(abs(x) + 0.5)  # ties away from zero
    return float(max(COEFF_MIN, min(COEFF_MAX, r if x >= 0 else -r)))


def test_slice_models_reach_the_kernels_as_the_dense_build(monkeypatch):
    """``solve`` hands the kernels the couplings of the model's own pair and
    coupling arrays, which the oracle lays out, bit for bit, as the
    row-major matrix a naive n*n build from the QUBO gives (b/4 in both
    triangles, zero diagonal), and chip scaling of the pair model matches a
    per-entry pass over that matrix."""
    rng = random.Random(21)
    scaled_models = 0
    for _ in range(60):
        q = cnf_to_qubo(codes(_slice_clauses(rng)))
        n = q.num_vars
        naive = [0.0] * (n * n)
        for (i, k), b in pair_terms(q.pairs, q.quadratic).items():
            naive[i * n + k] = naive[k * n + i] = b / 4.0
        m = qubo_to_ising(q)
        assert _bits(_kernels_py.couplings(n, m.pairs, m.j)) == _bits(naive)
        if n:
            (spins, pairs, j), h = _kernel_inputs(monkeypatch, m, "tabu")
            assert spins == n and pairs is m.pairs and j is m.j
            assert _bits(h) == _bits(m.h)
        scaled, report = scale_to_chip(m)
        values = {*naive, *m.h}
        if all(float(v).is_integer() and COEFF_MIN <= v <= COEFF_MAX for v in values):
            assert scaled is m and report.max_rel_error == 0.0
            continue
        scaled_models += 1
        scale = COEFF_MAX / max(map(abs, values))
        ref_j, ref_h = ([_round_clamp(v * scale) for v in vs] for vs in (naive, m.h))
        ref_rel = max((abs(_round_clamp(v * scale) - v * scale) / abs(v * scale)
                       for v in values if v * scale != 0.0), default=0.0)
        assert report.max_rel_error == ref_rel
        assert scaled.pairs is m.pairs and scaled.offset == m.offset * scale
        (spins, pairs, j), h = _kernel_inputs(monkeypatch, scaled, "emulator")
        assert spins == n and pairs is scaled.pairs and j is scaled.j
        assert (_bits(_kernels_py.couplings(n, pairs, j)), _bits(h)) == (_bits(ref_j),
                                                                         _bits(ref_h))
    assert scaled_models >= 30


# The compiled model build against the pure one, exceptions included.
# Codes above 256 are not cached ints, and a draw's codes reach 2**31 - 1,
# the largest a C int holds, when its base is near 2**30.
needs_compiled = pytest.mark.skipif(not kernels.COMPILED_KERNELS,
                                    reason="compiled kernels unavailable")

# What the compiled model build, Ising form and chip scaling refuse where
# the oracle reads its input as it stands: a table row they check, and a
# buffer of another type than C ints or doubles, named by its argument
_BUILD_REFUSALS = {(IndexError, "a row is outside the index"),
                   (IndexError, "an item is outside the index"),
                   *((TypeError, f"{name} must be an array('{code}')")
                     for name, code in (("clauses", "i"), ("linear", "d"), ("pairs", "i"),
                                        ("quadratic", "d"), ("j", "d"), ("h", "d")))}


def _refused(outcome) -> bool:
    return isinstance(outcome, tuple) and isinstance(outcome[0], type) \
        and outcome in _BUILD_REFUSALS


def _exact(value):
    """``value`` with every float and every array as its bytes, so that ==
    compares float bits, zero signs, types and typecodes."""
    if isinstance(value, float):
        return _bits([value])
    if isinstance(value, array):
        return array, value.typecode, value.tobytes()
    if isinstance(value, (tuple, list)):
        return type(value), [_exact(v) for v in value]
    return type(value), value


@st.composite
def _build_rows(draw):
    """Clauses of widths 0-3 over six ranks, either sign, as rows of literal
    codes, the ranks from a base of 0, 300 or 2**30 - 7, so that the codes
    are cached ints, are not, or reach 2**31 - 1, with ``(v, v, u)``,
    ``(v, -v, u)`` and empty clauses mixed in."""
    base = draw(st.sampled_from((0, 300, 2**30 - 7)))
    rank = st.integers(1, 6).map(base.__add__)
    code = rank.flatmap(lambda r: st.sampled_from((2 * r, 2 * r + 1)))
    clauses = draw(st.lists(st.lists(code, max_size=3).map(tuple), max_size=12))
    v, u = draw(rank), draw(rank)
    shapes = [(2 * v, 2 * v, 2 * u), (2 * v, 2 * v + 1, 2 * u + 1), (2 * v + 1, 2 * v, 2 * u), ()]
    return draw(st.permutations(clauses + draw(st.lists(st.sampled_from(shapes), max_size=3))))


def _assert_builds_alike(clauses):
    """The compiled and the pure qubo agree on ``clauses``, bit for bit and
    in pair order, and so do the compiled and the pure ising on its model,
    which hands the pair array on."""
    model = outcome_of(kernels.qubo, clauses)
    assert _exact(model) == _exact(outcome_of(_kernels_py.qubo, clauses)), clauses
    if isinstance(model[0], int):
        spins = kernels.ising(*model[:5])
        assert _exact(spins) == _exact(_kernels_py.ising(*model[:5]))
        assert spins[1] is model[2]


@needs_compiled
@given(_build_rows().map(table_of))
@example(codes([(301, 301, 302), (301, -301, 303), (), (-302, 303), (303,), (-301,)]))
@example(table_of([(2**31 - 1, 2**31 - 2, 0), (2**31 - 1,), (1, 2**31 - 4)]))
@settings(max_examples=300, deadline=None)
def test_compiled_build_matches_the_pure_build(clauses):
    _assert_builds_alike(clauses)


@st.composite
def _malformed_builds(draw):
    """A ``_build_rows`` clause table with one fault: a negative code, a
    clause wider than 3, an offset or an item set to any value or the table
    cut short, or its codes in a buffer of another type."""
    rows = list(draw(_build_rows()))
    fault = draw(st.sampled_from(("code", "wide", "table", "table", "type")))
    at = draw(st.integers(0, len(rows)))
    if fault == "wide":
        rows.insert(at, tuple(draw(st.lists(st.integers(0, 12), min_size=4, max_size=5))))
    elif fault == "code":
        clause = list(rows.pop(at) if at < len(rows) else ())
        clause.insert(draw(st.integers(0, len(clause))),
                      draw(st.sampled_from((-1, -2, -(2**31)))))
        rows.insert(at, tuple(clause))
    table = table_of(rows)
    if fault == "table":
        return mutated_table(draw, table, 2**31)
    if fault == "type":
        return draw(st.sampled_from((list, partial(array, "l"), partial(array, "d"))))(table)
    return table


@needs_compiled
@given(_malformed_builds())
@example(array("i", [2, 9, 0]))  # the row ends past the table
@example(table_of([[0, -1]]))
@example([2, 3, 4])  # a list, not an array('i')
@settings(max_examples=100, deadline=None)
def test_compiled_build_refuses_malformed_codes_as_the_pure_build(clauses):
    """On a bad code, a mutated clause table or another buffer type, the
    compiled qubo either refuses a row or a type it checks, or returns and
    raises what the pure qubo does, bit for bit."""
    if not _refused(outcome_of(kernels.qubo, clauses)):
        _assert_builds_alike(clauses)


@needs_compiled
def test_compiled_build_matches_every_gadget_row():
    """Each of the 14 sign patterns alone, on distinct variables and with
    the first variable repeated, which pins the C table to ``_GADGETS``."""
    for signs in _GADGETS:
        for variables in ((4, 2, 7), (4, 4, 7)):
            _assert_builds_alike(codes([tuple(v if s else -v
                                              for v, s in zip(variables, signs))]))


@needs_compiled
def test_compiled_build_refuses_what_the_pure_build_refuses():
    cases = [[(2, 4, 6, 8)], [(2,), (2, 4, 6, 8), (2, 4, 6, 8, 10), ()], [(0, -1)],
             [(2, 4, 6, 8), (2, -(2**31)), (3,)]]  # the code before the width
    for clauses in cases:
        outcome = outcome_of(kernels.qubo, table_of(clauses))
        assert outcome[0] in (IndexError, ValueError), outcome
        _assert_builds_alike(table_of(clauses))


_COEFFICIENTS = st.one_of(st.integers(-20, 20),
                          st.floats(-10, 10, allow_nan=False, allow_infinity=False),
                          st.sampled_from((0.1, 1 / 3, -0.0)))


@st.composite
def _hand_models(draw):
    """A QUBO's fields built by hand: int and non-dyadic float coefficients
    and offsets, pairs in any order, with one fault or none: an odd-length
    pair array, a pair index outside the model, ``linear`` or
    ``quadratic`` a value short or long, or an array of another type."""
    n = draw(st.integers(0, 6))
    linear = array("d", draw(st.lists(_COEFFICIENTS, min_size=n, max_size=n)))
    every = [(i, k) for i in range(n) for k in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(every), unique=True)) if every else []
    pairs = array("i", [i for pair in chosen for i in pair])
    quadratic = array("d", draw(st.lists(_COEFFICIENTS, min_size=len(chosen),
                                         max_size=len(chosen))))
    fields = {"linear": linear, "pairs": pairs, "quadratic": quadratic}
    fault = draw(st.sampled_from((None, None, "odd", "index", "resized", "type")))
    if fault == "odd":
        pairs.append(draw(st.integers(0, max(n - 1, 0))))
    elif fault == "index" and pairs:
        pairs[draw(st.integers(0, len(pairs) - 1))] = draw(
            st.sampled_from((-1, n, n + 1, 2**31 - 1, -(2**31))))
    elif fault == "resized":
        name = draw(st.sampled_from(("linear", "quadratic")))
        fields[name] = resized(draw, fields[name])
    elif fault == "type":
        name = draw(st.sampled_from(sorted(fields)))
        other = partial(array, "l" if name == "pairs" else "f")
        fields[name] = draw(st.sampled_from((list, other)))(fields[name])
    return n, fields["linear"], fields["pairs"], fields["quadratic"], draw(_COEFFICIENTS)


@needs_compiled
@given(_hand_models())
@example((0, array("d"), array("i"), array("d"), 3))  # the offset as a float
@example((3, array("d", [1 / 3, 0.0, 0.1]), array("i", [1, 2, 0, 1]),
          array("d", [0.1, -0.0]), 0.2))
@example((2, array("d", [1.0, 0.0]), array("i", [0, 1, 1]), array("d", [1.0]), 0.0))
@example((2, array("d", [1.0, 0.0]), array("i", [0, 2]), array("d", [1.0]), 0.0))
@example((2, array("d", [1.0]), array("i", [0, 1]), array("d", [1.0]), 0.0))
@example((2, array("d", [1.0, 0.0]), [0, 1], array("d", [1.0]), 0.0))
@settings(max_examples=300, deadline=None)
def test_compiled_ising_matches_the_pure_ising_bit_for_bit(fields):
    """On any QUBO's fields, hand-built or malformed, the compiled ising
    either refuses another buffer type or returns and raises what the pure
    one does, bit for bit, handing on the pair array it was given."""
    spins = outcome_of(kernels.ising, *fields)
    if _refused(spins):
        return
    assert _exact(spins) == _exact(outcome_of(_kernels_py.ising, *fields))
    if not isinstance(spins[0], type):
        assert spins[1] is fields[2]


def _chain(n, base):
    """``n`` 3-clauses over consecutive variables from ``base + 1``: n + 2
    variables and n ancillas, 4n pair terms."""
    return codes([(base + v, -(base + v + 1), base + v + 2) for v in range(1, n + 1)])


@needs_compiled
def test_compiled_build_allocates_by_the_clause_list():
    """What the compiled build, its Ising form and its chip scaling allocate
    beyond what they return grows with the clause list and the pair terms,
    not with the variable numbers or with (variables + ancillas)**2, which
    is 40x the clause count here: no model step costs n**2."""
    def scratch(fn, *args):
        tracemalloc.start()
        try:
            for _ in range(2):  # the second pass finds every cache warm
                tracemalloc.reset_peak()
                out = fn(*args)
                kept, peak = tracemalloc.get_traced_memory()
                del out
        finally:
            tracemalloc.stop()
        return peak - kept

    def steps(clauses):
        """The scratch of each model step on ``clauses``; a step that
        returns its input unchanged would measure nothing."""
        q = kernels.qubo(clauses)
        m = kernels.ising(*q[:5])
        assert kernels.scale(*m[2:]) is not None  # quarter-integers scale
        return scratch(kernels.qubo, clauses), scratch(kernels.ising, *q[:5]), \
            scratch(kernels.scale, *m[2:])

    small, large, high = steps(_chain(100, 0)), steps(_chain(1000, 0)), steps(_chain(100, 10**6))
    assert all(big <= 12 * little for little, big in zip(small, large)), (small, large)
    assert high[0] <= 1.1 * small[0], (small, high)


# The compiled chip scaling against the pure one: float bits, zero signs,
# types and exceptions.
_SCALE_COEFFICIENTS = st.one_of(
    st.integers(-80, 80).map(lambda q: q / 4),  # quarter-integers
    st.integers(-20, 20).map(float),  # integral, some outside the chip's range
    st.integers(-20, 20),
    st.sampled_from((-0.0, 0.3, -0.3, 0.5, -0.5, 14.5, -14.5, 1e300, -1e308, 1e-310,
                     5e-324, 2.0**60, math.inf, -math.inf, math.nan)),
    st.floats(),  # huge, tiny and non-finite too
)


@st.composite
def _scale_cases(draw):
    """An Ising model's couplings, fields and offset: n of 0, 1, 45 or 46
    spins or a few, up to 40 couplings, with one fault or none: the
    couplings or the fields a value short or long, or either in another
    type than an array('d')."""
    n = draw(st.sampled_from((0, 1, 2, 3, 6, 45, 46)))
    h = array("d", draw(st.lists(_SCALE_COEFFICIENTS, min_size=n, max_size=n)))
    count = draw(st.integers(0, min(40, n * (n - 1) // 2)))
    j = array("d", draw(st.lists(_SCALE_COEFFICIENTS, min_size=count, max_size=count)))
    fault = draw(st.sampled_from((None, None, None, "resized", "type")))
    if fault == "resized":
        j, h = (resized(draw, j), h) if draw(st.booleans()) else (j, resized(draw, h))
    elif fault == "type":
        other = draw(st.sampled_from((list, partial(array, "f"))))
        j, h = (other(j), h) if draw(st.booleans()) else (j, other(h))
    return j, h, draw(_SCALE_COEFFICIENTS)


@needs_compiled
@given(_scale_cases())
@example((array("d", [28.0]), array("d", [7.0, -3.5]), 1.0))
@example((array("d", [3.0]), array("d", [-2.0, 0.0]), 1.5))  # every coefficient fits: None
@example((array("d", [-0.3]), array("d", [28.0, -0.0]), -0.0))  # ceil(-0.8) is -0.0 in C
@example((array("d", [5e-324]), array("d", [1e-320, 0.0]), 0.0))  # no finite scale
@example((array("d", [math.nan]), array("d", [0.5]), 0.0))
@example((array("d"), array("d", [math.inf, 0.5]), 0.0))
@example((array("d"), array("d"), 0.0))
@example(([28.0], array("d", [7.0]), 0.0))  # a list, not an array('d')
@example((array("d", [28.0]), [7.0], 0.0))
@settings(max_examples=200, deadline=None)
def test_compiled_scale_matches_the_pure_scale_bit_for_bit(case):
    j, h, offset = case
    compiled = outcome_of(kernels.scale, j, h, offset)
    if _refused(compiled):
        return
    assert _exact(compiled) == _exact(outcome_of(_kernels_py.scale, j, h, offset))
    if compiled is not None and not isinstance(compiled[0], type):
        assert all(v in range(COEFF_MIN, COEFF_MAX + 1) for v in (*compiled[0], *compiled[1]))


def test_every_scale_holds_qubo_chip_range():
    """The compiled copy of ``COEFF_MIN`` and ``COEFF_MAX`` is ``qubo``'s:
    each bound fits and the integer beyond it does not, and the largest
    magnitude lands on ``COEFF_MAX``."""
    for scale in (kernels.scale, _kernels_py.scale):
        assert scale(array("d"), array("d", [COEFF_MIN, COEFF_MAX]), 0.0) is None
        for v in (COEFF_MIN - 1, COEFF_MAX + 1):
            _, h, _, _ = scale(array("d", [1.0]), array("d", [v, 0.0]), 0.0)
            assert h[0] == math.copysign(COEFF_MAX, v), scale


def _energies(states, pairs, j, h):
    """Each state's energy without the offset; exact on the quarter-integer
    and integer models compared here."""
    upper = np.zeros((states.shape[1],) * 2)
    for (i, k), b in pair_terms(pairs, j).items():
        upper[i, k] = b
    return states @ np.asarray(h, dtype=float) + ((states @ upper) * states).sum(axis=1)


def test_chip_scaling_keeps_every_ground_state_of_small_slices(monkeypatch):
    """Every emulator slice of a few repeats at a budget of 16 spins is
    enumerated: each ground state of the scaled model must be one of the
    exact model's.  The gap, in chip units, is the scaled energy of the best
    state that is not an exact ground state less the scaled ground energy;
    a slice that loses a ground state has a gap of 0 or less."""
    scale = decompose.scale_to_chip
    slices = []

    def capture(model):
        slices.append(model)
        return scale(model)

    monkeypatch.setattr(decompose, "scale_to_chip", capture)
    gaps, states_of = {}, {}
    for spec, level in (("semiprime:10:551", 7), ("semiprime:11:1037", 7),
                        ("semiprime:16:32881", 0)):
        cnf = expand_instances(spec)[0][1]
        for seed in (1, 2):
            res = run_ladder(cnf, level=level, seed=seed)
            decompose.iterate(res.cnf, res.condition, cnf, strategy="dfs",
                              backend="emulator", budget=16, cap=8, seed=seed,
                              num_samples=1, collect_trace=False)
            gap = math.inf
            for model in slices:
                n = model.num_spins
                if n not in states_of:
                    states_of[n] = 1.0 - 2 * ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1)
                states = states_of[n]
                scaled = kernels.scale(model.j, model.h, model.offset)
                j, h = (model.j, model.h) if scaled is None else scaled[:2]
                exact = _energies(states, model.pairs, model.j, model.h)
                chip = _energies(states, model.pairs, j, h)
                others = chip[exact != exact.min()]
                if others.size:
                    gap = min(gap, others.min() - chip.min())
            gaps[spec, seed] = gap, len(slices)
            slices.clear()
    assert all(count for _, count in gaps.values()), gaps
    lost = {key: gap for key, (gap, _) in gaps.items() if gap <= 0}
    assert not lost, "scaling loses a ground state: " + "; ".join(
        f"{spec} seed {seed}: smallest gap {gap:g} chip units"
        for (spec, seed), gap in lost.items())


# The benchmark's workload cells: spec, level, strategy, backend, budget
_WORKLOAD_CELLS = (("semiprime:10:551", 7, "dfs", "emulator", 45),
                   ("semiprime:16:32881", 0, "dfs", "emulator", 20),
                   ("backbone:100:429:50", 7, "bfs", "tabu", 45))
_QUBO_FIELDS = {"num_vars": (int, None), "linear": (array, "d"), "pairs": (array, "i"),
                "quadratic": (array, "d"), "offset": (float, None), "ranks": (array, "i")}
_ISING_FIELDS = {"num_spins": (int, None), "pairs": (array, "i"), "j": (array, "d"),
                 "h": (array, "d"), "offset": (float, None)}


def _field_types(model):
    return {name: (type(v), getattr(v, "typecode", None)) for name, v in vars(model).items()}


@pytest.mark.parametrize("pure", [False, True], ids=["compiled", "pure"])
def test_slice_models_are_flat_arrays_on_every_workload_cell(monkeypatch, pure):
    """On the first slice of each benchmark cell, with the slice and model
    kernels compiled or pure, every field of the QUBO, of its Ising form and
    of the model the solver gets (scaled for the emulator) has its declared
    type, and the Ising forms hold the QUBO's own ``pairs`` object."""
    if pure:
        for name in ("tally", "walk", "freeze", "merge"):
            monkeypatch.setattr(decompose, name, getattr(_kernels_py, name))
        for name in ("qubo", "ising", "scale"):
            monkeypatch.setattr(kernels, name, getattr(_kernels_py, name))
    steps = {}

    def kept(name, step):
        def run(*args):
            steps[name] = out = step(*args)
            return out
        return run

    def no_solve(model, **_):  # the spins do not matter here
        steps["solve"] = model
        return solver.SolveResult((1,) * model.num_spins, ())

    for name in ("cnf_to_qubo", "qubo_to_ising"):
        monkeypatch.setattr(decompose, name, kept(name, getattr(decompose, name)))
    monkeypatch.setattr(decompose, "solve", no_solve)
    for spec, level, strategy, backend, budget in _WORKLOAD_CELLS:
        cnf = expand_instances(spec)[0][1]
        res = run_ladder(cnf, level=level, seed=1)
        steps.clear()
        decompose.iterate(res.cnf, res.condition, cnf, strategy=strategy, backend=backend,
                          budget=budget, cap=1, seed=1, num_samples=1, collect_trace=False)
        q = steps["cnf_to_qubo"]
        assert _field_types(q) == _QUBO_FIELDS, spec
        for model in (steps["qubo_to_ising"], steps["solve"]):
            assert _field_types(model) == _ISING_FIELDS, spec
            assert model.pairs is q.pairs, spec


@needs_compiled
def test_emulator_spins_reach_tabus_best_on_the_exact_45_spin_slices(monkeypatch):
    """45-spin slices cannot be enumerated, so each slice of the paper's
    main cell (551 at level 7, DFS, budget 45, 10 reads, cap 6, seeds 1-10)
    is checked another way: the emulator's best spins, found on the scaled
    model, must reach on the exact model the best energy 10 tabu reads find
    there.  A slice where rounding steers the chip away names its seed."""
    slices = []
    exact_of = decompose.qubo_to_ising
    solve = decompose.solve

    def exact(q):
        slices.append([exact_of(q)])
        return slices[-1][0]

    def emulate(model, **kwargs):
        result = solve(model, **kwargs)
        slices[-1].append(result.best_spins)
        return result

    monkeypatch.setattr(decompose, "qubo_to_ising", exact)
    monkeypatch.setattr(decompose, "solve", emulate)
    cnf = expand_instances("semiprime:10:551")[0][1]
    missed, spins_seen = [], set()
    for seed in range(1, 11):
        res = run_ladder(cnf, level=7, seed=seed)
        decompose.iterate(res.cnf, res.condition, cnf, strategy="dfs", backend="emulator",
                          budget=45, cap=6, seed=seed, num_samples=10, collect_trace=False)
        for k, (model, spins) in enumerate(slices):
            spins_seen.add(model.num_spins)
            best = solve(model, backend="tabu", seed=1, num_samples=10, collect_trace=False)
            chip, tabu = model.energy(spins), model.energy(best.best_spins)
            if chip > tabu:
                missed.append(f"seed {seed} slice {k}: {chip:g} against tabu's {tabu:g}")
        slices.clear()
    assert max(spins_seen) == 45, spins_seen
    assert not missed, "the emulator misses tabu's best on the exact model: " + "; ".join(missed)
