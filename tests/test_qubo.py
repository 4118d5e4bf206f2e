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
from isingsat.solver._kernels_py import _GADGETS

from conftest import codes, mixed_random_cnf


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
    assert q.linear == {0: 1.0, 1: 1.0, 2: -1.0}
    assert q.quadratic == {(0, 1): 1.0, (0, 3): -2.0, (1, 3): -2.0, (2, 3): 1.0}
    assert q.offset == 1.0


def test_gadget_rejects_bad_widths():
    q = cnf_to_qubo([()])  # no gadget, only its constant penalty
    assert (q.num_vars, q.linear, q.quadratic, q.offset) == (0, {}, {}, 1.0)
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
    assert (q.num_vars, q.offset, q.ranks) == (num_vars, offset, occurring)
    assert q.linear.keys() == linear.keys() and q.quadratic.keys() == quadratic.keys()
    assert q.linear == linear and q.quadratic == quadratic
    values = [q.offset, *q.linear.values(), *q.quadratic.values()]
    assert all(type(v) is float for v in values)


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
        assert all(0 <= i < j < q.num_vars for i, j in q.quadratic)
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
    assert q.ranks == [2, 5, 7, 9]
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
    code = "import isingsat.qubo as q; print(q.cnf_to_qubo([(2, 5)]).num_vars)"
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(isingsat.__file__))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.split() == ["2"]


def test_qubo_rejects_bad_literals():
    """A code is an int in 0 .. 2**31 - 1, what a C int holds; the first
    bad one in clause order is named."""
    for bad in (-1, 2**31):
        with pytest.raises(ValueError, match=f"literal code {bad} is negative or beyond a C int"):
            cnf_to_qubo([(0, 1), (2, bad)])
    with pytest.raises(TypeError, match=r"literal code 1\.5 is not an int"):
        cnf_to_qubo([(1, 1.5)])
    with pytest.raises(TypeError, match="literal code '2' is not an int"):
        cnf_to_qubo([(1, 2, 3, 4), (1, "2"), (-1,)])  # before the width


def test_ising_matches_qubo_assignmentwise():
    rng = random.Random(5)
    for _ in range(20):
        cnf = mixed_random_cnf(rng.randint(2, 5), rng.randint(1, 6), rng)
        q = cnf_to_qubo(codes(cnf.clauses))
        m = qubo_to_ising(q)
        n = m.num_spins
        assert n == q.num_vars and len(m.h) == n
        assert m.j.keys() == q.quadratic.keys()  # pairs (i, k), i < k
        for bits in itertools.product((0, 1), repeat=q.num_vars):
            spins = tuple(2 * b - 1 for b in bits)
            assert m.energy(spins) == pytest.approx(q.energy(bits))


def test_scale_passthrough_for_integral_models():
    m = IsingModel(2, {(0, 1): 3.0}, [-2.0, 0.0], 1.5)
    scaled, rep = scale_to_chip(m)
    assert scaled is m
    assert rep.max_rel_error == 0.0


def test_scale_maps_largest_to_coeff_max():
    m = IsingModel(2, {(0, 1): 28.0}, [7.0, -3.5], 0.0)
    scaled, rep = scale_to_chip(m)
    assert scaled.j == {(0, 1): 14.0}
    assert scaled.h == [4.0, -2.0]
    assert rep.max_rel_error == pytest.approx(abs(4.0 - 3.5) / 3.5)


def test_scale_preserves_ordering_when_exact():
    # coefficients already proportional to integers: ordering survives exactly
    m = IsingModel(3, {(0, 1): 0.5, (1, 2): -0.25}, [0.25, 0.0, 0.0], 0.0)
    scaled, rep = scale_to_chip(m)
    assert rep.max_rel_error == 0.0
    spins_sets = list(itertools.product((-1, 1), repeat=3))
    order_before = sorted(spins_sets, key=m.energy)
    order_after = sorted(spins_sets, key=scaled.energy)
    assert order_before == order_after


def test_scale_budget_guard():
    m = IsingModel(46, {}, [0.0] * 46, 0.0)
    with pytest.raises(ValueError):
        scale_to_chip(m)


def _slice_clauses(rng: random.Random) -> list[tuple[int, ...]]:
    """A slice's clause list: widths 0-3 over few variables, so clauses
    repeat a variable or hold both of its literals, and some are empty."""
    n = rng.randint(1, 6)
    return [tuple(rng.choice((v, -v)) for v in rng.choices(range(1, n + 1), k=w))
            for w in rng.choices((0, 1, 2, 3, 3), k=rng.randint(1, 12))]


def _kernel_inputs(monkeypatch, m: IsingModel, backend: str):
    """The (n, jd, h) that ``solve`` hands the kernel of ``backend``."""
    calls = []

    def kernel(n, jd, h, *rest):
        calls.append((n, jd, h))
        return [1] * n, 0.0, []

    monkeypatch.setattr(solver, "anneal" if backend == "emulator" else "tabu", kernel)
    solver.solve(m, backend=backend, seed=1, num_samples=2, collect_trace=False)
    assert len(calls) == 2 and calls[0] == calls[1]
    return calls[0]


def _bits(values) -> bytes:
    return struct.pack(f"<{len(values)}d", *values)  # tells 0.0 from -0.0


def _round_clamp(x: float) -> float:
    r = int(abs(x) + 0.5)  # ties away from zero
    return float(max(COEFF_MIN, min(COEFF_MAX, r if x >= 0 else -r)))


def test_slice_models_reach_the_kernels_as_the_dense_build(monkeypatch):
    """The kernels get, bit for bit, the row-major matrix a naive n*n build
    from the QUBO gives (b/4 in both triangles, zero diagonal), and chip
    scaling of the pair model matches a per-entry pass over that matrix."""
    rng = random.Random(21)
    scaled_models = 0
    for _ in range(60):
        q = cnf_to_qubo(codes(_slice_clauses(rng)))
        n = q.num_vars
        naive = [0.0] * (n * n)
        for (i, k), b in q.quadratic.items():
            naive[i * n + k] = naive[k * n + i] = b / 4.0
        m = qubo_to_ising(q)
        if n:
            spins, jd, h = _kernel_inputs(monkeypatch, m, "tabu")
            assert (spins, _bits(jd), h) == (n, _bits(naive), m.h)
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
        assert scaled.j.keys() == m.j.keys() and scaled.offset == m.offset * scale
        spins, jd, h = _kernel_inputs(monkeypatch, scaled, "emulator")
        assert (spins, _bits(jd), _bits(h)) == (n, _bits(ref_j), _bits(ref_h))
    assert scaled_models >= 30


# The compiled model build against the pure one, exceptions included.
# Codes above 256 are not cached ints, and a draw's codes reach 2**31 - 1,
# the largest a C int holds, when its base is near 2**30.
needs_compiled = pytest.mark.skipif(not kernels.COMPILED_KERNELS,
                                    reason="compiled kernels unavailable")


def _outcome(fn, *args):
    """What ``fn(*args)`` returns, or the type and message of what it raises."""
    try:
        return fn(*args)
    except Exception as exc:  # the exception is the outcome compared
        return type(exc), str(exc)


def _exact(value):
    """``value`` with every float as its bytes and every dict as its item
    list, so that == compares float bits, types and key order."""
    if isinstance(value, float):
        return _bits([value])
    if isinstance(value, dict):
        return [(_exact(k), _exact(v)) for k, v in value.items()]
    if isinstance(value, (tuple, list)):
        return type(value), [_exact(v) for v in value]
    return type(value), value


@st.composite
def _build_cases(draw):
    """Clauses of widths 0-3 over six ranks, either sign, as literal codes,
    the ranks from a base of 0, 300 or 2**30 - 7, so that the codes are
    cached ints, are not, or reach 2**31 - 1, with ``(v, v, u)``,
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
    in key order, and so do the compiled and the pure ising on its model."""
    model = _outcome(kernels.qubo, clauses)
    assert _exact(model) == _exact(_outcome(_kernels_py.qubo, clauses)), clauses
    if isinstance(model[0], int):
        spins = kernels.ising(*model[:4])
        assert _exact(spins) == _exact(_kernels_py.ising(*model[:4]))
        assert all(a is b for a, b in zip(spins[1], model[2]))  # j reuses the pair keys


@needs_compiled
@given(_build_cases())
@example(codes([(301, 301, 302), (301, -301, 303), (), (-302, 303), (303,), (-301,)]))
@example([(2**31 - 1, 2**31 - 2, 0), (2**31 - 1,), (1, 2**31 - 4)])
@settings(max_examples=300, deadline=None)
def test_compiled_build_matches_the_pure_build(clauses):
    _assert_builds_alike(clauses)


@st.composite
def _malformed_builds(draw):
    """A ``_build_cases`` clause list with one fault: a code that is
    negative, beyond a C int or not an int, a clause wider than 3 or one
    that is not a sequence."""
    clauses = list(draw(_build_cases()))
    fault = draw(st.sampled_from(("code", "code", "wide", "clause")))
    at = draw(st.integers(0, len(clauses)))
    if fault == "wide":
        clauses.insert(at, tuple(draw(st.lists(st.integers(0, 12), min_size=4, max_size=5))))
    elif fault == "clause":
        clauses.insert(at, 7)
    else:
        bad = draw(st.sampled_from((-1, -(2**31), 2**31, 2**63, 2**64, 1.5, "3", None)))
        clause = list(clauses.pop(at) if at < len(clauses) else ())
        clause.insert(draw(st.integers(0, len(clause))), bad)
        clauses.insert(at, tuple(clause))
    return clauses


@needs_compiled
@given(_malformed_builds())
@settings(max_examples=60, deadline=None)
def test_compiled_build_refuses_malformed_codes_as_the_pure_build(clauses):
    outcome = _outcome(kernels.qubo, clauses)
    assert outcome[0] in (TypeError, ValueError), outcome
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
    cases = [[(1, 2, 3, 4)], [(1,), (1, 2, 3, 4), (1, 2, 3, 4, 5), ()], [(0, -1)],
             [(1, 2**31)], [(2**64, -(2**63))], [(1, 1.5)], [(1, 2, 3, 4), (1, "2"), (-1,)],
             [(1,), 7], [(True, 2)]]  # a bool is an int
    for clauses in cases:
        _assert_builds_alike(clauses)


_COEFFICIENTS = st.one_of(st.integers(-20, 20),
                          st.floats(-10, 10, allow_nan=False, allow_infinity=False),
                          st.sampled_from((0.1, 1 / 3, -0.0)))


@st.composite
def _hand_models(draw):
    """A QUBO's fields built by hand: int and non-dyadic float coefficients
    and offsets, in any key order."""
    n = draw(st.integers(0, 6))
    linear = draw(st.dictionaries(st.integers(0, n - 1), _COEFFICIENTS)) if n else {}
    pairs = [(i, k) for i in range(n) for k in range(i + 1, n)]
    quadratic = draw(st.dictionaries(st.sampled_from(pairs), _COEFFICIENTS)) if pairs else {}
    return n, linear, quadratic, draw(_COEFFICIENTS)


@needs_compiled
@given(_hand_models())
@example((2, {}, {}, 3))  # no term: the offset is returned as given
@example((3, {2: 0.1, 0: 1 / 3}, {(1, 2): 0.1, (0, 1): -0.0}, 0.2))
@settings(max_examples=300, deadline=None)
def test_compiled_ising_matches_the_pure_ising_bit_for_bit(fields):
    spins = kernels.ising(*fields)
    assert _exact(spins) == _exact(_kernels_py.ising(*fields))
    assert all(a is b for a, b in zip(spins[1], fields[2]))


def _chain(n, base):
    """``n`` 3-clauses over consecutive variables from ``base + 1``: n + 2
    variables and n ancillas, 4n pair terms."""
    return codes([(base + v, -(base + v + 1), base + v + 2) for v in range(1, n + 1)])


@needs_compiled
def test_compiled_build_allocates_by_the_clause_list():
    """What the compiled build allocates beyond the model it returns grows
    with the clause list, not with the variable numbers or with
    (variables + ancillas)**2, which is 40x the clause count here."""
    def scratch(clauses):
        tracemalloc.start()
        try:
            for _ in range(2):  # the second pass finds every cache warm
                tracemalloc.reset_peak()
                model = kernels.qubo(clauses)
                kept, peak = tracemalloc.get_traced_memory()
                del model
        finally:
            tracemalloc.stop()
        return peak - kept

    small, large = scratch(_chain(100, 0)), scratch(_chain(1000, 0))
    high = scratch(_chain(100, 10**6))
    assert large <= 12 * small and high <= 1.1 * small, (small, large, high)


# The compiled chip scaling against the pure one: float bits, zero signs,
# key objects and their order, and exceptions.
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
    """An Ising model's fields: n of 0, 1, 45 or 46 spins or a few, pairs
    in any order, and an offset."""
    n = draw(st.sampled_from((0, 1, 2, 3, 6, 45, 46)))
    h = draw(st.lists(_SCALE_COEFFICIENTS, min_size=n, max_size=n))
    pairs = [(i, k) for i in range(n) for k in range(i + 1, n)]
    keys = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=40)) if pairs else []
    j = {key: draw(_SCALE_COEFFICIENTS) for key in keys}
    return j, h, draw(_SCALE_COEFFICIENTS)


@needs_compiled
@given(_scale_cases())
@example(({(0, 1): 28.0}, [7.0, -3.5], 1.0))
@example(({(0, 1): 3.0}, [-2.0, 0.0], 1.5))  # every coefficient fits: None
@example(({(0, 1): -0.3}, [28.0, -0.0], -0.0))  # ceil(-0.8) is -0.0 in C
@example(({(0, 1): 5e-324}, [1e-320, 0.0], 0.0))  # no finite scale
@example(({(0, 1): math.nan}, [0.5], 0.0))
@example(({}, [math.inf, 0.5], 0.0))
@example(({}, [], 0.0))
@settings(max_examples=200, deadline=None)
def test_compiled_scale_matches_the_pure_scale_bit_for_bit(case):
    j, h, offset = case
    compiled = _outcome(kernels.scale, j, h, offset)
    assert _exact(compiled) == _exact(_outcome(_kernels_py.scale, j, h, offset))
    if compiled is not None and not isinstance(compiled[0], type):
        assert all(a is b for a, b in zip(compiled[0], j))  # j's key objects, in order
        assert all(v in range(COEFF_MIN, COEFF_MAX + 1) for v in (*compiled[0].values(),
                                                                  *compiled[1]))


def test_every_scale_holds_qubo_chip_range():
    """The compiled copy of ``COEFF_MIN`` and ``COEFF_MAX`` is ``qubo``'s:
    each bound fits and the integer beyond it does not, and the largest
    magnitude lands on ``COEFF_MAX``."""
    for scale in (kernels.scale, _kernels_py.scale):
        assert scale({}, [float(COEFF_MIN), float(COEFF_MAX)], 0.0) is None
        for v in (COEFF_MIN - 1, COEFF_MAX + 1):
            _, h, _, _ = scale({(0, 1): 1.0}, [float(v), 0.0], 0.0)
            assert h[0] == math.copysign(COEFF_MAX, v), scale


def _energies(states, j, h):
    """Each state's energy without the offset; exact on the quarter-integer
    and integer models compared here."""
    upper = np.zeros((states.shape[1],) * 2)
    for (i, k), b in j.items():
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
                exact, chip = _energies(states, model.j, model.h), _energies(states, j, h)
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
