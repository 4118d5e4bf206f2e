"""Shared fixtures: deterministic random formulas and catalog instances."""
from __future__ import annotations

import random
from array import array
from bisect import bisect_left

import pytest
from hypothesis import settings, strategies as st

from isingsat import decompose, preprocess
from isingsat.circuit import generate_instance, semiprime_catalog
from isingsat.cnf import Cnf, brute_force_solutions, evaluate, make_cnf
from isingsat.preprocess import MAX_LEVEL, known_values, reconstruct
from isingsat.qubo import IsingModel
from isingsat.solver._kernels_py import table_of

# Every run draws the same examples and keeps no example database, so a
# checkout's results do not depend on what earlier runs found.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


# 40 repeats of the live level-7 outcome of semiprime 1037 at cap 1000: the
# iterations of the 16 that solved; the other 24 ran to the cap
HEAVY_TAIL = (14, 14, 17, 19, 23, 31, 37, 37, 37, 54, 89, 138, 169, 209, 312, 996)


def empty_formula_memos() -> None:
    """Forget every memoized ladder prefix and decomposition index."""
    preprocess._ladder.cache_clear()
    decompose.build_vig.cache_clear()


@pytest.fixture(autouse=True)
def _cold_memos():
    """Each test starts cold, so none reads what another computed."""
    empty_formula_memos()


def random_3sat(num_vars: int, num_clauses: int, rng: random.Random) -> Cnf:
    """Uniform random 3SAT: three distinct variables, independent signs."""
    clauses = []
    for _ in range(num_clauses):
        vs = rng.sample(range(1, num_vars + 1), 3)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
    return make_cnf(num_vars, clauses)


def rank(nodes, v):
    """The rank of variable ``v`` in the ascending list ``nodes``, or -1 when
    ``nodes`` lacks it."""
    r = bisect_left(nodes, v)
    return r if r < len(nodes) and nodes[r] == v else -1


def codes(clauses, nodes=None):
    """``clauses`` of DIMACS literals as the slice kernels' table of literal
    codes (``table_of``): ``2 * r`` for the variable of rank ``r`` in the
    ascending ``nodes``, ``2 * r + 1`` for its negation.  Without ``nodes``
    variable ``v`` has rank ``v``, so a model's ``ranks`` are the variables
    themselves."""
    def code(lit):
        r = abs(lit) if nodes is None else rank(nodes, abs(lit))
        return 2 * r + (lit < 0)
    return table_of([list(map(code, clause)) for clause in clauses])


def ising_model(n, couplings, h, offset):
    """The ``IsingModel`` of ``n`` spins with ``couplings``, a dict of J
    keyed by index pairs ``(i, k)``, ``i < k``, in its order, and the
    fields ``h``."""
    pairs = array("i", [i for pair in couplings for i in pair])
    return IsingModel(n, pairs, array("d", couplings.values()), array("d", h), offset)


def outcome_of(fn, *args):
    """What ``fn(*args)`` returns, or the type and message of what it raises."""
    try:
        return fn(*args)
    except Exception as exc:  # the exception is the outcome compared
        return type(exc), str(exc)


def pair_terms(pairs, values):
    """A model's pair array and its coefficients as a dict keyed ``(i, k)``,
    in pair order."""
    return dict(zip(zip(pairs[::2], pairs[1::2]), values))


def resized(draw, buffer):
    """A copy of ``buffer`` an item short or long."""
    out = buffer[:]
    if draw(st.booleans()):
        del out[-1:]
    else:
        out.append(0)
    return out


def mutated_table(draw, table, bound):
    """A copy of the flat table ``table``, whose items lie below ``bound``,
    with an offset or an item set to any value a C int holds, often one just
    inside or outside a bound, or cut short."""
    out = array("i", table)
    fault = draw(st.sampled_from(("offset", "item", "short")))
    if fault == "short" and out:
        del out[draw(st.integers(0, len(out) - 1)):]
    elif out:
        header = min(max(out[0], 1), len(out))
        at = (draw(st.integers(0, header - 1)) if fault == "offset" or header == len(out)
              else draw(st.integers(header, len(out) - 1)))
        edges = [e for e in (-1, bound - 1, bound, len(out), len(out) + 1, -(2**31), 2**31 - 1)
                 if -(2**31) <= e < 2**31]
        out[at] = draw(st.one_of(st.sampled_from(edges), st.integers(-2, len(out) + 2)))
    return out


def mixed_random_cnf(num_vars: int, num_clauses: int, rng: random.Random) -> Cnf:
    """Random CNF with clause widths 1-3 (biased to 3) over distinct variables."""
    clauses = []
    for _ in range(num_clauses):
        w = min(rng.choice((1, 2, 3, 3, 3)), num_vars)
        vs = rng.sample(range(1, num_vars + 1), w)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
    return make_cnf(num_vars, clauses)


def fixed(condition) -> dict[int, bool]:
    return {r.var: r.value for r in condition if r.kind == "fix"}


def pure(condition) -> dict[int, bool]:
    return {r.var: r.value for r in condition if r.kind == "pure"}


def substituted(condition) -> dict[int, tuple[int, int]]:
    return {r.var: (r.root, r.sign) for r in condition if r.kind == "sub"}


def proj(sol, keys):
    return frozenset((v, sol[v]) for v in keys)


def check_reconstruction(cnf: Cnf, level: int):
    """Solution-set comparison through the ladder at one level.

    Returns (image, O, lossy_pure): the reconstructed projected solution set
    (at level 7, the union over both values of the guess), the original
    solution set, and whether a non-backbone pure-literal elimination
    occurred (the one pass that keeps satisfiability but not solution
    multiplicity).
    """
    occ = cnf.occurring_vars()
    O = {proj(s, occ) for s in brute_force_solutions(cnf)}
    image = set()
    lossy_pure = False
    for guess in (False, True) if level == MAX_LEVEL else (None,):
        res = preprocess._ladder(cnf, level, guess)
        if res.cnf.is_unsat_marked():
            continue
        determined = set(known_values(res.condition)) | set(substituted(res.condition))
        free = [v for v in occ if v not in determined]
        sub = make_cnf(cnf.num_vars, res.cnf.clauses)
        for r in brute_force_solutions(sub, variables=free):
            full = reconstruct(res.condition, r, range(1, cnf.num_vars + 1))
            assert evaluate(cnf, full)  # soundness, always
            image.add(proj(full, occ))
        for var, val in pure(res.condition).items():
            if any(dict(s).get(var) == (not val) for s in O):
                lossy_pure = True
    return image, O, lossy_pure


@pytest.fixture(scope="session")
def cnf4():
    cnf, _netlist = generate_instance(4, 9)
    return cnf


@pytest.fixture(scope="session")
def cnf5():
    cnf, _netlist = generate_instance(5, 21)
    return cnf


@pytest.fixture(scope="session")
def catalog45():
    """Every 4- and 5-bit semiprime instance: (bits, semiprime, cnf, netlist)."""
    out = []
    for bits in (4, 5):
        for semiprime in semiprime_catalog(bits):
            cnf, netlist = generate_instance(bits, semiprime)
            out.append((bits, semiprime, cnf, netlist))
    return out
