"""Shared fixtures: deterministic random formulas and catalog instances."""
from __future__ import annotations

import random

import pytest
from hypothesis import settings

from isingsat import decompose, preprocess
from isingsat.circuit import generate_instance, semiprime_catalog
from isingsat.cnf import Cnf, brute_force_solutions, evaluate, make_cnf
from isingsat.preprocess import MAX_LEVEL, known_values, reconstruct

# Every run draws the same examples and keeps no example database, so a
# checkout's results do not depend on what earlier runs found.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


def empty_formula_memos() -> None:
    """Forget every memoized ladder prefix and decomposition index."""
    preprocess._ladder.cache_clear()
    decompose.formula_index.cache_clear()


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
    cnf, netlist, inst = generate_instance(4, None)
    return cnf


@pytest.fixture(scope="session")
def cnf5():
    cnf, netlist, inst = generate_instance(5, None)
    return cnf


@pytest.fixture(scope="session")
def catalog45():
    """Every 4- and 5-bit semiprime instance: (bits, semiprime, cnf, netlist)."""
    out = []
    for bits in (4, 5):
        for inst in semiprime_catalog(bits):
            cnf, netlist, _ = generate_instance(bits, inst.semiprime)
            out.append((bits, inst.semiprime, cnf, netlist))
    return out
