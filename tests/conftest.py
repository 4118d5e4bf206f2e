"""Shared fixtures: deterministic random formulas and catalog instances."""
from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import settings

from isingsat.circuit import generate_instance, semiprime_catalog
from isingsat.cnf import Cnf, brute_force_solutions, evaluate, make_cnf
from isingsat.preprocess import reconstruct, run_ladder

# Every run draws the same examples and keeps no example database, so a
# checkout's results do not depend on what earlier runs found.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


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
    return {r.var: r.value for r in condition.records if r.kind == "fix"}


def pure(condition) -> dict[int, bool]:
    return {r.var: r.value for r in condition.records if r.kind == "pure"}


def substituted(condition) -> dict[int, tuple[int, int]]:
    return {r.var: (r.root, r.sign) for r in condition.records if r.kind == "sub"}


def proj(sol, keys):
    return frozenset((v, sol[v]) for v in keys)


def check_reconstruction(cnf: Cnf, level: int, seed: int, max_guesses: int = 1):
    """Solution-set comparison through the ladder at one level.

    Returns (image, O, lossy_pure): the reconstructed projected solution set
    (union over scripted branch combinations), the original solution set, and
    whether a non-backbone pure-literal elimination occurred (the one pass
    that keeps satisfiability but not solution multiplicity).
    """
    occ = cnf.occurring_vars()
    O = {proj(s, occ) for s in brute_force_solutions(cnf, var_cap=28)}
    probe = run_ladder(cnf, level, seed=seed, max_guesses=max_guesses)
    k = len(probe.branch_decisions)
    combos = list(itertools.product((False, True), repeat=k)) if k else [()]
    image = set()
    lossy_pure = False
    for combo in combos:
        res = run_ladder(cnf, level, seed=seed, max_guesses=max_guesses,
                         branch_override=list(combo) if combo else None)
        if res.unsat or res.cnf.is_unsat_marked():
            continue
        determined = set(res.condition.values()) | set(substituted(res.condition))
        free = [v for v in occ if v not in determined]
        sub = make_cnf(cnf.num_vars, res.cnf.clauses)
        for r in brute_force_solutions(sub, variables=free, var_cap=28):
            full = reconstruct(res.condition, r, cnf.num_vars)
            assert evaluate(cnf, full)  # soundness, always
            image.add(proj(full, occ))
        for var, val in pure(res.condition).items():
            if any(dict(s).get(var) == (not val) for s in O):
                lossy_pure = True
    return image, O, lossy_pure


@pytest.fixture(scope="session")
def cnf4():
    cnf, netlist, inst = generate_instance(4)
    return cnf


@pytest.fixture(scope="session")
def cnf5():
    cnf, netlist, inst = generate_instance(5)
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
