"""Annealing/tabu emulator: determinism, optimality on small models, guards."""
from __future__ import annotations

import importlib.machinery
import json
import math
import os
import random
import shlex
import shutil
import subprocess
import sys
import sysconfig

from array import array

import numpy as np
import pytest

import isingsat
from isingsat.qubo import (COEFF_MAX, COEFF_MIN, IsingModel, cnf_to_qubo,
                           qubo_to_ising, scale_to_chip)
from isingsat.solver import (
    DEFAULT_TABU_MOVES,
    FINAL_TEMP,
    INITIAL_TEMP,
    SWEEPS,
    TABU_TENURE,
    solve,
)
from isingsat.solver import BACKENDS, kernels
from isingsat.solver._kernels_py import anneal as py_anneal
from isingsat.solver._kernels_py import couplings as py_couplings
from isingsat.solver._kernels_py import mix_seed as py_mix_seed
from isingsat.solver._kernels_py import tabu as py_tabu

from conftest import codes, ising_model, outcome_of, pair_terms, random_3sat


def _random_model(n: int, rng: random.Random) -> IsingModel:
    """Integer couplings and fields over the chip's programmable range."""
    lo, hi = COEFF_MIN, COEFF_MAX
    j = {}
    h = [0.0] * n
    for i in range(n):
        for k in range(i + 1, n):
            if rng.random() < 0.6:
                j[i, k] = float(rng.randint(lo, hi))
        if rng.random() < 0.7:
            h[i] = float(rng.randint(lo, hi))
    return ising_model(n, j, h, 0.0)


def _pair(coupling: float) -> IsingModel:
    """Two spins and one coupling between them."""
    return ising_model(2, {(0, 1): coupling}, [0.0, 0.0], 0.0)


def _lists(m: IsingModel, zero: float = 0.0) -> tuple[list[float], list[float]]:
    """The couplings and fields as the kernels take them, as ``solve`` lays
    them out: a row-major n*n matrix with J_ik at (i, k) and (k, i) and
    ``zero`` elsewhere, and a list of the fields."""
    n = m.num_spins
    jd = [zero] * (n * n)
    for (i, k), b in pair_terms(m.pairs, m.j).items():
        jd[i * n + k] = jd[k * n + i] = b
    return jd, m.h.tolist()


def _exact_min(m: IsingModel) -> float:
    """Minimum of ``m.energy`` over all 2^n spin states, enumerated at once.

    The coefficients are small integers, so every sum is exact.
    """
    n = m.num_spins
    states = 1 - 2 * ((np.arange(2**n)[:, None] >> np.arange(n)) & 1)
    upper = np.zeros((n, n))
    for (i, k), b in pair_terms(m.pairs, m.j).items():
        upper[i, k] = b
    energies = m.offset + states @ np.array(m.h) + ((states @ upper) * states).sum(axis=1)
    return float(energies.min())


def test_request_validation():
    m = ising_model(1, {}, [1.0], 0.0)
    with pytest.raises(ValueError, match="num_samples"):
        solve(m, backend="emulator", seed=0, num_samples=0, collect_trace=False)
    with pytest.raises(ValueError, match="quantum"):
        solve(m, backend="quantum", seed=0, num_samples=1, collect_trace=False)


def test_emulator_determinism():
    m = _random_model(12, random.Random(3))
    a = solve(m, backend="emulator", seed=7, num_samples=4, collect_trace=True)
    b = solve(m, backend="emulator", seed=7, num_samples=4, collect_trace=True)
    assert a.best_spins == b.best_spins
    assert a.trace == b.trace
    c = solve(m, backend="emulator", seed=8, num_samples=4, collect_trace=True)
    assert c.trace != a.trace  # different stream


def test_emulator_reaches_ground_state_usually():
    rng = random.Random(1)
    hits = 0
    for k in range(20):
        m = _random_model(10, rng)
        res = solve(m, backend="emulator", seed=k, num_samples=4, collect_trace=False)
        if abs(m.energy(res.best_spins) - _exact_min(m)) < 1e-9:
            hits += 1
    assert hits >= 10  # annealer finds the optimum on most 10-spin instances


def test_emulator_sample_count_and_best_pick():
    # the spins and the trace are both those of the first read with the
    # lowest kernel energy among the call's num_samples reads, which on an
    # integer model is its exact model energy less the offset
    m = _random_model(8, random.Random(5))
    m.offset = 3.0
    res = solve(m, backend="emulator", seed=2, num_samples=6, collect_trace=True)
    reads = [kernels.anneal(8, *_lists(m), SWEEPS, INITIAL_TEMP, FINAL_TEMP,
                            kernels.mix_seed(2, k), True) for k in range(6)]
    energies = [energy for _, energy, _ in reads]
    assert [e + m.offset for e in energies] == [m.energy(s) for s, _, _ in reads]
    best = energies.index(min(energies))
    assert res.best_spins == tuple(reads[best][0])
    assert res.trace == tuple((s, t, e + m.offset) for s, t, e in reads[best][2])


def test_emulator_trace_monotone():
    m = _random_model(10, random.Random(9))
    res = solve(m, backend="emulator", seed=1, num_samples=1, collect_trace=True)
    assert len(res.trace) == SWEEPS
    bests = [row[2] for row in res.trace]
    assert bests == sorted(bests, reverse=True)
    temps = [row[1] for row in res.trace]
    assert temps[0] == pytest.approx(INITIAL_TEMP)
    assert temps[-1] == pytest.approx(FINAL_TEMP)


def test_empty_model_shortcut():
    m = ising_model(0, {}, [], 2.5)
    res = solve(m, backend="emulator", seed=0, num_samples=1, collect_trace=False)
    assert res.best_spins == () and res.trace == ()
    assert m.energy(res.best_spins) == 2.5


def test_chip_guard_budget():
    m = ising_model(46, {}, [0.0] * 46, 0.0)
    with pytest.raises(ValueError, match="46 spins"):
        solve(m, backend="emulator", seed=0, num_samples=1, collect_trace=False)


def test_chip_guard_non_integer_coefficients():
    # within 1e-9 of an integer is still not an integer the chip can hold
    for m, name in ((_pair(0.75), r"coupling \(0, 1\)"),
                    (_pair(1.0 + 1e-10), r"coupling \(0, 1\)"),
                    (ising_model(1, {}, [-3.0 - 1e-12], 0.0), "field 0")):
        with pytest.raises(ValueError,
                           match=f"{name} = .* is not an integer; scale_to_chip"):
            solve(m, backend="emulator", seed=0, num_samples=1, collect_trace=False)


def test_chip_guard_range():
    # the message names the first misfit, couplings (i, k) before fields
    j = {(0, 1): 2.0, (1, 2): -15.0}
    for m, misfit in ((_pair(15.0), r"coupling \(0, 1\) = 15.0"),
                      (ising_model(3, j, [0.0, 0.0, 20.0], 0.0), r"coupling \(1, 2\) = -15.0"),
                      (ising_model(3, {}, [0.0, 0.0, 20.0], 0.0), "field 2 = 20.0")):
        with pytest.raises(ValueError,
                           match=f"{misfit} outside programmable range"):
            solve(m, backend="emulator", seed=0, num_samples=1, collect_trace=False)


def test_tabu_finds_optimum_on_most_models():
    # single-trajectory tabu: exact on most instances, never inconsistent
    rng = random.Random(7)
    hits = 0
    for k in range(10):
        m = _random_model(16, rng)
        res = solve(m, backend="tabu", seed=k, num_samples=1, collect_trace=False)
        exact = _exact_min(m)
        energy = m.energy(res.best_spins)
        assert energy >= exact - 1e-9
        hits += abs(energy - exact) < 1e-9
    assert hits >= 7


def test_tabu_determinism():
    m = _random_model(11, random.Random(2))
    a = solve(m, backend="tabu", seed=4, num_samples=1, collect_trace=False)
    b = solve(m, backend="tabu", seed=4, num_samples=1, collect_trace=False)
    assert a.best_spins == b.best_spins


def test_solve_dispatch():
    # each backend runs its own kernel, read 0 seeded with mix_seed(seed, 0)
    m = _pair(1.0)
    r1 = solve(m, backend="emulator", seed=3, num_samples=1, collect_trace=True)
    r2 = solve(m, backend="tabu", seed=3, num_samples=1, collect_trace=True)
    spins, _, trace = kernels.anneal(2, *_lists(m), SWEEPS, INITIAL_TEMP, FINAL_TEMP,
                                     kernels.mix_seed(3, 0), True)
    assert (r1.best_spins, r1.trace) == (
        tuple(spins), tuple((s, t, e + m.offset) for s, t, e in trace))
    assert r1.trace  # only the emulator traces
    spins, _, _ = kernels.tabu(2, *_lists(m), DEFAULT_TABU_MOVES, TABU_TENURE,
                               kernels.mix_seed(3, 0))
    assert r2.best_spins == tuple(spins) and r2.trace == ()
    assert m.energy(r1.best_spins) == m.energy(r2.best_spins) == -1.0


def test_offset_carried_through():
    m = ising_model(1, {}, [2.0], 10.0)
    res = solve(m, backend="emulator", seed=0, num_samples=1, collect_trace=True)
    assert res.best_spins == (-1,)
    assert res.trace[-1][2] == pytest.approx(8.0)  # spin -1 plus offset


@pytest.mark.parametrize("backend", BACKENDS)
def test_solve_refuses_malformed_pairs(backend):
    # the model's energy sums a repeated pair and would read a spin paired
    # with itself as a constant, where a couplings layout holds neither
    cases = [(array("i", [0, 2]), [1.0], IndexError, "a pair index is outside the model"),
             (array("i", [-1, 1]), [1.0], IndexError, "a pair index is outside the model"),
             (array("i", [1, 1]), [1.0], ValueError, "a spin is paired with itself"),
             (array("i", [0, 1, 0, 1]), [1.0, 2.0], ValueError, "a pair is repeated"),
             (array("i", [0, 1, 1, 0]), [1.0, -1.0], ValueError, "a pair is repeated"),
             (array("i", [0, 1, 1]), [1.0], ValueError, "two spin indices per coupling"),
             (array("i", [0, 1]), [1.0, 2.0], ValueError, "two spin indices per coupling")]
    for pairs, j, error, message in cases:
        m = IsingModel(2, pairs, array("d", j), array("d", [0.0, 1.0]), 0.0)
        with pytest.raises(error, match=message):
            solve(m, backend=backend, seed=0, num_samples=2, collect_trace=False)


def test_sat_instance_decodes_to_model():
    # the scaled chip problem distorts energies, so solution quality is
    # judged by decoding the spins back onto the CNF
    from isingsat.cnf import evaluate

    cnf = random_3sat(8, 20, random.Random(42))
    q = cnf_to_qubo(codes(cnf.clauses))
    scaled, _ = scale_to_chip(qubo_to_ising(q))
    res = solve(scaled, backend="emulator", seed=3, num_samples=8, collect_trace=False)
    assignment = {var: res.best_spins[idx] > 0 for idx, var in enumerate(q.ranks)}
    assert evaluate(cnf, assignment)


# ---------------------------------------------------------------------------
# kernel-level properties


def test_mix_seed_never_zero_and_distinct():
    assert py_mix_seed(0, 0) != 0
    assert py_mix_seed(-1, 0) != py_mix_seed(1, 0)
    assert py_mix_seed(2**70 + 9, 3) == py_mix_seed((2**70 + 9) % 2**64, 3)
    streams = {py_mix_seed(5, k) for k in range(100)}
    assert len(streams) == 100


def test_pure_anneal_energy_bookkeeping():
    rng = random.Random(31)
    m = _random_model(7, rng)
    jd, h = _lists(m)
    spins, best, trace = py_anneal(7, jd, h, 60, 10.0, 0.05, py_mix_seed(1, 0), False)
    check = sum(jd[i * 7 + j] * spins[i] * spins[j] for i in range(7) for j in range(i + 1, 7))
    check += sum(h[i] * spins[i] for i in range(7))
    assert best == pytest.approx(check)


def test_kernels_compiled_when_a_compiler_exists():
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")[0]
    assert kernels.COMPILED_KERNELS or shutil.which(cc) is None, kernels.FALLBACK_REASON


@pytest.mark.skipif(not kernels.COMPILED_KERNELS, reason="compiled kernels unavailable")
def test_cached_kernel_import_loads_no_build_modules():
    # the kernel is cached by now: a fresh interpreter only loads it
    code = ("import sys; from isingsat.solver import kernels; "
            "print(kernels.COMPILED_KERNELS, "
            "sorted({'hashlib', 'subprocess', 'sysconfig'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(isingsat.__file__))}
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.split() == ["True", "[]"]


def _tenths(seed: int) -> IsingModel:
    """A model with couplings and fields in tenths, which no double holds
    exactly: a field that a flip and its undo leave can differ in its last
    bits, so the same spins come back with other fields."""
    rng = random.Random(seed)
    n = rng.randint(6, 12)
    j = {(i, k): rng.randint(-30, 30) / 10
         for i in range(n) for k in range(i + 1, n) if rng.random() < 0.5}
    return ising_model(n, j, [rng.randint(-20, 20) / 10 for _ in range(n)], 0.0)


def _tabu_cases() -> list[tuple]:
    """(n, jd, h, max_moves, tenure, seed) of tabu calls that take the
    compiled kernel's cycle exit and calls that must not take it.

    Quarter-integer slices settle into exact cycles.  On a plateau (an
    all-zero model) the energy never changes, so only the spins and tabu
    times tell states apart.  The tenths models meet states that differ from
    an earlier one only in field bits, in tabu times, or in coming just
    after an improvement, and then improve later: an exit there would return
    a worse best.  In ``twins``, spins 0 and 1 couple to the rest with
    opposite signs, so flipping both from equal values changes no field and
    no energy, and only the spins tell the two states apart.  The edges of
    the move loop are covered too: tenure 0 and below (nothing is tabu),
    tenure above n (every spin turns tabu and the search stops early, even
    on a budget of 2^63 - 1), budgets of 0 and 1, -0.0 fields, and tenures
    that overflow a long long when added to the move.
    """
    rng = random.Random(43)
    quarter = [qubo_to_ising(cnf_to_qubo(codes(random_3sat(v, c, rng).clauses)))
               for v, c in ((5, 8), (6, 12), (8, 16))]
    zeros = [ising_model(n, {}, [0.0] * n, 0.0) for n in (6, 16)]
    signed = ising_model(4, {(0, 1): 1.0, (2, 3): -0.5}, [-0.0, 0.25, -0.0, -0.0], 0.0)
    cases = []
    for m in quarter + zeros + [signed, _tenths(3173)]:
        n = m.num_spins
        for moves, tenure in ((DEFAULT_TABU_MOVES, TABU_TENURE), (DEFAULT_TABU_MOVES, 0),
                              (300, -3), (300, n + 1), (0, TABU_TENURE), (1, TABU_TENURE)):
            cases.append((n, *_lists(m), moves, tenure, py_mix_seed(len(cases), 2)))
    for seed in (80, 148, 625, 3173):  # seeds on which each such exit shows
        m = _tenths(seed)
        cases.append((m.num_spins, *_lists(m), DEFAULT_TABU_MOVES, 5, seed))
    twins = ising_model(5, {(0, 2): -2.0, (1, 2): 2.0, (0, 3): -2.0, (1, 3): 2.0,
                            (0, 4): -1.0, (1, 4): 1.0, (2, 3): 2.0, (2, 4): -1.0},
                        [0.0, 0.0, 0.0, 1.0, 0.0], 0.0)
    cases += [(5, *_lists(twins), 500, 2, seed) for seed in (1, 2, 5)]
    six = _tenths(80)
    cases += [(six.num_spins, *_lists(six), 50, tenure, 7)
              for tenure in (2**63 - 1, 2**63 - 2, -2**63)]
    cases.append((6, *_lists(zeros[0]), 2**63 - 1, 7, 3))
    return cases


@pytest.mark.skipif(not kernels.COMPILED_KERNELS, reason="compiled kernels unavailable")
def test_compiled_matches_pure_bitwise():
    from isingsat.solver import _kernels as c_impl

    rng = random.Random(17)
    sizes = [rng.randint(2, 18) for _ in range(12)] + [45, 45, 45]
    for trial, n in enumerate(sizes):
        m = _random_model(n, rng)
        jd, h = _lists(m)
        seed = py_mix_seed(trial, 5)
        collect = trial % 2 == 0
        pa = py_anneal(n, jd, h, 80, 8.0, 0.1, seed, collect)
        ca = c_impl.anneal(n, jd, h, 80, 8.0, 0.1, seed, collect)
        assert list(pa[0]) == list(ca[0])
        assert pa[1] == ca[1]  # bitwise-equal energies
        assert list(pa[2]) == list(ca[2])
        pt = py_tabu(n, jd, h, 300, 10, seed)
        ct = c_impl.tabu(n, jd, h, 300, 10, seed)
        assert list(pt[0]) == list(ct[0])
        assert pt[1] == ct[1]
        assert pt[2] == ct[2]  # the move count
    # the oracle runs every move of the budget; the C kernel stops once its
    # search is back in a state it was in since the last improvement
    for k, args in enumerate(_tabu_cases()):
        pt, ct = py_tabu(*args), c_impl.tabu(*args)
        assert list(pt[0]) == list(ct[0]), k
        assert repr(pt[1:]) == repr(ct[1:]), k
    assert c_impl.mix_seed(0, 0) == py_mix_seed(0, 0)
    assert c_impl.mix_seed(2**70 + 9, 2) == py_mix_seed(2**70 + 9, 2)
    assert c_impl.mix_seed(-5, 1) == py_mix_seed(-5, 1)


@pytest.mark.skipif(not kernels.COMPILED_KERNELS, reason="compiled kernels unavailable")
def test_compiled_metropolis_shortcut_matches_pure():
    # the C kernel settles most uphill tests by bounds on exp(-x); the oracle
    # always calls exp, so every decision must agree on every kind of model
    from isingsat.solver import _kernels as c_impl

    rng = random.Random(23)
    chip = [_random_model(45, rng) for _ in range(2)]
    quarter = [qubo_to_ising(cnf_to_qubo(codes(random_3sat(n, 4 * n, rng).clauses)))
               for n in (14, 20)]
    floats = []
    for n in (9, 30):
        j = {(i, k): rng.uniform(-3.0, 3.0) for i in range(n) for k in range(i + 1, n)}
        floats.append(ising_model(n, j, [rng.uniform(-2.0, 2.0) for _ in range(n)], 0.0))
    # spins 0 and 3 sit in no term, so every de of theirs is exactly 0
    flat = ising_model(4, {(1, 2): 1.0}, [0.0, 0.5, -0.5, 0.0], 0.0)
    production = (SWEEPS, INITIAL_TEMP, FINAL_TEMP)
    cases = [(m, production) for m in chip + quarter]
    cases += [(m, (200, 6.0, 0.02)) for m in floats]
    for m in (chip[0], quarter[0], floats[0], flat):
        cases += [(m, (1, INITIAL_TEMP, FINAL_TEMP)),  # one sweep, at t0
                  (m, (40, 5.0, 1e-300)),  # x^3 overflows, so p(x) is inf
                  (m, (30, 5e-324, 5e-324)),  # de / t is inf from the start
                  (m, (30, 1e6, 1e6))]  # x near 0: the accept bound decides
    cases.append((flat, production))
    for k, (m, (sweeps, t0, t1)) in enumerate(cases):
        args = (m.num_spins, *_lists(m), sweeps, t0, t1, py_mix_seed(k, 1), True)
        pa, ca = py_anneal(*args), c_impl.anneal(*args)
        assert list(pa[0]) == list(ca[0]), k
        assert pa[1] == ca[1], k
        assert list(pa[2]) == list(ca[2]), k


def _slice_models(rng: random.Random) -> list[tuple[IsingModel, float]]:
    """Models shaped like the slices the pipeline anneals, each with the
    ``zero`` that ``_lists`` fills its dense layout with: about three
    neighbours a spin, spins in no coupling (empty rows), one spin coupled
    to all others, and n of 1, 2 and 45, with zeros of either sign in the
    couplings, in h and as the fill; and one coupling so large that 2J is
    inf."""
    def coeff() -> float:
        return float(rng.choice([v for v in range(COEFF_MIN, COEFF_MAX + 1) if v]))

    models = []
    for n, degree in ((45, 3), (45, 3), (44, 1), (30, 3), (2, 1), (1, 0)):
        pairs = {}
        for _ in range(n * degree // 2):
            i, k = sorted(rng.sample(range(n), 2))
            pairs[i, k] = coeff() if rng.random() < 0.9 else rng.choice((0.0, -0.0))
        models.append((n, pairs))
    hub = {(0, k): coeff() for k in range(1, 45)}
    models.append((45, {**hub, **{(k, k + 1): coeff() for k in range(1, 44, 7)}}))
    models.append((2, {}))
    models.append((2, {(0, 1): -0.0}))
    models.append((3, {(0, 1): 1e308, (1, 2): 1.0}))  # 2J overflows, J does not
    out = []
    for n, pairs in models:
        for zero in (0.0, -0.0):
            h = [coeff() if rng.random() < 0.5 else zero for _ in range(n)]
            out.append((ising_model(n, pairs, h, 0.0), zero))
    return out


def _slice_shaped(rng: random.Random) -> list[tuple[int, list[float], list[float]]]:
    """(n, jd, h) of the ``_slice_models``, in the dense layout."""
    return [(m.num_spins, *_lists(m, zero)) for m, zero in _slice_models(rng)]


@pytest.mark.skipif(not kernels.COMPILED_KERNELS, reason="compiled kernels unavailable")
def test_neighbour_lists_match_the_dense_oracle_on_slice_shaped_models():
    # the C kernel keeps only the nonzero couplings, laid out from the
    # model's pairs by its couplings or read from a dense jd; the oracle
    # reads every entry of its couplings' dense layout or of a dense jd
    from isingsat.solver import _kernels as c_impl

    schedules = [(SWEEPS, INITIAL_TEMP, FINAL_TEMP), (1, INITIAL_TEMP, FINAL_TEMP),
                 (40, 5.0, 1e-300), (30, 5e-324, 5e-324), (30, 1e6, 1e6)]
    for k, (m, zero) in enumerate(_slice_models(random.Random(29))):
        n, (dense, h) = m.num_spins, _lists(m, zero)
        oracle = py_couplings(n, m.pairs, m.j)
        assert oracle == _lists(m)[0]
        # the oracle over its couplings first: every other result must equal it
        runs = [(py_anneal, py_tabu, oracle), (py_anneal, py_tabu, dense),
                (c_impl.anneal, c_impl.tabu, c_impl.couplings(n, m.pairs, m.j)),
                (c_impl.anneal, c_impl.tabu, dense)]
        for sweeps, t0, t1 in schedules:
            args = (sweeps, t0, t1, py_mix_seed(k, sweeps), True)
            # repr tells the zeros apart: not even their sign may differ
            want, *got = (repr(anneal(n, jd, h, *args)) for anneal, _, jd in runs)
            assert got == [want] * 3, (k, sweeps)
        args = (DEFAULT_TABU_MOVES, TABU_TENURE, py_mix_seed(k, 0))
        want, *got = (repr(tabu(n, jd, h, *args)) for _, tabu, jd in runs)
        assert got == [want] * 3, k


@pytest.mark.skipif(not kernels.COMPILED_KERNELS, reason="compiled kernels unavailable")
def test_both_kernels_refuse_malformed_couplings_alike():
    """Bad pairs are refused by both couplings with the same exception and
    message, a bad n with the same exception; the compiled one refuses
    other typecodes, which the oracle reads as they stand.  A couplings
    object of another n is refused by the kernels as the oracle refuses a
    dense list of another length."""
    from isingsat.solver import _kernels as c_impl

    pairs, j = array("i", [0, 1, 1, 2]), array("d", [1.0, -2.0])
    refused = [
        (3, array("i", [0, 1, 1]), j),  # an odd-length pair array
        (3, array("i", [0, 1]), j),  # a coupling more than pairs
        (3, array("i", [0, 1, 1, 2, 0, 2]), j),  # a pair more than couplings
        (3, array("i", [0, 1, 1, 3]), j), (3, array("i", [-1, 1, 1, 2]), j),
        (0, array("i", [0, 1]), array("d", [1.0])), (-1, pairs, j),
        (3, array("i", [0, 1, 2, 2]), j),  # a spin paired with itself
        (3, array("i", [2, 2, 1, 3]), j),  # and an index outside: IndexError first
        (3, array("i", [0, 1, 1, 0]), j),  # repeated, in either order
        (3, array("i", [0, 2, 0, 2]), array("d", [0.0, -0.0])),  # zeros too
        (3, array("i", [0, 0, 1, 0, 0, 1]), array("d", [1.0, 1.0, 1.0])),  # self first
    ]
    for args in refused:
        outcome = outcome_of(c_impl.couplings, *args)
        assert outcome == outcome_of(py_couplings, *args), args
        assert outcome[0] in (IndexError, ValueError), args
    for n, error in ((2.0, TypeError), ("3", TypeError), (2**31, OverflowError)):
        for couplings in (c_impl.couplings, py_couplings):
            with pytest.raises(error):
                couplings(n, pairs, j)
    for args in ((3, list(pairs), j), (3, array("l", pairs), j), (3, pairs, list(j)),
                 (3, pairs, array("f", j))):
        assert outcome_of(c_impl.couplings, *args) in {
            (TypeError, "pairs must be an array('i')"), (TypeError, "j must be an array('d')")}
        assert py_couplings(*args) == py_couplings(3, pairs, j)
    h = [0.5, -0.5, 0.25]
    for other in (2, 4):
        layouts = ((c_impl.anneal, c_impl.tabu, c_impl.couplings(other, array("i", [0, 1]),
                                                                  array("d", [1.0]))),
                   (py_anneal, py_tabu, py_couplings(other, array("i", [0, 1]),
                                                     array("d", [1.0]))))
        for anneal, tabu, jd in layouts:
            with pytest.raises(ValueError):
                anneal(3, jd, h, 20, 5.0, 0.1, 7, False)
            with pytest.raises(ValueError):
                tabu(3, jd, h, 50, 3, 7)
    # the right n reads alike
    jd, cp = py_couplings(3, pairs, j), c_impl.couplings(3, pairs, j)
    assert repr(c_impl.anneal(3, cp, h, 20, 5.0, 0.1, 7, True)) == \
        repr(py_anneal(3, jd, h, 20, 5.0, 0.1, 7, True))
    assert c_impl.tabu(3, cp, h, 50, 3, 7) == py_tabu(3, jd, h, 50, 3, 7)


def _in_child(path: str, tabu_calls=(), anneal_calls=()) -> str:
    """The repr of each call's result from the kernel module at ``path``, as
    a fresh interpreter returns them: the test outlives a call that aborts
    or runs on."""
    code = ("import importlib.machinery as m, importlib.util as u, json, sys\n"
            "loader = m.ExtensionFileLoader('_kernels', sys.argv[1])\n"
            "k = u.module_from_spec(u.spec_from_file_location("
            "'_kernels', sys.argv[1], loader=loader))\n"
            "loader.exec_module(k)\n"
            "tabu, anneal = json.load(sys.stdin)\n"
            "print(repr(([k.tabu(*a) for a in tabu], [k.anneal(*a) for a in anneal])))\n")
    out = subprocess.run([sys.executable, "-c", code, path], capture_output=True,
                         text=True, timeout=60,
                         input=json.dumps([list(tabu_calls), list(anneal_calls)]))
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


@pytest.mark.skipif(not kernels.COMPILED_KERNELS, reason="compiled kernels unavailable")
def test_compiled_tabu_stops_a_cycling_search_on_a_huge_budget():
    # 10^12 moves would take days; a search that cycles ends at once with
    # the result of the full budget, which the oracle reaches within 2000
    from isingsat.solver import _kernels as c_impl

    m = qubo_to_ising(cnf_to_qubo(codes(random_3sat(5, 8, random.Random(43)).clauses)))
    args = [m.num_spins, *_lists(m), 10**12, TABU_TENURE, 9]
    spins, energy, _ = py_tabu(*args[:3], DEFAULT_TABU_MOVES, *args[4:])
    assert _in_child(c_impl.__file__, [args]) == repr(([(spins, energy, 10**12)], []))


@pytest.mark.skipif(not kernels.COMPILED_KERNELS, reason="compiled kernels unavailable")
def test_both_kernels_reject_the_same_arguments():
    from isingsat.solver import _kernels as c_impl

    jd, h = [0.0, 1.0, 1.0, 0.0], [0.5, -0.5]
    tabu = (2, jd, h, 50, 3, 7)  # n, jd, h, max_moves, tenure, seed
    anneal = (2, jd, h, 20, 5.0, 0.1, 7, False)  # ..., sweeps, t0, t1, seed, trace

    def bad(args, k, value):
        return args[:k] + (value,) + args[k + 1:]

    cases = [
        # C's long long and int
        ("tabu", bad(tabu, 3, 2**63), OverflowError),
        ("tabu", bad(tabu, 4, 2**63), OverflowError),
        ("tabu", bad(tabu, 4, -2**63 - 1), OverflowError),
        ("tabu", bad(tabu, 0, 2**31), OverflowError),
        ("anneal", bad(anneal, 3, 2**31), OverflowError),
        ("anneal", bad(anneal, 0, -2**31 - 1), OverflowError),
        # not an integer
        ("tabu", bad(tabu, 3, 50.0), TypeError),
        ("anneal", bad(anneal, 0, 2.0), TypeError),
        ("anneal", bad(anneal, 6, 7.0), TypeError),
        # a negative size, too few or too many coefficients
        ("tabu", bad(tabu, 0, -1), ValueError),
        ("anneal", bad(anneal, 0, -1), ValueError),
        ("tabu", bad(tabu, 1, jd[:2]), ValueError),
        ("anneal", bad(anneal, 1, jd[:2]), ValueError),
        ("tabu", bad(tabu, 2, h[:1]), ValueError),
        ("anneal", bad(anneal, 2, h[:1]), ValueError),
        ("tabu", bad(tabu, 1, jd + [0.0] * 5), ValueError),  # a jd of another n
        ("anneal", bad(anneal, 1, jd + [0.0] * 5), ValueError),
        ("anneal", bad(anneal, 2, h + [0.0]), ValueError),
        # a temperature that is not positive and finite
        *(("anneal", bad(anneal, k, t), ValueError)
          for k in (4, 5) for t in (0.0, -0.0, -1.0, math.inf, math.nan)),
        ("anneal", bad(anneal, 4, "hot"), TypeError),
    ]
    for name, args, error in cases:
        for impl in (getattr(c_impl, name), {"tabu": py_tabu, "anneal": py_anneal}[name]):
            with pytest.raises(error):
                impl(*args)
    # the checks leave good arguments alone; a seed is read modulo 2**64
    for seed in (7, 7 + 2**64, 7 - 2**64):
        assert py_tabu(*bad(tabu, 5, seed)) == c_impl.tabu(*bad(tabu, 5, seed)) \
            == py_tabu(*tabu)
        assert py_anneal(*bad(anneal, 6, seed)) == c_impl.anneal(*bad(anneal, 6, seed))
    # an integer temperature is read as a float, also in the trace rows
    warm = (2, jd, h, 3, 5, 1, 7, True)
    assert repr(py_anneal(*warm)) == repr(c_impl.anneal(*warm))


# ---------------------------------------------------------------------------
# the kernel build, the only path on a host without a cached shared object


def _cc() -> str:
    return shlex.split(sysconfig.get_config_var("CC") or "cc")[0]


@pytest.mark.skipif(shutil.which(_cc()) is None, reason="no C compiler on PATH")
def test_build_writes_the_shared_object(tmp_path):
    target = tmp_path / "cache" / "_kernels.so"
    assert kernels._build(str(target)) is None
    assert target.stat().st_size > 0
    assert [p.name for p in target.parent.iterdir()] == [target.name]


@pytest.mark.skipif(shutil.which(_cc()) is None, reason="no C compiler on PATH")
def test_build_removes_older_builds_of_its_suffix_only(tmp_path):
    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    target = tmp_path / f"_kernels.new{suffix}"
    stale = tmp_path / f"_kernels.old{suffix}"
    other = tmp_path / "_kernels.old.abi3.so"  # another interpreter's build
    in_flight = tmp_path / f"_kernels.next{suffix}.123.tmp"
    for path in (stale, other, in_flight):
        path.write_bytes(b"")
    assert not other.name.endswith(suffix)
    assert kernels._build(str(target)) is None
    assert {p.name for p in tmp_path.iterdir()} == {target.name, other.name,
                                                   in_flight.name}


def _compile(out, *flags: str) -> subprocess.CompletedProcess:
    """Compile ``_kernels.c`` to ``out`` with the build's flags and ``flags``."""
    cmd = [*shlex.split(sysconfig.get_config_var("CC") or "cc"), *kernels._FLAGS, *flags,
           "-I", sysconfig.get_paths()["include"], kernels._SOURCE, "-o", str(out), "-lm"]
    return subprocess.run(cmd, capture_output=True, text=True)


@pytest.mark.skipif(shutil.which(_cc()) is None, reason="no C compiler on PATH")
def test_kernel_source_compiles_without_warnings(tmp_path):
    # -Wextra without its two warnings that the CPython API makes: the
    # METH_* signatures take a self they do not use, and {0} initialises a
    # struct's first field only
    proc = _compile(tmp_path / "_kernels.so", "-Wall", "-Wextra", "-Wno-unused-parameter",
                    "-Wno-missing-field-initializers", "-Werror")
    assert proc.returncode == 0, proc.stderr


def test_build_without_a_compiler_says_so(tmp_path, monkeypatch):
    get = sysconfig.get_config_var
    monkeypatch.setattr(sysconfig, "get_config_var",
                        lambda name: "no-such-cc --flag" if name == "CC" else get(name))
    target = tmp_path / "_kernels.so"
    assert kernels._build(str(target)) == "no C compiler (no-such-cc) on PATH"
    assert not any(tmp_path.iterdir())


@pytest.mark.skipif(shutil.which(_cc()) is None, reason="no C compiler on PATH")
def test_build_of_a_broken_source_reports_the_compiler(tmp_path, monkeypatch):
    broken = tmp_path / "_kernels.c"
    with open(kernels._SOURCE) as fh:
        broken.write_text(fh.read() + "\nthis is not C;\n")
    monkeypatch.setattr(kernels, "_SOURCE", str(broken))
    target = tmp_path / "out" / "_kernels.so"
    reason = kernels._build(str(target))
    assert reason is not None and " exited with " in reason
    assert str(broken) in reason
    assert not any((tmp_path / "out").iterdir())  # no .tmp file is left


@pytest.mark.skipif(shutil.which(_cc()) is None, reason="no C compiler on PATH")
def test_kernels_run_clean_under_the_undefined_behaviour_sanitizer(tmp_path):
    # this build aborts at the first undefined operation, a signed overflow
    # of tabu's tenure say, and must still give the oracle's results
    path = tmp_path / f"_kernels{importlib.machinery.EXTENSION_SUFFIXES[0]}"
    proc = _compile(path, "-fsanitize=undefined", "-fno-sanitize-recover=all")
    assert proc.returncode == 0, proc.stderr
    tabu_calls = _tabu_cases()
    anneal_calls = [(n, jd, h, sweeps, t0, t1, py_mix_seed(k, sweeps), True)
                    for k, (n, jd, h) in enumerate(_slice_shaped(random.Random(29)))
                    for sweeps, t0, t1 in ((30, 5.0, 1e-300), (30, 5e-324, 5e-324),
                                           (1, INITIAL_TEMP, FINAL_TEMP))]
    want = ([py_tabu(*a) for a in tabu_calls], [py_anneal(*a) for a in anneal_calls])
    assert _in_child(str(path), tabu_calls, anneal_calls) == repr(want)
