"""Annealing/tabu emulator: determinism, optimality on small models, guards."""
from __future__ import annotations

import os
import random
import shlex
import shutil
import subprocess
import sys
import sysconfig

import numpy as np
import pytest

import isingsat
from isingsat.qubo import (COEFF_MAX, COEFF_MIN, IsingModel, cnf_to_qubo,
                           qubo_to_ising, scale_to_chip)
from isingsat.solver import (
    FINAL_TEMP,
    INITIAL_TEMP,
    SWEEPS,
    solve,
    solve_emulator,
    solve_tabu,
)
from isingsat.solver import kernels
from isingsat.solver._kernels_py import anneal as py_anneal
from isingsat.solver._kernels_py import mix_seed as py_mix_seed
from isingsat.solver._kernels_py import tabu as py_tabu

from conftest import random_3sat


def _random_model(n: int, rng: random.Random) -> IsingModel:
    """Integer couplings and fields over the chip's programmable range."""
    lo, hi = COEFF_MIN, COEFF_MAX
    m = IsingModel(num_spins=n)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.6:
                m.j[(i, j)] = float(rng.randint(lo, hi))
        if rng.random() < 0.7:
            m.h[i] = float(rng.randint(lo, hi))
    return m


def _dense(m: IsingModel) -> tuple[list[float], list[float]]:
    n = m.num_spins
    jd = [0.0] * (n * n)
    for (i, j), v in m.j.items():
        jd[i * n + j] = v
        jd[j * n + i] = v
    return jd, [m.h.get(i, 0.0) for i in range(n)]


def _exact_min(m: IsingModel) -> float:
    """Minimum of ``m.energy`` over all 2^n spin states, enumerated at once.

    The coefficients are small integers, so every sum is exact.
    """
    n = m.num_spins
    states = 1 - 2 * ((np.arange(2**n)[:, None] >> np.arange(n)) & 1)
    upper = np.zeros((n, n))
    for (i, j), v in m.j.items():
        upper[i, j] = v
    h = np.array([m.h.get(i, 0.0) for i in range(n)])
    energies = m.offset + states @ h + ((states @ upper) * states).sum(axis=1)
    return float(energies.min())


def test_request_validation():
    m = IsingModel(num_spins=1, h={0: 1.0})
    with pytest.raises(ValueError, match="num_samples"):
        solve(m, backend="emulator", seed=0, num_samples=0, collect_trace=False)
    with pytest.raises(ValueError, match="quantum"):
        solve(m, backend="quantum", seed=0, num_samples=1, collect_trace=False)


def test_emulator_determinism():
    m = _random_model(12, random.Random(3))
    a = solve_emulator(m, seed=7, num_samples=4, collect_trace=True)
    b = solve_emulator(m, seed=7, num_samples=4, collect_trace=True)
    assert a.best_spins == b.best_spins
    assert a.trace == b.trace
    c = solve_emulator(m, seed=8, num_samples=4, collect_trace=True)
    assert c.trace != a.trace  # different stream


def test_emulator_reaches_ground_state_usually():
    rng = random.Random(1)
    hits = 0
    for k in range(20):
        m = _random_model(10, rng)
        res = solve_emulator(m, seed=k, num_samples=4, collect_trace=False)
        if abs(m.energy(res.best_spins) - _exact_min(m)) < 1e-9:
            hits += 1
    assert hits >= 10  # annealer finds the optimum on most 10-spin instances


def test_emulator_sample_count_and_best_pick():
    # the spins and the trace are both those of the first read with the
    # lowest model energy among the call's num_samples reads
    m = _random_model(8, random.Random(5))
    res = solve_emulator(m, seed=2, num_samples=6, collect_trace=True)
    jd, h = _dense(m)
    reads = [kernels.anneal(8, jd, h, SWEEPS, INITIAL_TEMP, FINAL_TEMP,
                            kernels.mix_seed(2, k), True) for k in range(6)]
    energies = [m.energy(spins) for spins, _, _ in reads]
    best = energies.index(min(energies))
    assert res.best_spins == tuple(reads[best][0])
    assert res.trace == tuple((s, t, e + m.offset) for s, t, e in reads[best][2])


def test_emulator_trace_monotone():
    m = _random_model(10, random.Random(9))
    res = solve_emulator(m, seed=1, num_samples=1, collect_trace=True)
    assert len(res.trace) == SWEEPS
    bests = [row[2] for row in res.trace]
    assert bests == sorted(bests, reverse=True)
    temps = [row[1] for row in res.trace]
    assert temps[0] == pytest.approx(INITIAL_TEMP)
    assert temps[-1] == pytest.approx(FINAL_TEMP)


def test_empty_model_shortcut():
    m = IsingModel(num_spins=0, offset=2.5)
    res = solve(m, backend="emulator", seed=0, num_samples=1, collect_trace=False)
    assert res.best_spins == () and res.trace == ()
    assert m.energy(res.best_spins) == 2.5


def test_chip_guard_budget():
    m = IsingModel(num_spins=46)
    with pytest.raises(ValueError):
        solve_emulator(m, seed=0, num_samples=1, collect_trace=False)


def test_chip_guard_non_integer_coefficients():
    m = IsingModel(num_spins=2, j={(0, 1): 0.75})
    with pytest.raises(ValueError, match="scale_to_chip"):
        solve_emulator(m, seed=0, num_samples=1, collect_trace=False)


def test_chip_guard_range():
    m = IsingModel(num_spins=2, j={(0, 1): 15.0})
    with pytest.raises(ValueError):
        solve_emulator(m, seed=0, num_samples=1, collect_trace=False)


def test_tabu_finds_optimum_on_most_models():
    # single-trajectory tabu: exact on most instances, never inconsistent
    rng = random.Random(7)
    hits = 0
    for k in range(10):
        m = _random_model(16, rng)
        res = solve_tabu(m, seed=k, num_samples=1)
        exact = _exact_min(m)
        energy = m.energy(res.best_spins)
        assert energy >= exact - 1e-9
        hits += abs(energy - exact) < 1e-9
    assert hits >= 7


def test_tabu_determinism():
    m = _random_model(11, random.Random(2))
    a = solve_tabu(m, seed=4, num_samples=1)
    b = solve_tabu(m, seed=4, num_samples=1)
    assert a.best_spins == b.best_spins


def test_solve_dispatch():
    m = IsingModel(num_spins=2, j={(0, 1): 1.0})
    r1 = solve(m, backend="emulator", seed=3, num_samples=1, collect_trace=True)
    r2 = solve(m, backend="tabu", seed=3, num_samples=1, collect_trace=True)
    assert r1 == solve_emulator(m, seed=3, num_samples=1, collect_trace=True)
    assert r1.trace  # only the emulator traces
    assert r2 == solve_tabu(m, seed=3, num_samples=1) and r2.trace == ()
    assert m.energy(r1.best_spins) == m.energy(r2.best_spins) == -1.0


def test_offset_carried_through():
    m = IsingModel(num_spins=1, h={0: 2.0}, offset=10.0)
    res = solve_emulator(m, seed=0, num_samples=1, collect_trace=True)
    assert res.best_spins == (-1,)
    assert res.trace[-1][2] == pytest.approx(8.0)  # spin -1 plus offset


def test_sat_instance_decodes_to_model():
    # the scaled chip problem distorts energies, so solution quality is
    # judged by decoding the spins back onto the CNF
    from isingsat.cnf import evaluate

    cnf = random_3sat(8, 20, random.Random(42))
    q = cnf_to_qubo(cnf)
    scaled, _ = scale_to_chip(qubo_to_ising(q))
    res = solve_emulator(scaled, seed=3, num_samples=8, collect_trace=False)
    assignment = {var: res.best_spins[idx] > 0 for idx, var in q.source_var_map.items()}
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
    jd, h = _dense(_random_model(7, rng))
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


@pytest.mark.skipif(not kernels.COMPILED_KERNELS, reason="compiled kernels unavailable")
def test_compiled_matches_pure_bitwise():
    from isingsat.solver import _kernels as c_impl

    rng = random.Random(17)
    sizes = [rng.randint(2, 18) for _ in range(12)] + [45, 45, 45]
    for trial, n in enumerate(sizes):
        jd, h = _dense(_random_model(n, rng))
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
    assert c_impl.mix_seed(0, 0) == py_mix_seed(0, 0)
    assert c_impl.mix_seed(2**70 + 9, 2) == py_mix_seed(2**70 + 9, 2)
    assert c_impl.mix_seed(-5, 1) == py_mix_seed(-5, 1)
