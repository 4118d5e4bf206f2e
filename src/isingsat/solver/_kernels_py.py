"""Pure-Python solver kernels: Metropolis annealing and tabu descent.

The oracle for the compiled kernels in ``_kernels.c``, which ``kernels``
builds on first import, and what runs when they cannot be built.  The two
must stay operation-for-operation identical — same seeding (splitmix64) and
RNG (xorshift64*), same float operation order, same tie-breaks, libm
``exp``/``pow`` — so that results never depend on which implementation the
import selected; the tests compare them bit for bit.

The couplings arrive as a dense row-major n*n list with a zero diagonal and
symmetric entries; ``energy = 0.5 * s·(J s) + h·s`` is tracked incrementally
through per-spin local fields ``f_i = h_i + sum_j J_ij s_j`` (a flip of spin
i costs ``-2 s_i f_i`` and touches every field in O(n)).
"""
from __future__ import annotations

import math

_MASK = (1 << 64) - 1
_STAR = 0x2545F4914F6CDD1D


def mix_seed(seed: int, stream: int) -> int:
    """splitmix64 of (seed, stream), never zero (xorshift state must be)."""
    z = (seed + (stream + 1) * 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    z = z ^ (z >> 31)
    return z if z else _STAR


def _step(state: int) -> tuple[int, int]:
    x = state
    x ^= x >> 12
    x = (x ^ (x << 25)) & _MASK
    x ^= x >> 27
    return x, (x * _STAR) & _MASK


def _unif(out: int) -> float:
    return (out >> 11) * (1.0 / 9007199254740992.0)


def _init(n: int, jd: list[float], h: list[float], state: int):
    spins = [0] * n
    for i in range(n):
        state, out = _step(state)
        spins[i] = 1 if out & 1 else -1
    fields = [0.0] * n
    for i in range(n):
        acc = h[i]
        row = i * n
        for q in range(n):
            acc += jd[row + q] * spins[q]
        fields[i] = acc
    cur = 0.0
    for i in range(n):
        cur += 0.5 * spins[i] * (fields[i] + h[i])
    return state, spins, fields, cur


def anneal(n: int, jd: list[float], h: list[float], sweeps: int,
           t0: float, t1: float, seed: int, collect_trace: bool):
    """Geometric-cooling Metropolis; returns (best_spins, best_energy, trace)."""
    state, spins, fields, cur = _init(n, jd, h, seed)
    best = cur
    best_spins = list(spins)
    ratio = (t1 / t0) ** (1.0 / (sweeps - 1)) if sweeps > 1 else 1.0
    trace: list[tuple[int, float, float]] = []
    t = t0
    for sweep in range(sweeps):
        for i in range(n):
            de = -2.0 * spins[i] * fields[i]
            if de > 0.0:
                state, out = _step(state)
                if _unif(out) >= math.exp(-de / t):
                    continue
            spins[i] = -spins[i]
            cur += de
            si = spins[i]
            row_i = i
            for q in range(n):
                fields[q] += 2.0 * jd[q * n + row_i] * si
            if cur < best:
                best = cur
                best_spins = list(spins)
        if collect_trace:
            trace.append((sweep, t, best))
        t *= ratio
    return best_spins, best, trace


def tabu(n: int, jd: list[float], h: list[float], max_moves: int,
         tenure: int, seed: int):
    """Best-admissible single-flip tabu search; returns (best_spins, best_energy, moves)."""
    state, spins, fields, cur = _init(n, jd, h, seed)
    best = cur
    best_spins = list(spins)
    tabu_until = [0] * n
    moves = 0
    for move in range(1, max_moves + 1):
        pick = -1
        pick_de = 0.0
        for i in range(n):
            de = -2.0 * spins[i] * fields[i]
            if move < tabu_until[i] and not cur + de < best:  # aspiration
                continue
            if pick < 0 or de < pick_de:
                pick = i
                pick_de = de
        if pick < 0:
            break
        spins[pick] = -spins[pick]
        cur += pick_de
        si = spins[pick]
        for q in range(n):
            fields[q] += 2.0 * jd[q * n + pick] * si
        tabu_until[pick] = move + tenure
        moves = move
        if cur < best:
            best = cur
            best_spins = list(spins)
    return best_spins, best, moves
