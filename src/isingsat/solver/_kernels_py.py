"""Pure-Python kernels: Metropolis annealing, tabu descent, the
decomposition's slice walk, freeze and merge and a repeat's start tally,
and the slice's QUBO and Ising build and chip scaling.

The oracle for the compiled kernels in ``_kernels.c``, which ``kernels``
builds on first import, and what runs when they cannot be built.  The two
must give identical results — same seeding (splitmix64) and RNG
(xorshift64*), same float operation order, same tie-breaks, libm
``exp``/``pow`` — so that results never depend on which implementation the
import selected; the tests compare them bit for bit.  Two shortcuts of the C
kernel stay out of this oracle, which the tests hold them against:

* The Metropolis test here is the plain definition ``u >= exp(-de / t)``;
  the C kernel skips ``exp`` where one of two bounds already decides it.
* Tabu here spends its whole move budget; the C kernel stops once its search
  is back in a state it was in since its last improvement (spins, fields,
  energy and remaining tabu moves, bit for bit), since the rest of the budget
  would only repeat that cycle, and reports the full budget's move count.

``anneal`` and ``tabu`` take the couplings as ``jd`` in either of two
forms: what ``couplings(n, pairs, j)`` returns for a model's pairs,
which ``solver.solve`` builds once per call for all its reads, or a dense
row-major n*n list, symmetric with a zero diagonal.  Here ``couplings``
returns that dense list, this oracle's layout, read as given: a flip of
spin i reads row i where it means column i.  The C ``couplings`` returns an
opaque object holding the neighbour lists the C kernel would read from the
same dense list, and the C kernel reads a dense list too.
``energy = 0.5 * s·(J s) + h·s`` is tracked incrementally through per-spin
local fields ``f_i = h_i + sum_j J_ij s_j`` (a flip of spin i costs
``-2 s_i f_i`` and adds ``2 J_ij s_i`` to every field, zeros included).  The
C kernel keeps only the nonzero couplings, as neighbour lists, so a flip
there costs the spin's degree; the terms it skips are zeros, and its header
comment says why its results stay bit-identical to these.

Both reject the same arguments with the same exception types, checked in the
C kernel's order: an argument that is not an integer where C parses one is a
TypeError, one outside C's ``int`` (``n``, ``sweeps``) or ``long long``
(``max_moves``, ``tenure``) an OverflowError; a temperature that is not
positive and finite, a negative ``n``, or a ``jd`` or ``h`` of other than
n*n or n entries is a ValueError, and so is, in the C kernel, a couplings
object of another ``n``.  A seed is taken modulo 2**64, and an integer
temperature as a float.  ``couplings`` raises the same, with the same
messages, for a negative ``n``, ``pairs`` without two indices per coupling
(ValueError), an index outside ``0 .. n - 1`` (IndexError), and then a spin
paired with itself or a pair given twice, in either order (ValueError); the
C version takes only an ``array('i')`` of pairs and an ``array('d')`` of
couplings.

``walk``, ``freeze`` and ``merge`` are the decomposition's slice walk, the
clause loop of its freeze and its merge, as ``decompose`` ran them in
Python.  They do integer work only, on ranks and literal codes: the walk
takes a start rank and returns the selected ranks, the freeze takes those
and hands on the kept clauses as a table of literal codes, and the merge
takes the slice's spins and ranks (``QuboModel.ranks``).  The tables
``table_of`` lays out (read by ``row``) have a row per rank or per clause;
``GlobalState``'s value bytes, unsatisfied degrees and pool are indexed by
rank and its true-literal counts by clause.  The number of nodes is the
number of rows of ``occurrences``, or of the walk's push table.  The C
versions mark what they touch in the flag array; these keep their marks in
sets and dicts.  Both return, write and raise the same, in the same order:
a flag, value or degree array that does not hold one item per node, or a
count array that does not hold one per clause, is a ValueError, and so is a
slice that names a rank twice; a rank or a spin that is not an integer is a
TypeError; fewer spins than ranks, or a start, a selected rank or a rank of
the slice outside ``0 .. n - 1``, an IndexError.  A cooling rank outside
the nodes is never reached, so it is skipped.  A merge raises before it
writes anything.  These read the tables as they stand; the C versions check
each row they read and raise IndexError for an offset or an item out of
range, the C freeze and merge, which merge the occurrence rows these sort,
ValueError for one that is not ascending, and the C merge TypeError for
ranks that are no ``array('i')``.  A table the C versions accept they read
as these do, even one ``build_vig`` would not make.

``tally`` is ``decompose.GlobalState.start`` as it ran in Python: from
the clause table and the value bytes it counts the true literals of every
clause and the unsatisfied degree of every rank, and lists the pool.  Both
versions take the number of nodes from the value bytes; a byte other than
0 or 1 is a ValueError, and a literal code outside their ranks an
IndexError, each with the same message.  This one reads the offsets as
they stand; the C version checks them too, the table's header before it
allocates by it.

``qubo`` and ``ising`` are ``qubo.cnf_to_qubo`` and ``qubo.qubo_to_ising``
on flat arrays.  ``qubo`` takes the freeze's table of literal codes,
numbers the slice's spins by the sorted distinct ranks and looks each
clause up in the 14-row gadget table ``_GADGETS``, of which ``_kernels.c``
holds a copy; ``ising`` hands its pair array on.  The coefficients are
small integers, which ``ising`` only halves and quarters, so neither
rounds: the C versions add the floats in this order and match these bit
for bit, on hand-built models with other floats too.  Both raise the same,
with the same messages, for a negative code, a clause wider than 3, arrays
whose lengths do not match and a pair index outside the model.  These read
the clause table as it stands, where the C ``qubo`` checks each row as
``freeze`` does; the C versions take only buffers of C ints or doubles.

``scale`` is ``qubo.scale_to_chip``'s rule as it ran in Python, after its
spin-budget check, on the model's couplings, fields and offset.  It rounds:
``_round_away`` rounds half away from zero through ``math.floor`` and
``math.ceil``, whose int results make every zero +0.0, and the C version
rounds in doubles and turns a -0.0 into +0.0, so the two match bit for
bit.  A coefficient that is not finite is a ValueError in both, checked
before the scale is taken, and so is a model whose largest magnitude is
too small for the scale to be finite: left to the rounding, either would
raise a ValueError or, from an infinite scale, an OverflowError, by the
order in which a set holds the values.
"""
from __future__ import annotations

import math
import operator
from array import array
from bisect import bisect_left, insort
from collections import deque
from itertools import accumulate, chain

from ..qubo import COEFF_MAX, COEFF_MIN, chip_misfit

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


def _c_int(value: int, bits: int) -> int:
    """``value`` as C argument parsing reads a signed ``bits``-bit integer."""
    value = operator.index(value)
    if not -(1 << bits - 1) <= value < 1 << bits - 1:
        raise OverflowError(f"{value} does not fit a {bits}-bit C integer")
    return value


def _init(n: int, jd: list[float], h: list[float], seed: int):
    state = operator.index(seed) & _MASK
    if n < 0:
        raise ValueError("n must be non-negative")
    for coefficients, count in ((jd, n * n), (h, n)):
        if len(coefficients) != count:
            raise ValueError(f"need {count} coefficients, got {len(coefficients)}")
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


def couplings(n: int, pairs, j) -> list[float]:
    """The couplings ``j[p]`` between spins ``pairs[2p]`` and
    ``pairs[2p + 1]`` of ``n`` spins, as ``anneal`` and ``tabu`` take them:
    a dense row-major n*n list, J_ik at (i, k) and (k, i), 0.0 elsewhere."""
    n = _c_int(n, 32)
    if n < 0:
        raise ValueError("n must be non-negative")
    if len(pairs) != 2 * len(j):
        raise ValueError("pairs must hold two spin indices per coupling")
    if pairs and not 0 <= min(pairs) <= max(pairs) < n:
        raise IndexError("a pair index is outside the model")
    ends = list(zip(pairs[::2], pairs[1::2]))
    if any(i == k for i, k in ends):
        raise ValueError("a spin is paired with itself")
    if len({(min(i, k), max(i, k)) for i, k in ends}) < len(ends):
        raise ValueError("a pair is repeated")
    jd = [0.0] * (n * n)
    for (i, k), v in zip(ends, j):
        jd[i * n + k] = jd[k * n + i] = v
    return jd


def anneal(n: int, jd: list[float], h: list[float], sweeps: int,
           t0: float, t1: float, seed: int, collect_trace: bool):
    """Geometric-cooling Metropolis; returns (best_spins, best_energy, trace)."""
    n, sweeps = _c_int(n, 32), _c_int(sweeps, 32)
    if not (0.0 < t0 < math.inf and 0.0 < t1 < math.inf):
        raise ValueError("t0 and t1 must be positive and finite")
    t0, t1 = float(t0), float(t1)  # as C reads them: trace rows hold floats
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
            row = i * n
            for q in range(n):
                fields[q] += 2.0 * jd[row + q] * si
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
    n = _c_int(n, 32)
    max_moves, tenure = _c_int(max_moves, 64), _c_int(tenure, 64)
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
        row = pick * n
        for q in range(n):
            fields[q] += 2.0 * jd[row + q] * si
        tabu_until[pick] = move + tenure
        moves = move
        if cur < best:
            best = cur
            best_spins = list(spins)
    return best_spins, best, moves


def table_of(rows):
    """``rows`` flat in one ``array('i')`` ``t``: ``t[0]`` offsets, then the
    items, so row ``i`` is ``t[t[i]:t[i + 1]]`` (:func:`row`)."""
    table = array("i", accumulate(map(len, rows), initial=len(rows) + 1))
    table.fromlist(list(chain.from_iterable(rows)))
    return table


def row(table, i):
    """Row ``i`` of a flat table (:func:`table_of`)."""
    return table[table[i]:table[i + 1]]


def _rows(table):
    """The number of rows of a flat table; an empty one has none."""
    return table[0] - 1 if len(table) else 0


def _check_state(occurrences, flags, values, true_count, clauses):
    """The checks ``freeze`` and ``merge`` share, in the C order; the number
    of nodes."""
    n = _rows(occurrences)
    if len(flags) != n:
        raise ValueError("the flag array must hold one byte per node")
    if len(values) != n:
        raise ValueError("the value array must hold one byte per node")
    if len(true_count) != _rows(clauses):
        raise ValueError("true_count must hold one count per clause")
    return n


def walk(pushes, triangles, cooldown, flags, budget, start, depth_first):
    """The spin-budgeted walk from rank ``start``; returns the selected ranks.

    ``pushes`` is the ``Vig``'s neighbour table in push order, ``triangles``
    the ``Vig``'s, ``cooldown`` the ``FilterState``'s (its keys, ranks, cool)
    and ``flags`` the ``GlobalState``'s.
    """
    n = len(flags)
    if n != _rows(pushes):
        raise ValueError("the flag array must hold one byte per node")
    # ``seen`` holds the queued and the selected ranks, so each is pushed
    # once; no cooldown ticks during a walk, so the cooling ranks are read
    # once, and one outside the index is never reached
    cooling = {r for r in map(operator.index, cooldown) if 0 <= r < n}
    first = operator.index(start)
    if not 0 <= first < n:
        raise IndexError("the start is not a node of the index")
    selected: set[int] = set()
    seen = {first}
    ancillas = 0  # one per 3-literal clause whose variables are all selected
    active: deque[int] = deque()
    parked: deque[int] = deque()  # cooling ranks wait here until nothing else is left
    (parked if first in cooling else active).append(first)
    pend = 0
    while True:
        if active:
            v = active.popleft() if not depth_first else active.pop()
        elif parked:
            v = parked.popleft() if not depth_first else parked.pop()
        else:
            # component exhausted with budget to spare: restart at the lowest
            # untouched rank (variable) so a big enough budget selects everything
            while pend < n and pend in seen:
                pend += 1
            if pend == n:
                break
            v = pend
            seen.add(v)
            (parked if v in cooling else active).append(v)
            continue
        selected.add(v)
        extra = 0
        pairs = iter(row(triangles, v))
        for a, b in zip(pairs, pairs):
            if a in selected and b in selected:
                extra += 1
        if len(selected) + ancillas + extra > budget:
            selected.discard(v)
            break
        ancillas += extra
        for u in row(pushes, v):
            if u not in seen:
                seen.add(u)
                (parked if u in cooling else active).append(u)
    return selected


def freeze(clauses, occurrences, selected, values, true_count, flags):
    """The kept clauses of a slice, in clause order, and how many of the
    visited clauses are unsatisfied (``true_count`` zero).

    ``clauses`` and ``occurrences`` are the ``Vig``'s, the rest the
    ``GlobalState``'s; ``selected`` holds ranks.  Only the clauses of the
    selected ranks (their ``occurrences`` rows) are visited.  A true frozen
    literal drops its clause and a false one is removed; the selected
    literals are kept as they stand, as literal codes, in one table
    (:func:`table_of`) with a row per kept clause.
    """
    n = _check_state(occurrences, flags, values, true_count, clauses)
    chosen: set[int] = set()
    for r in map(operator.index, selected):
        if not 0 <= r < n:
            raise IndexError("a selected rank is outside the nodes")
        chosen.add(r)
    kept: list[list[int]] = []
    keep = kept.append
    unsat = 0
    for ci in sorted({ci for r in chosen for ci in row(occurrences, r)}):
        if not true_count[ci]:
            unsat += 1
        lits: list[int] = []
        for lit in row(clauses, ci):
            r = lit >> 1
            if r in chosen:
                lits.append(lit)
            elif bool(values[r]) != lit & 1:
                break  # a true frozen literal satisfies the clause
        else:
            keep(lits)
    return table_of(kept), unsat


def merge(clauses, occurrences, spins, ranks, values, true_count, unsat_degree, pool,
          flags):
    """Merge a slice's spins into the incumbent unless it loses a clause;
    returns the gain, the change in the number of satisfied clauses.

    ``spins[i]`` is the spin of rank ``ranks[i]`` (``QuboModel.ranks``); a
    spin above 0 is True.  ``clauses`` and ``occurrences`` are the
    ``Vig``'s, the rest the ``GlobalState``'s.  Only the clauses of the
    ranks whose value changes are read, each once, in clause order: its
    true-literal count moves by the literals that flip (make/break).  A
    gain of 0 or more (a plateau move included) is committed: ``values``,
    ``true_count``, ``unsat_degree`` and the ascending ``pool`` of ranks
    with a nonzero degree move together, the last two only for the clauses
    whose satisfied status flips.  A negative gain leaves them all as they
    were.
    """
    n = _check_state(occurrences, flags, values, true_count, clauses)
    if len(unsat_degree) != n:
        raise ValueError("the degree array must hold one count per node")
    if len(ranks) > len(spins := tuple(spins)):
        raise IndexError("the slice has fewer spins than ranks")
    named: set[int] = set()
    flips: dict[int, bool] = {}  # rank -> its new value
    for i, r in enumerate(ranks):
        r = operator.index(r)
        if not 0 <= r < n:
            raise IndexError("a rank of the slice is outside the nodes")
        if r in named:
            raise ValueError("the slice names a rank twice")
        named.add(r)
        value = operator.index(spins[i]) > 0
        if bool(values[r]) != value:
            flips[r] = value
    # per clause, +1 for each literal that turns true, -1 for each that turns false
    delta = {ci: sum(1 if flips[lit >> 1] != lit & 1 else -1
                     for lit in row(clauses, ci) if lit >> 1 in flips)
             for ci in sorted({ci for r in flips for ci in row(occurrences, r)})}
    gain = sum((true_count[ci] + d > 0) - (true_count[ci] > 0) for ci, d in delta.items())
    if gain < 0:
        return gain
    for r, value in flips.items():
        values[r] = value
    for ci, d in delta.items():
        was = true_count[ci]
        true_count[ci] = was + d
        if (was > 0) == (was + d > 0):
            continue
        step = -1 if was == 0 else 1  # now satisfied / now unsatisfied
        for r in dict.fromkeys(lit >> 1 for lit in row(clauses, ci)):  # each rank once
            unsat_degree[r] += step
            if step > 0 and unsat_degree[r] == 1:
                insort(pool, r)
            elif unsat_degree[r] == 0:
                del pool[bisect_left(pool, r)]
    return gain


def tally(clauses, values):
    """The clause bookkeeping of a repeat's start: (true_count, unsat,
    unsat_degree, pool), the counts of ``decompose.GlobalState``.

    ``clauses`` is the ``Vig``'s table of literal codes and ``values`` a
    byte per node, 1 for True.  ``true_count`` holds each clause's true
    literals, a repeated literal once per occurrence; ``unsat`` counts the
    clauses at zero, ``unsat_degree`` the unsatisfied clauses that hold each
    rank and ``pool`` lists, ascending, the ranks whose degree is nonzero.
    A value byte other than 0 or 1 is a ValueError, and a literal code
    outside the ranks of ``values`` an IndexError.
    """
    n = len(values)
    if max(values, default=0) > 1:
        raise ValueError("a value byte must be 0 or 1")
    t = clauses
    base = _rows(t) + 1
    lits = t[base:t[base - 1]] if len(t) else t
    if lits and not 0 <= min(lits) <= max(lits) < 2 * n:
        raise IndexError("an item is outside the index")
    truth = bytearray(2 * n)  # a byte per literal code
    truth[0::2] = values
    truth[1::2] = bytes(1 - b for b in values)
    # a repeated literal counts once per occurrence
    hits = list(accumulate(map(truth.__getitem__, lits), initial=0))
    true_count = array("i", [hits[b - base] - hits[a - base]
                             for a, b in zip(t[:base - 1], t[1:base])])
    degree = array("i", [0]) * n
    unsat = 0
    for ci, count in enumerate(true_count):
        if not count:
            unsat += 1
            for r in {lit >> 1 for lit in row(t, ci)}:
                degree[r] += 1
    pool = [r for r, d in enumerate(degree) if d]
    return true_count, unsat, degree, pool

# The penalties 1 - a, (1 - a)(1 - b) and P(a, b, c, w), with a -> 1 - x for
# each negative literal, expanded once (see ``isingsat.qubo``).  Keyed by the
# literal signs (True = positive, so the width is the key's length), each
# entry holds the offset, a linear coefficient per slot and a quadratic
# coefficient per pair of _PAIRS.  Slots 0..width-1 are the literals'
# variables in clause order, slot 3 the width-3 ancilla.  ``_kernels.c``
# holds a copy, in this order.
_PAIRS = {1: (), 2: ((0, 1),), 3: ((0, 1), (0, 3), (1, 3), (2, 3))}
_GADGETS = {
    (True,): (1, (-1,), ()),
    (False,): (0, (1,), ()),
    (True, True): (1, (-1, -1), (1,)),
    (True, False): (0, (0, 1), (-1,)),
    (False, True): (0, (1, 0), (-1,)),
    (False, False): (0, (0, 0), (1,)),
    (True, True, True): (1, (1, 1, -1, 0), (1, -2, -2, 1)),
    (True, True, False): (0, (1, 1, 1, 1), (1, -2, -2, -1)),
    (True, False, True): (2, (2, -1, -1, -2), (-1, -2, 2, 1)),
    (True, False, False): (1, (2, -1, 1, -1), (-1, -2, 2, -1)),
    (False, True, True): (2, (-1, 2, -1, -2), (-1, 2, -2, 1)),
    (False, True, False): (1, (-1, 2, 1, -1), (-1, 2, -2, -1)),
    (False, False, True): (4, (-2, -2, -1, -4), (1, 2, 2, 1)),
    (False, False, False): (3, (-2, -2, 1, -3), (1, 2, 2, -1)),
}


# _GADGETS with the zero terms dropped, keyed the same way: the offset, then
# (slot, coefficient) per linear term and (slot, slot, coefficient) per pair.
_TERMS = {signs: (constant,
                  tuple((slot, c) for slot, c in enumerate(lin) if c),
                  tuple((s, t, c) for (s, t), c in zip(_PAIRS[len(signs)], quad) if c))
          for signs, (constant, lin, quad) in _GADGETS.items()}


def qubo(clauses):
    """The QUBO of ``clauses``, a table of literal codes (``2 * r`` for
    rank ``r``, ``2 * r + 1`` for its negation): (num_vars, linear, pairs,
    quadratic, offset, ranks), the fields of ``isingsat.qubo.QuboModel``.

    A negative code is an IndexError, then a clause wider than 3 a
    ValueError.  The distinct ranks, ascending, take QUBO indices 0 ..
    len(ranks) - 1, and ``ranks`` lists them; ``pairs`` lists the pair
    terms in the order the clauses first touch them.
    """
    rows = [row(clauses, c) for c in range(_rows(clauses))]
    lits = list(chain.from_iterable(rows))
    if lits and min(lits) < 0:
        raise IndexError("an item is outside the index")
    widest = max(map(len, rows), default=0)
    if widest > 3:
        raise ValueError(f"clause width {widest} exceeds 3; reduce the formula first")
    ranks = array("i", sorted({code >> 1 for code in lits}))
    slot_of = {r: i for i, r in enumerate(ranks)}
    next_ancilla = len(ranks)
    num_vars = next_ancilla + sum(len(clause) == 3 for clause in rows)
    linear = array("d", [0.0]) * num_vars
    pairs, quadratic = array("i"), array("d")
    pair_at: dict[int, int] = {}  # i * num_vars + k -> the pair's position
    offset = 0  # a sum of small integers, exact as an int
    for clause in rows:
        if not clause:
            offset += 1
            continue
        constant, lin, quad = _TERMS[tuple(not code & 1 for code in clause)]
        slots = [slot_of[code >> 1] for code in clause]
        if len(clause) == 3:
            slots.append(next_ancilla)
            next_ancilla += 1
        offset += constant
        for s, coeff in lin:
            linear[slots[s]] += coeff
        for s, t, coeff in quad:
            i, k = sorted((slots[s], slots[t]))
            if i == k:  # a repeated variable folds in as x*x = x
                linear[i] += coeff
                continue
            at = pair_at.setdefault(i * num_vars + k, len(quadratic))
            if at == len(quadratic):
                pairs.extend((i, k))
                quadratic.append(0.0)
            quadratic[at] += coeff
    return num_vars, linear, pairs, quadratic, float(offset), ranks


def ising(num_vars, linear, pairs, quadratic, offset):
    """The exact change of variables x_i = (1 + s_i)/2 of a QUBO's fields:
    (num_spins, pairs, j, h, offset), the fields of
    ``isingsat.qubo.IsingModel``, ``pairs`` the array given.

    A negative ``num_vars``, a coefficient per index missing or to spare,
    or ``pairs`` without two indices per coefficient is a ValueError, and a
    pair index outside the model an IndexError.
    """
    offset = float(offset)
    if num_vars < 0:
        raise ValueError("num_vars must be non-negative")
    if len(linear) != num_vars:
        raise ValueError("linear must hold one coefficient per QUBO index")
    if len(pairs) != 2 * len(quadratic):
        raise ValueError("pairs must hold two QUBO indices per quadratic coefficient")
    if pairs and not 0 <= min(pairs) <= max(pairs) < num_vars:
        raise IndexError("a pair index is outside the model")
    h = array("d", [a / 2.0 for a in linear])
    for half in h:  # in index order; sum() compensates from Python 3.12 on
        offset += half
    j = array("d", [b / 4.0 for b in quadratic])
    for i, k, quarter in zip(pairs[::2], pairs[1::2], j):
        h[i] += quarter
        h[k] += quarter
        offset += quarter
    return num_vars, pairs, j, h, offset


def _round_away(v: float) -> int:
    return math.floor(v + 0.5) if v >= 0 else math.ceil(v - 0.5)


def scale(j, h, offset):
    """``qubo.scale_to_chip``'s rule on an Ising model's fields, or None
    when the chip holds every coefficient (``qubo.chip_misfit``).

    Otherwise every coefficient (and the offset) is scaled so the largest
    magnitude lands on ``COEFF_MAX``, then J/h are rounded to integers (ties
    away from zero) and clamped, each rule once per distinct value.  Returns
    (j, h, offset, max_rel_error), ``j`` an ``array('d')``.  A coefficient
    that is not finite is a ValueError, and so are coefficients too small
    for the scale to be finite.
    """
    offset = float(offset)
    values = {*j, *h}
    if not any(map(chip_misfit, values)):
        return None
    if not all(map(math.isfinite, values)):
        raise ValueError("a coefficient is not finite")
    maxabs = max(map(abs, values))
    scale = COEFF_MAX / maxabs
    if math.isinf(scale):
        raise ValueError("the coefficients are too small to scale")
    fit = {v: float(max(COEFF_MIN, min(COEFF_MAX, _round_away(v * scale))))
           for v in values}
    max_rel = max((abs(fit[v] - v * scale) / abs(v * scale)
                   for v in values if v * scale != 0.0), default=0.0)
    return (array("d", map(fit.__getitem__, j)), array("d", map(fit.__getitem__, h)),
            offset * scale, max_rel)
