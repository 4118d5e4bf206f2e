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

The couplings arrive as a dense row-major n*n list ``jd``, symmetric with a
zero diagonal.  That is the kernels' API and this oracle's layout, read as
given: a flip of spin i reads row i where it means column i.
``energy = 0.5 * s·(J s) + h·s`` is tracked incrementally through per-spin
local fields ``f_i = h_i + sum_j J_ij s_j`` (a flip of spin i costs
``-2 s_i f_i`` and adds ``2 J_ij s_i`` to every field, zeros included).  The
C kernel keeps only the nonzero entries of ``jd``, as neighbour lists, so a
flip there costs the spin's degree; the terms it skips are zeros, and its
header comment says why its results stay bit-identical to these.

Both reject the same arguments with the same exception types, checked in the
C kernel's order: an argument that is not an integer where C parses one is a
TypeError, one outside C's ``int`` (``n``, ``sweeps``) or ``long long``
(``max_moves``, ``tenure``) an OverflowError; a temperature that is not
positive and finite, a negative ``n``, or a ``jd`` or ``h`` shorter than
n*n or n entries is a ValueError.  A seed is taken modulo 2**64, and an
integer temperature as a float.

``walk``, ``freeze`` and ``merge`` are the decomposition's slice walk, the
clause loop of its freeze and its merge, as ``decompose`` ran them in
Python.  They do integer work only, on ranks: the tables ``build_vig`` lays
out (read by ``row``) are indexed by the position of a variable in the
ascending ``nodes``, and so is a repeat's state, ``GlobalState``'s value
bytes, unsatisfied degrees and pool; its true-literal counts are indexed by
clause.  The walk takes a start rank and returns the selected ranks, which
the freeze takes; only the merge's map names variables, which it finds in
``nodes`` by ``rank``.  The C versions mark what they touch in the flag
array; these keep their marks in sets and dicts.  On the tables
``build_vig`` makes, both return the same, write the same and raise the
same, in the same order: a flag, value or degree array that does not hold
one item per node, or a count array that does not hold one per clause, is a
ValueError, and so is a map that names a variable twice; a rank, a
variable or a spin that is not an integer is a TypeError; a start or a
selected rank outside ``0 .. len(nodes) - 1``, or a variable of the map that
``nodes`` lacks, an IndexError.  A cooling rank outside the nodes is never
reached, so it is skipped.  A merge raises before it writes anything.
These read the tables as they stand, since ``build_vig`` makes every offset
and item in range; the C versions check each row they read and raise
IndexError for an offset or an item out of range, and the C freeze, which
merges the occurrence rows where this one sorts them, ValueError for a row
that is not ascending.

``tally`` is ``decompose.GlobalState.start`` as it ran in Python: from
the clause table and the value bytes it counts the true literals of every
clause and the unsatisfied degree of every rank, and lists the pool.  Both
versions take the number of nodes from the value bytes; a byte other than
0 or 1 is a ValueError, and a literal code outside their ranks an
IndexError, each with the same message.  This one reads the offsets as
they stand; the C version checks them too, the table's header before it
allocates by it.

``qubo`` and ``ising`` are ``qubo.cnf_to_qubo`` and ``qubo.qubo_to_ising``
as they ran in Python, returning the models' fields.  ``qubo`` looks each
clause up in the 14-row gadget table ``_GADGETS``, of which ``_kernels.c``
holds a copy; both make the dict entries in the same order and raise the
same, with the same messages.  Its coefficients are small integers, which
``ising`` only halves and quarters, so neither rounds: the C versions add the
floats in this order and match these bit for bit, on hand-built models with
other floats too.  ``ising`` reads the QUBO as it stands; the C version
takes ``linear`` and ``quadratic`` as dicts, and their coefficients and the
offset as ints or floats (else a TypeError), and raises IndexError for an
index outside ``0 .. num_vars - 1``, where this one would index the list
``h`` with it.

``scale`` is ``qubo.scale_to_chip``'s rule as it ran in Python, after its
spin-budget check, on the model's fields.  It rounds: ``_round_away``
rounds half away from zero through ``math.floor`` and ``math.ceil``, whose
int results make every zero +0.0, and the C version rounds in doubles and
turns a -0.0 into +0.0, so the two match bit for bit.  A coefficient that
is not finite is a ValueError in both, checked before the scale is taken,
and so is a model whose largest magnitude is too small for the scale to be
finite: left to the rounding, either would raise a ValueError or, from an
infinite scale, an OverflowError, by the order in which a set holds the
values.
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
        if len(coefficients) < count:
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


def rank(nodes, v):
    """The rank of variable ``v`` in the ascending list ``nodes``, or -1 when
    ``nodes`` lacks it; a TypeError unless ``v`` is an integer."""
    v = operator.index(v)
    r = bisect_left(nodes, v)
    return r if r < len(nodes) and nodes[r] == v else -1


def row(table, i):
    """Row ``i`` of a flat table: ``table[0]`` offsets, then the items."""
    return table[table[i]:table[i + 1]]


def _rows(table):
    """The number of rows of a flat table; an empty one has none."""
    return table[0] - 1 if len(table) else 0


def _check_state(nodes, flags, values, true_count, clauses):
    """The checks ``freeze`` and ``merge`` share, in the C order."""
    n = len(nodes)
    if len(flags) != n:
        raise ValueError("the flag array must hold one byte per node")
    if len(values) != n:
        raise ValueError("the value array must hold one byte per node")
    if len(true_count) != _rows(clauses):
        raise ValueError("true_count must hold one count per clause")


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


def freeze(clauses, occurrences, nodes, selected, values, true_count, flags):
    """The kept clauses of a slice, in clause order, and how many of the
    visited clauses are unsatisfied (``true_count`` zero).

    ``clauses``, ``occurrences`` and ``nodes`` are the ``Vig``'s, the rest
    the ``GlobalState``'s; ``selected`` holds ranks.  Only the clauses of
    the selected ranks (their ``occurrences`` rows) are visited.  A true
    frozen literal drops its clause and a false one is removed; the selected
    literals are kept as they stand, as variables.
    """
    _check_state(nodes, flags, values, true_count, clauses)
    n = len(nodes)
    chosen: set[int] = set()
    for r in map(operator.index, selected):
        if not 0 <= r < n:
            raise IndexError("a selected rank is outside the nodes")
        chosen.add(r)
    visit: set[int] = set()
    for r in chosen:
        visit.update(row(occurrences, r))
    kept: list[tuple[int, ...]] = []
    keep = kept.append
    unsat = 0
    for ci in sorted(visit):
        if not true_count[ci]:
            unsat += 1
        lits: list[int] = []
        for lit in row(clauses, ci):
            r = lit >> 1
            if r in chosen:
                lits.append(-nodes[r] if lit & 1 else nodes[r])
            elif bool(values[r]) != lit & 1:
                break  # a true frozen literal satisfies the clause
        else:
            keep(tuple(lits))
    return kept, unsat


def merge(clauses, occurrences, nodes, spins, var_map, values, true_count,
          unsat_degree, pool, flags):
    """Merge a slice's spins into the incumbent unless it loses a clause;
    returns the gain, the change in the number of satisfied clauses.

    ``var_map`` maps each QUBO index to the variable whose spin ``spins``
    holds there (``QuboModel.source_var_map``); a spin above 0 is True.
    ``clauses``, ``occurrences`` and ``nodes`` are the ``Vig``'s, the rest
    the ``GlobalState``'s.  Only the clauses of the ranks whose value
    changes are read: their true-literal counts move by the literals that
    flip (make/break).  A gain of 0 or more (a plateau move included) is
    committed: ``values``, ``true_count``, ``unsat_degree`` and the
    ascending ``pool`` of ranks with a nonzero degree move together, the
    last two only for the clauses whose satisfied status flips.  A negative
    gain leaves them all as they were.
    """
    _check_state(nodes, flags, values, true_count, clauses)
    if len(unsat_degree) != len(nodes):
        raise ValueError("the degree array must hold one count per node")
    named: set[int] = set()
    flips: dict[int, bool] = {}  # rank -> its new value
    for idx, v in var_map.items():
        r = rank(nodes, v)
        if r < 0:
            raise IndexError("a variable of the map is not a node of the index")
        if r in named:
            raise ValueError("the map names a variable twice")
        named.add(r)
        value = operator.index(spins[idx]) > 0
        if bool(values[r]) != value:
            flips[r] = value
    delta: dict[int, int] = {}
    for r, value in flips.items():
        t = 2 * r + (not value)  # the literal of r that turns true
        for ci in row(occurrences, r):
            lits = row(clauses, ci)
            delta[ci] = delta.get(ci, 0) + lits.count(t) - lits.count(t ^ 1)
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
        for r in {lit >> 1 for lit in row(clauses, ci)}:
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
    """The QUBO of ``clauses``: (num_vars, linear, quadratic, offset,
    source_var_map), the fields of ``isingsat.qubo.QuboModel``.

    Every literal is checked first, in clause order: one that is not an int
    is a TypeError and a 0 a ValueError.  Then a clause wider than 3 is a
    ValueError.  ``linear`` and ``quadratic`` hold their keys in the order
    the clauses first touch them.
    """
    for clause in clauses:
        for lit in clause:
            if not isinstance(lit, int):
                raise TypeError(f"literal {lit!r} is not an int")
            if not lit:
                raise ValueError("literal 0 is not allowed inside a clause")
    occurring = sorted(set(map(abs, chain.from_iterable(clauses))))
    slot_of: dict[int, int] = {}  # either literal of a variable -> its index
    for i, v in enumerate(occurring):
        slot_of[v] = slot_of[-v] = i
    linear: dict[int, float] = {}
    quadratic: dict[tuple[int, int], float] = {}
    lin_get, quad_get = linear.get, quadratic.get
    offset = 0  # a sum of small integers, exact as an int
    next_ancilla = len(occurring)
    for clause in clauses:
        width = len(clause)
        if width == 3:
            a, b, c = clause
            constant, lin, quad = _TERMS[a > 0, b > 0, c > 0]
            slots = slot_of[a], slot_of[b], slot_of[c], next_ancilla
            next_ancilla += 1
        elif width == 2:
            a, b = clause
            constant, lin, quad = _TERMS[a > 0, b > 0]
            slots = slot_of[a], slot_of[b]
        elif width == 1:  # the 1-literal rows of _GADGETS: 1 - x, or x if negated
            a, = clause
            i = slot_of[a]
            if a > 0:
                offset += 1
                linear[i] = lin_get(i, 0.0) - 1
            else:
                linear[i] = lin_get(i, 0.0) + 1
            continue
        elif width == 0:
            offset += 1
            continue
        else:
            raise ValueError(f"clause width {max(map(len, clauses))} exceeds 3; "
                             "reduce the formula first")
        offset += constant
        for s, coeff in lin:
            i = slots[s]
            linear[i] = lin_get(i, 0.0) + coeff
        for s, t, coeff in quad:
            i, j = slots[s], slots[t]
            if i == j:  # a repeated variable folds in as x*x = x
                linear[i] = lin_get(i, 0.0) + coeff
            else:
                key = (i, j) if i < j else (j, i)
                quadratic[key] = quad_get(key, 0.0) + coeff
    # occurring variables + ancillas
    return next_ancilla, linear, quadratic, float(offset), dict(enumerate(occurring))


def ising(num_vars, linear, quadratic, offset):
    """The exact change of variables x_i = (1 + s_i)/2 of a QUBO's fields:
    (num_spins, j, h, offset), the fields of ``isingsat.qubo.IsingModel``.

    ``j`` holds ``quadratic``'s key tuples, in its order.  A negative
    ``num_vars`` is a ValueError.
    """
    if num_vars < 0:
        raise ValueError("num_vars must be non-negative")
    j = {}
    h = [0.0] * num_vars
    for i, a in linear.items():
        h[i] += a / 2.0
        offset += a / 2.0
    for key, b in quadratic.items():
        i, k = key
        j[key] = quarter = b / 4.0
        h[i] += quarter
        h[k] += quarter
        offset += quarter
    return num_vars, j, h, offset


def _round_away(v: float) -> int:
    return math.floor(v + 0.5) if v >= 0 else math.ceil(v - 0.5)


def scale(j, h, offset):
    """``qubo.scale_to_chip``'s rule on an Ising model's fields, or None
    when the chip holds every coefficient (``qubo.chip_misfit``).

    Otherwise every coefficient (and the offset) is scaled so the largest
    magnitude lands on ``COEFF_MAX``, then J/h are rounded to integers (ties
    away from zero) and clamped, each rule once per distinct value.  Returns
    (j, h, offset, max_rel_error): ``j`` holds ``j``'s key objects in its
    order.  A coefficient that is not finite is a ValueError, and so are
    coefficients too small for the scale to be finite.
    """
    values = {*j.values(), *h}
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
    return ({pair: fit[v] for pair, v in j.items()}, list(map(fit.__getitem__, h)),
            offset * scale, max_rel)
