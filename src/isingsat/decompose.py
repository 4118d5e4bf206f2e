"""Spin-budgeted decomposition: carve a CNF into chip-sized MaxSAT subproblems.

The variable interaction graph (variables as nodes, co-occurrence as edges)
is walked breadth- or depth-first from a randomized start until the projected
spin cost — selected variables plus one ancilla per 3-literal clause whose
variables are all selected — would exceed the budget.  Everything outside
the selection is frozen to its best-known value; freezing may shorten or
satisfy clauses but never triggers further simplification, so conflicting
residues like (b)(~b) survive verbatim and the subproblem becomes MaxSAT.
A solved subproblem is merged back only if the full-formula satisfied count
does not drop (plateau moves are allowed; they escape conflicting-unit
stalemates that strict improvement cannot).

A repetition filter keeps the walk from orbiting one region: any variable
selected ``FILTER_WINDOW`` times in a row sits out (pushed behind every
other candidate) for the next ``FILTER_WINDOW`` iterations.

Per-iteration work scales with the slice, not the formula.  Each formula is
indexed once per value per process: :func:`build_vig`, an ``lru_cache`` of
``MEMO_ENTRIES`` entries keyed by the formula, records in one pass over the
clauses each variable's neighbours in the order each walk pushes them, the
3-literal clauses the projected spin cost counts (so a walk sorts nothing),
the clauses of every variable and the literals of every clause, as flat int
arrays over dense variable ranks, and every decomposition of an equal
formula shares that index read-only.
``GlobalState.start`` then counts, for its seed's assignment, the true
literals of each clause (the make/break bookkeeping of WalkSAT-style local
search) and, from the unsatisfied clauses, how many of them hold each
variable and which variables hold any: the pool a walk starts from.
An iteration then touches only the slice:

* picking a start variable reads the kept pool;
* freezing visits only the clauses of the selected variables, in clause
  order, by a merge of their occurrence lists; every other unsatisfied
  clause freezes empty, and only their count reaches the QUBO, as its
  offset; no formula is built for the slice;
* a merge moves the counts of only the clauses of the variables it flips,
  and commits them only when it is accepted; the pool moves only for the
  clauses whose satisfied status flips.

One full rescan at the end of the loop checks the final count.

The walk and the clause loop of the freeze run in the compiled module, as
``solver.kernels.walk`` and ``freeze``, which read the index and the state
as they stand here; without a C compiler their pure-Python oracle runs,
with the same results.  :func:`select_bfs`, :func:`select_dfs` and
:func:`freeze_and_extract` stay here and look them up at call time.
"""
from __future__ import annotations

import random
from array import array
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate, chain

from .cnf import MEMO_ENTRIES, Assignment, Cnf, count_satisfied, evaluate
from .preprocess import ConditionRecord, reconstruct
from .qubo import QuboModel, cnf_to_qubo, qubo_to_ising, scale_to_chip
from .solver import solve
from .solver._kernels_py import rank, row
from .solver.kernels import freeze, walk

STRATEGIES = ("bfs", "dfs")


def _table(rows: list[list[int]]) -> array:
    """``rows`` flat in one ``array('i')`` ``t``: ``t[0]`` offsets, then the
    items, so row ``i`` is ``t[t[i]:t[i + 1]]`` (:func:`row` reads it)."""
    offsets = accumulate(map(len, rows), initial=len(rows) + 1)
    return array("i", chain(offsets, chain.from_iterable(rows)))


@dataclass(frozen=True)
class Vig:
    """Variable interaction graph plus the per-formula index the walks and
    the clause bookkeeping read; one is shared by every decomposition of an
    equal formula (:func:`build_vig`), so nothing may change it.

    ``nodes`` lists the variables the formula holds, ascending; ``r`` is
    the rank of ``nodes[r]`` (:func:`rank`).  Each table (:func:`_table`)
    has a row per rank, or per clause, and holds ranks, not variables, so
    none is sized by a variable number.  Row ``r`` of ``bfs`` lists the
    neighbours of ``nodes[r]`` in ascending order, the order a breadth-first
    walk pushes them; row ``r`` of ``dfs`` lists them by descending degree,
    ties by descending variable, the order a depth-first walk pushes them,
    so the lowest-degree neighbour pops next.  A 3-literal clause costs an
    ancilla spin once all of its distinct variables are selected, whether it
    has three of them or repeats one, as in ``(v, v, u)`` or ``(v, -v, u)``.
    Row ``r`` of ``triangles`` holds one flattened pair per such clause
    containing ``nodes[r]``: its other two distinct variables, ``r`` for any
    it lacks.  Row ``r`` of ``occurrences`` lists the clauses containing
    ``nodes[r]`` in clause order; row ``c`` of ``clauses`` the literals of
    clause ``c``, ``2 * r`` for ``nodes[r]`` and ``2 * r + 1`` for ``-nodes[r]``.
    """

    nodes: list[int]
    bfs: array
    dfs: array
    triangles: array
    occurrences: array
    clauses: array


@lru_cache(maxsize=MEMO_ENTRIES)
def build_vig(cnf: Cnf) -> Vig:
    """Connect every pair of variables sharing a clause, with no self-loops,
    and list each variable's clauses: built once per formula value."""
    nodes = sorted({abs(lit) for clause in cnf.clauses for lit in clause})
    ranks = {v: r for r, v in enumerate(nodes)}  # for this build only
    nbrs: list[set[int]] = [set() for _ in nodes]
    triangles: list[list[int]] = [[] for _ in nodes]
    occurrences: list[list[int]] = [[] for _ in nodes]
    clauses = []
    for ci, clause in enumerate(cnf.clauses):
        lits = [2 * ranks[abs(lit)] + (lit < 0) for lit in clause]
        clauses.append(lits)
        rs = sorted({lit >> 1 for lit in lits})
        for r in rs:
            nbrs[r].update(rs)
            occurrences[r].append(ci)
        if len(lits) == 3:  # the other two ranks, r for any missing
            for r in rs:
                triangles[r].extend(([u for u in rs if u != r] + [r, r])[:2])
    bfs = [sorted(ns - {r}) for r, ns in enumerate(nbrs)]
    degree = list(map(len, bfs))
    # ranks ascend with the variables, so -u breaks ties as -variable would
    dfs = [sorted(ns, key=lambda u: (-degree[u], -u)) for ns in bfs]
    return Vig(nodes, _table(bfs), _table(dfs), _table(triangles), _table(occurrences),
               _table(clauses))


FILTER_WINDOW = 5


@dataclass
class FilterState:
    """Tracks consecutive selections; over-used variables cool down.

    A variable selected ``FILTER_WINDOW`` iterations in a row is excluded
    from selection for the next ``FILTER_WINDOW`` iterations unless nothing
    else is reachable.
    """

    consecutive: dict[int, int] = field(default_factory=dict)
    cooldown: dict[int, int] = field(default_factory=dict)

    def note_selection(self, selected: set[int]) -> None:
        """Advance one iteration: tick cooldowns, bump/reset streak counters."""
        for v in list(self.cooldown):
            self.cooldown[v] -= 1
            if self.cooldown[v] <= 0:
                del self.cooldown[v]
        for v in list(self.consecutive):
            if v not in selected:
                del self.consecutive[v]
        for v in selected:
            streak = self.consecutive.get(v, 0) + 1
            if streak >= FILTER_WINDOW:
                self.cooldown[v] = FILTER_WINDOW
                self.consecutive.pop(v, None)
            else:
                self.consecutive[v] = streak


@dataclass
class GlobalState:
    """Best-known full assignment with its satisfied-clause bookkeeping.

    ``true_count[c]`` is the number of true literals in clause ``c`` and
    ``unsat`` the number of clauses at zero; ``best_count``, the satisfied
    total, is read from those two.
    ``unsat_degree[v]`` counts the unsatisfied clauses that contain ``v``,
    for each variable the formula holds (not each it declares), and ``pool``
    lists, ascending, the variables whose count is nonzero: the variables a
    walk may start from.  ``update_global`` keeps all of it in step with
    ``assignment``, touching the pool only for the clauses whose satisfied
    status flips.  ``vig`` is the formula's index and ``flags``, a zero byte
    per node, the kernels' scratch, which they clear before they return.
    """

    assignment: Assignment
    true_count: list[int]
    unsat: int
    unsat_degree: dict[int, int]
    pool: list[int]
    vig: Vig
    flags: bytearray

    @property
    def best_count(self) -> int:
        return len(self.true_count) - self.unsat

    @classmethod
    def start(cls, cnf: Cnf, assignment: Assignment, vig: Vig) -> GlobalState:
        """Count the true literals of ``cnf``, whose index is ``vig``, under
        ``assignment``; the state takes ownership of ``assignment`` and sets
        each formula variable it lacks to False."""
        for v in vig.nodes:
            assignment.setdefault(v, False)
        true_lits = {v if val else -v for v, val in assignment.items()}
        # a repeated literal counts once per occurrence
        true_count = [sum(map(true_lits.__contains__, c)) for c in cnf.clauses]
        unsat = [c for c, n in zip(cnf.clauses, true_count) if n == 0]
        degree = dict.fromkeys(vig.nodes, 0)
        for clause in unsat:
            for v in set(map(abs, clause)):
                degree[v] += 1
        return cls(assignment, true_count, len(unsat), degree,
                   sorted(v for v, n in degree.items() if n), vig,
                   bytearray(len(vig.nodes)))


@dataclass(frozen=True)
class Subproblem:
    """One frozen slice: the QUBO of its kept clause list and its spin count."""

    qubo: QuboModel
    spin_cost: int


def select_bfs(vig: Vig, budget: int, start: int, filt: FilterState,
               flags: bytearray) -> set[int]:
    """Breadth-first ball around ``start`` that fits the spin budget."""
    return walk(vig.bfs, vig.triangles, vig.nodes, filt.cooldown, flags,
                budget, start, False)


def select_dfs(vig: Vig, budget: int, start: int, filt: FilterState,
               flags: bytearray) -> set[int]:
    """Depth-first chain from ``start``, preferring low-degree neighbors."""
    return walk(vig.dfs, vig.triangles, vig.nodes, filt.cooldown, flags,
                budget, start, True)


def freeze_and_extract(selected: set[int], state: GlobalState) -> Subproblem:
    """Substitute best-known values for everything outside the selection.

    A true frozen literal satisfies its clause (dropped); a false one is
    removed.  Kept clauses are NOT simplified
    further — conflicting units and duplicates stay, and a clause emptied by
    freezing becomes a constant +1 in the QUBO offset.

    Only the clauses touching the selection are visited, by the kernel
    ``freeze``: every other clause has only frozen literals, so a satisfied
    one is dropped and an unsatisfied one freezes empty.  Those are counted,
    not walked (the unsatisfied clauses less the visited ones), and the
    count is added to the offset of the QUBO of the kept clauses, which go
    to ``cnf_to_qubo`` as a plain list: no formula is built or validated
    per slice.  The spin cost adds the QUBO's ancillas.
    """
    if not selected:
        raise ValueError("selection is empty")
    vig = state.vig
    kept, visited_unsat = freeze(vig.clauses, vig.occurrences, vig.nodes, selected,
                                 state.assignment, state.true_count, state.flags)
    qubo = cnf_to_qubo(kept)
    # each emptied clause is a constant +1; the sums are small integers, so
    # the float offset is exact in any order
    qubo.offset += state.unsat - visited_unsat
    return Subproblem(qubo, len(selected) + qubo.num_vars - len(qubo.source_var_map))


def update_global(state: GlobalState, sub_solution: Assignment,
                  cnf: Cnf) -> bool:
    """Merge a subproblem solution if the full satisfied count does not drop.

    Equal counts are accepted (plateau moves).  Returns True when merged.
    Only the clauses of the variables that flip are touched: their
    true-literal counts move by the flipped literals (make/break), and a
    clause whose satisfied status flips moves its variables' unsatisfied
    counts and, where one leaves or reaches zero, the start pool.
    """
    old, count, vig = state.assignment, state.true_count, state.vig
    delta: dict[int, int] = {}
    for v, val in sub_solution.items():
        if old.get(v) == val or (r := rank(vig.nodes, v)) < 0:
            continue  # unchanged, or in no clause
        t = v if val else -v  # the literal of v that turns true
        for ci in row(vig.occurrences, r):
            clause = cnf.clauses[ci]
            delta[ci] = delta.get(ci, 0) + clause.count(t) - clause.count(-t)
    gain = sum((count[ci] + d > 0) - (count[ci] > 0) for ci, d in delta.items())
    accepted = gain >= 0
    if accepted:
        old.update(sub_solution)
        degree, pool = state.unsat_degree, state.pool
        for ci, d in delta.items():
            was = count[ci]
            count[ci] = was + d
            if (was > 0) == (was + d > 0):
                continue
            step = -1 if was == 0 else 1  # now satisfied / now unsatisfied
            state.unsat += step
            for v in set(map(abs, cnf.clauses[ci])):
                degree[v] += step
                if step > 0 and degree[v] == 1:
                    insort(pool, v)
                elif degree[v] == 0:
                    del pool[bisect_left(pool, v)]
    return accepted


@dataclass(frozen=True)
class DecompositionRun:
    """Outcome of one decomposition loop on one preprocessed instance."""

    solved: bool
    iterations_used: int
    solver_calls: int
    best_satisfied: int
    num_clauses: int
    reason: str
    trace: tuple[tuple[int, float, float], ...] = ()


def _decode(qubo: QuboModel, spins: tuple[int, ...]) -> Assignment:
    return {var: spins[idx] > 0 for idx, var in qubo.source_var_map.items()}


def iterate(cnf: Cnf, condition: tuple[ConditionRecord, ...], original: Cnf, *,
            strategy: str, backend: str, budget: int, cap: int, seed: int,
            num_samples: int, collect_trace: bool) -> DecompositionRun:
    """Select → freeze → solve → merge until every clause holds or the cap hits.

    ``cnf`` is the (possibly preprocessed) formula to decompose; ``condition``
    and ``original`` lift and check the final assignment, so every success is
    verified against the untouched input (a failed check raises).  A formula
    carrying the empty-clause marker can never be fully satisfied and fails
    immediately; one with a clause wider than 3 raises ``ValueError``, since
    a slice's spin cost counts ancillas for 3-literal clauses only.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    m = cnf.num_clauses

    if cnf.is_unsat_marked():
        return DecompositionRun(False, 0, 0, 0, m, reason="unsat-marker")
    width = cnf.max_clause_width()
    if width > 3:
        raise ValueError(f"clause width {width} exceeds 3: the decomposition "
                         "slices only 3-CNF")

    rng = random.Random(seed)
    vig = build_vig(cnf)
    assignment: Assignment = {v: bool(rng.getrandbits(1)) for v in vig.nodes}
    state = GlobalState.start(cnf, assignment, vig)
    filt = FilterState()
    select = select_dfs if strategy == "dfs" else select_bfs

    iterations = 0
    solver_calls = 0
    first_trace: tuple[tuple[int, float, float], ...] = ()
    reason = "cap"
    while state.best_count < m and iterations < cap:
        iterations += 1
        pool = state.pool  # non-empty: no unsatisfied clause is empty
        start = pool[rng.randrange(len(pool))]
        selected = select(vig, budget, start, filt, state.flags)
        if not selected:
            reason = "budget-too-small"
            break
        sub = freeze_and_extract(selected, state)
        if sub.spin_cost > budget:
            raise RuntimeError(
                f"selection produced spin cost {sub.spin_cost} > {budget}")
        # the start's clause has only false literals, so the slice keeps it
        # and has at least one variable
        model = qubo_to_ising(sub.qubo)
        if backend == "emulator":  # tabu solves the unscaled model
            model, _distortion = scale_to_chip(model)
        result = solve(model, backend=backend, seed=rng.getrandbits(63),
                       num_samples=num_samples,
                       collect_trace=collect_trace and solver_calls == 0)
        if solver_calls == 0 and collect_trace:
            first_trace = result.trace
        solver_calls += 1
        update_global(state, _decode(sub.qubo, result.best_spins), cnf)
        filt.note_selection(selected)

    if count_satisfied(cnf.clauses, state.assignment) != state.best_count:
        raise RuntimeError("incremental satisfied count drifted from a full rescan")
    if state.best_count < m:
        return DecompositionRun(False, iterations, solver_calls,
                                state.best_count, m, reason=reason,
                                trace=first_trace)
    full = reconstruct(condition, state.assignment, original.occurring_vars())
    if not evaluate(original, full):
        raise RuntimeError("solved subproblem failed verification on the input CNF")
    return DecompositionRun(True, iterations, solver_calls,
                            state.best_count, m, reason="solved",
                            trace=first_trace)
