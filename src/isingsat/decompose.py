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
indexed once per value per process: :func:`formula_index` builds the graph
(``build_vig`` records each variable's neighbours in the order each walk
pushes them, and the 3-literal clauses the projected spin cost counts, so a
walk sorts nothing) and lists the clauses of every variable, and an
``lru_cache`` of ``MEMO_ENTRIES`` entries keyed by the formula keeps both,
so every decomposition of an equal formula shares them read-only.
``GlobalState.start`` then counts, for its seed's assignment, the true
literals of each clause (the make/break bookkeeping of WalkSAT-style local
search) and, from the unsatisfied clauses, how many of them hold each
variable and which variables hold any: the pool a walk starts from.
An iteration then touches only the slice:

* picking a start variable reads the kept pool;
* freezing visits only the clauses of the selected variables; every other
  unsatisfied clause freezes empty, and only their count reaches the QUBO,
  as its offset; no formula is built for the slice;
* a merge moves the counts of only the clauses of the variables it flips,
  and commits them only when it is accepted; the pool moves only for the
  clauses whose satisfied status flips.

One full rescan at the end of the loop checks the final count.
"""
from __future__ import annotations

import random
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

from .cnf import MEMO_ENTRIES, Assignment, Cnf, count_satisfied, evaluate
from .preprocess import ConditionRecord, reconstruct
from .qubo import QuboModel, cnf_to_qubo, qubo_to_ising, scale_to_chip
from .solver import solve

STRATEGIES = ("bfs", "dfs")


@dataclass(frozen=True)
class Vig:
    """Variable interaction graph plus the per-formula index the walks read.

    ``adjacency[v]`` lists the neighbours of ``v`` in ascending order, the
    order a breadth-first walk pushes them; ``dfs_order[v]`` lists them by
    descending degree, ties by descending variable, the order a depth-first
    walk pushes them, so the lowest-degree neighbour pops next.  ``nodes``
    lists the variables in order.  A 3-literal clause costs an ancilla spin
    once all of its distinct variables are selected, whether it has three of
    them or repeats one, as in ``(v, v, u)`` or ``(v, -v, u)``.
    ``triangles[v]`` has one entry per such clause containing ``v``: its
    other two distinct variables, with ``v`` standing in for any it lacks,
    so the entry holds once ``v`` itself is selected.
    """

    adjacency: dict[int, tuple[int, ...]]
    dfs_order: dict[int, tuple[int, ...]]
    nodes: list[int]
    triangles: dict[int, tuple[tuple[int, int], ...]]


def build_vig(cnf: Cnf) -> Vig:
    """Connect every pair of variables sharing a clause; no self-loops."""
    nbrs: dict[int, set[int]] = {}
    triangles: dict[int, list[tuple[int, int]]] = {}
    for clause in cnf.clauses:
        vs = sorted({abs(lit) for lit in clause})
        for v in vs:
            nbrs.setdefault(v, set()).update(vs)
        if len(clause) == 3 and len(vs) == 3:
            a, b, c = vs
            triangles.setdefault(a, []).append((b, c))
            triangles.setdefault(b, []).append((a, c))
            triangles.setdefault(c, []).append((a, b))
        elif len(clause) == 3:
            for v in vs:  # u is the other variable, or v again in (v, v, v)
                u = vs[0] + vs[-1] - v
                triangles.setdefault(v, []).append((u, v))
    for v, ns in nbrs.items():
        ns.discard(v)
    adjacency = {v: tuple(sorted(ns)) for v, ns in nbrs.items()}
    dfs_order = {v: tuple(sorted(ns, key=lambda u: (-len(nbrs[u]), -u)))
                 for v, ns in nbrs.items()}
    return Vig(adjacency, dfs_order, sorted(nbrs),
               {v: tuple(ts) for v, ts in triangles.items()})


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
    ``unsat`` the clauses at zero; ``best_count``, the satisfied total, is
    read from those two.
    ``unsat_degree[v]`` counts the unsatisfied clauses that contain ``v``,
    for each variable the formula holds (not each it declares), and ``pool``
    lists, ascending, the variables whose count is nonzero: the variables a
    walk may start from.  ``occurrences[v]`` lists the clauses containing
    ``v`` in clause order.  ``update_global`` keeps all of it in step with
    ``assignment``, touching the pool only for the clauses whose satisfied
    status flips.
    """

    assignment: Assignment
    true_count: list[int]
    unsat: set[int]
    unsat_degree: dict[int, int]
    pool: list[int]
    occurrences: Mapping[int, tuple[int, ...]]

    @property
    def best_count(self) -> int:
        return len(self.true_count) - len(self.unsat)

    @classmethod
    def start(cls, cnf: Cnf, assignment: Assignment,
              occurrences: Mapping[int, tuple[int, ...]]) -> GlobalState:
        """Count the true literals of ``cnf``, whose occurrence lists
        :func:`formula_index` gives, under ``assignment``; the state takes
        ownership of ``assignment`` and sets each formula variable it lacks
        to False."""
        for v in occurrences:
            assignment.setdefault(v, False)
        true_lits = {v if val else -v for v, val in assignment.items()}
        # a repeated literal counts once per occurrence
        true_count = [sum(map(true_lits.__contains__, c)) for c in cnf.clauses]
        unsat = {ci for ci, n in enumerate(true_count) if n == 0}
        degree = dict.fromkeys(occurrences, 0)
        for ci in unsat:
            for v in set(map(abs, cnf.clauses[ci])):
                degree[v] += 1
        return cls(assignment, true_count, unsat, degree,
                   sorted(v for v, n in degree.items() if n), occurrences)


@lru_cache(maxsize=MEMO_ENTRIES)
def formula_index(cnf: Cnf) -> tuple[Vig, Mapping[int, tuple[int, ...]]]:
    """The interaction graph of ``cnf`` and, per variable, the clauses that
    contain it in clause order: built once per formula value, then shared
    read-only by every decomposition of an equal formula."""
    occurrences: dict[int, list[int]] = {}
    for ci, clause in enumerate(cnf.clauses):
        for v in {abs(lit) for lit in clause}:
            occurrences.setdefault(v, []).append(ci)
    return build_vig(cnf), MappingProxyType(
        {v: tuple(cs) for v, cs in occurrences.items()})


@dataclass(frozen=True)
class Subproblem:
    """One frozen slice: the QUBO of its kept clause list and its spin count."""

    qubo: QuboModel
    spin_cost: int


def _walk_select(vig: Vig, budget: int, start: int,
                 filt: FilterState, depth_first: bool) -> set[int]:
    # ``seen`` holds the queued and the selected vars, so each is pushed once;
    # no cooldown ticks during a walk, so the cooling vars are read once
    cooling = {v for v, left in filt.cooldown.items() if left > 0}
    selected: set[int] = set()
    seen = {start}
    ancillas = 0  # one per 3-literal clause whose variables are all selected
    active: deque[int] = deque()
    parked: deque[int] = deque()  # cooling vars wait here until nothing else is left
    (parked if start in cooling else active).append(start)
    pushes = vig.dfs_order if depth_first else vig.adjacency
    pending = vig.nodes
    pend_pos = 0
    while True:
        if active:
            v = active.popleft() if not depth_first else active.pop()
        elif parked:
            v = parked.popleft() if not depth_first else parked.pop()
        else:
            # component exhausted with budget to spare: restart at the lowest
            # untouched variable so a big enough budget selects everything
            while pend_pos < len(pending) and pending[pend_pos] in seen:
                pend_pos += 1
            if pend_pos == len(pending):
                break
            v = pending[pend_pos]
            seen.add(v)
            (parked if v in cooling else active).append(v)
            continue
        selected.add(v)
        extra = sum(1 for a, b in vig.triangles.get(v, ())
                    if a in selected and b in selected)
        if len(selected) + ancillas + extra > budget:
            selected.discard(v)
            break
        ancillas += extra
        for u in pushes[v]:
            if u not in seen:
                seen.add(u)
                (parked if u in cooling else active).append(u)
    return selected


def select_bfs(vig: Vig, budget: int, start: int,
               filt: FilterState) -> set[int]:
    """Breadth-first ball around ``start`` that fits the spin budget."""
    return _walk_select(vig, budget, start, filt, depth_first=False)


def select_dfs(vig: Vig, budget: int, start: int,
               filt: FilterState) -> set[int]:
    """Depth-first chain from ``start``, preferring low-degree neighbors."""
    return _walk_select(vig, budget, start, filt, depth_first=True)


def freeze_and_extract(cnf: Cnf, selected: set[int],
                       state: GlobalState) -> Subproblem:
    """Substitute best-known values for everything outside the selection.

    A true frozen literal satisfies its clause (dropped); a false one is
    removed.  Kept clauses are NOT simplified
    further — conflicting units and duplicates stay, and a clause emptied by
    freezing becomes a constant +1 in the QUBO offset.

    Only the clauses touching the selection are visited: every other
    clause has only frozen literals, so a satisfied one is dropped and an
    unsatisfied one freezes empty.  Those are counted, not walked, and the
    count is added to the offset of the QUBO of the kept clauses, which go
    to ``cnf_to_qubo`` as a plain list: no formula is built or validated
    per slice.  The spin cost adds the QUBO's ancillas.
    """
    if not selected:
        raise ValueError("selection is empty")
    visit: set[int] = set()
    for v in selected:
        visit.update(state.occurrences.get(v, ()))
    assignment = state.assignment
    kept: list[tuple[int, ...]] = []
    for ci in sorted(visit):
        lits: list[int] = []
        for lit in cnf.clauses[ci]:
            v = abs(lit)
            if v in selected:
                lits.append(lit)
            elif (lit > 0) == assignment[v]:
                break
        else:
            kept.append(tuple(lits))
    qubo = cnf_to_qubo(kept)
    # each emptied clause is a constant +1; the sums are small integers, so
    # the float offset is exact in any order
    qubo.offset += len(state.unsat) - len(state.unsat & visit)
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
    old, count = state.assignment, state.true_count
    delta: dict[int, int] = {}
    for v, val in sub_solution.items():
        if old.get(v) == val:
            continue
        t = v if val else -v  # the literal of v that turns true
        for ci in state.occurrences.get(v, ()):
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
            (state.unsat.add if step > 0 else state.unsat.discard)(ci)
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
    assignment: Assignment | None
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
        return DecompositionRun(False, 0, 0, 0, m, None, reason="unsat-marker")
    width = cnf.max_clause_width()
    if width > 3:
        raise ValueError(f"clause width {width} exceeds 3: the decomposition "
                         "slices only 3-CNF")

    rng = random.Random(seed)
    vig, occurrences = formula_index(cnf)
    assignment: Assignment = {v: bool(rng.getrandbits(1)) for v in vig.nodes}
    state = GlobalState.start(cnf, assignment, occurrences)
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
        selected = select(vig, budget, start, filt)
        if not selected:
            reason = "budget-too-small"
            break
        sub = freeze_and_extract(cnf, selected, state)
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
                                state.best_count, m, None, reason=reason,
                                trace=first_trace)
    full = reconstruct(condition, state.assignment, original.occurring_vars())
    if not evaluate(original, full):
        raise RuntimeError("solved subproblem failed verification on the input CNF")
    return DecompositionRun(True, iterations, solver_calls,
                            state.best_count, m, full, reason="solved",
                            trace=first_trace)
