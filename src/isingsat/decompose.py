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
indexed once: ``build_vig`` records, next to the adjacency, the 3-literal
clauses the projected spin cost counts, and ``GlobalState.start`` lists the
clauses of every variable and keeps a true-literal count per clause (the
make/break bookkeeping of WalkSAT-style local search).  The unsatisfied set
falls out of those counts, so picking a start variable reads only the
unsatisfied clauses; freezing visits only the clauses touching the selection
plus the unsatisfied ones; and a merge moves the counts of only the clauses
of the variables it flips, committing them only when it is accepted.
One full rescan at the end of the loop checks the final count.
"""
from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field

from .cnf import Assignment, Cnf, count_satisfied, evaluate
from .preprocess import ConditionList, reconstruct
from .qubo import QuboModel, cnf_to_qubo, qubo_to_ising, scale_to_chip
from .solver import solve

__all__ = [
    "STRATEGIES",
    "Vig",
    "Subproblem",
    "FilterState",
    "GlobalState",
    "DecompositionRun",
    "build_vig",
    "select_bfs",
    "select_dfs",
    "freeze_and_extract",
    "update_global",
    "iterate",
]

STRATEGIES = ("bfs", "dfs")


@dataclass(frozen=True)
class Vig:
    """Variable interaction graph plus the per-formula index the walks read.

    ``adjacency`` is sorted for deterministic walks and ``nodes`` lists its
    keys in order.  A 3-literal clause costs an ancilla spin once all of its
    distinct variables are selected, whether it has three of them or repeats
    one, as in ``(v, v, u)`` or ``(v, -v, u)``.  ``triangles[v]`` has one
    entry per such clause containing ``v``: its other two distinct
    variables, with ``v`` standing in for any it lacks, so the entry holds
    once ``v`` itself is selected.
    """

    adjacency: dict[int, tuple[int, ...]]
    nodes: list[int]
    triangles: dict[int, tuple[tuple[int, int], ...]]

    def degree(self, var: int) -> int:
        return len(self.adjacency.get(var, ()))

    def neighbors(self, var: int) -> tuple[int, ...]:
        return self.adjacency.get(var, ())


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
    return Vig({v: tuple(sorted(ns)) for v, ns in nbrs.items()}, sorted(nbrs),
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

    def is_cooling(self, var: int) -> bool:
        return self.cooldown.get(var, 0) > 0

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

    ``true_count[c]`` is the number of true literals in clause ``c``,
    ``unsat`` the clauses at zero and ``best_count`` the satisfied total.
    ``occurrences[v]`` lists the clauses containing ``v`` in clause order.
    ``update_global`` keeps all of it in step with ``assignment``.
    """

    assignment: Assignment
    best_count: int
    true_count: list[int]
    unsat: set[int]
    occurrences: dict[int, tuple[int, ...]]

    @classmethod
    def start(cls, cnf: Cnf, assignment: Assignment) -> GlobalState:
        """Index ``cnf`` once and count its true literals under ``assignment``,
        which takes ownership of ``assignment`` and sets each formula variable
        it lacks to False."""
        occurrences: dict[int, list[int]] = {}
        for ci, clause in enumerate(cnf.clauses):
            for v in {abs(lit) for lit in clause}:
                occurrences.setdefault(v, []).append(ci)
        for v in occurrences:
            assignment.setdefault(v, False)
        true_count = [sum(1 for lit in c if (lit > 0) == assignment[abs(lit)])
                      for c in cnf.clauses]
        unsat = {ci for ci, n in enumerate(true_count) if n == 0}
        return cls(assignment, cnf.num_clauses - len(unsat), true_count, unsat,
                   {v: tuple(cs) for v, cs in occurrences.items()})


@dataclass(frozen=True)
class Subproblem:
    """One frozen slice: the QUBO of its kept clauses and its spin count."""

    qubo: QuboModel
    spin_cost: int


def _walk_select(vig: Vig, budget: int, start: int,
                 filt: FilterState, depth_first: bool) -> set[int]:
    selected: set[int] = set()
    ancillas = 0  # one per 3-literal clause whose variables are all selected
    active: deque[int] = deque()
    parked: deque[int] = deque()  # cooling vars wait here until nothing else is left
    queued: set[int] = set()

    def push(v: int) -> None:
        if v in queued or v in selected:
            return
        queued.add(v)
        (parked if filt.is_cooling(v) else active).append(v)

    push(start)
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
            while pend_pos < len(pending) and (
                    pending[pend_pos] in queued or pending[pend_pos] in selected):
                pend_pos += 1
            if pend_pos == len(pending):
                break
            push(pending[pend_pos])
            continue
        queued.discard(v)
        selected.add(v)
        extra = sum(1 for a, b in vig.triangles.get(v, ())
                    if a in selected and b in selected)
        if len(selected) + ancillas + extra > budget:
            selected.discard(v)
            break
        ancillas += extra
        nbrs = vig.neighbors(v)
        if depth_first:
            # stack: push high-degree first so the lowest-degree neighbor pops
            # next and the walk extends along chains
            for u in sorted(nbrs, key=lambda u: (-vig.degree(u), -u)):
                push(u)
        else:
            for u in nbrs:
                push(u)
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

    Only the clauses touching the selection and the unsatisfied ones are
    visited: every other clause has a true frozen literal and is dropped.
    """
    if not selected:
        raise ValueError("selection is empty")
    visit = set(state.unsat)
    for v in selected:
        visit.update(state.occurrences.get(v, ()))
    kept: list[tuple[int, ...]] = []
    for ci in sorted(visit):
        lits: list[int] = []
        for lit in cnf.clauses[ci]:
            v = abs(lit)
            if v in selected:
                lits.append(lit)
            elif (lit > 0) == state.assignment[v]:
                break
        else:
            kept.append(tuple(lits))
    qubo = cnf_to_qubo(Cnf(num_vars=cnf.num_vars, clauses=tuple(kept)))
    return Subproblem(qubo, len(selected) + sum(1 for c in kept if len(c) == 3))


def update_global(state: GlobalState, sub_solution: Assignment,
                  cnf: Cnf) -> bool:
    """Merge a subproblem solution if the full satisfied count does not drop.

    Equal counts are accepted (plateau moves).  Returns True when merged.
    Only the clauses of the variables that flip are touched: their
    true-literal counts move by the flipped literals (make/break).
    """
    old, count = state.assignment, state.true_count
    delta: dict[int, int] = {}
    for v, val in sub_solution.items():
        if old.get(v) == val:
            continue
        for ci in state.occurrences.get(v, ()):
            # each literal of v in the clause turns true (+1) or false (-1)
            delta[ci] = delta.get(ci, 0) + sum(
                1 if (lit > 0) == val else -1 for lit in cnf.clauses[ci] if abs(lit) == v)
    gain = sum((count[ci] + d > 0) - (count[ci] > 0) for ci, d in delta.items())
    accepted = gain >= 0
    if accepted:
        old.update(sub_solution)
        state.best_count += gain
        for ci, d in delta.items():
            count[ci] += d
            if count[ci]:
                state.unsat.discard(ci)
            else:
                state.unsat.add(ci)
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


def iterate(cnf: Cnf, condition: ConditionList, original: Cnf, *,
            strategy: str, backend: str, budget: int, cap: int, seed: int,
            num_samples: int, collect_trace: bool = False) -> DecompositionRun:
    """Select → freeze → solve → merge until every clause holds or the cap hits.

    ``cnf`` is the (possibly preprocessed) formula to decompose; ``condition``
    and ``original`` lift and check the final assignment, so every success is
    verified against the untouched input (a failed check raises).  A formula
    carrying the empty-clause marker can never be fully satisfied and fails
    immediately.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    m = cnf.num_clauses

    if cnf.is_unsat_marked():
        return DecompositionRun(False, 0, 0, 0, m, None, reason="unsat-marker")

    rng = random.Random(seed)
    occurring = cnf.occurring_vars()
    assignment: Assignment = {v: bool(rng.getrandbits(1)) for v in occurring}
    state = GlobalState.start(cnf, assignment)
    filt = FilterState()
    vig = build_vig(cnf)
    select = select_dfs if strategy == "dfs" else select_bfs

    iterations = 0
    solver_calls = 0
    first_trace: tuple[tuple[int, float, float], ...] = ()
    reason = "cap"
    while state.best_count < m and iterations < cap:
        iterations += 1
        unsat_vars = sorted({abs(lit) for ci in state.unsat for lit in cnf.clauses[ci]})
        pool = unsat_vars or occurring
        start = pool[rng.randrange(len(pool))]
        selected = select(vig, budget, start, filt)
        if not selected:
            reason = "budget-too-small"
            break
        sub = freeze_and_extract(cnf, selected, state)
        if sub.spin_cost > budget:
            raise RuntimeError(
                f"selection produced spin cost {sub.spin_cost} > {budget}")
        if sub.qubo.num_vars == 0:
            sub_solution: Assignment = {}
        else:
            model = qubo_to_ising(sub.qubo)
            if backend == "emulator":  # tabu solves the unscaled model
                model, _distortion = scale_to_chip(model)
            result = solve(model, backend=backend, seed=rng.getrandbits(63),
                           num_samples=num_samples,
                           collect_trace=collect_trace and solver_calls == 0)
            if solver_calls == 0 and collect_trace:
                first_trace = result.trace
            solver_calls += 1
            sub_solution = _decode(sub.qubo, result.best_spins)
        update_global(state, sub_solution, cnf)
        filt.note_selection(selected)

    if count_satisfied(cnf.clauses, state.assignment) != state.best_count:
        raise RuntimeError("incremental satisfied count drifted from a full rescan")
    if state.best_count < m:
        return DecompositionRun(False, iterations, solver_calls,
                                state.best_count, m, None, reason=reason,
                                trace=first_trace)
    full = reconstruct(condition, state.assignment, original.num_vars)
    if not evaluate(original, full):
        raise RuntimeError("solved subproblem failed verification on the input CNF")
    return DecompositionRun(True, iterations, solver_calls,
                            state.best_count, m, full, reason="solved",
                            trace=first_trace)
