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
A repeat's state is flat too: ``GlobalState`` holds the incumbent as a
byte per rank, and ``GlobalState.start`` counts, for its seed's values, the
true literals of each clause (the make/break bookkeeping of WalkSAT-style
local search) and, from the unsatisfied clauses, how many of them hold each
rank and which ranks hold any: the pool a walk starts from, ascending, so
it picks the variables it would pick by number.  No dict of the assignment
exists while the loop runs.  An iteration then touches only the slice:

* picking a start rank reads the kept pool;
* the walk selects ranks, and the repetition filter keys by rank;
* freezing visits only the clauses of the selected ranks, in clause
  order, by a merge of their occurrence lists, and hands the kept clauses
  to the QUBO as literal codes; every other unsatisfied clause freezes
  empty, and only their count reaches the QUBO, as its offset;
* a merge takes the QUBO's ranks back (``QuboModel.ranks``), moves the
  counts of only the clauses of the ranks it flips, and commits them only
  when it is accepted; the pool moves only for the clauses whose satisfied
  status flips.

Variable numbers appear only in ``Vig.nodes`` and in the assignment
``iterate`` makes when its loop ends.  One full rescan then checks the
final count; it reads the clauses afresh, not the counts, so it stays an
independent check.

The start's count, the walk, the clause loop of the freeze and the merge
run in the compiled module, as ``solver.kernels.tally``, ``walk``,
``freeze`` and ``merge``, which read the index and make or write the
state's arrays; without a C compiler their pure-Python oracle runs, with
the same results.  :meth:`GlobalState.start`, :func:`select_bfs`,
:func:`select_dfs`, :func:`freeze_and_extract` and :func:`update_global`
stay here and look them up at call time.
"""
from __future__ import annotations

import random
from array import array
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate, chain

from .cnf import MEMO_ENTRIES, Cnf, count_satisfied, evaluate
from .preprocess import ConditionRecord, reconstruct
from .qubo import QuboModel, cnf_to_qubo, qubo_to_ising, scale_to_chip
from .solver import solve
from .solver.kernels import freeze, merge, tally, walk

STRATEGIES = ("bfs", "dfs")


def _table(rows: list[list[int]]) -> array:
    """``rows`` flat in one ``array('i')`` ``t``: ``t[0]`` offsets, then the
    items, so row ``i`` is ``t[t[i]:t[i + 1]]`` (``_kernels_py.row`` reads
    it)."""
    table = array("i", accumulate(map(len, rows), initial=len(rows) + 1))
    table.fromlist(list(chain.from_iterable(rows)))
    return table


@dataclass(frozen=True)
class Vig:
    """Variable interaction graph plus the per-formula index the walks and
    the clause bookkeeping read; one is shared by every decomposition of an
    equal formula (:func:`build_vig`), so nothing may change it.

    ``nodes`` lists the variables the formula holds, ascending; ``r`` is
    the rank of ``nodes[r]``.  Each table (:func:`_table`)
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
    codes: dict[int, int] = {}  # literal -> its code, for this build only
    for r, v in enumerate(nodes):
        codes[v], codes[-v] = 2 * r, 2 * r + 1
    clauses = [list(map(codes.__getitem__, clause)) for clause in cnf.clauses]
    nbrs: list[set[int]] = [set() for _ in nodes]
    triangles: list[list[int]] = [[] for _ in nodes]
    occurrences: list[list[int]] = [[] for _ in nodes]
    for ci, lits in enumerate(clauses):
        if len(lits) == 3:  # most clauses: three distinct ranks, a < b < c
            a, b, c = sorted((lits[0] >> 1, lits[1] >> 1, lits[2] >> 1))
            if a != b != c:
                nbrs[a].update((b, c))
                nbrs[b].update((a, c))
                nbrs[c].update((a, b))
                occurrences[a].append(ci)
                occurrences[b].append(ci)
                occurrences[c].append(ci)
                triangles[a] += b, c
                triangles[b] += a, c
                triangles[c] += a, b
                continue
        rs = sorted({lit >> 1 for lit in lits})
        for r in rs:
            nbrs[r].update(rs)
            occurrences[r].append(ci)
        if len(lits) == 3:  # the other two ranks, r for any missing
            for r in rs:
                triangles[r].extend(([u for u in rs if u != r] + [r, r])[:2])
    for r, ns in enumerate(nbrs):
        ns.discard(r)
    bfs = list(map(sorted, nbrs))
    # descending degree, ties by descending rank (so variable): one int key
    order = [len(ns) * len(nodes) + u for u, ns in enumerate(nbrs)]
    dfs = [sorted(ns, key=order.__getitem__, reverse=True) for ns in bfs]
    return Vig(nodes, _table(bfs), _table(dfs), _table(triangles), _table(occurrences),
               _table(clauses))


FILTER_WINDOW = 5


@dataclass
class FilterState:
    """Tracks consecutive selections; over-used variables cool down.

    A variable selected ``FILTER_WINDOW`` iterations in a row is excluded
    from selection for the next ``FILTER_WINDOW`` iterations unless nothing
    else is reachable.  Variables are keyed by rank, as the walks return them.
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
    """Best-known full assignment with its satisfied-clause bookkeeping, in
    flat arrays indexed by node rank (``vig.nodes[r]`` is rank ``r``).

    ``values[r]`` is 1 when ``nodes[r]`` is True and 0 when it is False.
    ``true_count[c]`` is the number of true literals in clause ``c`` and
    ``unsat`` the number of clauses at zero; ``best_count``, the satisfied
    total, is read from those two.  ``unsat_degree[r]`` counts the
    unsatisfied clauses that hold rank ``r``, and ``pool`` lists, ascending,
    the ranks whose count is nonzero: the ranks a walk may start from.
    ``update_global`` keeps all of it in step, touching the pool only for
    the clauses whose satisfied status flips.  ``vig`` is the formula's
    index and ``flags``, a zero byte per node, the kernels' scratch, which
    they clear before they return.  No dict of the assignment is kept;
    ``iterate`` makes one when its loop ends.
    """

    values: bytearray
    true_count: array
    unsat: int
    unsat_degree: array
    pool: list[int]
    vig: Vig
    flags: bytearray

    @property
    def best_count(self) -> int:
        return len(self.true_count) - self.unsat

    @classmethod
    def start(cls, vig: Vig, values: bytearray) -> GlobalState:
        """Count the true literals of each clause of the formula indexed by
        ``vig`` under ``values``, a byte per node, which the state takes;
        the kernel ``tally`` counts."""
        true_count, unsat, degree, pool = tally(vig.clauses, values)
        return cls(values, true_count, unsat, degree, pool, vig, bytearray(len(values)))


@dataclass(frozen=True)
class Subproblem:
    """One frozen slice: the QUBO of its kept clause list and its spin count."""

    qubo: QuboModel
    spin_cost: int


def select_bfs(vig: Vig, budget: int, start: int, filt: FilterState,
               flags: bytearray) -> set[int]:
    """Breadth-first ball around rank ``start`` that fits the spin budget;
    the selected ranks."""
    return walk(vig.bfs, vig.triangles, filt.cooldown, flags, budget, start, False)


def select_dfs(vig: Vig, budget: int, start: int, filt: FilterState,
               flags: bytearray) -> set[int]:
    """Depth-first chain from rank ``start``, preferring low-degree
    neighbors; the selected ranks."""
    return walk(vig.dfs, vig.triangles, filt.cooldown, flags, budget, start, True)


def freeze_and_extract(selected: set[int], state: GlobalState) -> Subproblem:
    """Substitute best-known values for everything outside the selection,
    a set of ranks.

    A true frozen literal satisfies its clause (dropped); a false one is
    removed.  Kept clauses are NOT simplified
    further — conflicting units and duplicates stay, and a clause emptied by
    freezing becomes a constant +1 in the QUBO offset.

    Only the clauses touching the selection are visited, by the kernel
    ``freeze``: every other clause has only frozen literals, so a satisfied
    one is dropped and an unsatisfied one freezes empty.  Those are counted,
    not walked (the unsatisfied clauses less the visited ones), and the
    count is added to the offset of the QUBO of the kept clauses, which go
    to ``cnf_to_qubo`` as a plain list of literal codes: no formula is built
    or validated per slice.  The spin cost adds the QUBO's ancillas.
    """
    if not selected:
        raise ValueError("selection is empty")
    vig = state.vig
    kept, visited_unsat = freeze(vig.clauses, vig.occurrences, selected, state.values,
                                 state.true_count, state.flags)
    qubo = cnf_to_qubo(kept)
    # each emptied clause is a constant +1; the sums are small integers, so
    # the float offset is exact in any order
    qubo.offset += state.unsat - visited_unsat
    return Subproblem(qubo, len(selected) + qubo.num_vars - len(qubo.ranks))


def update_global(state: GlobalState, spins: tuple[int, ...], ranks: list[int]) -> bool:
    """Merge a slice's solution if the full satisfied count does not drop.

    ``spins[i]`` is the spin of rank ``ranks[i]`` (``QuboModel.ranks``); a
    spin above 0 is True.  Equal counts are accepted (plateau moves).
    Returns True when merged.  The kernel ``merge`` reads and moves only the
    clauses of the ranks that flip, and commits only an accepted merge.
    """
    vig = state.vig
    gain = merge(vig.clauses, vig.occurrences, spins, ranks, state.values, state.true_count,
                 state.unsat_degree, state.pool, state.flags)
    if gain < 0:
        return False
    state.unsat -= gain
    return True


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
    state = GlobalState.start(vig, bytearray(rng.getrandbits(1) for _ in vig.nodes))
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
        update_global(state, result.best_spins, sub.qubo.ranks)
        filt.note_selection(selected)

    assignment = dict(zip(vig.nodes, map(bool, state.values)))
    if count_satisfied(cnf.clauses, assignment) != state.best_count:
        raise RuntimeError("incremental satisfied count drifted from a full rescan")
    if state.best_count < m:
        return DecompositionRun(False, iterations, solver_calls,
                                state.best_count, m, reason=reason,
                                trace=first_trace)
    full = reconstruct(condition, assignment, original.occurring_vars())
    if not evaluate(original, full):
        raise RuntimeError("solved subproblem failed verification on the input CNF")
    return DecompositionRun(True, iterations, solver_calls,
                            state.best_count, m, reason="solved",
                            trace=first_trace)
