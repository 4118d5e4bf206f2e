"""Clause-preprocessing ladder.

Levels are cumulative; running level ``L`` applies every pass up to ``L``:

===== =========================== ==============================================
level pass                        effect
===== =========================== ==============================================
0     (none)                      input unchanged
1     reencode_option2            gate groups rewritten to implication form
2     propagate_1sat              unit propagation to fixpoint
3     condition_2sat              two-traversal pair analysis of 2-clauses:
                                  variable equivalences (union-find with
                                  parity) and implied units
4     propagate_replaced_values   replaced variables whose master has a known
                                  value become fixed — condition-list only,
                                  clauses untouched
5     clean_clauses               duplicate literals collapsed, tautologies
                                  dropped
6     subsume_clauses +           superset clauses dropped, then pure
      eliminate_pure_literals     literals eliminated (one ladder level)
7     branch_probe                the highest-degree variable is guessed at
                                  random and propagated; a guess that closes
                                  the branch stays closed
===== =========================== ==============================================

Unsatisfiability is a *value*, not an exception: it shows up as an empty
clause in the working formula and every pass refuses to run once one exists.
Any pass that leaves unit clauses behind is followed by a unit-propagation
run (at ladder levels >= 2), and value propagation through the condition
list re-fires after each such run (at levels >= 4).  Each pass call returns
one :class:`PassReport`: the variables and clauses after it, and its time.

Costs, for L literals: ``reencode_option2`` groups clauses in one sweep
and labels each 3-variable group by one lookup in a gate table built at
import; ``propagate_1sat`` builds occurrence lists once per call, then each
fix touches only its variable's clauses; ``subsume_clauses`` compares a
clause only with kept clauses filed under its own literals; the other
passes are one sweep (per cascade round).  The checks between passes (an
empty clause, a unit, a pending substitution, the occurring variables of a
report) are one sweep of the clauses or the condition list each, made
when they are read.  The seed feeds only the value of the level-7 guess,
drawn before any pass runs, so the outcome is a function of the formula,
the level and that value.  :func:`run_ladder` keeps it as one immutable
:class:`LadderResult` in an ``lru_cache`` of ``MEMO_ENTRIES`` entries
keyed by ``(cnf, level, guess)``, the formula compared by value.  So
every level runs once per formula, level 7 once per outcome of its
guess, and every call with that key shares the one result, with the
pass times measured when it was computed.

Nothing renumbers variables: the residual keeps the original ``num_vars`` and
the condition records (:class:`ConditionRecord`, in order) say how to lift
a residual model back to the full variable set.  The per-pass "variable
count" is the number of variables occurring in the clause list — replaced
or fixed variables no longer count once they leave the CNF.
"""
from __future__ import annotations

import heapq
import random
import time
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from functools import lru_cache, wraps

from .circuit import IMPLICATION_FORM, ROW_ENCODING, gate_clauses
from .cnf import MEMO_ENTRIES, Clause, Cnf

# ---------------------------------------------------------------------------
# condition list: the record needed to undo the ladder


@dataclass(frozen=True)
class ConditionRecord:
    kind: str  # "fix" | "sub" | "pure"
    var: int
    value: bool | None = None
    root: int | None = None
    sign: int | None = None  # +1: var == root, -1: var == not root


def known_values(records: Iterable[ConditionRecord]) -> dict[int, bool]:
    """All variables with a determined value (fixed or pure)."""
    return {r.var: r.value for r in records if r.kind != "sub"}


def reconstruct(
    condition: Sequence[ConditionRecord],
    residual_model: dict[int, bool],
    variables: Iterable[int],
) -> dict[int, bool]:
    """Lift a model of the residual formula to the variables the records,
    the model and ``variables`` name.

    Fixed and pure variables take their recorded values, residual variables
    keep theirs, substituted variables copy (or negate) their root, and
    every other one of ``variables``, constrained by nothing, is False.
    The work follows the records, the model and ``variables``, not the
    formula's declared variable count.
    """
    out = known_values(condition)
    for var, val in residual_model.items():
        out.setdefault(var, bool(val))
    # Reverse order resolves chains where a later pass replaced an earlier
    # root; a root nothing set is unconstrained, so False.
    for rec in reversed(condition):
        if rec.kind == "sub" and rec.var not in out:
            root = out.get(rec.root, False)
            out[rec.var] = root if rec.sign > 0 else not root
    for v in variables:
        out.setdefault(v, False)
    return out


# ---------------------------------------------------------------------------
# working state and reports


@dataclass(frozen=True)
class BranchDecision:
    var: int
    value: bool


@dataclass(frozen=True)
class PassReport:
    """What one pass left: occurring variables and clauses after it, and its
    time when the ladder computed the outcome: a result its cache hands out
    again keeps that time, and a pass skipped on an unsat state reads 0 s."""

    name: str
    vars_after: int
    clauses_after: int
    wall_time: float


@dataclass
class PrepState:
    """The working formula, the records that undo it (passes append to
    ``condition``), and the value of the level-7 guess (None below level
    7); anything else a pass boundary checks is computed from these when it
    is read."""

    clauses: list[Clause]
    condition: list[ConditionRecord]
    guess: bool | None
    branch_decisions: list[BranchDecision] = field(default_factory=list)

    @property
    def unsat(self) -> bool:
        return not all(self.clauses)

    def occurring(self) -> set[int]:
        return {abs(l) for c in self.clauses for l in c}


def _ladder_pass(fn):
    """Wrap a pass body in the guard, timer and report every pass shares.

    The body edits the state.  A state that already holds an empty clause
    is left as it is and reported with 0 s; the timer covers the body only,
    not the report's count of occurring variables.
    """
    @wraps(fn)
    def run(st: PrepState) -> PassReport:
        wall = 0.0
        if not st.unsat:
            t0 = time.perf_counter()
            fn(st)
            wall = time.perf_counter() - t0
        return PassReport(fn.__name__, len(st.occurring()), len(st.clauses), wall)

    return run


# ---------------------------------------------------------------------------
# gate-group detection (shared by level 1 and exposed as metadata)


@dataclass(frozen=True)
class GateGroup:
    variables: tuple[int, ...]
    clause_indices: tuple[int, ...]
    kind: str
    output: int


_DETECT_ORDER = ("AND", "OR", "NAND", "NOR", "XOR", "XNOR")


def _build_gate_table() -> dict[frozenset[tuple[bool, bool, bool]], tuple[str, int]]:
    """Each gate's row encoding over variables 1 < 2 < 3, keyed by which
    variables each clause holds positively, mapped to (kind, output
    position).  Entries go in by output position, then ``_DETECT_ORDER``,
    and the first wins a tie: XOR/XNOR keep the lowest output."""
    table: dict[frozenset[tuple[bool, bool, bool]], tuple[str, int]] = {}
    for pos in range(3):
        ins = [v for v in (1, 2, 3) if v != pos + 1]
        for kind in _DETECT_ORDER:
            rows = gate_clauses(ROW_ENCODING[kind], ins[0], ins[1], pos + 1)
            key = frozenset((1 in r, 2 in r, 3 in r) for r in rows)
            table.setdefault(key, (kind, pos))
    return table


_GATE_TABLE = _build_gate_table()


def detect_gate_groups(clauses: list[Clause] | tuple[Clause, ...]) -> list[GateGroup]:
    """The gates among the 3-variable clauses, in variable order.

    Clauses over the same three distinct variables form a group, and a group
    whose sign patterns match a gate's row encoding (a table lookup) is
    returned with its kind and output variable.
    """
    by_vars: dict[tuple[int, ...], list[int]] = {}
    for idx, c in enumerate(clauses):
        if len(c) == 3:
            vs = tuple(sorted(map(abs, c)))
            if vs[0] != vs[1] != vs[2]:
                by_vars.setdefault(vs, []).append(idx)
    groups: list[GateGroup] = []
    for variables in sorted(by_vars):
        indices = by_vars[variables]
        a, b, c = variables
        hit = _GATE_TABLE.get(frozenset(
            (a in clauses[i], b in clauses[i], c in clauses[i]) for i in indices))
        if hit is not None:
            groups.append(GateGroup(variables, tuple(indices), hit[0],
                                    variables[hit[1]]))
    return groups


# ---------------------------------------------------------------------------
# level 1: re-encode gate groups to implication form


@_ladder_pass
def reencode_option2(st: PrepState) -> None:
    """Rewrite recognized AND/OR/NAND/NOR groups in implication form; gates
    without one (XOR/XNOR) are left as-is."""
    drop: set[int] = set()
    insert_at: dict[int, list[Clause]] = {}
    for g in detect_gate_groups(st.clauses):
        if g.kind not in IMPLICATION_FORM:
            continue
        ins = [v for v in g.variables if v != g.output]
        new = gate_clauses(IMPLICATION_FORM[g.kind], ins[0], ins[1], g.output)
        drop.update(g.clause_indices)
        insert_at[g.clause_indices[0]] = new
    if insert_at:
        rebuilt: list[Clause] = []
        for idx, c in enumerate(st.clauses):
            if idx in insert_at:
                rebuilt.extend(insert_at[idx])
            if idx not in drop:
                rebuilt.append(c)
        st.clauses = rebuilt


# ---------------------------------------------------------------------------
# level 2: unit propagation


def _unit_fixpoint(clauses: list[Clause]) -> tuple[list[Clause], list[tuple[int, bool]]]:
    """Propagate unit clauses to fixpoint.  Pure function; returns the new
    clause list, with any empty clause kept, and the fixes applied in order.

    Each step fixes the earliest unit in clause order (a min-heap of
    positions) and visits only the clauses of its literal and its negation;
    a step that empties a clause is finished, then propagation stops.
    """
    work: list[Clause | None] = list(clauses)
    widths = list(map(len, work))
    units = [i for i, w in enumerate(widths) if w == 1]
    if 0 in widths or not units:
        return work, []
    occurrences: dict[int, list[int]] = {}
    for i, c in enumerate(work):
        for l in set(c):
            occurrences.setdefault(l, []).append(i)
    fixes: list[tuple[int, bool]] = []
    empty = False
    while units and not empty:
        i = heapq.heappop(units)
        c = work[i]
        if c is None:
            continue  # satisfied since it was queued
        lit = c[0]
        fixes.append((abs(lit), lit > 0))
        for j in occurrences.get(lit, ()):
            work[j] = None
        for j in occurrences.get(-lit, ()):
            c = work[j]
            if c is None:
                continue
            c = tuple(l for l in c if l != -lit)
            work[j] = c
            if len(c) == 1:
                heapq.heappush(units, j)
            elif not c:
                empty = True
    return [c for c in work if c is not None], fixes


def _propagate(st: PrepState, clauses: list[Clause]) -> None:
    """Make the fixpoint of ``clauses`` the working formula, recording each
    fix for reconstruction."""
    st.clauses, fixes = _unit_fixpoint(clauses)
    st.condition.extend(ConditionRecord("fix", var, value=val)
                        for var, val in fixes)


@_ladder_pass
def propagate_1sat(st: PrepState) -> None:
    """Unit propagation to fixpoint."""
    _propagate(st, st.clauses)


# ---------------------------------------------------------------------------
# level 3: two-clause conditioning


class _ParityDSU:
    """Union-find over variables with edge parity (0: equal, 1: opposite).
    The class representative is always the lowest variable index."""

    def __init__(self) -> None:
        self.parent: dict[int, int] = {}
        self.parity: dict[int, int] = {}

    def find(self, v: int) -> tuple[int, int]:
        if v not in self.parent:
            self.parent[v] = v
            self.parity[v] = 0
            return v, 0
        path = []
        while self.parent[v] != v:
            path.append(v)
            v = self.parent[v]
        root = v
        # nearest-to-root first: each node's stored parity is still relative
        # to its old parent, so the running xor is its parity to the root
        p = 0
        for node in reversed(path):
            p ^= self.parity[node]
            self.parent[node] = root
            self.parity[node] = p
        return root, self.parity[path[0]] if path else 0

    def union(self, u: int, v: int, rel: int) -> None:
        """Hang root ``v`` under root ``u < v``: u == v (rel 0) or u == not v
        (rel 1).  The caller passes two distinct roots, so the lower index
        stays the root and no contradiction can arise here."""
        self.parent[v] = u
        self.parity[v] = rel


class _PairConditioner:
    """Streaming pair analysis behind :func:`condition_2sat`.

    Two-clauses arrive one at a time, are canonicalized through the live
    union-find, and accumulate as sign patterns per canonical variable pair.
    A buffer or inverter pair unions its variables the moment it completes,
    always two distinct roots; that union migrates every recorded pattern
    touching either class so the equivalence immediately feeds later
    collisions (a chain of equivalences can surface implied units within
    the same sweep).  A migrated pattern can complete another pair, whose
    union migrates in turn before the rest of the first: the migrations
    run depth first from an explicit stack, so a chain of any length
    cascades without recursion.  A pair amassing three distinct patterns
    pins both variables and queues two unit clauses.  A contradiction such as
    ``a == b`` with ``a == not b`` comes out as the units ``a`` and ``-a``,
    which the follow-up propagation turns into an empty clause.
    """

    def __init__(self) -> None:
        self.dsu = _ParityDSU()
        self.groups: dict[tuple[int, int], set[tuple[int, int]]] = {}
        self.by_var: dict[int, set[tuple[int, int]]] = {}
        self.queued: list[int] = []

    def canon(self, lit: int) -> int:
        root, parity = self.dsu.find(abs(lit))
        sign = 1 if lit > 0 else -1
        return root * (sign if parity == 0 else -sign)

    def add_clause(self, l1: int, l2: int) -> None:
        stack: list[Iterator[tuple[int, int]]] = []
        self._add(l1, l2, stack)
        while stack:
            clause = next(stack[-1], None)
            if clause is None:
                stack.pop()
            else:
                self._add(*clause, stack)

    def _add(self, l1: int, l2: int, stack: list[Iterator[tuple[int, int]]]) -> None:
        """Record one clause; a pair it completes is unioned, and that
        union's migrations are pushed onto ``stack``."""
        lu, lv = self.canon(l1), self.canon(l2)
        if abs(lu) == abs(lv):
            if lu == lv:
                self.queued.append(lu)  # (l v l) is a unit in disguise
            return  # (l v ~l) is a tautology
        if abs(lu) > abs(lv):
            lu, lv = lv, lu
        key = (abs(lu), abs(lv))
        pat = (1 if lu > 0 else -1, 1 if lv > 0 else -1)
        pats = self.groups.setdefault(key, set())
        if not pats:
            self.by_var.setdefault(key[0], set()).add(key)
            self.by_var.setdefault(key[1], set()).add(key)
        if pat in pats:
            return
        pats.add(pat)
        if len(pats) == 2:
            p1, p2 = pats
            if p1[0] == -p2[0] and p1[1] == -p2[1]:
                # complete buffer/inverter pair: (+,-),(-,+) asserts u == v,
                # (+,+),(-,-) asserts u == not v
                rel = 0 if pats == {(1, -1), (-1, 1)} else 1
                self._drop_group(key)
                self.dsu.union(key[0], key[1], rel)
                touching = self.by_var[key[0]] | self.by_var[key[1]]
                stack.append(self._migrate(sorted(touching)))
        elif len(pats) == 3:
            # the one assignment left falsifies the missing pattern: each
            # variable takes the sign it has in two of the three present
            self.queued.append(sum(su for su, _ in pats) * key[0])
            self.queued.append(sum(sv for _, sv in pats) * key[1])
            self._drop_group(key)

    def _drop_group(self, key: tuple[int, int]) -> None:
        del self.groups[key]
        for v in key:
            self.by_var[v].remove(key)

    def _migrate(self, keys: list[tuple[int, int]]) -> Iterator[tuple[int, int]]:
        """The patterns of ``keys`` still recorded, dropped group by group as
        they are reached, to be re-added through the merged classes."""
        for key in keys:
            pats = self.groups.get(key)
            if pats is None:
                continue
            self._drop_group(key)
            for su, sv in sorted(pats):
                yield su * key[0], sv * key[1]

    def finish_groups(self) -> None:
        """Resolve leftover two-pattern groups.  Complementary pairs were
        unioned when they completed, so the two clauses of such a group
        share exactly one literal, and resolving them forces it: one unit
        each."""
        for key in sorted(self.groups):
            pats = self.groups[key]
            if len(pats) == 2:
                (su, sv), (su2, _) = pats
                self.queued.append(su * key[0] if su == su2 else sv * key[1])


@_ladder_pass
def condition_2sat(st: PrepState) -> None:
    """Pair analysis over width-2 clauses, in exactly two CNF traversals.

    Traversal 1 streams the 2-clauses through a live union-find: completed
    buffer/inverter pairs become variable equivalences on the spot (with
    pattern migration, so chains compose), three-pattern groups queue two
    implied units, and leftover two-pattern groups queue the literal their
    clauses share.  Traversal 2 substitutes every replaced variable by its
    class root, drops clauses the substitution made tautological, and
    appends the queued units for the follow-up unit propagation, which
    also finds any contradiction among them.
    """
    cond = _PairConditioner()

    # traversal 1
    for c in st.clauses:
        if len(c) == 2:
            cond.add_clause(c[0], c[1])
    cond.finish_groups()

    # the fully resolved substitution map, before touching clauses
    submap: dict[int, tuple[int, int]] = {}
    for var in sorted(cond.dsu.parent):
        root, p = cond.dsu.find(var)
        if root != var:
            sign = 1 if p == 0 else -1
            submap[var] = (root, sign)
            st.condition.append(ConditionRecord("sub", var, root=root, sign=sign))

    def rewrite(lit: int) -> int:
        var = abs(lit)
        if var not in submap:
            return lit
        root, sign = submap[var]
        return root * sign * (1 if lit > 0 else -1)

    # traversal 2: substitute everywhere, dropping newly tautological clauses
    new_clauses: list[Clause] = []
    for c in st.clauses:
        rewritten = tuple(rewrite(l) for l in c)
        if not any(-l in rewritten for l in rewritten):
            new_clauses.append(rewritten)
    seen_units = set()
    for lit in cond.queued:
        u = rewrite(lit)
        if u not in seen_units:
            seen_units.add(u)
            new_clauses.append((u,))
    st.clauses = new_clauses


# ---------------------------------------------------------------------------
# level 4: replaced-value propagation (condition list only)


def _pending_subs(records: list[ConditionRecord],
                  values: dict[int, bool]) -> Iterator[tuple[int, bool]]:
    """``(var, value)`` for each substitution, in record order, whose
    variable has no value in ``values`` yet and whose root has one: the
    value follows from the root's and the sign.  Lazy, so a value the
    caller adds to ``values`` serves the records after it."""
    for r in records:
        if r.kind == "sub" and r.var not in values and r.root in values:
            yield r.var, values[r.root] == (r.sign > 0)


@_ladder_pass
def propagate_replaced_values(st: PrepState) -> None:
    """Give replaced variables their values: whenever a substitution's master
    has a known value, the replaced variable's value follows from the sign.
    Sweeps the records until one gives nothing, so it cascades through
    chains; never touches the clause list."""
    values = known_values(st.condition)
    progress = True
    while progress:
        progress = False
        for var, value in _pending_subs(st.condition, values):
            st.condition.append(ConditionRecord("fix", var, value=value))
            values[var] = value
            progress = True


# ---------------------------------------------------------------------------
# level 5: clause cleaning


@_ladder_pass
def clean_clauses(st: PrepState) -> None:
    """Hygiene sweep: duplicate literals collapsed, tautologies dropped.
    Shrinking can expose hidden units; the ladder propagates them after."""
    out: list[Clause] = []
    for c in st.clauses:
        seen: list[int] = []
        taut = False
        for l in c:
            if -l in seen:
                taut = True
                break
            if l not in seen:
                seen.append(l)
        if not taut:
            out.append(tuple(seen))
    st.clauses = out


# ---------------------------------------------------------------------------
# level 6: subsumption, then pure literals


@_ladder_pass
def subsume_clauses(st: PrepState) -> None:
    """Drop any clause whose literal set contains another kept clause
    (duplicates count: the first occurrence survives).  Shortest first; a
    kept clause is filed under its rarest literal, so any kept subset of a
    clause is filed under one of that clause's literals."""
    clauses = st.clauses
    order = sorted(range(len(clauses)), key=lambda i: (len(clauses[i]), i))
    frequency = Counter(l for c in clauses for l in c)
    filed: dict[int, list[frozenset[int]]] = {}
    removed: set[int] = set()
    for i in order:
        s = frozenset(clauses[i])
        if any(k <= s for l in s for k in filed.get(l, ())):
            removed.add(i)
        else:
            filed.setdefault(min(s, key=lambda l: (frequency[l], l)),
                             []).append(s)
    st.clauses = [c for i, c in enumerate(clauses) if i not in removed]


@_ladder_pass
def eliminate_pure_literals(st: PrepState) -> None:
    """Remove variables that occur with a single polarity, satisfying (and
    dropping) every clause that contains them; cascades to fixpoint.

    A variable whose clauses all disappear in the process ends up
    unconstrained; it is recorded too (as pure, satisfied trivially by
    ``True``) so the pass leaves no variable of its input dangling without
    a value.
    """
    started_occurring = st.occurring()
    while True:
        pos: set[int] = set()
        neg: set[int] = set()
        for c in st.clauses:
            for l in c:
                (pos if l > 0 else neg).add(abs(l))
        pure = sorted((pos - neg) | (neg - pos))
        if not pure:
            break
        for v in pure:
            st.condition.append(ConditionRecord("pure", v, value=v in pos))
        pure_set = set(pure)
        st.clauses = [
            c for c in st.clauses if not any(abs(l) in pure_set for l in c)
        ]
    for v in sorted(started_occurring - st.occurring()
                    - set(known_values(st.condition))):
        st.condition.append(ConditionRecord("pure", v, value=True))


# ---------------------------------------------------------------------------
# level 7: degree-guided branching


BRANCH_RATIO = 1.5  # degree over the mean degree that makes a variable a guess


@_ladder_pass
def branch_probe(st: PrepState) -> None:
    """Guess the most-constrained variable.

    When some variable's interaction-graph degree is at least
    ``BRANCH_RATIO`` times the mean degree, give the maximum-degree one the
    value ``st.guess`` and unit-propagate.  A guess that closes the branch
    (empty clause under propagation) stays closed: the caller sees the
    UNSAT residual, and the next repeat's seed draws its guess afresh.
    """
    neighbours: dict[int, set[int]] = {}
    for c in st.clauses:
        vs = {abs(l) for l in c}
        for v in vs:
            neighbours.setdefault(v, set()).update(vs)
    if not neighbours:
        return
    degree = {v: len(ns) - 1 for v, ns in neighbours.items()}
    mean = sum(degree.values()) / len(degree)
    v = min(degree, key=lambda x: (-degree[x], x))
    if degree[v] >= BRANCH_RATIO * mean:
        _propagate(st, [*st.clauses, (v if st.guess else -v,)])
        st.branch_decisions.append(BranchDecision(v, st.guess))


# ---------------------------------------------------------------------------
# the ladder


LADDER_PASSES: dict[int, tuple] = {
    1: (reencode_option2,),
    2: (propagate_1sat,),
    3: (condition_2sat,),
    4: (propagate_replaced_values,),
    5: (clean_clauses,),
    6: (subsume_clauses, eliminate_pure_literals),
    7: (branch_probe,),
}

MAX_LEVEL = 7  # the guess; no level below it draws from the seed


@dataclass(frozen=True)
class LadderResult:
    """The residual formula, the condition records that lift its models,
    each pass's report and the level-7 decisions.  Every field is
    immutable, so one result serves every call that shares its cache
    entry."""

    cnf: Cnf
    condition: tuple[ConditionRecord, ...]
    reports: tuple[PassReport, ...]
    branch_decisions: tuple[BranchDecision, ...]

    @property
    def vars_remaining(self) -> int:
        return len(self.cnf.occurring_vars())


def _stabilize(st: PrepState, level: int, reports: list[PassReport]) -> None:
    """Settle the consequences of a pass: propagate fresh unit clauses
    (levels >= 2), then push new master values through the condition list
    (levels >= 4).  One round leaves neither with work: unit propagation
    runs to a fixpoint or to an empty clause, and value propagation clears
    every pending substitution without touching a clause."""
    if st.unsat:
        return
    if level >= 2 and 1 in map(len, st.clauses):
        reports.append(propagate_1sat(st))
    if level >= 4 and any(_pending_subs(st.condition, known_values(st.condition))):
        reports.append(propagate_replaced_values(st))


def run_ladder(cnf: Cnf, level: int, *, seed: int) -> LadderResult:
    """Apply every ladder pass up to ``level`` (cumulative, 0..7).

    At level 7 ``seed`` draws the value of the one guess; below level 7
    nothing is drawn.  The outcome runs once per ``(cnf, level, guess)``
    value in :func:`_ladder`; see the module docstring.  Every call with
    that value gets the first call's result, whose reports give each pass's
    time from when it ran.
    """
    if not 0 <= level <= MAX_LEVEL:
        raise ValueError(f"level must be between 0 and {MAX_LEVEL}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    guess = random.Random(seed).random() < 0.5 if level == MAX_LEVEL else None
    return _ladder(cnf, level, guess)


@lru_cache(maxsize=MEMO_ENTRIES)
def _ladder(cnf: Cnf, level: int, guess: bool | None) -> LadderResult:
    st = PrepState(clauses=list(cnf.clauses), condition=[], guess=guess)
    reports: list[PassReport] = []
    for lvl in range(1, level + 1):
        for fn in LADDER_PASSES[lvl]:
            if st.unsat:
                break
            reports.append(fn(st))
            if fn is not reencode_option2:
                _stabilize(st, level, reports)
    return LadderResult(Cnf(cnf.num_vars, tuple(st.clauses)), tuple(st.condition),
                        tuple(reports), tuple(st.branch_decisions))
