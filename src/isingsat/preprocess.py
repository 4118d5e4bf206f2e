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
                                  random and propagated
===== =========================== ==============================================

Unsatisfiability is a *value*, not an exception: it shows up as an empty
clause in the working formula and every pass refuses to run once one exists.
Any pass that leaves unit clauses behind is followed by a unit-propagation
run (at ladder levels >= 2), and value propagation through the condition
list re-fires after each such run (at levels >= 4).

Costs, for L literals: ``reencode_option2`` groups clauses in one sweep
and labels each 3-variable group by one lookup in a gate table built at
import; ``propagate_1sat`` builds occurrence lists once per call, then each
fix touches only its variable's clauses; ``subsume_clauses`` compares a
clause only with kept clauses filed under its own literals; the other
passes are one sweep (per cascade round).  The boundary checks share one
:meth:`PrepState.census` per clause list.

Nothing renumbers variables: the residual keeps the original ``num_vars`` and
a :class:`ConditionList` records how to lift a residual model back to the
full variable set.  The per-pass "variable count" is the number of variables
occurring in the clause list — replaced or fixed variables no longer count
once they leave the CNF.
"""
from __future__ import annotations

import heapq
import random
import time
from collections import Counter, deque
from dataclasses import dataclass, field, replace
from functools import cached_property, wraps

from .circuit import _OPTION2, EncodingOption, gate_clauses
from .cnf import Clause, Cnf

# ---------------------------------------------------------------------------
# condition list: the record needed to undo the ladder


@dataclass(frozen=True)
class ConditionRecord:
    kind: str  # "fix" | "sub" | "pure"
    var: int
    value: bool | None = None
    root: int | None = None
    sign: int | None = None  # +1: var == root, -1: var == not root


class ConditionList:
    """Ordered log of variable eliminations, sufficient to reconstruct a
    full model from a residual one."""

    def __init__(self) -> None:
        self.records: list[ConditionRecord] = []

    def add_fix(self, var: int, value: bool) -> None:
        self.records.append(ConditionRecord("fix", var, value=value))

    def add_sub(self, var: int, root: int, sign: int) -> None:
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        self.records.append(ConditionRecord("sub", var, root=root, sign=sign))

    def add_pure(self, var: int, value: bool) -> None:
        self.records.append(ConditionRecord("pure", var, value=value))

    def values(self) -> dict[int, bool]:
        """All variables with a determined value (fixed or pure)."""
        out: dict[int, bool] = {}
        for r in self.records:
            if r.kind in ("fix", "pure"):
                out[r.var] = r.value
        return out

    def __len__(self) -> int:
        return len(self.records)


def reconstruct(
    condition: ConditionList,
    residual_model: dict[int, bool],
    num_vars: int,
) -> dict[int, bool]:
    """Lift a model of the residual formula to all ``num_vars`` variables.

    Fixed and pure variables take their recorded values, residual variables
    keep theirs, substituted variables copy (or negate) their root, and
    variables constrained by nothing are False.
    """
    out: dict[int, bool] = {}
    sub_targets = {r.var for r in condition.records if r.kind == "sub"}
    for rec in condition.records:
        if rec.kind in ("fix", "pure"):
            out[rec.var] = rec.value
    for var, val in residual_model.items():
        out.setdefault(var, bool(val))
    for v in range(1, num_vars + 1):
        if v not in out and v not in sub_targets:
            out[v] = False
    # Reverse order resolves chains where a later pass replaced an earlier root.
    for rec in reversed(condition.records):
        if rec.kind == "sub" and rec.var not in out:
            out[rec.var] = out[rec.root] if rec.sign > 0 else not out[rec.root]
    return out


# ---------------------------------------------------------------------------
# working state and reports


@dataclass(frozen=True)
class BranchDecision:
    var: int
    value: bool


@dataclass(frozen=True)
class PassReport:
    """What one pass left: occurring variables and clauses after it, its
    time, and its own counts."""

    name: str
    vars_after: int
    clauses_after: int
    wall_time: float
    details: dict[str, object]


class Census:
    """What the pass boundaries check about one clause list."""

    def __init__(self, clauses: list[Clause]) -> None:
        self.clauses = clauses
        self.size = len(clauses)
        widths = set(map(len, clauses))
        self.has_empty = 0 in widths
        self.has_unit = 1 in widths

    @cached_property
    def occurring(self) -> int:
        return len({abs(l) for c in self.clauses for l in c})


@dataclass
class PrepState:
    """Passes replace ``clauses`` rather than edit it in place, so one
    census per clause list serves every check at the pass boundaries."""

    num_vars: int
    clauses: list[Clause]
    condition: ConditionList
    rng: random.Random
    branch_override: deque[bool] | None = None
    branch_decisions: list[BranchDecision] = field(default_factory=list)
    _census: Census | None = field(
        default=None, init=False, repr=False, compare=False)

    def census(self) -> Census:
        c = self._census
        if c is None or c.clauses is not self.clauses or c.size != len(self.clauses):
            c = self._census = Census(self.clauses)
        return c

    @property
    def unsat(self) -> bool:
        return self.census().has_empty

    def occurring(self) -> set[int]:
        return {abs(l) for c in self.clauses for l in c}

    def remaining(self) -> int:
        """Variables still occurring in the clause list."""
        return self.census().occurring


def _ladder_pass(fn):
    """Wrap a pass body in the guard, timer and report every pass shares.

    The body edits the state and returns its counts.  A state that already
    holds an empty clause is left as it is and reported as skipped; the
    timer covers the body only, not the report's census.
    """
    @wraps(fn)
    def run(st: PrepState, *args, **kwargs) -> PassReport:
        if st.unsat:
            wall, details = 0.0, {"skipped": "unsat"}
        else:
            t0 = time.perf_counter()
            details = fn(st, *args, **kwargs)
            wall = time.perf_counter() - t0
        return PassReport(fn.__name__, st.remaining(), len(st.clauses), wall,
                          details)

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
            rows = gate_clauses(kind, ins[0], ins[1], pos + 1,
                                EncodingOption.OPTION1)
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
def reencode_option2(st: PrepState) -> dict[str, object]:
    """Rewrite recognized AND/OR/NAND/NOR groups in implication form; gates
    without one (XOR/XNOR) are left as-is and counted."""
    groups = detect_gate_groups(st.clauses)
    replaced = 0
    kept = 0
    drop: set[int] = set()
    insert_at: dict[int, list[Clause]] = {}
    for g in groups:
        if g.kind not in _OPTION2:
            kept += 1
            continue
        ins = [v for v in g.variables if v != g.output]
        new = gate_clauses(g.kind, ins[0], ins[1], g.output,
                           EncodingOption.OPTION2)
        drop.update(g.clause_indices)
        insert_at[g.clause_indices[0]] = new
        replaced += 1
    if replaced:
        rebuilt: list[Clause] = []
        for idx, c in enumerate(st.clauses):
            if idx in insert_at:
                rebuilt.extend(insert_at[idx])
            if idx not in drop:
                rebuilt.append(c)
        st.clauses = rebuilt
    return {"gate_groups": len(groups), "rewritten": replaced,
            "kept_row_form": kept}


# ---------------------------------------------------------------------------
# level 2: unit propagation


def _unit_fixpoint(clauses: list[Clause]) -> tuple[list[Clause], list[tuple[int, bool]], bool]:
    """Propagate unit clauses to fixpoint.  Pure function; returns the new
    clause list, the fixes applied in order, and whether an empty clause
    appeared.

    Each step fixes the earliest unit in clause order (a min-heap of
    positions) and visits only the clauses of its literal and its negation;
    a step that empties a clause is finished, then propagation stops.
    """
    work: list[Clause | None] = list(clauses)
    widths = list(map(len, work))
    if 0 in widths:
        return work, [], True
    units = [i for i, w in enumerate(widths) if w == 1]
    if not units:
        return work, [], False
    occurrences: dict[int, list[int]] = {}
    for i, c in enumerate(work):
        for l in set(c):
            occurrences.setdefault(l, []).append(i)
    fixes: list[tuple[int, bool]] = []
    empty = False
    while units and not empty:
        i = heapq.heappop(units)
        c = work[i]
        if c is None or len(c) != 1:
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
    return [c for c in work if c is not None], fixes, empty


@_ladder_pass
def propagate_1sat(st: PrepState) -> dict[str, object]:
    """Unit propagation to fixpoint, recording each fix for reconstruction."""
    new, fixes, _ = _unit_fixpoint(st.clauses)
    st.clauses = new
    for var, val in fixes:
        st.condition.add_fix(var, val)
    return {"fixes": len(fixes)}


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

    def union(self, u: int, v: int, rel: int) -> bool:
        """Assert u == v (rel 0) or u == not v (rel 1); False on contradiction."""
        ru, pu = self.find(u)
        rv, pv = self.find(v)
        if ru == rv:
            return (pu ^ pv) == rel
        # lower index wins as root
        if ru < rv:
            self.parent[rv] = ru
            self.parity[rv] = pu ^ pv ^ rel
        else:
            self.parent[ru] = rv
            self.parity[ru] = pu ^ pv ^ rel
        return True


def _pair_survivors(patterns: set[tuple[int, int]]) -> list[tuple[bool, bool]]:
    """Assignments to (u, v) consistent with every distinct 2-clause pattern.
    A pattern (su, sv) names the clause su*u | sv*v, which excludes exactly
    the assignment making both literals false."""
    excluded = {(su < 0, sv < 0) for su, sv in patterns}
    return [
        (a, b)
        for a in (False, True)
        for b in (False, True)
        if (a, b) not in excluded
    ]


class _PairConditioner:
    """Streaming pair analysis behind :func:`condition_2sat`.

    Two-clauses arrive one at a time, are canonicalized through the live
    union-find, and accumulate as sign patterns per canonical variable pair.
    A buffer or inverter pair unions its variables the moment it completes;
    that union migrates every recorded pattern touching either class so the
    equivalence immediately feeds later collisions (a chain of equivalences
    can surface implied units within the same sweep).  A pair amassing three
    distinct patterns pins both variables and queues two unit clauses.
    """

    def __init__(self) -> None:
        self.dsu = _ParityDSU()
        self.groups: dict[tuple[int, int], set[tuple[int, int]]] = {}
        self.by_var: dict[int, set[tuple[int, int]]] = {}
        self.queued: list[int] = []
        self.unsat = False
        self.equivalence_pairs = 0
        self.triple_groups = 0

    def canon(self, lit: int) -> int:
        root, parity = self.dsu.find(abs(lit))
        sign = 1 if lit > 0 else -1
        return root * (sign if parity == 0 else -sign)

    def add_clause(self, l1: int, l2: int) -> None:
        if self.unsat:
            return
        c1, c2 = self.canon(l1), self.canon(l2)
        if abs(c1) == abs(c2):
            if c1 == c2:
                self.queued.append(c1)  # (l v l) is a unit in disguise
            return  # (l v ~l) is a tautology
        self._add_pattern(c1, c2)

    def _add_pattern(self, lu: int, lv: int) -> None:
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
                self._union(key[0], key[1], rel)
        elif len(pats) == 3:
            excluded = {(su < 0, sv < 0) for su, sv in pats}
            (a, b) = next(
                (a, b) for a in (False, True) for b in (False, True)
                if (a, b) not in excluded
            )
            self.queued.append(key[0] if a else -key[0])
            self.queued.append(key[1] if b else -key[1])
            self.triple_groups += 1
            self._drop_group(key)

    def _drop_group(self, key: tuple[int, int]) -> None:
        self.groups.pop(key, None)
        for v in key:
            keys = self.by_var.get(v)
            if keys:
                keys.discard(key)

    def _union(self, u: int, v: int, rel: int) -> None:
        if not self.dsu.union(u, v, rel):
            self.unsat = True
            return
        self.equivalence_pairs += 1
        # re-canonicalize every pattern that mentions either class; the
        # worklist keeps cascaded unions from recursing
        work = sorted(self.by_var.get(u, set()) | self.by_var.get(v, set()))
        for key in work:
            pats = self.groups.pop(key, None)
            if pats is None:
                continue
            for kv in key:
                keys = self.by_var.get(kv)
                if keys:
                    keys.discard(key)
            for (su, sv) in sorted(pats):
                if self.unsat:
                    return
                self.add_clause(su * key[0], sv * key[1])

    def finish_groups(self) -> int:
        """Resolve leftover two-pattern groups whose survivors share a
        coordinate: that coordinate is forced, one unit each."""
        forced = 0
        for key in sorted(self.groups):
            pats = self.groups[key]
            if len(pats) != 2:
                continue
            survivors = _pair_survivors(pats)
            (a1, b1), (a2, b2) = survivors[:2]
            if len(survivors) == 2 and a1 == a2:
                self.queued.append(key[0] if a1 else -key[0])
                forced += 1
            elif len(survivors) == 2 and b1 == b2:
                self.queued.append(key[1] if b1 else -key[1])
                forced += 1
        return forced


@_ladder_pass
def condition_2sat(st: PrepState) -> dict[str, object]:
    """Pair analysis over width-2 clauses, in exactly two CNF traversals.

    Traversal 1 streams the 2-clauses through a live union-find: completed
    buffer/inverter pairs become variable equivalences on the spot (with
    pattern migration, so chains compose), three-pattern groups queue two
    implied units, and leftover two-pattern groups whose survivors share a
    coordinate queue one.  Traversal 2 substitutes every replaced variable
    by its class root, drops clauses the substitution made tautological,
    and appends the queued units for the follow-up unit propagation.
    """
    traversals = 0
    cond = _PairConditioner()

    # traversal 1
    traversals += 1
    for c in st.clauses:
        if len(c) == 2:
            cond.add_clause(c[0], c[1])
        if cond.unsat:
            break
    unit_pairs = 0 if cond.unsat else cond.finish_groups()

    if cond.unsat:
        st.clauses = [*st.clauses, ()]
        return {"traversals": traversals, "contradiction": True}

    # snapshot the fully resolved substitution map before touching clauses
    submap: dict[int, tuple[int, int]] = {}
    for var in sorted(cond.dsu.parent):
        root, p = cond.dsu.find(var)
        if root != var:
            submap[var] = (root, 1 if p == 0 else -1)
    for var in sorted(submap):
        root, sign = submap[var]
        st.condition.add_sub(var, root, sign)

    def rewrite(lit: int) -> int:
        var = abs(lit)
        if var not in submap:
            return lit
        root, sign = submap[var]
        return root * sign * (1 if lit > 0 else -1)

    # traversal 2: substitute everywhere, dropping newly tautological clauses
    traversals += 1
    new_clauses: list[Clause] = []
    dropped_taut = 0
    for c in st.clauses:
        rewritten = tuple(rewrite(l) for l in c)
        if any(-l in rewritten for l in rewritten):
            dropped_taut += 1
            continue
        new_clauses.append(rewritten)
    seen_units = set()
    for lit in cond.queued:
        u = rewrite(lit)
        if u not in seen_units:
            seen_units.add(u)
            new_clauses.append((u,))
    st.clauses = new_clauses
    return {"traversals": traversals, "equivalences": len(submap),
            "equivalence_pairs": cond.equivalence_pairs,
            "triple_groups": cond.triple_groups, "unit_pairs": unit_pairs,
            "dropped_tautologies": dropped_taut}


# ---------------------------------------------------------------------------
# level 4: replaced-value propagation (condition list only)


@_ladder_pass
def propagate_replaced_values(st: PrepState) -> dict[str, object]:
    """Give replaced variables their values: whenever a substitution's master
    has a known value, the replaced variable's value follows from the sign.
    Cascades through chains; never touches the clause list."""
    valued = 0
    while True:
        values = st.condition.values()
        progress = False
        for rec in st.condition.records:
            if rec.kind != "sub" or rec.var in values:
                continue
            if rec.root in values:
                root_val = values[rec.root]
                st.condition.add_fix(
                    rec.var, root_val if rec.sign > 0 else not root_val
                )
                values[rec.var] = root_val if rec.sign > 0 else not root_val
                valued += 1
                progress = True
        if not progress:
            break
    return {"valued": valued}


# ---------------------------------------------------------------------------
# level 5: clause cleaning


def _clean_sweep(clauses: list[Clause]) -> tuple[list[Clause], int, int]:
    """One pass of duplicate-literal removal and tautology dropping."""
    out: list[Clause] = []
    shrunk = 0
    dropped = 0
    for c in clauses:
        seen: list[int] = []
        taut = False
        for l in c:
            if -l in seen:
                taut = True
                break
            if l not in seen:
                seen.append(l)
        if taut:
            dropped += 1
            continue
        if len(seen) != len(c):
            shrunk += 1
        out.append(tuple(seen))
    return out, shrunk, dropped


@_ladder_pass
def clean_clauses(st: PrepState) -> dict[str, object]:
    """Hygiene sweep: duplicate literals collapsed, tautologies dropped.
    Shrinking can expose hidden units; the ladder propagates them after."""
    st.clauses, shrunk, dropped = _clean_sweep(st.clauses)
    return {"shrunk": shrunk, "dropped": dropped}


# ---------------------------------------------------------------------------
# level 6: subsumption, then pure literals


@_ladder_pass
def subsume_clauses(st: PrepState) -> dict[str, object]:
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
    return {"removed": len(removed)}


@_ladder_pass
def eliminate_pure_literals(st: PrepState) -> dict[str, object]:
    """Remove variables that occur with a single polarity, satisfying (and
    dropping) every clause that contains them; cascades to fixpoint.

    A variable whose clauses all disappear in the process ends up
    unconstrained; it is recorded too (as pure, satisfied trivially by
    ``True``) so the pass leaves no variable of its input dangling without
    a value.
    """
    started_occurring = st.occurring()
    eliminated = 0
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
            st.condition.add_pure(v, v in pos)
        pure_set = set(pure)
        st.clauses = [
            c for c in st.clauses if not any(abs(l) in pure_set for l in c)
        ]
        eliminated += len(pure)
    vanished = sorted(started_occurring - st.occurring()
                      - set(st.condition.values()))
    for v in vanished:
        st.condition.add_pure(v, True)
    return {"eliminated": eliminated, "vanished": len(vanished)}


# ---------------------------------------------------------------------------
# level 7: degree-guided branching


BRANCH_RATIO = 1.5  # degree over the mean degree that makes a variable a guess


@_ladder_pass
def branch_probe(st: PrepState, max_guesses: int = 1,
                 flip_on_conflict: bool = False) -> dict[str, object]:
    """Guess the most-constrained variables.

    While some variable's interaction-graph degree is at least
    ``BRANCH_RATIO`` times the mean degree (and the guess budget lasts),
    assign the maximum-degree variable a seeded-random value and
    unit-propagate.  A guess that closes the branch (empty clause under
    propagation) stays closed by default — the caller sees the UNSAT
    residual and re-rolls with a fresh seed on the next repeat.  With
    ``flip_on_conflict`` the guess is undone and the other value tried once
    instead; scripted override values are always taken as-is.
    """
    guessed = 0
    flipped = 0
    while not st.unsat and guessed < max_guesses:
        neighbours: dict[int, set[int]] = {}
        for c in st.clauses:
            vs = {abs(l) for l in c}
            for v in vs:
                neighbours.setdefault(v, set()).update(vs)
        if not neighbours:
            break
        degree = {v: len(ns) - 1 for v, ns in neighbours.items()}
        mean = sum(degree.values()) / len(degree)
        v = min(degree, key=lambda x: (-degree[x], x))
        if degree[v] < BRANCH_RATIO * mean:
            break
        if st.branch_override:
            value = st.branch_override.popleft()
            scripted = True
        else:
            value = st.rng.random() < 0.5
            scripted = False
        guessed += 1
        new, fixes, bad = _unit_fixpoint(
            [*st.clauses, (v if value else -v,)])
        if bad and not scripted and flip_on_conflict:
            value = not value
            flipped += 1
            new, fixes, bad = _unit_fixpoint(
                [*st.clauses, (v if value else -v,)])
        st.clauses = new
        for var, val in fixes:
            st.condition.add_fix(var, val)
        st.branch_decisions.append(BranchDecision(v, value))
    return {"guessed": guessed, "flipped": flipped}


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

MAX_LEVEL = 7


@dataclass(frozen=True)
class LadderResult:
    cnf: Cnf
    condition: ConditionList
    reports: tuple[PassReport, ...]
    unsat: bool
    branch_decisions: tuple[BranchDecision, ...]

    @property
    def vars_remaining(self) -> int:
        return len(self.cnf.occurring_vars())


def _stabilize(st: PrepState, level: int, trigger: str,
               reports: list[PassReport]) -> None:
    """Settle interleaved consequences of a pass: propagate fresh unit
    clauses (levels >= 2), then push new master values through the condition
    list (levels >= 4), until neither has work left."""
    while not st.unsat:
        ran = []
        if level >= 2 and st.census().has_unit:
            ran.append(propagate_1sat(st))
        if level >= 4:
            values = st.condition.values()
            has_pending = any(
                r.kind == "sub" and r.var not in values and r.root in values
                for r in st.condition.records
            )
            if has_pending:
                ran.append(propagate_replaced_values(st))
        if not ran:
            break
        reports.extend(replace(rep, details={**rep.details, "trigger": trigger})
                       for rep in ran)


def run_ladder(
    cnf: Cnf,
    level: int,
    seed: int = 0,
    branch_override: list[bool] | None = None,
    max_guesses: int = 1,
    flip_on_conflict: bool = False,
) -> LadderResult:
    """Apply every ladder pass up to ``level`` (cumulative, 0..7)."""
    if not 0 <= level <= MAX_LEVEL:
        raise ValueError(f"level must be between 0 and {MAX_LEVEL}")
    st = PrepState(
        num_vars=cnf.num_vars,
        clauses=list(cnf.clauses),
        condition=ConditionList(),
        rng=random.Random(seed),
        branch_override=deque(branch_override) if branch_override is not None else None,
    )
    reports: list[PassReport] = []
    for lvl in range(1, level + 1):
        for fn in LADDER_PASSES[lvl]:
            if st.unsat:
                break
            if fn is branch_probe:
                reports.append(branch_probe(st, max_guesses=max_guesses,
                                            flip_on_conflict=flip_on_conflict))
            else:
                reports.append(fn(st))
            if fn is not reencode_option2:
                _stabilize(st, level, fn.__name__, reports)
        if st.unsat:
            break
    out = Cnf(
        cnf.num_vars,
        tuple(st.clauses),
        provenance=f"{cnf.provenance}|ladder{level}" if cnf.provenance else f"ladder{level}",
    )
    return LadderResult(
        cnf=out,
        condition=st.condition,
        reports=tuple(reports),
        unsat=st.unsat,
        branch_decisions=tuple(st.branch_decisions),
    )
