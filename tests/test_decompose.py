"""Subproblem selection, freezing, plateau merging, and the iterate loop."""
from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from isingsat.cnf import (
    brute_force_solutions,
    clause_satisfied,
    count_satisfied,
    evaluate,
    make_cnf,
)
from isingsat.circuit import generate_instance
from isingsat.decompose import (
    DecompositionRun,
    FilterState,
    GlobalState,
    build_vig,
    freeze_and_extract,
    iterate,
    select_bfs,
    select_dfs,
    update_global,
)
from isingsat.preprocess import ConditionList, run_ladder

from conftest import random_3sat


def _gs(cnf, assignment):
    return GlobalState.start(cnf, dict(assignment))


# ---------------------------------------------------------------------------
# interaction graph


def test_vig_cooccurrence():
    cnf = make_cnf(4, [(1, 2, 3), (2, -4)])
    vig = build_vig(cnf)
    assert vig.neighbors(2) == (1, 3, 4)
    assert vig.degree(2) == 3
    assert vig.degree(4) == 1
    assert vig.nodes == [1, 2, 3, 4]


def test_vig_ignores_self_loops():
    vig = build_vig(make_cnf(2, [(1, -1), (1, 2)]))
    assert vig.neighbors(1) == (2,)


# ---------------------------------------------------------------------------
# selection walks


def _chain_cnf(n):
    """Path graph: i -- i+1."""
    return make_cnf(n, [(i, i + 1) for i in range(1, n)])


def test_bfs_select_is_ball():
    cnf = make_cnf(7, [(1, 2), (1, 3), (2, 4), (2, 5), (3, 6), (6, 7)])
    vig = build_vig(cnf)
    sel = select_bfs(vig, budget=4, start=1)
    # BFS from 1 visits 1, then neighbors 2, 3, then 2's children
    assert sel == {1, 2, 3, 4}


def test_dfs_select_extends_chains():
    cnf = _chain_cnf(10)
    vig = build_vig(cnf)
    sel = select_dfs(vig, budget=5, start=1)
    assert sel == {1, 2, 3, 4, 5}  # one unbroken chain


def test_selection_respects_ancilla_cost():
    # a 3-wide clause over three selected vars costs one extra spin
    cnf = make_cnf(3, [(1, 2, 3)])
    vig = build_vig(cnf)
    assert select_dfs(vig, budget=3, start=1) != {1, 2, 3}
    assert select_dfs(vig, budget=4, start=1) == {1, 2, 3}


def test_selection_restarts_across_components():
    # disconnected graph: big budget selects everything
    cnf = make_cnf(6, [(1, 2), (3, 4), (5, 6)])
    vig = build_vig(cnf)
    assert select_bfs(vig, budget=6, start=1) == {1, 2, 3, 4, 5, 6}
    assert select_dfs(vig, budget=6, start=5) == {1, 2, 3, 4, 5, 6}


def test_filter_parks_cooling_vars():
    cnf = _chain_cnf(4)
    vig = build_vig(cnf)
    filt = FilterState(window=2)
    filt.note_selection({1, 2})
    filt.note_selection({1, 2})  # streak reaches the window: cooldown starts
    assert filt.is_cooling(1) and filt.is_cooling(2)
    sel = select_bfs(vig, budget=2, start=3, filt=filt)
    assert sel == {3, 4}  # cooling vars parked behind fresh ones


def test_filter_cooldown_expires():
    filt = FilterState(window=2)
    filt.note_selection({1})
    filt.note_selection({1})
    assert filt.is_cooling(1)
    filt.note_selection(set())
    filt.note_selection(set())
    assert not filt.is_cooling(1)


# ---------------------------------------------------------------------------
# freezing


def test_freeze_worked_example():
    # (a v b)(a v ~b)(~a v b)(a v ~b v c) with a frozen false
    cnf = make_cnf(3, [(1, 2), (1, -2), (-1, 2), (1, -2, 3)])
    sub = freeze_and_extract(cnf, {2, 3}, _gs(cnf, {1: False}))
    assert sub.sub_cnf.clauses == ((2,), (-2,), (-2, 3))
    assert sub.satisfied_baseline == 1


def test_freeze_conflicting_units_maxsat():
    # the (b)(~b) conflict: minimum energy 1 at either value
    cnf = make_cnf(2, [(1, 2), (1, -2)])
    sub = freeze_and_extract(cnf, {2}, _gs(cnf, {1: False}))
    q = sub.qubo
    energies = {x: q.energy({0: x}) for x in (0, 1)}
    assert energies == {0: 1.0, 1: 1.0}


def test_freeze_emptied_clause_is_offset():
    cnf = make_cnf(2, [(1,), (2,)])
    sub = freeze_and_extract(cnf, {2}, _gs(cnf, {1: False}))
    assert () in sub.sub_cnf.clauses
    assert sub.qubo.offset >= 1.0


def test_freeze_counts_ancillas_in_spin_cost():
    cnf = make_cnf(4, [(1, 2, 3), (1, 2, 4)])
    sub = freeze_and_extract(cnf, {1, 2, 3}, _gs(cnf, {4: True}))
    # clause (1,2,4) satisfied by the frozen true 4; one 3-wide clause kept
    assert sub.satisfied_baseline == 1
    assert sub.spin_cost == 4


def test_freeze_rejects_empty_selection():
    cnf = make_cnf(1, [(1,)])
    with pytest.raises(ValueError):
        freeze_and_extract(cnf, set(), _gs(cnf, {}))


def test_freeze_default_false_for_unassigned():
    cnf = make_cnf(2, [(2, 1)])
    sub = freeze_and_extract(cnf, {2}, _gs(cnf, {}))
    assert sub.sub_cnf.clauses == ((2,),)


# ---------------------------------------------------------------------------
# merging


def test_update_global_accepts_plateau_and_better():
    cnf = make_cnf(2, [(1,), (2,)])
    state = _gs(cnf, {1: False, 2: True})
    assert state.best_count == 1
    assert update_global(state, {1: True}, {1}, cnf)
    assert state.best_count == 2
    assert state.assignment[1] is True
    # plateau: conflicting units (1)(~1) score 1 either way; flip accepted
    conflict = make_cnf(1, [(1,), (-1,)])
    state2 = _gs(conflict, {1: True})
    assert state2.best_count == 1
    assert update_global(state2, {1: False}, {1}, conflict)
    assert state2.best_count == 1
    assert state2.assignment[1] is False


def test_update_global_rejects_worse():
    cnf = make_cnf(2, [(1,), (2,)])
    state = _gs(cnf, {1: True, 2: True})
    assert state.best_count == 2
    assert not update_global(state, {1: False}, {1}, cnf)
    assert state.assignment[1] is True  # rolled back
    assert state.best_count == 2


def test_update_global_notes_filter():
    cnf = make_cnf(1, [(1,)])
    filt = FilterState(window=1)
    state = _gs(cnf, {1: False})
    update_global(state, {1: True}, {1}, cnf, filt=filt)
    assert filt.is_cooling(1)


# ---------------------------------------------------------------------------
# incremental bookkeeping against full rescans


def _naive_freeze(cnf, selected, assignment):
    """Walk every clause: drop those a true frozen literal satisfies, strip
    the false frozen literals from the rest."""
    kept = []
    for clause in cnf.clauses:
        if not any(abs(lit) not in selected and (lit > 0) == assignment[abs(lit)]
                   for lit in clause):
            kept.append(tuple(lit for lit in clause if abs(lit) in selected))
    spin_cost = len(selected) + sum(1 for c in kept if len(c) == 3)
    return tuple(kept), spin_cost, cnf.num_clauses - len(kept)


@st.composite
def _merge_walks(draw):
    """Random 3SAT (small n, so clauses often repeat a variable), a starting
    assignment, and a sequence of (selection, values) merges."""
    n = draw(st.integers(3, 8))
    lit = st.integers(1, n).flatmap(lambda v: st.sampled_from((v, -v)))
    clauses = draw(st.lists(st.tuples(lit, lit, lit), min_size=1, max_size=30))
    values = st.lists(st.booleans(), min_size=n, max_size=n)
    start = draw(values)
    steps = draw(st.lists(st.tuples(st.sets(st.integers(1, n), min_size=1), values),
                          min_size=1, max_size=8))
    return make_cnf(n, clauses), start, steps


@given(_merge_walks())
@settings(max_examples=100, deadline=None)
def test_incremental_counts_match_full_rescan(walk):
    cnf, start, steps = walk
    state = _gs(cnf, {v: start[v - 1] for v in range(1, cnf.num_vars + 1)})
    for selected, bits in steps:
        before = dict(state.assignment)
        sub = freeze_and_extract(cnf, selected, state)
        assert (sub.sub_cnf.clauses, sub.spin_cost, sub.satisfied_baseline) == \
            _naive_freeze(cnf, selected, before)
        proposal = {v: bits[v - 1] for v in selected}
        accepted = update_global(state, proposal, selected, cnf)
        candidate = {**before, **proposal}
        assert accepted == (count_satisfied(cnf.clauses, candidate)
                            >= count_satisfied(cnf.clauses, before))
        assert state.assignment == (candidate if accepted else before)
        assert state.best_count == count_satisfied(cnf.clauses, state.assignment)
        assert state.unsat == {ci for ci, c in enumerate(cnf.clauses)
                               if not clause_satisfied(c, state.assignment)}


# ---------------------------------------------------------------------------
# the iterate loop


def test_iterate_solves_small_random_instances():
    rng = random.Random(3)
    solved = 0
    for i in range(6):
        cnf = random_3sat(12, 30, rng)
        if not brute_force_solutions(cnf):
            continue
        run = iterate(cnf, ConditionList(), cnf, budget=14, cap=400, seed=i)
        assert run.solved and run.verified, i
        solved += 1
    assert solved >= 4


def test_iterate_returns_run_metadata():
    cnf = random_3sat(10, 24, random.Random(5))
    run = iterate(cnf, ConditionList(), cnf, budget=12, cap=300, seed=2)
    assert isinstance(run, DecompositionRun)
    assert run.iterations_used <= 300
    assert run.solver_calls >= run.iterations_used
    assert run.num_clauses == cnf.num_clauses
    if run.solved:
        assert run.reason == "solved"
        assert run.best_satisfied == cnf.num_clauses


def test_iterate_deterministic():
    cnf = random_3sat(12, 34, random.Random(8))
    a = iterate(cnf, ConditionList(), cnf, budget=12, cap=150, seed=9)
    b = iterate(cnf, ConditionList(), cnf, budget=12, cap=150, seed=9)
    assert (a.solved, a.iterations_used, a.solver_calls, a.best_satisfied) == \
        (b.solved, b.iterations_used, b.solver_calls, b.best_satisfied)
    assert a.assignment == b.assignment


def test_iterate_bfs_strategy_and_unknown_strategy():
    cnf = random_3sat(10, 25, random.Random(4))
    run = iterate(cnf, ConditionList(), cnf, strategy="bfs", budget=12, cap=300, seed=1)
    assert run.iterations_used >= 0
    with pytest.raises(ValueError):
        iterate(cnf, ConditionList(), cnf, strategy="random", budget=12)


def test_iterate_empty_residual_needs_no_solver():
    cnf, _, _ = generate_instance(4)
    res = run_ladder(cnf, 7, seed=1)
    run = iterate(res.cnf, res.condition, cnf, budget=45, cap=100, seed=0)
    assert run.solved and run.verified
    assert run.solver_calls == 0 and run.iterations_used == 0


def test_iterate_unsat_marker_short_circuits():
    cnf = make_cnf(2, [(), (1, 2)])
    run = iterate(cnf, ConditionList(), cnf, budget=10, cap=50, seed=0)
    assert not run.solved
    assert run.reason == "unsat-marker"
    assert run.solver_calls == 0


def test_iterate_budget_too_small():
    # conflicting units can never be fully satisfied, so the loop must
    # attempt a selection — which a zero budget cannot afford
    cnf = make_cnf(1, [(1,), (-1,)])
    run = iterate(cnf, ConditionList(), cnf, budget=0, cap=10, seed=0)
    assert not run.solved
    assert run.reason == "budget-too-small"


def test_iterate_keeps_history_when_asked():
    cnf = random_3sat(10, 25, random.Random(6))
    run = iterate(cnf, ConditionList(), cnf, budget=12, cap=100, seed=3,
                  keep_history=True)
    assert len(run.satisfied_history) == run.iterations_used
    assert all(b <= cnf.num_clauses for b in run.satisfied_history)
    # best-so-far curve is non-decreasing under plateau acceptance
    peaks = [max(run.satisfied_history[: i + 1]) for i in range(len(run.satisfied_history))]
    assert peaks == sorted(peaks)


def test_iterate_trace_capture():
    cnf = random_3sat(10, 25, random.Random(7))
    run = iterate(cnf, ConditionList(), cnf, budget=12, cap=50, seed=1,
                  collect_trace=True)
    if run.solver_calls:
        assert len(run.trace) > 0
        assert len(run.trace[0]) == 3


def test_factor_recovery_through_full_pipeline():
    cnf, nl, inst = generate_instance(8, 143)
    res = run_ladder(cnf, 7, seed=4, max_guesses=2)
    run = iterate(res.cnf, res.condition, cnf, budget=45, cap=1000,
                  seed=4, num_samples=8)
    assert run.solved and run.verified
    a = sum((1 << i) for i, v in enumerate(nl.input_bits_a) if run.assignment[v])
    b = sum((1 << i) for i, v in enumerate(nl.input_bits_b) if run.assignment[v])
    assert a * b == 143
