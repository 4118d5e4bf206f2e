"""Subproblem selection, freezing, plateau merging, and the iterate loop."""
from __future__ import annotations

import random
from collections import deque

import pytest
from hypothesis import example, given, settings, strategies as st

from isingsat.cnf import (
    brute_force_solutions,
    clause_satisfied,
    count_satisfied,
    evaluate,
    make_cnf,
)
from isingsat import decompose
from isingsat.circuit import generate_instance
from isingsat.decompose import (
    FILTER_WINDOW,
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
from isingsat.preprocess import run_ladder
from isingsat.qubo import cnf_to_qubo
from isingsat.solver import _kernels_py, kernels

from conftest import mixed_random_cnf, random_3sat


def _gs(cnf, assignment):
    return GlobalState.start(cnf, dict(assignment), build_vig(cnf).occurrences)


# one read per solver call on the emulator, DFS unless a test says otherwise
ONE_READ = dict(strategy="dfs", backend="emulator", num_samples=1)


# ---------------------------------------------------------------------------
# interaction graph


def test_vig_cooccurrence():
    cnf = make_cnf(4, [(1, 2, 3), (2, -4)])
    vig = build_vig(cnf)
    assert vig.adjacency[2] == (1, 3, 4)
    assert vig.dfs_order[2] == (3, 1, 4)  # degree 2, 2, 1; ties by -u
    assert vig.nodes == [1, 2, 3, 4]


def test_vig_ignores_self_loops():
    vig = build_vig(make_cnf(2, [(1, -1), (1, 2)]))
    assert vig.adjacency[1] == (2,)


def test_vig_dfs_order_is_the_degree_sort():
    """A DFS walk pushes the same neighbours as a BFS walk, by descending
    degree, ties by descending variable."""
    rng = random.Random(4)
    for _ in range(20):
        vig = build_vig(mixed_random_cnf(rng.randint(3, 12), rng.randint(1, 30), rng))
        assert set(vig.dfs_order) == set(vig.adjacency) == set(vig.nodes)
        for v, nbrs in vig.adjacency.items():
            assert vig.dfs_order[v] == tuple(
                sorted(nbrs, key=lambda u: (-len(vig.adjacency[u]), -u)))


# ---------------------------------------------------------------------------
# selection walks


def _chain_cnf(n):
    """Path graph: i -- i+1."""
    return make_cnf(n, [(i, i + 1) for i in range(1, n)])


def test_bfs_select_is_ball():
    cnf = make_cnf(7, [(1, 2), (1, 3), (2, 4), (2, 5), (3, 6), (6, 7)])
    vig = build_vig(cnf)
    sel = select_bfs(vig, budget=4, start=1, filt=FilterState())
    # BFS from 1 visits 1, then neighbors 2, 3, then 2's children
    assert sel == {1, 2, 3, 4}


def test_dfs_select_extends_chains():
    cnf = _chain_cnf(10)
    vig = build_vig(cnf)
    sel = select_dfs(vig, budget=5, start=1, filt=FilterState())
    assert sel == {1, 2, 3, 4, 5}  # one unbroken chain


def test_selection_respects_ancilla_cost():
    # a 3-wide clause over three selected vars costs one extra spin
    cnf = make_cnf(3, [(1, 2, 3)])
    vig = build_vig(cnf)
    assert select_dfs(vig, budget=3, start=1, filt=FilterState()) != {1, 2, 3}
    assert select_dfs(vig, budget=4, start=1, filt=FilterState()) == {1, 2, 3}


def test_selection_restarts_across_components():
    # disconnected graph: big budget selects everything
    cnf = make_cnf(6, [(1, 2), (3, 4), (5, 6)])
    vig = build_vig(cnf)
    assert select_bfs(vig, budget=6, start=1, filt=FilterState()) == {1, 2, 3, 4, 5, 6}
    assert select_dfs(vig, budget=6, start=5, filt=FilterState()) == {1, 2, 3, 4, 5, 6}


def test_filter_parks_cooling_vars():
    cnf = _chain_cnf(4)
    vig = build_vig(cnf)
    filt = FilterState()
    for _ in range(FILTER_WINDOW - 1):
        filt.note_selection({1, 2})
    assert 1 not in filt.cooldown
    filt.note_selection({1, 2})  # streak reaches the window: cooldown starts
    assert 1 in filt.cooldown and 2 in filt.cooldown
    sel = select_bfs(vig, budget=2, start=3, filt=filt)
    assert sel == {3, 4}  # cooling vars parked behind fresh ones


def _reference_walk(vig, budget, start, cooldown, depth_first):
    """The walk with a push closure that tests ``queued`` and ``selected``
    apart and looks the cooldown up on every push."""
    selected, queued = set(), set()
    ancillas = 0
    active, parked = deque(), deque()

    def push(v):
        if v in queued or v in selected:
            return
        queued.add(v)
        (parked if cooldown.get(v, 0) > 0 else active).append(v)

    push(start)
    while True:
        if active or parked:
            lane = active or parked
            v = lane.pop() if depth_first else lane.popleft()
        else:
            rest = [u for u in vig.nodes if u not in queued and u not in selected]
            if not rest:
                break
            push(rest[0])
            continue
        queued.discard(v)
        selected.add(v)
        extra = sum(1 for a, b in vig.triangles.get(v, ())
                    if a in selected and b in selected)
        if len(selected) + ancillas + extra > budget:
            selected.discard(v)
            break
        ancillas += extra
        for u in (vig.dfs_order if depth_first else vig.adjacency)[v]:
            push(u)
    return selected


@st.composite
def _formulas(draw, offset=0):
    """A small formula whose 3-clauses may repeat a variable, its variables
    ``offset + 1 .. num_vars``."""
    n = draw(st.integers(2, 14))
    lit = st.integers(1 + offset, n + offset).flatmap(lambda v: st.sampled_from((v, -v)))
    clauses = draw(st.lists(st.lists(lit, min_size=1, max_size=3).map(tuple),
                            min_size=n // 2, max_size=2 * n))
    return make_cnf(n + offset, clauses)


@st.composite
def _walk_cases(draw, offset=0):
    """A ``_formulas`` index, a start and a cooldown map with entries at or
    below 0."""
    cnf = draw(_formulas(offset))
    vig = build_vig(cnf)
    start = draw(st.sampled_from(vig.nodes))
    cooldown = draw(st.dictionaries(st.integers(1 + offset, cnf.num_vars),
                                    st.integers(-1, 2)))
    return vig, start, cooldown


@given(_walk_cases())
@settings(max_examples=50, deadline=None)
def test_walks_match_the_reference_walk(case):
    vig, start, cooldown = case
    for budget in range(13):
        for select, depth_first in ((select_bfs, False), (select_dfs, True)):
            filt = FilterState(cooldown=dict(cooldown))
            assert select(vig, budget, start, filt) == _reference_walk(
                vig, budget, start, cooldown, depth_first), (budget, depth_first)
            assert filt.cooldown == cooldown  # a walk reads the filter only


# The compiled walk and freeze against the pure ones, exceptions included.
# Variables above 256 are not cached ints, so the C code meets int objects
# that are equal but not identical.
needs_compiled = pytest.mark.skipif(not kernels.COMPILED_KERNELS,
                                    reason="compiled kernels unavailable")


def _outcome(fn, *args):
    """What ``fn(*args)`` returns, or the type and message of what it raises."""
    try:
        return fn(*args)
    except Exception as exc:  # the exception is the outcome compared
        return type(exc), str(exc)


@needs_compiled
@given(st.one_of(_walk_cases(), _walk_cases(offset=300)), st.booleans())
@example(  # two components, the start cooling, cooldowns from -1 to 2
    (build_vig(make_cnf(5, [(1, 2), (2, 2, 3), (4, -5)])), 1,
     {1: 2, 2: 1, 3: 0, 4: -1}), False)
@example((build_vig(make_cnf(305, [(301, -302, 302), (303, 304), (305,)])), 303,
          {301: 1, 304: 2}), False)
@example((build_vig(make_cnf(3, [(1, 2)])), 1, {}), True)
@settings(max_examples=100, deadline=None)
def test_compiled_walk_matches_the_pure_walk(case, outside):
    vig, start, cooldown = case
    if outside:  # a start the index lacks: a KeyError once it is selected
        start = vig.nodes[-1] + 1
    for budget in range(13):
        for pushes, depth_first in ((vig.adjacency, False), (vig.dfs_order, True)):
            args = (pushes, vig.triangles, vig.nodes, cooldown, budget, start, depth_first)
            assert _outcome(kernels.walk, *args) == _outcome(_kernels_py.walk, *args), (
                budget, depth_first)


def _freeze_case(num_vars, clauses, selected, values, lacking=None):
    """The arguments of a freeze: a formula, a selection and its state,
    whose assignment lacks ``lacking``."""
    cnf = make_cnf(num_vars, clauses)
    state = _gs(cnf, values)
    state.assignment.pop(lacking, None)
    return cnf, set(selected), state


@st.composite
def _freeze_cases(draw):
    """A ``_formulas`` formula, its variables above 256 or not, any selection
    of its variables and a state whose assignment may lack a frozen one."""
    cnf = draw(_formulas(draw(st.sampled_from((0, 300)))))
    nodes = build_vig(cnf).nodes
    selected = draw(st.sets(st.sampled_from(nodes)))
    frozen = [v for v in nodes if v not in selected]
    lacking = draw(st.sampled_from(frozen)) if frozen and draw(st.booleans()) else None
    values = {v: draw(st.booleans()) for v in nodes}
    return _freeze_case(cnf.num_vars, cnf.clauses, selected, values, lacking)


@needs_compiled
@given(_freeze_cases())
@example(  # (v, v, u) and (v, -v, u) kept, (2, 3) emptied, (-1,) unsatisfied
    _freeze_case(3, [(1, 1, 2), (1, -1, 3), (2, 3), (-1,), (2, -3)], {1},
                 {1: True, 2: False, 3: False}))
@example(_freeze_case(303, [(301, -302, 303), (-301, -301, 302), (302, 303)], {301},
                      {301: False, 302: True, 303: False}))
@example(_freeze_case(303, [(301, -302, 303), (-301, -301, 302)], {301},
                      {301: False, 302: True, 303: False}, lacking=302))
@settings(max_examples=200, deadline=None)
def test_compiled_freeze_matches_the_pure_freeze(case):
    cnf, selected, state = case
    args = (cnf.clauses, state.occurrences, selected, state.assignment, state.true_count)
    assert _outcome(kernels.freeze, *args) == _outcome(_kernels_py.freeze, *args)


@needs_compiled
def test_compiled_freeze_needs_ascending_occurrence_lists():
    # it merges the lists where the oracle sorts; build_vig makes them ascending
    with pytest.raises(ValueError, match="not ascending"):
        kernels.freeze(((1,), (1, 2)), {1: (1, 0)}, {1}, {1: True, 2: False}, [1, 1])


def test_filter_cooldown_expires():
    filt = FilterState()
    for _ in range(FILTER_WINDOW):
        filt.note_selection({1})
    for _ in range(FILTER_WINDOW - 1):
        filt.note_selection(set())
        assert 1 in filt.cooldown
    filt.note_selection(set())
    assert 1 not in filt.cooldown


# ---------------------------------------------------------------------------
# freezing


def test_freeze_worked_example():
    # (a v b)(a v ~b)(~a v b)(a v ~b v c) with a frozen false
    cnf = make_cnf(3, [(1, 2), (1, -2), (-1, 2), (1, -2, 3)])
    sub = freeze_and_extract(cnf, {2, 3}, _gs(cnf, {1: False}))
    assert sub.qubo == cnf_to_qubo([(2,), (-2,), (-2, 3)])
    assert sub.spin_cost == 2


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
    assert sub.qubo == cnf_to_qubo([(), (2,)])
    assert sub.qubo.offset >= 1.0


def test_slices_count_emptied_clauses_instead_of_listing_them(monkeypatch):
    cnf = generate_instance(16, 32881)[0]
    built = []
    monkeypatch.setattr(decompose, "cnf_to_qubo",
                        lambda clauses: built.append(clauses) or cnf_to_qubo(clauses))
    iterate(cnf, (), cnf, **ONE_READ, budget=20, cap=5, seed=1,
            collect_trace=False)
    assert len(built) == 5 and all(map(all, built))  # no () reaches the build


def test_freeze_counts_ancillas_in_spin_cost():
    cnf = make_cnf(4, [(1, 2, 3), (1, 2, 4)])
    sub = freeze_and_extract(cnf, {1, 2, 3}, _gs(cnf, {4: True}))
    # clause (1,2,4) satisfied by the frozen true 4; one 3-wide clause kept
    assert sub.qubo == cnf_to_qubo([(1, 2, 3)])
    assert sub.spin_cost == 4


def test_freeze_rejects_empty_selection():
    cnf = make_cnf(1, [(1,)])
    with pytest.raises(ValueError):
        freeze_and_extract(cnf, set(), _gs(cnf, {}))


def test_freeze_default_false_for_unassigned():
    cnf = make_cnf(2, [(2, 1)])
    sub = freeze_and_extract(cnf, {2}, _gs(cnf, {}))
    assert sub.qubo == cnf_to_qubo([(2,)])


# ---------------------------------------------------------------------------
# merging


def test_update_global_accepts_plateau_and_better():
    cnf = make_cnf(2, [(1,), (2,)])
    state = _gs(cnf, {1: False, 2: True})
    assert state.best_count == 1
    assert update_global(state, {1: True}, cnf)
    assert state.best_count == 2
    assert state.assignment[1] is True
    # plateau: conflicting units (1)(~1) score 1 either way; flip accepted
    conflict = make_cnf(1, [(1,), (-1,)])
    state2 = _gs(conflict, {1: True})
    assert state2.best_count == 1
    assert update_global(state2, {1: False}, conflict)
    assert state2.best_count == 1
    assert state2.assignment[1] is False


def test_update_global_rejects_worse():
    cnf = make_cnf(2, [(1,), (2,)])
    state = _gs(cnf, {1: True, 2: True})
    assert state.best_count == 2
    assert not update_global(state, {1: False}, cnf)
    assert state.assignment[1] is True  # rolled back
    assert state.best_count == 2


def test_iterate_notes_every_selection_in_the_filter(monkeypatch):
    noted, picked = [], []

    class Recording(FilterState):
        def note_selection(self, selected):
            noted.append(set(selected))
            super().note_selection(selected)

    select = decompose.select_dfs
    monkeypatch.setattr(decompose, "FilterState", Recording)
    monkeypatch.setattr(decompose, "select_dfs",
                        lambda *args: picked.append(select(*args)) or picked[-1])
    cnf = random_3sat(10, 60, random.Random(5))  # too dense to solve in 4
    run = iterate(cnf, (), cnf, **ONE_READ, budget=6, cap=4, seed=1,
                  collect_trace=False)
    assert noted == picked and len(noted) == run.iterations_used == 4


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
    return cnf_to_qubo(kept), spin_cost


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
    _assert_pool_matches_rescan(cnf, state)
    for selected, bits in steps:
        before = dict(state.assignment)
        sub = freeze_and_extract(cnf, selected, state)
        assert (sub.qubo, sub.spin_cost) == _naive_freeze(cnf, selected, before)
        proposal = {v: bits[v - 1] for v in selected}
        accepted = update_global(state, proposal, cnf)
        assert state.best_count >= count_satisfied(cnf.clauses, before)  # never drops
        candidate = {**before, **proposal}
        assert accepted == (count_satisfied(cnf.clauses, candidate)
                            >= count_satisfied(cnf.clauses, before))
        assert state.assignment == (candidate if accepted else before)
        assert state.best_count == count_satisfied(cnf.clauses, state.assignment)
        unsat = [ci for ci, c in enumerate(cnf.clauses)
                 if not clause_satisfied(c, state.assignment)]
        assert [ci for ci, k in enumerate(state.true_count) if k == 0] == unsat
        assert state.unsat == len(unsat)
        _assert_pool_matches_rescan(cnf, state)


def _assert_pool_matches_rescan(cnf, state):
    unsat_vars = [{abs(lit) for lit in c}
                  for c, k in zip(cnf.clauses, state.true_count) if k == 0]
    assert state.unsat == len(unsat_vars)
    assert state.pool == sorted(set().union(*unsat_vars))
    assert state.unsat_degree == {v: sum(v in vs for vs in unsat_vars)
                                  for v in cnf.occurring_vars()}


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_start_counts_every_true_literal(data):
    """On few variables clauses often repeat a literal or hold both of a
    variable's literals; each true occurrence counts, and a variable the
    assignment lacks starts False."""
    n = data.draw(st.integers(1, 4))
    lit = st.integers(1, n).flatmap(lambda v: st.sampled_from((v, -v)))
    cnf = make_cnf(n, data.draw(st.lists(st.lists(lit, max_size=4), max_size=12)))
    given_values = data.draw(st.dictionaries(st.integers(1, n), st.booleans()))
    state = _gs(cnf, given_values)
    value = {v: given_values.get(v, False) for v in range(1, n + 1)}
    assert state.true_count == [sum(1 for lit in c if (lit > 0) == value[abs(lit)])
                                for c in cnf.clauses]
    assert state.unsat == state.true_count.count(0)
    _assert_pool_matches_rescan(cnf, state)


# ---------------------------------------------------------------------------
# the iterate loop


def test_spin_cost_counts_repeated_variable_3_clauses():
    """(v, v, u), (v, -v, u) and (v, v, v) keep their ancilla in the QUBO, so
    the walks count them: no selection overshoots the budget."""
    rng = random.Random(11)
    for trial in range(30):
        base = mixed_random_cnf(8, 18, rng)
        extra = []
        for _ in range(rng.randint(1, 4)):
            v, u = rng.sample(range(1, 9), 2)
            extra.append(rng.choice(((v, v, u), (v, -v, u), (-v, u, v), (v, v, v))))
        cnf = make_cnf(8, list(base.clauses) + extra)
        vig = build_vig(cnf)
        state = GlobalState.start(cnf, {v: rng.random() < 0.5 for v in range(1, 9)},
                                  vig.occurrences)
        for budget in (2, 3, 5, 8):
            for start in vig.nodes:
                for select in (select_bfs, select_dfs):
                    selected = select(vig, budget, start, FilterState())
                    if selected:
                        sub = freeze_and_extract(cnf, selected, state)
                        assert sub.spin_cost <= budget
                        assert sub.qubo.num_vars <= budget
        # iterate raises when a slice's spin cost overshoots the budget
        iterate(cnf, (), cnf, strategy="dfs", backend="tabu",
                budget=5, cap=20, seed=trial, num_samples=1, collect_trace=False)


def test_tabu_skips_chip_scaling(monkeypatch):
    """Tabu solves the unscaled model, so no slice is scaled for it."""
    def no_scaling(*args, **kwargs):
        raise AssertionError("scale_to_chip called for the tabu backend")

    monkeypatch.setattr(decompose, "scale_to_chip", no_scaling)
    cnf = random_3sat(12, 40, random.Random(5))
    run = iterate(cnf, (), cnf, strategy="dfs", backend="tabu",
                  budget=45, cap=5, seed=1, num_samples=1, collect_trace=False)
    assert run.solver_calls > 0


def test_iterate_solves_small_random_instances():
    rng = random.Random(3)
    solved = 0
    for i in range(6):
        cnf = random_3sat(12, 30, rng)
        if not brute_force_solutions(cnf):
            continue
        run = iterate(cnf, (), cnf, **ONE_READ, budget=14, cap=400,
                      seed=i, collect_trace=False)
        assert run.solved and evaluate(cnf, run.assignment), i
        solved += 1
    assert solved >= 4


def test_iterate_returns_run_metadata():
    cnf = random_3sat(10, 24, random.Random(5))
    run = iterate(cnf, (), cnf, **ONE_READ, budget=12, cap=300, seed=2,
                  collect_trace=False)
    assert isinstance(run, DecompositionRun)
    assert run.iterations_used <= 300
    assert run.solver_calls >= run.iterations_used
    assert run.num_clauses == cnf.num_clauses
    if run.solved:
        assert run.reason == "solved"
        assert run.best_satisfied == cnf.num_clauses


def test_iterate_deterministic():
    cnf = random_3sat(12, 34, random.Random(8))
    a = iterate(cnf, (), cnf, **ONE_READ, budget=12, cap=150, seed=9,
                collect_trace=False)
    b = iterate(cnf, (), cnf, **ONE_READ, budget=12, cap=150, seed=9,
                collect_trace=False)
    assert (a.solved, a.iterations_used, a.solver_calls, a.best_satisfied) == \
        (b.solved, b.iterations_used, b.solver_calls, b.best_satisfied)
    assert a.assignment == b.assignment


def test_iterate_bfs_strategy_and_unknown_strategy():
    cnf = random_3sat(10, 25, random.Random(4))
    run = iterate(cnf, (), cnf, strategy="bfs", backend="emulator",
                  budget=12, cap=300, seed=1, num_samples=1, collect_trace=False)
    assert run.iterations_used >= 0
    with pytest.raises(ValueError):
        iterate(cnf, (), cnf, strategy="random", backend="emulator",
                budget=12, cap=300, seed=1, num_samples=1, collect_trace=False)


def test_iterate_empty_residual_needs_no_solver():
    cnf, _ = generate_instance(4, 9)
    res = run_ladder(cnf, 7, seed=1)
    run = iterate(res.cnf, res.condition, cnf, **ONE_READ, budget=45, cap=100,
                  seed=0, collect_trace=False)
    assert run.solved and evaluate(cnf, run.assignment)
    assert run.solver_calls == 0 and run.iterations_used == 0


def test_iterate_unsat_marker_short_circuits():
    cnf = make_cnf(2, [(), (1, 2)])
    run = iterate(cnf, (), cnf, **ONE_READ, budget=10, cap=50, seed=0,
                  collect_trace=False)
    assert not run.solved
    assert run.reason == "unsat-marker"
    assert run.solver_calls == 0


def test_iterate_refuses_a_clause_wider_than_3():
    # freezing could shorten a 4-literal clause to a 3-literal one whose
    # ancilla the walk never counted: refused before any draw, even at cap 0
    cnf = make_cnf(4, [(1, 2, 3, 4), (-1, -2, -3, -4), (1, -2, 3, -4),
                       (-1, 2, -3, 4)])
    with pytest.raises(ValueError, match="clause width 4 exceeds 3"):
        iterate(cnf, (), cnf, **ONE_READ, budget=45, cap=0, seed=0,
                collect_trace=False)


def test_iterate_budget_too_small():
    # conflicting units can never be fully satisfied, so the loop must
    # attempt a selection — which a zero budget cannot afford
    cnf = make_cnf(1, [(1,), (-1,)])
    run = iterate(cnf, (), cnf, **ONE_READ, budget=0, cap=10, seed=0,
                  collect_trace=False)
    assert not run.solved
    assert run.reason == "budget-too-small"


def test_iterate_keeps_history_when_asked():
    # the per-iteration history is rebuilt from runs that share a seed and
    # stop at successive caps: each is a prefix of the longer ones
    cnf = random_3sat(10, 25, random.Random(6))
    history = []
    for cap in range(1, 16):
        run = iterate(cnf, (), cnf, **ONE_READ, budget=12, cap=cap, seed=3,
                      collect_trace=False)
        assert run.iterations_used == cap or run.solved
        assert run.best_satisfied <= cnf.num_clauses
        history.append(run.best_satisfied)
        if run.solved:
            break
    # best-so-far curve is non-decreasing under plateau acceptance
    assert history == sorted(history)


def test_iterate_trace_capture():
    cnf = random_3sat(10, 25, random.Random(7))
    run = iterate(cnf, (), cnf, **ONE_READ, budget=12, cap=50,
                  seed=1, collect_trace=True)
    if run.solver_calls:
        assert len(run.trace) > 0
        assert len(run.trace[0]) == 3


def test_factor_recovery_through_full_pipeline():
    cnf, nl = generate_instance(8, 143)
    res = run_ladder(cnf, 7, seed=4)
    run = iterate(res.cnf, res.condition, cnf, strategy="dfs",
                  backend="emulator", budget=45, cap=1000, seed=4, num_samples=8,
                  collect_trace=False)
    assert run.solved and evaluate(cnf, run.assignment)
    a = sum((1 << i) for i, v in enumerate(nl.input_bits_a) if run.assignment[v])
    b = sum((1 << i) for i, v in enumerate(nl.input_bits_b) if run.assignment[v])
    assert a * b == 143
