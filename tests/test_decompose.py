"""Subproblem selection, freezing, plateau merging, and the iterate loop."""
from __future__ import annotations

import random
import tracemalloc
from array import array
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
from isingsat.preprocess import ConditionRecord, run_ladder
from isingsat.qubo import cnf_to_qubo
from isingsat.solver import _kernels_py, kernels
from isingsat.solver._kernels_py import row

from conftest import codes, mixed_random_cnf, random_3sat, rank


def _gs(cnf, assignment):
    """The state of ``cnf`` under ``assignment``; a variable it lacks is False."""
    vig = build_vig(cnf)
    return GlobalState.start(vig, bytearray(bool(assignment.get(v)) for v in vig.nodes))


def _ranks(vig, variables):
    """The ranks of those of ``variables`` the index holds."""
    return {r for r in (rank(vig.nodes, v) for v in variables) if r >= 0}


def _variables(vig, ranks):
    return {vig.nodes[r] for r in ranks}


def _assignment(state):
    """The incumbent as a dict, as ``iterate`` makes it when its loop ends."""
    return dict(zip(state.vig.nodes, map(bool, state.values)))


def _freeze(cnf, selected, assignment):
    """``freeze_and_extract`` of the variables ``selected`` under ``assignment``."""
    state = _gs(cnf, assignment)
    return freeze_and_extract(_ranks(state.vig, selected), state)


def _flags(vig):
    """A walk's scratch: one zero byte per node of the index."""
    return bytearray(len(vig.nodes))


# one read per solver call on the emulator, DFS unless a test says otherwise
ONE_READ = dict(strategy="dfs", backend="emulator", num_samples=1)


# ---------------------------------------------------------------------------
# interaction graph


def _dict_index(cnf):
    """The index as dicts keyed by variable, built apart from ``build_vig``:
    neighbours ascending and by the DFS push order, triangle pairs and
    occurrence lists."""
    nbrs, triangles, occurrences = {}, {}, {}
    for ci, clause in enumerate(cnf.clauses):
        vs = {abs(lit) for lit in clause}
        for v in vs:
            nbrs.setdefault(v, set()).update(vs - {v})
            occurrences.setdefault(v, []).append(ci)
            if len(clause) == 3:  # the other two, v standing in for any missing
                others = sorted(vs - {v}) + [v] * (3 - len(vs))
                triangles.setdefault(v, []).append(tuple(others))
    adjacency = {v: sorted(ns) for v, ns in nbrs.items()}
    dfs_order = {v: sorted(ns, key=lambda u: (-len(nbrs[u]), -u))
                 for v, ns in nbrs.items()}
    return adjacency, dfs_order, triangles, occurrences


def _nodes_of(vig, table, v):
    """The row of variable ``v`` in a table of ranks, as variables."""
    return [vig.nodes[r] for r in row(table, rank(vig.nodes, v))]


def test_vig_cooccurrence():
    cnf = make_cnf(4, [(1, 2, 3), (2, -4)])
    vig = build_vig(cnf)
    assert _nodes_of(vig, vig.bfs, 2) == [1, 3, 4]
    assert _nodes_of(vig, vig.dfs, 2) == [3, 1, 4]  # degree 2, 2, 1; ties by -u
    assert vig.nodes == [1, 2, 3, 4]


def test_vig_ignores_self_loops():
    vig = build_vig(make_cnf(2, [(1, -1), (1, 2)]))
    assert _nodes_of(vig, vig.bfs, 1) == [2]


def test_vig_rows_match_a_dict_index():
    """Every row of the flat index holds what a dict index built apart holds,
    there is a row per variable the formula holds and per clause, and a
    variable it lacks has no rank."""
    rng = random.Random(4)
    for _ in range(20):
        base = mixed_random_cnf(rng.randint(3, 12), rng.randint(1, 30), rng)
        v, u = rng.sample(range(1, base.num_vars + 1), 2)
        cnf = make_cnf(base.num_vars + rng.randint(0, 2),
                       [*base.clauses, (v, v, u), (v, -v, u), (u, u, u)])
        vig = build_vig(cnf)
        nodes = vig.nodes
        adjacency, dfs_order, triangles, occurrences = _dict_index(cnf)
        assert nodes == sorted(occurrences)
        for table in (vig.bfs, vig.dfs, vig.triangles, vig.occurrences):
            assert table[0] == len(nodes) + 1  # a row per node, not per declared var
        assert vig.clauses[0] == cnf.num_clauses + 1
        for v in range(cnf.num_vars + 2):
            if v not in occurrences:
                assert rank(nodes, v) == -1
                continue
            assert _nodes_of(vig, vig.bfs, v) == adjacency[v]
            assert _nodes_of(vig, vig.dfs, v) == dfs_order[v]
            flat = _nodes_of(vig, vig.triangles, v)
            assert list(zip(flat[::2], flat[1::2])) == triangles.get(v, [])
            assert row(vig.occurrences, rank(nodes, v)).tolist() == occurrences[v]
        for ci, clause in enumerate(cnf.clauses):
            assert [-nodes[lit >> 1] if lit & 1 else nodes[lit >> 1]
                    for lit in row(vig.clauses, ci)] == list(clause)


# ---------------------------------------------------------------------------
# selection walks


def _chain_cnf(n):
    """Path graph: i -- i+1."""
    return make_cnf(n, [(i, i + 1) for i in range(1, n)])


def test_bfs_select_is_ball():
    cnf = make_cnf(7, [(1, 2), (1, 3), (2, 4), (2, 5), (3, 6), (6, 7)])
    vig = build_vig(cnf)
    sel = select_bfs(vig, budget=4, start=rank(vig.nodes, 1), filt=FilterState(),
                     flags=_flags(vig))
    # BFS from 1 visits 1, then neighbors 2, 3, then 2's children
    assert _variables(vig, sel) == {1, 2, 3, 4}


def test_dfs_select_extends_chains():
    cnf = _chain_cnf(10)
    vig = build_vig(cnf)
    sel = select_dfs(vig, budget=5, start=rank(vig.nodes, 1), filt=FilterState(),
                     flags=_flags(vig))
    assert _variables(vig, sel) == {1, 2, 3, 4, 5}  # one unbroken chain


def test_selection_respects_ancilla_cost():
    # a 3-wide clause over three selected vars costs one extra spin
    cnf = make_cnf(3, [(1, 2, 3)])
    vig = build_vig(cnf)
    flags = _flags(vig)
    assert select_dfs(vig, 3, 0, FilterState(), flags) != {0, 1, 2}
    assert select_dfs(vig, 4, 0, FilterState(), flags) == {0, 1, 2}  # ranks of 1, 2, 3


def test_selection_restarts_across_components():
    # disconnected graph: big budget selects everything
    cnf = make_cnf(6, [(1, 2), (3, 4), (5, 6)])
    vig = build_vig(cnf)
    flags = _flags(vig)
    assert _variables(vig, select_bfs(vig, 6, 0, FilterState(), flags)) == {1, 2, 3, 4, 5, 6}
    assert _variables(vig, select_dfs(vig, 6, 4, FilterState(), flags)) == {1, 2, 3, 4, 5, 6}


def test_filter_parks_cooling_vars():
    cnf = _chain_cnf(4)
    vig = build_vig(cnf)
    filt = FilterState()
    one_two = _ranks(vig, {1, 2})
    for _ in range(FILTER_WINDOW - 1):
        filt.note_selection(one_two)
    assert not one_two & filt.cooldown.keys()
    filt.note_selection(one_two)  # streak reaches the window: cooldown starts
    assert one_two <= filt.cooldown.keys()
    sel = select_bfs(vig, budget=2, start=rank(vig.nodes, 3), filt=filt, flags=_flags(vig))
    assert _variables(vig, sel) == {3, 4}  # cooling vars parked behind fresh ones


def _reference_walk(cnf, budget, start, cooldown, depth_first):
    """The walk over a dict index built from ``cnf``, with a push closure
    that tests ``queued`` and ``selected`` apart and looks the cooldown up
    on every push."""
    adjacency, dfs_order, triangles, occurrences = _dict_index(cnf)
    selected, queued = set(), set()
    ancillas = 0
    active, parked = deque(), deque()

    def push(v):
        if v in queued or v in selected:
            return
        queued.add(v)
        (parked if v in cooldown else active).append(v)

    push(start)
    while True:
        if active or parked:
            lane = active or parked
            v = lane.pop() if depth_first else lane.popleft()
        else:
            rest = [u for u in sorted(occurrences) if u not in queued and u not in selected]
            if not rest:
                break
            push(rest[0])
            continue
        queued.discard(v)
        selected.add(v)
        extra = sum(1 for a, b in triangles.get(v, ())
                    if a in selected and b in selected)
        if len(selected) + ancillas + extra > budget:
            selected.discard(v)
            break
        ancillas += extra
        for u in (dfs_order if depth_first else adjacency).get(v, ()):
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
    """A ``_formulas`` formula, a start and a cooldown map, whose countdowns
    are positive as ``FilterState.note_selection`` leaves them."""
    cnf = draw(_formulas(offset))
    start = draw(st.sampled_from(build_vig(cnf).nodes))
    cooldown = draw(st.dictionaries(st.integers(1 + offset, cnf.num_vars),
                                    st.integers(1, FILTER_WINDOW)))
    return cnf, start, cooldown


@given(_walk_cases())
@settings(max_examples=50, deadline=None)
def test_walks_match_the_reference_walk(case):
    cnf, start, cooldown = case
    vig = build_vig(cnf)
    flags = _flags(vig)
    by_rank = {rank(vig.nodes, v): left for v, left in cooldown.items()}
    for budget in range(13):
        for select, depth_first in ((select_bfs, False), (select_dfs, True)):
            filt = FilterState(cooldown=dict(by_rank))
            selected = select(vig, budget, rank(vig.nodes, start), filt, flags)
            assert _variables(vig, selected) == _reference_walk(
                cnf, budget, start, cooldown, depth_first), (budget, depth_first)
            assert filt.cooldown == by_rank  # a walk reads the filter only


# The compiled walk and freeze against the pure ones, exceptions included.
# The kernels see ranks and literal codes only, so a formula's variables may
# lie above 256, beyond the cached ints, without either noticing.  Each
# compiled call must leave the flag array all zero, also when it raises.
needs_compiled = pytest.mark.skipif(not kernels.COMPILED_KERNELS,
                                    reason="compiled kernels unavailable")


def _outcome(fn, *args):
    """What ``fn(*args)`` returns, or the type and message of what it raises."""
    try:
        return fn(*args)
    except Exception as exc:  # the exception is the outcome compared
        return type(exc), str(exc)


def _compiled_outcome(fn, flags, *args):
    """``_outcome`` of the compiled ``fn``, checking that the call left the
    flag array ``flags`` all zero."""
    outcome = _outcome(getattr(kernels, fn), *args)
    assert not any(flags), (fn, outcome)
    return outcome


@needs_compiled
@given(st.one_of(_walk_cases(), _walk_cases(offset=300)),
       st.sampled_from((None, "after", "below")))
@example(  # two components, the start cooling
    (make_cnf(5, [(1, 2), (2, 2, 3), (4, -5)]), 1, {1: 2, 2: 1, 4: 5}), None)
@example((make_cnf(305, [(301, -302, 302), (303, 304), (305,)]), 303,
          {301: 1, 304: 2}), None)
@example((make_cnf(3, [(1, 2)]), 1, {3: 1}), "after")  # declared, in no clause
@example((make_cnf(2, [(1, 2)]), 1, {2: 1}), "below")
@settings(max_examples=100, deadline=None)
def test_compiled_walk_matches_the_pure_walk(case, outside):
    cnf, start, cooldown = case
    vig = build_vig(cnf)
    flags = _flags(vig)
    # a cooling variable the index lacks has rank -1, outside the index
    cooldown = {rank(vig.nodes, v): left for v, left in cooldown.items()}
    start = rank(vig.nodes, start)
    if outside:  # a start outside the index
        start = len(vig.nodes) if outside == "after" else -start - 1
    for budget in range(13):
        for pushes, depth_first in ((vig.bfs, False), (vig.dfs, True)):
            args = (pushes, vig.triangles, cooldown, flags, budget, start, depth_first)
            assert (_compiled_outcome("walk", flags, *args)
                    == _outcome(_kernels_py.walk, *args)), (budget, depth_first)


def _freeze_case(num_vars, clauses, selected, values):
    """The arguments of a freeze: a formula, a selection of ranks and the
    state of ``values``."""
    cnf = make_cnf(num_vars, clauses)
    return cnf, set(selected), _gs(cnf, values)


@st.composite
def _freeze_cases(draw):
    """A ``_formulas`` formula, its variables above 256 or not, any selection
    of its ranks and a state of random values."""
    cnf = draw(_formulas(draw(st.sampled_from((0, 300)))))
    nodes = build_vig(cnf).nodes
    selected = draw(st.sets(st.integers(0, len(nodes) - 1)))
    values = {v: draw(st.booleans()) for v in nodes}
    return _freeze_case(cnf.num_vars, cnf.clauses, selected, values)


def _freeze_args(state, selected):
    vig = state.vig
    return (vig.clauses, vig.occurrences, selected, state.values, state.true_count,
            state.flags)


@needs_compiled
@given(_freeze_cases())
@example(  # (v, v, u) and (v, -v, u) kept, (2, 3) emptied, (-1,) unsatisfied
    _freeze_case(3, [(1, 1, 2), (1, -1, 3), (2, 3), (-1,), (2, -3)], {0},
                 {1: True, 2: False, 3: False}))
@example(_freeze_case(303, [(301, -302, 303), (-301, -301, 302), (302, 303)], {0},
                      {301: False, 302: True, 303: False}))
@example(_freeze_case(4, [(1, 2)], {0, 2}, {1: True, 2: False}))  # rank 2 of 2 nodes
@example(_freeze_case(3, [(1, 2)], {0, -1}, {1: True, 2: False}))  # a negative rank
@example(_freeze_case(3, [(1, 2)], {0, 1.0}, {1: True, 2: False}))  # not an integer
@settings(max_examples=200, deadline=None)
def test_compiled_freeze_matches_the_pure_freeze(case):
    cnf, selected, state = case
    args = _freeze_args(state, selected)
    assert (_compiled_outcome("freeze", state.flags, *args)
            == _outcome(_kernels_py.freeze, *args))


def _merge_args(state, spins, ranks, **replaced):
    """The arguments of a merge into ``state``, any of them replaced."""
    vig = state.vig
    args = dict(clauses=vig.clauses, occurrences=vig.occurrences, spins=spins, ranks=ranks,
                values=state.values, true_count=state.true_count,
                unsat_degree=state.unsat_degree, pool=state.pool, flags=state.flags)
    return tuple({**args, **replaced}.values())


@needs_compiled
def test_compiled_kernels_need_a_flag_byte_per_node():
    cnf = make_cnf(3, [(1, 2), (2, 3)])
    state = _gs(cnf, {})
    vig, outcome = state.vig, (ValueError, "the flag array must hold one byte per node")
    for flags in (bytearray(2), bytearray(4)):
        walk_args = (vig.bfs, vig.triangles, {}, flags, 3, 0, False)
        freeze_args = (vig.clauses, vig.occurrences, {0}, state.values, state.true_count,
                       flags)
        merge_args = _merge_args(state, (1,), [0], flags=flags)
        for fn, args in (("walk", walk_args), ("freeze", freeze_args),
                         ("merge", merge_args)):
            assert (_compiled_outcome(fn, flags, *args)
                    == _outcome(getattr(_kernels_py, fn), *args) == outcome)


@needs_compiled
def test_compiled_kernels_need_a_value_per_node_and_a_count_per_clause():
    """A ``values`` or a ``true_count`` of the wrong length is the same
    ValueError from both kernels, before either reads a row."""
    cnf = make_cnf(3, [(1, 2), (2, 3)])
    state = _gs(cnf, {})
    values = (ValueError, "the value array must hold one byte per node")
    counts = (ValueError, "true_count must hold one count per clause")
    cases = [(values, dict(values=v)) for v in (bytearray(2), bytearray(4))]
    cases += [(counts, dict(true_count=c)) for c in (array("i", []), array("i", [0, 0, 0]))]
    for outcome, replaced in cases:
        args = _merge_args(state, (1,), [0], **replaced)
        clauses, occurrences, _, _, values_, true_count, _, _, flags = args
        freeze_args = (clauses, occurrences, {0}, values_, true_count, flags)
        for fn, fn_args in (("freeze", freeze_args), ("merge", args)):
            assert (_compiled_outcome(fn, flags, *fn_args)
                    == _outcome(getattr(_kernels_py, fn), *fn_args) == outcome), fn


# (1,), (1, 2) over nodes [1, 2], with node 1's occurrence row (1, 0)
_UNSORTED = (array("i", [3, 4, 6, 0, 0, 2]), array("i", [3, 5, 6, 1, 0, 1]))


@needs_compiled
def test_compiled_freeze_needs_ascending_occurrence_lists():
    # it merges the rows where the oracle sorts; build_vig makes them ascending
    flags = bytearray(2)
    args = (*_UNSORTED, {0}, bytearray([1, 0]), array("i", [1, 1]), flags)
    outcome = (ValueError, "an occurrence list is not ascending")
    assert _compiled_outcome("freeze", flags, *args) == outcome


@needs_compiled
def test_compiled_merge_needs_ascending_occurrence_lists():
    # it merges the rows of the flipped ranks, as the freeze merges them
    flags = bytearray(2)
    args = (*_UNSORTED, (-1,), [0], bytearray([1, 0]), array("i", [1, 1]),
            array("i", [0, 0]), [], flags)
    outcome = (ValueError, "an occurrence list is not ascending")
    assert _compiled_outcome("merge", flags, *args) == outcome


@needs_compiled
def test_compiled_kernels_check_every_row_they_read():
    """A table row or an item outside what it indexes is an IndexError from
    the compiled kernels, which leaves the flags and the state as they were
    (the oracle reads the tables as ``build_vig`` makes them, in range); the
    start tally checks the clause table's header before it allocates by it."""
    flags, values = bytearray(2), bytearray([1, 0])
    good = array("i", [3, 4, 5, 1, 0])  # ranks: 0 -- 1
    clauses = array("i", [2, 4, 0, 3])  # (1, -2)
    occurrences = array("i", [3, 4, 5, 0, 0])
    bad_rows = array("i", [3, 4, 9, 1, 0])  # row 1 ends past the table
    bad_items = array("i", [3, 4, 5, 2, 0])  # rank 2 of 2 nodes
    counts, degree, pool = array("i", [1]), array("i", [0, 0]), []
    cases = [("walk", (table, good, {}, flags, 5, 0, False))
             for table in (bad_rows, bad_items)]
    cases += [("walk", (good, bad_items, {}, flags, 5, 1, False))]
    for table, occ in ((array("i", [2, 4, 0, 9]), occurrences),  # literal 9 of 2 nodes
                       (clauses, array("i", [3, 4, 5, 1, 0]))):  # clause 1 of 1
        cases += [("freeze", (table, occ, {0}, values, counts, flags)),
                  ("merge", (table, occ, (-1,), [0], values, counts, degree, pool, flags))]
    for table in (array("i", [2, 9, 0, 3]), array("i", [9, 4, 0, 3]),  # past the end
                  array("i", [0, 4, 0, 3]), array("i", [2, 1, 0, 3])):  # before row 0
        cases += [("tally", (table, values))]
    for fn, args in cases:
        outcome = _compiled_outcome(fn, flags, *args)
        assert outcome[0] is IndexError, (fn, outcome)
    assert (values, counts, degree, pool) == (bytearray([1, 0]), array("i", [1]),
                                              array("i", [0, 0]), [])


def _ring(n):
    """3-clauses over each run of three variables, around a ring of ``n``."""
    return make_cnf(n, [(v, -(v % n + 1), (v + 1) % n + 1) for v in range(1, n + 1)])


@needs_compiled
def test_compiled_slice_kernels_allocate_by_the_slice_not_the_formula():
    """A walk, a freeze and a merge of the same slice each allocate alike on
    a formula of 10**2 and one of 10**5 variables: nothing is sized by the
    formula."""
    peaks = []
    for n in (10**2, 10**5):
        cnf = _ring(n)
        vig = build_vig(cnf)
        start = _gs(cnf, {v: v % 3 == 0 for v in range(1, n + 1)})
        filt = FilterState(cooldown={49: 3})

        def traced(fn, *args):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            out = fn(*args)
            return out, tracemalloc.get_traced_memory()[1] - base

        tracemalloc.start()
        try:
            for _ in range(2):  # the second pass finds every cache warm
                state = GlobalState(bytearray(start.values), array("i", start.true_count),
                                    start.unsat, array("i", start.unsat_degree),
                                    list(start.pool), vig, start.flags)
                selected, walked = traced(select_bfs, vig, 30, 39, filt, state.flags)
                kept, frozen = traced(kernels.freeze, *_freeze_args(state, selected))
                ranks = sorted(selected)
                spins = (1,) * len(ranks)  # all True: a flip of every third
                gain, merged = traced(kernels.merge, *_merge_args(state, spins, ranks))
                assert gain > 0
                del selected, kept, ranks
        finally:
            tracemalloc.stop()
        peaks.append((walked, frozen, merged))
    assert all(big <= small for small, big in zip(*peaks)), peaks


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
    sub = _freeze(cnf, {2, 3}, {1: False})
    assert sub.qubo == cnf_to_qubo(codes([(2,), (-2,), (-2, 3)], build_vig(cnf).nodes))
    assert sub.spin_cost == 2


def test_freeze_conflicting_units_maxsat():
    # the (b)(~b) conflict: minimum energy 1 at either value
    cnf = make_cnf(2, [(1, 2), (1, -2)])
    sub = _freeze(cnf, {2}, {1: False})
    q = sub.qubo
    energies = {x: q.energy({0: x}) for x in (0, 1)}
    assert energies == {0: 1.0, 1: 1.0}


def test_freeze_emptied_clause_is_offset():
    cnf = make_cnf(2, [(1,), (2,)])
    sub = _freeze(cnf, {2}, {1: False})
    assert sub.qubo == cnf_to_qubo(codes([(), (2,)], build_vig(cnf).nodes))
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
    sub = _freeze(cnf, {1, 2, 3}, {4: True})
    # clause (1,2,4) satisfied by the frozen true 4; one 3-wide clause kept
    assert sub.qubo == cnf_to_qubo(codes([(1, 2, 3)], build_vig(cnf).nodes))
    assert sub.spin_cost == 4


def test_freeze_rejects_empty_selection():
    cnf = make_cnf(1, [(1,)])
    with pytest.raises(ValueError):
        freeze_and_extract(set(), _gs(cnf, {}))


def test_freeze_default_false_for_unassigned():
    cnf = make_cnf(2, [(2, 1)])
    sub = _freeze(cnf, {2}, {})
    assert sub.qubo == cnf_to_qubo(codes([(2,)], build_vig(cnf).nodes))


# ---------------------------------------------------------------------------
# merging


def _propose(state, proposal):
    """``proposal``, values of variables, as a slice's spins and its ranks."""
    variables = sorted(proposal)
    return (tuple(1 if proposal[v] else -1 for v in variables),
            [rank(state.vig.nodes, v) for v in variables])


def test_update_global_accepts_plateau_and_better():
    cnf = make_cnf(2, [(1,), (2,)])
    state = _gs(cnf, {1: False, 2: True})
    assert state.best_count == 1
    assert update_global(state, *_propose(state, {1: True}))
    assert state.best_count == 2
    assert _assignment(state)[1] is True
    # plateau: conflicting units (1)(~1) score 1 either way; flip accepted
    conflict = make_cnf(1, [(1,), (-1,)])
    state2 = _gs(conflict, {1: True})
    assert state2.best_count == 1
    assert update_global(state2, *_propose(state2, {1: False}))
    assert state2.best_count == 1
    assert _assignment(state2)[1] is False


def test_update_global_rejects_worse():
    cnf = make_cnf(2, [(1,), (2,)])
    state = _gs(cnf, {1: True, 2: True})
    assert state.best_count == 2
    assert not update_global(state, *_propose(state, {1: False}))
    assert _assignment(state)[1] is True  # rolled back
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
    return cnf_to_qubo(codes(kept, build_vig(cnf).nodes)), spin_cost


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
        before = _assignment(state)
        selected = selected & before.keys()  # a variable in no clause has no rank
        if selected:
            sub = freeze_and_extract(_ranks(state.vig, selected), state)
            assert (sub.qubo, sub.spin_cost) == _naive_freeze(cnf, selected, before)
        proposal = {v: bits[v - 1] for v in selected}
        accepted = update_global(state, *_propose(state, proposal))
        assert state.best_count >= count_satisfied(cnf.clauses, before)  # never drops
        candidate = {**before, **proposal}
        assert accepted == (count_satisfied(cnf.clauses, candidate)
                            >= count_satisfied(cnf.clauses, before))
        assert _assignment(state) == (candidate if accepted else before)
        _assert_state_matches_rescan(cnf, state)


def _assert_state_matches_rescan(cnf, state):
    """The counts, the degrees and the pool are those a full rescan of the
    incumbent gives."""
    assignment = _assignment(state)
    assert state.best_count == count_satisfied(cnf.clauses, assignment)
    unsat = [ci for ci, c in enumerate(cnf.clauses)
             if not clause_satisfied(c, assignment)]
    assert [ci for ci, k in enumerate(state.true_count) if k == 0] == unsat
    assert state.unsat == len(unsat)
    _assert_pool_matches_rescan(cnf, state)


def _assert_pool_matches_rescan(cnf, state):
    nodes = state.vig.nodes
    unsat_ranks = [{rank(nodes, abs(lit)) for lit in c}
                   for c, k in zip(cnf.clauses, state.true_count) if k == 0]
    assert state.unsat == len(unsat_ranks)
    assert state.pool == sorted(set().union(*unsat_ranks))
    assert list(state.unsat_degree) == [sum(r in rs for rs in unsat_ranks)
                                        for r in range(len(nodes))]


def _state_fields(state):
    return (bytes(state.values), list(state.true_count), state.unsat,
            list(state.unsat_degree), list(state.pool))


@st.composite
def _merge_sequences(draw):
    """A random 3-CNF on few variables (so clauses often repeat one), its
    variables above 256 or not, a random incumbent and a sequence of
    proposals, each some of its variables with new values."""
    offset = draw(st.sampled_from((0, 300)))
    n = draw(st.integers(3, 9))
    lit = st.integers(1 + offset, n + offset).flatmap(lambda v: st.sampled_from((v, -v)))
    clauses = draw(st.lists(st.tuples(lit, lit, lit), min_size=1, max_size=30))
    cnf = make_cnf(n + offset, clauses)
    nodes = build_vig(cnf).nodes
    values = {v: draw(st.booleans()) for v in nodes}
    proposal = st.dictionaries(st.sampled_from(nodes), st.booleans(), min_size=1)
    return cnf, values, draw(st.lists(proposal, min_size=1, max_size=8))


@needs_compiled
@given(_merge_sequences())
@example((  # improving, plateau, rejected, then improving by a pair of which one flips
    make_cnf(3, [(1, 1, 1), (2, 2, 2), (-1, 2, 2), (3, 3, 3), (-3, -3, -3)]),
    {1: False, 2: False, 3: True},
    [{2: True}, {3: False}, {2: False}, {1: True, 2: True}]))
@settings(max_examples=200, deadline=None)
def test_compiled_merge_matches_the_pure_merge(case):
    """Merging the same proposals into two copies of a state, one by each
    ``merge``, gives the same gains and states, both a full rescan's."""
    cnf, values, proposals = case
    compiled, pure = _gs(cnf, values), _gs(cnf, values)
    for proposal in proposals:
        spins, ranks = _propose(compiled, proposal)
        gains = [_compiled_outcome("merge", compiled.flags,
                                   *_merge_args(compiled, spins, ranks)),
                 _kernels_py.merge(*_merge_args(pure, spins, ranks))]
        assert gains[0] == gains[1]
        for state in (compiled, pure):
            state.unsat -= max(gains[0], 0)  # as update_global counts a merge
        assert _state_fields(compiled) == _state_fields(pure)
        _assert_state_matches_rescan(cnf, compiled)


@needs_compiled
def test_compiled_merge_refuses_what_the_pure_merge_refuses():
    """A slice naming a rank outside the nodes, or one twice, a spin or a
    rank that is not an integer, too few spins and an array of the wrong
    length are refused alike, before anything is committed."""
    cnf = make_cnf(303, [(301, -302, 303), (-301, 302), (303,)])
    state = _gs(cnf, {301: True})
    spins, ranks = (-1, 1), [0, 1]
    refused = [dict(ranks=[0, 3]), dict(ranks=[-1, 0]), dict(ranks=[0, 2**64]),
               dict(ranks=[0, 0]), dict(ranks=[0, 1.5]), dict(ranks=5),
               dict(spins=(-1,)), dict(spins=(-1, 0.5)),
               dict(values=bytearray(2)), dict(values=bytearray(4)),
               dict(true_count=array("i", [0, 0])), dict(true_count=array("i", [0] * 4)),
               dict(unsat_degree=array("i", [0] * 2)), dict(flags=bytearray(4))]
    before = _state_fields(state)
    for replaced in refused:
        args = _merge_args(state, **{"spins": spins, "ranks": ranks, **replaced})
        outcome = _compiled_outcome("merge", replaced.get("flags", state.flags), *args)
        assert outcome == _outcome(_kernels_py.merge, *args), replaced
        assert outcome[0] in (IndexError, ValueError, TypeError), replaced
        assert _state_fields(state) == before, replaced
    assert kernels.merge(*_merge_args(state, spins, ranks)) >= 0  # the slice itself merges


def _typed(outcome):
    """``outcome`` with each array as its typecode and items and each other
    value with its type, so that == compares types too."""
    if isinstance(outcome, tuple) and not isinstance(outcome[0], type):
        return [(type(x), getattr(x, "typecode", None), list(x) if isinstance(x, array) else x)
                for x in outcome]
    return outcome


@st.composite
def _tally_cases(draw):
    """A clause table of literal codes over ``n`` ranks, rows of widths 0-3
    with ``(v, v, u)``, ``(v, -v, u)`` and empty rows mixed in, and a value
    byte per rank; sometimes the values are a byte short or long, one is
    neither 0 nor 1, or a row holds a code outside the ranks."""
    n = draw(st.integers(0, 6))
    rows = draw(st.lists(st.just([]), max_size=2))
    if n:
        code = st.integers(0, 2 * n - 1)
        v, u = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        shapes = [[2 * v, 2 * v, 2 * u], [2 * v, 2 * v + 1, 2 * u + 1], [2 * v + 1, 2 * v, 2 * u]]
        rows += draw(st.lists(st.lists(code, max_size=3), max_size=12))
        rows += draw(st.lists(st.sampled_from(shapes), max_size=3))
        rows = draw(st.permutations(rows))
    values = bytearray(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    fault = draw(st.sampled_from((None, None, None, "short", "long", "byte", "code")))
    if fault == "short":
        del values[-1:]
    elif fault == "long":
        values.append(draw(st.integers(0, 1)))
    elif fault == "byte" and n:
        values[draw(st.integers(0, n - 1))] = draw(st.integers(2, 255))
    elif fault == "code":
        bad = draw(st.sampled_from((-1, 2 * n, 2 * n + 1, -(2**31))))
        rows.insert(draw(st.integers(0, len(rows))), [0, bad][-draw(st.integers(1, 2)):])
    return decompose._table(rows), values


@needs_compiled
@given(_tally_cases())
@example((decompose._table([[0, 0, 2], [0, 1, 3], [], [1], [2, 3]]), bytearray([0, 1])))
@example((decompose._table([]), bytearray()))
@example((array("i"), bytearray([1])))  # an empty table has no rows
@example((decompose._table([[0, 5]]), bytearray([1, 0])))  # rank 2 of 2
@example((decompose._table([[0, -1]]), bytearray([1, 0])))  # a negative code
@example((decompose._table([[0, 3]]), bytearray([1, 2])))  # a byte of 2
@settings(max_examples=300, deadline=None)
def test_compiled_tally_matches_the_pure_tally(case):
    """The same counts, of the same types, or the same exception."""
    table, values = case
    compiled = _outcome(kernels.tally, table, values)
    assert _typed(compiled) == _typed(_outcome(_kernels_py.tally, table, values))
    if isinstance(compiled[0], type):
        assert compiled[0] in (IndexError, ValueError), compiled



# The refusals of a table the compiled kernels check row by row where the
# oracle reads it as it stands (test_compiled_kernels_check_every_row_they_read,
# test_compiled_freeze_needs_ascending_occurrence_lists)
_TABLE_REFUSALS = {(IndexError, "a row is outside the index"),
                   (IndexError, "an item is outside the index"),
                   (ValueError, "an occurrence list is not ascending")}


def _resized(draw, buffer):
    """A copy of ``buffer`` an item short or long."""
    out = buffer[:]
    if draw(st.booleans()):
        del out[-1:]
    else:
        out.append(0)
    return out


def _mutated(draw, table, bound):
    """A copy of the flat table ``table``, whose items lie below ``bound``,
    with an offset or an item set to any value, often one just inside or
    outside a bound, or cut short."""
    out = array("i", table)
    fault = draw(st.sampled_from(("offset", "item", "short")))
    if fault == "short" and out:
        del out[draw(st.integers(0, len(out) - 1)):]
    elif out:
        header = min(max(out[0], 1), len(out))
        at = (draw(st.integers(0, header - 1)) if fault == "offset" or header == len(out)
              else draw(st.integers(header, len(out) - 1)))
        edges = (-1, bound - 1, bound, len(out), len(out) + 1, -(2**31), 2**31 - 1)
        out[at] = draw(st.one_of(st.sampled_from(edges), st.integers(-2, len(out) + 2)))
    return out


@st.composite
def _malformed_calls(draw, kernel):
    """The arguments of a call of the slice kernel ``kernel`` on a
    ``_formulas`` formula's index and a state of random values, with one
    fault or none: a table mutated, ranks that lie outside the nodes or
    repeat and too few spins, or a buffer of the wrong length."""
    cnf = draw(_formulas(draw(st.sampled_from((0, 300)))))
    vig = build_vig(cnf)
    n = len(vig.nodes)
    state = _gs(cnf, {v: draw(st.booleans()) for v in vig.nodes})
    fault = draw(st.sampled_from((None, "table", "table", "table", "rank", "buffer")))
    rank = st.integers(-2, n + 1) if fault == "rank" else st.integers(0, n - 1)
    if kernel == "walk":  # the tables, each with the bound of its items
        tables = [(vig.dfs if draw(st.booleans()) else vig.bfs, n), (vig.triangles, n)]
        buffers = {"flags": state.flags}
    elif kernel == "tally":
        tables = [(vig.clauses, 2 * n)]
        buffers = {"values": state.values}
    else:
        tables = [(vig.clauses, 2 * n), (vig.occurrences, len(cnf.clauses))]
        buffers = {"flags": state.flags, "values": state.values, "counts": state.true_count,
                   "degree": state.unsat_degree}
    if fault == "table":
        which = draw(st.integers(0, len(tables) - 1))
        table, bound = tables[which]
        tables[which] = _mutated(draw, table, bound), bound
    tables = [table for table, _ in tables]
    buffers = {name: buffer[:] for name, buffer in buffers.items()}
    if fault == "buffer":
        name = draw(st.sampled_from(sorted(buffers)))
        buffers[name] = _resized(draw, buffers[name])
    if draw(st.booleans()):
        # a bytearray's allocation holds a NUL past its end, so a sanitizer
        # misses a read one byte past it; an array('B') has none
        buffers = {name: array("B", b) if isinstance(b, bytearray) else b
                   for name, b in buffers.items()}
    if kernel == "walk":
        cooldown = draw(st.dictionaries(rank, st.integers(1, FILTER_WINDOW), max_size=3))
        return (*tables, cooldown, buffers["flags"], draw(st.integers(0, 12)), draw(rank),
                draw(st.booleans()))
    if kernel == "tally":
        return (*tables, buffers["values"])
    state_buffers = buffers["values"], buffers["counts"]
    if kernel == "freeze":
        return (*tables, draw(st.sets(rank, max_size=8)), *state_buffers, buffers["flags"])
    ranks = draw(st.lists(rank, max_size=8, unique=fault != "rank"))
    spins = tuple(draw(st.lists(st.sampled_from((-1, 1)), min_size=len(ranks),
                                max_size=len(ranks))))
    if fault == "rank" and draw(st.booleans()):
        spins = spins[:-1]
    return (*tables, spins, ranks, *state_buffers, buffers["degree"], list(state.pool),
            buffers["flags"])


def _copied(args):
    """``args`` with each buffer and list copied, so that two calls write
    apart."""
    return tuple(a[:] if isinstance(a, (array, bytearray, list)) else a for a in args)


@needs_compiled
@pytest.mark.parametrize("kernel", ["walk", "freeze", "merge", "tally"])
@given(st.data())
@settings(max_examples=50, deadline=None)
def test_compiled_slice_kernels_refuse_or_match_the_oracle_on_malformed_input(kernel, data):
    """Each compiled slice kernel, on a mutated table, ranks outside the
    nodes or buffers of the wrong length, either refuses a table it checks
    and writes nothing, or returns, writes and raises what the oracle does;
    either way it leaves the flag array all zero."""
    args = data.draw(_malformed_calls(kernel))
    compiled_args, pure_args = _copied(args), _copied(args)
    compiled = _outcome(getattr(kernels, kernel), *compiled_args)
    if kernel != "tally":  # the tally takes no flags
        assert not any(compiled_args[3 if kernel == "walk" else -1]), (kernel, compiled)
    if isinstance(compiled, tuple) and isinstance(compiled[0], type) \
            and compiled in _TABLE_REFUSALS:
        assert compiled_args == args, kernel
        return
    assert _typed(compiled) == _typed(_outcome(getattr(_kernels_py, kernel), *pure_args))
    assert compiled_args == pure_args, kernel

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
    assert list(state.true_count) == [sum(1 for lit in c if (lit > 0) == value[abs(lit)])
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
        state = _gs(cnf, {v: rng.random() < 0.5 for v in range(1, 9)})
        vig = state.vig
        for budget in (2, 3, 5, 8):
            for start in range(len(vig.nodes)):
                for select in (select_bfs, select_dfs):
                    selected = select(vig, budget, start, FilterState(), state.flags)
                    if selected:
                        sub = freeze_and_extract(selected, state)
                        assert sub.spin_cost <= budget
                        assert sub.qubo.num_vars <= budget
        # iterate raises when a slice's spin cost overshoots the budget
        iterate(cnf, (), cnf, strategy="dfs", backend="tabu",
                budget=5, cap=20, seed=trial, num_samples=1, collect_trace=False)


def _renamed(cnf, variables):
    """``cnf`` with its variables, ascending, renamed in order to the
    ascending ``variables``."""
    name = dict(zip(sorted(cnf.occurring_vars()), variables))
    return make_cnf(max(variables), [tuple(name[lit] if lit > 0 else -name[-lit] for lit in c)
                                     for c in cnf.clauses])


@pytest.mark.parametrize("pure", [False, True], ids=["compiled", "pure"])
def test_an_order_preserving_renumbering_decomposes_alike(monkeypatch, pure):
    """A slice sees ranks, which ascend with the variables, and never a
    variable number: renaming a 3-CNF's variables in order, to 1..k, spaced
    out, across 2**63 or past 2**64, gives the same run on both backends,
    with the slice kernels compiled or pure.  Every run solves, so its model
    is checked against its own input."""
    if pure:
        for name in ("tally", "walk", "freeze", "merge"):
            monkeypatch.setattr(decompose, name, getattr(_kernels_py, name))
        for name in ("qubo", "ising", "scale"):
            monkeypatch.setattr(kernels, name, getattr(_kernels_py, name))
    base = random_3sat(12, 44, random.Random(7))
    k = len(base.occurring_vars())
    numberings = (range(1, k + 1), range(5, 5 + 7 * k, 7), range(2**63 - 5, 2**63 - 5 + k),
                  range(2**64 + 1, 2**64 + 1 + k))
    for backend in ("emulator", "tabu"):
        runs = {iterate(cnf, (), cnf, strategy="dfs", backend=backend, budget=10, cap=60,
                        seed=2, num_samples=1, collect_trace=True)
                for cnf in (_renamed(base, variables) for variables in numberings)}
        assert len(runs) == 1 and runs.pop().solved, backend

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
        assert run.solved, i  # iterate checks the model against cnf
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


def _lifted_models(monkeypatch):
    """The models ``iterate`` lifts and checks against its input, in order."""
    models = []

    def check(cnf, full):
        models.append(full)
        return evaluate(cnf, full)

    monkeypatch.setattr(decompose, "evaluate", check)
    return models


def test_iterate_deterministic(monkeypatch):
    models = _lifted_models(monkeypatch)
    cnf = random_3sat(12, 34, random.Random(8))
    a = iterate(cnf, (), cnf, **ONE_READ, budget=12, cap=150, seed=9,
                collect_trace=False)
    b = iterate(cnf, (), cnf, **ONE_READ, budget=12, cap=150, seed=9,
                collect_trace=False)
    assert (a.solved, a.iterations_used, a.solver_calls, a.best_satisfied) == \
        (b.solved, b.iterations_used, b.solver_calls, b.best_satisfied)
    assert len(models) == 2 * a.solved and models[:1] == models[1:]


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
    assert run.solved  # iterate checks the lifted model against cnf
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


def test_iterate_raises_when_the_counts_drift_from_a_rescan(monkeypatch):
    """A merge that flips a value byte and leaves ``true_count`` as it was
    is caught by the closing rescan.  The formula never holds entirely, so
    the loop runs, and flipping variable 1 moves its count by one."""
    def drifting_merge(state, spins, ranks):
        state.values[0] ^= 1
        return False

    monkeypatch.setattr(decompose, "update_global", drifting_merge)
    cnf = make_cnf(2, [(1,), (-1,), (1, 2), (1, -2)])
    for seed in (1, 2):
        with pytest.raises(RuntimeError) as info:
            iterate(cnf, (), cnf, strategy="dfs", backend="tabu", budget=45, cap=1,
                    seed=seed, num_samples=1, collect_trace=False)
        assert str(info.value) == "incremental satisfied count drifted from a full rescan"


def test_iterate_raises_when_the_lifted_model_falsifies_the_input():
    # the residual (2,) solves, but the record fixing 1 False lifts it to a
    # model that falsifies the unit clause (1,) of the input
    original = make_cnf(2, [(1,), (2,)])
    residual = make_cnf(2, [(2,)])
    for value in (True, False):
        condition = (ConditionRecord("fix", 1, value=value),)
        args = (residual, condition, original)
        settings = dict(ONE_READ, budget=45, cap=10, seed=0, collect_trace=False)
        if value:
            assert iterate(*args, **settings).solved
        else:
            with pytest.raises(RuntimeError, match="failed verification"):
                iterate(*args, **settings)


def test_factor_recovery_through_full_pipeline(monkeypatch):
    models = _lifted_models(monkeypatch)
    cnf, nl = generate_instance(8, 143)
    res = run_ladder(cnf, 7, seed=4)
    run = iterate(res.cnf, res.condition, cnf, strategy="dfs",
                  backend="emulator", budget=45, cap=1000, seed=4, num_samples=8,
                  collect_trace=False)
    assert run.solved and len(models) == 1
    a = sum((1 << i) for i, v in enumerate(nl.input_bits_a) if models[0][v])
    b = sum((1 << i) for i, v in enumerate(nl.input_bits_b) if models[0][v])
    assert a * b == 143
