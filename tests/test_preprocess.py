"""The preprocessing ladder: pass-level contracts and reconstruction soundness."""
from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from isingsat import preprocess
from isingsat.cnf import Cnf, brute_force_solutions, evaluate, make_cnf
from isingsat.circuit import (IMPLICATION_FORM, ROW_ENCODING, gate_clauses,
                              generate_instance, semiprime_catalog)
from isingsat.harness import generate_backbone_instance
from isingsat.preprocess import (
    _DETECT_ORDER,
    MAX_LEVEL,
    ConditionRecord,
    GateGroup,
    PrepState,
    _ladder_pass,
    _unit_fixpoint,
    branch_probe,
    clean_clauses,
    condition_2sat,
    detect_gate_groups,
    eliminate_pure_literals,
    known_values,
    propagate_1sat,
    propagate_replaced_values,
    reconstruct,
    reencode_option2,
    run_ladder,
    subsume_clauses,
)

from conftest import (check_reconstruction, empty_formula_memos, fixed,
                      mixed_random_cnf, pure, random_3sat, substituted)
from dpll import dpll


def _state(cnf: Cnf, guess: bool = False) -> PrepState:
    return PrepState(clauses=list(cnf.clauses), condition=[], guess=guess)


# ---------------------------------------------------------------------------
# condition list and reconstruct


def _fix(var: int, value: bool) -> ConditionRecord:
    return ConditionRecord("fix", var, value=value)


def _sub(var: int, root: int, sign: int) -> ConditionRecord:
    return ConditionRecord("sub", var, root=root, sign=sign)


def test_condition_list_views():
    cond = [_fix(1, True), _sub(2, 1, -1), ConditionRecord("pure", 3, value=False)]
    assert fixed(cond) == {1: True}
    assert substituted(cond) == {2: (1, -1)}
    assert pure(cond) == {3: False}
    assert known_values(cond) == {1: True, 3: False}


def test_reconstruct_negated_master():
    cond = [_sub(1, 2, -1)]  # a == not b
    out = reconstruct(cond, {2: False}, range(1, 3))
    assert out == {1: True, 2: False}


def test_reconstruct_chain_same_sign():
    # a -> b -> c, both same-sign, c true: everything true
    cond = [_sub(1, 2, 1), _sub(2, 3, 1)]
    out = reconstruct(cond, {3: True}, range(1, 4))
    assert out == {1: True, 2: True, 3: True}


def test_reconstruct_chain_signs_compose():
    cond = [_sub(1, 2, -1), _sub(2, 3, -1)]
    out = reconstruct(cond, {3: True}, range(1, 4))
    assert out == {1: True, 2: False, 3: True}


def test_reconstruct_later_fix_of_root_wins():
    # the root itself is fixed by a later pass; the sub must read that value
    cond = [_sub(5, 2, 1), _fix(2, False)]
    out = reconstruct(cond, {}, range(1, 6))
    assert out[5] is False and out[2] is False


def test_reconstruct_defaults_unconstrained():
    cond = [_fix(1, True)]
    out = reconstruct(cond, {}, range(1, 4))
    assert out == {1: True, 2: False, 3: False}


# ---------------------------------------------------------------------------
# gate-group detection and re-encoding


def _or_gate(a, b, c):
    return gate_clauses(ROW_ENCODING["OR"], a, b, c)


def test_reencode_option2_rewrites_or_group():
    cnf = make_cnf(3, _or_gate(1, 2, 3))
    assert cnf.num_clauses == 4
    st = _state(cnf)
    reencode_option2(st)
    assert len(st.clauses) == 3
    # projected solution set unchanged: c <-> (a or b)
    expect = {(a, b, a or b) for a in (False, True) for b in (False, True)}
    got = {(s[1], s[2], s[3]) for s in brute_force_solutions(make_cnf(3, st.clauses))}
    assert got == expect


def test_reencode_option2_leaves_xor_alone():
    clauses = gate_clauses(ROW_ENCODING["XOR"], 1, 2, 3)
    st = _state(make_cnf(3, clauses))
    reencode_option2(st)
    assert st.clauses == list(clauses)


def test_reencode_option2_no_groups_identity():
    cnf = random_3sat(8, 12, random.Random(3))
    st = _state(cnf)
    reencode_option2(st)
    assert tuple(st.clauses) == cnf.clauses


# ---------------------------------------------------------------------------
# unit propagation


def test_propagate_1sat_or_gate_backward():
    # implication-form OR gate plus (~c): both inputs forced false
    clauses = gate_clauses(IMPLICATION_FORM["OR"], 1, 2, 3) + [(-3,)]
    st = _state(make_cnf(3, clauses))
    propagate_1sat(st)
    assert fixed(st.condition) == {3: False, 1: False, 2: False}
    assert st.clauses == []


def test_propagate_1sat_satisfied_clause_removed():
    st = _state(make_cnf(3, [(1,), (1, 2, 3)]))
    propagate_1sat(st)
    assert fixed(st.condition) == {1: True}
    assert st.clauses == []


def test_propagate_1sat_shrinks_clauses():
    st = _state(make_cnf(3, [(-1,), (1, 2, 3)]))
    propagate_1sat(st)
    assert st.clauses == [(2, 3)]


def test_propagate_1sat_conflict_marks_unsat():
    st = _state(make_cnf(1, [(1,), (-1,)]))
    propagate_1sat(st)  # must not raise
    assert st.unsat


# ---------------------------------------------------------------------------
# 2SAT conditioning


def test_condition_2sat_not_pair():
    # XOR with c fixed true collapses to (a v b)(~a v ~b): a NOT pair
    st = _state(make_cnf(2, [(1, 2), (-1, -2)]))
    condition_2sat(st)
    assert substituted(st.condition) == {2: (1, -1)}
    assert st.clauses == []  # both clauses became tautologies under b -> ~a


def test_condition_2sat_buffer_pair():
    st = _state(make_cnf(2, [(1, -2), (-1, 2)]))
    condition_2sat(st)
    assert substituted(st.condition) == {2: (1, 1)}


def test_condition_2sat_triple_group_queues_units():
    # (a v b)(a v ~b)(~a v b): only a=1,b=1 survives -> two unit clauses
    st = _state(make_cnf(2, [(1, 2), (1, -2), (-1, 2)]))
    condition_2sat(st)
    assert st.clauses == [(1, 2), (1, -2), (-1, 2), (1,), (2,)]


def test_condition_2sat_two_pattern_shared_coordinate():
    # (a v b)(a v ~b): survivors share a=1 -> unit (a) queued
    st = _state(make_cnf(2, [(1, 2), (1, -2)]))
    condition_2sat(st)
    assert (1,) in st.clauses


def test_condition_2sat_chain_composes_to_lowest_master():
    # b == a and c == b chain to the lowest-index master a
    clauses = [(1, -2), (-1, 2), (2, -3), (-2, 3)]
    st = _state(make_cnf(3, clauses))
    condition_2sat(st)
    assert substituted(st.condition) == {2: (1, 1), 3: (1, 1)}
    assert st.clauses == []


def test_condition_2sat_chain_with_negation():
    # b == ~a, c == ~b: c == a
    clauses = [(1, 2), (-1, -2), (2, 3), (-2, -3)]
    st = _state(make_cnf(3, clauses))
    condition_2sat(st)
    assert substituted(st.condition) == {2: (1, -1), 3: (1, 1)}


def test_condition_2sat_cascades_a_long_chain_without_recursion():
    # k -> k+1 and 1 -> k+1 each hold one pattern of a pair until the last
    # two clauses make 1 == 2; from there each union completes the next
    # pair, so the cascade is 400 unions deep
    n = 401
    clauses = [c for k in range(2, n) for c in ((k, -(k + 1)), (-1, k + 1))]
    res = run_ladder(make_cnf(n, clauses + [(1, -2), (-1, 2)]), 3, seed=1)
    assert substituted(res.condition) == {v: (1, 1) for v in range(2, n + 1)}
    assert res.cnf.clauses == ()


def test_condition_2sat_contradiction_is_unsat():
    # a == b and a == ~b together: the second relation degenerates to
    # contradictory queued units, and the ladder's follow-up propagation
    # surfaces the conflict
    clauses = [(1, -2), (-1, 2), (1, 2), (-1, -2)]
    st = _state(make_cnf(2, clauses))
    condition_2sat(st)
    assert (1,) in st.clauses and (-1,) in st.clauses
    res = run_ladder(make_cnf(2, clauses), 3, seed=0)
    assert res.cnf.is_unsat_marked()


def test_condition_2sat_substitution_leaves_no_replaced_vars():
    rng = random.Random(9)
    for _ in range(30):
        n = rng.randint(3, 10)
        clauses = []
        for _ in range(rng.randint(2, 14)):
            w = rng.choice((2, 2, 2, 3))
            vs = rng.sample(range(1, n + 1), min(w, n))
            clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
        st = _state(make_cnf(n, clauses))
        condition_2sat(st)
        if st.unsat:
            continue
        replaced = set(substituted(st.condition))
        for c in st.clauses:
            assert not replaced & {abs(l) for l in c}


# ---------------------------------------------------------------------------
# replaced-value propagation


def test_rvp_master_value_flows():
    st = _state(make_cnf(2, []))
    st.condition += [_sub(1, 2, 1), _fix(2, True)]
    propagate_replaced_values(st)
    assert known_values(st.condition)[1] is True


def test_rvp_negated_master():
    st = _state(make_cnf(2, []))
    st.condition += [_sub(1, 2, -1), _fix(2, False)]
    propagate_replaced_values(st)
    assert known_values(st.condition)[1] is True


def test_rvp_cascades_chains():
    st = _state(make_cnf(3, []))
    st.condition += [_sub(2, 3, -1), _sub(1, 2, -1), _fix(3, True)]
    propagate_replaced_values(st)
    assert st.condition[3:] == [_fix(2, False), _fix(1, True)]


def test_rvp_never_touches_clauses():
    st = _state(make_cnf(2, [(1, 2)]))
    st.condition.append(_sub(1, 2, 1))
    propagate_replaced_values(st)
    assert st.clauses == [(1, 2)]


# ---------------------------------------------------------------------------
# cleaning / subsumption / pure literals


def test_clean_duplicate_literal():
    st = _state(make_cnf(2, [(1, 1, 2)]))
    clean_clauses(st)
    assert st.clauses == [(1, 2)]


def test_clean_tautology_dropped():
    st = _state(make_cnf(2, [(1, -1, 2)]))
    clean_clauses(st)
    assert st.clauses == []


def test_clean_fixpoint():
    cnf = random_3sat(6, 10, random.Random(2))
    st = _state(cnf)
    clean_clauses(st)
    assert tuple(st.clauses) == cnf.clauses


def test_subsume_examples():
    st = _state(make_cnf(3, [(-2,), (-2, 3)]))
    subsume_clauses(st)
    assert st.clauses == [(-2,)]
    st = _state(make_cnf(3, [(1, 2), (1, 2, 3)]))
    subsume_clauses(st)
    assert st.clauses == [(1, 2)]
    st = _state(make_cnf(3, [(1, 2), (2, 3)]))
    subsume_clauses(st)
    assert st.clauses == [(1, 2), (2, 3)]


def test_subsume_duplicate_keeps_first():
    st = _state(make_cnf(2, [(1, 2), (2, 1)]))
    subsume_clauses(st)
    assert st.clauses == [(1, 2)]


def test_pure_literal_cascade():
    # a pure positive; fixing it removes all clauses, so b vanishes too
    st = _state(make_cnf(2, [(1, 2), (1, -2)]))
    eliminate_pure_literals(st)
    assert st.clauses == []
    assert pure(st.condition) == {1: True, 2: True}


def test_pure_literal_negative_polarity():
    st = _state(make_cnf(2, [(-1, 2), (-1, -2)]))
    eliminate_pure_literals(st)
    assert pure(st.condition)[1] is False


def test_pure_literal_mixed_polarity_untouched():
    cnf = make_cnf(2, [(1, 2), (-1, -2)])
    st = _state(cnf)
    eliminate_pure_literals(st)
    assert tuple(st.clauses) == cnf.clauses
    assert len(st.condition) == 0


def test_pure_literal_loses_only_nonrecorded_polarity():
    """The classic pass keeps exactly the solutions agreeing with the
    recorded polarity; reconstructed models always satisfy the input."""
    cnf = make_cnf(3, [(1, 2, 3)])
    st = _state(cnf)
    eliminate_pure_literals(st)
    full = reconstruct(st.condition, {}, range(1, 4))
    assert evaluate(cnf, full)
    assert full == {1: True, 2: True, 3: True}


# ---------------------------------------------------------------------------
# branching


def _hub_cnf():
    """Variable 1 sits in every clause: degree 5 vs mean well under ratio."""
    return make_cnf(6, [(1, 2, 3), (1, -2, 4), (-1, 4, 5), (1, 5, 6), (-1, -3, 6)])


def test_branch_probe_picks_max_degree():
    st = _state(_hub_cnf())
    branch_probe(st)
    assert len(st.branch_decisions) == 1
    assert st.branch_decisions[0].var == 1


def test_branch_probe_override_and_propagation():
    st = _state(_hub_cnf(), guess=True)
    branch_probe(st)
    assert st.branch_decisions[0].value is True
    assert fixed(st.condition)[1] is True
    # clauses containing +1 satisfied, -1 shortened
    for c in st.clauses:
        assert 1 not in {abs(l) for l in c}


def test_branch_probe_below_threshold_no_guess():
    # regular structure: every variable has identical degree
    st = _state(make_cnf(4, [(1, 2), (2, 3), (3, 4), (4, 1)]))
    branch_probe(st)
    assert st.branch_decisions == []


# variable 1 dominates the interaction graph and guessing it True yields
# the unit conflict (2), (~2) under propagation
_CLOSING = [(-1, 2), (-1, -2), (1, 3, 4), (1, -3, 4), (1, 3, -4)]


def test_branch_probe_wrong_guess_closes_branch():
    st = _state(make_cnf(4, _CLOSING), guess=True)
    branch_probe(st)
    assert st.branch_decisions[0].var == 1
    assert st.unsat  # a closing guess is never flipped


# ---------------------------------------------------------------------------
# the guard every pass shares

# every pass changes the clauses or the condition list of this state
_BUSY = (gate_clauses(ROW_ENCODING["OR"], 1, 2, 3)
         + [(3,), (4, 5), (-4, -5), (4, 4, 6), (4, 6), (1, 7), (1, -7, 8),
            (1, 8, 9), (1, -9, 2)])


@pytest.mark.parametrize(
    "ladder_pass", [fn for lvl in sorted(preprocess.LADDER_PASSES)
                    for fn in preprocess.LADDER_PASSES[lvl]],
    ids=lambda fn: fn.__name__)
def test_pass_leaves_an_unsat_state_alone(ladder_pass):
    def busy_state(clauses):
        st = _state(make_cnf(9, clauses))
        st.condition += [_fix(1, True), _sub(2, 1, -1)]
        return st

    live = busy_state(_BUSY)
    ladder_pass(live)
    assert (live.clauses, live.condition) != \
        (list(_BUSY), busy_state(_BUSY).condition)

    clauses = [*_BUSY[:5], (), *_BUSY[5:]]
    st = busy_state(clauses)
    records = list(st.condition)
    rep = ladder_pass(st)
    assert rep.name == ladder_pass.__name__
    assert rep.wall_time == 0.0
    assert st.clauses == clauses and st.condition == records


# ---------------------------------------------------------------------------
# the ladder end to end


def test_ladder_level_bounds():
    cnf = make_cnf(2, [(1, 2)])
    with pytest.raises(ValueError):
        run_ladder(cnf, -1, seed=0)
    with pytest.raises(ValueError):
        run_ladder(cnf, MAX_LEVEL + 1, seed=0)


def test_ladder_level0_identity():
    cnf = random_3sat(8, 20, random.Random(4))
    res = run_ladder(cnf, 0, seed=0)
    assert res.cnf.clauses == cnf.clauses
    assert len(res.condition) == 0
    assert res.reports == ()


def test_ladder_report_chain_is_consistent():
    cnf = random_3sat(12, 40, random.Random(8))
    res = run_ladder(cnf, 6, seed=0)
    assert res.reports[-1].vars_after == res.vars_remaining
    assert res.reports[-1].clauses_after == res.cnf.num_clauses


def test_ladder_no_units_after_level2():
    rng = random.Random(13)
    for _ in range(15):
        cnf = random_3sat(rng.randint(5, 14), rng.randint(8, 45), rng)
        res = run_ladder(cnf, 2, seed=0)
        if not res.cnf.is_unsat_marked():
            assert all(len(c) != 1 for c in res.cnf.clauses)


def test_ladder_no_pair_groups_after_level3():
    rng = random.Random(14)
    for _ in range(15):
        cnf = random_3sat(rng.randint(5, 14), rng.randint(8, 45), rng)
        res = run_ladder(cnf, 3, seed=0)
        if res.cnf.is_unsat_marked():
            continue
        patterns = {}
        for c in res.cnf.clauses:
            if len(c) == 2:
                key = tuple(sorted(abs(l) for l in c))
                patterns.setdefault(key, set()).add(
                    tuple(1 if l > 0 else -1 for l in sorted(c, key=abs)))
        for pats in patterns.values():
            assert {(1, -1), (-1, 1)} != pats and {(1, 1), (-1, -1)} != pats


def test_ladder_clean_after_level5():
    rng = random.Random(15)
    for _ in range(10):
        cnf = random_3sat(rng.randint(5, 12), rng.randint(8, 40), rng)
        res = run_ladder(cnf, 5, seed=0)
        if res.cnf.is_unsat_marked():
            continue
        for c in res.cnf.clauses:
            assert len(set(c)) == len(c)
            assert not any(-l in c for l in c)


def test_ladder_no_subsumed_or_pure_after_level6():
    rng = random.Random(16)
    for _ in range(10):
        cnf = random_3sat(rng.randint(5, 12), rng.randint(8, 40), rng)
        res = run_ladder(cnf, 6, seed=0)
        if res.cnf.is_unsat_marked():
            continue
        sets = [frozenset(c) for c in res.cnf.clauses]
        for i, s in enumerate(sets):
            for j, t in enumerate(sets):
                if i != j:
                    assert not (s < t)
        pos = {abs(l) for c in res.cnf.clauses for l in c if l > 0}
        neg = {abs(l) for c in res.cnf.clauses for l in c if l < 0}
        assert pos == neg  # single-polarity variables all eliminated


def test_ladder_vars_monotone_over_levels():
    cnf = random_3sat(14, 55, random.Random(17))
    profile = [run_ladder(cnf, lvl, seed=3).vars_remaining
               for lvl in range(MAX_LEVEL + 1)]
    assert profile[0] == len(cnf.occurring_vars())
    assert profile == sorted(profile, reverse=True)


def test_ladder_unsat_input_flows_through():
    cnf = make_cnf(1, [(1,), (-1,)])
    for level in range(2, MAX_LEVEL + 1):
        res = run_ladder(cnf, level, seed=0)
        assert res.cnf.is_unsat_marked()


# ---------------------------------------------------------------------------
# reconstruction soundness against the brute-force oracle


def test_reconstruction_bijective_levels_0_to_5():
    rng = random.Random(21)
    for i in range(40):
        n = rng.randint(4, 14)
        cnf = random_3sat(n, max(1, int(n * rng.uniform(3.0, 5.0))), rng)
        for level in range(0, 6):
            image, O, _ = check_reconstruction(cnf, level)
            assert image == O, (i, level)


def test_reconstruction_levels_6_7_exact_unless_lossy_pure():
    rng = random.Random(22)
    for i in range(40):
        n = rng.randint(4, 14)
        cnf = random_3sat(n, max(1, int(n * rng.uniform(3.0, 5.0))), rng)
        for level in (6, 7):
            image, O, lossy = check_reconstruction(cnf, level)
            if lossy:
                assert image <= O and (not O or image)
            else:
                assert image == O, (i, level)


def test_pure_elimination_shrinks_solution_set_of_loose_formula():
    """A non-backbone pure literal keeps satisfiability, not multiplicity:
    the single clause (1 v 2 v 3) has 7 models but one reconstruction."""
    cnf = make_cnf(3, [(1, 2, 3)])
    image, O, lossy = check_reconstruction(cnf, 6)
    assert lossy
    assert len(O) == 7
    assert image == {frozenset({(1, True), (2, True), (3, True)})}


def test_reconstruction_branching_union_covers_both_outcomes_of_the_guess():
    rng = random.Random(23)
    for i in range(10):
        n = rng.randint(5, 10)
        cnf = random_3sat(n, int(n * 4.0), rng)
        image, O, lossy = check_reconstruction(cnf, 7)
        if not lossy:
            assert image == O, i


def test_semiprime_ladder_full_reduction_and_reconstruction(catalog45):
    for bits, semiprime, cnf, nl in catalog45:
        profile = [run_ladder(cnf, lvl, seed=0).vars_remaining
                   for lvl in range(MAX_LEVEL + 1)]
        assert profile[0] == profile[1] == (18 if bits == 4 else 28)
        for lvl in range(4, MAX_LEVEL + 1):
            assert profile[lvl] == 0  # fully conditioned at replaced-value prop
        res = run_ladder(cnf, 4, seed=0)
        full = reconstruct(res.condition, {}, range(1, cnf.num_vars + 1))
        assert evaluate(cnf, full)
        a = sum((1 << i) for i, v in enumerate(nl.input_bits_a) if full[v])
        b = sum((1 << i) for i, v in enumerate(nl.input_bits_b) if full[v])
        assert a * b == semiprime


def test_dpll_decides_small_random_cnfs_as_brute_force_does():
    """The DPLL oracle finds a model exactly when the exhaustive one does,
    and each model it finds satisfies the formula; conflicting units and
    empty clauses included."""
    rng = random.Random(24)
    decided = []
    for i in range(300):
        n = rng.randint(1, 8)
        cnf = mixed_random_cnf(n, rng.randint(0, 5 * n), rng)
        if i % 10 == 0:
            cnf = make_cnf(n, cnf.clauses + rng.choice((((1,), (-1,)), ((),))))
        model = dpll(cnf.clauses)
        assert (model is not None) == bool(brute_force_solutions(cnf)), i
        if model is not None:
            assert evaluate(cnf, {v: model.get(v, False) for v in range(1, n + 1)}), i
        decided.append(model is not None)
    assert 50 <= sum(decided) <= 250  # both answers, often


# The level-7 outcomes of the 8-11-bit catalog semiprimes, both guesses,
# whose residual has no model, per width.  A change to a pass that changes
# these counts names the change.
DEAD_LEVEL7_OUTCOMES = {8: 1, 9: 5, 10: 5, 11: 21}


def test_level7_outcomes_at_the_paper_sizes_lift_to_models_or_are_dead():
    """At the paper's sizes (94-190 variables) only a DPLL decides the
    residuals: each live one's model lifts through ``reconstruct`` to a
    model of the input, one guess of every instance stays live, and the
    dead outcomes are exactly the pinned ones."""
    dead = dict.fromkeys(DEAD_LEVEL7_OUTCOMES, 0)
    for bits in DEAD_LEVEL7_OUTCOMES:
        for semiprime in semiprime_catalog(bits):
            cnf, _netlist = generate_instance(bits, semiprime)
            live = 0
            for guess in (False, True):
                res = preprocess._ladder(cnf, MAX_LEVEL, guess)
                model = dpll(res.cnf.clauses)
                if model is None:
                    dead[bits] += 1
                    continue
                live += 1
                full = reconstruct(res.condition, model, range(1, cnf.num_vars + 1))
                assert evaluate(cnf, full), (bits, semiprime, guess)
            assert live, (bits, semiprime)
    assert dead == DEAD_LEVEL7_OUTCOMES


# ---------------------------------------------------------------------------
# naive reference oracles: the whole-formula rescans the indexed passes
# replaced, and the settle loop that one round replaced.  Each must give
# exactly the same output.


def _naive_unit_fixpoint(clauses):
    """Rewrite the whole clause list once per unit, earliest unit first."""
    work = list(clauses)
    fixes = []
    while True:
        if any(len(c) == 0 for c in work):
            return work, fixes
        unit = next((c for c in work if len(c) == 1), None)
        if unit is None:
            return work, fixes
        lit = unit[0]
        var, val = abs(lit), lit > 0
        fixes.append((var, val))
        sat_lit = var if val else -var
        new = []
        for c in work:
            if sat_lit in c:
                continue
            if -sat_lit in c:
                new.append(tuple(l for l in c if l != -sat_lit))
            else:
                new.append(c)
        work = new


def _naive_subsume(st: PrepState):
    """Check every clause against every kept clause, shortest first."""
    order = sorted(range(len(st.clauses)),
                   key=lambda i: (len(st.clauses[i]), i))
    kept_sets = []
    removed = set()
    for i in order:
        s = frozenset(st.clauses[i])
        if any(k <= s for k in kept_sets):
            removed.add(i)
        else:
            kept_sets.append(s)
    st.clauses = [c for i, c in enumerate(st.clauses) if i not in removed]


_naive_subsume.__name__ = "subsume_clauses"
_naive_subsume_clauses = _ladder_pass(_naive_subsume)


def _naive_stabilize(st: PrepState, level, reports):
    """Settle a pass in rounds until a round finds no unit clause and no
    pending substitution."""
    while not st.unsat:
        ran = []
        if level >= 2 and 1 in map(len, st.clauses):
            ran.append(propagate_1sat(st))
        if level >= 4 and any(preprocess._pending_subs(st.condition,
                                                       known_values(st.condition))):
            ran.append(propagate_replaced_values(st))
        if not ran:
            break
        reports.extend(ran)


def _naive_detect_gate_groups(clauses):
    """Try every output variable and every gate kind's row encoding."""
    by_vars = {}
    for idx, c in enumerate(clauses):
        vs = frozenset(abs(l) for l in c)
        if len(vs) == len(c) == 3:
            by_vars.setdefault(vs, []).append(idx)
    groups = []
    for vs in sorted(by_vars, key=sorted):
        indices = by_vars[vs]
        distinct = {frozenset(clauses[i]) for i in indices}
        kind = None
        output = None
        if len(distinct) == 4:
            for out_var in sorted(vs):
                ins = sorted(vs - {out_var})
                for cand in _DETECT_ORDER:
                    expected = {
                        frozenset(c)
                        for c in gate_clauses(ROW_ENCODING[cand], ins[0], ins[1],
                                              out_var)
                    }
                    if distinct == expected:
                        kind, output = cand, out_var
                        break
                if kind:
                    break
        if kind:
            groups.append(GateGroup(
                variables=tuple(sorted(vs)),
                clause_indices=tuple(sorted(indices)),
                kind=kind,
                output=output,
            ))
    return groups


def _ladder_outcome(res):
    """Everything a ladder run decides: residual clauses in order, condition
    records, reports without their wall times, and branch decisions."""
    return (
        [list(c) for c in res.cnf.clauses],
        [dataclasses.astuple(r) for r in res.condition],
        [[r.name, r.vars_after, r.clauses_after] for r in res.reports],
        [dataclasses.astuple(b) for b in res.branch_decisions],
    )


@st.composite
def _messy_cnfs(draw):
    """Small CNFs with duplicate literals, tautologies, repeated units, empty
    clauses, equivalences (a, -b) (-a, b) of either sign, and whole gate
    row encodings (clauses and literals shuffled)."""
    n = draw(st.integers(1, 7))
    lit = st.integers(1, n).flatmap(lambda v: st.sampled_from((v, -v)))
    kinds = [st.lists(lit, min_size=1, max_size=4).map(tuple),
             lit.map(lambda l: (l,)),
             lit.map(lambda l: (l, l)),
             lit.map(lambda l: (l, l, -l))]
    if draw(st.integers(0, 9)) == 0:  # an empty clause stops every pass
        kinds.append(st.just(()))
    clauses = draw(st.lists(st.one_of(kinds), max_size=24))
    if n >= 2:  # level 3 substitutes them, and later fixes reach their roots
        for _ in range(draw(st.integers(0, 2))):
            a, b = draw(st.permutations(range(1, n + 1)))[:2]
            b *= draw(st.sampled_from((1, -1)))
            for row in ((a, -b), (-a, b)):
                clauses.insert(draw(st.integers(0, len(clauses))), row)
    if n >= 3:
        for kind in draw(st.lists(st.sampled_from(_DETECT_ORDER), max_size=3)):
            a, b, c = draw(st.permutations(range(1, n + 1)))[:3]
            for row in gate_clauses(ROW_ENCODING[kind], a, b, c):
                row = tuple(draw(st.permutations(row)))
                clauses.insert(draw(st.integers(0, len(clauses))), row)
    return make_cnf(n, clauses)


@given(_messy_cnfs(), st.integers(0, 3))
# level 3 substitutes 3 by 1 and leaves conflicting units: the propagation
# that empties a clause fixes 1, so a replaced-values report follows it
@example(make_cnf(3, [(1, -3), (-1, 3), (1, 3), (-1, -3)]), 0)
@settings(max_examples=100, deadline=None)
def test_indexed_passes_match_naive_oracles(cnf, seed):
    clauses = list(cnf.clauses)
    assert _unit_fixpoint(clauses) == _naive_unit_fixpoint(clauses)
    assert detect_gate_groups(clauses) == _naive_detect_gate_groups(clauses)
    st_new, st_old = _state(cnf), _state(cnf)
    rep_new, rep_old = subsume_clauses(st_new), _naive_subsume_clauses(st_old)
    assert st_new.clauses == st_old.clauses
    assert dataclasses.replace(rep_new, wall_time=0.0) == \
        dataclasses.replace(rep_old, wall_time=0.0)

    passes = dict(preprocess.LADDER_PASSES)
    passes[6] = (_naive_subsume_clauses, preprocess.eliminate_pure_literals)
    # a memoized prefix would skip the passes under test: both sides run cold
    empty_formula_memos()
    new = [_ladder_outcome(run_ladder(cnf, lvl, seed=seed))
           for lvl in range(MAX_LEVEL + 1)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(preprocess, "_unit_fixpoint", _naive_unit_fixpoint)
        mp.setattr(preprocess, "detect_gate_groups", _naive_detect_gate_groups)
        mp.setattr(preprocess, "LADDER_PASSES", passes)
        mp.setattr(preprocess, "_stabilize", _naive_stabilize)
        empty_formula_memos()
        old = [_ladder_outcome(run_ladder(cnf, lvl, seed=seed))
               for lvl in range(MAX_LEVEL + 1)]
    assert new == old


def test_gate_table_recognizes_every_kind_output_and_order():
    for kind in _DETECT_ORDER:
        for a, b, c in itertools.permutations((3, 7, 12)):
            rows = gate_clauses(ROW_ENCODING[kind], a, b, c)
            (group,) = detect_gate_groups(rows[::-1])
            assert group.variables == (3, 7, 12) and group.kind == kind
            if kind in ("XOR", "XNOR"):
                # parity gates read the same from every output: lowest wins
                assert group.output == 3
                ins = [v for v in (3, 7, 12) if v != 3]
                same = gate_clauses(ROW_ENCODING[kind], *ins, 3)
                assert set(map(frozenset, same)) == set(map(frozenset, rows))
            else:
                assert group.output == c


def test_gate_table_matches_naive_search_on_every_row_set():
    signs = list(itertools.product((1, -1), repeat=3))
    for rows in itertools.combinations(signs, 4):
        for order in itertools.permutations((3, 7, 12)):
            clauses = [tuple(s * v for s, v in zip(row, order)) for row in rows]
            assert detect_gate_groups(clauses) == _naive_detect_gate_groups(clauses)


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()[:16]


# run_ladder output for semiprime 3127 (12 bits) at level 7: seed ->
# (residual clauses, variables remaining, branch decisions, sha256 prefix of
# the whole outcome)
_PINNED_3127 = {
    1: (409, 133, [(2, True)], "f551a9919af8b160"),
    2: (394, 129, [(2, False)], "5ae3a5326c4f18ce"),
    3: (409, 133, [(2, True)], "f551a9919af8b160"),
    4: (409, 133, [(2, True)], "f551a9919af8b160"),
    5: (394, 129, [(2, False)], "5ae3a5326c4f18ce"),
}


def test_run_ladder_output_is_pinned():
    cnf, _ = generate_instance(12, 3127)
    for seed, expected in _PINNED_3127.items():
        res = run_ladder(cnf, 7, seed=seed)
        decisions = [dataclasses.astuple(b) for b in res.branch_decisions]
        assert (len(res.cnf.clauses), res.vars_remaining, decisions,
                _digest(_ladder_outcome(res))) == expected


# run_ladder output at every level: formula -> per level 0..7, the sha256
# prefix of the outcomes at seeds 1 and 2
_PINNED_LEVELS = {
    "143": ["e69616b290c37cff", "9cb3d439101d7b54", "6b46e7bff949cc75",
            "6097b0794e4c3c29", "bf99fcca3e7fd72b", "063936dfa8a40722",
            "e26c053fb6f671d5", "2bf968bfa255c486"],
    "551": ["99a14b920dd7b888", "b9fbba17ee3b8baa", "f140fccbbab4eff9",
            "9663d576b92e0bc1", "779d7b1923012625", "c5a0927c79e1f87f",
            "ecc9a9725a32c7ab", "c4baadff72fa8611"],
    "backbone": ["c76b23594c10ca4a", "dc37690031eb9623", "d820d9698c4ddebf",
                 "6227a85eb03ef07f", "4635d09347e89eca", "bffe9d8fb8336ea1",
                 "8a2d2ef43af4d5d9", "51d6428be8241137"],
}


@pytest.mark.parametrize("name", sorted(_PINNED_LEVELS))
def test_run_ladder_output_is_pinned_at_every_level(name):
    cnf = _BUILD[name]()
    assert [_digest([_ladder_outcome(run_ladder(cnf, level, seed=seed))
                     for seed in (1, 2)])
            for level in range(MAX_LEVEL + 1)] == _PINNED_LEVELS[name]


# ---------------------------------------------------------------------------
# the memoized ladder


# the formulas the memo tests ladder; each call builds one from scratch
_BUILD = {
    "143": lambda: generate_instance(8, 143)[0],
    "551": lambda: generate_instance(10, 551)[0],
    "3127": lambda: generate_instance(12, 3127)[0],
    "backbone": lambda: generate_backbone_instance(100, 429, 0.5, 0),
}


@pytest.mark.parametrize("name", sorted(_BUILD))
def test_memoized_ladder_matches_a_cold_run(name):
    build = _BUILD[name]
    cnf = build()
    apart = build()
    assert apart == cnf and apart.clauses is not cnf.clauses
    cells = [(level, seed) for level in range(MAX_LEVEL + 1) for seed in range(1, 5)]
    cold = {}
    for level, seed in cells:
        empty_formula_memos()
        cold[level, seed] = _ladder_outcome(
            run_ladder(cnf, level, seed=seed))
    empty_formula_memos()
    warm = {}
    for level, seed in cells:  # the first seed of a level fills its entry
        res = warm[level, seed] = run_ladder(cnf, level, seed=seed)
        assert _ladder_outcome(res) == cold[level, seed]
        if level < MAX_LEVEL:  # one outcome, so one object
            assert res is warm[level, 1]
    # every level's entry is in place now; another level's must never serve
    for level, seed in cells:
        res = run_ladder(apart, level, seed=seed)
        assert _ladder_outcome(res) == cold[level, seed]
        assert res is warm[level, seed]  # with the first call's pass times


def test_memoized_ladder_hands_out_one_immutable_result():
    cnf = _BUILD["551"]()
    first = run_ladder(cnf, MAX_LEVEL, seed=1)  # fills the entry
    shared = run_ladder(cnf, MAX_LEVEL, seed=1)
    assert run_ladder(_BUILD["551"](), MAX_LEVEL, seed=1) is shared
    assert isinstance(shared.condition, tuple)
    assert _ladder_outcome(shared) == _ladder_outcome(first)
    cold = run_ladder(cnf, 6, seed=0)
    assert any(r.wall_time > 0.0 for r in cold.reports)  # the passes were timed


def test_a_repeated_call_returns_the_first_result_with_its_pass_times():
    cnf = _BUILD["143"]()
    first = run_ladder(cnf, 6, seed=0)
    assert run_ladder(cnf, 6, seed=0) is first
    assert any(r.wall_time > 0.0 for r in first.reports)
