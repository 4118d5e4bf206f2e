"""Run records, TTS math, backbone instances, sweeps, and reports."""
from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import random
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from isingsat import decompose, preprocess, solver
from isingsat.cnf import (MEMO_ENTRIES, brute_force_solutions, evaluate, make_cnf,
                          write_dimacs)
from isingsat.harness import (
    RunRecord,
    SweepConfig,
    aggregate_records,
    expand_instances,
    generate_backbone_instance,
    load_records,
    load_timings,
    run_experiment,
    run_repeat,
    runtime_report,
    timings_path_for,
    tts_curve,
    write_csv,
)

from conftest import HEAVY_TAIL, empty_formula_memos, random_3sat


def _rec(solved=True, iterations=10, seed=0, level=7, instance="x",
         strategy="dfs", backend="emulator", cap=100):
    return RunRecord(
        instance=instance, strategy=strategy, level=level, backend=backend,
        seed=seed, cap=cap, solved=solved, verified=solved,
        iterations_used=iterations, solver_calls=iterations,
        best_satisfied=5 if solved else 4, num_clauses=5,
        solver_time=iterations * 0.001, reason="solved" if solved else "cap",
        preprocess_time=0.125, wall_time=0.5)


# ---------------------------------------------------------------------------
# records


def test_record_roundtrip_drops_measured_times():
    rec = _rec()
    line = rec.to_json()
    d = json.loads(line)
    assert "preprocess_time" not in d and "wall_time" not in d
    assert "solver_time" in d  # derived, so it stays
    back = RunRecord.from_json(line)
    assert back.preprocess_time == 0.0 and back.wall_time == 0.0
    assert back.key == rec.key
    assert back.to_json() == line


@pytest.mark.parametrize("wrong", [
    {"level": "7"},  # would load under the key of a real level-7 cell
    {"solved": "no", "verified": "no"},  # tts_curve would count it solved
    {"verified": 1},
    {"seed": 1.5},
    {"seed": True},
    {"instance": 5},
    {"reason": None},
    {"iterations_used": 2.0},
    {"solver_time": "0.01"},
    {"solver_time": False},
], ids=str)
def test_record_refuses_a_field_of_the_wrong_type(wrong):
    d = {**json.loads(_rec().to_json()), **wrong}
    with pytest.raises(ValueError, match=next(iter(wrong))):
        RunRecord.from_json(json.dumps(d))


def test_record_loads_an_integer_solver_time():
    d = {**json.loads(_rec().to_json()), "solver_time": 0}
    assert RunRecord.from_json(json.dumps(d)).solver_time == 0


def test_a_record_of_the_wrong_type_is_refused_with_its_file_and_line(tmp_path):
    runs = tmp_path / "runs.jsonl"
    bad = {**json.loads(_rec().to_json()), "level": "7"}
    runs.write_text(_rec(seed=1).to_json() + "\n" + json.dumps(bad) + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{runs}: line 2 is malformed (level")):
        load_records(runs)


def test_record_json_is_canonical():
    d = json.loads(_rec().to_json())
    assert list(d) == sorted(d)
    assert " " not in _rec().to_json().split('"instance"')[0]


def test_record_invariants():
    with pytest.raises(ValueError, match="verified"):
        RunRecord(instance="x", strategy="dfs", level=0, backend="emulator",
                  seed=0, cap=10, solved=True, verified=False,
                  iterations_used=1, solver_calls=1, best_satisfied=1,
                  num_clauses=1, solver_time=0.0)
    with pytest.raises(ValueError, match="cap"):
        _rec(iterations=101, cap=100)


def test_record_key_identifies_cell():
    assert _rec(seed=3).key == "x|7|dfs|emulator|3"
    assert _rec(seed=3).key != _rec(seed=4).key


# ---------------------------------------------------------------------------
# time to solution


def _tts_case(num, solved, iters):
    return [_rec(solved=i < solved, iterations=iters, seed=i) for i in range(num)]


def _at_cap(records):
    return tts_curve(records)[-1]


def test_tts_all_solved_returns_mean_time():
    est = _at_cap(_tts_case(10, 10, 20))
    assert est.p == 1.0 and est.cost == 20.0 and est.tts == 20.0


def test_tts_half_solved():
    est = _at_cap(_tts_case(10, 5, 20))
    assert est.p == 0.5
    expected = 20.0 * math.log(0.05) / math.log(0.5)
    assert abs(est.tts - expected) < 1e-9


def test_tts_rare_success():
    est = _at_cap(_tts_case(20, 1, 100))
    assert abs(est.p - 0.05) < 1e-12
    expected = 100.0 * math.log(0.05) / math.log(0.95)
    assert abs(est.tts - expected) < 1e-9


def test_tts_no_success_is_infinite():
    curve = tts_curve(_tts_case(5, 0, 7))
    assert len(curve) == 1 and curve[0].cutoff == 100
    assert curve[0].p == 0.0 and math.isinf(curve[0].tts)
    assert curve[0].cost == 7.0  # charged, though nothing solved


def test_tts_high_confidence_clamp():
    # 19/20 solved: p = 0.95, already at the confidence target
    est = _at_cap(_tts_case(20, 19, 12))
    assert est.p == 0.95 and est.tts == 12.0


def test_tts_charges_every_repeat():
    recs = [_rec(solved=True, iterations=10, seed=0, cap=500),
            _rec(solved=True, iterations=30, seed=1, cap=500),
            _rec(solved=False, iterations=500, seed=2, cap=500)]
    est = _at_cap(recs)
    assert est.cost == 180.0  # (10 + 30 + 500) / 3, not the solved mean of 20
    assert est.cutoff == 500 and est.p == pytest.approx(2 / 3)


def test_tts_rejects_empty():
    with pytest.raises(ValueError):
        tts_curve([])


def test_tts_curve_of_a_heavy_tailed_cell():
    recs = ([_rec(iterations=k, seed=i, cap=1000) for i, k in enumerate(HEAVY_TAIL)]
            + [_rec(solved=False, iterations=1000, seed=100 + i, cap=1000)
               for i in range(24)])
    curve = tts_curve(recs)
    assert [pt.cutoff for pt in curve] == sorted(set(HEAVY_TAIL)) + [1000]
    at_cap = curve[-1]
    assert (at_cap.p, at_cap.cost) == (0.4, pytest.approx(654.9))
    assert at_cap.tts == pytest.approx(3840.66, abs=0.01)
    # charging only the solved repeats, as TTS once did, reads 804.90
    solved_mean = sum(HEAVY_TAIL) / len(HEAVY_TAIL)
    assert solved_mean * math.log(0.05) / math.log(0.6) == pytest.approx(804.90, abs=0.01)
    best = next(pt for pt in curve if pt.cutoff == 37)
    assert (best.p, best.cost) == (0.225, pytest.approx(34.4))
    assert best.tts == pytest.approx(404.30, abs=0.01)
    assert all(pt.tts > best.tts for pt in curve if pt is not best)
    [row] = aggregate_records(recs)
    assert (row["best_cutoff"], row["solved_pct_at_cutoff"], row["tts_at_cutoff"]) == \
        (37, 22.5, 404.3)


def test_tts_curve_of_a_mixed_cap_cell():
    # a mixed-cap cell is cut at its smallest cap; the solve at 150 lies past
    # it, and an unsat-marker repeat is charged its 0 iterations
    recs = [_rec(iterations=5, seed=0, cap=200), _rec(iterations=150, seed=1, cap=200),
            _rec(solved=False, iterations=100, seed=2, cap=100),
            _rec(solved=False, iterations=0, seed=3, cap=200)]
    curve = tts_curve(recs)
    assert [(pt.cutoff, pt.p, pt.cost) for pt in curve] == [
        (5, 0.25, 3.75), (100, 0.25, 51.25)]
    assert curve[0].tts == pytest.approx(3.75 * math.log(0.05) / math.log(0.75))


@pytest.mark.parametrize("spec, cell, caps", [
    # level 7 solves semiprime:6 in 0 or 1 iterations, level 0 in 11 to 29
    ("semiprime:6", dict(level=7, strategy="dfs", backend="emulator"), (0, 3)),
    ("semiprime:6", dict(level=0, strategy="dfs", backend="emulator"), (15, 30)),
    ("backbone:14:56:50:3", dict(level=0, strategy="bfs", backend="tabu"), (5, 30)),
], ids=["semiprime-L7-emulator", "semiprime-L0-emulator", "backbone-tabu"])
def test_a_repeat_at_a_smaller_cap_is_its_prefix(spec, cell, caps):
    """What makes one sweep's curve valid: a record at cap c is the repeat at
    cap C > c cut at c."""
    instance_id, cnf = expand_instances(spec)[0]
    small, large = caps
    outcomes = set()
    for seed in range(1, 13):
        at = {cap: run_repeat(instance_id, cnf, SweepConfig(instances=[spec], cap=cap,
                                                            num_samples=2),
                              seed=seed, **cell) for cap in caps}
        long_run = at[large]
        if long_run.iterations_used <= small:  # it stops within c
            assert at[small].to_json() == replace(long_run, cap=small).to_json()
            outcomes.add("stops within c")
        else:
            assert not at[small].solved and at[small].iterations_used == small
            outcomes.add("cut at c")
    assert outcomes == {"stops within c", "cut at c"}


# ---------------------------------------------------------------------------
# backbone instances


def test_backbone_planted_fraction_is_lower_bound():
    # brute-forceable size: the verified planted set bounds the true backbone
    for b in (0.25, 0.50, 0.75):
        cnf = generate_backbone_instance(16, 64, b, seed=2)
        sols = brute_force_solutions(cnf)
        assert sols
        backbone = [v for v in range(1, 17)
                    if len({s[v] for s in sols}) == 1]
        assert len(backbone) >= round(b * 16)


def test_backbone_deterministic_and_seed_sensitive():
    a = generate_backbone_instance(14, 56, 0.5, seed=5)
    b = generate_backbone_instance(14, 56, 0.5, seed=5)
    c = generate_backbone_instance(14, 56, 0.5, seed=6)
    assert a.clauses == b.clauses
    assert a.clauses != c.clauses


def test_backbone_parameter_validation():
    with pytest.raises(ValueError, match="n >= 3"):
        generate_backbone_instance(2, 4, 0.5, 0)


# ---------------------------------------------------------------------------
# instance specs


def test_expand_semiprime_catalog():
    items = expand_instances("semiprime:4")
    assert [i for i, _ in items] == ["semiprime-04-9"]
    assert items[0][1].num_vars == 18


def test_expand_semiprime_single_target():
    items = expand_instances("semiprime:8:143")
    assert len(items) == 1 and items[0][0] == "semiprime-08-143"
    with pytest.raises(ValueError, match="catalog"):
        expand_instances("semiprime:8:10")


def test_expand_backbone_spec():
    items = expand_instances("backbone:14:56:50:3")
    assert items[0][0] == "backbone-n14-m56-b50-s3"
    assert items[0][1].num_vars == 14
    assert items[0][1].num_clauses == 56


def test_expand_file(tmp_path):
    cnf = expand_instances("semiprime:4")[0][1]
    p = tmp_path / "inst.cnf"
    p.write_text(write_dimacs(cnf, comments=["product 9"]))
    digest = hashlib.sha256(write_dimacs(cnf).encode()).hexdigest()[:12]
    names = set()
    for spec in (f"file:{p}", str(p)):
        items = expand_instances(spec)
        names.add(items[0][0])
        assert items[0][1].clauses == cnf.clauses
    assert names == {f"inst-{digest}"}


def test_file_instances_share_records_by_formula_not_by_stem(tmp_path):
    first, other = (expand_instances(s)[0][1] for s in ("semiprime:4", "semiprime:5"))
    paths = {}
    for where, cnf in (("a", first), ("b", other), ("c", first)):
        (tmp_path / where).mkdir()
        paths[where] = tmp_path / where / "x.cnf"
        paths[where].write_text(write_dimacs(cnf))
    ran = {where: run_experiment(SweepConfig(instances=[str(path)], repeats=1,
                                             cap=200), tmp_path / "r")
           for where, path in paths.items()}
    # a different formula under the same stem runs; the same one reached
    # by another path is already done
    assert [len(ran[w]) for w in "abc"] == [1, 1, 0]
    assert ran["a"][0].instance != ran["b"][0].instance


# ---------------------------------------------------------------------------
# repeats and sweeps


def test_run_repeat_solves_small_semiprime():
    cnf = expand_instances("semiprime:4")[0][1]
    rec = run_repeat("semiprime-04-9", cnf,
                     SweepConfig(instances=["semiprime:4"], cap=200), level=7,
                     strategy="dfs", backend="emulator", seed=1)
    assert rec.solved and rec.verified
    assert rec.solver_time == pytest.approx(rec.solver_calls * 0.001)
    assert rec.preprocess_time > 0.0 and rec.wall_time >= rec.preprocess_time


# Records written by the decomposition before its per-formula index and
# incremental counts existed.  Any drift in selection, freezing, QUBO
# assembly or merging changes at least one of them.
_GOLDEN_CELLS = [
    ("semiprime:10:551",
     dict(level=7, strategy="dfs", backend="emulator", seed=1),
     dict(cap=20, budget=45, num_samples=2),
     '{"backend":"emulator","best_satisfied":217,"cap":20,'
     '"instance":"semiprime-10-551","iterations_used":20,"level":7,'
     '"num_clauses":221,"reason":"cap","seed":1,"solved":false,'
     '"solver_calls":20,"solver_time":0.02,"strategy":"dfs","verified":false}'),
    ("semiprime:8:143",
     dict(level=0, strategy="dfs", backend="emulator", seed=1),
     dict(cap=25, budget=20, num_samples=1),
     '{"backend":"emulator","best_satisfied":382,"cap":25,'
     '"instance":"semiprime-08-143","iterations_used":25,"level":0,'
     '"num_clauses":391,"reason":"cap","seed":1,"solved":false,'
     '"solver_calls":25,"solver_time":0.025,"strategy":"dfs","verified":false}'),
    ("backbone:60:255:50",
     dict(level=7, strategy="bfs", backend="tabu", seed=6),
     dict(cap=25, budget=45, num_samples=1),
     '{"backend":"tabu","best_satisfied":236,"cap":25,'
     '"instance":"backbone-n60-m255-b50-s0","iterations_used":9,"level":7,'
     '"num_clauses":236,"reason":"solved","seed":6,"solved":true,'
     '"solver_calls":9,"solver_time":0.009000000000000001,"strategy":"bfs",'
     '"verified":true}'),
]


@pytest.mark.parametrize("spec,cell,settings,golden", _GOLDEN_CELLS,
                         ids=["L7-dfs-emulator", "L0-budget20", "bfs-tabu"])
def test_run_repeat_records_are_pinned(spec, cell, settings, golden):
    instance_id, cnf = expand_instances(spec)[0]
    config = SweepConfig(instances=[spec], **settings)
    assert run_repeat(instance_id, cnf, config, **cell).to_json() == golden


@pytest.mark.skipif(not solver.kernels.COMPILED_KERNELS,
                    reason="compiled kernels unavailable")
def test_a_tabu_repeat_records_alike_with_the_pure_oracle(monkeypatch):
    # the compiled tabu stops where its search repeats itself; the oracle
    # spends every move of the budget, and the record must not tell them apart.
    # The oracle reads its own couplings layout, the dense list
    spec = "backbone:100:429:50"
    instance_id, cnf = expand_instances(spec)[0]
    config = SweepConfig(instances=[spec], cap=10, budget=45, num_samples=1)
    cell = dict(level=7, strategy="bfs", backend="tabu", seed=1)
    compiled = run_repeat(instance_id, cnf, config, **cell).to_json()
    monkeypatch.setattr(solver, "couplings", solver.kernels._kernels_py.couplings)
    monkeypatch.setattr(solver, "tabu", solver.kernels._kernels_py.tabu)
    assert run_repeat(instance_id, cnf, config, **cell).to_json() == compiled


@pytest.mark.parametrize("spec,cell,settings,golden", _GOLDEN_CELLS,
                         ids=["L7-dfs-emulator", "L0-budget20", "bfs-tabu"])
def test_golden_repeats_record_alike_with_every_slice_kernel_pure(
        monkeypatch, spec, cell, settings, golden):
    # the pinned records are the compiled start tally, walk, freeze, merge,
    # model build and chip scaling's wherever a C compiler exists
    # (test_run_repeat_records_are_pinned); tabu scales no slice
    instance_id, cnf = expand_instances(spec)[0]
    config = SweepConfig(instances=[spec], **settings)
    pure = solver.kernels._kernels_py
    called = set()

    def spy(fn):
        def call(*args):
            called.add(fn.__name__)
            return fn(*args)
        return call

    monkeypatch.setattr(decompose, "tally", spy(pure.tally))
    monkeypatch.setattr(decompose, "walk", spy(pure.walk))
    monkeypatch.setattr(decompose, "freeze", spy(pure.freeze))
    monkeypatch.setattr(decompose, "merge", spy(pure.merge))
    monkeypatch.setattr(solver.kernels, "qubo", spy(pure.qubo))
    monkeypatch.setattr(solver.kernels, "ising", spy(pure.ising))
    monkeypatch.setattr(solver.kernels, "scale", spy(pure.scale))
    assert run_repeat(instance_id, cnf, config, **cell).to_json() == golden
    scaled = {"scale"} if cell["backend"] == "emulator" else set()
    assert called == {"tally", "walk", "freeze", "merge", "qubo", "ising", *scaled}


# Every solver call's best spins over a short repeat, hashed, on calls
# with more reads than the golden cells take.  Nearly every such call has
# several reads tied at its best energy, so these digests pin which read the
# solver keeps (the first lowest), not only how good it is.
_READ_CELLS = [
    ("semiprime:10:551",
     dict(level=7, strategy="dfs", backend="emulator", seed=1),
     dict(cap=8, budget=45, num_samples=10), "4964f7a1f976af91"),
    ("backbone:60:255:50",
     dict(level=7, strategy="bfs", backend="tabu", seed=6),
     dict(cap=8, budget=45, num_samples=3), "b53fb01c73f58c20"),
]
_READ_IDS = ["L7-dfs-emulator-10-reads", "bfs-tabu-3-reads"]


def _repeat_with_spy(monkeypatch, spec, cell, settings):
    """Run one repeat; return each solver call's (model, result)."""
    calls = []
    solve = decompose.solve

    def spy(model, **kwargs):
        calls.append((model, solve(model, **kwargs)))
        return calls[-1][1]

    monkeypatch.setattr(decompose, "solve", spy)
    instance_id, cnf = expand_instances(spec)[0]
    run_repeat(instance_id, cnf, SweepConfig(instances=[spec], **settings), **cell)
    return calls


@pytest.mark.parametrize("spec,cell,settings,golden", _READ_CELLS, ids=_READ_IDS)
def test_best_reads_are_pinned(monkeypatch, spec, cell, settings, golden):
    calls = _repeat_with_spy(monkeypatch, spec, cell, settings)
    assert len(calls) == settings["cap"]
    spins = [result.best_spins for _model, result in calls]
    assert hashlib.sha256(repr(spins).encode()).hexdigest()[:16] == golden


@pytest.mark.parametrize("spec,cell,settings,golden", _READ_CELLS, ids=_READ_IDS)
def test_kernel_energy_is_the_model_energy_on_every_slice(monkeypatch, spec, cell,
                                                          settings, golden):
    """The solver keeps the read with the lowest kernel energy; on the
    slices the pipeline builds, that energy plus the offset is the model's."""
    reads = []
    for name in ("anneal", "tabu"):
        def kept(*args, kernel=getattr(solver, name)):
            reads.append(kernel(*args))
            return reads[-1]
        monkeypatch.setattr(solver, name, kept)
    calls = _repeat_with_spy(monkeypatch, spec, cell, settings)
    assert len(reads) == len(calls) * settings["num_samples"]
    for k, (spins, energy, _extra) in enumerate(reads):
        model = calls[k // settings["num_samples"]][0]
        assert energy + model.offset == model.energy(spins)


def test_a_repeat_on_an_equal_formula_reruns_only_the_guess(monkeypatch):
    """A repeat runs the ladder only for a guess value that no earlier repeat
    on an equal formula drew: each outcome of the guess runs once."""
    spec = "semiprime:10:551"
    cnf = expand_instances(spec)[0][1]
    decisions = {seed: preprocess.run_ladder(cnf, 7, seed=seed).branch_decisions
                 for seed in range(1, 7)}
    first, twin = next((a, b) for a, b in itertools.combinations(decisions, 2)
                       if decisions[a] == decisions[b])
    other = next(seed for seed in decisions if decisions[seed] != decisions[first])
    empty_formula_memos()
    calls = []

    def spy(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return run

    passes = {fn.__name__: spy(fn) for fns in preprocess.LADDER_PASSES.values()
              for fn in fns}
    for name, fn in passes.items():
        monkeypatch.setattr(preprocess, name, fn)
    monkeypatch.setattr(preprocess, "LADDER_PASSES", {
        level: tuple(passes[fn.__name__] for fn in fns)
        for level, fns in preprocess.LADDER_PASSES.items()})
    config = SweepConfig(instances=[spec], cap=2)

    def repeat(level, seed):
        instance_id, cnf = expand_instances(spec)[0]  # a new, equal formula
        calls.clear()
        built = decompose.build_vig.cache_info().misses
        run_repeat(instance_id, cnf, config, level=level, strategy="dfs",
                   backend="emulator", seed=seed)
        built = decompose.build_vig.cache_info().misses - built
        return list(calls) + ["build_vig"] * built

    assert {"reencode_option2", "subsume_clauses", "build_vig"} <= set(repeat(6, 1))
    assert repeat(6, 2) == []
    assert "condition_2sat" in repeat(7, first)
    assert repeat(7, twin) == []
    assert {"reencode_option2", "branch_probe", "build_vig"} <= set(repeat(7, other))


def test_formula_memos_keep_at_most_their_bound():
    rng = random.Random(3)
    for _ in range(20):
        cnf = random_3sat(12, 30, rng)
        preprocess.run_ladder(cnf, 6, seed=0)
        decompose.build_vig(cnf)
    assert preprocess._ladder.cache_info().currsize == MEMO_ENTRIES
    assert decompose.build_vig.cache_info().currsize == MEMO_ENTRIES


def test_equal_formulas_built_apart_share_one_memo_entry():
    a, b = (random_3sat(12, 30, random.Random(5)) for _ in range(2))
    assert a is not b and a == b
    assert "_hash" not in vars(a)  # a formula never hashed pays nothing
    assert hash(a) == hash(b) == hash((a.num_vars, a.clauses))
    assert vars(a)["_hash"] == hash(a)  # kept after the first call
    preprocess.run_ladder(a, 6, seed=0)
    assert preprocess.run_ladder(b, 6, seed=0) is preprocess.run_ladder(a, 6, seed=0)
    assert decompose.build_vig(a) is decompose.build_vig(b)
    assert (preprocess._ladder.cache_info().currsize
            == decompose.build_vig.cache_info().currsize == 1)


def test_formula_memos_hold_a_sweep_over_every_level_and_guess():
    # levels 0-6 and both outcomes of the guess: 9 ladder keys, up to 9 residuals
    cnf = expand_instances("semiprime:10:551")[0][1]

    def sweep():
        built = decompose.build_vig.cache_info().misses
        times = []
        for level in range(preprocess.MAX_LEVEL + 1):
            for guess in (False, True) if level == preprocess.MAX_LEVEL else (None,):
                res = preprocess._ladder(cnf, level, guess)
                decompose.build_vig(res.cnf)
                times += [r.wall_time for r in res.reports]
        return times, decompose.build_vig.cache_info().misses - built

    times, vigs = sweep()
    assert any(times) and vigs  # the first sweep fills both memos
    misses = preprocess._ladder.cache_info().misses
    # the second hits every entry and hands back the first sweep's times
    assert sweep() == (times, 0)
    assert preprocess._ladder.cache_info().misses == misses


@given(st.data(), st.sampled_from((0, preprocess.MAX_LEVEL)), st.integers(1, 5))
@settings(max_examples=60, deadline=None)
def test_a_repeat_on_clauses_wider_than_3_raises_only_the_width_error(
        data, level, seed):
    n = data.draw(st.integers(1, 6))
    lit = st.integers(1, n).flatmap(lambda v: st.sampled_from((v, -v)))
    clauses = data.draw(st.lists(st.lists(lit, min_size=1, max_size=4).map(tuple),
                                 min_size=1, max_size=12))
    cnf = make_cnf(n, clauses)
    config = SweepConfig(instances=["x"], cap=20, budget=data.draw(st.integers(0, 6)),
                         num_samples=1)
    residual = preprocess.run_ladder(cnf, level, seed=seed).cnf
    repeat = functools.partial(run_repeat, "x", cnf, config, level=level,
                               strategy="dfs", backend="emulator", seed=seed)
    if residual.max_clause_width() > 3 and not residual.is_unsat_marked():
        with pytest.raises(ValueError, match="the decomposition slices only 3-CNF"):
            repeat()
    else:
        assert repeat().iterations_used <= config.cap


def _tiny_config(**over):
    base = dict(instances=["semiprime:4"], levels=[7], strategies=["dfs"],
                backends=["emulator"], repeats=2, seed=1, cap=200, budget=45)
    base.update(over)
    return SweepConfig(**base)


def test_sweep_writes_parseable_records(tmp_path):
    recs = run_experiment(_tiny_config(), out_dir=tmp_path)
    assert len(recs) == 2
    loaded = load_records(tmp_path / "runs.jsonl")
    assert [r.key for r in loaded] == [r.key for r in recs]
    timings = load_timings(timings_path_for(tmp_path / "runs.jsonl"))
    assert set(timings) == {r.key for r in recs}
    assert all(pre > 0 and wall >= pre for pre, wall in timings.values())


def test_sweep_runs_every_cell_of_every_instance_in_order(tmp_path):
    config = _tiny_config(instances=["semiprime:4", "semiprime:5"], levels=[0, 7],
                          strategies=["dfs", "bfs"], repeats=1, cap=5)
    ids = [i for spec in config.instances for i, _ in expand_instances(spec)]
    recs = run_experiment(config, out_dir=tmp_path)
    assert [(r.instance, r.level, r.strategy) for r in recs] == \
        list(itertools.product(ids, [0, 7], ["dfs", "bfs"]))


def test_sweep_resume_skips_completed_cells(tmp_path):
    run_experiment(_tiny_config(), out_dir=tmp_path)
    before = (tmp_path / "runs.jsonl").read_text()
    again = run_experiment(_tiny_config(), out_dir=tmp_path)
    assert again == []
    assert (tmp_path / "runs.jsonl").read_text() == before
    # widening the sweep appends only the new cells
    more = run_experiment(_tiny_config(repeats=3), out_dir=tmp_path)
    assert len(more) == 1 and more[0].seed == 3


def test_sweep_resume_mends_a_torn_last_line(tmp_path):
    run_experiment(_tiny_config(), out_dir=tmp_path)
    runs = tmp_path / "runs.jsonl"
    whole = runs.read_bytes()
    # an append cut short: the torn record is dropped and its cell runs again
    runs.write_bytes(whole[:-20])
    again = run_experiment(_tiny_config(), out_dir=tmp_path)
    assert [r.seed for r in again] == [2]
    assert runs.read_bytes() == whole
    # a whole last record that lost only its newline is kept
    runs.write_bytes(whole[:-1])
    assert run_experiment(_tiny_config(), out_dir=tmp_path) == []
    assert runs.read_bytes() == whole
    # damage before the last line is not a torn append
    first, second = whole.splitlines(keepends=True)
    runs.write_bytes(first[:-20] + b"\n" + second)
    with pytest.raises(json.JSONDecodeError):
        run_experiment(_tiny_config(), out_dir=tmp_path)


def test_sweep_runs_file_is_deterministic(tmp_path):
    run_experiment(_tiny_config(), out_dir=tmp_path / "a")
    run_experiment(_tiny_config(), out_dir=tmp_path / "b")
    assert (tmp_path / "a" / "runs.jsonl").read_bytes() == \
        (tmp_path / "b" / "runs.jsonl").read_bytes()


def test_sweep_config_file_validation(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"instances": ["semiprime:4"], "repeats": 3}))
    cfg = SweepConfig.from_file(good)
    assert cfg.instances == ["semiprime:4"] and cfg.repeats == 3
    assert cfg.levels == [7] and cfg.num_samples == 10
    with pytest.raises(ValueError, match="budget must be between 0 and 45"):
        replace(cfg, budget=60)  # replace checks like the constructor
    for instances in ("semiprime:4", []):
        with pytest.raises(ValueError, match="instances must be a non-empty list of str"):
            replace(cfg, instances=instances)

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"instances": ["x"], "budgetz": 1}))
    with pytest.raises(ValueError, match="unknown config keys"):
        SweepConfig.from_file(bad)
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"repeats": 2}))
    with pytest.raises(ValueError, match="at least one instance"):
        SweepConfig.from_file(empty)
    empty.write_text("5")
    with pytest.raises(ValueError, match="JSON object"):
        SweepConfig.from_file(empty)


# ---------------------------------------------------------------------------
# reports


def test_aggregate_rows(tmp_path):
    recs = [_rec(solved=True, iterations=10, seed=0),
            _rec(solved=True, iterations=20, seed=1),
            _rec(solved=False, iterations=100, seed=2),
            _rec(solved=True, iterations=4, seed=0, level=0)]
    rows = aggregate_records(recs)
    assert len(rows) == 2  # grouped by (instance, level, strategy, backend)
    by_level = {r["level"]: r for r in rows}
    assert by_level[7]["repeats"] == 3 and by_level[7]["solved"] == 2
    assert by_level[7]["solved_pct"] == pytest.approx(66.67)
    assert by_level[7]["mean_iterations"] == pytest.approx(43.33)  # 130 / 3
    assert by_level[7]["best_cutoff"] == 20
    assert by_level[0]["tts"] == 4.0
    assert by_level[0]["best_cutoff"] == 4  # cutoffs 4 and 100 tie: the smaller

    out = tmp_path / "agg.csv"
    write_csv(rows, out)
    header = out.read_text().splitlines()[0]
    assert header.startswith("instance,level,strategy,backend")


def test_runtime_report_prefers_sidecar_timings(tmp_path):
    recs = [_rec(seed=0), _rec(seed=1)]
    rows = runtime_report(recs, {})
    assert rows[0]["mean_preprocess_time"] == ""  # in-memory times are not read
    sidecar = {r.key: (0.5, 1.0) for r in recs}
    rows2 = runtime_report(recs, sidecar)
    assert rows2[0]["mean_preprocess_time"] == pytest.approx(0.5)
    assert rows2[0]["mean_solver_calls"] == 10.0

    path = tmp_path / "runtime_by_level.csv"
    write_csv(rows2, path)
    assert "level,records,mean_preprocess_time" in path.read_text().splitlines()[0]
