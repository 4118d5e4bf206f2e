"""Run records, TTS math, backbone instances, sweeps, and reports."""
from __future__ import annotations

import json
import math
import random

import pytest

from isingsat.cnf import brute_force_solutions, evaluate, write_dimacs
from isingsat.harness import (
    BackboneSpec,
    RunRecord,
    SweepConfig,
    aggregate_records,
    compute_tts,
    expand_instances,
    generate_backbone_instance,
    load_records,
    load_timings,
    run_experiment,
    run_repeat,
    runtime_report,
    timings_path_for,
    write_aggregates,
    write_runtime_report,
)


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


def test_tts_all_solved_returns_mean_time():
    est = compute_tts(_tts_case(10, 10, 20))
    assert est.p == 1.0 and est.t == 20.0 and est.tts == 20.0


def test_tts_half_solved():
    est = compute_tts(_tts_case(10, 5, 20))
    assert est.p == 0.5
    expected = 20.0 * math.log(0.05) / math.log(0.5)
    assert abs(est.tts - expected) < 1e-9


def test_tts_rare_success():
    est = compute_tts(_tts_case(20, 1, 100))
    assert abs(est.p - 0.05) < 1e-12
    expected = 100.0 * math.log(0.05) / math.log(0.95)
    assert abs(est.tts - expected) < 1e-9


def test_tts_no_success_is_infinite():
    est = compute_tts(_tts_case(5, 0, 7))
    assert est.p == 0.0 and math.isinf(est.tts)
    assert est.t == 0.0


def test_tts_high_confidence_clamp():
    # 19/20 solved: p = 0.95, already at the confidence target
    est = compute_tts(_tts_case(20, 19, 12))
    assert est.p == 0.95 and est.tts == 12.0


def test_tts_mean_only_over_solved():
    recs = [_rec(solved=True, iterations=10, seed=0),
            _rec(solved=True, iterations=30, seed=1),
            _rec(solved=False, iterations=500, seed=2, cap=500)]
    est = compute_tts(recs)
    assert est.t == 20.0
    assert est.num_records == 3 and est.num_solved == 2


def test_tts_rejects_empty():
    with pytest.raises(ValueError):
        compute_tts([])


# ---------------------------------------------------------------------------
# backbone instances


def test_backbone_grid_gate():
    assert BackboneSpec(n=100, m=403, b=0.10).on_grid()
    assert not BackboneSpec(n=60, m=242, b=0.50).on_grid()
    with pytest.raises(ValueError, match="grid"):
        generate_backbone_instance(BackboneSpec(n=60, m=242, b=0.50), seed=0)


def test_backbone_planted_fraction_is_lower_bound():
    # brute-forceable size: the verified planted set bounds the true backbone
    for b in (0.25, 0.50, 0.75):
        spec = BackboneSpec(n=16, m=64, b=b)
        cnf = generate_backbone_instance(spec, seed=2, force=True)
        sols = brute_force_solutions(cnf)
        assert sols
        backbone = [v for v in range(1, 17)
                    if len({s[v] for s in sols}) == 1]
        assert len(backbone) >= round(b * 16)


def test_backbone_deterministic_and_seed_sensitive():
    spec = BackboneSpec(n=14, m=56, b=0.5)
    a = generate_backbone_instance(spec, seed=5, force=True)
    b = generate_backbone_instance(spec, seed=5, force=True)
    c = generate_backbone_instance(spec, seed=6, force=True)
    assert a.clauses == b.clauses
    assert a.clauses != c.clauses


def test_backbone_parameter_validation():
    with pytest.raises(ValueError, match="n >= 3"):
        generate_backbone_instance(BackboneSpec(n=2, m=4, b=0.5), 0, force=True)


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
    p.write_text(write_dimacs(cnf))
    for spec in (f"file:{p}", str(p)):
        items = expand_instances(spec)
        assert items[0][0] == "inst"
        assert items[0][1].clauses == cnf.clauses


# ---------------------------------------------------------------------------
# repeats and sweeps


def test_run_repeat_solves_small_semiprime():
    cnf = expand_instances("semiprime:4")[0][1]
    rec = run_repeat("semiprime-04-9", cnf, level=7, strategy="dfs",
                     backend="emulator", seed=1, cap=200)
    assert rec.solved and rec.verified
    assert rec.solver_time == pytest.approx(rec.solver_calls * 0.001)
    assert rec.preprocess_time > 0.0 and rec.wall_time >= rec.preprocess_time


# Records written by the decomposition before its per-formula index and
# incremental counts existed.  Any drift in selection, freezing, QUBO
# assembly or merging changes at least one of them.
_GOLDEN_CELLS = [
    ("semiprime:10:551",
     dict(level=7, strategy="dfs", backend="emulator", seed=1, cap=20,
          budget=45, num_samples=2),
     '{"backend":"emulator","best_satisfied":217,"cap":20,'
     '"instance":"semiprime-10-551","iterations_used":20,"level":7,'
     '"num_clauses":221,"reason":"cap","seed":1,"solved":false,'
     '"solver_calls":20,"solver_time":0.02,"strategy":"dfs","verified":false}'),
    ("semiprime:8:143",
     dict(level=0, strategy="dfs", backend="emulator", seed=1, cap=25,
          budget=20, num_samples=1),
     '{"backend":"emulator","best_satisfied":382,"cap":25,'
     '"instance":"semiprime-08-143","iterations_used":25,"level":0,'
     '"num_clauses":391,"reason":"cap","seed":1,"solved":false,'
     '"solver_calls":25,"solver_time":0.025,"strategy":"dfs","verified":false}'),
    ("backbone:60:255:50",
     dict(level=7, strategy="bfs", backend="tabu", seed=6, cap=25,
          budget=45, num_samples=1),
     '{"backend":"tabu","best_satisfied":236,"cap":25,'
     '"instance":"backbone-n60-m255-b50-s0","iterations_used":9,"level":7,'
     '"num_clauses":236,"reason":"solved","seed":6,"solved":true,'
     '"solver_calls":9,"solver_time":0.009000000000000001,"strategy":"bfs",'
     '"verified":true}'),
]


@pytest.mark.parametrize("spec,cell,golden", _GOLDEN_CELLS,
                         ids=["L7-dfs-emulator", "L0-budget20", "bfs-tabu"])
def test_run_repeat_records_are_pinned(spec, cell, golden):
    instance_id, cnf = expand_instances(spec)[0]
    assert run_repeat(instance_id, cnf, **cell).to_json() == golden


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


def test_sweep_stop_on_solve(tmp_path):
    recs = run_experiment(_tiny_config(repeats=4, stop_on_solve=True),
                          out_dir=tmp_path)
    solved_at = next(i for i, r in enumerate(recs) if r.solved)
    assert len(recs) == solved_at + 1


def test_sweep_config_file_validation(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"instances": ["semiprime:4"], "repeats": 3}))
    cfg = SweepConfig.from_file(good)
    assert cfg.instances == ["semiprime:4"] and cfg.repeats == 3
    assert cfg.levels == [7] and cfg.num_samples == 10

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"instances": ["x"], "budgetz": 1}))
    with pytest.raises(ValueError, match="unknown config keys"):
        SweepConfig.from_file(bad)
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"repeats": 2}))
    with pytest.raises(ValueError, match="at least one instance"):
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
    assert by_level[7]["mean_iterations_solved"] == 15.0
    assert by_level[0]["tts"] == 4.0

    out = tmp_path / "agg.csv"
    write_aggregates(recs, out)
    header = out.read_text().splitlines()[0]
    assert header.startswith("instance,level,strategy,backend")


def test_runtime_report_prefers_sidecar_timings(tmp_path):
    recs = [_rec(seed=0), _rec(seed=1)]
    rows = runtime_report(recs)
    assert rows[0]["mean_preprocess_time"] == pytest.approx(0.125)
    sidecar = {r.key: (0.5, 1.0) for r in recs}
    rows2 = runtime_report(recs, sidecar)
    assert rows2[0]["mean_preprocess_time"] == pytest.approx(0.5)
    assert rows2[0]["mean_solver_calls"] == 10.0

    path = write_runtime_report(recs, tmp_path)
    assert path.name == "runtime_by_level.csv"
    assert "level,records,mean_preprocess_time" in path.read_text().splitlines()[0]
