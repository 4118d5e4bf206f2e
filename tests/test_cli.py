"""Command-line smoke tests driving main(argv) end to end."""
from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import os
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from isingsat import decompose
from isingsat.circuit import generate_instance
from isingsat.cli import main
from isingsat.cnf import parse_dimacs, write_dimacs
from isingsat.decompose import STRATEGIES
from isingsat.harness import (RunRecord, SweepConfig, expand_instances,
                              generate_backbone_instance, load_records,
                              timings_path_for)
from isingsat.preprocess import MAX_LEVEL, run_ladder
from isingsat.solver import BACKENDS

from conftest import HEAVY_TAIL


def test_generate_semiprime(tmp_path, capsys):
    out = tmp_path / "t4.cnf"
    assert main(["generate", "-i", "semiprime:4:9", "-o", str(out)]) == 0
    cnf = parse_dimacs(out.read_text())
    assert cnf.num_vars == 18
    assert out.read_text() == write_dimacs(generate_instance(4, 9)[0], comments=[
        "semiprime-04-9 from spec semiprime:4:9"])
    assert f"wrote {out}: n=18" in capsys.readouterr().out


def test_generate_whole_catalog(tmp_path):
    # each file is named by the instance id that solve records, so a spec
    # without a product names no file semiprime-08-None.cnf
    assert main(["generate", "-i", "semiprime:8", "--dir", str(tmp_path / "cat")]) == 0
    files = {p.name: p.read_text() for p in (tmp_path / "cat").iterdir()}
    instances = expand_instances("semiprime:8")
    assert sorted(files) == sorted(f"{iid}.cnf" for iid, _ in instances)
    assert len(files) == 2 and not any("None" in name for name in files)
    for iid, cnf in instances:
        assert files[f"{iid}.cnf"] == write_dimacs(cnf, comments=[
            f"{iid} from spec semiprime:8"])


def test_generate_whole_catalog_needs_a_dir(tmp_path, capsys):
    # every instance would overwrite the one -o path
    out = tmp_path / "one.cnf"
    assert main(["generate", "-i", "semiprime:8", "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == ("isingsat: error: semiprime:8 names 2 instances; "
                   "give --dir to write one file each\n")
    assert not out.exists()


def test_generate_backbone(tmp_path):
    out = tmp_path / "bb.cnf"
    assert main(["generate", "-i", "backbone:14:56:50:3", "-o", str(out)]) == 0
    cnf = parse_dimacs(out.read_text())
    assert (cnf.num_vars, cnf.num_clauses) == (14, 56)
    assert cnf == generate_backbone_instance(14, 56, 0.5, 3)


def test_generate_needs_a_mode(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["generate"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == ("isingsat: error: the following "
                                       "arguments are required: -i/--instance\n")


@pytest.mark.parametrize("spec", ["semiprime:8:143", "backbone:14:56:50:3"])
def test_preprocess_of_a_spec_is_preprocess_of_its_generated_file(tmp_path, spec):
    src = tmp_path / "in.cnf"
    assert main(["generate", "-i", spec, "-o", str(src)]) == 0
    outputs = {}
    for name, given in (("spec", spec), ("file", str(src))):
        paths = [tmp_path / f"{name}{suffix}" for suffix in (".cnf", ".cond", ".rep")]
        assert main(["preprocess", "-i", given, "--level", "7", "-o", str(paths[0]),
                     "--cond", str(paths[1]), "--report", str(paths[2])]) == 0
        report = json.loads(paths[2].read_text())
        outputs[name] = (paths[0].read_bytes(), paths[1].read_bytes(),
                         [{**row, "wall_time": None} for row in report])
    assert outputs["spec"] == outputs["file"]


def test_preprocess_writes_all_artifacts(tmp_path):
    src = tmp_path / "in.cnf"
    main(["generate", "-i", "semiprime:5:21", "-o", str(src)])
    out = tmp_path / "out.cnf"
    cond = tmp_path / "cond.json"
    report = tmp_path / "report.json"
    assert main(["preprocess", "-i", str(src), "--level", "7",
                 "-o", str(out), "--cond", str(cond),
                 "--report", str(report)]) == 0
    residual = parse_dimacs(out.read_text())
    assert residual.num_clauses == 0  # 5-bit fully reduces
    rows = json.loads(cond.read_text())
    assert {r["kind"] for r in rows} <= {"fix", "sub", "pure"}
    assert any(r["kind"] == "fix" for r in rows)
    stats = json.loads(report.read_text())
    assert stats[-1]["vars_remaining"] == 0
    # each pass name fixes its ladder level, so no row names a level
    assert all(row.keys() == {"pass", "vars_remaining", "clauses_remaining",
                              "wall_time"} for row in stats)


def test_preprocess_default_seed_is_the_first_solve_repeats(tmp_path):
    src = tmp_path / "in.cnf"
    main(["generate", "-i", "semiprime:10:551", "-o", str(src)])
    cnf = parse_dimacs(src.read_text())
    out = tmp_path / "out.cnf"
    assert main(["preprocess", "-i", str(src), "-o", str(out)]) == 0
    first = run_ladder(cnf, MAX_LEVEL, seed=SweepConfig.seed)
    other = run_ladder(cnf, MAX_LEVEL, seed=0)
    assert first.branch_decisions != other.branch_decisions  # the seed shows
    assert out.read_text() == write_dimacs(first.cnf)


def test_solve_and_report(tmp_path, capsys):
    runs = tmp_path / "runs.jsonl"
    assert main(["solve", "--instance", "semiprime:4", "--level", "7",
                 "--repeats", "2", "--cap", "200",
                 "-o", str(runs)]) == 0
    recs = load_records(runs)
    assert len(recs) == 2 and all(r.solved for r in recs)
    out = capsys.readouterr().out
    assert "2/2 repeats solved" in out

    agg = tmp_path / "aggregates.csv"
    assert main(["report", "-i", str(runs), "-o", str(agg)]) == 0
    table = capsys.readouterr().out
    assert "semiprime-04-9" in table and "100.0" in table
    assert agg.exists()
    assert (tmp_path / "plotdata" / "runtime_by_level.csv").exists()


def test_report_prints_the_rows_it_writes(tmp_path, capsys):
    # the 40 repeats of a heavy-tailed cell at cap 1000, and a cell with no solve
    base = RunRecord(instance="heavy", strategy="dfs", level=7, backend="emulator",
                     seed=0, cap=1000, solved=True, verified=True, iterations_used=0,
                     solver_calls=0, best_satisfied=5, num_clauses=5, solver_time=0.0)
    records = ([replace(base, seed=i, iterations_used=k) for i, k in enumerate(HEAVY_TAIL)]
               + [replace(base, seed=100 + i, solved=False, verified=False,
                          iterations_used=1000) for i in range(24)]
               + [replace(base, instance="stuck", solved=False, verified=False,
                          iterations_used=1000)])
    runs = tmp_path / "runs.jsonl"
    runs.write_text("".join(r.to_json() + "\n" for r in records))
    agg = tmp_path / "aggregates.csv"
    assert main(["report", "-i", str(runs), "-o", str(agg)]) == 0
    assert agg.read_text().splitlines() == [
        "instance,level,strategy,backend,repeats,solved,solved_pct,mean_iterations,"
        "tts,best_cutoff,solved_pct_at_cutoff,tts_at_cutoff",
        "heavy,7,dfs,emulator,40,16,40.0,654.9,3840.66,37,22.5,404.3",
        "stuck,7,dfs,emulator,1,0,0.0,1000.0,inf,,,"]
    # one printed line per row of the file, its header first, cell for cell;
    # an empty cell prints as "-"
    *table, wrote_agg, wrote_plot = capsys.readouterr().out.splitlines()
    with agg.open(newline="") as fh:
        assert [line.split() for line in table] == [
            [cell or "-" for cell in row] for row in csv.reader(fh)]
    assert wrote_agg == f"aggregates -> {agg}"
    assert wrote_plot == f"plot data  -> {tmp_path / 'plotdata' / 'runtime_by_level.csv'}"


def test_report_leaves_preprocess_time_empty_without_timings(tmp_path):
    runs = tmp_path / "runs.jsonl"
    assert main(["solve", "--instance", "semiprime:4", "--level", "7",
                 "--repeats", "2", "--cap", "200", "-o", str(runs)]) == 0
    timings = tmp_path / "runs.timings.csv"
    lines = timings.read_text().splitlines()
    timings.write_text("\n".join(lines[:2]) + "\n")  # header + the first record
    agg = tmp_path / "aggregates.csv"
    plot = tmp_path / "plotdata" / "runtime_by_level.csv"
    assert main(["report", "-i", str(runs), "-o", str(agg)]) == 0
    first = float(lines[1].split(",")[1])
    row = plot.read_text().splitlines()[1].split(",")
    assert row[:2] == ["7", "2"] and float(row[2]) == pytest.approx(first, abs=1e-6)

    timings.unlink()
    assert main(["report", "-i", str(runs), "-o", str(agg)]) == 0
    row = plot.read_text().splitlines()[1].split(",")
    assert row[:3] == ["7", "2", ""]  # no measured time, no mean


def _torn_timing_row(runs):
    """A sidecar row cut off after the key and the first time."""
    key = load_records(runs)[-1].key
    return f"{key.rpartition('|')[0]}|9,0.0"


def test_report_skips_a_torn_timings_row(tmp_path, capsys):
    runs = tmp_path / "runs.jsonl"
    assert main(["solve", "--instance", "semiprime:4", "--level", "7",
                 "--repeats", "2", "--cap", "200", "-o", str(runs)]) == 0
    timings = tmp_path / "runs.timings.csv"
    whole = timings.read_text()
    timings.write_text(whole + _torn_timing_row(runs))
    agg = tmp_path / "aggregates.csv"
    assert main(["report", "-i", str(runs), "-o", str(agg)]) == 0
    plot = tmp_path / "plotdata" / "runtime_by_level.csv"
    row = plot.read_text().splitlines()[1].split(",")
    assert row[:2] == ["7", "2"] and float(row[2]) > 0.0
    # the same row before the last one is damage, not a torn append
    lines = whole.splitlines(keepends=True)
    timings.write_text(lines[0] + _torn_timing_row(runs) + "\n" + "".join(lines[1:]))
    capsys.readouterr()
    assert main(["report", "-i", str(runs), "-o", str(agg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("isingsat: error: ") and err.count("\n") == 1
    assert "line 2 is malformed" in err


def test_a_timings_field_over_the_csv_limit_is_malformed(tmp_path):
    # csv raises its own csv.Error, not a ValueError, on such a field
    runs_bytes, timings_bytes = _two_records()
    runs = tmp_path / "runs.jsonl"
    runs.write_bytes(runs_bytes)
    head, rows = timings_bytes.split(b"\n", 1)
    long_row = b"k" * (csv.field_size_limit() + 1) + b",0.0,0.0"
    timings_path_for(runs).write_bytes(head + b"\n" + long_row + b"\n" + rows)
    code, err = _main(["report", "-i", str(runs), "-o", str(tmp_path / "agg.csv")])
    assert code == 2 and "line 2 is malformed (field larger than field limit" in err
    assert not (tmp_path / "agg.csv").exists()


def test_report_skips_a_torn_record(tmp_path, capsys):
    runs, agg = tmp_path / "runs.jsonl", tmp_path / "agg.csv"
    assert main(["solve", "--instance", "semiprime:6", "--level", "7",
                 "--repeats", "2", "--cap", "3", "-o", str(runs)]) == 0
    whole = runs.read_text()
    capsys.readouterr()
    report = ["report", "-i", str(runs), "-o", str(agg)]
    assert main(report) == 0
    table, rows = capsys.readouterr().out, agg.read_bytes()
    # an interrupted sweep's last append
    runs.write_text(whole + '{"backend":"emu')
    assert main(report) == 0
    assert capsys.readouterr().out == table and agg.read_bytes() == rows
    # the same line before the last one is damage, not a torn append
    runs.write_text('{"backend":"emu\n' + whole)
    assert main(report) == 2
    err = capsys.readouterr().err
    assert err.startswith("isingsat: error: ") and err.count("\n") == 1
    assert f"{runs}: line 1 is malformed (Unterminated string" in err
    assert agg.read_bytes() == rows


def test_report_writes_nothing_when_its_plot_directory_is_a_file(tmp_path):
    runs = tmp_path / "runs.jsonl"
    runs.write_bytes(_two_records()[0])
    (tmp_path / "plotdata").write_text("")
    code, err = _main(["report", "-i", str(runs), "-o", str(tmp_path / "agg.csv")])
    assert code == 2 and "File exists" in err
    assert not (tmp_path / "agg.csv").exists()


def test_resume_after_a_torn_timings_row_then_report(tmp_path):
    runs = tmp_path / "runs.jsonl"
    solve = ["solve", "--instance", "semiprime:4", "--level", "7",
             "--cap", "200", "-o", str(runs), "--repeats"]
    assert main([*solve, "2"]) == 0
    timings = tmp_path / "runs.timings.csv"
    whole = timings.read_text()
    timings.write_text(whole + _torn_timing_row(runs))
    assert main([*solve, "3"]) == 0
    lines = timings.read_text().splitlines()
    assert lines[:3] == whole.splitlines() and len(lines) == 4
    assert main(["report", "-i", str(runs), "-o", str(tmp_path / "agg.csv")]) == 0


def test_solve_appends_to_the_default_runs_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ["solve", "-i", "semiprime:8:143", "--repeats", "1", "--cap", "1"]
    assert main(argv) == 0
    assert len(load_records(tmp_path / "results" / "runs.jsonl")) == 1


def test_solve_from_dimacs_file_with_trace(tmp_path):
    src = tmp_path / "in.cnf"
    main(["generate", "-i", "semiprime:4:9", "-o", str(src)])
    runs = tmp_path / "runs.jsonl"
    trace = tmp_path / "trace.csv"
    assert main(["solve", "-i", str(src), "--level", "0", "--repeats", "1",
                 "--cap", "300", "-o", str(runs), "--trace", str(trace)]) == 0
    lines = trace.read_text().splitlines()
    assert lines[0] == "sweep,temperature,best_energy"
    assert len(lines) > 1


def test_solve_trace_is_the_sweeps_first_solver_call(tmp_path, monkeypatch):
    calls = []
    solve = decompose.solve
    monkeypatch.setattr(decompose, "solve", lambda model, **kwargs:
                        calls.append((model, kwargs)) or solve(model, **kwargs))
    argv = ["solve", "--instance", "semiprime:10:551", "--level", "0",
            "--seed", "1", "--repeats", "1", "--cap", "1", "--budget", "20",
            "--num-samples", "3", "-o", str(tmp_path / "runs.jsonl")]
    trace = tmp_path / "trace.csv"
    assert main([*argv, "--trace", str(trace)]) == 0
    model, kwargs = calls[0]
    first = solve(model, **{**kwargs, "collect_trace": True})
    with trace.open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[1:] == [[str(x) for x in row] for row in first.trace]
    # a resumed sweep runs no repeat, and still writes the same trace
    again = tmp_path / "again.csv"
    assert main([*argv, "--trace", str(again)]) == 0
    assert again.read_text() == trace.read_text()


def test_solve_sweep_config(tmp_path):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({
        "instances": ["semiprime:4"], "levels": [7], "repeats": 2,
        "cap": 200,
    }))
    runs = tmp_path / "runs.jsonl"
    assert main(["solve", "--sweep", str(cfg), "-o", str(runs)]) == 0
    assert len(load_records(runs)) == 2


def test_the_removed_stop_on_solve_is_one_error_line(tmp_path, capsys):
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps({"instances": ["semiprime:4"], "stop_on_solve": True}))
    runs = tmp_path / "r" / "runs.jsonl"
    assert main(["solve", "--sweep", str(sweep), "-o", str(runs)]) == 2
    assert capsys.readouterr().err == \
        "isingsat: error: unknown config keys: ['stop_on_solve']\n"
    with pytest.raises(SystemExit) as exc:
        main(["solve", "-i", "semiprime:4", "--stop-on-solve", "-o", str(runs)])
    assert exc.value.code == 2
    assert capsys.readouterr().err == \
        "isingsat: error: unrecognized arguments: --stop-on-solve\n"
    assert list(tmp_path.iterdir()) == [sweep]


def test_solve_needs_an_input(capsys):
    assert main(["solve"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("isingsat: error: ") and "solve needs" in err


def test_report_of_an_empty_file(tmp_path):
    empty = tmp_path / "runs.jsonl"
    empty.write_text("")
    assert _main(["report", "-i", str(empty)]) == (1, "no records\n")
    assert _main(["report", "-i", str(empty), "-o", str(tmp_path / "agg.csv")]) == (
        1, "no records\n")
    assert list(tmp_path.iterdir()) == [empty]


@pytest.mark.parametrize("case, says", [
    ("misspelt sweep key", "levles"),
    ("sweep key of a removed setting", "unknown config keys: ['max_guesses']"),
    ("literal above the declared count", "exceeds declared variable count"),
    ("missing input file", "absent.cnf"),
    ("level out of range", "level must be between 0 and 7"),
    ("semiprime not in the catalog", "999"),
    ("spec without its bit width", "semiprime:BITS:N"),
    ("backbone spec without M and B", "backbone:N:M:B[:SEED]"),
    ("non-numeric semiprime width", "bad instance spec 'semiprime:x'"),
    ("non-numeric semiprime", "bad instance spec 'semiprime:8:x'"),
    ("non-numeric backbone percentage", "bad instance spec 'backbone:10:40:x'"),
    ("fractional backbone percentage", "bad instance spec 'backbone:200:800:50.3'"),
    ("non-numeric backbone seed", "bad instance spec 'backbone:10:40:50:x'"),
    ("trace of a tabu run", "drop --trace"),
    ("trace of a sweep whose first backend is tabu", "drop --trace"),
    ("trace of a repeat the ladder solves", "makes no solver call); drop --trace"),
    ("trace into a missing directory", "No such file or directory"),
    ("trace of no repeats", "runs no repeat (repeats is 0); drop --trace"),
    ("trace of a sweep file of no repeats", "runs no repeat (repeats is 0); drop --trace"),
    ("clause wider than 3", "clause width 4 exceeds 3"),
    ("clause wider than 3 into a new runs directory", "clause width 4 exceeds 3"),
    ("sweep with a bad later spec", "bit_width must be between 4 and 16"),
    ("sweep with a missing later file", "absent.cnf"),
    ("trace of a sweep with a bad later spec", "bit_width must be between 4 and 16"),
    ("trace of a sweep with a missing later file", "absent.cnf"),
    ("trace with a malformed runs file", "line 1 is malformed"),
    ("records file with a foreign key", 'not a run record: {"a": 1}'),
    ("negative ladder seed", "seed must be >= 0, got -3"),
    ("condition list into a missing directory", "no directory"),
    ("pass report into a missing directory", "no directory"),
    ("negative backbone seed", "seed must be >= 0, got -3"),
    ("output file and output dir", "drop -o/--output"),
    ("generate of a malformed spec", "bad instance spec 'semiprime:x'"),
    ("preprocess of a spec of several instances",
     "semiprime:8 names 2 instances; preprocess takes one"),
    ("preprocess of a semiprime not in the catalog", "999"),
])
def test_bad_input_is_one_error_line(tmp_path, capsys, case, says):
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps({"instances": ["semiprime:4"], "levles": [7]}))
    guesses = tmp_path / "guesses.json"
    guesses.write_text(json.dumps({"instances": ["semiprime:4"], "max_guesses": 1}))
    bad = tmp_path / "bad.cnf"
    bad.write_text("p cnf 2 1\n1 3 0\n")
    good = tmp_path / "good.cnf"
    good.write_text("p cnf 3 2\n1 2 0\n-1 3 0\n")
    wide = tmp_path / "wide.cnf"
    wide.write_text("p cnf 4 4\n1 2 3 4 0\n-1 -2 -3 -4 0\n1 -2 3 -4 0\n"
                    "-1 2 -3 4 0\n")
    foreign = tmp_path / "foreign.jsonl"
    foreign.write_text('{"a": 1}\n')
    no_repeats = tmp_path / "none.json"
    no_repeats.write_text(json.dumps({"instances": ["semiprime:8:143"], "levels": [0],
                                      "cap": 3, "repeats": 0}))
    tabu_sweep = tmp_path / "tabu.json"
    tabu_sweep.write_text(json.dumps({"instances": ["semiprime:4"], "repeats": 1,
                                      "backends": ["tabu", "emulator"]}))
    # the first spec is good, and at level 0 its repeat makes solver calls
    later = {name: tmp_path / f"{name}.json" for name in ("bad", "missing")}
    for name, spec in (("bad", "semiprime:99"),
                       ("missing", str(tmp_path / "absent.cnf"))):
        later[name].write_text(json.dumps({"instances": ["semiprime:4", spec],
                                           "levels": [0], "repeats": 1, "cap": 5}))
    runs = ["-o", str(tmp_path / "runs.jsonl"), "--repeats", "1"]
    garbled = tmp_path / "garbled.jsonl"
    garbled.write_text("garbage\n")
    out = tmp_path / "out.cnf"
    argv = {
        "misspelt sweep key": ["solve", "--sweep", str(sweep), "-o", str(tmp_path / "r")],
        "sweep key of a removed setting": ["solve", "--sweep", str(guesses), *runs[:2]],
        "literal above the declared count": ["solve", "-i", str(bad), *runs],
        "missing input file": ["solve", "-i", str(tmp_path / "absent.cnf"), *runs],
        "level out of range": ["solve", "--instance", "semiprime:4", "--level", "9", *runs],
        "semiprime not in the catalog": ["solve", "--instance", "semiprime:8:999", *runs],
        "spec without its bit width": ["solve", "--instance", "semiprime", *runs],
        "backbone spec without M and B": ["solve", "--instance", "backbone:100", *runs],
        "non-numeric semiprime width": ["solve", "--instance", "semiprime:x", *runs],
        "non-numeric semiprime": ["solve", "--instance", "semiprime:8:x", *runs],
        "non-numeric backbone percentage": ["solve", "--instance", "backbone:10:40:x",
                                            *runs],
        "non-numeric backbone seed": ["solve", "--instance", "backbone:10:40:50:x",
                                      *runs],
        # its id would hold the rounded percent of another formula
        "fractional backbone percentage": ["solve", "--instance",
                                           "backbone:200:800:50.3", *runs],
        "trace of a tabu run": ["solve", "-i", str(good), "--backend", "tabu",
                                "--level", "0", "--cap", "3", *runs,
                                "--trace", str(tmp_path / "t.csv")],
        "trace of a sweep whose first backend is tabu": [
            "solve", "--sweep", str(tabu_sweep), "-o", str(tmp_path / "r" / "runs.jsonl"),
            "--trace", str(tmp_path / "t.csv")],
        "trace of a repeat the ladder solves": [
            "solve", "--instance", "semiprime:4", "--level", "7", "--cap", "3",
            *runs, "--trace", str(tmp_path / "t.csv")],
        "trace into a missing directory": [
            "solve", "--instance", "semiprime:8:143", "--level", "0", "--cap", "2",
            *runs, "--trace", str(tmp_path / "nodir" / "t.csv")],
        "trace of no repeats": [
            "solve", "-i", "semiprime:8:143", "--level", "0", "--cap", "3", "--repeats", "0",
            "-o", str(tmp_path / "runs.jsonl"), "--trace", str(tmp_path / "t.csv")],
        "trace of a sweep file of no repeats": [
            "solve", "--sweep", str(no_repeats), "-o", str(tmp_path / "runs.jsonl"),
            "--trace", str(tmp_path / "t.csv")],
        "clause wider than 3": ["solve", "-i", str(wide), "--level", "0",
                                "--cap", "50", *runs],
        "clause wider than 3 into a new runs directory": [
            "solve", "-i", str(wide), "--level", "0", "--repeats", "1",
            "-o", str(tmp_path / "r" / "runs.jsonl")],
        "sweep with a bad later spec": ["solve", "--sweep", str(later["bad"]),
                                        *runs[:2]],
        "sweep with a missing later file": ["solve", "--sweep", str(later["missing"]),
                                            *runs[:2]],
        "trace of a sweep with a bad later spec": [
            "solve", "--sweep", str(later["bad"]), *runs[:2],
            "--trace", str(tmp_path / "t.csv")],
        "trace of a sweep with a missing later file": [
            "solve", "--sweep", str(later["missing"]), *runs[:2],
            "--trace", str(tmp_path / "t.csv")],
        "trace with a malformed runs file": [
            "solve", "-i", "semiprime:8:143", "--level", "0", "--cap", "2",
            "--repeats", "1", "-o", str(garbled), "--trace", str(tmp_path / "t.csv")],
        "records file with a foreign key": ["report", "-i", str(foreign),
                                            "-o", str(tmp_path / "agg.csv")],
        "negative ladder seed": ["preprocess", "-i", str(good), "--seed", "-3",
                                 "-o", str(out)],
        "condition list into a missing directory": [
            "preprocess", "-i", str(good), "-o", str(out),
            "--cond", str(tmp_path / "nodir" / "c.json")],
        "pass report into a missing directory": [
            "preprocess", "-i", str(good), "-o", str(out),
            "--report", str(tmp_path / "nodir" / "r.json")],
        "negative backbone seed": ["generate", "-i", "backbone:14:56:50:-3",
                                   "-o", str(out)],
        "output file and output dir": ["generate", "-i", "semiprime:8",
                                       "--dir", str(tmp_path / "d"), "-o", str(out)],
        "generate of a malformed spec": ["generate", "-i", "semiprime:x",
                                         "--dir", str(tmp_path / "d")],
        "preprocess of a spec of several instances": ["preprocess", "-i", "semiprime:8",
                                                      "-o", str(out)],
        "preprocess of a semiprime not in the catalog": [
            "preprocess", "-i", "semiprime:8:999", "-o", str(out)],
    }[case]
    before = set(tmp_path.iterdir())
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("isingsat: error: ") and err.count("\n") == 1
    assert says in err
    assert set(tmp_path.iterdir()) == before  # no file written


_SAME_FILE = {
    "report over its input": (
        ["report", "-i", "runs.jsonl", "-o", "runs.jsonl"],
        "runs.jsonl is both -i/--input and -o/--output"),
    "report over its timings file": (
        ["report", "-i", "runs.jsonl", "-o", "./runs.timings.csv"],
        "runs.timings.csv is both the timings file of -i/--input and -o/--output"),
    "report's plot data over its input": (
        ["report", "-i", "plotdata/runtime_by_level.csv", "-o", "agg.csv"],
        "plotdata/runtime_by_level.csv is both -i/--input and the plot data"),
    # loop/plotdata is a link to loop itself
    "report's plot data over its -o": (
        ["report", "-i", "runs.jsonl", "-o", "loop/plotdata/runtime_by_level.csv"],
        "loop/plotdata/plotdata/runtime_by_level.csv is both -o/--output and "
        "the plot data"),
    "preprocess with --cond over -o": (
        ["preprocess", "-i", "semiprime:8:143", "-o", "r.cnf", "--cond", "r.cnf"],
        "r.cnf is both -o/--output and --cond"),
    "preprocess with --report over -o": (
        ["preprocess", "-i", "x.cnf", "-o", "r.cnf", "--report", "loop/../r.cnf"],
        "loop/../r.cnf is both -o/--output and --report"),
    "preprocess over its input": (
        ["preprocess", "-i", "file:x.cnf", "-o", "x.cnf"],
        "x.cnf is both -i/--input and -o/--output"),
    "generate over its input": (
        ["generate", "-i", "x.cnf", "-o", "x.cnf"],
        "x.cnf is both -i/--instance and -o/--output"),
    "solve over its instance": (
        ["solve", "-i", "x.cnf", "--cap", "1", "--repeats", "1", "-o", "x.cnf"],
        "x.cnf is both an instance file and -o/--output"),
    "solve over its sweep file": (
        ["solve", "--sweep", "sweep.json", "-o", "sweep.json"],
        "sweep.json is both --sweep and -o/--output"),
    "solve with --trace over its runs file": (
        ["solve", "-i", "semiprime:8:143", "--level", "0", "--cap", "1",
         "--repeats", "1", "-o", "runs.jsonl", "--trace", "runs.jsonl"],
        "runs.jsonl is both -o/--output and --trace"),
    "solve with --trace over the timings file": (
        ["solve", "-i", "semiprime:8:143", "--level", "0", "--cap", "1",
         "--repeats", "1", "-o", "runs.jsonl", "--trace", "runs.timings.csv"],
        "runs.timings.csv is both the timings file of -o/--output and --trace"),
}


@pytest.mark.parametrize("case", _SAME_FILE)
def test_no_command_writes_over_its_input_or_its_own_output(
        tmp_path, monkeypatch, case):
    argv, says = _SAME_FILE[case]
    monkeypatch.chdir(tmp_path)
    runs_bytes, timings_bytes = _two_records()
    Path("runs.jsonl").write_bytes(runs_bytes)
    Path("runs.timings.csv").write_bytes(timings_bytes)
    Path("plotdata").mkdir()
    Path("plotdata", "runtime_by_level.csv").write_bytes(runs_bytes)
    Path("x.cnf").write_text(write_dimacs(generate_instance(4, 9)[0]))
    Path("sweep.json").write_text(json.dumps({"instances": ["semiprime:4"]}))
    Path("loop").mkdir()
    Path("loop", "plotdata").symlink_to(".")

    def files():
        return {Path(top, name): Path(top, name).read_bytes()
                for top, _dirs, names in os.walk(".") for name in names}

    before = files()
    assert _main(argv) == (2, f"isingsat: error: {says}\n")
    assert files() == before


@pytest.mark.parametrize("case, says", [
    ("unknown backend in a sweep", "'quantum' is not one of the backends"),
    ("unknown strategy in a sweep", "'random' is not one of the strategies"),
    ("no reads per solver call", "num_samples must be >= 1, got 0"),
    ("budget above the chip", "budget must be between 0 and 45, got 60"),
    ("repeats given as a string", "repeats must be an int, got '2'"),
])
def test_bad_setting_writes_no_record(tmp_path, capsys, case, says):
    # level 7 solves semiprime:8:143 without a solver call, so no layer
    # below the config would see these settings
    cell = {"instances": ["semiprime:8:143"], "levels": [7], "repeats": 2}
    sweep = {
        "unknown backend in a sweep": {**cell, "backends": ["quantum"]},
        "unknown strategy in a sweep": {**cell, "strategies": ["dfs", "random"]},
        "repeats given as a string": {**cell, "repeats": "2"},
    }.get(case)
    runs = tmp_path / "runs.jsonl"
    if sweep:
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(sweep))
        argv = ["solve", "--sweep", str(path), "-o", str(runs)]
    else:
        flag = {"no reads per solver call": ["--num-samples", "0"],
                "budget above the chip": ["--budget", "60"]}[case]
        argv = ["solve", "--instance", "semiprime:8:143", "--repeats", "2",
                "--cap", "3", *flag, "-o", str(runs)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("isingsat: error: ") and err.count("\n") == 1
    assert says in err
    assert not runs.exists()


@pytest.mark.parametrize("flags, says", [
    (["--cap", "1"], "drop --cap"),
    (["--cap", "5000"], "drop --cap"),  # the default, given on purpose
    (["--level", "7", "--num-samples", "10"], "drop --level, --num-samples"),
    (["--repeats", "1"], "drop --repeats"),  # the file's own value
    (["--instance", "semiprime:4"], "drop -i/--instance"),
    (["-i", "in.cnf"], "drop -i/--instance"),
])
def test_sweep_takes_no_instance_or_setting_flag(tmp_path, capsys, flags, says):
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps({"instances": ["semiprime:4"], "cap": 7,
                                 "repeats": 1}))
    runs = tmp_path / "runs.jsonl"
    assert main(["solve", "--sweep", str(sweep), *flags, "-o", str(runs)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("isingsat: error: ") and err.count("\n") == 1
    assert says in err
    assert not runs.exists()


@pytest.mark.parametrize("argv, says", [
    (["generate", "-i"], "argument -i/--instance: expected one argument"),
    (["generate", "-i", "semiprime:4", "--bits", "4"],
     "unrecognized arguments: --bits 4"),
    (["solve", "--instance", "semiprime:4", "--frobnicate"],
     "unrecognized arguments: --frobnicate"),
])
def test_rejected_flag_is_one_error_line(capsys, argv, says):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err == f"isingsat: error: {says}\n"


@pytest.mark.parametrize("argv, flag", [
    (["solve", "-i", "semiprime:4", "--level", "0", "--level", "7", "-o", "{runs}"],
     "--level"),
    (["solve", "-i", "semiprime:4", "-i", "semiprime:5", "-o", "{runs}"],
     "-i/--instance"),
    (["solve", "-i", "semiprime:4", "--lev", "0", "--level", "7", "-o", "{runs}"],
     "--level"),
    (["solve", "--sweep", "{sweep}", "--sweep", "{sweep}", "-o", "{runs}"], "--sweep"),
    (["preprocess", "-i", "semiprime:4:9", "--seed", "1", "--seed", "2",
      "-o", "{out}"], "--seed"),
    (["generate", "-i", "semiprime:4:9", "-o", "{out}", "--output", "{out}"],
     "-o/--output"),
    (["report", "-i", "{runs}", "-o", "{out}", "-o", "{out}"], "-o/--output"),
])
def test_a_flag_given_twice_is_one_error_line(tmp_path, capsys, argv, flag):
    # otherwise the last one would win without a word
    paths = {"runs": tmp_path / "r" / "runs.jsonl", "out": tmp_path / "out",
             "sweep": tmp_path / "sweep.json"}
    paths["sweep"].write_text(json.dumps({"instances": ["semiprime:4"]}))
    with pytest.raises(SystemExit) as exc:
        main([arg.format(**paths) for arg in argv])
    assert exc.value.code == 2
    assert capsys.readouterr().err == \
        f"isingsat: error: argument {flag}: given more than once\n"
    assert list(tmp_path.iterdir()) == [paths["sweep"]]


def test_a_sweep_that_would_skip_a_shorter_record_is_refused(tmp_path, capsys):
    runs = tmp_path / "r" / "runs.jsonl"
    solve = ["solve", "-i", "semiprime:8:143", "--level", "0", "--repeats", "2",
             "-o", str(runs), "--cap"]
    assert main([*solve, "1"]) == 0
    written = runs.read_bytes(), timings_path_for(runs).read_bytes()
    capsys.readouterr()
    trace = tmp_path / "t.csv"
    for extra in ([], ["--trace", str(trace)]):
        assert main([*solve, "50", *extra]) == 2
        assert capsys.readouterr().err == (
            f"isingsat: error: {runs} holds semiprime-08-143|0|dfs|emulator|1 at "
            "cap 1, below this sweep's cap 50; resuming would skip it, so write "
            "to another runs file\n")
        assert (runs.read_bytes(), timings_path_for(runs).read_bytes()) == written
        assert not trace.exists()
    # a record at a larger cap than the sweep's stays usable: tts_curve cuts it
    assert main([*solve, "0"]) == 0
    assert main([*solve, "1"]) == 0
    assert "0/0 repeats solved" in capsys.readouterr().out
    assert (runs.read_bytes(), timings_path_for(runs).read_bytes()) == written


def test_solve_help_shows_the_sweep_config_defaults(capsys):
    with pytest.raises(SystemExit):
        main(["solve", "--help"])
    out = capsys.readouterr().out
    assert "default: ['dfs']" in out and "spins per slice, default: 45" in out


def test_unknown_command_exits():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_a_declared_variable_count_costs_nothing_when_few_clauses_follow(tmp_path):
    # one clause over variable 1 under a header of 200,000: a list, dict or
    # loop over the declared count alone would pass 2 MB
    cnf = tmp_path / "in.cnf"
    cnf.write_text("p cnf 200000 1\n1 0\n")
    for level in (0, MAX_LEVEL):
        runs = tmp_path / f"runs{level}.jsonl"
        tracemalloc.start()
        try:
            code = main(["solve", "-i", str(cnf), "--repeats", "1", "--cap", "2",
                         "--level", str(level), "-o", str(runs)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and load_records(runs)[0].solved
        assert peak < 2_000_000, (level, peak)


def test_a_high_variable_costs_nothing_when_few_clauses_hold_it(tmp_path):
    # four units over the highest declared variables, beyond a C int: the
    # index follows the variables the clauses hold, not their numbers
    cnf = tmp_path / "in.cnf"
    cnf.write_text("p cnf 4000000000 4\n-4000000000 0\n3999999999 0\n"
                   "-3999999998 0\n3999999997 0\n")
    for level in (0, MAX_LEVEL):
        runs = tmp_path / f"runs{level}.jsonl"
        tracemalloc.start()
        try:
            code = main(["solve", "-i", str(cnf), "--repeats", "1", "--cap", "4",
                         "--level", str(level), "-o", str(runs)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        record = load_records(runs)[0]
        assert code == 0 and record.solved
        assert record.iterations_used >= (level == 0)  # the walk and freeze ran
        assert peak < 2_000_000, (level, peak)


# ---------------------------------------------------------------------------
# every input ends in a result or one error line

_BAD_HEADERS = ("p cnf x 3", "p dnf 3 3", "p cnf -1 2", "p cnf 3", "p  cnf 3 1 9")


@st.composite
def _dimacs_texts(draw):
    """DIMACS texts as users hand them in: small formulas with clauses up to
    4 wide and the empty clause, or chains of equivalences; some are then
    truncated, given a bad token, a bad or missing header, or a literal
    above the declared count."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 8))
        lit = st.integers(1, n).flatmap(lambda v: st.sampled_from((v, -v)))
        clauses = draw(st.lists(st.lists(lit, min_size=1, max_size=4), max_size=14))
        if draw(st.integers(0, 9)) == 0:
            clauses.insert(draw(st.integers(0, len(clauses))), [])
    else:  # v_k == v_k+1 for every k, in any clause order
        n = draw(st.integers(2, 60))
        clauses = draw(st.permutations(
            [c for k in range(1, n) for c in ([k, -k - 1], [-k, k + 1])]))
        clauses += draw(st.lists(st.sampled_from(([1], [-n], [1, n], [-1, -n])),
                                 max_size=2))
    lines = [f"p cnf {n} {len(clauses)}",
             *(" ".join(map(str, c + [0])) for c in clauses)]
    damage = draw(st.sampled_from(("none", "none", "truncate", "token", "header",
                                   "range")))
    if damage == "token":
        at = draw(st.integers(1, len(lines)))
        lines.insert(at, draw(st.sampled_from(("x 0", "1.5 0", "1 - 0", "0x1 0"))))
    elif damage == "header":
        lines[0] = draw(st.sampled_from(_BAD_HEADERS + ("", "c no header")))
        if draw(st.booleans()):
            lines.append(f"p cnf {n} 0")
    elif damage == "range":
        lines.insert(draw(st.integers(1, len(lines))), f"{n + 1} 0")
    text = "\n".join(lines) + "\n"
    if damage == "truncate":
        text = text[:draw(st.integers(0, len(text) - 1))]
    return text


def _main(argv: list[str]) -> tuple[int, str]:
    """Exit status and stderr of one in-process run."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # an argparse rejection
            code = exc.code
    return code, err.getvalue()


@given(_dimacs_texts(), st.integers(0, MAX_LEVEL), st.integers(0, MAX_LEVEL),
       st.sampled_from(BACKENDS), st.integers(0, 45))
@settings(max_examples=100, deadline=None)
def test_every_input_ends_in_a_result_or_one_error_line(
        text, pre_level, level, backend, budget):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        cnf = tmp / "in.cnf"
        cnf.write_text(text)
        out, runs = tmp / "out.cnf", tmp / "r" / "runs.jsonl"
        for argv, writes in (
                (["preprocess", "-i", str(cnf), "--level", str(pre_level),
                  "-o", str(out)], out),
                (["solve", "-i", str(cnf), "--repeats", "1", "--cap", "2",
                  "--level", str(level), "--backend", backend,
                  "--budget", str(budget), "-o", str(runs)], runs.parent)):
            code, err = _main(argv)
            if code == 0:
                assert err == "" and writes.exists()
            else:
                assert code == 2
                assert err.startswith("isingsat: error: ") and err.count("\n") == 1
                assert not writes.exists()
        if code == 0:
            assert len(load_records(runs)) == 1



def _ends_cleanly(argv: list[str], tmp: Path) -> tuple[int, bool]:
    """Run one command in process and check that it ends in exit 0, in exit 1
    with ``no records``, or in exit 2 with one error line and no file
    written under ``tmp``; returns the status and whether a file appeared."""
    before = set(tmp.rglob("*"))
    code, err = _main(argv)
    wrote = set(tmp.rglob("*")) != before
    if code == 0:
        assert err == ""
    elif code == 1:
        assert err == "no records\n"
    elif code != 0:
        assert code == 2
        assert err.startswith("isingsat: error: ") and err.count("\n") == 1
        assert not wrote
    return code, wrote


_INT_TEXT = st.one_of(st.integers(-2, 300).map(str),
                     st.sampled_from(("x", "", "1.5", "0x9")))

# valid specs, malformed ones and ones that name several instances
_GENERATE_SPECS = st.one_of(
    st.integers(4, 8).map(lambda bits: f"semiprime:{bits}"),
    st.tuples(st.one_of(st.integers(3, 8).map(str), _INT_TEXT),
              st.sampled_from(("9", "15", "21", "143", "221")) | _INT_TEXT)
    .map(lambda t: "semiprime:" + ":".join(t)),
    st.tuples(st.integers(1, 8), st.integers(0, 30), st.integers(-10, 110))
    .map(lambda t: "backbone:" + ":".join(map(str, t)))
    .flatmap(lambda spec: st.sampled_from(("", ":0", ":3", ":-1", ":x"))
             .map(lambda seed: spec + seed)),
    st.sampled_from(("semiprime", "semiprime:8:143:1", "backbone:10", "nope:1",
                     "", "file:absent.cnf", "absent.cnf", "d")))


@given(_GENERATE_SPECS, st.fixed_dictionaries(
    {}, optional={"-o": st.just("out.cnf"), "--dir": st.just("d")}))
@settings(max_examples=60, deadline=None)
def test_every_generate_flag_vector_ends_in_a_result_or_one_error_line(spec, flags):
    argv = ["generate", "-i", spec, *(x for kv in flags.items() for x in kv)]
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # generate without -o or --dir writes into the cwd
        try:
            code, wrote = _ends_cleanly(argv, Path(tmp))
        finally:
            os.chdir(cwd)
    assert code == 2 or code == 0 and wrote


@functools.cache
def _two_records() -> tuple[bytes, bytes]:
    """A real runs.jsonl of two records and its timings sidecar."""
    with tempfile.TemporaryDirectory() as tmp:
        runs = Path(tmp) / "runs.jsonl"
        assert _main(["solve", "-i", "semiprime:4", "--level", "0", "--cap", "3",
                      "--repeats", "2", "-o", str(runs)])[0] == 0
        return runs.read_bytes(), timings_path_for(runs).read_bytes()


_WRONG_VALUES = ("x", "", 1.5, None, [], {}, True, 7, -1)
# JSON nested deeper than json.loads can recurse: RecursionError, no ValueError
_DEEP = (b"[" * 100_000, b'{"a":' * 100_000)


@st.composite
def _record_line(draw, line: bytes) -> bytes:
    """A record with a field dropped, added or retyped."""
    record = json.loads(line)
    op = draw(st.sampled_from(("drop", "add", "retype")))
    key = draw(st.sampled_from(sorted(record)))
    if op == "drop":
        del record[key]
    elif op == "add":
        record["extra"] = 1
    else:
        record[key] = draw(st.sampled_from(_WRONG_VALUES))
    return json.dumps(record).encode()


@st.composite
def _timings_line(draw, line: bytes) -> bytes:
    """A timings row with a field dropped, added or retyped."""
    row = line.split(b",")
    op = draw(st.sampled_from(("drop", "add", "retype")))
    at = draw(st.integers(0, len(row) - 1))
    if op == "drop":
        del row[at]
    elif op == "add":
        row.insert(at, b"0.5")
    else:
        row[at] = draw(st.sampled_from((b"x", b"", b"1e", b'"')))
    return b",".join(row)


@st.composite
def _damaged(draw, data: bytes, damage_line) -> bytes:
    """``data`` with one line cut (the file may end there), one line's
    fields damaged by ``damage_line``, a blank line put in, bytes that are
    not UTF-8 put in, or one line nested too deeply (the file may then
    end without its last newline)."""
    lines = data.split(b"\n")  # the last is empty: the file ends in a newline
    at = draw(st.integers(0, len(lines) - 2))
    line = lines[at]
    damage = draw(st.sampled_from(("cut", "truncate", "field", "blank", "bytes",
                                   "deep")))
    if damage == "truncate":
        return data[:len(b"\n".join(lines[:at])) + draw(st.integers(0, len(line)))]
    if damage == "cut":  # the rest of the line is lost, its newline kept
        lines[at] = line[:draw(st.integers(0, len(line)))]
    elif damage == "field":
        lines[at] = draw(damage_line(line))
    elif damage == "blank":
        lines.insert(at, b"")
    elif damage == "deep":
        lines[at] = draw(st.sampled_from(_DEEP))
        if draw(st.booleans()):
            del lines[-1]
    else:
        pos = draw(st.integers(0, len(line)))
        lines[at] = (line[:pos] + draw(st.sampled_from((b"\xff", b"\x80\x81", b"\xc3")))
                     + line[pos:])
    return b"\n".join(lines)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_every_damaged_runs_file_ends_in_a_result_or_one_error_line(data):
    runs_bytes, timings_bytes = _two_records()
    if data.draw(st.booleans()):
        runs_bytes = data.draw(_damaged(runs_bytes, _record_line))
    else:
        timings_bytes = data.draw(_damaged(timings_bytes, _timings_line))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        runs = tmp / "runs.jsonl"
        runs.write_bytes(runs_bytes)
        timings_path_for(runs).write_bytes(timings_bytes)
        code, wrote = _ends_cleanly(["report", "-i", str(runs),
                                     "-o", str(tmp / "agg.csv")], tmp)
        assert code != 0 or wrote


_SWEEP_VALUES = {
    "instances": st.sampled_from((["semiprime:4"], ["backbone:8:30:50"])),
    "levels": st.lists(st.integers(0, MAX_LEVEL), min_size=1, max_size=2),
    "strategies": st.lists(st.sampled_from(STRATEGIES), min_size=1, max_size=2),
    "backends": st.lists(st.sampled_from(BACKENDS), min_size=1, max_size=2),
    "repeats": st.integers(0, 1),
    "seed": st.integers(0, 3),
    "cap": st.integers(0, 2),
    "budget": st.integers(0, 45),
    "num_samples": st.integers(1, 2),
}
_OUT_OF_RANGE = {
    "instances": ([], ["semiprime:4:15"], ["nope:1"]), "levels": ([8], [-1]),
    "strategies": (["random"],), "backends": (["quantum"],), "repeats": (-1,),
    "seed": (-1,), "cap": (-1,), "budget": (46,), "num_samples": (0,),
}


@st.composite
def _sweep_files(draw) -> bytes:
    """Sweep configs, some then made not JSON, not an object, given an
    unknown key, a value out of range or a value of the wrong type."""
    config = draw(st.fixed_dictionaries(
        {"instances": _SWEEP_VALUES["instances"]},
        optional={k: v for k, v in _SWEEP_VALUES.items() if k != "instances"}))
    damage = draw(st.sampled_from(("none", "json", "deep", "object", "key", "range",
                                   "type")))
    if damage == "deep":
        return draw(st.sampled_from(_DEEP))
    if damage == "json":
        text = json.dumps(config).encode()
        return text[:draw(st.integers(0, len(text) - 1))] + draw(
            st.sampled_from((b"", b"\xff", b"}", b"x")))
    if damage == "object":
        config = draw(st.sampled_from((list(config), 3, "instances", None)))
    elif damage == "key":
        config[draw(st.sampled_from(("levles", "max_guesses", "")))] = 1
    elif damage == "range":
        key = draw(st.sampled_from(sorted(_OUT_OF_RANGE)))
        config[key] = draw(st.sampled_from(_OUT_OF_RANGE[key]))
    elif damage == "type":
        config[draw(st.sampled_from(sorted(_SWEEP_VALUES)))] = draw(
            st.sampled_from(_WRONG_VALUES + (["x"], [1.5], [True])))
    return json.dumps(config).encode()


def test_deeply_nested_json_is_malformed_input(tmp_path):
    # json.loads raises RecursionError, not ValueError, on each of these
    runs_bytes, timings_bytes = _two_records()
    first, second = runs_bytes.splitlines(keepends=True)
    sweep, runs = tmp_path / "sweep.json", tmp_path / "runs.jsonl"
    timings_path_for(runs).write_bytes(timings_bytes)
    report = ["report", "-i", str(runs), "-o", str(tmp_path / "agg.csv")]
    for deep in _DEEP:
        sweep.write_bytes(deep)
        assert _ends_cleanly(["solve", "--sweep", str(sweep), "-o",
                              str(tmp_path / "r" / "runs.jsonl")], tmp_path)[0] == 2
        runs.write_bytes(first + deep + b"\n" + second)
        code, err = _main(report)
        assert code == 2 and f"{runs}: line 2 is malformed (nested too deeply" in err
        # a torn append is left out, and a resumed sweep cuts it off
        runs.write_bytes(runs_bytes + deep)
        assert _main(report) == (0, "")
        assert _main(["solve", "-i", "semiprime:4", "--level", "0", "--cap", "3",
                      "--repeats", "2", "-o", str(runs)]) == (0, "")
        assert runs.read_bytes() == runs_bytes


@given(_sweep_files())
@settings(max_examples=60, deadline=None)
def test_every_sweep_file_ends_in_a_result_or_one_error_line(text):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        sweep = tmp / "sweep.json"
        sweep.write_bytes(text)
        code, _wrote = _ends_cleanly(["solve", "--sweep", str(sweep), "-o",
                                      str(tmp / "r" / "runs.jsonl")], tmp)
        assert code in (0, 2)
