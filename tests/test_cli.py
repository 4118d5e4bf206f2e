"""Command-line smoke tests driving main(argv) end to end."""
from __future__ import annotations

import csv
import json

import pytest

from isingsat import decompose
from isingsat.cli import main
from isingsat.cnf import parse_dimacs
from isingsat.harness import load_records


def test_generate_semiprime(tmp_path, capsys):
    out = tmp_path / "t4.cnf"
    assert main(["generate", "--bits", "4", "-o", str(out)]) == 0
    cnf = parse_dimacs(out.read_text())
    assert cnf.num_vars == 18
    assert "9 = 3*3" in capsys.readouterr().out


def test_generate_whole_catalog(tmp_path):
    assert main(["generate", "--bits", "7", "--all",
                 "--dir", str(tmp_path / "cat")]) == 0
    files = sorted(p.name for p in (tmp_path / "cat").glob("*.cnf"))
    assert files and all(f.startswith("semiprime-07-") for f in files)


def test_generate_whole_catalog_needs_a_dir(tmp_path, capsys):
    # every instance would overwrite the one -o path
    out = tmp_path / "one.cnf"
    assert main(["generate", "--bits", "8", "--all", "-o", str(out)]) == 2
    assert "--dir" in capsys.readouterr().err
    assert not out.exists()


def test_generate_backbone(tmp_path):
    out = tmp_path / "bb.cnf"
    assert main(["generate", "--backbone", "14", "56", "50", "--force",
                 "--seed", "3", "-o", str(out)]) == 0
    cnf = parse_dimacs(out.read_text())
    assert (cnf.num_vars, cnf.num_clauses) == (14, 56)


def test_generate_needs_a_mode(capsys):
    assert main(["generate"]) == 2
    assert "--bits or --backbone" in capsys.readouterr().err


def test_preprocess_writes_all_artifacts(tmp_path):
    src = tmp_path / "in.cnf"
    main(["generate", "--bits", "5", "-o", str(src)])
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
    assert all("wall_time" in row for row in stats)


def test_solve_and_tts_and_report(tmp_path, capsys):
    runs = tmp_path / "runs.jsonl"
    assert main(["solve", "--instance", "semiprime:4", "--level", "7",
                 "--repeats", "2", "--cap", "200",
                 "-o", str(runs)]) == 0
    recs = load_records(runs)
    assert len(recs) == 2 and all(r.solved for r in recs)
    out = capsys.readouterr().out
    assert "2/2 repeats solved" in out

    assert main(["tts", "-i", str(runs)]) == 0
    table = capsys.readouterr().out
    assert "semiprime-04-9" in table and "1.00" in table

    agg = tmp_path / "aggregates.csv"
    assert main(["report", "-i", str(runs), "-o", str(agg)]) == 0
    assert agg.exists()
    assert (tmp_path / "plotdata" / "runtime_by_level.csv").exists()


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


def test_solve_from_dimacs_file_with_trace(tmp_path):
    src = tmp_path / "in.cnf"
    main(["generate", "--bits", "4", "-o", str(src)])
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
        "cap": 200, "stop_on_solve": True,
    }))
    runs = tmp_path / "runs.jsonl"
    assert main(["solve", "--sweep", str(cfg), "-o", str(runs)]) == 0
    assert len(load_records(runs)) >= 1


def test_solve_needs_an_input(capsys):
    assert main(["solve"]) == 2
    assert "solve needs" in capsys.readouterr().err


def test_tts_empty_file(tmp_path, capsys):
    empty = tmp_path / "runs.jsonl"
    empty.write_text("")
    assert main(["tts", "-i", str(empty)]) == 1
    assert main(["report", "-i", str(empty)]) == 1


@pytest.mark.parametrize("case, says", [
    ("misspelt sweep key", "levles"),
    ("literal above the declared count", "exceeds declared variable count"),
    ("missing input file", "absent.cnf"),
    ("level out of range", "level must be between 0 and 7"),
    ("semiprime not in the catalog", "999"),
    ("spec without its bit width", "semiprime:BITS:N"),
    ("backbone spec without M and B", "backbone:N:M:B[:SEED]"),
    ("records file with a foreign key", 'not a run record: {"a": 1}'),
])
def test_bad_input_is_one_error_line(tmp_path, capsys, case, says):
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps({"instances": ["semiprime:4"], "levles": [7]}))
    bad = tmp_path / "bad.cnf"
    bad.write_text("p cnf 2 1\n1 3 0\n")
    foreign = tmp_path / "foreign.jsonl"
    foreign.write_text('{"a": 1}\n')
    runs = ["-o", str(tmp_path / "runs.jsonl"), "--repeats", "1"]
    argv = {
        "misspelt sweep key": ["solve", "--sweep", str(sweep), "-o", str(tmp_path / "r")],
        "literal above the declared count": ["solve", "-i", str(bad), *runs],
        "missing input file": ["solve", "-i", str(tmp_path / "absent.cnf"), *runs],
        "level out of range": ["solve", "--instance", "semiprime:4", "--level", "9", *runs],
        "semiprime not in the catalog": ["solve", "--instance", "semiprime:8:999", *runs],
        "spec without its bit width": ["solve", "--instance", "semiprime", *runs],
        "backbone spec without M and B": ["solve", "--instance", "backbone:100", *runs],
        "records file with a foreign key": ["tts", "-i", str(foreign)],
    }[case]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("isingsat: error: ") and err.count("\n") == 1
    assert says in err


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


def test_solve_help_shows_the_sweep_config_defaults(capsys):
    with pytest.raises(SystemExit):
        main(["solve", "--help"])
    out = capsys.readouterr().out
    assert "default: ['dfs']" in out and "spins per slice, default: 45" in out


def test_unknown_command_exits():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
