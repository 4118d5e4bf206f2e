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
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from isingsat import decompose
from isingsat.cli import main
from isingsat.cnf import parse_dimacs, write_dimacs
from isingsat.decompose import STRATEGIES
from isingsat.harness import SweepConfig, load_records, timings_path_for
from isingsat.preprocess import MAX_LEVEL, run_ladder
from isingsat.solver import BACKENDS


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
    err = capsys.readouterr().err
    assert err.startswith("isingsat: error: ") and "--dir" in err
    assert not out.exists()


def test_generate_backbone(tmp_path):
    out = tmp_path / "bb.cnf"
    assert main(["generate", "--backbone", "14", "56", "50",
                 "--seed", "3", "-o", str(out)]) == 0
    cnf = parse_dimacs(out.read_text())
    assert (cnf.num_vars, cnf.num_clauses) == (14, 56)


def test_generate_needs_a_mode(capsys):
    assert main(["generate"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("isingsat: error: ") and "--bits or --backbone" in err


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
    # each pass name fixes its ladder level, so no row names a level
    assert all(row.keys() == {"pass", "vars_remaining", "clauses_remaining",
                              "wall_time"} for row in stats)


def test_preprocess_default_seed_is_the_first_solve_repeats(tmp_path):
    src = tmp_path / "in.cnf"
    main(["generate", "--bits", "10", "--semiprime", "551", "-o", str(src)])
    cnf = parse_dimacs(src.read_text())
    out = tmp_path / "out.cnf"
    assert main(["preprocess", "-i", str(src), "-o", str(out)]) == 0
    first = run_ladder(cnf, MAX_LEVEL, seed=SweepConfig.seed)
    other = run_ladder(cnf, MAX_LEVEL, seed=0)
    assert first.branch_decisions != other.branch_decisions  # the seed shows
    assert out.read_text() == write_dimacs(first.cnf)


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


def test_tts_and_report_skip_a_torn_record(tmp_path, capsys):
    runs = tmp_path / "runs.jsonl"
    assert main(["solve", "--instance", "semiprime:6", "--level", "7",
                 "--repeats", "2", "--cap", "3", "-o", str(runs)]) == 0
    whole = runs.read_text()
    capsys.readouterr()
    assert main(["tts", "-i", str(runs)]) == 0
    table = capsys.readouterr().out
    # an interrupted sweep's last append
    runs.write_text(whole + '{"backend":"emu')
    assert main(["tts", "-i", str(runs)]) == 0
    assert capsys.readouterr().out == table
    report = ["report", "-i", str(runs), "-o", str(tmp_path / "agg.csv")]
    assert main(report) == 0
    # the same line before the last one is damage, not a torn append
    runs.write_text('{"backend":"emu\n' + whole)
    capsys.readouterr()
    for argv in (["tts", "-i", str(runs)], report):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("isingsat: error: ") and err.count("\n") == 1
        assert f"{runs}: line 1 is malformed (Unterminated string" in err


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
    err = capsys.readouterr().err
    assert err.startswith("isingsat: error: ") and "solve needs" in err


def test_tts_empty_file(tmp_path, capsys):
    empty = tmp_path / "runs.jsonl"
    empty.write_text("")
    assert main(["tts", "-i", str(empty)]) == 1
    assert main(["report", "-i", str(empty)]) == 1


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
    ("clause wider than 3", "clause width 4 exceeds 3"),
    ("clause wider than 3 into a new runs directory", "clause width 4 exceeds 3"),
    ("records file with a foreign key", 'not a run record: {"a": 1}'),
    ("negative ladder seed", "seed must be >= 0, got -3"),
    ("negative backbone seed", "seed must be >= 0, got -3"),
    ("backbone with semiprime flags", "drop --bits, --dir"),
    ("backbone with an encoding option", "drop --option"),
    ("semiprime with a seed", "drop --seed"),
    ("whole catalog and one semiprime", "drop --semiprime"),
    ("output file and output dir", "drop -o/--output"),
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
    tabu_sweep = tmp_path / "tabu.json"
    tabu_sweep.write_text(json.dumps({"instances": ["semiprime:4"], "repeats": 1,
                                      "backends": ["tabu", "emulator"]}))
    runs = ["-o", str(tmp_path / "runs.jsonl"), "--repeats", "1"]
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
        "clause wider than 3": ["solve", "-i", str(wide), "--level", "0",
                                "--cap", "50", *runs],
        "clause wider than 3 into a new runs directory": [
            "solve", "-i", str(wide), "--level", "0", "--repeats", "1",
            "-o", str(tmp_path / "r" / "runs.jsonl")],
        "records file with a foreign key": ["tts", "-i", str(foreign)],
        "negative ladder seed": ["preprocess", "-i", str(good), "--seed", "-3",
                                 "-o", str(out)],
        "negative backbone seed": ["generate", "--backbone", "14", "56", "50",
                                   "--seed", "-3", "-o", str(out)],
        "backbone with semiprime flags": ["generate", "--backbone", "14", "56", "50",
                                          "--dir", str(tmp_path / "d"), "--bits", "8",
                                          "-o", str(out)],
        "backbone with an encoding option": ["generate", "--backbone", "14", "56", "50",
                                             "--option", "2", "-o", str(out)],
        "semiprime with a seed": ["generate", "--bits", "8", "--seed", "5",
                                  "-o", str(out)],
        "whole catalog and one semiprime": ["generate", "--bits", "8", "--all",
                                            "--semiprime", "143",
                                            "--dir", str(tmp_path / "d")],
        "output file and output dir": ["generate", "--bits", "8", "--all",
                                       "--dir", str(tmp_path / "d"), "-o", str(out)],
    }[case]
    before = set(tmp_path.iterdir())
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("isingsat: error: ") and err.count("\n") == 1
    assert says in err
    assert set(tmp_path.iterdir()) == before  # no file written


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
    (["--stop-on-solve"], "drop --stop-on-solve"),
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
    (["generate", "--bits", "x"], "argument --bits: invalid int value: 'x'"),
    (["generate", "--backbone", "10", "40", "50.3"],
     "argument --backbone: invalid int value: '50.3'"),
    (["solve", "--instance", "semiprime:4", "--frobnicate"],
     "unrecognized arguments: --frobnicate"),
])
def test_rejected_flag_is_one_error_line(capsys, argv, says):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err == f"isingsat: error: {says}\n"


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


_GENERATE_VALUES = {
    "--bits": st.one_of(st.integers(4, 8).map(str),
                        st.sampled_from(("x", "", "3", "17", "-4"))),
    "--semiprime": st.one_of(st.sampled_from(("9", "15", "143", "221")),
                             st.integers(-1, 300).map(str)),
    "--all": st.just(()),
    "--option": st.sampled_from(("1", "2", "3")),
    "--backbone": st.tuples(st.integers(1, 8), st.integers(0, 30),
                            st.integers(-10, 110)).map(lambda t: tuple(map(str, t))),
    "--seed": st.integers(-2, 3).map(str),
    "-o": st.just("out.cnf"),
    "--dir": st.just("d"),
}


def _generate_flags(required: tuple[str, ...], optional: tuple[str, ...]):
    return st.fixed_dictionaries(
        {k: _GENERATE_VALUES[k] for k in required},
        optional={k: _GENERATE_VALUES[k] for k in optional})


# a semiprime's flags, a backbone's flags, or any subset of all of them
_GENERATE_FLAGS = st.one_of(
    _generate_flags(("--bits",), ("--semiprime", "--all", "--option", "-o", "--dir")),
    _generate_flags(("--backbone",), ("--seed", "-o")),
    _generate_flags((), tuple(_GENERATE_VALUES)))


@given(_GENERATE_FLAGS)
@settings(max_examples=60, deadline=None)
def test_every_generate_flag_vector_ends_in_a_result_or_one_error_line(flags):
    argv = ["generate"]
    for flag, value in flags.items():
        argv += [flag, *((value,) if isinstance(value, str) else value)]
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # generate without -o or --dir writes into the cwd
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code, wrote = _ends_cleanly(argv, Path(tmp))
        finally:
            os.chdir(cwd)
    assert code == 2 or code == 0 and wrote
    # the one warning generate gives: XOR gates keep their row encoding
    assert all("no implication-form encoding" in str(w.message) for w in caught)


@functools.cache
def _two_records() -> tuple[bytes, bytes]:
    """A real runs.jsonl of two records and its timings sidecar."""
    with tempfile.TemporaryDirectory() as tmp:
        runs = Path(tmp) / "runs.jsonl"
        assert _main(["solve", "-i", "semiprime:4", "--level", "0", "--cap", "3",
                      "--repeats", "2", "-o", str(runs)])[0] == 0
        return runs.read_bytes(), timings_path_for(runs).read_bytes()


_WRONG_VALUES = ("x", "", 1.5, None, [], {}, True, 7, -1)


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
    fields damaged by ``damage_line``, a blank line put in, or bytes that
    are not UTF-8 put in."""
    lines = data.split(b"\n")  # the last is empty: the file ends in a newline
    at = draw(st.integers(0, len(lines) - 2))
    line = lines[at]
    damage = draw(st.sampled_from(("cut", "truncate", "field", "blank", "bytes")))
    if damage == "truncate":
        return data[:len(b"\n".join(lines[:at])) + draw(st.integers(0, len(line)))]
    if damage == "cut":  # the rest of the line is lost, its newline kept
        lines[at] = line[:draw(st.integers(0, len(line)))]
    elif damage == "field":
        lines[at] = draw(damage_line(line))
    elif damage == "blank":
        lines.insert(at, b"")
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
        assert not _ends_cleanly(["tts", "-i", str(runs)], tmp)[1]
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
    "stop_on_solve": st.booleans(),
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
    damage = draw(st.sampled_from(("none", "json", "object", "key", "range", "type")))
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
