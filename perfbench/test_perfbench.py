"""Unit tests for the benchmark's own helpers.

Run from the root of a checkout: ``python3 -m pytest perfbench``.
"""
from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from bench_stats import (check_digest, covered, declared_metrics,  # noqa: E402
                         iteration_windows, percentile, result_line, self_time,
                         tree_digest)
from bench_trace import Span, Tracer, layer_metrics, repeat_self_sums  # noqa: E402


# percentiles


def test_percentile_matches_inclusive_quantiles():
    xs = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0]
    qs = statistics.quantiles(xs, n=100, method="inclusive")
    for q in (10, 25, 50, 75, 90):
        assert percentile(xs, q) == pytest.approx(qs[q - 1])
    assert percentile(xs, 50) == statistics.median(xs)


def test_percentile_edges():
    assert percentile([], 50) == 0.0
    assert percentile([4.0], 90) == 4.0
    assert percentile([1.0, 2.0], 0) == 1.0
    assert percentile([1.0, 2.0], 100) == 2.0
    with pytest.raises(ValueError):
        percentile([1.0], 101)


# self time


def test_self_time_subtracts_covered_children():
    assert self_time(0.0, 10.0, []) == 10.0
    assert self_time(0.0, 10.0, [(1.0, 3.0), (5.0, 6.0)]) == pytest.approx(7.0)


def test_self_time_counts_overlap_once_and_clips_to_span():
    assert covered([(1.0, 4.0), (2.0, 5.0)], 0.0, 10.0) == pytest.approx(4.0)
    assert covered([(-2.0, 1.0), (9.0, 12.0)], 0.0, 10.0) == pytest.approx(2.0)
    assert self_time(0.0, 10.0, [(2.0, 3.0), (2.5, 2.7)]) == pytest.approx(9.0)


def test_iteration_windows_start_after_setup_children():
    kids = [("count_satisfied", 1.0, 2.0), ("build_vig", 2.0, 3.0),
            ("select", 4.0, 5.0), ("solve", 5.0, 8.0), ("update_global", 8.0, 9.0),
            ("select", 10.0, 11.0), ("update_global", 11.0, 12.0),
            ("select", 13.0, 14.0)]  # loop broke before merging
    assert iteration_windows(0.0, kids, "select", "update_global") == [
        (3.0, 9.0), (9.0, 12.0)]


def test_repeat_self_sums_cover_ladder_and_iterate_subtrees():
    spans = [Span("run_repeat", 0.0, 10.0, -1),
             Span("run_ladder", 0.0, 2.0, 0),
             Span("iterate", 2.0, 9.0, 0),
             Span("solve", 3.0, 7.0, 2),
             Span("anneal", 3.5, 6.5, 3)]
    assert repeat_self_sums(spans) == [pytest.approx(9.0)]


# digests


def test_check_digest_stores_then_compares(tmp_path):
    store = tmp_path / "state" / "digests.json"
    assert check_digest(store, "code|w", "aaa") is None
    assert check_digest(store, "code|w", "aaa") is None
    assert check_digest(store, "code|w", "bbb") == "aaa"
    assert check_digest(store, "code|other", "bbb") is None
    assert json.loads(store.read_text()) == {"code|w": "aaa", "code|other": "bbb"}


def test_tree_digest_follows_content_and_skips_caches(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text("x = 1\n")
    before = tree_digest(tmp_path)
    (tmp_path / "pkg" / "__pycache__").mkdir()
    (tmp_path / "pkg" / "__pycache__" / "a.pyc").write_bytes(b"\0")
    assert tree_digest(tmp_path) == before
    (tmp_path / "pkg" / "a.py").write_text("x = 2\n")
    assert tree_digest(tmp_path) != before


# metric names and the result line


def _bench(*metrics):
    return {"end_to_end": [dict(name=n, unit=u, better="lower", bound=0.1)
                           for n, u in metrics]}


def test_declared_metrics_validates_names_and_units():
    assert declared_metrics(_bench(("setup_s", "s"), ("a.b-c_1", "1/s")),
                            "end_to_end") == {"setup_s": "s", "a.b-c_1": "1/s"}
    for bad in (("_x", "s"), ("x y", "s"), ("x" * 65, "s"), ("ok", "sec onds"),
                ("ok", "u" * 17)):
        with pytest.raises(ValueError):
            declared_metrics(_bench(bad), "end_to_end")
    with pytest.raises(ValueError):
        declared_metrics(_bench(("x", "s"), ("x", "s")), "end_to_end")


def test_result_line_requires_exactly_the_declared_metrics():
    declared = {"setup_s": "s", "iters_per_s": "1/s"}
    line = result_line(True, 3, 0, {"setup_s": (0.5, "s"),
                                    "iters_per_s": (2, "1/s")}, declared)
    assert json.loads(line) == {
        "correct": True, "attempted": 3, "failed": 0,
        "metrics": {"iters_per_s": {"value": 2.0, "unit": "1/s"},
                    "setup_s": {"value": 0.5, "unit": "s"}}}
    with pytest.raises(ValueError, match="missing"):
        result_line(True, 1, 0, {"setup_s": (0.5, "s")}, declared)
    with pytest.raises(ValueError, match="declared"):
        result_line(True, 1, 0, {"setup_s": (0.5, "ms"),
                                 "iters_per_s": (2, "1/s")}, declared)


def test_benchmark_json_meets_the_contract():
    import run

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    e2e = declared_metrics(bench, "end_to_end")
    declared_metrics(bench, "per_layer")
    assert e2e["setup_s"] == "s"
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    per_layer = {m["name"] for m in bench["per_layer"]}
    assert not per_layer & set(e2e)
    assert all(m["better"] in ("higher", "lower")
               for m in bench["end_to_end"] + bench["per_layer"])


# tracer


def test_tracer_records_nesting_and_passes_results_through():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    assert [(s.name, s.start, s.end, s.parent) for s in tracer.spans] == [
        ("outer", 0.0, 3.0, -1), ("inner", 1.0, 2.0, 0)]


def test_tracer_closes_span_when_the_call_raises():
    tracer = Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("boom", boom)()
    assert tracer.spans[0].end >= tracer.spans[0].start
    assert tracer.wrap("after", lambda: 1)() == 1
    assert tracer.spans[1].parent == -1


def test_installed_tracer_restores_hooks_and_keeps_records(tmp_path):
    from isingsat import decompose, harness, solver

    originals = (decompose.solve, solver.anneal, harness.iterate)
    cfg = harness.SweepConfig(instances=["semiprime:6"], levels=[7], repeats=2,
                              cap=4, budget=20, num_samples=2)
    harness.run_experiment(cfg, tmp_path / "plain")
    tracer = Tracer()
    walls = []
    with tracer.installed() as missing:
        assert decompose.solve is not originals[0]
        harness.run_experiment(cfg, tmp_path / "traced",
                               progress=lambda rec: walls.append(rec.wall_time))
    assert missing == []
    assert (decompose.solve, solver.anneal, harness.iterate) == originals
    assert ((tmp_path / "plain" / "runs.jsonl").read_bytes()
            == (tmp_path / "traced" / "runs.jsonl").read_bytes())
    m = layer_metrics(tracer.spans, 20, walls)
    shares = [m[f"share.{k}"] for k in
              ("kernel", "solver_self", "glue", "ladder", "harness")]
    assert sum(shares) == pytest.approx(1.0)
    assert m["kernel.spin_updates_per_s"] > 0
    assert m["kernel.tabu_ms_p50"] == 0.0
    assert m["decompose.accept_improve"] + m["decompose.accept_plateau"] \
        + m["decompose.reject"] == pytest.approx(1.0)
    assert 0 < m["decompose.spin_util_mean"] <= 1.0


def test_per_seed_rescales_by_calibration_and_takes_the_median():
    import run

    class Rec:
        def __init__(self, seed):
            self.seed = seed

    ref = run.REF_CAL
    rounds = [run.Block([Rec(1), Rec(2)], [1.0, 2.0], [ref, ref]),
              run.Block([Rec(1), Rec(2)], [2.0, 4.0], [2 * ref, 2 * ref]),
              run.Block([Rec(1), Rec(2)], [3.0, 2.2], [ref, ref])]
    assert run.per_seed(rounds) == {1: pytest.approx(1.0), 2: pytest.approx(2.0)}
