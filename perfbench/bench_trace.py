"""Spans around the calls into each layer of ``isingsat``, and what they show.

The tracer replaces, for the duration of a ``with`` block, the module
attributes that callers look up at call time (``decompose.solve``,
``solver.anneal``, ``harness.iterate``, ...).  Each wrapper records a span
(name, start, end, parent) plus a few counts read from the call's arguments
and result.  Spans stay in memory; ``layer_metrics`` reduces them.
"""
from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable

from bench_stats import iteration_windows, percentile, self_time

# Attributes wrapped in each module; callers must look them up at call time.
HOOKS: dict[str, tuple[str, ...]] = {
    "isingsat.decompose": (
        "select_dfs", "select_bfs", "build_vig", "freeze_and_extract",
        "cnf_to_qubo", "qubo_to_ising", "scale_to_chip", "solve",
        "update_global", "count_satisfied"),
    "isingsat.solver": ("anneal", "tabu"),
    "isingsat.harness": (
        "run_repeat", "run_ladder", "iterate", "expand_instances"),
}

# Ladder passes reported one by one (PassReport.name); others add up to "other".
LADDER_PASSES = (
    "reencode_option2", "propagate_1sat", "condition_2sat",
    "propagate_replaced_values", "clean_clauses", "subsume_clauses",
    "eliminate_pure_literals", "branch_probe")

SELECT = ("select_dfs", "select_bfs")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    info: dict[str, Any] = field(default_factory=dict)


def _note_anneal(info, args, out, _pre):
    info["updates"] = args[0] * args[3]  # spins x sweeps


def _note_tabu(info, args, out, _pre):
    info["moves"] = out[2]


def _note_scale(info, args, out, _pre):
    report = out[1]
    info["rounded"] = report.max_rel_error > 0.0
    info["rel_error"] = report.max_rel_error


def _note_freeze(info, args, out, _pre):
    info["spin_cost"] = out.spin_cost


def _note_merge(info, args, out, before):
    after = args[0].best_count
    info["outcome"] = ("improve" if after > before
                       else "plateau" if out else "reject")


def _note_ladder(info, args, out, _pre):
    info["vars_remaining"] = out.vars_remaining
    info["passes"] = [(r.name, r.wall_time) for r in out.reports]


NOTES: dict[str, Callable] = {
    "anneal": _note_anneal,
    "tabu": _note_tabu,
    "scale_to_chip": _note_scale,
    "freeze_and_extract": _note_freeze,
    "update_global": _note_merge,
    "run_ladder": _note_ladder,
}

PRE: dict[str, Callable] = {
    "update_global": lambda args: args[0].best_count,
}


class Tracer:
    """Collects nested spans from one thread."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        note = NOTES.get(name)
        pre = PRE.get(name)

        def traced(*args, **kwargs):
            before = pre(args) if pre else None
            span = Span(name, self.clock(), 0.0,
                        self._stack[-1] if self._stack else -1)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._stack.pop()
            if note:
                note(span.info, args, out, before)
            return out

        return traced

    @contextmanager
    def installed(self):
        """Wrap every hook that exists; restore the originals on exit.

        Yields the hooks that were missing, so a refactor that removes one
        shows up as a named gap instead of a crash.
        """
        saved: list[tuple[Any, str, Any]] = []
        missing: list[str] = []
        try:
            for mod_name, attrs in HOOKS.items():
                mod = importlib.import_module(mod_name)
                for attr in attrs:
                    if not hasattr(mod, attr):
                        missing.append(f"{mod_name}.{attr}")
                        continue
                    orig = getattr(mod, attr)
                    saved.append((mod, attr, orig))
                    setattr(mod, attr, self.wrap(attr, orig))
            yield missing
        finally:
            for mod, attr, orig in reversed(saved):
                setattr(mod, attr, orig)


def repeat_self_sums(spans: list[Span]) -> list[float]:
    """Per ``run_repeat`` span: the self times of every span inside its
    ``run_ladder`` and ``iterate`` calls, added up."""
    kids: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        kids.setdefault(s.parent, []).append(i)

    def subtree(i: int) -> float:
        s = spans[i]
        own = self_time(s.start, s.end,
                        [(spans[c].start, spans[c].end) for c in kids.get(i, [])])
        return own + sum(subtree(c) for c in kids.get(i, []))

    return [sum(subtree(c) for c in kids.get(i, [])
                if spans[c].name in ("run_ladder", "iterate"))
            for i, s in enumerate(spans) if s.name == "run_repeat"]


def _ms(xs: list[float]) -> list[float]:
    return [x * 1000.0 for x in xs]


def layer_metrics(spans: list[Span], budget: int,
                  repeat_walls: list[float]) -> dict[str, float]:
    """Per-layer numbers from the spans of the traced repeats.

    ``repeat_walls`` are the block's repeat times measured from outside
    (record writes included); shares are taken of their sum.
    """
    kids: dict[int, list[Span]] = {}
    for s in spans:
        kids.setdefault(s.parent, []).append(s)
    by_name: dict[str, list[tuple[int, Span]]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append((i, s))

    def durs(*names: str) -> list[float]:
        return [s.end - s.start for n in names for _, s in by_name.get(n, [])]

    def selfs(name: str) -> list[float]:
        return [self_time(s.start, s.end,
                          [(c.start, c.end) for c in kids.get(i, [])])
                for i, s in by_name.get(name, [])]

    def infos(name: str, key: str) -> list:
        return [s.info[key] for _, s in by_name.get(name, []) if key in s.info]

    out: dict[str, float] = {}

    def p50_p90(metric: str, values_s: list[float]) -> None:
        ms = _ms(values_s)
        out[f"{metric}_p50"] = percentile(ms, 50)
        out[f"{metric}_p90"] = percentile(ms, 90)

    # kernels and the solver around them
    anneal_t, tabu_t = durs("anneal"), durs("tabu")
    p50_p90("kernel.anneal_ms", anneal_t)
    out["kernel.spin_updates_per_s"] = (
        sum(infos("anneal", "updates")) / sum(anneal_t) if anneal_t else 0.0)
    p50_p90("kernel.tabu_ms", tabu_t)
    out["kernel.tabu_moves_per_s"] = (
        sum(infos("tabu", "moves")) / sum(tabu_t) if tabu_t else 0.0)
    p50_p90("solver.self_ms", selfs("solve"))

    # decomposition glue, per iteration and per phase
    loop_self: list[float] = []
    iter_wall: list[float] = []
    for i, s in by_name.get("iterate", []):
        children = kids.get(i, [])
        marks = [("select" if c.name in SELECT else c.name, c.start, c.end)
                 for c in children]
        for lo, hi in iteration_windows(s.start, marks, "select", "update_global"):
            iter_wall.append(hi - lo)
            loop_self.append(self_time(
                lo, hi, [(c.start, c.end) for c in children
                         if lo <= c.start < hi]))
    p50_p90("decompose.iter_ms", iter_wall)
    p50_p90("decompose.loop_self_ms", loop_self)
    p50_p90("decompose.select_ms", durs(*SELECT))
    p50_p90("decompose.freeze_self_ms", selfs("freeze_and_extract"))
    p50_p90("decompose.merge_ms", durs("update_global"))
    out["decompose.vig_ms_p50"] = percentile(_ms(durs("build_vig")), 50)
    p50_p90("qubo.build_ms", durs("cnf_to_qubo"))
    p50_p90("qubo.ising_ms", durs("qubo_to_ising"))
    p50_p90("qubo.scale_ms", durs("scale_to_chip"))

    # chip-model distortion and merge outcomes (counts, not times)
    rounded = infos("scale_to_chip", "rounded")
    rel = infos("scale_to_chip", "rel_error")
    out["qubo.rounded_frac"] = sum(rounded) / len(rounded) if rounded else 0.0
    out["qubo.max_rel_error_p50"] = percentile(rel, 50)
    out["qubo.max_rel_error_max"] = max(rel, default=0.0)
    outcomes = infos("update_global", "outcome")
    for kind, metric in (("improve", "accept_improve"),
                         ("plateau", "accept_plateau"), ("reject", "reject")):
        out[f"decompose.{metric}"] = (
            outcomes.count(kind) / len(outcomes) if outcomes else 0.0)
    costs = infos("freeze_and_extract", "spin_cost")
    out["decompose.spin_util_mean"] = (
        sum(costs) / len(costs) / budget if costs else 0.0)

    # preprocessing ladder
    ladders = by_name.get("run_ladder", [])
    out["preprocess.ladder_ms_p50"] = percentile(_ms(durs("run_ladder")), 50)
    remaining = infos("run_ladder", "vars_remaining")
    out["preprocess.vars_remaining"] = (
        sum(remaining) / len(remaining) if remaining else 0.0)
    per_pass = dict.fromkeys(LADDER_PASSES + ("other",), 0.0)
    for passes in infos("run_ladder", "passes"):
        for name, wall in passes:
            per_pass[name if name in per_pass else "other"] += wall
    for name, total in per_pass.items():
        out[f"preprocess.pass.{name}_ms"] = (
            1000.0 * total / len(ladders) if ladders else 0.0)

    # harness and instance generation
    p50_p90("harness.repeat_self_ms", selfs("run_repeat"))
    out["circuit.generate_ms"] = percentile(_ms(durs("expand_instances")), 50)

    # where a repeat's wall time goes; the five shares sum to 1
    wall = sum(repeat_walls) or 1.0
    kernel = sum(anneal_t) + sum(tabu_t)
    solve_total = sum(durs("solve"))
    iterate_total = sum(durs("iterate"))
    ladder_total = sum(durs("run_ladder"))
    out["share.kernel"] = kernel / wall
    out["share.solver_self"] = (solve_total - kernel) / wall
    out["share.glue"] = (iterate_total - solve_total) / wall
    out["share.ladder"] = ladder_total / wall
    out["share.harness"] = (wall - iterate_total - ladder_total) / wall
    out["trace.spans"] = float(len(spans))
    return out
