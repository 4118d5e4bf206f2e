"""Run the benchmark on several seeds; report each metric's median and spread.

From the root of a checkout:

    python3 perfbench/spread.py --seeds 1-10 [--workload NAME ...] [--trace 1]
                                [--out perfbench/baseline.json]

Runs are made one after another.  For every metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread (quartile
distance over the median); an end-to-end metric whose spread exceeds a third
of its bound is marked ``!``.  It also checks that every run reported the
same records digest.  ``--out`` writes all of it, with every result
line, as JSON.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(bench: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} seed {seed}: no output\n{proc.stderr}")
    found = {"result": json.loads(lines[-1]), "exit": proc.returncode}
    for line in lines[:-1]:
        key, _, rest = line.partition(" ")
        if key in ("meta", "records"):
            found[key] = json.loads(rest)
    return found


def summarize(values: list[float]) -> dict[str, float]:
    med = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (values[0],) * 3)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10", help="range such as 1-10")
    p.add_argument("--workload", action="append",
                   help="workload to run (repeatable; default: all)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="write the runs and summaries here as JSON")
    args = p.parse_args(argv)

    bench = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    names = args.workload or [w["name"] for w in bench["workloads"]]
    report: dict = {"run_seconds": bench["run_seconds"], "trace": args.trace,
                    "workloads": {}}
    ok = True
    for name in names:
        runs = []
        for seed in parse_seeds(args.seeds):
            run = run_once(bench, name, seed, args.trace)
            runs.append({"seed": seed, **run})
            res = run["result"]
            print(f"{name} seed {seed}: exit {run['exit']} correct {res['correct']} "
                  f"attempted {res['attempted']} failed {res['failed']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in
                             sorted(res["metrics"].items()) if not args.trace),
                  flush=True)
            ok &= run["exit"] == 0 and res["correct"]
        digests = sorted({r.get("records", {}).get("digest") for r in runs})
        if len(digests) != 1:
            print(f"{name}: records digests differ between runs: {digests}")
            ok = False
        summary = {}
        for metric in runs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][metric]["value"] for r in runs]
            summary[metric] = {**summarize(values),
                               "unit": runs[0]["result"]["metrics"][metric]["unit"]}
            s = summary[metric]
            bound = bounds.get(metric) if not args.trace else None
            flag = "!" if bound is not None and s["spread"] > bound / 3 else " "
            print(f"  {flag} {metric:44} median {s['median']:12.6g} "
                  f"q1 {s['q1']:12.6g} q3 {s['q3']:12.6g} "
                  f"spread {s['spread']:7.4f} {s['unit']}")
        report["workloads"][name] = {
            "digest": digests[0] if len(digests) == 1 else digests,
            "meta": runs[0].get("meta"), "summary": summary, "runs": runs}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
