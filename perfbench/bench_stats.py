"""Pure helpers of the benchmark: percentiles, self time, digests, names.

Nothing here imports ``isingsat``, so the helpers are unit-tested without the
package and the runner can fail cleanly when the package is missing.
"""
from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path
from typing import Iterable, Sequence

# The result contract: metric names and units, as BENCHMARK.json must hold them.
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def percentile(values: Sequence[float], q: float) -> float:
    """Linearly interpolated percentile (``q`` in 0..100); 0.0 when empty.

    Matches ``statistics.quantiles(values, n=100, method="inclusive")`` at the
    integer percentiles, and is defined for one sample.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside 0..100")
    if not values:
        return 0.0
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total = 0.0
    reach = lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_time(start: float, end: float,
              children: Iterable[tuple[float, float]]) -> float:
    """A span's duration minus the part of it that its children cover."""
    return (end - start) - covered(children, start, end)


def iteration_windows(start: float, children: Sequence[tuple[str, float, float]],
                      begin: str, end: str) -> list[tuple[float, float]]:
    """Split a loop span into one window per iteration.

    ``children`` are (name, start, end) in call order.  Iteration k opens
    where the child before its ``begin`` child ended (so work the loop does
    before that child, such as a rescan, counts toward k) and closes where
    its ``end`` child ends.  Iterations without an ``end`` child (a loop that
    broke early) are dropped.
    """
    windows: list[tuple[float, float]] = []
    prev_end = start
    opened: float | None = None
    for name, s, e in children:
        if name == begin and opened is None:
            opened = prev_end
        if name == end and opened is not None:
            windows.append((opened, e))
            opened = None
        prev_end = e
    return windows


def records_digest(path: Path) -> str:
    """Short sha256 of a runs.jsonl with its lines sorted.

    Records serialize canonically, and sorting makes the digest independent
    of the order in which repeats ran.
    """
    lines = sorted(path.read_text().splitlines())
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def tree_digest(root: Path) -> str:
    """sha256 over every file below ``root`` (path and bytes), caches skipped."""
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            h.update(p.relative_to(root).as_posix().encode() + b"\0")
            h.update(p.read_bytes())
    return h.hexdigest()


def check_digest(store: Path, key: str, digest: str) -> str | None:
    """Compare ``digest`` with the one stored under ``key``; store it if new.

    Returns None when they agree (or the key was new), else the stored digest.
    """
    seen = json.loads(store.read_text()) if store.exists() else {}
    if key in seen:
        return None if seen[key] == digest else seen[key]
    seen[key] = digest
    store.parent.mkdir(parents=True, exist_ok=True)
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(seen, indent=1, sort_keys=True))
    tmp.replace(store)
    return None


def declared_metrics(bench: dict, section: str) -> dict[str, str]:
    """Name -> unit of one metric section of BENCHMARK.json, validated."""
    out: dict[str, str] = {}
    for m in bench[section]:
        name, unit = m["name"], m["unit"]
        if not NAME_RE.fullmatch(name):
            raise ValueError(f"bad metric name {name!r}")
        if not UNIT_RE.fullmatch(unit):
            raise ValueError(f"bad unit {unit!r} for {name}")
        if name in out:
            raise ValueError(f"metric {name} declared twice")
        out[name] = unit
    return out


def result_line(correct: bool, attempted: int, failed: int,
                metrics: dict[str, tuple[float, str]],
                declared: dict[str, str]) -> str:
    """The final stdout line; the metrics must be exactly the declared ones."""
    if set(metrics) != set(declared):
        missing = sorted(set(declared) - set(metrics))
        extra = sorted(set(metrics) - set(declared))
        raise ValueError(f"metrics differ from BENCHMARK.json: missing {missing}, "
                         f"undeclared {extra}")
    for name, (_value, unit) in metrics.items():
        if unit != declared[name]:
            raise ValueError(f"{name} measured in {unit}, declared {declared[name]}")
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(v), "unit": u}
                    for name, (v, u) in sorted(metrics.items())},
    })
