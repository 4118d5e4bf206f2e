"""Run each benchmark workload for one second and check its pinned records digest.

Run from the root of a checkout, with the interpreter and environment the
runs should use (the runs inherit both):

    python3 .github/check_digests.py [compiled|pure]

Each workload runs as ``perfbench/run.py --workload W --seed 1 --seconds 1
--trace 0``, and its output is echoed.  The check fails at the first run
that exits nonzero, whose ``records`` line lacks its pinned digest, or,
when a kernel implementation is named, whose ``meta`` line reports another
``kernel_impl``.  No tier-1 test runs these three cells, so this is what
keeps their records byte-identical.
"""
from __future__ import annotations

import json
import subprocess
import sys

PINNED = {"factor-anneal": "b75c2ae6e0b88e0d",
          "slice-glue": "a188b457434845b2",
          "backbone-tabu": "6a32f7910b24698a"}


def main(argv: list[str]) -> int:
    if len(argv) > 1 or argv and argv[0] not in ("compiled", "pure"):
        sys.exit("usage: check_digests.py [compiled|pure]")
    impl = argv[0] if argv else None
    for workload, digest in PINNED.items():
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
             "--seconds", "1", "--trace", "0"], stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="", flush=True)
        if proc.returncode:
            sys.exit(f"{workload}: perfbench/run.py exited with {proc.returncode}")
        lines = dict(line.split(" ", 1) for line in proc.stdout.splitlines()
                     if line.startswith(("meta ", "records ")))
        if json.loads(lines.get("records", "{}")).get("digest") != digest:
            sys.exit(f"{workload}: the records digest is not the pinned {digest}")
        if impl and json.loads(lines.get("meta", "{}")).get("kernel_impl") != impl:
            sys.exit(f"{workload}: the kernels that ran are not the {impl} ones")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
