"""Set-up a benchmark run pays before its first repeat: imports and instance.

Run from the root of a checkout: ``python3 perfbench/setup_probe.py SPEC``.
"""
import sys

sys.path.insert(0, "src")

from isingsat import harness  # noqa: E402  (needs the path above)

harness.expand_instances(sys.argv[1])
