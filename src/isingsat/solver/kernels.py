"""Kernel selector: the C kernel, compiled on first import, else the pure oracle.

Both hold the same eleven functions, as ``_kernels_py`` sets out: ``anneal``,
``tabu``, their seeding ``mix_seed`` and ``couplings``, which lays a model's
pairs out once for all the reads of a solver call, as a dense ``jd`` list in
the oracle and as an opaque object of neighbour lists in the C module; the
slice ``walk``, ``freeze`` and ``merge``, which read
``decompose.build_vig``'s rank tables and read or write
``decompose.GlobalState``'s per-rank arrays in place, and ``tally``, which
makes those arrays at a repeat's start; and the model build ``qubo``
and ``ising`` and the chip scaling ``scale``.  A slice reaches them as ranks
and literal codes only, so no kernel sees a variable number, and its models
as flat arrays.  Python objects stay where Python uses them: the walk's
``set`` of ranks, which the repetition filter tests membership in, and the
filter's cooldown ``dict``; the pool ``list``, which ``iterate`` indexes and
``merge`` inserts into; and ``anneal``'s and ``tabu``'s lists and tuples,
since ``perfbench`` calls them, with a dense ``jd``, and compares their
results.  One build, one loader and one ``COMPILED_KERNELS`` flag cover all
eleven.

``_kernels.c`` is compiled the first time this module is imported, with the
interpreter's C compiler and ``-O2 -shared -fPIC -ffp-contract=off``.  The
shared object is cached as
``__pycache__/_kernels.<source hash>.<extension suffix>``, keyed on the
source and flags, so later imports only load it.  It is written under a
temporary name and moved into place, so concurrent first imports never load
a half-written file; then the builds of older sources for the same
extension suffix are removed.  The loaded module is registered as
``isingsat.solver._kernels``.

Without a compiler on PATH, or when the build fails (one warning is logged),
the pure-Python oracle ``_kernels_py`` runs instead; it gives bit-identical
results (and raises the same exceptions), only slower.  ``COMPILED_KERNELS`` records which one was picked, so
benchmarks and bug reports can say so, and ``FALLBACK_REASON`` says why the
compiled one was not.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import logging
import os
import sys
from types import ModuleType

from . import _kernels_py

log = logging.getLogger(__name__)

_NAME = __name__.rpartition(".")[0] + "._kernels"
_SOURCE = os.path.join(os.path.dirname(__file__), "_kernels.c")
_FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")


def _prune(target: str) -> None:
    """Remove the other ``_kernels.*`` builds beside ``target`` that share
    the interpreter's extension suffix.  Builds for another suffix (another
    Python) stay, and so do the ``.tmp`` files of builds in flight."""
    folder, name = os.path.split(target)
    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    for other in os.listdir(folder):
        if other != name and other.startswith("_kernels.") and other.endswith(suffix):
            try:
                os.remove(os.path.join(folder, other))
            except OSError:  # say, another process removed it first
                pass


def _build(target: str) -> str | None:
    """Compile ``_kernels.c`` to ``target``; the reason it could not, or None."""
    import shlex
    import shutil
    import subprocess
    import sysconfig

    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    if shutil.which(cc[0]) is None:
        log.info("no C compiler (%s) on PATH, using pure Python kernels", cc[0])
        return f"no C compiler ({cc[0]}) on PATH"
    tmp = f"{target}.{os.getpid()}.tmp"
    cmd = [*cc, *_FLAGS, "-I", sysconfig.get_paths()["include"],
           _SOURCE, "-o", tmp, "-lm"]
    try:
        os.makedirs(os.path.dirname(target), exist_ok=True)
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode == 0:
            os.replace(tmp, target)
            _prune(target)
            return None
        reason = f"{' '.join(cmd)} exited with {proc.returncode}: {proc.stderr.strip()}"
    except OSError as exc:
        reason = f"building {target} failed: {exc}"
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    log.warning("compiled kernels unavailable, using pure Python: %s", reason)
    return reason


def _load() -> tuple[ModuleType | None, str | None]:
    """The compiled module, building it on a cache miss, or why there is none."""
    try:
        with open(_SOURCE, "rb") as fh:
            source = fh.read()
    except OSError as exc:
        log.warning("compiled kernels unavailable, using pure Python: %s", exc)
        return None, f"kernel source missing: {exc}"
    key = importlib.util.source_hash(source + " ".join(_FLAGS).encode()).hex()
    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    path = os.path.join(os.path.dirname(_SOURCE), "__pycache__", f"_kernels.{key}{suffix}")
    if not os.path.exists(path):
        reason = _build(path)
        if reason is not None:
            return None, reason
    loader = importlib.machinery.ExtensionFileLoader(_NAME, path)
    spec = importlib.util.spec_from_file_location(_NAME, path, loader=loader)
    try:
        module = importlib.util.module_from_spec(spec)
        loader.exec_module(module)
    except ImportError as exc:
        log.warning("compiled kernels unavailable, using pure Python: %s", exc)
        return None, f"loading {path} failed: {exc}"
    sys.modules[_NAME] = module
    return module, None


_compiled, FALLBACK_REASON = _load()
COMPILED_KERNELS = _compiled is not None
_impl = _compiled or _kernels_py

mix_seed = _impl.mix_seed
couplings = _impl.couplings
anneal = _impl.anneal
tabu = _impl.tabu
walk = _impl.walk
freeze = _impl.freeze
merge = _impl.merge
qubo = _impl.qubo
ising = _impl.ising
tally = _impl.tally
scale = _impl.scale
