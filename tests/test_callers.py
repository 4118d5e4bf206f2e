"""Every definition, member and default of the package has a non-test user.

Walks ``src/isingsat/**/*.py`` with ``ast`` and checks four things against
the program's own code, ``src/`` and ``perfbench/*.py`` without their test
files.  The tests do not count: an entry point, member or setting that only
tests reach is dead code.

* A module-level function or class is referenced, as a ``Name`` or an
  ``Attribute``, outside its own definition.  Import lines, ``__all__``
  strings and docstrings are not references.
* A class member (dataclass field, method or property; ``__dunder__``
  methods are protocol hooks and not checked) is read as an ``Attribute``
  outside its own definition.  ``asdict(self)`` inside the class reads
  every field.
* A parameter with a default, or a dataclass field with one, is passed by
  some call or assigned after construction.  A call passes a parameter by
  keyword, by position, or by ``*args``/``**kwargs``, and
  ``replace(obj, f=v)`` passes field ``f``.  A field is assigned by
  ``obj.f = v``, ``obj.f += v`` or ``obj.f[k] = v``, or filled by a
  container method such as ``obj.f.append(v)``.  ``field(init=False)``
  fields are not settable at all.
* A parameter with a default is left out by some call: one that passes it
  neither by keyword nor by position and has no ``*args``/``**kwargs``.
  A default that every caller overrides is a second declaration of the
  value.

The rule goes by name alone, which is its blind spot: a read or a call of
any member, function or keyword of the same name counts, whatever the
class, and ``Cls(**data)`` passes every field of ``Cls``.  So a field that
another class also has, or a setting reached only through ``**``, passes
here without being used; those are left to review.
"""
from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "isingsat"

# Reached only from tests, or defaulted only for them, on purpose, each for
# the reason given.
TEST_SEAMS = {
    # an independent oracle: evaluates a multiplier netlist wire by wire
    "circuit.simulate",
    # the exhaustive reference oracle, restricted to a subset of variables
    # or allowed to enumerate further than the pipeline ever asks
    "cnf.brute_force_solutions(var_cap)",
    "cnf.brute_force_solutions(variables)",
    # a scripted level-7 guess: check_reconstruction gives the one guess
    # each of its two values in turn, so both outcomes are covered.  The
    # name rule does not report the result field, which
    # PrepState.branch_decisions hides; it is named so that it is not taken
    # for an oversight.
    "preprocess.run_ladder(branch_override)",
    "preprocess.LadderResult.branch_decisions",
    # energy oracles: the solver picks a read by the energy its kernel
    # tracked, and the tests recompute that energy through the model
    "qubo.QuboModel.energy",
    "qubo.IsingModel.energy",
    # the console script calls main() with the process arguments
    "cli.main(argv)",
    # the benchmark's own tests sweep into a directory with the default
    # runs file, without a progress callback; the program passes both
    "harness.run_experiment(runs_filename)",
    "harness.run_experiment(progress)",
}

_MUTATORS = {"append", "extend", "add", "update", "setdefault", "discard",
             "pop", "popleft", "remove", "clear", "insert"}


def _sources() -> list[Path]:
    perf = [p for p in sorted((ROOT / "perfbench").glob("*.py"))
            if not p.name.startswith("test_")]
    return [*sorted((ROOT / "src").rglob("*.py")), *perf]


def _module(path: Path) -> str:
    parts = path.relative_to(PACKAGE).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _callee(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _decorator_names(node) -> set[str]:
    return {_callee(d.func if isinstance(d, ast.Call) else d)
            for d in node.decorator_list}


class _Uses:
    """Every name-based use the rules count, with where it happens."""

    def __init__(self, trees: dict[Path, ast.AST]) -> None:
        self.refs: dict[str, list[tuple[Path, int]]] = {}  # Name or Attribute
        self.reads: dict[str, list[tuple[Path, int]]] = {}  # Attribute loads
        self.stores: set[str] = set()  # attributes assigned or filled
        self.calls: dict[str, list[tuple[Path, int, ast.Call]]] = {}
        self.replaced: set[str] = set()  # keywords of replace(...)
        self.asdict_classes: set[tuple[Path, str]] = set()
        for path, tree in trees.items():
            self._scan(path, tree)

    def _scan(self, path: Path, tree: ast.AST) -> None:
        classes = [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
        enclosing = {}
        for cls in classes:
            for sub in ast.walk(cls):
                enclosing.setdefault(id(sub), cls.name)
        # obj.f[k] = v writes through f without reading what f holds
        written = {id(n.value) for n in ast.walk(tree)
                   if isinstance(n, ast.Subscript) and not isinstance(n.ctx, ast.Load)}
        for node in ast.walk(tree):
            here = (path, getattr(node, "lineno", 0))
            if isinstance(node, ast.Name):
                self.refs.setdefault(node.id, []).append(here)
            elif isinstance(node, ast.Attribute):
                self.refs.setdefault(node.attr, []).append(here)
                if isinstance(node.ctx, ast.Load) and id(node) not in written:
                    self.reads.setdefault(node.attr, []).append(here)
                else:
                    self.stores.add(node.attr)
            if not isinstance(node, ast.Call):
                continue
            name = _callee(node.func)
            if name == "cls" and id(node) in enclosing:
                name = enclosing[id(node)]
            if name is None:
                continue
            self.calls.setdefault(name, []).append((*here, node))
            if name == "replace":
                self.replaced.update(k.arg for k in node.keywords if k.arg)
            if name == "asdict" and id(node) in enclosing and any(
                    isinstance(a, ast.Name) and a.id == "self" for a in node.args):
                self.asdict_classes.add((path, enclosing[id(node)]))
            if name in _MUTATORS and isinstance(node.func, ast.Attribute) \
                    and isinstance(node.func.value, ast.Attribute):
                self.stores.add(node.func.value.attr)

    def passing(self, callee: str, param: str, position: int | None,
                outside: tuple[Path, int, int]) -> list[bool]:
        """For each call of ``callee`` outside the callee's own body, whether
        it passes (or may pass) ``param``; ``position`` counts positional
        arguments, None when the parameter is keyword-only."""
        path, lo, hi = outside
        return [any(k.arg in (param, None) for k in call.keywords)
                or any(isinstance(a, ast.Starred) for a in call.args)
                or position is not None and len(call.args) > position
                for p, line, call in self.calls.get(callee, ())
                if not (p == path and lo <= line <= hi)]

    def used_outside(self, table: dict[str, list[tuple[Path, int]]], name: str,
                     path: Path, lo: int, hi: int) -> bool:
        return any(p != path or not lo <= line <= hi
                   for p, line in table.get(name, ()))


def _defaulted_params(fn: ast.FunctionDef, is_method: bool):
    """(name, position or None) of every parameter with a default."""
    args = fn.args
    positional = [*args.posonlyargs, *args.args]
    first = 1 if is_method and "staticmethod" not in _decorator_names(fn) else 0
    for i, (a, _d) in enumerate(zip(positional[::-1], args.defaults[::-1])):
        yield a.arg, len(positional) - 1 - i - first
    for a, d in zip(args.kwonlyargs, args.kw_defaults):
        if d is not None:
            yield a.arg, None


def _field_call(value: ast.expr | None) -> ast.Call | None:
    if isinstance(value, ast.Call) and _callee(value.func) == "field":
        return value
    return None


def _findings(trees: dict[Path, ast.AST], uses: _Uses) -> list[str]:
    out = []
    for path, tree in trees.items():
        if not path.is_relative_to(PACKAGE):
            continue
        module = _module(path)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                span = (path, node.lineno, node.end_lineno)
                if not uses.used_outside(uses.refs, node.name, *span):
                    out.append(f"{module}.{node.name}")
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.extend(_default_findings(module, node, False, uses, span))
            if isinstance(node, ast.ClassDef):
                out.extend(_class_findings(module, path, node, uses))
    return out


def _default_findings(qual: str, fn: ast.FunctionDef, is_method: bool,
                      uses: _Uses, span: tuple[Path, int, int]):
    """Each defaulted parameter that no call passes, or that every call
    passes (once each)."""
    for param, pos in _defaulted_params(fn, is_method):
        passing = uses.passing(fn.name, param, pos, span)
        if not any(passing) or all(passing):
            yield f"{qual}.{fn.name}({param})"


def _class_findings(module: str, path: Path, cls: ast.ClassDef, uses: _Uses):
    is_dataclass = "dataclass" in _decorator_names(cls)
    every_field_read = (path, cls.name) in uses.asdict_classes
    position = 0
    for node in cls.body:
        qual = f"{module}.{cls.name}"
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            if not uses.used_outside(uses.reads, node.name, path,
                                     node.lineno, node.end_lineno):
                yield f"{qual}.{node.name}"
            yield from _default_findings(qual, node, True, uses,
                                         (path, node.lineno, node.end_lineno))
            continue
        if not (is_dataclass and isinstance(node, ast.AnnAssign)
                and isinstance(node.target, ast.Name)):
            continue
        name = node.target.id
        if not every_field_read and not uses.used_outside(
                uses.reads, name, path, node.lineno, node.end_lineno):
            yield f"{qual}.{name}"
        call = _field_call(node.value)
        keywords = {k.arg: k.value for k in call.keywords} if call else {}
        init = keywords.get("init")
        if isinstance(init, ast.Constant) and init.value is False:
            continue
        here = position
        position += 1
        if node.value is None or (call and not {"default", "default_factory"} & set(keywords)):
            continue
        if name in uses.stores or name in uses.replaced:
            continue
        if not any(uses.passing(cls.name, name, here, (path, 0, -1))):
            yield f"{qual}({name})"


def test_every_definition_has_a_caller():
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in _sources()}
    found = [f for f in _findings(trees, _Uses(trees)) if f not in TEST_SEAMS]
    assert not found, ("reached only from tests, or a default that every "
                       f"call overrides: {', '.join(found)}")
