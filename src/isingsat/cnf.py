"""CNF formulas, DIMACS I/O, evaluation, and an exhaustive solution oracle.

Literals follow the DIMACS convention: a literal is a nonzero signed integer,
``abs(lit)`` is the 1-indexed variable index and the sign is the polarity.
Clause order, literal order, and duplicate clauses are preserved everywhere;
duplicates carry weight when clauses are later converted to penalties.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Mapping, Sequence

Literal = int
Clause = tuple[int, ...]
Assignment = dict[int, bool]


class DimacsError(ValueError):
    """Raised on malformed DIMACS input; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class Cnf:
    """An immutable CNF formula.

    ``clauses`` may contain an empty clause: that is the explicit
    "falsified" marker used to represent an unsatisfiable residual.
    """

    num_vars: int
    clauses: tuple[Clause, ...]

    def __post_init__(self):
        if self.num_vars < 0:
            raise ValueError("num_vars must be non-negative")
        n = self.num_vars
        lits = set(chain.from_iterable(self.clauses))
        if lits and (0 in lits or min(lits) < -n or max(lits) > n):
            # name the first offending literal in clause order
            lit = next(x for x in chain.from_iterable(self.clauses)
                       if x == 0 or abs(x) > n)
            if lit == 0:
                raise ValueError("literal 0 is not allowed inside a clause")
            raise ValueError(
                f"literal {lit} references a variable above num_vars={n}")

    def __hash__(self) -> int:
        # the value hash, computed on first use and kept: a cache lookup
        # would otherwise walk every clause, and most formulas are never
        # hashed at all
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.num_vars, self.clauses))
            object.__setattr__(self, "_hash", h)
        return h

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)

    def occurring_vars(self) -> list[int]:
        """Sorted variables that appear in at least one clause."""
        return sorted(set(map(abs, chain.from_iterable(self.clauses))))

    def is_unsat_marked(self) -> bool:
        """True when the formula contains the falsified-empty clause."""
        return any(len(clause) == 0 for clause in self.clauses)

    def max_clause_width(self) -> int:
        return max(map(len, self.clauses), default=0)


# entries each formula-keyed ``lru_cache`` keeps; a ``Cnf`` hashes and
# compares by value, so equal formulas built apart share an entry
MEMO_ENTRIES = 16


def make_cnf(num_vars: int, clauses: Iterable[Sequence[int]]) -> Cnf:
    """Build a Cnf from any iterable of literal sequences."""
    return Cnf(num_vars, tuple(tuple(c) for c in clauses))


def parse_dimacs(text: str) -> Cnf:
    """Parse DIMACS CNF text.

    Clauses may span lines; a ``%`` line ends the clause section (some public
    benchmark archives terminate files that way). A clause count that
    disagrees with the header is tolerated; structural problems raise
    DimacsError with the line number.
    """
    num_vars = -1
    clauses: list[Clause] = []
    pending: list[int] = []

    lines = text.splitlines()
    line_no = 0
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("%"):
            break
        if line.startswith("p"):
            if num_vars >= 0:
                raise DimacsError("duplicate problem header", line_no)
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise DimacsError(f"malformed problem header {line!r}", line_no)
            try:
                num_vars = int(parts[2])
                int(parts[3])  # the clause count must be a number, of any value
            except ValueError:
                num_vars = -1
            if num_vars < 0:
                raise DimacsError(f"malformed problem header {line!r}", line_no)
            continue
        if num_vars < 0:
            raise DimacsError("clause data before 'p cnf' header", line_no)
        for token in line.split():
            try:
                lit = int(token)
            except ValueError:
                raise DimacsError(f"bad token {token!r}", line_no) from None
            if lit == 0:
                # a bare 0 is the falsified-empty marker write_dimacs emits
                clauses.append(tuple(pending))
                pending = []
            else:
                if abs(lit) > num_vars:
                    raise DimacsError(
                        f"literal {lit} exceeds declared variable count {num_vars}", line_no
                    )
                pending.append(lit)

    if num_vars < 0:
        raise DimacsError("missing 'p cnf' header", max(line_no, 1))
    if pending:
        raise DimacsError("unterminated clause at end of input", line_no)

    return Cnf(num_vars, tuple(clauses))


def write_dimacs(cnf: Cnf, comments: Sequence[str] = ()) -> str:
    """Serialize to DIMACS text; parse(write(x)) reproduces x exactly."""
    out: list[str] = []
    for comment in comments:
        for piece in str(comment).splitlines() or [""]:
            out.append(f"c {piece}".rstrip())
    out.append(f"p cnf {cnf.num_vars} {cnf.num_clauses}")
    for clause in cnf.clauses:
        if clause:
            out.append(" ".join(str(lit) for lit in clause) + " 0")
        else:
            out.append("0")
    return "\n".join(out) + "\n"


def literal_true(lit: int, assignment: Mapping[int, bool]) -> bool:
    return assignment[abs(lit)] == (lit > 0)


def clause_satisfied(clause: Clause, assignment: Mapping[int, bool]) -> bool:
    return any(literal_true(lit, assignment) for lit in clause)


def evaluate(cnf: Cnf, assignment: Mapping[int, bool]) -> bool:
    """Whether a complete assignment satisfies every clause.

    The assignment must cover every variable 1..num_vars; anything less
    raises ValueError so partial evaluations can never masquerade as full
    ones.
    """
    missing = [v for v in range(1, cnf.num_vars + 1) if v not in assignment]
    if missing:
        raise ValueError(f"incomplete assignment, missing variables {missing[:8]}")
    return all(clause_satisfied(clause, assignment) for clause in cnf.clauses)


def count_satisfied(clauses: Sequence[Clause], assignment: Mapping[int, bool]) -> int:
    """Satisfied-clause count over an arbitrary clause list (partial models
    allowed as long as every referenced variable is present: a missing one
    raises KeyError)."""
    missing = set(map(abs, chain.from_iterable(clauses))).difference(assignment)
    if missing:
        raise KeyError(min(missing))
    true_lits = {v if val else -v for v, val in assignment.items()}
    return len(clauses) - sum(map(true_lits.isdisjoint, clauses))


def brute_force_solutions(
    cnf: Cnf,
    var_cap: int = 26,
    variables: Sequence[int] | None = None,
) -> list[Assignment]:
    """Exhaustively enumerate all satisfying assignments.

    This is the independent reference oracle used by the test suite: a
    depth-first sweep over assignment prefixes in ascending variable order,
    pruning a prefix only when some fully-assigned clause is falsified.  The
    result order is deterministic (False before True at every depth).

    ``variables`` restricts enumeration to a subset; every clause must be
    contained in that subset.  ``var_cap`` guards against accidentally
    enormous enumerations.
    """
    if variables is None:
        varlist = list(range(1, cnf.num_vars + 1))
    else:
        varlist = sorted(set(variables))
    if len(varlist) > var_cap:
        raise ValueError(f"{len(varlist)} variables exceeds var_cap={var_cap}")

    varset = set(varlist)
    for clause in cnf.clauses:
        if len(clause) == 0:
            return []
        for lit in clause:
            if abs(lit) not in varset:
                raise ValueError(
                    f"clause {clause} uses variable {abs(lit)} outside the enumeration set"
                )

    # close_at[d] = clauses whose highest-ranked variable is varlist[d]
    rank = {v: i for i, v in enumerate(varlist)}
    close_at: list[list[Clause]] = [[] for _ in varlist]
    for clause in cnf.clauses:
        close_at[max(rank[abs(lit)] for lit in clause)].append(clause)

    n = len(varlist)
    values: dict[int, bool] = {}
    solutions: list[Assignment] = []

    def descend(depth: int) -> None:
        if depth == n:
            solutions.append(dict(values))
            return
        var = varlist[depth]
        for value in (False, True):
            values[var] = value
            ok = True
            for clause in close_at[depth]:
                if not clause_satisfied(clause, values):
                    ok = False
                    break
            if ok:
                descend(depth + 1)
        del values[var]

    if n == 0:
        # No variables and no falsified clause: the empty assignment solves it.
        return [{}]
    descend(0)
    return solutions
