"""A DPLL oracle for the tests: a model of a CNF, or None when it has none.

Davis, Logemann and Loveland, "A machine program for theorem-proving",
CACM 5, 394 (1962): unit propagation to a fixpoint, then a branch on a
literal of a shortest clause, that literal true first.  It shares no code
with ``isingsat``, so it checks the ladder's passes from outside, and it
decides the level-7 residuals of the paper's 94-190-variable instances in
well under a second, where ``brute_force_solutions`` stops at 28 variables.
"""
from __future__ import annotations


def dpll(clauses) -> dict[int, bool] | None:
    """A model of ``clauses``, iterables of DIMACS literals, over the
    variables the search set, or None when there is none.  A variable it
    leaves out satisfies the model either way."""
    clauses = [frozenset(clause) for clause in clauses]
    return None if frozenset() in clauses else _search(clauses, {})


def _assign(clauses, lit):
    """``clauses`` with ``lit`` true: the clauses it satisfies dropped and
    its negation struck from the rest; None when a clause empties."""
    out = []
    for clause in clauses:
        if lit in clause:
            continue
        if -lit in clause:
            clause = clause - {-lit}
            if not clause:
                return None
        out.append(clause)
    return out


def _search(clauses, model):
    while (unit := next((c for c in clauses if len(c) == 1), None)) is not None:
        (lit,) = unit
        model = {**model, abs(lit): lit > 0}
        if (clauses := _assign(clauses, lit)) is None:
            return None
    if not clauses:
        return model
    lit = min(min(clauses, key=len))
    for choice in (lit, -lit):
        rest = _assign(clauses, choice)
        found = None if rest is None else _search(rest, {**model, abs(choice): choice > 0})
        if found is not None:
            return found
    return None
