"""Unit propagation and a small chronological-backtracking DPLL solver.

Both work on bare clauses (model.BareClause): frozensets of DIMACS literals,
which must not be tautologies.  unit_propagate is the package's one
propagator; simplify, the solver below and the formula sampler all call it.
The solver branches on the lowest-index unassigned variable, trying true
first, and keeps its open branches on an explicit stack, so its depth is not
bounded by Python's recursion limit.  Clause learning is deliberately out of
scope: the inputs this package feeds the solver are small.
"""

from __future__ import annotations

from typing import Sequence

from .model import BareClause


def unit_propagate(
    clauses: Sequence[BareClause],
) -> tuple[set[int], set[int]] | None:
    """The literals that unit propagation forces, to fixpoint.

    Returns (true, false): the forced literals and their negations, or None
    when some clause is falsified.  The fixpoint, and whether a conflict is
    reached, do not depend on the order in which clauses are visited.
    """
    true: set[int] = set()
    false: set[int] = set()
    pending = clauses
    while pending:
        open_: list[BareClause] = []
        forced = False
        for clause in pending:
            if not true.isdisjoint(clause):
                continue
            rest = clause - false if not clause.isdisjoint(false) else clause
            if len(rest) > 1:
                open_.append(clause)
            elif not rest:
                return None
            else:
                (lit,) = rest
                true.add(lit)
                false.add(-lit)
                forced = True
        pending = open_ if forced else ()
    return true, false


def is_satisfiable(clauses: Sequence[BareClause]) -> bool:
    """DPLL satisfiability of a clause conjunction.

    Each open branch is the residual formula of its parent (clauses not yet
    satisfied, with false literals removed) behind the branch's decision
    literal as a unit clause.
    """
    stack: list[Sequence[BareClause]] = [clauses]
    while stack:
        formula = stack.pop()
        forced = unit_propagate(formula)
        if forced is None:
            continue
        true, false = forced
        residual = [c - false for c in formula if true.isdisjoint(c)]
        if not residual:
            return True
        var = min(abs(lit) for c in residual for lit in c)
        stack.append([frozenset((-var,)), *residual])
        stack.append([frozenset((var,)), *residual])
    return False
