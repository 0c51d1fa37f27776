"""Unit propagation and a small chronological-backtracking DPLL solver.

Both work on clauses as frozensets of DIMACS literals (a model.Clause is
one), which must not be tautologies.  unit_propagate is the package's one
propagate-and-reduce step: it returns the forced literals together with the
residual formula, the open clauses with their false literals removed.
simplify, the solver below and the formula sampler all call it and work on
that residual.

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
) -> tuple[set[int], set[int], list[BareClause]] | None:
    """Unit propagation to fixpoint and the residual formula it leaves.

    Returns (true, false, residual): the forced literals, their negations,
    and the clauses that true leaves open with the literals of false
    removed, in input order; or None when some clause is falsified.  Each
    residual clause keeps at least two literals and mentions no forced
    variable.  The fixpoint, and whether a conflict is reached, do not
    depend on the order in which clauses are visited.
    """
    true: set[int] = set()
    false: set[int] = set()
    pending = clauses
    forced = True
    while forced:
        open_: list[BareClause] = []
        forced = False
        for clause in pending:
            if not true.isdisjoint(clause):
                continue
            rest = clause - false if not clause.isdisjoint(false) else clause
            if len(rest) > 1:
                open_.append(rest)
            elif not rest:
                return None
            else:
                (lit,) = rest
                true.add(lit)
                false.add(-lit)
                forced = True
        pending = open_
    return true, false, pending


def is_satisfiable(clauses: Sequence[BareClause]) -> bool:
    """DPLL satisfiability of a clause conjunction.

    Each open branch is the residual formula of its parent behind the
    branch's decision literal as a unit clause.
    """
    stack: list[Sequence[BareClause]] = [clauses]
    while stack:
        propagated = unit_propagate(stack.pop())
        if propagated is None:
            continue
        residual = propagated[2]
        if not residual:
            return True
        var = min(abs(lit) for c in residual for lit in c)
        stack.append([frozenset((-var,)), *residual])
        stack.append([frozenset((var,)), *residual])
    return False
