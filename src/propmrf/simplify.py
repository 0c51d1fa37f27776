"""Weight-preserving model simplification.

Repeatedly: propagate hard unit clauses, reduce soft clauses against the
forced literals and against hard clauses that entail them, remove subsumed
hard clauses, then sweep variables that no longer occur anywhere.  Every step
preserves the partition function:

    Z(original) = exp(log_weight) * Z(reduced)

Satisfied soft clauses move their weight into log_weight; a soft clause
containing a hard clause as a subset is satisfied by every solution and is
treated the same way.  Falsified soft clauses contribute potential 1 and are
dropped without weight.  Each unconstrained, unassigned variable contributes
ln 2.  The reduced model is renumbered over its surviving variables, so the
identity above holds with Z computed on the reduced model alone.  The
outcome also records the forced assignment and the surviving variables, so
results on the reduced model can be mapped back: variable i of the reduced
model is variables[i - 1] of the original.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from .model import (
    Assignment,
    Clause,
    ClauseStatus,
    PropMRF,
    SoftClause,
    clause_status,
    compact_model,
)
from .sat import unit_propagate

LN2 = math.log(2.0)

_EMPTY = PropMRF(0)


class SimplifyStatus(enum.Enum):
    ZERO = "zero"
    SCALAR = "scalar"
    OPEN = "open"


@dataclass(frozen=True)
class SimplifyOutcome:
    model: PropMRF
    log_weight: float
    status: SimplifyStatus
    assignment: Assignment = field(default_factory=dict)
    variables: tuple[int, ...] = ()


def _shrink(clause: Clause, assignment: Assignment) -> Clause:
    """Drop literals made false by the assignment (none may be true)."""
    return Clause(l for l in clause.literals if abs(l) not in assignment)


def simplify(m: PropMRF) -> SimplifyOutcome:
    log_weight = 0.0
    hard: list[Clause] = list(m.hard)
    soft: list[SoftClause] = list(m.soft)
    assignment: Assignment = {}

    while True:
        changed = False

        prop = unit_propagate(hard, assignment)
        if prop.conflict is not None:
            return SimplifyOutcome(_EMPTY, float("-inf"), SimplifyStatus.ZERO)
        if len(prop.assignment) != len(assignment):
            changed = True
        assignment = prop.assignment

        new_hard: list[Clause] = []
        for clause in hard:
            status = clause_status(clause, assignment)
            if status is ClauseStatus.SATISFIED:
                changed = True
                continue
            reduced = _shrink(clause, assignment)
            if len(reduced) != len(clause):
                changed = True
            new_hard.append(reduced)
        hard = new_hard

        new_soft: list[SoftClause] = []
        for sc in soft:
            status = clause_status(sc.clause, assignment)
            if status is ClauseStatus.SATISFIED:
                log_weight += sc.weight
                changed = True
                continue
            if status is ClauseStatus.FALSIFIED:
                changed = True
                continue
            reduced = _shrink(sc.clause, assignment)
            if any(h.is_subclause_of(reduced) for h in hard):
                log_weight += sc.weight
                changed = True
                continue
            if len(reduced) != len(sc.clause):
                changed = True
            new_soft.append(SoftClause(reduced, sc.weight))
        soft = new_soft

        kept: list[Clause] = []
        for clause in hard:
            if any(k.is_subclause_of(clause) for k in kept):
                changed = True
                continue
            survivors = [
                k for k in kept if not (clause.is_subclause_of(k) and clause != k)
            ]
            if len(survivors) != len(kept):
                changed = True
            kept = survivors + [clause]
        hard = kept

        if not changed:
            break

    occurring: set[int] = set()
    for clause in hard:
        occurring.update(clause.variables)
    for sc in soft:
        occurring.update(sc.clause.variables)
    for v in range(1, m.num_vars + 1):
        if v not in assignment and v not in occurring:
            log_weight += LN2

    if not hard and not soft:
        return SimplifyOutcome(_EMPTY, log_weight, SimplifyStatus.SCALAR, assignment)
    return SimplifyOutcome(
        compact_model(tuple(hard), tuple(soft)),
        log_weight,
        SimplifyStatus.OPEN,
        assignment,
        tuple(sorted(occurring)),
    )
