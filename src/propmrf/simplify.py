"""Weight-preserving model simplification.

Propagate hard unit clauses, reduce soft clauses against the forced literals
and against hard clauses that entail them, remove subsumed hard clauses,
then sweep variables that no longer occur anywhere.  Every step preserves
the partition function:

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

One pass reaches the fixpoint: after propagation every open hard clause
keeps at least two unassigned literals, so nothing is left to force, and
dropping subsumed hard clauses cannot let a new one subsume a soft clause.

simplify works on the search's bare form (model.BareModel): clauses are
frozensets of literals, a set of true literals is the assignment, and
subsumption is <= on frozensets.  Given a validated PropMRF it converts at
entry and returns a PropMRF model; given a bare model, as the search does,
it returns a bare one.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace

from .model import (
    Assignment,
    BareModel,
    PropMRF,
    compact_bare,
    from_bare,
    to_bare,
)

LN2 = math.log(2.0)

_EMPTY: BareModel = (0, (), ())


class SimplifyStatus(enum.Enum):
    ZERO = "zero"
    SCALAR = "scalar"
    OPEN = "open"


@dataclass(frozen=True)
class SimplifyOutcome:
    model: PropMRF | BareModel
    log_weight: float
    status: SimplifyStatus
    assignment: Assignment = field(default_factory=dict)
    variables: tuple[int, ...] = ()


def simplify(m: PropMRF | BareModel) -> SimplifyOutcome:
    if isinstance(m, PropMRF):
        out = simplify(to_bare(m))
        return replace(out, model=from_bare(out.model))
    num_vars, hard, soft = m

    # Unit propagation to fixpoint over the hard clauses.
    true: set[int] = set()
    false: set[int] = set()
    pending = hard
    while pending:
        open_: list = []
        forced = False
        for clause in pending:
            if not true.isdisjoint(clause):
                continue
            rest = clause - false if not clause.isdisjoint(false) else clause
            if len(rest) > 1:
                open_.append(clause)
            elif not rest:
                return SimplifyOutcome(_EMPTY, float("-inf"), SimplifyStatus.ZERO)
            else:
                (lit,) = rest
                true.add(lit)
                false.add(-lit)
                forced = True
        pending = open_ if forced else ()

    if true:
        reduced_hard = [
            clause - false if not clause.isdisjoint(false) else clause
            for clause in hard
            if true.isdisjoint(clause)
        ]
    else:
        reduced_hard = hard

    log_weight = 0.0
    reduced_soft = []
    for sc in soft:
        clause = sc[0]
        if not true.isdisjoint(clause):
            log_weight += sc[1]
            continue
        if not clause.isdisjoint(false):
            clause = clause - false
            sc = (clause, sc[1])
        if not clause:
            continue
        for h in reduced_hard:
            if h <= clause:
                log_weight += sc[1]
                break
        else:
            reduced_soft.append(sc)

    kept: list = []
    for clause in reduced_hard:
        for k in kept:
            if k <= clause:
                break
        else:
            kept = [k for k in kept if not clause < k]
            kept.append(clause)

    literals = set().union(*kept, *[c for c, _ in reduced_soft])
    occurring = {abs(lit) for lit in literals}
    for _ in range(num_vars - len(true) - len(occurring)):
        log_weight += LN2

    assignment = {abs(lit): lit > 0 for lit in true}
    if not literals:
        return SimplifyOutcome(_EMPTY, log_weight, SimplifyStatus.SCALAR, assignment)
    variables = sorted(occurring)
    return SimplifyOutcome(
        compact_bare(kept, reduced_soft, variables),
        log_weight,
        SimplifyStatus.OPEN,
        assignment,
        tuple(variables),
    )
