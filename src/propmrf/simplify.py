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
outcome also records the forced true literals and the surviving variables,
so results on the reduced model can be mapped back: a forced variable takes
its literal's value, and variable i of the reduced model is variables[i - 1]
of the original.

One pass reaches the fixpoint: after propagation every open hard clause
keeps at least two unassigned literals, so nothing is left to force, and
dropping subsumed hard clauses cannot let a new one subsume a soft clause.

simplify takes and returns the search's bare form (model.BareModel), which
the search's entry points build once with model.to_bare: clauses are
frozensets of literals and subsumption is <= on frozensets.  Propagation and
the reduction of the hard clauses are sat.unit_propagate, the step the SAT
solver and the formula sampler share; its residual is the reduced hard
formula.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import AbstractSet

from .model import BareModel, compact_bare
from .sat import unit_propagate

LN2 = math.log(2.0)

_EMPTY: BareModel = (0, (), ())


class SimplifyStatus(enum.Enum):
    ZERO = "zero"
    SCALAR = "scalar"
    OPEN = "open"


@dataclass(frozen=True)
class SimplifyOutcome:
    model: BareModel
    log_weight: float
    status: SimplifyStatus
    forced: AbstractSet[int] = frozenset()
    variables: tuple[int, ...] = ()


def simplify(m: BareModel) -> SimplifyOutcome:
    num_vars, hard, soft = m

    propagated = unit_propagate(hard)
    if propagated is None:
        return SimplifyOutcome(_EMPTY, float("-inf"), SimplifyStatus.ZERO)
    true, false, reduced_hard = propagated

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

    if not literals:
        return SimplifyOutcome(_EMPTY, log_weight, SimplifyStatus.SCALAR, true)
    variables = sorted(occurring)
    return SimplifyOutcome(
        compact_bare(kept, reduced_soft, variables),
        log_weight,
        SimplifyStatus.OPEN,
        true,
        tuple(variables),
    )
