"""Weight-preserving model simplification and the split into components.

Propagate hard unit clauses, reduce soft clauses against the forced literals
and against hard clauses that entail them, remove subsumed hard clauses,
split what is kept into independent components, and sweep variables that no
longer occur anywhere.  Every step preserves the partition function:

    Z(original) = exp(log_weight) * Z(component 1) * ... * Z(component c)

Satisfied soft clauses move their weight into log_weight; a soft clause
containing a hard clause as a subset is satisfied by every solution and is
treated the same way.  Falsified soft clauses contribute potential 1 and are
dropped without weight.  Each unconstrained, unassigned variable contributes
ln 2, and a forced variable takes its literal's value.  The split
(graph.split_components) is union-find over the input's numbering, and it
compacts each component once, to 1..k in ascending order: variable i of a
component is its variables[i - 1] in the input.

One pass reaches the fixpoint: after propagation every open hard clause
keeps at least two unassigned literals, so nothing is left to force, and
dropping subsumed hard clauses cannot let a new one subsume a soft clause.

simplify takes models as (num_vars, hard, soft) triples (model.BareModel; a
PropMRF is one), and components come in that form: clauses are frozensets of
literals and subsumption is <= on frozensets.  Propagation and the reduction
of the hard clauses are sat.unit_propagate, the step the SAT solver and the
formula sampler share; its residual is the reduced hard formula.
"""

from __future__ import annotations

import math
from typing import AbstractSet, NamedTuple, Sequence

from .graph import Component, split_components
from .model import BareClause, BareModel, compact_bare
from .sat import unit_propagate

LN2 = math.log(2.0)


class SimplifyOutcome(NamedTuple):
    """components hold the reduced model in parts; hard and soft are its
    clauses in the input's numbering.  variables (ascending, in the input's
    numbering) and model, the whole reduced model, are compacted when read.

    A caller reads the kind of outcome off log_weight and components.  A
    zero outcome (the hard clauses conflict) has log_weight -inf; a scalar
    one (nothing is left to count) has a finite log_weight and no
    components, and then no clauses either.  In both, Z of the input is
    exp(log_weight)."""

    log_weight: float
    forced: AbstractSet[int] = frozenset()
    components: Sequence[Component] = ()
    hard: Sequence[BareClause] = ()
    soft: Sequence[tuple[BareClause, float]] = ()

    @property
    def variables(self) -> tuple[int, ...]:
        return tuple(sorted(v for c in self.components for v in c.variables))

    @property
    def model(self) -> BareModel:
        return compact_bare(self.hard, self.soft, self.variables)


def simplify(m: BareModel) -> SimplifyOutcome:
    num_vars, hard, soft = m

    propagated = unit_propagate(hard)
    if propagated is None:
        return SimplifyOutcome(float("-inf"))
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

    components = split_components(num_vars, kept, reduced_soft)
    used = sum(len(c.variables) for c in components)
    for _ in range(num_vars - len(true) - used):
        log_weight += LN2
    return SimplifyOutcome(log_weight, true, components, kept, reduced_soft)
