"""Loopy belief propagation on the clause factor graph, and the proposals
built from its output.

The factor graph has one variable node per model variable and one factor per
clause (hard and soft).  A soft clause factor takes value exp(w) when the
clause is satisfied and 1 otherwise; when exp(w) is beyond float range it
takes 1 and exp(-w) instead, which every normalized message ignores.  A hard
factor takes 1/0.  Messages start uniform and are updated synchronously with
damping, all variable-to-factor messages and then all factor-to-variable
messages, until the largest change drops below the tolerance or the iteration
cap is hit.  Hard-factor zeros stay exact zeros in message space; a variable
whose belief normalizes to zero mass indicates contradictory hard constraints
and raises an error naming it.

run_bp compiles the graph once into flat arrays.  Edges are numbered
factor-major (factors hard then soft, each scope ascending), and each
direction's messages form one (edges, 2) array.  A (variable, slot) table
lists each variable's edges in factor order, and the factor tables are
stacked per arity, so one iteration is a fixed number of numpy operations
set by the largest degree and the arities, not by the number of edges.  Each
message still runs the float operations of a one-edge-at-a-time update, in
the same order: a variable multiplies its incoming messages left to right,
with a row of ones in the excluded slot, and a factor multiplies its table
by the other axes' messages in scope order and sums those axes out one at a
time in ascending order.  The first edge, in that numbering, whose message
has no mass names the variable of the error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import AbstractSet, Sequence

import numpy as np

from .model import PropMRF
from .ve import clause_truth_table

_CLAMP = 1e-9


class DegenerateBeliefError(RuntimeError):
    """A belief without mass; var names its variable, or is None when the
    culprit is an empty hard clause."""

    def __init__(self, var: int | None):
        if var is None:
            message = "an empty hard clause leaves its factor belief without mass"
        else:
            message = f"variable {var} has an all-zero belief under the hard constraints"
        super().__init__(message)
        self.var = var


@dataclass(frozen=True)
class BpConfig:
    max_iters: int = 1000
    damping: float = 0.5
    tol: float = 1e-8

    def __post_init__(self) -> None:
        if not 0.0 <= self.damping < 1.0:
            raise ValueError("damping must lie in [0, 1)")
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")


@dataclass
class BpMarginals:
    """Per-variable P(true) estimates plus per-factor joint beliefs.

    Factors are ordered hard-then-soft in declaration order; factor_tables[k]
    is a normalized array of shape (2,) * len(factor_scopes[k]) with the
    scope's variables ascending, and truth_tables[k] is the clause's truth
    table (ve.clause_truth_table) over the same axes.
    """

    variable_p_true: np.ndarray
    factor_scopes: tuple[tuple[int, ...], ...]
    factor_tables: tuple[np.ndarray, ...]
    truth_tables: tuple[np.ndarray, ...]
    n_hard: int
    converged: bool
    iterations: int
    final_delta: float | None = None  # largest message change in the last iteration

    def soft_factor(self, i: int) -> tuple[tuple[int, ...], np.ndarray]:
        return self.factor_scopes[self.n_hard + i], self.factor_tables[self.n_hard + i]


def _soft_potential(sat: np.ndarray, weight: float) -> np.ndarray:
    """exp(weight) where the clause holds and 1 elsewhere; when exp(weight) is
    beyond float range, that table divided by exp(weight)."""
    try:
        return np.where(sat, math.exp(weight), 1.0)
    except OverflowError:
        return np.where(sat, 1.0, math.exp(-weight))


def _axis_vector(vec: np.ndarray, axis: int, ndim: int) -> np.ndarray:
    shape = [1] * ndim
    shape[axis] = 2
    return vec.reshape(shape)


def _edge_layout(
    num_vars: int, scopes: Sequence[tuple[int, ...]], tables: Sequence[np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """The factor graph as flat arrays, edges numbered factor-major.

    Returns (edge_var, others, slots, groups).  edge_var[e] is the variable
    of edge e.  slots[v - 1] lists v's edges in factor order, padded to the
    largest degree with index n_edges, the ones row; others[e] is slots of
    e's variable with e itself replaced by the ones row too.  Each group
    holds the factors of one arity k >= 1: their edges, shape (count, k) in
    scope order, and their tables stacked to shape (count,) + (2,) * k.
    """
    edge_var = np.array([v for scope in scopes for v in scope], dtype=np.intp)
    n_edges = edge_var.size
    degree = np.bincount(edge_var, minlength=num_vars + 1)[1:]
    by_var = np.argsort(edge_var, kind="stable")
    sorted_var = edge_var[by_var] - 1
    rank = np.arange(n_edges) - (np.cumsum(degree) - degree)[sorted_var]
    slots = np.full((num_vars, int(degree.max(initial=0))), n_edges, dtype=np.intp)
    slots[sorted_var, rank] = by_var
    others = slots[edge_var - 1]
    others[others == np.arange(n_edges)[:, None]] = n_edges

    first_edge = np.cumsum([0] + [len(scope) for scope in scopes])
    groups = []
    for k in sorted({len(scope) for scope in scopes} - {0}):
        members = [fi for fi, scope in enumerate(scopes) if len(scope) == k]
        groups.append(
            (
                first_edge[members][:, None] + np.arange(k),
                np.stack([tables[fi] for fi in members]),
            )
        )
    return edge_var, others, slots, groups


def _factor_messages(edges: np.ndarray, stacked: np.ndarray, v2f: np.ndarray) -> np.ndarray:
    """Unnormalized factor-to-variable messages for one arity group, shape
    (count, k, 2): for each kept axis, the table times the incoming messages
    of the other axes in scope order, summed over those axes in ascending
    order."""
    count, k = edges.shape
    incoming = v2f[edges]
    vectors = [
        incoming[:, axis].reshape((count,) + (1,) * axis + (2,) + (1,) * (k - 1 - axis))
        for axis in range(k)
    ]
    out = np.empty((count, k, 2))
    for keep in range(k):
        tensor = stacked
        for axis in range(k):
            if axis != keep:
                tensor = tensor * vectors[axis]
        for axis in range(k):
            if axis != keep:
                tensor = tensor.sum(axis=axis + 1, keepdims=True)
        out[:, keep] = tensor.reshape(count, 2)
    return out


def _damped(old: np.ndarray, raw: np.ndarray, damping: float, edge_var: np.ndarray) -> np.ndarray:
    """Normalize raw messages and blend them with the old ones; the first
    edge whose message has no mass names the variable of the error."""
    total = raw.sum(axis=1)
    empty = np.flatnonzero(total <= 0.0)
    if empty.size:
        raise DegenerateBeliefError(int(edge_var[empty[0]]))
    return damping * old + (1.0 - damping) * (raw / total[:, None])


def _largest_change(new: np.ndarray, old: np.ndarray) -> float:
    # fmax skips NaN, as a running max(delta, change) does
    return float(np.fmax.reduce(np.abs(new - old).max(axis=1), initial=0.0))


def run_bp(m: PropMRF, config: BpConfig = BpConfig()) -> BpMarginals:
    """Sum-product messages to (approximate) variable and factor marginals.

    Exact on factor graphs without cycles; a fixed point elsewhere.  Messages
    start uniform, so the run is deterministic.
    """
    num_vars, hard, soft = m
    scopes: list[tuple[int, ...]] = []
    sats: list[np.ndarray] = []
    tables: list[np.ndarray] = []
    for clause in hard:
        scope, sat = clause_truth_table(clause)
        scopes.append(scope)
        sats.append(sat)
        tables.append(sat.astype(np.float64))
    for clause, weight in soft:
        scope, sat = clause_truth_table(clause)
        scopes.append(scope)
        sats.append(sat)
        tables.append(_soft_potential(sat, weight))
    edge_var, others, slots, groups = _edge_layout(num_vars, scopes, tables)
    n_edges = edge_var.size

    # row n_edges of f2v is the ones row behind excluded and padded slots
    f2v = np.full((n_edges + 1, 2), 0.5)
    f2v[n_edges] = 1.0
    v2f = np.full((n_edges, 2), 0.5)
    d = config.damping

    converged = False
    iterations = 0
    delta = None
    for iterations in range(1, config.max_iters + 1):
        product = np.ones((n_edges, 2))
        for slot in others.T:
            product = product * f2v[slot]
        new_v2f = _damped(v2f, product, d, edge_var)
        delta = _largest_change(new_v2f, v2f)
        v2f = new_v2f

        message = np.empty((n_edges, 2))
        for edges, stacked in groups:
            message[edges] = _factor_messages(edges, stacked, v2f)
        new_f2v = _damped(f2v[:n_edges], message, d, edge_var)
        delta = max(delta, _largest_change(new_f2v, f2v[:n_edges]))
        f2v[:n_edges] = new_f2v
        if delta < config.tol:
            converged = True
            break

    belief = np.ones((num_vars, 2))
    for slot in slots.T:
        belief = belief * f2v[slot]
    total = belief.sum(axis=1)
    empty = np.flatnonzero(total <= 0.0)
    if empty.size:
        raise DegenerateBeliefError(int(empty[0]) + 1)
    p_true = belief[:, 1] / total

    factor_tables: list[np.ndarray] = []
    edge = 0
    for fi, scope in enumerate(scopes):
        tensor = tables[fi]
        for axis in range(len(scope)):
            tensor = tensor * _axis_vector(v2f[edge], axis, len(scope))
            edge += 1
        total = tensor.sum()
        if total <= 0.0:
            raise DegenerateBeliefError(scope[0] if scope else None)
        factor_tables.append(tensor / total)

    return BpMarginals(
        variable_p_true=p_true,
        factor_scopes=tuple(scopes),
        factor_tables=tuple(factor_tables),
        truth_tables=tuple(sats),
        n_hard=len(hard),
        converged=converged,
        iterations=iterations,
        final_delta=delta,
    )


def variable_proposal(marginals: BpMarginals) -> np.ndarray:
    """Fully factorized proposal Q: per-variable Bernoulli(P(true)), clamped
    away from 0 and 1 so every assignment keeps positive probability."""
    return np.clip(marginals.variable_p_true, _CLAMP, 1.0 - _CLAMP)


def formula_proposal(
    marginals: BpMarginals, forced_true: AbstractSet[int], i: int
) -> float:
    """Probability that soft clause i is satisfied, given the literals that
    earlier clause values force.

    forced_true holds the literals that unit propagation of the hard clauses
    and the decided clause values makes true; the formula sampler keeps it
    per prefix.  Rows of clause i's factor belief that contradict a forced
    literal are excluded, and the result is the satisfied mass over the
    total restricted mass.  Both masses zero yields 0.5; otherwise the value
    is clamped to keep both branches possible.
    """
    scope, table = marginals.soft_factor(i)
    sat = marginals.truth_tables[marginals.n_hard + i]
    # Fix each forced axis at its value; the trailing Ellipsis keeps a fully
    # forced scope a 0-d array, so the masks below still select rows.
    rows = tuple(
        1 if v in forced_true else 0 if -v in forced_true else slice(None)
        for v in scope
    ) + (Ellipsis,)
    table, sat = table[rows], sat[rows]

    sat_mass = float(table[sat].sum())
    unsat_mass = float(table[~sat].sum())
    total = sat_mass + unsat_mass
    if total <= 0.0:
        return 0.5
    return float(min(max(sat_mass / total, _CLAMP), 1.0 - _CLAMP))
