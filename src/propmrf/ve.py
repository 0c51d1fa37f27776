"""Bucket elimination over dense log-space factors, and its bucket-tree pass.

Each clause becomes one factor over its variables: a soft clause takes value
w when satisfied and 0 otherwise (natural-log potentials), a hard clause 0
when satisfied and -inf otherwise.  Factors are placed in the bucket of their
earliest variable in the elimination order; processing a bucket multiplies
its factors (log addition), sums the bucket variable out with log-sum-exp,
and forwards the result as a message to the bucket of the earliest variable
left in its scope.  A variable whose bucket is empty when reached is
unconstrained and contributes ln 2.

The buckets and messages form a tree (a forest when a message sums to a
scalar).  bucket_tree keeps the upward messages and then walks the tree
back down (Kask, Dechter, Larrosa & Dechter, AIJ 2005): each bucket's
product is rebuilt from its factors, its children's messages and the
message from its parent, so it holds the joint weight of its scope over the
whole model.  The bucket variable's marginal is read off that product, and
each child is sent the product with the child's own message removed and the
rest summed out.  Removing a message masks the entries where it is -inf
instead of subtracting it, so hard clauses produce no NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graph import minfill_width
from .model import BareClause, BareModel, Clause, PropMRF, to_bare

LN2 = math.log(2.0)


class VeWidthError(RuntimeError):
    """An intermediate table would exceed the width bound."""

    def __init__(self, width: int, bound: int):
        super().__init__(f"factor width {width} exceeds bound {bound}")
        self.width = width
        self.bound = bound


@dataclass
class Factor:
    scope: tuple[int, ...]  # ascending variable indices
    table: np.ndarray  # shape (2,) * len(scope), natural-log values


def clause_to_factor(
    clause: Clause | BareClause, log_sat: float, log_unsat: float
) -> Factor:
    lits = tuple(clause)
    scope = tuple(sorted(abs(l) for l in lits))
    size = len(scope)
    sat = np.zeros((2,) * size, dtype=bool)
    for lit in lits:
        axis = scope.index(abs(lit))
        shape = [1] * size
        shape[axis] = 2
        sat |= np.array([lit < 0, lit > 0], dtype=bool).reshape(shape)
    table = np.where(sat, np.float64(log_sat), np.float64(log_unsat))
    return Factor(scope, table)


def clauses_to_factors(m: PropMRF | BareModel, max_width: int = 20) -> list[Factor]:
    """One factor per clause, hard clauses first then soft, in declaration order.

    m may be a PropMRF or the search's bare form."""
    _, hard, soft = to_bare(m)
    factors: list[Factor] = []
    for clause in hard:
        if len(clause) > max_width:
            raise VeWidthError(len(clause), max_width)
        factors.append(clause_to_factor(clause, 0.0, float("-inf")))
    for clause, weight in soft:
        if len(clause) > max_width:
            raise VeWidthError(len(clause), max_width)
        factors.append(clause_to_factor(clause, weight, 0.0))
    return factors


def _aligned(factor: Factor, axis: dict[int, int], ndim: int) -> np.ndarray:
    """factor.table as a view broadcastable over a table whose variable v
    lies on axis[v]."""
    shape = [1] * ndim
    for v in factor.scope:
        shape[axis[v]] = 2
    src_axes = sorted(range(len(factor.scope)), key=lambda i: axis[factor.scope[i]])
    return np.transpose(factor.table, src_axes).reshape(shape)


def _multiply(f: Factor, g: Factor, max_width: int) -> Factor:
    scope = tuple(sorted(set(f.scope) | set(g.scope)))
    if len(scope) > max_width:
        raise VeWidthError(len(scope), max_width)
    axis = {v: i for i, v in enumerate(scope)}
    return Factor(scope, _aligned(f, axis, len(scope)) + _aligned(g, axis, len(scope)))


def _sum_out(f: Factor, var: int) -> Factor:
    axis = f.scope.index(var)
    table = np.logaddexp.reduce(f.table, axis=axis)
    scope = f.scope[:axis] + f.scope[axis + 1 :]
    return Factor(scope, table)


def _eliminate(
    factors: Sequence[Factor], order: Sequence[int], max_width: int
) -> tuple[float, list[list[Factor]], list[Factor | None]]:
    """The upward pass: log Z, each bucket's factors including the messages
    it received, and the message each bucket sent (None when the bucket was
    empty or its message was a scalar)."""
    position = {v: i for i, v in enumerate(order)}
    for f in factors:
        for v in f.scope:
            if v not in position:
                raise ValueError(f"variable {v} missing from elimination order")

    buckets: list[list[Factor]] = [[] for _ in order]
    sent: list[Factor | None] = [None] * len(order)
    constant = 0.0
    for f in factors:
        if not f.scope:
            constant += float(f.table)
            continue
        buckets[min(position[v] for v in f.scope)].append(f)

    for i, v in enumerate(order):
        bucket = buckets[i]
        if not bucket:
            constant += LN2
            continue
        product = bucket[0]
        for f in bucket[1:]:
            product = _multiply(f, product, max_width)
        summed = _sum_out(product, v)
        if not summed.scope:
            constant += float(summed.table)
        else:
            buckets[min(position[u] for u in summed.scope)].append(summed)
            sent[i] = summed
    return constant, buckets, sent


def bucket_elimination(
    factors: Sequence[Factor], order: Sequence[int], max_width: int = 20
) -> float:
    """Log of the sum over all assignments of the factor product.

    Every variable in any factor scope must appear in the order; variables in
    the order touched by no factor each contribute ln 2.
    """
    return _eliminate(factors, order, max_width)[0]


def _log_sum_to(table: np.ndarray, keep: Sequence[int]) -> np.ndarray:
    """Log-sum-exp of table over every axis not in keep, as a new array."""
    drop = tuple(a for a in range(table.ndim) if a not in keep)
    return np.logaddexp.reduce(table, axis=drop) if drop else table.copy()


def bucket_tree(
    factors: Sequence[Factor], order: Sequence[int], max_width: int = 20
) -> tuple[float, np.ndarray | None]:
    """log Z and P(v = true) for each variable of the order, in order.

    Same inputs and width bound as bucket_elimination.  The marginals are
    None when the factor product is zero everywhere.
    """
    log_z, buckets, sent = _eliminate(factors, order, max_width)
    if log_z == -math.inf:
        return log_z, None
    position = {v: i for i, v in enumerate(order)}
    children: list[list[int]] = [[] for _ in order]
    for i, msg in enumerate(sent):
        if msg is not None:
            children[min(position[u] for u in msg.scope)].append(i)

    marginals = np.full(len(order), 0.5)
    down: dict[int, Factor] = {}
    for j in reversed(range(len(order))):
        bucket = buckets[j]
        buckets[j] = []
        if not bucket:
            continue
        scope = tuple(sorted({v for f in bucket for v in f.scope}))
        axis = {v: a for a, v in enumerate(scope)}
        belief = np.zeros((2,) * len(scope))
        for f in bucket:
            belief += _aligned(f, axis, len(scope))
        if j in down:
            belief += _aligned(down.pop(j), axis, len(scope))
        pair = _log_sum_to(belief, (axis[order[j]],))
        marginals[j] = math.exp(pair[1] - np.logaddexp(pair[0], pair[1]))
        last = len(children[j]) - 1
        for k, c in enumerate(children[j]):
            msg = sent[c]
            sent[c] = None
            aligned = _aligned(msg, axis, len(scope))
            finite = aligned != -math.inf
            # The last child may consume the product itself.
            rest = belief if k == last else belief.copy()
            np.subtract(rest, aligned, out=rest, where=finite)
            np.copyto(rest, -math.inf, where=~finite)
            down[c] = Factor(msg.scope, _log_sum_to(rest, [axis[v] for v in msg.scope]))
    return log_z, marginals


def ve_count(
    m: PropMRF, max_width: int = 20, order: Sequence[int] | None = None
) -> float:
    """Partition function of m by bucket elimination (min-fill order by default)."""
    factors = clauses_to_factors(m, max_width)
    if order is None:
        order = minfill_width(m).order
    covered = set(order) | m.occurring_variables()
    log_z = bucket_elimination(factors, order, max_width)
    return log_z + LN2 * (m.num_vars - len(covered))
