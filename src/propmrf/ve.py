"""Bucket elimination over dense log-space factors, and its bucket-tree pass.

Each clause becomes one factor over its variables: a soft clause takes value
w when satisfied and 0 otherwise (natural-log potentials), a hard clause 0
when satisfied and -inf otherwise.  Factors are placed in the bucket of their
earliest variable in the elimination order; processing a bucket multiplies
its factors (log addition), sums the bucket variable out as np.logaddexp of
the two slices of its axis (the same bits as np.logaddexp.reduce over that
length-2 axis, at about half the cost), and forwards the result as a message
to the bucket of the earliest variable left in its scope.  A variable whose
bucket is empty when reached is unconstrained and contributes ln 2.  Every
scope is ascending, so a factor lines up with a wider table by a reshape.

The buckets and messages form a tree (a forest when a message sums to a
scalar).  bucket_tree keeps the upward messages and products and then
walks the tree back down (Kask, Dechter, Larrosa & Dechter, AIJ 2005): the
message from its parent is added into each bucket's product in place, so it
holds the joint weight of its scope over the whole model.  The bucket
variable's marginal is read off that product by exp and sum, shifted by the
product's largest entry.  Each child is sent the product with the child's
own message removed and the rest summed out by a log-sum-exp shifted per
output entry by that entry's largest term.  The difference is written once,
into the table the marginal was computed in, laid out so that every
reduction runs over contiguous memory in the order numpy would sum the
product's own layout (_child_message).  Where a message holds -inf, so does
the product, and those entries stay -inf instead of becoming NaN.  The
downward pass only feeds the marginals, which therefore agree with a
log-space reduction to rounding, not bit for bit.

No table wider than MAX_TABLE_WIDTH variables is built: the truth tables,
the factor builders, the bucket products and ve_count's min-fill order check
a width against it, as against the caller's bound, before they allocate.

The factor builders and ve_count take clauses as frozensets of literals
and models as (num_vars, hard, soft) triples: a PropMRF or a plain
model.BareModel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graph import minfill_width
from .model import BareClause, BareModel, PropMRF

LN2 = math.log(2.0)
_FLOOR = np.finfo(np.float64).min

# The widest table any caller may build, whatever its own bound: 2^24
# doubles are 128 MiB.
MAX_TABLE_WIDTH = 24


class VeWidthError(RuntimeError):
    """A table would exceed a width bound: the caller's or MAX_TABLE_WIDTH."""

    def __init__(self, width: int, bound: int):
        super().__init__(f"factor width {width} exceeds bound {bound}")
        self.width = width
        self.bound = bound


def _check_width(width: int, max_width: int = MAX_TABLE_WIDTH) -> None:
    """Refuse a table over width variables beyond max_width or
    MAX_TABLE_WIDTH, before it is built."""
    bound = min(max_width, MAX_TABLE_WIDTH)
    if width > bound:
        raise VeWidthError(width, bound)


@dataclass
class Factor:
    scope: tuple[int, ...]  # ascending variable indices
    table: np.ndarray  # shape (2,) * len(scope), natural-log values


def clause_truth_table(clause: BareClause) -> tuple[tuple[int, ...], np.ndarray]:
    """The clause's scope (its variables, ascending) and its truth table: a
    boolean array of shape (2,) * len(scope) indexed by the scope's values,
    false only at the one row that falsifies every literal.  A clause wider
    than MAX_TABLE_WIDTH raises VeWidthError."""
    _check_width(len(clause))
    lits = sorted(clause, key=abs)
    table = np.ones((2,) * len(lits), dtype=bool)
    table[tuple(int(lit < 0) for lit in lits)] = False
    return tuple(abs(lit) for lit in lits), table


def clause_to_factor(clause: BareClause, log_sat: float, log_unsat: float) -> Factor:
    scope, sat = clause_truth_table(clause)
    table = np.where(sat, np.float64(log_sat), np.float64(log_unsat))
    return Factor(scope, table)


def clauses_to_factors(m: BareModel, max_width: int = 20) -> list[Factor]:
    """One factor per clause, hard clauses first then soft, in declaration order."""
    _, hard, soft = m
    factors: list[Factor] = []
    for clause in hard:
        _check_width(len(clause), max_width)
        factors.append(clause_to_factor(clause, 0.0, float("-inf")))
    for clause, weight in soft:
        _check_width(len(clause), max_width)
        factors.append(clause_to_factor(clause, weight, 0.0))
    return factors


def _aligned(factor: Factor, scope: Sequence[int]) -> np.ndarray:
    """factor.table as a view broadcastable over a table whose axes hold
    scope's variables; both scopes are ascending, so no axis moves."""
    return factor.table.reshape([2 if v in factor.scope else 1 for v in scope])


def _product(factors: Sequence[Factor], max_width: int) -> tuple[tuple[int, ...], np.ndarray]:
    """The union of the factors' scopes and their product (log sum) over it,
    in a new table."""
    if len(factors) == 1:
        return factors[0].scope, factors[0].table.copy()
    scope = tuple(sorted({v for f in factors for v in f.scope}))
    _check_width(len(scope), max_width)
    table = np.zeros((2,) * len(scope))
    for f in factors:
        table += _aligned(f, scope)
    return scope, table


def _halves(table: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """The two slices of table along axis, as views."""
    head = (slice(None),) * axis
    return table[head + (0,)], table[head + (1,)]


def _child_message(
    belief: np.ndarray, scope: Sequence[int], msg: Factor, scratch: np.ndarray
) -> np.ndarray:
    """The message a bucket with product belief over scope sends down to the
    child that sent it msg: belief - msg, log-sum-exp'd over the axes
    outside msg.scope and shifted per output entry by its largest term (a
    finite floor where every term is -inf, so no inf - inf arises).  Where
    msg is -inf, so is belief, and the difference is -inf, not NaN.

    belief - msg is written once into scratch, a C-contiguous table of
    belief's size, as (M, K, L): the dropped axes before msg's last axis,
    msg's axes, then the trailing run of dropped axes.  numpy sums the
    dropped axes of a C-contiguous table pairwise along its trailing run
    and then sequentially in C order, as sum(axis=2).sum(axis=0) does here
    (or sum(axis=0) of the [:, :, 0] view, with no copy, when L is 1), and
    max is exact in any order, so the bits are those of the same reduction
    over belief's own layout, without its 2-entry inner loops.
    With no axis to drop, the message is belief - msg in a new table.
    belief is never written.
    """
    keep = [a for a, v in enumerate(scope) if v in msg.scope]
    last = keep[-1]
    dropped = len(scope) - len(keep)
    head = [a for a in range(last) if scope[a] not in msg.scope]
    perm = head + keep + list(range(last + 1, len(scope)))
    rest = scratch if dropped else np.empty_like(belief)
    aligned = _aligned(msg, scope).transpose(perm)
    if msg.table.min() == -math.inf:
        finite = aligned != -math.inf
        np.subtract(belief.transpose(perm), aligned, out=rest, where=finite)
        np.copyto(rest, -math.inf, where=~finite)
    else:
        np.subtract(belief.transpose(perm), aligned, out=rest)
    if not dropped:
        return rest
    table = rest.reshape(1 << len(head), 1 << len(keep), -1)
    shift = table.max(axis=0).max(axis=1)
    np.maximum(shift, _FLOOR, out=shift)
    table -= shift[:, None]
    np.exp(table, out=table)
    total = (table[:, :, 0] if table.shape[2] == 1 else table.sum(axis=2)).sum(axis=0)
    with np.errstate(divide="ignore"):  # an all -inf entry sums to 0
        np.log(total, out=total)
    total += shift
    return total.reshape(msg.table.shape)


def _eliminate(
    factors: Sequence[Factor], order: Sequence[int], max_width: int, keep: bool = False
) -> tuple[float, list[tuple[tuple[int, ...], np.ndarray] | None], list[Factor | None]]:
    """The upward pass: log Z, each bucket's product (scope, table) if keep
    (else None: freed once summed out), and the message each bucket sent
    (None when the bucket was empty or its message was a scalar)."""
    position = {v: i for i, v in enumerate(order)}
    for f in factors:
        for v in f.scope:
            if v not in position:
                raise ValueError(f"variable {v} missing from elimination order")

    buckets: list[list[Factor]] = [[] for _ in order]
    products: list[tuple[tuple[int, ...], np.ndarray] | None] = [None] * len(order)
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
        scope, table = _product(bucket, max_width)
        products[i] = (scope, table) if keep else None
        a = scope.index(v)
        summed = Factor(scope[:a] + scope[a + 1 :], np.logaddexp(*_halves(table, a)))
        if not summed.scope:
            constant += float(summed.table)
        else:
            buckets[min(position[u] for u in summed.scope)].append(summed)
            sent[i] = summed
    return constant, products, sent


def bucket_elimination(
    factors: Sequence[Factor], order: Sequence[int], max_width: int = 20
) -> float:
    """Log of the sum over all assignments of the factor product.

    Every variable in any factor scope must appear in the order; variables in
    the order touched by no factor each contribute ln 2.
    """
    return _eliminate(factors, order, max_width)[0]


def bucket_tree(
    factors: Sequence[Factor], order: Sequence[int], max_width: int = 20
) -> tuple[float, np.ndarray | None]:
    """log Z and P(v = true) for each variable of the order, in order.

    Same inputs and width bound as bucket_elimination.  The marginals are
    None when the factor product is zero everywhere.  Each bucket's
    product is built once, in the upward pass, and dropped once its
    marginal and child messages are read.  A bucket with children builds
    each child's message in the table its marginal was computed in.
    """
    log_z, products, sent = _eliminate(factors, order, max_width, keep=True)
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
        if (product := products.pop()) is None:
            continue
        scope, belief = product
        if j in down:
            belief += _aligned(down.pop(j), scope)
        # A bucket without children needs its product only for the marginal.
        weights = np.subtract(belief, belief.max(), out=None if children[j] else belief)
        np.exp(weights, out=weights)
        false, true = (float(h.sum()) for h in _halves(weights, scope.index(order[j])))
        marginals[j] = true / (false + true)
        for c in children[j]:
            msg = sent[c]
            sent[c] = None
            down[c] = Factor(msg.scope, _child_message(belief, scope, msg, weights))
    return log_z, marginals


def ve_count(
    m: PropMRF, max_width: int = 20, order: Sequence[int] | None = None
) -> float:
    """Partition function of m by bucket elimination (min-fill order by default).

    With the min-fill order, its width is checked against max_width before
    any table is built; a given order is checked bucket by bucket.
    """
    if order is None:
        estimate = minfill_width(m)
        if estimate.order:
            _check_width(estimate.width + 1, max_width)
        order = estimate.order
    factors = clauses_to_factors(m, max_width)
    covered = set(order).union(*(f.scope for f in factors))
    log_z = bucket_elimination(factors, order, max_width)
    return log_z + LN2 * (m[0] - len(covered))
