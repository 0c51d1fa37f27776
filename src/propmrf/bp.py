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
lists each variable's edges in factor order, so the variable side of an
iteration is one multiply per slot up to the largest degree.  Each message
still runs the float operations of a one-edge-at-a-time update, in the same
order: a variable multiplies its incoming messages left to right, with a row
of ones in the excluded slot, and a factor multiplies its table by the other
axes' messages in scope order and sums those axes out one at a time in
ascending order.  The first edge, in that numbering, whose message has no
mass names the variable of the error.

The factor side builds no table.  A clause factor is one constant c_sat
except at the one row x* that falsifies the clause, where it is c_unsat.  So
each entry of the product behind the message to axis j is the chain
c_sat * v_a0[x_a0] * v_a1[x_a1] * ... over the other axes in ascending
order, the roundings of the table update, and the entry at x* is that chain
started from c_unsat.  The kernel grows the chains as a product tree whose
level p multiplies in the p-th other axis as the new top bit, writes in the
x* entry as its scalar chain, puts x_j on top, and sums the other axes out
in ascending order as halvings of the lowest bit, each x0 + x1 as numpy's
sum over a length-2 axis gives it.  The (factor, kept axis) rows of one
arity k run together, in blocks of at most _BLOCK_ENTRIES table entries.
An iteration costs Theta(k 2^k) flops per factor and O(k) numpy calls per
block, where rebuilding each message from the table took Theta(k^2 2^k)
flops and k(k - 1) multiplies and sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import AbstractSet, NamedTuple, Sequence

import numpy as np

from .model import PropMRF
from .ve import clause_truth_table

_CLAMP = 1e-9

# The most table entries (doubles) one block of factor rows holds; it bounds
# the kernel's working set on wide clauses.
_BLOCK_ENTRIES = 1 << 17


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


def _potentials(weight: float | None) -> tuple[float, float]:
    """A clause factor's values where the clause holds and where it fails:
    1 and 0 for a hard clause (weight None); exp(weight) and 1 for a soft
    one, or 1 and exp(-weight) when exp(weight) is beyond float range."""
    if weight is None:
        return 1.0, 0.0
    try:
        return math.exp(weight), 1.0
    except OverflowError:
        return 1.0, math.exp(-weight)


def _axis_vector(vec: np.ndarray, axis: int, ndim: int) -> np.ndarray:
    shape = [1] * ndim
    shape[axis] = 2
    return vec.reshape(shape)


def _edge_layout(
    num_vars: int, scopes: Sequence[tuple[int, ...]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The factor graph as flat arrays, edges numbered factor-major.

    Returns (edge_var, others, slots).  edge_var[e] is the variable of edge
    e.  slots[v - 1] lists v's edges in factor order, padded to the largest
    degree with index n_edges, the ones row; others[e] is slots of e's
    variable with e itself replaced by the ones row too.
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
    return edge_var, others, slots


class _Block(NamedTuple):
    """Rows of the factor kernel: one (factor, kept axis j) pair each, all of
    one arity k.  Indices into v2f are flat, into its (edges * 2) ravel."""

    edges: np.ndarray  # (rows,) the edge each row's message goes to
    vectors: np.ndarray  # (k - 1, rows, 2) the other axes' messages, ascending
    falsifying: np.ndarray  # (k - 1, rows) their entries at the falsifying row x*
    c_sat: np.ndarray  # (rows, 1)
    c_unsat: np.ndarray  # (rows,)
    put: np.ndarray  # (rows,) flat position of x* in the rows' tables


def _factor_blocks(
    scopes: Sequence[tuple[int, ...]],
    falsifying: Sequence[tuple[int, ...]],
    potentials: Sequence[tuple[float, float]],
) -> list[_Block]:
    """The factor kernel's rows, grouped by arity and cut into blocks of at
    most _BLOCK_ENTRIES table entries; a row of a wider table is a block of
    its own.  falsifying[f] holds the values of x* along f's scope."""
    first_edge = np.cumsum([0] + [len(scope) for scope in scopes])
    blocks = []
    for k in sorted({len(scope) for scope in scopes} - {0}):
        members = [fi for fi, scope in enumerate(scopes) if len(scope) == k]
        n_rows = len(members) * k
        edges = first_edge[members][:, None] + np.arange(k)
        star = np.array([falsifying[fi] for fi in members], dtype=np.intp)
        c_sat, c_unsat = np.repeat([potentials[fi] for fi in members], k, axis=0).T
        other = np.array([[a for a in range(k) if a != j] for j in range(k)], dtype=np.intp)
        other = other.reshape(k, k - 1)
        other_edges = edges[:, other].reshape(n_rows, k - 1).T
        other_star = star[:, other].reshape(n_rows, k - 1).T
        # x_j is the top bit of a row's table and the p-th other axis bit p;
        # the tables of a block's rows lie one after another
        per_block = max(1, _BLOCK_ENTRIES >> k)
        put = star.reshape(n_rows) << (k - 1) | (np.arange(n_rows) % per_block) << k
        for p, bit in enumerate(other_star):
            put |= bit << p
        for start in range(0, n_rows, per_block):
            rows = slice(start, start + per_block)
            blocks.append(
                _Block(
                    edges.reshape(n_rows)[rows],
                    2 * other_edges[:, rows, None] + np.arange(2),
                    2 * other_edges[:, rows] + other_star[:, rows],
                    c_sat[rows, None],
                    c_unsat[rows],
                    put[rows],
                )
            )
    return blocks


def _block_messages(block: _Block, v2f: np.ndarray) -> np.ndarray:
    """Unnormalized factor-to-variable messages of one block's rows, shape
    (rows, 2), by the product tree; v2f is flat."""
    at_star = block.c_unsat
    for entry in v2f.take(block.falsifying):
        at_star = at_star * entry
    tree = block.c_sat
    for vector in v2f.take(block.vectors):
        tree = (vector[:, :, None] * tree[:, None, :]).reshape(len(tree), -1)
    table = np.concatenate((tree, tree), axis=1)
    del tree  # the halvings reuse its memory
    table.put(block.put, at_star)
    while table.shape[1] > 2:
        table = table[:, 0::2] + table[:, 1::2]
    return table


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
    clauses = [(clause, None) for clause in hard] + list(soft)
    scopes: list[tuple[int, ...]] = []
    sats: list[np.ndarray] = []
    tables: list[np.ndarray] = []
    falsifying: list[tuple[int, ...]] = []
    potentials: list[tuple[float, float]] = []
    for clause, weight in clauses:
        scope, sat = clause_truth_table(clause)
        c_sat, c_unsat = _potentials(weight)
        scopes.append(scope)
        sats.append(sat)
        tables.append(np.where(sat, c_sat, c_unsat))
        falsifying.append(tuple(int(lit < 0) for lit in sorted(clause, key=abs)))
        potentials.append((c_sat, c_unsat))
    edge_var, others, slots = _edge_layout(num_vars, scopes)
    blocks = _factor_blocks(scopes, falsifying, potentials)
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

        flat = v2f.ravel()
        message = np.empty((n_edges, 2))
        for block in blocks:
            message[block.edges] = _block_messages(block, flat)
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
