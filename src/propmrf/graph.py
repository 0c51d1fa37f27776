"""Primal-graph structure: connected components and greedy min-fill width.

The primal graph has one vertex per variable occurring in some clause and an
edge between every pair of variables sharing a clause.  Variables occurring in
no clause are not vertices; simplification accounts for them separately.

These functions take a model as its (num_vars, hard, soft) triple of
frozenset clauses (a PropMRF or a plain model.BareModel).  The one
union-find, split_components, splits simplify's reduced clauses and
connected_components' whole models into plain component models.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple, Sequence

from .model import BareClause, BareModel, compact_bare


class Component(NamedTuple):
    """One connected component: its variables, ascending, in the numbering of
    the clauses it was split from, and its submodel compacted once from that
    numbering to 1..k in the same order (variable i is variables[i - 1])."""

    variables: tuple[int, ...]
    model: BareModel


@dataclass(frozen=True)
class WidthEstimate:
    width: int
    order: tuple[int, ...]


def primal_adjacency(m: BareModel) -> dict[int, set[int]]:
    _, hard, soft = m
    adj: dict[int, set[int]] = {}
    for clause in chain(hard, (c for c, _ in soft)):
        scope = sorted(map(abs, clause))
        for v in scope:
            adj.setdefault(v, set())
        for i, u in enumerate(scope):
            for v in scope[i + 1 :]:
                adj[u].add(v)
                adj[v].add(u)
    return adj


def connected_components(m: BareModel) -> list[Component]:
    """Split m along its primal graph; components are ordered by smallest
    variable, each renumbered to 1..k over its own variables in ascending
    order (split_components on m's clauses).  When every declared variable
    occurs in a clause, the partition function of m is the product of the
    component partition functions."""
    return split_components(*m)


def split_components(
    num_vars: int, hard: Sequence[BareClause], soft: Sequence[tuple[BareClause, float]]
) -> list[Component]:
    """The components of the clauses, ordered by smallest variable, each
    compacted once from the clauses' numbering; a component's clauses keep
    their input order, hard then soft."""
    # Union-find with path halving; parent[v] is 0 until v occurs.  used -
    # joined counts the components, so a single one skips the grouping.
    parent = [0] * (num_vars + 1)
    used = joined = 0
    for clause in chain(hard, [c for c, _ in soft]):
        root = 0
        for lit in clause:
            v = lit if lit > 0 else -lit
            if not parent[v]:
                parent[v] = v
                used += 1
            else:
                while parent[v] != v:
                    parent[v] = parent[parent[v]]
                    v = parent[v]
            if not root:
                root = v
            elif v != root:
                parent[v] = root
                joined += 1
    if used - joined == 1:
        variables = [v for v in range(1, num_vars + 1) if parent[v]]
        return [Component(tuple(variables), compact_bare(hard, soft, variables))]

    members: dict[int, list[int]] = {}
    for v in range(1, num_vars + 1):
        if parent[v]:
            root = v
            while parent[root] != root:
                root = parent[root]
            parent[v] = root
            members.setdefault(root, []).append(v)
    by_root_hard: dict[int, list] = {r: [] for r in members}
    by_root_soft: dict[int, list] = {r: [] for r in members}
    for clause in hard:
        by_root_hard[parent[abs(min(clause))]].append(clause)
    for sc in soft:
        by_root_soft[parent[abs(min(sc[0]))]].append(sc)
    return [
        Component(
            tuple(variables),
            compact_bare(by_root_hard[root], by_root_soft[root], variables),
        )
        for root, variables in members.items()
    ]


def minfill_width(m: BareModel, bound: float = math.inf) -> WidthEstimate:
    """Greedy min-fill elimination order and its induced width (an upper bound
    on treewidth).

    The elimination stops as soon as the width reaches bound: the estimate
    then holds that width, which is at least bound, and the order up to that
    variable.  A width below bound comes with the whole order, as without one.

    At each step the variable adding the fewest fill edges is eliminated (ties
    broken by smallest index); the width is the largest neighborhood met along
    the way.  Fill counts are kept up to date rather than recounted
    (Kjaerulff 1990): eliminating x takes from each neighbour u the pairs x
    formed with u's neighbours outside N(x), and a fill edge a-b gives a the
    pairs b forms with a's neighbours outside N(b) (and b likewise) and
    takes one pair from each common neighbour.  The next variable comes off a
    heap keyed on (fill, index) with stale entries skipped, which is the same
    tie rule, so the order is the one a full recount would give.
    """
    adj = primal_adjacency(m)
    fill = {
        v: sum(len(nbrs - adj[u]) - 1 for u in nbrs) // 2 for v, nbrs in adj.items()
    }
    heap = [(f, v) for v, f in fill.items()]
    heapq.heapify(heap)
    order: list[int] = []
    width = 0
    while heap:
        f, x = heapq.heappop(heap)
        if x not in adj or fill[x] != f:
            continue
        nbrs = adj.pop(x)
        width = max(width, len(nbrs))
        order.append(x)
        if width >= bound:
            break
        for u in nbrs:
            adj[u].discard(x)
            fill[u] -= len(adj[u] - nbrs)
        changed = set(nbrs)
        nbr_list = sorted(nbrs)
        for i, a in enumerate(nbr_list):
            for b in nbr_list[i + 1 :]:
                if b in adj[a]:
                    continue
                fill[a] += len(adj[a] - adj[b])
                fill[b] += len(adj[b] - adj[a])
                for w in adj[a] & adj[b]:
                    fill[w] -= 1
                    changed.add(w)
                adj[a].add(b)
                adj[b].add(a)
        for u in changed:
            heapq.heappush(heap, (fill[u], u))
    return WidthEstimate(width, tuple(order))
