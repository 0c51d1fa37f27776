"""Primal-graph structure: connected components and greedy min-fill width.

The primal graph has one vertex per variable occurring in some clause and an
edge between every pair of variables sharing a clause.  Variables occurring in
no clause are not vertices; simplification accounts for them separately.

These functions take a validated PropMRF or the search's bare form
(model.BareModel).  connected_components returns component models in the
form it was given, so the search splits bare models without building
PropMRF objects; minfill_width and primal_adjacency only read clauses.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .model import BareModel, PropMRF, compact_bare, from_bare, to_bare


@dataclass(frozen=True)
class Component:
    """One connected component: its original variables and a compacted submodel."""

    variables: frozenset[int]
    model: PropMRF | BareModel


@dataclass(frozen=True)
class WidthEstimate:
    width: int
    order: tuple[int, ...]


def primal_adjacency(m: PropMRF | BareModel) -> dict[int, set[int]]:
    _, hard, soft = to_bare(m)
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


def connected_components(m: PropMRF | BareModel) -> list[Component]:
    """Split m along its primal graph; components are ordered by smallest variable.

    Each component model is renumbered over its own variables, so the
    partition function of m (when every declared variable occurs in a clause)
    is the product of the component partition functions.  A model that is a
    single component over all its variables is returned as it is.
    """
    if isinstance(m, PropMRF):
        return [
            Component(c.variables, from_bare(c.model))
            for c in connected_components(to_bare(m))
        ]
    num_vars, hard, soft = m
    # Union-find over variables, with path halving.
    parent = list(range(num_vars + 1))
    used = [False] * (num_vars + 1)
    for clause in chain(hard, (c for c, _ in soft)):
        root = 0
        for lit in clause:
            v = lit if lit > 0 else -lit
            used[v] = True
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            if not root:
                root = v
            elif v != root:
                parent[v] = root

    members: dict[int, list[int]] = {}
    for v in range(1, num_vars + 1):
        if used[v]:
            root = v
            while parent[root] != root:
                root = parent[root]
            parent[v] = root
            members.setdefault(root, []).append(v)
    if len(members) == 1:
        (variables,) = members.values()
        if len(variables) == num_vars:
            return [Component(frozenset(variables), m)]
    elif not members:
        return []

    by_root_hard: dict[int, list] = {r: [] for r in members}
    by_root_soft: dict[int, list] = {r: [] for r in members}
    for clause in hard:
        by_root_hard[parent[abs(min(clause))]].append(clause)
    for sc in soft:
        by_root_soft[parent[abs(min(sc[0]))]].append(sc)
    return [
        Component(
            frozenset(variables),
            compact_bare(by_root_hard[root], by_root_soft[root], variables),
        )
        for root, variables in members.items()
    ]


def minfill_width(m: PropMRF | BareModel) -> WidthEstimate:
    """Greedy min-fill elimination order and its induced width (an upper bound
    on treewidth).

    At each step the variable adding the fewest fill edges is eliminated (ties
    broken by smallest index); the width is the largest neighborhood met along
    the way.
    """
    adj = primal_adjacency(m)
    order: list[int] = []
    width = 0
    while adj:
        best_v = -1
        best_fill = None
        for v in sorted(adj):
            nbrs = adj[v]
            fill = 0
            nbr_list = sorted(nbrs)
            for i, u in enumerate(nbr_list):
                for w in nbr_list[i + 1 :]:
                    if w not in adj[u]:
                        fill += 1
            if best_fill is None or fill < best_fill:
                best_fill = fill
                best_v = v
        nbrs = adj.pop(best_v)
        width = max(width, len(nbrs))
        for u in nbrs:
            adj[u].discard(best_v)
        nbr_list = sorted(nbrs)
        for i, u in enumerate(nbr_list):
            for w in nbr_list[i + 1 :]:
                adj[u].add(w)
                adj[w].add(u)
        order.append(best_v)
    return WidthEstimate(width, tuple(order))
