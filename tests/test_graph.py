import itertools
import math
import time

import numpy as np
import pytest

from propmrf import PropMRF, brute_force_z, minfill_width
from propmrf.graph import connected_components, primal_adjacency

from conftest import random_mixed_model


def exact_treewidth(adj: dict[int, set[int]]) -> int:
    """Minimum over all elimination orders of the largest neighborhood met;
    exponential, for cross-checking tiny graphs only."""
    vertices = sorted(adj)
    best = len(vertices)
    for order in itertools.permutations(vertices):
        work = {v: set(nbrs) for v, nbrs in adj.items()}
        width = 0
        for v in order:
            nbrs = work.pop(v)
            width = max(width, len(nbrs))
            if width >= best:
                break
            for u in nbrs:
                work[u].discard(v)
            for u, w in itertools.combinations(sorted(nbrs), 2):
                work[u].add(w)
                work[w].add(u)
        best = min(best, width)
    return best


def test_primal_adjacency_edges():
    m = PropMRF.from_lists(4, hard=[[1, 2, 3]], soft=[(0.5, [3, -4])])
    adj = primal_adjacency(m)
    assert adj[1] == {2, 3}
    assert adj[2] == {1, 3}
    assert adj[3] == {1, 2, 4}
    assert adj[4] == {3}


def test_connected_components_split_and_compaction():
    m = PropMRF.from_lists(
        6,
        hard=[[1, 3]],
        soft=[(0.5, [3, 5]), (-0.2, [2, 6])],
    )
    components = connected_components(m)
    assert [c.variables for c in components] == [
        (1, 3, 5),
        (2, 6),
    ]
    first, second = components
    assert first.model == PropMRF.from_lists(3, hard=[[1, 2]], soft=[(0.5, [2, 3])])
    assert second.model == PropMRF.from_lists(2, soft=[(-0.2, [1, 2])])


def test_single_component_renumbering_and_fast_path():
    # An unused variable still forces renumbering.
    (component,) = connected_components(PropMRF.from_lists(3, hard=[[1, 3]]))
    assert component.variables == (1, 3)
    assert component.model == PropMRF.from_lists(2, hard=[[1, 2]])
    # An already compact single component keeps its clauses as they are.
    m = PropMRF.from_lists(3, hard=[[1, -3]], soft=[(0.5, [2, 3])])
    (component,) = connected_components(m)
    assert component.variables == (1, 2, 3)
    assert component.model == m
    _, hard, soft = component.model
    assert all(a is b for a, b in zip(hard + soft, m.hard + m.soft, strict=True))


def test_component_partition_functions_multiply():
    rng = np.random.default_rng(8201)
    checked = 0
    for _ in range(200):
        m = random_mixed_model(rng, max_vars=8, max_hard=2, max_soft=4)
        components = connected_components(m)
        if len(components) < 2:
            continue
        free = m.num_vars - len(m.occurring_variables())
        product = free * math.log(2.0) + sum(
            brute_force_z(PropMRF(*c.model)) for c in components
        )
        whole = brute_force_z(m)
        if whole == -math.inf:
            assert product == -math.inf
        else:
            assert product == pytest.approx(whole, abs=1e-10)
        checked += 1
    assert checked >= 20


def test_minfill_width_on_known_graphs():
    chain = PropMRF.from_lists(4, hard=[[1, 2], [2, 3], [3, 4]])
    assert minfill_width(chain).width == 1

    cycle = PropMRF.from_lists(4, hard=[[1, 2], [2, 3], [3, 4], [4, 1]])
    assert minfill_width(cycle).width == 2

    clique = PropMRF.from_lists(5, hard=[[1, 2, 3, 4, 5]])
    assert minfill_width(clique).width == 4

    star = PropMRF.from_lists(5, hard=[[1, 2], [1, 3], [1, 4], [1, 5]])
    assert minfill_width(star).width == 1


def test_minfill_order_covers_occurring_variables():
    rng = np.random.default_rng(8202)
    for _ in range(100):
        m = random_mixed_model(rng, max_vars=7)
        estimate = minfill_width(m)
        assert set(estimate.order) == set(m.occurring_variables())
        assert len(estimate.order) == len(set(estimate.order))


def test_minfill_width_bounds_exact_treewidth():
    rng = np.random.default_rng(8203)
    for _ in range(60):
        m = random_mixed_model(rng, max_vars=6, max_hard=4, max_soft=4)
        adj = primal_adjacency(m)
        if not adj:
            continue
        estimate = minfill_width(m)
        assert estimate.width >= exact_treewidth(adj)


def test_empty_model_has_no_components():
    assert connected_components(PropMRF(3)) == []
    assert minfill_width(PropMRF(3)) == minfill_width(PropMRF(0))
    assert minfill_width(PropMRF(0)).order == ()


def _recounted_minfill(m: PropMRF) -> tuple[int, tuple[int, ...]]:
    """The greedy loop min-fill replaced: every step recounts the fill of
    every remaining vertex and takes the smallest, ties by smallest index."""
    adj = primal_adjacency(m)
    order: list[int] = []
    width = 0
    while adj:
        best_v = -1
        best_fill = None
        for v in sorted(adj):
            nbr_list = sorted(adj[v])
            fill = 0
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
    return width, tuple(order)


def test_minfill_matches_the_recounting_loop():
    # Kept fill counts must pick the same vertex at every step.
    rng = np.random.default_rng(8204)
    for _ in range(600):
        m = random_mixed_model(
            rng,
            max_vars=int(rng.integers(2, 21)),
            max_hard=int(rng.integers(0, 12)),
            max_soft=int(rng.integers(0, 16)),
            max_size=int(rng.integers(2, 5)),
        )
        estimate = minfill_width(m)
        assert (estimate.width, estimate.order) == _recounted_minfill(m)


def test_minfill_bound_stops_at_the_bound():
    # Below the bound the estimate is the unbounded one; at or above it the
    # elimination stops once the width reaches the bound, part way along
    # the same order.
    rng = np.random.default_rng(8205)
    stopped = 0
    for _ in range(300):
        m = random_mixed_model(
            rng,
            max_vars=int(rng.integers(2, 21)),
            max_hard=int(rng.integers(0, 12)),
            max_soft=int(rng.integers(0, 16)),
            max_size=int(rng.integers(2, 5)),
        )
        full = minfill_width(m)
        for bound in range(0, full.width + 3):
            estimate = minfill_width(m, bound)
            if full.width < bound:
                assert estimate == full
            else:
                assert estimate.width >= bound
                assert full.order[: len(estimate.order)] == estimate.order
                stopped += estimate.order != full.order
    assert stopped > 100


def test_minfill_is_near_linear_on_a_long_chain():
    # Recounting every vertex at every step took seconds at this size.
    n = 4000
    chain = PropMRF.from_lists(n, hard=[[i, i + 1] for i in range(1, n)])
    start = time.perf_counter()
    estimate = minfill_width(chain)
    assert time.perf_counter() - start < 2.0
    assert estimate.width == 1
    assert estimate.order == tuple(range(1, n + 1))
