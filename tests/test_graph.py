import itertools
import math

import numpy as np
import pytest

from propmrf import (
    Clause,
    PropMRF,
    brute_force_z,
    connected_components,
    minfill_width,
    primal_adjacency,
)
from propmrf.model import to_bare

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
        frozenset({1, 3, 5}),
        frozenset({2, 6}),
    ]
    first, second = components
    assert first.model == PropMRF.from_lists(3, hard=[[1, 2]], soft=[(0.5, [2, 3])])
    assert second.model == PropMRF.from_lists(2, soft=[(-0.2, [1, 2])])


def test_single_component_renumbering_and_fast_path():
    # An unused variable still forces renumbering.
    (component,) = connected_components(PropMRF.from_lists(3, hard=[[1, 3]]))
    assert component.variables == frozenset({1, 3})
    assert component.model == PropMRF.from_lists(2, hard=[[1, 2]])
    # An already compact single component comes back as it is.
    compact = PropMRF.from_lists(3, hard=[[1, -3]], soft=[(0.5, [2, 3])])
    (component,) = connected_components(compact)
    assert component.variables == frozenset({1, 2, 3})
    assert component.model == compact
    bare = to_bare(compact)
    (component,) = connected_components(bare)
    assert component.model is bare


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
            brute_force_z(c.model) for c in components
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
