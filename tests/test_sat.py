import itertools
import sys

import numpy as np

from propmrf.sat import is_satisfiable, unit_propagate

from conftest import random_clause


def bare(*clauses):
    return [frozenset(c) for c in clauses]


def brute_satisfiable(clauses, n):
    for bits in itertools.product((False, True), repeat=n):
        if all(any((lit > 0) == bits[abs(lit) - 1] for lit in c) for c in clauses):
            return True
    return False


def test_unit_propagation_chain():
    assert unit_propagate(bare([1], [-1, 2], [-2, 3])) == ({1, 2, 3}, {-1, -2, -3}, [])
    # the fixpoint does not depend on the clause order
    assert unit_propagate(bare([-2, 3], [-1, 2], [1])) == ({1, 2, 3}, {-1, -2, -3}, [])
    # the residual keeps the open clauses, reduced, in input order
    clauses = bare([4, 5], [1], [-1, 2, 3], [-2, -3, 4], [2, -1])
    # 1 forces 2; [-1, 2, 3] is then satisfied and [-2, -3, 4] loses -2
    assert unit_propagate(clauses) == ({1, 2}, {-1, -2}, bare([4, 5], [-3, 4]))


def test_unit_propagation_reports_a_conflict():
    assert unit_propagate(bare([1], [2], [-1, -2])) is None
    assert unit_propagate(bare([-1, -2], [2], [1])) is None


def test_unit_propagation_leaves_wide_clauses_alone():
    assert unit_propagate(bare([1, 2, 3])) == (set(), set(), bare([1, 2, 3]))
    assert unit_propagate([]) == (set(), set(), [])


def test_is_satisfiable_simple_cases():
    assert is_satisfiable([])
    assert is_satisfiable(bare([1, 2], [-1, -2]))
    assert not is_satisfiable(bare([1], [-1]))
    assert not is_satisfiable(bare([]))
    assert not is_satisfiable(bare([1, 2], []))


def test_is_satisfiable_under_partial_assignment():
    # a partial assignment enters as unit clauses
    assert is_satisfiable(bare([-1], [1, 2]))
    assert not is_satisfiable(bare([-1], [-2], [1, 2]))


def test_is_satisfiable_matches_enumeration():
    rng = np.random.default_rng(8001)
    for _ in range(300):
        n = int(rng.integers(1, 6))
        clauses = [
            random_clause(rng, n) for _ in range(int(rng.integers(0, 7)))
        ]
        assert is_satisfiable(clauses) == brute_satisfiable(clauses, n)
        propagated = unit_propagate(clauses)
        if propagated is None:
            continue
        true, false, residual = propagated
        assert residual == [c - false for c in clauses if true.isdisjoint(c)]
        forced_vars = {abs(lit) for lit in true}
        for c in residual:
            assert len(c) >= 2
            assert forced_vars.isdisjoint(abs(lit) for lit in c)


def test_is_satisfiable_does_not_recurse():
    # 300 independent binary clauses need 300 nested decisions
    clauses = bare(*([2 * i + 1, 2 * i + 2] for i in range(300)))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        assert is_satisfiable(clauses)
        assert not is_satisfiable(clauses + bare([-599], [-600]))
    finally:
        sys.setrecursionlimit(limit)

