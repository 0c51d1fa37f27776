"""Shared helpers for the test suite.

naive_log_z is a deliberately simple reference implementation used to check
the vectorized brute-force oracle and, through it, everything else: it walks
assignments one by one with no numpy and no shortcuts.  It and
naive_marginals sum potentials as a log-sum-exp shifted by the largest
log weight, so weights of +-1e3 neither overflow nor underflow Z.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from propmrf import Clause, PropMRF, SoftClause


def _weighted_assignments(m: PropMRF) -> list[tuple[tuple[bool, ...], float]]:
    """Every assignment satisfying the hard clauses, with its log weight."""
    out = []
    for bits in itertools.product((False, True), repeat=m.num_vars):
        ok = True
        for clause in m.hard:
            if not any((lit > 0) == bits[abs(lit) - 1] for lit in clause):
                ok = False
                break
        if not ok:
            continue
        weight = 0.0
        for sc in m.soft:
            if any((lit > 0) == bits[abs(lit) - 1] for lit in sc.clause):
                weight += sc.weight
        out.append((bits, weight))
    return out


def naive_log_z(m: PropMRF) -> float:
    weighted = _weighted_assignments(m)
    if not weighted:
        return -math.inf
    top = max(weight for _, weight in weighted)
    total = 0.0
    for _, weight in weighted:
        total += math.exp(weight - top)
    return top + math.log(total)


def naive_marginals(m: PropMRF) -> np.ndarray:
    weighted = _weighted_assignments(m)
    top = max(weight for _, weight in weighted)
    z = 0.0
    true_mass = [0.0] * m.num_vars
    for bits, weight in weighted:
        share = math.exp(weight - top)
        z += share
        for v in range(m.num_vars):
            if bits[v]:
                true_mass[v] += share
    return np.array(true_mass) / z


def random_clause(rng: np.random.Generator, n: int, max_size: int = 3) -> Clause:
    size = int(rng.integers(1, min(max_size, n) + 1))
    variables = rng.choice(n, size=size, replace=False) + 1
    signs = rng.random(size) < 0.5
    return Clause(int(v) if s else -int(v) for v, s in zip(variables, signs))


def random_mixed_model(
    rng: np.random.Generator,
    max_vars: int = 6,
    max_hard: int = 3,
    max_soft: int = 4,
    max_size: int = 3,
) -> PropMRF:
    """Small random model mixing hard and soft clauses, possibly with unit
    clauses and unused variables."""
    n = int(rng.integers(1, max_vars + 1))
    hard = tuple(
        random_clause(rng, n, max_size) for _ in range(int(rng.integers(0, max_hard + 1)))
    )
    soft = tuple(
        SoftClause(random_clause(rng, n, max_size), float(rng.uniform(-1.5, 1.5)))
        for _ in range(int(rng.integers(0, max_soft + 1)))
    )
    return PropMRF(n, hard, soft)


def calibration_model() -> PropMRF:
    """Nine variables, four interlocking soft clauses; the model used to pin
    down the search-space accounting."""
    return PropMRF.from_lists(
        9,
        soft=[
            (0.7, [1, 2, 3, 4, 5]),
            (-0.3, [1, 2, 3, 6, 7]),
            (1.1, [4, 5, 8]),
            (0.4, [6, 7, 9]),
        ],
    )
