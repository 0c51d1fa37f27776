"""Model generators, evidence selection, brute-force references, and the
marginal-accuracy score used to compare samplers.

All generators draw from numpy's default_rng seeded explicitly, so a given
(family, parameters, seed) triple always produces the same model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .model import Clause, PropMRF, SoftClause

DEFAULT_WEIGHT_LOW = -1.0
DEFAULT_WEIGHT_HIGH = 1.0

MAX_ENUMERATION_VARS = 24


class EnumerationTooLargeError(ValueError):
    """Raised when a brute-force pass over all assignments is not feasible."""


def _weight(rng: np.random.Generator, low: float, high: float) -> float:
    return float(rng.uniform(low, high))


def gen_random(
    n: int,
    m: int,
    s: int,
    seed: int = 0,
    weight_low: float = DEFAULT_WEIGHT_LOW,
    weight_high: float = DEFAULT_WEIGHT_HIGH,
) -> PropMRF:
    """m soft clauses over n variables, each with s distinct variables signed
    uniformly at random."""
    if n < 1:
        raise ValueError("n must be positive")
    if m < 0:
        raise ValueError("m must be nonnegative")
    if not 1 <= s <= n:
        raise ValueError("clause size s must satisfy 1 <= s <= n")
    rng = np.random.default_rng(seed)
    soft: list[SoftClause] = []
    for _ in range(m):
        variables = np.sort(rng.choice(n, size=s, replace=False)) + 1
        negate = rng.random(s) < 0.5
        literals = [-int(v) if neg else int(v) for v, neg in zip(variables, negate)]
        soft.append(SoftClause(Clause(literals), _weight(rng, weight_low, weight_high)))
    return PropMRF(num_vars=n, hard=(), soft=tuple(soft))


def gen_qmr(
    d: int,
    f: int,
    s: int,
    seed: int = 0,
    weight_low: float = DEFAULT_WEIGHT_LOW,
    weight_high: float = DEFAULT_WEIGHT_HIGH,
) -> PropMRF:
    """Two-layer diagnosis model: d disease variables, each with a positive
    unit clause (its prior), then f finding variables, each implied by a
    disjunction of s distinct diseases.  Variables 1..d are diseases and
    d+1..d+f are findings; the finding clause for variable d+j is
    (disease_1 or ... or disease_s or finding_j) with all literals positive.
    """
    if d < 1 or f < 0:
        raise ValueError("d must be positive and f nonnegative")
    if not 1 <= s <= d:
        raise ValueError("clause size s must satisfy 1 <= s <= d")
    rng = np.random.default_rng(seed)
    soft: list[SoftClause] = []
    for disease in range(1, d + 1):
        soft.append(SoftClause(Clause([disease]), _weight(rng, weight_low, weight_high)))
    for j in range(f):
        diseases = np.sort(rng.choice(d, size=s, replace=False)) + 1
        literals = [int(v) for v in diseases] + [d + j + 1]
        soft.append(SoftClause(Clause(literals), _weight(rng, weight_low, weight_high)))
    return PropMRF(num_vars=d + f, hard=(), soft=tuple(soft))


def gen_fs(
    k: int,
    seed: int = 0,
    weight_low: float = DEFAULT_WEIGHT_LOW,
    weight_high: float = DEFAULT_WEIGHT_HIGH,
) -> PropMRF:
    """Friends-and-smokers ground model for k people.

    Variables: smokes(a) = a, cancer(a) = k + a, friends(a, b) = 2k + (a-1)k + b.
    Clauses, all soft: for every ordered pair a != b the friendship rule
    (not friends(a,b) or not smokes(a) or smokes(b)), sharing one weight, then
    for every person the cancer rule (not smokes(a) or cancer(a)), sharing
    another.  Pairs with a == b are omitted because the rule instance is a
    tautology.  Friendship variables for omitted pairs still exist and simply
    occur in no clause.
    """
    if k < 1:
        raise ValueError("k must be positive")
    rng = np.random.default_rng(seed)
    w_friend = _weight(rng, weight_low, weight_high)
    w_cancer = _weight(rng, weight_low, weight_high)

    def smokes(a: int) -> int:
        return a

    def cancer(a: int) -> int:
        return k + a

    def friends(a: int, b: int) -> int:
        return 2 * k + (a - 1) * k + b

    soft: list[SoftClause] = []
    for a in range(1, k + 1):
        for b in range(1, k + 1):
            if a == b:
                continue
            clause = Clause([-friends(a, b), -smokes(a), smokes(b)])
            soft.append(SoftClause(clause, w_friend))
    for a in range(1, k + 1):
        soft.append(SoftClause(Clause([-smokes(a), cancer(a)]), w_cancer))
    return PropMRF(num_vars=k * k + 2 * k, hard=(), soft=tuple(soft))


def pick_evidence(m: PropMRF, fraction: float, seed: int = 0) -> PropMRF:
    """Fix ceil(fraction * n) randomly chosen variables to random values by
    appending hard unit clauses, in ascending variable order."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must lie in [0, 1]")
    count = math.ceil(fraction * m.num_vars)
    if count == 0:
        return m
    rng = np.random.default_rng(seed)
    variables = rng.choice(m.num_vars, size=count, replace=False) + 1
    values = rng.random(count) < 0.5
    pairs = sorted(zip((int(v) for v in variables), values))
    units = tuple(Clause([v if value else -v]) for v, value in pairs)
    return PropMRF(num_vars=m.num_vars, hard=m.hard + units, soft=m.soft)


def _clause_sat_mask(codes: np.ndarray, clause: Clause) -> np.ndarray:
    sat = np.zeros(codes.shape, dtype=bool)
    for lit in clause.literals:
        bit = (codes >> np.uint64(abs(lit) - 1)) & np.uint64(1)
        sat |= (bit == 1) if lit > 0 else (bit == 0)
    return sat


def _log_sum_exp(values: np.ndarray) -> float:
    peak = float(np.max(values)) if values.size else -math.inf
    if peak == -math.inf:
        return -math.inf
    return peak + math.log(float(np.sum(np.exp(values - peak))))


def brute_force_z(m: PropMRF) -> float:
    """log Z by summing the potential of every assignment.

    Enumerates chunks of assignment bitmasks with vectorized clause checks;
    independent of the inference engine.
    """
    if m.num_vars > MAX_ENUMERATION_VARS:
        raise EnumerationTooLargeError(
            f"brute force enumerates 2^{m.num_vars} assignments; "
            f"at most {MAX_ENUMERATION_VARS} variables are supported"
        )
    total = -math.inf
    size = 1 << m.num_vars
    chunk = min(size, 1 << 16)
    for lo in range(0, size, chunk):
        codes = np.arange(lo, min(lo + chunk, size), dtype=np.uint64)
        valid = np.ones(codes.shape, dtype=bool)
        for clause in m.hard:
            valid &= _clause_sat_mask(codes, clause)
        log_w = np.zeros(codes.shape)
        for sc in m.soft:
            log_w += np.where(_clause_sat_mask(codes, sc.clause), sc.weight, 0.0)
        log_w[~valid] = -math.inf
        part = _log_sum_exp(log_w)
        if part != -math.inf:
            total = part if total == -math.inf else float(np.logaddexp(total, part))
    return total


def brute_force_marginals(m: PropMRF) -> np.ndarray:
    """Exact P(v = true) for every variable by full enumeration."""
    log_z = brute_force_z(m)
    if log_z == -math.inf:
        raise ValueError("all assignments have zero weight; marginals undefined")
    marginals = np.zeros(m.num_vars)
    size = 1 << m.num_vars
    chunk = min(size, 1 << 16)
    for lo in range(0, size, chunk):
        codes = np.arange(lo, min(lo + chunk, size), dtype=np.uint64)
        valid = np.ones(codes.shape, dtype=bool)
        for clause in m.hard:
            valid &= _clause_sat_mask(codes, clause)
        log_w = np.zeros(codes.shape)
        for sc in m.soft:
            log_w += np.where(_clause_sat_mask(codes, sc.clause), sc.weight, 0.0)
        log_w[~valid] = -math.inf
        prob = np.exp(log_w - log_z)
        for v in range(1, m.num_vars + 1):
            bit = (codes >> np.uint64(v - 1)) & np.uint64(1)
            marginals[v - 1] += float(np.sum(prob[bit == 1]))
    return np.clip(marginals, 0.0, 1.0)


def sum_kld(
    exact: np.ndarray, estimated: np.ndarray, eps: float = 1e-9
) -> float:
    """Sum over variables of KL(exact_v || estimated_v) for the two-point
    marginal distributions.  Estimated entries are clamped to [eps, 1 - eps];
    exact entries of 0 or 1 contribute through the surviving term only.
    """
    p = np.asarray(exact, dtype=np.float64)
    q = np.clip(np.asarray(estimated, dtype=np.float64), eps, 1.0 - eps)
    if p.shape != q.shape:
        raise ValueError("marginal vectors must have the same shape")
    if np.any(p < 0.0) or np.any(p > 1.0):
        raise ValueError("exact marginals must lie in [0, 1]")
    total = 0.0
    pos = p > 0.0
    total += float(np.sum(p[pos] * np.log(p[pos] / q[pos])))
    neg = p < 1.0
    total += float(np.sum((1.0 - p[neg]) * np.log((1.0 - p[neg]) / (1.0 - q[neg]))))
    return total


@dataclass(frozen=True)
class GenSpec:
    """Declarative description of a generated model."""

    family: str
    params: Mapping[str, int] = field(default_factory=dict)
    seed: int = 0
    weight_low: float = DEFAULT_WEIGHT_LOW
    weight_high: float = DEFAULT_WEIGHT_HIGH
    evidence_fraction: float = 0.0
    evidence_seed: int | None = None


def generate(spec: GenSpec) -> PropMRF:
    common = dict(
        seed=spec.seed, weight_low=spec.weight_low, weight_high=spec.weight_high
    )
    if spec.family == "random":
        model = gen_random(
            spec.params["n"], spec.params["m"], spec.params["s"], **common
        )
    elif spec.family == "qmr":
        model = gen_qmr(
            spec.params["d"], spec.params["f"], spec.params["s"], **common
        )
    elif spec.family == "fs":
        model = gen_fs(spec.params["k"], **common)
    else:
        raise ValueError(f"unknown model family: {spec.family!r}")
    if spec.evidence_fraction > 0.0:
        evidence_seed = (
            spec.seed if spec.evidence_seed is None else spec.evidence_seed
        )
        model = pick_evidence(model, spec.evidence_fraction, seed=evidence_seed)
    return model
