"""Importance sampling over formula assignments and over variable assignments.

The formula sampler draws truth values for the soft clauses one at a time.
Before each step both extensions are tested for satisfiability against the
hard clauses plus the constraints implied by earlier steps; when only one
extension is satisfiable it is taken with probability one, so no drawn prefix
is ever abandoned.  A completed draw fixes every soft clause, the solutions of
the resulting hard formula are counted exactly, and the sample's estimate is

    count * exp(sum of satisfied soft weights) / qb

where qb is the probability the sampling process assigned to the draw (the
product of the branch probabilities actually used at free steps).  Averaging
the estimates over independent draws is unbiased for the partition function.

The variable sampler draws each variable independently from a per-variable
Bernoulli proposal and weights assignments by potential over proposal mass;
assignments violating a hard clause get weight zero.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .bp import BpConfig, BpMarginals, formula_proposal, run_bp, variable_proposal
from .fdc import FORMULA, InstanceTooLargeError, fdc_count, fdc_marginals
from .model import Clause, PropMRF
from .sat import is_satisfiable, unit_propagate  # noqa: F401  (perfbench traces this name)

_CLAMP = 1e-9

MAX_SAMPLING_VARS = 100

Proposal = Callable[[int, tuple[bool, ...]], float]
"""Maps (step index, values of earlier steps) to P(clause at step is true)."""


class NoConsistentSampleError(RuntimeError):
    """The hard clauses alone are unsatisfiable; no draw can be completed."""


class AllZeroWeightsError(RuntimeError):
    """Every sample weight is zero, so nothing can be self-normalized."""


@dataclass(frozen=True)
class FormulaAssignment:
    """Truth values for the sampled clauses, as (step index, value) pairs in
    draw order."""

    assignments: tuple[tuple[int, bool], ...]

    @property
    def values(self) -> tuple[bool, ...]:
        return tuple(value for _, value in self.assignments)


@dataclass(frozen=True)
class Sample:
    h: FormulaAssignment
    qb: float
    log_count: float
    log_soft_weight: float

    @property
    def log_estimate(self) -> float:
        if self.log_count == -math.inf:
            return -math.inf
        return self.log_count + self.log_soft_weight - math.log(self.qb)


def _times_exp(x: float, log_scale: float) -> float:
    """x * exp(log_scale) for x >= 0; inf when that is beyond float range."""
    try:
        return x * math.exp(log_scale)
    except OverflowError:
        if x == 0.0:
            return 0.0
        try:
            return math.exp(math.log(x) + log_scale)
        except OverflowError:
            return math.inf


@dataclass(frozen=True)
class Estimate:
    """Sample-mean estimate of Z with spread statistics in linear scale.

    log_z_hat is authoritative; the linear fields are inf when they are
    beyond float range.
    """

    log_z_hat: float
    n_samples: int
    sample_variance: float
    std_error: float

    @property
    def z_hat(self) -> float:
        return _times_exp(1.0, self.log_z_hat)


@dataclass(frozen=True)
class FisResult:
    model: PropMRF
    h_clauses: tuple[Clause, ...]
    h_order: tuple[int, ...] | None
    samples: tuple[Sample, ...]
    estimate: Estimate


@dataclass(frozen=True)
class VisResult:
    model: PropMRF
    proposal: np.ndarray
    assignments: np.ndarray
    log_weights: np.ndarray
    estimate: Estimate


def estimate_from_log_weights(log_weights: np.ndarray) -> Estimate:
    """Mean/variance of exp(log_weights) computed under a shared exponent
    shift so that finite weights never overflow intermediate sums."""
    log_weights = np.asarray(log_weights, dtype=np.float64)
    n = log_weights.size
    if n == 0:
        raise ValueError("no samples")
    shift = float(np.max(log_weights))
    if shift == -math.inf:
        return Estimate(-math.inf, n, 0.0, 0.0)
    scaled = np.exp(log_weights - shift)
    mean = float(scaled.mean())
    log_z_hat = shift + math.log(mean)
    if n > 1:
        var_scaled = float(scaled.var(ddof=1))
        variance = _times_exp(var_scaled, 2.0 * shift)
        std_error = _times_exp(math.sqrt(var_scaled / n), shift)
    else:
        variance = 0.0
        std_error = 0.0
    return Estimate(log_z_hat, n, variance, std_error)


def _negated_units(clause: Clause) -> list[Clause]:
    return [Clause([-lit]) for lit in clause.sorted_literals()]


class _FormulaSampler:
    """Shared machinery for drawing and enumerating formula assignments.

    Satisfiability tests, free-step proposal values, and solution counts are
    cached per (step, prefix bitmask) so repeated draws of the same prefix
    cost one SAT/count call.
    """

    def __init__(
        self,
        m: PropMRF,
        h_clauses: Sequence[Clause],
        proposal: Proposal,
        soft_steps: Sequence[int] | None,
        ve_width_threshold: int = 16,
    ):
        self.m = m
        self.h = list(h_clauses)
        self.proposal = proposal
        self.soft_steps = None if soft_steps is None else list(soft_steps)
        self.ve_width_threshold = ve_width_threshold
        self._sat_cache: dict[tuple[int, int, bool], bool] = {}
        self._prop_cache: dict[tuple[int, int], float] = {}
        self._count_cache: dict[int, float] = {}
        self._soft_weight_cache: dict[int, float] = {}

    def _branch_sat(
        self, pos: int, bits: int, value: bool, constraints: list[Clause]
    ) -> bool:
        key = (pos, bits, value)
        cached = self._sat_cache.get(key)
        if cached is not None:
            return cached
        if value:
            trial = constraints + [self.h[pos]]
        else:
            trial = constraints + _negated_units(self.h[pos])
        ok = is_satisfiable(trial)
        self._sat_cache[key] = ok
        return ok

    def _proposal_at(self, pos: int, bits: int, values: list[bool]) -> float:
        key = (pos, bits)
        cached = self._prop_cache.get(key)
        if cached is not None:
            return cached
        p = float(self.proposal(pos, tuple(values)))
        p = min(max(p, _CLAMP), 1.0 - _CLAMP)
        self._prop_cache[key] = p
        return p

    def _extend(self, constraints: list[Clause], pos: int, value: bool) -> None:
        if value:
            constraints.append(self.h[pos])
        else:
            constraints.extend(_negated_units(self.h[pos]))

    def constraints_for(self, values: Sequence[bool]) -> list[Clause]:
        constraints = list(self.m.hard)
        for pos, value in enumerate(values):
            self._extend(constraints, pos, value)
        return constraints

    def draw(self, rng: np.random.Generator) -> tuple[list[bool], float]:
        values: list[bool] = []
        bits = 0
        qb = 1.0
        constraints = list(self.m.hard)
        for pos in range(len(self.h)):
            sat_true = self._branch_sat(pos, bits, True, constraints)
            sat_false = self._branch_sat(pos, bits, False, constraints)
            if sat_true and sat_false:
                p = self._proposal_at(pos, bits, values)
                value = bool(rng.random() < p)
                qb *= p if value else 1.0 - p
            elif sat_true:
                value = True
            elif sat_false:
                value = False
            else:
                raise NoConsistentSampleError(
                    "both extensions of a satisfiable prefix are unsatisfiable"
                )
            self._extend(constraints, pos, value)
            if value:
                bits |= 1 << pos
            values.append(value)
        return values, qb

    def log_count(self, values: Sequence[bool]) -> float:
        bits = _pack(values)
        cached = self._count_cache.get(bits)
        if cached is not None:
            return cached
        counting = PropMRF(
            num_vars=self.m.num_vars,
            hard=tuple(self.constraints_for(values)),
            soft=(),
        )
        result = fdc_count(
            counting, mode=FORMULA, ve_width_threshold=self.ve_width_threshold
        )
        self._count_cache[bits] = result.log_z
        return result.log_z

    def log_soft_weight(self, values: Sequence[bool]) -> float:
        bits = _pack(values)
        cached = self._soft_weight_cache.get(bits)
        if cached is not None:
            return cached
        if self.soft_steps is not None:
            total = sum(
                self.m.soft[self.soft_steps[pos]].weight
                for pos, value in enumerate(values)
                if value
            )
        else:
            constraints = self.constraints_for(values)
            total = 0.0
            for sc in self.m.soft:
                falsifier = constraints + _negated_units(sc.clause)
                if not is_satisfiable(falsifier):
                    total += sc.weight
        self._soft_weight_cache[bits] = total
        return total

    def finish(self, values: Sequence[bool], qb: float) -> Sample:
        return Sample(
            h=FormulaAssignment(tuple(enumerate(values))),
            qb=qb,
            log_count=self.log_count(values),
            log_soft_weight=self.log_soft_weight(values),
        )

    def enumerate(self) -> list[Sample]:
        samples: list[Sample] = []

        def walk(pos: int, bits: int, values: list[bool], qb: float,
                 constraints: list[Clause]) -> None:
            if pos == len(self.h):
                samples.append(self.finish(values, qb))
                return
            sat_true = self._branch_sat(pos, bits, True, constraints)
            sat_false = self._branch_sat(pos, bits, False, constraints)
            if sat_true and sat_false:
                p = self._proposal_at(pos, bits, values)
                branches = [(True, qb * p), (False, qb * (1.0 - p))]
            elif sat_true:
                branches = [(True, qb)]
            elif sat_false:
                branches = [(False, qb)]
            else:
                raise NoConsistentSampleError(
                    "both extensions of a satisfiable prefix are unsatisfiable"
                )
            for value, branch_qb in branches:
                extended = list(constraints)
                self._extend(extended, pos, value)
                walk(
                    pos + 1,
                    bits | (1 << pos) if value else bits,
                    values + [value],
                    branch_qb,
                    extended,
                )

        walk(0, 0, [], 1.0, list(self.m.hard))
        return samples


def _pack(values: Sequence[bool]) -> int:
    bits = 0
    for pos, value in enumerate(values):
        if value:
            bits |= 1 << pos
    return bits


def _bp_formula_proposal(
    m: PropMRF, marginals: BpMarginals, soft_steps: Sequence[int]
) -> Proposal:
    """Adapt the factor-belief proposal to step indexing along soft_steps."""

    def proposal(pos: int, values: tuple[bool, ...]) -> float:
        prefix = [(soft_steps[j], values[j]) for j in range(pos)]
        return formula_proposal(m, marginals, prefix, soft_steps[pos])

    return proposal


def _validate_sampling_model(m: PropMRF) -> None:
    if m.num_vars > MAX_SAMPLING_VARS:
        raise InstanceTooLargeError(
            f"sampling requires exact solution counts; {m.num_vars} variables "
            f"exceeds the supported maximum of {MAX_SAMPLING_VARS}"
        )
    if not is_satisfiable(list(m.hard)):
        raise NoConsistentSampleError("the hard clauses are unsatisfiable")


def _resolve_h_order(m: PropMRF, h_order: Sequence[int] | None) -> list[int]:
    if h_order is None:
        return list(range(len(m.soft)))
    order = list(h_order)
    if sorted(order) != list(range(len(m.soft))):
        raise ValueError(
            "h_order must be a permutation of the soft clause indices"
        )
    return order


def _fis_chunk(args) -> list[tuple[list[bool], float]]:
    m, h_order, marginals, n_samples, seed_seq, ve_width_threshold = args
    soft_steps = list(h_order)
    sampler = _FormulaSampler(
        m,
        [m.soft[j].clause for j in soft_steps],
        _bp_formula_proposal(m, marginals, soft_steps),
        soft_steps,
        ve_width_threshold,
    )
    rng = np.random.default_rng(seed_seq)
    return [sampler.draw(rng) for _ in range(n_samples)]


def run_fis(
    m: PropMRF,
    n_samples: int,
    seed: int = 0,
    bp_config: BpConfig | None = None,
    h_order: Sequence[int] | None = None,
    jobs: int = 1,
    proposal: Proposal | None = None,
    ve_width_threshold: int = 16,
) -> FisResult:
    """Draw n_samples formula assignments and estimate Z.

    The clauses are sampled in declaration order unless h_order supplies a
    permutation of the soft clause indices.  The default proposal comes from
    one belief propagation run on the model; pass proposal to override it
    (jobs must then be 1, since worker processes rebuild the default).
    With jobs > 1 the draws are split across processes, each seeded from an
    independent spawn of the base seed, so results depend on jobs but are
    reproducible for a given (seed, jobs) pair.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    if jobs < 1:
        raise ValueError("jobs must be positive")
    _validate_sampling_model(m)
    order = _resolve_h_order(m, h_order)
    h_clauses = [m.soft[j].clause for j in order]

    if proposal is not None and jobs > 1:
        raise ValueError("a custom proposal cannot be used with jobs > 1")

    marginals: BpMarginals | None = None
    if proposal is None:
        if bp_config is None:
            bp_config = BpConfig()
        marginals = run_bp(m, bp_config)
        proposal = _bp_formula_proposal(m, marginals, order)

    sampler = _FormulaSampler(m, h_clauses, proposal, order, ve_width_threshold)

    draws: list[tuple[list[bool], float]] = []
    if jobs == 1:
        rng = np.random.default_rng(seed)
        for _ in range(n_samples):
            draws.append(sampler.draw(rng))
    else:
        seqs = np.random.SeedSequence(seed).spawn(jobs)
        base, extra = divmod(n_samples, jobs)
        counts = [base + (1 if k < extra else 0) for k in range(jobs)]
        tasks = [
            (m, tuple(order), marginals, counts[k], seqs[k], ve_width_threshold)
            for k in range(jobs)
            if counts[k] > 0
        ]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for chunk in pool.map(_fis_chunk, tasks):
                draws.extend(chunk)

    samples = tuple(sampler.finish(values, qb) for values, qb in draws)
    log_weights = np.array([s.log_estimate for s in samples])
    return FisResult(
        model=m,
        h_clauses=tuple(h_clauses),
        h_order=tuple(order),
        samples=samples,
        estimate=estimate_from_log_weights(log_weights),
    )


def vis_log_weights(
    m: PropMRF, assignments: np.ndarray, q: np.ndarray
) -> np.ndarray:
    """Log importance weight of each row: log potential - log proposal mass,
    with -inf for rows violating a hard clause."""
    assignments = np.asarray(assignments, dtype=bool)
    n_rows = assignments.shape[0]
    log_w = np.zeros(n_rows)
    valid = np.ones(n_rows, dtype=bool)
    for clause in m.hard:
        sat = np.zeros(n_rows, dtype=bool)
        for lit in clause.literals:
            col = assignments[:, abs(lit) - 1]
            sat |= col if lit > 0 else ~col
        valid &= sat
    for sc in m.soft:
        sat = np.zeros(n_rows, dtype=bool)
        for lit in sc.clause.literals:
            col = assignments[:, abs(lit) - 1]
            sat |= col if lit > 0 else ~col
        log_w += np.where(sat, sc.weight, 0.0)
    log_q = assignments @ np.log(q) + (~assignments) @ np.log1p(-q)
    log_w -= log_q
    log_w[~valid] = -np.inf
    return log_w


def run_vis(
    m: PropMRF,
    n_samples: int,
    seed: int = 0,
    bp_config: BpConfig | None = None,
    q: np.ndarray | None = None,
) -> VisResult:
    """Draw variable assignments from a fully factorized proposal and
    estimate Z.  The proposal defaults to clamped belief propagation
    marginals; q overrides it with explicit per-variable probabilities."""
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    _validate_sampling_model(m)
    if q is None:
        if bp_config is None:
            bp_config = BpConfig()
        q = variable_proposal(run_bp(m, bp_config))
    else:
        q = np.asarray(q, dtype=np.float64)
        if q.shape != (m.num_vars,):
            raise ValueError("q must hold one probability per variable")
        if np.any(q <= 0.0) or np.any(q >= 1.0):
            raise ValueError("q entries must lie strictly inside (0, 1)")
    rng = np.random.default_rng(seed)
    assignments = rng.random((n_samples, m.num_vars)) < q
    log_weights = vis_log_weights(m, assignments, q)
    return VisResult(
        model=m,
        proposal=q,
        assignments=assignments,
        log_weights=log_weights,
        estimate=estimate_from_log_weights(log_weights),
    )


def estimate_z(
    m: PropMRF,
    method: str = "fis",
    n_samples: int = 1000,
    seed: int = 0,
    bp_config: BpConfig | None = None,
    h_order: Sequence[int] | None = None,
    jobs: int = 1,
) -> Estimate:
    if method == "fis":
        return run_fis(
            m, n_samples, seed=seed, bp_config=bp_config,
            h_order=h_order, jobs=jobs,
        ).estimate
    if method == "vis":
        return run_vis(m, n_samples, seed=seed, bp_config=bp_config).estimate
    raise ValueError(f"unknown sampling method: {method!r}")


def enumerate_formula_assignments(
    m: PropMRF,
    proposal: Proposal | None = None,
    h_order: Sequence[int] | None = None,
    bp_config: BpConfig | None = None,
) -> list[Sample]:
    """Every reachable formula assignment with its exact draw probability.

    The returned qb values sum to 1 over the enumeration, so exact
    expectations of the estimator (mean, variance) can be computed without
    sampling.  Intended for small models.
    """
    _validate_sampling_model(m)
    order = _resolve_h_order(m, h_order)
    h_clauses = [m.soft[j].clause for j in order]
    if proposal is None:
        if bp_config is None:
            bp_config = BpConfig()
        marginals = run_bp(m, bp_config)
        proposal = _bp_formula_proposal(m, marginals, order)
    sampler = _FormulaSampler(m, h_clauses, proposal, order)
    return sampler.enumerate()


@dataclass(frozen=True)
class UFormulaDistribution:
    """Distribution over formula assignments induced by a per-variable
    proposal: each full assignment's probability mass lands on the profile of
    soft clause truth values it produces, restricted to assignments that
    satisfy the hard clauses.  kappa is the retained mass; conditionals are
    normalized within the restriction."""

    masses: dict[tuple[bool, ...], float]
    kappa: float

    def conditional(self, pos: int, values: tuple[bool, ...]) -> float:
        true_mass = 0.0
        false_mass = 0.0
        for profile, mass in self.masses.items():
            if profile[: len(values)] != values:
                continue
            if profile[len(values)]:
                true_mass += mass
            else:
                false_mass += mass
        total = true_mass + false_mass
        if total <= 0.0:
            return 0.5
        return true_mass / total


def u_from_q(
    m: PropMRF, q: np.ndarray, h_order: Sequence[int] | None = None
) -> UFormulaDistribution:
    """Push a per-variable proposal forward onto formula assignments by full
    enumeration.  Limited to small models."""
    if m.num_vars > 14:
        raise InstanceTooLargeError(
            "u_from_q enumerates all assignments; at most 14 variables"
        )
    q = np.asarray(q, dtype=np.float64)
    if q.shape != (m.num_vars,):
        raise ValueError("q must hold one probability per variable")
    order = _resolve_h_order(m, h_order)
    h_clauses = [m.soft[j].clause for j in order]
    masses: dict[tuple[bool, ...], float] = {}
    kappa = 0.0
    for code in range(1 << m.num_vars):
        x = [(code >> (v - 1)) & 1 == 1 for v in range(1, m.num_vars + 1)]
        if any(
            not any((lit > 0) == x[abs(lit) - 1] for lit in clause.literals)
            for clause in m.hard
        ):
            continue
        mass = 1.0
        for v in range(m.num_vars):
            mass *= q[v] if x[v] else 1.0 - q[v]
        profile = tuple(
            any((lit > 0) == x[abs(lit) - 1] for lit in clause.literals)
            for clause in h_clauses
        )
        masses[profile] = masses.get(profile, 0.0) + mass
        kappa += mass
    return UFormulaDistribution(masses=masses, kappa=kappa)


def fis_marginals(result: FisResult, ve_width_threshold: int = 16) -> np.ndarray:
    """Self-normalized estimate of P(v = true) for every variable.

    Each sample contributes its importance weight times the exact fraction of
    the sampled formula's solutions that set v true; the fractions come from
    one fdc_marginals search per distinct formula assignment.
    """
    m = result.model
    log_weights = np.array([s.log_estimate for s in result.samples])
    shift = float(np.max(log_weights))
    if shift == -math.inf:
        raise AllZeroWeightsError("all formula samples have zero weight")
    weights = np.exp(log_weights - shift)

    sampler = _FormulaSampler(
        m,
        list(result.h_clauses),
        lambda pos, values: 0.5,
        list(result.h_order) if result.h_order is not None else None,
        ve_width_threshold,
    )
    ratio_cache: dict[int, np.ndarray] = {}
    total_weight = 0.0
    accum = np.zeros(m.num_vars)
    for sample, weight in zip(result.samples, weights):
        values = sample.h.values
        bits = _pack(values)
        ratios = ratio_cache.get(bits)
        if ratios is None:
            ratios = np.zeros(m.num_vars)
            if sample.log_count != -math.inf:
                counting = PropMRF(
                    num_vars=m.num_vars,
                    hard=tuple(sampler.constraints_for(values)),
                    soft=(),
                )
                ratios = fdc_marginals(
                    counting, mode=FORMULA, ve_width_threshold=ve_width_threshold
                ).marginals
            ratio_cache[bits] = ratios
        total_weight += weight
        accum += weight * ratios
    if total_weight <= 0.0:
        raise AllZeroWeightsError("all formula samples have zero weight")
    return np.clip(accum / total_weight, 0.0, 1.0)


def vis_marginals(result: VisResult) -> np.ndarray:
    """Self-normalized estimate of P(v = true) from variable samples."""
    log_weights = result.log_weights
    shift = float(np.max(log_weights))
    if shift == -math.inf:
        raise AllZeroWeightsError("all variable samples have zero weight")
    weights = np.exp(log_weights - shift)
    total = float(weights.sum())
    marginals = weights @ result.assignments / total
    return np.clip(marginals, 0.0, 1.0)


def marginals_from_samples(result) -> np.ndarray:
    if isinstance(result, FisResult):
        return fis_marginals(result)
    if isinstance(result, VisResult):
        return vis_marginals(result)
    raise TypeError("expected a FisResult or VisResult")
