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

The sampling entry points take a validated PropMRF and convert it once,
with model.to_bare, to the bare form of model.BareModel (frozensets of
literals in a plain tuple).  The formula sampler's draws share a prefix tree
(see _FormulaSampler): each prefix is unit propagated once, and its state
is what sat.unit_propagate returns, the forced literals and the residual
clauses.  Both the SAT checks of the next step (sat.is_satisfiable) and the
belief propagation proposal start from that state, not from the hard
clauses.  The hard-only counting models handed to fdc_count and
fdc_marginals list the hard clauses, then per step the step's clause if it
was drawn true or the negations of its literals, in literal_key order, if
false.

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
from .model import BareClause, BareModel, Clause, PropMRF, literal_key, to_bare
from .sat import is_satisfiable, unit_propagate

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
    """Truth values for the sampled clauses, in draw order."""

    values: tuple[bool, ...]


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
    h_order: tuple[int, ...]
    samples: tuple[Sample, ...]
    estimate: Estimate
    bp: BpMarginals | None = None  # the run behind the default proposal


@dataclass(frozen=True)
class VisResult:
    model: PropMRF
    proposal: np.ndarray
    assignments: np.ndarray
    log_weights: np.ndarray
    estimate: Estimate
    bp: BpMarginals | None = None  # the run behind the default proposal


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


_State = tuple[set[int], set[int], list[BareClause]]
"""A satisfiable prefix, propagated: sat.unit_propagate's (forced true
literals, their negations, residual clauses), the forced sets accumulated
over the prefix's steps.  The residual clauses mention no forced variable,
and each keeps at least two literals."""


def _extend(state: _State, extension: Sequence[BareClause]) -> _State | None:
    """The propagated state of a satisfiable prefix plus extension, or None
    when that conjunction is unsatisfiable."""
    true, false, residual = state
    reduced = []
    for clause in extension:
        if true.isdisjoint(clause):
            rest = clause - false if not clause.isdisjoint(false) else clause
            if not rest:
                return None
            reduced.append(rest)
    if not reduced:
        return state
    clauses = [*reduced, *residual]
    propagated = unit_propagate(clauses)
    if propagated is None:
        return None
    new_true, new_false, residual = propagated
    if residual and not is_satisfiable(residual):
        return None
    if new_true:
        true, false = true | new_true, false | new_false
    return true, false, residual


class _Node:
    """A prefix in the sampler's tree: its state until it is expanded, then
    its branches as (value, probability, child); a leaf's finished Sample."""

    __slots__ = ("state", "branches", "sample")

    def __init__(self, state: _State | None):
        self.state = state
        self.branches: tuple[tuple[bool, float, _Node], ...] | None = None
        self.sample: Sample | None = None


_NodeProposal = Callable[[int, tuple[bool, ...], set[int]], float]
"""The sampler's proposal form: (step index, values of earlier steps, the
literals that those values and the hard clauses force true) to P(true)."""


class _FormulaSampler:
    """Draws and enumerates formula assignments on a prefix tree.

    A node is a prefix of step values.  Until it is expanded it holds the
    prefix propagated: the literals forced true and false, and the residual
    clauses, those not yet satisfied with their false literals removed.
    Expanding a node checks both values of the next step by _extend, which
    reduces the step's extension against the forced literals, propagates it
    together with the residual alone, and runs the DPLL only on a non-empty
    residual that propagation leaves; the children's states come out of
    those checks.  The proposal reads the node's forced true literals.  The
    node then keeps its branches, their probabilities and its children, and
    drops its state.  A draw is a walk down the tree, the enumeration a
    traversal of it with an explicit stack, and a leaf counts its formula's
    solutions once and keeps the finished Sample.
    """

    def __init__(self, m: BareModel, soft_steps: Sequence[int], proposal: _NodeProposal):
        self.num_vars, self.hard, self.soft = m
        self.proposal = proposal
        self.soft_steps = list(soft_steps)
        # Per step, indexed by its value: the negation of each literal in
        # literal_key order when false, the clause itself when true.
        self._extensions = []
        for j in self.soft_steps:
            clause = self.soft[j][0]
            units = tuple(frozenset((-l,)) for l in sorted(clause, key=literal_key))
            self._extensions.append((units, (clause,)))
        # The hard clauses were checked satisfiable at the sampler's entry.
        self.root = _Node(unit_propagate(self.hard))

    def _expand(
        self, node: _Node, pos: int, values: Sequence[bool]
    ) -> tuple[tuple[bool, float, _Node], ...]:
        """Record the values step pos can take after node's prefix, each
        with its probability: both by the proposal when both extensions are
        satisfiable, else the satisfiable one with probability one."""
        state = node.state
        node.state = None
        leaf = pos + 1 == len(self._extensions)
        children = []
        for value in (True, False):
            child = _extend(state, self._extensions[pos][value])
            if child is not None:
                children.append((value, _Node(None if leaf else child)))
        if len(children) == 2:
            p = float(self.proposal(pos, tuple(values), state[0]))
            p = min(max(p, _CLAMP), 1.0 - _CLAMP)
            node.branches = ((True, p, children[0][1]), (False, 1.0 - p, children[1][1]))
        elif children:
            value, child = children[0]
            node.branches = ((value, 1.0, child),)
        else:
            raise NoConsistentSampleError(
                "both extensions of a satisfiable prefix are unsatisfiable"
            )
        return node.branches

    def counting_model(self, values: Sequence[bool]) -> BareModel:
        """The hard-only model whose solutions complete the formula assignment."""
        hard = list(self.hard)
        for pos, value in enumerate(values):
            hard.extend(self._extensions[pos][value])
        return (self.num_vars, tuple(hard), ())

    def _finish(self, leaf: _Node, values: Sequence[bool], qb: float) -> Sample:
        leaf.sample = Sample(
            h=FormulaAssignment(tuple(values)),
            qb=qb,
            log_count=fdc_count(self.counting_model(values), mode=FORMULA).log_z,
            log_soft_weight=sum(
                self.soft[self.soft_steps[pos]][1]
                for pos, value in enumerate(values)
                if value
            ),
        )
        return leaf.sample

    def draw(self, rng: np.random.Generator) -> Sample:
        node = self.root
        values: list[bool] = []
        qb = 1.0
        for pos in range(len(self._extensions)):
            branches = node.branches or self._expand(node, pos, values)
            if len(branches) == 2 and rng.random() >= branches[0][1]:
                value, p, node = branches[1]
            else:
                value, p, node = branches[0]
            qb *= p
            values.append(value)
        return node.sample or self._finish(node, values, qb)

    def enumerate(self) -> list[Sample]:
        """Every leaf with its draw probability, true branches first."""
        samples: list[Sample] = []
        stack: list[tuple[_Node, tuple[bool, ...], float]] = [(self.root, (), 1.0)]
        while stack:
            node, values, qb = stack.pop()
            pos = len(values)
            if pos == len(self._extensions):
                samples.append(node.sample or self._finish(node, values, qb))
                continue
            branches = node.branches or self._expand(node, pos, values)
            for value, p, child in reversed(branches):
                stack.append((child, values + (value,), qb * p))
        return samples


def _bp_formula_proposal(marginals: BpMarginals, soft_steps: Sequence[int]) -> _NodeProposal:
    """Adapt the factor-belief proposal to step indexing along soft_steps."""

    def proposal(pos: int, values: tuple[bool, ...], true: set[int]) -> float:
        return formula_proposal(marginals, true, soft_steps[pos])

    return proposal


def _prefix_proposal(proposal: Proposal) -> _NodeProposal:
    """Adapt a proposal of the public (step, values) form."""
    return lambda pos, values, true: proposal(pos, values)


def _validate_sampling_model(m: BareModel) -> None:
    num_vars, hard, _ = m
    if num_vars > MAX_SAMPLING_VARS:
        raise InstanceTooLargeError(
            f"sampling requires exact solution counts; {num_vars} variables "
            f"exceeds the supported maximum of {MAX_SAMPLING_VARS}"
        )
    if not is_satisfiable(hard):
        raise NoConsistentSampleError("the hard clauses are unsatisfiable")


def _resolve_h_order(n_soft: int, h_order: Sequence[int] | None) -> list[int]:
    if h_order is None:
        return list(range(n_soft))
    order = list(h_order)
    if sorted(order) != list(range(n_soft)):
        raise ValueError(
            "h_order must be a permutation of the soft clause indices"
        )
    return order


def _fis_chunk(args) -> list[tuple[tuple[bool, ...], float, float, float]]:
    """Draw and finish one worker's samples.  Each goes back as its fields:
    pickled Samples are 1.4 times the bytes (500 draws on a qmr model)."""
    m, h_order, marginals, n_samples, seed_seq = args
    sampler = _FormulaSampler(m, h_order, _bp_formula_proposal(marginals, h_order))
    rng = np.random.default_rng(seed_seq)
    draws = [sampler.draw(rng) for _ in range(n_samples)]
    return [(s.h.values, s.qb, s.log_count, s.log_soft_weight) for s in draws]


def run_fis(
    m: PropMRF,
    n_samples: int,
    seed: int = 0,
    bp_config: BpConfig | None = None,
    h_order: Sequence[int] | None = None,
    jobs: int = 1,
    proposal: Proposal | None = None,
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
    bare = to_bare(m)
    _validate_sampling_model(bare)
    order = _resolve_h_order(len(m.soft), h_order)

    if proposal is not None and jobs > 1:
        raise ValueError("a custom proposal cannot be used with jobs > 1")

    marginals: BpMarginals | None = None
    if proposal is None:
        if bp_config is None:
            bp_config = BpConfig()
        marginals = run_bp(m, bp_config)
        node_proposal = _bp_formula_proposal(marginals, order)
    else:
        node_proposal = _prefix_proposal(proposal)

    if jobs == 1:
        sampler = _FormulaSampler(bare, order, node_proposal)
        rng = np.random.default_rng(seed)
        samples = tuple(sampler.draw(rng) for _ in range(n_samples))
    else:
        seqs = np.random.SeedSequence(seed).spawn(jobs)
        base, extra = divmod(n_samples, jobs)
        counts = [base + (1 if k < extra else 0) for k in range(jobs)]
        tasks = [
            (bare, tuple(order), marginals, counts[k], seqs[k])
            for k in range(jobs)
            if counts[k] > 0
        ]
        with ProcessPoolExecutor(max_workers=len(tasks)) as pool:
            samples = tuple(
                Sample(FormulaAssignment(values), qb, count, weight)
                for chunk in pool.map(_fis_chunk, tasks)
                for values, qb, count, weight in chunk
            )
    log_weights = np.array([s.log_estimate for s in samples])
    return FisResult(
        model=m,
        h_clauses=tuple(m.soft[j].clause for j in order),
        h_order=tuple(order),
        samples=samples,
        estimate=estimate_from_log_weights(log_weights),
        bp=marginals,
    )


def vis_log_weights(
    m: PropMRF, assignments: np.ndarray, q: np.ndarray
) -> np.ndarray:
    """Log importance weight of each row: log potential - log proposal mass,
    with -inf for rows violating a hard clause."""
    _, hard, soft = to_bare(m)
    assignments = np.asarray(assignments, dtype=bool)
    n_rows = assignments.shape[0]
    log_w = np.zeros(n_rows)
    valid = np.ones(n_rows, dtype=bool)
    for clause in hard:
        sat = np.zeros(n_rows, dtype=bool)
        for lit in clause:
            col = assignments[:, abs(lit) - 1]
            sat |= col if lit > 0 else ~col
        valid &= sat
    for clause, weight in soft:
        sat = np.zeros(n_rows, dtype=bool)
        for lit in clause:
            col = assignments[:, abs(lit) - 1]
            sat |= col if lit > 0 else ~col
        log_w += np.where(sat, weight, 0.0)
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
    _validate_sampling_model(to_bare(m))
    marginals: BpMarginals | None = None
    if q is None:
        if bp_config is None:
            bp_config = BpConfig()
        marginals = run_bp(m, bp_config)
        q = variable_proposal(marginals)
    else:
        q = np.asarray(q, dtype=np.float64)
        if q.shape != (m.num_vars,):
            raise ValueError("q must hold one probability per variable")
        if not np.all((q > 0.0) & (q < 1.0)):
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
        bp=marginals,
    )


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
    bare = to_bare(m)
    _validate_sampling_model(bare)
    order = _resolve_h_order(len(m.soft), h_order)
    if proposal is None:
        if bp_config is None:
            bp_config = BpConfig()
        marginals = run_bp(m, bp_config)
        sampler = _FormulaSampler(bare, order, _bp_formula_proposal(marginals, order))
    else:
        sampler = _FormulaSampler(bare, order, _prefix_proposal(proposal))
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
    num_vars, hard, soft = to_bare(m)
    if num_vars > 14:
        raise InstanceTooLargeError(
            "u_from_q enumerates all assignments; at most 14 variables"
        )
    q = np.asarray(q, dtype=np.float64)
    if q.shape != (num_vars,):
        raise ValueError("q must hold one probability per variable")
    order = _resolve_h_order(len(soft), h_order)
    h_clauses = [soft[j][0] for j in order]
    masses: dict[tuple[bool, ...], float] = {}
    kappa = 0.0
    for code in range(1 << num_vars):
        x = [(code >> (v - 1)) & 1 == 1 for v in range(1, num_vars + 1)]
        if any(
            not any((lit > 0) == x[abs(lit) - 1] for lit in clause)
            for clause in hard
        ):
            continue
        mass = 1.0
        for v in range(num_vars):
            mass *= q[v] if x[v] else 1.0 - q[v]
        profile = tuple(
            any((lit > 0) == x[abs(lit) - 1] for lit in clause)
            for clause in h_clauses
        )
        masses[profile] = masses.get(profile, 0.0) + mass
        kappa += mass
    return UFormulaDistribution(masses=masses, kappa=kappa)


def fis_marginals(result: FisResult) -> np.ndarray:
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

    sampler = _FormulaSampler(to_bare(m), result.h_order, lambda pos, values, true: 0.5)
    ratio_cache: dict[tuple[bool, ...], np.ndarray] = {}
    total_weight = 0.0
    accum = np.zeros(m.num_vars)
    for sample, weight in zip(result.samples, weights):
        values = sample.h.values
        ratios = ratio_cache.get(values)
        if ratios is None:
            ratios = np.zeros(m.num_vars)
            if sample.log_count != -math.inf:
                counting = sampler.counting_model(values)
                ratios = fdc_marginals(counting, mode=FORMULA).marginals
            ratio_cache[values] = ratios
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
