"""Importance sampling over formula assignments and over variable assignments.

The formula sampler draws truth values for the soft clauses one at a time.
Before each step both extensions are tested for satisfiability against the
hard clauses plus the constraints implied by earlier steps; when only one
extension is satisfiable it is taken with probability one.  One of the two
always is, so no drawn prefix is ever abandoned.  A completed draw fixes
every soft clause, the solutions of the resulting hard formula are counted
exactly, and the sample's estimate is

    count * exp(sum of satisfied soft weights) / qb

where qb is the probability the sampling process assigned to the draw (the
product of the branch probabilities actually used at free steps).  Where
that product underflows, the estimate takes log qb as the sum of the
branches' logs instead.  Averaging the estimates over independent draws is
unbiased for the partition function.

The sampling entry points take a PropMRF and run on it as it is: its
clauses are frozensets of literals.  The formula sampler's draws share a
prefix tree (see _FormulaSampler): each prefix is unit propagated once, and
its state is what sat.unit_propagate returns, the forced literals and the
residual clauses.  Both the SAT checks of the next step (sat.is_satisfiable)
and the belief propagation proposal start from that state, not from the hard
clauses.  A run of forced steps is one edge of the tree, so a draw that
reaches built nodes pays one uniform and one step per free choice, spells
out the step values only from the first node it expands, and ends at a
built leaf with the Sample that leaf was finished with.  The enumeration
expands a fresh tree whole.  The BP proposal is memoized for the run on the
step and the forced literals of the step's clause, the only ones it reads.
A leaf's state is also its counting model.  When its residual is empty,
every variable is forced or free, and the log count (ln 2 per free variable)
and marginals are written down with no search; otherwise one fdc_marginals
search on the forced true literals as unit clauses plus the residual gives
them.  The Sample keeps the exact marginals of its formula's solutions, so
fis_marginals only averages them.  run_fis draws every sample in this
process on one tree; its jobs split the draws into independently seeded
streams, drawn one after another.

The variable sampler draws each variable independently from a per-variable
Bernoulli proposal and weights assignments by potential over proposal mass;
assignments violating a hard clause get weight zero.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from .bench import _clause_sat_mask, _weighted_chunks
from .bp import BpConfig, BpMarginals, formula_proposal, run_bp, variable_proposal
from .fdc import FORMULA, InstanceTooLargeError, fdc_marginals
from .fdc import fdc_count  # noqa: F401  perfbench/run.py wraps this name
from .model import BareClause, Clause, PropMRF, literal_key
from .sat import is_satisfiable, unit_propagate
from .simplify import LN2

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
    log_qb: float  # math.log(qb), or the sum of the branches' logs below normal floats
    # P(v = true) over the solutions of the sampled formula, from the same search as log_count
    marginals: np.ndarray = field(compare=False, repr=False)

    @property
    def log_estimate(self) -> float:
        return self.log_count + self.log_soft_weight - self.log_qb


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


_State = tuple[set[int], list[BareClause]]
"""A satisfiable prefix, propagated: the literals forced true, accumulated
over the prefix's steps, and sat.unit_propagate's residual clauses.  A
literal is forced false when its negation is forced true.  The residual
clauses mention no forced variable, and each keeps at least two literals."""


def _extend(state: _State, extension: Sequence[BareClause]) -> _State | None:
    """The propagated state of a satisfiable prefix plus extension, or None
    when that conjunction is unsatisfiable."""
    true, residual = state
    reduced = []
    for clause in extension:
        if true.isdisjoint(clause):
            falsified = {lit for lit in clause if -lit in true}
            rest = clause - falsified if falsified else clause
            if not rest:
                return None
            reduced.append(rest)
    if not reduced:
        return state
    propagated = unit_propagate([*reduced, *residual])
    if propagated is None:
        return None
    new_true, _, residual = propagated
    if residual and not is_satisfiable(residual):
        return None
    return (true | new_true if new_true else true), residual


class _Node:
    """A prefix in the sampler's tree.

    Until it is expanded it holds its state.  Expanding walks the forced
    steps after the prefix, whose values become run, the node's one edge, and
    stops at the first free step or after the last step.  A branching node
    then holds p, the probability that its free step is true, and its true
    and false children, whose prefixes end in that step.  A leaf keeps its
    state until it is finished, then its Sample."""

    __slots__ = ("state", "run", "p", "true", "false", "sample")

    def __init__(self, state: _State):
        self.state: _State | None = state
        self.run: tuple[bool, ...] | None = None
        self.p: float | None = None
        self.true: _Node | None = None
        self.false: _Node | None = None
        self.sample: Sample | None = None


_Extensions = list[tuple[tuple[BareClause, ...], tuple[BareClause, ...]]]


def _step_extensions(m: PropMRF, order: Sequence[int]) -> _Extensions:
    """Per step, indexed by its value: the negation of each literal of the
    step's clause, in literal_key order, when false; the clause itself when
    true."""
    extensions = []
    for j in order:
        clause = m.soft[j].clause
        units = tuple(frozenset((-l,)) for l in sorted(clause, key=literal_key))
        extensions.append((units, (clause,)))
    return extensions


_NodeProposal = Callable[[int, Sequence[bool], set[int]], float]
"""The sampler's proposal form: (step index, values of earlier steps, the
literals that those values and the hard clauses force true) to P(true).  The
values are the sampler's own list, valid only during the call."""


def _solved_leaf(num_vars: int, true: set[int]) -> tuple[float, np.ndarray]:
    """What fdc_marginals returns for a leaf whose residual is empty, without
    the search: simplify's log count, LN2 added once per free variable, and
    fdc._lift's marginals, 1 or 0 for a forced variable and 0.5 for a free
    one."""
    log_count = 0.0
    for _ in range(num_vars - len(true)):
        log_count += LN2
    marginals = np.full(num_vars, 0.5)
    literals = np.fromiter(true, dtype=np.int64, count=len(true))
    marginals[np.abs(literals) - 1] = literals > 0
    return log_count, marginals


class _FormulaSampler:
    """Draws and enumerates formula assignments on a prefix tree.

    A node is a prefix of step values.  Until it is expanded it holds the
    prefix propagated: the literals forced true, and the residual clauses,
    those not yet satisfied with the negations of forced literals removed.
    Expanding a node checks both values of each next step by _extend, which
    reduces the step's extension against the forced literals, propagates it
    together with the residual alone, and runs the DPLL only on a non-empty
    residual that propagation leaves; the next states come out of those
    checks.  While one value is satisfiable the step is forced: its value
    joins the node's run and the walk goes on from its state.  At the first
    step where both are, the proposal reads the forced true literals (the BP
    proposal answers a repeated question from its memo, see _BpProposal),
    and the node keeps that probability and its two children and drops its
    state.  So an edge of the tree is one free choice followed by the run of
    forced steps behind it.  A draw walks the tree, taking one uniform per
    free choice and keeping the values only from the first node it expands
    (see draw); the enumeration expands a fresh tree whole, with an explicit
    stack.  A leaf is solved once, right after the expansion that makes it a
    leaf: with an empty residual every variable is forced or free, and the
    result is written down (_solved_leaf); otherwise by one fdc_marginals
    search started from its own state.  It keeps the finished Sample, with
    the formula's log count and marginals, and drops the state, so a later
    draw that reaches it returns that Sample, the one a fresh tree gives.
    """

    def __init__(self, m: PropMRF, soft_steps: Sequence[int], proposal: _NodeProposal):
        self.model = m
        self.proposal = proposal
        self.soft_steps = soft_steps
        self._extensions = _step_extensions(m, soft_steps)
        # The hard clauses were checked satisfiable at the sampler's entry.
        true, _, residual = unit_propagate(m[1])
        self.root = _Node((true, residual))

    def _expand(self, node: _Node, values: list[bool]) -> None:
        """Walk the steps after node's prefix, which values holds, appending
        each forced value to values and to node.run; then branch at the
        first step where both values are satisfiable, by the proposal, or
        make node a leaf after the last step.  At least one value is always
        satisfiable: each model of a satisfiable prefix either satisfies the
        step's clause or falsifies all of its literals."""
        state = node.state
        start = len(values)
        for pos in range(start, len(self._extensions)):
            if_false, if_true = self._extensions[pos]
            on_true, on_false = _extend(state, if_true), _extend(state, if_false)
            if on_true is not None and on_false is not None:
                p = float(self.proposal(pos, values, state[0]))
                if math.isnan(p):
                    raise ValueError(
                        f"the proposal returned NaN at step {pos} "
                        f"(soft clause {self.soft_steps[pos]})"
                    )
                node.p = min(max(p, _CLAMP), 1.0 - _CLAMP)
                node.true, node.false = _Node(on_true), _Node(on_false)
                node.state = None
                break
            values.append(on_false is None)
            state = on_true if on_false is None else on_false
        else:
            node.state = state
        node.run = tuple(values[start:])

    def _finish(self, leaf: _Node, values: Sequence[bool], qb: float) -> Sample:
        num_vars, _, soft = self.model
        true, residual = leaf.state
        leaf.state = None
        if residual:
            counting = (num_vars, (*(frozenset((lit,)) for lit in true), *residual), ())
            exact = fdc_marginals(counting, mode=FORMULA)
            log_count, marginals = exact.log_z, exact.marginals
        else:
            log_count, marginals = _solved_leaf(num_vars, true)
        leaf.sample = Sample(
            h=FormulaAssignment(tuple(values)),
            qb=qb,
            log_count=log_count,
            log_soft_weight=sum(
                (soft[j][1] for j, value in zip(self.soft_steps, values) if value), 0.0
            ),
            log_qb=math.log(qb) if qb >= sys.float_info.min else self._log_qb(values),
            marginals=marginals,
        )
        return leaf.sample

    def _log_qb(self, values: Sequence[bool]) -> float:
        """log qb of the path values takes from the root, summed branch by
        branch, for a qb that has lost precision or underflowed."""
        node, pos, log_qb = self.root, 0, 0.0
        while node.p is not None:
            pos += len(node.run)
            if values[pos]:
                log_qb += math.log(node.p)
                node = node.true
            else:
                log_qb += math.log(1.0 - node.p)
                node = node.false
            pos += 1
        return log_qb

    def _path_values(self, path: int) -> list[bool]:
        """The values of the steps before the node that path leads to from
        the root: path is 1 followed by one bit per free choice, 1 for
        true."""
        node, values = self.root, []
        for shift in range(path.bit_length() - 2, -1, -1):
            value = path >> shift & 1 == 1
            values += node.run
            values.append(value)
            node = node.true if value else node.false
        return values

    def draw(self, uniforms: Iterator[float]) -> Sample:
        """One draw: at each free choice, true when the next uniform is
        below its probability.  Over built nodes the walk records its
        choices as the bits of path and keeps no values, and a built leaf
        gives the Sample it was finished with by the draw that expanded it.
        From the first node it expands every node is new, and the values
        are spelled out once and extended step by step."""
        node, qb, path = self.root, 1.0, 1
        while node.run is not None:
            p = node.p
            if p is None:
                return node.sample
            if next(uniforms) < p:
                qb *= p
                path += path + 1
                node = node.true
            else:
                qb *= 1.0 - p
                path += path
                node = node.false
        values = self._path_values(path)
        while True:
            self._expand(node, values)
            p = node.p
            if p is None:
                return self._finish(node, values, qb)
            if next(uniforms) < p:
                qb *= p
                values.append(True)
                node = node.true
            else:
                qb *= 1.0 - p
                values.append(False)
                node = node.false

    def enumerate(self) -> list[Sample]:
        """Every leaf with its draw probability, true branches first.  Runs
        on a fresh tree, expanding each node and finishing each leaf once."""
        samples: list[Sample] = []
        stack: list[tuple[_Node, list[bool], float]] = [(self.root, [], 1.0)]
        while stack:
            node, values, qb = stack.pop()
            self._expand(node, values)
            p = node.p
            if p is None:
                samples.append(self._finish(node, values, qb))
                continue
            stack.append((node.false, [*values, False], qb * (1.0 - p)))
            stack.append((node.true, [*values, True], qb * p))
        return samples


class _BpProposal:
    """The factor-belief proposal at each step of order, memoized.

    formula_proposal reads the forced literals only on the variables of the
    step's clause, so the memo is keyed on the step and on those forced
    literals.  It lives as long as the object, one run, and serves every
    stream of draws on the run's tree.
    """

    def __init__(self, marginals: BpMarginals, order: Sequence[int]):
        self.marginals = marginals
        self.order = order
        self._scopes = [
            frozenset(lit for v in marginals.soft_factor(i)[0] for lit in (v, -v))
            for i in order
        ]
        self._memo: dict[tuple[int, frozenset[int]], float] = {}

    def __call__(self, pos: int, values: Sequence[bool], true: set[int]) -> float:
        key = (pos, self._scopes[pos] & true)
        p = self._memo.get(key)
        if p is None:
            p = self._memo[key] = formula_proposal(self.marginals, true, self.order[pos])
        return p


def _validate_sampling_model(m: PropMRF) -> None:
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


def _formula_sampling(
    m: PropMRF,
    h_order: Sequence[int] | None,
    proposal: Proposal | None,
    bp_config: BpConfig,
) -> tuple[tuple[int, ...], _NodeProposal, BpMarginals | None]:
    """The setup shared by run_fis and enumerate_formula_assignments: the
    step order; the sampler's proposal, any Proposal at any jobs; and the BP
    run behind it, None for a custom proposal.  Checks m for sampling first."""
    _validate_sampling_model(m)
    order = tuple(_resolve_h_order(len(m.soft), h_order))
    if proposal is not None:
        return order, lambda pos, values, true: proposal(pos, tuple(values)), None
    marginals = run_bp(m, bp_config)
    return order, _BpProposal(marginals, order), marginals


def _uniforms(rng: np.random.Generator) -> Iterator[float]:
    """rng's uniform doubles one at a time, drawn in blocks: random(k) gives
    the same doubles as k calls of random()."""
    while True:
        yield from rng.random(1024).tolist()


def run_fis(
    m: PropMRF,
    n_samples: int,
    seed: int = 0,
    bp_config: BpConfig = BpConfig(),
    h_order: Sequence[int] | None = None,
    jobs: int = 1,
    proposal: Proposal | None = None,
) -> FisResult:
    """Draw n_samples formula assignments and estimate Z.

    The clauses are sampled in declaration order unless h_order supplies a
    permutation of the soft clause indices.  The default proposal comes from
    one belief propagation run on the model; pass proposal to override it.
    With jobs > 1 the draws are split into jobs streams, the first ones one
    draw larger, each seeded from an independent spawn of the base seed, so
    results depend on jobs but are reproducible for a given (seed, jobs)
    pair.  The streams are drawn one after another in this process on one
    prefix tree, which only caches what a draw computes: each stream draws
    what it would on a fresh tree.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    if jobs < 1:
        raise ValueError("jobs must be positive")
    order, node_proposal, marginals = _formula_sampling(m, h_order, proposal, bp_config)

    seeds = [seed] if jobs == 1 else np.random.SeedSequence(seed).spawn(jobs)
    sampler = _FormulaSampler(m, order, node_proposal)
    samples: list[Sample] = []
    for k, stream_seed in enumerate(seeds):
        uniforms = _uniforms(np.random.default_rng(stream_seed))
        n = n_samples // jobs + (k < n_samples % jobs)
        samples += [sampler.draw(uniforms) for _ in range(n)]
    log_weights = np.array([s.log_estimate for s in samples])
    return FisResult(
        model=m,
        h_clauses=tuple(m.soft[j].clause for j in order),
        h_order=order,
        samples=tuple(samples),
        estimate=estimate_from_log_weights(log_weights),
        bp=marginals,
    )


def vis_log_weights(
    m: PropMRF, assignments: np.ndarray, q: np.ndarray
) -> np.ndarray:
    """Log importance weight of each row: log potential - log proposal mass,
    with -inf for rows violating a hard clause."""
    _, hard, soft = m
    assignments = np.asarray(assignments, dtype=bool)
    n_rows = assignments.shape[0]

    def satisfied(clause: BareClause) -> np.ndarray:
        sat = np.zeros(n_rows, dtype=bool)
        for lit in clause:
            col = assignments[:, abs(lit) - 1]
            sat |= col if lit > 0 else ~col
        return sat

    log_w = np.zeros(n_rows)
    valid = np.ones(n_rows, dtype=bool)
    for clause in hard:
        valid &= satisfied(clause)
    for clause, weight in soft:
        log_w += np.where(satisfied(clause), weight, 0.0)
    log_q = assignments @ np.log(q) + (~assignments) @ np.log1p(-q)
    log_w -= log_q
    log_w[~valid] = -np.inf
    return log_w


def run_vis(
    m: PropMRF,
    n_samples: int,
    seed: int = 0,
    bp_config: BpConfig = BpConfig(),
    q: np.ndarray | None = None,
) -> VisResult:
    """Draw variable assignments from a fully factorized proposal and
    estimate Z.  The proposal defaults to clamped belief propagation
    marginals; q overrides it with explicit per-variable probabilities."""
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    _validate_sampling_model(m)
    marginals: BpMarginals | None = None
    if q is None:
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
    bp_config: BpConfig = BpConfig(),
) -> list[Sample]:
    """Every reachable formula assignment with its exact draw probability.

    The returned qb values sum to 1 over the enumeration, so exact
    expectations of the estimator (mean, variance) can be computed without
    sampling.  Intended for small models.
    """
    order, node_proposal, _ = _formula_sampling(m, h_order, proposal, bp_config)
    return _FormulaSampler(m, order, node_proposal).enumerate()


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
    enumeration, over bench's chunks of assignments: a code is kept when its
    log potential is finite, its mass is the product of its variables'
    probabilities in variable order, and the masses are summed in code
    order.  Limited to small models."""
    num_vars, _, soft = m
    if num_vars > 14:
        raise InstanceTooLargeError(
            "u_from_q enumerates all assignments; at most 14 variables"
        )
    q = np.asarray(q, dtype=np.float64)
    if q.shape != (num_vars,):
        raise ValueError("q must hold one probability per variable")
    if not np.all((q >= 0.0) & (q <= 1.0)):
        raise ValueError("q entries must lie in [0, 1]")
    order = _resolve_h_order(len(soft), h_order)
    masses: dict[tuple[bool, ...], float] = {}
    kappa = 0.0
    for codes, log_w in _weighted_chunks(m):
        codes = codes[log_w > -math.inf]
        code_mass = np.ones(codes.shape)
        for v in range(num_vars):
            bit = (codes >> np.uint64(v)) & np.uint64(1)
            code_mass *= np.where(bit == 1, q[v], 1.0 - q[v])
        profiles = np.empty((codes.size, len(order)), dtype=bool)
        for step, j in enumerate(order):
            profiles[:, step] = _clause_sat_mask(codes, soft[j].clause)
        for profile, mass in zip(map(tuple, profiles.tolist()), code_mass.tolist()):
            masses[profile] = masses.get(profile, 0.0) + mass
            kappa += mass
    return UFormulaDistribution(masses=masses, kappa=kappa)


def fis_marginals(result: FisResult) -> np.ndarray:
    """Self-normalized estimate of P(v = true) for every variable.

    Each sample contributes its importance weight times the exact fraction of
    the sampled formula's solutions that set v true, which the sample kept
    from the search that counted it; nothing is searched here.
    """
    log_weights = np.array([s.log_estimate for s in result.samples])
    weights = np.exp(log_weights - np.max(log_weights))
    total_weight = 0.0
    accum = np.zeros(result.model.num_vars)
    for sample, weight in zip(result.samples, weights):
        total_weight += weight
        accum += weight * sample.marginals
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
