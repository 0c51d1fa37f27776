"""
Exact inference on a small weighted model
=========================================

Builds a handful of variables with hard constraints and weighted clauses,
computes the partition function three independent ways, and then answers a
query and reads off per-variable marginals.
"""

import math

from propmrf import (
    Clause,
    PropMRF,
    brute_force_z,
    conjoin_query,
    exact_marginals,
    fdc_count,
    parse_model,
    ve_count,
    write_model,
)

# A six-variable model: one hard constraint (clause that must hold) and four
# soft clauses whose weights are added to an assignment's score when they are
# satisfied.  Positive integers are positive literals, negative integers are
# negated ones, exactly as in DIMACS CNF files.
m = PropMRF.from_lists(
    6,
    hard=[[1, 2, -3]],
    soft=[
        (1.2, [2, 4]),
        (-0.4, [-1, 5]),
        (0.9, [3, -6]),
        (0.3, [5, 6]),
    ],
)

# The text format round-trips exactly, weights included.
text = write_model(m)
print("model file:")
print(text)
assert parse_model(text) == m

# Count by formula decomposition and conditioning.  The result carries search
# statistics: how many leaves the recursion resolved and how many times it
# had to branch.  A model this narrow is closed at the root by the
# bucket-elimination fallback, hence a single leaf.
result = fdc_count(m)
print(f"log Z by decomposition and conditioning: {result.log_z:.10f}")
print(f"  leaves {result.stats.leaves}, branch nodes {result.stats.nodes}, "
      f"cache hits {result.stats.cache_hits}")

# Bucket elimination along a min-fill order gives the same number.
print(f"log Z by bucket elimination:             {ve_count(m):.10f}")

# So does summing over all 2^6 assignments directly.
print(f"log Z by brute-force enumeration:        {brute_force_z(m):.10f}")
assert abs(result.log_z - brute_force_z(m)) < 1e-12

# The probability of a query formula is a ratio of partition functions: add
# the query clauses as hard constraints and renormalize.
query = [Clause([4]), Clause([-1, 5])]
log_p = fdc_count(conjoin_query(m, query)).log_z - result.log_z
print(f"P(4 and (-1 or 5)) = {math.exp(log_p):.6f}")

# Per-variable marginals come from one run of the same search, which carries
# every variable's marginal back up beside log Z.
marginals = exact_marginals(m)
for v, p in enumerate(marginals, start=1):
    print(f"  P(x{v} = true) = {p:.6f}")
