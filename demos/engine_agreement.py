"""
The exact engines agree on every instance family
================================================

Generates instances from the three built-in families and computes each
one's log partition function four ways: formula conditioning, variable
conditioning, bucket elimination and brute-force enumeration.  The families:

  random   m clauses of s distinct signed variables over n variables
  qmr      a two-layer diagnosis network: disease priors plus clauses that
           tie each finding to a disjunction of diseases
  fs       the friends-and-smokers relational model grounded for k people,
           with one shared weight per rule

Timings are not reported here; perfbench/ is the one timing harness.
"""

from propmrf import (
    FORMULA,
    VARIABLE,
    brute_force_z,
    fdc_count,
    gen_fs,
    gen_qmr,
    gen_random,
    pick_evidence,
    ve_count,
)

instances = [
    ("random(12,10,3)", gen_random(12, 10, 3, seed=5)),
    ("random(18,16,5)", gen_random(18, 16, 5, seed=5)),
    ("random + evidence", pick_evidence(gen_random(16, 14, 3, seed=5), 0.25, seed=5)),
    ("qmr(8,6,3)", gen_qmr(8, 6, 3, seed=5)),
    ("qmr(12,10,4)", gen_qmr(12, 10, 4, seed=5)),
    ("fs(3)", gen_fs(3, seed=5)),
]

header = (
    f"{'instance':<20} {'vars':>4} {'clauses':>7} {'log Z':>12} "
    f"{'largest |engine - enumeration|':>31}"
)
print(header)
print("-" * len(header))

for name, m in instances:
    values = [
        fdc_count(m, mode=FORMULA).log_z,
        fdc_count(m, mode=VARIABLE).log_z,
        ve_count(m, max_width=24),
    ]

    # every engine must agree with enumeration to near machine precision
    reference = brute_force_z(m)
    spread = max(abs(v - reference) for v in values)
    assert spread < 1e-9, (name, spread)

    print(
        f"{name:<20} {m.num_vars:>4} {m.num_clauses:>7} "
        f"{reference:>12.6f} {spread:>31.1e}"
    )

print()
print("all engines agree with brute-force enumeration on every instance")
