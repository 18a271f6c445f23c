"""Standard examples: the posets that make order dimension large.

The standard example on 2m elements has m minimal elements a_0..a_{m-1}
and m maximal elements b_0..b_{m-1}, with a_i < b_j exactly when i != j.
Its dimension is exactly m, which is what makes "no standard example
inside" a natural structural restriction.
"""

from posetdim import (
    critical_pairs,
    exact_dimension,
    find_standard_example,
    is_realizer,
    random_poset,
    standard_example,
)

for m in (2, 3, 4, 5):
    s = standard_example(m)
    res = exact_dimension(s)
    print(f"S_{m}: {s.n} elements, dimension {res.d} (optimal={res.optimal})")

# The dimension of S_3 is witnessed by three linear extensions; each one
# must put some a_i above its incomparable partner b_i.
s3 = standard_example(3)
res = exact_dimension(s3)
print("\nA realizer for S_3 (bottom to top):")
for ext in res.witness.extensions:
    print("  ", ext.order)
ok, _ = is_realizer(s3, res.witness)
print("verifies:", ok)

# The pairs a realizer must reverse are the critical pairs.  For S_3
# they are exactly the diagonal (a_i, b_i) pairs, one per leg.
print("\ncritical pairs of S_3:", [(c.x, c.y) for c in critical_pairs(s3)])

# Detection: does some poset contain an induced copy of S_k?  The chain
# never does; S_3 trivially contains itself; and random posets at this
# density usually avoid S_3.
print("\nS_3 inside S_3:", find_standard_example(s3, 3))
hits = sum(
    1 for i in range(50)
    if find_standard_example(random_poset(8, 0.3, seed=i), 3) is not None
)
print(f"random n=8 posets containing S_3: {hits}/50")
