"""One peel, slowly: coloring, the monochromatic set, and the payment.

Peeling removes a few minimal elements per round and pays each removal
with a bounded batch of linear extensions.  This walkthrough runs a
single round on a small bipartite poset and shows every ingredient.
"""

from posetdim import (
    critical_pairs,
    find_monochromatic,
    mates,
    peel_realizer,
    peel_step,
    random_skfree_bipartite,
    subset_color,
)

bp = random_skfree_bipartite(10, 10, 0.25, 3, seed=2024)
print(f"bipartite poset: |A| = {len(bp.a_order)}, |B| = {len(bp.b_order)}, "
      f"{bp.poset.relation_count()} relations")

# Every 3-subset of A gets a color: a position whose element has no
# "mate" above all the others.  Freeness of the poset is exactly what
# guarantees some position qualifies.
sample = tuple(bp.a_order[:3])
print(f"\nsubset {sample}: mates per position:",
      [sorted(mates(bp, sample, i)) for i in (1, 2, 3)])
print(f"color of {sample}: {subset_color(bp, sample)}")

# A monochromatic set: q elements all of whose 3-subsets share a color.
# The search colors only the subsets it reads.
q_elems, color = find_monochromatic(bp, 3, 3)
print(f"\nmonochromatic q-set {q_elems} with color {color}")

# The peel step builds the reversing extensions from a random 0/1
# matrix and adds one minimal-elements extension, with the removed set
# at its very bottom; no cleanup extension is ever needed.
step, exts = peel_step(bp, 3, 3, seed=7)
print(f"peel step: removed {step.removed} (color {step.color})")
print(f"  matrix: {step.matrix.r} rows x {step.matrix.q} cols")
print(f"  extensions spent: {step.extensions_built} "
      f"(2 per matrix row, plus the minimal-elements extension)")

# Those extensions reverse every critical pair that touches the removed
# set, which is what lets the set leave the poset.
qset = set(step.removed)
touching = [c for c in critical_pairs(bp.poset) if c.x in qset or c.y in qset]
pos = [e.positions() for e in exts]
covered = sum(1 for c in touching if any(p[c.y] < p[c.x] for p in pos))
print(f"  critical pairs touching Q: {covered}/{len(touching)} reversed")

# Iterating to a small base and solving that exactly gives a certified
# realizer for the whole poset.
cert = peel_realizer(bp, 3, 3, base_threshold=8, seed=7)
print(f"\nfull peel: {len(cert.steps)} steps, base of {cert.base_size} "
      f"elements solved at dimension {cert.base_dimension}")
print(f"certified upper bound: {cert.total_size} extensions "
      f"(all re-verified against the input)")
