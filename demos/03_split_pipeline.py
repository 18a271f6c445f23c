"""From any poset to a bound: split, peel, project back.

The peeling machinery wants a height-2 poset.  The split construction
doubles every element into a minimal and a maximal copy, preserves
freeness, and never lowers the dimension — so a bound for the split is
a bound for the original.
"""

from posetdim import (
    bipartition,
    exact_dimension,
    general_upper_bound,
    is_realizer,
    kimble_split,
    random_poset,
)

p = random_poset(7, 0.3, seed=31)
print(f"input poset: n = {p.n}, {p.relation_count()} relations, "
      f"height {p.height()}")
print(f"exact dimension: {exact_dimension(p).d}")

sp = kimble_split(p)
bp = bipartition(sp)
print(f"\nsplit: n = {sp.n}, height {sp.height()}, "
      f"A side {bp.a_order}, B side {bp.b_order}")
print(f"split dimension: {exact_dimension(sp).d} "
      f"(sandwiched between dim(P) and dim(P)+1)")

# The full pipeline: refuse posets containing the standard example,
# split, peel, and project each split extension to one for P, ranked by
# the minimal copies; the projections realize P by themselves.
res = general_upper_bound(p, 3, 2, base_threshold=8, seed=5)
print(f"\ncertified upper bound for P: {res.bound}")
print(f"peel steps on the split: {len(res.certificate.steps)}")
print(f"realizer recovered for P: {len(res.realizer_for_p.extensions)} "
      f"extensions, one projected from each split member")
ok, _ = is_realizer(p, res.realizer_for_p.extensions)
print(f"realizer verifies on P: {ok}")

# The bound is loose at desk scale — the constants come from an
# asymptotic argument — but it is sound, certified, and machine-checked.
print(f"\nsummary: dim(P) = {exact_dimension(p).d} <= {res.bound} = bound")
