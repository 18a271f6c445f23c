"""Shared naive oracles for the test suite.

Everything here is implemented independently of the package internals
(set algebra and brute force instead of bitmasks and pruning) so the
fast paths have something honest to agree with.
"""

from __future__ import annotations

from itertools import combinations, permutations

from posetdim import Poset, derive_seed, mates, random_poset, subset_color
from posetdim.core import iter_bits


def naive_closure(n: int, pairs: list[tuple[int, int]]) -> set[tuple[int, int]]:
    """Transitive closure by iterating relational composition to a fixpoint."""
    rel = set(pairs)
    while True:
        extra = {
            (a, d)
            for (a, b) in rel
            for (c, d) in rel
            if b == c and (a, d) not in rel
        }
        if not extra:
            return rel
        rel |= extra


def check_poset(p: Poset) -> None:
    """Assert the stored rows really are a closed strict order."""
    for x in range(p.n):
        assert not p.lt(x, x), f"reflexive at {x}"
        for y in iter_bits(p.upset_mask(x)):
            assert (p.downset_mask(y) >> x) & 1, f"up/down mismatch {x},{y}"
            assert not p.lt(y, x), f"antisymmetry {x},{y}"
            missing = p.upset_mask(y) & ~p.upset_mask(x)
            assert not missing, f"closure missing above {x} via {y}"
        for w in iter_bits(p.downset_mask(x)):
            assert p.lt(w, x), f"down/up mismatch {w},{x}"


def check_coloring(coloring) -> None:
    """Assert every color a UBColoring stored is a position with no mate."""
    bp = coloring.bp
    for positions, color in coloring.colors.items():
        elems = tuple(bp.a_order[c] for c in positions)
        assert not mates(bp, elems, color), (positions, color)
        assert color == subset_color(bp, elems)


def naive_critical_pairs(p: Poset) -> list[tuple[int, int]]:
    """Critical pairs straight from the definition, via the frozenset API."""
    out = []
    for x in range(p.n):
        for y in range(p.n):
            if x == y or p.leq(x, y) or p.leq(y, x):
                continue
            if p.downset(x) <= p.downset(y) and p.upset(y) <= p.upset(x):
                out.append((x, y))
    return out


def naive_find_standard(p: Poset, k: int):
    """Exhaustive induced standard-example search over element tuples.

    Returns the lexicographically first (a_tuple, b_tuple) or None; this
    is the oracle for both detection and the lex-first tie-break.
    """
    elems = range(p.n)
    for a_set in combinations(elems, k):
        if any(p.leq(x, y) or p.leq(y, x) for x, y in combinations(a_set, 2)):
            continue
        rest = [e for e in elems if e not in a_set]
        found = None
        for b_set in combinations(rest, k):
            if any(p.leq(x, y) or p.leq(y, x) for x, y in combinations(b_set, 2)):
                continue
            for b_perm in sorted(permutations(b_set)):
                ok = True
                for i, a in enumerate(a_set):
                    for j, b in enumerate(b_perm):
                        want_lt = i != j
                        if p.lt(a, b) != want_lt or p.leq(b, a):
                            ok = False
                            break
                    if not ok:
                        break
                if ok and (found is None or b_perm < found):
                    found = b_perm
        if found is not None:
            return a_set, found
    return None


def naive_is_extension(p: Poset, order: tuple[int, ...]) -> bool:
    if sorted(order) != list(range(p.n)):
        return False
    pos = {v: i for i, v in enumerate(order)}
    return all(
        pos[x] < pos[y] for x in range(p.n) for y in range(p.n)
        if x != y and p.leq(x, y)
    )


def naive_splitmix64(seed: int, index: int) -> int:
    """Independent restatement of the seed-derivation arithmetic."""
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def seeded_posets(count: int, n_lo: int, n_hi: int, seed: int):
    """Deterministic stream of (index, poset) pairs for agreement loops."""
    span = n_hi - n_lo + 1
    for i in range(count):
        s = derive_seed(seed, i)
        n = n_lo + (i % span)
        p_edge = 0.15 + 0.1 * (i % 5)
        yield i, random_poset(n, p_edge, derive_seed(s, 1))
