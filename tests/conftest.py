"""Shared naive oracles for the test suite.

Everything here is implemented independently of the package internals
(set algebra and brute force instead of bitmasks and pruning) so the
fast paths have something honest to agree with: the reference
dimension by exhausting linear extensions, the theorem scans of the
acceptance criteria, and small relation helpers read through Poset.lt.
The v1 and v2 renderers at the end write a decoded realizer or
certificate back in the layouts the older JSON writers used, so hashes
pinned on v1 and v2 text keep checking content.
"""

from __future__ import annotations

import json
import random
import sys
from contextlib import contextmanager
from itertools import combinations, permutations

from posetdim import (
    Poset,
    derive_seed,
    exact_dimension,
    kimble_split,
    poset_to_text,
    random_poset,
)
from posetdim.core import iter_bits


def relations(p: Poset) -> list[tuple[int, int]]:
    """Every related pair (x, y) with x < y, lexicographically."""
    return [(x, y) for x in range(p.n) for y in range(p.n) if p.lt(x, y)]


def leq(p: Poset, x: int, y: int) -> bool:
    """True iff x <= y."""
    return x == y or p.lt(x, y)


def upset(p: Poset, x: int) -> frozenset[int]:
    """Strict upset of x."""
    return frozenset(y for y in range(p.n) if p.lt(x, y))


def downset(p: Poset, x: int) -> frozenset[int]:
    """Strict downset of x."""
    return frozenset(y for y in range(p.n) if p.lt(y, x))


def is_antichain(p: Poset, elems) -> bool:
    return all(p.incomparable(x, y) for x, y in combinations(list(elems), 2))


def reverses(ext, pair: tuple[int, int]) -> bool:
    """True iff ext lists pair's second element below its first."""
    return ext.order.index(pair[1]) < ext.order.index(pair[0])


def embedding_valid(p: Poset, emb) -> bool:
    """Re-check that emb really is an induced standard example in p."""
    k = len(emb.a_elems)
    if k != len(emb.b_elems) or k < 2:
        return False
    if len(set(emb.a_elems) | set(emb.b_elems)) != 2 * k:
        return False
    if not is_antichain(p, emb.a_elems) or not is_antichain(p, emb.b_elems):
        return False
    return all(
        p.incomparable(a, b) if i == j else p.lt(a, b)
        for i, a in enumerate(emb.a_elems)
        for j, b in enumerate(emb.b_elems)
    )


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


def naive_critical_pairs(p: Poset) -> list[tuple[int, int]]:
    """Critical pairs straight from the definition, on frozensets."""
    out = []
    for x in range(p.n):
        for y in range(p.n):
            if x == y or leq(p, x, y) or leq(p, y, x):
                continue
            if downset(p, x) <= downset(p, y) and upset(p, y) <= upset(p, x):
                out.append((x, y))
    return out


def all_linear_extensions(p: Poset) -> list[tuple[int, ...]]:
    """Every linear extension, by backtracking (small posets only)."""
    if p.n > 10:
        raise ValueError(f"refusing to enumerate extensions for n={p.n}")
    below = [downset(p, v) for v in range(p.n)]
    out: list[tuple[int, ...]] = []
    prefix: list[int] = []

    def extend():
        if len(prefix) == p.n:
            out.append(tuple(prefix))
            return
        for v in range(p.n):
            if v not in prefix and below[v] <= set(prefix):
                prefix.append(v)
                extend()
                prefix.pop()

    extend()
    return out


def brute_force_dimension(p: Poset) -> int:
    """Reference dimension by exhausting subsets of linear extensions.

    Enumerates every linear extension, dedupes by the mask of critical
    pairs it reverses, and looks for the smallest family whose masks
    cover all critical pairs.  Hard-capped at n <= 7.
    """
    if p.n > 7:
        raise ValueError(f"brute force dimension is capped at n=7, got n={p.n}")
    cps = naive_critical_pairs(p)
    if not cps:
        return 1
    full = (1 << len(cps)) - 1
    masks = list(dict.fromkeys(
        sum(1 << i for i, (x, y) in enumerate(cps) if order.index(y) < order.index(x))
        for order in all_linear_extensions(p)
    ))
    for d in range(1, len(masks) + 1):
        for combo in combinations(masks, d):
            acc = 0
            for mask in combo:
                acc |= mask
            if acc == full:
                return d
    raise AssertionError("the full extension set always realizes the poset")


def naive_find_standard(p: Poset, k: int):
    """Exhaustive induced standard-example search over element tuples.

    Returns the lexicographically first (a_tuple, b_tuple) or None; this
    is the oracle for both detection and the lex-first tie-break.
    """
    elems = range(p.n)
    for a_set in combinations(elems, k):
        if any(leq(p, x, y) or leq(p, y, x) for x, y in combinations(a_set, 2)):
            continue
        rest = [e for e in elems if e not in a_set]
        found = None
        for b_set in combinations(rest, k):
            if any(leq(p, x, y) or leq(p, y, x) for x, y in combinations(b_set, 2)):
                continue
            for b_perm in sorted(permutations(b_set)):
                ok = True
                for i, a in enumerate(a_set):
                    for j, b in enumerate(b_perm):
                        want_lt = i != j
                        if p.lt(a, b) != want_lt or leq(p, b, a):
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
        if x != y and leq(p, x, y)
    )


def swap_inside_shared_prefix(p: Poset, orders) -> list[int]:
    """orders[1] with one related pair of the prefix it shares with
    orders[0] (asserted longer than half) listed the wrong way round."""
    first, second = orders[0], orders[1]
    shared = next(i for i, (u, v) in enumerate(zip(first, second)) if u != v)
    assert shared > len(first) // 2
    i, j = next((i, j) for j in range(shared) for i in range(j)
                if p.lt(second[i], second[j]))
    mutated = list(second)
    mutated[i], mutated[j] = mutated[j], mutated[i]
    return mutated


@contextmanager
def recursion_limit_near_here(headroom: int = 50):
    """Lower the recursion limit to the current stack depth plus headroom
    and restore it on exit: a search that recurses once per level fails
    inside the block past about headroom levels."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + headroom)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


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


def _small_random_posets(count: int, seed: int, n_min: int):
    """Yield (i, n, poset) for each sample i < count, where s is
    derive_seed(seed, i), n is n_min + (i mod 5), the edge probability p
    is one random() draw from Random(s), and the poset is
    random_poset(n, p, derive_seed(s, 1))."""
    if count < 0:
        raise ValueError("count must be >= 0")
    for i in range(count):
        s = derive_seed(seed, i)
        n = n_min + (i % 5)
        yield i, n, random_poset(n, random.Random(s).random(), derive_seed(s, 1))


def run_hiraguchi_scan(count: int, seed: int) -> list[dict]:
    """Check dim <= floor(n/2) on random posets with 4 <= n <= 8, drawn
    by _small_random_posets(count, seed, 4).  Violations (expected
    never) carry the offending poset serialized for reproduction."""
    violations: list[dict] = []
    for i, n, p in _small_random_posets(count, seed, 4):
        d = exact_dimension(p).d
        if d > n // 2:
            violations.append(
                {"index": i, "n": n, "dim": d, "bound": n // 2,
                 "poset": poset_to_text(p)}
            )
    return violations


def run_split_sandwich_scan(count: int, seed: int) -> list[dict]:
    """Check dim(P) <= dim(split(P)) <= dim(P) + 1 on random posets with
    3 <= n <= 7, drawn by _small_random_posets(count, seed, 3)."""
    violations: list[dict] = []
    for i, n, p in _small_random_posets(count, seed, 3):
        dp = exact_dimension(p).d
        ds = exact_dimension(kimble_split(p)).d
        if not dp <= ds <= dp + 1:
            violations.append(
                {"index": i, "n": n, "dim": dp, "split_dim": ds,
                 "poset": poset_to_text(p)}
            )
    return violations


def v1_realizer_dict(n: int, realizer, optimal: bool) -> dict:
    """A realizer in the v1 JSON layout: one full order per member."""
    return {
        "n": n,
        "dimension": len(realizer.extensions),
        "extensions": [list(ext.order) for ext in realizer.extensions],
        "optimal": bool(optimal),
    }


def v2_realizer_dict(n: int, realizer, optimal: bool) -> dict:
    """A realizer in the v2 JSON layout: each distinct order whole, and
    per member its index."""
    return {
        "n": n,
        "dimension": len(realizer),
        "orders": [list(ext.order) for ext in realizer.orders],
        "members": list(realizer.members),
        "optimal": bool(optimal),
    }


def _certificate_dict(cert, realizer_dict) -> dict:
    """A peel certificate, key for key, its realizer in realizer_dict's
    layout."""
    exts = cert.realizer.extensions
    return {
        "steps": [
            {
                "removed": list(rec.removed),
                "q": rec.q,
                "color": rec.color,
                "matrix_rows": rec.matrix.r,
                "matrix": rec.matrix.to_strings(),
                "extensions_built": rec.extensions_built,
                "cleanup_extensions": rec.cleanup_count,
            }
            for rec in cert.steps
        ],
        "base_size": cert.base_size,
        "base_dimension": cert.base_dimension,
        "base_optimal": cert.base_optimal,
        "total_size": cert.total_size,
        "realizer": realizer_dict(len(exts[0]) if exts else 0,
                                  cert.realizer, False),
    }


def v1_certificate_dict(cert) -> dict:
    """A peel certificate in the v1 JSON layout, key for key."""
    return _certificate_dict(cert, v1_realizer_dict)


def v2_certificate_dict(cert) -> dict:
    """A peel certificate in the v2 JSON layout, key for key."""
    return _certificate_dict(cert, v2_realizer_dict)


def v1_realizer_json(n: int, realizer, optimal: bool) -> str:
    """Text the v1 writer gave for a realizer (indent 2)."""
    return json.dumps(v1_realizer_dict(n, realizer, optimal), indent=2)


def v1_certificate_json(cert) -> str:
    """Text the v1 writer gave for a certificate (indent 2)."""
    return json.dumps(v1_certificate_dict(cert), indent=2)


def v2_realizer_json(n: int, realizer, optimal: bool) -> str:
    """Text the v2 writer gave for a realizer (indent 2)."""
    return json.dumps(v2_realizer_dict(n, realizer, optimal), indent=2)


def v2_certificate_json(cert) -> str:
    """Text the v2 writer gave for a certificate (indent 2)."""
    return json.dumps(v2_certificate_dict(cert), indent=2)
