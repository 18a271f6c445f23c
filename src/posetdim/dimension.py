"""Order dimension: critical pairs, realizers, exact and brute-force solvers.

A family of linear extensions realizes a poset exactly when every critical
pair is reversed in some member, so everything here is organized around
critical pairs and reversibility of pair sets.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, NamedTuple, Sequence

from .core import Poset, iter_bits
from .errors import (
    BudgetExceeded,
    ComparablePairError,
    NotAnExtension,
    TooLarge,
)


class CriticalPair(NamedTuple):
    x: int
    y: int


@dataclass(frozen=True)
class LinearExtension:
    """A linear order on 0..n-1, listed bottom to top."""

    order: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "order", tuple(self.order))

    def positions(self) -> list[int]:
        pos = [0] * len(self.order)
        for i, v in enumerate(self.order):
            pos[v] = i
        return pos

    def reversed_copy(self) -> LinearExtension:
        return LinearExtension(tuple(reversed(self.order)))

    def __len__(self) -> int:
        return len(self.order)


@dataclass(frozen=True)
class Realizer:
    extensions: tuple[LinearExtension, ...]

    def __post_init__(self):
        object.__setattr__(self, "extensions", tuple(self.extensions))

    def __len__(self) -> int:
        return len(self.extensions)


@dataclass
class DimensionResult:
    d: int
    witness: Realizer
    optimal: bool


class _Closure:
    """Mutable transitive closure of a poset plus reversal edges."""

    __slots__ = ("n", "up", "down")

    def __init__(self, p: Poset):
        self.n = p.n
        self.up = list(p._up)
        self.down = list(p._down)

    def copy(self) -> _Closure:
        c = object.__new__(_Closure)
        c.n = self.n
        c.up = self.up[:]
        c.down = self.down[:]
        return c

    def add_below(self, lo: int, hi: int) -> bool:
        """Add lo < hi; False (and no change) if that closes a cycle."""
        if (self.up[hi] >> lo) & 1:
            return False
        if (self.up[lo] >> hi) & 1:
            return True
        up_hi = self.up[hi] | (1 << hi)
        down_lo = self.down[lo] | (1 << lo)
        up = self.up
        down = self.down
        rest = down_lo
        while rest:
            low = rest & -rest
            up[low.bit_length() - 1] |= up_hi
            rest ^= low
        rest = up_hi
        while rest:
            low = rest & -rest
            down[low.bit_length() - 1] |= down_lo
            rest ^= low
        return True

    def extension(self) -> tuple[int, ...]:
        """Topological order, lowest available index first."""
        n = self.n
        down = self.down
        emitted = 0
        order = []
        todo = list(range(n))
        while todo:
            for k, v in enumerate(todo):
                if not (down[v] & ~emitted):
                    order.append(v)
                    emitted |= 1 << v
                    del todo[k]
                    break
            else:
                raise AssertionError("cycle in closure")
        return tuple(order)


def critical_pairs(p: Poset, touching: int | None = None) -> list[CriticalPair]:
    """Critical pairs (x, y): incomparable, D(x) within D(y), U(y) within
    U(x).  Reversing exactly these characterizes realizers.

    With a bitmask touching, only pairs with x or y in the mask are
    listed, at O(|mask| * n) cost for the rows outside it.
    Lexicographic order.
    """
    n = p.n
    up = p._up
    down = p._down
    everyone = (1 << n) - 1
    if touching is None:
        touching = everyone
    out = []
    for x in range(n):
        ux, dx = up[x], down[x]
        ys = everyone if (touching >> x) & 1 else touching
        for y in iter_bits(ys & ~(ux | dx | (1 << x))):
            if dx & ~down[y] or up[y] & ~ux:
                continue
            out.append(CriticalPair(x, y))
    return out


def reverses(ext: LinearExtension, pair: tuple[int, int]) -> bool:
    """True iff ext puts pair's second element below its first."""
    pos = ext.positions()
    return pos[pair[1]] < pos[pair[0]]


def _is_permutation(order: Sequence[int], n: int) -> bool:
    return len(order) == n and set(order) == set(range(n))


def check_extension(p: Poset, ext: LinearExtension) -> None:
    """Raise NotAnExtension unless ext is a linear extension of p."""
    order = ext.order
    if not _is_permutation(order, p.n):
        raise NotAnExtension(
            f"order of length {len(order)} is not a permutation of 0..{p.n - 1}"
        )
    down = p._down
    emitted = 0
    for v in order:
        missing = down[v] & ~emitted
        if missing:
            w = next(iter_bits(missing))
            raise NotAnExtension(
                f"{w} < {v} in the poset but {v} is listed first", pair=(w, v)
            )
        emitted |= 1 << v


def is_realizer(
    p: Poset, extensions: Sequence[LinearExtension]
) -> tuple[bool, list[CriticalPair]]:
    """Does the family realize p, i.e. is p the intersection of its orders?

    Walks each distinct member top-down once, intersecting the sets of
    elements listed above every x; the family realizes p exactly when
    those intersections are p's up-sets.  Returns (ok, unreversed
    critical pairs in lexicographic order).  Raises NotAnExtension if a
    member is not a linear extension of p.
    """
    n = p.n
    inter = [(1 << n) - 1] * n  # above x in every member seen so far
    seen: set[tuple[int, ...]] = set()
    for ext in extensions:
        order = ext.order
        if order in seen:
            continue
        if not _is_permutation(order, n):
            break
        seen.add(order)
        above = 0
        for v in reversed(order):
            inter[v] &= above
            above |= 1 << v
    else:
        if inter == list(p._up):
            return True, []
    for ext in extensions:
        check_extension(p, ext)
    # every member is an extension, so (x, y) is reversed in some member
    # exactly when y dropped out of inter[x]
    unreversed = [c for c in critical_pairs(p) if (inter[c.x] >> c.y) & 1]
    return False, unreversed


def is_reversible(
    p: Poset, pairs: Iterable[tuple[int, int]]
) -> tuple[bool, LinearExtension | None]:
    """Can one linear extension reverse every pair in the set?

    True exactly when the poset plus all reversal edges stays acyclic;
    the witness is the lowest-index-first topological order of that
    augmented relation.  Raises ComparablePairError if some pair is
    comparable (reversing it is meaningless).
    """
    pairs = list(pairs)
    for x, y in pairs:
        if not p.incomparable(x, y):
            raise ComparablePairError(f"pair ({x}, {y}) is comparable")
    cl = _Closure(p)
    for x, y in pairs:
        if not cl.add_below(y, x):
            return False, None
    return True, LinearExtension(cl.extension())


def greedy_reversing_extensions(
    p: Poset, pairs: Sequence[tuple[int, int]]
) -> list[LinearExtension]:
    """Cover the given incomparable pairs with few extensions, greedily.

    Each round packs a maximal reversible subset (first come first
    served) into one extension and drops everything that extension
    happens to reverse.
    """
    remaining = [tuple(pr) for pr in pairs]
    out: list[LinearExtension] = []
    while remaining:
        cl = _Closure(p)
        for x, y in remaining:
            cl.add_below(y, x)
        ext = LinearExtension(cl.extension())
        out.append(ext)
        pos = ext.positions()
        still = [(x, y) for x, y in remaining if not pos[y] < pos[x]]
        if len(still) == len(remaining):
            raise AssertionError("greedy cover made no progress")
        remaining = still
    return out


_CONFLICT_PAIR_CAP = 2000
_SEARCH_PAIR_CAP = 4000


class _OutOfBudget(Exception):
    pass


def exact_dimension(p: Poset, budget: int | None = None) -> DimensionResult:
    """Exact order dimension with a realizer witness.

    Critical pairs are assigned to color classes that must each stay
    reversible; iterative deepening runs from a clique lower bound on
    the pairwise-conflict graph, exploring pairs in descending
    conflict-degree order with first-empty-class symmetry breaking.

    budget caps the number of search node expansions; when it runs out
    before optimality is settled, BudgetExceeded is raised carrying the
    best known (valid, possibly non-optimal) result in .best.
    """
    cps = critical_pairs(p)
    if not cps:
        cl = _Closure(p)
        ext = LinearExtension(cl.extension())
        return DimensionResult(1, Realizer((ext,)), True)

    m = len(cps)
    leq = p.leq
    have_conflicts = m <= _CONFLICT_PAIR_CAP
    conf: list[int] = [0] * m
    if have_conflicts:
        # pairs i, j clash iff the only possible cycle through both
        # reversal edges exists: x_i <= y_j and x_j <= y_i
        for i in range(m):
            xi, yi = cps[i]
            for j in range(i + 1, m):
                xj, yj = cps[j]
                if leq(xi, yj) and leq(xj, yi):
                    conf[i] |= 1 << j
                    conf[j] |= 1 << i
        order = sorted(range(m), key=lambda i: -conf[i].bit_count())
    else:
        order = list(range(m))

    # greedy first-fit: upper bound plus fallback witness
    classes: list[_Closure] = []
    members: list[list[int]] = []
    for i in order:
        x, y = cps[i]
        for c, cl in enumerate(classes):
            if cl.add_below(y, x):
                members[c].append(i)
                break
        else:
            cl = _Closure(p)
            cl.add_below(y, x)
            classes.append(cl)
            members.append([i])
    greedy_exts = tuple(LinearExtension(cl.extension()) for cl in classes)
    greedy = DimensionResult(len(classes), Realizer(greedy_exts), False)

    # clique on the conflict graph lower-bounds the dimension
    lower = 2
    if have_conflicts:
        best_clique = 0
        for seed_v in sorted(range(m), key=lambda i: -conf[i].bit_count())[:12]:
            clique_mask = 1 << seed_v
            common = conf[seed_v]
            size = 1
            while common:
                v = max(iter_bits(common), key=lambda u: (conf[u] & common).bit_count())
                clique_mask |= 1 << v
                common &= conf[v]
                size += 1
            best_clique = max(best_clique, size)
        lower = max(lower, best_clique)

    if greedy.d <= lower:
        greedy.optimal = True
        return greedy

    if m > _SEARCH_PAIR_CAP:
        raise BudgetExceeded(
            f"{m} critical pairs exceed the exhaustive search cap", best=greedy
        )
    if sys.getrecursionlimit() < m + 200:
        sys.setrecursionlimit(m + 200)

    nodes_left = [budget if budget is not None else -1]

    def search(d: int) -> list[list[int]] | None:
        class_cl: list[_Closure] = [_Closure(p) for _ in range(d)]
        class_conf = [0] * d
        class_members: list[list[int]] = [[] for _ in range(d)]

        def place(idx: int) -> bool:
            if idx == m:
                return True
            i = order[idx]
            x, y = cps[i]
            bit = 1 << i
            opened = False
            for c in range(d):
                if not class_members[c]:
                    if opened:
                        break
                    opened = True
                elif have_conflicts and class_conf[c] & bit:
                    continue
                if nodes_left[0] == 0:
                    raise _OutOfBudget
                if nodes_left[0] > 0:
                    nodes_left[0] -= 1
                saved = class_cl[c].copy()
                if class_cl[c].add_below(y, x):
                    class_members[c].append(i)
                    old_conf = class_conf[c]
                    class_conf[c] |= conf[i]
                    if place(idx + 1):
                        return True
                    class_conf[c] = old_conf
                    class_members[c].pop()
                class_cl[c] = saved
            return False

        if place(0):
            return [mem for mem in class_members if mem]
        return None

    try:
        for d in range(max(lower, 2), greedy.d):
            solution = search(d)
            if solution is not None:
                exts = []
                for mem in solution:
                    cl = _Closure(p)
                    for i in mem:
                        x, y = cps[i]
                        ok = cl.add_below(y, x)
                        assert ok
                    exts.append(LinearExtension(cl.extension()))
                return DimensionResult(len(exts), Realizer(tuple(exts)), True)
    except _OutOfBudget:
        raise BudgetExceeded(
            f"search budget {budget} exhausted; best known dimension {greedy.d}",
            best=greedy,
        ) from None

    # every smaller d failed exhaustively, so the greedy witness is optimal
    greedy.optimal = True
    return greedy


def all_linear_extensions(p: Poset) -> list[tuple[int, ...]]:
    """Every linear extension, by backtracking (small posets only)."""
    if p.n > 10:
        raise TooLarge(f"refusing to enumerate extensions for n={p.n}")
    n = p.n
    down = p._down
    out: list[tuple[int, ...]] = []
    prefix: list[int] = []

    def extend(used: int):
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        for v in range(n):
            if (used >> v) & 1 or down[v] & ~used:
                continue
            prefix.append(v)
            extend(used | (1 << v))
            prefix.pop()

    extend(0)
    return out


def brute_force_dimension(p: Poset) -> int:
    """Reference dimension by exhausting subsets of linear extensions.

    Enumerates every linear extension, dedupes by reversed-critical-pair
    mask, and looks for the smallest family whose masks cover all
    critical pairs.  Hard-capped at n <= 7.
    """
    if p.n > 7:
        raise TooLarge(f"brute force dimension is capped at n=7, got n={p.n}")
    cps = critical_pairs(p)
    if not cps:
        return 1
    m = len(cps)
    full = (1 << m) - 1
    masks: list[int] = []
    seen: set[int] = set()
    for order in all_linear_extensions(p):
        pos = [0] * p.n
        for i, v in enumerate(order):
            pos[v] = i
        mask = 0
        for i, (x, y) in enumerate(cps):
            if pos[y] < pos[x]:
                mask |= 1 << i
        if mask not in seen:
            seen.add(mask)
            masks.append(mask)
    for d in range(1, len(masks) + 1):
        for combo in combinations(masks, d):
            acc = 0
            for msk in combo:
                acc |= msk
            if acc == full:
                return d
    raise AssertionError("the full extension set always realizes the poset")


# -- realizer JSON ------------------------------------------------------------


def realizer_to_json_dict(n: int, realizer: Realizer, optimal: bool) -> dict:
    return {
        "n": n,
        "dimension": len(realizer.extensions),
        "extensions": [list(ext.order) for ext in realizer.extensions],
        "optimal": bool(optimal),
    }


def realizer_from_json_dict(data) -> tuple[int, Realizer, bool]:
    """Parse a realizer dict; ValueError if it is not shaped like one."""
    if not isinstance(data, dict):
        raise ValueError(
            f"realizer JSON must be an object, got {type(data).__name__}"
        )
    for key in ("n", "extensions", "optimal"):
        if key not in data:
            raise ValueError(f"realizer JSON lacks the {key!r} key")
    n, rows = data["n"], data["extensions"]
    if type(n) is not int or n < 0:
        raise ValueError(
            f"realizer 'n' must be a non-negative integer, got {n!r}"
        )
    # type() is exact, so bools and floats are refused along with strings
    if not isinstance(rows, list) or not all(
        isinstance(row, list) and set(map(type, row)) <= {int} for row in rows
    ):
        raise ValueError("realizer 'extensions' must be a list of integer lists")
    exts = tuple(LinearExtension(tuple(row)) for row in rows)
    return n, Realizer(exts), bool(data["optimal"])


def realizer_to_json(n: int, realizer: Realizer, optimal: bool) -> str:
    return json.dumps(realizer_to_json_dict(n, realizer, optimal), indent=2)


def realizer_from_json(text: str) -> tuple[int, Realizer, bool]:
    return realizer_from_json_dict(json.loads(text))
