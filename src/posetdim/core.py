"""Finite poset core: bitset relation storage, constructors, generators, splits.

Elements are always the integers 0..n-1.  The strict order is stored
transitively closed, one bitmask row per element for "everything above"
and "everything below", so comparability tests are single word operations
and subset tests on upsets/downsets are bitwise.
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator, NamedTuple

from .errors import CycleError, GenerationExhausted

_MASK64 = (1 << 64) - 1


def derive_seed(seed: int, index: int) -> int:
    """Stable substream seed for (seed, index), via splitmix64 mixing."""
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _shuffled(items: list, rng: random.Random) -> list:
    # Fisher-Yates, spelled out so the sampled sequence is pinned down
    # by this file rather than by the stdlib's shuffle implementation.
    out = list(items)
    for i in range(len(out) - 1, 0, -1):
        j = rng.randrange(i + 1)
        out[i], out[j] = out[j], out[i]
    return out


class Poset:
    """A strict partial order on 0..n-1, stored as its transitive closure.

    Rows handed to the constructor must already be transitively closed and
    irreflexive; use from_relations() to build from arbitrary pairs.
    """

    __slots__ = ("n", "_up", "_down")

    def __init__(self, n: int, up: Iterable[int], down: Iterable[int]):
        self.n = n
        self._up = tuple(up)
        self._down = tuple(down)

    @classmethod
    def from_relations(cls, n: int, pairs: Iterable[tuple[int, int]]) -> Poset:
        """Close the given pairs transitively and validate acyclicity.

        Raises IndexError for out-of-range elements and CycleError if the
        closure would relate any element to itself.
        """
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        up = [0] * n
        for x, y in pairs:
            if not (0 <= x < n and 0 <= y < n):
                raise IndexError(f"relation ({x}, {y}) out of range for n={n}")
            if x == y:
                raise CycleError(f"self-relation ({x}, {x})")
            up[x] |= 1 << y
        # Warshall closure over bitmask rows.
        for k in range(n):
            mask_k = up[k]
            if not mask_k:
                continue
            bit = 1 << k
            for i in range(n):
                if up[i] & bit:
                    up[i] |= mask_k
        down = [0] * n
        for x in range(n):
            if (up[x] >> x) & 1:
                raise CycleError(f"element {x} lies on a cycle")
            rest = up[x]
            bit_x = 1 << x
            while rest:
                low = rest & -rest
                down[low.bit_length() - 1] |= bit_x
                rest ^= low
        return cls(n, up, down)

    # -- elementary queries -------------------------------------------------

    def lt(self, x: int, y: int) -> bool:
        """True iff x < y."""
        return bool((self._up[x] >> y) & 1)

    def leq(self, x: int, y: int) -> bool:
        return x == y or self.lt(x, y)

    def incomparable(self, x: int, y: int) -> bool:
        return x != y and not self.lt(x, y) and not self.lt(y, x)

    def upset(self, x: int) -> frozenset[int]:
        """Strict upset of x."""
        return frozenset(iter_bits(self._up[x]))

    def downset(self, x: int) -> frozenset[int]:
        """Strict downset of x."""
        return frozenset(iter_bits(self._down[x]))

    def upset_mask(self, x: int) -> int:
        return self._up[x]

    def downset_mask(self, x: int) -> int:
        return self._down[x]

    def pairs(self) -> Iterator[tuple[int, int]]:
        """All related pairs (x, y) with x < y, lexicographically."""
        for x in range(self.n):
            for y in iter_bits(self._up[x]):
                yield (x, y)

    def relation_count(self) -> int:
        return sum(m.bit_count() for m in self._up)

    def cover_pairs(self) -> list[tuple[int, int]]:
        """Covering pairs (x, y): x < y with nothing strictly between."""
        out = []
        for x in range(self.n):
            for y in iter_bits(self._up[x]):
                if not (self._up[x] & self._down[y]):
                    out.append((x, y))
        return out

    def minimal_elements(self) -> tuple[int, ...]:
        return tuple(x for x in range(self.n) if not self._down[x])

    def maximal_elements(self) -> tuple[int, ...]:
        return tuple(x for x in range(self.n) if not self._up[x])

    def dual(self) -> Poset:
        """The same ground set with the order reversed."""
        return Poset(self.n, self._down, self._up)

    def height(self) -> int:
        """Number of elements in a longest chain (0 for the empty poset)."""
        if self.n == 0:
            return 0
        h = [0] * self.n
        for x in sorted(range(self.n), key=lambda v: self._down[v].bit_count()):
            best = 0
            for y in iter_bits(self._down[x]):
                if h[y] > best:
                    best = h[y]
            h[x] = best + 1
        return max(h)

    def is_antichain(self, elems: Iterable[int]) -> bool:
        elems = list(elems)
        for i, x in enumerate(elems):
            for y in elems[i + 1:]:
                if not self.incomparable(x, y):
                    return False
        return True

    def restrict(self, keep: Iterable[int]) -> Poset:
        """Induced subposet on the given elements, reindexed in list order.

        Walks only the relations that stay inside keep.
        """
        keep = list(keep)
        index = {v: i for i, v in enumerate(keep)}
        if len(index) != len(keep):
            raise ValueError("duplicate elements in restriction")
        keep_mask = 0
        for v in keep:
            if not 0 <= v < self.n:
                raise IndexError(f"element {v} out of range for n={self.n}")
            keep_mask |= 1 << v
        m = len(keep)
        up = [0] * m
        down = [0] * m
        for i, v in enumerate(keep):
            bit_i = 1 << i
            row = 0
            for w in iter_bits(self._up[v] & keep_mask):
                j = index[w]
                row |= 1 << j
                down[j] |= bit_i
            up[i] = row
        return Poset(m, up, down)

    def check(self) -> None:
        """Assert the stored rows really are a closed strict order."""
        for x in range(self.n):
            assert not (self._up[x] >> x) & 1, f"reflexive at {x}"
            for y in iter_bits(self._up[x]):
                assert (self._down[y] >> x) & 1, f"up/down mismatch {x},{y}"
                assert not (self._up[y] >> x) & 1, f"antisymmetry {x},{y}"
                missing = self._up[y] & ~self._up[x]
                assert not missing, f"closure missing above {x} via {y}"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poset)
            and self.n == other.n
            and self._up == other._up
        )

    def __hash__(self) -> int:
        return hash((self.n, self._up))

    def __repr__(self) -> str:
        return f"Poset(n={self.n}, relations={self.relation_count()})"


def standard_example(m: int) -> Poset:
    """The 2m-element order with a_i < b_j exactly when i != j.

    Elements 0..m-1 are the minimal side (the a's), m..2m-1 the maximal
    side (the b's); its order dimension is exactly m.
    """
    if m < 2:
        raise ValueError(f"standard example needs m >= 2, got {m}")
    n = 2 * m
    up = [0] * n
    down = [0] * n
    b_all = ((1 << m) - 1) << m
    a_all = (1 << m) - 1
    for i in range(m):
        up[i] = b_all & ~(1 << (m + i))
        down[m + i] = a_all & ~(1 << i)
    return Poset(n, up, down)


class Embedding(NamedTuple):
    """An induced copy of a standard example inside a host poset.

    b_elems[i] is the partner of a_elems[i]: the unique maximal-side
    element incomparable to it.
    """

    a_elems: tuple[int, ...]
    b_elems: tuple[int, ...]


def embedding_valid(p: Poset, emb: Embedding) -> bool:
    """Re-check that emb really is an induced standard example in p."""
    k = len(emb.a_elems)
    if k != len(emb.b_elems) or k < 2:
        return False
    elems = list(emb.a_elems) + list(emb.b_elems)
    if len(set(elems)) != 2 * k:
        return False
    if not p.is_antichain(emb.a_elems) or not p.is_antichain(emb.b_elems):
        return False
    for i, a in enumerate(emb.a_elems):
        for j, b in enumerate(emb.b_elems):
            if i == j:
                if not p.incomparable(a, b):
                    return False
            elif not p.lt(a, b):
                return False
    return True


class BipartitePoset:
    """A height-at-most-2 poset with an ordered bipartition (A, B).

    Every related pair runs from A into B.  a_order and b_order fix a
    linear order on each side; several constructions depend on it.
    """

    __slots__ = ("poset", "a_order", "b_order", "a_mask", "b_mask", "a_pos")

    def __init__(self, poset: Poset, a_order: Iterable[int], b_order: Iterable[int]):
        self.poset = poset
        self.a_order = tuple(a_order)
        self.b_order = tuple(b_order)
        n = poset.n
        for side, order in (("A", self.a_order), ("B", self.b_order)):
            for x in order:
                if not 0 <= x < n:
                    raise ValueError(f"{side}-side id {x} is outside 0..{n - 1}")
        a_mask = 0
        for x in self.a_order:
            a_mask |= 1 << x
        b_mask = 0
        for x in self.b_order:
            b_mask |= 1 << x
        self.a_mask = a_mask
        self.b_mask = b_mask
        # position of each A-side element in a_order
        self.a_pos = {x: i for i, x in enumerate(self.a_order)}
        self._validate()

    def _validate(self) -> None:
        n = self.poset.n
        if len(self.a_order) + len(self.b_order) != n:
            raise ValueError("bipartition does not cover the ground set")
        if self.a_mask & self.b_mask:
            raise ValueError("bipartition sides overlap")
        if (self.a_mask | self.b_mask) != (1 << n) - 1:
            raise ValueError("bipartition misses elements")
        for x in self.a_order:
            if self.poset.downset_mask(x):
                raise ValueError(f"A-side element {x} has something below it")
        for y in self.b_order:
            if self.poset.upset_mask(y):
                raise ValueError(f"B-side element {y} has something above it")

    def a_position(self, x: int) -> int:
        """Index of x in a_order; ValueError if x is not on the A side."""
        try:
            return self.a_pos[x]
        except KeyError:
            raise ValueError(f"{x} is not on the A side") from None

    def dual(self) -> BipartitePoset:
        """Swap the two sides and reverse the order relation."""
        return BipartitePoset(self.poset.dual(), self.b_order, self.a_order)

    def remove(self, elems: Iterable[int]) -> tuple[BipartitePoset, tuple[int, ...]]:
        """Drop elements, returning the reindexed remainder and the map
        from new indices back to the old ones (side orders inherited)."""
        gone = set(elems)
        keep = [v for v in range(self.poset.n) if v not in gone]
        sub = self.poset.restrict(keep)
        index = {v: i for i, v in enumerate(keep)}
        a_new = [index[v] for v in self.a_order if v not in gone]
        b_new = [index[v] for v in self.b_order if v not in gone]
        return BipartitePoset(sub, a_new, b_new), tuple(keep)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BipartitePoset)
            and self.poset == other.poset
            and self.a_order == other.a_order
            and self.b_order == other.b_order
        )

    def __hash__(self) -> int:
        return hash((self.poset, self.a_order, self.b_order))

    def __repr__(self) -> str:
        return (
            f"BipartitePoset(|A|={len(self.a_order)}, |B|={len(self.b_order)}, "
            f"relations={self.poset.relation_count()})"
        )


def bipartition(p: Poset) -> BipartitePoset | None:
    """View p as a bipartite poset if its height allows it.

    A collects the non-maximal elements plus the isolated ones, B the
    rest; both sides are ordered by ascending element index.  Returns
    None when the height exceeds 2.
    """
    if p.height() > 2:
        return None
    a = []
    b = []
    for x in range(p.n):
        # non-maximal elements and isolated elements go to A
        if p.upset_mask(x) or not p.downset_mask(x):
            a.append(x)
        else:
            b.append(x)
    return BipartitePoset(p, a, b)


def standard_example_bipartite(m: int) -> BipartitePoset:
    """standard_example(m) together with its canonical bipartition."""
    bp = bipartition(standard_example(m))
    assert bp is not None
    return bp


def find_standard_example(p: Poset, k: int) -> Embedding | None:
    """Search for an induced standard example on 2k elements.

    Exhaustive backtracking over antichains for the minimal side; for
    each one the partner candidates per position are forced, and the
    maximal side is completed position by position.  Returns the
    lexicographically first embedding under (a_elems, b_elems) order,
    or None when the poset is free of them.
    """
    if k < 2:
        raise ValueError(f"standard example size must be >= 2, got {k}")
    n = p.n
    if 2 * k > n:
        return None
    up = p._up
    down = p._down
    # a_i must end up below the k-1 partners of the other positions.
    cand = [x for x in range(n) if up[x].bit_count() >= k - 1]

    def complete_b(masks: list[int]) -> tuple[int, ...] | None:
        chosen: list[int] = []
        banned: list[int] = [0] * (k + 1)

        def extend(pos: int) -> bool:
            if pos == k:
                return True
            avail = masks[pos] & ~banned[pos]
            for b in iter_bits(avail):
                chosen.append(b)
                banned[pos + 1] = banned[pos] | up[b] | down[b] | (1 << b)
                if extend(pos + 1):
                    return True
                chosen.pop()
            return False

        return tuple(chosen) if extend(0) else None

    a_partial: list[int] = []

    def extend_a(start: int) -> Embedding | None:
        if len(a_partial) == k:
            masks = []
            for i, a in enumerate(a_partial):
                m = (1 << n) - 1
                for j, other in enumerate(a_partial):
                    if j != i:
                        m &= up[other]
                m &= ~(up[a] | down[a] | (1 << a))
                if not m:
                    return None
                masks.append(m)
            b_elems = complete_b(masks)
            if b_elems is None:
                return None
            return Embedding(tuple(a_partial), b_elems)
        for x in range(start, n):
            if x not in cand_set:
                continue
            ok = True
            for a in a_partial:
                if not p.incomparable(a, x):
                    ok = False
                    break
                # every pair of a's needs a common cover for the third
                # partner position, once k >= 3
                if k >= 3 and not (up[a] & up[x]):
                    ok = False
                    break
            if not ok:
                continue
            a_partial.append(x)
            found = extend_a(x + 1)
            if found is not None:
                return found
            a_partial.pop()
        return None

    cand_set = set(cand)
    return extend_a(0)


def kimble_split(p: Poset) -> Poset:
    """Split every element x into a minimal copy x' and a maximal copy x''.

    On ground set 0..2n-1 (x' = x, x'' = n + x), the only relations are
    x' < y'' whenever x <= y in the input.  The result is bipartite and
    its dimension sandwiches the input's: dim(p) <= dim(split) <= dim(p)+1.
    """
    n = p.n
    up = [0] * (2 * n)
    down = [0] * (2 * n)
    for x in range(n):
        up[x] = (p._up[x] | (1 << x)) << n
    for y in range(n):
        down[n + y] = p._down[y] | (1 << y)
    return Poset(2 * n, up, down)


def random_poset(n: int, edge_prob: float, seed: int) -> Poset:
    """Random order: pick a random permutation as a topological order and
    keep each forward pair independently with probability edge_prob, then
    close transitively.  Fully determined by the seed."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if not (0.0 <= edge_prob <= 1.0):
        raise ValueError("edge_prob must lie in [0, 1]")
    rng = random.Random(seed)
    perm = _shuffled(list(range(n)), rng)
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_prob:
                pairs.append((perm[i], perm[j]))
    return Poset.from_relations(n, pairs)


def random_bipartite(na: int, nb: int, edge_prob: float, seed: int) -> BipartitePoset:
    """Random bipartite order on A = 0..na-1, B = na..na+nb-1: each pair
    (a, b) is related with probability edge_prob, drawn in ascending
    (a, b) order from the seeded generator."""
    if na < 0 or nb < 0:
        raise ValueError("side sizes must be >= 0")
    if not (0.0 <= edge_prob <= 1.0):
        raise ValueError("edge_prob must lie in [0, 1]")
    rng = random.Random(seed)
    n = na + nb
    pairs = []
    for a in range(na):
        for b in range(na, n):
            if rng.random() < edge_prob:
                pairs.append((a, b))
    poset = Poset.from_relations(n, pairs)
    return BipartitePoset(poset, range(na), range(na, n))


def random_skfree_bipartite(
    na: int,
    nb: int,
    edge_prob: float,
    k: int,
    seed: int,
    max_tries: int = 200,
) -> BipartitePoset:
    """Rejection-sample random bipartite posets until one contains no
    standard example on 2k elements.  Raises GenerationExhausted when
    every try contained one."""
    for t in range(max_tries):
        bp = random_bipartite(na, nb, edge_prob, derive_seed(seed, t))
        if find_standard_example(bp.poset, k) is None:
            return bp
    raise GenerationExhausted(
        f"no S_{k}-free bipartite poset in {max_tries} tries "
        f"(na={na}, nb={nb}, edge_prob={edge_prob}, seed={seed})"
    )


# -- text format ------------------------------------------------------------
#
# POSET v1: line-oriented, '#' starts a comment, blank lines ignored.
#   poset <n>
#   rel <i> <j>        (any generating set; the reader closes it)
#   A: <i...>          (optional, together with B: marks a bipartition)
#   B: <j...>
# The writer emits only covering pairs, sorted lexicographically.


def poset_to_text(obj: Poset | BipartitePoset) -> str:
    """Serialize to POSET v1 text."""
    if isinstance(obj, BipartitePoset):
        p = obj.poset
        sides = (obj.a_order, obj.b_order)
    else:
        p = obj
        sides = None
    lines = [f"poset {p.n}"]
    for x, y in sorted(p.cover_pairs()):
        lines.append(f"rel {x} {y}")
    if sides is not None:
        lines.append("A: " + " ".join(str(x) for x in sides[0]))
        lines.append("B: " + " ".join(str(x) for x in sides[1]))
    return "\n".join(lines) + "\n"


MAX_TEXT_N = 65_536  # largest header n: the reader allocates n rows up front


def poset_from_text(text: str) -> Poset | BipartitePoset:
    """Parse POSET v1 text; returns a BipartitePoset when side lines appear.

    Malformed lines and a header n above MAX_TEXT_N raise ValueError
    naming the line.
    """
    n = None
    pairs: list[tuple[int, int]] = []
    sides: dict[str, list[int]] = {}  # "A:" / "B:" -> listed ids
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, *args = line.split()
        if head not in ("poset", "rel", "A:", "B:"):
            raise ValueError(f"line {lineno}: unknown directive {head!r}")
        try:
            ids = [int(v) for v in args]
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer token in {line!r}") from None
        if head == "poset":
            if n is not None:
                raise ValueError(f"line {lineno}: duplicate poset header")
            if len(ids) != 1:
                raise ValueError(f"line {lineno}: malformed poset header")
            n = ids[0]
            if n > MAX_TEXT_N:
                raise ValueError(f"line {lineno}: header n={n} exceeds {MAX_TEXT_N}")
        elif head == "rel":
            if n is None:
                raise ValueError(f"line {lineno}: rel before poset header")
            if len(ids) != 2:
                raise ValueError(f"line {lineno}: malformed rel line")
            pairs.append((ids[0], ids[1]))
        else:
            if head in sides:
                raise ValueError(f"line {lineno}: duplicate {head} line")
            sides[head] = ids
    if n is None:
        raise ValueError("missing poset header")
    p = Poset.from_relations(n, pairs)
    if not sides:
        return p
    return BipartitePoset(p, sides.get("A:", []), sides.get("B:", []))


def load_poset(path) -> Poset | BipartitePoset:
    with open(path, "r", encoding="utf-8") as fh:
        return poset_from_text(fh.read())


def save_poset(path, obj: Poset | BipartitePoset) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(poset_to_text(obj))
