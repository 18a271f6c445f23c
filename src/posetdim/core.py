"""Finite poset core: bitset relation storage, constructors, generators, splits.

Elements are always the integers 0..n-1.  The strict order is stored
transitively closed, one bitmask row per element for "everything above"
and "everything below", so comparability tests are single word operations
and subset tests on upsets/downsets are bitwise.
"""

from __future__ import annotations

import random
from itertools import compress, count
from typing import Iterable, Iterator, NamedTuple, Sequence

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


_BIT_TABLE = bytes.maketrans(b"01", b"\0\1")


def _bits(mask: int) -> list[int]:
    """list(iter_bits(mask)) for mask >= 0, read in C off its digits: far
    faster on a dense mask, slower on a sparse one.  Use iter_bits for a
    sparse mask or where the first bits are enough; rows of mixed
    density, as in the conflict graph's gather, are not slower."""
    return list(compress(count(), bin(mask)[:1:-1].encode().translate(_BIT_TABLE)))


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
        relations contain a cycle.
        """
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        succ = [0] * n
        pred = [0] * n
        for x, y in pairs:
            if not (0 <= x < n and 0 <= y < n):
                raise IndexError(f"relation ({x}, {y}) out of range for n={n}")
            if x == y:
                raise CycleError(f"self-relation ({x}, {x})")
            succ[x] |= 1 << y
            pred[y] |= 1 << x
        # Kahn's topological order; elements never freed lie on or above a cycle
        indegree = [m.bit_count() for m in pred]
        order = [x for x in range(n) if not indegree[x]]
        for x in order:
            for y in iter_bits(succ[x]):
                indegree[y] -= 1
                if not indegree[y]:
                    order.append(y)
        if len(order) < n:
            x = next(x for x in range(n) if indegree[x])
            raise CycleError(f"element {x} lies on or above a cycle")
        # close along the order: up-rows from the top, down-rows from the bottom
        up = [0] * n
        for x in reversed(order):
            row = succ[x]
            for y in iter_bits(succ[x]):
                row |= up[y]
            up[x] = row
        down = [0] * n
        for y in order:
            row = pred[y]
            for x in iter_bits(pred[y]):
                row |= down[x]
            down[y] = row
        return cls(n, up, down)

    # -- elementary queries -------------------------------------------------

    def lt(self, x: int, y: int) -> bool:
        """True iff x < y."""
        return bool((self._up[x] >> y) & 1)

    def incomparable(self, x: int, y: int) -> bool:
        return x != y and not self.lt(x, y) and not self.lt(y, x)

    def upset_mask(self, x: int) -> int:
        return self._up[x]

    def downset_mask(self, x: int) -> int:
        return self._down[x]

    def relation_count(self) -> int:
        return sum(m.bit_count() for m in self._up)

    def cover_pairs(self) -> list[tuple[int, int]]:
        """Covering pairs (x, y): x < y with nothing strictly between, in
        lexicographic order."""
        out = []
        for x in range(self.n):
            for y in iter_bits(self._up[x]):
                if not (self._up[x] & self._down[y]):
                    out.append((x, y))
        return out

    def dual(self) -> Poset:
        """The same ground set with the order reversed."""
        return Poset(self.n, self._down, self._up)

    def height(self) -> int:
        """Number of elements in a longest chain (0 for the empty poset)."""
        h = [0] * self.n
        for x in sorted(range(self.n), key=lambda v: self._down[v].bit_count()):
            best = 0
            for y in iter_bits(self._down[x]):
                if h[y] > best:
                    best = h[y]
            h[x] = best + 1
        return max(h, default=0)

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


class BipartitePoset:
    """A height-at-most-2 poset with an ordered bipartition (A, B).

    Every related pair runs from A into B.  a_order and b_order fix a
    linear order on each side; several constructions depend on it.  The
    sides cover poset, or only a_mask | b_mask in a host from _without,
    whose rows are its input's: there a B element's down row is read
    only through & a_mask, and floor lists the elements taken out, as
    every order built on the host begins.  Elsewhere floor is ().
    """

    __slots__ = ("poset", "a_order", "b_order", "a_mask", "b_mask", "floor")

    def __init__(self, poset: Poset, a_order: Iterable[int], b_order: Iterable[int]):
        self.poset = poset
        self.floor = ()
        self.a_order = tuple(a_order)
        self.b_order = tuple(b_order)
        n = poset.n
        masks = []
        for side, order in (("A", self.a_order), ("B", self.b_order)):
            mask = 0
            for x in order:
                if not 0 <= x < n:
                    raise ValueError(f"{side}-side id {x} is outside 0..{n - 1}")
                mask |= 1 << x
            masks.append(mask)
        self.a_mask, self.b_mask = masks
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

    def dual(self) -> BipartitePoset:
        """Swap the two sides and reverse the order relation."""
        return BipartitePoset(self.poset.dual(), self.b_order, self.a_order)

    def _without(self, elems: Iterable[int]) -> BipartitePoset:
        """This host less some A-side elements, sharing its poset: they
        leave A and the ground a_mask | b_mask but keep their rows, so a
        B element's down row is read only through & a_mask.  They join
        the floor on top of this host's, in descending a_order: removed
        sets stack bottom-up under every extension built later."""
        gone = sum(1 << a for a in set(elems))
        if gone & ~self.a_mask:
            raise ValueError("only A-side elements can be taken out of a host")
        host = object.__new__(BipartitePoset)
        host.poset, host.b_order, host.b_mask = self.poset, self.b_order, self.b_mask
        host.floor = self.floor + tuple(
            a for a in reversed(self.a_order) if (gone >> a) & 1)
        host.a_order = tuple(a for a in self.a_order if not (gone >> a) & 1)
        host.a_mask = self.a_mask & ~gone
        return host

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
    return BipartitePoset(standard_example(m), range(m), range(m, 2 * m))


def _join(masks: list[int], common: int, ux: int) -> tuple[list[int], int]:
    above = common & ux
    return [m & ux for m in masks] + [common ^ above], above


def mate_masks(up: Sequence[int], elems: Iterable[int], universe: int) -> list[int]:
    """The mates within universe of each position of an antichain elems.

    A mate of x is above every other element and not above x, so it is
    incomparable to x once elems has two.  Folded one element at a time:
    while the positions so far all lie below common, an element with up
    row ux (_join) keeps the mates above it and adds its own, common & ~ux.
    Mates of different positions are distinct and incomparable, since
    b_i <= b_j would put a_j below its own mate b_j.
    """
    masks, common = [], universe
    for x in elems:
        masks, common = _join(masks, common, up[x])
    return masks


def find_standard_example(p: Poset, k: int) -> Embedding | None:
    """Search for an induced standard example on 2k elements.

    Exhaustive backtracking over antichains for the minimal side, walking
    the candidates still incomparable to every chosen element as one
    ascending bitmask and carrying their mate_masks; a stack of frames
    (avail, chosen, masks, common) resumes each avail after the frame it
    opened.  A candidate stays only while every position has a mate and,
    before the k-th, some element is above all of them, as a partner
    still to come must be; the k-th completes the embedding with the
    lowest mate of each.  Returns the lexicographically first embedding
    under (a_elems, b_elems) order, or None when the poset is free of them.
    """
    if k < 2:
        raise ValueError(f"standard example size must be >= 2, got {k}")
    n = p.n
    if 2 * k > n:
        return None
    up = p._up
    down = p._down
    # a_i must end up below the k-1 partners of the other positions.
    cand = sum(1 << x for x in range(n) if up[x].bit_count() >= k - 1)
    stack = [(cand, (), [], (1 << n) - 1)]
    while stack:
        avail, chosen, masks, common = stack.pop()
        last = len(chosen) == k - 1
        while avail:
            low = avail & -avail
            avail ^= low
            x = low.bit_length() - 1
            ux = up[x]
            above = common & ux
            # x needs a mate, and before the k-th position room above it
            if above == common or not (above or last):
                continue
            for m in masks:
                if not m & ux:
                    break
            else:
                grown, above = _join(masks, common, ux)
                if last:
                    return Embedding(chosen + (x,), tuple(
                        (m & -m).bit_length() - 1 for m in grown))
                stack.append((avail, chosen, masks, common))
                stack.append((avail & ~(ux | down[x]), chosen + (x,), grown, above))
                break  # into the frame just opened
    return None


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
    (a, b) order from the seeded generator.  The rows are built as
    drawn: relations of height 2 are already closed and acyclic."""
    if na < 0 or nb < 0:
        raise ValueError("side sizes must be >= 0")
    if not (0.0 <= edge_prob <= 1.0):
        raise ValueError("edge_prob must lie in [0, 1]")
    draw = random.Random(seed).random
    n = na + nb
    up, down = [0] * n, [0] * n
    for a in range(na):
        for b in range(na, n):
            if draw() < edge_prob:
                up[a] |= 1 << b
                down[b] |= 1 << a
    return BipartitePoset(Poset(n, up, down), range(na), range(na, n))


_SKFREE_TRIES = 200  # draws random_skfree_bipartite rejects at most


def random_skfree_bipartite(
    na: int, nb: int, edge_prob: float, k: int, seed: int
) -> BipartitePoset:
    """Rejection-sample random bipartite posets until one contains no
    standard example on 2k elements.  Raises GenerationExhausted when
    all _SKFREE_TRIES draws contained one."""
    for t in range(_SKFREE_TRIES):
        bp = random_bipartite(na, nb, edge_prob, derive_seed(seed, t))
        if find_standard_example(bp.poset, k) is None:
            return bp
    raise GenerationExhausted(
        f"no S_{k}-free bipartite poset in {_SKFREE_TRIES} tries "
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


MAX_TEXT_N = 65_536  # largest header n: the reader allocates n rows up front


def _check_text_n(n: int) -> None:
    """ValueError naming n unless a POSET v1 file may hold n elements."""
    if n > MAX_TEXT_N:
        raise ValueError(f"n={n} exceeds the poset file cap of {MAX_TEXT_N}")


def poset_to_text(obj: Poset | BipartitePoset) -> str:
    """Serialize to POSET v1 text; an n above MAX_TEXT_N, which the reader
    refuses, is a ValueError."""
    if isinstance(obj, BipartitePoset):
        p = obj.poset
        sides = (obj.a_order, obj.b_order)
    else:
        p = obj
        sides = None
    _check_text_n(p.n)
    lines = [f"poset {p.n}"]
    for x, y in p.cover_pairs():
        lines.append(f"rel {x} {y}")
    if sides is not None:
        lines.append("A: " + " ".join(str(x) for x in sides[0]))
        lines.append("B: " + " ".join(str(x) for x in sides[1]))
    return "\n".join(lines) + "\n"


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
    """Write obj's POSET v1 text; a refused obj opens no file."""
    text = poset_to_text(obj)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
