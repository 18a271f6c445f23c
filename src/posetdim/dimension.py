"""Order dimension: critical pairs, realizers, the exact solver.

A family of linear extensions realizes a poset exactly when every critical
pair is reversed in some member, so everything here is organized around
critical pairs and reversibility of pair sets.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import compress, count, islice
from functools import reduce
from operator import ne, or_
from typing import Iterable, NamedTuple, Sequence

from .core import Poset, _bits, iter_bits
from .errors import BudgetExceeded, NotAnExtension, VerificationFailed


class CriticalPair(NamedTuple):
    x: int
    y: int


@dataclass(frozen=True)
class LinearExtension:
    """A linear order on 0..n-1, listed bottom to top."""

    order: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "order", tuple(self.order))

    def __hash__(self) -> int:
        # realizers repeat one object per order: hash each order once
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", hash(self.order))
            return self._hash

    def positions(self) -> tuple[int, ...]:
        """pos[v] is v's index in the order."""
        pos = [0] * len(self.order)
        for i, v in enumerate(self.order):
            pos[v] = i
        return tuple(pos)

    def __len__(self) -> int:
        return len(self.order)


@dataclass(frozen=True)
class Realizer:
    """Distinct orders, each some member's, and per member its index;
    if known, per order a length of prefix it shares with the one before."""

    orders: tuple[LinearExtension, ...]
    members: tuple[int, ...]
    shared: tuple[int, ...] | None = field(default=None, compare=False)

    @classmethod
    def of(cls, extensions: Iterable[LinearExtension]) -> Realizer:
        """The family of these members, orders in order of first appearance."""
        index: dict[LinearExtension, int] = {}
        members = tuple([index.setdefault(ext, len(index)) for ext in extensions])
        return cls(tuple(index), members)

    @property
    def extensions(self) -> tuple[LinearExtension, ...]:
        """Every member, repeats included."""
        return tuple(self.orders[i] for i in self.members)

    def __len__(self) -> int:
        return len(self.members)


@dataclass
class DimensionResult:
    witness: Realizer
    optimal: bool

    @property
    def d(self) -> int:
        """The witness's member count."""
        return len(self.witness)


class _Closure:
    """Mutable transitive closure of a poset plus reversal edges."""

    __slots__ = ("n", "up", "down")

    def __init__(self, p: Poset):
        self.n = p.n
        self.up = list(p._up)
        self.down = list(p._down)

    def add_below(self, los: int, hi: int) -> int:
        """Add lo < hi for every lo in the bitmask los that is neither hi
        nor above it, and return the mask of those lows; the others
        would close a cycle and are left out.

        Writes only the rows that gain bits (Italiano's incremental
        closure): an up-row below some lo that does not yet reach hi,
        and a down-row above hi that is not yet above every lo.  Both
        masks are taken before the first write.
        """
        up = self.up
        down = self.down
        hi_bit = 1 << hi
        los &= ~(up[hi] | hi_bit)
        if not los:
            return 0
        up_hi = up[hi] | hi_bit
        down_los = 0
        above_all = -1  # at or above every lo
        rest = los
        while rest:
            low = rest & -rest
            lo = low.bit_length() - 1
            down_los |= down[lo] | low
            above_all &= up[lo] | low
            rest ^= low
        grow_down = up_hi & ~above_all
        rest = down_los & ~(down[hi] | hi_bit)
        while rest:
            low = rest & -rest
            up[low.bit_length() - 1] |= up_hi
            rest ^= low
        rest = grow_down
        while rest:
            low = rest & -rest
            down[low.bit_length() - 1] |= down_los
            rest ^= low
        return los

    def extension(self) -> tuple[int, ...]:
        """Topological order, lowest available index first."""
        return ranked_topological_order(self.down, range(self.n))


def ranked_topological_order(
    down: Sequence[int], ranked: Iterable[int], start: Sequence[int] = ()
) -> tuple[int, ...]:
    """Topological order that always emits the earliest element of the
    ranked list whose down-set (bitmask rows in down) is all emitted,
    resuming after start, emissions already made, which ranked leaves out."""
    emitted = sum(1 << v for v in start)
    order = list(start)
    todo = list(ranked)
    while todo:
        for k, v in enumerate(todo):
            if not (down[v] & ~emitted):
                order.append(v)
                emitted |= 1 << v
                del todo[k]
                break
        else:
            raise AssertionError("cycle in the relation")
    return tuple(order)


def critical_rows(p: Poset) -> list[int]:
    """Critical pairs as bitmask rows: bit y of rows[x] is set iff (x, y)
    is critical, i.e. incomparable with D(x) within D(y) and U(y) within
    U(x).  Reversing exactly these characterizes realizers.

    Whole rows narrow the ys (the AND of U(d) over D(x) keeps D(x)
    within D(y); a non-maximal y with U(y) within U(x) lies under U(x))
    at one row operation per relation of x, so where x has more
    relations than incomparable ys, those are tested one by one.
    """
    up, down = p._up, p._down
    has_up = sum(1 << y for y, row in enumerate(up) if row)
    everyone = (1 << p.n) - 1
    rows = []
    for x in range(p.n):
        ux, dx = up[x], down[x]
        test = row = everyone & ~(ux | dx | 1 << x)
        if row.bit_count() > (ux | dx).bit_count():
            for d in iter_bits(dx):
                row &= up[d]
            under = 0
            for u in iter_bits(ux):
                under |= down[u]
            row &= ~has_up | under
            test = row & has_up
        for y in iter_bits(test):
            if dx & ~down[y] or up[y] & ~ux:
                row ^= 1 << y
        rows.append(row)
    return rows


def row_pairs(rows: Iterable[int]) -> list[CriticalPair]:
    """The pairs (x, y) with bit y of rows[x] set, in lexicographic order."""
    return [CriticalPair(x, y)
            for x, row in enumerate(rows) if row for y in iter_bits(row)]


def critical_pairs(p: Poset) -> list[CriticalPair]:
    """critical_rows(p) as (x, y) pairs in lexicographic order."""
    return row_pairs(critical_rows(p))


def _common(a: Sequence, b: Sequence) -> int:
    """Length of the longest common prefix of a and b."""
    return next(compress(count(), map(ne, a, b)), min(len(a), len(b)))


def listed_below(orders: Iterable[Sequence[int]], n: int,
                 shared: Iterable[int] | None = None) -> list[int]:
    """Bit y of below[x] is set iff some order lists y below x, i.e. the
    family reverses (x, y).  Each order is a permutation of one ground
    set within 0..n-1.  A prefix an order shares with the one before it
    lists nothing new below its elements, so each order is walked from
    where it first differs from its predecessor: pass distinct orders,
    those sharing long prefixes (a peel's) next to each other.  shared,
    if given, supplies those restart points unchecked, 0 for the first
    order; any length up to the true common prefix gives the same rows."""
    below = [0] * n
    prev: Sequence[int] = ()
    listed_at = [0]  # listed_at[i]: the mask of prev[:i]
    hints = iter(shared) if shared is not None else None
    for order in orders:
        i = _common(order, prev) if hints is None else next(hints)
        del listed_at[i + 1:]
        listed = listed_at[i]
        for v in islice(order, i, None):
            below[v] |= listed
            listed |= 1 << v
            listed_at.append(listed)
        prev = order
    return below


def check_extension(p: Poset, ext: LinearExtension) -> None:
    """Raise NotAnExtension unless ext is a linear extension of p: a
    permutation of 0..n-1 in exact ints (not 2.0 or True, as in the
    JSON readers) listing every element after everything below it."""
    order = ext.order
    if not (len(order) == p.n and set(map(type, order)) <= {int}
            and set(order) == set(range(p.n))):
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
    p: Poset, family: Realizer | Sequence[LinearExtension]
) -> tuple[bool, list[CriticalPair]]:
    """Does the family, a Realizer or its members, realize p, i.e. is p
    the intersection of its orders?

    The family realizes p exactly when it is not empty (unless p is)
    and, for every x, its members together list below x every element
    that is not above x and nothing above it.  Members are gathered by
    Realizer.of, and listed_below walks each held order, checked only
    for length, from where it leaves the one before it, or from the
    Realizer's shared lengths when it holds them (the reader's are true
    common prefixes, built so).
    Returns (ok, unreversed critical pairs in lexicographic order).
    Raises NotAnExtension if a member is not a linear extension of p,
    ValueError if the Realizer's shared is not one int in 0..n per order, 0 first.
    """
    realizer = family if isinstance(family, Realizer) else Realizer.of(family)
    n, shared = p.n, realizer.shared
    orders = [ext.order for ext in realizer.orders]
    if shared is not None and (len(shared) != len(orders) or any(shared[:1]) or not
                               all(type(k) is int and 0 <= k <= n for k in shared)):
        raise ValueError(f"shared must be one int in 0..{n} per order, 0 first")
    # orders sharing suffixes (a dual peel's) are walked reversed, on the dual
    two = orders[:2]
    flip = len(two) == 2 and _common(*(o[::-1] for o in two)) > _common(*two)
    walked, rows = ([o[::-1] for o in orders], p._down) if flip else (orders, p._up)
    # An order of length n that is no permutation repeats some v: at its
    # second listing v is in the prefix mask, so below[v] gains bit v and
    # the test below fails.  An id of n or more raises IndexError, a
    # negative one IndexError or ValueError at 1 << v, a float TypeError.
    # Every failure falls through to check_extension, which raises.
    if all(len(order) == n for order in orders):
        try:
            # shared's prefixes are in p's orientation, not the dual's
            below = listed_below(walked, n, None if flip else shared)
        except (IndexError, TypeError, ValueError):
            pass
        else:
            everyone = (1 << n) - 1
            if (orders or not n) and all(
                below[x] == everyone & ~(up | 1 << x) for x, up in enumerate(rows)
            ):
                return True, []
    for ext in realizer.orders:
        check_extension(p, ext)
    # every member is an extension, so (x, y) is reversed in some member
    # exactly when y is in below[x], walked unhinted in p's orientation
    below = listed_below(orders, n)
    return False, row_pairs(r & ~b for r, b in zip(critical_rows(p), below))


def check_realizer(p: Poset, family: Realizer | Sequence[LinearExtension]) -> None:
    """is_realizer, raising VerificationFailed unless the family realizes
    p: "empty" for no members, else the first unreversed pair in .pair."""
    ok, unreversed = is_realizer(p, family)
    if not ok and not family:
        raise VerificationFailed("the realizer family is empty")
    if not ok:
        pair = tuple(unreversed[0])
        raise VerificationFailed(
            f"{len(unreversed)} critical pairs unreversed, first {pair}",
            pair=pair,
        )


def _first_fit(p: Poset, runs: Iterable[list[int]]) -> list[_Closure]:
    """Incomparable pairs, as runs [x, bitmask of ys], packed first-fit
    into reversible classes.

    Each pair (x, y) joins the first class that can take y < x, else
    opens a new one.  Taking some y < x never changes a class's up[x],
    so a run of several ys (above the pair cap, a whole critical row)
    is decided per class by one mask and added in one update, as its
    pairs one by one would be.
    """
    classes: list[_Closure] = []
    for x, ys in runs:
        for cl in classes:
            ys &= ~cl.add_below(ys, x)
            if not ys:
                break
        else:
            cl = _Closure(p)
            cl.add_below(ys, x)
            classes.append(cl)
    return classes


def greedy_reversing_extensions(
    p: Poset, pairs: Sequence[tuple[int, int]]
) -> list[LinearExtension]:
    """Cover the given incomparable pairs with few extensions, greedily:
    one extension per first-fit class.  A class refuses y < x only when
    y lies above x, where its extension keeps it, so each class holds
    exactly the pairs its predecessors' extensions leave unreversed.
    Raises ValueError for a comparable or equal pair or an id outside
    0..n-1, checking every pair first.
    """
    pairs = list(pairs)
    for x, y in pairs:
        for v in (x, y):
            if not 0 <= v < p.n:
                raise ValueError(f"element id {v} is outside 0..{p.n - 1}")
        if not p.incomparable(x, y):
            raise ValueError(f"pair ({x}, {y}) is comparable")
    runs = [[x, 1 << y] for x, y in pairs]
    return [LinearExtension(cl.extension()) for cl in _first_fit(p, runs)]


_CONFLICT_PAIR_CAP = 2000  # most critical pairs the search takes on
DEFAULT_BUDGET = 1_000_000  # search nodes exact_dimension spends unless given a budget


def _conflict_masks(p: Poset, cps: Sequence[CriticalPair]) -> list[int]:
    """Pairwise-conflict graph of critical pairs, one bitmask row each.

    Pairs i and j clash iff the only possible cycle through both
    reversal edges exists: x_i <= y_j and x_j <= y_i.  Row i is the AND
    of "pairs whose y is at or above x_i" and "pairs whose x is at or
    below y_i", gathered only at pairs' xs and ys (no pairs, no rows),
    each an OR over the element's whole up- or down-row read by _bits.
    """
    n = p.n
    on_y = [0] * n  # pairs whose y is this element
    on_x = [0] * n
    for j, (x, y) in enumerate(cps):
        on_y[y] |= 1 << j
        on_x[x] |= 1 << j

    def gather(rows: Sequence[int], on: list[int], at: list[int]) -> dict[int, int]:
        return {u: reduce(or_, map(on.__getitem__, _bits(rows[u])), on[u])
                for u in compress(range(n), at)}

    y_above = gather(p._up, on_y, on_x)
    x_below = gather(p._down, on_x, on_y)
    return [y_above[x] & x_below[y] for x, y in cps]


def exact_dimension(p: Poset, budget: int | None = DEFAULT_BUDGET) -> DimensionResult:
    """Exact order dimension with a realizer witness.

    Isolated elements I are split off first: with n >= 2, dim p is
    max(2, dim core) (Hiraguchi 1951), so _exact_core solves the core,
    empty if p is all I, alone on the whole node budget; its flag is the
    result's.  Its witness, or BudgetExceeded's .best, is merged once
    onto p's ids: each member lists I ascending on top but the second,
    which lists I descending underneath; a core of under two members is
    one order listed twice (an all-isolated p: I up, I down, optimal).
    That result passes check_realizer against p, then is returned or
    raised again as .best; budget None is no cap, negative a ValueError.
    """
    if budget is not None and budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    linked = [v for v in range(p.n) if p._up[v] | p._down[v]]
    split = p.n >= 2 and len(linked) < p.n
    overrun = None
    try:
        res = _exact_core(p.restrict(linked) if split else p, budget)
    except BudgetExceeded as exc:
        res, overrun = exc.best, exc
    if split:
        high = tuple(v for v in range(p.n) if not p._up[v] | p._down[v])
        cores = [tuple(linked[v] for v in e.order) for e in res.witness.extensions]
        if len(cores) < 2:
            cores = (cores or [()]) * 2
        res = DimensionResult(Realizer.of(
            LinearExtension(high[::-1] + order if i == 1 else order + high)
            for i, order in enumerate(cores)), res.optimal)
    check_realizer(p, res.witness)
    if overrun is not None:
        raise BudgetExceeded(str(overrun), best=res) from None
    return res


def _exact_core(p: Poset, budget: int | None) -> DimensionResult:
    """exact_dimension of p as it is, isolated elements and all.

    Critical pairs are assigned to color classes that must each stay
    reversible; iterative deepening runs from a clique lower bound on
    the pairwise-conflict graph, exploring pairs in descending
    conflict-degree order with first-empty-class symmetry breaking.  The
    search packs each class's closure into one int, and a settled class's
    pairs are replayed onto a _Closure for its extension.  Only more than
    _CONFLICT_PAIR_CAP critical pairs skip the conflict graph (no search,
    lower bound 2; a chain's graph is empty, so its bound is 2 too).  The
    greedy first fit is built once and returned if it meets the bound.
    budget caps the search's node expansions, None not at all.  The
    greedy (valid, non-optimal) result is BudgetExceeded's .best, raised
    where its reason is known: at the pair cap, or in the search.
    """
    rows = critical_rows(p)
    m = sum(row.bit_count() for row in rows)
    lower = 2
    if m > _CONFLICT_PAIR_CAP:
        # no conflict graph; each nonzero row is one run of its x's pairs
        runs = [[x, row] for x, row in enumerate(rows) if row]
    else:
        cps = row_pairs(rows)
        conf = _conflict_masks(p, cps)
        order = sorted(range(m), key=lambda i: -conf[i].bit_count())
        runs = [[cps[i].x, 1 << cps[i].y] for i in order]
        # a clique on the conflict graph lower-bounds the dimension
        for seed_v in order[:12]:
            common = conf[seed_v]
            size = 1
            while common:
                v = max(iter_bits(common), key=lambda u: (conf[u] & common).bit_count())
                common &= conf[v]
                size += 1
            lower = max(lower, size)

    # greedy first fit: upper bound plus fallback witness; with no pairs,
    # the one extension of p's closure, or none when p is empty
    greedy = DimensionResult(Realizer.of(
        LinearExtension(cl.extension())
        for cl in _first_fit(p, runs) or [_Closure(p)][:p.n]
    ), False)
    if greedy.d <= lower:
        greedy.optimal = True
        return greedy
    if m > _CONFLICT_PAIR_CAP:
        raise BudgetExceeded(
            f"{m} critical pairs exceed the search cap of {_CONFLICT_PAIR_CAP}",
            best=greedy,
        )

    nodes_left = budget if budget is not None else -1  # -1 never reaches 0
    # Each search class's closure is one int: p's up-rows of the pairs'
    # xs at their shifts, cut to w = len(col) columns, the pairs' ys; diag
    # is bit 0 of every row.  A try reads only x's row and column y, so the
    # cut loses nothing.  Adding y < x ORs in (column y | own) * (x's row
    # | x_bit), own being bit 0 of y's row and x_bit x's column bit (0 if
    # none): the rows at or below y gain x's row and x, each term below
    # 2**w in its own row, so no carry.
    col = {y: j for j, y in enumerate(sorted({y for _, y in cps}))}
    shift = {x: r * len(col) for r, x in enumerate(sorted({x for x, _ in cps}))}
    full, diag = (1 << len(col)) - 1, sum(1 << s for s in shift.values())
    start = sum(sum(1 << col[v] for v in iter_bits(p._up[x]) if v in col) << s
                for x, s in shift.items())
    steps = [(1 << i, shift[x], col[y], 1 << shift[y] if y in shift else 0,
              1 << col[x] if x in col else 0, conf[i]) for i in order for x, y in [cps[i]]]

    def search(d: int) -> list[_Closure] | None:
        # Depth-first over pair indices with an explicit trail.  Opened
        # classes are always a prefix (a pair may open only the first
        # empty class), so pair idx tries classes 0..min(used, d-1).
        nonlocal nodes_left
        class_up = [start] * d
        class_conf = [0] * d
        used = 0
        # Per placed pair the trail keeps its class, that class's int and
        # conflict mask before the placement, and whether the placement
        # opened it: undoing restores them (so an unopened class's mask
        # stays 0), and a settled d replays each class's pairs onto a
        # _Closure for its extension.
        trail: list[tuple[int, int, int, bool]] = []
        idx = c = 0
        while idx < m:
            bit, row, col_y, own, x_bit, pair_conf = steps[idx]
            while c < d and c <= used:
                if class_conf[c] & bit:
                    c += 1
                    continue
                if nodes_left == 0:
                    raise BudgetExceeded(
                        f"search budget {budget} exhausted; "
                        f"best known dimension {greedy.d}",
                        best=greedy,
                    )
                nodes_left -= 1
                up = class_up[c]
                ux = up >> row & full
                if not ux >> col_y & 1:  # else y < x closes a cycle
                    trail.append((c, up, class_conf[c], c == used))
                    class_up[c] = up | ((up >> col_y & diag) | own) * (ux | x_bit)
                    class_conf[c] |= pair_conf
                    used += c == used  # opened it
                    break
                c += 1
            else:
                # no class takes pair idx: undo the previous placement
                # and try its next class
                if not trail:
                    return None
                idx -= 1
                c, class_up[c], class_conf[c], opened = trail.pop()
                used -= opened
                c += 1
                continue
            idx += 1
            c = 0
        classes = [_Closure(p) for _ in range(used)]
        for (c, *_), i in zip(trail, order):
            classes[c].add_below(1 << cps[i].y, cps[i].x)
        return classes

    for d in range(lower, greedy.d):
        solution = search(d)
        if solution is not None:
            exts = tuple(LinearExtension(cl.extension()) for cl in solution)
            return DimensionResult(Realizer.of(exts), True)

    # every smaller d failed exhaustively, so the greedy witness is optimal
    greedy.optimal = True
    return greedy


# -- realizer JSON ------------------------------------------------------------


def realizer_to_json_dict(n: int, realizer: Realizer, optimal: bool) -> dict:
    """The v3 realizer dict: each held order as the length it shares with
    the one before ("shared", 0 for the first) and the rest ("tails")."""
    orders = [ext.order for ext in realizer.orders]
    shared = list(map(_common, orders, [(), *orders]))
    return {
        "n": n,
        "dimension": len(realizer),
        "shared": shared,
        "tails": [list(order[i:]) for order, i in zip(orders, shared)],
        "members": list(realizer.members),
        "optimal": bool(optimal),
    }


def _parse_json(text: str):
    """json.loads, with input nested too deep for the parser a
    ValueError instead of its RecursionError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def _is_int_list(row) -> bool:
    # type() is exact, so bools and floats are refused along with strings
    return isinstance(row, list) and set(map(type, row)) <= {int}


def _require_keys(data, keys: Sequence[str], what: str) -> None:
    """ValueError naming the type of data if it is not a dict, or the
    first of keys it lacks."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be an object, got {type(data).__name__}")
    for key in keys:
        if key not in data:
            raise ValueError(f"{what} lacks the {key!r} key")


def _fields(data: dict, keys: Sequence[str], what: str, kind: type = int) -> list:
    """data[key] for each key; ValueError naming the first whose type is
    not exactly kind: int (so bools and floats are refused), bool or list."""
    noun = {bool: "a boolean", list: "a list"}.get(kind, "an integer")
    for key in keys:
        if type(data[key]) is not kind:
            raise ValueError(
                f"{what} {key!r} must be {noun}, got {type(data[key]).__name__}"
            )
    return [data[key] for key in keys]


def _check_count(what: str, data: dict, key: str, want: int) -> None:
    """ValueError unless data[key], when present, is exactly the int want."""
    got = data.get(key, want)
    if type(got) is not int or got != want:
        raise ValueError(f"{what} {key!r} is {got!r}, not {want}")


def realizer_from_json_dict(data) -> tuple[int, Realizer, bool]:
    """Parse a realizer dict: v3 ("shared", "tails", "members"), each order
    the one before's first "shared" elements plus its tail, so the lengths
    kept as Realizer.shared are true; v2, "orders" as tails sharing nothing
    (shared zeros); or v1, one order per member in "extensions", through
    Realizer.of (shared None).  ValueError if it is not shaped like one, if
    an order is no member's, or if "dimension" (optional) is not the member count."""
    _require_keys(data, ("n", "optimal"), "realizer JSON")
    keys = [key for key in ("tails", "orders", "extensions") if key in data]
    if len(keys) != 1:
        raise ValueError(
            f"realizer JSON has both {keys[0]!r} and {keys[1]!r}" if keys else
            "realizer JSON lacks the 'tails' key (or v2 'orders' or v1 'extensions')"
        )
    (n,) = _fields(data, ("n",), "realizer")
    if n < 0:
        raise ValueError(f"realizer 'n' must be non-negative, got {n}")
    (key,) = keys
    rows = data[key]
    if not isinstance(rows, list) or not all(map(_is_int_list, rows)):
        raise ValueError(f"realizer {key!r} must be a list of integer lists")
    shared = data.get("shared") if key == "tails" else [0] * len(rows)
    if not _is_int_list(shared) or len(shared) != len(rows):
        raise ValueError("realizer 'shared' must be a list of integers, one per tail")
    exts, prev = [], ()
    for i, (k, row) in enumerate(zip(shared, rows)):
        if not 0 <= k <= len(prev):  # a negative k would slice from the end
            raise ValueError(f"realizer 'shared' {i} is {k}, not in 0..{len(prev)}")
        if len(row) != n - k:
            want = f"n-shared={n - k}" if k else f"n={n}"
            raise ValueError(f"realizer {key!r} row {i} has length {len(row)}, not {want}")
        prev = prev[:k] + tuple(row)
        exts.append(LinearExtension(prev))
    if key == "extensions":
        realizer = Realizer.of(exts)
    else:
        _require_keys(data, ("members",), "realizer JSON")
        members = data["members"]
        if not _is_int_list(members):
            raise ValueError("realizer 'members' must be a list of integers")
        # an order no member names would be checked but never counted
        if set(members) != set(range(len(rows))):
            raise ValueError(
                f"realizer 'members' must be indices naming all {len(rows)} {key!r}"
            )
        realizer = Realizer(tuple(exts), tuple(members), tuple(shared))
    _check_count("realizer", data, "dimension", len(realizer))
    (optimal,) = _fields(data, ("optimal",), "realizer", bool)
    return n, realizer, optimal


def realizer_to_json(n: int, realizer: Realizer, optimal: bool) -> str:
    return json.dumps(realizer_to_json_dict(n, realizer, optimal), indent=2)


def realizer_from_json(text: str) -> tuple[int, Realizer, bool]:
    return realizer_from_json_dict(_parse_json(text))
