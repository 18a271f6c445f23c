"""Order dimension: critical pairs, realizers, the exact solver.

A family of linear extensions realizes a poset exactly when every critical
pair is reversed in some member, so everything here is organized around
critical pairs and reversibility of pair sets.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import compress, count, islice
from operator import ne
from typing import Iterable, NamedTuple, Sequence

from .core import Poset, iter_bits
from .errors import (BudgetExceeded, ComparablePairError, NotAnExtension,
                     VerificationFailed)


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
    """Distinct orders, each some member's, and per member its index."""

    orders: tuple[LinearExtension, ...]
    members: tuple[int, ...]

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
    down: Sequence[int], ranked: Iterable[int]
) -> tuple[int, ...]:
    """Topological order that always emits the earliest element of the
    ranked list whose down-set (bitmask rows in down) is all emitted."""
    emitted = 0
    order = []
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


def listed_below(orders: Iterable[Sequence[int]], n: int) -> list[int]:
    """Bit y of below[x] is set iff some order lists y below x, i.e. the
    family reverses (x, y).  Each order is a permutation of one ground
    set within 0..n-1.  A prefix an order shares with the one before it
    lists nothing new below its elements, so each order is walked from
    where it first differs from its predecessor: pass distinct orders,
    those sharing long prefixes (a peel's) next to each other."""
    below = [0] * n
    prev: Sequence[int] = ()
    listed_at = [0]  # listed_at[i]: the mask of prev[:i]
    for order in orders:
        i = next(compress(count(), map(ne, order, prev)), len(prev))
        del listed_at[i + 1:]
        listed = listed_at[i]
        for v in islice(order, i, None):
            below[v] |= listed
            listed |= 1 << v
            listed_at.append(listed)
        prev = order
    return below


def _is_permutation(order: Sequence[int], everyone: frozenset[int]) -> bool:
    """Is order a permutation of everyone, which is frozenset(range(n))?"""
    return len(order) == len(everyone) and everyone == set(order)


def check_extension(p: Poset, ext: LinearExtension) -> None:
    """Raise NotAnExtension unless ext is a linear extension of p."""
    order = ext.order
    if not _is_permutation(order, frozenset(range(p.n))):
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

    The family realizes p exactly when it is not empty (unless p is)
    and, for every x, its members together list below x every element
    that is not above x and nothing above it.  listed_below walks each
    member from where it leaves the one before it, so a Realizer is
    checked by passing its orders.
    Returns (ok, unreversed critical pairs in lexicographic order).
    Raises NotAnExtension if a member is not a linear extension of p.
    """
    n = p.n
    orders = [ext.order for ext in extensions]
    elements = frozenset(range(n))
    if all(_is_permutation(order, elements) for order in orders):
        below = listed_below(orders, n)
        everyone = (1 << n) - 1
        if (orders or not n) and all(
            below[x] == everyone & ~(up | 1 << x) for x, up in enumerate(p._up)
        ):
            return True, []
    for ext in extensions:
        check_extension(p, ext)
    # every member is an extension, so (x, y) is reversed in some member
    # exactly when y is in below[x]
    return False, row_pairs(r & ~b for r, b in zip(critical_rows(p), below))


def check_realizer(p: Poset, extensions: Sequence[LinearExtension]) -> None:
    """is_realizer, raising VerificationFailed unless the family realizes
    p: "empty" for no members, else the first unreversed pair in .pair."""
    ok, unreversed = is_realizer(p, extensions)
    if not ok and not extensions:
        raise VerificationFailed("the realizer family is empty")
    if not ok:
        pair = tuple(unreversed[0])
        raise VerificationFailed(
            f"{len(unreversed)} critical pairs unreversed, first {pair}",
            pair=pair,
        )


def _checked_pairs(
    p: Poset, pairs: Iterable[tuple[int, int]]
) -> list[tuple[int, int]]:
    """The pairs as a list; ValueError naming an id outside 0..n-1,
    ComparablePairError for a comparable or equal pair."""
    out = []
    for x, y in pairs:
        for v in (x, y):
            if not 0 <= v < p.n:
                raise ValueError(f"element id {v} is outside 0..{p.n - 1}")
        if not p.incomparable(x, y):
            raise ComparablePairError(f"pair ({x}, {y}) is comparable")
        out.append((x, y))
    return out


def _x_runs(pairs: Iterable[tuple[int, int]]) -> list[list[int]]:
    """Consecutive pairs grouped by x, as [x, bitmask of their ys]."""
    runs: list[list[int]] = []
    for x, y in pairs:
        if runs and runs[-1][0] == x:
            runs[-1][1] |= 1 << y
        else:
            runs.append([x, 1 << y])
    return runs


def is_reversible(
    p: Poset, pairs: Iterable[tuple[int, int]]
) -> tuple[bool, LinearExtension | None]:
    """Can one linear extension reverse every pair in the set?

    True exactly when the poset plus all reversal edges stays acyclic,
    i.e. the first fit packs the pairs into one class; the witness is
    that class's lowest-index-first topological order.  Raises
    ComparablePairError if some pair is comparable (reversing it is
    meaningless) and ValueError for an id outside 0..n-1.
    """
    classes = _first_fit(p, _x_runs(_checked_pairs(p, pairs))) or [_Closure(p)]
    if len(classes) > 1:
        return False, None
    return True, LinearExtension(classes[0].extension())


def _first_fit(p: Poset, runs: Iterable[list[int]]) -> list[_Closure]:
    """Incomparable pairs, as x-runs [x, bitmask of ys], packed first-fit
    into reversible classes.

    Each pair (x, y) joins the first class that can take y < x, else
    opens a new one.  Taking some y < x never changes a class's up[x],
    so a run is decided per class by one mask and added in one update.
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
    Raises ComparablePairError for a comparable or equal pair and
    ValueError for an id outside 0..n-1.
    """
    runs = _x_runs(_checked_pairs(p, pairs))
    return [LinearExtension(cl.extension()) for cl in _first_fit(p, runs)]


_CONFLICT_PAIR_CAP = 2000  # most critical pairs the search takes on


def _packed_place(up: int, x: int, y: int, n: int, full: int, diag: int) -> int | None:
    """Add y < x to a closure packed into one int, u's up-row at bit u*n;
    None if y lies above x.  The rows at or below y, column y of up and
    y's own, each gain x's row and x: each product term is below 2**n
    and lands in its own row, so nothing carries."""
    ux = (up >> x * n) & full
    if ux >> y & 1:
        return None
    return up | (((up >> y) & diag) | 1 << y * n) * (ux | 1 << x)


def _conflict_masks(p: Poset, cps: Sequence[CriticalPair]) -> list[int]:
    """Pairwise-conflict graph of critical pairs, one bitmask row each.

    Pairs i and j clash iff the only possible cycle through both
    reversal edges exists: x_i <= y_j and x_j <= y_i.  Row i is the AND
    of "pairs whose y is at or above x_i" and "pairs whose x is at or
    below y_i", each gathered per element from the pairs sitting on it.
    """
    n = p.n
    on_y = [0] * n  # pairs whose y is this element
    on_x = [0] * n
    for j, (x, y) in enumerate(cps):
        on_y[y] |= 1 << j
        on_x[x] |= 1 << j

    def gather(rows: Sequence[int], on: list[int]) -> list[int]:
        out = []
        for u in range(n):
            acc = on[u]
            for v in iter_bits(rows[u]):
                acc |= on[v]
            out.append(acc)
        return out

    y_above = gather(p._up, on_y)
    x_below = gather(p._down, on_x)
    return [y_above[x] & x_below[y] for x, y in cps]


def exact_dimension(p: Poset, budget: int | None = None) -> DimensionResult:
    """Exact order dimension with a realizer witness.

    Isolated elements I are split off first: with n >= 2, dim p is
    max(2, dim core) (Hiraguchi 1951), so _exact_core solves the core
    alone, on the whole node budget, and its flag is the result's.  Each
    member of the witness, on p's ids, lists I ascending on top but the
    second, which lists I descending underneath; a chain core's one
    member serves as both, and an all-isolated p is those two, optimal.
    BudgetExceeded carries the best known result, merged the same way,
    in .best; a negative budget is a ValueError.
    """
    if budget is not None and budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    linked = [v for v in range(p.n) if p._up[v] | p._down[v]]
    if len(linked) == p.n or p.n < 2:
        return _exact_core(p, budget)
    high = tuple(v for v in range(p.n) if not p._up[v] | p._down[v])

    def merged(core: DimensionResult) -> DimensionResult:
        cores = [tuple(linked[v] for v in e.order) for e in core.witness.extensions]
        if len(cores) == 1:
            cores *= 2
        return DimensionResult(Realizer.of(
            LinearExtension(high[::-1] + order if i == 1 else order + high)
            for i, order in enumerate(cores)), core.optimal)

    if not linked:
        return DimensionResult(Realizer.of(map(LinearExtension, (high, high[::-1]))), True)
    try:
        return merged(_exact_core(p.restrict(linked), budget))
    except BudgetExceeded as exc:
        raise BudgetExceeded(str(exc), best=merged(exc.best)) from None


def _exact_core(p: Poset, budget: int | None) -> DimensionResult:
    """exact_dimension of p as it is, isolated elements and all.

    Critical pairs are assigned to color classes that must each stay
    reversible; iterative deepening runs from a clique lower bound on
    the pairwise-conflict graph, exploring pairs in descending
    conflict-degree order with first-empty-class symmetry breaking.  The
    search packs each class's closure into one int, and a settled class's
    pairs are replayed onto a _Closure for its extension.  With no
    critical pairs (a chain) or more than _CONFLICT_PAIR_CAP there is no
    conflict graph, no search, and the lower bound is 2.  The greedy
    first fit is built once and returned when it meets the lower bound.
    budget (None or >= 0) caps the search's node expansions.  The
    greedy (valid, non-optimal) result is BudgetExceeded's .best, raised
    where its reason is known: at the pair cap, or in the search.
    """
    rows = critical_rows(p)
    m = sum(row.bit_count() for row in rows)
    lower = 2
    if not m or m > _CONFLICT_PAIR_CAP:
        # no conflict graph (it walks every relation, a long chain's
        # too); the x-runs of the lexicographic order are the nonzero rows
        runs = [[x, row] for x, row in enumerate(rows) if row]
    else:
        cps = row_pairs(rows)
        conf = _conflict_masks(p, cps)
        order = sorted(range(m), key=lambda i: -conf[i].bit_count())
        runs = _x_runs(cps[i] for i in order)
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
    # the one extension of p's closure
    greedy = DimensionResult(Realizer.of(
        LinearExtension(cl.extension()) for cl in _first_fit(p, runs) or [_Closure(p)]
    ), False)
    if greedy.d <= lower:
        greedy.optimal = True
        return greedy
    if m > _CONFLICT_PAIR_CAP:
        raise BudgetExceeded(
            f"{m} critical pairs exceed the search cap of {_CONFLICT_PAIR_CAP}",
            best=greedy,
        )

    nodes_left = budget if budget is not None else -1
    n, full = p.n, (1 << p.n) - 1
    diag = sum(1 << u * n for u in range(n))

    def search(d: int) -> list[_Closure] | None:
        # Depth-first over pair indices with an explicit trail.  Opened
        # classes are always a prefix (a pair may open only the first
        # empty class), so pair idx tries classes 0..min(used, d-1).
        nonlocal nodes_left
        class_up = [sum(row << u * n for u, row in enumerate(p._up))] * d
        class_conf = [0] * d
        used = 0
        # Each class's closure is one int (_packed_place).  Per placed
        # pair the trail keeps its class, that class's int and conflict
        # mask before the placement, and whether the placement opened
        # it: undoing restores the kept int, and a settled d replays
        # each class's pairs onto a _Closure for its extension.
        trail: list[tuple[int, int, int, bool]] = []
        idx = c = 0
        while idx < m:
            i = order[idx]
            x, y = cps[i]
            bit = 1 << i
            while c < d and c <= used:
                if c < used and class_conf[c] & bit:
                    c += 1
                    continue
                if nodes_left == 0:
                    raise BudgetExceeded(
                        f"search budget {budget} exhausted; "
                        f"best known dimension {greedy.d}",
                        best=greedy,
                    )
                if nodes_left > 0:
                    nodes_left -= 1
                placed = _packed_place(class_up[c], x, y, n, full, diag)
                if placed is not None:  # else y < x closes a cycle
                    trail.append((c, class_up[c], class_conf[c], c == used))
                    class_up[c] = placed
                    class_conf[c] |= conf[i]
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
    """The v2 realizer dict: the realizer's orders and members as held."""
    return {
        "n": n,
        "dimension": len(realizer),
        "orders": [list(ext.order) for ext in realizer.orders],
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
    not exactly kind: int (so bools and floats are refused) or bool."""
    noun = "a boolean" if kind is bool else "an integer"
    for key in keys:
        if type(data[key]) is not kind:
            raise ValueError(
                f"{what} {key!r} must be {noun}, got {type(data[key]).__name__}"
            )
    return [data[key] for key in keys]


def realizer_from_json_dict(data) -> tuple[int, Realizer, bool]:
    """Parse a realizer dict, v2 ("orders" and "members") or v1 (one
    order per member in "extensions"); ValueError if it is not shaped
    like one, if a v2 order is no member's, or if its optional
    "dimension" is not its member count.  A v2 realizer holds the file's
    orders and members as they are; a v1 one goes through Realizer.of."""
    _require_keys(data, ("n", "optimal"), "realizer JSON")
    v1 = "extensions" in data
    if v1 == ("orders" in data):
        raise ValueError(
            "realizer JSON has both 'orders' and v1 'extensions'" if v1 else
            "realizer JSON lacks the 'orders' key (or the v1 'extensions' key)"
        )
    (n,) = _fields(data, ("n",), "realizer")
    if n < 0:
        raise ValueError(f"realizer 'n' must be non-negative, got {n}")
    key = "extensions" if v1 else "orders"
    rows = data[key]
    if not isinstance(rows, list) or not all(map(_is_int_list, rows)):
        raise ValueError(f"realizer {key!r} must be a list of integer lists")
    exts = [LinearExtension(tuple(row)) for row in rows]
    if v1:
        realizer = Realizer.of(exts)
    else:
        for i, row in enumerate(rows):
            if len(row) != n:
                raise ValueError(
                    f"realizer 'orders' row {i} has length {len(row)}, not n={n}"
                )
        _require_keys(data, ("members",), "realizer JSON")
        members = data["members"]
        if not _is_int_list(members):
            raise ValueError("realizer 'members' must be a list of integers")
        # an order no member names would be checked but never counted
        if set(members) != set(range(len(rows))):
            raise ValueError(
                f"realizer 'members' must be indices naming all {len(rows)} 'orders'"
            )
        realizer = Realizer(tuple(exts), tuple(members))
    dimension = data.get("dimension", len(realizer))
    if type(dimension) is not int or dimension != len(realizer):
        raise ValueError(
            f"realizer 'dimension' is {dimension!r}, not its {len(realizer)} members"
        )
    (optimal,) = _fields(data, ("optimal",), "realizer", bool)
    return n, realizer, optimal


def realizer_to_json(n: int, realizer: Realizer, optimal: bool) -> str:
    return json.dumps(realizer_to_json_dict(n, realizer, optimal), indent=2)


def realizer_from_json(text: str) -> tuple[int, Realizer, bool]:
    return realizer_from_json_dict(_parse_json(text))
