"""Dimension bounds for posets free of a standard example on 2k elements.

The pipeline peels a bipartite poset a few minimal elements at a time.
Each peel removes a set Q of A-side elements that is monochromatic under
the upset-based coloring, and pays for it with a bundle of linear
extensions built from a random binary matrix with an isolating-row
property.  General posets are handled through their split, which is
bipartite, preserves freeness, and sandwiches the dimension.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, replace
from itertools import combinations
from typing import Callable, Iterable, Sequence

from .core import (
    BipartitePoset,
    Embedding,
    Poset,
    derive_seed,
    find_standard_example,
    iter_bits,
    kimble_split,
)
from .dimension import (
    LinearExtension,
    Realizer,
    _is_int_list,
    critical_rows,
    exact_dimension,
    greedy_reversing_extensions,
    is_realizer,
    listed_below,
    ranked_topological_order,
    realizer_from_json_dict,
    realizer_to_json_dict,
    row_pairs,
)
from .errors import (
    AcquisitionFailed,
    BoundExceeded,
    BudgetExceeded,
    ContainsSk,
    NoMonochromaticSet,
    NoValidColor,
    VerificationFailed,
)

# -- binary matrices and the isolating-row event ------------------------------


@dataclass(frozen=True)
class BinaryMatrix:
    """An r x q matrix over {0, 1}: one q-bit mask per row, column j on bit j."""

    q: int
    rows: tuple[int, ...]

    @property
    def r(self) -> int:
        return len(self.rows)

    def to_strings(self) -> list[str]:
        """Each row as a string of 0/1 characters, column 0 first."""
        return ["".join("1" if (row >> j) & 1 else "0" for j in range(self.q))
                for row in self.rows]

    @classmethod
    def from_strings(cls, rows: Iterable[str]) -> BinaryMatrix:
        rows = list(rows)
        q = len(rows[0]) if rows else 0
        if any(len(row) != q for row in rows):
            raise ValueError("ragged matrix")
        if any(ch not in "01" for row in rows for ch in row):
            raise ValueError("entries must be 0 or 1")
        return cls(q, tuple(int(row[::-1] or "0", 2) for row in rows))


def event_E_holds(mat: BinaryMatrix, t: int) -> bool:
    """Does every t-tuple of columns have all t isolating rows?

    For each sorted t-tuple of columns and each member column, some row
    must carry a 1 at that column and 0 at the other t-1.
    """
    q = mat.q
    if not (1 <= t <= q):
        raise ValueError(f"need 1 <= t <= q, got t={t}, q={q}")
    rows = mat.rows
    for cols in combinations(range(q), t):
        tuple_mask = 0
        for c in cols:
            tuple_mask |= 1 << c
        for c in cols:
            target = 1 << c
            if not any(row & tuple_mask == target for row in rows):
                return False
    return True


def event_probability_bound(t: int, q: int, r: int) -> float:
    """Union-bound lower estimate for the isolating-row event on a fair
    random r x q matrix: 1 - t * C(q, t) * (1 - 2^-t)^r.  May be
    negative; it turns positive once r >= t * 2^t * ln(q)."""
    if not (1 <= t <= q) or r < 0:
        raise ValueError(f"bad parameters t={t}, q={q}, r={r}")
    return 1.0 - t * math.comb(q, t) * (1.0 - 2.0 ** (-t)) ** r


def fair_matrix(r: int, q: int, rng: random.Random) -> BinaryMatrix:
    """A fair-coin r x q matrix: rows drawn top to bottom, each from one
    getrandbits(q) word with column j on bit j."""
    return BinaryMatrix(q, tuple(rng.getrandbits(q) for _ in range(r)))


def acquire_event_matrix(
    t: int, q: int, r: int, seed: int, max_tries: int = 1000
) -> BinaryMatrix:
    """Produce an r x q matrix satisfying the isolating-row event.

    With r >= q the first q rows of the identity settle it outright;
    otherwise fair-coin matrices are sampled from the seed until one
    passes, raising AcquisitionFailed after max_tries rejections.
    """
    if not (1 <= t <= q):
        raise ValueError(f"need 1 <= t <= q, got t={t}, q={q}")
    if r < 1:
        raise ValueError(f"need r >= 1, got r={r}")
    if r >= q:
        return BinaryMatrix(q, tuple(1 << i if i < q else 0 for i in range(r)))
    rng = random.Random(seed)
    for _ in range(max_tries):
        mat = fair_matrix(r, q, rng)
        if event_E_holds(mat, t):
            return mat
    bound = event_probability_bound(t, q, r)
    raise AcquisitionFailed(
        f"no matrix with the isolating-row property in {max_tries} tries "
        f"(t={t}, q={q}, r={r}; analytic success bound {bound:.4f})",
        analytic_bound=bound,
    )


# -- mates and the upset-based coloring ---------------------------------------


def _check_subset(bp: BipartitePoset, subset: Sequence[int]) -> None:
    # strictly increasing positions: distinct A-side elements in a_order
    positions = [bp.a_pos.get(a, -1) for a in subset]
    if -1 in positions or any(i >= j for i, j in zip(positions, positions[1:])):
        raise ValueError("subset must be distinct A-side elements sorted by a_order")


def mates(bp: BipartitePoset, subset: Sequence[int], i: int) -> frozenset[int]:
    """B-side mates of position i (1-based) in a subset of A.

    A mate is incomparable to the i-th element and above every other
    element of the subset; subset must be listed in a_order.
    """
    k = len(subset)
    if not (1 <= i <= k):
        raise ValueError(f"position {i} out of range 1..{k}")
    _check_subset(bp, subset)
    return frozenset(iter_bits(_mate_masks(bp, subset)[i - 1]))


def _mate_masks(bp: BipartitePoset, elems: Sequence[int]) -> list[int]:
    # mates of every position at once; elems sorted by a_order
    up = bp.poset._up
    k = len(elems)
    pre = [bp.b_mask]
    for a in elems:
        pre.append(pre[-1] & up[a])
    suf = [bp.b_mask] * (k + 1)
    for j in range(k - 1, -1, -1):
        suf[j] = suf[j + 1] & up[elems[j]]
    return [pre[i] & suf[i + 1] & ~up[elems[i]] for i in range(k)]


def valid_colors(bp: BipartitePoset, subset: Sequence[int]) -> frozenset[int]:
    """Positions (1-based) of the subset that have no mate.

    An empty result would exhibit a standard example (the subset plus
    one mate per position), so NoValidColor carries that witness.
    """
    elems = list(subset)
    _check_subset(bp, elems)
    masks = _mate_masks(bp, elems)
    good = frozenset(i + 1 for i, m in enumerate(masks) if not m)
    if not good:
        partners = tuple(next(iter_bits(m)) for m in masks)
        raise NoValidColor(
            f"every position of {tuple(elems)} has a mate",
            embedding=Embedding(tuple(elems), partners),
        )
    return good


def subset_color(bp: BipartitePoset, subset: Sequence[int]) -> int:
    """Smallest valid color of the subset."""
    return min(valid_colors(bp, subset))


class UBColoring:
    """Upset-based coloring of the k-subsets of the A side.

    color_of maps a sorted tuple of positions into a_order to the
    smallest position (1-based) that has no mate in that subset.  Colors
    are computed on demand and memoized in .colors, so peeling pays only
    for the subsets the monochromatic search reads.
    """

    __slots__ = ("bp", "k", "colors")

    def __init__(self, bp: BipartitePoset, k: int):
        if k < 2:
            raise ValueError(f"need k >= 2, got {k}")
        self.bp = bp
        self.k = k
        self.colors: dict[tuple[int, ...], int] = {}

    def color_of(self, positions: tuple[int, ...]) -> int:
        got = self.colors.get(positions)
        if got is None:
            elems = tuple(self.bp.a_order[c] for c in positions)
            got = self.colors[positions] = subset_color(self.bp, elems)
        return got


def ub_coloring(bp: BipartitePoset, k: int) -> UBColoring:
    """Color every k-subset of A, in lexicographic order of positions.

    Raises NoValidColor (with an embedded standard example) exactly when
    the poset is not free of them.
    """
    coloring = UBColoring(bp, k)
    for positions in combinations(range(len(bp.a_order)), k):
        coloring.color_of(positions)
    return coloring


def find_monochromatic(
    bp: BipartitePoset, coloring, q: int
) -> tuple[tuple[int, ...], int] | None:
    """Search for q elements of A whose k-subsets all share one color.

    Tries colors in increasing order; within a color, greedy extension
    over A in a_order with backtracking, so the first set found wins.
    Returns (elements sorted by a_order, color), or None.
    """
    if q < 2:
        raise ValueError(f"need q >= 2, got {q}")
    na = len(bp.a_order)
    if q > na:
        return None
    k = coloring.k
    chosen: list[int] = []

    def extend(start: int, color: int) -> bool:
        if len(chosen) == q:
            return True
        for c in range(start, na):
            if all(
                coloring.color_of(tup + (c,)) == color
                for tup in combinations(chosen, k - 1)
            ):
                chosen.append(c)
                if extend(c + 1, color):
                    return True
                chosen.pop()
        return False

    for color in range(1, k + 1):
        chosen.clear()
        if extend(0, color):
            return tuple(bp.a_order[c] for c in chosen), color
    return None


# -- reversing extensions from matrix rows ------------------------------------


def sigma_permutations(row: int, q: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The two traversal orders a matrix row (a q-bit mask) induces on 0..q-1.

    First the columns carrying 1, then those carrying 0; left to right
    for the first permutation, right to left for the second.
    """
    ones = [j for j in range(q) if (row >> j) & 1]
    zeros = [j for j in range(q) if not (row >> j) & 1]
    sigma1 = tuple(ones + zeros)
    sigma2 = tuple(ones[::-1] + zeros[::-1])
    return sigma1, sigma2


def extension_from_sigma(
    bp: BipartitePoset, q_elems: Sequence[int], sigma: Sequence[int]
) -> LinearExtension:
    """Linear extension stacking residual upsets over a traversal of Q.

    Walking Q in sigma order, each element brings the part of its upset
    not claimed earlier; top to bottom the extension reads U_1 > q_1 >
    U_2 > q_2 > ... > R, with the leftovers R at the bottom (A-side
    first) and ascending indices inside every block.
    """
    p = bp.poset
    q_elems = list(q_elems)
    if sorted(sigma) != list(range(len(q_elems))):
        raise ValueError("sigma must permute 0..len(Q)-1")
    up = p._up
    claimed = 0
    blocks: list[tuple[int, int]] = []  # (q element, its residual upset mask)
    for idx in sigma:
        a = q_elems[idx]
        residual = up[a] & ~claimed
        claimed |= residual
        blocks.append((a, residual))
    q_mask = 0
    for a in q_elems:
        q_mask |= 1 << a
    rest = ((1 << p.n) - 1) & ~q_mask & ~claimed
    rest_a = rest & bp.a_mask
    rest_b = rest & bp.b_mask
    bottom_up: list[int] = list(iter_bits(rest_a)) + list(iter_bits(rest_b))
    for a, residual in reversed(blocks):
        bottom_up.append(a)
        bottom_up.extend(iter_bits(residual))
    return LinearExtension(tuple(bottom_up))


def _check_q_pairs_reversed(
    bp: BipartitePoset,
    q_elems: Sequence[int],
    exts: Iterable[LinearExtension],
    color: int,
    t: int,
) -> None:
    """Every incomparable (a in Q, b in B) pair, critical here, must be
    reversed by some member; the first miss (a in Q order, then the
    smallest b) raises VerificationFailed with a mate-count diagnosis."""
    p = bp.poset
    down = p._down
    below = listed_below((ext.order for ext in exts), p.n)
    q = len(q_elems)
    for i, a in enumerate(q_elems, start=1):
        missed = bp.b_mask & ~p.upset_mask(a) & ~below[a]
        if not missed:
            continue
        b = (missed & -missed).bit_length() - 1
        left = sum(1 for j in range(i - 1) if (down[b] >> q_elems[j]) & 1)
        right = sum(1 for j in range(i, q) if (down[b] >> q_elems[j]) & 1)
        raise VerificationFailed(
            f"pair ({a}, {b}) not reversed; position {i} of Q sees "
            f"{left} earlier and {right} later Q-elements below {b} "
            f"(color {color}, t={t})",
            pair=(a, b),
        )


def build_reversing_extensions(
    bp: BipartitePoset,
    k: int,
    q_elems: Sequence[int],
    color: int,
    seed: int,
) -> tuple[list[LinearExtension], BinaryMatrix]:
    """Extensions reversing every critical pair (a, b) with a in Q, b in B.

    Q must be monochromatic of the given color under the upset-based
    k-subset coloring.  A matrix with the isolating-row property at
    t = max(color-1, k-color) supplies 2r extensions, two per row, via
    the two row traversals; rows that induce the same traversal share
    one LinearExtension object.  The postcondition checks every such
    pair against one walk per distinct member; a miss raises
    VerificationFailed with a mate-count diagnosis.
    """
    q = len(q_elems)
    if q < 2:
        raise ValueError("need |Q| >= 2")
    if not (1 <= color <= k):
        raise ValueError(f"color {color} out of range 1..{k}")
    t = max(color - 1, k - color)
    t_eff = min(t, q)
    r = math.ceil(k * (2 ** k) * math.log(q))
    mat = acquire_event_matrix(t_eff, q, r, seed)
    exts: list[LinearExtension] = []
    built: dict[tuple[int, ...], LinearExtension] = {}  # sigma -> extension
    for row in mat.rows:
        for sigma in sigma_permutations(row, q):
            ext = built.get(sigma)
            if ext is None:
                ext = built[sigma] = extension_from_sigma(bp, q_elems, sigma)
            exts.append(ext)

    _check_q_pairs_reversed(bp, q_elems, built.values(), color, t_eff)
    return exts, mat


# -- peeling ------------------------------------------------------------------


def step_extension_cap(k: int, q: int) -> int:
    """Most extensions one peel of a q-set may spend: floor(3k * 2^k * ln q)."""
    return math.floor(3 * k * (2 ** k) * math.log(q))


@dataclass(frozen=True)
class PeelStep:
    """One peel: the removed monochromatic set and what paid for it.

    extensions_built counts every member the step spent, repeats
    included; cleanup_count of them are greedy cleanup extensions.
    """

    removed: tuple[int, ...]
    q: int
    color: int
    matrix: BinaryMatrix
    extensions_built: int
    cleanup_count: int

    @property
    def matrix_rows(self) -> int:
        return self.matrix.r


def peel_step(
    bp: BipartitePoset, k: int, q: int, seed: int
) -> tuple[PeelStep, tuple[LinearExtension, ...]]:
    """Remove one monochromatic q-set worth of dimension from bp.

    Finds Q, builds the matrix-driven reversing extensions, adds the
    minimal-elements extension (all minimal elements at the bottom,
    descending a_order), and finishes with greedy cleanup extensions for
    any critical pair touching Q that is still unreversed.  The step
    must fit in floor(3k * 2^k * ln q) extensions, else BoundExceeded.
    Returns the step, in bp's element ids, and the extensions it spent.
    """
    na = len(bp.a_order)
    if q < 2:
        raise ValueError(f"need q >= 2, got {q}")
    if na < q:
        raise NoMonochromaticSet(f"|A| = {na} < q = {q}")
    found = find_monochromatic(bp, UBColoring(bp, k), q)
    if found is None:
        raise NoMonochromaticSet(
            f"no monochromatic {q}-set among {na} A-side elements"
        )
    q_elems, color = found
    exts, mat = build_reversing_extensions(bp, k, q_elems, color, derive_seed(seed, 1))

    p = bp.poset
    minimal_mask = 0
    for x in range(p.n):
        if not p.downset_mask(x):
            minimal_mask |= 1 << x
    bottom = [x for x in reversed(bp.a_order)]
    bottom += [x for x in iter_bits(minimal_mask & bp.b_mask)]
    above = [x for x in iter_bits(bp.b_mask & ~minimal_mask)]
    min_ext = LinearExtension(tuple(bottom + above))
    exts = exts + [min_ext]

    # cleanup: critical pairs with either end in Q not reversed yet
    q_mask = 0
    for a in q_elems:
        q_mask |= 1 << a
    below = listed_below((ext.order for ext in exts), p.n)
    rows = critical_rows(p, touching=q_mask)
    residue = row_pairs(r & ~b for r, b in zip(rows, below))
    cleanup = greedy_reversing_extensions(p, residue) if residue else []
    all_exts = tuple(exts + cleanup)
    cap = step_extension_cap(k, len(q_elems))
    if len(all_exts) > cap:
        raise BoundExceeded(
            f"peel spent {len(all_exts)} extensions, cap is {cap} "
            f"(k={k}, q={len(q_elems)})"
        )
    return PeelStep(
        removed=q_elems,
        q=len(q_elems),
        color=color,
        matrix=mat,
        extensions_built=len(all_exts),
        cleanup_count=len(cleanup),
    ), all_exts


@dataclass
class PeelCertificate:
    """Full accounting of a peeled realizer.

    total_size = base_dimension + sum of per-step extension counts, and
    the realizer (verified against the input poset) has exactly that
    many extensions.
    """

    steps: tuple[PeelStep, ...]
    base_size: int
    base_dimension: int
    base_optimal: bool
    total_size: int
    realizer: Realizer

    def check(self) -> None:
        """Raise VerificationFailed unless the totals add up."""
        spent = self.base_dimension + sum(s.extensions_built for s in self.steps)
        if not self.total_size == spent == len(self.realizer.extensions):
            raise VerificationFailed(
                f"total_size {self.total_size}, base dimension plus step "
                f"extensions {spent}, realizer members {len(self.realizer.extensions)}"
            )


def _map_distinct(
    fn: Callable[[LinearExtension], LinearExtension],
    exts: Iterable[LinearExtension],
) -> list[LinearExtension]:
    """fn of every member, computed once per distinct order; members
    that repeat an order share one result object."""
    done: dict[tuple[int, ...], LinearExtension] = {}
    out = []
    for ext in exts:
        got = done.get(ext.order)
        if got is None:
            got = done[ext.order] = fn(ext)
        out.append(got)
    return out


def peel_realizer(
    bp: BipartitePoset,
    k: int,
    q: int,
    base_threshold: int,
    seed: int,
    base_budget: int | None = 300_000,
) -> PeelCertificate:
    """Iterated peeling down to a small base, then an exact base realizer.

    Peels the side with more elements (the dual is peeled when |A| < |B|
    and every extension is flipped as it is lifted).  Extensions from
    deeper levels are lifted by stacking each removed set at the very
    bottom, descending a_order; a member repeated within one step is
    lifted once and the realizer repeats that object.  Stops peeling
    when the ground set is at most base_threshold or no monochromatic
    set exists; the remainder goes to the exact solver (its budget
    overrun downgrades base_optimal rather than failing, since any base
    realizer keeps the certificate sound).  The assembled realizer is
    verified against the input before return.
    """
    if k < 2 or q < 2:
        raise ValueError(f"need k >= 2 and q >= 2, got k={k}, q={q}")
    if base_threshold < 1:
        raise ValueError("base_threshold must be >= 1")
    dualized = len(bp.a_order) < len(bp.b_order)
    work = bp.dual() if dualized else bp

    cur = work
    cur_ids = tuple(range(work.poset.n))
    lift_prefix: list[int] = []  # grows bottom-up as peels stack
    collected: list[LinearExtension] = []
    records: list[PeelStep] = []

    def lift(ext: LinearExtension) -> LinearExtension:
        # an extension of the current host, as one of the input
        full = tuple(lift_prefix) + tuple(cur_ids[v] for v in ext.order)
        return LinearExtension(full[::-1] if dualized else full)

    while cur.poset.n > base_threshold and len(cur.a_order) >= q:
        try:
            step, exts = peel_step(cur, k, q, derive_seed(seed, len(records)))
        except NoMonochromaticSet:
            break
        collected.extend(_map_distinct(lift, exts))
        removed_orig = tuple(cur_ids[v] for v in step.removed)
        records.append(replace(step, removed=removed_orig))
        # removed sets stack under everything peeled later, each block
        # in descending a_order of its host
        lift_prefix.extend(reversed(removed_orig))
        cur, kept = cur.remove(step.removed)
        cur_ids = tuple(cur_ids[i] for i in kept)

    base_size = cur.poset.n
    try:
        base = exact_dimension(cur.poset, budget=base_budget)
        base_optimal = base.optimal
    except BudgetExceeded as exc:
        base = exc.best
        base_optimal = False
    collected.extend(map(lift, base.witness.extensions))
    realizer = Realizer(tuple(collected))
    ok, unreversed = is_realizer(bp.poset, realizer.extensions)
    if not ok:
        raise VerificationFailed(
            f"assembled realizer misses {len(unreversed)} critical pairs",
            pair=tuple(unreversed[0]),
        )
    cert = PeelCertificate(
        steps=tuple(records),
        base_size=base_size,
        base_dimension=base.d,
        base_optimal=base_optimal,
        total_size=base.d + sum(rec.extensions_built for rec in records),
        realizer=realizer,
    )
    cert.check()
    return cert


# -- the general bound through the split --------------------------------------


@dataclass
class GeneralBoundResult:
    """Upper bound for a general poset via peeling its split."""

    bound: int
    certificate: PeelCertificate
    realizer_for_p: Realizer
    cleanup_count: int


def _project_split_extension(p: Poset, ext: LinearExtension) -> LinearExtension:
    """Order p by ascending position of the maximal copies in a split
    extension, repaired to a valid extension by always emitting the
    available element whose maximal copy sits lowest."""
    n = p.n
    ranked = [v - n for v in ext.order if v >= n]
    return LinearExtension(ranked_topological_order(p._down, ranked))


def general_upper_bound(
    p: Poset,
    k: int,
    q: int,
    base_threshold: int,
    seed: int,
    base_budget: int | None = 300_000,
) -> GeneralBoundResult:
    """Dimension upper bound for any poset free of the 2k standard example.

    The split doubles the poset into a bipartite one without creating
    standard examples and without lowering the dimension, so the size of
    its peeled realizer bounds the input's dimension.  A realizer for
    the input itself is recovered from the split extensions by the
    maximal-copy priority order, with greedy cleanup for whatever the
    projection misses.
    """
    emb = find_standard_example(p, k)
    if emb is not None:
        raise ContainsSk(
            f"poset contains a standard example on 2*{k} elements", embedding=emb
        )
    # the split's minimal copies 0..n-1 form its A side
    bp = BipartitePoset(kimble_split(p), range(p.n), range(p.n, 2 * p.n))
    cert = peel_realizer(bp, k, q, base_threshold, derive_seed(seed, 0), base_budget)

    family = _map_distinct(
        lambda ext: _project_split_extension(p, ext), cert.realizer.extensions
    )
    ok, unreversed = is_realizer(p, family)
    cleanup: list[LinearExtension] = []
    if not ok:
        cleanup = greedy_reversing_extensions(p, unreversed)
        family = family + cleanup
        ok, unreversed = is_realizer(p, family)
        if not ok:
            raise VerificationFailed(
                "projection cleanup failed to realize the input",
                pair=tuple(unreversed[0]),
            )
    return GeneralBoundResult(
        bound=cert.total_size,
        certificate=cert,
        realizer_for_p=Realizer(tuple(family)),
        cleanup_count=len(cleanup),
    )


# -- certificate JSON ----------------------------------------------------------


def certificate_to_json_dict(cert: PeelCertificate) -> dict:
    n = len(cert.realizer.extensions[0]) if cert.realizer.extensions else 0
    return {
        "steps": [
            {
                "removed": list(rec.removed),
                "q": rec.q,
                "color": rec.color,
                "matrix_rows": rec.matrix_rows,
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
        "realizer": realizer_to_json_dict(n, cert.realizer, False),
    }


_CERTIFICATE_KEYS = (
    "steps", "base_size", "base_dimension", "base_optimal", "total_size",
    "realizer",
)
_STEP_KEYS = (
    "removed", "q", "color", "matrix", "extensions_built",
    "cleanup_extensions",
)


def _require_keys(data, keys: Sequence[str], what: str) -> None:
    """ValueError naming the type of data if it is not a dict, or the
    first of keys it lacks."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be an object, got {type(data).__name__}")
    for key in keys:
        if key not in data:
            raise ValueError(f"{what} lacks the {key!r} key")


def _ints(data: dict, keys: Sequence[str], what: str) -> list[int]:
    """data[key] for each key; ValueError naming the first that is not
    an integer (bools and floats included)."""
    for key in keys:
        if type(data[key]) is not int:
            raise ValueError(
                f"{what} {key!r} must be an integer, "
                f"got {type(data[key]).__name__}"
            )
    return [data[key] for key in keys]


def certificate_from_json_dict(data) -> PeelCertificate:
    """Parse a certificate dict; ValueError naming the first key or type
    that is not shaped like one."""
    _require_keys(data, _CERTIFICATE_KEYS, "certificate JSON")
    if not isinstance(data["steps"], list):
        raise ValueError(
            f"certificate 'steps' must be a list, "
            f"got {type(data['steps']).__name__}"
        )
    steps = []
    for i, rec in enumerate(data["steps"]):
        what = f"certificate step {i}"
        _require_keys(rec, _STEP_KEYS, what)
        q, color, built, cleanup = _ints(
            rec, ("q", "color", "extensions_built", "cleanup_extensions"), what
        )
        if not _is_int_list(rec["removed"]):
            raise ValueError(f"{what} 'removed' must be a list of integers")
        matrix = rec["matrix"]
        if not isinstance(matrix, list) or not all(
            isinstance(row, str) for row in matrix
        ):
            raise ValueError(f"{what} 'matrix' must be a list of strings")
        steps.append(PeelStep(
            removed=tuple(rec["removed"]),
            q=q,
            color=color,
            matrix=BinaryMatrix.from_strings(matrix),
            extensions_built=built,
            cleanup_count=cleanup,
        ))
    base_size, base_dimension, total_size = _ints(
        data, ("base_size", "base_dimension", "total_size"), "certificate"
    )
    _, realizer, _ = realizer_from_json_dict(data["realizer"])
    return PeelCertificate(
        steps=tuple(steps),
        base_size=base_size,
        base_dimension=base_dimension,
        base_optimal=bool(data["base_optimal"]),
        total_size=total_size,
        realizer=realizer,
    )


def certificate_to_json(cert: PeelCertificate) -> str:
    return json.dumps(certificate_to_json_dict(cert), indent=2)


def certificate_from_json(text: str) -> PeelCertificate:
    return certificate_from_json_dict(json.loads(text))
