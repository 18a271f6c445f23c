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
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Iterable, Sequence

from .core import (
    BipartitePoset,
    Embedding,
    Poset,
    derive_seed,
    find_standard_example,
    iter_bits,
    kimble_split,
    mate_masks,
)
from .dimension import (
    LinearExtension,
    Realizer,
    _fields,
    _is_int_list,
    _parse_json,
    _require_keys,
    check_realizer,
    exact_dimension,
    ranked_topological_order,
    realizer_from_json_dict,
    realizer_to_json_dict,
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

_MATRIX_TRIES = 1000  # fair-coin matrices acquire_event_matrix rejects at most
_BASE_BUDGET = 300_000  # search nodes for the exact solve of a peel's base

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


def acquire_event_matrix(t: int, q: int, r: int, seed: int) -> BinaryMatrix:
    """Produce an r x q matrix satisfying the isolating-row event.

    With r >= q the first q rows of the identity settle it outright;
    otherwise fair-coin matrices are sampled from the seed until one
    passes, raising AcquisitionFailed after _MATRIX_TRIES rejections.
    """
    if not (1 <= t <= q):
        raise ValueError(f"need 1 <= t <= q, got t={t}, q={q}")
    if r < 1:
        raise ValueError(f"need r >= 1, got r={r}")
    if r >= q:
        return BinaryMatrix(q, tuple(1 << i if i < q else 0 for i in range(r)))
    rng = random.Random(seed)
    for _ in range(_MATRIX_TRIES):
        mat = fair_matrix(r, q, rng)
        if event_E_holds(mat, t):
            return mat
    bound = event_probability_bound(t, q, r)
    raise AcquisitionFailed(
        f"no matrix with the isolating-row property in {_MATRIX_TRIES} tries "
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
    return frozenset(iter_bits(mate_masks(bp.poset._up, subset, bp.b_mask)[i - 1]))


def subset_color(bp: BipartitePoset, subset: Sequence[int]) -> int:
    """First position (1-based) of the subset that has no mate.

    If every position has one (core.mate_masks within B), the subset plus
    its lowest mate per position is a standard example, which NoValidColor carries.
    """
    elems = tuple(subset)
    _check_subset(bp, elems)
    masks = mate_masks(bp.poset._up, elems, bp.b_mask)
    for i, m in enumerate(masks, start=1):
        if not m:
            return i
    raise NoValidColor(
        f"every position of {elems} has a mate",
        embedding=Embedding(elems, tuple(next(iter_bits(m)) for m in masks)),
    )


def find_monochromatic(
    bp: BipartitePoset, k: int, q: int
) -> tuple[tuple[int, ...], int] | None:
    """Search for q elements of A whose k-subsets all share one color.

    Tries colors in increasing order; within a color, greedy extension
    over A in a_order, where a dead end pops the last pick and resumes
    after it, so the first set found wins.  Each k-subset read is
    colored once, by subset_color.  At q < k none is read: every q-set
    is vacuously monochromatic in color 1, and nothing checks that bp is
    S_k-free.  Returns (Q in a_order, color) or None.
    """
    if k < 2 or q < 2:
        raise ValueError(f"need k >= 2 and q >= 2, got k={k}, q={q}")
    a_order = bp.a_order
    na = len(a_order)
    if q > na:
        return None
    colors: dict[tuple[int, ...], int] = {}  # positions in a_order -> color

    def color_of(positions: tuple[int, ...]) -> int:
        got = colors.get(positions)
        if got is None:
            elems = tuple(a_order[c] for c in positions)
            got = colors[positions] = subset_color(bp, elems)
        return got

    for color in range(1, k + 1):
        chosen: list[int] = []  # positions picked so far
        c = 0  # the next position to try
        while len(chosen) < q:
            if c == na:  # a dead end: resume after the last pick
                if not chosen:
                    break
                c = chosen.pop()
            elif all(color_of(tup + (c,)) == color
                     for tup in combinations(chosen, k - 1)):
                chosen.append(c)
            c += 1
        else:
            return tuple(a_order[c] for c in chosen), color
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
    bp: BipartitePoset, q_elems: Sequence[int], sigmas: Iterable[Sequence[int]]
) -> list[LinearExtension]:
    """One linear extension per traversal of Q, stacking residual upsets.

    Walking Q in sigma order, each element brings the part of its upset
    not claimed earlier; top to bottom the extension reads U_1 > q_1 >
    U_2 > q_2 > ... > R, with ascending indices inside every block.
    Every traversal claims the union of Q's upsets, so the leftovers R
    (A-side first) are one block, built once over bp.floor and listed
    at the bottom of every extension, which is then an order of all of
    bp.poset.  ValueError for a sigma not permuting 0..|Q|-1.
    """
    q_elems = list(q_elems)
    up = bp.poset._up
    q_mask = upsets = 0
    for a in q_elems:
        q_mask |= 1 << a
        upsets |= up[a]
    rest = ~q_mask & ~upsets
    leftovers = bp.floor + (*iter_bits(rest & bp.a_mask), *iter_bits(rest & bp.b_mask))
    exts = []
    for sigma in sigmas:
        if sorted(sigma) != list(range(len(q_elems))):
            raise ValueError("sigma must permute 0..len(Q)-1")
        claimed = 0
        blocks = []  # (q element, *its residual upset), top block first
        for idx in sigma:
            a = q_elems[idx]
            residual = up[a] & ~claimed
            claimed |= residual
            blocks.append((a, *iter_bits(residual)))
        exts.append(LinearExtension(
            leftovers + tuple(chain.from_iterable(reversed(blocks)))))
    return exts


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
    the two row traversals.  extension_from_sigma builds the distinct
    traversals in one call, over one leftover block, and the rows that
    repeat a traversal repeat its object.  The lemma is not re-checked
    here: peel_realizer's one check_realizer covers every such pair.
    Returns the extensions and the matrix.
    """
    q = len(q_elems)
    if q < 2:
        raise ValueError("need |Q| >= 2")
    if not (1 <= color <= k):
        raise ValueError(f"color {color} out of range 1..{k}")
    t = min(max(color - 1, k - color), q)
    r = math.ceil(k * (2 ** k) * math.log(q))
    mat = acquire_event_matrix(t, q, r, seed)
    traversals = [s for row in mat.rows for s in sigma_permutations(row, q)]
    distinct = sorted(set(traversals))
    built = dict(zip(distinct, extension_from_sigma(bp, q_elems, distinct)))
    exts = [built[sigma] for sigma in traversals]
    return exts, mat


# -- peeling ------------------------------------------------------------------


def step_extension_cap(k: int, q: int) -> int:
    """Most extensions one peel of a q-set may spend: floor(3k * 2^k * ln q)."""
    return math.floor(3 * k * (2 ** k) * math.log(q))


@dataclass(frozen=True)
class PeelStep:
    """One peel: the removed monochromatic set and what paid for it.

    The step spent two members per matrix row, the minimal-elements
    extension and cleanup_count cleanup extensions.  peel_step writes 0:
    its members reverse every critical pair touching the removed set by
    construction.  Certificates written before that hold steps with
    cleanup members, and they read and verify the same way.
    """

    removed: tuple[int, ...]
    color: int
    matrix: BinaryMatrix
    cleanup_count: int

    @property
    def q(self) -> int:
        return len(self.removed)

    @property
    def extensions_built(self) -> int:
        """Every member the step spent, repeats included."""
        return 2 * self.matrix.r + 1 + self.cleanup_count


def peel_step(
    bp: BipartitePoset, k: int, q: int, seed: int
) -> tuple[PeelStep, tuple[LinearExtension, ...]]:
    """Remove one monochromatic q-set worth of dimension from bp.

    Finds Q, builds the matrix-driven reversing extensions and adds the
    minimal-elements extension: bp.floor, then Q, then the rest of A,
    both in descending a_order, then B.  Every critical pair of bp
    touching Q is then reversed, with no cleanup:
      (a, q), a in A less Q: the minimal-elements extension lists q
        below a;
      (q, a): every matrix member lists its leftovers, a among them,
        below all of Q;
      (q_i, q_j): some row has a 1 in column i (isolating rows, t >= 1);
        its two traversals list q_j below q_i if the row has a 0 in
        column j, and give both orders if it has a 1;
      (q, b), b in B: the lemma behind build_reversing_extensions;
      (b, q): B sits above A in the minimal-elements extension.
    At q < k no color is read and t = min(k - 1, q) = q: the row with a
    column's 1 alone reverses every (q, b) of that q, S_k-free or not.
    The step must fit in floor(3k * 2^k * ln q) extensions, else
    BoundExceeded.  Returns the step and its extensions, each a linear
    extension of bp.poset that begins with bp.floor.
    """
    found = find_monochromatic(bp, k, q)
    if found is None:
        raise NoMonochromaticSet(
            f"no monochromatic {q}-set among {len(bp.a_order)} A-side elements"
        )
    q_elems, color = found
    seed = derive_seed(seed, 1)
    exts, mat = build_reversing_extensions(bp, k, q_elems, color, seed)

    down, a_mask = bp.poset._down, bp.a_mask
    q_mask = sum(1 << a for a in q_elems)
    a_rest = [a for a in reversed(bp.a_order) if not (q_mask >> a) & 1]
    b_ids = sorted(iter_bits(bp.b_mask), key=lambda y: bool(down[y] & a_mask))
    exts.append(LinearExtension((*bp.floor, *reversed(q_elems), *a_rest, *b_ids)))
    cap = step_extension_cap(k, len(q_elems))
    if len(exts) > cap:
        raise BoundExceeded(
            f"peel spent {len(exts)} extensions, cap is {cap} "
            f"(k={k}, q={len(q_elems)})"
        )
    return PeelStep(q_elems, color, mat, 0), tuple(exts)


@dataclass
class PeelCertificate:
    """Full accounting of a peeled realizer: the steps' members come
    first, in step order, and the base's last, so every count is read
    off the steps and the realizer (verified against the input poset).
    """

    steps: tuple[PeelStep, ...]
    base_optimal: bool
    realizer: Realizer

    @property
    def total_size(self) -> int:
        return len(self.realizer)

    @property
    def base_dimension(self) -> int:
        return self.total_size - sum(s.extensions_built for s in self.steps)

    @property
    def base_size(self) -> int:
        """The input's size, the orders' length, less every removed set."""
        n = len(self.realizer.orders[0]) if self.realizer.orders else 0
        return n - sum(s.q for s in self.steps)


def peel_realizer(
    bp: BipartitePoset, k: int, q: int, base_threshold: int, seed: int
) -> PeelCertificate:
    """Iterated peeling down to a small base, then an exact base realizer.

    Peels the smaller side, as q elements cost 2r + 1 members on either,
    so the host is the dual when |A| > |B|.  The host keeps that poset
    and its ids, and each removed set leaves its A side for its floor,
    which every later member lists at its very bottom; so each step's
    members are whole orders of the host's poset as built.  Stops
    peeling when the host has at most base_threshold elements or no
    monochromatic set exists; the remainder, nearly an antichain at
    large n, goes restricted once to exact_dimension, which splits off
    its isolated elements (overrunning _BASE_BUDGET downgrades
    base_optimal rather than failing, since any base realizer keeps the
    certificate sound), and its orders are mapped back over the floor.
    One check_realizer against the host's poset, where the members share
    prefixes, is the peel's only check: it covers every step's (Q, B)
    pairs too.  A dual peel's orders are then reversed once to the
    input's.
    """
    if k < 2 or q < 2:
        raise ValueError(f"need k >= 2 and q >= 2, got k={k}, q={q}")
    if base_threshold < 1:
        raise ValueError("base_threshold must be >= 1")
    host = bp.dual() if len(bp.a_order) > len(bp.b_order) else bp
    collected: list[LinearExtension] = []
    records: list[PeelStep] = []

    while len(host.a_order) + len(host.b_order) > base_threshold:
        try:
            step, exts = peel_step(host, k, q, derive_seed(seed, len(records)))
        except NoMonochromaticSet:
            break
        collected.extend(exts)
        records.append(step)
        host = host._without(step.removed)

    kept = tuple(iter_bits(host.a_mask | host.b_mask))
    try:
        base = exact_dimension(host.poset.restrict(kept), budget=_BASE_BUDGET)
    except BudgetExceeded as exc:
        base = exc.best  # not optimal
    collected.extend(LinearExtension(host.floor + tuple(kept[v] for v in ext.order))
                     for ext in base.witness.extensions)
    realizer = Realizer.of(collected)
    check_realizer(host.poset, realizer.orders)
    if host.poset is not bp.poset:
        realizer = Realizer(
            tuple(LinearExtension(ext.order[::-1]) for ext in realizer.orders),
            realizer.members)
    return PeelCertificate(tuple(records), base.optimal, realizer)


# -- the general bound through the split --------------------------------------


@dataclass
class GeneralBoundResult:
    """Upper bound for a general poset via peeling its split."""

    certificate: PeelCertificate
    realizer_for_p: Realizer

    @property
    def bound(self) -> int:
        return self.certificate.total_size

    @property
    def cleanup_count(self) -> int:
        """Members appended to realize p, past the projected ones: 0,
        since the projected members realize p by themselves."""
        return len(self.realizer_for_p) - self.bound


def _project_split_extension(p: Poset, ext: LinearExtension) -> LinearExtension:
    """Order p by ascending position of the minimal copies in a split
    extension, repaired to a valid extension by always emitting the
    available element whose minimal copy sits lowest.

    A realizer of the split projects to a realizer of p.  For a critical
    pair (x, y) of p, (x', y'') is critical in the split, so some member
    lists y'' below x'; every w <= y has w' < y'' there, so all of
    D[y] and y rank below x.  Were x emitted first, a minimal unemitted
    element of D[y] and y would be available and rank lower than x.
    """
    ranked = [v for v in ext.order if v < p.n]
    return LinearExtension(ranked_topological_order(p._down, ranked))


def general_upper_bound(
    p: Poset, k: int, q: int, base_threshold: int, seed: int
) -> GeneralBoundResult:
    """Dimension upper bound for any poset free of the 2k standard example.

    The split doubles the poset into a bipartite one without creating
    standard examples and without lowering the dimension, so the size of
    its peeled realizer bounds the input's dimension.  A realizer for
    the input itself is the projection of the split's members by the
    minimal-copy priority order, checked against the input before
    return.
    """
    emb = find_standard_example(p, k)
    if emb is not None:
        raise ContainsSk(
            f"poset contains a standard example on 2*{k} elements", embedding=emb
        )
    # the split's minimal copies 0..n-1 form its A side
    bp = BipartitePoset(kimble_split(p), range(p.n), range(p.n, 2 * p.n))
    cert = peel_realizer(bp, k, q, base_threshold, derive_seed(seed, 0))

    # distinct split orders can project to one order of p
    projected = [_project_split_extension(p, ext) for ext in cert.realizer.orders]
    family = Realizer.of([projected[i] for i in cert.realizer.members])
    check_realizer(p, family.orders)
    return GeneralBoundResult(cert, family)


# -- certificate JSON ----------------------------------------------------------


def certificate_to_json_dict(cert: PeelCertificate) -> dict:
    n = len(cert.realizer.orders[0]) if cert.realizer.orders else 0
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


def certificate_from_json_dict(data) -> PeelCertificate:
    """Parse a certificate dict: ValueError naming the first key or type
    not shaped like one, a matrix entry other than 0 or 1, a negative
    cleanup_extensions, a step's q, matrix_rows or matrix width that
    miscounts, or a removed id outside the realizer's 0..n-1 or removed
    again; then VerificationFailed unless the stored totals add up;
    then ValueError for a stored extensions_built or base_size that is
    not the derived count."""
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
        q, color, _, cleanup = _fields(
            rec, ("q", "color", "extensions_built", "cleanup_extensions"), what
        )
        if not _is_int_list(rec["removed"]):
            raise ValueError(f"{what} 'removed' must be a list of integers")
        matrix = rec["matrix"]
        if not isinstance(matrix, list) or not all(
            isinstance(row, str) for row in matrix
        ):
            raise ValueError(f"{what} 'matrix' must be a list of strings")
        if q != len(rec["removed"]):
            raise ValueError(f"{what} 'q' is {q}, not {len(rec['removed'])}")
        rows = rec.get("matrix_rows", len(matrix))
        if type(rows) is not int or rows != len(matrix):
            raise ValueError(f"{what} 'matrix_rows' is {rows!r}, not {len(matrix)}")
        if any(len(row) != q for row in matrix):
            raise ValueError(f"{what} 'matrix' rows must each have q={q} columns")
        if cleanup < 0:
            raise ValueError(f"{what} 'cleanup_extensions' is {cleanup}, below 0")
        try:
            mat = BinaryMatrix.from_strings(matrix)
        except ValueError as exc:
            raise ValueError(f"{what} 'matrix' {exc}") from None
        steps.append(PeelStep(tuple(rec["removed"]), color, mat, cleanup))
    base_size, base_dimension, total_size = _fields(
        data, ("base_size", "base_dimension", "total_size"), "certificate"
    )
    (base_optimal,) = _fields(data, ("base_optimal",), "certificate", bool)
    n, realizer, _ = realizer_from_json_dict(data["realizer"])
    gone: set[int] = set()
    for i, step in enumerate(steps):
        for v in step.removed:
            if v in gone or not 0 <= v < n:
                why = "again" if v in gone else f"outside 0..{n - 1}"
                raise ValueError(f"certificate step {i} removes {v} {why}")
            gone.add(v)
    cert = PeelCertificate(tuple(steps), base_optimal, realizer)
    claimed = [rec["extensions_built"] for rec in data["steps"]]
    spent = base_dimension + sum(claimed)
    if not total_size == spent == cert.total_size:
        raise VerificationFailed(
            f"total_size {total_size}, base dimension plus step "
            f"extensions {spent}, realizer members {cert.total_size}"
        )
    for i, (step, built) in enumerate(zip(steps, claimed)):
        if built != step.extensions_built:
            raise ValueError(f"certificate step {i} 'extensions_built' is "
                             f"{built}, not {step.extensions_built}")
    if base_size != cert.base_size:
        raise ValueError(
            f"certificate 'base_size' is {base_size}, not {cert.base_size}")
    return cert


def certificate_to_json(cert: PeelCertificate) -> str:
    return json.dumps(certificate_to_json_dict(cert), indent=2)


def certificate_from_json(text: str) -> PeelCertificate:
    return certificate_from_json_dict(_parse_json(text))
