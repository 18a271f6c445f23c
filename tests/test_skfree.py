"""Peeling machinery: matrices, coloring, reversing extensions, certificates."""

import json
import math
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetdim import (
    BinaryMatrix,
    BipartitePoset,
    LinearExtension,
    Poset,
    acquire_event_matrix,
    build_reversing_extensions,
    certificate_from_json,
    certificate_to_json,
    check_certificate_parameters,
    check_extension,
    critical_pairs,
    derive_seed,
    event_E_holds,
    event_probability_bound,
    exact_dimension,
    extension_from_sigma,
    find_monochromatic,
    find_standard_example,
    general_upper_bound,
    is_realizer,
    kimble_split,
    load_poset,
    mates,
    peel_realizer,
    peel_step,
    random_bipartite,
    random_poset,
    random_skfree_bipartite,
    realizer_from_json,
    sigma_permutations,
    standard_example,
    standard_example_bipartite,
    step_extension_cap,
    subset_color,
)
from posetdim import dimension, skfree
from posetdim.core import iter_bits
from posetdim.dimension import (
    _Closure,
    check_realizer,
    listed_below,
    ranked_topological_order,
)
from posetdim.skfree import (
    _project_split_orders,
    certificate_from_json_dict,
)
from posetdim.errors import (
    AcquisitionFailed,
    ContainsSk,
    NoMonochromaticSet,
    NoValidColor,
    NotAnExtension,
    VerificationFailed,
)

from conftest import (downset, embedding_valid, recursion_limit_near_here,
                      relations, swap_inside_shared_prefix)

DATA = Path(__file__).resolve().parent / "data"


# -- binary matrices and the event ------------------------------------------------


def test_binary_matrix_validation_and_round_trip():
    m = BinaryMatrix(2, (0b01, 0b10, 0b11))
    assert m.r == 3 and m.q == 2
    assert m.to_strings() == ["10", "01", "11"]  # column j on bit j
    assert BinaryMatrix.from_strings(m.to_strings()) == m
    with pytest.raises(ValueError, match="ragged"):
        BinaryMatrix.from_strings(["10", "1"])
    with pytest.raises(ValueError, match="0 or 1"):
        BinaryMatrix.from_strings(["20"])


def test_event_hand_cases():
    ident = BinaryMatrix(2, (0b01, 0b10))
    assert event_E_holds(ident, 1)
    assert event_E_holds(ident, 2)
    ones = BinaryMatrix(2, (0b11, 0b11))
    assert event_E_holds(ones, 1)
    assert not event_E_holds(ones, 2)  # nothing isolates a column of a pair
    with pytest.raises(ValueError):
        event_E_holds(ident, 3)
    with pytest.raises(ValueError):
        event_E_holds(ident, 0)


@settings(max_examples=80)
@given(
    st.integers(1, 4),
    st.lists(st.lists(st.integers(0, 1), min_size=4, max_size=4),
             min_size=1, max_size=6),
)
def test_event_matches_direct_definition(t, rows):
    mat = BinaryMatrix(4, tuple(sum(b << j for j, b in enumerate(r)) for r in rows))
    want = True
    for cols in combinations(range(4), t):
        for ell in cols:
            if not any(
                row[ell] == 1 and all(row[c] == 0 for c in cols if c != ell)
                for row in rows
            ):
                want = False
    assert event_E_holds(mat, t) == want


def test_probability_bound_frozen_values():
    assert abs(event_probability_bound(2, 4, 12) - (1 - 12 * 0.75 ** 12)) < 1e-15
    assert abs(event_probability_bound(2, 4, 12) - 0.6198838) < 1e-7
    assert event_probability_bound(1, 2, 2) == 0.5
    assert event_probability_bound(2, 3, 1) < 0  # the bound may go negative
    with pytest.raises(ValueError):
        event_probability_bound(3, 2, 5)


def test_acquire_identity_fallback_and_sampling():
    m = acquire_event_matrix(2, 4, 12, seed=0)
    assert m.rows[0] == 0b0001 and m.rows[3] == 0b1000 and m.rows[11] == 0
    assert event_E_holds(m, 2)
    m2 = acquire_event_matrix(1, 4, 3, seed=8)  # r < q: sampled
    assert event_E_holds(m2, 1) and m2.r == 3
    assert acquire_event_matrix(1, 4, 3, seed=8) == m2  # deterministic
    with pytest.raises(ValueError):
        acquire_event_matrix(0, 4, 3, seed=1)
    with pytest.raises(ValueError, match="need r >= 1"):
        acquire_event_matrix(1, 2, 0, seed=0)


def test_acquire_refuses_rows_past_the_cap():
    cap = skfree._MATRIX_ROW_CAP
    assert acquire_event_matrix(1, 2, cap, seed=0).r == cap
    with pytest.raises(ValueError) as exc:
        acquire_event_matrix(1, 2, cap + 1, seed=0)
    assert str(exc.value) == f"r={cap + 1} rows for q=2 pass the matrix row cap of {cap}"


def test_acquire_failure_is_diagnosed():
    # one row cannot isolate both columns of any pair
    with pytest.raises(AcquisitionFailed) as exc:
        acquire_event_matrix(2, 3, 1, seed=5)
    assert exc.value.analytic_bound < 0


def test_acquire_failure_payload_carries_the_bound():
    with pytest.raises(AcquisitionFailed) as exc:
        acquire_event_matrix(3, 3, 1, seed=0)
    assert exc.value.analytic_bound == -1.625
    assert exc.value.payload() == {"analytic_bound": exc.value.analytic_bound}


# -- mates and coloring --------------------------------------------------------------


def test_mates_on_the_standard_example():
    bp = standard_example_bipartite(3)
    assert mates(bp, (0, 1, 2), 1) == frozenset({3})
    assert mates(bp, (0, 1, 2), 2) == frozenset({4})
    assert mates(bp, (0, 1), 1) == frozenset({3})  # above 1, incomparable to 0
    with pytest.raises(ValueError):
        mates(bp, (0, 1, 2), 4)
    with pytest.raises(ValueError):
        mates(bp, (1, 0), 1)  # not sorted by a_order


def test_subset_color_raises_with_witness_on_standard_example():
    bp = standard_example_bipartite(3)
    with pytest.raises(NoValidColor) as exc:
        subset_color(bp, (0, 1, 2))
    emb = exc.value.embedding
    assert embedding_valid(bp.poset, emb)
    assert emb.a_elems == (0, 1, 2)
    assert str(exc.value) == "every position of (0, 1, 2) has a mate"


def test_subset_color_refuses_subsets_below_two():
    # no standard example has fewer than 2 elements a side, so neither
    # the empty subset nor a single element gets a color or a witness
    bp = standard_example_bipartite(3)
    for subset in ((), (0,), (2,)):
        with pytest.raises(ValueError, match="at least 2 elements"):
            subset_color(bp, subset)


def test_colors_on_free_posets():
    # the color is the first position without a mate; freeness means
    # some position lacks one
    for i in range(15):
        bp = random_skfree_bipartite(8, 8, 0.3, 3, seed=derive_seed(5, i))
        for subset in combinations(bp.a_order, 3):
            color = subset_color(bp, subset)
            assert mates(bp, subset, color) == frozenset()
            assert all(mates(bp, subset, c) for c in range(1, color))


def test_find_monochromatic_small_cases():
    bp = random_skfree_bipartite(8, 8, 0.3, 3, seed=13)
    got = find_monochromatic(bp, 3, 3)
    if got is not None:
        q_elems, color = got
        for subset in combinations(q_elems, 3):
            assert subset_color(bp, subset) == color
    # q below k is vacuously monochromatic with the first color
    assert find_monochromatic(bp, 3, 2) == ((0, 1), 1)
    # q beyond |A| is impossible
    assert find_monochromatic(bp, 3, 9) is None
    with pytest.raises(ValueError):
        find_monochromatic(bp, 3, 1)
    with pytest.raises(ValueError):
        find_monochromatic(bp, 1, 3)


def test_find_monochromatic_respects_colors():
    # an antichain-with-full-B poset: every subset gets some color; the
    # returned set must be checked against every embedded k-subset
    found = 0
    for i in range(30):
        bp = random_skfree_bipartite(9, 9, 0.35, 3, seed=derive_seed(99, i))
        got = find_monochromatic(bp, 3, 4)
        if got is None:
            continue
        found += 1
        q_elems, color = got
        assert len(q_elems) == 4
        for subset in combinations(q_elems, 3):
            assert subset_color(bp, subset) == color
    assert found > 0


def test_find_monochromatic_colors_each_subset_once(monkeypatch):
    # the search keeps the colors it read, so no k-subset is colored
    # twice within one call, even when it tries several colors
    seen: list[tuple[int, ...]] = []
    real = skfree._color

    def counted(up, elems, b_mask):
        seen.append(tuple(elems))
        return real(up, elems, b_mask)

    monkeypatch.setattr(skfree, "_color", counted)
    past_color_1 = 0
    for i in range(8):
        bp = random_skfree_bipartite(9, 9, 0.3, 3, seed=derive_seed(61, i))
        for q in (3, 4, 5, 6):
            seen.clear()
            got = find_monochromatic(bp, 3, q)
            assert seen and len(seen) == len(set(seen)), (i, q)
            assert all(len(subset) == 3 for subset in seen)
            # every color's search starts by reading the first k-subset
            # again, so these searches would re-color without the memo
            past_color_1 += got is None or got[1] > 1
    assert past_color_1 > 0


def test_find_monochromatic_runs_deeper_than_the_recursion_limit(monkeypatch):
    # on an antichain every pair has color 1, so the search picks the
    # first q elements of A one level at a time, reading each new
    # element against every earlier pick
    bp = random_bipartite(120, 4, 0.0, 0)
    seen: list[tuple[int, ...]] = []
    real = skfree._color
    monkeypatch.setattr(skfree, "_color", lambda up, elems, b_mask:
                        seen.append(tuple(elems)) or real(up, elems, b_mask))
    with recursion_limit_near_here():
        got = find_monochromatic(bp, 2, 100)
    assert got == (tuple(range(100)), 1)
    assert seen == [(i, c) for c in range(1, 100) for i in range(c)]


def test_find_monochromatic_reads_colors_unchecked(monkeypatch):
    # the search lists each k-subset in a_order itself, so it never asks
    # for the check that subset_color and mates make
    cases = [(random_skfree_bipartite(9, 9, 0.3, 3, seed=derive_seed(47, i)), q)
             for i in range(6) for q in (2, 3, 4, 5)]
    want = [find_monochromatic(bp, 3, q) for bp, q in cases]
    assert any(got is not None and len(got[0]) >= 3 for got in want)

    def refuse(bp_, subset):
        raise AssertionError("subset checked")

    monkeypatch.setattr(skfree, "_check_subset", refuse)
    assert [find_monochromatic(bp, 3, q) for bp, q in cases] == want


def test_colors_and_mates_on_a_smaller_host():
    # a host from _without keeps its input's rows: the checked entry
    # points refuse a removed element and take what is left, in order
    bp = random_skfree_bipartite(8, 8, 0.3, 3, seed=23)
    gone = bp.a_order[1]
    host = bp._without([gone])
    for subset in ((bp.a_order[0], gone), (gone, bp.a_order[2])):
        with pytest.raises(ValueError, match="sorted by a_order"):
            subset_color(host, subset)
        with pytest.raises(ValueError, match="sorted by a_order"):
            mates(host, subset, 1)
    for subset in combinations(host.a_order, 3):
        color = subset_color(host, subset)
        assert color == subset_color(bp, subset)
        assert mates(host, subset, color) == frozenset()
    with pytest.raises(ValueError, match="sorted by a_order"):
        subset_color(host, host.a_order[:3][::-1])


# -- sigma orders and extensions ------------------------------------------------------


def test_sigma_permutations_frozen():
    assert sigma_permutations(0b0101, 4) == ((0, 2, 1, 3), (2, 0, 3, 1))
    assert sigma_permutations(0b00, 2) == ((0, 1), (1, 0))
    assert sigma_permutations(0b111, 3) == ((0, 1, 2), (2, 1, 0))


@settings(max_examples=60)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=8))
def test_sigma_permutations_are_permutations(row):
    mask = sum(b << j for j, b in enumerate(row))
    s1, s2 = sigma_permutations(mask, len(row))
    assert sorted(s1) == list(range(len(row)))
    assert sorted(s2) == list(range(len(row)))
    ones = sum(row)
    assert all(row[j] for j in s1[:ones]) and all(row[j] for j in s2[:ones])


def test_extension_from_sigma_worked_example():
    bp = standard_example_bipartite(2)
    ext, ext2 = extension_from_sigma(bp, (0, 1), [(0, 1), (1, 0)])
    assert ext.order == (1, 2, 0, 3)
    assert ext2.order == (0, 3, 1, 2)
    for sigmas in ([(0, 0)], [(0, 1), (1,)], [(0, 1), (1, 2)]):
        with pytest.raises(ValueError):
            extension_from_sigma(bp, (0, 1), sigmas)


def test_extension_from_sigma_always_valid():
    for i in range(25):
        bp = random_skfree_bipartite(8, 8, 0.35, 3, seed=derive_seed(17, i))
        q_elems = tuple(bp.a_order[:3])
        sigmas = ((0, 1, 2), (2, 1, 0), (1, 2, 0))
        exts = extension_from_sigma(bp, q_elems, sigmas)
        assert len(exts) == len(sigmas)
        for ext in exts:
            check_extension(bp.poset, ext)
            assert sorted(ext.order) == list(range(bp.poset.n))


def _leftover_block(bp, q_elems):
    # everything on the host's ground that is neither in Q nor above it,
    # A side first, each side ascending
    above = 0
    for a in q_elems:
        above |= bp.poset.upset_mask(a)
    rest = [v for v in bp.a_order + bp.b_order
            if v not in q_elems and not (above >> v) & 1]
    return (sorted(v for v in rest if (bp.a_mask >> v) & 1)
            + sorted(v for v in rest if not (bp.a_mask >> v) & 1))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.booleans(), st.data())
def test_every_traversal_of_a_step_shares_one_leftover_block(seed, dual, data):
    # on a host that lost some A elements (its floor) or on a dual, each
    # traversal lists the floor and then the same leftovers at its
    # bottom, then Q's residual upsets: a linear extension of the host's
    # whole poset
    bp = random_skfree_bipartite(10, 9, 0.25, 3, seed=seed)
    host = bp.dual() if dual else bp
    gone = data.draw(st.sets(st.sampled_from(host.a_order), max_size=5), label="gone")
    floor = tuple(a for a in reversed(host.a_order) if a in gone)
    host = host._without(gone)
    assert host.floor == floor
    q_elems = data.draw(st.lists(st.sampled_from(host.a_order), min_size=2,
                                 max_size=4, unique=True), label="q")
    q_elems = sorted(q_elems, key=host.a_order.index)
    sigmas = data.draw(st.lists(st.permutations(range(len(q_elems))),
                                min_size=1, max_size=6), label="sigmas")
    exts = extension_from_sigma(host, q_elems, sigmas)
    block = floor + tuple(_leftover_block(host, q_elems))
    for sigma, ext in zip(sigmas, exts, strict=True):
        assert ext.order[:len(block)] == block
        assert sorted(ext.order) == list(range(host.poset.n))
        check_extension(host.poset, ext)
        # above them, top down: U_1 > q_1 > U_2 > q_2 > ...
        claimed, want = 0, []
        for idx in sigma:
            a = q_elems[idx]
            residual = host.poset.upset_mask(a) & ~claimed
            claimed |= residual
            want[:0] = [a, *sorted(iter_bits(residual))]
        assert list(ext.order[len(block):]) == want


# -- reversing extensions ---------------------------------------------------------------


def test_build_reversing_extension_counts_frozen():
    # 2 * ceil(k 2^k ln q) at k=3: q=2 -> 34, q=3 -> 54, q=4 -> 68
    want = {2: 34, 3: 54, 4: 68}
    bp = random_skfree_bipartite(10, 10, 0.25, 3, seed=23)
    for q, count in want.items():
        got = find_monochromatic(bp, 3, q)
        if got is None:
            pytest.skip(f"no monochromatic {q}-set for this seed")
        q_elems, color = got
        exts, mat = build_reversing_extensions(bp, 3, q_elems, color, seed=2)
        assert len(exts) == count
        assert mat.r == count // 2
        assert len(set(e.order for e in exts)) > 1


@pytest.mark.parametrize("q, color, fragment", [
    (1, 1, r"need \|Q\| >= 2"),
    (2, 0, "color 0 out of range 1..3"),
    (2, 4, "color 4 out of range 1..3"),
])
def test_build_reversing_extensions_rejects_bad_q_and_color(q, color, fragment):
    bp = random_skfree_bipartite(5, 5, 0.3, 3, seed=7)
    with pytest.raises(ValueError, match=fragment):
        build_reversing_extensions(bp, 3, bp.a_order[:q], color, seed=0)


def test_a_k_past_the_float_range_is_a_value_error():
    # k 2^k ln q overflows a float near k = 1,020: both of its users
    # raise a ValueError naming k, not a bare OverflowError
    bp = random_skfree_bipartite(5, 5, 0.3, 3, seed=7)
    for k in (1030, 10 ** 100):
        with pytest.raises(ValueError, match=f"k={k} is too large"):
            step_extension_cap(k, 2)
        with pytest.raises(ValueError, match=f"k={k} is too large"):
            build_reversing_extensions(bp, k, bp.a_order[:2], 1, seed=0)
    assert step_extension_cap(1000, 2) == math.floor(3 * 1000 * 2 ** 1000 * math.log(2))


def test_build_reversing_extensions_postcondition():
    # the lemma, checked here as the constructor no longer checks it
    hits = 0
    for i in range(40):
        bp = random_skfree_bipartite(9, 9, 0.3, 3, seed=derive_seed(3571, i))
        got = find_monochromatic(bp, 3, 3)
        if got is None:
            continue
        hits += 1
        q_elems, color = got
        exts, _ = build_reversing_extensions(bp, 3, q_elems, color, seed=i)
        for a in q_elems:
            for b in bp.b_order:
                if bp.poset.incomparable(a, b):
                    assert any(
                        e.positions()[b] < e.positions()[a] for e in exts
                    ), (i, a, b)
    assert hits >= 10


@settings(max_examples=80)
@given(st.integers(1, 9), st.data())
def test_listed_below_agrees_with_positions(n, data):
    # one walk per distinct member answers the per-pair question
    # "does some member list y below x" for every element
    family = data.draw(st.lists(st.permutations(range(n)), max_size=5))
    family = [LinearExtension(o) for o in family]
    family += data.draw(st.lists(st.sampled_from(family), max_size=3)) if family else []
    below = listed_below((e.order for e in family), n)
    assert len(below) == n
    for x in range(n):
        for y in range(n):
            want = any(e.positions()[y] < e.positions()[x] for e in family)
            assert (below[x] >> y) & 1 == want


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 12), st.data())
def test_listed_below_walks_shared_prefixes_soundly(n, data):
    # families shaped like a peel step's: one prefix under several tails,
    # over a ground within 0..n-1 (a host that lost elements), with
    # repeats; the answer is the per-pair rule's whatever the member order
    ground = data.draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True),
                       label="ground")
    cut = data.draw(st.integers(0, len(ground)), label="cut")
    tails = data.draw(st.lists(st.permutations(ground[cut:]), min_size=1,
                               max_size=5), label="tails")
    family = [tuple(ground[:cut]) + tuple(tail) for tail in tails]
    family += data.draw(st.lists(st.sampled_from(family), max_size=3),
                        label="repeats")
    shuffled = data.draw(st.permutations(family), label="shuffled")
    below = listed_below(family, n)
    assert listed_below(iter(shuffled), n) == below
    # restart points given as the true shared lengths, or any at or
    # below them (zeros included), re-list only bits already listed
    for orders in (family, shuffled):
        true = [next((i for i, (a, b) in enumerate(zip(order, prev)) if a != b),
                     min(len(order), len(prev)))
                for prev, order in zip([()] + orders, orders)]
        lower = data.draw(st.tuples(*map(st.integers, [0] * len(true), true)),
                          label="lower")
        for shared in (true, lower, [0] * len(orders)):
            assert listed_below(orders, n, iter(shared)) == below
    for x in range(n):
        for y in range(n):
            want = any(x in o and y in o and o.index(y) < o.index(x)
                       for o in family)
            assert (below[x] >> y) & 1 == want


def test_a_non_extension_inside_a_shared_prefix_is_refused():
    # two orders of the first peel step share the removed sets and the
    # leftover block; a swap inside that prefix of the second must be
    # caught although the walk skips what the second shares with the first
    bp = random_skfree_bipartite(20, 20, 0.1, 3, seed=5)
    cert = peel_realizer(bp, 3, 3, 12, seed=5)
    orders = [ext.order for ext in cert.realizer.orders]
    check_realizer(bp.poset, [LinearExtension(o) for o in orders])
    orders[1] = tuple(swap_inside_shared_prefix(bp.poset, orders))
    family = [LinearExtension(orders[m]) for m in cert.realizer.members]
    with pytest.raises(NotAnExtension):
        check_realizer(bp.poset, family)


def test_the_final_check_refuses_a_step_that_never_lifts_a_q_element(monkeypatch):
    # every matrix member lists its step's first Q element at the very
    # bottom, so no member reverses (that element, b) for an incomparable
    # b: peel_realizer's one check_realizer must name such a pair
    firsts = []
    real = skfree.extension_from_sigma

    def sunk(bp_, q_elems, sigmas):
        a = q_elems[0]
        firsts.append(a)
        return [LinearExtension((a,) + tuple(v for v in e.order if v != a))
                for e in real(bp_, q_elems, sigmas)]

    monkeypatch.setattr(skfree, "extension_from_sigma", sunk)
    bp = random_skfree_bipartite(20, 20, 0.1, 3, seed=5)
    with pytest.raises(VerificationFailed) as exc:
        peel_realizer(bp, 3, 3, 12, seed=5)
    assert firsts and exc.value.pair[0] in firsts


def test_build_reversing_extensions_shares_repeated_members():
    # repeated matrix rows repeat a traversal; each distinct one is built
    # once, and every member is still a linear extension
    checked = 0
    for i in range(20):
        bp = random_skfree_bipartite(10, 10, 0.25, 3, seed=derive_seed(29, i))
        for q in (2, 3, 4):
            got = find_monochromatic(bp, 3, q)
            if got is None:
                continue
            checked += 1
            q_elems, color = got
            exts, mat = build_reversing_extensions(bp, 3, q_elems, color, seed=i)
            assert len(exts) == 2 * mat.r
            assert len({e.order for e in exts}) <= 2 * q + 2
            assert len({id(e) for e in exts}) == len({e.order for e in exts})
            for e in exts:
                check_extension(bp.poset, e)
    assert checked >= 20


def test_a_step_traverses_each_distinct_row_once(monkeypatch):
    # at k = q = 3 the matrix is the 3x3 identity padded with zero rows
    # to r = 27: four distinct rows, so four calls rather than 27
    calls = []
    real = skfree.sigma_permutations
    monkeypatch.setattr(skfree, "sigma_permutations",
                        lambda row, q: calls.append(row) or real(row, q))
    bp = random_skfree_bipartite(12, 12, 0.2, 3, seed=4)
    step, _ = peel_step(bp, 3, 3, seed=4)
    assert step.matrix.r == 27 and len(set(step.matrix.rows)) == 4
    assert sorted(calls) == [0, 1, 2, 4]


def test_step_extension_cap_frozen():
    assert step_extension_cap(3, 2) == 49   # floor(72 ln 2)
    assert step_extension_cap(3, 3) == 79   # floor(72 ln 3)


def test_step_extension_cap_holds_every_step():
    # a step spends 2r + 1 members, r = ceil(k 2^k ln q) matrix rows
    for k in range(2, 60):
        for q in range(2, 200):
            r = math.ceil(k * 2 ** k * math.log(q))
            assert 2 * r + 1 <= step_extension_cap(k, q), (k, q)


# -- peel steps and certificates ----------------------------------------------------------


@pytest.mark.parametrize("k, q", [(3, 2), (3, 3), (4, 3)])
def test_peel_step_covers_all_pairs_touching_q(k, q):
    # by construction: the matrix members and the minimal-elements
    # extension alone, with no cleanup member
    peeled = 0
    for i in range(20):
        bp = random_skfree_bipartite(10, 10, 0.3, 3, seed=derive_seed(41, i))
        try:
            step, exts = peel_step(bp, k, q, seed=i)
        except NoMonochromaticSet:
            continue
        peeled += 1
        assert step.q == q and len(step.removed) == q
        assert step.cleanup_count == 0
        assert step.extensions_built == 2 * step.matrix.r + 1 == len(exts)
        assert step.extensions_built <= step_extension_cap(k, q)
        qset = set(step.removed)
        pos = [e.positions() for e in exts]
        for c in critical_pairs(bp.poset):
            if c.x in qset or c.y in qset:
                assert any(pr[c.y] < pr[c.x] for pr in pos), (i, c)
        for e in exts:
            check_extension(bp.poset, e)
    assert peeled >= 15


def test_peel_step_needs_enough_a_elements():
    bp = random_skfree_bipartite(3, 6, 0.3, 3, seed=2)
    with pytest.raises(NoMonochromaticSet):
        peel_step(bp, 3, 4, seed=0)
    with pytest.raises(ValueError):
        peel_step(bp, 3, 1, seed=0)


def test_peel_realizer_verifies_and_accounts():
    for i in range(10):
        bp = random_skfree_bipartite(11, 11, 0.2, 3, seed=derive_seed(8080, i))
        cert = peel_realizer(bp, 3, 2, base_threshold=8, seed=i)
        ok, unrev = is_realizer(bp.poset, cert.realizer.extensions)
        assert ok and unrev == []
        spent = sum(s.extensions_built for s in cert.steps)
        assert cert.total_size == cert.base_dimension + spent
        assert cert.total_size == len(cert.realizer.extensions)
        cap = step_extension_cap(3, 2)
        assert all(s.extensions_built <= cap for s in cert.steps)
        assert cert.base_optimal


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_certificate_parameters_agree_with_the_builder(k, q):
    # a peel at (k, q) keeps every rule its k and q state; one more k
    # changes the row count and one more q the removed-set size, so
    # step 0 is refused either way (denser draws hold S_2 at k = 2)
    p = 0.03 if k == 2 else 0.15
    bp = random_skfree_bipartite(10, 10, p, k, seed=derive_seed(7, 10 * k + q))
    cert = peel_realizer(bp, k, q, base_threshold=4, seed=q)
    assert cert.steps
    check_certificate_parameters(cert, k, q)
    for bad_k, bad_q in ((k + 1, q), (k, q + 1)):
        with pytest.raises(VerificationFailed, match="^certificate step 0 "):
            check_certificate_parameters(cert, bad_k, bad_q)


def test_certificate_counts_duplicate_extensions():
    # the paper's accounting: every member counts, repeats included
    bp = random_skfree_bipartite(20, 20, 1.5 / 20, 3, seed=7)
    cert = peel_realizer(bp, 3, 3, base_threshold=12, seed=7)
    assert cert.steps
    for s in cert.steps:
        assert s.extensions_built == 2 * s.matrix.r + 1 + s.cleanup_count
    distinct = len({e.order for e in cert.realizer.extensions})
    assert distinct < cert.total_size == len(cert.realizer.extensions)


def test_peel_realizer_rejects_small_k_and_q():
    bp = random_skfree_bipartite(6, 6, 0.3, 3, seed=9)
    # the base threshold of 100 would skip peeling altogether
    for threshold in (4, 100):
        for k, q in ((1, 3), (0, 3), (-1, 3), (3, 1), (3, 0)):
            with pytest.raises(ValueError):
                peel_realizer(bp, k, q, base_threshold=threshold, seed=1)


def test_peel_realizer_peels_the_smaller_side():
    small_a = random_skfree_bipartite(4, 12, 0.35, 3, seed=5)
    # the same order with its sides swapped: the peel dualizes it back
    for bp in (small_a, small_a.dual()):
        cert = peel_realizer(bp, 3, 2, base_threshold=6, seed=3)
        ok, _ = is_realizer(bp.poset, cert.realizer.extensions)
        assert ok
        # removed elements are ids of the four-element side
        assert all(set(s.removed) <= set(small_a.a_order) for s in cert.steps)
        assert len(cert.steps) >= 1


def _reindexed(bp, host):
    """host rebuilt on its ground alone, ids renumbered in ascending
    order, and the list of its ground ids (new id i is kept[i])."""
    ground = host.a_mask | host.b_mask
    kept = [v for v in range(bp.poset.n) if (ground >> v) & 1]
    index = {v: i for i, v in enumerate(kept)}
    sub = BipartitePoset(bp.poset.restrict(kept),
                         [index[a] for a in host.a_order],
                         [index[b] for b in host.b_order])
    return sub, kept


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.data())
def test_a_host_in_input_ids_acts_like_the_reindexed_host(seed, data):
    # the host peel_realizer peels, against a reindexed rebuild of it
    bp = random_skfree_bipartite(12, 12, 0.2, 3, seed=seed)
    gone = data.draw(st.sets(st.sampled_from(bp.a_order), max_size=8), label="gone")
    host = bp._without(gone)
    sub, kept = _reindexed(bp, host)
    mask = sum(1 << a for a in data.draw(
        st.sets(st.sampled_from(host.a_order), min_size=1, max_size=4), label="q"))
    q_elems = [a for a in host.a_order if (mask >> a) & 1]
    sigma = data.draw(st.permutations(range(len(q_elems))), label="sigma")
    (got,) = extension_from_sigma(host, q_elems, [sigma])
    (want,) = extension_from_sigma(sub, [kept.index(a) for a in q_elems], [sigma])
    # the host's orders are sub's, in input ids, over the host's floor
    assert got.order == host.floor + tuple(kept[v] for v in want.order)
    check_extension(host.poset, got)
    # a whole step removes and spends the same
    if len(host.a_order) >= 2:
        try:
            step, exts = peel_step(host, 3, 2, seed)
        except NoMonochromaticSet:
            with pytest.raises(NoMonochromaticSet):
                peel_step(sub, 3, 2, seed)
            return
        sub_step, sub_exts = peel_step(sub, 3, 2, seed)
        assert step.removed == tuple(kept[v] for v in sub_step.removed)
        assert step.cleanup_count == sub_step.cleanup_count
        assert [e.order for e in exts] == [
            host.floor + tuple(kept[v] for v in e.order) for e in sub_exts]
        for ext in exts:
            check_extension(host.poset, ext)


def test_peel_realizer_restricts_only_its_base(monkeypatch):
    # every host shares one poset: outside exact_dimension (which splits
    # the base again into its core), the peel builds only the base's
    # restriction, and the dual's when |A| > |B|, whatever its step count
    calls, posets, inside = [], [], []
    real_restrict, real_init = Poset.restrict, Poset.__init__
    real_exact = skfree.exact_dimension

    def exact(*args, **kwargs):
        inside.append(True)
        try:
            return real_exact(*args, **kwargs)
        finally:
            inside.pop()

    def restrict(self, keep):
        if not inside:
            calls.append(self.n)
        return real_restrict(self, keep)

    def init(self, *args):
        if not inside:
            posets.append(self)
        real_init(self, *args)

    monkeypatch.setattr(skfree, "exact_dimension", exact)
    monkeypatch.setattr(Poset, "restrict", restrict)
    monkeypatch.setattr(Poset, "__init__", init)
    for na, nb, built in ((40, 40, 1), (50, 30, 2)):
        bp = random_skfree_bipartite(na, nb, 1.5 / 40, 3, seed=7)
        calls.clear()
        posets.clear()
        cert = peel_realizer(bp, 3, 3, base_threshold=12, seed=7)
        assert len(cert.steps) >= 10
        assert calls == [80]
        assert len(posets) == built


@pytest.mark.parametrize("na, nb", [(6, 14), (10, 10), (14, 6)])
def test_peeling_the_dual_realizes_both_orders(na, nb):
    # metamorphic: a realizer of the dual, each member reversed, realizes
    # the input; (6, 14) peels the dual's dual inside peel_realizer
    for i in range(7):
        bp = random_skfree_bipartite(na, nb, 0.25, 3, seed=derive_seed(na, i))
        cert = peel_realizer(bp.dual(), 3, 2 + i % 2, base_threshold=8, seed=i)
        exts = cert.realizer.extensions
        assert is_realizer(bp.dual().poset, exts) == (True, [])
        back = [LinearExtension(e.order[::-1]) for e in exts]
        assert is_realizer(bp.poset, back) == (True, [])
        assert cert.total_size == len(exts) == cert.base_dimension + sum(
            s.extensions_built for s in cert.steps)


def test_peel_realizer_checks_in_its_host_orientation(monkeypatch):
    # the one check is of the orders returned, against the input; a dual
    # peel's (na > nb) share suffixes there, so is_realizer walks them
    # reversed, in the host's orientation, where they share prefixes (the
    # other walk is exact_dimension's check of the smaller base)
    checked, walks = [], []
    real_check, real_walk = skfree.check_realizer, dimension.listed_below
    monkeypatch.setattr(skfree, "check_realizer", lambda p, orders:
                        checked.append((p, orders)) or real_check(p, orders))
    monkeypatch.setattr(dimension, "listed_below", lambda orders, n, shared=None:
                        walks.append((n, orders[0])) or real_walk(orders, n, shared))
    for na, nb in ((50, 30), (30, 50)):
        bp = random_skfree_bipartite(na, nb, 1.5 / 40, 3, seed=7)
        cert = peel_realizer(bp, 3, 3, base_threshold=12, seed=7)
        ((got, orders),) = checked
        assert cert.steps
        assert got is bp.poset and orders is cert.realizer.orders
        first = cert.realizer.orders[0].order
        assert [w for n, w in walks if n == bp.poset.n] == [
            first[::-1] if na > nb else first]
        assert len(walks) == 2
        checked.clear()
        walks.clear()


@pytest.mark.parametrize("na, nb", [(50, 30), (30, 50)])
def test_is_realizer_gives_the_same_answer_in_either_orientation(
        na, nb, monkeypatch):
    # metamorphic: a peel's orders share prefixes in its host's
    # orientation, so a dual peel's (na > nb) share suffixes in the
    # input's; either way round, and reversed against the dual, a passing
    # or failing family gives the same (ok, pairs), which is the one read
    # off every member's positions, while the walk runs where they share
    walks = []
    real_walk = dimension.listed_below
    monkeypatch.setattr(dimension, "listed_below", lambda orders, n, shared=None:
                        walks.append(orders[0]) or real_walk(orders, n, shared))
    bp = random_skfree_bipartite(na, nb, 1.5 / 40, 3, seed=7)
    p = bp.poset
    orders = list(peel_realizer(bp, 3, 3, base_threshold=12, seed=7).realizer.orders)
    critical = critical_pairs(p)
    families = [orders] + [orders[:i] for i in (2, 5, 20, len(orders) // 2, -1)]
    failing = 0
    for family in families:
        pos = [e.positions() for e in family]
        want = [c for c in critical if not any(q[c.y] < q[c.x] for q in pos)]
        failing += bool(want)
        host_first = family[0].order[::-1] if na > nb else family[0].order
        back = [LinearExtension(e.order[::-1]) for e in family]
        for poset, given, transpose in ((p, family, False), (p.dual(), back, True)):
            walks.clear()
            ok, pairs = is_realizer(poset, given)
            assert walks[0] == host_first
            assert ok == (not want)
            got = sorted((y, x) for x, y in pairs) if transpose else pairs
            assert got == [tuple(c) for c in want]
    assert failing >= 3


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 1000), st.integers(6, 12), st.sampled_from([2, 3]),
       st.data())
def test_peeling_a_relabelled_copy_realizes_it(seed, na, q, data):
    # metamorphic: the same S_3-free order under other ids (sides listed
    # in their relabelled order) peels to a realizer of the relabelled
    # copy; every seed here samples within the tries and peels a step
    bp = random_skfree_bipartite(na, na, 0.2, 3, seed=seed)
    n = bp.poset.n
    pi = data.draw(st.permutations(range(n)))
    twin = BipartitePoset(
        Poset.from_relations(n, [(pi[x], pi[y]) for x, y in relations(bp.poset)]),
        [pi[a] for a in bp.a_order], [pi[b] for b in bp.b_order])
    cert = peel_realizer(twin, 3, q, base_threshold=8, seed=seed)
    assert cert.steps
    assert is_realizer(twin.poset, cert.realizer.extensions) == (True, [])


def test_peel_realizer_tiny_base_budget_still_sound(monkeypatch):
    def base_budget(budget):
        monkeypatch.setattr(skfree, "exact_dimension",
                            lambda p: exact_dimension(p, budget=budget))

    base_budget(1)
    bp = random_skfree_bipartite(10, 10, 0.3, 3, seed=71)
    cert = peel_realizer(bp, 3, 2, base_threshold=8, seed=2)
    ok, _ = is_realizer(bp.poset, cert.realizer.extensions)
    assert ok
    # no peel step here: the whole poset is the base, and the greedy
    # does not settle it, so a zero budget downgrades base_optimal
    base_budget(0)
    bp = random_skfree_bipartite(6, 6, 0.5, 3, 0)
    cert = peel_realizer(bp, 3, 3, base_threshold=12, seed=0)
    assert cert.steps == () and cert.base_optimal is False
    ok, _ = is_realizer(bp.poset, cert.realizer.extensions)
    assert ok


def test_certificate_reader_names_each_total():
    # a typed error, not an assert, so it also runs under python -O
    bp = random_skfree_bipartite(10, 10, 0.3, 3, seed=71)
    cert = peel_realizer(bp, 3, 2, base_threshold=8, seed=2)
    total = cert.total_size
    data = json.loads(certificate_to_json(cert))
    data["total_size"] += 1
    with pytest.raises(VerificationFailed) as exc:
        certificate_from_json_dict(data)
    assert str(exc.value) == (
        f"total_size {total + 1}, base dimension plus step extensions "
        f"{total}, realizer members {total}"
    )
    data["total_size"] = total
    realizer = data["realizer"]
    realizer["members"].append(realizer["members"][0])
    realizer["dimension"] += 1
    with pytest.raises(VerificationFailed, match=f"realizer members {total + 1}$"):
        certificate_from_json_dict(data)


def test_certificate_json_round_trip():
    bp = random_skfree_bipartite(10, 10, 0.3, 3, seed=19)
    cert = peel_realizer(bp, 3, 2, base_threshold=8, seed=6)
    text = certificate_to_json(cert)
    back = certificate_from_json(text)
    assert back.steps == cert.steps
    assert back.total_size == cert.total_size
    assert back.base_dimension == cert.base_dimension
    assert back.base_optimal == cert.base_optimal
    assert back.realizer == cert.realizer
    assert '"matrix"' in text  # matrices serialize as row strings
    realizer = json.loads(text)["realizer"]
    assert realizer["dimension"] == len(realizer["members"]) == cert.total_size
    assert len(realizer["tails"]) == len({e.order for e in cert.realizer.extensions})
    data = json.loads(text)
    del data["steps"][0]["matrix_rows"]  # optional: the matrix has its rows
    assert certificate_from_json_dict(data).steps == cert.steps


def test_v1_certificate_reads_like_a_v2_round_trip():
    # written by `peel --json` before v2, from tests/data/legacy_v1.poset,
    # by a peel that still spent cleanup members
    payload = json.loads((DATA / "legacy_v1.cert.json").read_text())
    assert "extensions" in payload["certificate"]["realizer"]
    legacy = certificate_from_json(json.dumps(payload["certificate"]))
    assert any(step.cleanup_count for step in legacy.steps)
    fresh = certificate_to_json(legacy)
    assert "tails" in json.loads(fresh)["realizer"]
    back = certificate_from_json(fresh)
    assert legacy.realizer == back.realizer
    assert legacy.steps == back.steps
    assert legacy.total_size == back.total_size == len(legacy.realizer) == 144
    check_realizer(load_poset(DATA / "legacy_v1.poset").poset, back.realizer.orders)


@pytest.mark.parametrize("data, fragment", [
    ({}, "lacks the 'steps' key"),
    ([], "must be an object, got list"),
    ({"steps": 3, "base_size": 0, "base_dimension": 1, "base_optimal": True,
      "total_size": 1, "realizer": {}}, "'steps' must be a list, got int"),
    ({"steps": [{"q": 2}], "base_size": 0, "base_dimension": 1,
      "base_optimal": True, "total_size": 1, "realizer": {}},
     "step 0 lacks the 'removed' key"),
])
def test_certificate_from_json_dict_names_what_is_malformed(data, fragment):
    with pytest.raises(ValueError, match=fragment):
        certificate_from_json_dict(data)


@pytest.mark.parametrize("where, key, value, fragment", [
    (0, "q", None, "step 0 'q' must be an integer, got NoneType"),
    (0, "extensions_built", 2.0, "'extensions_built' must be an integer"),
    (0, "color", True, "'color' must be an integer, got bool"),
    (0, "removed", [0, "1"], "step 0 'removed' must be a list of integers"),
    (0, "matrix", [101], "step 0 'matrix' must be a list of strings"),
    (None, "total_size", "12", "'total_size' must be an integer, got str"),
    (None, "base_optimal", "false",
     "certificate 'base_optimal' must be a boolean, got str"),
])
def test_certificate_from_json_dict_names_mistyped_fields(where, key, value,
                                                         fragment):
    cert = peel_realizer(random_skfree_bipartite(10, 10, 0.3, 3, seed=19),
                         3, 2, base_threshold=8, seed=6)
    data = json.loads(certificate_to_json(cert))
    (data if where is None else data["steps"][where])[key] = value
    with pytest.raises(ValueError, match=fragment):
        certificate_from_json_dict(data)


def _shift_member(data):
    # one member moved from step 0's count to step 1's: the totals hold
    data["steps"][0]["extensions_built"] -= 1
    data["steps"][1]["extensions_built"] += 1


def _negative_cleanup(data):
    # the step's and the base's counts moved with it: the totals hold
    step = data["steps"][0]
    drop = step["cleanup_extensions"] + 1
    step["cleanup_extensions"] = -1
    step["extensions_built"] -= drop
    data["base_dimension"] += drop


def _widen_matrix(data):
    step = data["steps"][0]
    step["matrix"] = [row + "0" for row in step["matrix"]]


def _two_in_matrix(data):
    matrix = data["steps"][2]["matrix"]
    matrix[0] = "2" + matrix[0][1:]


def _empty_matrix(data):
    # the rows' members moved to cleanup: the totals hold
    step = data["steps"][0]
    step["cleanup_extensions"] += 2 * len(step["matrix"])
    step["matrix"] = []
    step["matrix_rows"] = 0


def _empty_step(data):
    # one member moved from the base to a step that removes nothing
    data["steps"][:0] = [{"removed": [], "q": 0, "color": 1, "matrix": [],
                          "matrix_rows": 0, "extensions_built": 1,
                          "cleanup_extensions": 0}]
    data["base_dimension"] -= 1


def _negative_base(data):
    # the base's members and one more moved to step 0's cleanup: the
    # totals hold, and the base is left with -1 members
    step, moved = data["steps"][0], data["base_dimension"] + 1
    step["cleanup_extensions"] += moved
    step["extensions_built"] += moved
    data["base_dimension"] -= moved


def _removed(step, ids):
    # the step's removed set becomes ids(every step's removed set)
    def edit(data):
        steps = data["steps"]
        steps[step]["removed"] = ids([s["removed"] for s in steps])
    return edit


@pytest.mark.parametrize("where, key, value, error, fragment", [
    (None, "total_size", 1, VerificationFailed, "total_size 1,"),
    (0, "extensions_built", 0, VerificationFailed, "step extensions"),
    (0, "q", 3, ValueError, "step 0 'q' is 3, not 2"),
    (0, "matrix_rows", 2, ValueError, "step 0 'matrix_rows' is 2, not "),
    (0, "matrix_rows", True, ValueError, "'matrix_rows' is True"),
    # value edits the whole dict, keeping the totals
    (None, None, _shift_member, ValueError,
     "^certificate step 0 'extensions_built' is 34, not 35$"),
    (None, "base_size", 11, ValueError, "^certificate 'base_size' is 11, not 10$"),
    (None, None, _negative_cleanup, ValueError,
     "^certificate step 0 'cleanup_extensions' is -1, below 0$"),
    (None, None, _negative_base, ValueError,
     "^certificate 'base_dimension' is -1, below 0$"),
    (None, None, _widen_matrix, ValueError,
     "^certificate step 0 'matrix' rows must each have q=2 columns$"),
    (None, None, _two_in_matrix, ValueError,
     "^certificate step 2 'matrix' entries must be 0 or 1$"),
    # every peel step removes q >= 2 elements and spends r >= 6 rows
    (None, None, _empty_matrix, ValueError,
     "^certificate step 0 'matrix' has no rows$"),
    (None, None, _empty_step, ValueError,
     "^certificate step 0 'removed' lists 0 elements, fewer than 2$"),
    # each removed id is one of the realizer's, removed once
    (None, None, _removed(0, lambda r: [-1, r[0][1]]), ValueError,
     "^certificate step 0 removes -1 outside 0..19$"),
    (None, None, _removed(0, lambda r: [999, r[0][1]]), ValueError,
     "^certificate step 0 removes 999 outside 0..19$"),
    (None, None, _removed(0, lambda r: [r[0][0]] * 2), ValueError,
     "^certificate step 0 removes .* again$"),
    (None, None, _removed(1, lambda r: list(r[0])),
     ValueError, "^certificate step 1 removes .* again$"),
])
def test_certificate_from_json_dict_checks_its_counts(where, key, value, error,
                                                      fragment):
    # each redundant count must agree with what it counts
    cert = peel_realizer(random_skfree_bipartite(10, 10, 0.3, 3, seed=19),
                         3, 2, base_threshold=8, seed=6)
    data = json.loads(certificate_to_json(cert))
    if callable(value):
        value(data)
    else:
        (data if where is None else data["steps"][where])[key] = value
    with pytest.raises(error, match=fragment):
        certificate_from_json_dict(data)


@pytest.mark.parametrize("color", [0, -1])
def test_certificate_reader_refuses_a_color_below_1(color):
    # a peel writes colors 1..k; k is not stored, so only the floor is
    # refusable from the file alone
    cert = peel_realizer(random_skfree_bipartite(10, 10, 0.3, 3, seed=19),
                         3, 2, base_threshold=8, seed=6)
    data = json.loads(certificate_to_json(cert))
    data["steps"][1]["color"] = color
    with pytest.raises(ValueError,
                       match=f"^certificate step 1 'color' is {color}, below 1$"):
        certificate_from_json_dict(data)


@pytest.mark.parametrize("read", [certificate_from_json, realizer_from_json])
@pytest.mark.parametrize("depth", [1_000, 100_000])
def test_json_readers_refuse_over_nested_input(read, depth):
    # the parser's RecursionError must not escape as if the library failed
    with pytest.raises(ValueError, match="^JSON nested too deeply$"):
        read('{"n": ' + "[" * depth + "]" * depth + "}")


# -- the general pipeline --------------------------------------------------------------------


def test_general_upper_bound_rejects_posets_with_standard_example():
    with pytest.raises(ContainsSk) as exc:
        general_upper_bound(standard_example(3), 3, 2, 8, seed=0)
    assert embedding_valid(standard_example(3), exc.value.embedding)


def test_general_upper_bound_on_random_free_posets():
    checked = 0
    for i in range(15):
        p = random_poset(7, 0.3, seed=derive_seed(606, i))
        if find_standard_example(p, 3) is not None:
            continue
        checked += 1
        res = general_upper_bound(p, 3, 2, base_threshold=8, seed=i)
        ok, _ = is_realizer(p, res.realizer_for_p.extensions)
        assert ok
        assert exact_dimension(p).d <= res.bound
        assert res.bound == res.certificate.total_size
    assert checked >= 10


def test_repeated_members_are_lifted_and_projected_once(monkeypatch):
    calls = []
    real = skfree._project_split_orders
    monkeypatch.setattr(skfree, "_project_split_orders",
                        lambda p_, orders: calls.append(orders) or real(p_, orders))
    p = random_poset(40, 0.06, seed=12)  # free of the 6-element example
    res = general_upper_bound(p, 3, 3, base_threshold=12, seed=12)
    split = res.certificate.realizer
    assert len(split.orders) < len(split)
    assert len({e.order for e in split.orders}) == len(split.orders)
    # within one peel, distinct members map to distinct orders
    start = 0
    for step in res.certificate.steps:
        chunk = split.members[start:start + step.extensions_built]
        assert len(set(chunk)) == len({split.orders[i].order for i in chunk})
        start += step.extensions_built
    # the distinct orders of the split's realizer are projected in one
    # pass, each once, and each member's projection is its order's own
    assert len(calls) == 1 and calls[0] is split.orders
    assert res.realizer_for_p.extensions[:len(split)] == tuple(
        next(real(p, [ext])) for ext in split.extensions)


def test_general_upper_bound_checks_what_it_projects(monkeypatch):
    # a lossy projection (every split order to one fixed extension) must
    # not pass: the final check guards the realizer for p
    p = random_poset(12, 0.2, seed=3)
    assert find_standard_example(p, 3) is None
    one = exact_dimension(p).witness.orders[0]
    monkeypatch.setattr(skfree, "_project_split_orders",
                        lambda p_, orders: [one for _ in orders])
    with pytest.raises(VerificationFailed, match="critical pairs unreversed"):
        general_upper_bound(p, 3, 2, base_threshold=8, seed=3)


def test_a_split_realizer_projects_to_a_realizer():
    # these orders realize the split of 0 < 1 beside 2; ranked by the
    # maximal copies, each projected with 2 below 1, leaving (2, 1)
    # unreversed; ranked by the minimal copies, the third lists 1 below 2
    p = Poset.from_relations(3, [(0, 1)])
    split = [LinearExtension(order) for order in
             [(0, 1, 3, 2, 5, 4), (1, 0, 4, 2, 5, 3), (2, 5, 0, 3, 1, 4)]]
    assert is_realizer(kimble_split(p), split) == (True, [])
    projected = list(_project_split_orders(p, split))
    assert [ext.order for ext in projected] == [(0, 1, 2), (0, 1, 2), (2, 0, 1)]
    assert is_realizer(p, projected) == (True, [])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 7), st.floats(0.0, 0.6), st.data())
def test_every_split_realizer_projects_to_a_realizer(seed, n, edge_prob, data):
    # the split's exact witness, and a random realizer of the split (a
    # random linear extension, then one reversing each critical pair),
    # must each project to a realizer of p
    p = random_poset(n, edge_prob, seed)
    split = kimble_split(p)
    drawn = []
    for pair in [None, *critical_pairs(split)]:
        cl = _Closure(split)
        if pair is not None:
            cl.add_below(1 << pair.y, pair.x)
        perm = data.draw(st.permutations(range(2 * n)))
        drawn.append(LinearExtension(ranked_topological_order(cl.down, perm)))
    for family in (exact_dimension(split).witness.orders, drawn):
        assert is_realizer(split, family) == (True, [])
        projected = list(_project_split_orders(p, family))
        assert is_realizer(p, projected) == (True, [])


def _min_priority_projection(p, order):
    # the rule as specified: among the elements whose down-set is all
    # placed, emit the one whose minimal copy x sits lowest in order
    n = p.n
    pos = {v: i for i, v in enumerate(order)}
    placed: set[int] = set()
    out = []
    while len(out) < n:
        ready = [x for x in range(n) if x not in placed and downset(p, x) <= placed]
        best = min(ready, key=lambda x: pos[x])
        out.append(best)
        placed.add(best)
    return tuple(out)


@settings(max_examples=80)
@given(st.integers(0, 2**32), st.integers(1, 12), st.floats(0.0, 0.6), st.data())
def test_split_projection_matches_min_priority_rule(seed, n, edge_prob, data):
    p = random_poset(n, edge_prob, seed)
    order = data.draw(st.permutations(range(2 * n)))
    (got,) = _project_split_orders(p, [LinearExtension(tuple(order))])
    assert got.order == _min_priority_projection(p, order)
    check_extension(p, got)


def _shared_prefix_orders(p, rnd, count):
    # split orders sharing a prefix of the elements of p listed top down,
    # so that its elements wait on those of the shuffled tail below them
    top_down = sorted(range(p.n), key=lambda v: -p.downset_mask(v).bit_count())
    base = top_down + list(range(p.n, 2 * p.n))
    cut = rnd.randint(0, p.n)
    orders = []
    for _ in range(count):
        tail = base[cut:]
        rnd.shuffle(tail)
        orders.append(LinearExtension(tuple(base[:cut] + tail)))
    return orders


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 10), st.floats(0.0, 0.5), st.randoms())
def test_resumed_projection_matches_min_priority_rule(seed, n, edge_prob, rnd):
    # the resumed pass projects each order as the rule does from scratch:
    # on a peel's orders, on orders sharing a prefix whose elements wait
    # on a shuffled tail, and on each in a shuffled sequence
    p = random_poset(n, edge_prob, seed)
    families = [_shared_prefix_orders(p, rnd, 6) for _ in range(2)]
    families.append(families[0] + families[1])
    if find_standard_example(p, 3) is None:
        families.append(general_upper_bound(
            p, 3, 2, base_threshold=6, seed=seed).certificate.realizer.orders)
    for family in families:
        for orders in (list(family), rnd.sample(list(family), len(family))):
            got = [ext.order for ext in _project_split_orders(p, orders)]
            assert got == [_min_priority_projection(p, ext.order) for ext in orders]


def test_general_upper_bound_on_chain():
    chain = Poset.from_relations(5, [(i, i + 1) for i in range(4)])
    res = general_upper_bound(chain, 3, 2, base_threshold=12, seed=1)
    ok, _ = is_realizer(chain, res.realizer_for_p.extensions)
    assert ok
    assert res.bound <= 12  # split fits inside the base solver here
