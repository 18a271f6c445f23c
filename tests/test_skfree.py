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
    LinearExtension,
    Poset,
    Realizer,
    UBColoring,
    acquire_event_matrix,
    build_reversing_extensions,
    certificate_from_json,
    certificate_to_json,
    check_extension,
    critical_pairs,
    derive_seed,
    embedding_valid,
    event_E_holds,
    event_probability_bound,
    exact_dimension,
    extension_from_sigma,
    find_monochromatic,
    find_standard_example,
    general_upper_bound,
    is_realizer,
    load_poset,
    mates,
    peel_realizer,
    peel_step,
    random_poset,
    random_skfree_bipartite,
    sigma_permutations,
    standard_example,
    standard_example_bipartite,
    step_extension_cap,
    subset_color,
    ub_coloring,
    valid_colors,
)
from posetdim import skfree
from posetdim.dimension import listed_below
from posetdim.skfree import (
    _check_q_pairs_reversed,
    _project_split_extension,
    certificate_from_json_dict,
)
from posetdim.errors import (
    AcquisitionFailed,
    BoundExceeded,
    ContainsSk,
    NoMonochromaticSet,
    NoValidColor,
    VerificationFailed,
)

from conftest import check_coloring

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


def test_acquire_failure_is_diagnosed():
    # one row cannot isolate both columns of any pair
    with pytest.raises(AcquisitionFailed) as exc:
        acquire_event_matrix(2, 3, 1, seed=5, max_tries=50)
    assert exc.value.analytic_bound < 0


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


def test_valid_colors_raises_with_witness_on_standard_example():
    bp = standard_example_bipartite(3)
    with pytest.raises(NoValidColor) as exc:
        valid_colors(bp, (0, 1, 2))
    emb = exc.value.embedding
    assert embedding_valid(bp.poset, emb)
    assert emb.a_elems == (0, 1, 2)


def test_colors_on_free_posets():
    for i in range(15):
        bp = random_skfree_bipartite(8, 8, 0.3, 3, seed=derive_seed(5, i))
        for subset in combinations(bp.a_order, 3):
            cols = valid_colors(bp, subset)
            assert cols  # freeness means some position lacks a mate
            assert subset_color(bp, subset) == min(cols)
            for c in cols:
                assert mates(bp, subset, c) == frozenset()


def test_ub_coloring_eager_matches_lazy():
    bp = random_skfree_bipartite(9, 9, 0.3, 3, seed=77)
    eager = ub_coloring(bp, 3)
    check_coloring(eager)
    lazy = UBColoring(bp, 3)
    for positions, color in eager.colors.items():
        assert lazy.color_of(positions) == color
    assert len(eager.colors) == math.comb(9, 3)
    assert lazy.colors == eager.colors  # memoized as read
    with pytest.raises(ValueError):
        UBColoring(bp, 1)


def test_find_monochromatic_small_cases():
    bp = random_skfree_bipartite(8, 8, 0.3, 3, seed=13)
    coloring = ub_coloring(bp, 3)
    got = find_monochromatic(bp, coloring, 3)
    if got is not None:
        q_elems, color = got
        for subset in combinations(q_elems, 3):
            assert subset_color(bp, subset) == color
    # q below k is vacuously monochromatic with the first color
    assert find_monochromatic(bp, coloring, 2) == ((0, 1), 1)
    # q beyond |A| is impossible
    assert find_monochromatic(bp, coloring, 9) is None
    with pytest.raises(ValueError):
        find_monochromatic(bp, coloring, 1)


def test_find_monochromatic_respects_colors():
    # an antichain-with-full-B poset: every subset gets some color; the
    # returned set must be checked against every embedded k-subset
    found = 0
    for i in range(30):
        bp = random_skfree_bipartite(9, 9, 0.35, 3, seed=derive_seed(99, i))
        coloring = ub_coloring(bp, 3)
        got = find_monochromatic(bp, coloring, 4)
        if got is None:
            continue
        found += 1
        q_elems, color = got
        assert len(q_elems) == 4
        for subset in combinations(q_elems, 3):
            assert subset_color(bp, subset) == color
    assert found > 0


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
    ext = extension_from_sigma(bp, (0, 1), (0, 1))
    assert ext.order == (1, 2, 0, 3)
    ext2 = extension_from_sigma(bp, (0, 1), (1, 0))
    assert ext2.order == (0, 3, 1, 2)
    with pytest.raises(ValueError):
        extension_from_sigma(bp, (0, 1), (0, 0))


def test_extension_from_sigma_always_valid():
    for i in range(25):
        bp = random_skfree_bipartite(8, 8, 0.35, 3, seed=derive_seed(17, i))
        q_elems = tuple(bp.a_order[:3])
        for sigma in ((0, 1, 2), (2, 1, 0), (1, 2, 0)):
            ext = extension_from_sigma(bp, q_elems, sigma)
            check_extension(bp.poset, ext)
            assert sorted(ext.order) == list(range(bp.poset.n))


# -- reversing extensions ---------------------------------------------------------------


def test_build_reversing_extension_counts_frozen():
    # 2 * ceil(k 2^k ln q) at k=3: q=2 -> 34, q=3 -> 54, q=4 -> 68
    want = {2: 34, 3: 54, 4: 68}
    bp = random_skfree_bipartite(10, 10, 0.25, 3, seed=23)
    coloring = ub_coloring(bp, 3)
    for q, count in want.items():
        got = find_monochromatic(bp, coloring, q)
        if got is None:
            pytest.skip(f"no monochromatic {q}-set for this seed")
        q_elems, color = got
        exts, mat = build_reversing_extensions(bp, 3, q_elems, color, seed=2)
        assert len(exts) == count
        assert mat.r == count // 2
        assert len(set(e.order for e in exts)) > 1


def test_build_reversing_extensions_postcondition():
    # the constructor verifies internally; re-check here independently
    hits = 0
    for i in range(40):
        bp = random_skfree_bipartite(9, 9, 0.3, 3, seed=derive_seed(3571, i))
        coloring = ub_coloring(bp, 3)
        got = find_monochromatic(bp, coloring, 3)
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


def _first_unreversed(bp, q_elems, exts):
    # the pair-by-pair rule: Q in order, then B ascending
    for a in q_elems:
        for b in sorted(bp.b_order):
            if bp.poset.incomparable(a, b) and not any(
                e.positions()[b] < e.positions()[a] for e in exts
            ):
                return (a, b)
    return None


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.data())
def test_postcondition_reports_the_first_unreversed_pair(seed, data):
    # keep some of the distinct members and mutate one (an element of Q
    # moved to the bottom); the check must raise for the pair the
    # pair-by-pair rule finds first, and pass when that rule finds none
    bp = random_skfree_bipartite(8, 8, 0.3, 3, seed=seed)
    got = find_monochromatic(bp, UBColoring(bp, 3), 3)
    if got is None:
        return
    q_elems, color = got
    exts, _ = build_reversing_extensions(bp, 3, q_elems, color, seed=0)
    distinct = list(dict.fromkeys(exts))
    family = data.draw(st.lists(st.sampled_from(distinct), min_size=1), label="kept")
    j = data.draw(st.integers(0, len(family) - 1), label="mutated")
    moved = data.draw(st.sampled_from(q_elems), label="moved")
    family[j] = LinearExtension(
        (moved,) + tuple(v for v in family[j].order if v != moved))
    want = _first_unreversed(bp, q_elems, family)
    if want is None:
        _check_q_pairs_reversed(bp, q_elems, family, color, 1)
    else:
        with pytest.raises(VerificationFailed) as exc:
            _check_q_pairs_reversed(bp, q_elems, family, color, 1)
        assert exc.value.pair == want


def test_postcondition_raises_when_a_q_element_is_never_lifted(monkeypatch):
    # every member lists Q's first element at the bottom: its first
    # incomparable B element is the pair to report
    for i in range(40):
        bp = random_skfree_bipartite(8, 8, 0.3, 3, seed=derive_seed(41, i))
        got = find_monochromatic(bp, UBColoring(bp, 3), 3)
        if got is not None:
            break
    q_elems, color = got
    a = q_elems[0]
    b = min(v for v in bp.b_order if bp.poset.incomparable(a, v))
    real = skfree.extension_from_sigma
    monkeypatch.setattr(skfree, "extension_from_sigma", lambda bp_, q_, sigma: (
        LinearExtension((a,) + tuple(v for v in real(bp_, q_, sigma).order if v != a))
    ))
    with pytest.raises(VerificationFailed) as exc:
        build_reversing_extensions(bp, 3, q_elems, color, seed=0)
    assert exc.value.pair == (a, b)
    assert f"pair ({a}, {b}) not reversed; position 1 of Q" in str(exc.value)


def test_build_reversing_extensions_shares_repeated_members():
    # repeated matrix rows repeat a traversal; each distinct one is built
    # once, and every member is still a linear extension
    checked = 0
    for i in range(20):
        bp = random_skfree_bipartite(10, 10, 0.25, 3, seed=derive_seed(29, i))
        coloring = ub_coloring(bp, 3)
        for q in (2, 3, 4):
            got = find_monochromatic(bp, coloring, q)
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


def test_step_extension_cap_frozen():
    assert step_extension_cap(3, 2) == 49   # floor(72 ln 2)
    assert step_extension_cap(3, 3) == 79   # floor(72 ln 3)


# -- peel steps and certificates ----------------------------------------------------------


def test_peel_step_covers_all_pairs_touching_q():
    for i in range(20):
        bp = random_skfree_bipartite(10, 10, 0.3, 3, seed=derive_seed(41, i))
        step, exts = peel_step(bp, 3, 2, seed=i)
        assert step.q == 2 and len(step.removed) == 2
        assert step.extensions_built == len(exts)
        assert step.extensions_built <= step_extension_cap(3, 2)
        qset = set(step.removed)
        pos = [e.positions() for e in exts]
        for c in critical_pairs(bp.poset):
            if c.x in qset or c.y in qset:
                assert any(pr[c.y] < pr[c.x] for pr in pos), (i, c)
        for e in exts:
            check_extension(bp.poset, e)


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


def test_certificate_counts_duplicate_extensions():
    # the paper's accounting: every member counts, repeats included
    bp = random_skfree_bipartite(20, 20, 1.5 / 20, 3, seed=7)
    cert = peel_realizer(bp, 3, 3, base_threshold=12, seed=7)
    assert cert.steps
    for s in cert.steps:
        assert s.extensions_built == 2 * s.matrix_rows + 1 + s.cleanup_count
    distinct = len({e.order for e in cert.realizer.extensions})
    assert distinct < cert.total_size == len(cert.realizer.extensions)


def test_peel_realizer_rejects_small_k_and_q():
    bp = random_skfree_bipartite(6, 6, 0.3, 3, seed=9)
    # the base threshold of 100 would skip peeling altogether
    for threshold in (4, 100):
        for k, q in ((1, 3), (0, 3), (-1, 3), (3, 1), (3, 0)):
            with pytest.raises(ValueError):
                peel_realizer(bp, k, q, base_threshold=threshold, seed=1)


def test_peel_realizer_dualizes_when_b_is_larger():
    bp = random_skfree_bipartite(4, 12, 0.35, 3, seed=5)
    cert = peel_realizer(bp, 3, 2, base_threshold=6, seed=3)
    ok, _ = is_realizer(bp.poset, cert.realizer.extensions)
    assert ok
    # the peeled side was B, so removed elements are B-side ids
    assert all(set(s.removed) <= set(bp.b_order) for s in cert.steps)
    assert len(cert.steps) >= 1


def test_peel_realizer_tiny_base_budget_still_sound():
    bp = random_skfree_bipartite(10, 10, 0.3, 3, seed=71)
    cert = peel_realizer(bp, 3, 2, base_threshold=8, seed=2, base_budget=1)
    ok, _ = is_realizer(bp.poset, cert.realizer.extensions)
    assert ok
    cert.check()
    # no peel step here: the whole poset is the base, and the greedy
    # does not settle it, so a zero budget downgrades base_optimal
    bp = random_skfree_bipartite(6, 6, 0.5, 3, 0)
    cert = peel_realizer(bp, 3, 3, base_threshold=12, seed=0, base_budget=0)
    assert cert.steps == () and cert.base_optimal is False
    ok, _ = is_realizer(bp.poset, cert.realizer.extensions)
    assert ok
    cert.check()


def test_certificate_check_raises_on_bad_totals():
    # a typed error, not an assert, so it also runs under python -O
    bp = random_skfree_bipartite(10, 10, 0.3, 3, seed=71)
    cert = peel_realizer(bp, 3, 2, base_threshold=8, seed=2)
    total = cert.total_size
    cert.total_size += 1
    with pytest.raises(VerificationFailed) as exc:
        cert.check()
    assert str(exc.value) == (
        f"total_size {total + 1}, base dimension plus step extensions "
        f"{total}, realizer members {total}"
    )
    cert.total_size = total
    cert.realizer = Realizer(cert.realizer.extensions[1:])
    with pytest.raises(VerificationFailed, match=f"realizer members {total - 1}$"):
        cert.check()


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
    assert len(realizer["orders"]) == len({e.order for e in cert.realizer.extensions})


def test_v1_certificate_reads_like_a_v2_round_trip():
    # written by `peel --json` before v2, from tests/data/legacy_v1.poset
    payload = json.loads((DATA / "legacy_v1.cert.json").read_text())
    assert "extensions" in payload["certificate"]["realizer"]
    legacy = certificate_from_json(json.dumps(payload["certificate"]))
    params = payload["parameters"]
    cert = peel_realizer(load_poset(DATA / "legacy_v1.poset"), params["k"],
                         params["q"], params["threshold"], payload["seed"])
    back = certificate_from_json(certificate_to_json(cert))
    assert legacy.realizer == back.realizer == cert.realizer
    assert legacy.steps == back.steps
    assert legacy.total_size == back.total_size == len(legacy.realizer)


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
])
def test_certificate_from_json_dict_names_mistyped_fields(where, key, value,
                                                         fragment):
    cert = peel_realizer(random_skfree_bipartite(10, 10, 0.3, 3, seed=19),
                         3, 2, base_threshold=8, seed=6)
    data = json.loads(certificate_to_json(cert))
    (data if where is None else data["steps"][where])[key] = value
    with pytest.raises(ValueError, match=fragment):
        certificate_from_json_dict(data)


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


def test_repeated_members_are_lifted_and_projected_once():
    p = random_poset(40, 0.06, seed=12)  # free of the 6-element example
    res = general_upper_bound(p, 3, 3, base_threshold=12, seed=12)
    members = res.certificate.realizer.extensions
    assert len({e.order for e in members}) < len(members)
    # within one peel a repeated order is lifted once, to one object
    start = 0
    for step in res.certificate.steps:
        chunk = members[start:start + step.extensions_built]
        assert len({id(e) for e in chunk}) == len({e.order for e in chunk})
        start += step.extensions_built
    # each distinct order of the split's realizer is projected once
    projected = res.realizer_for_p.extensions[:len(members)]
    assert len({id(e) for e in projected}) == len({e.order for e in members})


def _min_priority_projection(p, order):
    # the rule as specified: among the elements whose down-set is all
    # placed, emit the one whose maximal copy n + x sits lowest in order
    n = p.n
    pos = {v: i for i, v in enumerate(order)}
    placed: set[int] = set()
    out = []
    while len(out) < n:
        ready = [x for x in range(n) if x not in placed and p.downset(x) <= placed]
        best = min(ready, key=lambda x: pos[n + x])
        out.append(best)
        placed.add(best)
    return tuple(out)


@settings(max_examples=80)
@given(st.integers(0, 2**32), st.integers(1, 12), st.floats(0.0, 0.6), st.data())
def test_split_projection_matches_min_priority_rule(seed, n, edge_prob, data):
    p = random_poset(n, edge_prob, seed)
    order = data.draw(st.permutations(range(2 * n)))
    got = _project_split_extension(p, LinearExtension(tuple(order)))
    assert got.order == _min_priority_projection(p, order)
    check_extension(p, got)


def test_general_upper_bound_on_chain():
    chain = Poset.from_relations(5, [(i, i + 1) for i in range(4)])
    res = general_upper_bound(chain, 3, 2, base_threshold=12, seed=1)
    ok, _ = is_realizer(chain, res.realizer_for_p.extensions)
    assert ok
    assert res.bound <= 12  # split fits inside the base solver here
