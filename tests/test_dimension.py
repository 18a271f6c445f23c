"""Dimension machinery: critical pairs, reversibility, solvers, realizers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetdim import (
    CriticalPair,
    LinearExtension,
    Poset,
    Realizer,
    all_linear_extensions,
    brute_force_dimension,
    check_extension,
    critical_pairs,
    derive_seed,
    exact_dimension,
    greedy_reversing_extensions,
    is_realizer,
    is_reversible,
    random_bipartite,
    random_poset,
    reverses,
    standard_example,
)
from posetdim.dimension import realizer_from_json, realizer_to_json
from posetdim.errors import (
    BudgetExceeded,
    ComparablePairError,
    NotAnExtension,
    TooLarge,
)

from conftest import naive_critical_pairs, naive_is_extension, seeded_posets


# -- critical pairs ---------------------------------------------------------------


def test_critical_pairs_frozen_standard_example():
    s3 = standard_example(3)
    assert [(c.x, c.y) for c in critical_pairs(s3)] == [(0, 3), (1, 4), (2, 5)]
    s2 = standard_example(2)
    assert [(c.x, c.y) for c in critical_pairs(s2)] == [(0, 2), (1, 3)]


def test_critical_pairs_agree_with_definition():
    for i, p in seeded_posets(150, 2, 8, seed=2718):
        got = [(c.x, c.y) for c in critical_pairs(p)]
        assert got == naive_critical_pairs(p), i


def test_every_cross_incomparable_pair_is_critical_in_bipartite():
    for i in range(25):
        bp = random_bipartite(5, 5, 0.4, seed=derive_seed(55, i))
        crit = {(c.x, c.y) for c in critical_pairs(bp.poset)}
        for a in bp.a_order:
            for b in bp.b_order:
                if bp.poset.incomparable(a, b):
                    assert (a, b) in crit


@settings(max_examples=60)
@given(st.integers(0, 10_000), st.integers(1, 9), st.integers(0, 2**9 - 1))
def test_critical_pairs_touching_mask_filters_full_list(seed, n, mask):
    p = random_poset(n, 0.3, seed)
    mask &= (1 << n) - 1
    got = [(c.x, c.y) for c in critical_pairs(p, touching=mask)]
    want = [(x, y) for x, y in naive_critical_pairs(p)
            if (mask >> x) & 1 or (mask >> y) & 1]
    assert got == want


def test_chain_has_no_critical_pairs():
    chain = Poset.from_relations(5, [(i, i + 1) for i in range(4)])
    assert critical_pairs(chain) == []


# -- extensions and reversal -------------------------------------------------------


def test_check_extension_and_reverses():
    p = Poset.from_relations(3, [(0, 2), (1, 2)])
    good = LinearExtension((1, 0, 2))
    check_extension(p, good)
    assert reverses(good, CriticalPair(0, 1))
    assert not reverses(good, CriticalPair(1, 0))
    with pytest.raises(NotAnExtension) as exc:
        check_extension(p, LinearExtension((2, 0, 1)))
    assert exc.value.pair in {(0, 2), (1, 2)}
    with pytest.raises(NotAnExtension):
        check_extension(p, LinearExtension((0, 1)))  # wrong ground set
    with pytest.raises(NotAnExtension):
        check_extension(p, LinearExtension((0, 1, 7)))  # id outside 0..n-1


@settings(max_examples=40)
@given(st.integers(0, 10_000), st.integers(1, 7))
def test_solver_witness_orders_are_extensions(seed, n):
    p = random_poset(n, 0.35, seed)
    res = exact_dimension(p)
    for ext in res.witness.extensions:
        assert naive_is_extension(p, ext.order)


def test_is_reversible_and_conflicts():
    s2 = standard_example(2)
    cps = critical_pairs(s2)
    ok, ext = is_reversible(s2, [cps[0]])
    assert ok and reverses(ext, cps[0])
    ok, ext = is_reversible(s2, cps)  # the two pairs force a cycle
    assert not ok and ext is None
    with pytest.raises(ComparablePairError):
        is_reversible(s2, [CriticalPair(0, 3)])  # 0 < 3 in S_2


def test_greedy_reversing_extensions_cover_input():
    for i in range(30):
        p = random_poset(7, 0.3, seed=derive_seed(77, i))
        cps = critical_pairs(p)
        exts = greedy_reversing_extensions(p, cps)
        for c in cps:
            assert any(reverses(e, c) for e in exts)
        for e in exts:
            check_extension(p, e)


# -- realizers ---------------------------------------------------------------------


def test_is_realizer_basics():
    s2 = standard_example(2)
    e1 = LinearExtension((0, 3, 1, 2))
    e2 = LinearExtension((1, 2, 0, 3))
    ok, unrev = is_realizer(s2, [e1, e2])
    assert ok and unrev == []
    ok, unrev = is_realizer(s2, [e1])  # e1 reverses (1,3) but not (0,2)
    assert not ok and [(c.x, c.y) for c in unrev] == [(0, 2)]
    assert is_realizer(Poset.from_relations(0, []), [])[0]
    assert not is_realizer(Poset.from_relations(1, []), [])[0]


def test_is_realizer_vectorized_path_matches_plain():
    # a large family with many repeated members, as peeling produces
    bp = random_bipartite(40, 40, 0.15, seed=9)
    p = bp.poset
    cps = critical_pairs(p)
    exts = greedy_reversing_extensions(p, cps)
    family = list(exts) + [exts[0]] * (50_000 // len(cps) + 1 - len(exts))
    assert len(cps) * len(family) > 50_000
    ok, unrev = is_realizer(p, family)
    assert ok and unrev == []
    # a family of one repeated extension: agree with the direct check
    lone = [exts[0]] * len(family)
    ok2, unrev2 = is_realizer(p, lone)
    missed = [c for c in cps if not reverses(exts[0], c)]
    assert [(c.x, c.y) for c in unrev2] == [(c.x, c.y) for c in missed]
    assert not ok2 and missed


@settings(max_examples=60)
@given(st.integers(0, 10_000), st.integers(1, 8), st.data())
def test_is_realizer_agrees_with_naive_check(seed, n, data):
    p = random_poset(n, 0.3, seed)
    full = [e.order for e in greedy_reversing_extensions(p, critical_pairs(p))]
    full = full or [exact_dimension(p).witness.extensions[0].order]
    orders = list(full)
    if data.draw(st.booleans(), label="drop a member"):
        del orders[data.draw(st.integers(0, len(orders) - 1))]
    for _ in range(data.draw(st.integers(0, 3), label="duplicates")):
        orders.insert(data.draw(st.integers(0, len(orders))),
                      data.draw(st.sampled_from(full)))
    relations = list(p.pairs())
    if relations and data.draw(st.booleans(), label="break a member"):
        x, y = data.draw(st.sampled_from(relations))
        order = list(data.draw(st.sampled_from(full)))
        i, j = order.index(x), order.index(y)
        order[i], order[j] = y, x  # y now precedes x although x < y
        orders.insert(data.draw(st.integers(0, len(orders))), tuple(order))
    family = [LinearExtension(o) for o in orders]
    bad = next((o for o in orders if not naive_is_extension(p, o)), None)
    if bad is not None:
        with pytest.raises(NotAnExtension) as expected:
            check_extension(p, LinearExtension(bad))
        with pytest.raises(NotAnExtension) as got:
            is_realizer(p, family)
        assert got.value.pair == expected.value.pair
        return
    # naive: a pair is reversed when some member lists y before x
    pos_rows = [{v: i for i, v in enumerate(o)} for o in orders]
    unreversed = [(x, y) for x, y in naive_critical_pairs(p)
                  if not any(pos[y] < pos[x] for pos in pos_rows)]
    ok, unrev = is_realizer(p, family)
    assert ok == (bool(orders) and not unreversed)
    assert [(c.x, c.y) for c in unrev] == unreversed


def test_realizer_json_round_trip():
    p = standard_example(3)
    res = exact_dimension(p)
    text = realizer_to_json(p.n, res.witness, res.optimal)
    n, realizer, optimal = realizer_from_json(text)
    assert n == 6 and optimal and realizer == res.witness


# -- exact and brute-force solvers --------------------------------------------------


def test_dimension_of_standard_examples():
    for m in (2, 3, 4):
        res = exact_dimension(standard_example(m))
        assert res.d == m and res.optimal
        ok, _ = is_realizer(standard_example(m), res.witness.extensions)
        assert ok


def test_dimension_small_shapes():
    chain = Poset.from_relations(4, [(i, i + 1) for i in range(3)])
    assert exact_dimension(chain).d == 1
    anti = Poset.from_relations(4, [])
    assert exact_dimension(anti).d == 2
    single = Poset.from_relations(1, [])
    assert exact_dimension(single).d == 1
    vee = Poset.from_relations(3, [(0, 1), (0, 2)])
    assert exact_dimension(vee).d == 2


def test_exact_agrees_with_brute_force():
    for i, p in seeded_posets(120, 2, 6, seed=161803):
        res = exact_dimension(p)
        assert res.d == brute_force_dimension(p), (i, res.d)
        assert res.optimal


def test_brute_force_too_large():
    with pytest.raises(TooLarge):
        brute_force_dimension(Poset.from_relations(8, []))
    with pytest.raises(TooLarge):
        all_linear_extensions(random_poset(11, 0.2, 1))


def test_all_linear_extensions_counts():
    chain = Poset.from_relations(3, [(0, 1), (1, 2)])
    assert all_linear_extensions(chain) == [(0, 1, 2)]
    anti = Poset.from_relations(3, [])
    assert len(all_linear_extensions(anti)) == 6
    vee = Poset.from_relations(3, [(0, 2), (1, 2)])
    assert all_linear_extensions(vee) == [(0, 1, 2), (1, 0, 2)]


def test_budget_exhaustion_still_returns_a_realizer():
    # too many critical pairs for search: the solver must hand back its
    # greedy witness inside the exception rather than spin
    bp = random_bipartite(70, 70, 0.5, seed=4)
    with pytest.raises(BudgetExceeded) as exc:
        exact_dimension(bp.poset, budget=10)
    best = exc.value.best
    assert not best.optimal
    ok, _ = is_realizer(bp.poset, best.witness.extensions)
    assert ok
    assert best.d == len(best.witness.extensions)


def test_node_budget_path():
    # an instance where the greedy family is not known optimal, so the
    # deepening search must run and can be starved
    for i in range(200):
        p = random_poset(8, 0.25, seed=derive_seed(31337, i))
        free = exact_dimension(p)
        if not free.optimal:
            continue
        try:
            exact_dimension(p, budget=1)
        except BudgetExceeded as exc:
            ok, _ = is_realizer(p, exc.best.witness.extensions)
            assert ok
            break
    else:
        pytest.skip("no search-requiring instance in this seed range")


def test_realizer_never_smaller_than_reported_dimension():
    for i, p in seeded_posets(60, 3, 7, seed=777):
        res = exact_dimension(p)
        assert res.d == len(res.witness.extensions)
        ok, _ = is_realizer(p, res.witness.extensions)
        assert ok, i
