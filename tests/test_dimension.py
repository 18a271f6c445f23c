"""Dimension machinery: critical pairs, reversibility, solvers, realizers."""

import hashlib
import json
import sys
import time
from itertools import groupby

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetdim import (
    CriticalPair,
    DimensionResult,
    LinearExtension,
    Poset,
    Realizer,
    check_extension,
    critical_pairs,
    derive_seed,
    dimension,
    exact_dimension,
    greedy_reversing_extensions,
    is_realizer,
    random_bipartite,
    random_poset,
    standard_example,
)
from posetdim.dimension import (
    _CONFLICT_PAIR_CAP,
    _Closure,
    _conflict_masks,
    _exact_core,
    _first_fit,
    critical_rows,
    ranked_topological_order,
    realizer_from_json,
    realizer_from_json_dict,
    realizer_to_json,
    realizer_to_json_dict,
)
from posetdim.errors import BudgetExceeded, NotAnExtension, VerificationFailed

from conftest import (
    all_linear_extensions,
    brute_force_dimension,
    leq,
    naive_critical_pairs,
    naive_is_extension,
    relations,
    reverses,
    seeded_posets,
    v1_realizer_dict,
    v2_realizer_dict,
)


# -- critical pairs ---------------------------------------------------------------


def test_critical_pairs_frozen_standard_example():
    s3 = standard_example(3)
    assert [(c.x, c.y) for c in critical_pairs(s3)] == [(0, 3), (1, 4), (2, 5)]
    s2 = standard_example(2)
    assert [(c.x, c.y) for c in critical_pairs(s2)] == [(0, 2), (1, 3)]


@settings(max_examples=60)
@given(st.integers(0, 2**32), st.integers(2, 16), st.floats(0.0, 0.5))
def test_conflict_masks_match_pairwise_rule(seed, n, edge_prob):
    p = random_poset(n, edge_prob, seed)
    cps = critical_pairs(p)
    want = [0] * len(cps)
    for i, (xi, yi) in enumerate(cps):
        for j, (xj, yj) in enumerate(cps):
            if i != j and leq(p, xi, yj) and leq(p, xj, yi):
                want[i] |= 1 << j
    assert _conflict_masks(p, cps) == want


def test_conflict_masks_read_no_row_without_pairs():
    # gather reads rows only at the pairs' ends, so a chain's empty
    # graph costs no walk over its relations
    class Unread(tuple):
        def __getitem__(self, i):
            raise AssertionError(f"row {i} read")

    chain = Poset.from_relations(1500, [(i, i + 1) for i in range(1499)])
    chain._up, chain._down = Unread(chain._up), Unread(chain._down)
    assert _conflict_masks(chain, []) == []


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


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 20), st.integers(1, 20),
       st.floats(0.0, 0.4))
def test_critical_rows_agree_with_definition_on_peel_hosts(seed, na, nb,
                                                           edge_prob):
    # the peel's own shape: a sparse bipartite host
    p = random_bipartite(na, nb, edge_prob, seed).poset
    assert [(c.x, c.y) for c in critical_pairs(p)] == naive_critical_pairs(p)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 24), st.floats(0.0, 0.5))
def test_critical_rows_agree_with_definition_up_to_n24(seed, n, edge_prob):
    p = random_poset(n, edge_prob, seed)
    assert [(c.x, c.y) for c in critical_pairs(p)] == naive_critical_pairs(p)


def test_chain_has_no_critical_pairs():
    chain = Poset.from_relations(5, [(i, i + 1) for i in range(4)])
    assert critical_pairs(chain) == []


def test_critical_rows_of_a_tall_weak_order_with_an_isolated_element():
    # levels {2i, 2i+1}, each below the next, and an isolated z: the
    # level rows are dense (one or two incomparable ys), z's row is empty
    # of relations, so rows on both sides of the narrowing rule are read
    m = 300
    z = 2 * m
    p = Poset.from_relations(z + 1, [(2 * i + a, 2 * i + 2 + b)
                                     for i in range(m - 1) for a in (0, 1) for b in (0, 1)])
    want = [1 << (x ^ 1) for x in range(z)] + [0b11 << (z - 2)]
    want[0] |= 1 << z
    want[1] |= 1 << z
    assert critical_rows(p) == want


# metamorphic: these compare the rows with themselves under a dual or a
# relabelling, so no construction code serves as the oracle


def _transpose(rows):
    n = len(rows)
    return [sum(1 << x for x in range(n) if (rows[x] >> y) & 1) for y in range(n)]


def _random_extension(p, rnd):
    # repeatedly list a random element whose down-set is all listed
    order, left = [], set(range(p.n))
    while left:
        v = rnd.choice(sorted(
            u for u in left if not any(p.lt(w, u) for w in left)
        ))
        order.append(v)
        left.remove(v)
    return LinearExtension(order)


@settings(max_examples=80)
@given(st.integers(0, 10_000), st.integers(1, 12), st.floats(0.0, 0.5))
def test_critical_rows_of_the_dual_are_the_transpose(seed, n, edge_prob):
    p = random_poset(n, edge_prob, seed)
    assert critical_rows(p.dual()) == _transpose(critical_rows(p))


@settings(max_examples=80)
@given(st.integers(0, 10_000), st.integers(1, 12), st.floats(0.0, 0.5), st.data())
def test_critical_rows_follow_a_relabelling(seed, n, edge_prob, data):
    p = random_poset(n, edge_prob, seed)
    pi = data.draw(st.permutations(range(n)))
    q = Poset.from_relations(n, [(pi[x], pi[y]) for x, y in relations(p)])
    want = [0] * n
    for x, row in enumerate(critical_rows(p)):
        for y in range(n):
            if (row >> y) & 1:
                want[pi[x]] |= 1 << pi[y]
    assert critical_rows(q) == want


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 10), st.floats(0.0, 0.5),
       st.integers(0, 5), st.randoms())
def test_is_realizer_agrees_on_the_dual(seed, n, edge_prob, size, rnd):
    # reversing every member turns a family for p into one for p's dual;
    # an unreversed (x, y) of p is an unreversed (y, x) of the dual
    p = random_poset(n, edge_prob, seed)
    family = [_random_extension(p, rnd) for _ in range(size)]
    family += [rnd.choice(family) for _ in range(rnd.randint(0, 2))] if family else []
    flipped = [LinearExtension(e.order[::-1]) for e in family]
    ok, unrev = is_realizer(p, family)
    ok_dual, unrev_dual = is_realizer(p.dual(), flipped)
    assert ok == ok_dual
    assert sorted((y, x) for x, y in unrev) == [tuple(c) for c in unrev_dual]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 12), st.floats(0.0, 0.6), st.data())
def test_exact_dimension_is_unchanged_by_dual_and_relabelling(seed, n, edge_prob,
                                                               data):
    # dim(P) = dim(P^d), and a relabelled copy is the same order; only
    # results the search settled within its budget are compared
    p = random_poset(n, edge_prob, seed)
    pi = data.draw(st.permutations(range(n)))
    relabelled = Poset.from_relations(n, [(pi[x], pi[y]) for x, y in relations(p)])
    try:
        dims = [exact_dimension(q, budget=200_000).d
                for q in (p, p.dual(), relabelled)]
    except BudgetExceeded:
        return
    assert dims[0] == dims[1] == dims[2], dims


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


def test_ranked_topological_order_refuses_a_cycle():
    # each element waits on the other: the scan finds none to emit and
    # raises instead of looping
    assert ranked_topological_order([0b10, 0b00], range(2)) == (1, 0)
    with pytest.raises(AssertionError, match="cycle in the relation"):
        ranked_topological_order([0b10, 0b01], range(2))


@settings(max_examples=40)
@given(st.integers(0, 10_000), st.integers(1, 7))
def test_solver_witness_orders_are_extensions(seed, n):
    p = random_poset(n, 0.35, seed)
    res = exact_dimension(p)
    for ext in res.witness.extensions:
        assert naive_is_extension(p, ext.order)


def test_greedy_reversing_extensions_cover_input():
    for i in range(30):
        p = random_poset(7, 0.3, seed=derive_seed(77, i))
        cps = critical_pairs(p)
        exts = greedy_reversing_extensions(p, cps)
        for c in cps:
            assert any(reverses(e, c) for e in exts)
        for e in exts:
            check_extension(p, e)
    # S_2: one pair fits one extension; the two together force a cycle
    s2 = standard_example(2)
    cps = critical_pairs(s2)
    (ext,) = greedy_reversing_extensions(s2, [cps[0]])
    assert reverses(ext, cps[0])
    exts = greedy_reversing_extensions(s2, cps)
    assert len(exts) == 2 and all(any(reverses(e, c) for e in exts) for c in cps)


@pytest.mark.parametrize("fn", [greedy_reversing_extensions])
def test_pair_arguments_are_validated(fn):
    chain = Poset.from_relations(3, [(0, 1), (1, 2)])
    for pair in [(0, 1), (2, 0), (2, 2)]:  # comparable, then equal
        with pytest.raises(ValueError, match="is comparable"):
            fn(chain, [pair])
    anti = Poset.from_relations(3, [])
    for pair, bad in [((0, 7), "7"), ((-1, 2), "-1"), ((3, 0), "3")]:
        with pytest.raises(ValueError, match=f"id {bad} is outside"):
            fn(anti, [(0, 1), pair])  # a valid pair first: all are checked


def _warshall(n, edges):
    reach = [[False] * n for _ in range(n)]
    for a, b in edges:
        reach[a][b] = True
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                for j in range(n):
                    reach[i][j] = reach[i][j] or reach[k][j]
    return reach


def _bits(vs):
    return sum(1 << v for v in set(vs))


@settings(max_examples=80)
@given(st.integers(0, 10_000), st.integers(1, 9), st.floats(0.0, 0.4), st.data())
def test_closure_updates_match_warshall(seed, n, edge_prob, data):
    # the closure after any sequence of updates is the transitive closure
    # of p plus the accepted edges; an edge that would close a cycle
    # (hi at or below lo) is refused, an implied one is accepted.  The
    # search's packed update is tested by its results instead
    # (test_realizer_never_smaller_than_reported_dimension)
    p = random_poset(n, edge_prob, seed)
    cl = _Closure(p)
    edges = relations(p)
    reach = _warshall(n, edges)
    for _ in range(data.draw(st.integers(1, 10), label="updates")):
        hi = data.draw(st.integers(0, n - 1), label="hi")
        kind = data.draw(st.sampled_from(["any", "implied", "cycle"]))
        pool = [
            v for v in range(n)
            if kind == "any"
            or (kind == "implied" and reach[v][hi])
            or (kind == "cycle" and (v == hi or reach[hi][v]))
        ] or list(range(n))
        los = data.draw(st.lists(st.sampled_from(pool), max_size=4), label="los")
        want = [lo for lo in los if lo != hi and not reach[hi][lo]]
        assert cl.add_below(_bits(los), hi) == _bits(want)
        edges += [(lo, hi) for lo in want]
        reach = _warshall(n, edges)
        assert cl.up == [_bits(b for b in range(n) if reach[a][b]) for a in range(n)]
        assert cl.down == [_bits(a for a in range(n) if reach[a][b]) for b in range(n)]


def _reaches(n, edges, a, b):
    # depth-first search from a over the edge list
    succ = [[] for _ in range(n)]
    for u, v in edges:
        succ[u].append(v)
    seen, todo = {a}, [a]
    while todo:
        for v in succ[todo.pop()]:
            if v not in seen:
                seen.add(v)
                todo.append(v)
    return b in seen


def _reference_first_fit(p, pairs):
    # pair by pair on explicit edge lists; (x, y) fits a class unless x
    # already reaches y there
    base = relations(p)
    classes = []
    for x, y in pairs:
        for edges in classes:
            if not _reaches(p.n, base + edges, x, y):
                edges.append((y, x))
                break
        else:
            classes.append([(y, x)])
    return [_warshall(p.n, base + edges) for edges in classes]


def _reference_extension(reach):
    # lowest available index first
    n, order = len(reach), []
    while len(order) < n:
        order.append(min(
            v for v in range(n) if v not in order
            and all(u in order for u in range(n) if reach[u][v])
        ))
    return tuple(order)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 9), st.floats(0.0, 0.4), st.randoms())
def test_first_fit_matches_pair_by_pair(seed, n, edge_prob, rnd):
    p = random_poset(n, edge_prob, seed)
    pairs = [(x, y) for x in range(n) for y in range(n) if p.incomparable(x, y)]
    if rnd.random() < 0.5:  # runs of one x, as with critical pairs
        pairs = sorted(rnd.sample(pairs, rnd.randint(0, len(pairs))))
    else:
        rnd.shuffle(pairs)
    want = _reference_first_fit(p, pairs)
    # consecutive pairs of one x as one run, as above the pair cap
    runs = [[x, sum(1 << y for _, y in run)] for x, run in groupby(pairs, lambda xy: xy[0])]
    got = _first_fit(p, runs)
    assert [cl.up for cl in got] == [
        [_bits(b for b in range(n) if r[a][b]) for a in range(n)] for r in want
    ]
    assert [cl.extension() for cl in got] == [_reference_extension(r) for r in want]


def _greedy_witness(p):
    # the core solver, as these inputs have isolated elements that
    # exact_dimension would split off before any first fit
    try:
        return _exact_core(p, 0)
    except BudgetExceeded as exc:
        return exc.best


@pytest.mark.parametrize("case", ["antichain", "sparse", "below-cap", "small"])
def test_greedy_witness_matches_pair_by_pair(case):
    # above the conflict cap pairs go in lexicographic order, below it in
    # descending conflict degree; either way the greedy witness is the
    # pair-by-pair first fit
    p = {
        "antichain": Poset.from_relations(46, []),
        "sparse": random_poset(56, 0.01, 1),
        "below-cap": random_poset(50, 0.01, 1),
        "small": random_poset(12, 0.2, 5),
    }[case]
    cps = critical_pairs(p)
    m = len(cps)
    assert (m > _CONFLICT_PAIR_CAP) == (case in ("antichain", "sparse"))
    order = range(m)
    if m <= _CONFLICT_PAIR_CAP:
        conf = _conflict_masks(p, cps)
        order = sorted(range(m), key=lambda i: -conf[i].bit_count())
    want = _reference_first_fit(p, [cps[i] for i in order])
    got = _greedy_witness(p).witness.extensions
    assert [e.order for e in got] == [_reference_extension(r) for r in want]


def _reference_greedy_cover(p, pairs):
    base = relations(p)
    out, remaining = [], list(pairs)
    while remaining:
        edges = []
        for x, y in remaining:
            if not _reaches(p.n, base + edges, x, y):
                edges.append((y, x))
        order = _reference_extension(_warshall(p.n, base + edges))
        out.append(order)
        remaining = [(x, y) for x, y in remaining
                     if not order.index(y) < order.index(x)]
    return out


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 9), st.floats(0.0, 0.4), st.randoms())
def test_greedy_cover_matches_pair_by_pair(seed, n, edge_prob, rnd):
    p = random_poset(n, edge_prob, seed)
    pairs = [(x, y) for x in range(n) for y in range(n) if p.incomparable(x, y)]
    pairs = rnd.sample(pairs, rnd.randint(0, len(pairs)))
    if rnd.random() < 0.5:
        pairs.sort()
    pairs += rnd.sample(pairs, min(2, len(pairs)))  # repeated pairs
    got = [e.order for e in greedy_reversing_extensions(p, pairs)]
    assert got == _reference_greedy_cover(p, pairs)


def test_exact_dimension_of_a_tall_weak_order():
    # 750 levels {2i, 2i+1}, each below every later one: 1,500 critical
    # pairs, under the pair cap, so the conflict graph gathers full rows
    n = 1500
    p = Poset(n, [(1 << n) - (2 << (v | 1)) for v in range(n)],
              [(1 << (v & ~1)) - 1 for v in range(n)])
    got = exact_dimension(p)
    assert (got.d, got.optimal) == (2, True)
    assert is_realizer(p, got.witness.orders) == (True, [])


def test_exact_dimension_leaves_the_recursion_limit_alone():
    limit = sys.getrecursionlimit()
    with pytest.raises(BudgetExceeded):
        exact_dimension(random_poset(120, 0.04, 1), budget=500)
    assert sys.getrecursionlimit() == limit


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


@pytest.mark.parametrize("bad, message", [
    ((0, 0, 2), "order of length 3 is not a permutation of 0..2"),
    ((0, 1, 3), "order of length 3 is not a permutation of 0..2"),
    ((0, 1, -1), "order of length 3 is not a permutation of 0..2"),
    ((0, 1, 2.0), "order of length 3 is not a permutation of 0..2"),
    ((True, 0, 2), "order of length 3 is not a permutation of 0..2"),
    ((0, 1), "order of length 2 is not a permutation of 0..2"),
    ((0, 1, 2, 2), "order of length 4 is not a permutation of 0..2"),
])
@pytest.mark.parametrize("first", [True, False])
def test_is_realizer_names_a_malformed_member(bad, message, first):
    # only lengths gate the walk; a malformed member of the right length
    # fails it or makes it raise, and check_extension names it, first
    # member or second
    p = Poset.from_relations(3, [(0, 1)])
    good = (2, 0, 1)
    family = [LinearExtension(o) for o in ((bad, good) if first else (good, bad))]
    with pytest.raises(NotAnExtension) as exc:
        is_realizer(p, family)
    assert str(exc.value) == message and exc.value.pair is None
    with pytest.raises(NotAnExtension, match=f"^{message}$"):
        check_extension(p, LinearExtension(bad))


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
    rels = relations(p)
    if rels and data.draw(st.booleans(), label="break a member"):
        x, y = data.draw(st.sampled_from(rels))
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


@settings(max_examples=60)
@given(st.integers(0, 10_000), st.integers(1, 8), st.data())
def test_is_realizer_ignores_how_members_are_shared(seed, n, data):
    # shared objects, shared order tuples and equal-but-distinct tuples
    # must all give one verdict, one unreversed list or one error
    p = random_poset(n, 0.3, seed)
    pool = [e.order for e in greedy_reversing_extensions(p, critical_pairs(p))]
    pool.append(exact_dimension(p).witness.extensions[0].order)
    pool.append(tuple(data.draw(st.permutations(range(n)), label="any order")))
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1), max_size=12),
                      label="members")
    shared = [LinearExtension(order) for order in pool]
    families = [
        [shared[i] for i in picks],
        [LinearExtension(pool[i]) for i in picks],
        [LinearExtension(tuple(list(pool[i]))) for i in picks],
    ]
    results = []
    for family in families:
        try:
            ok, unrev = is_realizer(p, family)
            results.append((ok, [tuple(c) for c in unrev]))
        except NotAnExtension as exc:
            results.append(("NotAnExtension", exc.pair))
    assert results[0] == results[1] == results[2]


@pytest.mark.parametrize("shared", [(0,), (0, 0, 0), (0, 5), (1, 0), (0, -1),
                                    (0, 1.0)])
def test_is_realizer_refuses_bad_shared_lengths_before_walking(shared, monkeypatch):
    # one int in 0..n per order, 0 for the first (it follows nothing): a
    # short or long list would stop the walk early or leak StopIteration,
    # a length past the prefix masks would fail the walk, not the family
    p = standard_example(2)
    family = [LinearExtension((0, 3, 1, 2)), LinearExtension((1, 2, 0, 3))]
    monkeypatch.setattr(dimension, "listed_below", lambda *args: pytest.fail("walked"))
    with pytest.raises(ValueError, match=r"^shared must be one int in 0\.\.4 per order"):
        is_realizer(p, Realizer(tuple(family), (0, 1), shared))


def test_is_realizer_walks_from_given_shared_lengths():
    # lengths up to n, each at most the true common prefix, give the
    # answer the unhinted walk gives; a failing family's pairs too
    p = standard_example(2)
    e1, e2 = LinearExtension((0, 3, 1, 2)), LinearExtension((1, 2, 0, 3))
    assert is_realizer(p, Realizer((e1, e1, e2), (0, 1, 2), (0, 4, 0))) == (True, [])
    assert is_realizer(p, Realizer((e1, e1), (0, 1), (0, 4))) == is_realizer(p, [e1]) == (
        False, [CriticalPair(0, 2)])


def test_realizer_json_round_trip():
    p = standard_example(3)
    res = exact_dimension(p)
    text = realizer_to_json(p.n, res.witness, res.optimal)
    n, realizer, optimal = realizer_from_json(text)
    assert n == 6 and optimal and realizer == res.witness


def test_realizer_json_stores_each_order_once():
    a, b = LinearExtension((0, 1, 2)), LinearExtension((2, 1, 0))
    family = Realizer.of((a, b, LinearExtension((0, 1, 2)), b, a))
    # first appearance fixes each order's index, and its object
    assert family.orders == (a, b) and family.orders[0] is a
    assert family.members == (0, 1, 0, 1, 0) and len(family) == 5
    text = realizer_to_json(3, family, False)
    data = json.loads(text)
    assert data["shared"] == [0, 0] and data["tails"] == [[0, 1, 2], [2, 1, 0]]
    assert data["members"] == [0, 1, 0, 1, 0]
    assert data["dimension"] == 5 and not {"orders", "extensions"} & data.keys()
    _, back, _ = realizer_from_json(text)
    assert back == family
    # members naming one order share one object
    assert back.extensions[0] is back.extensions[2] is back.extensions[4]
    assert back.extensions[1] is back.extensions[3]
    # the writer emits the orders and members as held, in their order
    held = json.loads(realizer_to_json(3, Realizer((b, a), (1, 0, 1)), False))
    assert held["tails"] == [[2, 1, 0], [0, 1, 2]]
    assert held["members"] == [1, 0, 1] and held["dimension"] == 3
    # an order stores only the tail after the prefix it shares with the
    # order before it, and reads back whole
    c = LinearExtension((0, 2, 1))
    tails = json.loads(realizer_to_json(3, Realizer((a, c, c), (0, 1, 2)), False))
    assert tails["shared"] == [0, 1, 3] and tails["tails"] == [[0, 1, 2], [2, 1], []]
    assert realizer_from_json(json.dumps(tails))[1].orders == (a, c, c)
    # a v1 file that repeats an order reads back as one order, two members
    v1 = {"n": 3, "extensions": [[0, 1, 2], [0, 1, 2]], "optimal": False}
    _, back, _ = realizer_from_json(json.dumps(v1))
    assert back.orders == (a,) and back.members == (0, 0)


@pytest.mark.parametrize("key, rows, bad", [("extensions", [[0, 1], [2]], 0),
                                            ("orders", [[0, 1, 2], [2, 1]], 1)])
def test_realizer_rows_of_the_wrong_length_are_refused(key, rows, bad):
    # v1 rows were once taken at any length; both name the key and row
    data = {"n": 3, key: rows, "members": [0, 1], "optimal": False}
    with pytest.raises(ValueError, match=f"realizer '{key}' row {bad} has length 2, not n=3"):
        realizer_from_json(json.dumps(data))


@st.composite
def _order_families(draw):
    """n and a list of permutations of 0..n-1, repeats included, each
    after the first keeping some prefix of an earlier one."""
    n = draw(st.integers(0, 7))
    orders = [draw(st.permutations(range(n)))]
    for _ in range(draw(st.integers(0, 6))):
        prev = draw(st.sampled_from(orders[-1:] + orders))
        k = draw(st.integers(0, n))
        orders.append(prev[:k] + draw(st.permutations(prev[k:])))
    return n, [LinearExtension(order) for order in orders]


@given(_order_families(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_realizer_json_round_trips_any_family(family, optimal):
    # realizers or not: the format holds any family of permutations
    n, exts = family
    for realizer in (Realizer.of(exts),  # distinct orders, repeated members
                     Realizer(tuple(exts), tuple(range(len(exts))))):
        data = realizer_to_json_dict(n, realizer, optimal)
        assert realizer_from_json_dict(data) == (n, realizer, optimal)
        assert realizer_from_json(json.dumps(data)) == (n, realizer, optimal)
        v2 = v2_realizer_dict(n, realizer, optimal)
        assert realizer_from_json_dict(v2) == (n, realizer, optimal)
        # the reader keeps the lengths it built each order from, which
        # equality ignores; v1 goes through Realizer.of, which has none
        assert realizer.shared is None
        assert realizer_from_json_dict(data)[1].shared == tuple(data["shared"])
        assert realizer_from_json_dict(v2)[1].shared == (0,) * len(realizer.orders)
        v1 = v1_realizer_dict(n, realizer, optimal)
        assert realizer_from_json_dict(v1)[1].shared is None
        hinted = Realizer(realizer.orders, realizer.members, tuple(data["shared"]))
        assert hinted == realizer and hash(hinted) == hash(realizer)
        # each order shares exactly its longest common prefix
        orders = v2["orders"]
        for prev, order, k in zip([[]] + orders, orders, data["shared"]):
            assert order[:k] == prev[:k]
            assert k == n or order[k:k + 1] != prev[k:k + 1]


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
    # the empty family realizes the empty poset
    empty = exact_dimension(Poset.from_relations(0, []))
    assert empty.d == 0 and empty.optimal and empty.witness == Realizer((), ())
    vee = Poset.from_relations(3, [(0, 1), (0, 2)])
    assert exact_dimension(vee).d == 2


def test_exact_agrees_with_brute_force():
    for i, p in seeded_posets(120, 2, 6, seed=161803):
        res = exact_dimension(p)
        assert res.d == brute_force_dimension(p), (i, res.d)
        assert res.optimal


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 7), st.floats(0.0, 0.6), st.data())
def test_isolated_elements_give_dimension_max_2_and_the_posets(seed, n, edge_prob, data):
    # metamorphic: j >= 1 isolated elements inserted at random ids give
    # dimension max(2, dim p) (Hiraguchi), with p's flag and a witness
    # that realizes the larger poset
    p = random_poset(n, edge_prob, seed)
    j = data.draw(st.integers(1, 4), label="isolated")
    ids = sorted(data.draw(st.permutations(range(n + j)), label="ids")[:n])
    wide = Poset.from_relations(n + j, [(ids[x], ids[y]) for x, y in relations(p)])
    res = exact_dimension(wide)
    assert res.d == max(2, brute_force_dimension(p))
    assert res.optimal == exact_dimension(p).optimal
    assert is_realizer(wide, res.witness.extensions)[0]


def test_an_antichain_is_settled_without_a_first_fit(monkeypatch):
    # 2,000 isolated elements have 3,998,000 critical pairs, which the
    # first fit packed one class at a time for seconds; split off, they
    # are the ascending and the descending order, and their empty core
    # hands the first fit no run
    real_first_fit = dimension._first_fit

    def refuse_runs(p, runs):
        assert not runs, "first fit run"
        return real_first_fit(p, runs)

    monkeypatch.setattr(dimension, "_first_fit", refuse_runs)
    res = exact_dimension(Poset.from_relations(2000, []))
    assert res.d == 2 and res.optimal
    assert [e.order for e in res.witness.extensions] == [
        tuple(range(2000)), tuple(range(1999, -1, -1))]


@pytest.mark.parametrize("budget", [0, 1, None])
def test_an_all_isolated_input_is_optimal_at_any_budget(budget):
    # the empty core has no pair to search, so even budget 0 returns its
    # merge, I ascending and I descending, with no BudgetExceeded
    res = exact_dimension(Poset.from_relations(5, []), budget=budget)
    assert res.d == 2 and res.optimal
    assert [e.order for e in res.witness.extensions] == [
        (0, 1, 2, 3, 4), (4, 3, 2, 1, 0)]
    for n in (0, 1):
        res = exact_dimension(Poset.from_relations(n, []), budget=budget)
        assert (res.d, res.optimal) == (n, True)
        assert [e.order for e in res.witness.extensions] == [tuple(range(n))] * n


def test_a_budget_overrun_merges_the_isolated_elements_into_best():
    # the core's search runs out; .best is its greedy with the isolated
    # elements descending under the second member and ascending on top
    # of every other one, and realizes the whole poset
    p = random_poset(52, 0.10, 0)
    isolated = tuple(v for v in range(p.n)
                     if not p.upset_mask(v) | p.downset_mask(v))
    assert isolated
    with pytest.raises(BudgetExceeded, match="search budget 0 exhausted") as exc:
        exact_dimension(p, budget=0)
    best = exc.value.best
    assert not best.optimal
    assert is_realizer(p, best.witness.extensions)[0]
    orders = [e.order for e in best.witness.extensions]
    assert len(orders) > 2
    assert orders[1][:len(isolated)] == isolated[::-1]
    assert all(order[-len(isolated):] == isolated
               for i, order in enumerate(orders) if i != 1)


def test_brute_force_too_large():
    with pytest.raises(ValueError,
                       match="brute force dimension is capped at n=7, got n=8"):
        brute_force_dimension(Poset.from_relations(8, []))
    with pytest.raises(ValueError, match="refusing to enumerate extensions for n=11"):
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


# sha256 of the JSON list of witness orders: the lexicographic first fit,
# which the solver also returned for this poset when it still searched
# between 2,001 and 4,000 critical pairs (there with budget=0)
BAND_GREEDY = "2e2f72757712841c37021ec28a7dc081431392ba77a2bbfbc900a0a1fd7996bc"


def test_above_the_pair_cap_an_unsettled_greedy_raises_at_once():
    # 2,413 critical pairs: no conflict graph and no search, so even an
    # unbudgeted call hands back the greedy d=3 rather than run for
    # minutes; the core solver takes p whole, isolated elements and all
    p = random_poset(70, 0.01, 0)
    assert len(critical_pairs(p)) == 2413 > _CONFLICT_PAIR_CAP
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="2413 critical pairs exceed the "
                                             "search cap of 2000") as exc:
        _exact_core(p, None)
    assert time.perf_counter() - start < 1
    best = exc.value.best
    assert best.d == 3 and not best.optimal
    orders = json.dumps([list(e.order) for e in best.witness.extensions])
    assert hashlib.sha256(orders.encode()).hexdigest() == BAND_GREEDY


def test_no_pair_and_over_cap_entries_build_no_conflict_graph(monkeypatch):
    # a long chain (no critical pairs) gets an empty conflict graph, and
    # the 2,413-pair band must settle without one
    def refuse(p, cps):
        if cps:
            raise AssertionError("conflict graph built")
        return []

    monkeypatch.setattr(dimension, "_conflict_masks", refuse)
    chain = Poset.from_relations(1500, [(i, i + 1) for i in range(1499)])
    res = exact_dimension(chain)
    assert res.d == 1 and res.optimal
    with pytest.raises(BudgetExceeded, match="2413 critical pairs exceed"):
        _exact_core(random_poset(70, 0.01, 0), None)


def test_budget_must_not_be_negative():
    # a negative budget used to mean an unlimited search
    p = random_poset(52, 0.10, seed=1)
    with pytest.raises(ValueError):
        exact_dimension(p, budget=-5)
    with pytest.raises(BudgetExceeded) as exc:
        exact_dimension(p, budget=0)
    assert not exc.value.best.optimal


def test_node_budget_path():
    # the first poset of this stream whose greedy family is not known
    # optimal (index 13), so the deepening search must run and can be
    # starved; its best result is still a realizer
    for i in range(200):
        p = random_poset(8, 0.25, seed=derive_seed(31337, i))
        try:
            exact_dimension(p, budget=1)
        except BudgetExceeded as exc:
            best = exc.best
            break
    else:
        pytest.fail("no search-requiring instance in this seed range")
    ok, _ = is_realizer(p, best.witness.extensions)
    assert ok and not best.optimal
    assert best.d >= exact_dimension(p).d


def test_node_budget_settles_at_the_same_try():
    # pins the core search's node accounting on p whole: one try fewer
    # than 4,489 leaves d=5 unsettled, so the greedy d=6 is the best known
    p = random_poset(52, 0.10, 0)
    res = _exact_core(p, 4489)
    assert res.d == 5 and res.optimal
    assert _exact_core(p, None) == res  # an unlimited search takes the same path
    with pytest.raises(BudgetExceeded) as exc:
        _exact_core(p, 4488)
    assert exc.value.best.d == 6


# random_poset arguments of posets whose settled witness stops realizing
# them when the search's packed update drops y's own row (the first) or
# x's column bit (the second); 15,000 random posets with n = 3..12 held
# no such poset for either, so small random inputs do not stand in
WITNESS_PINS = [(20, 0.2, derive_seed(20020, 52)), (25, 0.15, derive_seed(25015, 78))]


def test_realizer_never_smaller_than_reported_dimension():
    # the witness contract, checked by the naive oracles: every member is
    # an extension and every critical pair is reversed in some member
    posets = [p for _, p in seeded_posets(60, 3, 7, seed=777)]
    for i, p in enumerate(posets + [random_poset(*args) for args in WITNESS_PINS]):
        res = exact_dimension(p)
        exts = res.witness.extensions
        assert res.d == len(exts)
        assert all(naive_is_extension(p, e.order) for e in exts), i
        assert all(any(reverses(e, c) for e in exts) for c in naive_critical_pairs(p)), i


@pytest.mark.parametrize("overrun", [False, True])
@pytest.mark.parametrize("isolated", [0, 2])
def test_exact_dimension_checks_what_it_returns(monkeypatch, overrun, isolated):
    # a core witness with its first member dropped, returned or raised as
    # BudgetExceeded's .best, is refused whether or not it is merged with
    # isolated elements
    core = dimension._exact_core

    def dropped(p, budget):
        res = core(p, budget)
        short = DimensionResult(Realizer.of(res.witness.extensions[1:]), False)
        if overrun:
            raise BudgetExceeded("search budget exhausted", best=short)
        return short

    monkeypatch.setattr(dimension, "_exact_core", dropped)
    p = Poset.from_relations(6 + isolated, relations(standard_example(3)))
    with pytest.raises(VerificationFailed, match="critical pairs unreversed"):
        exact_dimension(p)
