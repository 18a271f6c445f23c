"""Core model tests: closure, constructors, detection, splits, formats."""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from posetdim import (
    BipartitePoset,
    Embedding,
    Poset,
    bipartition,
    derive_seed,
    find_standard_example,
    kimble_split,
    poset_from_text,
    poset_to_text,
    random_bipartite,
    random_poset,
    random_skfree_bipartite,
    standard_example,
    standard_example_bipartite,
)
from posetdim.core import MAX_TEXT_N, mate_masks
from posetdim.errors import CycleError, GenerationExhausted

from conftest import (
    check_poset,
    embedding_valid,
    is_antichain,
    leq,
    naive_closure,
    naive_find_standard,
    naive_splitmix64,
    relations,
    seeded_posets,
)

relation_lists = st.integers(2, 7).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=12,
        ),
    )
)


# -- construction and closure ---------------------------------------------------


@given(relation_lists)
def test_closure_matches_naive_oracle(case):
    n, pairs = case
    pairs = [(a, b) for a, b in pairs if a != b]
    closed = naive_closure(n, pairs)
    if any((b, a) in closed for a, b in closed):
        with pytest.raises(CycleError):
            Poset.from_relations(n, pairs)
        return
    p = Poset.from_relations(n, pairs)
    got = {(a, b) for a, b in relations(p) if p.lt(a, b)}
    assert got == closed
    check_poset(p)


def test_from_relations_rejects_bad_input():
    with pytest.raises(CycleError):
        Poset.from_relations(2, [(0, 0)])
    with pytest.raises(CycleError):
        Poset.from_relations(3, [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(IndexError):
        Poset.from_relations(2, [(0, 5)])


def test_long_chain_in_shuffled_order_closes():
    n = 2000
    rels = [f"rel {i} {i + 1}" for i in range(n - 1)]
    random.Random(5).shuffle(rels)
    p = poset_from_text(f"poset {n}\n" + "\n".join(rels) + "\n")
    assert p.relation_count() == n * (n - 1) // 2
    assert p.lt(0, n - 1) and not p.lt(n - 1, 0)
    assert p.downset_mask(n - 1) == (1 << (n - 1)) - 1


def test_cycle_closed_at_the_end_of_a_long_path():
    # 0 < 1 < ... < 999, then 999 < 990: 990..999 lie on the cycle
    pairs = [(i, i + 1) for i in range(999)] + [(999, 990)]
    with pytest.raises(CycleError, match="element 990 lies on or above a cycle"):
        Poset.from_relations(1000, pairs)


def test_basic_relations_on_a_fence():
    p = Poset.from_relations(4, [(0, 2), (1, 2), (1, 3)])
    assert p.lt(0, 2) and not p.lt(0, 0)
    assert p.incomparable(0, 1) and p.incomparable(0, 3)
    assert p.upset_mask(1) == 0b1100
    assert p.downset_mask(2) == 0b0011
    assert [x for x in range(4) if not p.downset_mask(x)] == [0, 1]
    assert [x for x in range(4) if not p.upset_mask(x)] == [2, 3]
    assert p.cover_pairs() == [(0, 2), (1, 2), (1, 3)]


def test_height_and_antichain():
    chain = Poset.from_relations(4, [(0, 1), (1, 2), (2, 3)])
    assert chain.height() == 4
    anti = Poset.from_relations(3, [])
    assert anti.height() == 1 and is_antichain(anti, range(3))
    assert not is_antichain(chain, range(4))
    assert is_antichain(chain, [2])
    assert standard_example(3).height() == 2
    assert Poset.from_relations(0, []).height() == 0


def test_restrict_induces_and_reindexes():
    p = Poset.from_relations(5, [(0, 1), (1, 2), (3, 4)])
    q = p.restrict([0, 2, 3])
    assert q.n == 3
    assert q.lt(0, 1)  # 0 < 2 survives transitively
    assert q.incomparable(0, 2) and q.incomparable(1, 2)
    with pytest.raises(ValueError):
        p.restrict([0, 0])
    with pytest.raises(IndexError):
        p.restrict([0, 5])


@settings(max_examples=60)
@given(st.integers(0, 2**32), st.integers(0, 14), st.floats(0.0, 0.6),
       st.randoms(use_true_random=False))
def test_restrict_matches_naive_restriction(seed, n, edge_prob, rnd):
    p = random_poset(n, edge_prob, seed)
    keep = rnd.sample(range(n), rnd.randint(0, n))  # any order, unsorted too
    q = p.restrict(keep)
    assert q.n == len(keep)
    for i, v in enumerate(keep):
        for j, w in enumerate(keep):
            assert q.lt(i, j) == p.lt(v, w), (keep, i, j)
    check_poset(q)


@settings(max_examples=60)
@given(st.integers(0, 10_000), st.integers(2, 8))
def test_dual_is_an_involution(seed, n):
    p = random_poset(n, 0.4, seed)
    dual = p.dual()
    assert dual.dual() == p
    assert ([x for x in range(n) if not dual.downset_mask(x)]
            == [x for x in range(n) if not p.upset_mask(x)])


# -- standard examples ------------------------------------------------------------


def test_standard_example_structure():
    s3 = standard_example(3)
    assert s3.n == 6
    want = {(i, 3 + j) for i in range(3) for j in range(3) if i != j}
    assert {(x, y) for x, y in relations(s3) if s3.lt(x, y)} == want
    with pytest.raises(ValueError):
        standard_example(1)


def test_embedding_valid():
    s3 = standard_example(3)
    assert embedding_valid(s3, Embedding((0, 1, 2), (3, 4, 5)))
    assert not embedding_valid(s3, Embedding((0, 1, 2), (4, 3, 5)))
    chain = Poset.from_relations(4, [(0, 1), (1, 2), (2, 3)])
    assert not embedding_valid(chain, Embedding((0, 1), (2, 3)))
    assert not embedding_valid(s3, Embedding((0, 1, 2), (3, 4)))  # lengths differ
    assert not embedding_valid(s3, Embedding((0, 1), (1, 4)))  # 1 used twice
    # a_0 < b_0 in the complete bipartite order on {0, 1} x {2, 3}
    full = Poset.from_relations(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    assert not embedding_valid(full, Embedding((0, 1), (2, 3)))


def test_find_standard_example_on_itself_and_on_chains():
    for k in (2, 3, 4):
        emb = find_standard_example(standard_example(k), k)
        assert emb == Embedding(tuple(range(k)), tuple(range(k, 2 * k)))
    chain = Poset.from_relations(6, [(i, i + 1) for i in range(5)])
    assert find_standard_example(chain, 2) is None
    assert find_standard_example(standard_example(2), 3) is None
    with pytest.raises(ValueError):
        find_standard_example(standard_example(2), 1)


def _oracle_posets():
    # sparse-to-dense random posets, then small random bipartite ones,
    # where pruning on mates cuts most antichains short
    yield from seeded_posets(120, 4, 8, seed=314)
    for i in range(80):
        side = 4 + i % 2
        bp = random_bipartite(side, side, 0.3 + 0.1 * (i % 5), derive_seed(271, i))
        yield ("bipartite", i), bp.poset


def test_find_standard_example_agrees_with_exhaustive_search():
    hits = deep = 0
    for i, p in _oracle_posets():
        for k in (2, 3, 4):
            got = find_standard_example(p, k)
            want = naive_find_standard(p, k)
            if want is None:
                assert got is None, (i, k)
            else:
                assert got is not None, (i, k)
                assert (got.a_elems, got.b_elems) == want, (i, k)
                assert embedding_valid(p, got)
                hits += 1
                deep += k > 2
    assert hits > 10  # the loop must actually exercise positives
    assert deep > 5  # and positives past the pairwise case


def test_find_standard_example_on_a_dense_bipartite_order():
    # on a 2-core machine: about 7 s with only a pairwise prune, and
    # 0.01 s pruning on mates
    emb = find_standard_example(random_bipartite(60, 60, 0.5, 3).poset, 8)
    assert emb == Embedding((0, 1, 2, 15, 24, 26, 44, 48),
                            (79, 81, 106, 92, 75, 87, 97, 71))


def _relabel(p: Poset, perm: list[int]) -> Poset:
    return Poset.from_relations(p.n, [(perm[x], perm[y]) for x, y in relations(p)])


@settings(max_examples=80)
@given(st.integers(0, 2**32), st.integers(0, 12), st.floats(0.1, 0.7),
       st.sampled_from([2, 3]), st.randoms(use_true_random=False))
def test_detection_is_invariant_under_dual_and_relabelling(seed, n, edge_prob,
                                                            k, rnd):
    p = random_poset(n, edge_prob, seed)
    perm = list(range(n))
    rnd.shuffle(perm)
    found = [find_standard_example(q, k) for q in (p, p.dual(), _relabel(p, perm))]
    assert len({emb is None for emb in found}) == 1
    for q, emb in zip((p, p.dual(), _relabel(p, perm)), found):
        if emb is not None:
            assert embedding_valid(q, emb)


@settings(max_examples=80)
@given(st.integers(0, 2**32), st.integers(2, 12), st.floats(0.1, 0.8),
       st.booleans(), st.data())
def test_mate_masks_match_their_definition(seed, n, edge_prob, bipartite, data):
    # a mate of x in an antichain is incomparable to x and above the rest
    if bipartite:
        bp = random_bipartite(n // 2, n - n // 2, edge_prob, seed)
        p, universes = bp.poset, ((1 << n) - 1, bp.b_mask)
    else:
        p = random_poset(n, edge_prob, seed)
        universes = ((1 << n) - 1,)
    elems: list[int] = []
    for x in data.draw(st.permutations(range(n)), label="order"):
        if all(p.incomparable(x, y) for y in elems):
            elems.append(x)
    assume(len(elems) >= 2)
    elems = elems[:data.draw(st.integers(2, len(elems)), label="size")]
    for universe in universes:
        want = [sum(1 << y for y in range(n)
                    if (universe >> y) & 1 and p.incomparable(x, y)
                    and all(p.lt(z, y) for z in elems if z != x))
                for x in elems]
        assert mate_masks(p._up, elems, universe) == want


# -- bipartite posets --------------------------------------------------------------


def test_bipartite_validation():
    s2 = standard_example(2)
    bp = BipartitePoset(s2, (0, 1), (2, 3))
    assert bp.a_pos == {0: 0, 1: 1}
    with pytest.raises(ValueError):
        BipartitePoset(s2, (0,), (2, 3))  # does not cover the ground set
    with pytest.raises(ValueError):
        BipartitePoset(s2, (0, 2), (1, 3))  # 2 has something below it
    chain3 = Poset.from_relations(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        BipartitePoset(chain3, (0,), (1, 2))  # height 3
    assert 2 not in bp.a_pos  # a B-side element
    for a_side, b_side, bad in (((0, 1), (2, 4), "B-side id 4"),
                                ((0, -1), (2, 3), "A-side id -1")):
        with pytest.raises(ValueError, match=bad):
            BipartitePoset(s2, a_side, b_side)


def test_bipartite_dual_and_remove():
    bp = standard_example_bipartite(3)
    d = bp.dual()
    assert d.a_order == bp.b_order and d.b_order == bp.a_order
    assert d.poset.lt(4, 0) and not d.poset.lt(0, 4)
    smaller = bp._without([1])
    # the host shares its input's rows, in the same ids; the taken
    # element leaves A and the ground
    assert smaller.poset is bp.poset
    assert smaller.a_order == (0, 2) and smaller.b_order == bp.b_order
    assert smaller.a_pos == {0: 0, 2: 1} and smaller.b_mask == bp.b_mask
    assert smaller.a_mask | smaller.b_mask == 0b111101
    with pytest.raises(ValueError, match="only A-side"):
        bp._without([4])


def test_bipartition_rules():
    s3 = standard_example(3)
    bp = bipartition(s3)
    assert bp is not None
    assert bp.a_order == (0, 1, 2) and bp.b_order == (3, 4, 5)
    chain3 = Poset.from_relations(3, [(0, 1), (1, 2)])
    assert bipartition(chain3) is None
    # isolated elements land on the A side
    p = Poset.from_relations(3, [(0, 1)])
    bp2 = bipartition(p)
    assert bp2.a_order == (0, 2) and bp2.b_order == (1,)


# -- splits ------------------------------------------------------------------------


def test_split_of_two_chain_frozen():
    chain2 = Poset.from_relations(2, [(0, 1)])
    sp = kimble_split(chain2)
    assert sp.n == 4
    assert [(x, y) for x, y in relations(sp) if sp.lt(x, y)] == [(0, 2), (0, 3), (1, 3)]


@settings(max_examples=40)
@given(st.integers(0, 10_000), st.integers(1, 7))
def test_split_shape(seed, n):
    p = random_poset(n, 0.35, seed)
    sp = kimble_split(p)
    assert sp.n == 2 * p.n
    assert sp.height() <= 2
    # x' < y'' exactly when x <= y
    for x in range(p.n):
        for y in range(p.n):
            assert sp.lt(x, p.n + y) == leq(p, x, y)
    bp = bipartition(sp)
    assert bp is not None
    assert set(bp.a_order) == set(range(p.n))


# -- generators --------------------------------------------------------------------


def test_random_poset_determinism_and_extremes():
    assert random_poset(7, 0.4, 99) == random_poset(7, 0.4, 99)
    assert random_poset(7, 0.4, 99) != random_poset(7, 0.4, 100)
    assert is_antichain(random_poset(6, 0.0, 5), range(6))
    assert random_poset(6, 1.0, 5).height() == 6  # a full chain


def test_random_bipartite_shape():
    bp = random_bipartite(4, 5, 0.5, seed=3)
    assert bp.a_order == (0, 1, 2, 3) and bp.b_order == (4, 5, 6, 7, 8)
    assert bp.poset.height() <= 2
    assert random_bipartite(4, 5, 0.5, 3) .poset == bp.poset


def test_random_skfree_is_free_and_deterministic():
    for i in range(20):
        bp = random_skfree_bipartite(7, 7, 0.3, 3, seed=derive_seed(8, i))
        assert find_standard_example(bp.poset, 3) is None
    a = random_skfree_bipartite(7, 7, 0.3, 3, seed=42)
    b = random_skfree_bipartite(7, 7, 0.3, 3, seed=42)
    assert a.poset == b.poset


def test_random_skfree_exhaustion():
    # dense 2-free bipartite posets at this size are essentially
    # impossible, so the bounded rejection sampler must give up
    with pytest.raises(GenerationExhausted):
        random_skfree_bipartite(8, 8, 0.5, 2, seed=1)


def test_derive_seed_matches_restated_arithmetic():
    for seed in (0, 1, 2**63, 123456789):
        for index in (0, 1, 7, 1000):
            assert derive_seed(seed, index) == naive_splitmix64(seed, index)


# -- the text format ----------------------------------------------------------------


def test_text_round_trip_plain_and_bipartite():
    p = random_poset(7, 0.4, seed=12)
    assert poset_from_text(poset_to_text(p)) == p
    bp = random_bipartite(3, 4, 0.5, seed=6)
    rt = poset_from_text(poset_to_text(bp))
    assert isinstance(rt, BipartitePoset)
    assert rt.poset == bp.poset and rt.a_order == bp.a_order
    # a value type: equal and equally hashed after the round trip, and
    # the side orders take part in equality
    assert rt == bp and hash(rt) == hash(bp)
    assert hash(rt.poset) == hash(bp.poset)
    assert repr(rt) == repr(bp) == (
        f"BipartitePoset(|A|=3, |B|=4, relations={bp.poset.relation_count()})")
    permuted = BipartitePoset(bp.poset, bp.a_order[::-1], bp.b_order)
    assert permuted != bp and permuted.poset == bp.poset


@settings(max_examples=50)
@given(st.integers(0, 10_000), st.integers(1, 9))
def test_text_round_trip_property(seed, n):
    p = random_poset(n, 0.45, seed)
    assert poset_from_text(poset_to_text(p)) == p


def test_text_parsing_details():
    text = "# comment\n\nposet 3\nrel 0 1\nrel 1 2\n"
    p = poset_from_text(text)
    assert p.lt(0, 2)  # closure applied on read
    with pytest.raises(ValueError):
        poset_from_text("poset x\n")
    with pytest.raises(ValueError):
        poset_from_text("rel 0 1\n")
    with pytest.raises(ValueError, match="line 4: duplicate A: line"):
        poset_from_text("poset 2\nrel 0 1\nA: 1\nA: 0\nB: 1\n")
    with pytest.raises(ValueError, match="line 4: duplicate B: line"):
        poset_from_text("poset 2\nA: 0\nB: 1\nB: 1\n")


def test_text_header_above_the_cap_is_refused():
    # only cap + 1 is tried: the check must fire before any allocation
    with pytest.raises(ValueError, match=f"line 2: .*{MAX_TEXT_N + 1}"):
        poset_from_text(f"# big\nposet {MAX_TEXT_N + 1}\n")


@pytest.mark.parametrize("text, lineno", [
    ("poset x\n", 1),
    ("poset 3\nrel 0 y\n", 2),
    ("poset 3\nrel 0 1\nA: 0 z\nB: 2\n", 3),
])
def test_text_non_integer_tokens_name_the_line(text, lineno):
    with pytest.raises(ValueError, match=f"line {lineno}: non-integer token"):
        poset_from_text(text)
