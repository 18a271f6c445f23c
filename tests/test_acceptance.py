"""Acceptance gate: ten stated criteria, one printed pass/fail line each.

Run with plain pytest; the verdict lines print through capture so the
terminal always shows the scorecard.
"""

import time

from posetdim import (
    build_reversing_extensions,
    derive_seed,
    exact_dimension,
    find_monochromatic,
    find_standard_example,
    general_upper_bound,
    growth_records_to_csv,
    is_realizer,
    kimble_split,
    peel_realizer,
    random_poset,
    random_skfree_bipartite,
    run_growth_experiment,
    run_prob_lemma_trials,
    standard_example,
    step_extension_cap,
)

from conftest import (
    brute_force_dimension,
    run_hiraguchi_scan,
    run_split_sandwich_scan,
    seeded_posets,
)


def _report(capsys, number: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}")


def _skfree_posets(count: int, n_lo: int, n_hi: int, seed: int, k: int = 3):
    """Random posets free of the 2k standard example, by rejection."""
    made = 0
    attempt = 0
    span = n_hi - n_lo + 1
    while made < count:
        assert attempt < 50 * count, "rejection sampling stalled"
        s = derive_seed(seed, attempt)
        n = n_lo + (attempt % span)
        p = random_poset(n, 0.25, derive_seed(s, 1))
        attempt += 1
        if find_standard_example(p, k) is None:
            made += 1
            yield p


def test_criterion_1_standard_example_dimensions(capsys):
    results = {}
    t0 = time.perf_counter()
    for m in (2, 3, 4, 5):
        results[m] = exact_dimension(standard_example(m)).d
    elapsed = time.perf_counter() - t0
    ok = all(results[m] == m for m in results) and elapsed < 60
    _report(capsys, 1, ok,
            f"exact_dimension(S_m) = m for m=2..5 in {elapsed:.2f}s "
            f"(got {results})")
    assert ok


def test_criterion_2_oracle_equivalence(capsys):
    t0 = time.perf_counter()
    disagreements = [
        (i, res.d, bf)
        for i, p in seeded_posets(300, 2, 6, seed=271828)
        for res, bf in [(exact_dimension(p), brute_force_dimension(p))]
        if res.d != bf
    ]
    elapsed = time.perf_counter() - t0
    ok = not disagreements and elapsed < 120
    _report(capsys, 2, ok,
            f"exact == brute force on 300 posets (n <= 6) in {elapsed:.1f}s, "
            f"{len(disagreements)} disagreements")
    assert ok


def test_criterion_3_hiraguchi_scan(capsys):
    violations = run_hiraguchi_scan(1000, seed=1000003)
    ok = violations == []
    _report(capsys, 3, ok,
            f"dim <= floor(n/2) on 1000 posets (4 <= n <= 8), "
            f"{len(violations)} violations")
    assert ok


def test_criterion_4_split_sandwich(capsys):
    violations = run_split_sandwich_scan(200, seed=424242)
    ok = violations == []
    _report(capsys, 4, ok,
            f"dim(P) <= dim(split) <= dim(P)+1 on 200 posets (n <= 7), "
            f"{len(violations)} violations")
    assert ok


def test_criterion_5_split_freeness(capsys):
    bad = 0
    for p in _skfree_posets(200, 4, 10, seed=555001):
        if find_standard_example(kimble_split(p), 3) is not None:
            bad += 1
    ok = bad == 0
    _report(capsys, 5, ok,
            f"splits of 200 free posets (n <= 10) stay free, {bad} violations")
    assert ok


def test_criterion_6_event_monte_carlo(capsys):
    t0 = time.perf_counter()
    freq, bound = run_prob_lemma_trials(2, 4, 12, 10_000, seed=616161)
    elapsed = time.perf_counter() - t0
    ok = freq >= 0.59 and elapsed < 10
    _report(capsys, 6, ok,
            f"event frequency {freq:.4f} >= 0.59 over 10000 trials "
            f"(analytic {bound:.4f}) in {elapsed:.1f}s")
    assert ok


def test_criterion_7_reversing_extension_postcondition(capsys):
    want_counts = {2: 34, 3: 54}
    checked = 0
    attempt = 0
    failures = 0
    while checked < 100:
        assert attempt < 2000, "could not assemble 100 instances"
        s = derive_seed(717171, attempt)
        na = 8 + (attempt % 5)          # |A|, |B| <= 12
        q = 2 + (attempt % 2)
        attempt += 1
        bp = random_skfree_bipartite(na, na, 0.2, 3, s)
        got = find_monochromatic(bp, 3, q)
        if got is None:
            continue
        q_elems, color = got
        exts, _, _ = build_reversing_extensions(bp, 3, q_elems, color,
                                                derive_seed(s, 1))
        if len(exts) != want_counts[q]:
            failures += 1
            continue
        for a in q_elems:
            for b in bp.b_order:
                if bp.poset.incomparable(a, b) and not any(
                    e.positions()[b] < e.positions()[a] for e in exts
                ):
                    failures += 1
        checked += 1
    ok = failures == 0
    _report(capsys, 7, ok,
            f"lemma extensions (34 at q=2, 54 at q=3) reverse all "
            f"(Q x B) critical pairs on {checked} posets, {failures} failures")
    assert ok


def test_criterion_8_peel_certificates(capsys):
    t0 = time.perf_counter()
    failures = 0
    for i in range(50):
        s = derive_seed(818181, i)
        na = 10 + 5 * (i % 5)           # ground sets 20 .. 60
        q = 2 + (i % 2)
        bp = random_skfree_bipartite(na, na, 1.5 / na, 3, s)
        cert = peel_realizer(bp, 3, q, base_threshold=10,
                             seed=derive_seed(s, 1))
        ok_r, _ = is_realizer(bp.poset, cert.realizer.extensions)
        cap = step_extension_cap(3, q)
        if not ok_r:
            failures += 1
        if cert.total_size > cert.base_dimension + len(cert.steps) * cap:
            failures += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and elapsed < 300
    _report(capsys, 8, ok,
            f"50 peel certificates (n <= 60) verify within the per-step "
            f"extension cap in {elapsed:.1f}s, {failures} failures")
    assert ok


def test_criterion_9_general_pipeline(capsys):
    failures = 0
    for i, p in enumerate(_skfree_posets(50, 3, 7, seed=909090)):
        res = general_upper_bound(p, 3, 2, base_threshold=8,
                                  seed=derive_seed(909091, i))
        exact = exact_dimension(p).d
        ok_r, _ = is_realizer(p, res.realizer_for_p.extensions)
        if exact > res.bound or not ok_r:
            failures += 1
    ok = failures == 0
    _report(capsys, 9, ok,
            f"exact <= general bound with verifying realizer on 50 free "
            f"posets (n <= 7), {failures} failures")
    assert ok


def test_criterion_10_growth_reproducibility(capsys):
    sizes = [40, 80, 160, 320]
    t0 = time.perf_counter()
    first = run_growth_experiment(3, sizes, 10, 3, None, seed=101010)
    second = run_growth_experiment(3, sizes, 10, 3, None, seed=101010)
    elapsed = time.perf_counter() - t0
    csv_a, csv_b = growth_records_to_csv(first), growth_records_to_csv(second)
    ok = csv_a == csv_b and [r.n for r in first] == sizes
    ratios = ", ".join(f"n={r.n}: {r.bound_over_n:.3f}" for r in first)
    _report(capsys, 10, ok,
            f"growth run (10 samples/size) bit-exact on rerun in "
            f"{elapsed:.0f}s; bound/n trend: {ratios}")
    assert ok
