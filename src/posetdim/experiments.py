"""Desk-scale empirical runs: theorem scans, Monte Carlo, and growth study.

Every run is a pure function of (seed, parameters).  Per-sample seeds
are derived by index nesting so records are regenerable one at a time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .core import (
    Poset,
    derive_seed,
    kimble_split,
    poset_to_text,
    random_poset,
    random_skfree_bipartite,
)
from .dimension import exact_dimension
from .errors import BudgetExceeded, GenerationExhausted
from .skfree import event_E_holds, event_probability_bound, fair_matrix, peel_realizer

_EXACT_GATE = 14  # largest ground size that still gets an exact cross-check
_EXACT_BUDGET = 500_000
_GROWTH_BASE_THRESHOLD = 12


def run_prob_lemma_trials(
    t: int, q: int, r: int, trials: int, seed: int
) -> tuple[float, float]:
    """Monte Carlo estimate of the isolating-row event on fair matrices.

    Returns (empirical frequency over `trials` fair-coin r x q matrices,
    analytic union bound).  Sampling: one fair_matrix per trial.
    """
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    if not (1 <= t <= q) or r < 1:
        raise ValueError(f"bad parameters t={t}, q={q}, r={r}")
    rng = random.Random(seed)
    hits = 0
    for _ in range(trials):
        if event_E_holds(fair_matrix(r, q, rng), t):
            hits += 1
    return hits / trials, event_probability_bound(t, q, r)


@dataclass(frozen=True)
class GrowthRecord:
    """Aggregate of one ground-set size in the growth study.

    mean_exact is None when the size is past the exact gate or a
    sample's exact solve ran out of budget (a bound-only row); failures
    counts samples whose generator gave up, which shrink `samples`.
    """

    n: int
    samples: int
    mean_bound: float
    max_bound: int
    mean_exact: float | None
    bound_over_n: float
    failures: int = 0


def run_growth_experiment(
    k: int,
    sizes: list[int],
    samples: int,
    q: int,
    edge_prob: float | None,
    seed: int,
) -> list[GrowthRecord]:
    """Trace the peeled-realizer size against the ground-set size.

    For each n in sizes, draws `samples` random bipartite posets free of
    the 2k standard example on n/2 + n/2 elements and peels each one.
    edge_prob None picks min(0.5, 1.5 / nA), which keeps the expected
    count of standard examples roughly constant across sizes so the
    free-poset rejection sampler stays viable.  Sample seeds nest as
    derive_seed(derive_seed(seed, size_index), sample_index).
    """
    if sorted(sizes) != list(sizes):
        raise ValueError("sizes must be ascending")
    if any(n < 2 for n in sizes):
        raise ValueError(f"sizes must be at least 2, got {list(sizes)}")
    if samples < 1:
        raise ValueError(f"need samples >= 1, got {samples}")
    records: list[GrowthRecord] = []
    for size_index, n in enumerate(sizes):
        na = n // 2
        nb = n - na
        p = min(0.5, 1.5 / na) if edge_prob is None else edge_prob
        size_seed = derive_seed(seed, size_index)
        bounds: list[int] = []
        exacts: list[int] = []
        bound_only = n > _EXACT_GATE
        failures = 0
        last_failure: GenerationExhausted | None = None
        for sample_index in range(samples):
            s = derive_seed(size_seed, sample_index)
            try:
                bp = random_skfree_bipartite(na, nb, p, k, derive_seed(s, 0))
            except GenerationExhausted as exc:
                failures += 1
                last_failure = exc
                continue
            cert = peel_realizer(
                bp, k, q, _GROWTH_BASE_THRESHOLD, derive_seed(s, 1)
            )
            bounds.append(cert.total_size)
            if not bound_only:
                try:
                    exacts.append(
                        exact_dimension(bp.poset, budget=_EXACT_BUDGET).d
                    )
                except BudgetExceeded:
                    bound_only = True
        if not bounds:
            raise GenerationExhausted(
                f"all {samples} samples failed to generate at n={n}"
            ) from last_failure
        mean_bound = sum(bounds) / len(bounds)
        records.append(
            GrowthRecord(
                n=n,
                samples=len(bounds),
                mean_bound=mean_bound,
                max_bound=max(bounds),
                mean_exact=(
                    sum(exacts) / len(exacts) if exacts and not bound_only else None
                ),
                bound_over_n=mean_bound / n,
                failures=failures,
            )
        )
    return records


def run_hiraguchi_scan(count: int, seed: int) -> list[dict]:
    """Check dim <= floor(n/2) on random posets with 4 <= n <= 8.

    Sample i: s = derive_seed(seed, i); n = 4 + (i mod 5); edge
    probability is one rng.random() draw from Random(s); the poset comes
    from random_poset(n, p, derive_seed(s, 1)).  Violations (expected
    never) carry the offending poset serialized for reproduction.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    violations: list[dict] = []
    for i in range(count):
        s = derive_seed(seed, i)
        n = 4 + (i % 5)
        p_edge = random.Random(s).random()
        p = random_poset(n, p_edge, derive_seed(s, 1))
        d = exact_dimension(p).d
        if d > n // 2:
            violations.append(
                {"index": i, "n": n, "dim": d, "bound": n // 2,
                 "poset": poset_to_text(p)}
            )
    return violations


def run_split_sandwich_scan(count: int, seed: int) -> list[dict]:
    """Check dim(P) <= dim(split(P)) <= dim(P) + 1 on random posets.

    Sample i: s = derive_seed(seed, i); n = 3 + (i mod 5); edge
    probability and poset seed exactly as in run_hiraguchi_scan.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    violations: list[dict] = []
    for i in range(count):
        s = derive_seed(seed, i)
        n = 3 + (i % 5)
        p_edge = random.Random(s).random()
        p = random_poset(n, p_edge, derive_seed(s, 1))
        dp = exact_dimension(p).d
        ds = exact_dimension(kimble_split(p)).d
        if not dp <= ds <= dp + 1:
            violations.append(
                {"index": i, "n": n, "dim": dp, "split_dim": ds,
                 "poset": poset_to_text(p)}
            )
    return violations


# -- emission ------------------------------------------------------------------

_CSV_HEADER = "n,samples,mean_bound,max_bound,mean_exact,bound_over_n"


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def growth_records_to_csv(records: list[GrowthRecord]) -> str:
    lines = [_CSV_HEADER]
    for rec in records:
        mean_exact = "" if rec.mean_exact is None else _fmt(rec.mean_exact)
        lines.append(
            f"{rec.n},{rec.samples},{_fmt(rec.mean_bound)},{rec.max_bound},"
            f"{mean_exact},{_fmt(rec.bound_over_n)}"
        )
    return "\n".join(lines) + "\n"


def growth_records_to_json_dict(records: list[GrowthRecord]) -> list[dict]:
    return [
        {
            "n": rec.n,
            "samples": rec.samples,
            "mean_bound": rec.mean_bound,
            "max_bound": rec.max_bound,
            "mean_exact": rec.mean_exact,
            "bound_over_n": rec.bound_over_n,
            "failures": rec.failures,
        }
        for rec in records
    ]
