"""Experiment harnesses: determinism, record invariants, emission formats."""

import re

import pytest

from posetdim import (
    GrowthRecord,
    growth_records_to_csv,
    run_growth_experiment,
    run_hiraguchi_scan,
    run_prob_lemma_trials,
    run_split_sandwich_scan,
)
from posetdim.errors import GenerationExhausted
from posetdim.experiments import growth_records_to_json_dict


# -- Monte Carlo ---------------------------------------------------------------


def test_prob_lemma_trials_basics():
    freq, bound = run_prob_lemma_trials(2, 4, 12, 2000, seed=5)
    assert abs(bound - 0.6198838) < 1e-7
    assert freq >= bound - 0.05  # empirical sits above the union bound
    assert run_prob_lemma_trials(2, 4, 12, 2000, seed=5) == (freq, bound)


def test_prob_lemma_single_cell():
    freq, bound = run_prob_lemma_trials(1, 1, 1, 4000, seed=9)
    assert bound == 0.5
    assert abs(freq - 0.5) < 0.05


def test_prob_lemma_saturates_for_large_r():
    freq, _ = run_prob_lemma_trials(2, 4, 200, 1000, seed=2)
    assert freq == 1.0


def test_prob_lemma_rejects_bad_parameters():
    with pytest.raises(ValueError):
        run_prob_lemma_trials(2, 4, 12, 0, seed=1)
    with pytest.raises(ValueError):
        run_prob_lemma_trials(5, 4, 12, 10, seed=1)


# -- growth study ----------------------------------------------------------------


def test_growth_is_deterministic_and_exact_gated():
    a = run_growth_experiment(3, [12, 16], 2, 2, 0.3, seed=5)
    b = run_growth_experiment(3, [12, 16], 2, 2, 0.3, seed=5)
    assert a == b
    assert a[0].n == 12 and a[0].mean_exact is not None
    assert a[1].n == 16 and a[1].mean_exact is None  # past the exact gate
    for rec in a:
        assert rec.mean_bound <= rec.max_bound
        assert rec.bound_over_n == rec.mean_bound / rec.n
        assert rec.bound_over_n > 0
        assert rec.samples == 2 and rec.failures == 0


def test_growth_rejects_bad_parameters():
    with pytest.raises(ValueError):
        run_growth_experiment(3, [16, 12], 2, 2, 0.3, seed=5)
    with pytest.raises(ValueError):
        run_growth_experiment(3, [12], 0, 2, 0.3, seed=5)
    for sizes in ([1], [0, 12], [-4]):
        with pytest.raises(ValueError):  # n // 2 would be 0 A-side elements
            run_growth_experiment(3, sizes, 1, 3, None, seed=1)


def test_growth_propagates_total_generation_failure():
    # dense 2-free bipartite posets of this size are unobtainable, so
    # every sample fails and the run cannot emit a record
    with pytest.raises(GenerationExhausted):
        run_growth_experiment(2, [20], 1, 2, 0.5, seed=3)


def test_growth_csv_format():
    recs = run_growth_experiment(3, [12, 16], 2, 2, 0.3, seed=5)
    csv = growth_records_to_csv(recs)
    lines = csv.strip().split("\n")
    assert lines[0] == "n,samples,mean_bound,max_bound,mean_exact,bound_over_n"
    assert len(lines) == 3
    row = lines[1].split(",")
    assert row[0] == "12" and row[1] == "2"
    # floats carry at most 6 significant digits
    for cell in (row[2], row[5]):
        assert re.fullmatch(r"-?\d+(\.\d+)?([eE][-+]?\d+)?", cell)
        digits = re.sub(r"[^\d]", "", cell).lstrip("0")
        assert len(digits) <= 6
    assert lines[2].split(",")[4] == ""  # blank mean_exact past the gate


def test_growth_json_mirror():
    recs = [GrowthRecord(12, 2, 3.0, 4, 2.5, 0.25, failures=1)]
    (payload,) = growth_records_to_json_dict(recs)
    assert payload == {
        "n": 12, "samples": 2, "mean_bound": 3.0, "max_bound": 4,
        "mean_exact": 2.5, "bound_over_n": 0.25, "failures": 1,
    }


# -- theorem scans ------------------------------------------------------------------


def test_hiraguchi_scan_finds_no_violations():
    assert run_hiraguchi_scan(120, seed=10) == []
    assert run_hiraguchi_scan(0, seed=10) == []
    with pytest.raises(ValueError):
        run_hiraguchi_scan(-1, seed=10)


def test_split_sandwich_scan_finds_no_violations():
    assert run_split_sandwich_scan(80, seed=20) == []
    assert run_split_sandwich_scan(0, seed=20) == []
