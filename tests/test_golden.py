"""Golden outputs: SHA-256 of seeded results that refactors must not move.

Each hash was computed before the growth-path speedups (bitwise
conflict graph, per-step extension reuse, sparse restrict) and must stay
identical after them.  A mismatch means an output changed byte for byte,
so a change that is meant to keep outputs fixed has broken that promise.

Realizer and certificate JSON moved to v2, which stores each distinct
order once.  Each format-bearing output is pinned twice: its v2 text,
and the v1 text of what that v2 text decodes to, which must still hash
to the value pinned before v2 existed.

The peel, the growth study, the split projection and demos 02, 03 and
05 were re-pinned once, when the peel's minimal-elements extension began
listing the removed set at its very bottom and the split projection
began ranking by the minimal copies: both then reverse every critical
pair by construction and spend no cleanup member.  Each peel step then
spends exactly 2r + 1 members, and the growth CSVs of seeds 1 and 401
came out byte-identical, so both pin one hash.
"""

import hashlib
import json
import runpy
from pathlib import Path

import pytest

from posetdim import (
    certificate_from_json,
    certificate_to_json,
    derive_seed,
    exact_dimension,
    find_standard_example,
    general_upper_bound,
    growth_records_to_csv,
    peel_realizer,
    random_poset,
    random_skfree_bipartite,
    realizer_from_json,
    realizer_to_json,
    run_growth_experiment,
)
from posetdim.errors import BudgetExceeded
from posetdim.skfree import certificate_from_json_dict, certificate_to_json_dict

from conftest import v1_certificate_dict, v1_certificate_json, v1_realizer_json


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


GROWTH = {
    1: "7611477ad7f6fcfd97dea2479e5b1ce35e2dbcc1fb0da96ee3549ab84faac372",
    401: "7611477ad7f6fcfd97dea2479e5b1ce35e2dbcc1fb0da96ee3549ab84faac372",
}


@pytest.mark.parametrize("seed", sorted(GROWTH))
def test_growth_csv_is_pinned(seed):
    records = run_growth_experiment(3, [40, 80, 160, 320], 1, 3, None, seed)
    assert sha(growth_records_to_csv(records)) == GROWTH[seed]


# at q = 4 the two seeds' n=40 bases differ (278 against 347 members),
# so these pins tell the seeds apart where GROWTH cannot
GROWTH_Q4 = {
    1: "81cb93d1973c72f2eb56448aa31c503726b678f75d5a04364c5f12e5cd0cec59",
    401: "9ca979e56609bdb7dead9e8d92d136beae4a9f594490a83f7e0bf7e1cee47852",
}


@pytest.mark.parametrize("seed", sorted(GROWTH_Q4))
def test_growth_csv_at_q4_is_pinned(seed):
    assert len(set(GROWTH_Q4.values())) == len(GROWTH_Q4)
    records = run_growth_experiment(3, [40, 80], 1, 4, None, seed)
    assert sha(growth_records_to_csv(records)) == GROWTH_Q4[seed]


PEEL_320 = "d9ca7dff8b772d0123ffe9c3c9136105b74c2579e0877e8ac9fbfe764e44893e"
PEEL_320_V2 = "c54dcf0424a97ac28f34b768e78dd740bbaf0d307ee9bd2a25621b4b4a7c1451"


def test_peel_certificate_n320_is_pinned():
    bp = random_skfree_bipartite(160, 160, 1.5 / 160, 3, 7)
    cert = peel_realizer(bp, 3, 3, 12, 7)
    text = certificate_to_json(cert)
    assert sha(text) == PEEL_320_V2
    assert sha(v1_certificate_json(certificate_from_json(text))) == PEEL_320
    # 2,917 members but 373 distinct orders; the compact text took
    # 4.4 MB in v1
    assert len(json.loads(text)["realizer"]["orders"]) == 373
    assert len(json.dumps(certificate_to_json_dict(cert))) < 1_000_000


# |A| > |B|: the peel runs on the dual and reverses its orders once
PEEL_DUAL = "fe094d63f777d1ab6777f99c27ae1b35fe04895979fb2fa2e85ebccd2219750f"


def test_dual_peel_certificate_is_pinned():
    bp = random_skfree_bipartite(170, 150, 1.5 / 160, 3, derive_seed(7, 0))
    cert = peel_realizer(bp, 3, 3, 12, 7)
    assert sha(certificate_to_json(cert)) == PEEL_DUAL
    assert (len(cert.realizer), len(cert.realizer.orders)) == (2752, 352)


# the four smallest seeds of random_poset(40, 0.06, seed) that are S_3-free
GENERAL = {
    12: "b8a94621b8d7f5c75f1018581aa2cdfdc1547400794a1c61257d7c8c0c3e384f",
    37: "aa32d8fde87f726e60fe5718d4b7c4d7bb1dbd205bdf7ee7becf88e9567b598e",
    41: "001a1574e021988fee9d3dd24eb608b311eedd8b055b21583891fea15ed2c4c9",
    46: "06fb42af18fe527fda19ddb7385d9b98653973285902d6eb911dfa71e8e15161",
}
GENERAL_V2 = {
    12: "c146f83f833d600e03931167de6a7c281d777c73033ba678dc0ecda486cd76a3",
    37: "2f7cb4b79b78bd7cabe746465554506e99b8b9f3a5e2d5df3a924e5e1cbc8529",
    41: "457d467506426846ec19f549905ee07f629acaaabb15adcfbc137f2a812fae72",
    46: "77ea1578a8b70731c00b49ce31ef71f2e266a5ed221b13565f3e0b0c4dcb99c6",
}


@pytest.mark.parametrize("seed", sorted(GENERAL))
def test_general_upper_bound_is_pinned(seed):
    p = random_poset(40, 0.06, seed)
    assert find_standard_example(p, 3) is None
    res = general_upper_bound(p, 3, 3, 12, seed)

    def text(certificate: dict) -> str:
        return json.dumps({
            "bound": res.bound,
            "cleanup": res.cleanup_count,
            "certificate": certificate,
            "realizer_for_p": [list(e.order)
                               for e in res.realizer_for_p.extensions],
        }, sort_keys=True)

    v2 = certificate_to_json_dict(res.certificate)
    assert sha(text(v2)) == GENERAL_V2[seed]
    v1 = v1_certificate_dict(certificate_from_json_dict(v2))
    assert sha(text(v1)) == GENERAL[seed]


# seed 0 settles within the budget; seeds 1-4 exhaust it and pin .best
EXACT = {
    0: "730a2df870ec16941552783c91ffd192ed524ad70feaf15b2fc0942ab12436c2",
    1: "881aa2ca82ab31809d018fc294c0b8ebec85686bd9c1c0b9a7bfc01ea72e5a8a",
    2: "d9192ae2e799da366a8a8e346d2ded676d15418dced34b105367cd0e27ee4425",
    3: "dc72bc0d285e2480dbe0b16d64e3c2d7547362a519d10e488268f175dcd50c8e",
    4: "1d016bee505e3b5b2ffc0f5ffe1e479a69b0c5d5139615f63e5ee7bb38a8668c",
}
EXACT_V2 = {
    0: "d71c9e51a5ce842054f671a60c46ab3370a4edb835e859827f4fd6471b7762fc",
    1: "95ec721a4129433b78e520aab9a0d14ac04f4ff3d5c51fe45df3b402bf3d0f59",
    2: "63acc25f5e09b7a68ae7db48ca40985919a1a7355cb8119f7246f1cf1443144b",
    3: "1798feab3a293849603f4e6365f0f708cdad194c4dee0be7e7b72a00a9a8857f",
    4: "aecdfc781a9ca59c5c8981c527ff9ad0cd6cd5df02c945528ea2c1a006206c81",
}


@pytest.mark.parametrize("seed", sorted(EXACT))
def test_exact_dimension_witness_is_pinned(seed):
    p = random_poset(52, 0.10, seed)
    try:
        res = exact_dimension(p, budget=20_000)
        kind = "settled"
    except BudgetExceeded as exc:
        res = exc.best
        kind = "budget"
    text = realizer_to_json(p.n, res.witness, res.optimal)
    assert sha(kind + "\n" + text) == EXACT_V2[seed]
    v1 = v1_realizer_json(*realizer_from_json(text))
    assert sha(kind + "\n" + v1) == EXACT[seed]


# stdout of each narrative demo, computed before critical pairs became
# bitmask rows
DEMOS = {
    "01_standard_examples": "6673a3ee324fa51f105608bf7e9c48b65069480613578bdf3c8b553b21a2fb17",
    "02_peeling_walkthrough": "dba74b069f43177d36f4e157440fa9efe09bb3225efd9d40d55f1c6c9150c72b",
    "03_split_pipeline": "1dd3a5d90ff3c831489671265284139fdfe4085523827de53ffc25ed74bb5596",
    "04_matrix_event": "34c577b60495c649457a0ffd69d1a24b0fc16f357bd23dc89be867abc2e2bad8",
    "05_growth_trend": "6b3be1ddea409a8b7afa917e8fd80afca12a69e35e050dfbe9945183be165ccb",
}


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_demo_output_is_pinned(name, capsys):
    path = Path(__file__).resolve().parent.parent / "demos" / f"{name}.py"
    runpy.run_path(str(path), run_name="__main__")
    assert sha(capsys.readouterr().out) == DEMOS[name]
