"""Golden outputs: SHA-256 of seeded results that refactors must not move.

Each hash was computed before the growth-path speedups (bitwise
conflict graph, per-step extension reuse, sparse restrict) and must stay
identical after them.  A mismatch means an output changed byte for byte,
so a change that is meant to keep outputs fixed has broken that promise.

Realizer and certificate JSON moved to v2, which stores each distinct
order once.  Each format-bearing output is pinned twice: its v2 text,
and the v1 text of what that v2 text decodes to, which must still hash
to the value pinned before v2 existed.
"""

import hashlib
import json
import runpy
from pathlib import Path

import pytest

from posetdim import (
    certificate_from_json,
    certificate_to_json,
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
    1: "df4189df35e735b0aa2aeef42f4dc3e00e47b482b618ce0fdd2929ca31a64416",
    401: "f929c93a417a189925a348fe1059d6af1ae8e571a6d3cbfd288c39fc1509cb2b",
}


@pytest.mark.parametrize("seed", sorted(GROWTH))
def test_growth_csv_is_pinned(seed):
    records = run_growth_experiment(3, [40, 80, 160, 320], 1, 3, None, seed)
    assert sha(growth_records_to_csv(records)) == GROWTH[seed]


PEEL_320 = "abcfa75991efc3981d80afcc6502add7b6d460e7a2ac23ae27389092e3ee577c"
PEEL_320_V2 = "f66cff789ffcffc6aa5510815ffa67d91e6b9e3243f3d2835c485cec0eb9a5a6"


def test_peel_certificate_n320_is_pinned():
    bp = random_skfree_bipartite(160, 160, 1.5 / 160, 3, 7)
    cert = peel_realizer(bp, 3, 3, 12, 7)
    text = certificate_to_json(cert)
    assert sha(text) == PEEL_320_V2
    assert sha(v1_certificate_json(certificate_from_json(text))) == PEEL_320
    # 2,959 members but 415 distinct orders; the compact text took
    # 4.4 MB in v1
    assert len(json.loads(text)["realizer"]["orders"]) == 415
    assert len(json.dumps(certificate_to_json_dict(cert))) < 1_000_000


# the four smallest seeds of random_poset(40, 0.06, seed) that are S_3-free
GENERAL = {
    12: "3b5deba2062fb48979467af7f02bf6bf802604d83e51ad79394774dc1aaee917",
    37: "973417ce30f4a1b09081a7cb0a245c2c83bc49fa0da4e3165866ef8e4f7dd9c2",
    41: "56b468ee9569a5d34895da5d34e10d665ce55430a6b99ff16b02187320baf094",
    46: "3f7322f83350cd012782ecd94bedf49ff14df6881d8b339b53ed5c53f41dd91b",
}
GENERAL_V2 = {
    12: "d9481a1f75fce1da045a20a3c4bb93afd0762eaa41f760706b1da3705f452dc2",
    37: "5f1879c9290518acebc75359059203a34d13080f72509b3eeca687f9f6bbbed9",
    41: "908a2a929710dfd39629443c572ada6614874b52c783dc75c007d18c8d98cf93",
    46: "bd82b77c13289c7a579fbb842ae78f20486e08823e5d6e997d34e12782e8ac7e",
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
    "02_peeling_walkthrough": "47b8f2020f2c374c5f248f7f538d12198058585170b40726942bbae2914f7409",
    "03_split_pipeline": "fe8c789467653db304da3248bc364307a9433e5106d9419331e5bf9f2a8e4995",
    "04_matrix_event": "34c577b60495c649457a0ffd69d1a24b0fc16f357bd23dc89be867abc2e2bad8",
    "05_growth_trend": "fb42bd2322c71bffbc4a286efb40f86ef863577bb36a2906a589cf069fed4e9e",
}


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_demo_output_is_pinned(name, capsys):
    path = Path(__file__).resolve().parent.parent / "demos" / f"{name}.py"
    runpy.run_path(str(path), run_name="__main__")
    assert sha(capsys.readouterr().out) == DEMOS[name]
