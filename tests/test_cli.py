"""Command-line surface: flows, formats, exit codes, error JSON."""

import contextlib
import copy
import io
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from posetdim import (DimensionResult, Realizer, __version__, cli, dimension,
                      load_poset, peel_realizer, random_skfree_bipartite,
                      step_extension_cap)
from posetdim.cli import build_parser, main
from posetdim.core import MAX_TEXT_N, poset_to_text, standard_example_bipartite
from posetdim.errors import BudgetExceeded, PosetDimError
from posetdim.experiments import run_growth_experiment
from posetdim.skfree import certificate_from_json_dict, certificate_to_json_dict

from conftest import swap_inside_shared_prefix, v2_certificate_dict

DATA = Path(__file__).resolve().parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- gen / dim / detect ------------------------------------------------------------


def test_gen_dim_detect_flow(tmp_path, capsys):
    f = str(tmp_path / "s3.poset")
    code, out, _ = run(capsys, "gen", "--type", "standard:3", "--seed", "1",
                       "-o", f)
    assert code == 0 and "n=6" in out
    code, out, _ = run(capsys, "dim", f, "--exact")
    assert code == 0
    assert "dimension 3" in out and "optimal true" in out
    code, out, _ = run(capsys, "detect", f, "--k", "3")
    assert code == 0
    assert "a: 0 1 2" in out and "b: 3 4 5" in out


def test_gen_output_reloads_and_echoes_seed(tmp_path, capsys):
    f = str(tmp_path / "r.poset")
    code, _, _ = run(capsys, "gen", "--type", "random:7,0.4", "--seed", "11",
                     "-o", f)
    assert code == 0
    text = open(f).read()
    assert "--seed 11" in text and f"v{__version__}" in text
    assert load_poset(f).n == 7
    code, _, _ = run(capsys, "gen", "--type", "bipartite:4,4,0.5", "--seed",
                     "11", "-o", f)
    assert code == 0
    bp = load_poset(f)
    assert len(bp.a_order) == len(bp.b_order) == 4


def test_detect_reports_none(tmp_path, capsys):
    f = str(tmp_path / "c.poset")
    run(capsys, "gen", "--type", "random:5,1.0", "--seed", "3", "-o", f)
    code, out, _ = run(capsys, "detect", f, "--k", "2")
    assert code == 0 and out.strip() == "none"


def test_dim_budget_zero_is_a_budget(tmp_path, capsys):
    f = str(tmp_path / "r.poset")
    run(capsys, "gen", "--type", "random:52,0.10", "--seed", "1", "-o", f)
    code, out, _ = run(capsys, "dim", f, "--budget", "0")
    assert code == 0 and "optimal false" in out
    code, out, err = run(capsys, "dim", f, "--budget", "-5")
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "ArgumentError"


def test_every_exact_solve_defaults_to_one_budget(tmp_path, monkeypatch, capsys):
    # the peel's base solve, the growth study's exact column and dim all
    # spend dimension.DEFAULT_BUDGET nodes; dim --exact alone has no cap
    budgets = []
    core = dimension._exact_core

    def spy(p, budget):
        budgets.append(budget)
        return core(p, budget)

    monkeypatch.setattr(dimension, "_exact_core", spy)
    default = dimension.DEFAULT_BUDGET
    assert default == build_parser().parse_args(["dim", "f"]).budget == 1_000_000
    peel_realizer(random_skfree_bipartite(6, 6, 0.5, 3, 0), 3, 3, 12, seed=0)
    assert budgets == [default]
    run_growth_experiment(3, [12], 1, 3, None, seed=1)  # a peel and the column
    assert budgets == [default] * 3
    f = str(tmp_path / "s3.poset")
    run(capsys, "gen", "--type", "standard:3", "--seed", "1", "-o", f)
    assert run(capsys, "dim", f)[0] == run(capsys, "dim", f, "--exact")[0] == 0
    assert budgets == [default] * 4 + [None]


def test_dim_of_the_empty_poset_is_0(tmp_path, capsys):
    f = tmp_path / "empty.poset"
    f.write_text("poset 0\n")
    code, out, _ = run(capsys, "dim", str(f))
    assert code == 0 and out == "dimension 0\noptimal true\n"


@pytest.mark.parametrize("overrun", [False, True])
def test_dim_prints_no_unchecked_bound(tmp_path, monkeypatch, capsys, overrun):
    # the core solver's witness with a member dropped, returned or raised
    # as BudgetExceeded's .best: dim prints nothing and one JSON error
    core = dimension._exact_core

    def dropped(p, budget):
        short = DimensionResult(Realizer.of(core(p, budget).witness.extensions[1:]), False)
        if overrun:
            raise BudgetExceeded("search budget exhausted", best=short)
        return short

    monkeypatch.setattr(dimension, "_exact_core", dropped)
    f = str(tmp_path / "s3.poset")
    run(capsys, "gen", "--type", "standard:3", "--seed", "1", "-o", f)
    code, out, err = run(capsys, "dim", f, "--budget", "100")
    assert code == 1 and out == ""
    (line,) = err.splitlines()
    assert json.loads(line)["error"] == "VerificationFailed"


# -- peel / verify / split -----------------------------------------------------------


def test_peel_certificate_reverifies(tmp_path, capsys):
    f = str(tmp_path / "free.poset")
    cert = str(tmp_path / "cert.json")
    run(capsys, "gen", "--type", "skfree:10,10,0.25,3", "--seed", "7", "-o", f)
    code, out, _ = run(capsys, "peel", f, "--k", "3", "--q", "2",
                       "--threshold", "8", "--seed", "5", "--json", cert)
    assert code == 0 and "total_size" in out
    payload = json.loads(open(cert).read())
    assert payload["seed"] == 5
    assert payload["tool_version"] == __version__
    assert payload["parameters"]["k"] == 3
    assert payload["certificate"]["total_size"] >= 1
    code, out, _ = run(capsys, "dim", f, "--verify", cert)
    assert code == 0 and "verified" in out


def test_verify_checks_a_certificate_s_totals(tmp_path, capsys):
    # inflating total_size and one step's count together keeps the
    # accounting equation but no longer matches the realizer's members
    f = str(tmp_path / "free.poset")
    cert = tmp_path / "cert.json"
    run(capsys, "gen", "--type", "skfree:10,10,0.25,3", "--seed", "7", "-o", f)
    run(capsys, "peel", f, "--k", "3", "--q", "2", "--threshold", "8",
        "--seed", "5", "--json", str(cert))
    payload = json.loads(cert.read_text())
    assert payload["certificate"]["steps"]
    for body in (payload, payload["certificate"]):
        bad = copy.deepcopy(body)
        inner = bad.get("certificate", bad)
        inner["total_size"] += 5
        inner["steps"][0]["extensions_built"] += 5
        cert.write_text(json.dumps(bad))
        code, out, err = run(capsys, "dim", f, "--verify", str(cert))
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "VerificationFailed"


def test_verify_checks_a_certificate_s_step_counts(tmp_path, capsys):
    # one member moved from step 0's count to step 1's keeps every total
    f = str(tmp_path / "free.poset")
    cert = tmp_path / "cert.json"
    run(capsys, "gen", "--type", "skfree:10,10,0.25,3", "--seed", "7", "-o", f)
    run(capsys, "peel", f, "--k", "3", "--q", "2", "--threshold", "8",
        "--seed", "5", "--json", str(cert))
    payload = json.loads(cert.read_text())
    steps = payload["certificate"]["steps"]
    built = steps[0]["extensions_built"]
    steps[0]["extensions_built"] -= 1
    steps[1]["extensions_built"] += 1
    cert.write_text(json.dumps(payload))
    code, out, err = run(capsys, "dim", f, "--verify", str(cert))
    assert code == 1 and out == "" and err.count("\n") == 1
    assert json.loads(err) == {
        "error": "ArgumentError",
        "message": f"certificate step 0 'extensions_built' is {built - 1}, "
                   f"not {built}",
    }


@pytest.mark.parametrize("k, q", [("1", "2"), ("0", "2"), ("-1", "2"),
                                  ("3", "1")])
def test_peel_rejects_small_k_and_q(tmp_path, capsys, k, q):
    f = str(tmp_path / "free.poset")
    run(capsys, "gen", "--type", "skfree:4,4,0.25,3", "--seed", "7", "-o", f)
    code, out, err = run(capsys, "peel", f, "--k", k, "--q", q,
                         "--threshold", "4", "--seed", "5")
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "ArgumentError"


def test_peel_at_a_k_past_the_float_range_exits_1(tmp_path, capsys):
    # k 2^k ln q overflows a float: a domain error naming k, no traceback
    f = str(tmp_path / "free.poset")
    run(capsys, "gen", "--type", "skfree:12,12,0.2,3", "--seed", "4", "-o", f)
    code, out, err = run(capsys, "peel", f, "--k", "1030", "--q", "2",
                         "--threshold", "6", "--seed", "1")
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "error": "ArgumentError",
        "message": "k=1030 is too large: k 2^k ln q passes the float range"}


@pytest.mark.parametrize("argv, r", [
    (("peel", "{f}", "--k", "40", "--q", "2", "--threshold", "6", "--seed", "1"),
     30_484_935_391_433),  # ceil(k 2^k ln q)
    (("prob-lemma", "--t", "1", "--q", "2", "--r", "30000000000000",
      "--trials", "1", "--seed", "1"), 30_000_000_000_000),
])
def test_a_matrix_past_the_row_cap_is_refused_unbuilt(tmp_path, capsys, argv, r):
    f = str(tmp_path / "free.poset")
    run(capsys, "gen", "--type", "skfree:12,12,0.2,3", "--seed", "4", "-o", f)
    code, out, err = run(capsys, *(a.format(f=f) for a in argv))
    assert code == 1 and out == "" and err.count("\n") == 1
    assert json.loads(err) == {
        "error": "ArgumentError",
        "message": f"r={r} rows for q=2 pass the matrix row cap of {2 ** 20}"}


def test_peel_requires_sides(tmp_path, capsys):
    f = str(tmp_path / "plain.poset")
    run(capsys, "gen", "--type", "random:6,0.3", "--seed", "2", "-o", f)
    code, _, err = run(capsys, "peel", f, "--k", "3", "--q", "2",
                       "--threshold", "6", "--seed", "1")
    assert code == 1
    assert json.loads(err)["error"] == "ArgumentError"


def test_split_then_peel(tmp_path, capsys):
    f = str(tmp_path / "p.poset")
    sp = str(tmp_path / "split.poset")
    run(capsys, "gen", "--type", "random:6,0.3", "--seed", "4", "-o", f)
    code, out, _ = run(capsys, "split", f, "-o", sp)
    assert code == 0 and "n=12" in out
    assert "A:" in open(sp).read()
    code, out, _ = run(capsys, "peel", sp, "--k", "3", "--q", "2",
                       "--threshold", "8", "--seed", "9")
    assert code == 0


def test_verify_refuses_a_swap_inside_a_shared_prefix(tmp_path, capsys):
    # an n=320 peel certificate whose second order lists a related pair
    # the wrong way round, inside the prefix it shares with the first
    bp = random_skfree_bipartite(160, 160, 1.5 / 160, 3, seed=2)
    cert = certificate_to_json_dict(peel_realizer(bp, 3, 3, 12, seed=2))
    f = tmp_path / "p.poset"
    f.write_text(poset_to_text(bp))
    path = tmp_path / "cert.json"
    path.write_text(json.dumps({"certificate": cert}))
    assert run(capsys, "dim", str(f), "--verify", str(path))[0] == 0
    v2 = v2_certificate_dict(certificate_from_json_dict(cert))
    orders = v2["realizer"]["orders"]
    swapped = swap_inside_shared_prefix(bp.poset, orders)
    orders[1] = swapped
    # in v3 the second entry claims to share nothing and carries the
    # swapped order whole: the claim only sets where the rebuild starts
    v3 = copy.deepcopy(cert)
    v3["realizer"]["shared"][1], v3["realizer"]["tails"][1] = 0, swapped
    for bad in (v2, v3):
        path.write_text(json.dumps({"certificate": bad}))
        code, out, err = run(capsys, "dim", str(f), "--verify", str(path))
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "NotAnExtension"


def test_verify_walks_from_the_file_s_shared_lengths(tmp_path, capsys, monkeypatch):
    # the final walk restarts each order where the file says it leaves
    # the one before; a dual peel's (|A| > |B|) orders share suffixes, so
    # the walk runs reversed, takes no lengths, and still verifies
    real_walk, hints = dimension.listed_below, []
    monkeypatch.setattr(dimension, "listed_below", lambda orders, n, shared=None:
                        hints.append(shared) or real_walk(orders, n, shared))
    f, path = tmp_path / "p.poset", tmp_path / "cert.json"
    for na, nb in ((30, 50), (50, 30)):
        bp = random_skfree_bipartite(na, nb, 1.5 / 40, 3, seed=7)
        cert = certificate_to_json_dict(peel_realizer(bp, 3, 3, 12, seed=7))
        assert cert["steps"] and any(cert["realizer"]["shared"])
        f.write_text(poset_to_text(bp))
        path.write_text(json.dumps({"certificate": cert}))
        hints.clear()
        code, out, err = run(capsys, "dim", str(f), "--verify", str(path))
        assert (code, err) == (0, "") and out.startswith("verified ")
        assert hints == [None if na > nb else tuple(cert["realizer"]["shared"])]


def test_verify_rejects_wrong_realizer(tmp_path, capsys):
    f = str(tmp_path / "s3.poset")
    bad = str(tmp_path / "bad.json")
    run(capsys, "gen", "--type", "standard:3", "--seed", "1", "-o", f)
    with open(bad, "w") as fh:
        json.dump({"n": 6, "dimension": 1, "optimal": False,
                   "extensions": [[0, 1, 2, 3, 4, 5]]}, fh)
    code, _, err = run(capsys, "dim", f, "--verify", bad)
    assert code == 1
    assert json.loads(err)["error"] == "VerificationFailed"
    with open(bad, "w") as fh:  # a valid realizer of a 5-element chain
        json.dump({"n": 5, "optimal": True, "extensions": [[0, 1, 2, 3, 4]]}, fh)
    code, _, err = run(capsys, "dim", f, "--verify", bad)
    assert code == 1
    payload = json.loads(err)
    assert payload["error"] == "VerificationFailed"
    assert payload["pair"] is None and "n=5" in payload["message"]


@pytest.mark.parametrize("realizer, error, fragment", [
    ({"n": 3, "optimal": False}, "ArgumentError", "'extensions'"),
    ({"extensions": [[0, 1, 2]], "optimal": False}, "ArgumentError", "'n'"),
    ([[0, 1, 2]], "ArgumentError", "object"),
    ({"n": 3, "optimal": False, "extensions": [["0", "1", "2"]]},
     "ArgumentError", "integer"),
    ({"n": 3, "optimal": False, "extensions": []},
     "VerificationFailed", "empty"),
    # v2: distinct orders plus one index per member
    ({"n": 3, "optimal": False}, "ArgumentError", "'orders'"),
    ({"n": 3, "optimal": False, "orders": [[0, 1, 2]]},
     "ArgumentError", "'members'"),
    ({"n": 3, "optimal": False, "orders": [[0, 1, 2]], "members": 0},
     "ArgumentError", "'members'"),
    ({"n": 3, "optimal": False, "orders": [[0, 1, 2]], "members": [True]},
     "ArgumentError", "'members'"),
    ({"n": 3, "optimal": False, "orders": [[0, 1, 2]], "members": [0.0]},
     "ArgumentError", "'members'"),
    ({"n": 3, "optimal": False, "orders": [[0, 1, 2]], "members": ["0"]},
     "ArgumentError", "'members'"),
    ({"n": 3, "optimal": False, "orders": [[0, 1, 2]], "members": [-1]},
     "ArgumentError", "'members'"),
    ({"n": 3, "optimal": False, "orders": [[0, 1, 2]], "members": [0, 1]},
     "ArgumentError", "'members'"),
    ({"n": 3, "optimal": False, "orders": [[0, 1, 2]], "members": [0],
      "extensions": [[0, 1, 2]]}, "ArgumentError", "both"),
    ({"n": 3, "optimal": False, "orders": [[0, 1, 2], [0, 1]],
      "members": [0, 1]}, "ArgumentError", "row 1"),
    ({"n": 3, "optimal": False, "orders": [[0, 1, True]], "members": [0]},
     "ArgumentError", "integer"),
    ({"n": 3, "optimal": False, "orders": [], "members": []},
     "VerificationFailed", "empty"),
    # a "dimension" that is not the member count
    ({"n": 3, "dimension": 99, "orders": [[0, 1, 2]], "members": [0],
      "optimal": True}, "ArgumentError", "'dimension' is 99, not 1"),
    ({"n": 3, "dimension": 99, "extensions": [[0, 1, 2]], "optimal": True},
     "ArgumentError", "'dimension' is 99, not 1"),
    ({"n": 3, "dimension": True, "orders": [[0, 1, 2]], "members": [0],
      "optimal": True}, "ArgumentError", "'dimension' is True"),
    ({"n": -1, "optimal": False, "orders": [], "members": []},
     "ArgumentError", "'n'"),
    ({"n": 3.0, "optimal": False, "orders": [[0, 1, 2]], "members": [0]},
     "ArgumentError", "'n'"),
    # an order that is not a permutation blames no single pair
    ({"n": 3, "orders": [[0, 0, 1]], "members": [0], "optimal": False},
     "NotAnExtension", "not a permutation"),
    # "optimal" is a JSON bool, never coerced
    ({"n": 3, "orders": [[0, 1, 2]], "members": [0], "optimal": "false"},
     "ArgumentError", "realizer 'optimal' must be a boolean, got str"),
    ({"n": 3, "orders": [[0, 1, 2]], "members": [0], "optimal": [0]},
     "ArgumentError", "realizer 'optimal' must be a boolean, got list"),
    ({"n": 3, "extensions": [[0, 1, 2]], "optimal": 1},
     "ArgumentError", "realizer 'optimal' must be a boolean, got int"),
    # every order is checked, so each must be counted as some member
    ({"n": 3, "orders": [[0, 1, 2]], "members": [], "optimal": False},
     "ArgumentError", "naming all 1 'orders'"),
    ({"n": 3, "orders": [[0, 1, 2], [0, 2, 1]], "members": [0, 0],
      "optimal": False}, "ArgumentError", "naming all 2 'orders'"),
    # v3: each distinct order as the prefix length it shares with the
    # order before it and the tail after that prefix
    ({"n": 3, "optimal": False, "tails": [[0, 1, 2]], "members": [0]},
     "ArgumentError", "'shared'"),
    ({"n": 3, "optimal": False, "shared": [0], "tails": [[0, 1, 2]],
      "orders": [[0, 1, 2]], "members": [0]},
     "ArgumentError", "both 'tails' and 'orders'"),
    ({"n": 3, "optimal": False, "shared": [0], "tails": [[0, 1, 2]],
      "extensions": [[0, 1, 2]], "members": [0]},
     "ArgumentError", "both 'tails' and 'extensions'"),
    ({"n": 3, "optimal": False, "shared": [0], "tails": [[0, 1, 2], [2]],
      "members": [0, 1]},
     "ArgumentError", "'shared' must be a list of integers, one per tail"),
    ({"n": 3, "optimal": False, "shared": [0, True], "tails": [[0, 1, 2], [2]],
      "members": [0, 1]}, "ArgumentError", "'shared' must be a list of integers"),
    ({"n": 3, "optimal": False, "shared": [0], "tails": [[0, 1, 2.0]],
      "members": [0]}, "ArgumentError", "'tails' must be a list of integer lists"),
    ({"n": 3, "optimal": False, "shared": [0, -1], "tails": [[0, 1, 2], [2]],
      "members": [0, 1]}, "ArgumentError", "'shared' 1 is -1, not in 0..3"),
    ({"n": 3, "optimal": False, "shared": [1], "tails": [[1, 2]],
      "members": [0]}, "ArgumentError", "'shared' 0 is 1, not in 0..0"),
    ({"n": 3, "optimal": False, "shared": [0, 4], "tails": [[0, 1, 2], []],
      "members": [0, 1]}, "ArgumentError", "'shared' 1 is 4, not in 0..3"),
    ({"n": 3, "optimal": False, "shared": [0], "tails": [[0, 1]],
      "members": [0]}, "ArgumentError", "'tails' row 0 has length 2, not n=3"),
    ({"n": 3, "optimal": False, "shared": [0, 1], "tails": [[0, 1, 2], [2]],
      "members": [0, 1]},
     "ArgumentError", "'tails' row 1 has length 1, not n-shared=2"),
    ({"n": 3, "optimal": False, "shared": [0], "tails": [[0, 1, 2]],
      "members": []}, "ArgumentError", "naming all 1 'tails'"),
    # a rebuilt order goes through every check a whole one does
    ({"n": 3, "optimal": False, "shared": [0, 2], "tails": [[0, 1, 2], [1]],
      "members": [0, 1]}, "NotAnExtension", "not a permutation"),
    # whatever a wrapper holds under "certificate" is read as a certificate
    ({"parameters": {"k": 3, "q": 3}, "certificate": []},
     "ArgumentError", "certificate JSON must be an object, got list"),
    ({"parameters": {"k": 3, "q": 3}, "certificate": {"n": 2}},
     "ArgumentError", "certificate JSON lacks the 'steps' key"),
])
def test_verify_reports_malformed_realizers(tmp_path, capsys, realizer,
                                             error, fragment):
    # a 3-chain has no critical pairs, so only the family itself is wrong
    f = tmp_path / "chain.poset"
    f.write_text("poset 3\nrel 0 1\nrel 1 2\n")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(realizer))
    code, _, err = run(capsys, "dim", str(f), "--verify", str(bad))
    assert code == 1
    payload = json.loads(err)
    assert payload["error"] == error and fragment in payload["message"]
    if error in ("VerificationFailed", "NotAnExtension"):
        assert payload["pair"] is None


def test_verify_refuses_an_empty_certificate_as_empty(tmp_path, capsys):
    # the certificate's n is its realizer's, so its base_size of 3 holds
    # and the empty family itself is what dim --verify refuses
    f = tmp_path / "chain.poset"
    f.write_text("poset 3\nrel 0 1\nrel 1 2\n")
    cert = {"steps": [], "base_size": 3, "base_dimension": 0,
            "base_optimal": False, "total_size": 0,
            "realizer": {"n": 3, "optimal": False, "shared": [], "tails": [],
                         "members": []}}
    assert certificate_from_json_dict(cert).base_size == 3
    bad = tmp_path / "cert.json"
    for body in (cert, {"parameters": {"k": 3, "q": 2}, "certificate": cert}):
        bad.write_text(json.dumps(body))
        code, out, err = run(capsys, "dim", str(f), "--verify", str(bad))
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": "VerificationFailed", "pair": None,
                                   "message": "the realizer family is empty"}


@pytest.mark.parametrize("depth", [1_000, 100_000])
def test_verify_reports_over_nested_json(tmp_path, capsys, depth):
    f = tmp_path / "chain.poset"
    f.write_text("poset 3\nrel 0 1\nrel 1 2\n")
    bad = tmp_path / "deep.json"
    bad.write_text('{"n": ' + "[" * depth + "]" * depth + "}")
    code, out, err = run(capsys, "dim", str(f), "--verify", str(bad))
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "ArgumentError",
                               "message": "JSON nested too deeply"}


def test_verify_reads_v1_and_v2_alike(tmp_path, capsys):
    # the legacy file, written before v2 by a peel that still spent
    # cleanup members, against its own v3 and v2 renderings
    poset = str(DATA / "legacy_v1.poset")
    legacy = json.loads((DATA / "legacy_v1.cert.json").read_text())
    code, out, err = run(capsys, "dim", poset, "--verify",
                         str(DATA / "legacy_v1.cert.json"))
    assert code == 0 and err == ""
    assert out == "verified 144 extensions realize the poset\n"
    cert = certificate_from_json_dict(legacy["certificate"])
    path = tmp_path / "rendered.json"
    for render, key in ((certificate_to_json_dict, "tails"),
                        (v2_certificate_dict, "orders")):
        legacy["certificate"] = render(cert)
        assert key in legacy["certificate"]["realizer"]
        path.write_text(json.dumps(legacy))
        assert run(capsys, "dim", poset, "--verify", str(path)) == (0, out, "")


@pytest.mark.parametrize("where, key, value, step", [
    ("step", "color", 4, 0),  # k + 1 for the legacy file's k = 3
    ("step", "color", 4, 3),
    ("parameters", "q", 3, 0),
])
def test_verify_refuses_steps_its_parameters_rule_out(tmp_path, capsys, where,
                                                      key, value, step):
    # the legacy file was peeled at k = 3, q = 2: a step in color k + 1, or
    # a q that no step removes, contradicts the wrapper's own parameters;
    # the bare certificate states no k or q and keeps reading back
    poset = str(DATA / "legacy_v1.poset")
    legacy = json.loads((DATA / "legacy_v1.cert.json").read_text())
    assert legacy["parameters"]["k"] == 3 and legacy["parameters"]["q"] == 2
    body = legacy["certificate"]["steps"][step] if where == "step" else (
        legacy["parameters"])
    body[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(legacy))
    code, out, err = run(capsys, "dim", poset, "--verify", str(bad))
    assert code == 1 and out == ""
    report = json.loads(err)
    assert report["error"] == "VerificationFailed"
    assert report["message"].startswith(f"certificate step {step} ")
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(legacy["certificate"]))
    assert run(capsys, "dim", poset, "--verify", str(bare)) == (
        0, "verified 144 extensions realize the poset\n", "")


def test_verify_refuses_a_step_over_its_cap(tmp_path, capsys):
    # step_extension_cap(3, 2) is 49: step 1 (36 members) gets 14 more
    # cleanup members at the end of its block, so every count agrees but
    # the step spends 50; the bare certificate states no k or q and keeps
    # reading back, as does the wrapper at a k whose cap it fits
    poset = str(DATA / "legacy_v1.poset")
    legacy = json.loads((DATA / "legacy_v1.cert.json").read_text())
    cert = legacy["certificate"]
    step = cert["steps"][1]
    assert step["extensions_built"] == 36 and step_extension_cap(3, 2) == 49
    step["extensions_built"] += 14
    step["cleanup_extensions"] += 14
    end = sum(s["extensions_built"] for s in cert["steps"][:2]) - 14
    exts = cert["realizer"]["extensions"]
    exts[end:end] = [exts[end - 1]] * 14
    cert["total_size"] += 14
    cert["realizer"]["dimension"] += 14
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(legacy))
    code, out, err = run(capsys, "dim", poset, "--verify", str(bad))
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "error": "VerificationFailed", "pair": None,
        "message": "certificate step 1 spends 50 extensions, over the cap "
                   "of 49 for k=3, q=2"}
    verified = (0, "verified 158 extensions realize the poset\n", "")
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(cert))
    assert run(capsys, "dim", poset, "--verify", str(bare)) == verified
    for k in (4, 10 ** 100):  # 17 rows fit k = 3 only; a huge k is not computed
        legacy["parameters"]["k"] = k
        bad.write_text(json.dumps(legacy))
        code, out, err = run(capsys, "dim", poset, "--verify", str(bad))
        assert code == 1 and out == ""
        assert json.loads(err)["message"] == (
            f"certificate step 0 has 17 matrix rows, not ceil(k 2^k ln q) "
            f"for k={k}, q=2")


def test_verify_refuses_a_step_whose_rows_its_parameters_rule_out(tmp_path, capsys):
    # ceil(3 2^3 ln 2) = 17: step 0 drops one of its zero rows, and its
    # two members move to the base, so every stored count still agrees
    poset = str(DATA / "legacy_v1.poset")
    legacy = json.loads((DATA / "legacy_v1.cert.json").read_text())
    cert = legacy["certificate"]
    step = cert["steps"][0]
    assert step["matrix_rows"] == 17 and step["matrix"][-1] == "00"
    del step["matrix"][-1]
    step["matrix_rows"] -= 1
    step["extensions_built"] -= 2
    cert["base_dimension"] += 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(legacy))
    code, out, err = run(capsys, "dim", poset, "--verify", str(bad))
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "error": "VerificationFailed", "pair": None,
        "message": "certificate step 0 has 16 matrix rows, not ceil(k 2^k ln q) "
                   "for k=3, q=2"}
    verified = (0, "verified 144 extensions realize the poset\n", "")
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(cert))
    assert run(capsys, "dim", poset, "--verify", str(bare)) == verified
    legacy = json.loads((DATA / "legacy_v1.cert.json").read_text())
    bad.write_text(json.dumps(legacy))
    assert run(capsys, "dim", poset, "--verify", str(bad)) == verified


def test_a_fresh_peel_certificate_verifies(tmp_path, capsys):
    poset = str(DATA / "legacy_v1.poset")
    cert = str(tmp_path / "cert.json")
    code, _, _ = run(capsys, "peel", poset, "--k", "3", "--q", "2",
                     "--threshold", "6", "--seed", "5", "--json", cert)
    assert code == 0
    assert "tails" in json.loads(open(cert).read())["certificate"]["realizer"]
    code, out, err = run(capsys, "dim", poset, "--verify", cert)
    assert code == 0 and err == ""
    assert out.startswith("verified ")
    assert out.endswith(" extensions realize the poset\n")


def test_a_dual_peel_round_trips(tmp_path, capsys):
    # |A| > |B|: peel peels the dual, and its reversed orders verify
    f, cert = str(tmp_path / "dual.poset"), str(tmp_path / "dual.json")
    code, _, _ = run(capsys, "gen", "--type", "skfree:12,8,0.2,3", "--seed", "1",
                     "-o", f)
    assert code == 0
    code, out, _ = run(capsys, "peel", f, "--k", "3", "--q", "3", "--threshold",
                       "6", "--seed", "1", "--json", cert)
    assert code == 0 and "steps 2\n" in out
    code, out, err = run(capsys, "dim", f, "--verify", cert)
    assert (code, out, err) == (0, "verified 112 extensions realize the poset\n", "")


# -- prob-lemma / experiment -----------------------------------------------------------


def test_prob_lemma_output(capsys):
    code, out, _ = run(capsys, "prob-lemma", "--t", "2", "--q", "4",
                       "--r", "12", "--trials", "500", "--seed", "3")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("empirical ")
    assert lines[1] == "analytic 0.619884"
    assert "seed 3" in lines[2]


def test_experiment_growth_reproducible(tmp_path, capsys):
    csv1 = str(tmp_path / "a.csv")
    csv2 = str(tmp_path / "b.csv")
    js = str(tmp_path / "g.json")
    args = ["experiment", "growth", "--k", "3", "--sizes", "12,16",
            "--samples", "2", "--q", "2", "--edge-prob", "0.3",
            "--seed", "5"]
    code, out, _ = run(capsys, *args, "--csv", csv1, "--json", js)
    assert code == 0
    assert out.startswith("n,samples,mean_bound,max_bound,mean_exact,bound_over_n")
    code, _, _ = run(capsys, *args, "--csv", csv2)
    assert code == 0
    assert open(csv1).read() == open(csv2).read()
    payload = json.loads(open(js).read())
    assert payload["seed"] == 5
    assert payload["tool_version"] == __version__
    assert payload["parameters"]["sizes"] == [12, 16]
    assert len(payload["records"]) == 2


def test_experiment_growth_rejects_tiny_sizes(capsys):
    code, out, err = run(capsys, "experiment", "growth", "--k", "3",
                         "--sizes", "1", "--samples", "1", "--q", "3",
                         "--seed", "1")
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "ArgumentError"


# -- exit codes -------------------------------------------------------------------------


def test_missing_file_is_a_domain_error(capsys):
    code, _, err = run(capsys, "dim", "does-not-exist.poset")
    assert code == 1
    assert json.loads(err)["error"] == "IOError"


def test_cyclic_input_reports_no_extra_fields(tmp_path, capsys):
    f = tmp_path / "cycle.poset"
    f.write_text("poset 2\nrel 0 1\nrel 1 0\n")
    code, out, err = run(capsys, "dim", str(f))
    assert code == 1 and out == ""
    assert err == ('{"error": "CycleError", '
                   '"message": "element 0 lies on or above a cycle"}\n')


@pytest.mark.parametrize("text, fragment", [
    ("poset 2\nrel 0 1\nA: 1\nA: 0\nB: 1\n", "line 4: duplicate A: line"),
    ("poset 2\nrel 0 1\nA: 0\nB: 1\nB: 1\n", "line 5: duplicate B: line"),
    ("poset 2\nrel 0 1\nA: 0\nB: 5\n", "B-side id 5"),
    ("poset 2\nrel 0 1\nA: -1\nB: 1\n", "A-side id -1"),
])
def test_malformed_side_lines_are_argument_errors(tmp_path, capsys, text,
                                                  fragment):
    f = tmp_path / "bad.poset"
    f.write_text(text)
    code, out, err = run(capsys, "dim", str(f))
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "ArgumentError"
    assert fragment in payload["message"]


@pytest.mark.parametrize("text, argv, want", [
    ("poset 3\nfoo 1\n", ["dim"],
     {"error": "ArgumentError", "message": "line 2: unknown directive 'foo'"}),
    ("poset 3\nposet 3\n", ["dim"],
     {"error": "ArgumentError", "message": "line 2: duplicate poset header"}),
    ("poset 3 4\n", ["dim"],
     {"error": "ArgumentError", "message": "line 1: malformed poset header"}),
    ("poset 3\nrel 0\n", ["dim"],
     {"error": "ArgumentError", "message": "line 2: malformed rel line"}),
    ("# no header\n", ["dim"],
     {"error": "ArgumentError", "message": "missing poset header"}),
    (None, ["gen", "--type", "random:5,1.5"],
     {"error": "ArgumentError", "message": "edge_prob must lie in [0, 1]"}),
    (None, ["gen", "--type", "random:-3,0.5"],
     {"error": "ArgumentError", "message": "n must be >= 0"}),
    (None, ["gen", "--type", "bipartite:4,4,-0.1"],
     {"error": "ArgumentError", "message": "edge_prob must lie in [0, 1]"}),
    (None, ["gen", "--type", "bipartite:-1,4,0.5"],
     {"error": "ArgumentError", "message": "side sizes must be >= 0"}),
    (poset_to_text(standard_example_bipartite(3)),
     ["peel", "--k", "3", "--q", "3", "--threshold", "2", "--seed", "1"],
     {"error": "NoValidColor", "a_elems": [0, 1, 2], "b_elems": [3, 4, 5]}),
    ("poset -1\n", ["dim"],
     {"error": "ArgumentError", "message": "n must be >= 0, got -1"}),
    ("poset 3\nrel 0 2\nA: 0 1\nB: 1\n", ["dim"],
     {"error": "ArgumentError", "message": "bipartition sides overlap"}),
    ("poset 3\nrel 0 1\nA: 0 0\nB: 1\n", ["dim"],
     {"error": "ArgumentError", "message": "bipartition misses elements"}),
    ("poset 4\nrel 0 2\nrel 1 3\nA: 0 1\nB: 2 3\n",
     ["peel", "--k", "3", "--q", "2", "--threshold", "0", "--seed", "1"],
     {"error": "ArgumentError", "message": "base_threshold must be >= 1"}),
])
def test_bad_input_exits_1_with_its_error(tmp_path, capsys, text, argv, want):
    # a file to read when there is text, else one for gen to write
    f = tmp_path / "p.poset"
    if text is None:
        argv = argv + ["--seed", "1", "-o", str(f)]
    else:
        f.write_text(text)
        argv = argv[:1] + [str(f)] + argv[1:]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert {key: payload[key] for key in want} == want


def test_q_below_k_peels_a_standard_example(tmp_path, capsys):
    # the NoValidColor row above at q = 3, now at q = 2 < k: no color is
    # read, so the peel succeeds on S_3 itself and the realizer verifies
    f = str(tmp_path / "s3.poset")
    cert = str(tmp_path / "cert.json")
    run(capsys, "gen", "--type", "standard:3", "--seed", "1", "-o", f)
    code, _, _ = run(capsys, "peel", f, "--k", "3", "--q", "2",
                     "--threshold", "2", "--seed", "1", "--json", cert)
    assert code == 0
    assert json.loads(open(cert).read())["certificate"]["total_size"] == 37
    code, _, _ = run(capsys, "dim", f, "--verify", cert)
    assert code == 0


def test_oversized_header_is_an_argument_error(tmp_path, capsys):
    f = tmp_path / "big.poset"
    f.write_text(f"poset {MAX_TEXT_N + 1}\n")
    code, out, err = run(capsys, "dim", str(f))
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "ArgumentError"
    assert f"line 1: header n={MAX_TEXT_N + 1} exceeds" in payload["message"]


@pytest.mark.parametrize("kind, params", [
    ("bipartite", "70000,0,0.0"), ("random", "70000,0.5"),
    ("standard", f"{MAX_TEXT_N // 2 + 1}"), ("skfree", "40000,30000,0.0,3")])
def test_gen_refuses_a_size_the_reader_would_unbuilt(tmp_path, monkeypatch, capsys,
                                                     kind, params):
    # the ground size its --type gives is refused before any build
    def refuse(*args, **kwargs):
        raise AssertionError("built")

    monkeypatch.setitem(cli._GEN_TYPES, kind, (refuse, *cli._GEN_TYPES[kind][1:]))
    f = tmp_path / "big.poset"
    code, out, err = run(capsys, "gen", "--type", f"{kind}:{params}", "--seed", "1",
                         "-o", str(f))
    assert code == 1 and out == "" and not f.exists()
    (line,) = err.splitlines()
    assert json.loads(line)["error"] == "ArgumentError"
    assert f"exceeds the poset file cap of {MAX_TEXT_N}" in line


def test_split_refuses_a_doubled_size_past_the_cap_unbuilt(tmp_path, monkeypatch,
                                                           capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("built")

    monkeypatch.setattr(cli, "kimble_split", refuse)
    f, out_file = tmp_path / "p.poset", tmp_path / "split.poset"
    f.write_text("poset 32769\n")
    code, out, err = run(capsys, "split", str(f), "-o", str(out_file))
    assert code == 1 and out == "" and not out_file.exists()
    (line,) = err.splitlines()
    assert json.loads(line) == {
        "error": "ArgumentError",
        "message": f"n=65538 exceeds the poset file cap of {MAX_TEXT_N}",
    }


class _Unlisted(PosetDimError):
    """An error class no command raises."""


class _UnlistedWithPayload(PosetDimError):
    def payload(self):
        return {"where": [1, 2]}


@pytest.mark.parametrize("exc, report", [
    (_Unlisted("no fields"), {"error": "_Unlisted", "message": "no fields"}),
    (_UnlistedWithPayload("two fields"),
     {"error": "_UnlistedWithPayload", "message": "two fields", "where": [1, 2]}),
])
def test_any_domain_error_reports_its_class_name(monkeypatch, capsys, exc, report):
    def fail(path):
        raise exc

    monkeypatch.setattr(cli, "load_poset", fail)
    code, out, err = run(capsys, "dim", "any.poset")
    assert code == 1 and out == ""
    assert json.loads(err) == report

def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["dim"])  # missing FILE
    assert exc.value.code == 2
    capsys.readouterr()
    for kind in ("nonsense:1", "random:x,0.3"):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--type", kind, "--seed", "1", "-o", "x"])
        assert exc.value.code == 2
        assert f"bad type {kind!r}" in capsys.readouterr().err
    for sizes in ("12,x", ","):  # a non-integer and an empty list
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "growth", "--k", "3", "--sizes", sizes,
                  "--samples", "1", "--q", "3", "--seed", "1"])
        assert exc.value.code == 2
        assert "sizes" in capsys.readouterr().err


def test_domain_error_payload_carries_embedding(tmp_path, capsys):
    # `detect` prints the witness that `peel` puts in its NoValidColor
    # payload (test_bad_input_exits_1_with_its_error)
    f = str(tmp_path / "s2.poset")
    run(capsys, "gen", "--type", "standard:2", "--seed", "1", "-o", f)
    code, out, _ = run(capsys, "detect", f, "--k", "2")
    assert code == 0 and "a: 0 1" in out


# -- fuzzing the file boundary -----------------------------------------------------------

# values of every JSON type, out-of-range ints and a ragged matrix among them
_JUNK = [None, True, False, 0.5, 3.0, "1", -1, 2**70, [], {}, [[0, 1], [2]],
         ["01", "2"]]
# header sizes stay small: a bare antichain header's dim time grows about
# quadratically in n, which no budget bounds yet
_JUNK_TOKENS = ["-1", "0", "1", "4", "9", "x", "1.5", str(2**70), "A:", "B:"]


def _mutate_json(draw, value):
    """A copy of value with one entry somewhere in it dropped, repeated,
    replaced by junk, or (in a string) garbled."""
    if isinstance(value, str):
        return draw(st.sampled_from([value[:-1], value + "1",
                                     value.replace("0", "2", 1)]))
    if (not isinstance(value, (dict, list)) or not value
            or draw(st.integers(0, 4)) == 0):
        return draw(st.sampled_from(_JUNK))
    out = copy.copy(value)
    key = draw(st.sampled_from(
        sorted(out) if isinstance(out, dict) else range(len(out))))
    how = draw(st.sampled_from(["drop", "repeat", "deeper"]))
    if how == "drop":
        del out[key]
    elif how == "repeat" and isinstance(out, list):
        out.append(out[key])
    else:
        out[key] = _mutate_json(draw, out[key])
    return out


def _mutate_poset(draw, text):
    """text with one line dropped or repeated, one side line added, or
    one token replaced by junk."""
    lines = text.splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    how = draw(st.sampled_from(["drop", "repeat", "side", "token"]))
    if how == "drop":
        del lines[i]
    elif how == "repeat":
        lines.insert(i, lines[i])
    elif how == "side":
        lines.append(draw(st.sampled_from(["A:", "B:"])) + " "
                     + draw(st.sampled_from(["0", "4", "9"])))
    else:
        tokens = lines[i].split() or [""]
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(
            st.sampled_from(_JUNK_TOKENS))
        lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def fuzz_base(tmp_path_factory):
    """A small bipartite POSET file and its `peel --json` certificate."""
    root = tmp_path_factory.mktemp("fuzz")
    poset, cert = str(root / "base.poset"), str(root / "base.json")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen", "--type", "skfree:5,5,0.3,3", "--seed", "7",
                     "-o", poset]) == 0
        assert main(["peel", poset, "--k", "3", "--q", "2", "--threshold", "4",
                     "--seed", "1", "--json", cert]) == 0
    return root, open(poset).read(), json.loads(open(cert).read())


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_files_exit_0_or_1_with_one_json_error(fuzz_base, data):
    root, poset_text, payload = fuzz_base
    # the whole `peel --json` file, its certificate, or its bare realizer
    value = data.draw(st.sampled_from([
        payload, payload["certificate"], payload["certificate"]["realizer"]]))
    for _ in range(data.draw(st.integers(1, 3))):
        value = _mutate_json(data.draw, value)
    text = poset_text
    for _ in range(data.draw(st.integers(1, 3))):
        text = _mutate_poset(data.draw, text)
    (root / "bad.json").write_text(json.dumps(value))
    (root / "bad.poset").write_text(text)
    base, bad_json, bad = (str(root / name)
                           for name in ("base.poset", "bad.json", "bad.poset"))
    for argv in (["dim", base, "--verify", bad_json],
                 ["dim", bad, "--budget", "50"],
                 ["peel", bad, "--k", "3", "--q", "2", "--threshold", "4",
                  "--seed", "1"],
                 ["detect", bad, "--k", "3"]):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1), argv
        if code == 1:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1, (argv, lines)
            assert "error" in json.loads(lines[0]), (argv, lines)
