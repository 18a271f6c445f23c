"""The benchmark's four workloads: seeded inputs, one timed call, output checks.

Each workload has a ``setup(seed, workdir)`` that makes its inputs from
the workload seed alone, a ``call(inp)`` that is the one timed call into
a public posetdim function, and a ``check(inp, out)`` that judges the
output with code of its own (see checks.py) and returns an ``Outcome``.

Why these inputs:

- growth: the criterion-10 ladder (k=3, q=3, sizes 40..320, edge_prob
  None), one sample per size, one experiment seed per run.  A call
  takes several seconds, so a run repeats one seed instead of spreading
  a few calls over several.  Experiment seeds cost nothing to make, so
  set-up is one warm-up call on the smallest rung; that call runs the
  rejection sampler and the peel once before timing.
- exact: sparse random posets with n=52, p=0.10 and a 20,000-node
  budget.  About nine calls in ten spend the whole budget in the search
  and the rest settle in it.  At n=26..30, p=0.12 about a third of the
  calls exhausted the budget and most of the rest ended in milliseconds
  with no search, so the per-call median fell between the two groups
  and moved several-fold from seed to seed.
- general: S_3-free random posets with n=40, p=0.06, found by rejection.
- verify: one n=320 peel certificate per run, written in set-up and
  verified through the CLI entry point in-process.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

# Library functions are looked up on their modules at call time, so that
# the tracer's wrappers are what a traced run calls.
import posetdim as pd
from posetdim import cli
from posetdim.errors import BudgetExceeded
from posetdim.skfree import certificate_to_json_dict

import checks

K = 3
Q = 3
BASE_THRESHOLD = 12

GROWTH_SIZES = [40, 80, 160, 320]
GROWTH_SAMPLES = 1
GROWTH_POOL = 1

EXACT_N = 52
EXACT_P = 0.10
EXACT_BUDGET = 20_000
EXACT_POOL = 40

GENERAL_N = 40
GENERAL_P = 0.06
GENERAL_POOL = 12
GENERAL_MAX_DRAWS = 1000

VERIFY_HALF = 160  # |A| = |B|, so n = 320


@dataclass
class Outcome:
    """What the benchmark learned from one call's output."""

    problems: list[str]  # empty when every check passed
    bound: float  # the certified bound this call reports
    settled: bool | None  # exact only: optimality settled within budget
    material: bytes  # canonical bytes of the output, for the digest


def _canon(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def _orders(realizer) -> list[list[int]]:
    return [list(ext.order) for ext in realizer.extensions]


def _up_rows(p) -> list[int]:
    return [p.upset_mask(x) for x in range(p.n)]


# -- growth ---------------------------------------------------------------------


def _growth_check(sizes, samples, records) -> list[str]:
    problems = []
    if [rec.n for rec in records] != list(sizes):
        problems.append(f"record sizes {[rec.n for rec in records]} != {sizes}")
    for rec in records:
        if rec.samples + rec.failures != samples:
            problems.append(
                f"n={rec.n}: samples {rec.samples} + failures {rec.failures} "
                f"!= {samples}"
            )
        if not rec.samples or rec.max_bound < rec.mean_bound:
            problems.append(f"n={rec.n}: bad bound summary {rec}")
        if abs(rec.bound_over_n - rec.mean_bound / rec.n) > 1e-9:
            problems.append(f"n={rec.n}: bound_over_n disagrees with mean_bound")
    return problems


def growth_setup(seed: int, workdir: Path):
    warm_seed = pd.derive_seed(seed, 1_000_000)
    warm = pd.run_growth_experiment(K, GROWTH_SIZES[:1], 1, Q, None, warm_seed)
    problems = _growth_check(GROWTH_SIZES[:1], 1, warm)
    inputs = [pd.derive_seed(seed, i) for i in range(GROWTH_POOL)]
    return inputs, pd.growth_records_to_csv(warm).encode(), problems


def growth_call(exp_seed: int):
    return pd.run_growth_experiment(
        K, GROWTH_SIZES, GROWTH_SAMPLES, Q, None, exp_seed
    )


def growth_check(exp_seed: int, records) -> Outcome:
    problems = _growth_check(GROWTH_SIZES, GROWTH_SAMPLES, records)
    bound = sum(rec.mean_bound for rec in records) / len(records)
    csv = pd.growth_records_to_csv(records)
    return Outcome(problems, bound, None, csv.encode())


# -- exact -----------------------------------------------------------------------


def exact_setup(seed: int, workdir: Path):
    inputs = [pd.random_poset(EXACT_N, EXACT_P, pd.derive_seed(seed, i))
              for i in range(EXACT_POOL)]
    return inputs, _canon([pd.poset_to_text(p) for p in inputs]), []


def exact_call(p):
    try:
        return pd.exact_dimension(p, budget=EXACT_BUDGET)
    except BudgetExceeded as exc:
        # the documented way an unsettled search hands back its bound
        return exc.best


def exact_check(p, res) -> Outcome:
    problems = []
    if res.d != len(res.witness.extensions):
        problems.append(f"d={res.d} but witness has {len(res.witness)} members")
    problems += checks.realizer_problems(_up_rows(p), _orders(res.witness))
    material = _canon({"d": res.d, "optimal": res.optimal,
                       "orders": _orders(res.witness)})
    return Outcome(problems, float(res.d), bool(res.optimal), material)


# -- general ---------------------------------------------------------------------


def general_setup(seed: int, workdir: Path):
    inputs = []
    for i in range(GENERAL_POOL):
        draw_seed = pd.derive_seed(seed, i)
        for t in range(GENERAL_MAX_DRAWS):
            p = pd.random_poset(GENERAL_N, GENERAL_P, pd.derive_seed(draw_seed, t))
            if pd.find_standard_example(p, K) is None:
                inputs.append((p, pd.derive_seed(draw_seed, GENERAL_MAX_DRAWS)))
                break
        else:
            raise RuntimeError(
                f"no S_{K}-free poset in {GENERAL_MAX_DRAWS} draws (input {i})"
            )
    material = _canon([[pd.poset_to_text(p), s] for p, s in inputs])
    return inputs, material, []


def general_call(inp):
    p, peel_seed = inp
    return pd.general_upper_bound(p, K, Q, BASE_THRESHOLD, peel_seed)


def general_check(inp, res) -> Outcome:
    p, _ = inp
    cert = res.certificate
    problems = checks.certificate_problems(cert)
    if res.bound != cert.total_size:
        problems.append(f"bound {res.bound} != total_size {cert.total_size}")
    if len(res.realizer_for_p) != cert.total_size + res.cleanup_count:
        problems.append("realizer_for_p size is not total_size + cleanup")
    up = _up_rows(p)
    problems += checks.realizer_problems(
        checks.split_up_rows(up), _orders(cert.realizer), "certificate"
    )
    problems += checks.realizer_problems(
        up, _orders(res.realizer_for_p), "realizer_for_p"
    )
    material = _canon({
        "bound": res.bound,
        "cleanup": res.cleanup_count,
        "certificate": _orders(cert.realizer),
        "realizer_for_p": _orders(res.realizer_for_p),
    })
    return Outcome(problems, float(res.bound), None, material)


# -- verify ----------------------------------------------------------------------


def verify_setup(seed: int, workdir: Path):
    na = VERIFY_HALF
    bp = pd.random_skfree_bipartite(na, na, min(0.5, 1.5 / na), K,
                                    pd.derive_seed(seed, 0))
    cert = pd.peel_realizer(bp, K, Q, BASE_THRESHOLD, pd.derive_seed(seed, 1))
    problems = checks.certificate_problems(cert)
    problems += checks.realizer_problems(_up_rows(bp.poset),
                                         _orders(cert.realizer))
    poset_path = workdir / "verify.poset"
    cert_path = workdir / "verify.cert.json"
    poset_path.write_text(pd.poset_to_text(bp), encoding="utf-8")
    cert_path.write_text(
        json.dumps({"certificate": certificate_to_json_dict(cert)}),
        encoding="utf-8",
    )
    inputs = [(str(poset_path), str(cert_path), cert.total_size)]
    material = _canon({"poset": pd.poset_to_text(bp),
                       "total_size": cert.total_size,
                       "orders": _orders(cert.realizer)})
    return inputs, material, problems


def verify_call(inp):
    poset_path, cert_path, _ = inp
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["dim", poset_path, "--verify", cert_path])
    return code, out.getvalue(), err.getvalue()


def verify_check(inp, res) -> Outcome:
    _, _, total_size = inp
    code, out, err = res
    want = f"verified {total_size} extensions realize the poset\n"
    problems = []
    if code != 0 or out != want or err:
        problems.append(f"exit {code}, stdout {out!r}, stderr {err!r}")
    return Outcome(problems, float(total_size), None,
                   _canon({"code": code, "stdout": out}))


WORKLOADS = {
    "growth": (growth_setup, growth_call, growth_check),
    "exact": (exact_setup, exact_call, exact_check),
    "general": (general_setup, general_call, general_check),
    "verify": (verify_setup, verify_call, verify_check),
}
