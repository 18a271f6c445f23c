"""Command-line surface: generate, measure, peel, split, detect, experiment.

Exit codes: 0 success, 1 domain error (machine-readable JSON on
stderr), 2 usage error.  Every JSON file written embeds the seed, the
parameters, and the tool version needed to regenerate it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .core import (
    _check_text_n,
    bipartition,
    find_standard_example,
    kimble_split,
    load_poset,
    poset_to_text,
    random_bipartite,
    random_poset,
    random_skfree_bipartite,
    save_poset,
    standard_example_bipartite,
)
from .dimension import (
    DEFAULT_BUDGET,
    _fields,
    _parse_json,
    check_realizer,
    exact_dimension,
    realizer_from_json_dict,
)
from .errors import BudgetExceeded, PosetDimError, VerificationFailed
from .experiments import (
    growth_records_to_csv,
    growth_records_to_json_dict,
    run_growth_experiment,
    run_prob_lemma_trials,
)
from .skfree import (certificate_from_json_dict, certificate_to_json_dict,
                     check_certificate_parameters, peel_realizer)


def _underlying(obj):
    # loaders return a BipartitePoset when side lines are present
    return obj.poset if hasattr(obj, "poset") else obj


def _write_json(args, names, **body) -> None:
    """Write body to args.json after the provenance that regenerates it:
    the seed, the named arguments as "parameters", and the tool version."""
    payload = {
        "seed": args.seed,
        "parameters": {name: getattr(args, name) for name in names},
        "tool_version": __version__,
        **body,
    }
    Path(args.json).write_text(json.dumps(payload, indent=2) + "\n")


# -- gen ------------------------------------------------------------------------


# each --type: its builder, the types of its comma-separated parameters,
# their names in the usage text, and the ground size they give
_GEN_TYPES = {
    "standard": (lambda k, seed: standard_example_bipartite(k), (int,), "<k>",
                 lambda k: 2 * k),
    "random": (random_poset, (int, float), "<n>,<p>", lambda n, p: n),
    "bipartite": (random_bipartite, (int, int, float), "<nA>,<nB>,<p>",
                  lambda na, nb, p: na + nb),
    "skfree": (random_skfree_bipartite, (int, int, float, int),
               "<nA>,<nB>,<p>,<k>", lambda na, nb, p, k: na + nb),
}
_GEN_USAGE = " | ".join(f"{kind}:{spec[2]}" for kind, spec in _GEN_TYPES.items())


def _parse_gen_type(text: str):
    kind, _, rest = text.partition(":")
    build, types, _, size = _GEN_TYPES.get(kind, (None, (), "", None))
    parts = rest.split(",")
    if build is not None and len(parts) == len(types):
        try:
            params = tuple(t(x) for t, x in zip(types, parts))
        except ValueError:
            pass
        else:
            return build, params, text, size(*params)
    raise argparse.ArgumentTypeError(f"bad type {text!r}; expected {_GEN_USAGE}")


def _cmd_gen(args) -> int:
    build, params, type_text, n = args.type
    _check_text_n(n)  # before building: the writer would refuse the file
    obj = build(*params, seed=args.seed)
    header = (
        f"# posetdim v{__version__}\n"
        f"# gen --type {type_text} --seed {args.seed}\n"
    )
    Path(args.output).write_text(header + poset_to_text(obj))
    p = _underlying(obj)
    print(f"wrote {args.output}: n={p.n}, {p.relation_count()} relations")
    return 0


# -- dim ------------------------------------------------------------------------


def _cmd_dim(args) -> int:
    obj = load_poset(args.file)
    p = _underlying(obj)
    if args.verify:
        data = _parse_json(Path(args.verify).read_text())
        # a CLI wrapper holds a certificate under "certificate", and the k
        # and q its steps keep; a certificate is read whole, wrapped or
        # not, so its steps and totals are checked
        if isinstance(data, dict) and {"certificate", "steps", "realizer"} & data.keys():
            params = data.get("parameters")
            cert = certificate_from_json_dict(data.get("certificate", data))
            if isinstance(params, dict) and {"k", "q"} <= params.keys():
                check_certificate_parameters(
                    cert, *_fields(params, ("k", "q"), "certificate parameters"))
            n, realizer = cert.n, cert.realizer
        else:
            n, realizer, _ = realizer_from_json_dict(data)
        if n != p.n:
            raise VerificationFailed(f"realizer is for n={n}, poset has n={p.n}")
        check_realizer(p, realizer.orders, realizer.shared)
        print(f"verified {len(realizer)} extensions realize the poset")
        return 0
    budget = None if args.exact else args.budget
    try:
        res = exact_dimension(p, budget=budget)
    except BudgetExceeded as exc:
        res = exc.best
    print(f"dimension {res.d}")
    print(f"optimal {'true' if res.optimal else 'false'}")
    return 0


# -- peel -----------------------------------------------------------------------


def _cmd_peel(args) -> int:
    obj = load_poset(args.file)
    if not hasattr(obj, "poset"):
        raise ValueError(
            "peel needs a bipartite file with A:/B: side lines; "
            "run `split` first for a general poset"
        )
    cert = peel_realizer(
        obj, args.k, args.q, args.threshold, args.seed
    )
    print(f"steps {len(cert.steps)}")
    print(f"base_size {cert.base_size}")
    print(f"base_dimension {cert.base_dimension}")
    print(f"total_size {cert.total_size}")
    if args.json:
        _write_json(args, ("file", "k", "q", "threshold"),
                    certificate=certificate_to_json_dict(cert))
        print(f"wrote {args.json}")
    return 0


# -- split / detect ---------------------------------------------------------------


def _cmd_split(args) -> int:
    p = _underlying(load_poset(args.file))
    _check_text_n(2 * p.n)  # before building: the writer would refuse the file
    bp = bipartition(kimble_split(p))
    save_poset(args.output, bp)
    print(f"wrote {args.output}: n={bp.poset.n}, "
          f"{bp.poset.relation_count()} relations")
    return 0


def _cmd_detect(args) -> int:
    p = _underlying(load_poset(args.file))
    emb = find_standard_example(p, args.k)
    if emb is None:
        print("none")
    else:
        print("a: " + " ".join(str(x) for x in emb.a_elems))
        print("b: " + " ".join(str(x) for x in emb.b_elems))
    return 0


# -- prob-lemma / experiment -------------------------------------------------------


def _cmd_prob_lemma(args) -> int:
    freq, bound = run_prob_lemma_trials(
        args.t, args.q, args.r, args.trials, args.seed
    )
    print(f"empirical {freq:.6g}")
    print(f"analytic {bound:.6g}")
    print(f"trials {args.trials} seed {args.seed}")
    return 0


def _parse_sizes(text: str) -> list[int]:
    try:
        sizes = [int(x) for x in text.split(",") if x]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad sizes {text!r}")
    if not sizes:
        raise argparse.ArgumentTypeError("sizes must be non-empty")
    return sizes


def _cmd_experiment(args) -> int:
    records = run_growth_experiment(
        args.k, args.sizes, args.samples, args.q, args.edge_prob, args.seed
    )
    csv_text = growth_records_to_csv(records)
    sys.stdout.write(csv_text)
    if args.csv:
        Path(args.csv).write_text(csv_text)
    if args.json:
        _write_json(args, ("k", "sizes", "samples", "q", "edge_prob"),
                    records=growth_records_to_json_dict(records))
    return 0


# -- parser ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="posetdim",
        description="Order-dimension toolkit: exact solves, peeled "
        "realizers, splits, and growth experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a poset file")
    g.add_argument("--type", required=True, type=_parse_gen_type,
                   help=_GEN_USAGE)
    g.add_argument("--seed", required=True, type=int)
    g.add_argument("-o", "--output", required=True)
    g.set_defaults(func=_cmd_gen)

    d = sub.add_parser("dim", help="compute or verify dimension")
    d.add_argument("file")
    group = d.add_mutually_exclusive_group()
    group.add_argument("--exact", action="store_true",
                       help="search without a node budget")
    group.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                       help=f"search node budget (default {DEFAULT_BUDGET})")
    d.add_argument("--verify", metavar="REALIZER_JSON",
                   help="verify a realizer/certificate JSON instead")
    d.set_defaults(func=_cmd_dim)

    pe = sub.add_parser("peel", help="peel a bipartite poset to a certificate")
    pe.add_argument("file")
    pe.add_argument("--k", required=True, type=int)
    pe.add_argument("--q", required=True, type=int)
    pe.add_argument("--threshold", required=True, type=int)
    pe.add_argument("--seed", required=True, type=int)
    pe.add_argument("--json", metavar="OUT")
    pe.set_defaults(func=_cmd_peel)

    sp = sub.add_parser("split", help="write the doubled bipartite poset")
    sp.add_argument("file")
    sp.add_argument("-o", "--output", required=True)
    sp.set_defaults(func=_cmd_split)

    de = sub.add_parser("detect", help="find an induced standard example")
    de.add_argument("file")
    de.add_argument("--k", required=True, type=int)
    de.set_defaults(func=_cmd_detect)

    pl = sub.add_parser("prob-lemma", help="Monte Carlo the matrix event")
    pl.add_argument("--t", required=True, type=int)
    pl.add_argument("--q", required=True, type=int)
    pl.add_argument("--r", required=True, type=int)
    pl.add_argument("--trials", required=True, type=int)
    pl.add_argument("--seed", required=True, type=int)
    pl.set_defaults(func=_cmd_prob_lemma)

    ex = sub.add_parser("experiment", help="reproducible experiment runs")
    exsub = ex.add_subparsers(dest="experiment", required=True)
    gr = exsub.add_parser("growth", help="bound growth against ground size")
    gr.add_argument("--k", required=True, type=int)
    gr.add_argument("--sizes", required=True, type=_parse_sizes)
    gr.add_argument("--samples", required=True, type=int)
    gr.add_argument("--q", required=True, type=int)
    gr.add_argument("--seed", required=True, type=int)
    gr.add_argument("--edge-prob", type=float, default=None)
    gr.add_argument("--csv", metavar="OUT")
    gr.add_argument("--json", metavar="OUT")
    gr.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PosetDimError as exc:
        report = {"error": type(exc).__name__, "message": str(exc), **exc.payload()}
    except (ValueError, IndexError) as exc:
        report = {"error": "ArgumentError", "message": str(exc)}
    except OSError as exc:
        report = {"error": "IOError", "message": str(exc)}
    sys.stderr.write(json.dumps(report) + "\n")
    return 1


if __name__ == "__main__":
    sys.exit(main())
