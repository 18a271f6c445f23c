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
    exact_dimension,
    is_realizer,
    realizer_from_json_dict,
)
from .errors import BudgetExceeded, PosetDimError, VerificationFailed
from .experiments import (
    growth_records_to_csv,
    growth_records_to_json_dict,
    run_growth_experiment,
    run_prob_lemma_trials,
)
from .skfree import certificate_to_json_dict, peel_realizer

_DEFAULT_DIM_BUDGET = 1_000_000


def _underlying(obj):
    # loaders return a BipartitePoset when side lines are present
    return obj.poset if hasattr(obj, "poset") else obj


# -- gen ------------------------------------------------------------------------


def _parse_gen_type(text: str):
    kind, _, rest = text.partition(":")
    parts = rest.split(",") if rest else []
    try:
        if kind == "standard":
            (k,) = parts
            return ("standard", (int(k),), text)
        if kind == "random":
            n, p = parts
            return ("random", (int(n), float(p)), text)
        if kind == "bipartite":
            na, nb, p = parts
            return ("bipartite", (int(na), int(nb), float(p)), text)
        if kind == "skfree":
            na, nb, p, k = parts
            return ("skfree", (int(na), int(nb), float(p), int(k)), text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"bad type {text!r}; expected standard:<k> | random:<n>,<p> | "
        f"bipartite:<nA>,<nB>,<p> | skfree:<nA>,<nB>,<p>,<k>"
    )


def _cmd_gen(args) -> int:
    kind, params, type_text = args.type
    if kind == "standard":
        obj = standard_example_bipartite(*params)
    elif kind == "random":
        obj = random_poset(*params, seed=args.seed)
    elif kind == "bipartite":
        obj = random_bipartite(*params, seed=args.seed)
    else:
        obj = random_skfree_bipartite(*params, seed=args.seed)
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
        data = json.loads(Path(args.verify).read_text())
        # a CLI wrapper holds a certificate, and a certificate its realizer
        for key in ("certificate", "realizer"):
            if isinstance(data, dict) and key in data:
                data = data[key]
        n, realizer, _ = realizer_from_json_dict(data)
        if n != p.n:
            raise VerificationFailed(
                f"realizer is for n={n}, poset has n={p.n}", pair=None
            )
        ok, unreversed = is_realizer(p, realizer.extensions)
        if not ok:
            if not realizer.extensions:
                raise VerificationFailed("the realizer family is empty", pair=None)
            raise VerificationFailed(
                f"{len(unreversed)} critical pairs unreversed, first "
                f"{tuple(unreversed[0])}",
                pair=tuple(unreversed[0]),
            )
        print(f"verified {len(realizer.extensions)} extensions realize the poset")
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
        payload = {
            "seed": args.seed,
            "parameters": {
                "file": args.file,
                "k": args.k,
                "q": args.q,
                "threshold": args.threshold,
            },
            "tool_version": __version__,
            "certificate": certificate_to_json_dict(cert),
        }
        Path(args.json).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.json}")
    return 0


# -- split / detect ---------------------------------------------------------------


def _cmd_split(args) -> int:
    p = _underlying(load_poset(args.file))
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
        payload = {
            "seed": args.seed,
            "parameters": {
                "k": args.k,
                "sizes": args.sizes,
                "samples": args.samples,
                "q": args.q,
                "edge_prob": args.edge_prob,
            },
            "tool_version": __version__,
            "records": growth_records_to_json_dict(records),
        }
        Path(args.json).write_text(json.dumps(payload, indent=2) + "\n")
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
                   help="standard:<k> | random:<n>,<p> | "
                        "bipartite:<nA>,<nB>,<p> | skfree:<nA>,<nB>,<p>,<k>")
    g.add_argument("--seed", required=True, type=int)
    g.add_argument("-o", "--output", required=True)
    g.set_defaults(func=_cmd_gen)

    d = sub.add_parser("dim", help="compute or verify dimension")
    d.add_argument("file")
    group = d.add_mutually_exclusive_group()
    group.add_argument("--exact", action="store_true",
                       help="search without a node budget")
    group.add_argument("--budget", type=int, default=_DEFAULT_DIM_BUDGET,
                       help=f"search node budget (default "
                            f"{_DEFAULT_DIM_BUDGET})")
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
        json.dump(
            {"error": exc.name, "message": str(exc), **exc.payload()},
            sys.stderr,
        )
        sys.stderr.write("\n")
        return 1
    except (ValueError, IndexError) as exc:
        json.dump({"error": "ArgumentError", "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 1
    except OSError as exc:
        json.dump({"error": "IOError", "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
