"""Command-line front end.

    steiner-spectra <subcommand> [flags]

Subcommands: wendt, classify, hyperdet, spectrum, sweep, gp-check,
extremal.  --json (machine-readable output) is valid on every
subcommand; --seed (relabel checks) and --cache (JSON-lines result
cache) only on sweep.

Exit codes: 0 all pass, 2 a conjecture-falsifying witness was found,
1 error, including arguments the parser rejects.
"""

from __future__ import annotations

import argparse
import json
import sys

from .graphs import complete_graph, read_graph
from .harness import (
    ResultCache,
    extremal_radius,
    falsifying_witness,
    graham_pollak_check,
    report_json,
    sweep_trees,
)
from .hypermatrix import build_steiner_hypermatrix
from .resultant import hyperdet, hyperdet_route
from .spectra import NQZ_TOL, charpoly_D_dim2, nqz_spectral_radius, spectral_radius_K2
from .wendt import lehmer_vanishes, theorem1_vanishes, wendt


def _eigen_json(pairs) -> list:
    return [{"re": p.value.real, "im": p.value.imag, "multiplicity": p.multiplicity} for p in pairs]


def _cmd_wendt(args) -> int:
    value = wendt(args.m)
    if args.json:
        print(report_json({"m": args.m, "wendt": value, "vanishes": lehmer_vanishes(args.m)}))
    else:
        print(value)
    return 0


def _cmd_classify(args) -> int:
    # verdict is JSON either way; --json is a no-op here
    print(report_json(theorem1_vanishes(args.k, args.n).to_json_dict()))
    return 0


def _cmd_hyperdet(args) -> int:
    a = build_steiner_hypermatrix(read_graph(args.graph), args.k)
    route = hyperdet_route(a)
    value = hyperdet(a)
    if args.json:
        print(report_json({"k": args.k, "n": a.dim, "route": route, "value": value}))
    else:
        print(f"{value} (route: {route})")
    return 0


def _cmd_spectrum(args) -> int:
    g = read_graph(args.graph)
    # the closed form covers K2 only; every other graph gets the NQZ radius
    closed = g == complete_graph(2)
    out = {"k": args.k, "n": g.n, "method": "closed" if closed else "nqz"}
    if closed:
        out["eigenvalues"] = _eigen_json(charpoly_D_dim2(args.k))
        out["spectral_radius"] = spectral_radius_K2(args.k)
        out["enclosure"] = None
    else:
        enc = nqz_spectral_radius(build_steiner_hypermatrix(g, args.k), args.tol)
        out["eigenvalues"] = []
        out["spectral_radius"] = enc.value
        out["enclosure"] = enc.to_json_dict()
    print(report_json(out))
    return 0


def _cmd_sweep(args) -> int:
    if not (args.det or args.radius):
        raise ValueError("nothing to compute: pass --det and/or --radius")
    cache = ResultCache(args.cache) if args.cache else None
    report = sweep_trees(
        args.n,
        args.k,
        det=args.det,
        radius=args.radius,
        mode=args.mode,
        tol=args.tol,
        seed=args.seed,
        cache=cache,
    )
    witness = falsifying_witness(report)
    if args.json:
        sys.stdout.writelines(report.json_chunks(witness))
        print()
    else:
        print(f"sweep n={report.n} k={report.k} mode={report.mode}: {len(report.records)} records")
        for name, verdict in sorted(report.verdicts.items()):
            print(f"  {name}: {verdict}")
        if witness:
            print("falsifying witness:")
            print(report_json(witness))
    return 2 if witness else 0


def _cmd_gp_check(args) -> int:
    report = graham_pollak_check(args.n_max)
    if args.json:
        print(report_json(report))
    else:
        for row in report["per_n"]:
            status = "pass" if row["pass"] else "FAIL"
            print(f"n={row['n']}: {row['trees']} trees, expected {row['expected']}: {status}")
    return 0 if report["pass"] else 1


def _cmd_extremal(args) -> int:
    ranking = extremal_radius(args.n, args.k, scope=args.scope, tol=args.tol)
    if args.json:
        print(report_json(ranking))
    else:
        for e in ranking["entries"]:
            tag = " (path)" if e["is_path"] else ""
            print(f"{e['radius']['value']:.8f}  degrees {e['degree_sequence']}{tag}")
        print(f"top_is_path: {ranking['top_is_path']}")
    if not ranking["top_is_path"]:
        witness = {"verdict": "question2", "witness": [ranking["entries"][0]]}
        print(report_json(witness), file=sys.stderr)
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")

    parser = argparse.ArgumentParser(prog="steiner-spectra", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("wendt", parents=[common], help="binomial circulant determinant W_m")
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(fn=_cmd_wendt)

    p = sub.add_parser("classify", parents=[common], help="vanishing verdict for (k, n)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("hyperdet", parents=[common], help="exact hyperdeterminant of D_k(G)")
    p.add_argument("--graph", required=True, help="edge-list file")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(fn=_cmd_hyperdet)

    p = sub.add_parser("spectrum", parents=[common], help="eigenvalues / spectral radius")
    p.add_argument("--graph", required=True, help="edge-list file")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--tol", type=float, default=NQZ_TOL)
    p.set_defaults(fn=_cmd_spectrum)

    p = sub.add_parser("sweep", parents=[common], help="per-tree sweep with verdicts")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--det", action="store_true", help="compute hyperdeterminants")
    p.add_argument("--radius", action="store_true", help="compute NQZ spectral radii")
    p.add_argument("--mode", choices=["labeled", "unlabeled"], default="labeled")
    p.add_argument("--tol", type=float, default=NQZ_TOL)
    p.add_argument("--seed", type=int, default=0, help="seed for the relabel checks")
    p.add_argument("--cache", default=None, help="JSON-lines result cache path")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("gp-check", parents=[common], help="distance-determinant regression")
    p.add_argument("--n-max", type=int, required=True)
    p.set_defaults(fn=_cmd_gp_check)

    p = sub.add_parser("extremal", parents=[common], help="spectral-radius ranking")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--scope", choices=["trees", "connected-graphs"], default="trees")
    p.add_argument("--tol", type=float, default=NQZ_TOL)
    p.set_defaults(fn=_cmd_extremal)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 on --help
        return 1 if exc.code else 0
    try:
        return args.fn(args)
    except (ValueError, ArithmeticError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
