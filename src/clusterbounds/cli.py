"""Command-line front end.

Subcommands: build, census, threshold, ft-extend, badprob, fit.
Exit codes: 0 success, 2 validation error, 3 resource-cap abort.
Outputs embed the semantic run configuration and the tool version;
execution details like worker count or output paths are not embedded,
so reruns of the same computation are byte-identical.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .bounds import (
    MODELS,
    ChannelParams,
    CodeParams,
    bad_probability_bound_css,
    bad_probability_bound_depol,
    bad_probability_bound_ft,
    exact_bad_probability_css,
    exact_bad_probability_depol,
    exact_bad_probability_ft,
    solve_threshold,
    with_rate,
)
from .clusters import DEFAULT_CLUSTER_CAP, brute_force_census, census_bound, enumerate_clusters
from .codes import ft_extend, hypergraph_product, new_css, new_stabilizer, toric_code
from .errors import ResourceCapError, ValidationError
from .fitting import fit_log_growth
from .matio import (
    dump_json,
    format_float,
    read_census_csv,
    read_matrix,
    write_alist,
    write_csv,
)

def _add_code_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "kind", choices=["toric", "hgp", "css", "stabilizer"], help="code family or source"
    )
    sub.add_argument("--L", type=int, help="toric lattice size")
    sub.add_argument("--h1", help="first parity-check matrix file (hgp)")
    sub.add_argument("--h2", help="second parity-check matrix file (hgp)")
    sub.add_argument("--gx", help="X-type generator matrix file (css)")
    sub.add_argument("--gz", help="Z-type generator matrix file (css)")
    sub.add_argument("--g", help="symplectic generator matrix file (stabilizer)")
    sub.add_argument("--d", type=int, help="known distance, if any")
    sub.add_argument(
        "--format", default="auto", choices=["auto", "alist", "dense"], help="matrix file format"
    )


def _make_code(args):
    if args.kind == "toric":
        if args.L is None:
            raise ValidationError("toric code needs --L")
        return toric_code(args.L), f"toric(L={args.L})"
    if args.kind == "hgp":
        if not args.h1 or not args.h2:
            raise ValidationError("hypergraph product needs --h1 and --h2")
        h1 = read_matrix(args.h1, args.format)
        h2 = read_matrix(args.h2, args.format)
        code = hypergraph_product(h1, h2)
        return code, f"hgp(h1={os.path.basename(args.h1)},h2={os.path.basename(args.h2)})"
    if args.kind == "css":
        if not args.gx or not args.gz:
            raise ValidationError("css code needs --gx and --gz")
        gx = read_matrix(args.gx, args.format)
        gz = read_matrix(args.gz, args.format)
        code = new_css(gx, gz, d=args.d)
        return code, f"css(gx={os.path.basename(args.gx)},gz={os.path.basename(args.gz)})"
    if not args.g:
        raise ValidationError("stabilizer code needs --g")
    g = read_matrix(args.g, args.format)
    code = new_stabilizer(g, d=args.d)
    return code, f"stabilizer(g={os.path.basename(args.g)})"


def _cmd_build(args) -> int:
    code, desc = _make_code(args)
    print(f"code: {desc}")
    if hasattr(code, "G_X"):
        print(f"n={code.n} k={code.k} d={code.d if code.d is not None else '?'}")
        print(f"w_X={code.w_X} w_Z={code.w_Z}")
        print(f"rank(G_X)={code.G_X.rank()} rank(G_Z)={code.G_Z.rank()}")
        print("orthogonality: pass")
    else:
        print(f"n={code.n} k={code.k} d={code.d if code.d is not None else '?'}")
        print(f"w={code.w} rank(G)={code.G.rank()}")
        print("commutativity: pass")
    return 0


def _sector_code(args, code, desc):
    sector = args.sector
    if sector in ("ft-x", "ft-z"):
        if args.rounds is None:
            raise ValidationError("space-time census needs --rounds")
        ft = ft_extend(code, args.rounds, errors=sector[-1])
        return ft, "ft", f"{desc}|rounds={args.rounds},errors={sector[-1]}"
    return code, sector, desc


def _cmd_census(args) -> int:
    code, desc = _make_code(args)
    target, sector, desc = _sector_code(args, code, desc)
    census = enumerate_clusters(
        target,
        args.m_max,
        sector=sector,
        workers=args.workers,
        max_stored=args.max_stored,
    )
    config = {
        "command": "census",
        "code": desc,
        "sector": args.sector,
        "m_max": args.m_max,
    }
    header = ["m", "distinct", "irreducible", "irreducible_nonstabilizer", "paths", "bound"]
    rows = []
    oracle = None
    if args.oracle:
        oracle = brute_force_census(target, args.m_max, sector=sector)
        if not census.same_counts(oracle):
            print("oracle mismatch: recursive and brute-force censuses differ", file=sys.stderr)
            for m in census.weights():
                for field, vals in census.count_fields().items():
                    if vals[m] != oracle.count_fields()[field][m]:
                        print(
                            f"  m={m} {field}: recursive={vals[m]}"
                            f" brute={oracle.count_fields()[field][m]}",
                            file=sys.stderr,
                        )
            return 1
        config["oracle"] = "pass"
        header += ["distinct_oracle", "paths_oracle"]
    for row in census.row_dicts():
        m = row["m"]
        out = [m, row["distinct"], row["irreducible"], row["irreducible_nonstabilizer"],
               row["paths"], census_bound(target, sector, m)]
        if oracle is not None:
            out += [oracle.distinct[m], oracle.paths[m]]
        rows.append(out)
    text = write_csv(args.output, header, rows, config)
    if not args.output:
        sys.stdout.write(text)
    return 0


def _channel_from(args) -> ChannelParams:
    return ChannelParams(y=args.y, p=args.p, p_X=args.pX, p_Z=args.pZ, q=args.q)


def _cmd_threshold(args) -> int:
    D = float("inf") if str(args.D).lower() in ("inf", "infinity") else float(args.D)
    code = CodeParams(w=args.w, w_X=args.wx, w_Z=args.wz, D=D)
    fixed = _channel_from(args)
    config = {
        "command": "threshold",
        "model": args.model,
        "w": args.w,
        "w_X": args.wx,
        "w_Z": args.wz,
        "D": args.D,
    }
    if args.curve:
        try:
            a_name, b_name = args.curve.split(":")
        except ValueError:
            raise ValidationError("curve spec must look like y:p")
        for name in (a_name, b_name):
            with_rate(fixed, name, 0.0, args.model)  # rejects an unknown name
        a_max = solve_threshold(code, a_name, fixed, model=args.model)
        rows = []
        for i in range(args.points):
            a = a_max * i / (args.points - 1) if args.points > 1 else 0.0
            fixed_a = with_rate(fixed, a_name, a, args.model)
            try:
                b = solve_threshold(code, b_name, fixed_a, model=args.model)
            except ValidationError:
                b = 0.0
            rows.append([a, b])
        config["curve"] = args.curve
        text = write_csv(args.output, [a_name, b_name], rows, config)
        if not args.output:
            sys.stdout.write(text)
        return 0
    if not args.solve:
        raise ValidationError("need --solve PARAM or --curve A:B")
    value = solve_threshold(code, args.solve, fixed, model=args.model)
    print(f"{args.solve} = {value:.9f}")
    if args.output:
        config["solve"] = args.solve
        payload = {"result": {args.solve: value}}
        with open(args.output, "w") as fh:
            fh.write(dump_json(payload, config))
    return 0


def _cmd_ft_extend(args) -> int:
    code, desc = _make_code(args)
    ft = ft_extend(code, args.rounds, errors=args.sector)
    ok = (ft.P @ ft.Q.transpose()).is_zero()
    print(f"code: {desc} rounds={args.rounds} errors={args.sector}")
    print(f"N={ft.N} K={ft.K} D_ft={ft.D_ft if ft.D_ft is not None else '?'}")
    print(f"max row weight of P: {ft.w}")
    print(f"P Q^T = 0: {'pass' if ok else 'FAIL'}")
    if args.output:
        with open(args.output + ".p.alist", "w") as fh:
            fh.write(write_alist(ft.P))
        with open(args.output + ".q.alist", "w") as fh:
            fh.write(write_alist(ft.Q))
        print(f"wrote {args.output}.p.alist and {args.output}.q.alist")
    return 0 if ok else 1


def _cmd_badprob(args) -> int:
    config = {
        "command": "badprob",
        "kind": args.kind,
        "m_max": args.m_max,
        "y": args.y,
        "p": args.p,
        "q": args.q,
    }
    rows = []
    if args.kind == "css":
        header = ["m", "exact", "bound"]
        for m in range(1, args.m_max + 1):
            rows.append(
                [m, exact_bad_probability_css(m, args.y, args.p),
                 bad_probability_bound_css(m, args.y, args.p)]
            )
    elif args.kind == "depol":
        header = ["m", "exact", "bound"]
        for m in range(1, args.m_max + 1):
            rows.append(
                [m, exact_bad_probability_depol(m, args.y, args.p),
                 bad_probability_bound_depol(m, args.y, args.p)]
            )
    else:
        header = ["m", "m_q", "exact", "bound"]
        for m in range(1, args.m_max + 1):
            for m_q in range(m + 1):
                rows.append(
                    [m, m_q, exact_bad_probability_ft(m, m_q, args.p, args.q),
                     bad_probability_bound_ft(m, m_q, args.p, args.q)]
                )
    text = write_csv(args.output, header, rows, config)
    if not args.output:
        sys.stdout.write(text)
    return 0


def _cmd_fit(args) -> int:
    fields = read_census_csv(args.census)
    if args.field not in fields:
        raise ValidationError(f"census file has no column {args.field!r}")
    result = fit_log_growth(
        fields[args.field], m_range=(args.m_min, args.m_max) if args.m_max else None
    )
    print(f"slope = {format_float(result.slope)}")
    print(f"growth_base = {format_float(result.growth_base)}")
    print(f"intercept = {format_float(result.intercept)}")
    if args.output:
        config = {
            "command": "fit",
            "field": args.field,
            "m_min": args.m_min,
            "m_max": args.m_max,
        }
        payload = {
            "result": {
                "intercept": result.intercept,
                "slope": result.slope,
                "growth_base": result.growth_base,
                "rss": result.rss,
                "weights": list(result.weights),
            }
        }
        with open(args.output, "w") as fh:
            fh.write(dump_json(payload, config))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clusterbounds",
        description="Cluster censuses and threshold bounds for weight-limited quantum codes",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    b = subs.add_parser("build", help="construct or parse a code and print its parameters")
    _add_code_args(b)
    b.set_defaults(func=_cmd_build)

    c = subs.add_parser("census", help="enumerate undetectable clusters and write a CSV census")
    _add_code_args(c)
    c.add_argument("--sector", default="full", choices=["full", "x", "z", "ft-x", "ft-z"])
    c.add_argument("--rounds", type=int, help="measurement rounds for ft-* sectors")
    c.add_argument("--m-max", type=int, required=True, dest="m_max")
    c.add_argument("--workers", type=int, default=1)
    c.add_argument(
        "--max-stored",
        type=int,
        default=DEFAULT_CLUSTER_CAP,
        dest="max_stored",
        help=(
            "cap on the census's distinct clusters; it also bounds the search's "
            "frontier of partial clusters, and each worker process, which "
            "searches its share of that frontier, holds up to this many clusters"
        ),
    )
    c.add_argument("--oracle", action="store_true", help="cross-check against brute force")
    c.add_argument("-o", "--output", help="CSV output path (stdout if omitted)")
    c.set_defaults(func=_cmd_census)

    t = subs.add_parser("threshold", help="solve or sweep decodability conditions")
    t.add_argument("--model", default="css", choices=MODELS)
    t.add_argument("--w", type=int)
    t.add_argument("--wx", type=int)
    t.add_argument("--wz", type=int)
    t.add_argument("--D", default="inf", help="distance growth constant, or 'inf'")
    t.add_argument("--y", type=float, default=0.0)
    t.add_argument("--p", type=float, default=0.0)
    t.add_argument("--pX", type=float, default=0.0)
    t.add_argument("--pZ", type=float, default=0.0)
    t.add_argument("--q", type=float, default=0.0)
    t.add_argument("--solve", choices=["y", "p", "pX", "pZ", "q"])
    t.add_argument("--curve", help="sweep spec A:B, e.g. y:p")
    t.add_argument("--points", type=int, default=21)
    t.add_argument("-o", "--output")
    t.set_defaults(func=_cmd_threshold)

    f = subs.add_parser("ft-extend", help="build the combined space-time code and write alist files")
    _add_code_args(f)
    f.add_argument("--sector", default="x", choices=["x", "z"], help="tracked error type")
    f.add_argument("--rounds", type=int, required=True)
    f.add_argument("-o", "--output", help="output path prefix")
    f.set_defaults(func=_cmd_ft_extend)

    p = subs.add_parser("badprob", help="exact bad-error sums next to their closed-form bounds")
    p.add_argument("--kind", default="css", choices=["css", "depol", "ft"])
    p.add_argument("--m-max", type=int, default=8, dest="m_max")
    p.add_argument("--y", type=float, default=0.0)
    p.add_argument("--p", type=float, default=0.0)
    p.add_argument("--q", type=float, default=0.0)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_badprob)

    g = subs.add_parser("fit", help="fit exponential growth to a census CSV")
    g.add_argument("census", help="census CSV produced by the census subcommand")
    g.add_argument("--field", default="irreducible")
    g.add_argument("--m-min", type=int, default=1, dest="m_min")
    g.add_argument("--m-max", type=int, default=0, dest="m_max", help="0 means no upper cut")
    g.add_argument("-o", "--output", help="JSON output path")
    g.set_defaults(func=_cmd_fit)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
