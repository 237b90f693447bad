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
from dataclasses import asdict

from . import __version__
from .bounds import (
    MODELS,
    RATES,
    ChannelParams,
    CodeParams,
    bad_probability_bound_css,
    bad_probability_bound_depol,
    bad_probability_bound_ft,
    exact_bad_probability_css,
    exact_bad_probability_depol,
    exact_bad_probability_ft,
    model_fields,
    rate_fields,
    solve_threshold,
    threshold_curve,
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
    write_text,
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


# the code flags each code kind reads
_CODE_FLAGS = {
    "toric": ("L",),
    "hgp": ("h1", "h2"),
    "css": ("gx", "gz", "d"),
    "stabilizer": ("g", "d"),
}


def _reject_flags(args, names, context: str) -> None:
    """Refuse the first of the named flags that was given: context does
    not read it."""
    for name in names:
        if getattr(args, name) is not None:
            raise ValidationError(f"--{name} does not apply to {context}")


def _make_code(args):
    read = _CODE_FLAGS[args.kind]
    _reject_flags(
        args,
        [name for flags in _CODE_FLAGS.values() for name in flags if name not in read],
        f"{args.kind} codes",
    )
    if args.kind == "toric":
        if args.L is None:
            raise ValidationError("toric code needs --L")
        return toric_code(args.L), f"toric(L={args.L})"
    names = [name for name in read if name != "d"]
    paths = [getattr(args, name) for name in names]
    if not all(paths):
        raise ValidationError(f"{args.kind} code needs " + " and ".join(f"--{n}" for n in names))
    matrices = [read_matrix(path) for path in paths]
    if args.kind == "hgp":
        code = hypergraph_product(*matrices)
    elif args.kind == "css":
        code = new_css(*matrices, d=args.d)
    else:
        code = new_stabilizer(*matrices, d=args.d)
    files = ",".join(f"{name}={os.path.basename(path)}" for name, path in zip(names, paths))
    return code, f"{args.kind}({files})"


def _emit(path, text: str) -> None:
    """Print text that was not written to a file."""
    if not path:
        sys.stdout.write(text)


def _cmd_build(args) -> int:
    code, desc = _make_code(args)
    print(f"code: {desc}")
    print(f"n={code.n} k={code.k} d={code.d if code.d is not None else '?'}")
    if hasattr(code, "G_X"):
        print(f"w_X={code.w_X} w_Z={code.w_Z}")
        print(f"rank(G_X)={code.G_X.rank()} rank(G_Z)={code.G_Z.rank()}")
        print("orthogonality: pass")
    else:
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
    _reject_flags(args, ["rounds"], f"the {sector} sector")
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
    fields = census.count_fields()
    header = ["m", *fields, "bound"]
    oracle = None
    if args.oracle:
        oracle = brute_force_census(target, args.m_max, sector=sector)
        if not census.same_counts(oracle):
            print("oracle mismatch: recursive and brute-force censuses differ", file=sys.stderr)
            expected = oracle.count_fields()
            for m in census.weights():
                for field, vals in fields.items():
                    if vals[m] != expected[field][m]:
                        print(
                            f"  m={m} {field}: recursive={vals[m]} brute={expected[field][m]}",
                            file=sys.stderr,
                        )
            return 1
        config["oracle"] = "pass"
        header += ["distinct_oracle", "paths_oracle"]
    rows = []
    for m in census.weights():
        if census.distinct[m] == 0:
            continue
        row = [m, *(vals[m] for vals in fields.values()), census_bound(target, sector, m)]
        if oracle is not None:
            row += [oracle.distinct[m], oracle.paths[m]]
        rows.append(row)
    _emit(args.output, write_csv(args.output, header, rows, config))
    return 0


def _cmd_threshold(args) -> int:
    try:
        D = float(args.D)
    except ValueError:
        raise ValidationError(f"--D must be a number or inf, got {args.D!r}")
    if args.curve:
        _reject_flags(args, ["solve"], "--curve")
        try:
            a_name, b_name = args.curve.split(":")
        except ValueError:
            raise ValidationError("curve spec must look like y:p")
        free, task = (a_name, b_name), f"--curve {args.curve}"
    elif args.solve:
        _reject_flags(args, ["points"], "--solve")
        free, task = (args.solve,), f"--solve {args.solve}"
    else:
        raise ValidationError("need --solve PARAM or --curve A:B")
    # a fixed rate is unread when the model ignores its field or a free
    # rate sets it; a CSS model reads w only in place of --wx or --wz
    unread = set(RATES.values()) - set(model_fields(args.model))
    unread.update(f for name in free if name in RATES for f in rate_fields(name, args.model))
    ignored = [name for name, field in RATES.items() if field in unread]
    if not args.model.endswith("css"):
        ignored += ["wx", "wz"]
    elif args.wx is not None and args.wz is not None:
        ignored.append("w")
    _reject_flags(args, ignored, f"threshold --model {args.model} {task}")
    code = CodeParams(w=args.w, w_X=args.wx, w_Z=args.wz, D=D)
    given = {name: getattr(args, name) for name in RATES if getattr(args, name) is not None}
    fixed = ChannelParams(**{RATES[name]: rate for name, rate in given.items()})
    config = {
        "command": "threshold",
        "model": args.model,
        "w": args.w,
        "w_X": args.wx,
        "w_Z": args.wz,
        # one text per distance constant, whatever its spelling: the
        # parsed float's shortest repr, less a trailing ".0" (CodeParams
        # refuses -inf)
        "D": repr(D).removesuffix(".0"),
        **given,
    }
    if args.curve:
        points = 21 if args.points is None else args.points
        rows = threshold_curve(code, a_name, b_name, fixed, args.model, points)
        config.update(curve=args.curve, points=points)
        _emit(args.output, write_csv(args.output, [a_name, b_name], rows, config))
        return 0
    value = solve_threshold(code, args.solve, fixed, model=args.model)
    print(f"{args.solve} = {value:.9f}")
    if args.output:
        config["solve"] = args.solve
        write_text(args.output, dump_json({"result": {args.solve: value}}, config))
    return 0


def _cmd_ft_extend(args) -> int:
    code, desc = _make_code(args)
    ft = ft_extend(code, args.rounds, errors=args.sector)
    ok = ft.P.first_odd_pair(ft.Q) is None
    print(f"code: {desc} rounds={args.rounds} errors={args.sector}")
    print(f"N={ft.N} K={ft.K} D_ft={ft.D_ft if ft.D_ft is not None else '?'}")
    print(f"max row weight of P: {ft.w}")
    print(f"P Q^T = 0: {'pass' if ok else 'FAIL'}")
    if args.output:
        write_text(args.output + ".p.alist", write_alist(ft.P))
        write_text(args.output + ".q.alist", write_alist(ft.Q))
        print(f"wrote {args.output}.p.alist and {args.output}.q.alist")
    return 0 if ok else 1


def _cmd_badprob(args) -> int:
    if args.m_max < 1:
        raise ValidationError("m_max must be at least 1")
    _reject_flags(args, ["y"] if args.kind == "ft" else ["q"], f"badprob --kind {args.kind}")
    y, p, q = (0.0 if rate is None else rate for rate in (args.y, args.p, args.q))
    config = {
        "command": "badprob",
        "kind": args.kind,
        "m_max": args.m_max,
        "y": y,
        "p": p,
        "q": q,
    }
    if args.kind == "ft":
        header = ["m", "m_q", "exact", "bound"]
        rows = [
            [m, m_q, exact_bad_probability_ft(m, m_q, p, q),
             bad_probability_bound_ft(m, m_q, p, q)]
            for m in range(1, args.m_max + 1)
            for m_q in range(m + 1)
        ]
    else:
        # looked up per call, so wrappers installed on these names apply
        exact, bound = {
            "css": (exact_bad_probability_css, bad_probability_bound_css),
            "depol": (exact_bad_probability_depol, bad_probability_bound_depol),
        }[args.kind]
        header = ["m", "exact", "bound"]
        rows = [
            [m, exact(m, y, p), bound(m, y, p)]
            for m in range(1, args.m_max + 1)
        ]
    _emit(args.output, write_csv(args.output, header, rows, config))
    return 0


def _cmd_fit(args) -> int:
    fields = read_census_csv(args.census)
    if args.field not in fields:
        raise ValidationError(f"census file has no column {args.field!r}")
    counts = fields[args.field]
    result = fit_log_growth(counts, (args.m_min, args.m_max or max(counts, default=args.m_min)))
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
        write_text(args.output, dump_json({"result": asdict(result)}, config))
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
            "frontier of partial clusters, which is dealt into one share per "
            "worker, and the search of each share holds up to this many clusters "
            "and this many syndromes in each of its three completion tables"
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
    for name in RATES:
        t.add_argument(f"--{name}", type=float, help="fixed rate (default 0)")
    t.add_argument("--solve", choices=list(RATES))
    t.add_argument("--curve", help="sweep spec A:B, e.g. y:p")
    t.add_argument("--points", type=int, help="curve points (default 21)")
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
    p.add_argument("--y", type=float, help="erasure rate, css and depol only (default 0)")
    p.add_argument("--p", type=float, help="flip rate (default 0)")
    p.add_argument("--q", type=float, help="syndrome flip rate, ft only (default 0)")
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
