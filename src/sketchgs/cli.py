"""Command-line experiment runner.

Subcommands: qr-bench, gmres-bench, certify, sketch-info. The BLAS thread
count changes summation order, so pin it in the environment before launching
(see README) for reproducible runs.

Exit codes: 0 success, 2 configuration error, 3 numerical breakdown
(including non-finite input, binary32 overflow and a failed dense linear
algebra routine), 4 I/O failure.
"""

import argparse
import os
import sys

from numpy.linalg import LinAlgError

from .bench import (COMMAND_FIELDS, RunConfig, run_certify, run_gmres_bench,
                    run_qr_bench)
from .gram_schmidt import BreakdownError, GsVariant, NonFiniteError
from .io import write_report
from .sketch import (EmbeddingParams, SketchKind, required_sketch_dim,
                     vector_certificate_dim)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BREAKDOWN = 3
EXIT_IO = 4


def _parse_variants(text: str):
    # an ArgumentTypeError, unlike a ValueError, has argparse print its text
    out = []
    for name in filter(None, (part.strip() for part in text.split(","))):
        if name not in {variant.value for variant in GsVariant}:
            raise argparse.ArgumentTypeError(f"unknown variant {name!r}")
        if GsVariant(name) in out:
            raise argparse.ArgumentTypeError(f"variant {name!r} requested twice")
        out.append(GsVariant(name))
    if not out:
        raise argparse.ArgumentTypeError("no variants requested")
    return tuple(out)


# argparse keywords of each RunConfig field; the defaults come from RunConfig
_OPTIONS = {
    **{f: {"type": int} for f in ("n", "m", "k", "seed", "k_phi", "phi_seed")},
    **{f: {"type": float} for f in ("eps_star", "delta_star", "tol")},
    "sketch_kind": {"type": SketchKind, "metavar": "KIND",
                    "help": " | ".join(kind.value for kind in SketchKind)},
    "policy": {"choices": ["f32", "f64", "mixed"]},
    "variants": {"type": _parse_variants,
                 "help": "comma-separated: cgs,mgs,cgs2,rgs"},
    "matrix": {"help": "synthetic | PATH.mtx | laplacian:SIZE | "
                       "randsparse:N[:NNZ_PER_ROW]"},
    "precond": {"action": "store_true"},
}


def _add_settings(sp, fields) -> None:
    for field in fields:
        flag = "sketch" if field == "sketch_kind" else field.replace("_", "-")
        sp.add_argument(f"--{flag}", dest=field,
                        default=getattr(RunConfig, field), **_OPTIONS[field])


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="sketchgs",
                                description="Sketched Gram-Schmidt benchmarks")
    sub = p.add_subparsers(dest="subcommand", required=True)
    for command, text in (("qr-bench", "QR stability benchmark"),
                          ("gmres-bench", "GMRES benchmark"),
                          ("certify", "embedding certification sweep")):
        sp = sub.add_parser(command, help=text)
        _add_settings(sp, COMMAND_FIELDS[command])
        sp.add_argument("--out", required=True,
                        help="output CSV path (per-variant suffix added when "
                             "several variants run)")
        if command == "gmres-bench":
            sp.set_defaults(matrix="laplacian:100")

    si = sub.add_parser("sketch-info", help="print required sketch dimensions")
    _add_settings(si, ("n", "sketch_kind", "eps_star", "delta_star"))
    si.add_argument("--eps", type=float, default=0.5)
    si.add_argument("--delta", type=float, default=0.01)
    si.add_argument("--d", type=int, default=10)
    return p


def _out_path(base: str, variant: str, multi: bool) -> str:
    if not multi:
        return base
    root, ext = os.path.splitext(base)
    return f"{root}.{variant}{ext}"


def _run(args) -> int:
    if args.subcommand == "sketch-info":
        params = EmbeddingParams(args.eps, args.delta, args.d)
        k = required_sketch_dim(args.sketch_kind, params, n=args.n)
        k_phi = vector_certificate_dim(args.eps_star, args.delta_star)
        print(f"sketch {args.sketch_kind.value}: k >= {k} for "
              f"(eps={args.eps}, delta={args.delta}, d={args.d}, n={args.n})")
        print(f"certification sketch: k_phi >= {k_phi} for "
              f"(eps*={args.eps_star}, delta*={args.delta_star})")
        return EXIT_OK

    config = RunConfig(**{f: getattr(args, f)
                          for f in COMMAND_FIELDS[args.subcommand]})
    if args.subcommand == "qr-bench":
        reports = run_qr_bench(config)
        multi = len(reports) > 1
        for variant, report in reports.items():
            path = _out_path(args.out, variant, multi)
            write_report(report, path)
            print(f"{variant}: wrote {path}")
        return EXIT_OK
    if args.subcommand == "gmres-bench":
        results = run_gmres_bench(config)
        multi = len(results) > 1
        for variant, (report, result) in results.items():
            path = _out_path(args.out, variant, multi)
            write_report(report, path)
            converged = "n/a" if result.converged is None else result.converged
            print(f"{variant}: {result.iterations} iterations, final residual "
                  f"{result.final_residual:.3e}, converged={converged}, "
                  f"breakdown={result.breakdown}, wrote {path}")
        return EXIT_OK
    if args.subcommand == "certify":
        report = run_certify(config)
        write_report(report, args.out)
        last = report.rows[-1] if report.rows else {}
        print(f"rgs: omega={last.get('omega', float('nan')):.4f} "
              f"omega_bar={last.get('omega_bar', float('nan')):.4f}, "
              f"wrote {args.out}")
        return EXIT_OK
    raise AssertionError(f"unhandled subcommand {args.subcommand}")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return _run(args)
    # LinAlgError subclasses ValueError, so it must be caught first
    except (BreakdownError, NonFiniteError, LinAlgError) as exc:
        print(f"numerical breakdown: {exc}", file=sys.stderr)
        return EXIT_BREAKDOWN
    except (ValueError, TypeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
