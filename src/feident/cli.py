"""Command-line front end: exact tables and identity verification.

Three commands:

    table  fe-numbers|fe-polynomials|fe-higher|stirling|bernoulli
    verify <identity-id> [params] [--variant as-printed|corrected]
    audit  [--grid FILE]

Tables default to CSV, verification and audits to JSON.  Rationals are
always serialized as "p/q" strings, never as floating point.  Exit status
is 0 when every verdict passes, 1 when any verification fails, and 2 on
usage or parameter errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from .exact import format_rational, parse_rational
from .frobenius import bernoulli_number, fe_higher_numbers, fe_number, fe_polynomial
from .stirling import triangle_recurrence
from .verify import (
    DEFAULT_GRID,
    IDENTITIES,
    audit_all,
    audit_document,
    verify_bernoulli_product,
    verify_carlitz,
    verify_carlitz_reciprocal,
    verify_corollary2,
    verify_corollary4,
    verify_corollary5,
    verify_product_multinomial,
    verify_theorem1,
    verify_theorem3,
)

__all__ = ["main", "run"]

_RUNNERS = {
    "theorem1": verify_theorem1,
    "corollary2": verify_corollary2,
    "theorem3": verify_theorem3,
    "corollary4": verify_corollary4,
    "corollary5": verify_corollary5,
    "eq60_multinomial": verify_product_multinomial,
    "carlitz_product": verify_carlitz,
    "carlitz_reciprocal": verify_carlitz_reciprocal,
    "bernoulli_product": verify_bernoulli_product,
}

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

_TABLE_SUBJECTS = ("fe-numbers", "fe-polynomials", "fe-higher", "stirling", "bernoulli")

_CLI_VARIANTS = {"as-printed": "as_printed", "corrected": "corrected"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="feident",
        description="Exact Frobenius-Euler tables and identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    table = sub.add_parser("table", help="emit a number, polynomial, or triangle table")
    table.add_argument("subject", choices=_TABLE_SUBJECTS)
    table.add_argument("--u", type=parse_rational, help="rational parameter u as p/q")
    table.add_argument("--N", type=int, help="order for fe-higher")
    table.add_argument("--n-max", type=int, required=True, help="largest index, inclusive")
    table.add_argument("--format", choices=("csv", "json"), default="csv")
    table.add_argument("--out", help="write output to this path instead of stdout")

    verify = sub.add_parser("verify", help="verify one identity at given parameters")
    verify.add_argument("identity", choices=IDENTITIES)
    verify.add_argument("--n", type=int)
    verify.add_argument("--N", type=int)
    verify.add_argument("--m", type=int)
    verify.add_argument("--u", type=parse_rational)
    verify.add_argument("--alpha", type=parse_rational)
    verify.add_argument("--beta", type=parse_rational)
    verify.add_argument("--x", type=parse_rational)
    verify.add_argument("--trunc", type=int, default=16, help="series truncation order")
    verify.add_argument("--variant", choices=sorted(_CLI_VARIANTS))
    verify.add_argument("--format", choices=("csv", "json"), default="json")
    verify.add_argument("--out", help="write output to this path instead of stdout")

    audit = sub.add_parser("audit", help="run the full verification grid")
    audit.add_argument("--grid", help="JSON grid file (defaults to the built-in grid)")
    audit.add_argument("--format", choices=("csv", "json"), default="json")
    audit.add_argument("--out", help="write output to this path instead of stdout")

    return parser


def _require(args, names):
    for name in names:
        if getattr(args, name) is None:
            raise ValueError(f"identity {args.identity!r} requires --{name}")


def _verify_kwargs(args) -> dict:
    """Map parsed flags to the checker's keyword arguments."""
    identity = args.identity
    variant = None
    if args.variant is not None:
        variant = _CLI_VARIANTS[args.variant]
    needs_variant = identity in (
        "theorem1",
        "corollary2",
        "theorem3",
        "corollary4",
        "corollary5",
        "carlitz_product",
    )
    if not needs_variant and variant is not None:
        raise ValueError(f"identity {identity!r} has no as-printed/corrected variant")
    if needs_variant and variant is None:
        variant = "corrected"

    if identity == "theorem1":
        _require(args, ("N", "u"))
        return {"N": args.N, "u": args.u, "T": args.trunc, "variant": variant}
    if identity == "corollary2":
        _require(args, ("N", "u", "x"))
        return {"N": args.N, "u": args.u, "x": args.x, "T": args.trunc, "variant": variant}
    if identity in ("theorem3", "corollary4", "corollary5"):
        _require(args, ("n", "N", "u"))
        return {"n": args.n, "N": args.N, "u": args.u, "variant": variant}
    if identity == "eq60_multinomial":
        _require(args, ("n", "N", "u"))
        return {"n": args.n, "N": args.N, "u": args.u}
    if identity == "carlitz_product":
        _require(args, ("m", "n", "alpha", "beta"))
        return {
            "m": args.m,
            "n": args.n,
            "alpha": args.alpha,
            "beta": args.beta,
            "variant": variant,
        }
    if identity == "carlitz_reciprocal":
        _require(args, ("m", "n", "alpha"))
        return {"m": args.m, "n": args.n, "alpha": args.alpha}
    if identity == "bernoulli_product":
        _require(args, ("m", "n"))
        return {"m": args.m, "n": args.n}
    raise ValueError(f"unknown identity {identity!r}")


# ---------------------------------------------------------------------------
# Table rendering

def _table_document(args) -> dict:
    subject = args.subject
    n_max = args.n_max
    if n_max < 0:
        raise ValueError("--n-max must be >= 0")

    if subject == "fe-numbers":
        if args.u is None:
            raise ValueError("fe-numbers requires --u")
        rows = [
            {"n": n, "value": format_rational(fe_number(n, args.u))}
            for n in range(n_max + 1)
        ]
        return {"table": subject, "params": {"u": format_rational(args.u)}, "rows": rows}

    if subject == "bernoulli":
        rows = [
            {"n": n, "value": format_rational(bernoulli_number(n))}
            for n in range(n_max + 1)
        ]
        return {"table": subject, "params": {}, "rows": rows}

    if subject == "fe-higher":
        if args.u is None or args.N is None:
            raise ValueError("fe-higher requires --u and --N")
        if args.N < 1:
            raise ValueError("--N must be >= 1")
        values = fe_higher_numbers(n_max, args.N, args.u)
        rows = [{"n": n, "value": format_rational(values[n])} for n in range(n_max + 1)]
        return {
            "table": subject,
            "params": {"u": format_rational(args.u), "N": str(args.N)},
            "rows": rows,
        }

    if subject == "fe-polynomials":
        if args.u is None:
            raise ValueError("fe-polynomials requires --u")
        rows = []
        for n in range(n_max + 1):
            poly = fe_polynomial(n, args.u)
            coeffs = [format_rational(poly.coefficient(d)) for d in range(n_max + 1)]
            rows.append({"n": n, "coeffs": coeffs})
        return {"table": subject, "params": {"u": format_rational(args.u)}, "rows": rows}

    if subject == "stirling":
        if n_max < 1:
            raise ValueError("stirling table needs --n-max >= 1")
        triangle = triangle_recurrence(n_max)
        return {
            "table": subject,
            "n_max": n_max,
            "rows": [list(row) for row in triangle.rows],
        }

    raise ValueError(f"unknown table subject {subject!r}")


def _table_csv(doc: dict) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    subject = doc["table"]
    if subject == "stirling":
        writer.writerow(["N", "k", "a_k"])
        for i, row in enumerate(doc["rows"], start=1):
            for k, value in enumerate(row):
                writer.writerow([i, k, value])
    elif subject == "fe-polynomials":
        width = len(doc["rows"][0]["coeffs"]) if doc["rows"] else 0
        writer.writerow(["n"] + [f"x^{d}" for d in range(width)])
        for row in doc["rows"]:
            writer.writerow([row["n"]] + row["coeffs"])
    else:
        writer.writerow(["n", "value"])
        for row in doc["rows"]:
            writer.writerow([row["n"], row["value"]])
    return out.getvalue()


# ---------------------------------------------------------------------------
# Report rendering

def _reports_csv(reports) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["identity", "variant", "params", "verdict", "at", "lhs", "rhs"])
    for report in reports:
        packed = ";".join(f"{k}={v}" for k, v in report.params.items())
        if report.mismatches:
            for mm in report.mismatches:
                writer.writerow(
                    [report.identity, report.variant, packed, report.verdict,
                     mm.at, mm.lhs, mm.rhs]
                )
        else:
            note = report.error if report.error is not None else ""
            writer.writerow(
                [report.identity, report.variant, packed, report.verdict, note, "", ""]
            )
    return out.getvalue()


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _json_text(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _exit_code(reports) -> int:
    return EXIT_PASS if all(r.verdict == "pass" for r in reports) else EXIT_FAIL


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse has already printed usage/help; fold into the status contract
        return int(exc.code) if exc.code else 0

    try:
        if args.command == "table":
            doc = _table_document(args)
            text = _json_text(doc) if args.format == "json" else _table_csv(doc)
            _emit(text, args.out)
            return EXIT_PASS

        if args.command == "verify":
            kwargs = _verify_kwargs(args)
            report = _RUNNERS[args.identity](**kwargs)
            if args.format == "json":
                text = _json_text(report.to_dict())
            else:
                text = _reports_csv([report])
            _emit(text, args.out)
            return _exit_code([report])

        if args.command == "audit":
            if args.grid is not None:
                with open(args.grid, "r", encoding="utf-8") as fh:
                    grid = json.load(fh)
            else:
                grid = DEFAULT_GRID
            reports = audit_all(grid)
            if args.format == "json":
                text = _json_text(audit_document(reports))
            else:
                text = _reports_csv(reports)
            _emit(text, args.out)
            return _exit_code(reports)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"feident: error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    return EXIT_USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
