"""Command-line front end: exact tables and identity verification.

Three commands:

    table  fe-numbers|fe-polynomials|fe-higher|stirling|bernoulli
    verify <identity-id> [params] [--variant as-printed|corrected]
    audit  [--grid FILE]

Tables default to CSV, verification and audits to JSON.  Rationals are
always serialized as "p/q" strings, never as floating point.  Exit status
is 0 when every verdict passes, 1 when any verification fails, and 2 on
usage or parameter errors.

A checker's signature is its schema (see :mod:`feident.verify`): each
parameter is a ``verify`` flag of the same name (``T`` is ``--trunc``),
required unless it has a default; flags an identity does not take are
rejected.
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
    CHECKERS,
    DEFAULT_GRID,
    IDENTITIES,
    audit_all,
    audit_document,
    parameters,
    takes_integer,
)

__all__ = ["main", "run"]

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

_TABLE_SUBJECTS = ("fe-numbers", "fe-polynomials", "fe-higher", "stirling", "bernoulli")

_CLI_VARIANTS = {"as-printed": "as_printed", "corrected": "corrected"}

# Flag names that differ from their checker parameter's name.
_FLAG_NAMES = {"T": "trunc"}


def _flag(name: str) -> str:
    return "--" + _FLAG_NAMES.get(name, name)


def _verify_parameters() -> list:
    """Every checker parameter but ``variant``, once, in registry order;
    those with a default come last, as in a signature."""
    seen = {}
    for identity in IDENTITIES:
        for name, param in parameters(identity).items():
            if name != "variant":
                seen.setdefault(name, param)
    return sorted(seen.values(), key=lambda param: param.default is not param.empty)


def _flag_help(param) -> str:
    """What the flag takes, its default if any, and the identities taking it."""
    kind = "integer" if takes_integer(param) else "rational p/q"
    if param.default is not param.empty:
        kind += f", default {param.default}"
    takers = [identity for identity in IDENTITIES if param.name in parameters(identity)]
    return f"{kind}; {', '.join(takers)}"


def _join_negative_rationals(argv) -> list:
    """Pass ``--u -5/7`` on as ``--u=-5/7``: argparse reads a token that
    starts with ``-`` as an option unless it is a plain negative number.
    The rational flags are the checkers' rational parameters (table's
    ``--u`` among them)."""
    flags = {_flag(p.name) for p in _verify_parameters() if not takes_integer(p)}
    out = []
    for token in argv:
        if out and out[-1] in flags and token[:1] == "-" and token[1:2].isdigit():
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


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
    for param in _verify_parameters():
        kind = int if takes_integer(param) else parse_rational
        verify.add_argument(
            _flag(param.name), dest=param.name, type=kind, help=_flag_help(param)
        )
    verify.add_argument("--variant", choices=sorted(_CLI_VARIANTS))
    verify.add_argument("--format", choices=("csv", "json"), default="json")
    verify.add_argument("--out", help="write output to this path instead of stdout")

    audit = sub.add_parser("audit", help="run the full verification grid")
    audit.add_argument("--grid", help="JSON grid file (defaults to the built-in grid)")
    audit.add_argument("--format", choices=("csv", "json"), default="json")
    audit.add_argument("--out", help="write output to this path instead of stdout")

    return parser


def _verify_kwargs(args) -> dict:
    """Map parsed flags to the checker's keyword arguments, as its
    signature says: required, defaulted, or not taken at all."""
    identity = args.identity
    params = parameters(identity)
    if args.variant is not None and "variant" not in params:
        raise ValueError(f"identity {identity!r} has no as-printed/corrected variant")
    for param in _verify_parameters():
        if param.name not in params and getattr(args, param.name) is not None:
            raise ValueError(f"identity {identity!r} does not take {_flag(param.name)}")
    kwargs = {}
    for name, param in params.items():
        value = getattr(args, name)
        if value is not None:
            kwargs[name] = _CLI_VARIANTS[value] if name == "variant" else value
        elif param.default is param.empty:
            raise ValueError(f"identity {identity!r} requires {_flag(name)}")
    return kwargs


# ---------------------------------------------------------------------------
# Table rendering

def _value_rows(values) -> list:
    return [{"n": n, "value": format_rational(value)} for n, value in enumerate(values)]


def _table_document(args) -> dict:
    subject = args.subject
    n_max = args.n_max
    if n_max < 0:
        raise ValueError("--n-max must be >= 0")

    if subject == "fe-numbers":
        if args.u is None:
            raise ValueError("fe-numbers requires --u")
        rows = _value_rows(fe_number(n, args.u) for n in range(n_max + 1))
        return {"table": subject, "params": {"u": format_rational(args.u)}, "rows": rows}

    if subject == "bernoulli":
        rows = _value_rows(bernoulli_number(n) for n in range(n_max + 1))
        return {"table": subject, "params": {}, "rows": rows}

    if subject == "fe-higher":
        if args.u is None or args.N is None:
            raise ValueError("fe-higher requires --u and --N")
        if args.N < 1:
            raise ValueError("--N must be >= 1")
        rows = _value_rows(fe_higher_numbers(n_max, args.N, args.u)[: n_max + 1])
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
        doc = report.to_dict()
        packed = ";".join(f"{k}={v}" for k, v in doc["params"].items())
        head = [doc["identity"], doc["variant"], packed, doc["verdict"]]
        for mm in doc["mismatches"]:
            writer.writerow(head + [mm["at"], mm["lhs"], mm["rhs"]])
        if not doc["mismatches"]:
            writer.writerow(head + [doc.get("error", ""), "", ""])
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
    """Exit status of the CLI on ``argv`` (default ``sys.argv[1:]``); the
    int-to-str digit limit is lifted for the call, so values print at any size."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _run(sys.argv[1:] if argv is None else argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_join_negative_rationals(argv))
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
            report = CHECKERS[args.identity](**kwargs)
            if args.format == "json":
                text = _json_text(report.to_dict())
            else:
                text = _reports_csv([report])
            _emit(text, args.out)
            return _exit_code([report])

        if args.command == "audit":
            if args.grid is not None:
                with open(args.grid, "r", encoding="utf-8") as fh:
                    try:
                        grid = json.load(fh)
                    except RecursionError:
                        raise ValueError("grid file is nested too deeply") from None
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
