"""Command-line front end: exact tables and identity verification.

Three commands:

    table  fe-numbers|fe-polynomials|fe-higher|stirling|bernoulli
    verify <identity-id> [params] [--variant as-printed|corrected]
    audit  [--grid FILE]

Tables default to CSV, verification and audits to JSON.  Rationals are
always "p/q" strings, never floating point.  A CSV table is written row
by row, so its whole text is never held; its fields never need quoting.
Report CSV goes through ``csv.writer``, as error messages may hold
commas and quotes; report JSON is :func:`feident.verify.document_json`.
Exit status is 0 when every verdict passes, 1 when any verification
fails, 2 on usage or parameter errors, 130 on an interrupt, and 141 when
the reader closes stdout early.

The checker registry's schema (see :mod:`feident.verify`) gives the
``verify`` flags: each ``Param`` is a flag of the same name (``T`` is
``--trunc``), taking an integer when ``param.integer`` and a "p/q"
rational otherwise, and required when ``param.default`` is ``REQUIRED``;
flags an identity does not take are rejected.

Each command imports only what it runs.  ``table`` loads the number
kernel, and never :mod:`feident.verify` or ``csv``.  The checker
registry loads only for ``verify`` and ``audit``, and the ``verify``
flags, identity choices and their help are built from it only for
``verify``.  ``json`` loads with the registry and for JSON tables,
``csv`` for report CSV.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from typing import Iterable, Iterator

from .exact import format_rational, parse_rational, to_fractions
from .frobenius import VARIANTS, bernoulli_number, fe_higher_numbers, fe_number, fe_polynomial
from .stirling import triangle_recurrence

__all__ = ["main", "run"]

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INTERRUPTED = 130  # 128 + SIGINT
EXIT_CLOSED = 141  # 128 + SIGPIPE

_TABLE_SUBJECTS = ("fe-numbers", "fe-polynomials", "fe-higher", "stirling", "bernoulli")

_CLI_VARIANTS = {variant.replace("_", "-"): variant for variant in VARIANTS}

# Flag names that differ from their checker parameter's name.
_FLAG_NAMES = {"T": "trunc"}


def _flag(name: str) -> str:
    return "--" + _FLAG_NAMES.get(name, name)


def _verify_parameters() -> list:
    """Every checker parameter but ``variant``, once, in registry order;
    those with a default come last, as in a signature."""
    from .verify import IDENTITIES, REQUIRED, parameters

    seen = {}
    for identity in IDENTITIES:
        for name, param in parameters(identity).items():
            if name != "variant":
                seen.setdefault(name, param)
    return sorted(seen.values(), key=lambda param: param.default is not REQUIRED)


def _value_flags(command: str | None) -> list:
    """``(flag, dest, type, help)`` of each parameter flag of ``command``,
    in order: ``table``'s are fixed, ``verify``'s are the checker
    parameters, read from the registry.  The parser and
    :func:`_join_negative_rationals` both read them here."""
    if command == "table":
        return [
            ("--u", "u", parse_rational, "rational parameter u as p/q"),
            ("--N", "N", int, "order for fe-higher"),
        ]
    if command != "verify":
        return []
    from .verify import IDENTITIES, REQUIRED, parameters

    flags = []
    for param in _verify_parameters():
        kind = "integer" if param.integer else "rational p/q"
        if param.default is not REQUIRED:
            kind += f", default {param.default}"
        takers = [identity for identity in IDENTITIES if param.name in parameters(identity)]
        flags.append((
            _flag(param.name),
            param.name,
            int if param.integer else parse_rational,
            f"{kind}; {', '.join(takers)}",
        ))
    return flags


def _command(argv) -> str | None:
    """The command word: the first token that is not an option (the top
    level takes no option with a value)."""
    return next((token for token in argv if token[:1] != "-"), None)


def _join_negative_rationals(argv, command: str | None) -> list:
    """Pass ``--u -5/7`` on as ``--u=-5/7``: argparse reads a token that
    starts with ``-`` as an option unless it is a plain negative number.
    The rational flags are those ``command`` takes."""
    flags = {flag for flag, _, kind, _ in _value_flags(command) if kind is parse_rational}
    out = []
    for token in argv:
        if out and out[-1] in flags and token[:1] == "-" and token[1:2].isdigit():
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def build_parser(command: str | None) -> argparse.ArgumentParser:
    """The CLI parser.  Subparsers parse independently and the top-level
    help lists only command names, so the registry-derived ``verify``
    arguments (identity choices, parameter flags, their help) are added
    only when ``command`` is ``"verify"``."""
    parser = argparse.ArgumentParser(
        prog="feident",
        description="Exact Frobenius-Euler tables and identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    table = sub.add_parser("table", help="emit a number, polynomial, or triangle table")
    table.add_argument("subject", choices=_TABLE_SUBJECTS)
    for flag, dest, kind, text in _value_flags("table"):
        table.add_argument(flag, dest=dest, type=kind, help=text)
    table.add_argument("--n-max", type=int, required=True, help="largest index, inclusive")
    table.add_argument("--format", choices=("csv", "json"), default="csv")
    table.add_argument("--out", help="write output to this path instead of stdout")

    verify = sub.add_parser("verify", help="verify one identity at given parameters")
    if command == "verify":
        from .verify import IDENTITIES

        verify.add_argument("identity", choices=IDENTITIES)
        for flag, dest, kind, text in _value_flags("verify"):
            verify.add_argument(flag, dest=dest, type=kind, help=text)
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
    schema says: required, defaulted, or not taken at all."""
    from .verify import REQUIRED, parameters

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
        elif param.default is REQUIRED:
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
            # from the integer form, so the table's kept polynomial gains no
            # second, Fraction form
            poly = fe_polynomial(n, args.u)
            coeffs = [format_rational(c) for c in to_fractions(*poly.integer_form)]
            rows.append({"n": n, "coeffs": coeffs + ["0"] * (n_max + 1 - len(coeffs))})
        return {"table": subject, "params": {"u": format_rational(args.u)}, "rows": rows}

    # stirling, the last of argparse's choices
    if n_max < 1:
        raise ValueError("stirling table needs --n-max >= 1")
    triangle = triangle_recurrence(n_max)
    return {
        "table": subject,
        "n_max": n_max,
        "rows": [list(row) for row in triangle.rows],
    }


def _table_csv(doc: dict) -> Iterator[str]:
    """The table as CSV, one chunk per table row (per triangle row for
    ``stirling``).  Fields are ints, "p/q" strings and fixed headers."""
    subject = doc["table"]
    if subject == "stirling":
        yield "N,k,a_k\n"
        for i, row in enumerate(doc["rows"], start=1):
            yield "".join(f"{i},{k},{value}\n" for k, value in enumerate(row))
    elif subject == "fe-polynomials":
        width = len(doc["rows"][0]["coeffs"])
        yield ",".join(["n"] + [f"x^{d}" for d in range(width)]) + "\n"
        for row in doc["rows"]:
            yield f"{row['n']},{','.join(row['coeffs'])}\n"
    else:
        yield "n,value\n"
        for row in doc["rows"]:
            yield f"{row['n']},{row['value']}\n"


# ---------------------------------------------------------------------------
# Report rendering

def _reports_csv(reports) -> str:
    import csv

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


def _emit(chunks: Iterable[str], out_path: str | None) -> None:
    """Write the chunks in order to stdout or to ``out_path``, never
    holding more than one of them."""
    if out_path is None:
        sys.stdout.writelines(chunks)
        sys.stdout.flush()  # a closed reader shows here, not at exit
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)


def _json_text(doc) -> str:
    import json

    return json.dumps(doc, indent=2) + "\n"


def _read_grid(path: str | None):
    """The grid in the JSON file at ``path``, or None (the default grid)."""
    if path is None:
        return None
    import json

    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError("grid file is nested too deeply") from None


def _exit_code(reports) -> int:
    return EXIT_PASS if all(r.verdict == "pass" for r in reports) else EXIT_FAIL


def run(argv=None) -> int:
    """Exit status of the CLI on ``argv`` (default ``sys.argv[1:]``); the
    int-to-str digit limit is lifted for the call, so values print at any
    size.  An interrupt prints one line and gives 130; a reader that closes
    stdout early gives 141, quietly."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _run(sys.argv[1:] if argv is None else argv)
    except KeyboardInterrupt:
        print("feident: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except BrokenPipeError:
        _discard_stdout()
        return EXIT_CLOSED
    finally:
        sys.set_int_max_str_digits(limit)


def _discard_stdout() -> None:
    """Point stdout at the null device, so that what it still buffers for
    a closed reader is not flushed to the pipe at exit."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return  # not a descriptor, so nothing reaches the pipe
    os.dup2(os.open(os.devnull, os.O_WRONLY), fd)


def _run(argv) -> int:
    command = _command(argv)
    parser = build_parser(command)
    try:
        args = parser.parse_args(_join_negative_rationals(argv, command))
    except SystemExit as exc:
        # argparse has already printed usage/help; fold into the status contract
        return int(exc.code) if exc.code else 0

    try:
        if args.command == "table":
            doc = _table_document(args)
            chunks = [_json_text(doc)] if args.format == "json" else _table_csv(doc)
            _emit(chunks, args.out)
            return EXIT_PASS

        from .verify import CHECKERS, audit_all, document_json

        if args.command == "verify":
            reports = [CHECKERS[args.identity](**_verify_kwargs(args))]
        else:
            reports = audit_all(_read_grid(args.grid))
        if args.format == "json":
            text = document_json(reports, audit=args.command == "audit")
        else:
            text = _reports_csv(reports)
        _emit([text], args.out)
        return _exit_code(reports)
    except BrokenPipeError:
        raise
    except (ValueError, OSError) as exc:
        print(f"feident: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
