"""Command-line front end: exact tables and identity verification.

Three commands:

    table  fe-numbers|fe-polynomials|fe-higher|stirling|bernoulli
    verify <identity-id> [params] [--variant as-printed|corrected]
    audit  [--grid FILE]

Tables default to CSV, verification and audits to JSON.  Rationals are
always "p/q" strings, never floating point.  Report CSV goes through
``csv.writer``, as error messages may hold commas and quotes; report
JSON is :func:`feident.verify.document_json`.  Exit status is 0 when
every verdict passes, 1 when any verification fails, 2 on usage or
parameter errors, 130 on an interrupt, and 141 when the reader closes
stdout early.

Each table subject is one ``@_subject`` entry, which the ``table`` flags,
their checks and both renderings read.  CSV is written a row at a time as
the entry's generator yields it, so no table's text is held whole; its
fields never need quoting.  The checker registry's schema (see
:mod:`feident.verify`) gives the ``verify`` flags: each ``Param`` is a
flag of the same name (``T`` is ``--trunc``), an integer when
``param.integer`` and a "p/q" rational otherwise, required when
``param.default`` is ``REQUIRED``.  Both commands reject a flag that
their subject or identity does not take.

Each command imports only what it runs: ``table`` the number kernel,
never :mod:`feident.verify` or ``csv``; the checker registry loads only
for ``verify`` and ``audit``, and only ``verify`` builds flags from it;
``json`` loads with it and for JSON tables, ``csv`` for report CSV.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from collections import namedtuple
from itertools import chain
from typing import Iterable, Iterator

from .exact import format_rational, parse_rational
from .frobenius import VARIANTS, bernoulli_number, fe_higher_numbers, fe_number, fe_polynomial
from .stirling import triangle_recurrence

__all__ = ["main", "run"]

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INTERRUPTED = 130  # 128 + SIGINT
EXIT_CLOSED = 141  # 128 + SIGPIPE

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
    in order: ``table``'s are the table subjects' flags, ``verify``'s the
    checker parameters, read from the registry.  The parser and
    :func:`_join_negative_rationals` both read them here."""
    if command == "table":
        takers = [(dest, kind, "", name)
                  for name, subject in _SUBJECTS.items() for dest, kind in subject.flags.items()]
    elif command == "verify":
        from .verify import IDENTITIES, REQUIRED, parameters

        takers = [(param.name, int if param.integer else parse_rational,
                   "" if param.default is REQUIRED else f", default {param.default}", identity)
                  for param in _verify_parameters()
                  for identity in IDENTITIES if param.name in parameters(identity)]
    else:
        return []
    flags = {}
    for dest, kind, default, taker in takers:
        flags.setdefault((dest, kind, default), []).append(taker)
    return [(_flag(dest), dest, kind,
             f"{'integer' if kind is int else 'rational p/q'}{default}; {', '.join(names)}")
            for (dest, kind, default), names in flags.items()]


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
    table.add_argument("subject", choices=_SUBJECTS)
    for flag, dest, kind, text in _value_flags("table"):
        table.add_argument(flag, dest=dest, type=kind, help=text)
    table.add_argument("--n-max", type=int, required=True, help="largest index, inclusive")

    verify = sub.add_parser("verify", help="verify one identity at given parameters")
    if command == "verify":
        from .verify import IDENTITIES

        verify.add_argument("identity", choices=IDENTITIES)
        for flag, dest, kind, text in _value_flags("verify"):
            verify.add_argument(flag, dest=dest, type=kind, help=text)
    verify.add_argument("--variant", choices=sorted(_CLI_VARIANTS))

    audit = sub.add_parser("audit", help="run the full verification grid")
    audit.add_argument("--grid", help="JSON grid file (defaults to the built-in grid)")

    for each, default in ((table, "csv"), (verify, "json"), (audit, "json")):
        each.add_argument("--format", choices=("csv", "json"), default=default)
        each.add_argument("--out", help="write output to this path instead of stdout")

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
# Table subjects

# A table subject: the value flags it takes, all required, as {name: type};
# its smallest --n-max; its CSV header for an --n-max; one row's CSV text;
# the JSON fields before "rows", from --n-max and the formatted flag
# values; and its row generator (see _subject).
_Subject = namedtuple("_Subject", "flags n_min header line head rows")
_SUBJECTS: dict[str, _Subject] = {}


def _subject(name: str, *, n_min: int = 0, header=lambda n_max: "n,value\n",
             line=lambda row: f"{row['n']},{row['value']}\n",
             head=lambda n_max, params: {"params": params}, **flags):
    """Register the generator below as table subject ``name``; it takes
    ``--n-max`` and then the value of each flag in ``flags``, and yields
    the rows as the JSON document holds them."""

    def register(rows):
        _SUBJECTS[name] = _Subject(flags, n_min, header, line, head, rows)
        return rows

    return register


@_subject("fe-numbers", u=parse_rational)
def _fe_numbers(n_max: int, u) -> Iterator[dict]:
    for n in range(n_max + 1):
        yield {"n": n, "value": format_rational(fe_number(n, u))}


@_subject("fe-polynomials", u=parse_rational,
          header=lambda n_max: ",".join(["n"] + [f"x^{d}" for d in range(n_max + 1)]) + "\n",
          line=lambda row: f"{row['n']},{','.join(row['coeffs'])}\n")
def _fe_polynomials(n_max: int, u) -> Iterator[dict]:
    for n in range(n_max + 1):
        coeffs = [format_rational(c) for c in fe_polynomial(n, u).coeffs]
        yield {"n": n, "coeffs": coeffs + ["0"] * (n_max + 1 - len(coeffs))}


@_subject("fe-higher", u=parse_rational, N=int)
def _fe_higher(n_max: int, u, N: int) -> Iterator[dict]:
    if N < 1:
        raise ValueError("--N must be >= 1")
    for n, value in enumerate(fe_higher_numbers(n_max, N, u)):
        yield {"n": n, "value": format_rational(value)}


# row N of the triangle holds a_0(N)..a_(N-1)(N)
@_subject("stirling", n_min=1, header=lambda n_max: "N,k,a_k\n",
          line=lambda row: "".join(f"{len(row)},{k},{a}\n" for k, a in enumerate(row)),
          head=lambda n_max, params: {"n_max": n_max})
def _stirling(n_max: int) -> Iterator[tuple]:
    return iter(triangle_recurrence(n_max).rows)


@_subject("bernoulli")
def _bernoulli(n_max: int) -> Iterator[dict]:
    for n in range(n_max + 1):
        yield {"n": n, "value": format_rational(bernoulli_number(n))}


def _table_chunks(args) -> Iterable[str]:
    """The table as text: CSV one row per chunk, each row computed as it is
    read, or JSON whole.  The flags are checked and the first row computed
    first, so a usage or parameter error writes nothing."""
    name, n_max = args.subject, args.n_max
    subject = _SUBJECTS[name]
    if n_max < 0:
        raise ValueError("--n-max must be >= 0")
    for flag, dest, _, _ in _value_flags("table"):
        if dest not in subject.flags and getattr(args, dest) is not None:
            raise ValueError(f"table {name!r} does not take {flag}")
    values = {dest: getattr(args, dest) for dest in subject.flags}
    if None in values.values():
        raise ValueError(f"{name} requires " + " and ".join(f"--{dest}" for dest in values))
    if n_max < subject.n_min:
        raise ValueError(f"{name} table needs --n-max >= {subject.n_min}")
    rows = subject.rows(n_max, **values)
    first = next(rows)
    if args.format == "json":
        import json

        params = {dest: format_rational(value) for dest, value in values.items()}
        doc = {"table": name, **subject.head(n_max, params), "rows": [first, *rows]}
        return [json.dumps(doc, indent=2) + "\n"]
    return chain([subject.header(n_max), subject.line(first)], map(subject.line, rows))


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
            _emit(_table_chunks(args), args.out)
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
        return EXIT_PASS if all(r.verdict == "pass" for r in reports) else EXIT_FAIL
    except BrokenPipeError:
        raise
    except (ValueError, OSError) as exc:
        print(f"feident: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
