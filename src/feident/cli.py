"""Command-line front end: exact tables and identity verification.

Three commands:

    table  fe-numbers|fe-polynomials|fe-higher|stirling|bernoulli
    verify <identity-id> [params] [--variant as-printed|corrected]
    audit  [--grid FILE]

Tables default to CSV, verification and audits to JSON.  A rational flag
is "p/q" text, never floating point, passed on as text and read once by
:func:`feident.exact.exact_parameter` (a table's before its first row,
``verify``'s in the checker registry), whose message a malformed one
prints.  Report CSV goes through ``csv.writer``, as error messages may
hold commas and quotes; report JSON is
:func:`feident.verify.document_json`.  Exit status is 0 when every verdict
passes, 1 when any verification fails, 2 on usage or parameter errors
(argparse's own, and sizes too large for Python or for memory, included;
each prints one ``feident: error:`` line), 130 on an interrupt, and 141
when the reader closes stdout early.

Each table subject is one ``@_subject`` entry, which its subparser's
flags and both renderings read.  CSV is written a row at a time as the
entry's generator yields it, so no table's text is held whole; its
fields never need quoting.  Each identity is one subparser built from the
checker registry's schema (see :mod:`feident.verify`): each ``Param`` is
a flag of the same name (``T`` is ``--trunc``), an integer when
``param.integer``, required when ``param.default`` is ``REQUIRED``.
Flags follow their subject or identity, which takes exactly its own.

Each command imports only what it runs: a ``table`` subject's rows
import their kernel when they run (the triangle :mod:`feident.stirling`,
the others :mod:`feident.frobenius`), never :mod:`feident.verify` or
``csv``; the checker registry loads only for ``verify``, which builds its
subparsers from it, and ``audit``; ``json`` loads with it and for JSON
tables, ``csv`` for report CSV.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from collections import namedtuple
from itertools import chain
from math import gcd
from typing import Iterable, Iterator

from .exact import binomial_rows, check_at_least, exact_parameter, format_ratio, format_rational

__all__ = ["main", "run"]

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INTERRUPTED = 130  # 128 + SIGINT
EXIT_CLOSED = 141  # 128 + SIGPIPE

# Flag names that differ from their checker parameter's name.
_FLAG_NAMES = {"T": "trunc"}


def _flag(name: str) -> str:
    return "--" + _FLAG_NAMES.get(name, name)


def _command(argv) -> str | None:
    """The command word: the first token that is not an option (the top
    level takes no option with a value)."""
    return next((token for token in argv if token[:1] != "-"), None)


def _join_negative_values(argv) -> list:
    """Pass ``--u -5/7`` on as ``--u=-5/7``, as argparse reads ``-5/7`` as an option:
    a ``-<digit>`` token joins the ``--flag`` before it, but not ``--help`` or one with ``=``."""
    out = []
    for token in argv:
        if (out and out[-1][:2] == "--" and out[-1] not in ("--", "--help")
                and "=" not in out[-1] and token[:1] == "-" and token[1:2].isdigit()):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


class _Parser(argparse.ArgumentParser):
    """Raises each usage error as a ValueError, which prints as one line."""

    def error(self, message):
        raise ValueError(message)


def _add_param(parser: argparse.ArgumentParser, dest: str, integer: bool, default=None) -> None:
    """Add the value flag of ``dest`` (a rational stays text), required when ``default`` is None."""
    text = "integer" if integer else "rational p/q"
    parser.add_argument(_flag(dest), dest=dest, type=int if integer else None,
                        required=default is None,
                        help=text if default is None else f"{text}, default {default}")


def build_parser(command: str | None) -> argparse.ArgumentParser:
    """The CLI parser, with one subparser per table subject and identity.
    The top-level help lists only command names, so the subparsers of a
    command are added only when ``command`` names it."""
    parser = _Parser(prog="feident",
                     description="Exact Frobenius-Euler tables and identity verification.")
    sub = parser.add_subparsers(dest="command", required=True)
    table = sub.add_parser("table", help="emit a number, polynomial, or triangle table")
    verify = sub.add_parser("verify", help="verify one identity at given parameters")
    audit = sub.add_parser("audit", help="run the full verification grid")
    audit.add_argument("--grid", help="JSON grid file (defaults to the built-in grid)")
    formats = {audit: "json"}  # each parser that writes output -> its default --format
    if command == "table":
        subjects = table.add_subparsers(dest="subject", required=True)
        for name, subject in _SUBJECTS.items():
            formats[each := subjects.add_parser(name)] = "csv"
            for dest, kind in subject.flags.items():
                _add_param(each, dest, kind is int)
            each.add_argument("--n-max", type=int, required=True, help="largest index, inclusive")
    elif command == "verify":
        from .verify import IDENTITIES, REQUIRED, VARIANTS, parameters

        identities = verify.add_subparsers(dest="identity", required=True)
        for identity in IDENTITIES:
            formats[each := identities.add_parser(identity)] = "json"
            for name, param in parameters(identity).items():
                if name == "variant":
                    each.add_argument("--variant", choices=[v.replace("_", "-") for v in VARIANTS])
                else:
                    _add_param(each, name, param.integer,
                               None if param.default is REQUIRED else param.default)
    for each, default in formats.items():
        each.add_argument("--format", choices=("csv", "json"), default=default)
        each.add_argument("--out", help="write output to this path instead of stdout")
    return parser


def _verify_kwargs(args) -> dict:
    """The flags given, as the checker's keyword arguments."""
    from .verify import parameters

    given = {name: getattr(args, name) for name in parameters(args.identity)}
    return {name: value.replace("-", "_") if name == "variant" else value
            for name, value in given.items() if value is not None}


# ---------------------------------------------------------------------------
# Table subjects

# A table subject: the value flags it takes, all required, as {name: reader}
# (int, or exact_parameter for a rational); its smallest --n-max; its CSV
# header for an --n-max; one row's CSV text; the JSON fields before "rows",
# from --n-max and the formatted flag values; and its row generator.
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


@_subject("fe-numbers", u=exact_parameter)
def _fe_numbers(n_max: int, u) -> Iterator[dict]:
    from .frobenius import fe_number

    for n in range(n_max + 1):
        yield {"n": n, "value": format_rational(fe_number(n, u))}


@_subject("fe-polynomials", u=exact_parameter,
          header=lambda n_max: ",".join(["n"] + [f"x^{d}" for d in range(n_max + 1)]) + "\n",
          line=lambda row: f"{row['n']},{','.join(row['coeffs'])}\n")
def _fe_polynomials(n_max: int, u) -> Iterator[dict]:
    # x^d of H_n(x|u) is C(n,d) a/b for the reduced a/b = H_(n-d): (C/g) a
    # over b/g in lowest terms, for g = gcd(C, b), with no Fraction made
    from .frobenius import fe_number

    terms = []  # (a, b) of H_0..H_n
    for n, row in enumerate(binomial_rows(n_max)):
        h = fe_number(n, u)
        terms.append((h.numerator, h.denominator))
        coeffs = [format_ratio(c // g * a, b // g)
                  for c, (a, b) in zip(row, reversed(terms)) for g in (gcd(c, b),)]
        yield {"n": n, "coeffs": coeffs + ["0"] * (n_max - n)}


@_subject("fe-higher", u=exact_parameter, N=int)
def _fe_higher(n_max: int, u, N: int) -> Iterator[dict]:
    from .frobenius import fe_higher_numbers

    check_at_least("--N", N, 1)
    for n, value in enumerate(fe_higher_numbers(n_max, N, u)):
        yield {"n": n, "value": format_rational(value)}


# row N of the triangle holds a_0(N)..a_(N-1)(N)
@_subject("stirling", n_min=1, header=lambda n_max: "N,k,a_k\n",
          line=lambda row: "".join(f"{len(row)},{k},{a}\n" for k, a in enumerate(row)),
          head=lambda n_max, params: {"n_max": n_max})
def _stirling(n_max: int) -> Iterator[tuple]:
    from .stirling import triangle_recurrence

    return iter(triangle_recurrence(n_max).rows)


@_subject("bernoulli")
def _bernoulli(n_max: int) -> Iterator[dict]:
    from .frobenius import bernoulli_number

    for n in range(n_max + 1):
        yield {"n": n, "value": format_rational(bernoulli_number(n))}


def _table_chunks(args) -> Iterable[str]:
    """The table as text: CSV one row per chunk, each row computed as it is
    read, or JSON whole.  The values are checked and the first row computed
    first, so a parameter error writes nothing."""
    name, n_max, subject = args.subject, args.n_max, _SUBJECTS[args.subject]
    values = {dest: kind(getattr(args, dest)) for dest, kind in subject.flags.items()}
    check_at_least("--n-max", n_max, 0)
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
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


def _run(argv) -> int:
    command = _command(argv)
    try:
        args = build_parser(command).parse_args(_join_negative_values(argv))
        if args.command == "table":
            _emit(_table_chunks(args), args.out)
            return EXIT_PASS

        from .verify import CHECKERS, audit_all, document_json

        if args.command == "verify":
            reports = [CHECKERS[args.identity](**_verify_kwargs(args))]
        else:
            reports = audit_all(_read_grid(args.grid))
        text = (document_json(reports, audit=args.command == "audit")
                if args.format == "json" else _reports_csv(reports))
        _emit([text], args.out)
        return EXIT_PASS if all(r.verdict == "pass" for r in reports) else EXIT_FAIL
    except SystemExit as exc:  # only --help exits, once it has printed
        return exc.code
    except BrokenPipeError:
        raise
    except (ValueError, OverflowError, OSError) as exc:  # OverflowError: a size past sys.maxsize
        print(f"feident: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:  # a size no machine can hold; its message is empty
        print("feident: error: out of memory", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
