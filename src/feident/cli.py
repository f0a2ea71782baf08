"""Command-line front end: exact tables and identity verification.

Three commands:

    table  fe-numbers|fe-polynomials|fe-higher|stirling|bernoulli
    verify <identity-id> [params] [--variant as-printed|corrected]
    audit  [--grid FILE]

Tables default to CSV, verification and audits to JSON.  A rational flag
is "p/q" text, never floating point, passed on as text and read once by
:func:`feident.exact.exact_parameter` (a table's before its first row,
``verify``'s in the checker registry), whose message a malformed one
prints.  Reports are rendered by :mod:`feident.verify`:
:func:`~feident.verify.document_json`, and
:func:`~feident.verify.document_csv` through ``csv.writer``, as error
messages may hold commas and quotes.  Exit status is 0 when every verdict
passes, 1 when any verification fails, 2 on usage or parameter errors
(argparse's own, and sizes too large for Python or for memory, included;
each prints one ``feident: error:`` line), 130 on an interrupt, and 141
when the reader closes stdout early.  ``main`` ends the process without
the interpreter's shutdown collection (it freezes the heap once ``run``
has returned), so an in-process caller uses ``run``.

Each table subject is one ``@_subject`` entry, which its flags and both
renderings read.  CSV and JSON are written a row at a time as the entry's
generator yields it, so no table's text is held whole; CSV fields never
need quoting.  JSON is ``json.dumps`` of the document's other fields,
then each row's own text: its ``json.dumps``, indented to its place, or
the entry's own text for rows that ``json`` cannot write (the triangle's
``Decimal`` rows).  Each identity's flags come from the checker
registry's schema (see :mod:`feident.verify`): each ``Param`` is a flag
of the same name (``T`` is ``--trunc``), an integer when
``param.integer``, required when ``param.default`` is ``REQUIRED``.
Flags follow their subject or identity, which takes exactly its own.

Two readers take a command line, and both read one flag table per
subject, identity and ``audit`` (:func:`_flags`).  The plain reader
takes the command, its subject or identity, and each flag once as
``--flag value`` or ``--flag=value``, and gives the namespace argparse
would.  Any other command line (help, an abbreviated or repeated flag,
``--``, a usage error) goes to :mod:`feident.parser`, which loads, with
argparse, only for those and stays the one source of help text and usage
errors.

Each command imports only what it runs: a ``table`` subject's rows
import their kernel when they run (numbers and polynomials
:mod:`feident.prefix`, and fe-higher too but for 10N <= n_max and
u != 0, where it adds :mod:`feident.frobenius`; Bernoulli
:mod:`feident.series`, the triangle :mod:`feident.stirling`), never
:mod:`feident.verify` or ``csv``; the integer form of series and
polynomials (:mod:`feident.forms`) loads only with the modules that use
it; the checker registry loads only for ``verify``, whose flags it
gives, and ``audit``; ``json`` loads with it and for JSON tables, ``csv``
for report CSV.  This module and :mod:`feident.exact` define no
namedtuple and compile no regular expression at import, and no module
of the package imports ``__future__``.
"""

import gc
import os
import sys
from itertools import chain
from math import gcd
from types import SimpleNamespace
from typing import Iterable, Iterator

from .exact import _is_integer, binomial_rows, check_at_least, exact_parameter

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


class _Flag:
    """One flag of a command's parser: the name it sets, whether its value
    is an integer, the values it may take (None: any text), whether it is
    required, and its default and help."""

    __slots__ = ("dest", "integer", "choices", "required", "default", "help")

    def __init__(self, dest, integer, choices, required, default, help):
        self.dest, self.integer, self.choices = dest, integer, choices
        self.required, self.default, self.help = required, default, help


def _value_flag(dest: str, integer: bool, default=None) -> tuple:
    """``(option, _Flag)`` of ``dest``'s value (a rational stays text),
    required when ``default`` is None."""
    text = "integer" if integer else "rational p/q"
    return _flag(dest), _Flag(dest, integer, None, default is None, None,
                              text if default is None else f"{text}, default {default}")


def _flags(command: str, name: str | None) -> dict:
    """``{option: _Flag}`` of the parser of ``command``'s table subject or
    identity ``name`` (None for ``audit``), in the order it adds them: the
    one table that both the plain reader and argparse read."""
    if command == "table":
        flags = dict(_value_flag(dest, kind is int) for dest, kind in _SUBJECTS[name].flags.items())
        flags["--n-max"] = _Flag("n_max", True, None, True, None, "largest index, inclusive")
        output = "csv"
    elif command == "verify":
        from .verify import REQUIRED, VARIANTS, parameters

        flags = {}
        for dest, param in parameters(name).items():
            if dest == "variant":
                choices = tuple(v.replace("_", "-") for v in VARIANTS)
                flags["--variant"] = _Flag("variant", False, choices, False, None, None)
            else:
                flags.update([_value_flag(dest, param.integer,
                                          None if param.default is REQUIRED else param.default)])
        output = "json"
    else:
        flags = {"--grid": _Flag("grid", False, None, False, None,
                                 "JSON grid file (defaults to the built-in grid)")}
        output = "json"
    flags["--format"] = _Flag("format", False, ("csv", "json"), False, output, None)
    flags["--out"] = _Flag("out", False, None, False, None,
                           "write output to this path instead of stdout")
    return flags


def _plain_args(argv):
    """The namespace argparse builds from a plain ``argv``: the command, its
    subject or identity, then only exact ``--flag value`` or ``--flag=value``
    pairs of its parser, each flag once, every required one given and every
    value well formed.  None for any other ``argv`` (help, abbreviated,
    repeated or unknown flags, a separate value starting with ``-``, ``--``,
    a bad value), which :mod:`feident.parser` reads."""
    command, *rest = argv or [None]
    if command == "audit":
        name, names = None, {}
    elif command in ("table", "verify") and rest:
        name, *rest = rest
        if command == "table":
            known, names = _SUBJECTS, {"subject": name}
        else:
            from .verify import IDENTITIES as known

            names = {"identity": name}
        if name not in known:
            return None
    else:
        return None
    flags = _flags(command, name)
    values = {}
    tokens = iter(rest)
    for token in tokens:
        option, joined, value = token.partition("=")
        flag = flags.get(option)
        if flag is None or flag.dest in values:
            return None
        if not joined:
            # no value, or one that starts with "-", argparse reads as an option
            value = next(tokens, "-")
            if value[:1] == "-":
                return None
        if flag.integer:
            if not _is_integer(value):
                return None
            value = int(value)
        elif flag.choices is not None and value not in flag.choices:
            return None
        values[flag.dest] = value
    if any(flag.required and flag.dest not in values for flag in flags.values()):
        return None
    return SimpleNamespace(command=command, **names,
                           **{flag.dest: values.get(flag.dest, flag.default)
                              for flag in flags.values()})


def _verify_kwargs(args) -> dict:
    """The flags given, as the checker's keyword arguments."""
    from .verify import parameters

    given = {name: getattr(args, name) for name in parameters(args.identity)}
    return {name: value.replace("-", "_") if name == "variant" else value
            for name, value in given.items() if value is not None}


# ---------------------------------------------------------------------------
# Table subjects

class _Subject:
    """A table subject: the value flags it takes, all required, as
    {name: reader} (int, or exact_parameter for a rational); its CSV header
    for an --n-max; one row's CSV text; the JSON fields before "rows", from
    --n-max and the flag values as text; one row's JSON text as the
    document holds it; and its row generator, which raises a parameter
    error before its first row."""

    __slots__ = ("flags", "header", "line", "head", "json_row", "rows")

    def __init__(self, flags, header, line, head, json_row, rows):
        self.flags, self.header, self.line = flags, header, line
        self.head, self.json_row, self.rows = head, json_row, rows


_SUBJECTS: dict[str, _Subject] = {}


def _json_row(row) -> str:
    """A row's text in the "rows" list of ``json.dumps(doc, indent=2)``:
    its own ``json.dumps(row, indent=2)``, every line indented by four
    spaces (a JSON string holds no raw newline)."""
    import json

    return "    " + json.dumps(row, indent=2).replace("\n", "\n    ")


def _subject(name: str, *, header=lambda n_max: "n,value\n",
             line=lambda row: f"{row['n']},{row['value']}\n",
             head=lambda n_max, params: {"params": params}, json_row=_json_row, **flags):
    """Register the generator below as table subject ``name``; it takes
    ``--n-max`` and then the value of each flag in ``flags``, and yields
    the rows as the JSON document holds them."""

    def register(rows):
        _SUBJECTS[name] = _Subject(flags, header, line, head, json_row, rows)
        return rows

    return register


@_subject("fe-numbers", u=exact_parameter)
def _fe_numbers(n_max: int, u) -> Iterator[dict]:
    from .prefix import fe_number

    for n in range(n_max + 1):
        yield {"n": n, "value": str(fe_number(n, u))}


@_subject("fe-polynomials", u=exact_parameter,
          header=lambda n_max: ",".join(["n"] + [f"x^{d}" for d in range(n_max + 1)]) + "\n",
          line=lambda row: f"{row['n']},{','.join(row['coeffs'])}\n")
def _fe_polynomials(n_max: int, u) -> Iterator[dict]:
    # x^d of H_n(x|u) is C(n,d) a/b for the reduced a/b = H_(n-d): (C/g) a
    # over b/g in lowest terms, for g = gcd(C, b), with no Fraction made
    from .prefix import fe_number

    terms = []  # (a, b) of H_0..H_n
    for n, row in enumerate(binomial_rows(n_max)):
        h = fe_number(n, u)
        terms.append((h.numerator, h.denominator))
        coeffs = [f"{c // g * a}/{b // g}" if b != g else str(c // g * a)
                  for c, (a, b) in zip(row, reversed(terms)) for g in (gcd(c, b),)]
        yield {"n": n, "coeffs": coeffs + ["0"] * (n_max - n)}


@_subject("fe-higher", u=exact_parameter, N=int)
def _fe_higher(n_max: int, u, N: int) -> Iterator[dict]:
    from .prefix import fe_higher_numbers

    check_at_least("--N", N, 1)
    for n, value in enumerate(fe_higher_numbers(n_max, N, u)):
        yield {"n": n, "value": str(value)}


# ",k,%s\n" for k = 0, 1, ...: the tails of the triangle's CSV lines, kept
# for the life of the process, grown by doubling, replaced whole and never
# mutated, so a reader never sees a half-built tuple
_k_tails = ()


def _stirling_line(row: tuple) -> str:
    """Row N's CSV text, "N,k,a_k\n" for k < N, in one format call: "%s"
    writes each a_k by ``str``, linear in the digits of an exact Decimal
    (an int's is quadratic), without the slower Decimal.__format__."""
    global _k_tails
    tails, width = _k_tails, len(row)
    if len(tails) < width:
        tails = _k_tails = (*tails, *[f",{k},%s\n" for k in range(len(tails), 2 * width)])
    s = str(width)
    return (s + s.join(tails[:width])) % row


# row N of the triangle holds a_0(N)..a_(N-1)(N), as exact Decimal integers
@_subject("stirling", header=lambda n_max: "N,k,a_k\n", line=_stirling_line,
          head=lambda n_max, params: {"n_max": n_max},
          json_row=lambda row: "    [\n      " + ",\n      ".join([str(a) for a in row]) + "\n    ]")
def _stirling(n_max: int) -> Iterator[tuple]:
    from .stirling import decimal_rows

    if n_max < 1:
        raise ValueError("stirling table needs --n-max >= 1")
    yield from decimal_rows(n_max)


@_subject("bernoulli")
def _bernoulli(n_max: int) -> Iterator[dict]:
    from .series import bernoulli_number

    for n in range(n_max + 1):
        yield {"n": n, "value": str(bernoulli_number(n))}


def _table_chunks(args) -> Iterable[str]:
    """The table as text, one row per chunk, each row computed as it is
    read: CSV, or JSON in the bytes of ``json.dumps(doc, indent=2)``.  The
    values are checked and the first row computed first, so a parameter
    error writes nothing."""
    name, n_max, subject = args.subject, args.n_max, _SUBJECTS[args.subject]
    values = {dest: kind(getattr(args, dest)) for dest, kind in subject.flags.items()}
    check_at_least("--n-max", n_max, 0)
    rows = subject.rows(n_max, **values)
    first = next(rows)
    if args.format == "json":
        import json

        params = {dest: str(value) for dest, value in values.items()}
        head = {"table": name, **subject.head(n_max, params)}
        # the rows' own text in place of the empty list that ends '"rows": []\n}'
        text = json.dumps({**head, "rows": []}, indent=2)[:-4] + "[\n"
        return chain([text, subject.json_row(first)],
                     (",\n" + subject.json_row(row) for row in rows), ["\n  ]\n}\n"])
    return chain([subject.header(n_max), subject.line(first)], map(subject.line, rows))


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
    argv = _join_negative_values(argv)
    try:
        args = _plain_args(argv)
        if args is None:
            from .parser import parse_args

            args = parse_args(argv, _SUBJECTS, _flags)
        if args.command == "table":
            _emit(_table_chunks(args), args.out)
            return EXIT_PASS

        from .verify import CHECKERS, audit_all, document_csv, document_json

        if args.command == "verify":
            reports = [CHECKERS[args.identity](**_verify_kwargs(args))]
        else:
            reports = audit_all(_read_grid(args.grid))
        text = (document_json(reports, audit=args.command == "audit")
                if args.format == "json" else document_csv(reports))
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
    """Run the CLI on ``sys.argv`` and exit with its status.  Once ``run``
    has returned, its output flushed, the heap is frozen, so that the
    shutdown collections skip memory the operating system frees anyway;
    atexit handlers and stream flushes still run."""
    status = run(sys.argv[1:])
    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    main()
