"""The CLI's argparse reader: help text, usage errors, and every command
line that the plain reader of :mod:`feident.cli` does not take (an
abbreviated or repeated flag, ``--``, a malformed value).

The CLI loads this module, and with it argparse, only when its plain
reader returns None, so a command line of exact flags compiles none of
it.  The parser reads the CLI's one flag table per subject, identity and
``audit``, passed in as ``flags``, so both readers take the same flags.
"""

import argparse

from .exact import _is_integer

__all__ = ["build_parser", "parse_args"]


def _command(argv) -> str | None:
    """The command word: the first token that is not an option (the top
    level takes no option with a value)."""
    return next((token for token in argv if token[:1] != "-"), None)


def _integer(text: str) -> int:
    """An integer flag's value as the plain reader reads it (see
    :func:`feident.exact._is_integer`)."""
    if not _is_integer(text):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


class _Parser(argparse.ArgumentParser):
    """Raises each usage error as a ValueError, which prints as one line;
    reads a joined ``--`` value as ``--``, as 3.13 does (3.10-3.12 give [])."""

    def error(self, message):
        raise ValueError(message)

    def _get_values(self, action, arg_strings):
        if action.option_strings and arg_strings == ["--"]:
            self._check_value(action, value := self._get_value(action, "--"))
            return value
        return super()._get_values(action, arg_strings)


def build_parser(command: str | None, subjects, flags):
    """The CLI's argparse parser, with one subparser per table subject (the
    names in ``subjects``) and identity, each with the flags that
    ``flags(command, name)`` gives (:func:`feident.cli._flags`).  The
    top-level help lists only command names, so the subparsers of a
    command are added only when ``command`` names it."""
    parser = _Parser(prog="feident",
                     description="Exact Frobenius-Euler tables and identity verification.")
    sub = parser.add_subparsers(dest="command", required=True)
    table = sub.add_parser("table", help="emit a number, polynomial, or triangle table")
    verify = sub.add_parser("verify", help="verify one identity at given parameters")
    audit = sub.add_parser("audit", help="run the full verification grid")
    parsers = {audit: flags("audit", None)}
    if command == "table":
        tables = table.add_subparsers(dest="subject", required=True)
        for name in subjects:
            parsers[tables.add_parser(name)] = flags("table", name)
    elif command == "verify":
        from .verify import IDENTITIES

        identities = verify.add_subparsers(dest="identity", required=True)
        for name in IDENTITIES:
            parsers[identities.add_parser(name)] = flags("verify", name)
    for each, options in parsers.items():
        for option, flag in options.items():
            each.add_argument(option, dest=flag.dest, type=_integer if flag.integer else None,
                              choices=flag.choices, required=flag.required,
                              default=flag.default, help=flag.help)
    return parser


def parse_args(argv, subjects, flags):
    """argparse's namespace for ``argv`` by :func:`build_parser`; a usage
    error raises ValueError, and help prints and raises SystemExit."""
    return build_parser(_command(argv), subjects, flags).parse_args(argv)
