"""The plain reader of command lines agrees with argparse.

``cli._plain_args`` reads a command line written one exact flag and one
value at a time, each flag once, and returns None for any other, which
``feident.parser`` then reads.  Command lines are drawn from each
command's flag table (``cli._flags``), well formed, and then mutated:
a flag dropped, repeated or abbreviated, a value broken or left out, or a
token argparse treats apart (``--``, ``-h``, an unknown flag, a stray
word) put in; the order of the flags is drawn too.  For each, the plain
reader gives None or the namespace argparse gives, and for an unmutated
one it never gives None.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feident import cli, parser
from feident.verify import IDENTITIES

GOOD = {
    "integer": st.sampled_from(["0", "1", "2", "3", "6", "-3"]),
    "rational": st.sampled_from(["2", "1/3", "-5/7", "7/1000003"]),
    "text": st.sampled_from(["grid.json", "out.csv", "table", "a=b", "3", ""]),
}
BROKEN_INTEGERS = st.sampled_from(["٣", "1_0", "+3", " 3", "", "x", "-", "3.0", "--3"])
STRAYS = st.sampled_from(["--", "-h", "--help", "--bogus", "--bogus=1", "x", "-5", "-x", "--=3",
                         "--out=--", "--format=--"])
MUTATIONS = ("drop", "repeat", "abbreviate", "break", "no-value", "dash-value", "stray",
             "unknown-name")


def argparse_args(argv):
    """argparse's namespace for ``argv``, or None when it refuses it or prints help."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return parser.parse_args(argv, cli._SUBJECTS, cli._flags)
        except (ValueError, SystemExit):
            return None


def value(draw, option, flag):
    """A well-formed value of ``flag``."""
    if flag.choices is not None:
        return draw(st.sampled_from(flag.choices))
    if flag.integer:
        return draw(GOOD["integer"])
    return draw(GOOD["text"] if option in ("--grid", "--out") else GOOD["rational"])


@st.composite
def command_lines(draw):
    """``(argv, mutated)``: a command line drawn from a flag table, and
    whether any mutation was applied."""
    command = draw(st.sampled_from(["table", "verify", "audit"]))
    name = draw({"table": st.sampled_from(sorted(cli._SUBJECTS)),
                 "verify": st.sampled_from(IDENTITIES), "audit": st.none()}[command])
    flags = cli._flags(command, name)
    chosen = [option for option, flag in flags.items() if flag.required or draw(st.booleans())]
    pairs = [[option, value(draw, option, flags[option])] for option in chosen]
    mutations = draw(st.lists(st.sampled_from(MUTATIONS), max_size=2))
    for mutation in mutations:
        # the [flag, value] pairs no earlier mutation has taken apart
        valued = [pair for pair in pairs if len(pair) == 2 and pair[0] in flags]
        if mutation == "drop" and pairs:
            pairs.pop(draw(st.integers(0, len(pairs) - 1)))
        elif mutation == "repeat" and valued:
            option = draw(st.sampled_from(valued))[0]
            pairs.append([option, value(draw, option, flags[option])])
        elif mutation == "abbreviate" and valued:
            pair = draw(st.sampled_from(valued))
            pair[0] = pair[0][:draw(st.integers(2, max(2, len(pair[0]) - 1)))]
        elif mutation == "break":
            integers = [pair for pair in valued if flags[pair[0]].integer]
            if integers:
                draw(st.sampled_from(integers))[1] = draw(BROKEN_INTEGERS)
        elif mutation == "no-value" and valued:
            draw(st.sampled_from(valued)).pop()
        elif mutation == "dash-value" and valued:
            draw(st.sampled_from(valued))[1] = draw(st.sampled_from(["-x", "--", "-h", "--u"]))
        elif mutation == "stray":
            pairs.insert(draw(st.integers(0, len(pairs))), [draw(STRAYS)])
        elif mutation == "unknown-name" and name is not None:
            name = draw(st.sampled_from(["nothing", name.upper(), name[:-1], "audit"]))
    pairs = draw(st.permutations(pairs))
    argv = [command] + ([name] if name is not None else [])
    for pair in pairs:
        if len(pair) == 2 and pair[0].startswith("--") and draw(st.booleans()):
            argv.append("=".join(pair))
        else:
            argv.extend(pair)
    return argv, bool(mutations)


@settings(deadline=None, max_examples=400)
@given(command_lines())
def test_plain_reader_agrees_with_argparse(drawn):
    argv, mutated = drawn
    argv = cli._join_negative_values(argv)
    plain = cli._plain_args(argv)
    if plain is None:
        assert mutated, argv
        return
    parsed = argparse_args(argv)
    assert parsed is not None, argv
    assert vars(plain) == vars(parsed), argv


@pytest.mark.parametrize("argv", [
    ["table", "fe-numbers", "--u", "1/3", "--n-m", "3"],
    ["table", "fe-numbers", "--u", "1/3", "--n-max", "2", "--n-max", "3"],
    ["table", "fe-numbers", "--u", "1/3", "--n-max", "3", "--"],
    ["table", "fe-numbers", "--u", "1/3", "--n-max", "3", "--help"],
    ["table", "fe-numbers", "--u", "1/3", "--n-max", "3", "--out", "-x"],
    ["table", "fe-numbers", "--u", "1/3", "--n-max", "+3"],
    ["table", "fe-numbers", "--u", "1/3", "--n-max", "3", "--format", "xml"],
    ["table", "fe-numbers", "--u", "1/3"],
    ["table", "fe-numbers", "--u", "1/3", "--n-max"],
    ["table", "fe-numbers", "--u", "1/3", "--n-max", "3", "extra"],
    ["table", "--u", "1/3", "fe-numbers", "--n-max", "3"],
    ["verify", "theorem3", "--n", "1", "--N", "2", "--u", "2", "--variant", "as_printed"],
    ["verify", "theorem99", "--n", "1"],
    ["audit", "--grid"],
    ["--help"],
    [],
], ids=["abbreviated", "repeated", "double-dash", "help", "dash-value", "plus-integer",
        "bad-choice", "missing-flag", "missing-value", "stray-word", "flag-before-subject",
        "underscore-variant", "unknown-identity", "audit-no-value", "top-help", "empty"])
def test_plain_reader_leaves_to_argparse(argv):
    assert cli._plain_args(cli._join_negative_values(argv)) is None


@pytest.mark.parametrize("argv", [
    ["table", "fe-numbers", "--u", "-5/7", "--n-max", "3"],
    ["table", "fe-higher", "--n-max=3", "--N", "2", "--u=1/3", "--format", "json"],
    ["table", "stirling", "--n-max", "3", "--out", "table"],
    ["verify", "theorem1", "--N", "2", "--u", "2", "--trunc", "8", "--variant", "as-printed"],
    ["verify", "eq60_multinomial", "--n", "2", "--N", "2", "--u", "0", "--format", "csv"],
    ["audit"],
    ["audit", "--grid", "grid.json", "--format=csv", "--out", "audit.csv"],
    ["table", "fe-numbers", "--n-max", "2", "--u=--", "--out=--"],
], ids=["negative-u", "joined", "command-word-value", "verify", "no-variant", "audit",
        "audit-flags", "joined-double-dash"])
def test_plain_reader_reads_what_argparse_reads(argv):
    argv = cli._join_negative_values(argv)
    plain = cli._plain_args(argv)
    assert plain is not None
    assert vars(plain) == vars(argparse_args(argv))
