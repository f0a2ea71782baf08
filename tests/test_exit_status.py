"""The exit-status contract holds for any argv built from the registries.

``cli.run`` is called in-process on argv made of a command, a table
subject or an identity (or a name that is neither), the flags that the
subject or identity takes, and flags drawn from every registered value
flag, ``--variant`` and ``--format``, some without a value.  Values are
small integers (negatives included), 0, 1 and -1, rationals with small
and large denominators, and malformed strings.  Every run exits 0, 1 or 2
and prints no traceback; a 2 prints exactly one ``error:`` line and
nothing on stdout; a 0 or 1 prints JSON or CSV.  The same holds for
``audit --grid`` on grid files drawn from JSON seeded with the real
identity and axis names.  Sizes stay small, since no cost budget bounds
the work yet.
"""

import contextlib
import csv
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from feident import cli
from feident.verify import IDENTITIES, grid_axes, parameters

integers = st.integers(-3, 6).map(str)
rationals = st.one_of(integers, st.sampled_from(["1/2", "-5/7", "2/3", "7/1000003", "-1000003/2"]))
malformed = st.sampled_from(["", "x", "1/0", "1.5", "2/-3", "--", "1e3", " 2", "0x10", "1//2"])
# flag -> its well-formed values
CHOICES = {
    cli._flag(dest): integers if kind is int else rationals
    for command in ("table", "verify") for dest, (kind, _, _) in cli._value_flags(command).items()
} | {
    "--n-max": integers,
    "--variant": st.sampled_from(["as-printed", "corrected", "as_printed", "neither"]),
    "--format": st.sampled_from(["csv", "json", "xml"]),
}
FLAGS = sorted(CHOICES)


def often(draw, tenths: int) -> bool:
    """True in about ``tenths`` of ten draws."""
    return draw(st.sampled_from(range(10))) < tenths


def own_flags(command: str, name: str) -> list[str]:
    """The value flags that table subject or identity ``name`` takes."""
    if command == "table" and name in cli._SUBJECTS:
        return [cli._flag(dest) for dest in cli._SUBJECTS[name].flags] + ["--n-max"]
    if command == "verify" and name in IDENTITIES:
        return [cli._flag(dest) for dest in parameters(name) if dest != "variant"]
    return []


@st.composite
def argvs(draw) -> list[str]:
    command = draw(st.sampled_from(["table", "verify", "audit", "prove"]))
    argv = [command]
    flags = []
    if command in ("table", "verify"):
        names = sorted(cli._SUBJECTS) if command == "table" else list(IDENTITIES)
        name = draw(st.sampled_from(names + ["nothing"]))
        argv.append(name)
        flags = [flag for flag in own_flags(command, name) if often(draw, 9)]
    if not often(draw, 7):
        flags += draw(st.lists(st.sampled_from(FLAGS), min_size=1, max_size=2))
    for flag in draw(st.permutations(flags)):
        argv.append(flag)
        if often(draw, 9):
            argv.append(draw(CHOICES[flag] if often(draw, 9) else malformed))
    return argv


def parses(out: str) -> bool:
    """Whether ``out`` is one JSON document, or CSV with a header and rows
    of its width."""
    try:
        json.loads(out)
        return True
    except ValueError:
        rows = list(csv.reader(io.StringIO(out)))
        return len(rows) > 1 and all(len(row) == len(rows[0]) for row in rows)


@settings(deadline=None, max_examples=200)
@given(argvs())
def test_exit_status_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.run(argv)
    out, err = out.getvalue(), err.getvalue()
    assert status in (0, 1, 2), (status, err)
    assert "Traceback" not in out + err
    if status == 2:
        assert out == ""
        assert len([line for line in err.splitlines() if "error:" in line]) == 1, err
    else:
        assert parses(out), out


# Grid files: JSON drawn recursively from real identity and axis names and
# from values each axis takes, small enough that any well-formed grid runs
# in milliseconds, and from values no axis takes.
NAMES = sorted({*IDENTITIES, *(axis for i in IDENTITIES for axis in grid_axes(i)),
                *(name for i in IDENTITIES for name in parameters(i))})
grid_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 5),
    st.floats(allow_nan=False, allow_infinity=False, width=16),
    st.sampled_from(["as_printed", "corrected", "2", "1/3", "-5/7", "0", "1", "-1", "1/0",
                     "7/1000003", "x", "", "1.5", "2/-3"]),
    st.sampled_from(NAMES),
)
grid_json = st.recursive(
    grid_leaves,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.sampled_from(NAMES) | st.text(max_size=3), children, max_size=3),
    max_leaves=12,
)


def axis_values(identity: str, axis: str):
    """Values the axis takes: variants, small integers, small rationals
    (1 and 0 included, which some identities refuse), or pairs of them."""
    if axis == "variant":
        return st.sampled_from(["as_printed", "corrected"])
    rational = st.integers(-2, 3) | st.sampled_from(["2", "1/3", "-5/7", "1/2", "7/1000003"])
    if axis == "alpha_beta":
        return st.lists(rational, min_size=2, max_size=2)
    return st.integers(0, 4) if parameters(identity)[axis].integer else rational


@st.composite
def grids(draw):
    """A grid of real identities with short lists of values on each axis,
    an axis sometimes missing, any value, axis or extra key sometimes any
    JSON; or any JSON at all."""
    if not often(draw, 9):
        return draw(grid_json)
    grid = {}
    for identity in draw(st.lists(st.sampled_from(IDENTITIES), min_size=1, max_size=2,
                                  unique=True)):
        config = grid[identity] = {}
        for axis in grid_axes(identity):
            if not often(draw, 9):
                if often(draw, 5):
                    config[axis] = draw(grid_json)
                continue
            value = axis_values(identity, axis)
            config[axis] = draw(st.lists(value | grid_leaves if not often(draw, 8) else value,
                                         min_size=1, max_size=2))
        if not often(draw, 9):
            config[draw(st.sampled_from(NAMES))] = draw(grid_json)
    return grid


@settings(deadline=None, max_examples=150)
@given(grids(), st.sampled_from(range(10)).map(lambda tenth: tenth == 0))
def test_exit_status_contract_on_grid_files(tmp_path_factory, grid, truncate):
    text = json.dumps(grid)
    path = tmp_path_factory.getbasetemp() / "drawn_grid.json"
    path.write_text(text[:-1] if truncate else text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.run(["audit", "--grid", str(path)])
    out, err = out.getvalue(), err.getvalue()
    assert status in (0, 1, 2), (status, err)
    assert "Traceback" not in out + err
    if status == 2:
        assert out == ""
        assert len([line for line in err.splitlines() if "error:" in line]) == 1, err
    else:
        assert parses(out), out
