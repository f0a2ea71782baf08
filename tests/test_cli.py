"""Tests for the command-line interface."""

import csv
import decimal
import gc
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import feident
from caches import cold_caches
from feident import frobenius, prefix, series, stirling
from feident.cli import main, run
from feident.exact import parse_rational
from feident.frobenius import fe_polynomial
from feident.poly import Polynomial
from feident.series import frobenius_oracle, series_pow

FE_NUMBERS_CSV = "n,value\n0,1\n1,1\n2,3\n3,13\n4,75\n"


def run_capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


MODULE_CLI = [sys.executable, "-m", "feident.cli"]


def cli_env() -> dict:
    """This environment with this checkout's feident on ``PYTHONPATH``."""
    src = str(Path(feident.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def fresh_cli(argv, cwd=None) -> subprocess.CompletedProcess:
    """``python -m feident.cli argv`` run to its end in a new process, in
    ``cwd`` when given."""
    return subprocess.run(MODULE_CLI + argv, capture_output=True, env=cli_env(), timeout=120,
                          cwd=cwd)


def close_after_first_line(argv) -> tuple[bytes, int, bytes]:
    """The first stdout line of a fresh ``feident argv`` process whose
    reader then closes the pipe, its exit status and its stderr."""
    proc = subprocess.Popen(MODULE_CLI + argv, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=cli_env())
    try:
        line = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        return line, proc.wait(timeout=120), err
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()


class TestTable:
    def test_fe_numbers_csv(self, capsys):
        code, out, _ = run_capture(capsys, ["table", "fe-numbers", "--u", "2", "--n-max", "4"])
        assert code == 0
        assert out == FE_NUMBERS_CSV

    def test_stirling_json(self, capsys):
        code, out, _ = run_capture(
            capsys, ["table", "stirling", "--n-max", "4", "--format", "json"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["rows"] == [[1], [1, 1], [2, 3, 1], [6, 11, 6, 1]]

    def test_stirling_csv(self, capsys):
        code, out, _ = run_capture(capsys, ["table", "stirling", "--n-max", "3"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["N", "k", "a_k"]
        assert rows[1:] == [
            ["1", "0", "1"],
            ["2", "0", "1"],
            ["2", "1", "1"],
            ["3", "0", "2"],
            ["3", "1", "3"],
            ["3", "2", "1"],
        ]

    def test_bernoulli_table(self, capsys):
        code, out, _ = run_capture(capsys, ["table", "bernoulli", "--n-max", "3"])
        assert code == 0
        assert out == "n,value\n0,1\n1,-1/2\n2,1/6\n3,0\n"

    def test_fe_higher_table(self, capsys):
        code, out, _ = run_capture(
            capsys, ["table", "fe-higher", "--u", "2", "--N", "2", "--n-max", "2"]
        )
        assert code == 0
        assert out == "n,value\n0,1\n1,2\n2,8\n"

    @pytest.mark.parametrize("N", [1, 2, 3, 7, 20, 200])
    @pytest.mark.parametrize("u", ["1/3", "-5/7", "2", "-1", "0"])
    def test_fe_higher_rows_equal_the_series_route(self, capsys, u, N):
        """The rows come from the triangle route for N <= 6 (the
        recurrence at u = 0) and from the recurrence for N >= 7, on cold
        caches, and equal the series reference, the N-th power of the
        generating function."""
        want = series_pow(frobenius_oracle(Fraction(u), 60), N).coeffs
        cold_caches()
        code, out, _ = run_capture(
            capsys, ["table", "fe-higher", f"--u={u}", "--N", str(N), "--n-max", "60"])
        cold_caches()
        assert code == 0
        assert out == "n,value\n" + "".join(f"{n},{value}\n" for n, value in enumerate(want))

    def test_fe_higher_reads_the_triangle(self, capsys, monkeypatch):
        """a_1(N) + 1 for N >= 2 in the triangle changes the printed rows
        on the triangle side, 10N <= n_max."""
        argv = ["table", "fe-higher", "--u=-5/7", "--N", "7", "--n-max", "70"]
        cold_caches()
        _, want, _ = run_capture(capsys, argv)
        triangle_recurrence = stirling.triangle_recurrence

        def faulty(n_max, one=1):
            return (row[:1] + (row[1] + 1,) + row[2:] if len(row) > 1 else row
                    for row in triangle_recurrence(n_max, one))

        monkeypatch.setattr(frobenius, "triangle_recurrence", faulty)
        cold_caches()
        try:
            code, out, _ = run_capture(capsys, argv)
        finally:
            cold_caches()
        assert code == 0
        assert out != want

    def test_fe_higher_reads_the_recurrence(self, capsys, monkeypatch):
        """U(5,3) + 1 in the recurrence changes the printed rows on the
        recurrence side, from n = 5 on."""
        argv = ["table", "fe-higher", "--u=-5/7", "--N", "7", "--n-max", "14"]
        _, want, _ = run_capture(capsys, argv)
        higher_step = prefix._higher_step

        def faulty(a, b, row):
            row = higher_step(a, b, row)
            if len(row) == 6:
                row[3] += 1
            return row

        monkeypatch.setattr(prefix, "_higher_step", faulty)
        code, out, _ = run_capture(capsys, argv)
        assert code == 0
        changed = [n for n, (a, b) in enumerate(zip(out.splitlines(), want.splitlines()))
                   if a != b]
        assert changed == list(range(6, 16))  # lines of n = 5..14, after the header

    @pytest.mark.parametrize("u, N, n_max, triangle", [
        ("1/3", 3, 6, False),
        ("1/3", 4, 7, False),
        ("-5/7", 20, 40, False),
        ("-5/7", 41, 80, False),
        ("0", 3, 60, False),
        ("1/3", 10000, 1, False),
        ("1/3", 3, 30, True),
        ("1/3", 3, 29, False),
        ("-5/7", 8, 80, True),
        ("-5/7", 9, 80, False),
    ])
    def test_fe_higher_route_follows_the_sizes(self, capsys, monkeypatch, u, N, n_max, triangle):
        """The triangle route for 10N <= n_max and u != 0, else the
        recurrence, which reads no triangle row and builds no number
        table: a large order at a small n_max builds no N-row triangle."""
        reads = []
        triangle_recurrence = stirling.triangle_recurrence
        monkeypatch.setattr(frobenius, "triangle_recurrence",
                            lambda n, one=1: reads.append(n) or triangle_recurrence(n, one))
        cold_caches()
        try:
            code, out, _ = run_capture(
                capsys, ["table", "fe-higher", f"--u={u}", "--N", str(N), "--n-max", str(n_max)])
            tables = prefix._table.cache_info().currsize
        finally:
            cold_caches()
        want = series_pow(frobenius_oracle(Fraction(u), n_max), N).coeffs
        assert code == 0
        assert out == "n,value\n" + "".join(f"{n},{value}\n" for n, value in enumerate(want))
        assert (reads, tables) == (([N], 1) if triangle else ([], 0))

    def test_fe_higher_recurrence_side_in_a_fresh_process(self):
        """``python -m feident.cli`` prints the recurrence's rows at the
        benchmark's size, equal to the series reference."""
        proc = fresh_cli(["table", "fe-higher", "--u=-5/7", "--N", "20", "--n-max", "80"])
        want = series_pow(frobenius_oracle(Fraction(-5, 7), 80), 20).coeffs
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout.decode() == "n,value\n" + "".join(
            f"{n},{value}\n" for n, value in enumerate(want))

    def test_fe_polynomials_csv(self, capsys):
        code, out, _ = run_capture(
            capsys, ["table", "fe-polynomials", "--u", "-1", "--n-max", "2"]
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["n", "x^0", "x^1", "x^2"]
        assert rows[1] == ["0", "1", "0", "0"]
        assert rows[2] == ["1", "-1/2", "1", "0"]
        assert rows[3] == ["2", "0", "-1", "1"]

    def test_csv_and_json_contain_identical_values(self, capsys):
        base = ["table", "fe-polynomials", "--u", "1/3", "--n-max", "4"]
        code, csv_out, _ = run_capture(capsys, base)
        assert code == 0
        code, json_out, _ = run_capture(capsys, base + ["--format", "json"])
        assert code == 0
        csv_rows = list(csv.reader(io.StringIO(csv_out)))[1:]
        doc = json.loads(json_out)
        for csv_row, json_row in zip(csv_rows, doc["rows"], strict=True):
            assert csv_row[0] == str(json_row["n"])
            assert csv_row[1:] == json_row["coeffs"]

    def test_round_trip_of_emitted_rationals(self, capsys):
        code, out, _ = run_capture(
            capsys,
            ["table", "fe-polynomials", "--u", "1/3", "--n-max", "4", "--format", "json"],
        )
        assert code == 0
        doc = json.loads(out)
        for row in doc["rows"]:
            for text in row["coeffs"]:
                parse_rational(text)  # must not raise

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "table.csv"
        code, out, _ = run_capture(
            capsys, ["table", "fe-numbers", "--u", "2", "--n-max", "4", "--out", str(path)]
        )
        assert code == 0
        assert out == ""
        assert path.read_text(encoding="utf-8") == FE_NUMBERS_CSV

    def test_missing_required_parameter(self, capsys):
        code, out, err = run_capture(capsys, ["table", "fe-numbers", "--n-max", "4"])
        assert (code, out) == (2, "")
        assert err == "feident: error: the following arguments are required: --u\n"

    def test_subject_help_lists_exactly_its_flags(self, capsys):
        flags = {"fe-numbers": {"--u"}, "fe-polynomials": {"--u"}, "fe-higher": {"--u", "--N"},
                 "stirling": set(), "bernoulli": set()}
        for subject, taken in flags.items():
            code, out, _ = run_capture(capsys, ["table", subject, "--help"])
            assert code == 0
            shown = set(re.findall(r"^  (--[\w-]+)", out, re.MULTILINE))
            assert shown == taken | {"--n-max", "--format", "--out"}

    def test_u_equal_one_is_parameter_error(self, capsys):
        code, _, err = run_capture(capsys, ["table", "fe-numbers", "--u", "1", "--n-max", "2"])
        assert code == 2
        assert "u = 1" in err

    @pytest.mark.parametrize("subject, flag", [
        ("stirling", "--u"), ("stirling", "--N"), ("bernoulli", "--u"), ("bernoulli", "--N"),
        ("fe-numbers", "--N"), ("fe-polynomials", "--N"),
    ])
    def test_untaken_flag_is_usage_error(self, capsys, tmp_path, subject, flag):
        """A flag the subject does not take exits 2 with one line, as a flag
        the identity does not take does for ``verify``; nothing is written."""
        argv = table_argv(subject, 3) + [flag, "2"]
        path = tmp_path / "table.csv"
        code, out, err = run_capture(capsys, argv)
        assert (code, out) == (2, "")
        assert err == f"feident: error: unrecognized arguments: {flag} 2\n"
        assert run_capture(capsys, argv + ["--out", str(path)])[0] == 2
        assert not path.exists()

    @pytest.mark.parametrize("argv", [
        ["fe-numbers", "--u", "1", "--n-max", "2"],
        ["fe-polynomials", "--u", "1", "--n-max", "2"],
        ["fe-higher", "--u", "1", "--N", "2", "--n-max", "2"],
        ["fe-higher", "--u", "2", "--N", "0", "--n-max", "2"],
        ["fe-higher", "--u", "2", "--n-max", "2"],
        ["stirling", "--n-max", "0"],
    ])
    def test_parameter_error_writes_nothing(self, capsys, tmp_path, argv):
        """Flags and parameters are checked before the first byte is
        written, to stdout or to ``--out``."""
        path = tmp_path / "table.csv"
        code, out, err = run_capture(capsys, ["table", *argv, "--out", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith("feident: error: ") and err.count("\n") == 1
        assert not path.exists()


def table_argv(subject, n_max):
    extra = {"fe-numbers": ["--u=-5/7"], "fe-polynomials": ["--u=-5/7"],
             "fe-higher": ["--u=-5/7", "--N", "3"]}.get(subject, [])
    return ["table", subject, *extra, "--n-max", str(n_max)]


def csv_writer_rendering(doc) -> str:
    """The table's CSV as ``csv.writer`` writes it, from its JSON document."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    if doc["table"] == "stirling":
        writer.writerow(["N", "k", "a_k"])
        for i, row in enumerate(doc["rows"], start=1):
            writer.writerows([i, k, value] for k, value in enumerate(row))
    elif doc["table"] == "fe-polynomials":
        writer.writerow(["n"] + [f"x^{d}" for d in range(len(doc["rows"][0]["coeffs"]))])
        writer.writerows([row["n"]] + row["coeffs"] for row in doc["rows"])
    else:
        writer.writerow(["n", "value"])
        writer.writerows([row["n"], row["value"]] for row in doc["rows"])
    return out.getvalue()


def decimal_context() -> tuple:
    """The precision, Emax and trapped signals of the current decimal context."""
    ctx = decimal.getcontext()
    return ctx.prec, ctx.Emax, frozenset(signal for signal, on in ctx.traps.items() if on)


# A caller's own decimal context, far from the one the triangle is built in:
# rows built under it would raise Inexact from N = 11 on.
CALLER_CONTEXT = decimal.Context(prec=7, Emax=99, traps=[decimal.Inexact, decimal.Overflow])


def int_rows_text(n_max: int, fmt: str) -> str:
    """The stirling table as it was written from the ``int`` rows of the
    recurrence: CSV one line per value, JSON one ``json.dumps``."""
    rows = [list(row) for row in stirling.triangle_recurrence(n_max)]
    if fmt == "json":
        return json.dumps({"table": "stirling", "n_max": n_max, "rows": rows}, indent=2) + "\n"
    return "N,k,a_k\n" + "".join(f"{len(row)},{k},{a}\n" for row in rows for k, a in enumerate(row))


class TestStirlingDecimal:
    """``table stirling`` prints exact ``Decimal`` rows: their text is
    that of the ``int`` rows, a fault in the recurrence reaches it, and
    the caller's decimal context holds throughout."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("n_max", [1, 2, 400])
    def test_text_is_that_of_the_int_rows(self, capsys, n_max, fmt):
        argv = ["table", "stirling", "--n-max", str(n_max), "--format", fmt]
        assert run_capture(capsys, argv) == (0, int_rows_text(n_max, fmt), "")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_a_fault_in_the_recurrence_reaches_the_text(self, capsys, monkeypatch, fmt):
        """A +1 on a_0 of each new row changes what is printed, to the text
        of the faulty ``int`` rows."""
        argv = ["table", "stirling", "--n-max", "6", "--format", fmt]
        _, want, _ = run_capture(capsys, argv)
        next_row = stirling._next_row

        def faulty(prev, n):
            row = next_row(prev, n)
            return (row[0] + 1,) + row[1:]

        monkeypatch.setattr(stirling, "_next_row", faulty)
        code, out, _ = run_capture(capsys, argv)
        assert code == 0
        assert out != want
        assert out == int_rows_text(6, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_caller_context_holds_between_rows_and_after(self, monkeypatch, fmt):
        """Each write, and the return of ``run``, sees the caller's context."""
        seen = []

        class Stream:
            def write(self, text):
                seen.append(decimal_context())

            def writelines(self, chunks):
                for chunk in chunks:
                    self.write(chunk)

            def flush(self):
                pass

        monkeypatch.setattr(sys, "stdout", Stream())
        with decimal.localcontext(CALLER_CONTEXT):
            want = decimal_context()
            assert run(["table", "stirling", "--n-max", "30", "--format", fmt]) == 0
            assert decimal_context() == want
        # the head, then one write per row (and JSON's closing brackets)
        assert len(seen) == (31 if fmt == "csv" else 32)
        assert set(seen) == {want}

    def test_caller_context_holds_after_a_closed_reader(self, monkeypatch):
        """A reader that closes stdout after the header and two rows leaves
        the rows' generator suspended, and the caller's context as it was."""
        writes = []

        class Closed:
            def write(self, text):
                writes.append(text)
                if len(writes) > 3:
                    raise BrokenPipeError

            def writelines(self, chunks):
                for chunk in chunks:
                    self.write(chunk)

            def flush(self):
                pass

        monkeypatch.setattr(sys, "stdout", Closed())
        with decimal.localcontext(CALLER_CONTEXT):
            want = decimal_context()
            assert run(["table", "stirling", "--n-max", "30"]) == 141
            assert decimal_context() == want
        assert len(writes) == 4


class TestTableRendering:
    """Tables are written row by row without ``csv.writer``; the bytes must
    be what ``csv.writer`` would have written."""

    @pytest.mark.parametrize("n_max", [0, 1, 40])
    @pytest.mark.parametrize(
        "subject", ["fe-numbers", "fe-polynomials", "fe-higher", "stirling", "bernoulli"]
    )
    def test_csv_matches_csv_writer(self, capsys, subject, n_max):
        argv = table_argv(subject, n_max)
        code, out, err = run_capture(capsys, argv)
        json_code, doc, _ = run_capture(capsys, argv + ["--format", "json"])
        assert code == json_code
        if subject == "stirling" and n_max == 0:
            assert (code, out) == (2, "")
            assert "--n-max >= 1" in err
        else:
            assert code == 0
            assert out == csv_writer_rendering(json.loads(doc))

    # r = p - q is -1 at 8/9 and 1 at 5/4
    @pytest.mark.parametrize("u", ["2", "0", "-1", "1/3", "-5/7", "8/9", "5/4"])
    def test_polynomial_rows_are_the_library_polynomials(self, capsys, u):
        """Each row's coefficients are those of ``fe_polynomial``, padded
        with zeros to ``--n-max``, in CSV and in JSON."""
        n_max = 40
        want = []
        for n in range(n_max + 1):
            coeffs = [str(c) for c in fe_polynomial(n, parse_rational(u)).coeffs]
            want.append(coeffs + ["0"] * (n_max - n))
        argv = ["table", "fe-polynomials", f"--u={u}", "--n-max", str(n_max)]
        code, out, _ = run_capture(capsys, argv)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert rows == [[str(n), *coeffs] for n, coeffs in enumerate(want)]
        code, out, _ = run_capture(capsys, argv + ["--format", "json"])
        assert code == 0
        assert json.loads(out)["rows"] == [
            {"n": n, "coeffs": coeffs} for n, coeffs in enumerate(want)]

    @pytest.mark.parametrize("u", ["1/3", "-5/7", "2", "-1"])
    def test_polynomial_rows_past_the_switch_are_the_series_route(self, capsys, u):
        """Past n = 64 the number table builds H_n by Euler-Seidel, not the
        gamma route.  Each row, in CSV and in JSON, is the Appell polynomial
        of the series route's H_0..H_n, which reads no number table, padded
        with zeros to ``--n-max``."""
        n_max = 70
        numbers = frobenius_oracle(parse_rational(u), n_max).coeffs
        want = [[str(c) for c in Polynomial.appell(numbers[: n + 1]).coeffs] + ["0"] * (n_max - n)
                for n in range(n_max + 1)]
        argv = ["table", "fe-polynomials", f"--u={u}", "--n-max", str(n_max)]
        cold_caches()
        try:
            code, out, _ = run_capture(capsys, argv)
            json_code, json_out, _ = run_capture(capsys, argv + ["--format", "json"])
        finally:
            cold_caches()
        assert (code, json_code) == (0, 0)
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert rows == [[str(n), *coeffs] for n, coeffs in enumerate(want)]
        assert json.loads(json_out)["rows"] == [
            {"n": n, "coeffs": coeffs} for n, coeffs in enumerate(want)]

    @pytest.mark.parametrize(
        "subject", ["fe-numbers", "fe-polynomials", "fe-higher", "stirling", "bernoulli"]
    )
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_out_file_bytes_equal_stdout_bytes(self, capsys, tmp_path, subject, fmt):
        argv = table_argv(subject, 12) + ["--format", fmt]
        _, out, _ = run_capture(capsys, argv)
        path = tmp_path / "table.out"
        assert run_capture(capsys, argv + ["--out", str(path)]) == (0, "", "")
        assert path.read_bytes() == out.encode("utf-8")

    def test_stirling_is_streamed(self, tmp_path):
        """The whole text is never held: the peak of traced allocations
        stays below the size of the file written, for the triangle and for
        the polynomials (about 7 MB at this size, 8 MB in JSON), in CSV
        and in JSON, none of which is kept."""
        for argv in (["stirling", "--n-max", "200"],
                     ["stirling", "--n-max", "200", "--format", "json"],
                     ["fe-polynomials", "--u=5/8", "--n-max", "250"],
                     ["fe-polynomials", "--u=5/8", "--n-max", "250", "--format", "json"]):
            path = tmp_path / f"{argv[0]}.out"
            tracemalloc.start()
            try:
                code = run(["table", *argv, "--out", str(path)])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 0
            assert peak < path.stat().st_size, argv

    @pytest.mark.parametrize("subject, computes", [
        ("fe-numbers", "fe_number"),
        # each row reads the new H_n and formats the coefficients from
        # H_0..H_n
        ("fe-polynomials", "fe_number"),
        ("bernoulli", "bernoulli_number"),
        # one recurrence call makes every value; each row is formatted as
        # it is written, which its values' __str__ logs
        ("fe-higher", "_recurrence_numbers"),
    ])
    def test_first_row_is_written_before_the_last_is_computed(
        self, capsys, monkeypatch, subject, computes
    ):
        # the row generators import their kernel when they run, so the
        # patch goes where they read it
        argv = table_argv(subject, 6)
        _, want, _ = run_capture(capsys, argv)
        events = []
        home = series if computes == "bernoulli_number" else prefix
        kernel = getattr(home, computes)

        class Logged(Fraction):
            def __str__(self):
                events.append(computes)
                return super().__str__()

        def logged(*args):
            if computes == "_recurrence_numbers":
                return tuple([Logged(value) for value in kernel(*args)])
            events.append(computes)
            return kernel(*args)

        class Stream:
            def write(self, text):
                events.append(text)

            def writelines(self, chunks):
                for chunk in chunks:
                    self.write(chunk)

            def flush(self):
                pass

        monkeypatch.setattr(home, computes, logged)
        monkeypatch.setattr(sys, "stdout", Stream())
        assert run(argv) == 0
        writes = [event for event in events if event != computes]
        assert "".join(writes) == want
        assert events.count(computes) >= 7  # one per row, n = 0..6
        first_row = events.index(writes[1])  # writes[0] is the header
        last_value = len(events) - 1 - events[::-1].index(computes)
        assert first_row < last_value

    def test_stirling_row_is_built_when_it_is_written(self, monkeypatch):
        """Each row of the triangle is built from the one before only when
        the table reaches it: writes and builds alternate, and row 6 is
        built after row 5 is written."""
        events = []
        next_row = stirling._next_row
        monkeypatch.setattr(stirling, "_next_row",
                            lambda prev, n: events.append(n + 1) or next_row(prev, n))

        class Stream:
            def write(self, text):
                events.append(text)

            def writelines(self, chunks):
                for chunk in chunks:
                    self.write(chunk)

            def flush(self):
                pass

        monkeypatch.setattr(sys, "stdout", Stream())
        assert run(["table", "stirling", "--n-max", "6"]) == 0
        # the header and row 1, then (build row N, write row N) for N = 2..6
        assert events[:2] == ["N,k,a_k\n", "1,0,1\n"]
        assert events[2::2] == [2, 3, 4, 5, 6]
        assert all(isinstance(text, str) for text in events[3::2])
        assert len(events) == 12


class TestVerifyCommand:
    def test_pass_exits_zero(self, capsys):
        code, out, _ = run_capture(
            capsys,
            ["verify", "theorem3", "--n", "2", "--N", "2", "--u", "2", "--variant", "corrected"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "pass"
        assert doc["params"] == {"n": "2", "N": "2", "u": "2"}

    def test_default_variant_is_corrected(self, capsys):
        code, out, _ = run_capture(
            capsys, ["verify", "theorem3", "--n", "2", "--N", "2", "--u", "2"]
        )
        assert code == 0
        assert json.loads(out)["variant"] == "corrected"

    def test_fail_exits_one(self, capsys):
        code, out, _ = run_capture(
            capsys,
            [
                "verify", "theorem1",
                "--N", "2", "--u", "2", "--trunc", "10",
                "--variant", "as-printed",
            ],
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["verdict"] == "fail"
        assert doc["mismatches"][0] == {"at": "t^0", "lhs": "2", "rhs": "-2"}

    def test_csv_report(self, capsys):
        code, out, _ = run_capture(
            capsys,
            [
                "verify", "carlitz_product",
                "--m", "0", "--n", "0", "--alpha", "2", "--beta", "3",
                "--variant", "as-printed", "--format", "csv",
            ],
        )
        assert code == 1
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["identity", "variant", "params", "verdict", "at", "lhs", "rhs"]
        assert rows[1] == [
            "carlitz_product", "as_printed",
            "m=0;n=0;alpha=2;beta=3", "fail", "x^0", "1", "8/5",
        ]

    def test_parameter_error_exits_two(self, capsys):
        code, _, err = run_capture(capsys, ["verify", "theorem1", "--N", "2", "--u", "1"])
        assert code == 2
        assert "u = 1" in err

    def test_missing_flag_exits_two(self, capsys):
        code, out, err = run_capture(capsys, ["verify", "theorem1", "--u", "2"])
        assert (code, out) == (2, "")
        assert err == "feident: error: the following arguments are required: --N\n"

    def test_variant_rejected_where_not_applicable(self, capsys):
        code, _, err = run_capture(
            capsys,
            [
                "verify", "eq60_multinomial",
                "--n", "2", "--N", "2", "--u", "2", "--variant", "corrected",
            ],
        )
        assert code == 2
        assert "variant" in err

    def test_flag_not_taken_exits_two(self, capsys):
        code, out, err = run_capture(
            capsys,
            ["verify", "theorem3", "--n", "1", "--N", "2", "--u", "2", "--x", "9", "--trunc", "3"],
        )
        assert (code, out) == (2, "")
        assert err == "feident: error: unrecognized arguments: --x 9 --trunc 3\n"

    def test_invalid_rational_flag_exits_two(self, capsys):
        code, _, _ = run_capture(capsys, ["verify", "theorem1", "--N", "2", "--u", "1/0"])
        assert code == 2

    def test_unknown_identity_exits_two(self, capsys):
        code, _, _ = run_capture(capsys, ["verify", "theorem99", "--n", "1"])
        assert code == 2


@pytest.mark.parametrize("argv, text", [
    (["table", "fe-numbers", "--u", "x", "--n-max", "2"], "x"),
    (["table", "fe-numbers", "--u", "1/0", "--n-max", "2"], "1/0"),
    (["table", "fe-higher", "--u", "0.5", "--N", "2", "--n-max", "2"], "0.5"),
    (["verify", "carlitz_product", "--m", "1", "--n", "1", "--alpha", "x", "--beta", "2"], "x"),
    (["verify", "corollary2", "--N", "2", "--u", "2", "--x", "1e3"], "1e3"),
    (["table", "fe-numbers", "--u", "\u0661/\u0663", "--n-max", "1"], "\u0661/\u0663"),
    (["verify", "theorem3", "--n", "1", "--N", "2", "--u", "\uff12"], "\uff12"),
], ids=["table-not-pq", "table-zero-denominator", "table-decimal", "verify-not-pq",
        "verify-exponent", "table-non-ascii-digits", "verify-non-ascii-digit"])
def test_malformed_rational_flag_prints_the_readers_message(capsys, argv, text):
    """A rational flag is read by ``parse_rational``, the reader of grid
    files too: one line with its own message, and nothing written."""
    with pytest.raises(ValueError) as refused:
        parse_rational(text)
    assert run_capture(capsys, argv) == (2, "", f"feident: error: {refused.value}\n")


INTEGER_FLAG_CALLS = {
    "--n-max": ["table", "stirling", "--n-max", "{}"],
    "--N": ["table", "fe-higher", "--u", "2", "--N", "{}", "--n-max", "3"],
    "--n": ["verify", "theorem3", "--n", "{}", "--N", "2", "--u", "2"],
    "--trunc": ["verify", "theorem1", "--N", "2", "--u", "2", "--trunc", "{}"],
}


@pytest.mark.parametrize("text", ["٣", "1_0", "+3", " 3"],
                         ids=["arabic-indic-digit", "underscore", "plus", "space"])
@pytest.mark.parametrize("flag", INTEGER_FLAG_CALLS)
def test_integer_flags_take_only_ascii_digits(capsys, flag, text):
    """An integer flag is ASCII digits after an optional ``-``; other text
    that ``int()`` would read gets argparse's line, and nothing is written."""
    argv = [token.format(text) for token in INTEGER_FLAG_CALLS[flag]]
    assert run_capture(capsys, argv) == (
        2, "", f"feident: error: argument {flag}: invalid int value: {text!r}\n")
    code, out, err = run_capture(capsys, [token.format("3") for token in INTEGER_FLAG_CALLS[flag]])
    assert code in (0, 1) and out and err == ""


class TestNegativeRationalFlags:
    """``--u -5/7`` reads like ``--u=-5/7`` for every rational flag."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["table", "fe-numbers", "--u", "-5/7", "--n-max", "6"],
            ["table", "fe-higher", "--u", "-1/3", "--N", "2", "--n-max", "5"],
            ["table", "fe-polynomials", "--u", "-5/7", "--n-max", "4", "--format", "json"],
            ["verify", "theorem1", "--N", "3", "--u", "-5/7", "--trunc", "8"],
            ["verify", "corollary2", "--N", "2", "--u", "-5/7", "--x", "-1/2"],
            ["verify", "theorem3", "--n", "2", "--N", "2", "--u", "-2", "--variant", "as-printed"],
            ["verify", "carlitz_product", "--m", "1", "--n", "2", "--alpha", "-2",
             "--beta", "-1/3"],
            ["verify", "carlitz_reciprocal", "--m", "1", "--n", "1", "--alpha", "-5/7"],
            ["verify", "corollary4", "--n", "2", "--N", "2", "--u", "-5/7"],
            ["verify", "corollary5", "--n", "2", "--N", "2", "--u", "-5/7"],
            ["verify", "eq60_multinomial", "--n", "2", "--N", "2", "--u", "-5/7"],
        ],
    )
    def test_separate_value_matches_joined(self, capsys, argv):
        joined = []
        for token in argv:
            if token.startswith("-") and not token.startswith("--"):
                joined[-1] += "=" + token
            else:
                joined.append(token)
        assert joined != argv
        separate = run_capture(capsys, argv)
        assert separate[0] in (0, 1)
        assert separate[2] == ""
        assert separate == run_capture(capsys, joined)

    def test_non_rational_value_still_exits_two(self, capsys):
        code, out, err = run_capture(capsys, ["table", "fe-numbers", "--u", "-x", "--n-max", "2"])
        assert (code, out) == (2, "")
        assert "--u" in err

    @pytest.mark.parametrize("argv, flag", [
        (["table", "fe-numbers", "--u", "2", "--n-max", "-5/7"], "--n-max"),
        (["table", "fe-higher", "--u", "2", "--N", "-5/7", "--n-max", "2"], "--N"),
        (["verify", "theorem3", "--n", "-5/7", "--N", "2", "--u", "2"], "--n"),
    ], ids=["table-n-max", "table-N", "verify-n"])
    def test_negative_rational_for_an_integer_flag(self, capsys, argv, flag):
        """The value is joined to any flag, so argparse names the flag and
        the value instead of reporting a missing argument."""
        code, out, err = run_capture(capsys, argv)
        assert (code, out) == (2, "")
        assert err == f"feident: error: argument {flag}: invalid int value: '-5/7'\n"


class TestAuditCommand:
    def test_custom_grid_all_pass(self, capsys, tmp_path):
        grid = {
            "bernoulli_product": {"m": [1, 2], "n": [1, 2]},
        }
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(grid), encoding="utf-8")
        code, out, _ = run_capture(capsys, ["audit", "--grid", str(path)])
        assert code == 0
        doc = json.loads(out)
        assert doc["summary"]["total"] == 4
        assert doc["summary"]["pass"] == 4

    def test_failing_grid_exits_one(self, capsys, tmp_path):
        grid = {
            "theorem3": {
                "variant": ["as_printed"],
                "n": [0],
                "N": [2],
                "u": ["2"],
            }
        }
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(grid), encoding="utf-8")
        code, out, _ = run_capture(capsys, ["audit", "--grid", str(path)])
        assert code == 1
        assert json.loads(out)["summary"]["fail"] == 1

    def test_grid_determinism(self, capsys, tmp_path):
        grid = {
            "carlitz_reciprocal": {"m": [0, 1], "n": [0, 1], "alpha": ["2", "-2"]},
        }
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(grid), encoding="utf-8")
        _, out1, _ = run_capture(capsys, ["audit", "--grid", str(path)])
        _, out2, _ = run_capture(capsys, ["audit", "--grid", str(path)])
        assert out1 == out2

    def test_missing_grid_file_exits_two(self, capsys, tmp_path):
        code, _, err = run_capture(capsys, ["audit", "--grid", str(tmp_path / "nope.json")])
        assert code == 2
        assert "error" in err

    def test_malformed_grid_file_exits_two(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        code, _, _ = run_capture(capsys, ["audit", "--grid", str(path)])
        assert code == 2

    def test_deeply_nested_grid_file_exits_two(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
        code, out, err = run_capture(capsys, ["audit", "--grid", str(path)])
        assert (code, out) == (2, "")
        assert err == "feident: error: grid file is nested too deeply\n"

    @pytest.mark.parametrize(
        "grid",
        [
            [1, 2],
            {"theorem1": 5},
            {"bernoulli_product": {"m": 1, "n": [1]}},
        ],
        ids=["top-level-not-object", "identity-not-object", "axis-not-list"],
    )
    def test_malformed_grid_shape_exits_two(self, capsys, tmp_path, grid):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(grid), encoding="utf-8")
        code, out, err = run_capture(capsys, ["audit", "--grid", str(path)])
        assert code == 2
        assert out == ""
        assert err.startswith("feident: error: ")
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err

    def test_malformed_axis_reported_before_any_check(self, capsys, tmp_path):
        grid = {
            "bernoulli_product": {"m": [1], "n": [1]},
            "theorem3": {"variant": ["corrected"], "n": [0], "N": "2", "u": ["2"]},
        }
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(grid), encoding="utf-8")
        code, out, err = run_capture(capsys, ["audit", "--grid", str(path)])
        assert code == 2
        assert out == ""
        assert "'N'" in err

    def test_csv_format(self, capsys, tmp_path):
        grid = {"bernoulli_product": {"m": [1], "n": [1]}}
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(grid), encoding="utf-8")
        code, out, _ = run_capture(capsys, ["audit", "--grid", str(path), "--format", "csv"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[1][:4] == ["bernoulli_product", "not_applicable", "m=1;n=1", "pass"]


@pytest.fixture
def low_digit_limit():
    """The lowest int-to-str digit limit CPython allows, restored after."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield
    sys.set_int_max_str_digits(before)


class TestDigitLimit:
    """The CLI prints exact values of any size under the caller's digit
    limit, and gives the caller that limit back; the library never
    changes it."""

    def test_table_matches_an_unlimited_run(self, capsys, low_digit_limit):
        argv = ["table", "fe-numbers", "--u", "1/3", "--n-max", "400"]
        code, out, err = run_capture(capsys, argv)
        assert (code, err) == (0, "")
        assert sys.get_int_max_str_digits() == 640
        assert max(len(line) for line in out.splitlines()) > 640
        sys.set_int_max_str_digits(0)
        assert run_capture(capsys, argv) == (0, out, "")

    def test_failing_verify_exits_one(self, capsys, low_digit_limit):
        code, out, err = run_capture(capsys, [
            "verify", "theorem3", "--n", "400", "--N", "2", "--u", "1/3",
            "--variant", "as-printed",
        ])
        assert (code, err) == (1, "")
        assert json.loads(out)["verdict"] == "fail"
        assert sys.get_int_max_str_digits() == 640

    def test_failing_audit_case_is_fail_not_error(self, capsys, tmp_path, low_digit_limit):
        path = tmp_path / "grid.json"
        grid = {"theorem3": {"variant": ["as_printed"], "n": [400], "N": [2], "u": ["1/3"]}}
        path.write_text(json.dumps(grid), encoding="utf-8")
        code, out, _ = run_capture(capsys, ["audit", "--grid", str(path)])
        assert code == 1
        assert [r["verdict"] for r in json.loads(out)["reports"]] == ["fail"]
        assert sys.get_int_max_str_digits() == 640

    @pytest.mark.parametrize(
        "argv", [["table", "fe-numbers", "--u", "1", "--n-max", "2"], ["table", "--bogus"]],
        ids=["parameter-error", "usage-error"],
    )
    def test_limit_restored_after_an_error(self, capsys, low_digit_limit, argv):
        assert run_capture(capsys, argv)[0] == 2
        assert sys.get_int_max_str_digits() == 640

    def test_only_the_cli_changes_the_limit(self):
        package = Path(feident.__file__).parent
        setters = [p.name for p in sorted(package.glob("*.py"))
                   if "set_int_max_str_digits" in p.read_text(encoding="utf-8")]
        assert setters == ["cli.py"]


class TestUsage:
    def test_no_command_exits_two(self, capsys):
        code, _, _ = run_capture(capsys, [])
        assert code == 2

    def test_unknown_command_exits_two(self, capsys):
        code, _, _ = run_capture(capsys, ["frobnicate"])
        assert code == 2

    def test_unknown_flag_exits_two(self, capsys):
        code, _, _ = run_capture(capsys, ["table", "stirling", "--n-max", "2", "--bogus"])
        assert code == 2

    @pytest.mark.parametrize("argv", [
        [], ["frobnicate"], ["table"], ["verify", "theorem99"],
        ["table", "fe-numbers", "--u", "2", "--n-max", "abc"],
        ["table", "--u", "2", "fe-numbers", "--n-max", "2"],
        ["verify", "--n", "1", "theorem3", "--N", "2", "--u", "2"],
    ], ids=["no-command", "unknown-command", "no-subject", "unknown-identity",
            "bad-value", "flag-before-subject", "flag-before-identity"])
    def test_argparse_errors_are_one_line(self, capsys, argv):
        """argparse's own errors print no usage block: one line, status 2."""
        code, out, err = run_capture(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith("feident: error: ") and err.count("\n") == 1


FE_NUMBERS_THIRD = "n,value\n0,1\n1,-3/2\n2,3\n3,-33/4\n"


class TestFlagSpellings:
    """Command lines that are not written one flag and one value at a time,
    each flag once, read as they always have."""

    @pytest.mark.parametrize("argv", [
        ["table", "fe-numbers", "--u", "1/3", "--n-m", "3"],
        ["table", "fe-numbers", "--u", "1/3", "--n-max", "2", "--n-max", "3"],
        ["table", "fe-numbers", "--u=1/3", "--n-max", "3"],
        ["table", "fe-numbers", "--n-max=3", "--u", "1/3"],
        ["table", "fe-numbers", "--u", "1/2", "--n-max", "3", "--u=1/3"],
    ], ids=["abbreviated", "repeated-last-wins", "joined-then-separate",
            "separate-after-joined", "joined-repeat"])
    def test_spellings_of_one_table(self, capsys, argv):
        assert run_capture(capsys, argv) == (0, FE_NUMBERS_THIRD, "")

    def test_value_that_is_a_command_word(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        argv = ["table", "fe-numbers", "--u", "1/3", "--n-max", "3", "--out", "table"]
        assert run_capture(capsys, argv) == (0, "", "")
        assert (tmp_path / "table").read_text(encoding="utf-8") == FE_NUMBERS_THIRD

    def test_bare_double_dash_ends_the_flags(self, capsys):
        argv = ["table", "fe-numbers", "--", "--u", "1/3", "--n-max", "3"]
        assert run_capture(capsys, argv) == (
            2, "", "feident: error: the following arguments are required: --u, --n-max\n")


class TestJoinedDoubleDash:
    """A joined ``--`` value (``--u=--``) is the text ``--`` on every
    supported Python, as argparse reads it from 3.13 on (before 3.13 it
    dropped the value, and the command ended in a traceback): a rational
    that is not p/q, a file name.  Each runs in a new process in an empty
    directory."""

    @pytest.mark.parametrize("argv", [
        ["table", "fe-numbers", "--n-max", "2", "--u=--"],
        ["verify", "theorem3", "--n", "1", "--N", "2", "--u=--"],
        ["verify", "corollary2", "--N", "2", "--u", "2", "--x=--"],
    ], ids=["table-u", "theorem3-u", "corollary2-x"])
    def test_rational_is_not_p_over_q(self, tmp_path, argv):
        proc = fresh_cli(argv, cwd=tmp_path)
        assert (proc.returncode, proc.stdout) == (2, b"")
        assert proc.stderr == b"feident: error: not a rational in p/q form: '--'\n"

    def test_grid_is_a_file_name(self, tmp_path):
        proc = fresh_cli(["audit", "--grid=--"], cwd=tmp_path)
        assert (proc.returncode, proc.stdout) == (2, b"")
        assert proc.stderr == b"feident: error: [Errno 2] No such file or directory: '--'\n"

    def test_out_is_a_file_name(self, tmp_path):
        proc = fresh_cli(["table", "stirling", "--n-max", "2", "--out=--"], cwd=tmp_path)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
        assert (tmp_path / "--").read_text(encoding="utf-8") == "N,k,a_k\n1,0,1\n2,0,1\n2,1,1\n"


# Above sys.maxsize: each fails before it allocates anything.
HUGE = "99999999999999999999"


class TestSizesTooLarge:
    """A size Python cannot hold (OverflowError) or memory cannot (MemoryError)
    is a parameter error: status 2, one line, no traceback.  A size past
    ``sys.maxsize`` is refused by name (or the sum ``m + n`` by its own)
    before any work starts."""

    @pytest.mark.parametrize("argv, name", [
        (["verify", "theorem1", "--N", "2", "--u", "2", "--trunc", HUGE], "T"),
        (["verify", "corollary4", "--n", HUGE, "--N", "2", "--u", "2"], "n"),
        (["verify", "bernoulli_product", "--m", HUGE, "--n", "2"], "m + n"),
        (["verify", "carlitz_reciprocal", "--m", HUGE, "--n", "1", "--alpha", "2"], "m + n"),
    ], ids=["theorem1-trunc", "corollary4-n", "bernoulli_product-m", "carlitz_reciprocal-m"])
    def test_size_past_maxsize_exits_two(self, capsys, argv, name):
        assert int(HUGE) > sys.maxsize
        code, out, err = run_capture(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith("feident: error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert err == f"feident: error: {name} is too large: must be <= {sys.maxsize}\n"

    @pytest.mark.parametrize("argv, name", [
        (["verify", "carlitz_product", "--m", "1", "--n", HUGE, "--alpha", "2", "--beta", "3"],
         "m + n"),
        (["verify", "theorem3", "--n", "2", "--N", HUGE, "--u", "2"], "N"),
        (["table", "fe-higher", "--u", "2", "--N", HUGE, "--n-max", "2"], "--N"),
        (["table", "stirling", "--n-max", HUGE], "--n-max"),
    ], ids=["carlitz_product-n", "theorem3-N", "fe-higher-N", "stirling-n-max"])
    def test_size_past_maxsize_is_refused_by_name(self, capsys, argv, name):
        """theorem3 at such an N ran until it was stopped."""
        assert run_capture(capsys, argv) == (
            2, "", f"feident: error: {name} is too large: must be <= {sys.maxsize}\n")

    def test_size_past_maxsize_in_a_grid_is_an_error_report(self, capsys, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"corollary4": {"variant": ["corrected"], "n": [int(HUGE)],
                                                   "N": [2], "u": ["2"]}}), encoding="utf-8")
        code, out, err = run_capture(capsys, ["audit", "--grid", str(grid)])
        assert (code, err) == (1, "")
        [report] = json.loads(out)["reports"]
        assert report["verdict"] == "error"
        assert report["params"]["n"] == HUGE
        assert "too large" in report["error"]

    @pytest.mark.parametrize("kernel, argv", [
        ("fe_number", ["table", "fe-numbers", "--u", "2", "--n-max", "3"]),
        ("series_pow", ["verify", "theorem1", "--N", "2", "--u", "13/7"]),
    ], ids=["table", "verify"])
    def test_out_of_memory_exits_two(self, capsys, monkeypatch, kernel, argv):
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(prefix if kernel == "fe_number" else frobenius, kernel, exhausted)
        assert run_capture(capsys, argv) == (2, "", "feident: error: out of memory\n")


def interrupted(*args, **kwargs):
    raise KeyboardInterrupt


class TestInterruptsAndClosedPipes:
    """Ctrl-C gives status 130 and one line; a reader that closes stdout
    early gives 141, with nothing on stderr.  Neither prints a traceback."""

    @pytest.mark.parametrize("command", ["verify", "audit"])
    def test_interrupted_checker_exits_130(self, capsys, monkeypatch, command):
        from feident import verify

        monkeypatch.setitem(verify.CHECKERS, "theorem3", interrupted)
        argv = (["verify", "theorem3", "--n", "3", "--N", "2", "--u", "2"]
                if command == "verify" else ["audit"])
        limit = sys.get_int_max_str_digits()
        code, out, err = run_capture(capsys, argv)
        assert code == 130
        assert (out, err) == ("", "feident: interrupted\n")
        assert sys.get_int_max_str_digits() == limit

    def test_interrupted_table_exits_130(self, capsys, monkeypatch):
        """Rows are written as they are computed, so what came before the
        interrupt has been written."""
        kernel = prefix.fe_number
        monkeypatch.setattr(prefix, "fe_number",
                            lambda n, u: interrupted() if n == 2 else kernel(n, u))
        code, out, err = run_capture(capsys, ["table", "fe-numbers", "--u", "2", "--n-max", "3"])
        assert code == 130
        assert (out, err) == ("n,value\n0,1\n1,1\n", "feident: interrupted\n")

    def test_closed_stdout_exits_quietly(self):
        # about 780 KB of CSV, far more than a pipe holds
        argv = ["table", "fe-numbers", "--u", "2", "--n-max", "800"]
        assert close_after_first_line(argv) == (b"n,value\n", 141, b"")

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_closed_pipe_runs_leave_no_descriptor_open(self, monkeypatch):
        """Each run against a closed pipe points stdout at the null device,
        and closes the descriptor it opened for that."""

        def closed_pipe_run():
            read, write = os.pipe()
            os.close(read)
            with open(write, "w", encoding="utf-8") as stream:
                monkeypatch.setattr(sys, "stdout", stream)
                code = run(["table", "fe-numbers", "--u", "2", "--n-max", "40"])
                monkeypatch.undo()
            return code

        assert closed_pipe_run() == 141
        before = len(os.listdir("/proc/self/fd"))
        assert [closed_pipe_run() for _ in range(5)] == [141] * 5
        assert len(os.listdir("/proc/self/fd")) == before

    def test_closed_stdout_without_a_descriptor_is_left_in_place(self, capsys, monkeypatch):
        """An in-memory stdout has no descriptor to point at the null
        device: a closed reader still gives 141 with nothing on stderr, and
        that stdout stays where it was."""

        class ClosedReader(io.StringIO):
            def write(self, text):
                raise BrokenPipeError

            def flush(self):
                raise BrokenPipeError

        stream = ClosedReader()
        monkeypatch.setattr(sys, "stdout", stream)
        code = run(["table", "fe-numbers", "--u", "2", "--n-max", "3"])
        assert sys.stdout is stream
        monkeypatch.undo()
        assert code == 141
        assert capsys.readouterr().err == ""


class TestModuleEntryPoint:
    """``python -m feident.cli`` behaves exactly like the ``main`` entry point."""

    @pytest.mark.parametrize(
        "argv, status",
        [
            (["table", "fe-numbers", "--u", "1/3", "--n-max", "6"], 0),
            (["verify", "theorem3", "--n", "0", "--N", "2", "--u", "2", "--variant", "as-printed"],
             1),
            (["table", "fe-numbers", "--u", "1", "--n-max", "2"], 2),
        ],
        ids=["pass", "fail", "usage"],
    )
    def test_matches_main(self, capsys, monkeypatch, argv, status):
        proc = fresh_cli(argv)
        monkeypatch.setattr(sys, "argv", ["feident"] + argv)
        try:
            with pytest.raises(SystemExit) as exc:
                main()
        finally:
            gc.unfreeze()  # main() froze the heap of this test process
        captured = capsys.readouterr()
        assert proc.returncode == exc.value.code == status
        assert proc.stdout.decode() == captured.out
        assert proc.stderr.decode() == captured.err

    @pytest.mark.parametrize("argv, status", [
        (["table", "fe-numbers", "--u", "2", "--n-max", "4"], 0),
        (["verify", "theorem3", "--n", "0", "--N", "2", "--u", "2", "--variant", "as-printed"], 1),
    ], ids=["pass", "fail"])
    def test_freezes_once_run_has_returned(self, monkeypatch, argv, status):
        """The heap is frozen after ``run`` has flushed its output and
        returned, and the process exits with ``run``'s status."""
        from feident import cli

        events = []

        class Stdout(io.StringIO):
            def flush(self):
                events.append("flush")
                super().flush()

        def recorded_run(args):
            events.append("run")
            code = run(args)
            events.append("returned")
            return code

        monkeypatch.setattr(sys, "stdout", Stdout())
        monkeypatch.setattr(sys, "argv", ["feident"] + argv)
        monkeypatch.setattr(cli, "run", recorded_run)
        monkeypatch.setattr(gc, "freeze", lambda: events.append("freeze"))
        with pytest.raises(SystemExit) as exc:
            main()
        assert exc.value.code == status
        assert events == ["run", "flush", "returned", "freeze"]


class TestFreshProcessExit:
    """The exit contract of ``main()`` in new processes, which end with the
    heap frozen: the status, and what reaches stdout, stderr and ``--out``
    (statuses 0, 1 and 2 of one table and one check are in
    ``TestModuleEntryPoint``)."""

    def test_failing_audit_exits_one(self):
        proc = fresh_cli(["audit"])
        assert (proc.returncode, proc.stderr) == (1, b"")
        # the default audit's golden digest
        assert (hashlib.sha256(proc.stdout).hexdigest()
                == "f1f68eac8efcfe7a8407e0f97529742de58ac200f3b9ab5d0a966a493693b8c9")

    def test_malformed_rational_exits_two_with_one_line(self):
        proc = fresh_cli(["table", "fe-numbers", "--u", "x", "--n-max", "2"])
        assert (proc.returncode, proc.stdout) == (2, b"")
        assert proc.stderr == b"feident: error: not a rational in p/q form: 'x'\n"

    def test_closed_stdout_exits_141_quietly(self):
        # 11 MB of CSV from one triangle
        line, status, err = close_after_first_line(["table", "stirling", "--n-max", "300"])
        assert (line, status, err) == (b"N,k,a_k\n", 141, b"")

    @pytest.mark.parametrize("argv", [
        ["table", "fe-polynomials", "--u=-5/7", "--n-max", "30"],
        ["audit", "--format", "csv"],
    ], ids=["table", "audit"])
    def test_out_file_bytes_equal_stdout_bytes(self, tmp_path, argv):
        path = tmp_path / "out"
        to_stdout = fresh_cli(argv)
        to_file = fresh_cli(argv + ["--out", str(path)])
        assert to_file.returncode == to_stdout.returncode
        assert (to_file.stdout, to_file.stderr, to_stdout.stderr) == (b"", b"", b"")
        assert path.read_bytes() == to_stdout.stdout
