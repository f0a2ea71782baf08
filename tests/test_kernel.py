"""Properties of the number kernel: the fraction-free prefix tables behind
H_n(u) and their two kernels, the per-u caches of both routes, the kept
u-independent Pascal rows, gamma-vectors and composition terms,
square-and-multiply series powers, the shared Bernoulli prefix, and the
integer convolutions behind series and polynomial products."""

import ast
import math
import random
import sys
import threading
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from caches import cold_caches
from feident import cli, exact, frobenius, poly, prefix, series, stirling, verify
from feident.exact import binomial, binomial_rows, weak_compositions
from feident.frobenius import (
    bernoulli_number,
    euler_polynomial,
    fe_higher_number_formula,
    fe_higher_number_oracle,
    fe_higher_numbers,
    fe_higher_polynomial,
    fe_number,
    fe_polynomial,
)
from feident.poly import Polynomial
from feident.stirling import triangle_recurrence
from feident.series import (
    EgfSeries,
    bernoulli_oracle,
    exp_minus_constant,
    frobenius_oracle,
    series_mul,
    series_pow,
    series_reciprocal,
)
from feident.verify import DEFAULT_GRID, _composition_sum, _expand, audit_all, document_json

KERNEL_US = [Fraction(1, 3), Fraction(2), Fraction(-5, 7), Fraction(-1), Fraction(0), Fraction(9, 8)]
N_MAX = 80


def fraction_recurrence(n_max, u):
    """H_0(u)..H_{n_max}(u) by the plain Fraction recurrence
    H_n = sum_{l<n} C(n,l) H_l / (u - 1), independent of the kernel."""
    values = [Fraction(1)]
    for n in range(1, n_max + 1):
        acc = sum(math.comb(n, l) * values[l] for l in range(n))
        values.append(acc / (u - 1))
    return values


REFERENCE = {u: fraction_recurrence(N_MAX, u) for u in KERNEL_US}


def package_imports(module, within=None) -> set:
    """The submodules of the package that ``module``'s source imports, by
    any import statement anywhere in it, or only anywhere in ``within``,
    the name of one of its functions, or "" for its top-level statements."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    if within is None:
        nodes = ast.walk(tree)
    elif within:
        (function,) = [node for node in tree.body
                       if isinstance(node, ast.FunctionDef) and node.name == within]
        nodes = ast.walk(function)
    else:
        nodes = tree.body
    found = set()
    for node in nodes:
        if isinstance(node, ast.ImportFrom) and node.level:
            # "from .x import y" names x; "from . import y" names y
            found |= ({node.module.partition(".")[0]} if node.module
                      else {alias.name for alias in node.names})
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("feident."):
            found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found |= {alias.name.split(".")[1] for alias in node.names
                      if alias.name.startswith("feident.")}
    return found


@pytest.fixture
def cold():
    """Every process-wide cache empty, before the test and after it."""
    cold_caches()
    yield
    cold_caches()


class TestPrefixTables:
    @pytest.mark.parametrize("u", KERNEL_US, ids=str)
    @pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
    def test_matches_fraction_recurrence(self, cold, u, order):
        indices = list(range(N_MAX + 1))
        if order == "descending":
            indices.reverse()
        elif order == "shuffled":
            random.Random(f"{u}").shuffle(indices)
        for n in indices:
            assert fe_number(n, u) == REFERENCE[u][n], (u, n)

    def test_past_eviction(self, cold):
        bound = prefix._TABLE_BOUND
        many = [Fraction(p, q) for q in range(2, 40) for p in range(-7, 8)
                if Fraction(p, q).denominator == q][: bound + 40]
        assert len(set(many)) > bound
        for i, u in enumerate(many):
            assert fe_number(5 + i % 7, u) == fraction_recurrence(5 + i % 7, u)[-1]
        assert prefix._table.cache_info().currsize <= bound
        # the earliest tables were evicted; asking again rebuilds them
        for u in many[:10] + KERNEL_US:
            assert fe_number(30, u) == fraction_recurrence(30, u)[30]

    @pytest.mark.parametrize("u", KERNEL_US, ids=str)
    def test_polynomial_reads_the_same_table(self, cold, u):
        for n in (0, 1, 7, 20):
            poly = fe_polynomial(n, u)
            for d in range(n + 1):
                want = Fraction(binomial(n, d)) * REFERENCE[u][n - d]
                assert poly.coefficient(d) == want

    def test_euler_polynomial_at_zero(self, cold):
        for n in range(20):
            assert euler_polynomial(n)(Fraction(0)) == REFERENCE[Fraction(-1)][n]

    # u = 2 and 3/2 have r = p - q = 1; 0 and 1/2 have r = -1; 1/3, -5/7
    # and -3 have r < 0, so odd n takes its sign from integer_form's scales
    @pytest.mark.parametrize("u", [Fraction(2), Fraction(3, 2), Fraction(0), Fraction(1, 2),
                                   Fraction(1, 3), Fraction(-5, 7), Fraction(-3)], ids=str)
    def test_matches_the_series_oracle(self, cold, u):
        """Descending, then repeated, reads of one table equal the
        generating function's coefficients."""
        oracle = frobenius_oracle(u, 41).coeffs
        for n in [*range(41, -1, -1), 41, 3, 3, 0, 17]:
            assert fe_number(n, u) == oracle[n], (u, n)
        assert prefix._table.cache_info().currsize == 1

    def test_routes_stay_independent(self, monkeypatch, cold):
        """The closed-form route must not touch the series code."""

        def forbidden(*args, **kwargs):
            raise AssertionError("closed-form route called the series route")

        for name in ("series_pow", "exp_minus_constant", "bernoulli_oracle"):
            monkeypatch.setattr(frobenius, name, forbidden)
        monkeypatch.setattr(series, "series_reciprocal", forbidden)
        u = Fraction(-5, 7)
        assert fe_number(12, u) == REFERENCE[u][12]
        assert fe_polynomial(6, u).coefficient(0) == REFERENCE[u][6]
        fe_higher_number_formula(4, 3, u)

    def test_series_does_not_import_the_kernel(self):
        assert "frobenius import" not in Path(series.__file__).read_text(encoding="utf-8")

    def test_prefix_kernel_imports_only_exact(self):
        """The prefix kernel imports no other route of the package: not
        ``series``, ``poly``, ``stirling`` or ``frobenius``, only ``exact``;
        and ``series`` imports neither the kernel nor ``frobenius``.  The
        one exception is ``fe_higher_numbers``, which loads ``frobenius``
        when it takes the triangle route, and only then."""
        assert package_imports(prefix, within="") == {"exact"}
        assert package_imports(prefix) == {"exact", "frobenius"}
        assert package_imports(prefix, within="fe_higher_numbers") == {"frobenius"}
        assert package_imports(series).isdisjoint({"prefix", "frobenius"})

    def test_frobenius_exports_the_kernels_objects(self):
        assert frobenius.fe_number is prefix.fe_number
        assert frobenius.bernoulli_number is series.bernoulli_number

    @pytest.mark.parametrize(
        "u", [Fraction(2), Fraction(1, 3), Fraction(-5, 7), Fraction(-1)], ids=str
    )
    def test_matches_the_derivative_polynomials_of_the_ode(self, cold, u):
        """A third route, from the paper's ODE F' = -F - uF^2 for
        F = 1/(e^t - u): F^(n) = P_n(F), and with u = p/q, s = q - p the
        scaled coefficients E_{n,j} of P_n obey E_{0,1} = 1,
        E_{n+1,j} = -j s E_{n,j} - (j-1) p E_{n,j-1}, and
        H_n(u) = sum_j E_{n,j} / s^n.  It shares no code with the table."""
        p, s = u.numerator, u.denominator - u.numerator
        row, sums = [0, 1], [1]  # row[j] = E_{n,j}
        for _ in range(200):
            row = [0] + [-j * s * row[j] - (j - 1) * p * row[j - 1]
                         for j in range(1, len(row))] + [-(len(row) - 1) * p * row[-1]]
            sums.append(sum(row))
        assert [fe_number(n, u) for n in range(201)] == [
            Fraction(total, s**n) for n, total in enumerate(sums)]


GROWTH_US = [Fraction(0), Fraction(-1), Fraction(2), Fraction(1, 3), Fraction(-5, 7)]
growth_u = st.one_of(
    st.sampled_from(GROWTH_US),
    st.fractions(min_value=-9, max_value=9, max_denominator=12).filter(lambda u: u != 1),
)
# (kind, index, window width or order); indices cross the gamma route's 64
table_read = st.tuples(st.sampled_from(["number", "polynomial", "window"]),
                       st.integers(0, 68), st.integers(1, 5))


class TestGrowthOrder:
    """Reads in any order see the values of a table built once to the
    largest index, in either form."""

    @given(growth_u, st.lists(table_read, min_size=1, max_size=10))
    @settings(deadline=None, max_examples=120)
    def test_interleaved_reads(self, u, reads):
        cold_caches()
        top = max(n + extra for _, n, extra in reads)
        once = prefix._NumberTable(u)
        r = u.numerator - u.denominator
        want = [Fraction(m, r**k) for k, m in enumerate(once._numerators(top)[: top + 1])]
        largest = 0  # the largest index read
        for kind, n, extra in reads:
            largest = max(largest, n if kind != "window" else n + extra - 1)
            if kind == "number":
                assert fe_number(n, u) == want[n]
            elif kind == "polynomial":
                poly = fe_polynomial(n, u)
                assert poly.integer_form[1] > 0
                assert poly == Polynomial.appell(want[: n + 1])
            else:
                nums, d = prefix._table(u).integer_form(n, n + extra)
                assert d == abs(r) ** (n + extra - 1)
                assert [Fraction(v, d) for v in nums] == want[n: n + extra]
                if u != 0:
                    # the formula of order ``extra`` at n reads H_n..H_(n+extra-1)
                    row = list(triangle_recurrence(extra))[-1]
                    factor = ((u - 1) / u) ** (extra - 1) / math.factorial(extra - 1)
                    assert fe_higher_number_formula(n, extra, u) == factor * sum(
                        a * want[n + k] for k, a in enumerate(row))
        table = prefix._table(u)
        ms, diagonal = table._state
        assert ms == once._numerators(top)[: len(ms)]
        # grown to exactly the largest index read, by the gamma route up to
        # 64, which keeps no Euler-Seidel diagonal
        assert len(ms) == largest + 1
        if largest <= prefix._GAMMA_TOP:
            assert diagonal is None
        else:
            assert diagonal[-1] == u.denominator * ms[-1]


# u = p/q with p + q = 0 (s = 0), p = 0 (t = 0), |p - q| = 1, u < 0, or any
prefix_u = st.one_of(
    st.sampled_from([Fraction(-1), Fraction(0)]),
    st.integers(1, 40).flatmap(lambda q: st.sampled_from(
        [Fraction(q + 1, q), Fraction(q - 1, q), Fraction(-q - 1, q)])),
    st.fractions(max_value=Fraction(-1, 10**6), max_denominator=10**6),
    st.fractions(min_value=-60, max_value=60, max_denominator=60).filter(lambda u: u != 1),
)


def eulerian_rows(n_max):
    """A(n, 0..n-1) for n = 0..n_max, the coefficients of the Eulerian
    polynomial A_n, by A(n, k) = (k+1) A(n-1, k) + (n-k) A(n-1, k-1)."""
    rows = [[1]]
    for n in range(1, n_max + 1):
        prev = rows[-1] + [0]
        rows.append([(k + 1) * prev[k] + (n - k) * (prev[k - 1] if k else 0) for k in range(n)])
    return rows


class TestPrefixKernels:
    """The gamma route (n <= 64) and the Euler-Seidel route give the same
    M_n, whichever built the table and in whatever steps."""

    @given(prefix_u)
    @settings(deadline=None, max_examples=150)
    @example(Fraction(-1))
    @example(Fraction(0))
    @example(Fraction(2))
    def test_gamma_route_equals_euler_seidel(self, u):
        gamma, seidel = prefix._NumberTable(u), prefix._NumberTable(u)
        # a table first asked for 65 runs Euler-Seidel steps from M_0
        assert seidel._numerators(65)[:65] == gamma._numerators(64)
        assert gamma._state[1] is None and seidel._state[1] is not None

    @pytest.mark.parametrize("u", KERNEL_US, ids=str)
    def test_grown_one_index_at_a_time_equals_grown_at_once(self, u):
        stepped = prefix._NumberTable(u)
        for n in range(101):
            stepped._numerators(n)
        whole = prefix._NumberTable(u)
        whole._numerators(100)
        assert stepped._state == whole._state
        ms, r = stepped._state[0], u.numerator - u.denominator
        assert [Fraction(m, r**k) for k, m in enumerate(ms[: N_MAX + 1])] == REFERENCE[u]

    def test_kept_rows_are_the_gamma_vectors_of_the_eulerian_polynomials(self, cold):
        """A_n(t) = sum_j g_(n,j) t^j (1+t)^(n-1-2j), coefficient by
        coefficient, for n = 1..64."""
        rows = prefix._gamma_rows(64)
        assert len(rows) == 65 and rows[0] == ()
        for n, want in enumerate(eulerian_rows(64)[1:], start=1):
            gammas = rows[n]
            assert len(gammas) == (n - 1) // 2 + 1
            assert all(g > 0 for g in gammas)
            assert [sum(g * binomial(n - 1 - 2 * j, k - j) for j, g in enumerate(gammas))
                    for k in range(n)] == want, n
        assert sum(map(len, rows)) == 1056
        assert max(g.bit_length() for row in rows for g in row) == 277


# (kind, n, N); N is unused by the order-1 reads
served_read = st.tuples(
    st.sampled_from(["higher_numbers", "higher_polynomial", "polynomial", "number"]),
    st.integers(0, 16), st.integers(1, 6))
# more parameter values than the tables kept, none of them a growth_u
EVICTORS = [Fraction(k, 97) for k in range(1, prefix._TABLE_BOUND + 2)]


def fresh_power(u, n, order):
    return series_pow(frobenius_oracle(u, n), order)


class TestCacheServing:
    """Each table serves both routes' values, in any order of reads and
    after eviction, exactly as a fresh computation gives them."""

    @given(growth_u, st.lists(served_read, min_size=1, max_size=12),
           st.sampled_from(["ascending", "descending", "shuffled"]), st.booleans(), st.randoms())
    @settings(deadline=None, max_examples=100)
    def test_reads_match_fresh_values(self, u, reads, order, evict, rng):
        cold_caches()
        reads.sort(key=lambda read: read[1:], reverse=order == "descending")
        if order == "shuffled":
            rng.shuffle(reads)
        want = fraction_recurrence(max(n for _, n, _ in reads), u)
        for i, (kind, n, N) in enumerate(reads):
            if kind == "higher_numbers":
                assert fe_higher_numbers(n, N, u) == fresh_power(u, n, N).coeffs
            elif kind == "higher_polynomial":
                assert fe_higher_polynomial(n, N, u) == Polynomial.appell(fresh_power(u, n, N))
            elif kind == "polynomial":
                assert fe_polynomial(n, u) == Polynomial.appell(want[: n + 1])
            else:
                assert fe_number(n, u) == want[n]
            if evict and i % 2:
                for v in EVICTORS:
                    fe_number(0, v)
                assert prefix._table.cache_info().currsize <= prefix._TABLE_BOUND
        cold_caches()

    def test_each_route_fills_only_its_own_slots(self, cold):
        u = Fraction(-5, 7)
        fe_number(9, u)
        table = prefix._table(u)
        frobenius.polynomial(table, 6)
        fe_higher_number_formula(4, 3, u)
        assert table._powers == {} and set(table._polynomials) == {6}
        fe_higher_polynomial(5, 3, u)
        assert table._powers[1].order == 5 and table._powers[3].order == 5
        assert set(table._polynomials) == {6}
        assert fe_higher_numbers(3, 3, u) == fresh_power(u, 3, 3).coeffs
        assert table._powers[3].order == 5

    def test_fe_polynomial_keeps_nothing(self, cold):
        """``fe_polynomial`` builds each H_n(x|u) anew from the prefix; only
        the table's own ``polynomial``, which the Carlitz checks read, keeps
        one."""
        u = Fraction(5, 8)
        want = fraction_recurrence(12, u)
        for n in range(13):
            assert fe_polynomial(n, u) == Polynomial.appell(want[: n + 1])
        table = prefix._table(u)
        assert table._polynomials == {}
        assert frobenius.polynomial(table, 7) is frobenius.polynomial(table, 7)
        assert set(table._polynomials) == {7}

    def test_powers_share_the_kept_f(self, monkeypatch, cold):
        """F's reciprocal is computed once for its largest order, and
        extended for a larger one; each power is one series_pow of a
        truncation of F, redone only for a larger order."""
        calls = []

        def counted(name, kernel):
            def call(*args):
                calls.append(name)
                return kernel(*args)
            return call

        monkeypatch.setattr(series, "series_reciprocal",
                            counted("reciprocal", series.series_reciprocal))
        monkeypatch.setattr(frobenius, "series_pow", counted("pow", frobenius.series_pow))
        u = Fraction(1, 3)
        fe_higher_number_oracle(8, 1, u)
        for N in (2, 3, 4, 2, 3):
            fe_higher_number_oracle(6, N, u)
        fe_higher_number_oracle(7, 4, u)
        assert calls == ["reciprocal", "pow", "pow", "pow", "pow"]
        fe_higher_number_oracle(9, 2, u)
        assert calls[5:] == ["reciprocal", "pow"]

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
    def test_fe_higher_numbers_route_follows_the_sizes(self, monkeypatch, cold, u, N, n_max,
                                                       triangle):
        """``fe_higher_numbers`` reads row N of the triangle once for
        10N <= n_max and u != 0, from the number table of u; otherwise it
        takes the recurrence, which reads no triangle row and builds no
        number table.  On both sides it equals the series reference."""
        reads = []
        monkeypatch.setattr(frobenius, "triangle_recurrence",
                            lambda n: reads.append(n) or triangle_recurrence(n))
        u = Fraction(u)
        values = fe_higher_numbers(n_max, N, u)
        tables = prefix._table.cache_info().currsize
        assert values == fresh_power(u, n_max, N).coeffs
        assert (reads, tables) == (([N], 1) if triangle else ([], 0))

    @pytest.mark.parametrize("N", [1, 2, 3, 7, 20, 200])
    @pytest.mark.parametrize("u", ["1/3", "-5/7", "2", "-1", "0"])
    def test_recurrence_equals_the_series_route(self, cold, u, N):
        """The recurrence, which ``fe_higher_numbers`` takes for
        10N > n_max or u = 0, equals the series reference to n = 60 at
        every u and N, on the triangle's side of the rule too."""
        u = Fraction(u)
        assert prefix._recurrence_numbers(60, N, u) == fresh_power(u, 60, N).coeffs

    @pytest.mark.parametrize("check", [verify.verify_theorem1, verify.verify_corollary2])
    @pytest.mark.parametrize("N", [1, 2, 4, 5])
    def test_theorem1_computes_f_once(self, monkeypatch, cold, check, N):
        """theorem1 reads F to order T before F^N to order T-(N-1), so the
        table computes F once; the other order of reads would compute it
        to T-(N-1) first and then again to T."""
        calls = []
        reciprocal = series.series_reciprocal

        def counted(a, head=None):
            calls.append(a.order)
            return reciprocal(a, head)

        monkeypatch.setattr(series, "series_reciprocal", counted)
        args = (N, Fraction(-5, 7)) + ((Fraction(1, 2),) if check is verify.verify_corollary2 else ())
        assert check(*args, 24).verdict == "pass"
        assert calls == [24]


def test_audit_work_counts(cold, monkeypatch):
    """A default audit on cold caches computes F (a table's call of
    ``series_reciprocal``) and its powers, inverts a series, builds the
    coefficient triangle and builds the kept Appell polynomials of the
    tables at most this many times.  Without the per-u
    caches it took 276 F, 276 powers and 864 polynomials; while the
    checkers still made their own F and triangle weights per report, 21 F,
    87 inversions and 398 triangles; while theorem1 and corollary2 still
    raised F to powers and built triangle rows in ``verify``, 125 powers and
    86 triangles.

    Each parameter is checked once, where it enters, and each report looks
    its number table up once: while the route helpers checked again what
    their callers had checked, and corollary5 and eq60_multinomial went
    through ``fe_higher_polynomial``, the audit made 3,732 index checks,
    1,049 checks of u, 842 checks of the variant and 1,190 table
    lookups."""
    counts = Counter()

    def counted(name, kernel):
        def call(*args, **kwargs):
            counts[name] += 1
            counts[name, sys._getframe(1).f_code.co_name] += 1
            return kernel(*args, **kwargs)
        return call

    # every binding of the kernels and checks, as a caller sees them
    # (``cold`` comes first, so it clears the real table cache after the
    # bindings are put back)
    for name, home in (("series_pow", series),
                       ("series_reciprocal", series), ("triangle_recurrence", stirling),
                       ("check_at_least", exact), ("_check_u", exact),
                       ("_check_variant", frobenius), ("_table", prefix)):
        kernel = getattr(home, name)
        for module in (exact, prefix, poly, series, stirling, frobenius, verify, cli):
            if getattr(module, name, None) is kernel:
                monkeypatch.setattr(module, name, counted(name, kernel))

    appell = Polynomial.appell.__func__
    builder = frobenius.polynomial.__code__

    def counting_appell(cls, numbers):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code is not builder:
            frame = frame.f_back
        counts["appell"] += frame is not None
        return appell(cls, numbers)

    monkeypatch.setattr(Polynomial, "appell", classmethod(counting_appell))
    audit_all()
    assert counts["series_reciprocal", "power"] <= 3
    assert counts["series_pow"] <= 12
    assert 0 < counts["appell"] <= 49
    assert counts["series_reciprocal"] <= 7
    assert counts["triangle_recurrence"] <= 30
    assert counts["check_at_least"] <= 2400
    assert counts["_check_u"] <= 437
    assert counts["_check_variant"] <= 506
    assert counts["_table"] <= 818


def table_parameters(combo) -> set:
    """The parameter values whose number tables one check reads: u, or
    alpha and beta with alpha*beta (Carlitz) or 1/alpha (reciprocal)."""
    values = {combo[name] for name in ("u", "alpha", "beta") if name in combo}
    if "alpha" in combo:
        values.add(combo["alpha"] * combo["beta"] if "beta" in combo else 1 / combo["alpha"])
    return values


def audit_grids():
    """The built-in grid and the benchmark's seeded audit grids."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import inputs
    finally:
        sys.path.pop(0)
    return [DEFAULT_GRID] + [inputs.audit_grid(seed) for seed in (0, 1, 7, 311, 999)]


def test_table_bound_covers_each_identity_block():
    """Every identity block of an audit reads few enough parameter values
    that none of its tables is evicted while the block runs."""
    widest = 0
    for grid in audit_grids():
        for identity, config in grid.items():
            values = set().union(*map(table_parameters, _expand(identity, config)))
            widest = max(widest, len(values))
    assert 9 <= widest <= prefix._TABLE_BOUND


def sweep_op(u):
    """One op of the benchmark's ``sweep`` workload at u: every report
    must pass."""
    frobenius.fe_polynomial(60, u)
    reports = [
        verify.verify_theorem3(6, 4, u),
        verify.verify_corollary4(6, 4, u),
        verify.verify_corollary5(8, 3, u),
        verify.verify_theorem1(4, u, 24),
        verify.verify_carlitz(6, 6, u, 5 if 3 * u == 1 else 3),
        verify.verify_product_multinomial(5, 3, u),
    ]
    assert [r.verdict for r in reports] == ["pass"] * len(reports)


def streamed_sum(k, N, nums):
    """The composition sum over ``weak_compositions`` as it streams, with
    ``math`` multinomials: no kept terms."""
    total = 0
    for parts in weak_compositions(k, N):
        prod = math.factorial(k)
        for l in parts:
            prod = prod // math.factorial(l) * nums[l]
        total += prod
    return total


class TestKeptCombinatorics:
    """The Pascal rows, gamma-vectors and composition terms depend on no
    parameter, so they are kept for the life of the process, within fixed
    bounds: a new u pays only for its own numbers, and no value depends on
    what was computed before."""

    def test_a_new_u_rebuilds_no_combinatorics(self, monkeypatch, cold):
        sweep_op(Fraction(7, 11))
        rows = exact._kept_rows
        assert len(rows) == 25  # theorem1 at T = 24 reads the longest series
        gammas = prefix._kept_gammas
        assert len(gammas) == 61  # fe_polynomial(60, u) reads the longest prefix
        counts = Counter()
        for name in ("multinomial", "weak_compositions"):
            kernel = getattr(verify, name)

            def counted(*args, name=name, kernel=kernel):
                counts[name] += 1
                return kernel(*args)

            monkeypatch.setattr(verify, name, counted)
        sweep_op(Fraction(-13, 6))
        assert counts == {}
        # a row built up to n = 64 would have replaced the kept ones
        assert exact._kept_rows is rows
        assert prefix._kept_gammas is gammas

    def test_rows_above_64_are_built_not_kept(self, cold):
        rng = random.Random(3)
        xs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(201)]
        assert list(series_mul(EgfSeries(xs), EgfSeries(xs)).coeffs) == fraction_series_mul(xs, xs)
        assert len(exact._kept_rows) == 65
        assert [list(row) for row in binomial_rows(200)] == [
            [math.comb(n, k) for k in range(n + 1)] for n in range(201)]
        assert len(exact._kept_rows) == 65

    @pytest.mark.parametrize("t", [0, 1, 5, 64, 65, 70])
    def test_rows_warm_equal_rows_cold(self, cold, t):
        first = list(binomial_rows(t))
        assert len(exact._kept_rows) == min(t, 64) + 1
        assert first == list(binomial_rows(t)) == [
            tuple(math.comb(n, k) for k in range(n + 1)) for n in range(t + 1)]

    def test_gamma_rows_stop_at_65_and_are_replaced_whole(self, cold):
        prefix._NumberTable(Fraction(1, 3))._numerators(64)
        rows = prefix._kept_gammas
        assert len(rows) == 65
        table = prefix._NumberTable(Fraction(-5, 7))
        for n in (30, 64, 70, 200):
            table._numerators(n)
        prefix._NumberTable(Fraction(2))._numerators(300)
        # no row past 64 was built, and no read replaced the kept rows
        assert prefix._kept_gammas is rows

    @pytest.mark.parametrize("t", [0, 1, 5, 64, 65, 70])
    def test_gamma_rows_warm_equal_rows_cold(self, cold, t):
        u = Fraction(-5, 7)
        first = prefix._NumberTable(u)._numerators(t)
        # a table first asked for an index past 64 builds no gamma row
        assert len(prefix._kept_gammas) == (max(t, 1) + 1 if t <= 64 else 2)
        assert first == prefix._NumberTable(u)._numerators(t)
        stepped = prefix._kept_gammas
        cold_caches()
        assert prefix._gamma_rows(64)[: len(stepped)] == stepped

    def test_large_enumerations_stream(self, cold):
        nums = list(range(-6, 7))
        assert math.comb(12 + 4, 4) == 1820
        assert _composition_sum(12, 5, nums) == streamed_sum(12, 5, nums)
        assert verify._composition_terms.cache_info().currsize == 0
        # 256 tuples are kept, 257 stream
        assert _composition_sum(255, 2, range(256)) == streamed_sum(255, 2, range(256))
        assert _composition_sum(256, 2, range(257)) == streamed_sum(256, 2, range(257))
        assert verify._composition_terms.cache_info().currsize == 1

    def test_at_most_64_enumerations_are_kept(self, cold):
        nums = [3, -1, 4, -1, 5, -9, 2, 6, -5, 3]
        for k in range(10):
            for N in range(1, 11):
                assert _composition_sum(k, N, nums) == streamed_sum(k, N, nums)
        assert verify._composition_terms.cache_info().currsize == 64

    def test_reports_with_cold_caches_equal_reports_with_warm_ones(self, cold):
        """The default audit and a grid at other parameters of every
        identity, first on cold caches, then on caches warmed by both."""
        grid = {
            "theorem1": {"variant": ["corrected"], "N": [5], "u": ["3/4"], "T": [14]},
            "corollary2": {"variant": ["corrected"], "N": [3], "u": ["-3"], "x": ["2/5"],
                           "T": [9]},
            "theorem3": {"variant": ["corrected"], "n": [8], "N": [5], "u": ["7/2"]},
            "corollary4": {"variant": ["as_printed", "corrected"], "n": [7, 12], "N": [4, 5],
                           "u": ["-1/4"]},
            "corollary5": {"variant": ["corrected"], "n": [7], "N": [5], "u": ["5/3"]},
            "eq60_multinomial": {"n": [9], "N": [4], "u": ["-7/9"]},
            "carlitz_product": {"variant": ["corrected"], "m": [5], "n": [4],
                                "alpha_beta": [["3/2", "-4"]]},
            "carlitz_reciprocal": {"m": [4], "n": [5], "alpha": ["-3/2"]},
            "bernoulli_product": {"m": [6], "n": [5]},
        }

        def cold_run(run):
            cold_caches()
            return document_json(run())

        cold_docs = [cold_run(audit_all), cold_run(lambda: audit_all(grid))]
        warm_docs = [document_json(audit_all()), document_json(audit_all(grid))]
        assert warm_docs == cold_docs


coeff = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def repeated_mul(a, exponent):
    out = a
    for _ in range(exponent - 1):
        out = series_mul(out, a)
    return out


class TestSeriesPow:
    @given(st.lists(coeff, min_size=1, max_size=7), st.integers(1, 9), st.booleans())
    @settings(deadline=None, max_examples=60)
    def test_fraction_coefficients(self, coeffs, exponent, zero_constant):
        if zero_constant:
            coeffs = [Fraction(0)] + coeffs[1:]
        a = EgfSeries(coeffs)
        assert series_pow(a, exponent) == repeated_mul(a, exponent)

    @pytest.mark.parametrize("exponent,products", [(1, 0), (2, 1), (3, 2), (8, 3), (20, 5)])
    def test_product_count(self, monkeypatch, exponent, products):
        calls = []

        def counting_mul(a, b):
            calls.append(1)
            return series_mul(a, b)

        monkeypatch.setattr(series, "series_mul", counting_mul)
        series_pow(EgfSeries([1, 1, 1]), exponent)
        assert len(calls) == products


def fresh_bernoulli(order):
    return series_reciprocal(EgfSeries([Fraction(1, n + 1) for n in range(order + 1)]))


class TestBernoulliPrefix:
    def test_truncations_after_a_larger_call(self):
        bernoulli_oracle(90)
        for k in (0, 1, 2, 17, 64, 90):
            assert bernoulli_oracle(k) == fresh_bernoulli(k)

    def test_growth_past_the_prefix(self):
        bernoulli_oracle(10)
        assert bernoulli_oracle(123) == fresh_bernoulli(123)
        assert bernoulli_oracle(40) == fresh_bernoulli(40)

    def test_one_oracle_call_per_number(self, monkeypatch):
        calls = []

        def counting_oracle(order):
            calls.append(order)
            return bernoulli_oracle(order)

        monkeypatch.setattr(series, "bernoulli_oracle", counting_oracle)
        for n in range(12):
            bernoulli_number(n)
        assert calls == list(range(12))

    def test_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        for n in range(0, 151):
            b = sympy.bernoulli(n)
            want = Fraction(int(b.p), int(b.q))
            # SymPy has B_1 = +1/2; this package uses t/(e^t - 1), B_1 = -1/2
            assert bernoulli_number(n) == (-want if n == 1 else want), n


def fraction_series_mul(a, b):
    """c_n = sum_k C(n,k) a_k b_{n-k}, one Fraction operation at a time."""
    t = min(len(a), len(b)) - 1
    return [sum((math.comb(n, k) * (a[k] * b[n - k]) for k in range(n + 1)), Fraction(0))
            for n in range(t + 1)]


def fraction_series_reciprocal(a):
    """b_0 = 1/a_0, b_n = -(1/a_0) sum_{k<n} C(n,k) a_{n-k} b_k in Fractions."""
    inv0 = Fraction(1) / a[0]
    out = [inv0]
    for n in range(1, len(a)):
        acc = sum((math.comb(n, k) * (a[n - k] * out[k]) for k in range(n)), Fraction(0))
        out.append(-inv0 * acc)
    return out


def fraction_poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


HEIGHT = 10**6
# zero, int-valued and mixed-denominator coefficients of height up to 10^6
scalar = st.one_of(
    st.just(0),
    st.integers(-HEIGHT, HEIGHT),
    st.integers(-9, 9),
    st.builds(Fraction, st.integers(-HEIGHT, HEIGHT), st.integers(1, HEIGHT)),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12)),
)
scalars = st.lists(scalar, min_size=1, max_size=12)


def exact_fractions(values):
    return all(type(v) is Fraction for v in values)


class TestIntegerConvolution:
    @given(scalars, scalars)
    @settings(deadline=None, max_examples=150)
    def test_series_mul(self, xs, ys):
        product = series_mul(EgfSeries(xs), EgfSeries(ys))
        want = fraction_series_mul([Fraction(x) for x in xs], [Fraction(y) for y in ys])
        assert list(product.coeffs) == want
        assert product.order == min(len(xs), len(ys)) - 1
        assert exact_fractions(product.coeffs)

    @given(scalars)
    @settings(deadline=None, max_examples=150)
    def test_series_reciprocal(self, xs):
        if xs[0] == 0:
            xs = [1] + xs[1:]
        inverse = series_reciprocal(EgfSeries(xs))
        assert list(inverse.coeffs) == fraction_series_reciprocal([Fraction(x) for x in xs])
        assert exact_fractions(inverse.coeffs)

    @given(scalars, scalars)
    @settings(deadline=None, max_examples=150)
    def test_polynomial_mul(self, xs, ys):
        product = Polynomial(xs) * Polynomial(ys)
        assert product == Polynomial(fraction_poly_mul([Fraction(x) for x in xs],
                                                       [Fraction(y) for y in ys]))
        assert exact_fractions(product.coeffs)

    def test_order_zero(self):
        assert series_mul(EgfSeries([Fraction(-3, 4)]), EgfSeries([6, 1, 2])) == EgfSeries(
            [Fraction(-9, 2)])
        assert series_reciprocal(EgfSeries([Fraction(-3, 4)])) == EgfSeries([Fraction(-4, 3)])
        assert Polynomial([Fraction(2, 3)]) * Polynomial([0]) == Polynomial.zero()

    def test_large_order_against_fraction_loops(self):
        rng = random.Random(5)
        xs = [Fraction(rng.randint(-HEIGHT, HEIGHT), rng.randint(1, HEIGHT)) for _ in range(41)]
        ys = [Fraction(rng.randint(-HEIGHT, HEIGHT), rng.randint(1, 50)) for _ in range(60)]
        assert list(series_mul(EgfSeries(xs), EgfSeries(ys)).coeffs) == fraction_series_mul(xs, ys)
        assert list(series_reciprocal(EgfSeries(ys)).coeffs) == fraction_series_reciprocal(ys)
        assert list((Polynomial(xs) * Polynomial(ys)).coeffs) == fraction_poly_mul(xs, ys)

    def test_polynomial_keeps_fraction_coefficients(self):
        c = Fraction(-7, 3)
        read = Polynomial([1, c]).coeffs[1]
        assert type(read) is Fraction and read == c


def bernoulli_inverse(order):
    """(e^t - 1)/t to ``order`` as ``bernoulli_oracle`` builds it: the
    1/(n+1) over lcm(1..order+1), a denominator that changes as it grows."""
    lcm = math.lcm(*range(1, order + 2))
    return EgfSeries._of(([lcm // (n + 1) for n in range(order + 1)], lcm))


class TestKernelPaths:
    """A square and an extended reciprocal give exactly the integer form
    of the general product and of a fresh reciprocal."""

    @given(scalars, st.booleans())
    @example([Fraction(-3, 4)], False)
    @example([0], True)
    @example([5, 0, 7], True)
    @settings(deadline=None, max_examples=150)
    def test_square_has_the_product_integer_form(self, xs, zero_constant):
        if zero_constant:
            xs = [0] + xs[1:]
        a, b = EgfSeries(xs), EgfSeries(xs)
        assert a is not b
        square = series_mul(a, a)
        assert square.integer_form == series_mul(a, b).integer_form
        assert list(square.coeffs) == fraction_series_mul([Fraction(x) for x in xs],
                                                          [Fraction(x) for x in xs])

    @given(st.one_of(st.just("bernoulli"),
                     st.fractions(-9, 9, max_denominator=12).filter(lambda u: u != 1)),
           st.lists(st.integers(0, 40), min_size=2, max_size=3))
    @example("bernoulli", [0, 1, 2])
    @example("bernoulli", [3, 30])
    @example(Fraction(1, 3), [6, 8, 24])
    @example(Fraction(5, 2), [6, 8, 24])
    @example(Fraction(0), [0, 0, 9])
    @settings(deadline=None, max_examples=100)
    def test_extension_has_a_fresh_integer_form(self, subject, orders):
        """Each order's reciprocal, extended from the last one (one or two
        heads deep), equals a fresh call's; 1 - u takes either sign."""
        head = None
        for order in sorted(orders):
            a = bernoulli_inverse(order) if subject == "bernoulli" else exp_minus_constant(
                subject, order)
            head = series_reciprocal(a, head)
            assert head.integer_form == series_reciprocal(a).integer_form

    def test_a_head_longer_than_the_series_is_refused(self):
        head = series_reciprocal(exp_minus_constant(2, 5))
        with pytest.raises(ValueError, match="order-5 head is longer than the order-4 series"):
            series_reciprocal(exp_minus_constant(2, 4), head)

    def test_table_computes_each_f_entry_once(self, monkeypatch, cold):
        """A table asked F at orders 6, 8 and 24 computes each entry of F,
        the reciprocal of (e^t - u)/(1 - u), once: b_0, then one integer sum
        per entry b_1..b_24 (the series module's ``sum``, which only the reciprocal
        calls while the table builds F), not 6 + 8 + 24 of them."""
        sums = []

        def counted_sum(values):
            sums.append(1)
            return sum(values)

        u = Fraction(-5, 7)
        want = [frobenius_oracle(u, order) for order in (6, 8, 24)]
        monkeypatch.setattr(series, "sum", counted_sum, raising=False)
        table = prefix._table(u)
        assert [frobenius.power(table, order, 1) for order in (6, 8, 24)] == want
        assert len(sums) == 24
        assert table._powers[1].order == 24


@pytest.mark.parametrize("n", [200, 300, 400])
def test_bernoulli_against_sympy_at_large_n(n):
    sympy = pytest.importorskip("sympy")
    b = sympy.bernoulli(n)
    assert bernoulli_number(n) == Fraction(int(b.p), int(b.q))


def test_concurrent_readers_see_correct_values(cold):
    """Threads that grow the same fresh tables (their prefixes, by either
    kernel and across the switch at 64, the series route's reciprocal and
    powers, and the triangle route's weights), Bernoulli prefix, Pascal
    rows, gamma-vectors and composition terms at once may redo work, but
    every value any of them reads is right."""
    us = [Fraction(p, 11) for p in range(-12, 12) if p != 11]
    want = {u: fraction_recurrence(70, u) for u in us}
    higher_want = {(u, N): fresh_power(u, 30, N).coeffs for u in us for N in (1, 2)}
    bernoulli_want = {n: bernoulli_oracle(n)[n] for n in range(0, 61, 6)}
    pascal = [tuple(math.comb(n, k) for k in range(n + 1)) for n in range(71)]
    nums = [2, -3, 5, 7, -11, 13, 1]
    errors = []

    def reader(seed):
        rng = random.Random(seed)
        try:
            for u in rng.sample(us, len(us)):
                for n in rng.sample(range(71), 71):
                    if fe_number(n, u) != want[u][n]:
                        errors.append((u, n))
                for n in rng.sample(range(31), 4):
                    N = rng.choice((1, 2))
                    if fe_higher_numbers(n, N, u) != higher_want[u, N][: n + 1]:
                        errors.append((u, n, N))
                    if fe_higher_number_oracle(n, N, u) != higher_want[u, N][n]:
                        errors.append(("oracle", u, n, N))
                k = rng.choice(list(bernoulli_want))
                if bernoulli_number(k) != bernoulli_want[k]:
                    errors.append(("B", k))
                t = rng.randrange(71)
                if list(binomial_rows(t)) != pascal[: t + 1]:
                    errors.append(("rows", t))
                k, N = rng.randrange(7), rng.randrange(1, 5)
                if _composition_sum(k, N, nums) != streamed_sum(k, N, nums):
                    errors.append(("terms", k, N))
        except Exception as exc:  # reported through the assertion below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_ in range(3):
            cold_caches()
            threads = [threading.Thread(target=reader, args=(8 * round_ + i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)
    assert errors == []
