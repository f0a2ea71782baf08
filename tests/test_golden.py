"""Byte-identity of CLI outputs against recorded SHA-256 digests.

The digests pin the exact bytes (and exit status) of a few large tables
and of the default audit, so any change to the number kernel, the series
code or the rendering that alters a single character shows up here.  They
were recorded before the fraction-free prefix-table kernel replaced the
Fraction recurrence, so they also pin that the two agree.  The ``stirling``
digests were recorded while tables were still rendered by ``csv.writer``,
so they pin that the row-by-row writer gives the same bytes.  The two
large ``fe-numbers`` digests (n = 600 in CSV, u = 9/4 in JSON) were
recorded on the binomial-sum kernel, before the Euler-Seidel recurrence
replaced it, so they pin that the two kernels agree far out.

``PATH_CASES`` pin the error and edge paths of ``verify`` and ``audit``
the same way, with stderr kept verbatim: missing and unusable flags,
out-of-domain values, the default truncation order, malformed grid files
and audits whose grids yield ``error`` reports.  They were recorded
before the identity registry replaced the hand-written per-identity
tables in ``verify`` and ``cli``, except the two grids that every grid
value is checked on: a malformed value beside an empty axis, and a JSON
``true`` on a rational axis.  Before each axis was converted on its own,
they exited 0 (an empty audit) and 1 (an ``error`` report at u = 1).
The six missing-flag and ``--variant`` cases print argparse's wording,
since each identity became a subparser that owns its flags.

To regenerate after an intended output change, run from the repository
root

    PYTHONPATH=src python tests/test_golden.py

and paste the printed ``CASES`` entries over the ones below.
"""

import contextlib
import hashlib
import io
import json

import pytest

from feident.cli import run

# (id, argv, exit status, SHA-256 of stdout)
CASES = [
    ("fe-numbers u=1/3", ["table", "fe-numbers", "--u", "1/3", "--n-max", "200"], 0,
     "6ebb9ead945e4113368a2ea4eff6329cf3701cb05d1d176e330b706135032637"),
    ("fe-numbers u=-5/7", ["table", "fe-numbers", "--u=-5/7", "--n-max", "200"], 0,
     "163bcdf83ef74de750301bf37dfeeda2cde58856dc764e8f0d6b750b53e13127"),
    ("fe-higher u=1/3", ["table", "fe-higher", "--u", "1/3", "--N", "7", "--n-max", "40"], 0,
     "ab41fea35b134cdddccd5cd929189a8426b26e1628c643fbdcc1b5e294b57f04"),
    ("fe-higher u=-5/7", ["table", "fe-higher", "--u=-5/7", "--N", "7", "--n-max", "40"], 0,
     "b3c0da0ffefc2b7e0ff19e288c67a58541a1080ddbc98757b47fc28e29386a96"),
    ("fe-polynomials u=1/3", ["table", "fe-polynomials", "--u", "1/3", "--n-max", "40"], 0,
     "0a27f7072b8e632ceac7dcf04cb587935a68f3a420b6f8ae9127cabdd1a2efe1"),
    ("fe-polynomials u=-5/7", ["table", "fe-polynomials", "--u=-5/7", "--n-max", "40"], 0,
     "7610f95865ffced1ab944b2cb4dbab9f1d913f5670a4bd91c21f836e3fc1c1b9"),
    ("bernoulli", ["table", "bernoulli", "--n-max", "150"], 0,
     "750cf55de9a9d6ae5f16fa39906f52e37feb07eb711dd23d76b006655c6365ec"),
    ("stirling", ["table", "stirling", "--n-max", "120"], 0,
     "e3b909137de94dcd3e58c24fcba31adbf2040912fb7e876d86a9d76356cf9fc5"),
    ("stirling json", ["table", "stirling", "--n-max", "40", "--format", "json"], 0,
     "3c5ba3b34cfcaca8568a4b2136809e4aa7b98fc63ea2f95ad47a4c704fa68b74"),
    ("fe-numbers u=-5/7 n=600", ["table", "fe-numbers", "--u=-5/7", "--n-max", "600"], 0,
     "8a1a039fffb9fc6aa6037efa5b51fe53692d0f5f92d739c95b7b48b6dcb486b6"),
    ("fe-numbers u=9/4 json", ["table", "fe-numbers", "--u", "9/4", "--n-max", "300",
                               "--format", "json"], 0,
     "7aeca54f149cd2dd8a258a9e71499458d43fdb5c6929fa5f9dcbebd48bf22c78"),
    ("audit", ["audit"], 1,
     "f1f68eac8efcfe7a8407e0f97529742de58ac200f3b9ab5d0a966a493693b8c9"),
    ("audit csv", ["audit", "--format", "csv"], 1,
     "99ecabf7ed6a8a15f4cd31031026b2d6021d9b4042c16e4da0e74f357da524df"),
]


GRID = "<grid>"

_ERROR_GRID = {
    "theorem1": {"variant": ["corrected"], "N": [1, 3], "u": ["1", "0", "2"], "T": [2, 12]},
    "corollary2": {"variant": ["as_printed"], "N": [0, 2], "u": ["0", "2"], "x": [1], "T": [8]},
    "theorem3": {"variant": ["corrected"], "n": [-1, 2], "N": [2], "u": ["1", "1/3"]},
    "corollary4": {"variant": ["corrected"], "n": [-1], "N": [0, 2], "u": ["2"]},
    "corollary5": {"variant": ["corrected"], "n": [2], "N": [0, 2], "u": [0]},
    "eq60_multinomial": {"n": [-1, 2], "N": [0, 2], "u": ["1"]},
    "carlitz_product": {"variant": ["corrected", "as_printed"], "m": [1], "n": [-1, 1],
                        "alpha_beta": [["2", "1/2"], ["1", "3"], ["2", "3"]]},
    "carlitz_reciprocal": {"m": [1], "n": [1], "alpha": ["0", "1", "-2"]},
    "bernoulli_product": {"m": [0, 1], "n": [-1, 0, 1]},
}

# (id, argv, grid written to GRID or None)
PATHS = [
    ("verify theorem1 missing --N", ["verify", "theorem1", "--u", "2"], None),
    ("verify corollary2 missing --x", ["verify", "corollary2", "--N", "2", "--u", "2"], None),
    ("verify carlitz_product missing --beta",
     ["verify", "carlitz_product", "--m", "1", "--n", "1", "--alpha", "2"], None),
    ("verify bernoulli_product missing --m", ["verify", "bernoulli_product", "--n", "2"], None),
    ("verify carlitz_reciprocal --variant",
     ["verify", "carlitz_reciprocal", "--m", "1", "--n", "1", "--alpha", "2",
      "--variant", "corrected"], None),
    ("verify eq60_multinomial --variant, missing --u",
     ["verify", "eq60_multinomial", "--n", "2", "--variant", "as-printed"], None),
    ("verify theorem3 u=1", ["verify", "theorem3", "--n", "1", "--N", "2", "--u", "1"], None),
    ("verify theorem1 u=0", ["verify", "theorem1", "--N", "2", "--u", "0"], None),
    ("verify theorem1 N=0", ["verify", "theorem1", "--N", "0", "--u", "2"], None),
    ("verify corollary4 n=-1", ["verify", "corollary4", "--n", "-1", "--N", "2", "--u", "2"],
     None),
    ("verify corollary5 N=0", ["verify", "corollary5", "--n", "1", "--N", "0", "--u", "2"],
     None),
    ("verify theorem1 trunc<N",
     ["verify", "theorem1", "--N", "5", "--u", "2", "--trunc", "3"], None),
    ("verify carlitz_product alpha*beta=1",
     ["verify", "carlitz_product", "--m", "1", "--n", "1", "--alpha", "2", "--beta", "1/2"],
     None),
    ("verify carlitz_reciprocal alpha=0",
     ["verify", "carlitz_reciprocal", "--m", "1", "--n", "1", "--alpha", "0"], None),
    ("verify bernoulli_product m+n<2",
     ["verify", "bernoulli_product", "--m", "1", "--n", "0"], None),
    ("verify theorem1 trunc omitted",
     ["verify", "theorem1", "--N", "3", "--u", "1/3", "--variant", "as-printed"], None),
    ("verify corollary2 trunc omitted",
     ["verify", "corollary2", "--N", "2", "--u", "2", "--x", "1/2"], None),
    ("verify theorem1 trunc 16", ["verify", "theorem1", "--N", "3", "--u", "1/3",
                                  "--variant", "as-printed", "--trunc", "16"], None),
    ("verify theorem3", ["verify", "theorem3", "--n", "3", "--N", "2", "--u", "2",
                         "--variant", "as-printed"], None),
    ("verify corollary4", ["verify", "corollary4", "--n", "3", "--N", "3", "--u", "1/3"], None),
    ("verify corollary5 csv", ["verify", "corollary5", "--n", "2", "--N", "2", "--u", "2",
                               "--variant", "as-printed", "--format", "csv"], None),
    ("verify eq60_multinomial", ["verify", "eq60_multinomial", "--n", "3", "--N", "2",
                                 "--u", "1/3"], None),
    ("verify carlitz_product", ["verify", "carlitz_product", "--m", "2", "--n", "1",
                                "--alpha", "1/2", "--beta", "3"], None),
    ("verify carlitz_reciprocal csv", ["verify", "carlitz_reciprocal", "--m", "2", "--n", "1",
                                       "--alpha", "2", "--format", "csv"], None),
    ("verify bernoulli_product", ["verify", "bernoulli_product", "--m", "3", "--n", "2"], None),
    ("grid missing axis", ["audit", "--grid", GRID],
     {"theorem1": {"variant": ["corrected"], "N": [1], "u": ["2"]}}),
    ("grid unknown axis", ["audit", "--grid", GRID],
     {"bernoulli_product": {"m": [1], "n": [1], "k": [1]}}),
    ("grid beta without alpha_beta", ["audit", "--grid", GRID],
     {"carlitz_product": {"variant": ["corrected"], "m": [1], "n": [1],
                          "alpha": ["2"], "beta": ["3"]}}),
    ("grid non-integer n", ["audit", "--grid", GRID],
     {"theorem3": {"variant": ["corrected"], "n": ["1"], "N": [1], "u": ["2"]}}),
    ("grid boolean N", ["audit", "--grid", GRID],
     {"eq60_multinomial": {"n": [1], "N": [True], "u": ["2"]}}),
    ("grid float u", ["audit", "--grid", GRID],
     {"eq60_multinomial": {"n": [1], "N": [1], "u": [0.5]}}),
    ("grid bad rational", ["audit", "--grid", GRID],
     {"carlitz_reciprocal": {"m": [1], "n": [1], "alpha": ["1/0"]}}),
    ("grid non-ASCII digits", ["audit", "--grid", GRID],
     {"carlitz_reciprocal": {"m": [1], "n": [1], "alpha": ["\u0661/\u0663"]}}),
    ("grid unknown variant", ["audit", "--grid", GRID],
     {"theorem3": {"variant": ["as-printed"], "n": [1], "N": [1], "u": ["2"]}}),
    ("grid alpha_beta not a pair", ["audit", "--grid", GRID],
     {"carlitz_product": {"variant": ["corrected"], "m": [1], "n": [1],
                          "alpha_beta": [["2", "3", "4"]]}}),
    ("grid alpha_beta scalar", ["audit", "--grid", GRID],
     {"carlitz_product": {"variant": ["corrected"], "m": [1], "n": [1], "alpha_beta": ["2"]}}),
    ("grid unknown identity", ["audit", "--grid", GRID], {"theorem2": {}}),
    ("grid bad rational beside an empty axis", ["audit", "--grid", GRID],
     {"theorem3": {"variant": ["corrected"], "n": [], "N": [1], "u": ["2.5"]}}),
    ("grid boolean u", ["audit", "--grid", GRID],
     {"eq60_multinomial": {"n": [1], "N": [1], "u": [True]}}),
    ("audit error reports json", ["audit", "--grid", GRID], _ERROR_GRID),
    ("audit error reports csv", ["audit", "--grid", GRID, "--format", "csv"], _ERROR_GRID),
]

EMPTY = hashlib.sha256(b"").hexdigest()

# id -> (exit status, SHA-256 of stdout, stderr)
PATH_RESULTS = {
    'verify theorem1 missing --N':
        (2, EMPTY, 'feident: error: the following arguments are required: --N\n'),
    'verify corollary2 missing --x':
        (2, EMPTY, 'feident: error: the following arguments are required: --x\n'),
    'verify carlitz_product missing --beta':
        (2, EMPTY, 'feident: error: the following arguments are required: --beta\n'),
    'verify bernoulli_product missing --m':
        (2, EMPTY, 'feident: error: the following arguments are required: --m\n'),
    'verify carlitz_reciprocal --variant':
        (2, EMPTY, 'feident: error: unrecognized arguments: --variant corrected\n'),
    'verify eq60_multinomial --variant, missing --u':
        (2, EMPTY, 'feident: error: the following arguments are required: --N, --u\n'),
    'verify theorem3 u=1':
        (2, EMPTY, 'feident: error: u = 1 is outside the parameter domain\n'),
    'verify theorem1 u=0':
        (2, EMPTY, 'feident: error: u = 0 is outside the parameter domain (division by u)\n'),
    'verify theorem1 N=0':
        (2, EMPTY, 'feident: error: N must be >= 1\n'),
    'verify corollary4 n=-1':
        (2, EMPTY, 'feident: error: n must be >= 0\n'),
    'verify corollary5 N=0':
        (2, EMPTY, 'feident: error: N must be >= 1\n'),
    'verify theorem1 trunc<N':
        (2, EMPTY, 'feident: error: truncation order T must be >= N\n'),
    'verify carlitz_product alpha*beta=1':
        (2, EMPTY, 'feident: error: alpha*beta = 1 needs the reciprocal-parameter identity\n'),
    'verify carlitz_reciprocal alpha=0':
        (2, EMPTY, 'feident: error: alpha = 0 has no reciprocal\n'),
    'verify bernoulli_product m+n<2':
        (2, EMPTY, 'feident: error: m + n must be >= 2\n'),
    'verify theorem1 trunc omitted':
        (0, '51c6d7c6cf01989de600899e9d245c1255f67e36321e8ecdf712832f0eaa3519', ''),
    'verify corollary2 trunc omitted':
        (0, '6ef98bed811156ed54b196d99b72aca84a90271e2abadbf1935d41177c3b6918', ''),
    'verify theorem1 trunc 16':
        (0, '51c6d7c6cf01989de600899e9d245c1255f67e36321e8ecdf712832f0eaa3519', ''),
    'verify theorem3':
        (1, '65f4fe67464ce1f8f2194d39c383af0adbfc03dc1ab11b26e3d7157c4f6c24fc', ''),
    'verify corollary4':
        (0, '8b54c39d6a9dc07a93c97b8d5e2cca8f77227a6d82462faefb78f3b4ebfa5f0a', ''),
    'verify corollary5 csv':
        (1, '498351b5900b6ced34011204bf40fbde755c84b19def513ad6752c21912b6ecf', ''),
    'verify eq60_multinomial':
        (0, '47992301c988a1e9640f070930451d635e0ff346134db279a6b7a4607ec63db3', ''),
    'verify carlitz_product':
        (0, '7ad889fc9ab734965cc0fb00baba86e52d652d3db6498a531fa21c44161d1c97', ''),
    'verify carlitz_reciprocal csv':
        (0, 'fd87dbe05f8f069e42e3673d8233b6f6f74e38572dc5764a0dee6928f410ea5c', ''),
    'verify bernoulli_product':
        (0, '43c128871bce140c81557741755b59560af1a561cc603f48e106f74de69f52dd', ''),
    'grid missing axis':
        (2, EMPTY, "feident: error: grid for 'theorem1' is missing key 'T'\n"),
    'grid unknown axis':
        (2, EMPTY, "feident: error: grid for 'bernoulli_product' has unknown key 'k'\n"),
    'grid beta without alpha_beta':
        (2, EMPTY, "feident: error: grid for 'carlitz_product' is missing key 'alpha_beta'\n"),
    'grid non-integer n':
        (2, EMPTY, "feident: error: grid value for 'n' must be an integer: '1'\n"),
    'grid boolean N':
        (2, EMPTY, "feident: error: grid value for 'N' must be an integer: True\n"),
    'grid float u':
        (2, EMPTY, "feident: error: grid value for 'u' must be an int or 'p/q' string: 0.5\n"),
    'grid bad rational':
        (2, EMPTY, "feident: error: zero denominator: '1/0'\n"),
    'grid non-ASCII digits':
        (2, EMPTY, "feident: error: not a rational in p/q form: '\u0661/\u0663'\n"),
    'grid unknown variant':
        (2, EMPTY, "feident: error: unknown variant 'as-printed'; expected one of ('as_printed', 'corrected')\n"),
    'grid alpha_beta not a pair':
        (2, EMPTY, 'feident: error: alpha_beta entries must be [alpha, beta] pairs\n'),
    'grid alpha_beta scalar':
        (2, EMPTY, 'feident: error: alpha_beta entries must be [alpha, beta] pairs\n'),
    'grid unknown identity':
        (2, EMPTY, "feident: error: unknown identity in grid: 'theorem2'\n"),
    'grid bad rational beside an empty axis':
        (2, EMPTY, "feident: error: not a rational in p/q form: '2.5'\n"),
    'grid boolean u':
        (2, EMPTY, "feident: error: grid value for 'u' must be an int or 'p/q' string: True\n"),
    'audit error reports json':
        (1, '6b6837f89c0ad41fb37c82477321c2b4948e9c5861f441f1aaf454b0ad2cc17c', ''),
    'audit error reports csv':
        (1, '8a669e439789524a85114e3e28d9284d5f8f73ed6e7ffce046df8a9dde131796', ''),
}


def run_digest(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(argv)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def run_path(argv, grid, grid_path) -> tuple[int, str, str]:
    if grid is not None:
        grid_path.write_text(json.dumps(grid), encoding="utf-8")
        argv = [str(grid_path) if a == GRID else a for a in argv]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, digest = run_digest(argv)
    return code, digest, err.getvalue()


@pytest.mark.parametrize("argv,code,digest", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_output_bytes(argv, code, digest):
    assert run_digest(argv) == (code, digest)


@pytest.mark.parametrize("name,argv,grid", PATHS, ids=[c[0] for c in PATHS])
def test_path_bytes(tmp_path, name, argv, grid):
    assert run_path(argv, grid, tmp_path / "grid.json") == PATH_RESULTS[name]


if __name__ == "__main__":
    import pathlib
    import tempfile

    for name, argv, _, _ in CASES:
        code, digest = run_digest(argv)
        print(f"    ({name!r}, {argv!r}, {code},\n     {digest!r}),")
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv, grid in PATHS:
            code, digest, err = run_path(argv, grid, pathlib.Path(tmp) / "grid.json")
            digest = "EMPTY" if digest == EMPTY else repr(digest)
            print(f"    {name!r}:\n        ({code}, {digest}, {err!r}),")
