"""Byte-identity of CLI outputs against recorded SHA-256 digests.

The digests pin the exact bytes (and exit status) of a few large tables
and of the default audit, so any change to the number kernel, the series
code or the rendering that alters a single character shows up here.  They
were recorded before the fraction-free prefix-table kernel replaced the
Fraction recurrence, so they also pin that the two agree.

To regenerate after an intended output change, run from the repository
root

    PYTHONPATH=src python tests/test_golden.py

and paste the printed ``CASES`` entries over the ones below.
"""

import contextlib
import hashlib
import io

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
    ("audit", ["audit"], 1,
     "f1f68eac8efcfe7a8407e0f97529742de58ac200f3b9ab5d0a966a493693b8c9"),
]


def run_digest(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(argv)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("argv,code,digest", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_output_bytes(argv, code, digest):
    assert run_digest(argv) == (code, digest)


if __name__ == "__main__":
    for name, argv, _, _ in CASES:
        code, digest = run_digest(argv)
        print(f"    ({name!r}, {argv!r}, {code},\n     {digest!r}),")
