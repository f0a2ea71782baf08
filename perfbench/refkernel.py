"""Fixed, feident-free reference kernel.

Bernoulli numbers B_0..B_N by the Akiyama-Tanigawa algorithm in `Fraction`
arithmetic: the same interpreter, number type and allocation pattern as
feident's hot loops, but none of its code.  The benchmark times it next to
every op, so that `op_*_rel` metrics divide out how fast this shared machine
runs at that moment.  Run as a script, it is one fresh-process reference op.
"""

from fractions import Fraction

N = 44
B44 = Fraction(-27833269579301024235023, 690)


def kernel() -> Fraction:
    row = [Fraction(0)] * (N + 1)
    for m in range(N + 1):
        row[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
    return row[0]


if __name__ == "__main__":
    if kernel() != B44:
        raise SystemExit("reference kernel computed a wrong value")
