"""Seeded inputs for the three workloads.

The program only ever receives what these functions return: an audit grid
file, `feident table` argument lists, and the `u` values of the sweep.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import random
from fractions import Fraction

# Same axes, sizes and (at seed 0) values as feident's built-in audit grid
# at the commit that defined this benchmark: 594 reports.
SEED0_GRID = {
    "theorem1": {"variant": ["as_printed", "corrected"], "N": [1, 2, 3, 4, 5],
                 "u": ["2", "1/3", "-5/7"], "T": [12]},
    "corollary2": {"variant": ["as_printed", "corrected"], "N": [1, 2, 3, 4],
                   "u": ["2", "1/3"], "x": ["0", "1/2"], "T": [12]},
    "theorem3": {"variant": ["as_printed", "corrected"], "n": [0, 1, 2, 3, 4, 5, 6],
                 "N": [1, 2, 3, 4], "u": ["2", "1/3", "-5/7"]},
    "corollary4": {"variant": ["as_printed", "corrected"], "n": [0, 1, 2, 3, 4, 5],
                   "N": [1, 2, 3, 4], "u": ["2", "1/3"]},
    "corollary5": {"variant": ["as_printed", "corrected"], "n": [0, 1, 2, 3, 4, 5],
                   "N": [1, 2, 3], "u": ["2", "1/3"]},
    "eq60_multinomial": {"n": [0, 1, 2, 3, 4, 5], "N": [1, 2, 3], "u": ["2", "1/3"]},
    "carlitz_product": {"variant": ["as_printed", "corrected"], "m": [0, 1, 2, 3],
                        "n": [0, 1, 2, 3],
                        "alpha_beta": [["2", "3"], ["1/2", "1/3"], ["-2", "5"]]},
    "carlitz_reciprocal": {"m": [0, 1, 2, 3], "n": [0, 1, 2, 3], "alpha": ["2", "1/2", "-2"]},
    "bernoulli_product": {"m": [1, 2, 3, 4], "n": [1, 2, 3, 4]},
}
SEED0_SUMMARY = {"total": 594, "pass": 454, "fail": 140, "error": 0}

# The audit seeds whose report digests refs.json records (record_refs.py).
AUDIT_SEEDS = range(1000)

# Every checker accepts u outside {0, 1}, so drawing from this domain keeps
# every op free of `error` verdicts and usage errors.
EXCLUDED = (Fraction(0), Fraction(1))

TABLE_SUBJECTS = ("fe-numbers", "bernoulli", "fe-higher", "fe-polynomials", "stirling")
TABLE_HEIGHT = 9
AUDIT_HEIGHT = 7
SWEEP_HEIGHT = 30


def rationals(height: int) -> list[Fraction]:
    """All p/q with max(|p|, q) <= height outside EXCLUDED, in a fixed order."""
    out = []
    for q in range(1, height + 1):
        for p in range(-height, height + 1):
            if math.gcd(p, q) == 1 and Fraction(p, q) not in EXCLUDED:
                out.append(Fraction(p, q))
    return out


def audit_grid(seed: int) -> dict:
    """The seed-0 grid, with every rational axis redrawn from the seed for
    seed != 0.  Axis sizes stay the same, so every seed has 594 reports."""
    grid = copy.deepcopy(SEED0_GRID)
    if seed == 0:
        return grid
    rng = random.Random(seed)
    pool = rationals(AUDIT_HEIGHT)
    for identity, axes in grid.items():
        for key in ("u", "x", "alpha"):
            if key in axes:
                axes[key] = [str(v) for v in rng.sample(pool, len(axes[key]))]
        if "alpha_beta" in axes:
            pairs = []
            while len(pairs) < len(axes["alpha_beta"]):
                alpha, beta = rng.sample(pool, 2)
                if alpha * beta != 1:
                    pairs.append([str(alpha), str(beta)])
            axes["alpha_beta"] = pairs
    return grid


def audit_digest(reports: list) -> str:
    """Digest of an audit's reports, independent of JSON layout: every
    verdict, parameter and mismatch counts, key order and spacing do not."""
    blob = json.dumps(reports, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def table_args(subject: str, u: Fraction) -> list[str]:
    """argv after `feident` for one table op.  A negative `u` is passed as
    `--u=-p/q`, since argparse rejects `--u -p/q`."""
    if subject == "fe-numbers":
        return ["table", "fe-numbers", f"--u={u}", "--n-max", "400"]
    if subject == "bernoulli":
        return ["table", "bernoulli", "--n-max", "120"]
    if subject == "fe-higher":
        return ["table", "fe-higher", f"--u={u}", "--N", "20", "--n-max", "80"]
    if subject == "fe-polynomials":
        return ["table", "fe-polynomials", f"--u={u}", "--n-max", "120"]
    if subject == "stirling":
        return ["table", "stirling", "--n-max", "300"]
    raise ValueError(subject)


def table_ops(seed: int, rounds: int) -> list[tuple[str, Fraction | None]]:
    """`rounds` whole round-robins over TABLE_SUBJECTS, each `u` drawn afresh."""
    rng = random.Random(seed)
    pool = rationals(TABLE_HEIGHT)
    ops = []
    for _ in range(rounds):
        for subject in TABLE_SUBJECTS:
            needs_u = subject in ("fe-numbers", "fe-higher", "fe-polynomials")
            ops.append((subject, rng.choice(pool) if needs_u else None))
    return ops


def sweep_us(seed: int, count: int) -> list[Fraction]:
    """`count` distinct u values of height <= 30, in seeded order."""
    pool = rationals(SWEEP_HEIGHT)
    if count > len(pool):
        raise ValueError(f"sweep needs {count} distinct u values, has {len(pool)}")
    random.Random(seed).shuffle(pool)
    return pool[:count]
