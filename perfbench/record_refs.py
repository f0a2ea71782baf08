"""Record the table references that `run.py --workload tables` checks against.

    PYTHONPATH=src python3 perfbench/record_refs.py > perfbench/refs.json

For every `u` the tables workload can draw, it stores the SHA-256 of the
`fe-numbers`, `fe-higher` and `fe-polynomials` output of the current
program, and for every audit seed in AUDIT_SEEDS the digest of the reports
of `feident audit --grid` on that seed's grid (`audit_digest`), so run it on
a commit whose output is trusted.  It takes about fifteen minutes.  The `stirling`
digest is built from SymPy's unsigned Stirling numbers of the first kind
(`stirling(N, k+1, kind=1)`), which take about two minutes for the whole
triangle: too slow to recompute in every run.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from inputs import AUDIT_SEEDS, TABLE_HEIGHT, audit_digest, audit_grid, rationals, table_args

CLI = [sys.executable, "-c", "from feident.cli import main; main()"]


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def stirling_csv(n_max: int) -> bytes:
    from sympy.functions.combinatorial.numbers import stirling

    lines = ["N,k,a_k"]
    for n in range(1, n_max + 1):
        lines += [f"{n},{k},{stirling(n, k + 1, kind=1)}" for k in range(n)]
    return ("\n".join(lines) + "\n").encode()


def main() -> None:
    refs = {"stirling": digest(stirling_csv(300))}
    for subject in ("fe-numbers", "fe-higher", "fe-polynomials"):
        refs[subject] = {}
        for u in rationals(TABLE_HEIGHT):
            done = subprocess.run(CLI + table_args(subject, u), capture_output=True,
                                  check=True, env=os.environ)
            refs[subject][str(u)] = digest(done.stdout)
        print(subject, "done", file=sys.stderr)
    refs["audit"] = {}
    with tempfile.TemporaryDirectory() as tmp:
        grid_path = Path(tmp) / "grid.json"
        for seed in AUDIT_SEEDS:
            grid_path.write_text(json.dumps(audit_grid(seed)))
            done = subprocess.run(CLI + ["audit", "--grid", str(grid_path)],
                                  capture_output=True, env=os.environ)
            if done.returncode not in (0, 1) or done.stderr:
                raise SystemExit(f"audit at seed {seed} failed: {done.stderr[-300:]!r}")
            if done.returncode != 1:
                print(f"audit at seed {seed}: no as_printed report fails", file=sys.stderr)
            refs["audit"][str(seed)] = audit_digest(json.loads(done.stdout)["reports"])
    print("audit done", file=sys.stderr)
    json.dump(refs, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
