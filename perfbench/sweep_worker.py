"""The long-lived library process of the `sweep` workload.

    PYTHONPATH=src python3 perfbench/sweep_worker.py < job.json

The job is one JSON line, `{"us": ["p/q", ...], "trace": bool}`.  Each op
takes the next `u`, times one sweep op and then one reference-kernel op, and
checks the op's results outside the timed region.  Each op's result is one
JSON line on stdout, written as soon as the op ends, so that a worker killed
part-way still leaves the ops it finished; a last line carries the peak RSS
and, when traced, the spans.
"""

import hashlib
import json
import math
import resource
import sys
import traceback
from fractions import Fraction
from time import perf_counter

import refkernel
from tracer import Tracer

DEGREE = 60


def eulerian_rows(n_max: int) -> list[list[int]]:
    """Eulerian numbers A(n, k); row n holds the coefficients of A_n(u)."""
    rows = [[1]]
    for n in range(1, n_max + 1):
        prev = rows[-1]
        rows.append([
            (k + 1) * (prev[k] if k < len(prev) else 0)
            + (n - k) * (prev[k - 1] if k >= 1 else 0)
            for k in range(n)
        ])
    return rows


def fe_polynomial_reference(rows, n: int, u: Fraction) -> tuple:
    """Coefficients of H_n(x|u) from H_l(u) = A_l(u) / (u-1)^l (Carlitz),
    which shares no code with feident's recurrence."""
    numbers = []
    for l in range(n + 1):
        acc = Fraction(0)
        for a in reversed(rows[l]):
            acc = acc * u + a
        numbers.append(acc / (u - 1) ** l)
    return tuple(math.comb(n, d) * numbers[n - d] for d in range(n + 1))


def main() -> None:
    job = json.loads(sys.stdin.readline())
    tracer = Tracer() if job["trace"] else None
    if tracer is not None:
        tracer.install()
    import feident.frobenius as frobenius
    import feident.verify as verify

    rows = eulerian_rows(DEGREE)
    for text in job["us"]:
        u = Fraction(text)
        beta = 5 if 3 * u == 1 else 3
        try:
            start = perf_counter()
            poly = frobenius.fe_polynomial(DEGREE, u)
            reports = [
                verify.verify_theorem3(6, 4, u),
                verify.verify_corollary4(6, 4, u),
                verify.verify_corollary5(8, 3, u),
                verify.verify_theorem1(4, u, 24),
                verify.verify_carlitz(6, 6, u, beta),
                verify.verify_product_multinomial(5, 3, u),
            ]
            mid = perf_counter()
            value = refkernel.kernel()
            end = perf_counter()
        except Exception:
            emit({"error": f"u={text}: {traceback.format_exc(limit=3)}"})
            continue
        docs = [r.to_dict() for r in reports]
        bad = [d["identity"] for d in docs if d["verdict"] != "pass"]
        if poly.coeffs != fe_polynomial_reference(rows, DEGREE, u):
            bad.append("fe_polynomial")
        if value != refkernel.B44:
            bad.append("reference kernel")
        blob = json.dumps([[str(c) for c in poly.coeffs], docs]).encode()
        emit({
            "lat": mid - start,
            "ref": end - mid,
            "digest": hashlib.sha256(blob).hexdigest(),
            "error": f"u={text}: wrong {', '.join(bad)}" if bad else "",
        })
    emit({
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "trace": tracer.snapshot() if tracer is not None else None,
    })


def emit(record: dict) -> None:
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()

if __name__ == "__main__":
    main()
