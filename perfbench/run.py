"""feident benchmark: the CLI as fresh processes, the library in one process.

    python3 perfbench/run.py --workload audit|tables|sweep|all --seed N \
        --seconds S --trace 0|1

Run it from the root of a source checkout; it imports feident from `src/`.
One client, closed loop, no concurrency: each op starts when the previous
one, its reference-kernel op and its checks have finished.

Workloads (see BENCHMARK.json for why each exists):
  audit   fresh `feident audit --grid FILE` processes on a seeded grid
  tables  fresh `feident table ...` processes, round-robin over 5 subjects
  sweep   one library process; every op a new u, so every cache misses

A run first times the set-up (SETUP_PAIRS fresh interpreters importing
feident), then measures a fixed number of ops, sized from --seconds so that it
takes about that long at the commit that defined the benchmark.  A fixed count
keeps the sample (the mix of table subjects, the sweep's cache growth)
identical on both sides of a comparison; a count that follows the clock would
not.  Ops not started within RUN_DEADLINE_S of the run's start count as
failed, so that a much slower program still gets a result line.

--trace 0 prints the end-to-end metrics.  --trace 1 runs half as many ops,
each once untraced and once traced (wrappers from tracer.py), checks that
both emit identical bytes, and prints the per-layer metrics.  Every output is
checked; the last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import inputs

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK = ROOT / ".perfbench_work"
CHILD_ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
PY = sys.executable
CLI = [PY, "-c", "from feident.cli import main; main()"]
TRACED_CLI = [PY, str(HERE / "traced_cli.py")]
REF_OP = [PY, str(HERE / "refkernel.py")]
SETUP_OP = [PY, "-c", "import feident, feident.cli"]
SETUP_PAIRS = 15
# Seconds of one fresh-process reference op at the commit that defined the
# benchmark: `setup_s` is set-up time in reference ops, times this.
REF_OP_S = 0.05
OP_TIMEOUT_S = 60.0
RUN_DEADLINE_S = 150.0

# Seconds per op (per round of five invocations for `tables`), including its
# reference-kernel op and checks, at the commit that defined the benchmark.
NOMINAL_OP_S = {"audit": 0.5, "tables": 4.2, "sweep": 0.05}
MIN_OPS = {"audit": 12, "tables": 2, "sweep": 40}

END_TO_END_UNITS = {
    "setup_s": "s",
    "setup_raw_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "op_p50_rel": "ratio",
    "op_tail_rel": "ratio",
    "op_mean_rel": "ratio",
    "peak_rss_mb": "MB",
}

# The end-to-end metrics of BENCHMARK.json, in the result line.  Raw seconds
# and ops/s are printed too, but on a shared machine their run-to-run spread
# is wider than any bound they could be held to; the `_rel` metrics divide
# that drift out.
GATED = ("setup_s", "op_p50_rel", "op_tail_rel", "op_mean_rel", "peak_rss_mb")

VERIFY_IDS = ("theorem1", "corollary2", "theorem3", "corollary4", "corollary5",
              "eq60_multinomial", "carlitz_product", "carlitz_reciprocal",
              "bernoulli_product")
LAYERS = ("exact", "series", "poly", "stirling", "frobenius", "verify", "cli")
CALLS_AND_SELF = (
    ["series.series_mul", "series.series_pow", "series.series_reciprocal",
     "stirling.triangle_recurrence", "poly.mul"]
    + [f"frobenius.{f}" for f in ("fe_number", "fe_polynomial", "fe_higher_numbers",
                                  "fe_higher_number_formula", "bernoulli_number",
                                  "bernoulli_polynomial")]
    + [f"verify.{i}" for i in VERIFY_IDS]
)
CALLS_ONLY = ("series.bernoulli_oracle", "series.frobenius_oracle", "poly.add",
              "exact.parse_rational")
COUNTS = ("series.mul_terms", "series.reciprocal_terms", "series.out_bits",
          "exact.weak_compositions.items")
SELF_ONLY = ("verify.audit_document", "cli.run")


class Samples:
    """What one workload run measured."""

    def __init__(self):
        self.lat = []           # op latency, seconds
        self.kinds = []         # op kind of each latency: the table subject
        self.ref = []           # adjacent reference-kernel op, seconds
        self.setup = []         # fresh-interpreter import times, seconds
        self.setup_ref = []     # the reference op after each of them, seconds
        self.overhead = []      # traced minus untraced latency, per traced op
        self.traced_ops = 0
        self.rss_mb = 0.0
        self.attempted = 0
        self.errors = []
        self.skipped = 0        # failed ops not run, for the run's deadline
        self.rows = 0           # table rows, audit reports, sweep results
        self.trace = {"calls": {}, "self_s": {}, "counts": {}}

    def skip(self, ops: int) -> None:
        self.attempted += ops
        self.skipped += ops

    def add_trace(self, snap: dict, ops: int) -> None:
        self.traced_ops += ops
        for kind, values in snap.items():
            into = self.trace[kind]
            for name, value in values.items():
                into[name] = into.get(name, 0) + value


# ---------------------------------------------------------------------------
# Processes

deadline = math.inf     # perf_counter() time after which no op starts


def time_left() -> float:
    return deadline - perf_counter()


def spawn(argv, out_path: Path) -> tuple[float, int, float, bytes]:
    """Run argv to completion with stdout to out_path.  Returns (seconds,
    exit status, peak RSS in MB, stderr).  Kills it after OP_TIMEOUT_S, or
    at the run's deadline if that comes first."""
    err_path = out_path.with_suffix(".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=CHILD_ENV, cwd=ROOT)
        timer = threading.Timer(max(1.0, min(OP_TIMEOUT_S, time_left())), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        elapsed = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss / 1024, err_path.read_bytes()


def measure_setup(samples: Samples) -> None:
    """SETUP_PAIRS set-up samples, each a fresh interpreter importing feident
    (CLI included) followed by a fresh-process reference op, so that each
    sample can be divided by the machine's speed at that moment."""
    for _ in range(SETUP_PAIRS):
        for argv, into in ((SETUP_OP, samples.setup), (REF_OP, samples.setup_ref)):
            elapsed, code, _, err = spawn(argv, WORK / "setup.out")
            if code != 0:
                raise SystemExit(f"{argv[1:]} failed:\n{err.decode(errors='replace')}")
            into.append(elapsed)


def reference_op(samples: Samples) -> None:
    elapsed, code, _, err = spawn(REF_OP, WORK / "ref.out")
    if code != 0:
        samples.errors.append(f"reference kernel exit {code}: {err[-300:]!r}")
    samples.ref.append(elapsed)


def cli_op(samples: Samples, kind: str, argv, check, trace: bool) -> None:
    """One CLI op: untraced (timed), its reference op, and with trace also a
    traced twin whose stdout and exit status must match byte for byte."""
    samples.attempted += 1
    out = WORK / "op.out"
    elapsed, code, rss, err = spawn(CLI + argv, out)
    reference_op(samples)
    samples.lat.append(elapsed)
    samples.kinds.append(kind)
    samples.rss_mb = max(samples.rss_mb, rss)
    data = out.read_bytes()
    try:
        problem = check(data, code, err)
    except Exception as exc:  # a malformed output is a failed op, not a crash
        problem = f"unreadable output: {exc!r}"
    if problem:
        samples.errors.append(f"{' '.join(argv)}: {problem}")
        return
    if not trace:
        return
    samples.attempted += 1
    stats = WORK / "stats.json"
    t_elapsed, t_code, _, t_err = spawn(TRACED_CLI + [str(stats)] + argv, out)
    samples.overhead.append(t_elapsed - elapsed)
    if t_code != code or out.read_bytes() != data or t_err:
        samples.errors.append(f"{' '.join(argv)}: traced run differs from untraced run")
        return
    snap = json.loads(stats.read_text())
    samples.add_trace(snap, 1)
    if argv[:2] == ["table", "bernoulli"]:
        want = int(argv[argv.index("--n-max") + 1]) + 1
        seen = snap["calls"].get("series.bernoulli_oracle", 0)
        if seen != want:
            samples.errors.append(f"tracer saw {seen} bernoulli_oracle calls, expected {want}")


# ---------------------------------------------------------------------------
# Workloads

def op_count(workload: str, seconds: int, trace: bool) -> int:
    count = max(MIN_OPS[workload], round(seconds / NOMINAL_OP_S[workload]))
    return math.ceil(count / 2) if trace else count


def run_cli_ops(samples: Samples, ops, trace: bool) -> None:
    """Run (kind, argv, check) ops in order until the run's deadline."""
    for i, (kind, argv, check) in enumerate(ops):
        if time_left() <= 0:
            samples.skip((len(ops) - i) * (2 if trace else 1))
            return
        cli_op(samples, kind, argv, check, trace)


def run_audit(samples: Samples, seed: int, seconds: int, trace: bool) -> None:
    want = json.loads((HERE / "refs.json").read_text())["audit"].get(str(seed))
    grid_path = WORK / "grid.json"
    grid_path.write_text(json.dumps(inputs.audit_grid(seed)))
    argv = ["audit", "--grid", str(grid_path)]
    first = {}

    def check(data: bytes, code: int, err: bytes) -> str:
        if err:
            return f"stderr: {err[-300:]!r}"
        if code not in (0, 1):
            return f"exit status {code}"
        doc = json.loads(data)
        reports = doc["reports"]
        if len(reports) != inputs.SEED0_SUMMARY["total"]:
            return f"{len(reports)} reports"
        failed_printed = False
        for report in reports:
            if report["verdict"] == "error":
                return f"error verdict: {report}"
            if report["variant"] in ("corrected", "not_applicable"):
                if report["verdict"] != "pass":
                    return f"{report['identity']} {report['variant']} fails: {report['params']}"
            elif report["verdict"] == "fail":
                failed_printed = True
        if code != int(failed_printed):
            return f"exit status {code} but as_printed failures {failed_printed}"
        # Each grid has reports of the paper's misprinted forms that fail.
        if not failed_printed:
            return "no as_printed report fails"
        if seed == 0:
            summary = {k: doc["summary"][k] for k in inputs.SEED0_SUMMARY}
            if summary != inputs.SEED0_SUMMARY:
                return f"seed-0 summary {summary}"
        if want is not None and inputs.audit_digest(reports) != want:
            return "reports differ from those recorded for this seed"
        digest = hashlib.sha256(data).hexdigest()
        if first.setdefault("digest", digest) != digest:
            return "output differs from the first op of this run"
        return ""

    run_cli_ops(samples, [("audit", argv, check)] * op_count("audit", seconds, trace), trace)
    samples.rows = inputs.SEED0_SUMMARY["total"] * len(samples.lat)


def bernoulli_csv(n_max: int) -> bytes:
    """Expected `table bernoulli` CSV from SymPy.  SymPy 1.14 has B_1 = +1/2;
    feident (t/(e^t - 1)) has B_1 = -1/2."""
    import sympy

    lines = ["n,value"]
    for n in range(n_max + 1):
        b = sympy.bernoulli(n)
        value = Fraction(int(b.p), int(b.q))
        lines.append(f"{n},{-value if n == 1 else value}")
    return ("\n".join(lines) + "\n").encode()


def run_tables(samples: Samples, seed: int, seconds: int, trace: bool) -> None:
    refs = json.loads((HERE / "refs.json").read_text())
    bernoulli = bernoulli_csv(120)

    def checker(subject: str, u):
        def check(data: bytes, code: int, err: bytes) -> str:
            if err or code != 0:
                return f"exit status {code}, stderr {err[-300:]!r}"
            if subject == "bernoulli":
                return "" if data == bernoulli else "differs from SymPy"
            digest = hashlib.sha256(data).hexdigest()
            want = refs["stirling"] if subject == "stirling" else refs[subject][str(u)]
            return "" if digest == want else "differs from the recorded reference"
        return check

    ops = [(subject, inputs.table_args(subject, u), checker(subject, u))
           for subject, u in inputs.table_ops(seed, op_count("tables", seconds, trace))]
    run_cli_ops(samples, ops, trace)
    for _, argv, _ in ops[:len(samples.lat)]:
        # A table has rows n = 0..n_max; the triangle has rows N = 1..n_max.
        n_max = int(argv[argv.index("--n-max") + 1])
        samples.rows += n_max if argv[1] == "stirling" else n_max + 1


def run_sweep_worker(samples: Samples, us, trace: bool) -> tuple[list, dict | None]:
    """Run one sweep worker over `us`, killing it at the run's deadline.
    Returns its per-op records, one per `u` it reached, and its last record
    (None if it did not end).  Counts the ops as attempted, and the ops that
    raised, failed their checks or were not reached as failed."""
    job = {"us": [str(u) for u in us], "trace": trace}
    err_path = WORK / "sweep.err"
    with open(err_path, "wb") as err:
        proc = subprocess.Popen([PY, str(HERE / "sweep_worker.py")], stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, stderr=err, env=CHILD_ENV,
                                cwd=ROOT, text=True)
    timer = threading.Timer(max(1.0, time_left()), proc.kill)
    timer.start()
    records = []
    try:
        proc.stdin.write(json.dumps(job) + "\n")
        proc.stdin.close()
        for line in proc.stdout:
            if line.endswith("\n"):  # not a line cut short by a kill
                records.append(json.loads(line))
    finally:
        timer.cancel()
        proc.kill()
        proc.wait()
        proc.stdout.close()
    last = records.pop() if records and "maxrss_mb" in records[-1] else None
    samples.attempted += len(us)
    samples.errors += [r["error"] for r in records if r["error"]]
    if len(records) < len(us):
        samples.skipped += len(us) - len(records)
        print(f"sweep worker reached {len(records)} of {len(us)} ops: "
              f"{err_path.read_text(errors='replace')[-300:]!r}")
    return records, last


def run_sweep(samples: Samples, seed: int, seconds: int, trace: bool) -> None:
    us = inputs.sweep_us(seed, op_count("sweep", seconds, trace))
    plain, last = run_sweep_worker(samples, us, False)
    done = [r for r in plain if "lat" in r]
    samples.lat = [r["lat"] for r in done]
    samples.ref = [r["ref"] for r in done]
    samples.kinds = ["sweep"] * len(done)
    samples.rss_mb = last["maxrss_mb"] if last else 0.0
    samples.rows = 7 * len(done)
    if trace:
        traced, last = run_sweep_worker(samples, us, True)
        samples.overhead = [t["lat"] - p["lat"] for t, p in zip(traced, plain)
                            if "lat" in t and "lat" in p]
        if last:
            samples.add_trace(last["trace"], sum("lat" in r for r in traced))
        if [r.get("digest") for r in traced] != [r.get("digest") for r in plain[:len(traced)]]:
            samples.errors.append("traced results differ from untraced results")


RUNNERS = {"audit": run_audit, "tables": run_tables, "sweep": run_sweep}


# ---------------------------------------------------------------------------
# Metrics

def tail(values) -> tuple[float, float, int]:
    """Value at the highest percentile with at least ten samples beyond it:
    (value, percentile, samples beyond)."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def _kind_medians(values, kinds) -> dict:
    groups = {}
    for value, kind in zip(values, kinds):
        groups.setdefault(kind, []).append(value)
    return {kind: statistics.median(g) for kind, g in groups.items()}


def median_by_kind(values, kinds) -> float:
    """The median op; for a mix of op kinds (the five table subjects), the
    geometric mean of each kind's median.  The plain median of a mix is the
    median of whichever kind sits in the middle, so it would swing with the
    few draws of that one kind."""
    return statistics.geometric_mean(_kind_medians(values, kinds).values())


def tail_by_kind(values, kinds, typical: float) -> tuple[float, float, int]:
    """The tail op: the typical op times the tail of each op's slowdown over
    its own kind's median.  For one kind of op, with its median as `typical`,
    this is exactly `tail`; for a mix it keeps the tail from landing on a
    boundary between kinds.  Returns (value, percentile, samples beyond)."""
    medians = _kind_medians(values, kinds)
    slowdown, pct, beyond = tail([v / medians[k] for v, k in zip(values, kinds)])
    return typical * slowdown, pct, beyond


def relative(lat, ref) -> list[float]:
    """Op latencies in units of the reference op: each op over the mean of
    the reference ops just before and just after it.  The machine's speed
    changes within seconds, so the two ops that bracket an op track it
    better than a wider window; over runs of the same code this gave the
    steadiest medians, means and tails of the normalisations tried."""
    return [x / ((ref[i - 1] + ref[i]) / 2 if i else ref[i]) for i, x in enumerate(lat)]


def end_to_end(samples: Samples) -> tuple[dict, str]:
    rel = relative(samples.lat, samples.ref)
    p50_s = median_by_kind(samples.lat, samples.kinds)
    tail_s, pct, beyond = tail_by_kind(samples.lat, samples.kinds, p50_s)
    p50_rel = median_by_kind(rel, samples.kinds)
    values = {
        # Set-up time in reference ops, in seconds at the speed the machine
        # had when the benchmark was defined; the raw seconds follow the
        # shared machine's speed, which drifts by up to ~30 % between runs.
        "setup_s": REF_OP_S * statistics.median(
            s / r for s, r in zip(samples.setup, samples.setup_ref)),
        "setup_raw_s": statistics.median(samples.setup),
        "op_p50_s": p50_s,
        "op_tail_s": tail_s,
        "ops_per_s": len(samples.lat) / sum(samples.lat),
        "op_p50_rel": p50_rel,
        "op_tail_rel": tail_by_kind(rel, samples.kinds, p50_rel)[0],
        "op_mean_rel": statistics.fmean(rel),
        "peak_rss_mb": samples.rss_mb,
    }
    note = f"op_tail_* at p{pct:.1f}: {beyond} of {len(samples.lat)} samples beyond"
    return values, note


def per_layer(samples: Samples, ops: int) -> dict:
    calls, self_s, counts = (samples.trace[k] for k in ("calls", "self_s", "counts"))
    values = {}
    for name in CALLS_AND_SELF:
        values[f"{name}.calls"] = calls.get(name, 0) / ops
        values[f"{name}.self_s"] = self_s.get(name, 0.0) / ops
    for name in CALLS_ONLY:
        values[f"{name}.calls"] = calls.get(name, 0) / ops
    for name in COUNTS:
        values[name] = counts.get(name, 0) / ops
    for name in SELF_ONLY:
        values[f"{name}.self_s"] = self_s.get(name, 0.0) / ops
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(
            v for k, v in self_s.items() if k.startswith(layer + ".")) / ops
    values["series.reciprocal_terms_per_row"] = (
        counts.get("series.reciprocal_terms", 0) / samples.rows if samples.rows else 0.0)
    served = (calls.get("frobenius.bernoulli_number", 0)
              + calls.get("frobenius.bernoulli_polynomial", 0))
    values["frobenius.bernoulli_oracle_per_number"] = (
        calls.get("series.bernoulli_oracle", 0) / served if served else 0.0)
    values["trace.overhead_s"] = statistics.median(samples.overhead) if samples.overhead else 0.0
    return values


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s" if name == "trace.overhead_s" else "s/op"
    if name.endswith("_per_row") or name.endswith("_per_number"):
        return "ratio"
    if name == "series.out_bits":
        return "bit/op"
    return "count/op"


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    global deadline
    deadline = perf_counter() + RUN_DEADLINE_S
    spawn(SETUP_OP, WORK / "setup.out")  # writes the bytecode caches, untimed
    samples = Samples()
    measure_setup(samples)
    RUNNERS[workload](samples, seed, seconds, trace)
    if not samples.lat:
        raise SystemExit(f"{workload}: no op completed: {samples.errors[:3]}")
    for message in samples.errors[:20]:
        print(f"FAILED {workload}: {message}")
    if samples.skipped:
        print(f"FAILED {workload}: {samples.skipped} ops not run or not finished "
              f"within the run's {RUN_DEADLINE_S:.0f} s")
    e2e, note = end_to_end(samples)
    ops = len(samples.lat)
    print(f"workload {workload}  seed {seed}  ops {ops}  trace {int(trace)}")
    if trace:
        # No traced op ends only in a failed run (the deadline passed).
        shown = metrics = per_layer(samples, max(1, samples.traced_ops))
    else:
        shown = e2e
        metrics = {name: e2e[name] for name in GATED}
        print(f"  ({note})")
    for name, value in shown.items():
        print(f"  {name:48s} {value:.6g} {unit_of(name)}")
    failed = len(samples.errors) + samples.skipped
    print(f"  {'error_rate':48s} {failed / samples.attempted:.6g} "
          f"({failed} of {samples.attempted} failed)")
    return {
        "correct": failed == 0,
        "attempted": samples.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(RUNNERS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "feident" / "cli.py").is_file():
        print(f"no feident sources under {ROOT / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    workloads = sorted(RUNNERS) if args.workload == "all" else [args.workload]
    # On SIGTERM, unwind: the running child is killed and reaped, and the
    # scratch directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    WORK.mkdir(exist_ok=True)
    try:
        results = [run_workload(w, args.seed, args.seconds, bool(args.trace))
                   for w in workloads]
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    for result in results:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
