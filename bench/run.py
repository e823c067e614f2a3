"""homofiber benchmark: one workload, one seed, one closed-loop client.

    python3 bench/run.py --workload verify --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`. With --trace 0 the run times whole passes of ops (see
workloads.py) for about --seconds and reports the end-to-end metrics;
with --trace 1 it alternates the first passes of the same schedule
untraced and traced (wrappers from tracing.py) and reports per-layer
call counts and self times. Every op's outcome is checked. The last
line of stdout is the result as JSON; a fuller record, with the
environment, goes to .bench_out/. Exit code 0 means every check
passed, 1 that some check failed, 2 a bad invocation or a checkout
without the package.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import importlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback

import numpy as np
import scipy
import scipy.special

from tracing import Tracer, write_spans
from workloads import WORKLOADS, Outcome

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 3
ERRORS_SHOWN = 5


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


class Runner:
    """Executes ops through `main`, checks them and keeps the tallies."""

    def __init__(self):
        self.main = None
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.output_bytes = 0

    def record(self, label, err):
        self.attempted += 1
        if err is not None:
            self.failed += 1
            if len(self.errors) < ERRORS_SHOWN:
                self.errors.append(f"{label}: {err}")

    def call(self, op):
        """Run one op; return its wall time in seconds and its outcome."""
        out, err = io.StringIO(), io.StringIO()
        tb = rc = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.main(op.argv)
        except Exception:
            tb = traceback.format_exc()
        elapsed = time.perf_counter() - start
        return elapsed, Outcome(rc, out.getvalue(), err.getvalue(), tb)

    def check(self, op, outcome):
        self.output_bytes += len(outcome.stdout.encode())
        if op.out_path and os.path.exists(op.out_path):
            self.output_bytes += os.path.getsize(op.out_path)
        try:
            problem = op.check(outcome)
        except Exception as exc:  # a malformed output is a wrong outcome
            problem = f"output check raised {type(exc).__name__}: {exc}"
        self.record(" ".join(op.argv[:3]), problem)

    def run_pass(self, ops, between=None):
        """Run ops back to back, then check them all.

        Checking after the pass keeps the benchmark's own work (parsing
        outputs, reference exponentials) from running between ops, where
        it would disturb the caches and allocator state the next op sees.
        `between` runs before the first op and after each op.
        Returns [(slot, seconds)].
        """
        done = []
        if between:
            between()
        for op in ops:
            elapsed, outcome = self.call(op)
            if between:
                between()
            done.append((op, elapsed, outcome))
        for op, _, outcome in done:
            self.check(op, outcome)
        return [(op.slot, elapsed) for op, elapsed, _ in done]

    def execute(self, op):
        """Run and check one op; return its wall time in seconds."""
        return self.run_pass([op])[0][1]


def import_package():
    """Fresh import of homofiber from the checkout's src/."""
    for name in [m for m in sys.modules if m == "homofiber" or m.startswith("homofiber.")]:
        del sys.modules[name]
    hf = importlib.import_module("homofiber")
    importlib.import_module("homofiber.cli")
    return hf


# A fixed loop of small complex matrix products, shaped like the
# package's inner loops (asarray, finiteness check, product, trace) and
# independent of it. Shared hosts drift in speed by a third over tens of
# seconds; ops and this kernel slow down together, so times are scaled
# by CALIBRATION_REF_S / (kernel time around them, see pass_scale).
# Reported times are therefore milliseconds at the host speed where the
# kernel takes CALIBRATION_REF_S; raw times are kept in the record.
CALIBRATION_REF_S = 0.010
_RNG = np.random.default_rng(0)
_CAL_A = _RNG.standard_normal((4, 4)) + 1j * _RNG.standard_normal((4, 4))
_CAL_B = _CAL_A.conj().T.copy()


def calibration_kernel(iterations=1000):
    start = time.perf_counter()
    acc = 0.0
    for _ in range(iterations):
        a = np.asarray(_CAL_A, dtype=complex)
        if not np.all(np.isfinite(a)):
            raise ValueError("calibration input is not finite")
        acc -= float(np.real(np.trace(a @ _CAL_B)))
    return time.perf_counter() - start


def setup(workload, runner, repeats):
    """Import, input generation and one warm-up op, `repeats` times.

    Returns the median scaled and raw set-up times and the package from
    the last round, whose inputs the workload keeps.
    """
    scaled, raw = [], []
    for _ in range(repeats):
        before = calibration_kernel()
        start = time.perf_counter()
        hf = import_package()
        runner.main = hf.cli.main
        workload.make_inputs(hf)
        warmup = workload.warmup_op()
        _, outcome = runner.call(warmup)
        elapsed = time.perf_counter() - start
        scale = pass_scale([before, calibration_kernel()])
        runner.check(warmup, outcome)
        raw.append(elapsed)
        scaled.append(elapsed * scale)
    return statistics.median(scaled), statistics.median(raw), hf


def quantile(values, pct):
    """Harrell-Davis estimate of a percentile of `values`.

    A beta-weighted mean of all order statistics, centred on the
    nearest-rank one. Per-op times on a shared host scatter by a quarter
    from op to op, and the weighted mean moves much less from run to run
    than any single order statistic.
    """
    x = np.sort(values)
    n = len(x)
    p = pct / 100.0
    # beta(p(n+1), (1-p)(n+1)) CDF at k/n, via the regularized incomplete beta
    weights = np.diff(scipy.special.betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n))
    return float(weights @ x)


def samples_beyond(count, pct):
    """Samples above the nearest-rank position of the percentile."""
    return count - max(1, math.ceil(pct / 100.0 * count))


def timed_passes(workload, runner, seconds):
    """Whole passes until the next would likely end after `seconds`.

    Returns per pass the (slot, seconds) of each op and the calibration
    kernel times taken before the first op and after each op.
    """
    passes = []
    start = time.perf_counter()
    while True:
        kernels = []
        ops = runner.run_pass(workload.pass_ops(len(passes)),
                              between=lambda: kernels.append(calibration_kernel()))
        passes.append((ops, kernels))
        elapsed = time.perf_counter() - start
        if elapsed * (1 + 1 / len(passes)) > seconds:
            return passes


def pass_scale(kernels):
    # The median over a pass ignores the kernel runs caught in a short
    # slow spell, which hit the kernel harder than the ops around it.
    return CALIBRATION_REF_S / statistics.median(kernels)


def latency_metrics(passes, pct, scaled):
    """ops_per_s, latency_p50_ms and latency_tail_ms over the passes."""
    per_pass = [[dt * (pass_scale(k) if scaled else 1.0) for _, dt in ops] for ops, k in passes]
    latencies = [dt for p in per_pass for dt in p]
    # Every pass has the same op mix, so per-pass rates are comparable;
    # their median resists bursts of host noise.
    rate = statistics.median(len(p) / sum(p) for p in per_pass)
    return {
        "ops_per_s": (rate, "1/s"),
        "latency_p50_ms": (1e3 * quantile(latencies, 50.0), "ms"),
        "latency_tail_ms": (1e3 * quantile(latencies, pct), "ms"),
    }


def end_to_end(workload, runner, seconds, setup_s, setup_raw_s):
    workload.koszul.clear()  # drop the warm-up ops' residuals
    passes = timed_passes(workload, runner, seconds)
    pct = workload.tail_percentile
    timing = latency_metrics(passes, pct, scaled=True)
    raw = latency_metrics(passes, pct, scaled=False)
    koszul = list(workload.koszul)
    if workload.runs_panel:
        workload.koszul.clear()
        for op in workload.panel_ops():
            runner.execute(op)
        koszul = list(workload.koszul)
    metrics = {
        "setup_s": (setup_s, "s"),
        **timing,
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "koszul_max_residual": (max(koszul, default=0.0), "1"),
    }
    raw["setup_s"] = (setup_raw_s, "s")
    by_slot = {}
    for ops, _ in passes:
        for slot, dt in ops:
            by_slot.setdefault(slot, []).append(dt)
    ops_count = sum(len(ops) for ops, _ in passes)
    beyond = samples_beyond(ops_count, pct)
    scales = [pass_scale(k) for _, k in passes]
    detail = {
        "passes": len(passes),
        "ops": ops_count,
        "tail_percentile": pct,
        "tail_samples_beyond": beyond,
        "time_scale_median": statistics.median(scales),
        "time_scale_range": [min(scales), max(scales)],
        "raw_metrics": {k: v for k, (v, _) in raw.items()},
        "koszul_source": "panel" if workload.runs_panel else "timed ops",
        "slot_median_raw_ms": {s: 1e3 * statistics.median(v) for s, v in by_slot.items()},
        "pass_ops_raw_s": [ops for ops, _ in passes],
        "pass_kernels_s": [k for _, k in passes],
    }
    lines = [
        f"tail is p{pct:g} of {ops_count} ops ({beyond} beyond it), {len(passes)} passes",
        f"time scale (reference kernel {1e3 * CALIBRATION_REF_S:g} ms / measured) "
        f"median {detail['time_scale_median']:.4f}, range {min(scales):.4f}..{max(scales):.4f}",
        "raw " + " ".join(f"{k}={v:.6g}" for k, (v, _) in raw.items()),
    ]
    if beyond < 10:
        lines.append(f"warning: only {beyond} samples beyond the tail percentile")
    return metrics, detail, lines


def traced(workload, runner, hf, seconds, spans_path):
    """Alternate untraced and traced rounds of the first passes."""
    tracer = Tracer()
    main = hf.cli.main
    traced_main = lambda argv: tracer.call("cli.main", main, argv)  # noqa: E731
    rounds = []  # (untraced op seconds, traced op seconds, counts, self_ms)
    start = time.perf_counter()
    while True:
        op_time = []
        for tracing in (False, True):
            runner.main = traced_main if tracing else main
            if tracing:
                tracer.reset()
                tracer.install(hf)
            bytes_before = runner.output_bytes
            try:
                total = 0.0
                for index in range(workload.trace_passes):
                    total += sum(dt for _, dt in runner.run_pass(workload.pass_ops(index)))
            finally:
                tracer.uninstall()
            op_time.append(total)
        counts, self_ms = tracer.snapshot()
        counts["cli.output_bytes"] = runner.output_bytes - bytes_before
        rounds.append((op_time[0], op_time[1], counts, self_ms))
        elapsed = time.perf_counter() - start
        if len(rounds) >= 2 and elapsed * (1 + 1 / len(rounds)) > seconds:
            break
    write_spans(tracer.spans, spans_path)
    first = rounds[0][2]
    for i, r in enumerate(rounds[1:], start=2):
        diff = sorted(k for k in set(first) | set(r[2]) if first.get(k) != r[2].get(k))
        runner.record(f"trace round {i}", f"call counts differ from round 1: {diff}" if diff else None)
    metrics = {}
    for spec in benchmark_spec()["per_layer"]:
        name, unit = spec["name"], spec["unit"]
        if name == "trace.overhead_ratio":
            value = statistics.median(r[1] for r in rounds) / statistics.median(r[0] for r in rounds)
        elif name.endswith(".self_ms"):
            value = statistics.median(r[3].get(name[: -len(".self_ms")], 0.0) for r in rounds)
        else:
            value = first.get(name[: -len(".calls")] if name.endswith(".calls") else name, 0)
        metrics[name] = (value, unit)
    untraced = statistics.median(r[0] for r in rounds)
    traced_s = statistics.median(r[1] for r in rounds)
    ops = sum(len(workload.pass_ops(i)) for i in range(workload.trace_passes))
    lines = [
        f"tracing overhead: {ops / traced_s:.3f} ops/s traced vs {ops / untraced:.3f} "
        f"ops/s untraced over {len(rounds)} rounds of {ops} ops",
    ]
    detail = {"rounds": len(rounds), "ops_per_round": ops,
              "ops_per_s_traced": ops / traced_s, "ops_per_s_untraced": ops / untraced,
              "spans_file": os.path.relpath(spans_path, ROOT)}
    return metrics, detail, lines


def blas_threads():
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*.so"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS") or "unknown"


def git_commit():
    """HEAD of the checkout's .git, or "unknown" outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def environment(seed):
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "git_commit": git_commit(),
        "seed": seed,
    }


def run(workload, seconds, trace, setup_repeats=SETUP_REPEATS):
    """Run one workload object; return the result, the full record and report lines."""
    runner = Runner()
    setup_s, setup_raw_s, hf = setup(workload, runner, 1 if trace else setup_repeats)
    for label, err in workload.final_checks(hf):
        runner.record(label, err)
    if trace:
        spans = os.path.join(OUT_DIR, f"spans-{workload.name}-seed{workload.seed}.jsonl")
        metrics, detail, lines = traced(workload, runner, hf, seconds, spans)
    else:
        metrics, detail, lines = end_to_end(workload, runner, seconds, setup_s, setup_raw_s)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(result, workload=workload.name, trace=trace, seconds=seconds,
                  error_rate=runner.failed / runner.attempted, errors=runner.errors,
                  detail=detail, environment=environment(workload.seed))
    lines.append(f"error_rate {record['error_rate']:g} ({runner.failed}/{runner.attempted})")
    lines += [f"error: {e}" for e in runner.errors]
    return result, record, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description="homofiber benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "homofiber", "__init__.py")):
        sys.stderr.write(f"no homofiber package under {SRC}; run from a source checkout\n")
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT_DIR, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, OUT_DIR)
    result, record, lines = run(workload, args.seconds, args.trace)
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    for name, m in result["metrics"].items():
        print(f"{args.workload:9s} {name:42s} {m['value']:.6g} {m['unit']}")
    for line in lines:
        print(line)
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
