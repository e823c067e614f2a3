"""Self-test of the benchmark on tiny inputs.

    python3 bench/selftest.py

Checks that a tiny run of each workload, untraced and traced, emits
every metric named in BENCHMARK.json with its unit and no failures;
that an expected `--perturb` exit 1 counts as a success while a wrong
exit code, a corrupted output file or a traceback counts as a failure;
and that two traced runs with the same seed give identical call
counts. Exits 0 when all of that holds.
"""

from __future__ import annotations

import math
import os
import sys

import run as bench
from workloads import Simulate, Validate, Verify

sys.path.insert(0, bench.SRC)


def tiny(name, seed=5):
    out = bench.OUT_DIR
    if name == "verify":
        return Verify(seed, out, samples=3, spaces=("kahler_s2", "hopf:1"), perturbed="hopf:1")
    if name == "simulate":
        return Simulate(seed, out, samples=40, spaces=("kahler_s2", "hopf:1"))
    return Validate(seed, out, max_n=2, names=("hopf:1", "kahler_s2"))


def check_metrics(result, specs, label):
    got = result["metrics"]
    assert list(got) == [s["name"] for s in specs], f"{label}: metric names {list(got)}"
    for spec in specs:
        m = got[spec["name"]]
        assert m["unit"] == spec["unit"], f"{label}: {spec['name']} unit {m['unit']}"
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), (
            f"{label}: {spec['name']} = {m['value']!r}")


def lying_runner(workload, corrupt):
    """A one-pass run whose main() is wrapped by `corrupt`; returns the runner."""
    runner = bench.Runner()
    _, _, hf = bench.setup(workload, runner, 1)
    runner.attempted = runner.failed = 0
    real = hf.cli.main
    runner.main = lambda argv: corrupt(real, argv)
    for op in workload.pass_ops(0):
        runner.execute(op)
    return runner


def always_zero(real, argv):
    real(argv)
    return 0


def shifted_csv(real, argv):
    rc = real(argv)
    path = argv[argv.index("--out") + 1]
    with open(path) as fh:
        lines = fh.read().splitlines()
    cells = lines[1].split(",")
    cells[1] = repr(float(cells[1]) + 1e-6)
    lines[1] = ",".join(cells)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return rc


def raises_on_documents(real, argv):
    if argv[-1].endswith(".json"):
        raise RuntimeError("deliberate failure")
    return real(argv)


def main():
    os.makedirs(bench.OUT_DIR, exist_ok=True)
    spec = bench.benchmark_spec()
    for name in ("verify", "simulate", "validate"):
        result, _, _ = bench.run(tiny(name), seconds=0, trace=0, setup_repeats=1)
        assert result["correct"] and result["failed"] == 0, f"{name}: {result}"
        check_metrics(result, spec["end_to_end"], name)
        assert all(m["value"] > 0 for m in result["metrics"].values()), f"{name}: a zero metric"
        counts = []
        for _ in range(2):
            traced, _, _ = bench.run(tiny(name), seconds=0, trace=1)
            assert traced["correct"], f"{name} traced: {traced}"
            check_metrics(traced, spec["per_layer"], f"{name} traced")
            counts.append({k: m["value"] for k, m in traced["metrics"].items()
                           if k.endswith(".calls") or k in ("oracle.residual_entries",
                                                            "cli.output_bytes")})
        assert counts[0] == counts[1], f"{name}: call counts differ between traced runs"
        print(f"ok  {name}: tiny run emits every metric; traced counts repeat")

    verify = tiny("verify")
    assert any("--perturb" in op.argv for op in verify.pass_ops(0))
    runner = lying_runner(verify, always_zero)
    assert runner.failed == 1 and runner.attempted == len(verify.pass_ops(0)), runner.errors
    print("ok  verify: expected exit 1 on --perturb passes; exit 0 there fails")

    simulate = tiny("simulate")
    runner = lying_runner(simulate, shifted_csv)
    assert runner.failed == runner.attempted > 0, runner.errors
    print("ok  simulate: a representative entry off by 1e-6 fails")

    validate = tiny("validate")
    runner = lying_runner(validate, raises_on_documents)
    documents = sum(op.argv[-1].endswith(".json") for op in validate.pass_ops(0))
    assert runner.failed == documents > 0, runner.errors
    print("ok  validate: a traceback fails")
    return 0


if __name__ == "__main__":
    sys.exit(main())
