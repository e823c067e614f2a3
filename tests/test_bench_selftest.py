"""The benchmark's own self-test, run against this checkout of the package.

`bench/selftest.py` runs a tiny pass of each workload, untraced and
traced: it needs every name the tracer wraps, `report.entries` and the
CLI's exit codes to stay as the benchmark reads them. It needs scipy.
"""

import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_bench_selftest_passes():
    pytest.importorskip("scipy")
    proc = subprocess.run(
        [sys.executable, "bench/selftest.py"], cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
