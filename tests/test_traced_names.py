"""The layer names the benchmark's tracer wraps must exist in the package.

`bench/tracing.py` looks each name up at install time; a renamed or
deleted function would otherwise break only the traced benchmark run.
"""

import importlib.util
import pathlib

import numpy as np

import homofiber
from homofiber import CurveGrid, build_motion, metric_probe_basis, residual_sweep
from conftest import seeded_unit_pair, system_for

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wrapped_names_resolve():
    tracing = _load_tracing()
    for mod_name, names in tracing.WRAPPED.items():
        module = getattr(homofiber, mod_name)
        for fn_name in names:
            assert callable(getattr(module, fn_name, None)), f"{mod_name}.{fn_name}"
    for meth in tracing.MOTION_METHODS:
        assert meth in vars(homofiber.motion.ClosedFormMotion), meth


def test_residual_report_counts_one_entry_per_t_and_probe(entries):
    # the tracer counts oracle.residual_entries as len(report.entries)
    sys = system_for(entries["hopf:2"], ratio=2.0, k=1.0)
    motion = build_motion(sys, *seeded_unit_pair(sys, np.random.default_rng(4)))
    ts, probes = np.linspace(-1.0, 1.0, 5), metric_probe_basis(sys)
    report = residual_sweep(CurveGrid(motion, ts, probes, 1e-4))
    assert len(report.entries) == len(ts) * len(probes)
    tracer = _load_tracing().Tracer()
    tracer._count_entries(report)
    assert tracer.counts["oracle.residual_entries"] == len(ts) * len(probes)
