"""The layer names the benchmark's tracer wraps must exist in the package.

`bench/tracing.py` looks each name up at install time; a renamed or
deleted function would otherwise break only the traced benchmark run.
"""

import importlib.util
import pathlib

import homofiber

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
