"""Spans and call counts around the package's layers, installed from outside.

The package has no instrumentation of its own. `Tracer.install` wraps
the functions named in `WRAPPED` and rebinds every reference to them:
the defining module, each sibling module that imported the name with
`from .x import name`, and the package namespace. Internal calls such
as `project` calling `inner_b` therefore go through the wrappers too.
`Tracer.uninstall` puts the originals back.

Hot kernels get count-only wrappers (one dict increment). Everything
else gets a span: name, start, end, parent span and the op (the id of
its root span) it ran under, kept in memory and written out by
`write_spans`. A
span's self time is its duration minus the time of its direct child
spans.
"""

from __future__ import annotations

import json
import time
from collections import Counter

MODULES = ("linalg", "split", "field", "motion", "oracle", "catalog", "cli")

# module -> {function name: "count" | "span"}
WRAPPED = {
    "linalg": {
        "inner_b": "count",
        "project": "count",
        "span_residual": "count",
        "bracket": "count",
        "adjoint": "count",
        "expm": "count",
        "orthonormalize": "span",
    },
    "field": {
        "metric_inner": "span",
        "metric_norm": "count",
        "apply_I0": "count",
    },
    "catalog": {
        "get_entry": "span",
        "load_custom": "span",
        "make_system": "span",
    },
    "split": {
        "chain": "span",
        "build_split": "span",
        "build_custom_split": "span",
        "structure_report": "span",
        "center_basis": "span",
    },
    "motion": {
        "build_motion": "span",
        "sample_trajectory": "span",
    },
    "oracle": {
        "residual_sweep": "span",
        "algebraic_identity_check": "span",
        "conservation_sweep": "span",
        "module_invariance_sweep": "span",
        "velocity_agreement_sweep": "span",
        "great_circle_check": "span",
        "magnetic_circle_check": "span",
        "lambda_collapse_check": "span",
    },
}

# ClosedFormMotion methods, count-only.
MOTION_METHODS = ("representative", "body_velocity", "body_velocity_numeric")

# Spans reported under one metric name.
ALIASES = {
    "oracle.great_circle_check": "oracle.special_checks",
    "oracle.magnetic_circle_check": "oracle.special_checks",
    "oracle.lambda_collapse_check": "oracle.special_checks",
}


class Tracer:
    def __init__(self):
        self.counts = Counter()
        self.self_ns = Counter()
        self.spans = []
        self._op = None
        self._stack = []
        self._next_id = 0
        self._restore = []

    def reset(self):
        self.counts.clear()
        self.self_ns.clear()
        self.spans.clear()

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _spanned(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, after=after, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def call(self, name, fn, *args, after=None, **kwargs):
        """Run fn(*args, **kwargs) inside a span called `name`."""
        self.counts[name] += 1
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        if parent is None:
            self._op = span_id
        frame = [span_id, 0]  # id, nanoseconds spent in direct children
        self._stack.append(frame)
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            duration = end - start
            if self._stack:
                self._stack[-1][1] += duration
            self.self_ns[ALIASES.get(name, name)] += duration - frame[1]
            self.spans.append((span_id, parent, name, start, end, self._op))
        if after is not None:
            after(result)
        return result

    def install(self, hf):
        """Wrap the layer functions of the imported package `hf`."""
        modules = [hf] + [getattr(hf, m) for m in MODULES]
        for mod_name, names in WRAPPED.items():
            home = getattr(hf, mod_name)
            for fn_name, kind in names.items():
                original = getattr(home, fn_name)
                full = f"{mod_name}.{fn_name}"
                if kind == "count":
                    wrapper = self._counted(full, original)
                elif full == "oracle.residual_sweep":
                    wrapper = self._spanned(full, original, after=self._count_entries)
                else:
                    wrapper = self._spanned(full, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._restore.append((mod, attr, original))
        cls = hf.motion.ClosedFormMotion
        for meth in MOTION_METHODS:
            original = cls.__dict__[meth]
            setattr(cls, meth, self._counted(f"motion.{meth}", original))
            self._restore.append((cls, meth, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _count_entries(self, report):
        self.counts["oracle.residual_entries"] += len(report.entries)

    def snapshot(self):
        """Counts and self times (ms) accumulated since the last reset."""
        return dict(self.counts), {k: v / 1e6 for k, v in self.self_ns.items()}


def write_spans(spans, path):
    """One JSON object per line: id, parent, name, start_ns, end_ns, op."""
    with open(path, "w") as fh:
        for span_id, parent, name, start, end, op in spans:
            fh.write(
                json.dumps(
                    {"id": span_id, "parent": parent, "name": name,
                     "start_ns": start, "end_ns": end, "op": op}
                )
                + "\n"
            )
