"""The three workloads: inputs drawn from a seed, ops, and output checks.

Every op is one in-process call of `homofiber.cli.main(argv)`. A
workload is a sequence of passes; a pass is a fixed list of slots (one
op per slot) whose arguments are drawn from the seed and the pass
index, so pass i is the same whatever the run length, and every pass
has the same mix of spaces. Each op's outcome is checked by the
workload; a check returns an error message or None.

Slot mixes are chosen so that the median op and the tail percentile
each fall inside one space's cluster of op times, not in a gap between
clusters, which keeps both steady from run to run.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np
import scipy.linalg

RATIOS = (0.5, 1.0, 2.0)
CHARGES = (0.0, 1.0, -0.5)
TWO_MODULE = {"hopf:1", "hopf:2", "hopf:3", "su2", "twistor_su3"}
CATALOG = ("hopf:1", "hopf:2", "hopf:3", "su2", "kahler_s2", "twistor_su3")


def _f(x):
    return repr(float(x))


def _combos(space):
    ratios = RATIOS if space in TWO_MODULE else (None,)
    return [(r, k) for r in ratios for k in CHARGES]


def _weight_args(ratio):
    return [] if ratio is None else ["--lambda", "1", "--lambda", _f(ratio)]


class Op:
    """One CLI invocation, its slot label and the check of its outcome."""

    def __init__(self, slot, argv, check, out_path=None):
        self.slot = slot
        self.argv = argv
        self.check = check
        self.out_path = out_path
        self.state = {}  # what the check learned, for later checks to read


class Outcome:
    def __init__(self, rc, stdout, stderr, traceback):
        self.rc = rc
        self.stdout = stdout
        self.stderr = stderr
        self.traceback = traceback


def _common_error(outcome, want_rc):
    if outcome.traceback is not None:
        return "traceback: " + outcome.traceback.strip().splitlines()[-1]
    if outcome.rc != want_rc:
        detail = outcome.stderr.strip().splitlines()[-1:] or [""]
        return f"exit code {outcome.rc}, expected {want_rc}: {detail[0]}"
    return None


def _json_doc(text):
    start = text.find("{")
    if start < 0:
        raise ValueError("no JSON document in output")
    return text[:start], json.loads(text[start:])


class Workload:
    """Shared run shape: `pass_ops(i)` gives pass i; subclasses fill in."""

    name = ""
    tail_percentile = None  # fixed per workload, see the subclasses
    trace_passes = 1
    runs_panel = True

    def __init__(self, seed, out_dir):
        self.seed = seed
        self.out_dir = out_dir
        self.koszul = []  # unperturbed referee residuals seen by checks

    def make_inputs(self, hf):
        """Generate this workload's inputs with the freshly imported package."""

    def warmup_op(self):
        raise NotImplementedError

    def pass_ops(self, index):
        raise NotImplementedError

    def final_checks(self, hf):
        """(label, error or None) pairs checked once per run, outside timing."""
        return []

    def _pass_rng(self, index, salt=0):
        return np.random.default_rng([self.seed, index, salt])

    # Verify ops are shared by the verify workload and the referee panel.
    def verify_op(self, space, ratio, k, seed, samples):
        argv = ["verify", "--space", space, f"--k={_f(k)}", "--samples", str(samples),
                "--seed", str(seed)] + _weight_args(ratio)

        def check(outcome):
            err = _common_error(outcome, 0)
            if err:
                return err
            _, doc = _json_doc(outcome.stdout)
            if doc.get("passed") is not True or doc.get("failures"):
                return f"verify did not pass: {doc.get('failures')}"
            if doc.get("space") != space:
                return f"report names space {doc.get('space')!r}, expected {space!r}"
            r = doc["koszul"]["max_abs"]
            if not (math.isfinite(r) and r <= doc["tolerance"]):
                return f"koszul residual {r!r} over tolerance"
            op.state["residual"] = r
            self.koszul.append(r)
            return None

        op = Op(space, argv, check)
        return op

    def perturbed_op(self, twin):
        """The twin's configuration with --perturb 1e-2: must exit 1, 100x residual."""

        def check(outcome):
            err = _common_error(outcome, 1)
            if err:
                return err
            _, doc = _json_doc(outcome.stdout)
            if doc.get("passed") is not False:
                return "perturbed curve passed verification"
            base = twin.state.get("residual")
            if base is None:
                return "unperturbed twin has no residual"
            r = doc["koszul"]["max_abs"]
            if not r >= 100.0 * base:
                return f"perturbed residual {r:.3e} is under 100x the unperturbed {base:.3e}"
            return None

        return Op(twin.slot + "+perturb", twin.argv + ["--perturb", "1e-2"], check)

    def panel_ops(self):
        """Fixed referee panel: one unperturbed verify op per catalog space."""
        return [
            self.verify_op(sp, 2.0 if sp in TWO_MODULE else None, 1.0, 0, 9)
            for sp in CATALOG
        ]


class Verify(Workload):
    """verify on all six catalog spaces; the hopf:3 op has a perturbed twin.

    Slots per pass: the six spaces plus the twin. The three cheap spaces
    are 3/7 of the ops, so the median lands among the hopf:2 ops; hopf:3
    and its twin are the top 2/7, so p85 lands inside the hopf:3 cluster.
    """

    name = "verify"
    tail_percentile = 85.0
    trace_passes = 2
    runs_panel = False
    SPACES = ("kahler_s2", "hopf:1", "su2", "hopf:2", "twistor_su3", "hopf:3")
    PERTURBED = "hopf:3"

    def __init__(self, seed, out_dir, samples=9, spaces=SPACES, perturbed=PERTURBED):
        super().__init__(seed, out_dir)
        self.samples = samples
        self.spaces = spaces
        self.perturbed = perturbed
        rng = np.random.default_rng(seed)
        # Each space walks a seeded permutation of its (ratio, charge)
        # combinations, so nine passes cover all of them.
        self.order = {sp: rng.permutation(len(_combos(sp))) for sp in spaces}

    def warmup_op(self):
        return self.verify_op("hopf:2", 2.0, 1.0, 0, self.samples)

    def pass_ops(self, index):
        rng = self._pass_rng(index)
        ops = []
        for sp in self.spaces:
            combos = _combos(sp)
            ratio, k = combos[self.order[sp][index % len(combos)]]
            seed = int(rng.integers(2**31))
            op = self.verify_op(sp, ratio, k, seed, self.samples)
            ops.append(op)
            if sp == self.perturbed:
                ops.append(self.perturbed_op(op))
        return ops


class Simulate(Workload):
    """Long simulate runs to CSV, checked against scipy.linalg.expm.

    Slots per pass: kahler_s2, hopf:3, twistor_su3. A kahler_s2 op costs
    about half as much as the other two, which cost about the same, so
    the median and p75 both fall in the hopf:3 / twistor_su3 cluster.
    Initial data is passed as explicit --xa/--xb
    coefficients scaled to unit speed, so the benchmark knows the
    generators and can rebuild the curve independently.
    """

    name = "simulate"
    tail_percentile = 75.0
    SPACES = ("kahler_s2", "hopf:3", "twistor_su3")
    CHECKED_ROWS = 8

    def __init__(self, seed, out_dir, samples=800, spaces=SPACES):
        super().__init__(seed, out_dir)
        self.samples = samples
        self.spaces = spaces
        rng = np.random.default_rng(seed)
        self.order = {sp: rng.permutation(len(_combos(sp))) for sp in spaces}

    def make_inputs(self, hf):
        self.entries = {sp: hf.get_entry(sp) for sp in self.spaces}

    def warmup_op(self):
        return self.simulate_op("kahler_s2", None, 1.0, 50.0, np.array([0.6, 0.8]), None, 0)

    def pass_ops(self, index):
        rng = self._pass_rng(index)
        ops = []
        for sp in self.spaces:
            combos = _combos(sp)
            ratio, k = combos[self.order[sp][index % len(combos)]]
            T = round(20.0 + 30.0 * float(rng.random()), 3)
            split = self.entries[sp].split
            ca = rng.standard_normal(split.module(1).dim)
            cb = rng.standard_normal(split.module(2).dim) if ratio is not None else None
            # unit speed: |Xa|^2 + ratio |Xb|^2 = 1 for B-orthonormal bases
            norm = math.sqrt(ca @ ca + (ratio * (cb @ cb) if cb is not None else 0.0))
            ca = ca / norm
            cb = cb / norm if cb is not None else None
            ops.append(self.simulate_op(sp, ratio, k, T, ca, cb, index))
        return ops

    def simulate_op(self, space, ratio, k, T, ca, cb, index):
        entry = self.entries[space]
        out_path = os.path.join(self.out_dir, f"simulate-{space.replace(':', '-')}.csv")
        argv = ["simulate", "--space", space, f"--k={_f(k)}", f"--t0={_f(-T)}",
                f"--t1={_f(T)}", "--samples", str(self.samples),
                "--xa=" + ",".join(_f(c) for c in ca), "--out", out_path]
        if cb is not None:
            argv.append("--xb=" + ",".join(_f(c) for c in cb))
        argv += _weight_args(ratio)
        lam = 1.0 if ratio is None else float(ratio)
        basis_a = entry.split.module(1).basis
        Xa = sum(c * e for c, e in zip(ca, basis_a))
        Xb = (sum(c * e for c, e in zip(cb, entry.split.module(2).basis))
              if cb is not None else np.zeros_like(Xa))
        W = np.asarray(entry.W, dtype=complex)
        X = Xa + lam * Xb + k * W
        Y = np.zeros_like(X) if lam == 1.0 else (1.0 - lam) * (Xb + (k / lam) * W)
        speed = math.sqrt(float(ca @ ca) + (lam * float(cb @ cb) if cb is not None else 0.0))
        n = X.shape[0]
        rows = self._pass_rng(index, salt=1 + CATALOG.index(space)).choice(
            self.samples, size=min(self.CHECKED_ROWS, self.samples), replace=False)
        rows = sorted({0, self.samples - 1, *(int(r) for r in rows)})
        ts = np.linspace(-T, T, self.samples)

        def check(outcome):
            err = _common_error(outcome, 0)
            if err:
                return err
            with open(out_path) as fh:
                lines = fh.read().splitlines()
            header = lines[0].split(",")
            if header[0] != "t" or header[-1] != "speed" or len(lines) != self.samples + 1:
                return f"CSV has {len(lines) - 1} rows and header {header[:2]}..{header[-1:]}"
            data = np.array([ln.split(",") for ln in lines[1:]], dtype=float)
            if np.max(np.abs(data[:, 0] - ts)) > 1e-12 * T:
                return "t column differs from the requested grid"
            drift = float(np.max(np.abs(data[:, -1] - speed)))
            if drift > 1e-10:
                return f"speed column is off the initial speed by {drift:.3e}"
            for r in rows:
                t = data[r, 0]
                flat = data[r, 1:1 + 2 * n * n]
                rep = (flat[0::2] + 1j * flat[1::2]).reshape(n, n)
                ref = scipy.linalg.expm(t * X) @ scipy.linalg.expm(t * Y)
                dev = float(np.max(np.abs(rep - ref)))
                if dev > 1e-10:
                    return f"row {r} (t={t}) is {dev:.3e} from expm(tX) expm(tY)"
            return None

        return Op(space, argv, check, out_path=out_path)


class Validate(Workload):
    """validate on exported hopf(n) documents and every catalog space.

    Slots per pass: hopf(n) documents for n = 1..max_n, the six catalog
    names, and the exported su2, kahler_s2 and twistor_su3 documents
    (the exported hopf:1..3 documents are the hopf(1..3) ones). Pass
    order is shuffled per pass. With max_n = 5 the median lands among
    the hopf:2 / twistor_su3 ops and p80 in the hopf(3) document
    cluster; the hopf(4) and hopf(5) documents are beyond it.
    """

    name = "validate"
    tail_percentile = 80.0
    DOC_SPACES = ("su2", "kahler_s2", "twistor_su3")
    CHAIN_CHECKS = {"orthogonality", "ad_invariance", "bracket_condition",
                    "center_membership", "chain_closure"}
    # space -> (module dims, dimension of the center of h)
    EXPECTED = {"su2": ((2, 1), 0), "kahler_s2": ((2,), 1), "twistor_su3": ((4, 2), 2)}

    def __init__(self, seed, out_dir, max_n=5, names=CATALOG):
        super().__init__(seed, out_dir)
        self.max_n = max_n
        self.names = names

    def make_inputs(self, hf):
        self.entries = {}
        self.targets = []  # (--space argument, expected space name)
        for n in range(1, self.max_n + 1):
            entry = hf.hopf(n)
            self.entries[entry.name] = entry
            self.targets.append((self._export(hf, entry, f"hopf-{n}"), entry.name))
        for name in self.DOC_SPACES:
            entry = hf.get_entry(name)
            self.entries[name] = entry
            self.targets.append((self._export(hf, entry, name), name))
        self.targets += [(name, name) for name in self.names]

    def _export(self, hf, entry, stem):
        path = os.path.join(self.out_dir, f"space-{stem}.json")
        with open(path, "w") as fh:
            json.dump(hf.export_entry(entry), fh)
        return path

    def _expected(self, name):
        if name.startswith("hopf:"):
            n = int(name.split(":")[1])
            return (2 * n, 1), 1
        return self.EXPECTED[name]

    def validate_op(self, arg, name):
        checks = self.CHAIN_CHECKS - ({"chain_closure"} if name == "kahler_s2" else set())

        def check(outcome):
            err = _common_error(outcome, 0)
            if err:
                return err
            text, doc = _json_doc(outcome.stdout)
            lines = text.splitlines()
            if len(lines) != len(checks) or not all(ln.startswith("PASS") for ln in lines):
                return f"validate printed {lines!r}"
            if doc.get("passed") is not True or doc.get("space") != name:
                return f"report for {doc.get('space')!r} did not pass"
            if set(doc["checks"]) != checks:
                return f"checks {sorted(doc['checks'])}, expected {sorted(checks)}"
            return None

        slot = name if arg == name else os.path.basename(arg)
        return Op(slot, ["validate", "--space", arg], check)

    def warmup_op(self):
        return self.validate_op("hopf:2", "hopf:2")

    def pass_ops(self, index):
        order = self._pass_rng(index).permutation(len(self.targets))
        return [self.validate_op(*self.targets[i]) for i in order]

    def final_checks(self, hf):
        out = []
        for name, entry in self.entries.items():
            dims, center = self._expected(name)
            got = (entry.split.dims, hf.center_basis(entry.split).dim)
            err = None if got == (dims, center) else f"dims/center {got}, expected {(dims, center)}"
            out.append((f"structure of {name}", err))
        return out


WORKLOADS = {w.name: w for w in (Verify, Simulate, Validate)}
