"""Compare the command-line outputs of two checkouts, byte for byte.

    python3 tools/same_outputs.py PARENT CHANGE

Each checkout runs in a fresh interpreter (PYTHONDONTWRITEBYTECODE=1,
its own src/ first on sys.path, COLUMNS=80, no HOMOFIBER_TOL, which
older checkouts read as verify's default --tol) that
calls `homofiber.cli.main` in process for every argv of a fixed matrix,
once printing and once with `--out`. A run records its exit code,
stdout, stderr, the bytes of the --out file and any exception that
escapes `main`; the run's temporary directory reads as <tmp> and the
checkout's src/ as <src>. Warnings
show once per run, as in a fresh process. The script lists every argv
whose record differs between the two checkouts and exits 1, or exits 0
when all are identical.

A differing record moved in numbers only when its exit code is the same
and every field reads the same once each number is masked, so its
PASS/FAIL lines, failure names and report keys are the same too. Such a
record is listed with the count of numbers that moved and the largest
absolute and relative move, each with its old and new number; any other
shows each differing field. The last lines count both kinds and give the
largest moves over all numbers-only records.

With one checkout, `python3 tools/same_outputs.py CHECKOUT` prints that
checkout's records as JSON.

The matrix:
- validate and `catalog export` on the six catalog names, and `catalog list`;
- names x weight ratio {default, 0.5, 1, 2} x k {0, 1, -0.5} x {exact,
  --perturb 1e-2}: verify as JSON (9 samples, seed 3), verify as CSV
  (5 samples) and simulate (50 samples on [-5, 5]);
- per name, simulate as json-tree (7 samples), verify at k 3
  and simulate of 800 samples on [-50, 50] at k 1, whose CSV spans
  several blocks;
- on hopf:2 and twistor_su3 at k 1, verify on a one-point grid
  (--samples 1) and on a descending one (--t0 2 --t1=-2), and simulate
  and verify on twistor_su3 with --xa 1e6,1e6,1e6,1e6, in m1 up to
  roundoff that grows with the data;
- validate and verify of the exported hopf(1..10), su2, kahler_s2 and
  twistor_su3 documents, of a dense copy of each (every basis as nested
  [re, im] pairs, written here from the entry's source, so both
  checkouts read the same bytes whatever form their export writes), of
  the su2 document conjugated by a fixed unitary (no block algebra, so
  its g and k closures are swept) and of a u(2) chain whose g is not
  closed, both dense, and validate of malformed hopf:1 documents;
- validate and verify (9 samples, k 0) of the twistor_su3 document with
  W scaled by 1e4 and by 1e8, and of the kahler_s2 document with an
  empty g_basis, alone and with an empty h_basis;
- one argv per usage error of the CLI, among them a --samples count too
  large to allocate, a window whose span overflows, a negative --seed,
  simulate's one-sample and empty windows, and the removed --W-scale.

Every argv without --out runs twice, 1125 runs in all.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import traceback
import warnings

import numpy as np

NAMES = ("hopf:1", "hopf:2", "hopf:3", "su2", "kahler_s2", "twistor_su3")
RATIOS = ((), ("--lambda", "1", "--lambda", "0.5"), ("--lambda", "1", "--lambda", "1"),
          ("--lambda", "1", "--lambda", "2"))
CHARGES = ("0", "1", "-0.5")
PERTURB = ((), ("--perturb", "1e-2"))

# hopf:1 documents that break one field each, as (label, field, value)
MALFORMED = (
    ("bool-weights", "weights", [True, 2]),
    ("string-weights", "weights", ["1", "2"]),
    ("subnormal-ratio", "weights", [1, 1e-320]),
    ("huge-pair", "pair", [1, 10**400]),
    ("bool-W-entry", "W", [[[False, True], [0.0, 0.0]], [[0.0, 0.0], [0.0, -1.0]]]),
)

# the spaces of the exported documents
EXPORTED = (*NAMES, *(f"hopf:{n}" for n in range(4, 11)))

# documents whose closures no block-algebra certificate covers
SWEPT = ("su2-conjugated", "u2-open-g")

# (label, exported name, {field: edit}): W scaled by a number, or bases emptied
EDITED = (
    ("twistor_su3-W1e4", "twistor_su3", {"W": 1e4}),
    ("twistor_su3-W1e8", "twistor_su3", {"W": 1e8}),
    ("kahler_s2-no-g", "kahler_s2", {"g_basis": []}),
    ("kahler_s2-no-g-h", "kahler_s2", {"g_basis": [], "h_basis": []}),
)


def _argvs(tmp):
    """The argvs of the matrix."""
    docs = [f"{tmp}/{name}.json" for name in (*EXPORTED, *(f"{name}-dense" for name in EXPORTED), *SWEPT)]
    bad = [f"{tmp}/bad-{label}.json" for label, _, _ in MALFORMED]
    runs = [["validate", "--space", n] for n in NAMES]
    runs += [["catalog", "export", n] for n in NAMES] + [["catalog", "list"]]
    for n in NAMES:
        for ratio in RATIOS:
            for k in CHARGES:
                for perturb in PERTURB:
                    space = ["--space", n, *ratio, "--k", k, *perturb]
                    runs += [
                        ["verify", *space, "--samples", "9", "--seed", "3"],
                        ["verify", *space, "--format", "csv", "--samples", "5"],
                        ["simulate", *space, "--samples", "50", "--t0", "-5", "--t1", "5"],
                    ]
    for n in NAMES:
        runs += [
            ["simulate", "--space", n, "--k", "1", "--format", "json-tree", "--samples", "7"],
            ["verify", "--space", n, "--k", "3", "--samples", "9"],
            # CSV tables of several 8192-cell blocks, as the benchmark's simulate writes
            ["simulate", "--space", n, "--samples", "800", "--t0=-50", "--t1", "50", "--k", "1"],
        ]
    for n in ("hopf:2", "twistor_su3"):
        runs += [
            ["verify", "--space", n, "--k", "1", "--samples", "1"],
            ["verify", "--space", n, "--k", "1", "--t0", "2", "--t1=-2"],
        ]
    runs += [[cmd, "--space", "twistor_su3", "--xa", "1e6,1e6,1e6,1e6", "--samples", "5"]
             for cmd in ("simulate", "verify")]
    for doc in docs:
        runs += [["validate", "--space", doc], ["verify", "--space", doc, "--k", "1", "--samples", "9"]]
    runs += [["validate", "--space", doc] for doc in bad]
    for label, _, _ in EDITED:
        doc = f"{tmp}/{label}.json"
        runs += [["validate", "--space", doc], ["verify", "--space", doc, "--samples", "9"]]
    usage = [
        ["verify", "--space", "hopf:1", "--pair", "1,2,3"],
        ["verify", "--space", "hopf:1", "--pair", "a,b"],
        ["verify", "--space", "hopf:1", "--xa", "1,x"],
        ["verify", "--space", "hopf:1", "--xa", "1,nan"],
        ["verify", "--space", tmp],
        ["verify", "--space", f"{tmp}/garbage.json"],
        ["verify", "--space", "nope"],
        ["verify", "--space", "hopf:1", "--lambda", "1", "--lambda", "1e-320", "--k", "1"],
        ["simulate", "--space", "hopf:1", "--lambda", "1", "--lambda", "1e-320", "--k", "1"],
        ["verify", "--space", "hopf:1", "--xa", "1"],
        ["verify", "--space", "kahler_s2", "--xb", "1"],
        ["verify", "--space", "hopf:1", "--k", "1e300"],
        ["verify", "--space", "hopf:1", "--samples", "0"],
        ["verify", "--space", "hopf:1", "--seed", "-1"],
        ["simulate", "--space", "hopf:1", "--seed", "-1"],
        ["simulate", "--space", "hopf:1", "--samples", "1"],
        ["simulate", "--space", "hopf:1", "--t0", "1", "--t1", "1"],
        *([cmd, "--space", "hopf:2", *window]
          for cmd in ("verify", "simulate")
          for window in (["--samples", str(10**15)],
                         ["--t0=-1e308", "--t1", "1e308", "--samples", "3"])),
        ["catalog", "export"],
        ["catalog", "export", "zzz"],
        ["verify", "--space", "hopf:1", "--out", tmp],
        ["verify", "--space", "hopf:1", "--W-scale", "3"],
    ]
    return runs + usage


def _dense(A):
    """A complex array as nested lists ending in [re, im] pairs, a form every checkout reads."""
    A = np.asarray(A, dtype=complex)
    return np.stack([A.real, A.imag], -1).tolist()


def _dense_doc(homofiber, entry):
    """The exported document of entry with every basis written dense from the entry's source."""
    doc, src = homofiber.export_entry(entry), entry.source
    for key in ("g_basis", "h_basis", "k_basis"):
        if key in src:
            doc[key] = _dense(src[key])
    if "module_bases" in src:
        doc["module_bases"] = [_dense(mod) for mod in src["module_bases"]]
    return doc


def _write_inputs(tmp, cli, homofiber):
    """The exported, dense and malformed space documents and an unparsable file, under tmp."""
    with contextlib.redirect_stdout(io.StringIO()):
        for name in NAMES:
            cli.main(["catalog", "export", name, "--out", f"{tmp}/{name}.json"])
    for n in range(4, 11):
        pathlib.Path(f"{tmp}/hopf:{n}.json").write_text(json.dumps(homofiber.export_entry(homofiber.hopf(n))))
    for name in EXPORTED:
        entry = homofiber.get_entry(name) if name in NAMES else homofiber.hopf(int(name[5:]))
        pathlib.Path(f"{tmp}/{name}-dense.json").write_text(json.dumps(_dense_doc(homofiber, entry)))
    from homofiber.catalog import _u_basis

    # U su(2) U^H for a fixed unitary U: the same chain, its matrices dense and not exactly skew
    c, s, phase = np.cos(0.7), np.sin(0.7), np.exp(0.4j)
    U = np.array([[c, s * phase], [-s / phase, c]])
    entry = homofiber.lie_group()
    doc = _dense_doc(homofiber, entry)
    for key in ("g_basis", "k_basis"):
        doc[key] = _dense(U @ np.asarray(entry.source[key]) @ U.conj().T)
    pathlib.Path(f"{tmp}/su2-conjugated.json").write_text(json.dumps(doc))
    doc = _dense_doc(homofiber, homofiber.hopf(1))
    doc["g_basis"] = _dense(_u_basis(2)[[0, 1, 2]])  # i e11, i e22 and one rotation: not closed
    pathlib.Path(f"{tmp}/u2-open-g.json").write_text(json.dumps(doc))
    for label, key, value in MALFORMED:
        doc = json.loads(pathlib.Path(f"{tmp}/hopf:1.json").read_text())
        doc[key] = value
        pathlib.Path(f"{tmp}/bad-{label}.json").write_text(json.dumps(doc))
    for label, name, edits in EDITED:
        doc = json.loads(pathlib.Path(f"{tmp}/{name}.json").read_text())
        for key, value in edits.items():
            doc[key] = value if isinstance(value, list) else (value * np.array(doc[key])).tolist()
        pathlib.Path(f"{tmp}/{label}.json").write_text(json.dumps(doc))
    pathlib.Path(f"{tmp}/garbage.json").write_text("{not json")


def _run(cli, argv, out, tmp, src):
    """One call of cli.main: label, exit code, stdout, stderr, --out bytes, escaped exception."""
    if out:
        argv = argv + ["--out", out]
        with contextlib.suppress(FileNotFoundError):
            os.remove(out)
    stdout, stderr, rc, raised = io.StringIO(), io.StringIO(), None, None
    with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("default")  # a changed filter forgets which warnings were shown
        try:
            rc = cli.main(argv)
        except Exception as exc:  # a traceback is an outcome to compare, not a crash of the tool
            raised = traceback.format_exception_only(type(exc), exc)[-1].strip()
    data = None
    if out and os.path.isfile(out):
        data = pathlib.Path(out).read_bytes().decode("latin-1")
    fields = (" ".join(argv), rc if rc is None else str(rc), stdout.getvalue(), stderr.getvalue(),
              data, raised)
    return [None if x is None else x.replace(tmp, "<tmp>").replace(src, "<src>") for x in fields]


def collect(checkout):
    """Every record of the matrix, run by the package under checkout/src."""
    src = str(pathlib.Path(checkout).resolve() / "src")
    sys.path.insert(0, src)
    import homofiber
    from homofiber import cli

    if not pathlib.Path(homofiber.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"imported homofiber from {homofiber.__file__}, not from {src}")
    with tempfile.TemporaryDirectory() as tmp:
        _write_inputs(tmp, cli, homofiber)
        return [
            _run(cli, argv, out, tmp, src)
            for argv in _argvs(tmp)
            for out in ((None,) if "--out" in argv else (None, f"{tmp}/out"))
        ]


def _records(checkout):
    env = {k: v for k, v in os.environ.items() if k not in ("HOMOFIBER_TOL", "PYTHONPATH")}
    env.update(PYTHONDONTWRITEBYTECODE="1", COLUMNS="80")
    proc = subprocess.run([sys.executable, __file__, checkout], env=env, capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"{checkout}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout)


# a number of a report, CSV cell or message; not a digit inside a name such as m1 or hopf:10.json
_NUMBER = re.compile(r"(?<![\w.])-?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|Infinity|inf)(?![\w.])|\bN[aA]N\b|\bnan\b")


def _moves(a, b):
    """The (old, new) numbers that moved between two records that differ in numbers only, else None."""
    if a[1] != b[1]:
        return None
    pairs = []
    for x, y in zip(a[2:], b[2:]):
        if x is None or y is None:
            if x is not y:
                return None
            continue
        if _NUMBER.sub("#", x) != _NUMBER.sub("#", y):
            return None
        pairs += [(p, q) for p, q in zip(_NUMBER.findall(x), _NUMBER.findall(y)) if p != q]
    return pairs


def _largest(pairs):
    """The (absolute, relative) largest moves of (old, new) number strings, each with its pair.

    A move to or from a non-finite number is inf.
    """
    absolute = relative = (-1.0, None)
    for p, q in pairs:
        x, y = float(p), float(q)
        d = abs(x - y) if math.isfinite(x) and math.isfinite(y) else math.inf
        r = d and (d / max(abs(x), abs(y)) if d < math.inf else math.inf)
        absolute = max(absolute, (d, (p, q)), key=lambda m: m[0])
        relative = max(relative, (r, (p, q)), key=lambda m: m[0])
    return absolute, relative


def _moved(pairs):
    (a, (p, q)), (r, (u, v)) = _largest(pairs)
    return f"by at most {a:.3e} ({p} -> {q}), relative {r:.3e} ({u} -> {v})"


def main(argv):
    if len(argv) == 1:
        json.dump(collect(argv[0]), sys.stdout)
        return 0
    if len(argv) != 2:
        raise SystemExit(__doc__)
    old, new = (_records(path) for path in argv)
    fields = ("exit code", "stdout", "stderr", "--out bytes", "exception")
    differ, only, moved = 0, 0, []
    for a, b in zip(old, new):
        if a != b:
            differ += 1
            print(a[0])
            pairs = _moves(a, b)
            if pairs is None:
                for field, x, y in zip(fields, a[1:], b[1:]):
                    if x != y:
                        print(f"  {field}:\n    - {x!r:.300}\n    + {y!r:.300}")
                continue
            only, moved = only + 1, moved + pairs
            print(f"  numbers only: {len(pairs)} moved, {_moved(pairs)}")
    print(f"{differ} of {len(old)} runs differ: {only} in numbers only, {differ - only} in more")
    if only:
        print(f"numbers-only runs: {len(moved)} numbers moved, {_moved(moved)}")
    return 1 if differ or len(old) != len(new) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
