"""The stacked split build and the stacked checks keep every bit of the list path.

Each case runs a command twice in-process: once as the package stands,
and once with the list path patched back in. That path runs CGS2 over
every candidate of a list (zero candidates and disjoint supports too)
and lets each Subspace stack its basis again; takes each complement's
candidates through `project`; builds the u(n) basis one matrix at a
time; builds one validated motion per charge in the magnetic-circle
check; and formats the CSV as one str, written as one ASCII block. Exit code, stdout, stderr and
the --out file must agree byte for byte, over the six catalog names
and exported hopf(1..5) documents, and so must every split basis and
every structure_report residual, over those and the exported
hopf(6..10) documents too.
"""

import contextlib
import io
import json

import numpy as np
import pytest

from homofiber import catalog, catalog_names, cli, export_entry, hopf, load_custom, project, split
from homofiber.csvtext import format_rows
from homofiber.oracle import magnetic_circle_check

from conftest import list_orthonormalize, per_charge_magnetic_circles, per_element_u_basis


def per_charge_magnetic_circle_check(sys, Xa, k_values=(0.5, 1.0, 2.0)):
    """The check's preconditions, then one validated motion per charge, compared in Python."""
    magnetic_circle_check(sys, Xa, k_values=())  # raises DomainError where the check does not apply
    rows = per_charge_magnetic_circles(sys, Xa, k_values)
    by_charge = sorted(rows, key=lambda row: abs(row[0]))
    increasing = all(abs(a[1]) < abs(b[1]) for a, b in zip(by_charge, by_charge[1:]))
    constant = all(row[2] <= 1e-6 * max(1.0, abs(row[1])) for row in rows)
    return np.array(rows).reshape(-1, 3), constant, increasing


def project_complement(outer, inner):
    """The complement's candidates outer - project(inner, outer), through list CGS2."""
    return list_orthonormalize(outer.basis - project(inner, outer.basis))


def list_path(monkeypatch):
    monkeypatch.setattr(split, "orthonormalize", list_orthonormalize)
    monkeypatch.setattr(split, "_complement", project_complement)
    monkeypatch.setattr(catalog, "_u_basis", per_element_u_basis)
    monkeypatch.setattr(cli, "magnetic_circle_check", per_charge_magnetic_circle_check)
    monkeypatch.setattr(
        cli, "_csv", lambda header, table: [(",".join(header) + "\n" + format_rows(table)).encode("ascii")]
    )


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    root = tmp_path_factory.mktemp("documents")
    paths = []
    for n in range(1, 11):
        path = root / f"hopf{n}.json"
        path.write_text(json.dumps(export_entry(hopf(n))))
        paths.append(str(path))
    return paths


def _argvs(space):
    argvs = [
        ["validate", "--space", space],
        ["verify", "--space", space, "--samples", "5", "--k", "1", "--seed", "3"],
        ["verify", "--space", space, "--samples", "5", "--format", "csv"],
        ["verify", "--space", space, "--samples", "5", "--perturb", "1e-2"],
        ["simulate", "--space", space, "--samples", "300", "--k", "1", "--t0=-30", "--t1", "30"],
        ["simulate", "--space", space, "--samples", "2"],
    ]
    if space in catalog_names():
        argvs.append(["catalog", "export", space])
    return argvs


def _run(argv, tmp_path):
    """(exit code, stdout, stderr) printing, and the same with --out and the file's bytes."""
    runs = []
    for out in (None, tmp_path / "out"):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli.main(argv + (["--out", str(out)] if out else []))
        runs.append((rc, stdout.getvalue(), stderr.getvalue(), out.read_bytes() if out else None))
    return runs


SPACES = list(catalog_names()) + [f"document:{n}" for n in range(1, 6)]


@pytest.mark.parametrize("space", SPACES)
def test_command_output_is_byte_identical_to_the_list_path(space, documents, tmp_path, monkeypatch):
    if space.startswith("document:"):
        space = documents[int(space.split(":")[1]) - 1]
    argvs = _argvs(space)
    if space == "kahler_s2":
        argvs += [["verify", "--space", space, f"--k={k}"] for k in ("0", "1", "-0.5", "3")]
    got = [_run(argv, tmp_path) for argv in argvs]
    list_path(monkeypatch)
    want = [_run(argv, tmp_path) for argv in argvs]
    for argv, g, w in zip(argvs, got, want):
        assert g == w, argv


def _bits(entry):
    """Every basis of the entry's split and chain, as bytes, and every report residual."""
    spaces = [entry.split.h, *entry.split.modules]
    if entry.chain is not None:
        spaces += [entry.chain.g, entry.chain.k, entry.chain.h]
    bases = [np.array(s.basis).tobytes() for s in spaces]
    frames = [s.frame.tobytes() for s in spaces]
    return bases, frames, repr(sorted(entry.report.items()))


@pytest.mark.parametrize("space", SPACES + [f"document:{n}" for n in range(6, 11)])
def test_split_bases_and_residuals_are_unchanged(space, documents, monkeypatch):
    if space.startswith("document:"):
        doc = json.loads(open(documents[int(space.split(":")[1]) - 1]).read())
        build = lambda: load_custom(doc)  # noqa: E731
    else:
        build = lambda: catalog.get_entry(space)  # noqa: E731
    got = _bits(build())
    list_path(monkeypatch)
    assert got == _bits(build())
