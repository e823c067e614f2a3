"""End-to-end command-line tests driven through main(argv).

Exit-code contract: 0 success, 1 a check or validation failed, 2 the
invocation itself was bad. Reports written with --out must be
byte-identical across reruns of the same configuration and seed.
"""

import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homofiber import (
    CurveGrid,
    algebraic_identity_check,
    bnorm,
    catalog_names,
    conservation_sweep,
    export_entry,
    get_entry,
    load_custom,
    metric_norm,
    metric_probe_basis,
    module_invariance_sweep,
    residual_sweep,
    sample_trajectory,
    velocity_agreement_sweep,
)
from homofiber import motion as motion_module
from homofiber.cli import _motion_from_args, build_parser, main
from homofiber.split import membership_scale
from conftest import conjugated_export, dense_export, named_entry


def run_out(tmp_path, name, argv):
    out = tmp_path / name
    rc = main(argv + ["--out", str(out)])
    return rc, out


def scaled_W(tmp_path, name, scale):
    """The path of the exported document of `name` with W times scale: the space sets W, --k its charge."""
    doc = export_entry(get_entry(name))
    doc["W"] = (scale * np.array(doc["W"])).tolist()
    path = tmp_path / f"{name}-W{scale:g}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_validate_catalog_space(tmp_path, capsys):
    rc, out = run_out(tmp_path, "v.json", ["validate", "--space", "hopf:1"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines and all(line.startswith("PASS") for line in lines)
    doc = json.loads(out.read_text())
    assert doc["passed"] is True
    assert set(doc["checks"]) >= {"orthogonality", "ad_invariance", "center_membership"}


@pytest.mark.parametrize(
    "name", ["hopf:1", "hopf:2", "hopf:3", "su2", "kahler_s2", "twistor_su3"]
)
def test_validate_every_entry(name, capsys):
    assert main(["validate", "--space", name]) == 0
    # zero residuals print as 0.000e+00, never with a minus sign
    assert "-0.000" not in capsys.readouterr().out


def _spy_relations(monkeypatch):
    """Record (target, A, B) of every bracket relation the split layer takes, certified or swept,
    and of every sweep of basis pairs, closures included."""
    import homofiber.split as split_mod

    relations, sweeps = [], []
    real_relation, real_sweep = split_mod._relation_residual, split_mod._bracket_residuals
    monkeypatch.setattr(
        split_mod,
        "_relation_residual",
        lambda T, A, B: relations.append((T, A, B)) or real_relation(T, A, B),
    )
    monkeypatch.setattr(
        split_mod,
        "_bracket_residuals",
        lambda T, A, B: sweeps.append((T, A, B)) or real_sweep(T, A, B),
    )
    return relations, sweeps


def _validate_relations(tmp_path, monkeypatch, doc=None):
    """The closure dims, relations and sweeps of one validate of hopf:2, or of doc if given."""
    import homofiber.split as split_mod

    space = "hopf:2"
    if doc is not None:
        space = str(tmp_path / "hopf2.json")
        with open(space, "w") as fh:
            json.dump(doc, fh)
    closures = []
    real_closure = split_mod._closure_residual
    monkeypatch.setattr(
        split_mod, "_closure_residual", lambda S: closures.append(S.dim) or real_closure(S)
    )
    relations, sweeps = _spy_relations(monkeypatch)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["validate", "--space", space]) == 0
    assert closures == [9, 5, 4]  # g = u(3), k = u(2) + u(1), h = u(2)
    # ad-invariance brackets h with a module m_i and measures off m_i,
    # then [m1, k] in m1 and the bracket condition [m1, m2] in m1, once each
    dims = [(T.dim, A.dim, B.dim) for T, A, B in relations]
    assert dims == [(4, 4, 4), (1, 4, 1), (4, 4, 5), (4, 4, 1)]
    return dims, [(T.dim, A.dim, B.dim) for T, A, B in sweeps]


@pytest.mark.parametrize("document", [False, True])
def test_validate_computes_each_residual_once(tmp_path, monkeypatch, document):
    # every structural residual is computed once per op, although
    # building, loading and reporting the entry all read them; block
    # algebras and support patterns certify them all without a bracket
    doc = export_entry(get_entry("hopf:2")) if document else None
    _, sweeps = _validate_relations(tmp_path, monkeypatch, doc)
    assert sweeps == []


def test_validate_sweeps_each_uncertified_residual_once(tmp_path, monkeypatch):
    # dense bases that are not exactly skew: each closure and relation is swept once
    dims, sweeps = _validate_relations(tmp_path, monkeypatch, conjugated_export(get_entry("hopf:2")))
    assert sweeps == [(9,) * 3, (5,) * 3, (4,) * 3] + dims


def test_verify_passes_on_closed_form_curve(tmp_path):
    rc, out = run_out(
        tmp_path,
        "r.json",
        ["verify", "--space", "hopf:1", "--lambda", "1", "--lambda", "2",
         "--k", "1", "--samples", "9"],
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["passed"] is True
    assert doc["failures"] == []
    assert doc["koszul"]["max_abs"] <= 1e-6
    assert doc["bracket_identity_max"] <= 1e-11


def test_verify_reports_special_checks(tmp_path):
    # k = 0 on the round sphere triggers the great-circle report
    rc, out = run_out(
        tmp_path,
        "gc.json",
        ["verify", "--space", "hopf:1", "--samples", "9"],
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert "great_circle" in doc["special"]
    # the adjoint-orbit sphere triggers the magnetic-circle report
    rc, out = run_out(
        tmp_path,
        "mc.json",
        ["verify", "--space", "kahler_s2", "--k", "1", "--samples", "9"],
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    entries = doc["special"]["magnetic_circle"]["entries"]
    assert [e["k"] for e in entries] == [0.5, 1.0, 2.0]


@pytest.fixture(scope="module")
def cp2_document(tmp_path_factory):
    """CP^2 = SU(3)/S(U(2) x U(1)): one module, an adjoint orbit in 8-space."""
    from homofiber.catalog import _entry, _su3_basis

    gb = _su3_basis()
    entry = _entry("cp2", gb, gb[[0, 1, 6, 7]], (1.0,), (1, None), gb[7],
                   ("orbit", 1j * np.diag([1.0, 1.0, -2.0])), module_bases=[gb[2:6]])
    path = tmp_path_factory.mktemp("cp2") / "cp2.json"
    path.write_text(json.dumps(export_entry(entry)))
    return str(path)


def test_a_flag_manifold_with_one_module_verifies(cp2_document, tmp_path, capsys):
    # the magnetic-circle check needs an orbit in 3-space, so it is left out, not failed
    assert main(["validate", "--space", cp2_document]) == 0
    for k in ("0", "1"):
        rc, out = run_out(tmp_path, "cp2.json", ["verify", "--space", cp2_document, "--k", k])
        assert rc == 0, capsys.readouterr().err
        special = json.loads(out.read_text())["special"]
        assert "collapse" in special and "magnetic_circle" not in special


def test_a_zero_initial_direction_leaves_the_magnetic_circle_check_out(tmp_path, capsys):
    rc, out = run_out(tmp_path, "z.json", ["verify", "--space", "kahler_s2", "--xa", "0,0"])
    assert rc == 0, capsys.readouterr().err
    assert "magnetic_circle" not in json.loads(out.read_text())["special"]


@pytest.mark.parametrize("scale", [1e2, 1e3, 1e4])
def test_magnetic_circles_hold_at_a_large_field(tmp_path, capsys, scale):
    # the stencil step shrinks with the generators' spectrum and the
    # constancy bound grows with kappa, so a strong field reads its
    # circles as the unit speed predicts, kappa = k s / sqrt(2); the check's
    # charges k are fixed multiples of W, so the strong field is W x s
    rc, out = run_out(tmp_path, "mc.json", ["verify", "--space", scaled_W(tmp_path, "kahler_s2", scale)])
    assert rc == 0, capsys.readouterr().err
    circle = json.loads(out.read_text())["special"]["magnetic_circle"]
    assert circle["constant"] and circle["increasing"]
    for e in circle["entries"]:
        assert e["kappa_mean"] == pytest.approx(e["k"] * scale / np.sqrt(2.0), rel=1e-6, abs=0.0)


@pytest.mark.parametrize("scale", ["1e6", "1e12"])
def test_a_large_W_scale_stays_in_h(tmp_path, capsys, scale):
    # the roundoff of W's membership residual grows with |W|, and so does its tolerance
    path = scaled_W(tmp_path, "twistor_su3", float(scale))
    assert main(["verify", "--space", path, "--k", "0"]) == 0
    assert capsys.readouterr().err == ""


def test_verify_collapse_reported_at_equal_weights(tmp_path):
    rc, out = run_out(
        tmp_path,
        "c.json",
        ["verify", "--space", "su2", "--k", "1", "--samples", "9"],
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["special"]["collapse"]["max_frobenius"] <= 1e-12


@pytest.mark.parametrize(
    "argv",
    [
        ["--space", "twistor_su3", "--k", "1000"],
        ["--space", "hopf:3", "--lambda", "1", "--lambda", "1", "--k", "1000"],
        ["--space", "hopf:1", "--lambda", "1", "--lambda", "1", "--k", "1e4"],
        ["--space", "kahler_s2", "--k", "1e5"],
    ],
)
def test_a_strong_field_fails_on_its_koszul_truncation_alone(capsys, argv):
    # the collapse gap is roundoff that grows with rho max|t|, and is judged so
    assert main(["verify", *argv]) == 1
    out, err = capsys.readouterr()
    assert re.fullmatch(r"verification failed: koszul residual \S+ > 1\.0e-06\n", err), err
    assert json.loads(out)["special"]["collapse"]["max_frobenius"] > 1e-12


@pytest.mark.parametrize(
    "argv,gap,failure",
    [
        (["--k", "0.1", "--t0=-1", "--t1", "1"], 1.5e-12, "collapse 1.500e-12 > 1e-12"),
        (["--k", "1"], 1.001e-12, None),
        # --tol keeps the Koszul truncation of k = 100 out of the failures
        (["--k", "100", "--t0=-5", "--t1", "2", "--tol", "1e-3"], 3.6e-10,
         "collapse 3.600e-10 > 3.54e-10"),
        (["--k", "100", "--t0=-5", "--t1", "2", "--tol", "1e-3"], 3.5e-10, None),
    ],
)
def test_the_collapse_gate_is_1e12_times_rho_max_t_past_1(monkeypatch, capsys, argv, gap, failure):
    # kahler_s2's generator Xa + k W turns at rho = 0.707 k for these data
    monkeypatch.setattr("homofiber.cli.lambda_collapse_check", lambda grid: gap)
    xa = ["--xa", "1,0"]
    rc = main(["verify", "--space", "kahler_s2", *xa, "--samples", "3", *argv])
    err = capsys.readouterr().err
    if failure is None:
        assert (rc, err) == (0, "")
    else:
        assert (rc, err) == (1, f"verification failed: {failure}\n")


def test_a_document_op_takes_the_bracket_condition_once(monkeypatch, tmp_path, capsys):
    relations, sweeps = _spy_relations(monkeypatch)
    path, conjugated = tmp_path / "hopf3.json", tmp_path / "hopf3-conjugated.json"
    path.write_text(json.dumps(export_entry(named_entry("hopf:3"))))
    conjugated.write_text(json.dumps(conjugated_export(named_entry("hopf:3"))))
    # (target, A, B) dims: [h, m1] in m1, [h, m2] in m2, [m1, k] in m1, and [m1, m2] in m1 once
    want = [(6, 9, 6), (1, 9, 1), (6, 6, 10), (6, 6, 1)]
    for space in (str(path), "hopf:3", str(conjugated)):
        relations.clear()
        sweeps.clear()
        assert main(["verify", "--space", space, "--k", "1", "--samples", "9"]) == 0
        assert [(T.dim, A.dim, B.dim) for T, A, B in relations] == want, space
        swept = [(T.dim, A.dim, B.dim) for T, A, B in sweeps if not T is A is B]
        assert swept == (want if space == str(conjugated) else []), space
    capsys.readouterr()


def test_verify_flags_perturbed_curve(tmp_path, capsys):
    rc, out = run_out(
        tmp_path,
        "bad.json",
        ["verify", "--space", "hopf:1", "--lambda", "1", "--lambda", "2",
         "--k", "1", "--samples", "9", "--perturb", "1e-2"],
    )
    assert rc == 1
    doc = json.loads(out.read_text())
    assert doc["passed"] is False
    assert any("koszul" in f for f in doc["failures"])
    assert "verification failed" in capsys.readouterr().err


SPACE_OPTIONS = {"-h", "--help", "--space", "--lambda", "--pair", "--k", "--xa", "--xb", "--t0",
                 "--t1", "--samples", "--seed", "--perturb", "--out", "--format"}
OPTIONS = {
    "validate": {"-h", "--help", "--space", "--out"},
    "simulate": SPACE_OPTIONS,
    "verify": SPACE_OPTIONS | {"--fd-step", "--tol"},
    "catalog": {"-h", "--help", "--out"},
}


def test_each_quantity_has_one_setting(tmp_path, monkeypatch, capsys):
    # the field strength is --k, W comes from the space and the Koszul
    # tolerance is --tol: no flag scales W and no environment variable
    # stands in for --tol, whose default is 1e-6
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {cmd: {s for a in p._actions for s in a.option_strings} for cmd, p in sub.choices.items()}
    assert options == OPTIONS
    for cmd in ("verify", "simulate"):
        assert main([cmd, "--space", "hopf:1", "--W-scale", "3"]) == 2
        assert "unrecognized arguments: --W-scale 3" in capsys.readouterr().err
    monkeypatch.setenv("HOMOFIBER_TOL", "1e-30")
    rc, out = run_out(tmp_path, "tight.json", ["verify", "--space", "hopf:1", "--k", "1", "--samples", "5"])
    assert rc == 0 and json.loads(out.read_text())["tolerance"] == 1e-6


def test_simulate_reads_no_tolerance(capsys):
    argv = ["simulate", "--space", "hopf:1", "--samples", "3"]
    for flag in (["--tol", "1e-3"], ["--fd-step", "1e-5"]):
        assert main(argv + flag) == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


def test_unknown_space_is_usage_error(capsys):
    assert main(["validate", "--space", "nope"]) == 2
    assert "unknown space" in capsys.readouterr().err


def test_missing_document_is_usage_error(tmp_path):
    assert main(["validate", "--space", str(tmp_path / "absent.json")]) == 2


def test_malformed_json_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["validate", "--space", str(bad)]) == 2
    assert "cannot parse" in capsys.readouterr().err


def test_json_nested_too_deep_is_usage_error(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["validate", "--space", str(deep)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot parse {deep}: maximum recursion depth exceeded"), err
    assert err.count("\n") == 1


@pytest.mark.parametrize("depth", [500, 900])
def test_array_nested_too_deep_is_malformed(tmp_path, capsys, depth):
    # json decodes the document; reading W's nesting is what runs out of depth
    doc = export_entry(get_entry("hopf:1"))
    for _ in range(depth):
        doc["W"] = [doc["W"]]
    path = tmp_path / "deep-W.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", "--space", str(path)]) == 2
    err = capsys.readouterr().err
    want = "error: malformed space document: W: maximum recursion depth exceeded"
    assert err.startswith(want), err
    assert err.count("\n") == 1


def _without_model_kind(doc):
    del doc["model"]["kind"]
    return doc


def _without_ambient_n(doc):
    del doc["ambient_n"]
    return doc


def _as_list(doc):
    return [doc]


def _setting(key, value):
    def damage(doc):
        doc[key] = value
        return doc

    damage.__name__ = f"{key}={value!r}"
    return damage


MALFORMED = {
    _without_model_kind: "model.kind: missing",
    _without_ambient_n: "ambient_n: missing",
    _as_list: "expected a JSON object, got list",
    _setting("pair", 1): "pair must be a list [a, b] or [a, null], got 1",
    _setting("pair", "1,2"): "pair must be a list [a, b] or [a, null], got '1,2'",
    _setting("model", [1, 2]): 'model must be an object {"kind": ..., "base": ...} or null, got [1, 2]',
    _setting("weights", 3): "weights must be a list of 2 numbers, got 3",
}


@pytest.mark.parametrize("command", ["validate", "verify"])
@pytest.mark.parametrize("damage", list(MALFORMED))
def test_malformed_document_is_usage_error(tmp_path, capsys, command, damage):
    # one line naming the field and the shape it needs, never a Python
    # unpacking or indexing error
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(damage(export_entry(get_entry("hopf:1")))))
    assert main([command, "--space", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: malformed space document: {MALFORMED[damage]}\n"


@pytest.fixture
def empty_m1_documents(tmp_path):
    """hopf:1 with k = g, so m1 is 0-dimensional: with the pair (1, 2), and with (2, 1)."""
    doc = export_entry(get_entry("hopf:1"))
    doc["k_basis"] = doc["g_basis"]
    paths = []
    for pair in ([1, 2], [2, 1]):
        path = tmp_path / f"empty_m1_pair{pair[0]}{pair[1]}.json"
        path.write_text(json.dumps(dict(doc, pair=pair)))
        paths.append(str(path))
    return paths


@pytest.mark.parametrize("command", ["validate", "verify", "simulate"])
def test_a_document_whose_m_a_is_empty_is_refused(empty_m1_documents, capsys, command):
    # no command accepts a document that verify and simulate cannot run
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--space", empty_m1_documents[0]]) == 2
    want = "error: malformed space document: pair: m_a = m1 is empty"
    err = capsys.readouterr().err
    assert err.startswith(want) and err.count("\n") == 1, err


@pytest.mark.parametrize("command", ["verify", "simulate"])
def test_a_pair_flag_that_selects_an_empty_m_a_is_refused(empty_m1_documents, capsys, command):
    path = empty_m1_documents[1]
    assert main([command, "--space", path, "--samples", "3"]) == 0  # m_a = m2, m_b = m1 empty
    capsys.readouterr()
    for pair in ("1,2", "1"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--space", path, "--pair", pair]) == 2, pair
        err = capsys.readouterr().err
        assert err.startswith("error: m_a = m1 is empty") and err.count("\n") == 1, err


def _times_i(matrix):
    """A document matrix of [re, im] pairs multiplied by i."""
    A = np.array(matrix)
    return np.stack([-A[..., 1], A[..., 0]], -1).tolist()


@pytest.mark.parametrize(
    "name", ["hopf:1", "hopf:2", "hopf:3", "su2", "kahler_s2", "twistor_su3"]
)
def test_matrices_that_are_not_skew_hermitian_are_usage_errors(tmp_path, capsys, name):
    # i times a nonzero skew-Hermitian matrix is Hermitian: no document
    # may carry one into u(n), where the split is built
    base = dense_export(get_entry(name))
    cases = []
    for key in ("g_basis", "h_basis", "k_basis"):
        size = len(base.get(key, []))
        cases += [((key, i), f"{key}[{i}]") for i in sorted({0, size - 1}) if size]
    for j, mod in enumerate(base.get("module_bases", [])):
        cases.append((("module_bases", j, len(mod) - 1), f"module_bases[{j}][{len(mod) - 1}]"))
    if np.any(base["W"]):
        cases.append((("W",), "W"))
    assert len(cases) >= 3
    path = tmp_path / "hermitian.json"
    for where, label in cases:
        doc = json.loads(json.dumps(base))
        *outer, last = where
        target = doc
        for step in outer:
            target = target[step]
        target[last] = _times_i(target[last])
        path.write_text(json.dumps(doc))
        for argv in (["validate"], ["verify", "--samples", "2"]):
            assert main(argv + ["--space", str(path)]) == 2, (label, argv)
            err = capsys.readouterr().err
            assert f"malformed space document: {label} is not skew-Hermitian" in err, err
            assert "Traceback" not in err


@pytest.mark.parametrize("name", ["hopf:1", "kahler_s2"])
def test_non_finite_document_entries_are_usage_errors(tmp_path, capsys, name):
    # Python's json reads NaN and Infinity; a document carrying one is
    # refused by field name before any split is built
    base = dense_export(get_entry(name))
    fields = ["g_basis", "h_basis", "W", "k_basis", "module_bases", "model"]
    path = tmp_path / "non_finite.json"
    for key in [f for f in fields if base.get(f)]:
        for value in (float("nan"), float("inf")):
            doc = json.loads(json.dumps(base))
            target, label = doc[key], key
            if key == "module_bases":
                target, label = target[0], "module_bases[0]"
            elif key == "model":
                target, label = target["base"], "model.base"
            while isinstance(target[0], list):
                target = target[0]
            target[0] = value
            path.write_text(json.dumps(doc))
            for argv in (["validate"], ["verify", "--samples", "2"]):
                assert main(argv + ["--space", str(path)]) == 2, (label, argv)
                err = capsys.readouterr().err
                assert f"malformed space document: {label} has non-finite entries" in err, err
                assert "Traceback" not in err


@pytest.mark.parametrize("name", ["kahler_s2", "twistor_su3"])
def test_orbit_model_base_must_be_skew_hermitian(tmp_path, capsys, name):
    doc = export_entry(get_entry(name))
    doc["model"]["base"] = _times_i(doc["model"]["base"])
    path = tmp_path / "hermitian_base.json"
    path.write_text(json.dumps(doc))
    for argv in (["validate"], ["verify", "--k=1", "--samples", "3"]):
        assert main(argv + ["--space", str(path)]) == 2, argv
        err = capsys.readouterr().err
        assert "malformed space document: model.base is not skew-Hermitian" in err, err
        assert "Traceback" not in err


@pytest.mark.parametrize(
    "name,key,message",
    [
        ("hopf:1", "g_basis", "g basis spans nothing"),
        ("hopf:1", "k_basis", "h is not contained in k"),
        ("hopf:1", "h_basis", "FAIL  center_membership"),
        ("kahler_s2", "g_basis", "g basis spans nothing"),
        ("kahler_s2", "module_bases", "pieces span dimension 1 but g has dimension 3"),
    ],
)
def test_an_empty_basis_fails_validation(tmp_path, capsys, name, key, message):
    # an empty list spans the empty subspace of the space's n, so each
    # check reports what is missing instead of a shape error
    doc = export_entry(get_entry(name))
    doc[key] = [[]] if key == "module_bases" else []
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", "--space", str(path)]) == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err, err


def test_a_custom_split_with_every_basis_empty_fails_validation(tmp_path, capsys):
    doc = export_entry(get_entry("kahler_s2"))  # an orbit model, whose frame is g's basis
    doc.update(g_basis=[], h_basis=[], module_bases=[[]])
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", "--space", str(path)]) == 1
    assert capsys.readouterr().err == "validation failed: g basis spans nothing\n"


@pytest.mark.parametrize("empty", [("g_basis",), ("g_basis", "h_basis")], ids=["g", "g-and-h"])
def test_a_custom_split_with_an_empty_g_is_refused_before_anything_is_built_on_it(
    tmp_path, capsys, empty
):
    # an empty g is refused first, so neither the size of an empty h nor
    # the dimension of the modules gets a say
    doc = export_entry(get_entry("kahler_s2"))
    doc.update(dict.fromkeys(empty, []))
    path = tmp_path / "empty-g.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", "--space", str(path)]) == 1
    assert capsys.readouterr().err == "validation failed: g basis spans nothing\n"
    assert main(["verify", "--space", str(path), "--samples", "3"]) == 1
    assert capsys.readouterr().err == "error: g basis spans nothing\n"


@pytest.mark.parametrize("scale", [1e4, 1e8])
def test_a_document_with_a_large_central_W_passes_validate_and_verify(tmp_path, capsys, scale):
    # a document's W is judged central on W / max(1, max|W|), as a system's
    # is, so the roundoff of a large W fails neither validate nor verify
    path = scaled_W(tmp_path, "twistor_su3", scale)
    assert main(["validate", "--space", path]) == 0
    out = capsys.readouterr().out
    assert "PASS  center_membership" in out and "FAIL" not in out
    assert main(["verify", "--space", path, "--samples", "9"]) == 0
    assert capsys.readouterr().err == ""


def test_ambient_n_must_be_the_matrix_size(tmp_path, capsys):
    path = tmp_path / "ambient.json"
    for bad in (99, "x", -1, None):
        doc = export_entry(get_entry("hopf:1"))
        doc["ambient_n"] = bad
        path.write_text(json.dumps(doc))
        assert main(["verify", "--space", str(path)]) == 2, bad
        err = capsys.readouterr().err
        assert "malformed space document: ambient_n" in err and "Traceback" not in err, bad


BAD_VALUES = (
    None, True, -1, 2.5, "x", [], [0], [[0, 0]], [[[0, 0]]], {},
    [1, 3], [0, 1], [1, 1], [1.5, 2], 10**400,
)


@pytest.mark.parametrize(
    "name", ["hopf:1", "hopf:2", "hopf:3", "su2", "kahler_s2", "twistor_su3"]
)
def test_mutated_documents_never_end_in_a_traceback(tmp_path, name):
    """Every top-level and model field of an export, set to each bad value.

    A document that validate accepts is one verify can run, and a
    malformed one is refused with a message that names the field.
    """
    base = export_entry(get_entry(name))
    fields = [(key,) for key in base] + [("model", key) for key in base["model"] or ()]
    path = tmp_path / "mutated.json"
    for field in fields:
        for bad in BAD_VALUES:
            doc = json.loads(json.dumps(base))
            target = doc if len(field) == 1 else doc["model"]
            target[field[-1]] = bad
            path.write_text(json.dumps(doc))
            codes = []
            for argv in (["validate"], ["verify", "--samples", "2"]):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = main(argv + ["--space", str(path)])
                codes.append(rc)
                assert rc in (0, 1, 2), (field, bad, argv)
                assert "Traceback" not in err.getvalue()
                if "malformed" in err.getvalue():
                    assert rc == 2
                if rc == 2:
                    why = err.getvalue().partition("malformed space document: ")[2]
                    assert re.search(rf"\b{field[-1]}\b", why), (field, bad, argv, err.getvalue())
            assert codes[0] != 0 or codes[1] != 2, (field, bad)


def _cli(argv):
    """main(argv) with its output captured: exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", [*catalog_names(), "hopf:4", "hopf:5", "hopf:10"])
def test_dense_and_sparse_documents_give_the_same_bytes(tmp_path, name):
    # bases are exported sparse; a dense document of the same space, the
    # form users already have, decodes to the same arrays and so the same reports
    entry = named_entry(name)
    sparse, dense = export_entry(entry), dense_export(entry)
    assert all(isinstance(basis, dict) for _, basis in _sparse_fields(sparse))
    records = []
    for form, doc in (("dense", dense), ("sparse", sparse)):
        path = tmp_path / f"{form}.json"
        path.write_text(json.dumps(doc))
        runs = []
        for argv in (["validate"], ["verify", "--k", "1", "--samples", "9"]):
            out = tmp_path / "out"
            runs.append((*_cli(argv + ["--space", str(path), "--out", str(out)]), out.read_bytes()))
            runs.append(_cli(argv + ["--space", str(path)]))
        records.append(runs)
    assert records[0] == records[1]
    assert [run[0] for run in records[1]] == [0, 0, 0, 0]


def _sparse_fields(doc):
    """(label, sparse basis) of every basis field of an exported document."""
    out = [(key, doc[key]) for key in ("g_basis", "h_basis", "k_basis") if key in doc]
    return out + [(f"module_bases[{i}]", mod) for i, mod in enumerate(doc.get("module_bases", []))]


NOT_INDEX = (True, False, 1.0, "0", None, [0])
NOT_PART = (True, False, "0", None, [0.0])


@st.composite
def sparse_damage(draw, n):
    """A function that breaks one sparse basis of a space of n x n matrices, and its name."""
    kind = draw(st.sampled_from(["count", "nonzeros", "item", "length", "index", "type", "repeat", "value"]))
    if kind == "count":
        bad = draw(st.sampled_from([True, False, -1, 2.0, 10**400, n * n + 1, None, "1"]))
        return lambda basis, m: basis.__setitem__("count", bad), f"count={bad!r}"
    if kind == "nonzeros":
        bad = draw(st.sampled_from([None, {}, "x", 5]))
        return lambda basis, m: basis.__setitem__("nonzeros", bad), f"nonzeros={bad!r}"
    if kind == "item":
        bad = draw(st.sampled_from(["abcde", {"k": 0}, 5, None]))
        return lambda basis, m: basis["nonzeros"].__setitem__(m, bad), f"item={bad!r}"
    if kind == "length":
        size = draw(st.sampled_from([0, 4, 6]))

        def damage(basis, m):
            basis["nonzeros"][m] = (basis["nonzeros"][m] + [0.0])[:size]

        return damage, f"{size} items"
    if kind == "repeat":
        return lambda basis, m: basis["nonzeros"].append(list(basis["nonzeros"][m])), "repeat"
    if kind == "index":
        pos = draw(st.integers(0, 2))
        bad = draw(st.sampled_from([-1, "bound", 10**400]))

        def damage(basis, m):
            basis["nonzeros"][m][pos] = (basis["count"] if pos == 0 else n) if bad == "bound" else bad

        return damage, f"index {pos}={bad!r}"
    if kind == "type":
        pos = draw(st.integers(0, 4))
        bad = draw(st.sampled_from(NOT_INDEX if pos < 3 else NOT_PART))
        return lambda basis, m: basis["nonzeros"][m].__setitem__(pos, bad), f"type {pos}={bad!r}"
    pos = draw(st.integers(3, 4))
    bad = draw(st.sampled_from([float("nan"), float("inf"), -float("inf"), 10**400]))
    return lambda basis, m: basis["nonzeros"][m].__setitem__(pos, bad), f"value {pos}={bad!r}"


@pytest.fixture(scope="module")
def sparse_documents(tmp_path_factory):
    """Every catalog name's exported document, and a directory to write damaged ones to."""
    docs = {name: export_entry(get_entry(name)) for name in catalog_names()}
    return docs, tmp_path_factory.mktemp("sparse")


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_a_damaged_sparse_basis_is_a_usage_error_naming_its_field(sparse_documents, data):
    docs, tmp = sparse_documents
    name = data.draw(st.sampled_from(catalog_names()))
    doc = json.loads(json.dumps(docs[name]))
    fields = [(label, basis) for label, basis in _sparse_fields(doc) if basis["nonzeros"]]
    label, basis = data.draw(st.sampled_from(fields))
    damage, what = data.draw(sparse_damage(doc["ambient_n"]))
    damage(basis, data.draw(st.integers(0, len(basis["nonzeros"]) - 1)))
    path = tmp / "damaged.json"
    path.write_text(json.dumps(doc))
    for argv in (["validate"], ["verify", "--samples", "2"]):
        rc, out, err = _cli(argv + ["--space", str(path)])
        assert rc == 2, (label, what, argv, err)
        assert err.startswith(f"error: malformed space document: {label}"), (label, what, err)
        assert err.count("\n") == 1 and "Traceback" not in err, err


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(catalog_names()), st.randoms(use_true_random=False))
def test_the_order_of_the_nonzeros_does_not_matter(name, rnd):
    entry = get_entry(name)
    doc = json.loads(json.dumps(export_entry(entry)))
    for _, basis in _sparse_fields(doc):
        rnd.shuffle(basis["nonzeros"])
    loaded = load_custom(doc)
    for key, A in entry.source.items():
        if key not in ("name", "ambient_n"):
            assert np.asarray(loaded.source[key]).tobytes() == np.asarray(A).tobytes(), key
    assert export_entry(loaded) == export_entry(entry)


def test_verify_needs_samples(capsys):
    assert main(["verify", "--space", "hopf:1", "--samples", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --samples") and "Traceback" not in err


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["--lambda", "1", "--lambda", "1e-300", "--k=1"], "--lambda"),
        (["--k=1e300"], "--k"),
        (["--lambda", "1e300", "--lambda", "1e-300"], "--lambda"),
        (["--k=1", "--perturb", "1e308"], "--perturb"),
        (["--lambda", "1", "--lambda", "1e300", "--xb", "1e10"], "--lambda"),
    ],
)
def test_overflowing_inputs_are_usage_errors(capsys, argv, flag):
    # a weight ratio, k/lam or generator beyond floating-point range is
    # rejected before any check runs, so exit 1 keeps meaning a failed check;
    # the generators are sized before the motion forms them, so nothing overflows with a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["verify", "--space", "hopf:2"] + argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag in err and "Traceback" not in err


@pytest.mark.parametrize("name", ["twistor_su3", "kahler_s2"])
def test_a_document_whose_W_overflows_is_a_usage_error(tmp_path, capsys, name):
    # W x 1e200 is central in h, but its B-norm overflows; the message
    # points to the document, since no flag sets W
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["verify", "--space", scaled_W(tmp_path, name, 1e200)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the central element W overflows") and "Traceback" not in err
    assert err.endswith("; reduce W in the space document\n")


@pytest.mark.parametrize("weights,ratio", [(["1e300", "1e-300"], "0.000e+00"), (["1e-300", "1e300"], "inf")])
def test_weight_ratio_out_of_range_names_the_flag(capsys, weights, ratio):
    assert main(["verify", "--space", "hopf:2", "--lambda", weights[0], "--lambda", weights[1]]) == 2
    err = capsys.readouterr().err
    assert err == f"error: the --lambda weight ratio {ratio} is out of floating-point range\n"


@pytest.mark.parametrize("fmt", ["json-tree", "csv"])
def test_a_non_finite_verify_value_is_a_usage_error(tmp_path, capsys, monkeypatch, fmt):
    # Y ~ 1e300 overflows the extension's energies, so the Koszul residual reads nan:
    # not a failed check but a configuration the arithmetic cannot resolve, refused
    # without a warning and before any report is written
    out = tmp_path / "r"
    argv = ["verify", "--space", "hopf:2", "--lambda", "1", "--lambda", "1e300", "--format", fmt]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr() == (
        "", "error: the arithmetic cannot resolve this configuration: koszul residual nan\n"
    )
    assert not out.exists()
    # a sweep value is refused the same way, and each non-finite value is named
    monkeypatch.setattr("homofiber.cli.conservation_sweep", lambda grid: float("inf"))
    monkeypatch.setattr("homofiber.cli.velocity_agreement_sweep", lambda grid: float("nan"))
    assert main(["verify", "--space", "hopf:2", "--samples", "3", "--format", fmt]) == 2
    assert capsys.readouterr().err == (
        "error: the arithmetic cannot resolve this configuration: speed drift inf, velocity agreement nan\n"
    )


NAMES = "hopf:1, hopf:2, hopf:3, su2, kahler_s2, twistor_su3"


@pytest.mark.parametrize(
    "command,message",
    [
        ("verify --space hopf:1 --pair 1,2,3", "--pair wants 'a,b' or 'a', got '1,2,3'"),
        ("verify --space hopf:1 --pair a,b", "--pair wants integers, got 'a,b'"),
        ("verify --space hopf:1 --xa 1,x", "bad coefficient list '1,x'"),
        ("verify --space hopf:1 --xa 1,nan", "--xa wants finite coefficients, got '1,nan'"),
        ("validate --space {dir}", "cannot read {dir}: Is a directory"),
        ("verify --space {dir}/bad.json", "cannot parse {dir}/bad.json: Expecting property name"),
        ("verify --space nope", f"unknown space 'nope': not a catalog name ({NAMES}) and not a file"),
        ("simulate --space hopf:1 --out {dir}", "cannot write {dir}: Is a directory"),
        ("verify --space hopf:1 --lambda 1 --lambda 1e-320 --k 1",
         "the --lambda weight ratio 1.000e-320 is out of floating-point range"),
        ("simulate --space twistor_su3 --lambda 1 --lambda 1e-320 --k 1",
         "the --lambda weight ratio 1.000e-320 is out of floating-point range"),
        ("verify --space hopf:1 --xa 1", "--xa wants 2 coefficients, got 1"),
        ("verify --space kahler_s2 --xb 1", "this space has no second module; drop --xb"),
        ("verify --space hopf:1 --k 1e300", "the generator X overflows at --k 1.000e+300 and "
         "--lambda weight ratio 2.000e+00; reduce --k, --perturb or the ratio"),
        ("verify --space hopf:1 --samples 0", "--samples must be at least 1, got 0"),
        # refused before the space is built, so the unknown space goes unnamed
        ("verify --space nope --seed -1", "--seed must be a non-negative integer, got -1"),
        ("simulate --space nope --seed -1", "--seed must be a non-negative integer, got -1"),
        ("simulate --space nope --samples 1", "--samples must be at least 2, got 1"),
        ("simulate --space nope --t0 1 --t1 1", "--t0 must be below --t1, got [1.0, 1.0]"),
        ("catalog export", "catalog export needs a name"),
        ("catalog export zzz", f"unknown catalog entry 'zzz'; known: {NAMES}"),
    ],
)
def test_each_usage_error_is_one_error_line(tmp_path, capsys, command, message):
    # one case per raise site of a usage error: exit 2 and one stderr line, with no
    # warning and no traceback
    (tmp_path / "bad.json").write_text("{not json")
    argv = command.format(dir=tmp_path).split()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 2
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.startswith("error: " + message.format(dir=tmp_path)), err
    assert err.count("\n") == 1 and "Warning" not in err and "Traceback" not in err


def test_huge_charge_fails_the_koszul_check_without_a_traceback(capsys):
    # --k=1e150 is in floating-point range, but the product-rule velocity
    # of t1 carries roundoff far above the tolerance: the weak form fails
    # as a check (exit 1), not as an m-membership error
    assert main(["verify", "--space", "hopf:2", "--k=1e150"]) == 1
    err = capsys.readouterr().err
    assert "koszul residual" in err and "outside m" not in err and "Traceback" not in err


def _numbers(doc):
    if isinstance(doc, dict):
        return [x for v in doc.values() for x in _numbers(v)]
    if isinstance(doc, list):
        return [x for v in doc for x in _numbers(v)]
    return [doc] if isinstance(doc, float) else []


def test_charge_just_under_the_overflow_gate_keeps_every_number_finite(capsys):
    # the largest charges the generator gate lets through still give a finite
    # report: the brackets and conjugations inside the referee need no re-check
    argv = ["verify", "--space", "hopf:2", "--lambda", "1", "--lambda", "2", "--samples", "5"]
    assert main(argv + ["--k=9.5e153"]) == 2
    capsys.readouterr()
    assert main(argv + ["--k=9.4e153"]) == 1
    out, err = capsys.readouterr()
    numbers = _numbers(json.loads(out))
    assert len(numbers) > 5 and np.all(np.isfinite(numbers))
    assert "koszul residual" in err and "Traceback" not in err


FAR_T = ["--space", "hopf:2", "--k", "10", "--t1", "1e308", "--samples", "2"]
X_NAN, G_NAN = "X has non-finite entries", "g has non-finite entries"


@pytest.mark.parametrize(
    "argv,err",
    [
        (["verify", "--lambda", "1", "--lambda", "1", "--perturb", "1e-2"], X_NAN),
        (["verify", "--lambda", "1", "--lambda", "1.0001"], X_NAN),
        (["verify", "--lambda", "1", "--lambda", "2", "--perturb", "1e-2"], G_NAN),
        (["simulate", "--lambda", "1", "--lambda", "1"], X_NAN),
        (["simulate", "--lambda", "1", "--lambda", "1", "--format", "json-tree"], X_NAN),
        (["simulate", "--lambda", "1", "--lambda", "1.0001", "--perturb", "1e-2"], X_NAN),
        (["simulate", "--lambda", "1", "--lambda", "2"], G_NAN),
    ],
)
def test_a_flow_that_overflows_at_a_far_t_fails_without_a_report(capsys, argv, err):
    # once |t| times an eigenvalue passes float range, exp(tX) or exp(tY) is NaN:
    # the motion checks each flow it evaluates at a caller's t, so no NaN is reported
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and the flow warns of nothing
        assert main(argv[:1] + FAR_T + argv[1:]) == 1
    assert capsys.readouterr() == ("", f"error: {err}\n")


@pytest.mark.parametrize("command", ["verify", "simulate"])
def test_a_window_whose_span_overflows_exits_2_without_a_warning(capsys, command):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # np.linspace would warn of t1 - t0
        assert main([command, "--space", "hopf:2", "--t0=-1e308", "--t1", "1e308",
                     "--samples", "3"]) == 2
    assert capsys.readouterr() == (
        "", "error: --t1 - --t0 overflows: [-1e+308, 1e+308] is wider than float range\n"
    )


@pytest.mark.parametrize("command", ["verify", "simulate"])
def test_a_sample_count_too_large_to_allocate_exits_2(capsys, command):
    # 10**15 doubles are 8 PB, past any 64-bit address space: numpy refuses the
    # array at once, without touching memory
    assert main([command, "--space", "hopf:2", "--samples", str(10**15)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1, err
    assert err.startswith("error: --samples 1000000000000000 needs more memory than there is: ")


@pytest.mark.parametrize("command", ["verify", "simulate"])
def test_a_flow_that_overflows_prints_one_error_line(command):
    argv = [command, *FAR_T, "--lambda", "1", "--lambda", "1"]
    run = subprocess.run(
        [sys.executable, "-m", "homofiber.cli", *argv], capture_output=True, text=True,
        env=_cli_env(), timeout=120,
    )
    assert (run.returncode, run.stdout, run.stderr) == (1, "", f"error: {X_NAN}\n")


@pytest.mark.parametrize(
    "check,failure",
    [
        ("algebraic_identity_check", "bracket identity nan > 1e-11"),
        ("module_invariance_sweep", "module invariance nan > 1e-10"),
        ("velocity_agreement_sweep", "velocity agreement nan > 1e-11"),
    ],
)
def test_a_check_that_reads_nan_fails(monkeypatch, capsys, check, failure):
    # a NaN is no verdict of its check: the run fails as a configuration the
    # arithmetic cannot resolve (exit 2), naming the value, and writes no report
    monkeypatch.setattr(f"homofiber.cli.{check}", lambda grid: float("nan"))
    assert main(["verify", "--space", "hopf:1", "--samples", "3"]) == 2
    what = failure.split(" > ")[0]
    assert capsys.readouterr() == (
        "", f"error: the arithmetic cannot resolve this configuration: {what}\n"
    )


def test_verify_calls_no_checked_linalg_function_from_motion_or_oracle(monkeypatch, capsys):
    import homofiber

    callers = []
    modules = [homofiber] + [getattr(homofiber, m) for m in
                             ("linalg", "split", "field", "motion", "oracle", "catalog", "cli")]
    for name in ("bracket", "adjoint", "project"):
        original = getattr(homofiber.linalg, name)

        def spy(*args, _original=original, _name=name, **kwargs):
            callers.append((_name, sys._getframe(1).f_globals["__name__"]))
            return _original(*args, **kwargs)

        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, spy)
    base = ["verify", "--k=1", "--samples", "5"]
    assert main(base + ["--space", "hopf:2", "--lambda", "1", "--lambda", "2"]) == 0
    assert main(base + ["--space", "hopf:2", "--perturb", "1e-2"]) == 1
    assert main(base + ["--space", "kahler_s2"]) == 0
    capsys.readouterr()
    # the orbit model's positions of kahler_s2 go through the unchecked kernels too
    unchecked = ("homofiber.motion", "homofiber.oracle", "homofiber.catalog")
    assert not [c for c in callers if c[1] in unchecked]


def test_large_initial_data_fail_verify_on_the_koszul_truncation_alone(capsys):
    # module invariance and velocity agreement are judged relative to the
    # size of each matrix, so roundoff of the 1e6 data fails neither; the
    # weak form's fixed finite-difference step still truncates at this size
    argv = ["verify", "--space", "twistor_su3", "--xa", "1e6,1e6,1e6,1e6", "--samples", "5"]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert err == "verification failed: koszul residual 2.441e+00 > 1.0e-06\n"
    doc = json.loads(out)
    assert doc["module_invariance_max"] <= 1e-14 and doc["velocity_agreement_max"] <= 1e-14


def test_tampered_document_fails_validation(tmp_path):
    doc = dense_export(get_entry("hopf:1"))
    doc["h_basis"] = [doc["g_basis"][2]]
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(doc))
    rc, out = run_out(tmp_path, "t.json", ["validate", "--space", str(path)])
    assert rc == 1
    assert json.loads(out.read_text())["passed"] is False


def test_a_document_is_loaded_at_the_user_tolerance_and_validated_at_the_catalog_one(
    tmp_path, capsys
):
    # W moved 3e-11 off the center of h: within USER_TOL (1e-10), so the
    # document loads and verifies, but beyond CATALOG_TOL (1e-12), so validate fails
    entry = get_entry("hopf:1")
    W = entry.W + 3e-11 * entry.split.module(1).basis[0]
    doc = export_entry(entry)
    doc["W"] = np.stack([W.real, W.imag], axis=-1).tolist()
    path = tmp_path / "near.json"
    path.write_text(json.dumps(doc))
    assert load_custom(json.loads(path.read_text())).report["center_membership"] > 1e-12
    rc, out = run_out(tmp_path, "v.json", ["validate", "--space", str(path)])
    assert rc == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith("FAIL")] == [
        "FAIL  center_membership    residual 3.000e-11"
    ]
    assert len(lines) == 5
    assert json.loads(out.read_text())["passed"] is False
    assert main(["verify", "--space", str(path), "--samples", "3"]) == 0


def test_catalog_list(capsys):
    assert main(["catalog", "list"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert len(lines) >= 6
    assert any(line.startswith("hopf:1") and "model=vector" in line for line in lines)


def test_catalog_export_round_trip(tmp_path):
    rc, out = run_out(tmp_path, "hopf1.json", ["catalog", "export", "hopf:1"])
    assert rc == 0
    assert main(["validate", "--space", str(out)]) == 0
    assert main(["verify", "--space", str(out), "--k", "1", "--samples", "5"]) == 0


def test_catalog_export_unknown(capsys):
    # an unknown name is a bad invocation, not a failed check
    assert main(["catalog", "export", "nope"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown catalog entry 'nope'")
    assert "Traceback" not in err


def test_catalog_export_needs_name(capsys):
    assert main(["catalog", "export"]) == 2
    assert "needs a name" in capsys.readouterr().err


def test_simulate_csv_layout(tmp_path):
    rc, out = run_out(
        tmp_path,
        "traj.csv",
        ["simulate", "--space", "hopf:1", "--lambda", "1", "--lambda", "2",
         "--k", "1", "--t0", "0", "--t1", "2", "--samples", "11"],
    )
    assert rc == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()]
    header, data = rows[0], rows[1:]
    assert len(data) == 11
    assert header[0] == "t"
    assert header[-1] == "speed"
    assert "pos_0_re" in header  # sphere positions are complex pairs
    speeds = [float(r[-1]) for r in data]
    assert max(speeds) - min(speeds) <= 1e-12
    assert float(data[0][0]) == 0.0 and float(data[-1][0]) == 2.0


def test_simulate_positions_on_the_orbit_sphere(tmp_path):
    rc, out = run_out(
        tmp_path,
        "orbit.csv",
        ["simulate", "--space", "kahler_s2", "--k", "1", "--t0", "0",
         "--t1", "6.3", "--samples", "13"],
    )
    assert rc == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()]
    header, data = rows[0], rows[1:]
    cols = [header.index(f"pos_{i}") for i in range(3)]
    for r in data:
        radius = np.hypot(np.hypot(float(r[cols[0]]), float(r[cols[1]])), float(r[cols[2]]))
        assert radius == pytest.approx(np.sqrt(2.0), abs=1e-10)


def test_simulate_json_tree(tmp_path):
    rc, out = run_out(
        tmp_path,
        "traj.json",
        ["simulate", "--space", "su2", "--samples", "4", "--format", "json-tree"],
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["space"] == "su2"
    assert len(doc["samples"]) == 4
    assert doc["samples"][0]["position"] is None


def test_verify_csv_table(tmp_path):
    rc, out = run_out(
        tmp_path,
        "res.csv",
        ["verify", "--space", "hopf:1", "--k", "1", "--samples", "5",
         "--format", "csv"],
    )
    assert rc == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "t,probe,t1,t2,t3,rhs,residual"
    assert len(rows) == 1 + 5 * 3  # five times, three metric probes


def test_explicit_coefficients(tmp_path):
    rc, _ = run_out(
        tmp_path,
        "c.csv",
        ["simulate", "--space", "hopf:1", "--xa", "1,0", "--xb", "1",
         "--samples", "3"],
    )
    assert rc == 0
    assert main(["simulate", "--space", "hopf:1", "--xa", "1", "--samples", "3",
                 "--out", str(tmp_path / "d.csv")]) == 2
    assert main(["simulate", "--space", "kahler_s2", "--xb", "1", "--samples", "3",
                 "--out", str(tmp_path / "e.csv")]) == 2


def test_pair_flag_parsing(tmp_path):
    ok = ["verify", "--space", "kahler_s2", "--pair", "1", "--k", "1",
          "--samples", "5", "--out", str(tmp_path / "p.json")]
    assert main(ok) == 0
    assert main(["simulate", "--space", "hopf:1", "--pair", "1,2,3"]) == 2
    assert main(["simulate", "--space", "hopf:1", "--pair", "a,b"]) == 2


@pytest.mark.parametrize("command", ["verify", "simulate"])
def test_a_pair_flag_that_fails_the_bracket_condition_is_a_usage_error(tmp_path, monkeypatch, capsys, command):
    # [m2, m1] is not in m2 on hopf:2: the flag picked a pair the space cannot take,
    # so the command exits 2, as for any other bad flag, before any flow runs
    def no_flow(A):
        raise AssertionError("a flow ran")

    monkeypatch.setattr(motion_module, "Flow", no_flow)
    out = tmp_path / "out"
    assert main([command, "--space", "hopf:2", "--pair", "2,1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: bracket condition [m2, m1] in m2 fails (residual 1.000e+00)\n"
    assert not out.exists()


def test_reports_are_deterministic(tmp_path):
    argv = ["verify", "--space", "hopf:2", "--lambda", "1", "--lambda", "2",
            "--k", "1", "--samples", "7", "--seed", "3"]
    _, first = run_out(tmp_path, "a.json", argv)
    _, second = run_out(tmp_path, "b.json", argv)
    assert first.read_bytes() == second.read_bytes()
    argv = ["simulate", "--space", "hopf:2", "--k", "1", "--samples", "7",
            "--seed", "3"]
    _, first = run_out(tmp_path, "a.csv", argv)
    _, second = run_out(tmp_path, "b.csv", argv)
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--space", "hopf:1", "--bogus"],
        ["simulate", "--space", "su2", "extra"],
        ["verify", "--k", "abc"],
        ["simulate", "--space", "su2", "--format", "xml"],
        ["validate"],
        ["catalog", "bogus"],
    ],
)
def test_parser_for_argv_prints_the_full_errors(argv, capsys):
    # main prints the errors of a fresh two-level parser, usage naming every subcommand
    with pytest.raises(SystemExit) as exc:
        build_parser.__wrapped__().parse_args(argv)
    full = (exc.value.code, capsys.readouterr().err)
    assert (main(argv), capsys.readouterr().err) == full and full[0] == 2
    assert "usage: homofiber" in full[1]


def test_an_option_before_the_command_is_reported_alone(capsys):
    # the verify subparser takes --space, so only -x is left over
    assert main(["-x", "verify", "--space", "su2"]) == 2
    assert capsys.readouterr().err.endswith("homofiber: error: unrecognized arguments: -x\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--space", "hopf:1", "--samples", "3", "--out", "{out}"],
        ["validate", "--space", "hopf:1", "--out", "{out}"],
    ],
)
def test_no_op_after_the_first_builds_a_parser(tmp_path, monkeypatch, capsys, argv):
    argv = [a.format(out=tmp_path / "out.json") for a in argv]
    assert main(argv) == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for other in (["catalog", "list", "--out", str(tmp_path / "list.txt")], argv):
        assert main(other) == 0
    assert built == []


@pytest.mark.parametrize(
    "argv,env,name",
    [
        (["verify", "--space", "hopf:1", "--tol", "0"], None, "--tol"),
        (["verify", "--space", "hopf:1", "--tol=-1"], None, "--tol"),
        (["verify", "--space", "hopf:1", "--fd-step", "0"], None, "--fd-step"),
        (["verify", "--space", "hopf:1", "--fd-step=-1e-4"], None, "--fd-step"),
        # a tolerance left in the environment is read by nothing: the flag alone decides
        (["verify", "--space", "hopf:1", "--tol=-0.0"], "1e-6", "--tol"),
        (["verify", "--space", "hopf:1", "--fd-step=-0.0"], "1e-6", "--fd-step"),
        (["simulate", "--space", "hopf:1", "--tol", "-0.0"], None, "--tol"),
    ],
)
def test_tolerances_that_are_not_positive_are_usage_errors(monkeypatch, capsys, argv, env, name):
    if env is not None:
        monkeypatch.setenv("HOMOFIBER_TOL", env)
    assert main(argv) == 2
    err = capsys.readouterr().err
    # simulate reads no tolerance, so it has no --tol flag to check
    want = "unrecognized arguments" if argv[0] == "simulate" else "not positive"
    assert name in err and want in err and "Traceback" not in err


def test_bare_invocations():
    assert main([]) == 2
    assert main(["--help"]) == 0
    assert main(["frobnicate"]) == 2


def _cli_env():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _cli_process(argv):
    return subprocess.Popen(
        [sys.executable, "-m", "homofiber.cli"] + argv,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_cli_env(),
    )


def test_reader_closing_after_one_line_is_not_a_traceback():
    # 20000 samples are far more than a pipe buffer holds
    proc = _cli_process(["simulate", "--space", "hopf:1", "--samples", "20000"])
    assert proc.stdout.readline().startswith(b"t,rep_00_re")
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait() == 0
    assert "Traceback" not in err and "BrokenPipe" not in err


@pytest.mark.parametrize(
    "argv,code",
    [
        (["validate", "--space", "twistor_su3"], 0),
        (["simulate", "--space", "hopf:1", "--samples", "50"], 0),
        (["verify", "--space", "hopf:1", "--k=1", "--samples", "3", "--perturb", "1e-2"], 1),
    ],
)
def test_closed_stdout_keeps_the_exit_code(argv, code):
    proc = _cli_process(argv)
    proc.stdout.close()  # gone before the command writes anything
    err = proc.stderr.read().decode()
    assert proc.wait() == code
    assert "Traceback" not in err and "BrokenPipe" not in err


def test_repeated_main_calls_match_fresh_processes(tmp_path, monkeypatch):
    def verify(out, *flags):
        return ["verify", "--space", "hopf:2", "--samples", "5", *flags, "--out", out]

    runs = [
        verify("a.json", "--lambda", "1", "--lambda", "2", "--k", "1", "--tol", "1e-5",
               "--format", "json-tree"),
        verify("b.csv", "--lambda", "1", "--lambda", "0.5", "--k", "-0.5", "--tol", "1e-7",
               "--format", "csv"),
        verify("c.json"),
        ["simulate", "--space", "twistor_su3", "--lambda", "1", "--lambda", "3",
         "--k", "2", "--samples", "9", "--format", "json-tree", "--out", "d.json"],
    ]
    monkeypatch.chdir(tmp_path)
    in_process = []
    for argv in runs:
        assert main(argv) == 0
        in_process.append((tmp_path / argv[-1]).read_bytes())
    first, third = json.loads(in_process[0]), json.loads(in_process[2])
    assert first["tolerance"] == 1e-5
    # defaults, not the last call's
    assert (third["weights"], third["k"], third["tolerance"]) == ([1.0, 2.0], 0.0, 1e-6)
    for argv, got in zip(runs, in_process):
        fresh = argv[:-1] + ["fresh-" + argv[-1]]
        proc = _cli_process(fresh)
        _, err = proc.communicate()
        assert proc.returncode == 0, err.decode()
        assert (tmp_path / fresh[-1]).read_bytes() == got


PARSED = [
    ["verify", "--space", "hopf:2", "--lambda", "1", "--lambda", "2", "--k=-0.5"],
    ["simulate", "--space", "su2", "--format", "json-tree", "--out", "x"],
    ["validate", "--space", "verify"],
    ["catalog", "export", "twistor_su3"],
    ["catalog", "list", "--out", "simulate"],
]


@pytest.mark.parametrize("argv", PARSED)
def test_parser_for_argv_parses_like_the_full_parser(argv):
    # the cached parser keeps no state from the parses before: it reads
    # argv as a fresh two-level parser does
    for other in PARSED:
        build_parser().parse_args(other)
    fresh = build_parser.__wrapped__()
    assert vars(build_parser().parse_args(argv)) == vars(fresh.parse_args(argv))


@pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"], ["simulate", "--help"],
                                  ["validate", "--help"], ["catalog", "--help"]])
def test_parser_for_argv_prints_the_full_help(argv, capsys):
    with pytest.raises(SystemExit):
        build_parser.__wrapped__().parse_args(argv)
    fresh = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == fresh and "usage: homofiber" in fresh


def _f(x):
    return f"{float(x):.17g}"


def _per_float_sample_rows(traj, n):
    """The simulate CSV rows as they were once written, one float at a time."""
    header = ["t"]
    for i in range(n):
        for j in range(n):
            header += [f"rep_{i}{j}_re", f"rep_{i}{j}_im"]
    pos = traj.position
    if pos is not None:
        if np.iscomplexobj(pos):
            for i in range(pos.shape[1]):
                header += [f"pos_{i}_re", f"pos_{i}_im"]
        else:
            header += [f"pos_{i}" for i in range(pos.shape[1])]
    header.append("speed")
    rows = [header]
    for k in range(len(traj.t)):
        row = [_f(traj.t[k])]
        for z in np.asarray(traj.representative[k]).ravel():
            row += [_f(z.real), _f(z.imag)]
        if pos is not None:
            if np.iscomplexobj(pos):
                for z in pos[k]:
                    row += [_f(z.real), _f(z.imag)]
            else:
                row += [_f(x) for x in pos[k]]
        row.append(_f(traj.speed[k]))
        rows.append(row)
    return rows


def _per_entry_verify_rows(report):
    """The verify CSV rows as they were once written, one ResidualEntry at a time."""
    rows = [["t", "probe", "t1", "t2", "t3", "rhs", "residual"]]
    for e in report.entries:
        rows.append(
            [_f(e.t), str(e.probe), _f(e.t1), _f(e.t2), _f(e.t3), _f(e.rhs), _f(e.residual)]
        )
    return rows


SPACES = ["hopf:1", "hopf:2", "hopf:3", "su2", "kahler_s2", "twistor_su3"]


@pytest.mark.parametrize("name", SPACES)
def test_simulate_csv_matches_per_float_rows(tmp_path, name):
    argv = ["simulate", "--space", name, "--k", "1", "--samples", "40",
            "--t0=-7", "--t1", "9", "--seed", "5"]
    rc, out = run_out(tmp_path, "s.csv", argv)
    assert rc == 0
    args = build_parser().parse_args(argv)
    _, system, motion = _motion_from_args(args)
    rows = _per_float_sample_rows(
        sample_trajectory(motion, args.t0, args.t1, args.samples), system.split.n
    )
    assert out.read_bytes() == ("\n".join(",".join(r) for r in rows) + "\n").encode()


@pytest.mark.parametrize("perturb", [[], ["--perturb", "1e-2"]])
@pytest.mark.parametrize("name", SPACES)
def test_verify_csv_matches_per_entry_rows(tmp_path, name, perturb):
    argv = ["verify", "--space", name, "--k", "1", "--samples", "9",
            "--t0=-3", "--t1", "2", "--seed", "5", "--format", "csv"] + perturb
    rc, out = run_out(tmp_path, "r.csv", argv)
    assert rc == (1 if perturb else 0)
    args = build_parser().parse_args(argv)
    _, system, motion = _motion_from_args(args)
    report = residual_sweep(CurveGrid(
        motion,
        np.linspace(args.t0, args.t1, args.samples),
        metric_probe_basis(system),
        args.fd_step,
    ))
    rows = _per_entry_verify_rows(report)
    assert out.read_bytes() == ("\n".join(",".join(r) for r in rows) + "\n").encode()


@pytest.mark.parametrize("perturb", [[], ["--perturb", "1e-2"]])
@pytest.mark.parametrize("name", catalog_names())
def test_verify_report_equals_the_standalone_sweeps(tmp_path, name, perturb):
    # verify hands one shared grid to its five sweeps; each sweep called on a
    # fresh grid of its own, and the motion's own methods, must give the same bits
    argv = ["verify", "--space", name, "--k", "1", "--samples", "9", "--seed", "5"] + perturb
    rc, out = run_out(tmp_path, "v.json", argv)
    assert rc == (1 if perturb else 0)
    doc = json.loads(out.read_text())
    args = build_parser().parse_args(argv)
    _, system, motion = _motion_from_args(args)
    ts, probes = np.linspace(args.t0, args.t1, args.samples), metric_probe_basis(system)
    res = residual_sweep(CurveGrid(motion, ts, probes, args.fd_step))
    assert doc["koszul"] == {
        "max_abs": res.max_abs, "argmax_t": res.argmax[0], "argmax_probe": res.argmax[1]
    }
    identity = algebraic_identity_check(CurveGrid(motion, ts, probes))
    assert doc["bracket_identity_max"] == float(np.max(identity))
    assert doc["speed_drift"] == conservation_sweep(CurveGrid(motion, ts))
    assert doc["module_invariance_max"] == module_invariance_sweep(CurveGrid(motion, ts))
    assert doc["velocity_agreement_max"] == velocity_agreement_sweep(CurveGrid(motion, ts))
    speeds = metric_norm(motion.system, motion.body_velocity(np.concatenate([[0.0], ts])))
    assert doc["speed_drift"] == float(np.max(np.abs(speeds[1:] - speeds[0])))
    v = motion.transport(ts)[0] + motion.Xb
    gap = motion.body_velocity_numeric(ts) - v
    assert doc["velocity_agreement_max"] == float(np.max(bnorm(gap) / membership_scale(v)))


@pytest.mark.parametrize("name,most", [("hopf:3", 7), ("kahler_s2", 9)])
def test_verify_evaluates_no_flow_twice_on_one_grid(capsys, monkeypatch, name, most):
    # `most` bounds the exact run; on the perturbed twin one stack of exp(-tY)
    # serves both Ad(exp(-tY))Xa and the damaged body velocity
    import homofiber.linalg as linalg

    calls = Counter()
    real = linalg.Flow.__call__

    def counted(flow, t):
        calls[flow, np.asarray(t, dtype=float).tobytes()] += 1  # the key keeps the flow alive
        return real(flow, t)

    monkeypatch.setattr(linalg.Flow, "__call__", counted)
    argv = ["verify", "--space", name, "--k=1", "--samples", "9"]
    for extra, code, bound in (([], 0, most), (["--perturb", "1e-2"], 1, 6)):
        calls.clear()
        assert main(argv + extra) == code
        assert max(calls.values()) == 1
        assert sum(calls.values()) <= bound


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["verify", "--space", "hopf:2", "--k=1", "--t1", "nan"], "--t1"),
        (["verify", "--space", "hopf:2", "--k=1", "--t0", "inf"], "--t0"),
        (["verify", "--space", "hopf:2", "--k=1", "--fd-step", "inf"], "--fd-step"),
        (["verify", "--space", "hopf:2", "--k=1", "--perturb", "nan"], "--perturb"),
        (["verify", "--space", "hopf:2", "--k=1", "--perturb", "inf"], "--perturb"),
        (["verify", "--space", "hopf:2", "--k=inf"], "--k"),
        (["verify", "--space", "hopf:2", "--k", "nan"], "--k"),
        (["simulate", "--space", "hopf:2", "--xa", "nan,0,0,0"], "--xa"),
        (["simulate", "--space", "hopf:2", "--xb", "0,inf"], "--xb"),
        (["simulate", "--space", "hopf:2", "--k=-inf"], "--k"),
        (["simulate", "--space", "hopf:2", "--lambda", "1", "--lambda", "nan"], "--lambda"),
        (["verify", "--space", "hopf:2", "--tol", "inf"], "--tol"),
    ],
)
def test_non_finite_flags_are_usage_errors(capsys, argv, flag):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert flag in err and "finite" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "--space", "{dir}"],
        ["verify", "--space", "{dir}"],
        ["simulate", "--space", "hopf:2", "--out", "{dir}"],
        ["simulate", "--space", "hopf:2", "--out", "{dir}/missing/x.csv"],
    ],
)
def test_unusable_paths_are_usage_errors(tmp_path, capsys, argv):
    argv = [a.format(dir=tmp_path) for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and argv[-1] in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--space", "hopf:3", "--k", "1", "--samples", "800", "--t0=-30", "--t1", "30"],
        ["simulate", "--space", "hopf:3", "--samples", "2"],
        ["simulate", "--space", "twistor_su3", "--k", "1", "--samples", "300"],
        ["verify", "--space", "hopf:3", "--k", "1", "--samples", "40", "--format", "csv"],
        ["verify", "--space", "kahler_s2", "--samples", "2", "--format", "csv"],
    ],
    ids=["simulate 800", "simulate 2", "simulate twistor", "verify hopf:3", "verify kahler_s2"],
)
def test_csv_blocks_written_to_the_file_equal_stdout(tmp_path, capsys, argv):
    # --out takes the CSV blocks as bytes, stdout one decoded text
    assert main(argv) == 0
    printed = capsys.readouterr().out
    rc, out = run_out(tmp_path, "o.csv", argv)
    assert rc == 0 and capsys.readouterr().out == ""
    assert out.read_bytes() == printed.encode("ascii")
    if argv[0] == "simulate":
        assert printed.count("\n") == int(argv[argv.index("--samples") + 1]) + 1
