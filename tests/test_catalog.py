"""Catalog entries, base-point models, and space-document round trips."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homofiber import (
    ChargedSystem,
    CurveGrid,
    StructureError,
    bnorm,
    bracket,
    build_motion,
    catalog_names,
    export_entry,
    expm,
    get_entry,
    hopf,
    load_custom,
    make_system,
    residual_sweep,
)
from conftest import combo, dense_export, named_entry, per_element_u_basis, seeded_unit_pair, system_for


def mdoc(M):
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(M, dtype=complex)]


def test_catalog_lists_all_builders():
    names = catalog_names()
    assert set(names) >= {"hopf:1", "hopf:2", "hopf:3", "su2", "kahler_s2", "twistor_su3"}


@pytest.mark.parametrize(
    "name,dims",
    [
        ("hopf:1", (2, 1)),
        ("hopf:2", (4, 1)),
        ("hopf:3", (6, 1)),
        ("su2", (2, 1)),
        ("kahler_s2", (2,)),
        ("twistor_su3", (4, 2)),
    ],
)
def test_module_dimensions(entries, name, dims):
    assert entries[name].split.dims == dims


@pytest.mark.parametrize(
    "name", ["hopf:1", "hopf:2", "hopf:3", "su2", "kahler_s2", "twistor_su3"]
)
def test_entries_validate_tightly(entries, name):
    assert max(entries[name].report.values()) <= 1e-12


def test_field_direction_commutes_with_isotropy(entries):
    # checked directly, not through the validation report
    for name in ("hopf:2", "kahler_s2", "twistor_su3"):
        entry = entries[name]
        for E in entry.split.h.basis:
            assert bnorm(bracket(entry.W, E)) <= 1e-13


@pytest.mark.parametrize("name", ["hopf:1", "hopf:2", "kahler_s2", "twistor_su3"])
def test_model_is_constant_on_isotropy_cosets(entries, name):
    """Right multiplication by H must not move the model point.

    This is what makes positions functions on the coset space rather
    than on the group.
    """
    entry = entries[name]
    gb = entry.source["g_basis"]
    rng = np.random.default_rng(23)
    for _ in range(20):
        p = expm(combo_from(gb, rng))
        h = expm(combo(entry.split.h, rng.standard_normal(entry.split.h.dim)))
        moved = entry.model.apply(p @ h)
        assert np.linalg.norm(moved - entry.model.apply(p)) <= 1e-10


def combo_from(mats, rng):
    return sum(c * M for c, M in zip(rng.standard_normal(len(mats)), mats))


def test_hopf_base_point_is_last_coordinate(hopf1):
    x = hopf1.model.apply(np.eye(2))
    assert np.allclose(x, [0.0, 1.0])


def test_orbit_model_coordinates(entries):
    # the base matrix read against the frame: i diag(1,-1) has length
    # sqrt(2) and points along the third su(2) direction
    coords = entries["kahler_s2"].model.apply(np.eye(2))
    assert np.allclose(coords, [0.0, 0.0, np.sqrt(2.0)], atol=1e-14)


def test_make_system_overrides(hopf1):
    sys = make_system(hopf1, weights=(1.0, 3.0), k=0.25)
    assert sys.lam == 3.0
    assert sys.k == 0.25
    assert np.array_equal(sys.W, hopf1.W)  # the space fixes W; k alone sets the strength
    swapped = make_system(hopf1, pair=(1, None))
    assert swapped.b is None


def test_get_entry_unknown_name():
    with pytest.raises(KeyError) as info:
        get_entry("hopf:0")
    assert info.value.args[0] == (
        "unknown catalog entry 'hopf:0'; "
        "known: hopf:1, hopf:2, hopf:3, su2, kahler_s2, twistor_su3"
    )


def test_get_entry_builds_a_fresh_entry():
    first = get_entry("hopf:2")
    assert get_entry("hopf:2") is not first
    assert hopf(2) is not hopf(2)
    first.W[0, 0] = 5j  # an edit to one entry reaches no other
    assert get_entry("hopf:2").W[0, 0] == 1j


def test_hopf_argument_validation():
    with pytest.raises(ValueError, match="n >= 1"):
        hopf(0)


def test_export_load_round_trip_chain(hopf1):
    doc = export_entry(hopf1)
    assert "k" not in doc
    doc["weights"] = [1.0, 2.0]
    loaded = load_custom(json.loads(json.dumps(doc)))
    assert loaded.name == "hopf:1"
    assert loaded.split.dims == hopf1.split.dims
    assert loaded.weights == (1.0, 2.0)
    assert loaded.pair == (1, 2)
    assert np.array_equal(loaded.W, hopf1.W)
    assert loaded.model.kind == "vector"
    assert max(loaded.report.values()) <= 1e-12


def test_export_load_round_trip_modules(entries):
    entry = entries["kahler_s2"]
    doc = json.loads(json.dumps(export_entry(entry)))
    loaded = load_custom(doc)
    assert loaded.split.dims == (2,)
    assert loaded.pair == (1, None)
    assert loaded.model.kind == "orbit"
    p = expm(0.3 * entry.source["g_basis"][0])
    assert np.allclose(loaded.model.apply(p), entry.model.apply(p), atol=1e-13)


@pytest.mark.parametrize("name", ["kahler_s2", "twistor_su3"])
def test_an_orbit_model_reuses_the_g_its_split_was_checked_against(monkeypatch, name):
    from homofiber import split

    calls, frames, real = [], [], split.orthonormalize

    def spy(vectors, *args, **kwargs):
        calls.append(len(vectors))
        frames.append(real(vectors, *args, **kwargs))
        return frames[-1]

    monkeypatch.setattr(split, "orthonormalize", spy)
    entry = get_entry(name)
    assert entry.model.kind == "orbit" and entry.model.frame is frames[0] is entry.split.g
    if name == "kahler_s2":  # a custom split: g, h and the one module, g only once
        assert calls == [3, 1, 2]


@settings(max_examples=20, deadline=None)
@given(st.floats(0.0, 12.0))
def test_W_is_judged_central_relative_to_its_size_by_the_loader_and_the_constructor(exponent):
    # s log-uniform in [1, 1e12]: W x s is central at every scale, and W x s
    # plus 1e-6 s times an m1 basis matrix is refused at every scale, by
    # load_custom and by the system constructor alike
    s = 10.0**exponent
    entry = get_entry("twistor_su3")
    central = entry.W
    for W, accepted in ((central, True), (central + 1e-6 * entry.split.module(1).basis[0], False)):
        entry.W = W
        doc = export_entry(entry)
        doc["W"] = (s * np.array(doc["W"])).tolist()
        if accepted:
            assert max(load_custom(doc).report.values()) <= 1e-10
            ChargedSystem(entry.split, entry.weights, *entry.pair, s * W, 0.0)
            continue
        with pytest.raises(StructureError, match="FAIL  center_membership"):
            load_custom(doc)
        with pytest.raises(StructureError, match="W is not in h"):
            ChargedSystem(entry.split, entry.weights, *entry.pair, s * W, 0.0)


def test_loaded_entry_runs_the_full_pipeline(hopf1):
    loaded = load_custom(export_entry(hopf1))
    sys = make_system(loaded, weights=(1.0, 2.0), k=1.0)
    Xa, Xb = seeded_unit_pair(sys, np.random.default_rng(1))
    grid = CurveGrid(build_motion(sys, Xa, Xb), np.linspace(-1, 1, 5), fd_step=1e-4)
    report = residual_sweep(grid)
    assert report.max_abs <= 1e-6


def test_tampered_document_fails_validation(hopf1):
    doc = export_entry(hopf1)
    doc["W"] = mdoc(get_entry("hopf:1").source["g_basis"][2])
    with pytest.raises(StructureError):
        load_custom(doc)


def test_tampered_chain_caught_by_containment(hopf1):
    doc = dense_export(hopf1)
    # swap the isotropy basis for a direction outside k
    doc["h_basis"] = [doc["g_basis"][2]]
    with pytest.raises(StructureError):
        load_custom(doc)


def test_malformed_documents(hopf1):
    doc = export_entry(hopf1)
    del doc["weights"]
    with pytest.raises(ValueError, match="malformed space document"):
        load_custom(doc)
    doc = export_entry(hopf1)
    del doc["k_basis"]
    with pytest.raises(ValueError, match="k_basis or module_bases"):
        load_custom(doc)
    doc = export_entry(hopf1)
    doc["model"] = {"kind": "spinor", "base": doc["model"]["base"]}
    with pytest.raises(ValueError, match="unknown model kind"):
        load_custom(doc)


def _big_first_entry(doc):
    """The document with the first number of its array replaced by a 400-digit integer."""
    leaf = doc
    while isinstance(leaf[0], list):
        leaf = leaf[0]
    leaf[0] = 10**400
    return doc


def _bool_first_pair(doc):
    """The document with the first [re, im] pair of its array replaced by [False, True]."""
    row = doc
    while isinstance(row[0][0], list):
        row = row[0]
    row[0] = [False, True]
    return doc


@pytest.mark.parametrize(
    "name,key,value,message",
    [
        ("hopf:1", "pair", [1, 3], "pair: module index b=3 out of range 1..2"),
        ("hopf:1", "pair", [0, 1], "pair: module index a=0 out of range 1..2"),
        ("hopf:1", "pair", [3, None], "pair: module index a=3 out of range 1..2"),
        ("kahler_s2", "pair", [1, -1], "pair: module index b=-1 out of range 1..1"),
        ("hopf:1", "pair", [1, 10**400], "pair: module index b=1000"),
        ("hopf:1", "pair", [1.5, 2], "pair: module index a=1.5 is not an integer"),
        ("hopf:1", "pair", [True, 2], "pair: module index a=True is not an integer"),
        ("hopf:1", "pair", [1, 1], "pair indices a and b must differ"),
        ("hopf:1", "pair", 5, "pair must be a list [a, b] or [a, null], got 5"),
        ("hopf:1", "weights", [1, -1], "weights must be positive and finite, got (1, -1)"),
        ("hopf:1", "weights", [], "weights must be positive and finite, got ()"),
        ("hopf:1", "weights", [1], "weights: need 2 weights for 2 modules, got 1"),
        ("kahler_s2", "weights", [1, 2], "weights: need 1 weights for 1 modules, got 2"),
        ("hopf:1", "weights", [1e308, 1e-308],
         "weights: weight ratio 0.000e+00 is out of floating-point range"),
        ("hopf:1", "weights", [1, 10**400], "weights: int too large to convert to float"),
        ("hopf:1", "W", [[0, 0]], "W must be a square matrix, got shape (1,)"),
        ("hopf:1", "W", [[[0, 0]]], "ambient_n is 2, but W is 1 x 1"),
        ("hopf:1", "W", _big_first_entry, "W: int too large to convert to float"),
        ("kahler_s2", "g_basis", _big_first_entry, "g_basis: int too large to convert to float"),
        ("hopf:1", "k_basis", [[[0, 0]]], "k_basis must be a stack of 2 x 2 matrices, got shape (1, 1)"),
        ("kahler_s2", "module_bases", [], "module_bases must be a nonempty list of bases"),
        ("su2", "h_basis", {}, "h_basis: expected a list, got dict"),
        ("hopf:1", "model", {"base": [[1, 0], [0, 0]]}, "model.kind: missing"),
        ("hopf:1", "weights", [True, 2], "weights must be numbers, got (True, 2)"),
        ("hopf:1", "weights", ["1", "2"], "weights must be numbers, got ('1', '2')"),
        ("hopf:1", "weights", [1, 1e-320],
         "weights: weight ratio 1.000e-320 is out of floating-point range"),
        ("hopf:1", "W", _bool_first_pair, "W: expected [re, im] pairs of numbers, got [[False, True], "),
        ("kahler_s2", "h_basis", _bool_first_pair,
         "h_basis: expected [re, im] pairs of numbers, got [[False, True], "),
        ("hopf:1", "pair", [1], "pair must be a list [a, b] or [a, null], got [1]"),
        ("hopf:1", "pair", None, "pair must be a list [a, b] or [a, null], got None"),
        ("hopf:1", "weights", None, "weights must be a list of 2 numbers, got None"),
        ("hopf:1", "model", "orbit", 'model must be an object {"kind": ..., "base": ...} or null'),
    ],
)
def test_malformed_fields_are_named(name, key, value, message):
    # the weights and the pair obey the rules of the system constructor at load,
    # and every malformed field is named at the start of its message
    doc = dense_export(get_entry(name))
    doc[key] = value(doc[key]) if callable(value) else value
    with pytest.raises(ValueError) as err:
        load_custom(doc)
    assert str(err.value).startswith(f"malformed space document: {message}"), str(err.value)
    if key == "pair":  # an index of any size is abbreviated
        assert len(str(err.value)) < 120, str(err.value)


def test_document_with_both_split_forms_is_malformed(hopf1):
    # a chain and explicit modules state two splits; neither is dropped in silence
    doc = dense_export(hopf1)
    doc["module_bases"] = "garbage"
    with pytest.raises(ValueError, match="malformed space document: .*not both"):
        load_custom(doc)
    doc["module_bases"] = [doc["g_basis"][:2]]
    with pytest.raises(ValueError, match="malformed space document: .*not both"):
        load_custom(doc)


def test_three_module_document(entries):
    """A hand-written flag-manifold document with three modules loads.

    su(3) over its torus, one module per root plane. No ordered pair of
    distinct root planes closes the bracket condition, so the pair puts
    all initial data in the first module; the curve is then a magnetic
    geodesic of the diagonal metric and the residual oracle still
    applies.
    """
    from test_split import su3_basis, su3_root_modules, torus_basis

    mods = su3_root_modules()
    doc = {
        "name": "flag3",
        "ambient_n": 3,
        "g_basis": [mdoc(M) for M in su3_basis()],
        "h_basis": [mdoc(M) for M in torus_basis()],
        "module_bases": [[mdoc(M) for M in mod] for mod in mods],
        "weights": [1.0, 2.0, 3.0],
        "pair": [1, None],
        "W": mdoc(torus_basis()[0]),
        "k": 1.0,
        "model": None,
    }
    loaded = load_custom(json.loads(json.dumps(doc)))
    assert loaded.split.dims == (2, 2, 2)
    sys = make_system(loaded, k=1.0)
    assert sys.lam == 1.0
    Xa, _ = seeded_unit_pair(sys, np.random.default_rng(2))
    grid = CurveGrid(build_motion(sys, Xa), np.linspace(-1, 1, 5), fd_step=1e-4)
    report = residual_sweep(grid)
    assert report.max_abs <= 1e-6


def _arrays(entry):
    """Shape and bytes of every basis, W and model array of an entry."""
    split = entry.split
    out = {"g_basis": entry.source["g_basis"], "h": split.h.basis, "W": entry.W}
    out.update({f"m{i}": mod.basis for i, mod in enumerate(split.modules, 1)})
    if entry.chain is not None:
        out.update(chain_g=entry.chain.g.basis, chain_k=entry.chain.k.basis)
    if entry.model is not None:
        out.update(model_base=entry.model.base, model_frame=entry.model.frame.basis)
    return {key: (np.shape(A), np.asarray(A).tobytes()) for key, A in out.items()}


def _signed_zero_entry():
    """hopf:1 loaded from a document whose g_basis carries a -0.0 real part on the diagonal of a rotation."""
    doc = dense_export(get_entry("hopf:1"))
    doc["g_basis"][2][0][0] = [-0.0, 0.0]
    return load_custom(doc)


@pytest.mark.parametrize(
    "name",
    ["hopf:1", "hopf:2", "hopf:3", "su2", "kahler_s2", "twistor_su3", "hopf:4", "hopf:5", "hopf:10",
     "signed-zero"],
)
def test_export_load_export_is_exact(name):
    """Builders and load_custom make the same entry from the same bases, bit for bit."""
    if name == "signed-zero":
        entry = _signed_zero_entry()
        assert "[2, 0, 0, -0.0, 0.0]" in json.dumps(export_entry(entry)["g_basis"])
    else:
        entry = named_entry(name)
    doc = export_entry(entry)
    loaded = load_custom(json.loads(json.dumps(doc)))
    text = json.dumps(doc, sort_keys=True)
    assert json.dumps(export_entry(loaded), sort_keys=True) == text
    assert (loaded.name, loaded.weights, loaded.pair) == (entry.name, entry.weights, entry.pair)
    assert _arrays(loaded) == _arrays(entry)


def _string_leaf(W):
    W[1][1] = "ab"


def _string_first_leaf(W):
    W[0][0] = "0"


def _three_element_leaf(W):
    W[0][1] = [0.0, 0.0, 0.0]


def _ragged_rows(W):
    del W[1][1]


@pytest.mark.parametrize(
    "damage", [_string_leaf, _string_first_leaf, _three_element_leaf, _ragged_rows]
)
def test_malformed_arrays_are_rejected(hopf1, damage):
    doc = export_entry(hopf1)
    damage(doc["W"])
    with pytest.raises(ValueError, match="malformed space document"):
        load_custom(doc)


def _decoded(decode, doc):
    """decode(doc) as (dtype, shape, bytes), or the type and message of what it raises."""
    try:
        A = decode(doc)
    except Exception as exc:
        return type(exc), str(exc)
    return A.dtype, A.shape, A.tobytes()


def _arrays_of(doc):
    """Every array field of a space document."""
    out = [doc["g_basis"], doc["h_basis"], doc["W"], *doc.get("module_bases", [])]
    out += [doc[key] for key in ("k_basis",) if key in doc]
    return out + ([doc["model"]["base"]] if doc["model"] else [])


@pytest.mark.parametrize(
    "name", ["hopf:1", "hopf:2", "hopf:3", "su2", "kahler_s2", "twistor_su3", "hopf:4", "hopf:5"]
)
def test_one_step_decode_matches_the_pairs(name):
    from homofiber.catalog import _array, _pairs

    entry = named_entry(name)
    for doc in _arrays_of(json.loads(json.dumps(dense_export(entry)))):
        want = _decoded(lambda d: np.array(_pairs(d)), doc)
        assert want[0] == (np.complex128 if doc else np.float64)  # su2's h_basis is []
        assert _decoded(_array, doc) == want


@pytest.mark.parametrize(
    "doc",
    [
        [[True, 1.0]], [[0, 1], [False, 0]], [[None, 1]], [["1", 2]], [[0, "ab"]],
        [[10**400, 0]], [[[0, 1], [2, -(10**400)]]], [[1, 2], [3]], [[1, 2], [3, 4, 5]],
        [[1, 2], [[1, 2], [3, 4]]], [[[1, 2]], [3, 4]], [[[1, 2], [3, 4]], [[5, 6]]],
        [], [[]], [[], []], [1, 2], 5, "ab", {}, [[1.5, -0.0], [2**60 + 1, 3]],
    ],
    ids=repr,
)
def test_one_step_decode_keeps_every_message_and_array(doc):
    from homofiber.catalog import _array, _pairs

    assert _decoded(_array, doc) == _decoded(lambda d: np.array(_pairs(d)), doc)


@pytest.mark.parametrize("n,size", [(n, size) for n in range(1, 5) for size in (None, n, n + 1, n + 2)])
def test_u_basis_matches_the_per_element_build_bitwise(n, size):
    from homofiber.catalog import _u_basis

    got = _u_basis(n, size)
    assert got.shape == (n * n, size or n, size or n)
    assert got.tobytes() == np.array(per_element_u_basis(n, size)).tobytes()
