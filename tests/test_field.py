"""Charged systems: their checks, the metric, the field operator I0, and the two-form."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homofiber import (
    ChargedSystem,
    DomainError,
    StructureError,
    apply_I0,
    bnorm,
    bracket,
    catalog_names,
    export_entry,
    get_entry,
    hopf,
    inner_b,
    kahler_s2,
    load_custom,
    make_system,
    metric_inner,
    metric_norm,
    project,
    twistor_su3,
)

from conftest import combo


def test_weights_must_be_positive():
    for weights in [(1.0, -2.0), (), (np.inf,)]:
        with pytest.raises(ValueError, match=r"weights must be positive and finite, got \("):
            ChargedSystem(hopf(1).split, weights, 1, 2, hopf(1).W, 0.0)
    entry = hopf(1)
    for k in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="charge k must be finite"):
            ChargedSystem(entry.split, entry.weights, 1, 2, entry.W, k)


def test_weight_count_must_match():
    entry = hopf(1)
    with pytest.raises(ValueError, match="weights"):
        ChargedSystem(entry.split, (1.0,), 1, 2, entry.W, 0.0)


def test_metric_inner_weights():
    entry = hopf(1)
    sys = make_system(entry, weights=(2.0, 5.0))
    e1 = sys.ma.basis[0]
    e2 = sys.mb.basis[0]
    assert metric_inner(sys, e1, e1) == pytest.approx(2.0)
    assert metric_inner(sys, e2, e2) == pytest.approx(5.0)
    assert metric_inner(sys, e1, e2) == pytest.approx(0.0, abs=1e-14)
    assert metric_norm(sys, e1) == pytest.approx(np.sqrt(2.0))


def test_metric_inner_rejects_h_component():
    entry = hopf(1)
    sys = make_system(entry)
    bad = sys.ma.basis[0] + 0.1 * entry.split.h.basis[0]
    with pytest.raises(DomainError, match="outside"):
        metric_inner(sys, bad, bad)


def test_metric_inner_matches_module_sum():
    # the coordinate dot product equals the definition
    # sum_i w_i B(proj_i X, proj_i Y) over the modules
    sys = make_system(twistor_su3(), weights=(1.0, 3.0))
    rng = np.random.default_rng(2)
    for _ in range(5):
        X = combo(sys.m, rng.standard_normal(sys.m.dim))
        Y = combo(sys.m, rng.standard_normal(sys.m.dim))
        explicit = sum(
            w * inner_b(project(mod, X), project(mod, Y))
            for w, mod in zip(sys.weights, sys.split.modules)
        )
        assert abs(metric_inner(sys, X, Y) - explicit) <= 1e-12


def test_metric_inner_membership_threshold():
    # the membership check runs on every call, at split.USER_TOL = 1e-10
    entry = hopf(1)
    sys = make_system(entry)
    X = sys.ma.basis[0]
    z = entry.split.h.basis[0]
    with pytest.raises(DomainError, match="outside m"):
        metric_inner(sys, X + 1e-8 * z, X)
    with pytest.raises(DomainError, match="outside m"):
        metric_inner(sys, X, X + 1e-8 * z)
    assert metric_inner(sys, X + 1e-12 * z, X) == pytest.approx(1.0)


def test_lam_ratio():
    sys = make_system(hopf(1), weights=(2.0, 1.0))
    assert sys.lam == pytest.approx(0.5)
    sys1 = make_system(kahler_s2())
    assert sys1.lam == 1.0 and sys1.b is None


@pytest.mark.parametrize("weights,ratio", [((1e300, 1e-300), "0.000e+00"), ((1e-300, 1e300), "inf")])
def test_weight_ratio_out_of_range_is_refused(weights, ratio):
    # I0 scales m_b by 1 / lam, so a ratio that underflows to 0 or overflows
    # is refused when the system is built, not at its first use
    entry = get_entry("hopf:2")
    with pytest.raises(ValueError) as err:
        ChargedSystem(entry.split, weights, 1, 2, entry.W, 0.0)
    assert str(err.value) == f"weight ratio {ratio} is out of floating-point range"


def test_apply_I0_rotates_kahler_module():
    entry = kahler_s2()
    sys = make_system(entry)
    a1, a2 = sys.ma.basis
    # [W, a1] is proportional to a2 and vice versa with opposite sign
    out1 = apply_I0(sys, a1)
    out2 = apply_I0(sys, a2)
    c = metric_inner(sys, out1, a2)
    assert abs(c) > 0.1
    assert metric_inner(sys, out1, a1) == pytest.approx(0.0, abs=1e-12)
    assert metric_inner(sys, out2, a1) == pytest.approx(-c)


def test_apply_I0_respects_lam():
    entry = hopf(2)
    s1 = make_system(entry, weights=(1.0, 1.0))
    s2 = make_system(entry, weights=(1.0, 4.0))
    X = combo(s1.mb, np.ones(s1.mb.dim))
    # the m_b part of I0 scales by 1/lam
    assert np.allclose(apply_I0(s2, X), apply_I0(s1, X) / 4.0)


def test_apply_I0_domain_error():
    # twistor has [W, m2] = 0 but m2 still belongs to the domain;
    # anything with an h component does not
    entry = hopf(1)
    sys = make_system(entry)
    with pytest.raises(DomainError, match="domain"):
        apply_I0(sys, entry.split.h.basis[0])


def reference_apply_I0(sys, X):
    """I0 as a projection loop: W bracketed with each domain module's part of X."""
    domain = [sys.a] if sys.b is None else [sys.a, sys.b]
    Xa, *rest = parts = [project(sys.split.module(i), X) for i in domain]
    R = X
    for P in parts:
        R = R - P
    r = np.max(bnorm(R), initial=0.0)
    if r > 1e-10:
        raise DomainError(f"X has a component of size {r:.3e} outside the I0 domain")
    out = bracket(sys.W, Xa)
    for Xb in rest:
        out = out + bracket(sys.W, Xb) / sys.lam
    return out


@pytest.mark.parametrize("name", catalog_names())
def test_I0_matrix_matches_the_projection_loop(name):
    # the fixed (dim m)^2 matrix gives the projection loop's values, on a
    # stack and one matrix at a time, for every weight ratio and W scale
    entry = get_entry(name)
    rng = np.random.default_rng(11)
    ratios = [None] if entry.split.s == 1 else [(1.0, 0.5), (1.0, 1.0), (1.0, 2.0), (3.0, 0.1)]
    for weights in ratios:
        base = make_system(entry, weights=weights, k=1.0)
        for w_scale in (1.0, 7.0):
            sys = ChargedSystem(entry.split, base.weights, base.a, base.b, w_scale * entry.W, 1.0)
            domain = [sys.ma] if sys.mb is None else [sys.ma, sys.mb]
            X = sum(mod.combine(rng.standard_normal((6, mod.dim))) for mod in domain)
            want = reference_apply_I0(sys, X)
            got = apply_I0(sys, X)
            assert got.shape == X.shape
            scale = max(1.0, np.abs(want).max())
            assert np.abs(got - want).max() <= 1e-15 * scale, (weights, w_scale)
            assert np.array_equal(apply_I0(sys, X[2]), got[2])
            # an h direction, or i times the identity when h is trivial
            off = sys.split.h.basis[0] if sys.split.h.dim else 1j * np.eye(sys.split.n)
            with pytest.raises(DomainError, match="outside the I0 domain"):
                apply_I0(sys, X + 1e-6 * off)


def test_charged_system_validates_W():
    entry = hopf(1)
    m1 = entry.split.module(1)
    with pytest.raises(StructureError, match="not in h"):
        ChargedSystem(entry.split, (1.0, 2.0), 1, 2, m1.basis[0], 1.0)


def test_W_membership_tolerance_scales_with_W():
    # roundoff off h grows with |W|; a real off-h part of 1e-6 |W| fails at every scale
    entry = twistor_su3()
    off = entry.split.module(1).basis[0]
    for scale in (1.0, 1e6, 1e12):
        sys = ChargedSystem(entry.split, (1.0, 1.0), 1, 2, scale * entry.W, 0.0)
        assert np.array_equal(sys.W, scale * entry.W)
        W = scale * (entry.W + 1e-6 * off)
        with pytest.raises(StructureError, match="not in h"):
            ChargedSystem(entry.split, (1.0, 1.0), 1, 2, W, 0.0)


def test_charged_system_rejects_hermitian_W():
    # the Hermitian part commutes with the diagonal h of hopf(1), so the
    # skew-Hermitian check, which runs first, is what names it
    entry = hopf(1)
    H = 0.3 * np.diag([1.0, -1.0]).astype(complex)
    with pytest.raises(DomainError, match="W is not skew-Hermitian"):
        ChargedSystem(entry.split, (1.0, 2.0), 1, 2, entry.W + H, 1.0)


def test_charged_system_rejects_noncentral_W():
    # with su(2) as the isotropy of a split of su(3), no root direction
    # inside it is central
    from homofiber import build_custom_split
    from test_split import su3_basis, su3_root_modules, torus_basis

    mods = su3_root_modules()
    su2_like = mods[0] + [torus_basis()[0]]
    rest = mods[1] + mods[2] + [torus_basis()[1]]
    split = build_custom_split(su3_basis(), su2_like, [rest])
    with pytest.raises(StructureError, match="central"):
        ChargedSystem(split, (1.0,), 1, None, su2_like[0], 1.0)


def test_charged_system_trivial_h_forces_zero_W():
    from homofiber import lie_group

    entry = lie_group()
    with pytest.raises(StructureError, match="W must be zero"):
        ChargedSystem(entry.split, (1.0, 1.0), 1, 2, entry.split.m.basis[0], 1.0)


def test_charged_system_rejects_bad_pair():
    entry = hopf(1)
    with pytest.raises(StructureError, match="bracket condition"):
        ChargedSystem(entry.split, (1.0, 2.0), 2, 1, entry.W, 0.0)
    with pytest.raises(ValueError, match="differ"):
        ChargedSystem(entry.split, (1.0, 2.0), 1, 1, entry.W, 0.0)
    with pytest.raises(ValueError, match="out of range"):
        ChargedSystem(entry.split, (1.0, 2.0), 1, 5, entry.W, 0.0)
    # a bool or a float is not a module index; a numpy integer is, stored as an int
    for a, b, bad in ((1.5, 2, "a=1.5"), (True, 2, "a=True"), (1, 2.0, "b=2.0"), (1, "2", "b='2'")):
        with pytest.raises(ValueError, match=f"module index {bad} is not an integer"):
            ChargedSystem(entry.split, (1.0, 2.0), a, b, entry.W, 0.0)
    sys = ChargedSystem(entry.split, (1.0, 2.0), np.int64(1), np.int64(2), entry.W, 0.0)
    assert (type(sys.a), type(sys.b)) == (int, int)


def test_charged_system_refuses_an_empty_m_a():
    # k = g leaves m1 0-dimensional: no curve starts there, so the pair is a
    # usage error (a plain ValueError), not a failed structural check; an
    # empty m_b is allowed
    doc = export_entry(hopf(1))
    entry = load_custom(dict(doc, k_basis=doc["g_basis"], pair=[2, 1]))
    assert entry.split.dims == (0, 3)
    with pytest.raises(ValueError, match=r"^m_a = m1 is empty") as err:
        ChargedSystem(entry.split, (1.0, 2.0), 1, 2, entry.W, 0.0)
    assert not isinstance(err.value, StructureError)
    assert ChargedSystem(entry.split, (1.0, 2.0), 2, 1, entry.W, 0.0).mb.dim == 0


def test_charged_system_checks_in_order():
    # weights, pair, bracket condition, W, k, and the weight ratio last
    entry = hopf(1)
    split, W, off = entry.split, entry.W, entry.split.module(1).basis[0]
    cases = [
        (((1.0, -1.0), 1, 5, W, 0.0), "weights must be positive"),
        (((1.0, 2.0), 1, 5, off, 0.0), "out of range"),
        (((1e-300, 1e300), 2, 1, W, 0.0), "bracket condition"),
        (((1e300, 1e-300), 1, 2, off, 0.0), "W is not in h"),
        (((1e300, 1e-300), 1, 2, W, np.nan), "charge k must be finite"),
        (((1e300, 1e-300), 1, 2, W, 0.0), "weight ratio"),
    ]
    for args, message in cases:
        with pytest.raises(ValueError, match=message):
            ChargedSystem(split, *args)


def test_charged_system_sets_every_attribute_once():
    sys = make_system(twistor_su3(), weights=(1.0, 3.0), k=1.0)
    assert {"weights", "lam", "m", "ma", "mb", "m_weights", "domain_scale", "I0"} <= set(vars(sys))
    assert sys.weights == (1.0, 3.0) and sys.lam == 3.0
    assert np.array_equal(sys.m_weights, np.repeat([1.0, 3.0], sys.split.dims))
    assert np.array_equal(sys.domain_scale, np.repeat([1.0, 1.0 / 3.0], sys.split.dims))


coeff = st.floats(
    min_value=-3.0, max_value=3.0, allow_nan=False, allow_infinity=False
)


@settings(max_examples=40, deadline=None)
@given(st.lists(coeff, min_size=6, max_size=6))
def test_two_form_is_skew(cs):
    sys = make_system(hopf(1), weights=(1.0, 2.0), k=1.0)
    X = combo(sys.ma, cs[:2]) + cs[2] * sys.mb.basis[0]
    Y = combo(sys.ma, cs[3:5]) + cs[5] * sys.mb.basis[0]
    scale = max(1.0, metric_norm(sys, X) * metric_norm(sys, Y))
    omega = metric_inner(sys, X, apply_I0(sys, Y)), metric_inner(sys, Y, apply_I0(sys, X))
    assert abs(omega[0] + omega[1]) < 1e-10 * scale


@settings(max_examples=40, deadline=None)
@given(st.lists(coeff, min_size=3, max_size=3))
def test_I0_is_metric_skew(cs):
    sys = make_system(hopf(1), weights=(1.0, 0.5), k=1.0)
    X = combo(sys.ma, cs[:2]) + cs[2] * sys.mb.basis[0]
    scale = max(1.0, metric_norm(sys, X) ** 2)
    assert abs(metric_inner(sys, X, apply_I0(sys, X))) < 1e-10 * scale
