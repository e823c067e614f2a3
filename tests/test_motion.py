"""Tests for the two-exponential curve and its derivatives."""

import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homofiber import (
    DimensionError,
    DomainError,
    ClosedFormMotion,
    CurveGrid,
    bnorm,
    build_motion,
    expm,
    inner_b,
    make_system,
    metric_norm,
    perturb_motion,
    sample_trajectory,
    span_residual,
)
from homofiber.linalg import Flow, mul
from conftest import check_unitary, combo, seeded_unit_pair, system_for


def unit_basis_pair(system):
    """First basis vector of each module, metric-normalized."""
    Xa = system.ma.basis[0]
    Xa = Xa / metric_norm(system, Xa)
    if system.mb is None:
        return Xa, None
    Xb = system.mb.basis[0]
    return Xa, Xb / metric_norm(system, Xb)


def mp_expm(M, dps=40):
    with mpmath.workdps(dps):
        A = mpmath.matrix([[mpmath.mpc(z) for z in row] for row in M])
        E = mpmath.expm(A)
        n = M.shape[0]
        return np.array(
            [[complex(E[i, j]) for j in range(n)] for i in range(n)]
        )


def test_representative_matches_high_precision_product(hopf1):
    sys = system_for(hopf1, ratio=2.0, k=1.0)
    Xa, Xb = unit_basis_pair(sys)
    motion = build_motion(sys, Xa, Xb)
    got = motion.representative(1.0)
    want = mp_expm(motion.X) @ mp_expm(motion.Y)
    assert bnorm(got - want) < 1e-12
    # the factors genuinely fail to commute here, so the product order matters
    assert bnorm(got - expm(motion.X + motion.Y)) > 1e-3


def test_representative_is_unitary(hopf1):
    sys = system_for(hopf1, ratio=0.5, k=-1.0)
    Xa, Xb = seeded_unit_pair(sys, np.random.default_rng(7))
    motion = build_motion(sys, Xa, Xb)
    for t in np.linspace(-3.0, 3.0, 7):
        check_unitary(motion.representative(t))


def test_representative_at_zero_is_exact_identity(hopf1):
    motion = build_motion(system_for(hopf1, 2.0, 1.0), *unit_basis_pair(system_for(hopf1, 2.0, 1.0)))
    assert np.array_equal(motion.representative(0.0), np.eye(2))


def test_numeric_velocity_at_zero_is_initial_data(hopf1):
    # X + Y = Xa + Xb plus a piece of h, which projection removes
    sys = system_for(hopf1, ratio=3.0, k=2.0)
    Xa, Xb = seeded_unit_pair(sys, np.random.default_rng(1))
    motion = build_motion(sys, Xa, Xb)
    assert bnorm(motion.body_velocity_numeric(0.0) - (Xa + Xb)) < 1e-13


@pytest.mark.parametrize("name", ["hopf:1", "hopf:2", "su2", "twistor_su3"])
@pytest.mark.parametrize("ratio,k", [(2.0, 1.0), (0.5, -0.7), (1.0, 1.0)])
def test_velocity_formula_agrees_with_product_rule(entries, name, ratio, k):
    sys = system_for(entries[name], ratio=ratio, k=k)
    Xa, Xb = seeded_unit_pair(sys, np.random.default_rng(42))
    motion = build_motion(sys, Xa, Xb)
    worst = max(
        bnorm(motion.body_velocity_numeric(t) - motion.body_velocity(t))
        for t in np.linspace(-2.0, 2.0, 9)
    )
    assert worst < 1e-12


def solved_product_rule(motion, t):
    """m-projection of alpha^-1 alpha' by a linear solve, on the einsum flows of X and Y.

    alpha' = X alpha + exp(tX) Y exp(tY) from matrix products, then alpha xi = alpha'
    solved: it reads neither the representative nor a conjugate transpose.
    """
    fx, fy = Flow(motion.X)(t), Flow(motion.Y)(t)
    alpha = mul(fx, fy)
    alpha_dot = mul(motion.X, alpha) + mul(mul(fx, motion.Y), fy)
    m = motion.system.m
    return m.combine(m._coordinates(np.linalg.solve(alpha, alpha_dot)))


@pytest.mark.parametrize("name", ["hopf:1", "hopf:2", "hopf:3", "su2", "kahler_s2", "twistor_su3"])
@pytest.mark.parametrize("ratio", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("k", [0.0, 1.0, -0.5, 10.0])
def test_numeric_velocity_matches_the_solved_product_rule(entries, name, ratio, k):
    # the damaged twin too: no shortcut holds for it, so this is its only independent check
    sys = system_for(entries[name], ratio=ratio, k=k)
    motion = build_motion(sys, *seeded_unit_pair(sys, np.random.default_rng(11)))
    ts = np.linspace(-50.0, 50.0, 41)
    for m in (motion, perturb_motion(motion)):
        want = solved_product_rule(m, ts)
        assert np.all(bnorm(m.body_velocity_numeric(ts) - want) <= 1e-13 * bnorm(want))


def test_speed_is_pythagorean_in_the_initial_data(hopf1):
    ratio = 2.5
    sys = system_for(hopf1, ratio=ratio, k=1.0)
    Xa, Xb = seeded_unit_pair(sys, np.random.default_rng(9))
    motion = build_motion(sys, Xa, Xb)
    want = np.sqrt(inner_b(Xa, Xa) + ratio * inner_b(Xb, Xb))
    for t in (-1.5, 0.0, 0.4, 2.0):
        assert metric_norm(motion.system, motion.body_velocity(t)) == pytest.approx(want, abs=1e-12)


def test_transported_xa_stays_in_first_module(hopf1):
    sys = system_for(hopf1, ratio=2.0, k=1.0)
    Xa, Xb = seeded_unit_pair(sys, np.random.default_rng(3))
    motion = build_motion(sys, Xa, Xb)
    for t in (-2.0, 0.7, 1.9):
        T = motion.transport(t)[0]
        assert span_residual(sys.ma, T) < 1e-12
        assert bnorm(T) == pytest.approx(bnorm(Xa), abs=1e-13)


def test_equal_weights_collapse_second_factor(hopf1):
    sys = system_for(hopf1, ratio=1.0, k=1.0)
    Xa, Xb = unit_basis_pair(sys)
    motion = build_motion(sys, Xa, Xb)
    assert not motion.Y.any()
    # with Y = 0 the transport is trivial and the velocity is frozen
    assert np.array_equal(motion.body_velocity(1.3), motion.body_velocity(-0.2))


def test_commuting_factors_reduce_to_single_exponential(entries):
    # pure second-module data: X and Y are both multiples of Xb
    sys = system_for(entries["su2"], ratio=2.0)
    Xa = np.zeros((2, 2), dtype=complex)
    _, Xb = unit_basis_pair(sys)
    motion = build_motion(sys, Xa, Xb)
    for t in (-1.0, 0.5, 2.0):
        assert bnorm(motion.representative(t) - expm(t * (motion.X + motion.Y))) < 1e-13


def test_uncharged_equal_weights_velocity_is_constant(hopf1):
    sys = system_for(hopf1, ratio=1.0, k=0.0)
    Xa, Xb = seeded_unit_pair(sys, np.random.default_rng(4))
    motion = build_motion(sys, Xa, Xb)
    for t in np.linspace(-2.0, 2.0, 5):
        assert bnorm(motion.body_velocity_numeric(t) - (Xa + Xb)) < 1e-12


def test_build_motion_rejects_data_outside_the_modules(hopf1, entries):
    sys = system_for(hopf1, ratio=2.0, k=1.0)
    fiber = sys.mb.basis[0]
    with pytest.raises(DomainError, match="outside m1"):
        build_motion(sys, fiber)
    with pytest.raises(DomainError, match="outside m2"):
        build_motion(sys, sys.ma.basis[0], sys.ma.basis[1])

    flat = system_for(entries["kahler_s2"], k=1.0)
    with pytest.raises(DomainError, match="no second module"):
        build_motion(flat, flat.ma.basis[0], flat.ma.basis[1])


@pytest.mark.parametrize("size", [1.0, 1e6, 1e10])
def test_membership_of_the_initial_data_is_judged_relative_to_its_size(entries, size):
    # roundoff off the module grows with the data, so build_motion and the
    # metric judge X / max(1, max|X|), as the loader and the system judge W;
    # a component of 1e-6 of the size off the module fails at every size
    sys = system_for(entries["twistor_su3"], ratio=2.0, k=1.0)
    Xa, Xb = (size * mod.combine(np.ones(mod.dim)) for mod in (sys.ma, sys.mb))
    motion = build_motion(sys, Xa, Xb)
    assert np.all(np.isfinite(metric_norm(sys, motion.body_velocity(np.linspace(-1.0, 1.0, 5)))))
    off = size * 1e-6 * sys.split.h.basis[0]
    with pytest.raises(DomainError, match="^Xa has a component of size .* outside m1$"):
        build_motion(sys, Xa + off, Xb)
    with pytest.raises(DomainError, match="^Xb has a component of size .* outside m2$"):
        build_motion(sys, Xa, Xb + off)
    with pytest.raises(DomainError, match="^X has a component of size .* outside m$"):
        metric_norm(sys, Xa + off)


def test_build_motion_rejects_hermitian_components(hopf1):
    # the span residual is the Frobenius norm of the real view, so it
    # sees the whole Hermitian part; the skew-Hermitian check names it
    sys = system_for(hopf1, ratio=2.0, k=1.0)
    Xa, Xb = unit_basis_pair(sys)
    H = 0.3 * np.diag([1.0, -1.0]).astype(complex)
    assert span_residual(sys.ma, Xa + H) == pytest.approx(0.3 * np.sqrt(2.0), abs=1e-15)
    assert span_residual(sys.mb, Xb + H) == pytest.approx(0.3 * np.sqrt(2.0), abs=1e-15)
    with pytest.raises(DomainError, match="Xa is not skew-Hermitian"):
        build_motion(sys, Xa + H, Xb)
    with pytest.raises(DomainError, match="Xb is not skew-Hermitian"):
        build_motion(sys, Xa, Xb + H)


def test_build_motion_accepts_omitted_xb(hopf1):
    sys = system_for(hopf1, ratio=2.0, k=1.0)
    Xa, _ = unit_basis_pair(sys)
    motion = build_motion(sys, Xa)
    assert not motion.Xb.any()
    assert metric_norm(motion.system, motion.body_velocity(0.0)) == pytest.approx(1.0, abs=1e-12)


def test_sample_trajectory_shape_and_endpoints(hopf1):
    sys = system_for(hopf1, ratio=2.0, k=1.0)
    motion = build_motion(sys, *unit_basis_pair(sys))
    traj = sample_trajectory(motion, -1.0, 3.0, 9)
    assert len(traj.t) == 9
    assert traj.t[0] == -1.0
    assert traj.t[-1] == 3.0
    assert traj.representative.shape == (9, 2, 2)
    # the body over [0, *t]: Ad(exp(-tY))Xa and the body velocity
    assert traj.body[0].shape == traj.body[1].shape == (10, 2, 2)
    assert traj.speed.shape == (9,)
    # hopf carries a vector model, so positions are sphere points in C^2
    for i in range(len(traj.t)):
        assert traj.position[i].shape == (2,)
        assert np.linalg.norm(traj.position[i]) == pytest.approx(1.0, abs=1e-12)
        assert traj.speed[i] == pytest.approx(traj.speed[0], abs=1e-12)


def test_sample_trajectory_without_model_has_no_positions(entries):
    sys = system_for(entries["su2"], ratio=1.0)
    motion = build_motion(sys, *unit_basis_pair(sys))
    assert sample_trajectory(motion, 0.0, 1.0, 3).position is None


def test_sample_trajectory_argument_errors(hopf1):
    sys = system_for(hopf1, ratio=2.0, k=1.0)
    motion = build_motion(sys, *unit_basis_pair(sys))
    with pytest.raises(ValueError, match="t0 < t1"):
        sample_trajectory(motion, 1.0, 1.0, 5)
    with pytest.raises(ValueError, match="at least 2"):
        sample_trajectory(motion, 0.0, 1.0, 1)
    # a span past float range is refused before np.linspace could warn of it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t0, t1 in ((-1e308, 1e308), (np.float64(-1e308), np.float64(1e308)), (0.0, np.inf)):
            with pytest.raises(ValueError, match="t1 - t0 in float range"):
                sample_trajectory(motion, t0, t1, 3)


def test_curve_grid_refuses_a_grid_of_the_wrong_shape(hopf1):
    sys = system_for(hopf1, ratio=2.0, k=1.0)
    motion = build_motion(sys, *unit_basis_pair(sys))
    with pytest.raises(ValueError, match=r"t_samples must be a 1-D grid, got shape \(\)"):
        CurveGrid(motion, 0.5)
    with pytest.raises(ValueError, match=r"t_samples must be a 1-D grid, got shape \(1, 2\)"):
        CurveGrid(motion, [[0.0, 0.5]])
    # one probe is a stack of one
    with pytest.raises(ValueError, match=r"probes must be a \(P, n, n\) stack, got shape \(2, 2\)"):
        CurveGrid(motion, [0.5], sys.ma.basis[0]).unit_probes


def test_perturb_motion_is_marked_and_seeded(hopf1):
    sys = system_for(hopf1, ratio=2.0, k=1.0)
    Xa, Xb = seeded_unit_pair(sys, np.random.default_rng(8))
    motion = build_motion(sys, Xa, Xb)
    eps = 1e-3
    damaged = perturb_motion(motion, eps=eps, seed=5)
    assert damaged.exact is False
    assert metric_norm(sys, damaged.Y - motion.Y) == pytest.approx(eps, rel=1e-12)
    again = perturb_motion(motion, eps=eps, seed=5)
    assert np.array_equal(damaged.Y, again.Y)
    # the damaged velocity still lives in m but is a different curve
    v = damaged.body_velocity(1.0)
    assert span_residual(sys.m, v) < 1e-12
    assert bnorm(v - motion.body_velocity(1.0)) > eps / 10


def test_perturb_motion_single_module_system(entries):
    sys = system_for(entries["kahler_s2"], k=1.0)
    motion = build_motion(sys, sys.ma.basis[0])
    damaged = perturb_motion(motion, eps=1e-2, seed=0)
    assert metric_norm(sys, damaged.Y - motion.Y) == pytest.approx(1e-2, rel=1e-12)


def test_override_constructor_forces_inexact(hopf1):
    sys = system_for(hopf1, ratio=2.0, k=1.0)
    Xa, Xb = unit_basis_pair(sys)
    motion = ClosedFormMotion(sys, Xa, Xb, Y_override=np.zeros((2, 2)))
    assert motion.exact is False
    with pytest.raises(DimensionError, match="ClosedFormMotion: size mismatch"):
        ClosedFormMotion(sys, Xa, Xb, Y_override=np.zeros((3, 3)))


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_velocity_agreement_over_random_data(entries, seed):
    sys = system_for(entries["hopf:1"], ratio=2.0, k=1.0)
    Xa, Xb = seeded_unit_pair(sys, np.random.default_rng(seed))
    motion = build_motion(sys, Xa, Xb)
    for t in (-1.3, 0.6):
        assert bnorm(motion.body_velocity_numeric(t) - motion.body_velocity(t)) < 1e-12
