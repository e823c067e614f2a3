"""The grid layer against per-point reference loops.

The motion methods, the field functions and the referee evaluate a
whole t-grid (and, for the weak form, a whole (t, probe) grid) as one
array program. The reference functions below walk the same quantities
one t and one probe at a time, calling the package only on single
matrices, as the referee did before it worked on grids. Every grid
entry must agree with its reference to 1e-10, and a one-point grid must
reproduce the matching entry of a larger grid bit for bit.
"""

import numpy as np
import pytest

from homofiber import (
    CurveGrid,
    DomainError,
    algebraic_identity_check,
    apply_I0,
    build_motion,
    conservation_sweep,
    expm,
    metric_inner,
    metric_norm,
    metric_probe_basis,
    module_invariance_sweep,
    perturb_motion,
    project,
    residual_sweep,
    sample_trajectory,
    span_residual,
    velocity_agreement_sweep,
)
from homofiber.linalg import Flow, adjoint, bnorm, bracket, inner_b
from homofiber.split import membership_scale
from conftest import seeded_unit_pair, system_for

SPACES = ("hopf:1", "hopf:2", "hopf:3", "su2", "kahler_s2", "twistor_su3")
TS = np.array([-1.7, -0.4, 0.0, 0.9, 2.0])
H = 1e-4


def configurations():
    for name in SPACES:
        ratios = (None,) if name == "kahler_s2" else (0.5, 1.0, 2.0)
        for ratio in ratios:
            for k in (0.0, 1.0, -0.5):
                yield name, ratio, k


def motions(entries, name, ratio, k):
    """The seeded motion of a configuration and its perturbed twin."""
    sys = system_for(entries[name], ratio=ratio, k=k)
    motion = build_motion(sys, *seeded_unit_pair(sys, np.random.default_rng(23)))
    return motion, perturb_motion(motion, eps=1e-2)


# -- per-point references ---------------------------------------------------


def reference_koszul_rows(motion, t, probes, h):
    """(t1, t2, t3, rhs, residual) at one t for each probe, one pair at a time."""
    sys = motion.system
    v = motion.body_velocity(t)
    v_plus = motion.body_velocity_numeric(t + h)
    v_minus = motion.body_velocity_numeric(t - h)
    alpha = motion.representative(t)
    force = apply_I0(sys, v)

    def energy(p):
        w = project(sys.m, adjoint(p.conj().T, motion.X) + motion.Y)
        return metric_inner(sys, w, w)

    rows = []
    for Z in probes:
        Z = Z / metric_norm(sys, Z)
        zy = project(sys.m, bracket(Z, motion.Y))
        t1 = (metric_inner(sys, Z, v_plus) - metric_inner(sys, Z, v_minus)) / (2.0 * h)
        t2 = metric_inner(sys, v, zy)
        t3 = -0.5 * (energy(alpha @ expm(h * Z)) - energy(alpha @ expm(-h * Z))) / (2.0 * h)
        rhs = sys.k * metric_inner(sys, force, Z)
        rows.append((t1, t2, t3, rhs, (t1 + t2 + t3) - rhs))
    return rows


def reference_identity(motion, t, Z):
    sys = motion.system
    wa = sys.weights[sys.a - 1]
    wb = sys.weights[sys.b - 1] if sys.b is not None else wa
    lam, k, W = sys.lam, sys.k, sys.W
    Z = Z / metric_norm(sys, Z)
    U = motion.transport(t)[0]
    V = motion.Xb
    term1 = (wa - wb) * inner_b(Z, bracket(U, V + (k / lam) * W))
    term2 = (wb - wa) * inner_b(Z, bracket(U, V))
    term3 = (
        -(k / lam) * wa * inner_b(Z, bracket(U, W))
        - (k / lam) * wb * inner_b(Z, bracket(V, W))
    )
    collapsed = -k * wa * inner_b(Z, bracket(U + V, W))
    return abs(term1 + term2 + term3 - collapsed)


def reference_drift(motion, ts):
    s0 = metric_norm(motion.system, motion.body_velocity(0.0))
    return max(abs(metric_norm(motion.system, motion.body_velocity(t)) - s0) for t in ts)


def reference_invariance(motion, ts):
    Us = [motion.transport(t)[0] for t in ts]
    return max(span_residual(motion.system.ma, U) / membership_scale(U) for U in Us)


def reference_agreement(motion, ts):
    gaps = []
    for t in ts:
        v = motion.transport(t)[0] + motion.Xb
        gaps.append(bnorm(motion.body_velocity_numeric(t) - v) / membership_scale(v))
    return max(gaps)


# -- grid against reference -------------------------------------------------


@pytest.mark.parametrize("name,ratio,k", list(configurations()))
def test_grid_matches_per_point_reference(entries, name, ratio, k):
    for motion in motions(entries, name, ratio, k):
        probes = metric_probe_basis(motion.system)
        report = residual_sweep(CurveGrid(motion, TS, probes, H))
        got = np.array([[e.t1, e.t2, e.t3, e.rhs, e.residual] for e in report.entries])
        want = np.array([row for t in TS for row in reference_koszul_rows(motion, t, probes, H)])
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-10

        identity = algebraic_identity_check(CurveGrid(motion, TS, probes))
        assert identity.shape == (len(TS), len(probes))
        want = [[reference_identity(motion, t, Z) for Z in probes] for t in TS]
        assert np.abs(identity - np.array(want)).max() <= 1e-10

        drift = conservation_sweep(CurveGrid(motion, TS))
        assert abs(drift - reference_drift(motion, TS)) <= 1e-10
        inv = module_invariance_sweep(CurveGrid(motion, TS))
        assert abs(inv - reference_invariance(motion, TS)) <= 1e-10
        agree = velocity_agreement_sweep(CurveGrid(motion, TS))
        assert abs(agree - reference_agreement(motion, TS)) <= 1e-10


@pytest.mark.parametrize("name", SPACES)
def test_one_point_sweep_is_an_entry_of_the_full_sweep(entries, name):
    ratio = None if name == "kahler_s2" else 2.0
    for motion in motions(entries, name, ratio, 1.0):
        probes = metric_probe_basis(motion.system)
        full = residual_sweep(CurveGrid(motion, TS, probes, H)).entries
        for i, t in enumerate(TS):
            for j, Z in enumerate(probes):
                (one,) = residual_sweep(CurveGrid(motion, [t], [Z], H)).entries
                entry = full[i * len(probes) + j]
                assert (one.t1, one.t2, one.t3, one.rhs, one.residual) == (
                    entry.t1, entry.t2, entry.t3, entry.rhs, entry.residual
                )
                assert one.t == entry.t == t


@pytest.mark.parametrize("name", SPACES)
def test_motion_grid_entries_are_one_point_values(entries, name):
    ratio = None if name == "kahler_s2" else 0.5
    for motion in motions(entries, name, ratio, -0.5):
        for method in (
            motion.representative,
            lambda t: motion.transport(t)[0],
            motion.body_velocity,
            motion.body_velocity_numeric,
            lambda t: metric_norm(motion.system, motion.body_velocity(t)),
        ):
            grid = method(TS)
            for i, t in enumerate(TS):
                assert np.array_equal(grid[i], method(t))
        traj = sample_trajectory(motion, -1.0, 1.0, 5)
        for i, t in enumerate(traj.t):
            one = CurveGrid(motion, [t])
            assert np.array_equal(traj.representative[i], one.representative[0])
            assert traj.speed[i] == one.speed[0]
            if traj.position is None:
                assert one.position is None
            else:
                assert np.array_equal(traj.position[i], one.position[0])



@pytest.mark.parametrize("name", SPACES)
def test_a_trajectory_takes_the_phases_of_y_once_and_keeps_every_bit(entries, monkeypatch, name):
    # representative and body share exp(i t w_Y); body's exp(-i t w_Y) is its conjugate
    ratio = None if name == "kahler_s2" else 0.5
    for motion in motions(entries, name, ratio, -0.5):
        phases = []
        counted = Flow._phases
        monkeypatch.setattr(Flow, "_phases", lambda flow, grid: phases.append(flow) or counted(flow, grid))
        traj = sample_trajectory(motion, -30.0, 30.0, 801)  # t = 0 is on the grid
        assert phases == [motion._flow_y, motion._flow_x]
        monkeypatch.undo()
        ts = np.concatenate([[0.0], traj.t])
        assert traj.representative.tobytes() == motion.representative(traj.t).tobytes()
        for shared, alone in zip(traj.body, motion.transport(ts)):
            assert shared.tobytes() == alone.tobytes()

def test_flow_grid_entries_are_one_point_values():
    rng = np.random.default_rng(5)
    M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    skew = M - M.conj().T
    ts = np.array([-2.5, -0.3, 0.0, 0.4, 1.0, 3.0])
    for A in (skew, np.zeros((4, 4))):
        flow = Flow(A)
        stack = flow(ts)
        assert stack.shape == (len(ts),) + A.shape
        for i, t in enumerate(ts):
            assert np.array_equal(stack[i], flow(t))
        # t = 0 inside a grid is the identity exactly
        assert np.array_equal(stack[2], np.eye(A.shape[0]))
    assert np.array_equal(Flow(np.zeros((2, 2)))(ts), np.broadcast_to(np.eye(2), (6, 2, 2)))


def test_stack_with_one_matrix_off_m_raises_the_single_matrix_error(entries):
    sys = system_for(entries["twistor_su3"], ratio=2.0, k=1.0)
    good = np.array(metric_probe_basis(sys))
    off = good[1] + 1e-6 * sys.split.h.basis[0]
    stack = good.copy()
    stack[3] = off
    with pytest.raises(DomainError) as single:
        metric_inner(sys, off, good[0])
    with pytest.raises(DomainError) as stacked:
        metric_inner(sys, stack, good)
    assert str(stacked.value) == str(single.value)
    assert str(single.value).startswith("X has a component of size 1.000e-06 outside m")
    with pytest.raises(DomainError, match="^Y has a component of size 1.000e-06 outside m$"):
        metric_inner(sys, good, stack)
    # every matrix of a clean stack passes, one value per pair
    assert metric_inner(sys, good, good) == pytest.approx(np.ones(len(good)), abs=1e-12)
