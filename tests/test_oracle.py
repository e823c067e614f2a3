"""Verification oracles: residual sweeps, geometry checks, sensitivity.

The residual machinery must stay honest in both directions: near zero
on the closed-form curves, far from zero the moment a curve is damaged.
Both directions are exercised here, together with the special-geometry
checks (great circles, magnetic circles, the equal-weight collapse) and
the finite-difference convergence order.
"""

import numpy as np
import pytest

from homofiber import (
    CurveGrid,
    DomainError,
    algebraic_identity_check,
    bracket,
    build_motion,
    conservation_sweep,
    convergence_ratios,
    great_circle_check,
    inner_b,
    lambda_collapse_check,
    velocity_agreement_sweep,
    magnetic_circle_check,
    make_system,
    metric_inner,
    metric_norm,
    metric_probe_basis,
    module_invariance_sweep,
    perturb_motion,
    residual_sweep,
)
from homofiber.oracle import _realify
from conftest import per_charge_magnetic_circles, seeded_unit_pair, system_for

TS = np.linspace(-2.0, 2.0, 7)
H = 1e-4


def seeded_motion(system, seed=0):
    Xa, Xb = seeded_unit_pair(system, np.random.default_rng(seed))
    return build_motion(system, Xa, Xb)


@pytest.mark.parametrize(
    "name", ["hopf:1", "hopf:2", "hopf:3", "su2", "kahler_s2", "twistor_su3"]
)
def test_residual_small_across_catalog(entries, name):
    sys = system_for(entries[name], ratio=2.0, k=1.0)
    report = residual_sweep(CurveGrid(seeded_motion(sys), TS, fd_step=H))
    assert report.max_abs <= 1e-6


@pytest.mark.parametrize("ratio", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("k", [0.0, 1.0, -0.5])
def test_residual_small_over_weight_and_charge_grid(entries, ratio, k):
    sys = system_for(entries["hopf:2"], ratio=ratio, k=k)
    report = residual_sweep(CurveGrid(seeded_motion(sys, seed=2), TS, fd_step=H))
    assert report.max_abs <= 1e-6


def test_resting_uncharged_particle_has_exact_zero_residual(hopf1):
    sys = system_for(hopf1, ratio=2.0, k=0.0)
    zero = np.zeros((2, 2), dtype=complex)
    motion = build_motion(sys, zero, zero)
    for Z in metric_probe_basis(sys):
        assert residual_sweep(CurveGrid(motion, [0.7], [Z], H)).values[0, 0, 4] == 0.0


def test_resting_charged_particle_residual_is_truncation_only(hopf1):
    # k moves the extension field even at rest, so the finite differences
    # pick up O(h^2 k^2) noise, nothing more
    sys = system_for(hopf1, ratio=2.0, k=1.0)
    zero = np.zeros((2, 2), dtype=complex)
    motion = build_motion(sys, zero, zero)
    worst = max(
        abs(residual_sweep(CurveGrid(motion, [0.7], [Z], H)).values[0, 0, 4])
        for Z in metric_probe_basis(sys)
    )
    assert worst <= 1e-6


def test_report_takes_first_argmax(hopf1, monkeypatch):
    # the sweep's terms are replaced so that the residual grid is exactly r
    import homofiber.oracle as oracle

    motion = seeded_motion(system_for(hopf1, ratio=2.0, k=1.0), seed=3)
    probes = metric_probe_basis(motion.system)

    def report(r):
        zero = np.zeros_like(r)
        monkeypatch.setattr(oracle, "_koszul_grid", lambda *args: (zero, zero, zero, -r))
        return residual_sweep(CurveGrid(motion, [0.0, 0.5, 1.0], probes, H))

    peaked, flat = report(np.diag([1e-9, -3e-8, 3e-8])), report(np.zeros((3, 3)))
    assert peaked.max_abs == 3e-8
    assert peaked.argmax == (0.5, 1)
    assert flat.max_abs == 0.0
    assert flat.argmax == (None, None)


def test_config_rejects_bad_steps(hopf1):
    motion = seeded_motion(system_for(hopf1, ratio=2.0, k=1.0))
    probe = metric_probe_basis(motion.system)[0]
    for step in (0.0, -1e-4, float("nan")):
        with pytest.raises(ValueError, match="fd_step must be positive, got"):
            residual_sweep(CurveGrid(motion, [0.0], [probe], fd_step=step))
        with pytest.raises(ValueError, match="fd_step must be positive, got"):
            residual_sweep(CurveGrid(motion, [0.0], [probe], step)).values[0, 0, 4]
    # an infinite step would turn every stencil term into inf - inf
    with pytest.raises(ValueError, match="fd_step must be finite, got inf"):
        CurveGrid(motion, [0.0], [probe], float("inf"))
    # a bare CurveGrid has no stencil t +- h, so the weak form refuses it by name
    for grid in (CurveGrid(motion, TS), CurveGrid(motion, TS, None, None)):
        with pytest.raises(ValueError, match="the weak form needs a grid with an fd_step"):
            residual_sweep(grid)


def test_zero_probe_rejected(hopf1):
    sys = system_for(hopf1, ratio=2.0, k=1.0)
    motion = seeded_motion(sys)
    with pytest.raises(DomainError, match="nonzero"):
        residual_sweep(CurveGrid(motion, [0.0], [np.zeros((2, 2))], H)).values[0, 0, 4]
    with pytest.raises(DomainError, match="^probe Z has a component of size 1.000e-06 outside m$"):
        residual_sweep(CurveGrid(motion, [0.0], [1e-6 * sys.split.h.basis[0]], H))


@pytest.mark.parametrize("name", ["hopf:1", "su2", "kahler_s2", "twistor_su3"])
def test_perturbed_curve_is_flagged(entries, name):
    sys = system_for(entries[name], ratio=2.0, k=1.0)
    motion = seeded_motion(sys, seed=3)
    clean = residual_sweep(CurveGrid(motion, TS, fd_step=H))
    damaged = residual_sweep(CurveGrid(perturb_motion(motion, eps=1e-2), TS, fd_step=H))
    assert clean.max_abs <= 1e-6
    assert damaged.max_abs > 100.0 * clean.max_abs


@pytest.mark.parametrize("ratio,k", [(0.5, 1.0), (2.0, 1.0), (2.0, 0.0), (3.0, -0.7)])
def test_reduced_identity_is_roundoff_exact(hopf1, ratio, k):
    sys = system_for(hopf1, ratio=ratio, k=k)
    motion = seeded_motion(sys, seed=5)
    worst = np.max(algebraic_identity_check(CurveGrid(motion, TS, metric_probe_basis(sys))))
    assert worst <= 1e-11


def test_reduced_identity_trivial_without_field(entries):
    # W = 0 kills every term by exact cancellation, not by tolerance
    sys = system_for(entries["su2"], ratio=2.0, k=1.0)
    motion = seeded_motion(sys, seed=5)
    grid = CurveGrid(motion, [0.8], metric_probe_basis(sys)[:1])
    assert algebraic_identity_check(grid)[0, 0] == 0.0


def test_assembled_terms_match_reduced_left_side(hopf1):
    """The finite-difference sum lands on the analytic bracket value.

    This ties the weak-form assembly to the reduced identity through a
    completely different code path (stencils and projections on one
    side, a single bracket on the other).
    """
    sys = system_for(hopf1, ratio=2.0, k=1.0)
    motion = seeded_motion(sys, seed=7)
    probes = metric_probe_basis(sys)
    wa = 1.0
    for t in (-1.1, 0.4):
        report = residual_sweep(CurveGrid(motion, [t], probes, H))
        for entry, Z in zip(report.entries, probes):
            Zu = Z / metric_norm(sys, Z)
            U = motion.transport(t)[0]
            lh = -sys.k * wa * inner_b(Zu, bracket(U + motion.Xb, sys.W))
            assert abs((entry.t1 + entry.t2 + entry.t3) - lh) <= 5e-6
            assert abs(entry.rhs - lh) <= 1e-11


@pytest.mark.parametrize("name", ["hopf:2", "twistor_su3"])
def test_koszul_residual_matches_sweep_entry(entries, name):
    sys = system_for(entries[name], ratio=2.0, k=1.0)
    motion = seeded_motion(sys, seed=5)
    probes = metric_probe_basis(sys)
    for m in (motion, perturb_motion(motion, eps=1e-2)):
        for t in (-1.3, 0.6):
            report = residual_sweep(CurveGrid(m, [t], probes, H))
            for entry, Z in zip(report.entries, probes):
                assert residual_sweep(CurveGrid(m, [t], [Z], H)).values[0, 0, 4] == entry.residual


def test_sweeps_read_zero_on_an_empty_grid(hopf1):
    motion = seeded_motion(system_for(hopf1, ratio=2.0, k=1.0), seed=3)
    empty = np.array([])
    for sweep in (conservation_sweep, module_invariance_sweep, velocity_agreement_sweep):
        assert sweep(CurveGrid(motion, empty)) == 0.0
    assert residual_sweep(CurveGrid(motion, empty, fd_step=H)).max_abs == 0.0


def test_bare_grid_solves_the_numeric_velocity_at_its_own_points(hopf1, monkeypatch):
    # the stencil t +- h exists only on a grid built for the weak form, with an fd_step;
    # either grid takes its representative, and the numeric velocity from it, in one call
    motion = seeded_motion(system_for(hopf1, ratio=2.0, k=1.0), seed=3)
    real, sizes = motion.representative, []

    def counted(t, y_phases=None):
        sizes.append(len(t))
        return real(t, y_phases)

    monkeypatch.setattr(motion, "representative", counted)
    monkeypatch.setattr(motion, "body_velocity_numeric", None)  # the grid never calls it
    velocity_agreement_sweep(CurveGrid(motion, TS, fd_step=None))
    grid = CurveGrid(motion, TS, fd_step=H)
    residual_sweep(grid)
    velocity_agreement_sweep(grid)
    assert sizes == [len(TS), 3 * len(TS)]


def test_sweep_builds_probe_stencils_once(hopf1, monkeypatch):
    # exp(+-hZ) depends on the probe alone, so a sweep builds one stacked
    # flow of hZ over all probes, and no other exponential, however many
    # times it samples
    import homofiber.linalg as linalg
    import homofiber.motion as motion_module
    import homofiber.oracle as oracle

    motion = seeded_motion(system_for(hopf1, ratio=2.0, k=1.0), seed=3)
    probes = metric_probe_basis(motion.system)
    calls = []
    real_flow = linalg.Flow
    for module in (linalg, motion_module, oracle):
        monkeypatch.setattr(module, "Flow", lambda A: calls.append(np.shape(A)) or real_flow(A))
    residual_sweep(CurveGrid(motion, TS, probes, H))
    assert calls == [probes.shape]


def test_sweep_checks_membership_a_fixed_number_of_times(entries, monkeypatch):
    # the probes and the body velocity are checked once each, as stacks,
    # whatever the numbers of times and probes
    import homofiber.field as field
    import homofiber.motion as motion_module
    import homofiber.oracle as oracle

    calls = []
    real = field._m_coordinates

    def counted(*args, **kwargs):
        calls.append(args[2])
        return real(*args, **kwargs)

    for module in (field, motion_module, oracle):
        monkeypatch.setattr(module, "_m_coordinates", counted)
    sys = system_for(entries["twistor_su3"], ratio=2.0, k=1.0)
    motion = seeded_motion(sys, seed=3)
    probes = metric_probe_basis(sys)
    counts = []
    for ts, ps in ((TS[:1], probes[:1]), (TS, probes), (np.linspace(-2, 2, 25), probes[:3])):
        calls.clear()
        residual_sweep(CurveGrid(motion, ts, ps, H))
        counts.append(len(calls))
    assert counts == [2, 2, 2]


def test_conservation_zero_data_is_exact(hopf1):
    sys = system_for(hopf1, ratio=2.0, k=1.0)
    zero = np.zeros((2, 2), dtype=complex)
    motion = build_motion(sys, zero, zero)
    drift = conservation_sweep(CurveGrid(motion, TS))
    assert metric_norm(motion.system, motion.body_velocity(0.0)) == 0.0
    assert drift == 0.0
    assert drift <= 1e-10


def test_conservation_along_closed_form_curves(hopf1):
    sys = system_for(hopf1, ratio=2.0, k=1.0)
    motion = seeded_motion(sys, seed=11)
    drift = conservation_sweep(CurveGrid(motion, np.linspace(-2.0, 2.0, 17)))
    want = np.sqrt(inner_b(motion.Xa, motion.Xa) + 2.0 * inner_b(motion.Xb, motion.Xb))
    assert metric_norm(motion.system, motion.body_velocity(0.0)) == pytest.approx(want, abs=1e-12)
    assert drift <= 1e-10


def test_conservation_is_weaker_than_the_residual(entries):
    """Speed can survive damage that the residual catches.

    A second-module perturbation keeps the transport factor inside K.
    When the isotropy algebra is an ideal of k (every fibration here
    built from a chain), both velocity components then keep their norms
    and the damaged curve still conserves speed to roundoff, even
    though its residual is large. On spaces where the perturbation
    leaks across the projection (single-module or flag cases) the
    drift shows up at the perturbation scale.
    """
    ts = np.linspace(-2.0, 2.0, 17)
    for name, floor in [("hopf:1", None), ("kahler_s2", 1e-4), ("twistor_su3", 1e-4)]:
        sys = system_for(entries[name], ratio=2.0, k=1.0)
        damaged = perturb_motion(seeded_motion(sys, seed=11), eps=1e-2)
        drift = conservation_sweep(CurveGrid(damaged, ts))
        if floor is None:
            assert drift <= 1e-10
        else:
            assert drift > floor


def test_module_invariance_and_velocity_agreement(entries):
    sys = system_for(entries["hopf:2"], ratio=0.5, k=-1.0)
    motion = seeded_motion(sys, seed=13)
    assert module_invariance_sweep(CurveGrid(motion, TS)) <= 1e-12
    assert velocity_agreement_sweep(CurveGrid(motion, TS)) <= 1e-12


@pytest.mark.parametrize("size", [1.0, 1e6, 1e10])
def test_module_invariance_and_velocity_agreement_are_relative_to_the_size_of_the_data(entries, size):
    # roundoff grows with the data, so each matrix X is judged on
    # X / max(1, max|X|), as build_motion judges Xa; absolute gates of
    # 1e-10 and 1e-11 failed the 1e6 curve on roundoff alone
    sys = system_for(entries["twistor_su3"], ratio=2.0, k=1.0)
    Xa, Xb = (size * mod.combine(np.ones(mod.dim)) for mod in (sys.ma, sys.mb))
    grid = CurveGrid(build_motion(sys, Xa, Xb), TS)
    assert module_invariance_sweep(grid) <= 1e-14
    assert velocity_agreement_sweep(grid) <= 1e-14


# -- special geometry ------------------------------------------------------


def test_uncharged_round_sphere_runs_on_great_circles(hopf1):
    sys = system_for(hopf1, k=0.0)  # catalog default weights are the round ones
    motion = seeded_motion(sys, seed=17)
    radius_dev, planarity, metric_scale = great_circle_check(motion)
    assert radius_dev <= 1e-10 and planarity <= 1e-9
    assert metric_scale == pytest.approx(2.0, abs=1e-12)


def _two_call_great_circle(motion):
    """great_circle_check as it read x0 and the 97 points: two representative calls."""
    sys = motion.system
    model, basis = sys.model, sys.m.basis
    pushed = _realify(model.apply(basis))
    gram_model = np.sum(pushed[:, None] * pushed[None], axis=-1)
    gram_metric = metric_inner(sys, basis[:, None], basis[None])
    scale = np.trace(gram_metric) / np.trace(gram_model)
    x0 = model.apply(motion.representative(0.0))
    xdot0 = model.apply(motion.X + motion.Y)
    q, R = np.linalg.qr(_realify(np.stack([x0, xdot0])).T)
    q = q[:, np.abs(np.diag(R)) > 1e-12]
    x = model.apply(motion.representative(np.linspace(0.0, 2.0 * np.pi, 97)))
    r = _realify(x)
    r = r - (r @ q) @ q.T
    max_rad = np.max(np.abs(np.linalg.norm(x, axis=-1) - 1.0), initial=0.0)
    max_plane = np.max(np.linalg.norm(r, axis=-1), initial=0.0)
    return float(max_rad), float(max_plane), float(scale)


@pytest.mark.parametrize("name", ["hopf:1", "hopf:2", "hopf:3"])
def test_great_circle_check_reads_one_grid_with_the_bits_of_two_calls(entries, name):
    # x0 is the t = 0 row of the grid's positions, where both flows are the identity exactly
    sys = system_for(entries[name], k=0.0)
    for seed in range(4):
        motion = seeded_motion(sys, seed=seed)
        assert great_circle_check(motion) == _two_call_great_circle(motion)
    zero = build_motion(sys, np.zeros((sys.split.n,) * 2, complex))
    assert great_circle_check(zero) == _two_call_great_circle(zero)


def test_great_circle_check_rejects_squashed_metric(hopf1):
    sys = system_for(hopf1, ratio=1.0, k=0.0)
    motion = seeded_motion(sys, seed=17)
    with pytest.raises(DomainError, match="not proportional"):
        great_circle_check(motion)


def test_great_circle_check_preconditions(hopf1, entries):
    charged = seeded_motion(system_for(hopf1, k=1.0), seed=17)
    with pytest.raises(DomainError, match="k = 0"):
        great_circle_check(charged)
    bare = seeded_motion(system_for(entries["su2"], ratio=1.0), seed=17)
    with pytest.raises(DomainError, match="vector model"):
        great_circle_check(bare)


def test_magnetic_circles_constant_curvature_monotone_charge(entries):
    sys = system_for(entries["kahler_s2"], k=1.0)
    Xa = sys.ma.basis[0]
    rows, constant, increasing = magnetic_circle_check(sys, Xa, k_values=(0.0, 0.5, 1.0, 2.0))
    assert constant and increasing
    assert rows.shape == (4, 3)
    for k, kappa_mean, _ in rows:
        assert abs(kappa_mean) == pytest.approx(k / np.sqrt(2.0), abs=1e-6)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_magnetic_circles_of_all_charges_at_once_match_one_motion_per_charge(entries, seed):
    sys = system_for(entries["kahler_s2"], k=1.0)
    Xa = seeded_unit_pair(sys, np.random.default_rng(seed))[0] * (1.0 + seed)
    k_values = (0.0, 0.5, -1.0, 1.0, 2.0, 3.0, -0.5)
    rows = magnetic_circle_check(sys, Xa, k_values=k_values)[0]
    got = [tuple(row) for row in rows.tolist()]
    # repr tells -0.0 from 0.0, as the JSON report does
    assert repr(got) == repr(per_charge_magnetic_circles(sys, Xa, k_values))
    assert magnetic_circle_check(sys, Xa, k_values=())[0].shape == (0, 3)


def test_magnetic_circle_homogeneity(entries):
    # scaling charge and speed together keeps the same circle
    sys = system_for(entries["kahler_s2"], k=1.0)
    Xa = sys.ma.basis[0]
    one = magnetic_circle_check(sys, Xa, k_values=(1.0,))[0][0]
    scaled = magnetic_circle_check(sys, 3.0 * Xa, k_values=(3.0,))[0][0]
    assert scaled[1] == pytest.approx(one[1], abs=1e-6)


def test_magnetic_circle_preconditions(hopf1, entries):
    round_sphere = system_for(hopf1, k=1.0)
    with pytest.raises(DomainError, match="orbit model"):
        magnetic_circle_check(round_sphere, round_sphere.ma.basis[0])
    flag = system_for(entries["twistor_su3"], ratio=1.0, k=1.0)
    with pytest.raises(DomainError, match="single-module"):
        magnetic_circle_check(flag, flag.ma.basis[0])
    sphere = system_for(entries["kahler_s2"], k=1.0)
    with pytest.raises(DomainError, match="nonzero"):
        magnetic_circle_check(sphere, np.zeros((2, 2)))
    # a Hermitian part below the membership tolerance is still refused
    with pytest.raises(DomainError, match="Xa is not skew-Hermitian"):
        magnetic_circle_check(sphere, sphere.ma.basis[0] + 1e-11 * np.eye(2))


def test_equal_weights_collapse_to_subgroup(hopf1):
    sys = system_for(hopf1, ratio=1.0, k=1.0)
    grid = CurveGrid(seeded_motion(sys, seed=19), np.linspace(-2.0, 2.0, 41))
    assert lambda_collapse_check(grid) <= 1e-12


def test_collapse_check_requires_equal_weights(hopf1):
    sys = system_for(hopf1, ratio=2.0, k=1.0)
    with pytest.raises(DomainError, match="lam = 1"):
        lambda_collapse_check(CurveGrid(seeded_motion(sys, seed=19), TS))


def test_residual_shrinks_at_second_order(hopf1):
    sys = system_for(hopf1, ratio=2.0, k=1.0)
    motion = seeded_motion(sys, seed=11)
    probes = metric_probe_basis(sys)
    r = convergence_ratios(motion, [(-1.7, 0), (0.3, 0)], probes)
    assert r.shape == (2, 3)
    for rs in r:
        assert 3.5 <= rs[0] / rs[1] <= 4.5
    # each entry is the one-point |residual| at its step
    want = abs(residual_sweep(CurveGrid(motion, [0.3], probes[:1], 5e-5)).values[0, 0, 4])
    assert r[1, 2] == want
