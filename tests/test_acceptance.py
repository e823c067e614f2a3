"""Package-level acceptance sweep.

One test per shipping requirement, so a verbose run reads as a
checklist. Criteria 1 through 4 share a single sweep over the Hopf
family: weight ratios {0.5, 1, 2}, charges {0, 1, -0.5}, five seeded
unit initial pairs per configuration, 25 times in [-2, 2], probed
against the full metric-orthonormal basis of m.
"""

import json
import time
from types import SimpleNamespace

import numpy as np
import pytest

from homofiber import (
    CurveGrid,
    algebraic_identity_check,
    build_motion,
    conservation_sweep,
    convergence_ratios,
    export_entry,
    get_entry,
    great_circle_check,
    lambda_collapse_check,
    velocity_agreement_sweep,
    load_custom,
    magnetic_circle_check,
    make_system,
    metric_probe_basis,
    module_invariance_sweep,
    perturb_motion,
    residual_sweep,
)
from homofiber.cli import main as cli_main
from conftest import seeded_unit_pair

SWEEP_SPACES = ("hopf:1", "hopf:2")
RATIOS = (0.5, 1.0, 2.0)
CHARGES = (0.0, 1.0, -0.5)
T_GRID = np.linspace(-2.0, 2.0, 25)
PAIRS_PER_CONFIG = 5
ALL_SPACES = ("hopf:1", "hopf:2", "hopf:3", "su2", "kahler_s2", "twistor_su3")


@pytest.fixture(scope="module")
def sweep():
    """Shared records for the core sweep, residual timing kept separate."""
    records = []
    residual_seconds = 0.0
    for name in SWEEP_SPACES:
        entry = get_entry(name)
        for ratio in RATIOS:
            for k in CHARGES:
                sys = make_system(entry, weights=(1.0, ratio), k=k)
                rng = np.random.default_rng(7)
                motions = [
                    build_motion(sys, *seeded_unit_pair(sys, rng))
                    for _ in range(PAIRS_PER_CONFIG)
                ]
                probes = metric_probe_basis(sys)
                t0 = time.perf_counter()
                res = max(
                    residual_sweep(CurveGrid(m, T_GRID, probes, 1e-4)).max_abs for m in motions
                )
                residual_seconds += time.perf_counter() - t0
                # one grid per motion holds every (t, probe) entry of the bracket identity
                alg = max(
                    float(np.max(algebraic_identity_check(CurveGrid(m, T_GRID, probes))))
                    for m in motions
                )
                records.append(
                    SimpleNamespace(
                        space=name,
                        ratio=ratio,
                        k=k,
                        residual=res,
                        algebraic=alg,
                        invariance=max(
                            module_invariance_sweep(CurveGrid(m, T_GRID)) for m in motions
                        ),
                        agreement=max(
                            velocity_agreement_sweep(CurveGrid(m, T_GRID)) for m in motions
                        ),
                        drift=max(
                            conservation_sweep(CurveGrid(m, T_GRID)) for m in motions
                        ),
                    )
                )
    return SimpleNamespace(records=records, residual_seconds=residual_seconds)


def test_criterion_01_weak_form_residual_bound(sweep):
    """Koszul residual at most 1e-6 on the whole sweep, within 30 s."""
    worst = max(r.residual for r in sweep.records)
    assert worst <= 1e-6, f"worst residual {worst:.3e}"
    assert sweep.residual_seconds <= 30.0, f"sweep took {sweep.residual_seconds:.1f}s"


def test_criterion_02_reduced_bracket_identity(sweep):
    """The assembled identity collapses to one bracket at roundoff, 1e-11."""
    worst = max(r.algebraic for r in sweep.records)
    assert worst <= 1e-11, f"worst identity gap {worst:.3e}"


def test_criterion_03_transport_and_velocity_agreement(sweep):
    """Transported data stays in its module (1e-10) and the two velocity
    computations agree (1e-11) across the sweep."""
    worst_inv = max(r.invariance for r in sweep.records)
    worst_agree = max(r.agreement for r in sweep.records)
    assert worst_inv <= 1e-10, f"worst invariance {worst_inv:.3e}"
    assert worst_agree <= 1e-11, f"worst agreement {worst_agree:.3e}"


def test_criterion_04_speed_conservation(sweep):
    """Speed drifts by at most 1e-10 on every configuration."""
    worst = max(r.drift for r in sweep.records)
    assert worst <= 1e-10, f"worst drift {worst:.3e}"


def test_criterion_05_equal_weight_collapse():
    """At weight ratio 1 the curve is a one-parameter subgroup, 1e-12."""
    worst = 0.0
    for name in SWEEP_SPACES:
        entry = get_entry(name)
        for k in CHARGES:
            sys = make_system(entry, weights=(1.0, 1.0), k=k)
            motion = build_motion(sys, *seeded_unit_pair(sys, np.random.default_rng(7)))
            gap = lambda_collapse_check(CurveGrid(motion, T_GRID))
            worst = max(worst, gap)
            assert gap <= 1e-12
    assert worst <= 1e-12, f"worst collapse distance {worst:.3e}"


def test_criterion_06_special_geometry():
    """Uncharged round-sphere curves are planar unit circles (1e-9);
    charged orbit-sphere curves have constant curvature (1e-6) strictly
    increasing over charges 0.5, 1, 2."""
    for name in SWEEP_SPACES:
        # catalog default weights are the round ones; the check verifies
        # roundness against the model before trusting any trajectory
        sys = make_system(get_entry(name), k=0.0)
        motion = build_motion(sys, *seeded_unit_pair(sys, np.random.default_rng(7)))
        radius_dev, planarity, _ = great_circle_check(motion)
        assert planarity <= 1e-9, f"{name} planarity {planarity:.3e}"
        assert radius_dev <= 1e-10

    sphere = make_system(get_entry("kahler_s2"), k=1.0)
    mag = magnetic_circle_check(sphere, sphere.ma.basis[0], k_values=(0.5, 1.0, 2.0))
    _, constant, increasing = mag
    assert constant, "curvature not constant along a charged circle"
    assert increasing, "curvature not increasing with charge"


def test_criterion_07_oracle_sensitivity():
    """A 1e-2 perturbation of the curve lifts the residual by 100x or
    more on every catalog space."""
    for name in ALL_SPACES:
        sys = make_system(get_entry(name), k=1.0)
        motion = build_motion(sys, *seeded_unit_pair(sys, np.random.default_rng(3)))
        damaged_motion = perturb_motion(motion, eps=1e-2)
        clean = residual_sweep(CurveGrid(motion, T_GRID, fd_step=1e-4)).max_abs
        damaged = residual_sweep(CurveGrid(damaged_motion, T_GRID, fd_step=1e-4)).max_abs
        assert damaged > 100.0 * clean, (
            f"{name}: damaged {damaged:.3e} vs clean {clean:.3e}"
        )


def test_criterion_08_second_order_convergence():
    """Halving the step from 2e-4 to 1e-4 shrinks the residual by a
    factor in [3.5, 4.5] at five fixed smooth sample points."""
    sys = make_system(get_entry("hopf:1"), weights=(1.0, 2.0), k=1.0)
    motion = build_motion(sys, *seeded_unit_pair(sys, np.random.default_rng(11)))
    probes = metric_probe_basis(sys)
    points = [(-1.7, 0), (-0.9, 0), (0.3, 0), (0.8, 1), (1.6, 0)]
    residuals = convergence_ratios(motion, points, probes)
    for (t, probe), r in zip(points, residuals):
        assert 3.5 <= r[0] / r[1] <= 4.5, f"t={t} probe={probe}: ratio {r[0] / r[1]:.2f}"


def test_criterion_09_structural_validation():
    """Every catalog entry passes every validator at 1e-12 and has the
    advertised module dimensions."""
    dims = {
        "hopf:1": (2, 1),
        "hopf:2": (4, 1),
        "hopf:3": (6, 1),
        "su2": (2, 1),
        "kahler_s2": (2,),
        "twistor_su3": (4, 2),
    }
    for name in ALL_SPACES:
        entry = get_entry(name)
        worst = max(entry.report.values())
        assert worst <= 1e-12, f"{name} worst residual {worst:.3e}"
        assert entry.split.dims == dims[name]


def test_criterion_10_determinism_and_round_trip(tmp_path):
    """Fixed seeds give byte-identical reports; export and load preserve
    every validator outcome."""
    verify_args = [
        "verify", "--space", "hopf:2", "--lambda", "1", "--lambda", "2",
        "--k", "1", "--samples", "9", "--seed", "3",
    ]
    sim_args = [
        "simulate", "--space", "hopf:1", "--lambda", "1", "--lambda", "2",
        "--k", "1", "--samples", "9", "--seed", "3",
    ]
    for argv, stem in ((verify_args, "verify"), (sim_args, "simulate")):
        a = tmp_path / f"{stem}_a.out"
        b = tmp_path / f"{stem}_b.out"
        assert cli_main(argv + ["--out", str(a)]) == 0
        assert cli_main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes(), f"{stem} report not deterministic"

    for name in ALL_SPACES:
        entry = get_entry(name)
        loaded = load_custom(json.loads(json.dumps(export_entry(entry))))
        before, after = entry.report, loaded.report
        assert set(before) == set(after)
        for check, residual in before.items():
            assert (after[check] <= 1e-12) == (residual <= 1e-12), (
                f"{name}: {check} changed across the round trip"
            )
