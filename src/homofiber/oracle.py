"""Independent numerical verification of the charged-particle equation.

Nothing here reuses the closed-form solution's own algebra as ground
truth. The main oracle evaluates the weak form of the covariant
acceleration against an invariant probe field V with value Z at the
moving point,

    g(V, grad_vel vel) = (1/2)[ d/dt g(V, vel)           (t1, finite diff)
                              + g(vel, [Z, Y]_m)          (t2, algebraic)
                              - (1/2) d/ds |w|^2 along V  (t3, finite diff) ]

scaled so the assembled left side is compared directly with the force
term k g(I0 vel, Z); the residual of an exact trajectory is bounded by
the O(h^2) truncation of the central differences. Here w is the
extension field w(p) = proj_m(Ad(p^-1)X + Y), whose value along the
curve is the body velocity, and [Z, Y] arises as the bracket of the
probe field with that extension: the right-translation-invariant part
of the extension commutes with the left-invariant probe, leaving the
bracket of the left factors only.

Supporting checks: the reduced bracket identity behind the closed
form, evaluated purely algebraically, conservation of speed, module
invariance of the transported direction, great circles on round
spheres, circle trajectories with curvature monotone in the charge
on the adjoint 2-sphere, and the collapse to a one-parameter subgroup
at lam = 1.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .field import apply_I0, metric_inner, metric_norm
from .linalg import DomainError, adjoint, bnorm, bracket, expm, inner_b, project, span_residual
from .motion import build_motion


@dataclass(frozen=True)
class ResidualConfig:
    """Finite-difference step and pass tolerance."""

    fd_step: float = 1e-4
    tolerance: float = 1e-6

    def __post_init__(self):
        if not self.fd_step > 0:
            raise ValueError(f"fd_step must be positive, got {self.fd_step}")
        if not self.tolerance > 0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")


DEFAULT_CONFIG = ResidualConfig()


@dataclass(frozen=True)
class ResidualEntry:
    t: float
    probe: int
    t1: float
    t2: float
    t3: float
    rhs: float
    residual: float


@dataclass(frozen=True)
class ResidualReport:
    entries: tuple
    max_abs: float
    argmax: tuple

    @classmethod
    def from_entries(cls, entries):
        entries = tuple(entries)
        best, where = 0.0, (None, None)
        for e in entries:
            if abs(e.residual) > best:
                best, where = abs(e.residual), (e.t, e.probe)
        return cls(entries, best, where)


def metric_probe_basis(sys):
    """Metric-orthonormal basis of m: module bases scaled by 1/sqrt(weight)."""
    probes = []
    for w, mod in zip(sys.metric.weights, sys.split.modules):
        probes.extend(e / np.sqrt(w) for e in mod.basis)
    return probes


def _unit_probe(sys, Z):
    zn = metric_norm(sys, Z)
    if zn == 0.0:
        raise DomainError("probe Z must be nonzero")
    return Z / zn


def _probe_stencils(motion, probes, h):
    """(Z, exp(hZ), exp(-hZ), [Z, Y]_m) for each unit probe Z; none depends on t."""
    m = motion.system.m
    return [(Z, expm(h * Z), expm(-h * Z), project(m, bracket(Z, motion.Y))) for Z in probes]


def _koszul_rows(motion, t, stencils, h):
    """(t1, t2, t3, rhs, residual) at time t for each probe stencil.

    What depends on t alone, the body velocity, the numeric velocities
    at t +- h, alpha(t) and I0 of the velocity, is computed once. t1
    differentiates only body_velocity_numeric, never the shortcut.
    """
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
    for Z, step_plus, step_minus, zy in stencils:
        t1 = (metric_inner(sys, Z, v_plus) - metric_inner(sys, Z, v_minus)) / (2.0 * h)
        t2 = metric_inner(sys, v, zy)
        t3 = -0.5 * (energy(alpha @ step_plus) - energy(alpha @ step_minus)) / (2.0 * h)
        rhs = sys.k * metric_inner(sys, force, Z)
        rows.append((t1, t2, t3, rhs, (t1 + t2 + t3) - rhs))
    return rows


def koszul_residual(motion, t, Z, cfg=DEFAULT_CONFIG):
    """Weak-form residual at time t against probe Z (normalized internally)."""
    stencils = _probe_stencils(motion, [_unit_probe(motion.system, Z)], cfg.fd_step)
    return _koszul_rows(motion, float(t), stencils, cfg.fd_step)[0][4]


def residual_sweep(motion, t_samples=None, probes=None, cfg=DEFAULT_CONFIG):
    """Residuals over a t-grid times a probe set, reduced by max."""
    if t_samples is None:
        t_samples = np.linspace(-2.0, 2.0, 25)
    if probes is None:
        probes = metric_probe_basis(motion.system)
    units = [_unit_probe(motion.system, Z) for Z in probes]
    stencils = _probe_stencils(motion, units, cfg.fd_step)
    entries = []
    for t in t_samples:
        rows = _koszul_rows(motion, float(t), stencils, cfg.fd_step)
        entries.extend(ResidualEntry(float(t), j, *row) for j, row in enumerate(rows))
    return ResidualReport.from_entries(entries)


def algebraic_identity_check(motion, t, Z):
    """Roundoff-level check of the reduced bracket identity.

    With U = Ad(exp(-tY))Xa transported into m_a, V = Xb, the three
    reduced terms

        (wa - wb)   B(Z, [U, V + (k/lam) W])
      + (wb - wa)   B(Z, [U, V])
      - (k/lam) wa  B(Z, [U, W]) - (k/lam) wb B(Z, [V, W])

    collapse to -k wa B(Z, [U + V, W]). This is exact bracket algebra,
    no differentiation, so agreement is expected at 1e-11 or better.
    """
    sys = motion.system
    wa = sys.metric.weights[sys.a - 1]
    wb = sys.metric.weights[sys.b - 1] if sys.b is not None else wa
    lam, k, W = sys.lam, sys.k, sys.W
    Z = _unit_probe(sys, Z)
    U = motion.transported_xa(float(t))
    V = motion.Xb
    term1 = (wa - wb) * inner_b(Z, bracket(U, V + (k / lam) * W))
    term2 = (wb - wa) * inner_b(Z, bracket(U, V))
    term3 = (
        -(k / lam) * wa * inner_b(Z, bracket(U, W))
        - (k / lam) * wb * inner_b(Z, bracket(V, W))
    )
    collapsed = -k * wa * inner_b(Z, bracket(U + V, W))
    return abs(term1 + term2 + term3 - collapsed)


@dataclass(frozen=True)
class ConservationReport:
    speed0: float
    max_drift: float

    def passed(self, tol=1e-10):
        return self.max_drift <= tol


def conservation_sweep(motion, t_samples):
    """Max |speed(t) - speed(0)| over the sweep."""
    s0 = motion.speed(0.0)
    drift = max(abs(motion.speed(float(t)) - s0) for t in t_samples)
    return ConservationReport(s0, drift)


def module_invariance_sweep(motion, t_samples):
    """Max component of Ad(exp(-tY))Xa outside m_a over the sweep."""
    ma = motion.system.ma
    return max(span_residual(ma, motion.transported_xa(float(t))) for t in t_samples)


def velocity_agreement_sweep(motion, t_samples):
    """Max B-distance between the two body-velocity computations."""
    worst = 0.0
    for t in t_samples:
        t = float(t)
        d = motion.body_velocity_numeric(t) - (motion.transported_xa(t) + motion.Xb)
        worst = max(worst, bnorm(d))
    return worst


@dataclass(frozen=True)
class GreatCircleReport:
    max_radius_dev: float
    max_planarity: float
    metric_scale: float

    def passed(self, radius_tol=1e-10, plane_tol=1e-9):
        return self.max_radius_dev <= radius_tol and self.max_planarity <= plane_tol


def _realify(z):
    z = np.asarray(z).ravel()
    return np.concatenate([z.real, z.imag])


def _plane_frame(vectors, tol=1e-12):
    frame = []
    for v in vectors:
        w = v.astype(float).copy()
        for q in frame:
            w -= (q @ w) * q
        nw = np.linalg.norm(w)
        if nw > tol:
            frame.append(w / nw)
    return frame


def great_circle_check(motion, t_samples=None):
    """Geodesics of the round sphere model are planar unit circles.

    Requires k = 0 and a vector model on which the chosen metric is
    proportional to the ambient round metric; the Gram matrices of the
    module bases are compared numerically, so the check never trusts a
    weight convention. Reports the worst deviation of |x(t)| from 1 and
    the worst component of x(t) off the plane spanned by the initial
    position and velocity.
    """
    sys = motion.system
    model = sys.model
    if model is None or getattr(model, "kind", None) != "vector":
        raise DomainError("great-circle check needs a space with a vector model")
    if sys.k != 0.0:
        raise DomainError(f"great-circle check needs k = 0, got k = {sys.k}")
    basis = sys.m.basis
    pushed = [_realify(e @ model.base) for e in basis]
    gram_model = np.array([[u @ w for w in pushed] for u in pushed])
    gram_metric = np.array(
        [[metric_inner(sys, x, y) for y in basis] for x in basis]
    )
    scale = np.trace(gram_metric) / np.trace(gram_model)
    dev = np.max(np.abs(gram_metric - scale * gram_model))
    if dev > 1e-10 * max(1.0, abs(scale)):
        raise DomainError(
            "metric is not proportional to the round model metric "
            f"(deviation {dev:.3e}); adjust the module weights"
        )
    if t_samples is None:
        t_samples = np.linspace(0.0, 2.0 * np.pi, 97)
    x0 = model.apply(motion.representative(0.0))
    xdot0 = (motion.X + motion.Y) @ model.base
    frame = _plane_frame([_realify(x0), _realify(xdot0)])
    max_rad, max_plane = 0.0, 0.0
    for t in t_samples:
        x = model.apply(motion.representative(float(t)))
        max_rad = max(max_rad, abs(np.linalg.norm(x) - 1.0))
        r = _realify(x)
        for q in frame:
            r = r - (q @ r) * q
        max_plane = max(max_plane, float(np.linalg.norm(r)))
    return GreatCircleReport(max_rad, max_plane, float(scale))


@dataclass(frozen=True)
class MagneticCircleEntry:
    k: float
    kappa_mean: float
    kappa_variation: float


@dataclass(frozen=True)
class MagneticCircleReport:
    entries: tuple
    constant: bool
    increasing: bool

    def passed(self):
        return self.constant and self.increasing


def _stencil_kappa(pos, t, h):
    """Signed geodesic curvature on the model 2-sphere at time t.

    Fourth-order five-point stencils give the first two derivatives of
    the position; curvature is the normal-plane component of the
    acceleration per unit squared speed, measured along the surface
    conormal (outward normal cross tangent).
    """
    p = [pos(t + j * h) for j in (-2, -1, 0, 1, 2)]
    d1 = (-p[4] + 8 * p[3] - 8 * p[1] + p[0]) / (12.0 * h)
    d2 = (-p[4] + 16 * p[3] - 30 * p[2] + 16 * p[1] - p[0]) / (12.0 * h * h)
    speed = np.linalg.norm(d1)
    if speed == 0.0:
        raise DomainError("curvature is undefined on a constant trajectory")
    normal = p[2] / np.linalg.norm(p[2])
    conormal = np.cross(normal, d1 / speed)
    return float(d2 @ conormal) / speed**2


def magnetic_circle_check(sys, Xa, k_values=(0.5, 1.0, 2.0), t_samples=None, stencil_h=1e-3):
    """Charged trajectories on the adjoint 2-sphere are circles.

    Runs the same initial direction at each charge in k_values,
    computes geodesic curvature along each trajectory by finite
    differences, and reports whether curvature is constant along each
    curve (variation at most 1e-6) and strictly increasing in |k|.
    """
    model = sys.model
    if model is None or getattr(model, "kind", None) != "orbit":
        raise DomainError("magnetic-circle check needs a space with an orbit model")
    if sys.split.s != 1 or sys.b is not None:
        raise DomainError("magnetic-circle check needs a single-module split")
    if model.base.shape[0] != 2 or len(model.frame) != 3:
        raise DomainError("magnetic-circle check needs an adjoint orbit in 3-space")
    if metric_norm(sys, np.asarray(Xa, dtype=complex)) == 0.0:
        raise DomainError("Xa must be nonzero")
    if t_samples is None:
        t_samples = np.linspace(0.0, 2.0 * np.pi, 25)
    entries = []
    for kv in k_values:
        sys_k = dataclasses.replace(sys, k=float(kv))
        motion = build_motion(sys_k, Xa)

        def pos(t, m=motion):
            return model.apply(m.representative(float(t)))

        kappas = np.array([_stencil_kappa(pos, float(t), stencil_h) for t in t_samples])
        mean = float(np.mean(kappas))
        entries.append(
            MagneticCircleEntry(float(kv), mean, float(np.max(np.abs(kappas - mean))))
        )
    constant = all(e.kappa_variation <= 1e-6 for e in entries)
    by_charge = sorted(entries, key=lambda e: abs(e.k))
    increasing = all(
        abs(a.kappa_mean) < abs(b.kappa_mean)
        for a, b in zip(by_charge, by_charge[1:])
    )
    return MagneticCircleReport(tuple(entries), constant, increasing)


@dataclass(frozen=True)
class CollapseReport:
    max_frobenius: float

    def passed(self, tol=1e-12):
        return self.max_frobenius <= tol


def lambda_collapse_check(motion, t_samples=None):
    """At lam = 1 the curve is the one-parameter subgroup of Xa + Xb + kW."""
    sys = motion.system
    if sys.lam != 1.0:
        raise DomainError(f"collapse check needs lam = 1, got lam = {sys.lam}")
    if t_samples is None:
        t_samples = np.linspace(-2.0, 2.0, 41)
    gen = motion.Xa + motion.Xb + sys.k * sys.W
    worst = 0.0
    for t in t_samples:
        d = motion.representative(float(t)) - expm(float(t) * gen)
        worst = max(worst, float(np.linalg.norm(d)))
    return CollapseReport(worst)


@dataclass(frozen=True)
class ConvergencePoint:
    t: float
    probe: int
    residuals: tuple
    ratios: tuple


@dataclass(frozen=True)
class ConvergenceReport:
    h_values: tuple
    points: tuple


def convergence_ratios(motion, points, probes, h_values=(2e-4, 1e-4, 5e-5)):
    """Residual decay under step halving at chosen (t, probe) points.

    The central differences are second order, so halving h should
    shrink the residual by a factor near 4 wherever the leading error
    coefficient is not degenerate.
    """
    out = []
    for t, j in points:
        rs = tuple(
            abs(koszul_residual(motion, t, probes[j], ResidualConfig(fd_step=h)))
            for h in h_values
        )
        ratios = tuple(
            rs[i] / rs[i + 1] if rs[i + 1] != 0.0 else float("inf")
            for i in range(len(rs) - 1)
        )
        out.append(ConvergencePoint(float(t), j, rs, ratios))
    return ConvergenceReport(tuple(h_values), tuple(out))
