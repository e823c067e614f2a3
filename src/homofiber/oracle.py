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

Every sweep takes one `motion.CurveGrid`, its only input, and reads
the motion, the t-grid, the probes and the weak form's step h from it.
It evaluates its whole t-grid, and the weak form its whole
(t, probe) grid, as one array program over stacks; a single point is
the one-point case of the same grid. The weak form runs on real
m-coordinates: the probes and the body velocity are checked for
membership once each, and every term is an einsum contraction of
(T, dim m) and (P, dim m) coordinate arrays. One verify op evaluates the
curve once, on the union grid of the one CurveGrid its sweeps share.
"""

from __future__ import annotations

import numpy as np

from .field import _m_coordinates, metric_inner, metric_norm
from .linalg import (
    DomainError,
    Flow,
    _commutator,
    _conjugate,
    bnorm,
    check_skew_hermitian,
    mul,
    span_residuals,
)
from .motion import CurveGrid
from .split import membership_scale


class ResidualEntry:
    __slots__ = ("t", "probe", "t1", "t2", "t3", "rhs", "residual")

    def __init__(self, t, probe, t1, t2, t3, rhs, residual):
        self.t, self.probe, self.t1, self.t2, self.t3 = t, probe, t1, t2, t3
        self.rhs, self.residual = rhs, residual


class ResidualReport:
    """The weak form over a t-grid times a probe set.

    `values[i, j]` holds t1, t2, t3, rhs and the residual at t[i] and
    probe j. `argmax` is the (t, probe) of the first largest |residual|
    in row-major order, or (None, None) when every residual is 0.
    """

    __slots__ = ("t", "values", "max_abs", "argmax")

    def __init__(self, t, values, max_abs, argmax):
        self.t, self.values, self.max_abs, self.argmax = t, values, max_abs, argmax

    @property
    def entries(self):
        """One ResidualEntry per (t, probe), in row-major order."""
        return tuple(
            ResidualEntry(t, j, *row)
            for t, per_t in zip(self.t.tolist(), self.values.tolist())
            for j, row in enumerate(per_t)
        )


def _koszul_grid(grid):
    """The (T, P) arrays t1, t2, t3 and rhs over the grid's t and probes.

    Rows run over t and columns over the probes, and every term is a
    contraction of m-coordinates. The body velocity is checked once,
    against the I0 domain. t1 differentiates only body_velocity_numeric,
    never the shortcut, at t + h and t - h; those velocities, the
    extension w and [Z, Y]_m are projections onto m, taken to
    coordinates unchecked. The steps exp(+-hZ) are one stacked flow.
    """
    motion, T, h = grid.motion, len(grid.t), grid.h
    sys = motion.system
    Z, zc = grid.unit_probes
    zw = zc * sys.m_weights
    zyw = sys.m._coordinates(_commutator(Z, motion.Y)) * sys.m_weights
    steps = Flow(h * Z)(np.array([1.0, -1.0]))
    v = _m_coordinates(sys, grid.body[1][1:], "X", domain=True)
    v_num = sys.m._coordinates(grid.numeric[T:])
    p = mul(grid.representative[:, None], steps[:, None])
    w = sys.m._coordinates(_conjugate(np.swapaxes(p.conj(), -1, -2), motion.X) + motion.Y)
    energy = np.einsum("...j,j,...j->...", w, sys.m_weights, w)
    dv = np.einsum("tj,pj->tp", v_num, zw)
    t1 = (dv[:T] - dv[T:]) / (2.0 * h)
    t2 = np.einsum("tj,pj->tp", v, zyw)
    t3 = -0.5 * (energy[0] - energy[1]) / (2.0 * h)
    rhs = sys.k * np.einsum("tj,pj->tp", np.einsum("ij,tj->ti", sys.I0, v), zw)
    return t1, t2, t3, rhs


def residual_sweep(grid):
    """Residuals over the grid's t-grid times its probes, reduced by max; its fd_step is h."""
    if grid.h is None:
        raise ValueError("the weak form needs a grid with an fd_step")
    t1, t2, t3, rhs = _koszul_grid(grid)
    values = np.stack([t1, t2, t3, rhs, (t1 + t2 + t3) - rhs], axis=-1)
    # a leading 0 is the first maximum exactly when no |residual| exceeds 0
    r = np.concatenate([[0.0], np.abs(values[..., 4]).ravel()])
    k = int(np.argmax(r))
    i, j = divmod(k - 1, values.shape[1])
    t = grid.t
    return ResidualReport(t, values, float(r[k]), (float(t[i]), j) if k else (None, None))


def algebraic_identity_check(grid):
    """Roundoff-level check of the reduced bracket identity.

    With U = Ad(exp(-tY))Xa transported into m_a, V = Xb, the three
    reduced terms

        (wa - wb)   B(Z, [U, V + (k/lam) W])
      + (wb - wa)   B(Z, [U, V])
      - (k/lam) wa  B(Z, [U, W]) - (k/lam) wb B(Z, [V, W])

    collapse to -k wa B(Z, [U + V, W]). This is exact bracket algebra,
    no differentiation, so agreement is expected at 1e-11 or better.
    Each B(Z, .) is a contraction of m-coordinates with those of Z.

    Returns the (T, P) array of gaps, rows over the grid's t and
    columns over its probes Z.
    """
    motion, sys = grid.motion, grid.motion.system
    wa = sys.weights[sys.a - 1]
    wb = sys.weights[sys.b - 1] if sys.b is not None else wa
    lam, k, W = sys.lam, sys.k, sys.W
    zc = grid.unit_probes[1]
    U, V = grid.body[0][1:], motion.Xb
    pairs = ((U, V + (k / lam) * W), (U, V), (U, W), (V, W), (U + V, W))
    c = sys.m._coordinates(np.stack(np.broadcast_arrays(*(_commutator(x, y) for x, y in pairs))))
    b = np.einsum("ktj,pj->ktp", c, zc)
    term3 = -(k / lam) * wa * b[2] - (k / lam) * wb * b[3]
    return np.abs((wa - wb) * b[0] + (wb - wa) * b[1] + term3 - (-k * wa * b[4]))


def conservation_sweep(grid):
    """Max |speed(t) - speed(0)| over the grid, speeds over [0, *t]."""
    s = metric_norm(grid.motion.system, grid.body[1])
    return float(np.abs(s[1:] - s[0]).max(initial=0.0))


def module_invariance_sweep(grid):
    """Max component of U = Ad(exp(-tY))Xa outside m_a over the grid, of U / split.membership_scale(U).

    Roundoff grows with |U|, so each matrix is judged relative to its size, as W and Xa are.
    """
    U = grid.body[0][1:]
    return float((span_residuals(grid.motion.system.ma, U) / membership_scale(U)).max(initial=0.0))


def velocity_agreement_sweep(grid):
    """Max B-distance between the two body-velocity computations v over the grid, over membership_scale(v)."""
    v = grid.body[0][1:] + grid.motion.Xb
    return float(np.max(bnorm(grid.numeric[: len(grid.t)] - v) / membership_scale(v), initial=0.0))


def _realify(z):
    """Real and imaginary parts side by side along the last axis."""
    z = np.asarray(z)
    return np.concatenate([z.real, z.imag], axis=-1)


def great_circle_check(motion):
    """Geodesics of the round sphere model are planar unit circles, over 97 points of [0, 2 pi].

    Requires k = 0 and a vector model on which the chosen metric is
    proportional to the ambient round metric; the Gram matrices of the
    module bases are compared numerically, so the check never trusts a
    weight convention. Returns the worst deviation of |x(t)| from 1, the
    worst component of x(t) off the plane spanned by the initial
    position and velocity, and the metric's scale over the model's.
    """
    sys = motion.system
    model = sys.model
    if model is None or getattr(model, "kind", None) != "vector":
        raise DomainError("great-circle check needs a space with a vector model")
    if sys.k != 0.0:
        raise DomainError(f"great-circle check needs k = 0, got k = {sys.k}")
    basis = sys.m.basis
    pushed = _realify(model.apply(basis))
    gram_model = np.sum(pushed[:, None] * pushed[None], axis=-1)
    gram_metric = metric_inner(sys, basis[:, None], basis[None])
    scale = np.trace(gram_metric) / np.trace(gram_model)
    dev = np.max(np.abs(gram_metric - scale * gram_model))
    if dev > 1e-10 * max(1.0, abs(scale)):
        raise DomainError(
            "metric is not proportional to the round model metric "
            f"(deviation {dev:.3e}); adjust the module weights"
        )
    x = CurveGrid(motion, np.linspace(0.0, 2.0 * np.pi, 97)).position
    xdot0 = model.apply(motion.X + motion.Y)
    # x[0] is the point at t = 0, where both flows are the identity exactly
    q, R = np.linalg.qr(_realify(np.stack([x[0], xdot0])).T)
    q = q[:, np.abs(np.diag(R)) > 1e-12]  # a zero velocity spans no second direction
    r = _realify(x)
    r = r - (r @ q) @ q.T
    max_rad = np.max(np.abs(np.linalg.norm(x, axis=-1) - 1.0), initial=0.0)
    max_plane = np.max(np.linalg.norm(r, axis=-1), initial=0.0)
    return float(max_rad), float(max_plane), float(scale)


def _stencil_kappa(pos, ts, h):
    """Signed geodesic curvature on the model 2-sphere at each time of ts.

    Fourth-order five-point stencils give the first two derivatives of
    the position; curvature is the normal-plane component of the
    acceleration per unit squared speed, measured along the surface
    conormal (outward normal cross tangent). pos maps a (T, 5) array of
    times to the (..., T, 5, 3) positions, over any leading axes.
    """
    p = np.moveaxis(pos(ts[:, None] + np.arange(-2, 3) * h), -2, 0)
    d1 = (-p[4] + 8 * p[3] - 8 * p[1] + p[0]) / (12.0 * h)
    d2 = (-p[4] + 16 * p[3] - 30 * p[2] + 16 * p[1] - p[0]) / (12.0 * h * h)
    speed = np.linalg.norm(d1, axis=-1)
    if np.any(speed == 0.0):
        raise DomainError("curvature is undefined on a constant trajectory")
    normal = p[2] / np.linalg.norm(p[2], axis=-1, keepdims=True)
    conormal = np.cross(normal, d1 / speed[..., None])
    return np.sum(d2 * conormal, axis=-1) / speed**2


def magnetic_circle_check(sys, Xa, k_values=(0.5, 1.0, 2.0)):
    """Charged trajectories on the adjoint 2-sphere are circles.

    Runs the same initial direction at each charge in k_values and
    computes geodesic curvature along each trajectory by finite
    differences at 25 points of [0, 2 pi]. Returns (rows, constant,
    increasing): the (charges, 3) array of rows (k, kappa mean, kappa
    variation), whether curvature
    is constant along each curve (variation at most 1e-6 max(1, |kappa
    mean|), as roundoff grows with the curvature), and whether |kappa
    mean| is strictly increasing in |k|.

    The stencil step is 1e-3 / max(1, rho), rho the largest |eigenvalue|
    over the charges' generators: exp(tA) turns at rates up to rho, so a
    step spans the same phase at any |k| max|W| and the truncation error
    of the stencils does not grow with it.

    A single-module system has b = None, so lam = 1 and Y = 0: the
    curve at charge k is exp(t(Xa + k W)) exp(t0), which `Flow.times`
    evaluates over the whole (t, stencil) grid, one charge at a time, as
    the motion of that charge does, to the bit.
    """
    model = sys.model
    if model is None or getattr(model, "kind", None) != "orbit":
        raise DomainError("magnetic-circle check needs a space with an orbit model")
    if sys.split.s != 1 or sys.b is not None:
        raise DomainError("magnetic-circle check needs a single-module split")
    if model.base.shape[0] != 2 or model.frame.dim != 3:
        raise DomainError("magnetic-circle check needs an adjoint orbit in 3-space")
    if metric_norm(sys, np.asarray(Xa, dtype=complex)) == 0.0:
        raise DomainError("Xa must be nonzero")
    Xa = check_skew_hermitian(Xa, name="Xa")
    ks = np.array(k_values, dtype=float)
    # the motion's X = Xa + lam Xb + k W with lam = 1 and Xb = 0, zeros signed alike, and Y = 0
    flows = [Flow((Xa + 0.0) + k * sys.W) for k in ks]
    still = Flow(np.zeros_like(Xa))

    def pos(ts):
        g = np.array([flow.times(still, ts.ravel()) for flow in flows])  # (0,) without charges
        return model.apply(g.reshape((len(ks), ts.size) + Xa.shape)).reshape(
            (len(ks),) + ts.shape + (3,)
        )

    h = 1e-3 / max([1.0, *(flow.rate for flow in flows)])
    kappas = _stencil_kappa(pos, np.linspace(0.0, 2.0 * np.pi, 25), h)
    mean = np.mean(kappas, axis=-1)
    rows = np.column_stack([ks, mean, np.max(np.abs(kappas - mean[:, None]), axis=-1)])
    constant = np.all(rows[:, 2] <= 1e-6 * np.maximum(1.0, np.abs(mean)))
    by_charge = np.abs(mean[np.argsort(np.abs(ks), kind="stable")])
    return rows, bool(constant), bool(np.all(by_charge[:-1] < by_charge[1:]))


def lambda_collapse_check(grid):
    """At lam = 1 the curve is the one-parameter subgroup of Xa + Xb + kW.

    Returns the largest Frobenius distance over the grid.
    """
    motion, sys = grid.motion, grid.motion.system
    if sys.lam != 1.0:
        raise DomainError(f"collapse check needs lam = 1, got lam = {sys.lam}")
    gen = motion.Xa + motion.Xb + sys.k * sys.W
    reference = Flow(grid.t[:, None, None] * gen)(1.0)
    d = grid.representative - reference
    return float(np.max(np.linalg.norm(d, axis=(-2, -1)), initial=0.0))


def convergence_ratios(motion, points, probes):
    """The (points, 3) array of |residual| at each (t, probe) point, one CurveGrid per step.

    The steps are h = 2e-4, 1e-4 and 5e-5, one column each. The central
    differences are second order, so halving h should
    shrink the residual, r[:, i] / r[:, i + 1], by a factor near 4
    wherever the leading error coefficient is not degenerate.
    """
    ts, js = [t for t, _ in points], [j for _, j in points]
    r = [residual_sweep(CurveGrid(motion, ts, probes, h)).values[range(len(ts)), js, 4]
         for h in (2e-4, 1e-4, 5e-5)]
    return np.abs(np.array(r).T)
