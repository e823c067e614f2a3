"""Closed-form charged-particle motion as a product of two exponentials.

Given initial data Xa in m_a and Xb in m_b, the curve

    alpha(t) = exp(tX) exp(tY),
    X = Xa + lam*Xb + k*W,
    Y = (1 - lam)*(Xb + (k/lam)*W),

projects to a trajectory alpha(t)*o in G/H whose covariant acceleration
equals k I0(velocity). The body velocity, the pullback of the velocity
to m, is Ad(exp(-tY))Xa + Xb; an independent product-rule derivative is
available for cross-checking. At lam = 1 the pair collapses to Y = 0,
set exactly to avoid float residue.

Both factors are `linalg.Flow`s, one eigendecomposition per generator,
and the curve is evaluated in their eigenbases: `representative` by
`Flow.times` and `transport` by `Flow.adjoint`, each a per-t phase on a
fixed middle matrix, then 2-D BLAS products along the grid
(`linalg._phased_products`). The product-rule velocity pulls X back by
the representative, as the referee's extension does. Every method
takes a scalar t or a 1-D grid of t; on a grid it returns the
(T, n, n) stack, and a scalar t is the one-point case, to the bit;
`transport` returns a pair. A motion keeps no per-t state.
`CurveGrid` holds the curve on one 1-D t-grid: `sample_trajectory`
returns one, and it is the one input of every sweep of the referee.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .field import _m_coordinates, metric_norm, metric_probe_basis
from .linalg import (
    DomainError,
    Flow,
    _as_matrix,
    _conjugate,
    _same_size,
    bnorm,
    check_skew_hermitian,
    span_residual,
)
from .split import USER_TOL, membership_scale


class ClosedFormMotion:
    """Two-exponential curve evaluated from the flows of X and Y.

    `exact` marks curves built from valid initial data, for which the
    body velocity is Ad(exp(-tY))Xa + Xb. Deliberately damaged curves
    (see perturb_motion) pass Y_override, carry exact=False and fall
    back to projecting the honest logarithmic derivative, since the
    shortcut formula no longer applies. `transport` holds that fork.
    """

    def __init__(self, system, Xa, Xb, Y_override=None):
        self.system = system
        self.Xa = np.asarray(Xa, dtype=complex)
        self.Xb = np.asarray(Xb, dtype=complex)
        lam, k, W = system.lam, system.k, system.W
        self.X = self.Xa + lam * self.Xb + k * W
        if Y_override is not None:
            self.Y = np.asarray(Y_override, dtype=complex)
        elif lam == 1.0:
            self.Y = np.zeros_like(self.X)
        else:
            self.Y = (1.0 - lam) * (self.Xb + (k / lam) * W)
        self.exact = Y_override is None
        self._flow_x = Flow(self.X)
        self._flow_y = Flow(self.Y)
        _same_size(self.X, self.Y, "ClosedFormMotion")

    @property
    def rate(self):
        """The largest |eigenvalue| of X and Y: the fastest phase the curve turns through."""
        return max(self._flow_x.rate, self._flow_y.rate)

    def y_phases(self, t):
        """The phases exp(i t w) of Y's flow over a 1-D grid, which `representative` and
        `transport` take over the same grid: exp(-i t w) is their conjugate, bit for bit."""
        return self._flow_y._phases(np.asarray(t, dtype=float))

    def representative(self, t, y_phases=None):
        ts = np.asarray(t, dtype=float)
        out = _as_matrix(self._flow_x.times(self._flow_y, ts.reshape(-1), y_phases), stack=True)
        return out if ts.ndim else out[0]

    def transport(self, t, y_phases=None):
        """Ad(exp(-tY))Xa and the body velocity, from one evaluation of the phases of -tY.

        An entry is non-finite only where exp(-tY), g, is: the error names g.
        """
        ts = np.asarray(t, dtype=float)
        X = self.Xa if self.exact else np.stack([self.Xa, self.X])
        e = None if y_phases is None else y_phases.conj()
        A = _as_matrix(self._flow_y.adjoint(-ts.reshape(-1), X, e), "g", stack=True)
        if self.exact:
            xa, v = A, A + self.Xb
        else:
            xa, v = A[:, 0], self.system.m.combine(self.system.m._coordinates(A[:, 1] + self.Y))
        return (xa, v) if ts.ndim else (xa[0], v[0])

    def body_velocity(self, t):
        return self.transport(t)[1]

    def body_velocity_numeric(self, t):
        """m-projection of alpha^-1 alpha' = alpha^H X alpha + Y, by the product rule.

        alpha' = X alpha + alpha Y, alpha the unitary `representative`: the
        `numeric` field of a CurveGrid over t. Never reads the shortcut of
        body_velocity, which rests on the bracket condition.
        """
        ts = np.asarray(t, dtype=float)
        v = CurveGrid(self, ts.reshape(-1)).numeric
        return v if ts.ndim else v[0]


class CurveGrid:
    """The curve of one motion on a 1-D t-grid and a probe stack, each field computed on first use.

    The body and the representative are one motion call each, on a concatenated grid, which
    runs its flows and checks once; a stack entry does not depend on the stack around it, so
    a value has the bits of a call at its own t. Only a weak-form grid, given fd_step h, also
    evaluates t +- h: the representative there, in the same call, and from it the pullback
    and the product-rule velocity.
    """

    def __init__(self, motion, t_samples, probes=None, fd_step=None):
        if fd_step is not None and not fd_step > 0:
            raise ValueError(f"fd_step must be positive, got {fd_step}")
        if fd_step == np.inf:
            raise ValueError("fd_step must be finite, got inf")
        self.motion, self.h, self.probes = motion, fd_step, probes
        self.t = np.asarray(t_samples, dtype=float)
        if self.t.ndim != 1:
            raise ValueError(f"t_samples must be a 1-D grid, got shape {self.t.shape}")

    @cached_property
    def _y_phases(self):
        """The phases of Y's flow over [0, *t], evaluated once for body and representative."""
        return self.motion.y_phases(np.concatenate([[0.0], self.t]))

    @cached_property
    def body(self):
        """Ad(exp(-tY))Xa and the body velocity, each over [0, *t], from one motion call."""
        return self.motion.transport(np.concatenate([[0.0], self.t]), self._y_phases)

    @cached_property
    def _alpha(self):
        """The representative over t, then t + h and t - h given a step h; one motion call."""
        t, phases = self.t, self._y_phases[1:]
        if self.h is not None:
            shifted = np.concatenate([t + self.h, t - self.h])
            t = np.concatenate([t, shifted])
            phases = np.concatenate([phases, self.motion.y_phases(shifted)])
        return self.motion.representative(t, phases)

    @cached_property
    def representative(self):
        return self._alpha[: len(self.t)]

    @cached_property
    def pullback(self):
        """M = alpha^H X alpha, X pulled back by the representative, over the rows of `_alpha`."""
        alpha = self._alpha
        return _conjugate(np.swapaxes(alpha.conj(), -1, -2), self.motion.X)

    @cached_property
    def numeric(self):
        """The product-rule body velocity proj_m(M + Y) over the rows of the pullback."""
        m = self.motion.system.m
        return m.combine(m._coordinates(self.pullback + self.motion.Y))

    @cached_property
    def speed(self):
        """The metric length of the body velocity over t."""
        return metric_norm(self.motion.system, self.body[1][1:])

    @cached_property
    def position(self):
        """The model's points of the representative over t, or None without a model."""
        model = self.motion.system.model
        return None if model is None else model.apply(self.representative)

    @cached_property
    def unit_probes(self):
        """The (P, n, n) probes (metric_probe_basis if none) at unit metric length, and m-coords."""
        sys, Z = self.motion.system, self.probes
        Z = np.asarray(metric_probe_basis(sys) if Z is None else Z, dtype=complex)
        if Z.ndim != 3:
            raise ValueError(f"probes must be a (P, n, n) stack, got shape {Z.shape}")
        c = _m_coordinates(sys, Z, "probe Z")
        zn = np.sqrt(np.maximum(np.sum(sys.m_weights * c * c, axis=-1), 0.0))
        if np.any(zn == 0.0):
            raise DomainError("probe Z must be nonzero")
        return Z / zn[:, None, None], c / zn[:, None]


def build_motion(system, Xa, Xb=None):
    """Validated constructor: Xa must lie in m_a and Xb in m_b.

    A component outside its module, of X / split.membership_scale(X) as for W,
    or a nonzero Xb where the system has no second module, may be at most
    split.USER_TOL = 1e-10 in B-norm.
    Xb may be omitted (zero). Both must be skew-Hermitian, checked first so
    that an error names a Hermitian part, which the span residual also sees.
    """
    Xa = check_skew_hermitian(Xa, name="Xa")
    Xb = check_skew_hermitian(np.zeros_like(Xa) if Xb is None else Xb, name="Xb")
    r = span_residual(system.ma, Xa / membership_scale(Xa))
    if r > USER_TOL:
        raise DomainError(f"Xa has a component of size {r:.3e} outside m{system.a}")
    if system.b is None:
        if bnorm(Xb) > USER_TOL:
            raise DomainError("this system has no second module; Xb must be zero")
        Xb = np.zeros_like(Xa)
    else:
        r = span_residual(system.mb, Xb / membership_scale(Xb))
        if r > USER_TOL:
            raise DomainError(f"Xb has a component of size {r:.3e} outside m{system.b}")
    return ClosedFormMotion(system, Xa, Xb)


def sample_trajectory(motion, t0, t1, count):
    """The CurveGrid of count uniform inclusive samples over [t0, t1], its fields evaluated."""
    if not (t0 < t1 and np.isfinite(float(t1) - float(t0))):
        raise ValueError(f"need finite t0 < t1 with t1 - t0 in float range, got [{t0}, {t1}]")
    if count < 2:
        raise ValueError(f"need at least 2 samples, got {count}")
    grid = CurveGrid(motion, np.linspace(t0, t1, int(count)))
    # the body first, as a far-t overflow then names the flow of -tY, "g"
    _ = grid.speed, grid.representative, grid.position
    return grid


def perturb_motion(motion, eps=1e-2, seed=0):
    """Deliberately damaged copy for oracle sensitivity tests.

    Adds eps times a seeded unit direction to the second generator Y.
    The direction is drawn from m_b, the module that actually steers
    the transport factor; perturbing along m_a merely produces the
    exact curve of different initial data and breaks nothing. When m_b
    is absent the direction comes from m_a.
    """
    sys = motion.system
    target = sys.mb if (sys.mb is not None and sys.mb.dim > 0) else sys.ma
    rng = np.random.default_rng(seed)
    N = target.combine(rng.standard_normal(target.dim))
    N = N / metric_norm(sys, N)
    return ClosedFormMotion(
        motion.system, motion.Xa, motion.Xb, Y_override=motion.Y + eps * N
    )
