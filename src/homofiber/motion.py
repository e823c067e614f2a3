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

Both factors are `linalg.Flow`s, one eigendecomposition per generator.
Every method takes a scalar t or a 1-D grid of t; on a grid it returns
the (T, n, n) stack, one array program for the whole grid, and a
scalar t is the one-point case; `transport` returns a pair. A motion
keeps no per-t state, so callers that reuse a value at the same t hold
on to it themselves: the referee's `oracle.CurveGrid` does.
"""

from __future__ import annotations

import numpy as np

from .field import MEMBERSHIP_TOL, metric_norm
from .linalg import (
    DomainError,
    Flow,
    _as_matrix,
    _conjugate,
    _same_size,
    bnorm,
    check_skew_hermitian,
    mul,
    span_residual,
)


class TrajectorySample:
    """A curve at one t, or over a t-grid with each field stacked along its first axis."""

    __slots__ = ("t", "representative", "body_velocity", "speed", "position")

    def __init__(self, t, representative, body_velocity, speed, position=None):
        self.t, self.representative, self.body_velocity = t, representative, body_velocity
        self.speed, self.position = speed, position


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

    def representative(self, t):
        return _as_matrix(mul(self._flow_x(t), self._flow_y(t)), stack=True)

    def transport(self, t):
        """Ad(exp(-tY))Xa and the body velocity, from one evaluation of exp(-tY)."""
        G = _as_matrix(self._flow_y(np.negative(t)), "g", stack=True)
        if self.exact:
            xa = _conjugate(G, self.Xa)
            return xa, xa + self.Xb
        xa, x = np.moveaxis(_conjugate(G[..., None, :, :], np.stack([self.Xa, self.X])), -3, 0)
        return xa, self.system.m.combine(self.system.m._coordinates(x + self.Y))

    def body_velocity(self, t):
        return self.transport(t)[1]

    def body_velocity_numeric(self, t):
        """m-projection of alpha^-1 alpha', differentiated by product rule.

        Independent of the shortcut in body_velocity: the derivative
        alpha' = X alpha + exp(tX) Y exp(tY) is formed from matrix
        products and pulled back by solving alpha xi = alpha'.
        """
        fx, fy = self._flow_x(t), self._flow_y(t)
        alpha = mul(fx, fy)
        alpha_dot = mul(self.X, alpha) + mul(mul(fx, self.Y), fy)
        xi = _as_matrix(np.linalg.solve(alpha, alpha_dot), stack=True)
        return self.system.m.combine(self.system.m._coordinates(xi))

    def evaluate(self, t):
        """The TrajectorySample at t; over a 1-D grid of t, one sample of stacks."""
        ts = np.asarray(t, dtype=float)
        grid = ts.reshape(-1)
        v = self.body_velocity(grid)
        g = self.representative(grid)
        model = self.system.model
        pos = None if model is None else model.apply(g)
        fields = (grid, g, v, metric_norm(self.system, v), pos)
        if ts.ndim == 0:
            fields = [None if f is None else f[0] for f in fields]
        return TrajectorySample(*fields)


def build_motion(system, Xa, Xb=None):
    """Validated constructor: Xa must lie in m_a and Xb in m_b.

    A component outside its module, or a nonzero Xb where the system has
    no second module, may be at most MEMBERSHIP_TOL = 1e-10 in B-norm.
    Xb may be omitted (zero). Both must be skew-Hermitian, checked first so
    that an error names a Hermitian part, which the span residual also sees.
    """
    Xa = check_skew_hermitian(Xa, name="Xa")
    Xb = check_skew_hermitian(np.zeros_like(Xa) if Xb is None else Xb, name="Xb")
    r = span_residual(system.ma, Xa)
    if r > MEMBERSHIP_TOL:
        raise DomainError(f"Xa has a component of size {r:.3e} outside m{system.a}")
    if system.b is None:
        if bnorm(Xb) > MEMBERSHIP_TOL:
            raise DomainError("this system has no second module; Xb must be zero")
        Xb = np.zeros_like(Xa)
    else:
        r = span_residual(system.mb, Xb)
        if r > MEMBERSHIP_TOL:
            raise DomainError(f"Xb has a component of size {r:.3e} outside m{system.b}")
    return ClosedFormMotion(system, Xa, Xb)


def sample_trajectory(motion, t0, t1, count):
    """Uniform inclusive samples over [t0, t1], as one TrajectorySample of stacks."""
    if not (np.isfinite(t0) and np.isfinite(t1) and t0 < t1):
        raise ValueError(f"need finite t0 < t1, got [{t0}, {t1}]")
    if count < 2:
        raise ValueError(f"need at least 2 samples, got {count}")
    return motion.evaluate(np.linspace(t0, t1, int(count)))


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
