"""Diagonal metrics on reductive splits and the magnetic field operator.

The metric rescales the bi-invariant form B module by module with
positive weights. A central element W of h together with a module pair
(a, b) and a charge k defines the skew field operator

    I0 = ad(W) on m_a  +  (1/lam) ad(W) on m_b,    lam = w_b / w_a,

whose domain is m_a + m_b. The electromagnetic two-form is
omega(X, Y) = <X, I0 Y>. In the B-orthonormal basis of m the metric is
a weighted dot product of coordinates, and I0 is the fixed
(dim m)^2 matrix `ChargedSystem.I0`, built once per system.

Each function takes one matrix or a (..., n, n) stack, broadcast over
the leading axes, and checks every matrix of a stack as it would check
one matrix: the one-matrix call is the one-point case of the stack.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .linalg import (
    DomainError,
    StructureError,
    _real_rows,
    _scalar,
    brackets,
    check_skew_hermitian,
)
from .split import bracket_pair_residual, center_residuals

MEMBERSHIP_TOL = 1e-10


class DiagonalMetric:
    """Positive weights, one per module of a split."""

    __slots__ = ("weights",)

    def __init__(self, weights):
        ws = tuple(float(w) for w in weights)
        if not ws or any(w <= 0 or not np.isfinite(w) for w in ws):
            raise ValueError(f"weights must be positive and finite, got {weights}")
        self.weights = ws


class WeightRatioError(ValueError):
    """The weight ratio lam = w_b / w_a is 0 or not finite."""


class ChargedSystem:
    """A split, metric, field pair (a, b), central element W and charge k.

    `b` may be None when the second module is empty; lam is then 1 and
    the I0 domain shrinks to m_a. Module indices are 1-based.
    """

    def __init__(self, split, metric, a, b, W, k, model=None):
        self.split, self.metric, self.a, self.b, self.W = split, metric, a, b, W
        self.k = float(k)
        if not np.isfinite(self.k):
            raise ValueError("charge k must be finite")
        self.model = model

    @property
    def lam(self):
        if self.b is None:
            return 1.0
        return self.metric.weights[self.b - 1] / self.metric.weights[self.a - 1]

    @property
    def ma(self):
        return self.split.module(self.a)

    @property
    def mb(self):
        if self.b is None:
            return None
        return self.split.module(self.b)

    @property
    def m(self):
        return self.split.m

    @cached_property
    def _m_weights(self):
        """The module weights repeated per basis element of m."""
        return np.repeat(self.metric.weights, self.split.dims)

    @cached_property
    def _domain_scale(self):
        """Per basis element of m: 1 on m_a, 1/lam on m_b and 0 off the I0 domain."""
        scale = {self.a: 1.0, self.b: 1.0 / self.lam}
        return np.repeat([scale.get(i, 0.0) for i in range(1, self.split.s + 1)], self.split.dims)

    @cached_property
    def I0(self):
        """I0 on m-coordinates: column j holds [W, e_j]'s coordinates times e_j's domain scale."""
        return self.m.coordinates(brackets(self.W, self.m)).T * self._domain_scale


def charged_system(split, weights, a, b, W, k, model=None, tol=MEMBERSHIP_TOL):
    """Validated constructor for ChargedSystem.

    Checks the weight count, the pair indices, the bracket condition
    [m_a, m_b] in m_a, and that W is skew-Hermitian and lies in the
    center of h, to within tol max(1, max|W|); a trivial h forces W = 0.
    Last, I0 divides by lam = w_b / w_a, which must be positive and finite.
    """
    metric = DiagonalMetric(tuple(weights))
    if len(metric.weights) != split.s:
        raise ValueError(
            f"need {split.s} weights for {split.s} modules, got {len(metric.weights)}"
        )
    if not 1 <= a <= split.s:
        raise ValueError(f"module index a={a} out of range 1..{split.s}")
    if b is not None:
        if not 1 <= b <= split.s:
            raise ValueError(f"module index b={b} out of range 1..{split.s}")
        if b == a:
            raise ValueError("pair indices a and b must differ")
    r = bracket_pair_residual(split, a, b)
    if r > tol:
        raise StructureError(
            f"bracket condition [m{a}, m{b}] in m{a} fails (residual {r:.3e})"
        )
    W = check_skew_hermitian(W, name="W")
    # roundoff grows with |W|, and W / s keeps the squares of the residuals in range
    s = max(1.0, float(np.abs(W).max(initial=0.0)))
    rs, rc = (s * r for r in center_residuals(split.h, W / s))
    tol = tol * s
    if split.h.dim == 0:
        if rs > tol:
            raise StructureError("h is trivial, so W must be zero")
        W = np.zeros((split.n, split.n), dtype=complex)
    elif rs > tol:
        raise StructureError(f"W is not in h (residual {rs:.3e})")
    elif rc > tol:
        raise StructureError(f"W is not central in h (residual {rc:.3e})")
    system = ChargedSystem(split, metric, a, int(b) if b is not None else None, W, k, model)
    if not 0.0 < system.lam < np.inf:
        raise WeightRatioError(f"weight ratio {system.lam:.3e} is out of floating-point range")
    return system


def _m_coordinates(sys, X, name, domain=False):
    """Coordinates of X in the basis of m, after checking that X lies in m.

    With domain=True the check is against the I0 domain instead. On a
    stack, the worst matrix is the one reported.
    """
    m = sys.m
    A = np.asarray(X, dtype=complex)
    c = m.coordinates(A)
    kept = c * (sys._domain_scale != 0.0) if domain else c
    R = _real_rows(A) - np.einsum("...i,ij->...j", kept, m.frame)
    r = np.sqrt(np.einsum("...j,...j->...", R, R)).max(initial=0.0)
    if r > MEMBERSHIP_TOL:
        modules = " + ".join(f"m{i}" for i in (sys.a, sys.b) if i)
        where = f"the I0 domain {modules}" if domain else "m"
        raise DomainError(f"{name} has a component of size {r:.3e} outside {where}")
    return c


def metric_inner(sys, X, Y):
    """Weighted inner product sum_i w_i B(proj_i X, proj_i Y) on m.

    Arguments must lie in m. Module bases are B-orthonormal, so this is
    the weighted dot product of the coordinates of X and Y in m.
    """
    cx = _m_coordinates(sys, X, "X")
    cy = cx if Y is X else _m_coordinates(sys, Y, "Y")
    return _scalar(np.sum(sys._m_weights * cx * cy, axis=-1))


def metric_norm(sys, X):
    return _scalar(np.sqrt(np.maximum(metric_inner(sys, X, X), 0.0)))


def apply_I0(sys, X):
    """Field operator on its domain m_a + m_b (m_a alone when b is None)."""
    c = _m_coordinates(sys, X, "X", domain=True)
    return sys.m.combine(np.einsum("ij,...j->...i", sys.I0, c))


def em_two_form(sys, X, Y):
    """omega(X, Y) = <X, I0 Y>, skew in (X, Y)."""
    return metric_inner(sys, X, apply_I0(sys, Y))
