"""Charged systems on reductive splits and the magnetic field operator.

A charged system puts a diagonal metric on a split, rescaling the
bi-invariant form B module by module with positive weights. A central
element W of h together with a module pair (a, b) and a charge k
defines the skew field operator

    I0 = ad(W) on m_a  +  (1/lam) ad(W) on m_b,    lam = w_b / w_a,

whose domain is m_a + m_b. The electromagnetic two-form is
omega(X, Y) = <X, I0 Y>, metric_inner(sys, X, apply_I0(sys, Y)). In the
B-orthonormal basis of m the metric is a weighted dot product of
coordinates, and I0 is the fixed (dim m)^2 matrix `ChargedSystem.I0`,
built once per system.
`ChargedSystem` is the one constructor and runs every check;
`metric_weights`, `weight_ratio`, `module_pair` and `nonempty_module`
hold the weight and pair rules it shares with the space-document loader,
and `split.center_residuals` the centrality rule of W.

The metric and field functions take one matrix or a (..., n, n)
stack, broadcast over the leading axes, and check every matrix of a
stack as they would check one matrix: the one-matrix call is the
one-point case of the stack.
"""

from __future__ import annotations

import reprlib

import numpy as np

from .linalg import (
    DomainError,
    StructureError,
    _real_rows,
    _scalar,
    brackets,
    check_skew_hermitian,
)
from .split import USER_TOL, bracket_pair_residual, center_residuals, membership_scale


class WeightRatioError(ValueError):
    """The weight ratio lam = w_b / w_a or its reciprocal is 0 or not finite."""


class BracketConditionError(StructureError):
    """The module pair (a, b) fails the bracket condition [m_a, m_b] in m_a."""


def metric_weights(weights, s):
    """The weights as a tuple of s positive finite floats, one per module; no bool or str."""
    try:
        weights = tuple(weights)
    except TypeError:
        raise ValueError(f"weights must be a list of {s} numbers, got {reprlib.repr(weights)}")
    if any(isinstance(w, (bool, str)) for w in weights):
        raise ValueError(f"weights must be numbers, got {reprlib.repr(weights)}")
    if not weights or not all(0.0 < float(w) < np.inf for w in weights):
        raise ValueError(f"weights must be positive and finite, got {weights}")
    if len(weights) != s:
        raise ValueError(f"need {s} weights for {s} modules, got {len(weights)}")
    return tuple(map(float, weights))


def weight_ratio(weights, a, b):
    """lam = w_b / w_a for a checked pair, 1 when b is None; lam > 0, lam and 1/lam finite."""
    lam = 1.0 if b is None else weights[b - 1] / weights[a - 1]
    if not (0.0 < lam < np.inf and 1.0 / lam < np.inf):
        raise WeightRatioError(f"weight ratio {lam:.3e} is out of floating-point range")
    return lam


def module_pair(s, pair):
    """The pair (a, b) as ints: a in 1..s, b None or in 1..s and not a; no bool or float."""
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise ValueError(f"pair must be a list [a, b] or [a, null], got {reprlib.repr(pair)}")
    a, b = pair
    for name, i in zip("ab", (a,) if b is None else (a, b)):
        if isinstance(i, bool) or not isinstance(i, (int, np.integer)):
            raise ValueError(f"module index {name}={reprlib.repr(i)} is not an integer")
        if not 1 <= i <= s:
            raise ValueError(f"module index {name}={reprlib.repr(int(i))} out of range 1..{s}")
    if a == b:
        raise ValueError("pair indices a and b must differ")
    return int(a), None if b is None else int(b)


def nonempty_module(split, a):
    """m_a of the split; ValueError when it is empty, since a curve starts in m_a."""
    ma = split.module(a)
    if ma.dim == 0:
        raise ValueError(f"m_a = m{a} is empty, so no curve starts in it; pick a nonempty module as a")
    return ma


class ChargedSystem:
    """A split, metric weights, field pair (a, b), central element W and charge k.

    `b` may be None when the second module is empty; lam is then 1 and
    the I0 domain shrinks to m_a. Module indices are 1-based.

    The constructor checks, in this order: the weights, the pair, that
    m_a is not empty (ValueError, as for the pair), the bracket
    condition [m_a, m_b] in m_a to within split.USER_TOL = 1e-10,
    that W is skew-Hermitian and that W / max(1, max|W|) lies in the
    center of h to within USER_TOL (`split.center_residuals`; a trivial
    h forces W = 0), that k is finite, and last that lam and 1/lam are
    positive and finite, since I0 divides by lam. `m_weights` repeats
    the weights per basis element of m, and `domain_scale` is 1 on m_a,
    1/lam on m_b and 0 off the I0 domain. `I0` acts on m-coordinates:
    column j holds [W, e_j]'s coordinates times e_j's domain scale.
    """

    def __init__(self, split, weights, a, b, W, k, model=None):
        self.weights = metric_weights(weights, split.s)
        a, b = module_pair(split.s, (a, b))
        ma = nonempty_module(split, a)
        r = bracket_pair_residual(split, a, b)
        if r > USER_TOL:
            raise BracketConditionError(f"bracket condition [m{a}, m{b}] in m{a} fails (residual {r:.3e})")
        W = check_skew_hermitian(W, name="W")
        rs, rc = center_residuals(split.h, W)
        if split.h.dim == 0:
            if rs > USER_TOL:
                raise StructureError("h is trivial, so W must be zero")
            W = np.zeros((split.n, split.n), dtype=complex)
        elif rs > USER_TOL:
            raise StructureError(f"W is not in h (residual {rs:.3e})")
        elif rc > USER_TOL:
            raise StructureError(f"W is not central in h (residual {rc:.3e})")
        self.k = float(k)
        if not np.isfinite(self.k):
            raise ValueError("charge k must be finite")
        self.lam = weight_ratio(self.weights, a, b)
        self.split, self.a, self.b, self.W, self.model = split, a, b, W, model
        self.m, self.ma = split.m, ma
        self.mb = None if b is None else split.module(b)
        self.m_weights = np.repeat(self.weights, split.dims)
        scale = {a: 1.0, b: 1.0 / self.lam}
        self.domain_scale = np.repeat([scale.get(i, 0.0) for i in range(1, split.s + 1)], split.dims)
        self.I0 = self.m.coordinates(brackets(W, self.m)).T * self.domain_scale


def _m_coordinates(sys, X, name, domain=False):
    """Coordinates of X in the basis of m, after checking that X lies in m.

    Each matrix is judged on X / split.membership_scale(X), as W is. With
    domain=True the check is against the I0 domain instead. On a stack,
    the worst matrix is the one reported.
    """
    m = sys.m
    A = np.asarray(X, dtype=complex)
    c = m.coordinates(A)
    kept = c * (sys.domain_scale != 0.0) if domain else c
    R = _real_rows(A) - np.einsum("...i,ij->...j", kept, m.frame)
    r = (np.sqrt(np.einsum("...j,...j->...", R, R)) / membership_scale(A)).max(initial=0.0)
    if r > USER_TOL:
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
    return _scalar(np.sum(sys.m_weights * cx * cy, axis=-1))


def metric_probe_basis(sys):
    """Metric-orthonormal basis of m, the (dim m, n, n) stack of module bases over sqrt(weight)."""
    return sys.m.basis / np.sqrt(sys.m_weights)[:, None, None]


def metric_norm(sys, X):
    return _scalar(np.sqrt(np.maximum(metric_inner(sys, X, X), 0.0)))


def apply_I0(sys, X):
    """Field operator on its domain m_a + m_b (m_a alone when b is None)."""
    c = _m_coordinates(sys, X, "X", domain=True)
    return sys.m.combine(np.einsum("ij,...j->...i", sys.I0, c))
