"""Dense complex matrix algebra for compact matrix Lie groups.

Everything in this package lives inside u(n): algebra elements are
skew-Hermitian n x n complex matrices, group elements are unitary
matrices. This module provides the bracket, the trace inner product,
matrix exponentials, Gram-Schmidt orthonormalization and subspace
projection that the rest of the package is built on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg


class DimensionError(ValueError):
    """Operands have incompatible matrix shapes."""


class DomainError(ValueError):
    """A value lies outside the subspace an operation is defined on."""


class StructureError(ValueError):
    """Input data violates a structural hypothesis (closure, nesting, ...)."""


def _as_matrix(X, name="X"):
    A = np.asarray(X, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionError(f"{name} must be a square matrix, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise DomainError(f"{name} has non-finite entries")
    return A


def _same_size(A, B, op):
    if A.shape != B.shape:
        raise DimensionError(f"{op}: size mismatch {A.shape} vs {B.shape}")


def check_skew_hermitian(X, tol=1e-12, name="X"):
    """Raise DomainError unless X + X^H vanishes to within tol (scale aware)."""
    A = _as_matrix(X, name)
    scale = max(1.0, float(np.abs(A).max(initial=0.0)))
    dev = float(np.abs(A + A.conj().T).max(initial=0.0))
    if dev > tol * scale:
        raise DomainError(f"{name} is not skew-Hermitian (deviation {dev:.3e})")
    return A


def check_unitary(g, tol=1e-10, name="g"):
    """Raise DomainError unless g g^H = I to within tol."""
    A = _as_matrix(g, name)
    dev = float(np.abs(A @ A.conj().T - np.eye(A.shape[0])).max())
    if dev > tol:
        raise DomainError(f"{name} is not unitary (deviation {dev:.3e})")
    return A


def bracket(X, Y):
    """Commutator [X, Y] = XY - YX."""
    A = _as_matrix(X)
    B = _as_matrix(Y, "Y")
    _same_size(A, B, "bracket")
    return A @ B - B @ A


def inner_b(X, Y, scale=1.0):
    """Ad-invariant inner product B(X, Y) = -Re trace(XY).

    Positive definite on skew-Hermitian matrices. `scale` applies an
    optional overall positive factor.
    """
    A = _as_matrix(X)
    B = _as_matrix(Y, "Y")
    _same_size(A, B, "inner_b")
    return -scale * float(np.real(np.trace(A @ B)))


def bnorm(X):
    """Norm induced by inner_b."""
    A = _as_matrix(X)
    # adding 0.0 turns the clamped -0.0 of a zero matrix into +0.0
    return float(np.sqrt(max(-float(np.real(np.trace(A @ A))), 0.0))) + 0.0


class Flow:
    """The one-parameter group t -> exp(tA), from one eigendecomposition.

    Skew-Hermitian A admits exp(tA) = U diag(exp(i t w)) U* with
    -iA = U diag(w) U*, exactly unitary up to roundoff. Anything else
    falls through to scipy's scaling-and-squaring at each t. t = 0 and
    A = 0 give the identity exactly.
    """

    def __init__(self, A):
        self.A = _as_matrix(A)
        self._zero = not self.A.any()
        scale = max(1.0, float(np.abs(self.A).max(initial=0.0)))
        self._w = None
        if float(np.abs(self.A + self.A.conj().T).max(initial=0.0)) <= 1e-12 * scale:
            self._w, self._U = np.linalg.eigh(-1j * self.A)
            self._Uh = self._U.conj().T

    def __call__(self, t):
        if self._zero or t == 0.0:
            return np.eye(self.A.shape[0], dtype=complex)
        if self._w is None:
            return scipy.linalg.expm(t * self.A)
        return (self._U * np.exp(1j * t * self._w)) @ self._Uh


def expm(X):
    """Matrix exponential of an algebra element, exp(X) = Flow(X)(1)."""
    return Flow(X)(1.0)


def adjoint(g, X):
    """Conjugation Ad(g) X = g X g^{-1} for unitary g."""
    G = _as_matrix(g, "g")
    A = _as_matrix(X)
    _same_size(G, A, "adjoint")
    return G @ A @ G.conj().T


@dataclass(frozen=True, eq=False)
class Subspace:
    """A subspace of u(n) carried as an ordered B-orthonormal basis.

    The frame, `stacked` and `dual`, is built from the basis on first
    use and cached, so the basis arrays must not be mutated afterwards.
    """

    basis: tuple

    @property
    def dim(self):
        return len(self.basis)

    @property
    def ambient(self):
        return self.basis[0].shape[0] if self.basis else 0

    def __iter__(self):
        return iter(self.basis)

    @cached_property
    def stacked(self):
        """The basis as the rows of a (dim, n^2) complex matrix."""
        return np.array([np.ravel(e) for e in self.basis], dtype=complex)

    @cached_property
    def dual(self):
        """Rows d_i with B(X, e_i) = Re(d_i @ vec X), as B(X, e) = -Re sum X_jl e_lj."""
        return np.array([-np.ravel(np.transpose(e)) for e in self.basis], dtype=complex)

    def coordinates(self, X):
        """The real vector of inner products B(X, e_i) with the basis."""
        A = _as_matrix(X)
        if not self.basis:
            return np.zeros(0)
        _same_size(A, self.basis[0], "coordinates")
        return np.real(self.dual @ A.ravel())

    def combine(self, coords):
        """The element sum_i coords_i e_i of the subspace."""
        n = self.ambient
        return (np.asarray(coords) @ self.stacked).reshape(n, n)


def orthonormalize(vectors, rank_tol=1e-10):
    """Gram-Schmidt with respect to inner_b.

    Vectors whose remainder after projection has B-norm below rank_tol
    are dropped, so linearly dependent input is handled by rank
    reduction rather than an error. A second orthogonalization pass
    keeps the result clean when the input is ill-conditioned.
    """
    kept = []
    for v in vectors:
        u = _as_matrix(v).copy()
        for _ in range(2):
            for e in kept:
                u = u - inner_b(u, e) * e
        nrm = bnorm(u)
        if nrm >= rank_tol:
            kept.append(u / nrm)
    return Subspace(tuple(kept))


def project(S, X):
    """Orthogonal projection sum_i B(X, e_i) e_i of X onto the subspace S."""
    A = _as_matrix(X)
    if not S.basis:
        return np.zeros_like(A)
    return S.combine(S.coordinates(A))


def brackets(X, S):
    """The commutators [X, e_i] over the basis of S, as a (dim S, n, n) stack."""
    A = _as_matrix(X)
    if S.basis:
        _same_size(A, S.basis[0], "bracket")
    E = S.stacked.reshape(S.dim, *A.shape)
    return A @ E - E @ A


def span_residuals(S, M):
    """span_residual of each matrix in the (k, n, n) stack M: bnorm(X - project(S, X))."""
    M = np.asarray(M, dtype=complex)
    k, n = M.shape[0], M.shape[-1]
    flat = M.reshape(k, n * n)
    if S.basis and k:
        _same_size(M[0], S.basis[0], "coordinates")
        flat = flat - np.real(S.dual @ flat.T).T @ S.stacked
    R = flat.reshape(k, n, n)
    return np.sqrt(np.maximum(-np.real(np.trace(R @ R, axis1=1, axis2=2)), 0.0)) + 0.0


def span_residual(S, X):
    """B-norm of the component of X orthogonal to S."""
    return float(span_residuals(S, _as_matrix(X)[None])[0])
