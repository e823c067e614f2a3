"""Dense complex matrix algebra for compact matrix Lie groups.

Everything in this package lives inside u(n): algebra elements are
skew-Hermitian n x n complex matrices, group elements are unitary
matrices. This module provides the bracket, the trace inner product,
matrix exponentials, orthonormalization and subspace projection that
the rest of the package is built on. Orthonormalization is classical
Gram-Schmidt with one reorthogonalisation (CGS2): each pass takes a
vector's coefficients against all kept vectors in one product.

The bracket, the inner product and norm, `adjoint`, `project` and the
subspace coordinates also take (..., n, n) stacks, broadcast over the
leading axes. An entry of a stack is the same float whatever the shape
of the stack around it: products and sums run in einsum's fixed order,
and the bracket keeps its matmul, which numpy applies matrix by matrix
(never folding the stack into one larger product).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np


class DimensionError(ValueError):
    """Operands have incompatible matrix shapes."""


class DomainError(ValueError):
    """A value lies outside the subspace an operation is defined on."""


class StructureError(ValueError):
    """Input data violates a structural hypothesis (closure, nesting, ...)."""


def _as_matrix(X, name="X", stack=False):
    """X as a complex square matrix or, with stack=True, a (..., n, n) stack."""
    A = np.asarray(X, dtype=complex)
    if A.ndim < 2 or (A.ndim > 2 and not stack) or A.shape[-1] != A.shape[-2]:
        raise DimensionError(f"{name} must be a square matrix, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise DomainError(f"{name} has non-finite entries")
    return A


def _same_size(A, B, op):
    if A.shape[-2:] != B.shape[-2:]:
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


def mul(A, B):
    """Matrix product, broadcast over the leading axes of (..., n, n) stacks."""
    return np.einsum("...ij,...jk->...ik", A, B)


def _scalar(x):
    """A 0-d result as a float; stacked results stay arrays."""
    return float(x) if np.ndim(x) == 0 else x


def bracket(X, Y):
    """Commutator [X, Y] = XY - YX."""
    A = _as_matrix(X, stack=True)
    B = _as_matrix(Y, "Y", stack=True)
    _same_size(A, B, "bracket")
    return A @ B - B @ A


def _trace_form(A, B):
    """-Re trace(AB) over broadcast stacks."""
    return -np.real(np.einsum("...ij,...ji->...", A, B))


def inner_b(X, Y, scale=1.0):
    """Ad-invariant inner product B(X, Y) = -Re trace(XY).

    Positive definite on skew-Hermitian matrices. `scale` applies an
    optional overall positive factor.
    """
    A = _as_matrix(X, stack=True)
    B = _as_matrix(Y, "Y", stack=True)
    _same_size(A, B, "inner_b")
    return _scalar(scale * _trace_form(A, B))


def bnorm(X):
    """Norm induced by inner_b."""
    A = _as_matrix(X, stack=True)
    # adding 0.0 turns the clamped -0.0 of a zero matrix into +0.0
    return _scalar(np.sqrt(np.maximum(_trace_form(A, A), 0.0)) + 0.0)


class Flow:
    """The one-parameter group t -> exp(tA), from one eigendecomposition.

    Skew-Hermitian A admits exp(tA) = U diag(exp(i t w)) U* with
    -iA = U diag(w) U*, exactly unitary up to roundoff. Anything else
    falls through to scipy's scaling-and-squaring at each t, importing
    scipy only then. t = 0 and A = 0 give the identity exactly.
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
        """exp(tA) for a scalar t, or the (T, n, n) stack over a 1-D grid of t."""
        ts = np.asarray(t, dtype=float)
        grid = ts.reshape(-1)
        if self._w is None:
            import scipy.linalg
            out = scipy.linalg.expm(grid[:, None, None] * self.A)
        else:
            out = mul(self._U * np.exp(1j * grid[:, None] * self._w)[:, None, :], self._Uh)
        out[self._zero | (grid == 0.0)] = np.eye(self.A.shape[0])
        return out if ts.ndim else out[0]


def expm(X):
    """Matrix exponential of an algebra element, exp(X) = Flow(X)(1)."""
    return Flow(X)(1.0)


def adjoint(g, X):
    """Conjugation Ad(g) X = g X g^{-1} for unitary g."""
    G = _as_matrix(g, "g", stack=True)
    A = _as_matrix(X, stack=True)
    _same_size(G, A, "adjoint")
    return mul(mul(G, A), np.swapaxes(G.conj(), -1, -2))


class Subspace:
    """A subspace of u(n) carried as an ordered B-orthonormal basis.

    The frame, `stacked` and `dual`, is built from the basis on first
    use and cached, so the basis arrays must not be mutated afterwards.
    """

    def __init__(self, basis):
        self.basis = basis

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
        return np.array(self.basis, dtype=complex).reshape(self.dim, self.ambient**2)

    @cached_property
    def dual(self):
        """Rows d_i with B(X, e_i) = Re(d_i @ vec X), as B(X, e) = -Re sum X_jl e_lj."""
        n = self.ambient
        return -np.swapaxes(self.stacked.reshape(self.dim, n, n), 1, 2).reshape(self.dim, n * n)

    def coordinates(self, X):
        """The real vector of inner products B(X, e_i) with the basis."""
        A = _as_matrix(X, stack=True)
        if not self.basis:
            return np.zeros(A.shape[:-2] + (0,))
        _same_size(A, self.basis[0], "coordinates")
        flat = A.reshape(A.shape[:-2] + (-1,))
        return np.real(np.einsum("ij,...j->...i", self.dual, flat))

    def combine(self, coords):
        """The element sum_i coords_i e_i of the subspace."""
        c = np.asarray(coords)
        n = self.ambient
        return np.einsum("...i,ij->...j", c, self.stacked).reshape(c.shape[:-1] + (n, n))


def orthonormalize(vectors, rank_tol=1e-10):
    """Classical Gram-Schmidt with one reorthogonalisation (CGS2) for inner_b.

    Each vector u, in input order, takes its coefficients against all
    kept vectors e_i at once, B(u, e_i) = Re(dual_i . vec u), and has
    them subtracted; the second pass keeps the result orthonormal to
    working precision when the input is ill-conditioned. A vector whose
    remainder has B-norm below rank_tol is dropped, so linearly
    dependent input is handled by rank reduction rather than an error.
    """
    vectors = list(vectors)
    kept = []
    for v in vectors:
        u = _as_matrix(v)
        flat = u.reshape(-1)
        if kept:
            _same_size(u, kept[0], "inner_b")
            E, D = frame[:len(kept)], duals[:len(kept)]
            for _ in range(2):
                flat = flat - np.real(D @ flat) @ E
        else:
            n = u.shape[0]
            frame = np.empty((len(vectors), n * n), dtype=complex)
            duals = np.empty_like(frame)
        r = flat.reshape(n, n)
        nrm = np.sqrt(max(_trace_form(r, r), 0.0))
        if nrm >= rank_tol:
            e = r / nrm
            frame[len(kept)] = e.reshape(-1)
            duals[len(kept)] = -e.T.reshape(-1)
            kept.append(e)
    return Subspace(tuple(kept))


def project(S, X):
    """Orthogonal projection sum_i B(X, e_i) e_i of X onto the subspace S."""
    A = _as_matrix(X, stack=True)
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
    return np.sqrt(np.maximum(_trace_form(R, R), 0.0)) + 0.0


def span_residual(S, X):
    """B-norm of the component of X orthogonal to S."""
    return float(span_residuals(S, _as_matrix(X)[None])[0])
