"""Dense complex matrix algebra for compact matrix Lie groups.

Everything in this package lives inside u(n): algebra elements are
skew-Hermitian n x n complex matrices, group elements are unitary
matrices. This module provides the bracket, the trace inner product,
matrix exponentials, orthonormalization and subspace projection that
the rest of the package is built on. A subspace also has a real frame,
each basis matrix viewed without a copy as 2n^2 reals: for skew e,
B(X, e) = Re X . Re e + Im X . Im e, so Gram-Schmidt (CGS2, classical
with one reorthogonalisation), coordinates and span residuals run in
real arithmetic, and a residual is a Frobenius norm, B's on u(n).
`orthonormalize` takes its candidates as one (k, n, n) stack (a list is
stacked once), drops those of norm below rank_tol / 2 before CGS2, and
returns a Subspace whose frame is the Gram-Schmidt rows themselves.
When no two candidates share a nonzero real-frame entry, as for the
matrix-unit bases of block subgroups, every CGS2 projection is exactly
zero, so it skips the loop and divides each row by its norm.

The bracket, the inner product and norm, `adjoint`, `project` and the
subspace coordinates also take (..., n, n) stacks, broadcast over the
leading axes. An entry of a stack is the same float whatever the shape
of the stack around it: products and sums run in einsum's fixed order,
and the bracket keeps its matmul, which numpy applies matrix by matrix
(never folding the stack into one larger product).

`Flow.times` and `Flow.adjoint` evaluate exp(tA) exp(tB) and
Ad(exp(tA)) X over a t-grid in the eigenbases, by one kernel,
`_phased_products`: per-t phases on a fixed middle matrix, then the
fixed outer factors as 2-D BLAS products over the whole grid. The grid
runs along the rows of every product and no product has one row, which
numpy would take down its matrix-vector path, so an entry has the same
bits at every grid length: a row of a 2-D complex product keeps its
bits for every row count of 2 or more.

Public functions check their operands: square, finite, one size. The
kernels `_commutator`, `_conjugate`, `_phased_products` and
`Subspace._coordinates` trust arrays checked on entry, flows at a
caller's t too (NaN once |tw| overflows).
"""

from __future__ import annotations

import math

import numpy as np

_RANK_TOL = 1e-10  # orthonormalize's rank tolerance, shared with split.center_basis


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


def check_skew_hermitian(X, name="X"):
    """Raise DomainError unless X, one matrix or a (..., n, n) stack, is skew-Hermitian.

    Matrix by matrix, max|A + A^H| may be at most 1e-12 max(1, max|A|);
    an error names the first bad matrix of a stack as name[i].
    """
    A = _as_matrix(X, name, stack=True)
    D = A + np.swapaxes(A.conj(), -1, -2)
    if D.any():  # an exactly skew input needs no norms
        dev = np.abs(D).max(axis=(-2, -1), initial=0.0)
        bad = np.argwhere(dev > 1e-12 * np.maximum(1.0, np.abs(A).max(axis=(-2, -1), initial=0.0)))
        if len(bad):
            where = f"{name}[{', '.join(map(str, bad[0]))}]" if A.ndim > 2 else name
            raise DomainError(f"{where} is not skew-Hermitian (deviation {dev[tuple(bad[0])]:.3e})")
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
    return _commutator(A, B)


def _commutator(A, B):
    return A @ B - B @ A


def _trace_form(A, B):
    """-Re trace(AB) over broadcast stacks."""
    return -np.real(np.einsum("...ij,...ji->...", A, B))


def inner_b(X, Y):
    """Ad-invariant inner product B(X, Y) = -Re trace(XY).

    Positive definite on skew-Hermitian matrices.
    """
    A = _as_matrix(X, stack=True)
    B = _as_matrix(Y, "Y", stack=True)
    _same_size(A, B, "inner_b")
    return _scalar(_trace_form(A, B))


def bnorm(X):
    """Norm induced by inner_b."""
    A = _as_matrix(X, stack=True)
    # adding 0.0 turns the clamped -0.0 of a zero matrix into +0.0
    return _scalar(np.sqrt(np.maximum(_trace_form(A, A), 0.0)) + 0.0)


class Flow:
    """The one-parameter group t -> exp(tA) of a skew-Hermitian A, from one eigendecomposition.

    exp(tA) = U diag(exp(i t w)) U* with -iA = U diag(w) U*, exactly
    unitary up to roundoff; any other A raises DomainError. t = 0 and
    A = 0 give the identity exactly. A may be a (..., n, n) stack,
    decomposed by one stacked eigh; `times` and `adjoint` take one A.
    """

    def __init__(self, A):
        self.A = check_skew_hermitian(A)
        self._zero = ~self.A.any(axis=(-2, -1))
        self._w, self._U = np.linalg.eigh(-1j * self.A)
        self._Uh = np.swapaxes(self._U.conj(), -1, -2)

    @property
    def rate(self):
        """The largest |eigenvalue| of A, over a stack too: the fastest phase of the flow."""
        return float(np.abs(self._w).max(initial=0.0))

    def _phases(self, grid):
        """The phases exp(i t w), (T, ..., n), on a float grid shaped (T, ...) like A's stack.

        NaN once |tw| overflows.
        """
        with np.errstate(over="ignore", invalid="ignore"):  # the caller checks the flow
            return np.exp(1j * grid[..., None] * self._w)

    def __call__(self, t):
        """exp(tA) for a scalar t, or the (T, ..., n, n) stack over a 1-D grid of t."""
        ts = np.asarray(t, dtype=float)
        grid = ts.reshape((-1,) + (1,) * (self.A.ndim - 2))
        out = mul(self._U * self._phases(grid)[..., None, :], self._Uh)
        out[self._zero | (grid == 0.0)] = np.eye(self.A.shape[-1])
        return out if ts.ndim else out[0]

    def times(self, other, t, other_phases=None):
        """exp(tA) exp(tB), B the generator of the Flow other, as a (T, n, n) stack over a 1-D grid.

        It is U_A (e_A(t) o U_A* U_B o e_B(t)) U_B*, e the phases and o the
        elementwise product (`_phased_products`); t = 0 gives I exactly.
        other_phases, when given, is e_B(t) as other._phases(t) returns it.
        """
        t = np.asarray(t, dtype=float)
        f = other._phases(t) if other_phases is None else other_phases
        out = _phased_products(self._U, self._Uh @ other._U, self._phases(t), f, other._Uh)
        out[t == 0.0] = np.eye(self.A.shape[-1])
        return out

    def adjoint(self, t, X, phases=None):
        """Ad(exp(tA)) X of one X or a (K, n, n) stack, as a (T, [K,] n, n) stack over a 1-D grid.

        It is U (e(t) o U* X U o e(t)*) U*, e the phases and o the elementwise
        product (`_phased_products`); t = 0 gives X exactly. phases, when
        given, is e(t) as self._phases(t) returns it but for signed zeros,
        which t = 0 alone gives and overwrites.
        """
        t = np.asarray(t, dtype=float)
        e = self._phases(t) if phases is None else phases
        out = _phased_products(self._U, self._Uh @ X @ self._U, e, e.conj(), self._Uh)
        out[t == 0.0] = X
        return out


def _phased_products(L, M, e, f, R):
    """The stack L (e[t] o M o f[t]) R over the rows t of the (T, n) phases e and f.

    (e o M o f)_jl = e_j M_jl f_l, for one matrix M, giving (T, n, n), or
    each of a (K, n, n) stack, giving (T, K, n, n). The phased middles are
    laid out transposed, a matrix row per array row: (e o M o f)^T L^T =
    (L (e o M o f))^T, one transposing copy, then times R; O(T n^3) work
    in two products over the whole grid. A grid whose products would have
    one row (one t of one 1 x 1 M) is computed twice.
    """
    n, T = L.shape[-1], len(e)
    if T * M.size == n:
        return _phased_products(L, M, np.repeat(e, 2, axis=0), np.repeat(f, 2, axis=0), R)[:1]
    lead = (1,) * (M.ndim - 2)
    P = f.reshape((T,) + lead + (n, 1)) * np.swapaxes(M, -1, -2)
    P *= e.reshape((T,) + lead + (1, n))
    P = np.matmul(P.reshape(-1, n), L.T).reshape(P.shape).swapaxes(-1, -2)
    return np.matmul(np.ascontiguousarray(P).reshape(-1, n), R).reshape((T,) + M.shape)


def expm(X):
    """Matrix exponential of an algebra element, exp(X) = Flow(X)(1)."""
    return Flow(X)(1.0)


def adjoint(g, X):
    """Conjugation Ad(g) X = g X g^{-1} for unitary g."""
    G = _as_matrix(g, "g", stack=True)
    A = _as_matrix(X, stack=True)
    _same_size(G, A, "adjoint")
    return _conjugate(G, A)


def _conjugate(G, A):
    return mul(mul(G, A), np.swapaxes(G.conj(), -1, -2))


class Subspace:
    """A subspace of u(n) carried as an ordered B-orthonormal basis.

    `basis` is one (dim, n, n) complex array, an empty subspace a
    (0, n, n) one; `stacked` (dim, n^2) and `frame` (dim, 2n^2) are
    views of it, so it must not be mutated afterwards.
    """

    def __init__(self, basis):
        self.basis = basis
        self.dim, self.ambient = basis.shape[:2]
        self.stacked = basis.reshape(self.dim, self.ambient**2)
        self.frame = self.stacked.view(float)  # B(X, e_i) is row i dotted with X's view

    def coordinates(self, X):
        """The real vector of inner products B(X, e_i) with the basis."""
        A = _as_matrix(X, stack=True)
        _same_size(A, self.basis, "coordinates")
        return self._coordinates(A)

    def _coordinates(self, A):
        return np.einsum("ij,...j->...i", self.frame, _real_rows(A))

    def combine(self, coords):
        """The element sum_i coords_i e_i of the subspace."""
        c = np.asarray(coords)
        n = self.ambient
        return np.einsum("...i,ij->...j", c, self.stacked).reshape(c.shape[:-1] + (n, n))


def _real_rows(A):
    """The (..., n, n) complex stack A as (..., 2n^2) rows of real and imaginary parts."""
    return np.ascontiguousarray(A).reshape(*A.shape[:-2], A.shape[-2] * A.shape[-1]).view(float)


def orthonormalize(vectors, rank_tol=_RANK_TOL):
    """Classical Gram-Schmidt with one reorthogonalisation (CGS2) for inner_b.

    vectors is a (k, n, n) stack, taken as it is, or a nonempty list of
    n x n matrices, checked matrix by matrix and stacked once. Each
    vector u, in input order, takes its coefficients against all kept
    rows e_i of the real frame at once, B(u, e_i) = e_i . u, and has
    them subtracted; the second pass keeps the result orthonormal to
    working precision when the input is ill-conditioned. A vector whose
    remainder has norm below rank_tol is dropped, so linearly dependent
    input is handled by rank reduction rather than an error.

    A candidate of norm below rank_tol / 2 is dropped before the loop:
    a pass never grows a norm by more than a relative O(k eps), so it
    would be dropped anyway, and every kept row is the same to the bit.
    When the remaining candidates have pairwise disjoint supports (no
    real-frame column holds two nonzeros), every coefficient e_i . u is
    a sum of zero products, which BLAS returns as +0.0, and x - 0.0 is x
    to the bit, -0.0 entries too; so the loop is skipped, and each row
    becomes x / sqrt(x @ x) with the same rank_tol drop and the same
    bits. The Subspace is a view of the kept rows, (0, n, n) when none
    is kept.
    """
    if isinstance(vectors, np.ndarray):
        shape = vectors.shape[1:]
    else:
        vectors = list(vectors)
        shapes = sorted({np.shape(v) for v in vectors})
        if not shapes:
            raise DimensionError("an empty list has no matrix size; pass a (0, n, n) stack")
        if len(shapes) > 1:
            raise DimensionError(f"inner_b: size mismatch {shapes[0]} vs {shapes[-1]}")
        shape = shapes[0]
    if len(shape) != 2 or shape[0] != shape[1]:
        raise DimensionError(f"X must be a square matrix, got shape {shape}")
    R = _real_rows(_as_matrix(vectors, stack=True))
    F = R[np.sqrt(np.einsum("ij,ij->i", R, R)) >= 0.5 * rank_tol]
    if np.count_nonzero(F) == np.count_nonzero(F.any(axis=0)):  # one nonzero per used column
        nrm = np.array([math.sqrt(x @ x) for x in F])
        F /= nrm[:, None]
        F = F[nrm >= rank_tol]
    else:
        F = F[:_cgs2(F, rank_tol)]
    return Subspace(F.view(complex).reshape(len(F), *shape))


def _cgs2(F, rank_tol):
    """CGS2 over the rows of F in place: the kept rows fill F[:d]; returns d."""
    d = 0
    for x in F:
        if d:
            E = F[:d]
            x = x - (E @ x) @ E
            x = x - (E @ x) @ E
        nrm = math.sqrt(x @ x)
        if nrm >= rank_tol:
            F[d] = x / nrm
            d += 1
    return d


def project(S, X):
    """Orthogonal projection sum_i B(X, e_i) e_i of X onto the subspace S."""
    return S.combine(S.coordinates(X))


def brackets(X, S):
    """The commutators [X, e_i] over the basis of S, as a (dim S, n, n) stack."""
    A = _as_matrix(X)
    _same_size(A, S.basis, "bracket")
    return _commutator(A, S.basis)


def span_residuals(S, M):
    """span_residual of each matrix in the (k, n, n) stack M: the norm of X - project(S, X)."""
    M = np.asarray(M, dtype=complex)
    _same_size(M, S.basis, "coordinates")
    x = _real_rows(M)
    x = x - (x @ S.frame.T) @ S.frame
    return np.sqrt(np.einsum("ij,ij->i", x, x))


def span_residual(S, X):
    """Norm of the component of X orthogonal to S: its B-norm when X is in u(n)."""
    return float(span_residuals(S, _as_matrix(X)[None])[0])
