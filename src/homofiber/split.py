"""Reductive decompositions g = h + m1 + ... + ms and their validation.

A fibration chain h <= k <= g produces the two-module split with
m1 the B-orthogonal complement of k in g and m2 the complement of h
inside k. Custom multi-module splits are accepted as explicit bases.
Every structural hypothesis used by the motion and oracle modules is
checkable here. `structure_report` gives each check's worst residual
by name, without judging it, so a front end can print all failures at
once; `report_lines` and `require` judge a report against a tolerance,
which every build sets to `USER_TOL`.

A closure (`_block_algebra`) or bracket relation (`_certified`) that
the support patterns of its bases prove reads 0.0 without a bracket;
any other is swept over basis pairs, with its bits. Each subspace
computes its support and exact-skew flag once, as `Subspace._pattern`.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from .linalg import (
    StructureError,
    Subspace,
    _RANK_TOL,
    _commutator,
    _real_rows,
    brackets,
    orthonormalize,
    span_residual,
    span_residuals,
)

CATALOG_TOL = 1e-12   # validate's bar: exact integer / half-integer input data
USER_TOL = 1e-10      # every build, system and initial datum
PAIR_BLOCK = 2**12     # complex entries per bracket-residual stack, 64 KB


class SubalgebraChain:
    """Nested subalgebras h <= k <= g, each stored as an orthonormal Subspace.

    `closures` holds the (worst residual, argmax pair) of the bracket
    closure of g, k and h.
    """

    def __init__(self, g, k, h):
        self.g, self.k, self.h = g, k, h
        self.closures = tuple(_closure_residual(space) for space in (g, k, h))


class ReductiveSplit:
    """B-orthogonal decomposition g = h + m1 + ... + ms of the algebra g.

    `modules` is the ordered tuple (m1, ..., ms), `m` their
    concatenation and n the size of g's matrices. `gram` is the Gram
    matrix B(x, y) over the bases of h, m1, ..., ms in turn, and
    `ad_invariance` the worst residual of [x, y] off m_i over x in h,
    y in m_i, over the modules: 0.0 for a module whose relation is
    certified by support pattern, swept otherwise. `pair_residuals`
    holds each `bracket_pair_residual` taken on the split, by pair.
    Module indices are 1-based throughout the public API, matching the
    names m1, m2, ...
    """

    def __init__(self, g, h, modules):
        self.g, self.h, self.modules, self.n = g, h, modules, g.ambient
        self.pair_residuals = {}
        hm = Subspace(np.concatenate([h.basis, *(mod.basis for mod in modules)]))
        self.m = Subspace(hm.basis[h.dim:])
        self.gram = hm.frame @ hm.frame.T
        self.ad_invariance = max((_relation_residual(mod, h, mod) for mod in modules), default=0.0)

    @property
    def s(self):
        return len(self.modules)

    def module(self, index):
        """Return m_index (1-based)."""
        if not 1 <= index <= self.s:
            raise IndexError(f"module index {index} out of range 1..{self.s}")
        return self.modules[index - 1]

    @property
    def dims(self):
        return tuple(mod.dim for mod in self.modules)


def _bracket_residuals(target, A, B):
    """(A.dim, B.dim) residuals off target of [x, y] over basis pairs x of A, y of B.

    The brackets go through span_residuals in row blocks of at most
    about PAIR_BLOCK complex entries (one block on every catalog space),
    whole rows x at a time, so memory stays bounded on large algebras.
    """
    r = np.zeros((A.dim, B.dim))
    if not (A.dim and B.dim):
        return r
    n = A.ambient
    rows = max(1, PAIR_BLOCK // (B.dim * n * n))
    for i in range(0, A.dim, rows):
        brs = _commutator(A.basis[i:i + rows, None], B.basis).reshape(-1, n, n)
        r[i:i + rows] = span_residuals(target, brs).reshape(-1, B.dim)
    return r


def _certified(target, A, B):
    """Whether [A, B] lies in target by the support patterns of the three bases alone.

    With every basis matrix exactly skew-Hermitian, [x, y] for x in A and
    y in B is skew-Hermitian and supported on P_A P_B + P_B P_A, the
    boolean products of the basis supports. Those supports are symmetric,
    so P_B P_A is the transpose of P_A P_B, and both lie in the symmetric
    support Q of target when P_A P_B does. target spans all of u_Q, the
    skew-Hermitian matrices supported on Q, when its dim is count(Q) (u_Q
    has one real dimension per entry), and then holds every bracket.
    """
    (skew_t, Q), (skew_a, PA), (skew_b, PB) = target._pattern, A._pattern, B._pattern
    return bool(
        skew_t and skew_a and skew_b and target.dim == np.count_nonzero(Q)
        and not (PA @ PB > Q).any()
    )


def _relation_residual(target, A, B):
    """Worst residual of [x, y] off target over basis pairs x of A, y of B: 0.0 when
    `_certified`, else swept by `_bracket_residuals`, with its bits."""
    if _certified(target, A, B):
        return 0.0
    return _bracket_residuals(target, A, B).max(initial=0.0)


def _block_algebra(space):
    """Whether the span of an orthonormalized basis is provably a block algebra, hence closed.

    Q is the union of the basis supports (`Subspace._pattern`) with the
    diagonal entry of every active row; once every basis matrix is
    exactly skew-Hermitian, Q equals its transpose. A transitive Q is
    then a block pattern, and the span lies in u_Q, the skew-Hermitian
    matrices supported on Q, of dimension count(Q). The independent rows
    span u_Q when dim = count(Q), and the traceless part of u_Q when
    dim = count(Q) - 1 and every trace is exactly 0; both are closed
    under the bracket.
    """
    skew, support = space._pattern
    if not skew:
        return False
    Q = support.copy()
    np.fill_diagonal(Q, Q.any(axis=0))
    count = int(np.count_nonzero(Q))
    if space.dim not in (count, count - 1) or (Q @ Q > Q).any():
        return False
    traces = space.basis.diagonal(axis1=1, axis2=2).imag.tolist()
    return space.dim == count or not any(map(math.fsum, traces))


def _closure_residual(space):
    """Worst residual of [x, y] off span(space) over basis pairs i < j, with argmax.

    Every ordered pair is bracketed and np.triu keeps the pairs i < j,
    so the argmax names the first worst one. A provable block algebra
    (`_block_algebra`) reads (0.0, None) without a bracket.
    """
    if _block_algebra(space):
        return 0.0, None
    r = np.triu(_bracket_residuals(space, space, space), 1)
    worst = r.max(initial=0.0)
    return worst, divmod(int(np.argmax(r)), space.dim) if worst > 0 else None


def _require_closed(name, closure):
    worst, where = closure
    if worst > USER_TOL:
        raise StructureError(
            f"{name} basis is not closed under bracket: elements "
            f"{where[0]} and {where[1]} bracket outside the span "
            f"(residual {worst:.3e})"
        )


def _require_contained(inner_name, inner, outer_name, outer):
    worst = span_residuals(outer, inner.basis).max(initial=0.0)
    if worst > USER_TOL:
        raise StructureError(
            f"{inner_name} is not contained in {outer_name} (residual {worst:.3e})"
        )


def _span(vectors, n):
    """orthonormalize(vectors), where an empty list or array spans the (0, n, n) subspace."""
    return orthonormalize(vectors if len(vectors) else np.zeros((0, n, n), complex))


def chain(g_basis, k_basis, h_basis):
    """Build a SubalgebraChain, checking closure and nesting."""
    g = _span(g_basis, 0)
    if g.dim == 0:
        raise StructureError("g basis spans nothing")
    k = _span(k_basis, g.ambient)
    h = _span(h_basis, g.ambient)
    ch = SubalgebraChain(g, k, h)
    for name, closure in zip("gkh", ch.closures):
        _require_closed(name, closure)
    _require_contained("h", h, "k", k)
    _require_contained("k", k, "g", g)
    return ch


def _complement(outer, inner):
    """Orthonormal basis of the B-orthogonal complement of inner in outer.

    Each outer basis matrix loses its projection onto inner, taken
    through the real frames: coordinates B(e, f_j) = e . f_j, then
    their combination of the inner basis.
    """
    c = outer.frame @ inner.frame.T
    return orthonormalize(outer.basis - (c @ inner.stacked).reshape(outer.basis.shape))


def build_split(ch):
    """Two-module split of a fibration chain.

    m1 is the complement of k in g and m2 the complement of h in k, so
    dim m1 + dim m2 + dim h = dim g. The bracket relations [h, mi] in mi
    and [m1, k] in m1 hold automatically for a valid chain; they are
    certified or verified (`_relation_residual`), and a StructureError is
    raised if the input sneaks past the closure checks but violates them.
    """
    m1 = _complement(ch.g, ch.k)
    m2 = _complement(ch.k, ch.h)
    split = ReductiveSplit(ch.g, ch.h, (m1, m2))
    if ch.h.dim + m1.dim + m2.dim != ch.g.dim:
        raise StructureError("complement dimensions do not add up; input bases overlap")
    require(structure_report(split), USER_TOL, "split of chain")
    worst = _relation_residual(m1, m1, ch.k)
    if worst > USER_TOL:
        raise StructureError(f"[m1, k] leaves m1 (residual {worst:.3e})")
    return split


def build_custom_split(g_basis, h_basis, module_bases):
    """Split with caller-chosen modules m1, ..., ms.

    Each module basis is orthonormalized independently; the pieces must
    then be mutually B-orthogonal, h must be a subalgebra, the pieces
    must fill g, and each module must be ad(h)-invariant.
    """
    g = _span(g_basis, 0)
    if g.dim == 0:
        raise StructureError("g basis spans nothing")
    h = _span(h_basis, g.ambient)
    mods = tuple(_span(mb, g.ambient) for mb in module_bases)
    _require_closed("h", _closure_residual(h))
    split = ReductiveSplit(g, h, mods)
    pieces = [("h", h)] + [(f"m{i + 1}", mod) for i, mod in enumerate(mods)]
    edges = np.cumsum([0] + [space.dim for _, space in pieces])
    for a, b in combinations(range(len(pieces)), 2):
        block = split.gram[edges[a]:edges[a + 1], edges[b]:edges[b + 1]]
        r = np.abs(block).max(initial=0.0)
        if r > USER_TOL:
            raise StructureError(f"{pieces[a][0]} and {pieces[b][0]} overlap (residual {r:.3e})")
    if edges[-1] != g.dim:
        raise StructureError(
            f"pieces span dimension {edges[-1]} but g has dimension {g.dim}"
        )
    for name, space in pieces:
        _require_contained(name, space, "g", g)
    require(structure_report(split), USER_TOL, "custom split")
    return split


def bracket_pair_residual(split, a, b):
    """Worst residual of [x, y] off m_a over x in m_a, y in m_b (1-based), once per split and pair.

    0.0 when certified by support pattern (`_relation_residual`). A space
    document's report and its system's constructor both ask for it.
    """
    if b is None:
        return 0.0
    if (a, b) not in split.pair_residuals:
        ma, mb = split.module(a), split.module(b)
        split.pair_residuals[a, b] = _relation_residual(ma, ma, mb)
    return split.pair_residuals[a, b]


def membership_scale(X):
    """max(1, max|X|), per matrix of a stack: W and the initial data are judged in m or h on X over it.

    Roundoff grows with |X|, and the quotient keeps the squares in range; X / 1 is X.
    """
    return np.maximum(1.0, np.abs(X).max(axis=(-2, -1), initial=0.0))


def center_residuals(h, W):
    """(B-norm off h, largest B-norm of [., x] over the basis x of h) of W / membership_scale(W)."""
    W = W / membership_scale(W)
    central = span_residuals(Subspace(h.basis[:0]), brackets(W, h)).max(initial=0.0)
    return span_residual(h, W), float(central)


def structure_report(split, pair=None, W=None, ch=None):
    """Every structural residual of a split, as {check name: worst residual}.

    Optional arguments add checks: `pair` the bracket condition,
    `W` membership in the center of h (relative, `center_residuals`),
    `ch` closure of the original chain bases. The ad-invariance and
    chain closure residuals are computed once per split and chain and
    read from there.
    """
    G = split.gram
    rep = {
        "orthogonality": np.abs(G - np.eye(len(G))).max(initial=0.0),
        "ad_invariance": split.ad_invariance,
    }
    if pair is not None:
        rep["bracket_condition"] = bracket_pair_residual(split, *pair)
    if W is not None:
        rep["center_membership"] = max(center_residuals(split.h, W))
    if ch is not None:
        rep["chain_closure"] = max(worst for worst, _ in ch.closures)
    return {name: float(r) for name, r in rep.items()}


def report_lines(report, tol):
    """One PASS or FAIL line per check of a report, in name order; NaN fails."""
    return [
        f"{'PASS' if r <= tol else 'FAIL'}  {name:20s} residual {r:.3e}"
        for name, r in sorted(report.items())
    ]


def require(report, tol, what):
    """Raise StructureError with the report's lines unless every residual is at most tol."""
    if not all(r <= tol for r in report.values()):
        raise StructureError(f"{what} fails validation:\n" + "\n".join(report_lines(report, tol)))


def center_basis(split):
    """Basis of the center of h, the W candidates.

    Solves [W, x] = 0 for all x in the h basis as a null-space problem
    for the stacked ad-coefficient matrices, whose entries are the
    structure constants C[i, j, l] = B([h_i, h_j], h_l); singular values
    below orthonormalize's rank tolerance, 1e-10, span the null space.
    An empty h has an empty center.
    """
    h = split.h
    d = h.dim
    if d == 0:
        return h
    X = h.basis[:, None]
    C = _real_rows(_commutator(X, X.swapaxes(0, 1))) @ h.frame.T
    _, sv, vt = np.linalg.svd(C.transpose(1, 2, 0).reshape(d * d, d), full_matrices=False)
    return orthonormalize(h.combine(vt[sv < _RANK_TOL]))
