"""Reductive decompositions g = h + m1 + ... + ms and their validation.

A fibration chain h <= k <= g produces the two-module split with
m1 the B-orthogonal complement of k in g and m2 the complement of h
inside k. Custom multi-module splits are accepted as explicit bases.
Every structural hypothesis used by the motion and oracle modules is
checkable here, and checks report residuals instead of raising so a
front end can print all failures at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .linalg import (
    StructureError,
    Subspace,
    bnorm,
    bracket,
    inner_b,
    orthonormalize,
    project,
    span_residual,
)

CATALOG_TOL = 1e-12   # exact integer / half-integer input data
USER_TOL = 1e-10      # user supplied data


@dataclass(frozen=True, eq=False)
class SubalgebraChain:
    """Nested subalgebras h <= k <= g, each stored as an orthonormal Subspace."""

    g: Subspace
    k: Subspace
    h: Subspace
    n: int


@dataclass(frozen=True, eq=False)
class ReductiveSplit:
    """B-orthogonal decomposition g = h + m1 + ... + ms.

    `modules` is the ordered tuple (m1, ..., ms) and `m` their
    concatenation. Module indices are 1-based throughout the public
    API, matching the names m1, m2, ...
    """

    h: Subspace
    modules: tuple
    n: int

    @property
    def s(self):
        return len(self.modules)

    @cached_property
    def m(self):
        return Subspace(tuple(b for mod in self.modules for b in mod.basis))

    def module(self, index):
        """Return m_index (1-based)."""
        if not 1 <= index <= self.s:
            raise IndexError(f"module index {index} out of range 1..{self.s}")
        return self.modules[index - 1]

    @property
    def dims(self):
        return tuple(mod.dim for mod in self.modules)


@dataclass(frozen=True)
class CheckResult:
    passed: bool
    residual: float


@dataclass
class ValidationReport:
    """Named structural checks with worst residuals."""

    checks: dict = field(default_factory=dict)

    def add(self, name, residual, tol):
        self.checks[name] = CheckResult(residual <= tol, float(residual))

    @property
    def passed(self):
        return all(c.passed for c in self.checks.values())

    @property
    def worst(self):
        return max((c.residual for c in self.checks.values()), default=0.0)

    def lines(self):
        out = []
        for name, c in sorted(self.checks.items()):
            status = "PASS" if c.passed else "FAIL"
            out.append(f"{status}  {name:20s} residual {c.residual:.3e}")
        return out


def _closure_residual(space):
    """Worst residual of [x, y] off span(space) over basis pairs, with argmax."""
    worst, where = 0.0, None
    for i, x in enumerate(space.basis):
        for j, y in enumerate(space.basis[i + 1:], start=i + 1):
            r = span_residual(space, bracket(x, y))
            if r > worst:
                worst, where = r, (i, j)
    return worst, where


def chain(g_basis, k_basis, h_basis, tol=USER_TOL):
    """Build a SubalgebraChain, checking closure and nesting."""
    g = orthonormalize(g_basis)
    k = orthonormalize(k_basis)
    h = orthonormalize(h_basis)
    if g.dim == 0:
        raise StructureError("g basis spans nothing")
    n = g.ambient
    for name, space in (("g", g), ("k", k), ("h", h)):
        worst, where = _closure_residual(space)
        if worst > tol:
            raise StructureError(
                f"{name} basis is not closed under bracket: elements "
                f"{where[0]} and {where[1]} bracket outside the span "
                f"(residual {worst:.3e})"
            )
    for inner_name, inner, outer_name, outer in (("h", h, "k", k), ("k", k, "g", g)):
        worst = max((span_residual(outer, x) for x in inner.basis), default=0.0)
        if worst > tol:
            raise StructureError(
                f"{inner_name} is not contained in {outer_name} (residual {worst:.3e})"
            )
    return SubalgebraChain(g, k, h, n)


def _complement(outer, inner):
    """Orthonormal basis of the B-orthogonal complement of inner in outer."""
    leftovers = [x - project(inner, x) for x in outer.basis]
    return orthonormalize(leftovers)


def build_split(ch, tol=USER_TOL):
    """Two-module split of a fibration chain.

    m1 is the complement of k in g and m2 the complement of h in k, so
    dim m1 + dim m2 + dim h = dim g. The bracket relations [h, mi] in mi
    and [m1, k] in m1 hold automatically for a valid chain; they are
    verified and a StructureError is raised if the input sneaks past the
    closure checks but violates them.
    """
    m1 = _complement(ch.g, ch.k)
    m2 = _complement(ch.k, ch.h)
    split = ReductiveSplit(ch.h, (m1, m2), ch.n)
    if ch.h.dim + m1.dim + m2.dim != ch.g.dim:
        raise StructureError("complement dimensions do not add up; input bases overlap")
    rep = structure_report(split, tol=tol)
    if not rep.passed:
        raise StructureError("split of chain fails validation:\n" + "\n".join(rep.lines()))
    worst = 0.0
    for x in m1.basis:
        for y in ch.k.basis:
            worst = max(worst, span_residual(m1, bracket(x, y)))
    if worst > tol:
        raise StructureError(f"[m1, k] leaves m1 (residual {worst:.3e})")
    return split


def build_custom_split(g_basis, h_basis, module_bases, tol=USER_TOL):
    """Split with caller-chosen modules m1, ..., ms.

    Each module basis is orthonormalized independently; the pieces must
    then be mutually B-orthogonal, h must be a subalgebra, the pieces
    must fill g, and each module must be ad(h)-invariant.
    """
    g = orthonormalize(g_basis)
    h = orthonormalize(h_basis)
    mods = tuple(orthonormalize(mb) for mb in module_bases)
    worst, where = _closure_residual(h)
    if worst > tol:
        raise StructureError(
            f"h basis is not closed under bracket: elements {where[0]} and "
            f"{where[1]} bracket outside the span (residual {worst:.3e})"
        )
    pieces = [("h", h)] + [(f"m{i + 1}", mod) for i, mod in enumerate(mods)]
    for idx, (name_a, a) in enumerate(pieces):
        for name_b, b in pieces[idx + 1:]:
            r = max(
                (abs(inner_b(x, y)) for x in a.basis for y in b.basis),
                default=0.0,
            )
            if r > tol:
                raise StructureError(f"{name_a} and {name_b} overlap (residual {r:.3e})")
    total = h.dim + sum(mod.dim for mod in mods)
    if total != g.dim:
        raise StructureError(
            f"pieces span dimension {total} but g has dimension {g.dim}"
        )
    for name, space in pieces:
        r = max((span_residual(g, x) for x in space.basis), default=0.0)
        if r > tol:
            raise StructureError(f"{name} is not contained in g (residual {r:.3e})")
    split = ReductiveSplit(h, mods, g.ambient)
    rep = structure_report(split, tol=tol)
    if not rep.passed:
        raise StructureError("custom split fails validation:\n" + "\n".join(rep.lines()))
    return split


def _orthogonality_residual(split):
    spaces = [split.h] + list(split.modules)
    flat = [b for sp in spaces for b in sp.basis]
    worst = 0.0
    for i, x in enumerate(flat):
        for j, y in enumerate(flat):
            target = 1.0 if i == j else 0.0
            worst = max(worst, abs(inner_b(x, y) - target))
    return worst


def _ad_invariance_residual(split):
    worst = 0.0
    for mod in split.modules:
        for z in split.h.basis:
            for x in mod.basis:
                worst = max(worst, span_residual(mod, bracket(z, x)))
    return worst


def bracket_pair_residual(split, a, b):
    """Worst residual of [x, y] off m_a over x in m_a, y in m_b (1-based)."""
    if b is None:
        return 0.0
    ma, mb = split.module(a), split.module(b)
    worst = 0.0
    for x in ma.basis:
        for y in mb.basis:
            worst = max(worst, span_residual(ma, bracket(x, y)))
    return worst


def structure_report(split, pair=None, W=None, ch=None, tol=USER_TOL):
    """Full validation report for a split.

    Optional arguments add checks: `pair` the bracket condition,
    `W` membership in the center of h, `ch` closure of the original
    chain bases.
    """
    rep = ValidationReport()
    rep.add("orthogonality", _orthogonality_residual(split), tol)
    rep.add("ad_invariance", _ad_invariance_residual(split), tol)
    if pair is not None:
        a, b = pair
        rep.add("bracket_condition", bracket_pair_residual(split, a, b), tol)
    if W is not None:
        worst = max((bnorm(bracket(W, x)) for x in split.h.basis), default=0.0)
        worst = max(worst, span_residual(split.h, W))
        rep.add("center_membership", worst, tol)
    if ch is not None:
        worst = 0.0
        for space in (ch.g, ch.k, ch.h):
            worst = max(worst, _closure_residual(space)[0])
        rep.add("chain_closure", worst, tol)
    return rep


def center_basis(split, rank_tol=1e-10):
    """Basis of the center of h, the W candidates.

    Solves [W, x] = 0 for all x in the h basis as a null-space problem
    for the stacked ad-coefficient matrices. An empty h has an empty
    center.
    """
    hb = split.h.basis
    d = len(hb)
    if d == 0:
        return Subspace(())
    rows = []
    for j in range(d):
        for l in range(d):
            rows.append([inner_b(bracket(hb[i], hb[j]), hb[l]) for i in range(d)])
    A = np.array(rows)
    _, sv, vt = np.linalg.svd(A)
    null = [vt[i] for i in range(d) if i >= len(sv) or sv[i] < rank_tol]
    vecs = [sum(c * hb[i] for i, c in enumerate(v)) for v in null]
    return orthonormalize(vecs)
