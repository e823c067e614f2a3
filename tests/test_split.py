"""Reductive splits: chains, complements, validators, centers."""

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import homofiber.split as split_module
from homofiber import (
    StructureError,
    Subspace,
    bnorm,
    bracket,
    build_custom_split,
    build_split,
    catalog_names,
    center_basis,
    chain,
    get_entry,
    hopf,
    inner_b,
    lie_group,
    orthonormalize,
    project,
    span_residual,
    structure_report,
    twistor_su3,
)
from homofiber.catalog import _u_basis
from homofiber.linalg import brackets, span_residuals
from homofiber.split import (
    USER_TOL,
    ReductiveSplit,
    _block_algebra,
    _bracket_residuals,
    _closure_residual,
    report_lines,
    require,
)

# Reference definitions: the validators written as plain loops over basis
# elements, one bracket and one residual at a time. The stacked kernels
# in the package must reproduce them on inputs whose residuals are not 0.


def ref_closure(space):
    worst, where = 0.0, None
    for i, x in enumerate(space.basis):
        for j, y in enumerate(space.basis[i + 1:], start=i + 1):
            r = span_residual(space, bracket(x, y))
            if r > worst:
                worst, where = r, (i, j)
    return worst, where


def ref_pair(split, a, b):
    ma, mb = split.module(a), split.module(b)
    return max(span_residual(ma, bracket(x, y)) for x in ma.basis for y in mb.basis)


def ref_orthogonality(split):
    flat = [b for sp in (split.h,) + split.modules for b in sp.basis]
    return max(
        abs(inner_b(x, y) - (1.0 if i == j else 0.0))
        for i, x in enumerate(flat)
        for j, y in enumerate(flat)
    )


def ref_ad_invariance(split):
    return max(
        (span_residual(mod, bracket(z, x))
         for mod in split.modules for z in split.h.basis for x in mod.basis),
        default=0.0,
    )


def ref_center_membership(split, W):
    worst = max((bnorm(bracket(W, x)) for x in split.h.basis), default=0.0)
    return max(worst, span_residual(split.h, W))


def ref_center_basis(split, rank_tol=1e-10):
    hb = split.h.basis
    d = len(hb)
    if d == 0:
        return split.h
    rows = []
    for j in range(d):
        for l in range(d):
            rows.append([inner_b(bracket(hb[i], hb[j]), hb[l]) for i in range(d)])
    _, sv, vt = np.linalg.svd(np.array(rows))
    null = [vt[i] for i in range(d) if i >= len(sv) or sv[i] < rank_tol]
    return orthonormalize([sum(c * hb[i] for i, c in enumerate(v)) for v in null])


def _E(n, j, l):
    M = np.zeros((n, n), dtype=complex)
    M[j, l] = 1.0
    return M


def su3_root_modules():
    """The three off-diagonal root planes of su(3)."""
    mods = []
    for j, l in ((0, 1), (1, 2), (0, 2)):
        mods.append(
            [
                (_E(3, j, l) - _E(3, l, j)) / np.sqrt(2.0),
                1j * (_E(3, j, l) + _E(3, l, j)) / np.sqrt(2.0),
            ]
        )
    return mods


def torus_basis():
    return [
        1j * np.diag([1.0, -1.0, 0.0]) / np.sqrt(2.0),
        1j * np.diag([1.0, 1.0, -2.0]) / np.sqrt(6.0),
    ]


def su3_basis():
    out = [M for mod in su3_root_modules() for M in mod]
    return out + torus_basis()


def test_hopf_chain_dims():
    entry = hopf(1)
    assert entry.split.dims == (2, 1)
    assert entry.split.h.dim == 1
    assert entry.split.m.dim == 3


def test_build_split_orthogonality():
    split = hopf(2).split
    rep = structure_report(split)
    assert max(rep.values()) < 1e-12


def test_chain_rejects_non_closed_basis():
    # span{A1} alone is fine, but {A1, A2} brackets into A3
    a1 = np.array([[0, 1], [-1, 0]], dtype=complex)
    a2 = np.array([[0, 1j], [1j, 0]], dtype=complex)
    a3 = np.array([[1j, 0], [0, -1j]], dtype=complex)
    with pytest.raises(StructureError, match="not closed"):
        chain([a1, a2, a3], [a1, a2], [])
    # the message names the first worst pair i < j, as the reference loop does
    a4 = 1j * np.eye(2)
    for k_basis in ([a1, a2], [a4, a1, a2], [a1, a4, a2 + a4]):
        worst, (i, j) = ref_closure(orthonormalize(k_basis))
        assert worst > 0.1
        with pytest.raises(StructureError) as exc:
            chain([a1, a2, a3, a4], k_basis, [])
        got = re.search(r"elements (\d+) and (\d+) .*residual ([0-9.e+-]+)", str(exc.value))
        assert (int(got[1]), int(got[2])) == (i, j)
        assert got[3] == f"{worst:.3e}"


def test_chain_rejects_non_nested():
    # every level is a subalgebra, but h is not inside k
    a1 = np.array([[0, 1], [-1, 0]], dtype=complex)
    a2 = np.array([[0, 1j], [1j, 0]], dtype=complex)
    a3 = np.array([[1j, 0], [0, -1j]], dtype=complex)
    with pytest.raises(StructureError, match="not contained"):
        chain([a1, a2, a3], [a3], [a1])


def test_custom_split_su3_roots():
    split = build_custom_split(su3_basis(), torus_basis(), su3_root_modules())
    assert split.dims == (2, 2, 2)
    assert max(structure_report(split).values()) <= USER_TOL


def test_custom_split_completeness_error():
    mods = su3_root_modules()
    with pytest.raises(StructureError, match="dimension"):
        build_custom_split(su3_basis(), torus_basis(), mods[:2])


def test_custom_split_h_not_subalgebra():
    mods = su3_root_modules()
    with pytest.raises(StructureError, match="not closed"):
        # a root plane brackets into the torus
        build_custom_split(su3_basis(), mods[0], [mods[1], mods[2], torus_basis()])


def test_custom_split_overlapping_modules():
    mods = su3_root_modules()
    with pytest.raises(StructureError, match="overlap"):
        build_custom_split(
            su3_basis(), torus_basis(), [mods[0], mods[0], mods[2]]
        )


def test_pair_check_direction_matters():
    split = hopf(1).split
    ok = structure_report(split, pair=(1, 2))
    assert max(ok.values()) <= USER_TOL
    swapped = structure_report(split, pair=(2, 1))
    # [m2, m1] lands back in m1, which is not inside m2
    assert swapped["bracket_condition"] > 0.1
    assert swapped["bracket_condition"] == pytest.approx(
        ref_pair(split, 2, 1), rel=0.0, abs=1e-14
    )


def test_pair_check_vacuous_without_b():
    split = hopf(1).split
    assert structure_report(split, pair=(1, None))["bracket_condition"] == 0.0


def test_root_module_pairs_fail():
    split = build_custom_split(su3_basis(), torus_basis(), su3_root_modules())
    # no ordered pair of distinct root planes closes into the first
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            if a != b:
                report = structure_report(split, pair=(a, b))
                assert report["bracket_condition"] > USER_TOL
                assert report["bracket_condition"] == pytest.approx(
                    ref_pair(split, a, b), rel=0.0, abs=1e-14
                )


def test_report_matches_reference_loops_off_the_structure():
    # mixed root planes are neither ad(h)-invariant nor orthonormal, and
    # a root vector is not in h: every residual is far from zero
    mods = su3_root_modules()
    h = orthonormalize(torus_basis())
    bad = ReductiveSplit(
        orthonormalize(su3_basis()),
        h,
        (
            Subspace(np.array([mods[0][0], mods[1][0]])),
            Subspace(np.array([mods[0][0] + mods[2][1], mods[1][1]])),
        ),
    )
    W = mods[2][0] + torus_basis()[0]
    rep = structure_report(bad, pair=(1, 2), W=W)
    want = {
        "orthogonality": ref_orthogonality(bad),
        "ad_invariance": ref_ad_invariance(bad),
        "bracket_condition": ref_pair(bad, 1, 2),
        "center_membership": ref_center_membership(bad, W),
    }
    for name, value in want.items():
        assert value > 0.1
        assert rep[name] == pytest.approx(value, rel=0.0, abs=1e-14)


def _row_stacked_residuals(target, A, B):
    """Reference for _bracket_residuals: one stack per basis element x of A."""
    rows = [span_residuals(target, brackets(x, B)) for x in A.basis]
    return np.array(rows).reshape(A.dim, B.dim)


def test_all_pair_residuals_match_row_stacks(monkeypatch):
    # On catalog splits one stack over all basis pairs gives every residual
    # the bits it had with a stack per row, so validate output does not move.
    splits = [hopf(1).split, hopf(3).split, twistor_su3().split, lie_group().split]
    splits.append(build_custom_split(su3_basis(), torus_basis(), su3_root_modules()))
    for split in splits:
        spaces = (split.h,) + split.modules
        for target, A, B in itertools.product(spaces, repeat=3):
            want = _row_stacked_residuals(target, A, B)
            assert _bracket_residuals(target, A, B).tobytes() == want.tobytes()
    # On generic subspaces the matrix products run in larger batches and a
    # residual can move by an ulp.
    rng = np.random.default_rng(5)
    M = rng.standard_normal((9, 3, 3)) + 1j * rng.standard_normal((9, 3, 3))
    skew = list(M - np.swapaxes(M.conj(), 1, 2))
    generic = (orthonormalize(skew[:2]), orthonormalize(skew[2:5]), orthonormalize(skew[5:]))
    for target, A, B in itertools.product(generic, repeat=3):
        got, want = _bracket_residuals(target, A, B), _row_stacked_residuals(target, A, B)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15)
    # A block below one row's worth of entries falls back to a stack per row.
    monkeypatch.setattr(split_module, "PAIR_BLOCK", 1)
    for target, A, B in itertools.product(generic, repeat=3):
        want = _row_stacked_residuals(target, A, B)
        assert _bracket_residuals(target, A, B).tobytes() == want.tobytes()


def _random_skew(rng, k, n):
    M = rng.standard_normal((k, n, n)) + 1j * rng.standard_normal((k, n, n))
    return M - np.swapaxes(M.conj(), 1, 2)


def swept_closure(space):
    """_closure_residual without the block-algebra certificate: all d^2 ordered pairs, cut to i < j."""
    r = np.triu(_bracket_residuals(space, space, space), 1)
    worst = r.max(initial=0.0)
    return worst, divmod(int(np.argmax(r)), space.dim) if worst > 0 else None


def _catalog_spaces():
    """(entry name, subspace) over the chain, h and modules of the catalog, hopf(4) and hopf(5)."""
    for entry in [get_entry(name) for name in catalog_names()] + [hopf(4), hopf(5)]:
        ch = entry.chain
        spaces = (ch.g, ch.k, ch.h) if ch is not None else ()
        for space in spaces + (entry.split.h,) + entry.split.modules:
            yield entry.name, space


def test_catalog_chains_are_certified_and_modules_are_swept():
    certified = {}
    for name, space in _catalog_spaces():
        certified.setdefault(name, []).append(_block_algebra(space))
        worst, where = swept_closure(space)
        if _block_algebra(space):
            assert worst <= 1e-15 and _closure_residual(space) == (0.0, None), name
        else:
            assert _closure_residual(space) == (worst, where), name
    # g, k, h and split.h of each chain; m1 is no block pattern, m2 is one
    # when it is a single diagonal direction (the hopf fiber, su2's circle)
    assert certified == {
        "hopf:1": [True, True, True, True, False, True],
        "hopf:2": [True, True, True, True, False, True],
        "hopf:3": [True, True, True, True, False, True],
        "su2": [True, True, True, True, False, True],
        "kahler_s2": [True, False],
        "twistor_su3": [True, True, True, True, False, False],
        "hopf:4": [True, True, True, True, False, True],
        "hopf:5": [True, True, True, True, False, True],
    }


def _pattern_basis(labels, traceless):
    """A basis of u_Q, or of its traceless part, for the block pattern Q of labels.

    Indices of one label form a block, and label -1 marks an inactive
    index; the basis is that of u(n) restricted to Q, its diagonal
    units replaced by their consecutive differences when traceless.
    """
    n = len(labels)
    same = [[labels[i] == labels[j] != -1 for j in range(n)] for i in range(n)]
    mats = [e for e in _u_basis(n) if all(same[i][j] for i, j in zip(*np.nonzero(e)))]
    if traceless:
        diag = [e for e in mats if np.count_nonzero(e) == 1]
        mats = [e for e in mats if np.count_nonzero(e) > 1]
        mats += [(a - b) / np.sqrt(2) for a, b in zip(diag, diag[1:])]
    return mats


@settings(max_examples=200, deadline=None)
@given(
    labels=st.lists(st.integers(-1, 2), min_size=1, max_size=5),
    traceless=st.booleans(),
    drop=st.integers(0, 2),
    extra=st.sampled_from(["none", "basis", "skew"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_certified_closure_is_closed(labels, traceless, drop, extra, seed):
    # a rotated basis of a random block algebra or its traceless part,
    # less up to two elements, plus maybe a u(n) basis or random skew matrix
    rng = np.random.default_rng(seed)
    n = len(labels)
    mats = _pattern_basis(labels, traceless)
    mats = [mats[i] for i in sorted(rng.permutation(len(mats))[drop:])]
    if extra == "basis":
        mats.append(_u_basis(n)[rng.integers(n * n)])
    elif extra == "skew":
        mats.append(_random_skew(rng, 1, n)[0])
    R, _ = np.linalg.qr(rng.standard_normal((len(mats), len(mats))))
    space = orthonormalize(np.einsum("ij,jkl->ikl", R, np.array(mats).reshape(-1, n, n)))
    worst, where = swept_closure(space)
    if _block_algebra(space):
        assert worst <= 1e-14 and _closure_residual(space) == (0.0, None)
    else:
        assert _closure_residual(space) == (worst, where)
    if not (traceless or drop) and extra == "none":
        assert _block_algebra(space)  # a rotated basis of u_Q


def test_near_block_algebras_are_swept():
    # dim count(Q) - 1 without a zero trace: i diag(1, 0), i diag(0, 1)
    # and one rotation span no algebra, and the sweep says so
    u2 = _u_basis(2)
    space = orthonormalize(u2[[0, 1, 2]])
    assert not _block_algebra(space)
    worst, where = _closure_residual(space)
    assert worst > 0.5 and (worst, where) == swept_closure(space)
    with pytest.raises(StructureError, match="g basis is not closed under bracket"):
        chain(u2[[0, 1, 2]], u2[:0], u2[:0])
    # a Hermitian part of 1e-13 on a rotated u(2) basis
    R, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((4, 4)))
    rotated = np.einsum("ij,jkl->ikl", R, u2)
    assert _block_algebra(orthonormalize(rotated))
    rotated[1] += 1e-13 * np.array([[1.0, 1j], [-1j, 0.0]])
    space = orthonormalize(rotated)
    assert not _block_algebra(space)
    assert _closure_residual(space) == swept_closure(space)


def test_closure_pair_stacks_stay_within_the_block(monkeypatch):
    space = orthonormalize(_random_skew(np.random.default_rng(1), 6, 3))
    want, (want_worst, want_where) = _bracket_residuals(space, space, space), _closure_residual(space)
    sizes = []
    real = split_module.span_residuals
    monkeypatch.setattr(split_module, "span_residuals", lambda S, M: sizes.append(len(M)) or real(S, M))
    monkeypatch.setattr(split_module, "PAIR_BLOCK", 4 * 6 * 9)
    np.testing.assert_allclose(_bracket_residuals(space, space, space), want, rtol=0.0, atol=1e-15)
    assert sizes == [24, 12]  # 6 x 6 pairs, rows of 6 matrices of 9 entries, 4 rows per stack
    sizes.clear()
    worst, where = _closure_residual(space)
    assert sizes == [24, 12] and worst > 0.1 and where == want_where
    assert abs(worst - want_worst) <= 1e-15


def _trace_of_square_residuals(S, M):
    """span_residuals as it once took each norm, from the product R @ R."""
    k, n = M.shape[0], M.shape[-1]
    flat = M.reshape(k, n * n)
    if S.dim:
        dual = -np.swapaxes(S.basis, 1, 2).reshape(S.dim, n * n)
        flat = flat - np.real(dual @ flat.T).T @ S.stacked
    R = flat.reshape(k, n, n)
    return np.sqrt(np.maximum(-np.real(np.trace(R @ R, axis1=1, axis2=2)), 0.0)) + 0.0


def test_span_residuals_takes_the_norm_without_the_product():
    rng = np.random.default_rng(11)
    for n in (2, 3, 5):
        for k in (0, 1, 3):
            S = orthonormalize(_random_skew(rng, k, n))
            M = _random_skew(rng, 7, n)
            np.testing.assert_array_max_ulp(
                span_residuals(S, M), _trace_of_square_residuals(S, M), maxulp=4
            )
    # members whose remainder is exactly zero read +0.0, not -0.0
    g = hopf(2).chain.g
    members = np.concatenate([g.basis[:3], np.zeros((2, 3, 3))])
    for S in (g, Subspace(g.basis[:0])):
        M = members if S.dim else members[3:]
        r = span_residuals(S, M)
        assert not r.any() and not np.signbit(r).any()


def test_complements_keep_every_bit_of_the_complex_gram_schmidt():
    from test_linalg import complex_cgs2
    entries = [get_entry(name) for name in catalog_names()] + [hopf(n) for n in range(1, 7)]
    chains = [(e.chain, e.split) for e in entries if e.chain is not None]
    assert len(chains) == 11
    for ch, split in chains:
        for outer, inner, module in ((ch.g, ch.k, split.module(1)), (ch.k, ch.h, split.module(2))):
            X = outer.basis
            got, want = module.basis, complex_cgs2(X - project(inner, X))
            assert len(got) == len(want) == outer.dim - inner.dim
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))


def test_gram_of_the_real_frame_is_the_trace_form_gram():
    for name in catalog_names():
        split = get_entry(name).split
        flat = np.concatenate([split.h.basis, split.m.basis])
        want = np.array([[inner_b(x, y) for y in flat] for x in flat])
        np.testing.assert_allclose(split.gram, want, rtol=0.0, atol=1e-15)
    empty = Subspace(np.zeros((0, 2, 2), complex))
    split = ReductiveSplit(empty, empty, ())
    assert split.gram.shape == (0, 0) and split.n == 2


@pytest.mark.parametrize("split, dim", [(twistor_su3().split, 2), (lie_group().split, 0)])
def test_center_basis_matches_reference(split, dim):
    z, ref = center_basis(split), ref_center_basis(split)
    assert z.dim == ref.dim == dim
    for W in ref.basis:
        assert span_residual(z, W) < 1e-12


def test_center_of_torus_is_torus():
    split = twistor_su3().split
    z = center_basis(split)
    assert z.dim == 2
    for W in z.basis:
        assert max(np.max(np.abs(bracket(W, h))) for h in split.h.basis) < 1e-12


def test_center_of_simple_isotropy_is_trivial():
    # su(2) embedded in su(3) has no center
    su2_in_su3 = [
        (_E(3, 0, 1) - _E(3, 1, 0)) / np.sqrt(2),
        1j * (_E(3, 0, 1) + _E(3, 1, 0)) / np.sqrt(2),
        1j * np.diag([1.0, -1.0, 0.0]) / np.sqrt(2),
    ]
    rest = []
    for j, l in ((1, 2), (0, 2)):
        rest += [
            (_E(3, j, l) - _E(3, l, j)) / np.sqrt(2),
            1j * (_E(3, j, l) + _E(3, l, j)) / np.sqrt(2),
        ]
    rest.append(1j * np.diag([1.0, 1.0, -2.0]) / np.sqrt(6))
    split = build_custom_split(su2_in_su3 + rest, su2_in_su3, [rest])
    assert center_basis(split).dim == 0


def test_center_of_trivial_isotropy_is_empty():
    from homofiber import lie_group

    assert center_basis(lie_group().split).dim == 0


def test_hopf_center_contains_w():
    entry = hopf(2)
    z = center_basis(entry.split)
    assert z.dim >= 1
    assert span_residual(z, entry.W / np.sqrt(inner_b(entry.W, entry.W))) < 1e-10


def test_module_accessor_bounds():
    split = hopf(1).split
    with pytest.raises(IndexError):
        split.module(0)
    with pytest.raises(IndexError):
        split.module(3)


def test_report_lines_format():
    rep = structure_report(hopf(1).split, pair=(1, 2), W=hopf(1).W)
    assert all(type(r) is float for r in rep.values())
    lines = report_lines(rep, USER_TOL)
    assert len(lines) == len(rep)
    assert all(line.startswith("PASS") for line in lines)
    assert report_lines({"b": 2e-11, "a": float("nan"), "c": 1e-11}, 1e-11) == [
        "FAIL  a                    residual nan",
        "FAIL  b                    residual 2.000e-11",
        "PASS  c                    residual 1.000e-11",
    ]


def test_require_judges_every_residual_and_nan_fails():
    require({"a": 1e-11, "b": 0.0}, 1e-11, "split")
    require({}, 1e-11, "split")
    for bad in (2e-11, float("nan")):
        with pytest.raises(StructureError) as exc:
            require({"a": 0.0, "b": bad}, 1e-11, "custom split")
        assert str(exc.value) == "custom split fails validation:\n" + "\n".join(
            report_lines({"a": 0.0, "b": bad}, 1e-11)
        )
