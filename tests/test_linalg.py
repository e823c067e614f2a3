"""Matrix algebra kernel: bracket, trace form, exponentials, Gram-Schmidt."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homofiber import (
    DimensionError,
    DomainError,
    Subspace,
    adjoint,
    bnorm,
    bracket,
    catalog_names,
    check_skew_hermitian,
    expm,
    get_entry,
    hopf,
    inner_b,
    orthonormalize,
    project,
    span_residual,
    twistor_su3,
)
from homofiber.linalg import Flow, brackets, span_residuals

from conftest import check_unitary, list_orthonormalize

A1 = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
A2 = np.array([[0.0, 1j], [1j, 0.0]], dtype=complex)
A3 = np.array([[1j, 0.0], [0.0, -1j]], dtype=complex)


def random_skew(rng, n):
    M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return M - M.conj().T


def test_bracket_su2_table():
    # the classic cyclic table for this basis
    assert np.allclose(bracket(A1, A2), 2.0 * A3)
    assert np.allclose(bracket(A2, A3), 2.0 * A1)
    assert np.allclose(bracket(A3, A1), 2.0 * A2)


def test_inner_b_values():
    assert inner_b(A3, A3) == pytest.approx(2.0)
    assert inner_b(A1, A1) == pytest.approx(2.0)
    assert inner_b(A1, A2) == pytest.approx(0.0)
    assert bnorm(A3) == pytest.approx(np.sqrt(2.0))


def test_bracket_shape_mismatch():
    with pytest.raises(DimensionError):
        bracket(A1, np.eye(3, dtype=complex))
    with pytest.raises(DimensionError):
        inner_b(np.zeros((2, 3)), np.zeros((3, 2)))


def test_nonfinite_rejected():
    bad = A1.copy()
    bad[0, 1] = np.nan
    with pytest.raises(DomainError):
        bnorm(bad)


@pytest.mark.parametrize("t", [0.3, 1.0, -2.7])
def test_expm_diagonal(t):
    out = expm(t * A3)
    expected = np.diag([np.exp(1j * t), np.exp(-1j * t)])
    assert np.allclose(out, expected, atol=1e-14)


def test_expm_unitary_on_skew():
    rng = np.random.default_rng(0)
    for n in (2, 3, 5):
        X = random_skew(rng, n)
        check_unitary(expm(X))


def test_flow_matches_expm():
    rng = np.random.default_rng(3)
    for n in (2, 3, 5):
        A = random_skew(rng, n)
        flow = Flow(A)
        for t in (-2.5, -0.1, 0.7, 3.0):
            assert np.abs(flow(t) - expm(t * A)).max() < 1e-13
    eye = np.eye(3, dtype=complex)
    assert np.array_equal(Flow(random_skew(rng, 3))(0.0), eye)
    assert np.array_equal(Flow(np.zeros((3, 3)))(1.7), eye)


def test_exponentials_refuse_a_non_skew_generator():
    G = np.array([[0.1, 0.7], [0.0, -0.2]], dtype=complex)
    with pytest.raises(DomainError, match=r"^X is not skew-Hermitian \(deviation 7\.000e-01\)$"):
        expm(G)
    with pytest.raises(DomainError, match=r"^X\[1\] is not skew-Hermitian"):
        Flow(np.stack([A1, G, G]))


def test_expm_against_mpmath():
    import mpmath

    mpmath.mp.dps = 40
    rng = np.random.default_rng(42)
    X = random_skew(rng, 3)
    ours = expm(X)
    M = mpmath.matrix(3, 3)
    for i in range(3):
        for j in range(3):
            M[i, j] = mpmath.mpc(X[i, j].real, X[i, j].imag)
    ref = mpmath.expm(M)
    dev = max(
        abs(complex(ref[i, j]) - ours[i, j]) for i in range(3) for j in range(3)
    )
    assert dev < 1e-13


def test_adjoint_first_order():
    # Ad(exp(sZ))X = X + s[Z,X] + O(s^2)
    rng = np.random.default_rng(1)
    Z, X = random_skew(rng, 3), random_skew(rng, 3)
    s = 1e-6
    lhs = adjoint(expm(s * Z), X)
    assert np.allclose(lhs, X + s * bracket(Z, X), atol=1e-10)


def test_check_skew_hermitian():
    check_skew_hermitian(A1)
    with pytest.raises(DomainError):
        check_skew_hermitian(np.array([[1.0, 0.0], [0.0, 1.0]]))


def _verdict(X, **kwargs):
    try:
        check_skew_hermitian(X, **kwargs)
    except DomainError as exc:
        return str(exc)
    return None


def test_stacked_skew_check_agrees_with_the_matrix_by_matrix_call():
    rng = np.random.default_rng(8)
    # exactly skew, skew to roundoff, and a Hermitian part whose deviation
    # 2c max|A| lies just inside or just outside the scale-aware tolerance
    stack = []
    for scale in (1.0, 1e6):
        A = scale * random_skew(rng, 3)
        H = np.diag([1.0, 0.0, 0.0]).astype(complex) * np.abs(A).max()
        stack += [A, A + 1e-17 * H, A + 0.4e-12 * H, A + 0.6e-12 * H]
    stack = np.array(stack)
    one = [_verdict(A, name="M") for A in stack]
    assert [v is None for v in one] == [True, True, True, False] * 2
    # each bad matrix alone names itself as the stack names it
    for i, A in enumerate(stack):
        got = _verdict(stack[i:i + 1], name="M")
        assert got == (None if one[i] is None else one[i].replace("M", "M[0]", 1))
    assert _verdict(stack, name="M") == one[3].replace("M", "M[3]", 1)
    assert _verdict(stack.reshape(2, 4, 3, 3), name="M") == one[3].replace("M", "M[0, 3]", 1)
    check_skew_hermitian(stack[[0, 1, 2, 4, 5, 6]])
    with pytest.raises(DomainError, match="X has non-finite entries"):
        check_skew_hermitian(np.where(np.eye(3) > 0, np.nan, stack[0]))


def test_orthonormalize_drops_dependent():
    S = orthonormalize([A3, 2.0 * A3])
    assert S.dim == 1
    assert np.allclose(S.basis[0], A3 / np.sqrt(2.0))


def test_orthonormalize_u2():
    vecs = [1j * np.eye(2), A1, A2, A3, A1 + 0.3 * A2]
    S = orthonormalize(vecs)
    assert S.dim == 4  # dim u(2)
    for i, x in enumerate(S.basis):
        for j, y in enumerate(S.basis):
            assert inner_b(x, y) == pytest.approx(1.0 if i == j else 0.0, abs=1e-12)


def ref_orthonormalize(vectors, rank_tol=1e-10):
    """Reference Gram-Schmidt: inner_b, with its checks, on every pair."""
    kept = []
    for v in vectors:
        u = np.asarray(v, dtype=complex).copy()
        for _ in range(2):
            for e in kept:
                u = u - inner_b(u, e) * e
        nrm = bnorm(u)
        if nrm >= rank_tol:
            kept.append(u / nrm)
    return kept


def gram(basis):
    return np.array([[inner_b(x, y) for y in basis] for x in basis])


def test_orthonormalize_matches_the_inner_b_loop_bitwise():
    # the stacked classical passes subtract the same projections as the
    # per-pair loop, summed in another order
    exact = [hopf(3).source[key] for key in ("g_basis", "k_basis", "h_basis")]
    for vecs in exact:
        got, want = orthonormalize(vecs).basis, ref_orthonormalize(vecs)
        assert len(got) == len(want)
        # tobytes also tells -0.0 from 0.0
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
    # here only zeros whose input was -0.0 may change sign
    for vecs in (twistor_su3().source["g_basis"], [A1, A1 + 1e-9 * A2, A3]):
        got, want = orthonormalize(vecs).basis, ref_orthonormalize(vecs)
        assert len(got) == len(want)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
    # random sets with dependent members: equal rank, entries within roundoff
    rng = np.random.default_rng(11)
    for n in (2, 3, 4):
        vecs = [random_skew(rng, n) for _ in range(n * n + 2)]
        vecs.append(vecs[0] - 2.0 * vecs[1])
        got, want = orthonormalize(vecs).basis, ref_orthonormalize(vecs)
        assert len(got) == len(want)
        assert all(np.abs(a - b).max() <= 1e-15 for a, b in zip(got, want))
        assert np.abs(gram(got) - np.eye(len(got))).max() <= 1e-15


def complex_cgs2(vectors, rank_tol=1e-10):
    """orthonormalize as it once ran: complex rows against the duals -e^T, trace-form norms."""
    kept, frame, duals = [], [], []
    for v in vectors:
        u = np.asarray(v, dtype=complex)
        flat = u.reshape(-1)
        if kept:
            E, D = np.array(frame), np.array(duals)
            for _ in range(2):
                flat = flat - np.real(D @ flat) @ E
        r = flat.reshape(u.shape)
        nrm = np.sqrt(max(-np.real(np.einsum("ij,ji->", r, r)), 0.0))
        if nrm >= rank_tol:
            e = r / nrm
            frame.append(e.reshape(-1))
            duals.append(-e.T.reshape(-1))
            kept.append(e)
    return kept


def exact_inputs():
    """Every basis a catalog entry or hopf(1..6) starts its split from."""
    sources = [get_entry(name).source for name in catalog_names()]
    sources += [hopf(n).source for n in range(1, 7)]
    for src in sources:
        yield src["g_basis"]
        yield src["h_basis"]
        yield from src.get("module_bases", [src.get("k_basis")])


def test_real_frame_gram_schmidt_keeps_every_bit_of_the_complex_one():
    for vecs in exact_inputs():
        got, want = orthonormalize(vecs).basis, complex_cgs2(vecs)
        assert len(got) == len(want)
        # tobytes also tells -0.0 from 0.0
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
    rng = np.random.default_rng(12)
    for n in (2, 3, 4):
        vecs = [random_skew(rng, n) for _ in range(n * n + 2)]
        vecs.append(vecs[0] - 2.0 * vecs[1])
        got, want = orthonormalize(vecs).basis, complex_cgs2(vecs)
        assert len(got) == len(want) == n * n
        assert all(np.abs(a - b).max() <= 1e-15 for a, b in zip(got, want))


def test_frame_coordinates_and_residuals_match_the_trace_form():
    rng = np.random.default_rng(13)
    for n in (2, 3, 5):
        S = orthonormalize([random_skew(rng, n) for _ in range(n + 1)])
        assert S.frame.shape == (S.dim, 2 * n * n)
        # a view of the complex rows, not a copy
        assert np.shares_memory(S.frame, S.stacked)
        X = rng.standard_normal((6, n, n)) + 1j * rng.standard_normal((6, n, n))
        want = np.array([[inner_b(x, e) for e in S.basis] for x in X])
        # the two sums run in other orders, so they agree to a few ulps of
        # the sum of absolute terms, not of a result that cancels
        terms = np.abs(X.reshape(6, -1)) @ np.abs(S.stacked).T
        assert (np.abs(S.coordinates(X) - want) <= 4 * np.spacing(terms)).all()
        skew = X - np.swapaxes(X, 1, 2).conj()
        want = np.array([bnorm(x - project(S, x)) for x in skew])
        np.testing.assert_array_max_ulp(span_residuals(S, skew), want, maxulp=4)


def test_orthonormalize_reorthogonalises_near_dependent_input():
    # A1 + 1e-k A_j loses about k digits to cancellation in one pass;
    # the second pass restores orthonormality to roundoff
    inputs = [[A1, A1 + 10.0**-k * A2, A1 + 10.0**-k * A3] for k in range(4, 10)]
    inputs.append(hopf(5).source["g_basis"])
    for vecs in inputs:
        got = orthonormalize(vecs).basis
        assert len(got) == len(ref_orthonormalize(vecs))
        assert np.abs(gram(got) - np.eye(len(got))).max() <= 1e-14


def test_orthonormalize_rejects_mixed_sizes():
    with pytest.raises(DimensionError):
        orthonormalize([A1, 1j * np.eye(3)])


def _near_threshold_candidates(rank_tol, unit):
    """Multiples of unit whose B-norms lie just below, at and just above rank_tol and rank_tol / 2."""
    scales = [c * f for c in (rank_tol, rank_tol / 2) for f in (1 - 1e-6, 1.0, 1 + 1e-6)]
    return [s * unit / bnorm(unit) for s in scales]


STACK_INPUTS = {
    "full rank": [A1, A2, A3],
    "hopf(3) g": list(hopf(3).source["g_basis"]),
    "rank deficient": [A1, A2, A1 + A2, 2.0 * A2, np.zeros((2, 2), complex), A3, A1 - A3],
    "near the drop thresholds": [*_near_threshold_candidates(1e-10, A3), A1,
                                 *_near_threshold_candidates(1e-10, A3), A2],
    "near dependent": [A1, A1 + 1e-9 * A2, A2 + 3e-11 * A3, A3],
}
# exact input, on which the inner_b loop divides to the same bits
INNER_B_EXACT = {"full rank", "hopf(3) g", "rank deficient", "near dependent"}


@pytest.mark.parametrize("rank_tol", [1e-10, 1e-3])
@pytest.mark.parametrize("name", STACK_INPUTS)
def test_orthonormalize_takes_a_stack_bitwise(name, rank_tol):
    # a stack, the list it came from and CGS2 over every candidate keep the
    # same rows, bit for bit: candidates below rank_tol / 2, dropped before
    # the loop, are exactly the ones the loop would drop
    vecs = STACK_INPUTS[name]
    if rank_tol != 1e-10:
        vecs = vecs + _near_threshold_candidates(rank_tol, vecs[-1])
    stacked = orthonormalize(np.stack(vecs), rank_tol=rank_tol)
    listed = orthonormalize(vecs, rank_tol=rank_tol)
    every = list_orthonormalize(vecs, rank_tol=rank_tol)
    want = ref_orthonormalize(vecs, rank_tol=rank_tol)
    assert stacked.dim == listed.dim == every.dim == len(want)
    bits = [b.tobytes() for b in every.basis]
    assert [b.tobytes() for b in stacked.basis] == [b.tobytes() for b in listed.basis] == bits
    if name in INNER_B_EXACT and rank_tol == 1e-10:
        assert all(np.array_equal(a, b) for a, b in zip(stacked.basis, want))
    else:  # the inner_b loop divides by a complex norm, rounding twice
        assert all(np.abs(a - b).max() <= 1e-15 for a, b in zip(stacked.basis, want))
    # the frame is the Gram-Schmidt rows themselves, not a re-stacked copy
    assert np.shares_memory(stacked.frame, stacked.basis[0])
    assert stacked.stacked.tobytes() == np.array(stacked.basis).tobytes()


def test_orthonormalize_drops_tiny_candidates_before_the_loop():
    unit = A3 / bnorm(A3)
    below = orthonormalize(np.stack([A1, 0.49e-10 * unit]))
    above = orthonormalize(np.stack([A1, 0.51e-10 * unit, 1.01e-10 * unit]))
    assert below.dim == 1
    assert above.dim == 2 and np.abs(above.basis[1] - unit).max() <= 1e-15


def test_block_bases_skip_gram_schmidt_and_su3_runs_it(monkeypatch):
    # one CGS2 iteration per candidate row the loop receives: every basis of
    # hopf(3), 61 candidates, is made of matrix units with disjoint supports,
    # while su(3)'s diagonal directions share entries in g, k and h
    from homofiber import linalg, split

    iterations, candidates = [], []
    cgs2 = linalg._cgs2

    def counting_cgs2(F, rank_tol):
        iterations.append(len(F))
        return cgs2(F, rank_tol)

    def spy(vectors):
        candidates.append(len(vectors))
        return orthonormalize(vectors)

    monkeypatch.setattr(linalg, "_cgs2", counting_cgs2)
    monkeypatch.setattr(split, "orthonormalize", spy)
    hopf(3)
    assert (sum(candidates), iterations) == (61, [])
    twistor_su3()
    assert iterations == [8, 4, 2]


def _disjoint_rows(data):
    """A (k, 2n^2) real stack whose rows share no nonzero column, and its n.

    Each column holds at most one nonzero, in the row that owns it; every
    other entry is +0.0 or -0.0. A row then keeps its norm or is scaled to
    just below, at or just above rank_tol or rank_tol / 2.
    """
    n = data.draw(st.integers(1, 4), label="n")
    m = 2 * n * n
    k = data.draw(st.integers(1, m), label="k")
    owners = data.draw(st.lists(st.integers(-1, k - 1), min_size=m, max_size=m), label="owners")
    values = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e3, 1e3, allow_subnormal=False))
    negative = data.draw(st.integers(0, 2 ** (k * m) - 1), label="negative zeros")
    R = np.array([-0.0 if negative >> i & 1 else 0.0 for i in range(k * m)]).reshape(k, m)
    for j, owner in enumerate(owners):
        if owner >= 0:
            R[owner, j] = data.draw(values)
    tol = 1e-10
    norms = [None, 1.0, 1e-12] + [c * f for c in (tol, tol / 2) for f in (1 - 1e-6, 1.0, 1 + 1e-6)]
    for row in R:
        target, size = data.draw(st.sampled_from(norms)), math.sqrt(row @ row)
        if target is not None and size > 0.0:
            row *= target / size
    return R, n


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_disjoint_supports_skip_cgs2_and_keep_its_bits(data):
    from unittest import mock

    from homofiber import linalg

    R, n = _disjoint_rows(data)
    V = R.view(complex).reshape(len(R), n, n)
    want = list_orthonormalize(V)
    with mock.patch.object(linalg, "_cgs2", side_effect=AssertionError("CGS2 ran")):
        got = [orthonormalize(V), orthonormalize(list(V))]
    for S in got:
        assert S.dim == want.dim
        assert S.basis.tobytes() == want.basis.tobytes()


@pytest.mark.parametrize(
    "stack",
    [np.zeros((3, 2, 3)), np.zeros((2, 3)), np.zeros((2, 2, 2, 2)), np.full((2, 2, 2), np.nan)],
    ids=["not square", "vectors", "rank 3 entries", "not finite"],
)
def test_orthonormalize_stack_errors_match_the_list(stack):
    with pytest.raises((DimensionError, DomainError)) as from_list:
        orthonormalize(list(stack))
    with pytest.raises(from_list.type) as from_stack:
        orthonormalize(stack)
    assert str(from_stack.value) == str(from_list.value)


def test_orthonormalize_of_an_empty_stack_is_empty():
    for stack in (np.zeros((0, 2, 2), complex), np.zeros((3, 2, 2), complex)):
        S = orthonormalize(stack)
        assert (S.dim, S.ambient, S.basis.shape) == (0, 2, (0, 2, 2))
    # an empty list carries no matrix size
    with pytest.raises(DimensionError, match="empty list"):
        orthonormalize([])


def test_project_and_residual():
    S = orthonormalize([A1, A2])
    X = 0.7 * A1 - 1.1 * A2 + 0.5 * A3
    P = project(S, X)
    assert np.allclose(P, 0.7 * A1 - 1.1 * A2)
    assert span_residual(S, X) == pytest.approx(0.5 * bnorm(A3))
    assert span_residual(S, A1) < 1e-15


def test_project_matches_explicit_sum():
    # the frame product equals the definition sum_e B(X, e) e on a
    # random orthonormalized subspace of u(3)
    rng = np.random.default_rng(5)
    S = orthonormalize([random_skew(rng, 3) for _ in range(4)])
    assert S.dim == 4
    for _ in range(5):
        X = random_skew(rng, 3)
        explicit = sum(inner_b(X, e) * e for e in S.basis)
        assert np.allclose(project(S, X), explicit, rtol=0.0, atol=1e-13)
        assert span_residual(S, X) == pytest.approx(bnorm(X - explicit), abs=1e-13)


def test_project_rejects_bad_operands():
    S = orthonormalize([A1, A2])
    bad = A3.copy()
    bad[1, 0] = np.nan
    for fn in (project, span_residual):
        with pytest.raises(DimensionError):
            fn(S, np.zeros((3, 3), dtype=complex))
        with pytest.raises(DomainError):
            fn(S, bad)


def test_zero_norms_are_positive_zero():
    # the clamp in bnorm and span_residuals must not leave a -0.0 behind
    S = orthonormalize([A1, A2])
    zero = np.zeros((2, 2), dtype=complex)
    assert math.copysign(1.0, bnorm(zero)) == 1.0
    assert math.copysign(1.0, span_residual(S, A1 - A1)) == 1.0
    assert math.copysign(1.0, span_residual(Subspace(np.zeros((0, 2, 2), complex)), zero)) == 1.0
    assert all(math.copysign(1.0, r) == 1.0 for r in span_residuals(S, [zero, A1]))


def test_stacked_kernels_match_single_matrix_forms():
    rng = np.random.default_rng(11)
    S = orthonormalize([random_skew(rng, 3) for _ in range(3)])
    X = random_skew(rng, 3)
    stack = brackets(X, S)
    assert stack.shape == (3, 3, 3)
    for E, e in zip(stack, S.basis):
        assert np.array_equal(E, bracket(X, e))
    residuals = span_residuals(S, stack)
    assert residuals.max() > 0.1
    for r, E in zip(residuals, stack):
        assert r == pytest.approx(span_residual(S, E), rel=0.0, abs=1e-14)
    # the one-matrix case is span_residual itself, bit for bit
    assert span_residuals(S, [X])[0] == span_residual(S, X)
    assert span_residuals(S, np.zeros((0, 3, 3))).shape == (0,)
    assert brackets(X, Subspace(S.basis[:0])).shape == (0, 3, 3)
    with pytest.raises(DimensionError):
        brackets(A1, S)
    with pytest.raises(DimensionError):
        span_residuals(S, [A1])


def test_empty_subspace():
    # an empty subspace keeps its n: it projects to +0.0 zeros and refuses other sizes
    S = Subspace(np.zeros((0, 2, 2), complex))
    assert S.dim == 0 and S.ambient == 2
    assert S.stacked.shape == (0, 4) and S.frame.shape == (0, 8)
    P = project(S, A1)
    assert P.shape == (2, 2) and not P.view(float).any() and not np.signbit(P.view(float)).any()
    assert S.coordinates(A1).shape == (0,)
    assert span_residual(S, A1) == pytest.approx(bnorm(A1))
    with pytest.raises(DimensionError):
        project(S, np.zeros((3, 3), complex))


coeff = st.floats(
    min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False
)


@settings(max_examples=50, deadline=None)
@given(st.lists(coeff, min_size=6, max_size=6))
def test_bracket_antisymmetric_and_jacobi(cs):
    X = cs[0] * A1 + cs[1] * A2 + cs[2] * A3
    Y = cs[3] * A1 + cs[4] * A2 + cs[5] * A3
    assert np.allclose(bracket(X, Y), -bracket(Y, X))
    J = (
        bracket(X, bracket(Y, A1))
        + bracket(Y, bracket(A1, X))
        + bracket(A1, bracket(X, Y))
    )
    assert np.max(np.abs(J)) < 1e-9 * max(1.0, np.max(np.abs(X)) * np.max(np.abs(Y)))


@settings(max_examples=50, deadline=None)
@given(st.lists(coeff, min_size=9, max_size=9))
def test_inner_b_ad_invariant(cs):
    # B([Z,X],Y) + B(X,[Z,Y]) = 0
    X = cs[0] * A1 + cs[1] * A2 + cs[2] * A3
    Y = cs[3] * A1 + cs[4] * A2 + cs[5] * A3
    Z = cs[6] * A1 + cs[7] * A2 + cs[8] * A3
    scale = max(1.0, bnorm(X) * bnorm(Y) * bnorm(Z))
    assert abs(inner_b(bracket(Z, X), Y) + inner_b(X, bracket(Z, Y))) < 1e-9 * scale


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_orthonormalize_returns_orthonormal(seed):
    rng = np.random.default_rng(seed)
    vecs = [random_skew(rng, 3) for _ in range(rng.integers(1, 7))]
    S = orthonormalize(vecs)
    G = np.array([[inner_b(x, y) for y in S.basis] for x in S.basis])
    assert np.allclose(G, np.eye(S.dim), atol=1e-10)
    # every input is reproduced by its projection
    for v in vecs:
        assert span_residual(S, v) < 1e-8 * max(1.0, bnorm(v))
