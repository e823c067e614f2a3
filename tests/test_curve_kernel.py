"""The curve's kernel: `Flow.times`, `Flow.adjoint` and the motion methods built on them.

`linalg._phased_products` runs a grid as 2-D BLAS products whose rows
run along the grid. A one-point grid must give the row of a long grid
bit for bit; no product may have one row; every row of the result must
be written; and the curve must agree with the einsum flows it replaced
and with scipy's expm to 1e-12 max(1, rho |t|), rho the largest
|eigenvalue| of X and Y.
"""

import numpy as np
import pytest

from homofiber import build_motion, perturb_motion
from homofiber.linalg import Flow, _conjugate, mul
from conftest import einsum_representative, einsum_transport, named_entry, seeded_unit_pair, system_for

scipy_linalg = pytest.importorskip("scipy.linalg")

NAMES = ("hopf:1", "hopf:2", "hopf:3", "su2", "kahler_s2", "twistor_su3", "hopf:4", "hopf:5", "hopf:6")


def random_skew(rng, n):
    M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return M - M.conj().T


def assert_rows_are_one_point_values(f, rng):
    for T in (2, 3, 64, 801):
        ts = rng.uniform(-50.0, 50.0, T)
        full = f(ts)
        for i in sorted({0, 1, T // 2, T - 2, T - 1}):
            assert np.array_equal(full[i], f(ts[i:i + 1])[0]), (T, i)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 11])
def test_one_point_grids_are_rows_of_long_grids(n):
    rng = np.random.default_rng(n)
    fx, fy = Flow(random_skew(rng, n)), Flow(random_skew(rng, n))
    pair = np.stack([random_skew(rng, n), random_skew(rng, n)])
    assert_rows_are_one_point_values(lambda t: fx.times(fy, t), rng)
    assert_rows_are_one_point_values(lambda t: fy.adjoint(t, pair[0]), rng)
    assert_rows_are_one_point_values(lambda t: fy.adjoint(t, pair), rng)


@pytest.mark.parametrize("name", ["hopf:1", "hopf:2", "hopf:3", "hopf:10"])
def test_motion_values_at_one_point_are_rows_of_long_grids(name):
    sys = system_for(named_entry(name), ratio=2.0, k=1.0)
    motion = build_motion(sys, *seeded_unit_pair(sys, np.random.default_rng(7)))
    rng = np.random.default_rng(8)
    for m in (motion, perturb_motion(motion)):  # the exact and the damaged branch
        assert_rows_are_one_point_values(m.representative, rng)
        for part in (0, 1):
            assert_rows_are_one_point_values(lambda t: m.transport(t)[part], rng)


@pytest.mark.parametrize("n", [21, 26, 40])
def test_every_row_of_a_short_grid_is_written_at_large_n(n):
    rng = np.random.default_rng(n)
    fx, fy = Flow(random_skew(rng, n)), Flow(random_skew(rng, n))
    pair = np.stack([random_skew(rng, n), random_skew(rng, n)])
    for T in (2, 3):
        ts = rng.uniform(-5.0, 5.0, T)
        rho = max(fx.rate, fy.rate)
        bound = 1e-12 * np.maximum(1.0, rho * np.abs(ts))
        alpha, ad = fx.times(fy, ts), fy.adjoint(ts, pair)
        G = fy(ts)
        want_ad = np.stack([_conjugate(G, pair[0]), _conjugate(G, pair[1])], axis=1)
        assert np.all(np.abs(alpha - mul(fx(ts), G)).max(axis=(1, 2)) <= bound), T
        assert np.all(np.abs(ad - want_ad).max(axis=(2, 3)) <= bound[:, None]), T
        for i in range(T):
            assert np.array_equal(alpha[i], fx.times(fy, ts[i:i + 1])[0]), (T, i)
            assert np.array_equal(ad[i], fy.adjoint(ts[i:i + 1], pair)[0]), (T, i)


def test_the_grid_runs_along_the_rows_of_every_product(monkeypatch):
    shapes = []
    matmul = np.matmul

    def spy(a, b, out=None):
        shapes.append((a.shape, b.shape))
        return matmul(a, b, out=out)

    rng = np.random.default_rng(3)
    for n in (1, 2, 3, 4, 11, 26, 40):
        fx, fy = Flow(random_skew(rng, n)), Flow(random_skew(rng, n))
        pair = np.stack([random_skew(rng, n), random_skew(rng, n)])
        for T in (1, 2, 5, 800):
            ts = rng.uniform(-50.0, 50.0, T)
            for f, middles in ((lambda: fx.times(fy, ts), 1), (lambda: fy.adjoint(ts, pair), 2)):
                shapes.clear()
                monkeypatch.setattr(np, "matmul", spy)
                f()
                monkeypatch.setattr(np, "matmul", matmul)
                rows = sum(a[0] for a, _ in shapes)
                # two products over the grid's rows, a lone row computed twice
                assert rows == 2 * max(T * middles * n, 2)
                for a, b in shapes:
                    assert a[0] >= 2 and a[1] == b[0] == b[1] == n


def test_zero_t_gives_the_identity_and_the_data_exactly():
    rng = np.random.default_rng(4)
    fx, fy = Flow(random_skew(rng, 3)), Flow(random_skew(rng, 3))
    X = random_skew(rng, 3)
    ts = np.array([-1.5, 0.0, -0.0, 2.5])
    for i in (1, 2):
        assert np.array_equal(fx.times(fy, ts)[i], np.eye(3))
        assert np.array_equal(fy.adjoint(ts, X)[i], X)


@pytest.mark.parametrize("name", NAMES)
def test_curve_matches_the_einsum_flows_and_scipy_expm(name):
    entry = named_entry(name)
    rng = np.random.default_rng(11)
    configs = ((None, 1.0),) if entry.split.s == 1 else ((0.5, 1.0), (1.0, -0.5), (2.0, 3.0))
    ts = np.linspace(-50.0, 50.0, 21)
    expm = scipy_linalg.expm
    for ratio, k in configs:
        sys = system_for(entry, ratio=ratio, k=k)
        motion = build_motion(sys, *seeded_unit_pair(sys, rng))
        for m in (motion, perturb_motion(motion)):
            bound = 1e-12 * np.maximum(1.0, m.rate * np.abs(ts))
            alpha, (xa, v) = m.representative(ts), m.transport(ts)
            flows = [(expm(t * m.X), expm(t * m.Y)) for t in ts]
            want_alpha = np.array([ex @ ey for ex, ey in flows])
            want_xa = np.array([np.linalg.solve(ey, m.Xa) @ ey for _, ey in flows])
            ref_xa, ref_v = einsum_transport(m, ts)
            pairs = ((alpha, einsum_representative(m, ts)), (alpha, want_alpha),
                     (xa, ref_xa), (xa, want_xa), (v, ref_v))
            for got, ref in pairs:
                assert np.all(np.abs(got - ref).max(axis=(1, 2)) <= bound), (name, ratio, k)
