import numpy as np
import pytest

from homofiber import (
    DomainError,
    Subspace,
    build_motion,
    catalog_names,
    export_entry,
    get_entry,
    hopf,
    make_system,
    metric_norm,
)
from homofiber.catalog import _doc
from homofiber.field import ChargedSystem
from homofiber.linalg import Flow, _conjugate, mul
from homofiber.oracle import _stencil_kappa


def check_unitary(g, tol=1e-10, name="g"):
    """Raise DomainError unless g g^H = I to within tol."""
    A = np.asarray(g, dtype=complex)
    dev = float(np.abs(A @ A.conj().T - np.eye(A.shape[0])).max())
    if dev > tol:
        raise DomainError(f"{name} is not unitary (deviation {dev:.3e})")
    return A


def named_entry(name):
    """The catalog entry of a name, or hopf(n) for a name hopf:n outside the catalog."""
    return get_entry(name) if name in catalog_names() else hopf(int(name.split(":")[1]))


def dense_export(entry):
    """export_entry(entry) with every basis written dense, as nested [re, im] pairs.

    This is the form of the documents users already have; a test that
    edits a basis in place edits this one.
    """
    doc = export_entry(entry)
    for key in ("g_basis", "h_basis", "k_basis"):
        if key in doc:
            doc[key] = _doc(entry.source[key])
    if "module_bases" in doc:
        doc["module_bases"] = [_doc(mod) for mod in entry.source["module_bases"]]
    return doc


def conjugated_export(entry, seed=0):
    """dense_export(entry) with every basis and W conjugated by one seeded unitary U, and no model.

    Its bases are dense and not exactly skew-Hermitian, so no closure and no
    bracket relation of its split can be certified by support pattern.
    """
    n = entry.W.shape[0]
    rng = np.random.default_rng(seed)
    U, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    doc = dense_export(entry)
    for key in ("g_basis", "h_basis", "k_basis"):
        if key in doc:
            doc[key] = _doc(U @ np.asarray(entry.source[key]) @ U.conj().T)
    if "module_bases" in doc:
        doc["module_bases"] = [_doc(U @ np.asarray(mod) @ U.conj().T) for mod in entry.source["module_bases"]]
    doc["W"], doc["model"] = _doc(U @ entry.W @ U.conj().T), None
    return doc


def combo(space, coeffs):
    """Linear combination of a Subspace basis."""
    return sum(c * e for c, e in zip(coeffs, space.basis))


def list_orthonormalize(vectors, rank_tol=1e-10):
    """orthonormalize on the list path: CGS2 over every candidate, zero ones too.

    The rows are taken from the candidates as a (k, n, n) array, so an
    empty stack keeps its n, and the kept rows are copied into the
    Subspace's basis.
    """
    V = np.array(vectors, dtype=complex)
    d, n = 0, V.shape[-1]
    F = V.reshape(len(V), n * n).view(float).copy()
    for x in F:
        for _ in range(2 if d else 0):
            x = x - (F[:d] @ x) @ F[:d]
        nrm = np.sqrt(x @ x)
        if nrm >= rank_tol:
            F[d] = x / nrm
            d += 1
    return Subspace(F[:d].view(complex).reshape(d, n, n).copy())


def per_charge_magnetic_circles(sys, Xa, k_values, t_samples=None):
    """(k, kappa mean, kappa variation) per charge, from one validated motion each.

    The stencil step is 1e-3 / max(1, rho), rho the largest |eigenvalue|
    of the generators X of all the motions.
    """
    if t_samples is None:
        t_samples = np.linspace(0.0, 2.0 * np.pi, 25)
    motions = [
        build_motion(ChargedSystem(sys.split, sys.weights, sys.a, sys.b, sys.W, kv, sys.model), Xa)
        for kv in k_values
    ]
    rho = max((np.abs(np.linalg.eigh(-1j * m.X)[0]).max() for m in motions), default=0.0)
    out = []
    for kv, motion in zip(k_values, motions):

        def pos(ts, m=motion):
            return sys.model.apply(m.representative(ts.ravel())).reshape(ts.shape + (-1,))

        kappas = _stencil_kappa(pos, np.asarray(t_samples, dtype=float), 1e-3 / max(1.0, rho))
        mean = float(np.mean(kappas))
        out.append((float(kv), mean, float(np.max(np.abs(kappas - mean)))))
    return out


def einsum_representative(motion, t):
    """exp(tX) exp(tY) as two einsum flows and their einsum product, as the curve was evaluated."""
    return mul(Flow(motion.X)(t), Flow(motion.Y)(t))


def einsum_transport(motion, t):
    """Ad(exp(-tY))Xa and the body velocity by einsum conjugation with the flow exp(-tY)."""
    G = Flow(motion.Y)(np.negative(t))
    xa = _conjugate(G, motion.Xa)
    if motion.exact:
        return xa, xa + motion.Xb
    m = motion.system.m
    return xa, m.combine(m._coordinates(_conjugate(G, motion.X) + motion.Y))


def _E(n, j, l):
    M = np.zeros((n, n), dtype=complex)
    M[j, l] = 1.0
    return M


def per_element_u_basis(n, size=None):
    """The u(n) basis built one matrix at a time, from unit matrices E_jl."""
    N = size or n
    out = [1j * _E(N, j, j) for j in range(n)]
    for j in range(n):
        for l in range(j + 1, n):
            out.append((_E(N, j, l) - _E(N, l, j)) / np.sqrt(2.0))
            out.append(1j * (_E(N, j, l) + _E(N, l, j)) / np.sqrt(2.0))
    return out


def seeded_unit_pair(system, rng):
    """Random metric-unit (Xa, Xb); Xb is None when there is no second module."""
    ca = rng.standard_normal(system.ma.dim)
    Xa = combo(system.ma, ca)
    Xa = Xa / metric_norm(system, Xa)
    if system.mb is None or system.mb.dim == 0:
        return Xa, None
    cb = rng.standard_normal(system.mb.dim)
    Xb = combo(system.mb, cb)
    return Xa, Xb / metric_norm(system, Xb)


@pytest.fixture(scope="session")
def entries():
    """Catalog entries built once per test session."""
    names = ("hopf:1", "hopf:2", "hopf:3", "su2", "kahler_s2", "twistor_su3")
    return {name: get_entry(name) for name in names}


@pytest.fixture(scope="session")
def hopf1(entries):
    return entries["hopf:1"]


def default_weights(entry, ratio=None):
    if entry.split.s == 1:
        return (1.0,)
    return (1.0, float(ratio)) if ratio is not None else entry.weights


def system_for(entry, ratio=None, k=0.0):
    return make_system(entry, weights=default_weights(entry, ratio), k=k)
