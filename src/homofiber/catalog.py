"""Ready-made homogeneous fibrations with exact matrix data.

Every entry carries a validated split, default metric weights, the
module pair (a, b) used by the field operator, a central element W,
and, where one exists, a base-point model that turns group
representatives into points of a concrete sphere or adjoint orbit.
Entries can be exported to a plain JSON-compatible document and loaded
back, which is also the custom-space input format of the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .field import charged_system
from .linalg import StructureError, adjoint, inner_b, orthonormalize
from .split import (
    CATALOG_TOL,
    build_custom_split,
    build_split,
    chain,
    structure_report,
)

SQ2 = np.sqrt(2.0)


@dataclass(frozen=True, eq=False)
class Model:
    """Base-point model of the coset space.

    kind "vector": points are base vectors moved by matrix action,
    x = g v0 (spheres). kind "orbit": points are conjugates of a base
    matrix, reported as real coordinates against an orthonormal frame
    (adjoint orbits).
    """

    kind: str
    base: np.ndarray
    frame: tuple = ()

    def apply(self, g):
        """The point of g, or the points of a (..., n, n) stack of g."""
        if self.kind == "vector":
            return np.einsum("...ij,j->...i", np.asarray(g, dtype=complex), self.base)
        x = adjoint(g, self.base)
        return inner_b(x[..., None, :, :], np.array(self.frame))


@dataclass(frozen=True, eq=False)
class CatalogEntry:
    name: str
    split: object
    chain: object
    weights: tuple
    pair: tuple
    W: np.ndarray
    model: object
    source: dict

    @cached_property
    def _report(self):
        return structure_report(self.split, pair=self.pair, W=self.W, ch=self.chain)

    def validation_report(self, tol=CATALOG_TOL):
        """Every structural check, from residuals computed once per entry, against tol."""
        return self._report.at(tol)


def make_system(entry, weights=None, k=0.0, w_scale=1.0, pair=None):
    """ChargedSystem from an entry with optional overrides."""
    a, b = pair if pair is not None else entry.pair
    return charged_system(
        entry.split,
        tuple(weights) if weights is not None else entry.weights,
        a,
        b,
        w_scale * entry.W,
        k,
        model=entry.model,
    )


def _E(n, j, l):
    M = np.zeros((n, n), dtype=complex)
    M[j, l] = 1.0
    return M


def _u_basis(n):
    """Orthonormal basis of u(n): diagonal imaginary units, then real and
    imaginary rotation pairs for each index pair."""
    out = [1j * _E(n, j, j) for j in range(n)]
    for j in range(n):
        for l in range(j + 1, n):
            out.append((_E(n, j, l) - _E(n, l, j)) / SQ2)
            out.append(1j * (_E(n, j, l) + _E(n, l, j)) / SQ2)
    return out


def _embed(mats, n):
    out = []
    for M in mats:
        big = np.zeros((n, n), dtype=complex)
        big[: M.shape[0], : M.shape[1]] = M
        out.append(big)
    return out


def _su2_basis():
    a1 = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    a2 = np.array([[0.0, 1j], [1j, 0.0]], dtype=complex)
    a3 = np.array([[1j, 0.0], [0.0, -1j]], dtype=complex)
    return [a1 / SQ2, a2 / SQ2, a3 / SQ2]


def _su3_basis():
    out = []
    for j in range(3):
        for l in range(j + 1, 3):
            out.append((_E(3, j, l) - _E(3, l, j)) / SQ2)
            out.append(1j * (_E(3, j, l) + _E(3, l, j)) / SQ2)
    out.append(1j * np.diag([1.0, -1.0, 0.0]) / SQ2)
    out.append(1j * np.diag([1.0, 1.0, -2.0]) / np.sqrt(6.0))
    return out


def hopf(n):
    """Circle bundle over complex projective space: U(n+1)/U(n).

    The chain U(n) inside U(n) x U(1) inside U(n+1) splits the tangent
    space into a 2n-dimensional horizontal module and the 1-dimensional
    fiber direction. The default weights (1, 2) make the metric agree
    with the round metric of the model sphere in C^{n+1}; other weight
    ratios squash the fiber.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    N = n + 1
    gb = _u_basis(N)
    hb = _embed(_u_basis(n), N)
    kb = hb + [1j * _E(N, n, n)]
    ch = chain(gb, kb, hb, tol=CATALOG_TOL)
    split = build_split(ch, tol=CATALOG_TOL)
    W = 1j * np.diag([1.0] * n + [0.0])
    v0 = np.zeros(N, dtype=complex)
    v0[n] = 1.0
    model = Model("vector", v0)
    source = {
        "name": f"hopf:{n}",
        "ambient_n": N,
        "g_basis": gb,
        "h_basis": hb,
        "k_basis": kb,
    }
    return CatalogEntry(
        f"hopf:{n}", split, ch, (1.0, 2.0), (1, 2), W, model, source
    )


def lie_group(group="SU(2)", subgroup_basis=None):
    """A compact group as a homogeneous space of itself.

    The isotropy is trivial, so W is forced to zero and trajectories
    are geodesics of the left-invariant metric that rescales the
    chosen subalgebra direction. The default subalgebra of SU(2) is
    the diagonal circle.
    """
    key = group.replace("(", "").replace(")", "").lower()
    if key == "su2":
        gb = _su2_basis()
    elif key == "u2":
        gb = _su2_basis() + [1j * np.eye(2) / SQ2]
    else:
        raise ValueError(f"unsupported group {group!r}; use SU(2) or U(2)")
    if subgroup_basis is None:
        subgroup_basis = [gb[2]]
    ch = chain(gb, subgroup_basis, [], tol=CATALOG_TOL)
    split = build_split(ch, tol=CATALOG_TOL)
    W = np.zeros((2, 2), dtype=complex)
    source = {
        "name": key,
        "ambient_n": 2,
        "g_basis": gb,
        "h_basis": [],
        "k_basis": [np.asarray(M, dtype=complex) for M in subgroup_basis],
    }
    return CatalogEntry(key, split, ch, (1.0, 1.0), (1, 2), W, None, source)


def kahler_s2():
    """The 2-sphere as an adjoint orbit of SU(2), single-module split.

    The isotropy circle is its own center, so W spans h; the field
    operator rotates the 2-dimensional module by a quarter turn up to
    scale, and charged trajectories are circles on the orbit sphere.
    """
    gb = _su2_basis()
    hb = [gb[2]]
    mod = [gb[0], gb[1]]
    split = build_custom_split(gb, hb, [mod], tol=CATALOG_TOL)
    W = gb[2].copy()
    xi0 = np.array([[1j, 0.0], [0.0, -1j]], dtype=complex)
    model = Model("orbit", xi0, tuple(orthonormalize(gb).basis))
    source = {
        "name": "kahler_s2",
        "ambient_n": 2,
        "g_basis": gb,
        "h_basis": hb,
        "module_bases": [mod],
    }
    return CatalogEntry(
        "kahler_s2", split, None, (1.0,), (1, None), W, model, source
    )


def twistor_su3():
    """Twistor fibration of the full flag manifold of SU(3).

    The chain runs from the diagonal torus through S(U(1) x U(2)) to
    SU(3); the base is the projective plane (module of dimension 4)
    and the fiber a 2-sphere (dimension 2). W defaults to the central
    direction of the isotropy of the projective plane; the whole torus
    is available as the center.
    """
    gb = _su3_basis()
    hb = [gb[6], gb[7]]
    kb = hb + [gb[2], gb[3]]
    ch = chain(gb, kb, hb, tol=CATALOG_TOL)
    split = build_split(ch, tol=CATALOG_TOL)
    W = 1j * np.diag([1.0, 1.0, -2.0]) / np.sqrt(6.0)
    xi0 = 1j * np.diag([1.0, 2.0, -3.0])
    model = Model("orbit", xi0, ch.g.basis)
    source = {
        "name": "twistor_su3",
        "ambient_n": 3,
        "g_basis": gb,
        "h_basis": hb,
        "k_basis": kb,
    }
    return CatalogEntry(
        "twistor_su3", split, ch, (1.0, 1.0), (1, 2), W, model, source
    )


_BUILDERS = {
    "hopf:1": lambda: hopf(1),
    "hopf:2": lambda: hopf(2),
    "hopf:3": lambda: hopf(3),
    "su2": lie_group,
    "kahler_s2": kahler_s2,
    "twistor_su3": twistor_su3,
}


def catalog_names():
    return tuple(_BUILDERS)


def get_entry(name):
    try:
        return _BUILDERS[name]()
    except KeyError:
        raise KeyError(f"unknown catalog entry {name!r}; known: {', '.join(_BUILDERS)}")


def _mat_doc(M):
    M = np.asarray(M, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in M]


def _mat_load(doc):
    return np.array([[complex(re, im) for re, im in row] for row in doc])


def _vec_doc(v):
    return [[float(z.real), float(z.imag)] for z in np.asarray(v, dtype=complex)]


def _vec_load(doc):
    return np.array([complex(re, im) for re, im in doc])


def export_entry(entry, weights=None, k=0.0):
    """Plain-data document for an entry, suitable for JSON round-trips."""
    doc = {
        "name": entry.name,
        "ambient_n": int(entry.source["ambient_n"]),
        "g_basis": [_mat_doc(M) for M in entry.source["g_basis"]],
        "h_basis": [_mat_doc(M) for M in entry.source["h_basis"]],
        "weights": list(weights if weights is not None else entry.weights),
        "pair": list(entry.pair),
        "W": _mat_doc(entry.W),
        "k": float(k),
    }
    if "k_basis" in entry.source:
        doc["k_basis"] = [_mat_doc(M) for M in entry.source["k_basis"]]
    else:
        doc["module_bases"] = [
            [_mat_doc(M) for M in mod] for mod in entry.source["module_bases"]
        ]
    if entry.model is None:
        doc["model"] = None
    elif entry.model.kind == "vector":
        doc["model"] = {"kind": "vector", "base": _vec_doc(entry.model.base)}
    else:
        doc["model"] = {"kind": "orbit", "base": _mat_doc(entry.model.base)}
    return doc


def load_custom(doc):
    """Entry from a space document; validates everything it builds.

    A document with a k_basis is treated as a subalgebra chain and
    split into two modules; one with module_bases is taken as an
    explicit decomposition. Validation failures raise StructureError
    with the offending check in the message.
    """
    try:
        if not isinstance(doc, dict):
            raise TypeError(f"expected a JSON object, got {type(doc).__name__}")
        name = str(doc.get("name", "custom"))
        ambient_n = doc["ambient_n"]
        gb = [_mat_load(M) for M in doc["g_basis"]]
        hb = [_mat_load(M) for M in doc["h_basis"]]
        weights = tuple(float(w) for w in doc["weights"])
        pa, pb = doc["pair"]
        pair = (int(pa), int(pb) if pb is not None else None)
        W = _mat_load(doc["W"])
        if "k_basis" in doc:
            kb = [_mat_load(M) for M in doc["k_basis"]]
        elif "module_bases" in doc:
            mods = [[_mat_load(M) for M in mod] for mod in doc["module_bases"]]
        model_doc = doc.get("model")
        if model_doc is not None:
            model_kind = model_doc["kind"]
            if model_kind == "vector":
                model_base = _vec_load(model_doc["base"])
            elif model_kind == "orbit":
                model_base = _mat_load(model_doc["base"])
            else:
                raise ValueError(f"unknown model kind {model_kind!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed space document: {exc}") from exc
    ch = None
    if "k_basis" in doc:
        ch = chain(gb, kb, hb)
        split = build_split(ch)
        source = {"name": name, "ambient_n": ambient_n, "g_basis": gb,
                  "h_basis": hb, "k_basis": kb}
    elif "module_bases" in doc:
        split = build_custom_split(gb, hb, mods)
        source = {"name": name, "ambient_n": ambient_n, "g_basis": gb,
                  "h_basis": hb, "module_bases": mods}
    else:
        raise ValueError("space document needs k_basis or module_bases")
    model = None
    if model_doc is not None:
        want = (split.n,) if model_kind == "vector" else (split.n, split.n)
        if model_base.shape != want:
            raise ValueError(
                f"malformed space document: model base has shape {model_base.shape}, "
                f"expected {want}"
            )
        if model_kind == "vector":
            model = Model("vector", model_base)
        else:
            model = Model("orbit", model_base, tuple(orthonormalize(gb).basis))
    entry = CatalogEntry(name, split, ch, weights, pair, W, model, source)
    rep = entry.validation_report(tol=1e-10)
    if not rep.passed:
        raise StructureError(
            "space document fails validation:\n" + "\n".join(rep.lines())
        )
    return entry
