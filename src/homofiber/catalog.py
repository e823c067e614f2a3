"""Ready-made homogeneous fibrations with exact matrix data.

Every entry carries a validated split, default metric weights, the
module pair (a, b) used by the field operator, a central element W,
and, where one exists, a base-point model that turns group
representatives into points of a concrete sphere or adjoint orbit.
The builders and load_custom make every entry through one constructor,
so an exported entry loads back into the same split bit for bit, and
every build is judged at split.USER_TOL. A document is plain JSON
with ambient_n the size of the matrices; it is also the custom-space
input format of the CLI. W and the model's base point are nested lists
ending in [re, im] pairs. Each basis is written sparse, as
{"count": d, "nonzeros": [[k, i, j, re, im], ...]}, one item per entry
whose parts are not both +0.0; a basis in the dense form still loads.
A sparse basis is refused, naming the field and the nonzero, for other
keys, a count that is not an int in [0, n^2], an item that is not five
ints and numbers, an index out of range or repeated, or a part beyond
float range.
"""

from __future__ import annotations

import itertools
import reprlib
from contextlib import contextmanager
from functools import cached_property

import numpy as np

from .field import ChargedSystem, metric_weights, module_pair, nonempty_module, weight_ratio
from .linalg import _conjugate, check_skew_hermitian
from .split import USER_TOL, build_custom_split, build_split, chain, require, structure_report

SQ2 = np.sqrt(2.0)
_MODEL_RANK = {"vector": 1, "orbit": 2}   # array rank of a model's base point
_NUMBER = {int, float}                    # the JSON types of a number


class Model:
    """Base-point model of the coset space.

    kind "vector": points are base vectors moved by matrix action,
    x = g v0 (spheres). kind "orbit": points are conjugates of a base
    matrix, reported as their coordinates in `frame`, the Subspace g of
    the split (adjoint orbits).
    """

    __slots__ = ("kind", "base", "frame")

    def __init__(self, kind, base, frame):
        self.kind, self.base, self.frame = kind, base, frame

    def apply(self, g):
        """The point of g, or the points of a (..., n, n) stack of g."""
        g = np.asarray(g, dtype=complex)
        if self.kind == "vector":
            return np.einsum("...ij,j->...i", g, self.base)
        return self.frame._coordinates(_conjugate(g, self.base))


class CatalogEntry:
    def __init__(self, name, split, chain, weights, pair, W, model, source):
        self.name, self.split, self.chain, self.weights = name, split, chain, weights
        self.pair, self.W, self.model, self.source = pair, W, model, source

    @cached_property
    def report(self):
        """Every structural residual of the entry, by check name, computed once."""
        return structure_report(self.split, pair=self.pair, W=self.W, ch=self.chain)


def make_system(entry, weights=None, k=0.0, pair=None):
    """ChargedSystem from an entry with optional overrides; W is the entry's, k sets the strength."""
    weights = weights if weights is not None else entry.weights
    pair = pair if pair is not None else entry.pair
    return ChargedSystem(entry.split, weights, *pair, entry.W, k, model=entry.model)


def _u_basis(n, size=None):
    """Orthonormal basis of u(n) in the top-left block of size x size matrices
    (default n), as a stack: diagonal imaginary units, then rotation pairs per
    index pair j < l in row-major order."""
    N = size or n
    d = np.arange(n)
    j, l = np.nonzero(d[:, None] < d)
    r = n + 2 * np.arange(len(j))
    out = np.zeros((n * n, N, N), dtype=complex)
    out[d, d, d] = 1j
    out[r, j, l], out[r, l, j] = 1.0 / SQ2, -1.0 / SQ2
    out[r + 1, j, l] = out[r + 1, l, j] = 1j / SQ2
    return out


def _su2_basis():
    """The rotation pair of u(2), then the diagonal direction."""
    return np.concatenate([_u_basis(2)[2:], [np.diag([1j, -1j]) / SQ2]])


def _su3_basis():
    """The three rotation pairs of u(3), then the two diagonal directions."""
    return np.concatenate([
        _u_basis(3)[3:],
        [1j * np.diag([1.0, -1.0, 0.0]) / SQ2, 1j * np.diag([1.0, 1.0, -2.0]) / np.sqrt(6.0)],
    ])


def _entry(name, gb, hb, weights, pair, W, model=None, *, k_basis=None, module_bases=None):
    """The catalog entry of a space given by bases; every entry is made here.

    A k_basis makes the chain h <= k <= g and its two-module split;
    module_bases gives the modules outright. model is None or
    (kind, base); the Model's frame is the split's g.
    """
    if k_basis is not None:
        ch = chain(gb, k_basis, hb)
        split = build_split(ch)
        key, bases = "k_basis", k_basis
    else:
        ch, split = None, build_custom_split(gb, hb, module_bases)
        key, bases = "module_bases", module_bases
    if model is not None:
        model = Model(*model, split.g)
    source = {"name": name, "ambient_n": split.n, "g_basis": gb, "h_basis": hb, key: bases}
    return CatalogEntry(name, split, ch, weights, pair, W, model, source)


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
    hb = _u_basis(n, N)
    W = 1j * np.diag([1.0] * n + [0.0])
    v0 = np.zeros(N, dtype=complex)
    v0[n] = 1.0
    fiber = np.zeros((1, N, N), dtype=complex)
    fiber[0, n, n] = 1j
    return _entry(f"hopf:{n}", _u_basis(N), hb, (1.0, 2.0), (1, 2), W, ("vector", v0),
                  k_basis=np.concatenate([hb, fiber]))


def lie_group():
    """SU(2) as a homogeneous space of itself.

    The isotropy is trivial, so W is forced to zero and trajectories
    are geodesics of the left-invariant metric that rescales the
    diagonal circle, the middle subalgebra of the chain.
    """
    gb = _su2_basis()
    W = np.zeros((2, 2), dtype=complex)
    return _entry("su2", gb, gb[:0], (1.0, 1.0), (1, 2), W, k_basis=[gb[2]])


def kahler_s2():
    """The 2-sphere as an adjoint orbit of SU(2), single-module split.

    The isotropy circle is its own center, so W spans h; the field
    operator rotates the 2-dimensional module by a quarter turn up to
    scale, and charged trajectories are circles on the orbit sphere.
    """
    gb = _su2_basis()
    xi0 = np.array([[1j, 0.0], [0.0, -1j]], dtype=complex)
    return _entry("kahler_s2", gb, gb[2:3], (1.0,), (1, None), gb[2].copy(), ("orbit", xi0),
                  module_bases=[gb[:2]])


def twistor_su3():
    """Twistor fibration of the full flag manifold of SU(3).

    The chain runs from the diagonal torus through S(U(1) x U(2)) to
    SU(3); the base is the projective plane (module of dimension 4)
    and the fiber a 2-sphere (dimension 2). W defaults to the central
    direction of the isotropy of the projective plane; the whole torus
    is available as the center.
    """
    gb = _su3_basis()
    hb = gb[6:8]
    W = 1j * np.diag([1.0, 1.0, -2.0]) / np.sqrt(6.0)
    xi0 = 1j * np.diag([1.0, 2.0, -3.0])
    return _entry("twistor_su3", gb, hb, (1.0, 1.0), (1, 2), W, ("orbit", xi0),
                  k_basis=gb[[6, 7, 2, 3]])


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


def _re_im(z):
    """Complex entries as [real, imaginary] pairs along a new last axis, read in place
    where z is a C-contiguous complex array: its memory is those pairs."""
    return np.ascontiguousarray(z, dtype=complex).view(float).reshape(*np.shape(z), 2)


def _doc(A):
    """A complex array of any rank as nested lists ending in [re, im] pairs."""
    return _re_im(A).tolist()


def _sparse_doc(A):
    """A stack of matrices as {"count": d, "nonzeros": [[k, i, j, re, im], ...]}, in row-major order.

    An entry is left out only when both its parts are +0.0, so a -0.0 is kept.
    """
    parts = _re_im(A)
    keep = ((parts != 0.0) | np.signbit(parts)).any(-1)
    rows = zip(np.argwhere(keep).tolist(), parts[keep].tolist())
    return {"count": len(A), "nonzeros": [index + value for index, value in rows]}


def _sparse(doc, name, n):
    """The (count, n, n) stack of a document written by _sparse_doc, decoded entry by entry.

    Each nonzero is a list of int indices k, i, j and int or float parts
    re, im; 0 <= k < count and 0 <= i, j < n, and no (k, i, j) repeats.
    count is at most n * n, the dimension of u(n), so a small document
    cannot ask for a large stack. An error names the field and the
    nonzero's position.
    """
    if set(doc) != {"count", "nonzeros"}:
        raise ValueError(f"{name}: expected a list, got dict with keys {reprlib.repr(list(doc))}; "
                         "a sparse basis has the keys count and nonzeros")
    d, nonzeros = doc["count"], doc["nonzeros"]
    if type(d) is not int or not 0 <= d <= n * n:
        raise ValueError(f"{name}: count must be an int from 0 to {n * n}, got {reprlib.repr(d)}")
    if type(nonzeros) is not list:
        raise ValueError(f"{name}: nonzeros must be a list, got {type(nonzeros).__name__}")
    A = np.zeros((d, n, n), dtype=complex)
    flat, seen = A.reshape(-1), set()
    for m, item in enumerate(nonzeros):
        if not (type(item) is list and len(item) == 5 and type(item[0]) is int and type(item[1]) is int
                and type(item[2]) is int and type(item[3]) in _NUMBER and type(item[4]) in _NUMBER):
            raise ValueError(f"{name}: nonzero {m} must be [k, i, j, re, im] with int k, i, j and int or "
                             f"float re, im, got {reprlib.repr(item)}")
        k, i, j, re, im = item
        if not (0 <= k < d and 0 <= i < n and 0 <= j < n):
            raise ValueError(f"{name}: nonzero {m} has index {reprlib.repr(item[:3])} outside shape "
                             f"{(d, n, n)}")
        at = (k * n + i) * n + j
        if at in seen:
            raise ValueError(f"{name}: nonzero {m} repeats index {item[:3]}")
        seen.add(at)
        try:
            flat[at] = complex(re, im)
        except OverflowError:
            raise ValueError(f"{name}: nonzero {m} has a part past float range: {reprlib.repr(item)}")
    return A


def _pairs(doc):
    """Nested lists of complex numbers from nested lists of [re, im] pairs.

    A list whose first entry starts with a list holds lists of one rank
    less; any other list holds the pairs of a vector, each part an int or a float.
    """
    if not isinstance(doc, list):
        raise TypeError(f"expected a list, got {type(doc).__name__}")
    first = doc[0] if doc else None
    if isinstance(first, list) and first and isinstance(first[0], list):
        return [_pairs(x) for x in doc]
    row = [complex(re, im) for re, im in doc]
    if not set(map(type, itertools.chain.from_iterable(doc))) <= _NUMBER:
        raise TypeError(f"expected [re, im] pairs of numbers, got {reprlib.repr(doc)}")
    return row


def _array(doc):
    """np.array(_pairs(doc)), decoded in one step from a block of [re, im] pairs.

    A doc that numpy reads as an array of at least two axes, the last
    of length 2, with every entry a JSON int or float, is converted
    exactly by viewing the pairs as complex numbers; any other doc goes
    through _pairs, which gives the same array or names the fault.
    """
    try:
        A = np.array(doc, dtype=object)
        if A.ndim > 1 and A.shape[-1] == 2 and set(map(type, A.ravel().tolist())) <= _NUMBER:
            return A.astype(float).view(complex)[..., 0]
    except (ValueError, OverflowError):  # ragged, or an int past float range
        pass
    return np.array(_pairs(doc))


def _load(doc, name, n=None):
    """The complex array of the field name, finite and its matrices skew.

    The array is written by _doc; given n, it is a (k, n, n) stack, an
    empty list the empty stack, and may be written by _sparse_doc.
    """
    A = _sparse(doc, name, n) if n is not None and isinstance(doc, dict) else _array(doc)
    if n is not None and A.size and A.shape[1:] != (n, n):
        raise ValueError(f"{name} must be a stack of {n} x {n} matrices, got shape {A.shape}")
    if A.ndim in (2, 3) and A.shape[-1] == A.shape[-2]:
        check_skew_hermitian(A, name=name)  # refuses a non-finite entry in the same words
    elif not np.isfinite(A).all():
        raise ValueError(f"{name} has non-finite entries")
    return A


@contextmanager
def _field(name):
    """While the named field is read, a failure becomes a malformed-document error naming it first."""
    try:
        yield
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        msg = "missing" if type(exc) is KeyError else str(exc)
        msg = msg if msg.startswith(name) else f"{name}: {msg}"
        raise ValueError(f"malformed space document: {msg}") from exc


def export_entry(entry):
    """Plain-data document for an entry, suitable for JSON round-trips."""
    src, model = entry.source, entry.model
    doc = {
        "name": entry.name,
        "ambient_n": src["ambient_n"],
        "g_basis": _sparse_doc(src["g_basis"]),
        "h_basis": _sparse_doc(src["h_basis"]),
        "weights": list(entry.weights),
        "pair": list(entry.pair),
        "W": _doc(entry.W),
        "model": None if model is None else {"kind": model.kind, "base": _doc(model.base)},
    }
    if "k_basis" in src:
        doc["k_basis"] = _sparse_doc(src["k_basis"])
    else:
        doc["module_bases"] = [_sparse_doc(mod) for mod in src["module_bases"]]
    return doc


def load_custom(doc):
    """Entry from a space document; validates everything it builds.

    A document with a k_basis is treated as a subalgebra chain and
    split into two modules; one with module_bases is taken as an
    explicit decomposition, and one with both is malformed. W must be a
    square matrix, ambient_n its size, every basis a stack of such
    matrices, every entry a finite JSON int or float, and each matrix,
    the orbit model's base point included, skew-Hermitian. The weights
    and the pair obey the rules of the system constructor, m_a not empty
    included. A document that breaks one of
    these raises ValueError naming the field; validation failures raise
    StructureError with the offending check in the message.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"malformed space document: expected a JSON object, got {type(doc).__name__}")
    with _field("W"):
        W = _load(doc["W"], "W")
        n = W.shape[-1]
        if W.shape != (n, n):
            raise ValueError(f"W must be a square matrix, got shape {W.shape}")
    with _field("ambient_n"):
        if type(doc["ambient_n"]) is not int or doc["ambient_n"] != n:
            raise ValueError(f"ambient_n is {doc['ambient_n']!r}, but W is {n} x {n}")
    with _field("g_basis"):
        gb = _load(doc["g_basis"], "g_basis", n)
    with _field("h_basis"):
        hb = _load(doc["h_basis"], "h_basis", n)
    both = "k_basis" in doc and "module_bases" in doc
    key = "k_basis" if "k_basis" in doc else "module_bases"
    with _field(key):
        if both or key not in doc:
            raise ValueError(f"a document gives k_basis or module_bases{', not both' if both else ''}")
        if key == "k_basis":
            bases = _load(doc[key], key, n)
        else:
            bases = [_load(mod, f"{key}[{i}]", n) for i, mod in enumerate(doc[key])]
            if not (bases and isinstance(doc[key], list)):
                raise ValueError(f"{key} must be a nonempty list of bases")
    s = 2 if key == "k_basis" else len(bases)
    with _field("pair"):
        pair = module_pair(s, doc["pair"])
    with _field("weights"):
        weights = metric_weights(doc["weights"], s)
        weight_ratio(weights, *pair)
    model = doc.get("model")
    if model is not None:
        with _field("model"):
            if not isinstance(model, dict):
                raise ValueError(
                    f'model must be an object {{"kind": ..., "base": ...}} or null, got {reprlib.repr(model)}'
                )
        with _field("model.kind"):
            kind = model["kind"]
            if kind not in _MODEL_RANK:
                raise ValueError(f"unknown model kind {kind!r}")
        with _field("model.base"):
            base, want = _load(model["base"], "model.base"), (n,) * _MODEL_RANK[kind]
            if base.shape != want:
                raise ValueError(f"model.base has shape {base.shape}, expected {want}")
        model = (kind, base)
    name = str(doc.get("name", "custom"))
    entry = _entry(name, gb, hb, weights, pair, W, model, **{key: bases})
    with _field("pair"):
        nonempty_module(entry.split, pair[0])
    require(entry.report, USER_TOL, "space document")
    return entry
