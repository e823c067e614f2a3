"""Reductive splits: chains, complements, validators, centers."""

import numpy as np
import pytest

from homofiber import (
    StructureError,
    bracket,
    build_custom_split,
    build_split,
    center_basis,
    chain,
    hopf,
    inner_b,
    span_residual,
    structure_report,
    twistor_su3,
)


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
    assert rep.passed and rep.worst < 1e-12


def test_chain_rejects_non_closed_basis():
    # span{A1} alone is fine, but {A1, A2} brackets into A3
    a1 = np.array([[0, 1], [-1, 0]], dtype=complex)
    a2 = np.array([[0, 1j], [1j, 0]], dtype=complex)
    a3 = np.array([[1j, 0], [0, -1j]], dtype=complex)
    with pytest.raises(StructureError, match="not closed"):
        chain([a1, a2, a3], [a1, a2], [])


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
    rep = structure_report(split)
    assert rep.passed


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
    assert ok.passed
    swapped = structure_report(split, pair=(2, 1))
    # [m2, m1] lands back in m1, which is not inside m2
    assert not swapped.checks["bracket_condition"].passed
    assert swapped.checks["bracket_condition"].residual > 0.1


def test_pair_check_vacuous_without_b():
    split = hopf(1).split
    assert structure_report(split, pair=(1, None)).passed


def test_root_module_pairs_fail():
    split = build_custom_split(su3_basis(), torus_basis(), su3_root_modules())
    # no ordered pair of distinct root planes closes into the first
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            if a != b:
                report = structure_report(split, pair=(a, b))
                assert not report.checks["bracket_condition"].passed


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
    lines = rep.lines()
    assert len(lines) == len(rep.checks)
    assert all(line.startswith("PASS") for line in lines)
