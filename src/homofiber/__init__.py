"""Homogeneous fibrations of compact matrix groups.

Build reductive splits from subalgebra chains, put diagonal invariant
metrics and a central magnetic field on them, evaluate the closed-form
charged-particle trajectories as products of two matrix exponentials,
and verify the governing equation independently through weak-form
residuals and conservation checks.
"""

from .catalog import (
    catalog_names,
    export_entry,
    get_entry,
    hopf,
    kahler_s2,
    lie_group,
    load_custom,
    make_system,
    twistor_su3,
)
from .field import (
    ChargedSystem,
    apply_I0,
    metric_inner,
    metric_norm,
    metric_probe_basis,
)
from .linalg import (
    DimensionError,
    DomainError,
    StructureError,
    Subspace,
    adjoint,
    bnorm,
    bracket,
    check_skew_hermitian,
    expm,
    inner_b,
    orthonormalize,
    project,
    span_residual,
)
from .motion import (
    ClosedFormMotion,
    CurveGrid,
    build_motion,
    perturb_motion,
    sample_trajectory,
)
from .oracle import (
    algebraic_identity_check,
    conservation_sweep,
    convergence_ratios,
    great_circle_check,
    lambda_collapse_check,
    velocity_agreement_sweep,
    magnetic_circle_check,
    module_invariance_sweep,
    residual_sweep,
)
from .split import (
    build_custom_split,
    build_split,
    center_basis,
    chain,
    structure_report,
)

__version__ = "0.1.0"

__all__ = [
    "ChargedSystem",
    "ClosedFormMotion",
    "CurveGrid",
    "DimensionError",
    "DomainError",
    "StructureError",
    "Subspace",
    "adjoint",
    "algebraic_identity_check",
    "apply_I0",
    "bnorm",
    "bracket",
    "build_custom_split",
    "build_motion",
    "build_split",
    "catalog_names",
    "center_basis",
    "chain",
    "check_skew_hermitian",
    "conservation_sweep",
    "convergence_ratios",
    "expm",
    "export_entry",
    "get_entry",
    "great_circle_check",
    "hopf",
    "inner_b",
    "kahler_s2",
    "lambda_collapse_check",
    "velocity_agreement_sweep",
    "lie_group",
    "load_custom",
    "magnetic_circle_check",
    "make_system",
    "metric_inner",
    "metric_norm",
    "metric_probe_basis",
    "module_invariance_sweep",
    "orthonormalize",
    "perturb_motion",
    "project",
    "residual_sweep",
    "sample_trajectory",
    "span_residual",
    "structure_report",
    "twistor_su3",
]
