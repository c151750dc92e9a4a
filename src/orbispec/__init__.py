"""Spectral-to-geometric bounds for closed orbifolds.

From a truncated Laplace spectrum and a curvature lower bound this package
certifies a diameter bound, a cap on the order of any isotropy group, and a
cap on the number of isolated singular points — and checks all three against
a catalog of model surfaces whose spectra are computable in closed form.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .bounds import (
    BoundReport,
    alpha_constant,
    best_diameter_bound,
    default_r_grid,
    diameter_bound,
    ell_constant,
    isotropy_order_cap,
    isotropy_type_enumeration,
    lambda_threshold,
    r_constant,
    singular_point_cap,
    spectral_isotropy_bound,
    spectral_singular_point_bound,
    spectrum_content_id,
)
from .dirichlet import lowest_dirichlet_eigenvalue
from .errors import (
    CertificationError,
    ConvergenceError,
    DomainError,
    IndeterminateError,
)
from .groups import (
    OrthogonalAction,
    action_from_dict,
    antipodal_action,
    cyclic_generator,
    in_open_hemisphere,
    orbit,
    orbit_sum,
    sphere_rotation_action,
)
from .modelspectra import (
    ModelOrbifold,
    SingularPoint,
    Spectrum,
    catalog_model,
    counting_function,
    flat_torus_spectrum,
    harmonic_multiplicity,
    invariant_multiplicity,
    model_catalog,
    quotient_spectrum,
    sphere_spectrum,
)
from .netpack import (
    FiniteMetricSpace,
    greedy_minimal_net,
    model_point_cloud,
    packing_bound,
    sphere_distance_matrix,
    torus_distance_matrix,
    uniform_sphere_points,
    uniform_torus_points,
    verify_net,
)
from .spaceform import (
    SpaceForm,
    ball_volume,
    ball_volume_quadrature,
    bonnet_myers_cap,
    cone_volume,
    generalized_sin,
    law_of_cosines_side,
    linked_complement_measure,
    sphere_measure,
    unit_ball_volume,
)
from .weyl import WeylFit, estimate_dimension, estimate_volume, weyl_fit

__all__ = [
    "__version__",
    # errors
    "DomainError", "ConvergenceError", "CertificationError", "IndeterminateError",
    # spaceform
    "SpaceForm", "generalized_sin", "bonnet_myers_cap", "sphere_measure", "unit_ball_volume",
    "ball_volume", "ball_volume_quadrature", "linked_complement_measure", "cone_volume",
    "law_of_cosines_side",
    # dirichlet
    "lowest_dirichlet_eigenvalue",
    # groups
    "OrthogonalAction", "cyclic_generator", "sphere_rotation_action", "antipodal_action",
    "action_from_dict", "orbit", "orbit_sum", "in_open_hemisphere",
    # modelspectra
    "Spectrum", "counting_function", "flat_torus_spectrum", "sphere_spectrum",
    "harmonic_multiplicity", "invariant_multiplicity", "quotient_spectrum",
    "SingularPoint", "ModelOrbifold", "model_catalog", "catalog_model",
    # weyl
    "WeylFit", "estimate_dimension", "estimate_volume", "weyl_fit",
    # bounds
    "lambda_threshold", "spectrum_content_id", "diameter_bound", "default_r_grid",
    "best_diameter_bound", "isotropy_order_cap", "isotropy_type_enumeration",
    "alpha_constant", "ell_constant", "r_constant", "singular_point_cap",
    "BoundReport", "spectral_isotropy_bound", "spectral_singular_point_bound",
    # netpack
    "FiniteMetricSpace", "greedy_minimal_net", "packing_bound", "verify_net",
    "uniform_sphere_points", "uniform_torus_points", "sphere_distance_matrix",
    "torus_distance_matrix", "model_point_cloud",
]
