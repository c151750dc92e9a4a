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
    diameter_bound,
    ell_constant,
    isotropy_order_cap,
    packing_bound,
    r_constant,
    singular_point_cap,
    spectral_isotropy_bound,
    spectral_singular_point_bound,
    spectrum_content_id,
)
from .dirichlet import lowest_dirichlet_eigenvalue
from .errors import CertificationError, ConvergenceError, DomainError
from .groups import OrthogonalAction, cyclic_generator, sphere_rotation_action
from .modelspectra import (
    ModelOrbifold,
    SingularPoint,
    Spectrum,
    catalog_model,
    counting_function,
    flat_torus_spectrum,
    harmonic_multiplicity,
    model_catalog,
    sphere_spectrum,
)
from .spaceform import (
    SpaceForm,
    ball_volume,
    bonnet_myers_cap,
    cone_volume,
    generalized_sin,
    linked_complement_measure,
    sphere_measure,
    unit_ball_volume,
)
from .weyl import WeylFit, estimate_dimension, estimate_volume, weyl_fit

__all__ = [
    "__version__",
    # errors
    "DomainError", "ConvergenceError", "CertificationError",
    # spaceform
    "SpaceForm", "generalized_sin", "bonnet_myers_cap", "sphere_measure", "unit_ball_volume",
    "ball_volume", "linked_complement_measure", "cone_volume",
    # dirichlet
    "lowest_dirichlet_eigenvalue",
    # groups
    "OrthogonalAction", "cyclic_generator", "sphere_rotation_action",
    # modelspectra
    "Spectrum", "counting_function", "flat_torus_spectrum", "sphere_spectrum",
    "harmonic_multiplicity", "SingularPoint", "ModelOrbifold", "model_catalog", "catalog_model",
    # weyl
    "WeylFit", "estimate_dimension", "estimate_volume", "weyl_fit",
    # bounds
    "spectrum_content_id", "diameter_bound", "best_diameter_bound",
    "isotropy_order_cap", "alpha_constant", "ell_constant", "r_constant", "packing_bound",
    "singular_point_cap",
    "BoundReport", "spectral_isotropy_bound", "spectral_singular_point_bound",
]
