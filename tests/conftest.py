"""Shared fixtures: catalog spectra at the truncations the suite exercises.

Spectra are exact but not free to build (lattice
enumeration), so each is computed once per session and shared.
"""

from __future__ import annotations

import pytest

from orbispec.modelspectra import catalog_model, model_catalog

# l <= 100 on the 2-sphere and its quotients
SPHERE_TRUNCATION = 10100.0
# ~5000 eigenvalues (with multiplicity) on the unit torus
TORUS_TRUNCATION = 64000.0
# l <= 62 on the 3-sphere; lens-space volume error ~4-6% here
DIM3_TRUNCATION = 4032.0

TRUNCATION_BY_KIND = {
    ("round_sphere", 2): SPHERE_TRUNCATION,
    ("sphere_quotient", 2): SPHERE_TRUNCATION,
    ("flat_torus", 2): TORUS_TRUNCATION,
    ("torus_quotient", 2): TORUS_TRUNCATION,
    ("round_sphere", 3): DIM3_TRUNCATION,
    ("sphere_quotient", 3): DIM3_TRUNCATION,
}


def truncation_for(model) -> float:
    return TRUNCATION_BY_KIND[(model.kind, model.dimension)]


@pytest.fixture(scope="session")
def catalog_spectra():
    """{model_id: (model, exact spectrum at the standard truncation)}."""
    out = {}
    for model in model_catalog():
        out[model.model_id] = (model, model.spectrum(truncation_for(model)))
    return out


@pytest.fixture(scope="session")
def s2_spectrum(catalog_spectra):
    return catalog_spectra["s2"][1]
