"""One rule for magnitude arguments.

Every public function or record slot that takes a volume, a diameter bound,
a radius, ell or eps accepts numpy floats, and refuses a bool, zero, a
negative value, NaN and an infinity with DomainError.  A diameter bound is
first clamped at the antipodal cap pi/sqrt(kappa), so with kappa > 0 an
infinite one gives the cap's result.  The pipelines refuse a bad volume as a
CertificationError of their weyl-volume stage.  ball_volume, cone_volume and
generalized_sin take a radius >= 0 instead (the zero ball is a ball), under
their own nonnegative-radius check.  Those radii, the angles, the direction
measure and the counting bound must still be real numbers, and so must a
curvature, which must also be finite: it is stored as a float.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from orbispec import (
    BoundReport,
    CertificationError,
    DomainError,
    ModelOrbifold,
    SpaceForm,
    Spectrum,
    alpha_constant,
    ball_volume,
    bonnet_myers_cap,
    catalog_model,
    cone_volume,
    counting_function,
    diameter_bound,
    ell_constant,
    generalized_sin,
    isotropy_order_cap,
    linked_complement_measure,
    lowest_dirichlet_eigenvalue,
    packing_bound,
    r_constant,
    singular_point_cap,
    spectral_isotropy_bound,
    spectral_singular_point_bound,
)

T2 = catalog_model("t2").spectrum(400.0)
T2_BARE = Spectrum(T2.entries, T2.truncation)
REPORT = dict(
    spectrum_id="ab" * 8, kappa=0.0, n=2, volume=1.0, source="given", diameter_bound=1.0,
    r_used=0.1, rho=3, isotropy_cap=2, alpha=None, ell=None, r_sep=None, singular_cap=None,
    notes={}, stage_trace=(),
)

# (name, call of the magnitude argument, a valid value, the cap an infinite
# diameter bound clamps to, or None where infinity is refused)
CASES = [
    (
        "lowest_dirichlet_eigenvalue",
        lambda x: lowest_dirichlet_eigenvalue(SpaceForm(4, -1.0), x), 0.5, None,
    ),
    ("diameter_bound", lambda x: diameter_bound(T2, 0.0, 2, x), 0.3, None),
    ("isotropy_order_cap.d", lambda x: isotropy_order_cap(2, 0.0, x, 1.0), 1.0, None),
    ("isotropy_order_cap.d.kappa>0", lambda x: isotropy_order_cap(2, 1.0, x, 1.0), 1.0, math.pi),
    ("isotropy_order_cap.v", lambda x: isotropy_order_cap(2, 0.0, 1.0, x), 1.0, None),
    ("alpha_constant.d", lambda x: alpha_constant(2, 0.0, x, 1.0), 1.0, None),
    ("alpha_constant.d.kappa>0", lambda x: alpha_constant(2, 1.0, x, 1.0), 1.0, math.pi),
    ("alpha_constant.v", lambda x: alpha_constant(2, 0.0, 1.0, x), 1.0, None),
    ("ell_constant", lambda x: ell_constant(3, -1.0, x), 1.0, None),
    ("r_constant", lambda x: r_constant(0.0, 0.3, x), 1.0, None),
    ("packing_bound.diameter", lambda x: packing_bound(2, 0.0, x, 0.1), 1.0, None),
    (
        "packing_bound.diameter.kappa>0",
        lambda x: packing_bound(2, 1.0, x, 0.1), 1.0, math.pi,
    ),
    ("packing_bound.eps", lambda x: packing_bound(2, 0.0, 1.0, x), 0.1, None),
    ("singular_point_cap.d", lambda x: singular_point_cap(2, 0.0, x, 1.0), 1.0, None),
    (
        "singular_point_cap.d.kappa>0",
        lambda x: singular_point_cap(2, 1.0, x, 1.0), 1.0, math.pi,
    ),
    ("singular_point_cap.v", lambda x: singular_point_cap(2, 0.0, 1.0, x), 1.0, None),
    (
        "ModelOrbifold.volume",
        lambda x: ModelOrbifold("x", 2, x, 1.0, 0.0, lattice_basis=np.eye(2)).volume, 1.0, None,
    ),
    (
        "ModelOrbifold.diameter",
        lambda x: ModelOrbifold("x", 2, 1.0, x, 0.0, lattice_basis=np.eye(2)).diameter, 1.0, None,
    ),
    ("BoundReport.diameter_bound", lambda x: BoundReport(**{**REPORT, "diameter_bound": x}), 1.0,
     None),
]


def _same(a, b) -> bool:
    return bool(np.array_equal(a, b)) if isinstance(a, np.ndarray) else a == b


@pytest.mark.parametrize("call, valid, cap", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_magnitude_argument_rule(call, valid, cap):
    assert _same(call(np.float64(valid)), call(valid))
    refused = [0.0, -0.0, -1.0, math.nan, -math.inf, True, np.float64("nan")]
    if cap is None:
        refused += [math.inf, np.float64("inf")]
    else:
        assert _same(call(math.inf), call(cap))
    for bad in refused:
        with pytest.raises(DomainError):
            call(bad)


def test_records_store_plain_floats():
    model = ModelOrbifold("x", 2, np.float64(0.5), 2, 0.0, lattice_basis=np.eye(2))
    assert type(model.volume) is float and type(model.diameter) is float
    assert all(
        type(ModelOrbifold("x", 2, 1.0, 1.0, k, lattice_basis=np.eye(2)).curvature_lower_bound)
        is float for k in (1, np.float64(-1.0), np.int64(0))
    )
    assert all(type(SpaceForm(2, k).kappa) is float for k in (1, np.float64(-1.0), np.int64(0)))


# (name, call of a real argument, a valid value): a bool and a non-real are
# refused, and an int past every float counts as infinite, which each refuses.
REAL_CASES = [
    ("ell_constant", lambda x: ell_constant(2, 0.0, x), 1.0),
    ("lowest_dirichlet_eigenvalue", lambda x: lowest_dirichlet_eigenvalue(SpaceForm(2, 0.0), x),
     0.5),
    ("ball_volume", lambda x: ball_volume(SpaceForm(3, -1.0), x), 0.5),
    ("cone_volume.r", lambda x: cone_volume(SpaceForm(3, 1.0), x, 1.0), 0.5),
    ("cone_volume.direction_measure", lambda x: cone_volume(SpaceForm(3, 1.0), 0.5, x), 1.0),
    ("generalized_sin", lambda x: generalized_sin(1.0, x), 0.5),
    ("r_constant.alpha", lambda x: r_constant(0.0, x, 1.0), 0.3),
    ("linked_complement_measure.alpha", lambda x: linked_complement_measure(2, x), 0.3),
    ("counting_function", lambda x: counting_function(T2, x), 100.0),
]


def test_non_real_and_huge_magnitudes_are_domain_errors():
    for _, call, valid in REAL_CASES:
        assert call(np.float64(valid)) == call(valid)
        for bad in ("1.0", 1j, None, 10**400, True):
            with pytest.raises(DomainError):
                call(bad)


# (name, call of the curvature argument): valid at 0.0 and 1.0.
CURVATURE_CASES = [
    ("SpaceForm", lambda k: SpaceForm(2, k)),
    ("ModelOrbifold.curvature_lower_bound",
     lambda k: ModelOrbifold("x", 2, 1.0, 1.0, k, lattice_basis=np.eye(2)).curvature_lower_bound),
    ("bonnet_myers_cap", bonnet_myers_cap),
    ("r_constant", lambda k: r_constant(k, 0.3, 0.5)),
    ("spectral_isotropy_bound", lambda k: spectral_isotropy_bound(T2_BARE, k, n=2, v=1.0)),
    ("spectral_singular_point_bound",
     lambda k: spectral_singular_point_bound(T2_BARE, k, n=2, v=1.0)),
]


@pytest.mark.parametrize(
    "call", [c[1] for c in CURVATURE_CASES], ids=[c[0] for c in CURVATURE_CASES]
)
def test_curvature_rule(call):
    for valid in (0.0, 1.0):
        assert call(np.float64(valid)) == call(valid) == call(int(valid))
    for bad in (True, False, "1", None, 1j, math.nan, math.inf, -math.inf, 10**400):
        with pytest.raises(DomainError):
            call(bad)


@pytest.mark.parametrize("pipeline", [spectral_isotropy_bound, spectral_singular_point_bound])
def test_pipelines_refuse_a_bad_volume_at_the_weyl_volume_stage(pipeline):
    def run(v):
        return pipeline(T2_BARE, 0.0, n=2, v=v)

    assert run(np.float64(1.0)) == run(1.0)
    for bad in (0.0, -1.0, math.nan, math.inf, True):
        with pytest.raises(CertificationError) as err:
            run(bad)
        assert err.value.stage == "weyl-volume"


def test_infinite_diameter_names_the_diameter_without_a_cap():
    # It once read "radius must be finite and nonnegative, got inf".
    for kappa in (0.0, -1.0):
        with pytest.raises(DomainError, match="diameter bound must be positive and finite"):
            isotropy_order_cap(2, kappa, math.inf, 1.0)


def test_only_real_diameters_are_clamped():
    # At kappa = 40 the cap is below 1, so min(True, cap) would pass a bool.
    cap = math.pi / math.sqrt(40.0)
    assert isotropy_order_cap(2, 40.0, 10**400, 0.01) == isotropy_order_cap(2, 40.0, cap, 0.01)
    for bad in (True, "1.0", None, 1j):
        with pytest.raises(DomainError):
            isotropy_order_cap(2, 40.0, bad, 0.01)
