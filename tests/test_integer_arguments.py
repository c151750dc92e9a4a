"""One rule for integer arguments.

Every public function or record slot that takes a dimension, degree, order
or count accepts numpy integers and refuses a bool, a float such as 2.0, and
a value below its minimum with DomainError; the records store a plain int.
"""
from __future__ import annotations

import numpy as np
import pytest

from orbispec import (
    DomainError,
    ModelOrbifold,
    OrthogonalAction,
    SingularPoint,
    SpaceForm,
    Spectrum,
    alpha_constant,
    best_diameter_bound,
    catalog_model,
    cyclic_generator,
    diameter_bound,
    ell_constant,
    estimate_volume,
    harmonic_multiplicity,
    isotropy_order_cap,
    linked_complement_measure,
    packing_bound,
    singular_point_cap,
    sphere_measure,
    sphere_rotation_action,
    sphere_spectrum,
    spectral_isotropy_bound,
    spectral_singular_point_bound,
    unit_ball_volume,
)

S2 = catalog_model("s2").spectrum(400.0)  # 400 eigenvalues
T2 = catalog_model("t2").spectrum(400.0)
# No declared dimension, so the pipelines see the argument itself.
T2_BARE = Spectrum(T2.entries, T2.truncation)

# (name, call of the integer argument, a valid value, minimum or None)
CASES = [
    ("SpaceForm", lambda x: SpaceForm(x, 0.0), 2, 2),
    ("sphere_measure", sphere_measure, 2, 0),
    ("unit_ball_volume", unit_ball_volume, 2, 1),
    ("linked_complement_measure", lambda x: linked_complement_measure(x, 0.3), 2, 1),
    ("harmonic_multiplicity.n", lambda x: harmonic_multiplicity(x, 3), 2, 1),
    ("harmonic_multiplicity.l", lambda x: harmonic_multiplicity(2, x), 3, None),
    ("sphere_spectrum", lambda x: sphere_spectrum(x, 20.0), 2, 2),
    ("OrthogonalAction.order", lambda x: OrthogonalAction(x, (1,)), 2, 2),
    ("OrthogonalAction.exponent", lambda x: OrthogonalAction(4, (x,)), 1, None),
    ("OrthogonalAction.fixed_axes", lambda x: OrthogonalAction(2, (1,), x), 1, 0),
    ("OrthogonalAction.reversed_axes", lambda x: OrthogonalAction(2, (1,), 0, x), 1, 0),
    ("cyclic_generator", cyclic_generator, 3, 2),
    ("sphere_rotation_action", sphere_rotation_action, 3, 2),
    ("Spectrum.multiplicity", lambda x: Spectrum(((0.0, 1), (2.0, x)), 3.0), 3, 1),
    ("Spectrum.dimension", lambda x: Spectrum(((0.0, 1),), 3.0, x), 2, 1),
    ("SingularPoint", lambda x: SingularPoint(x, True), 2, 2),
    (
        "ModelOrbifold.dimension",
        lambda x: ModelOrbifold("x", x, 1.0, 1.0, 0.0, lattice_basis=np.eye(2)).dimension, 2, 1,
    ),
    ("estimate_volume", lambda x: estimate_volume(S2, x), 2, 1),
    ("diameter_bound", lambda x: diameter_bound(T2, 0.0, x, 0.5), 2, 2),
    ("best_diameter_bound", lambda x: best_diameter_bound(T2, 0.0, x), 2, 2),
    ("isotropy_order_cap", lambda x: isotropy_order_cap(x, 0.0, 1.0, 1.0), 2, 2),
    ("alpha_constant", lambda x: alpha_constant(x, 0.0, 1.0, 1.0), 2, 2),
    ("ell_constant", lambda x: ell_constant(x, 0.0, 1.0), 2, 2),
    ("packing_bound", lambda x: packing_bound(x, 0.0, 1.0, 0.1), 2, 2),
    ("singular_point_cap", lambda x: singular_point_cap(x, 0.0, 1.0, 1.0), 2, 2),
    (
        "spectral_isotropy_bound",
        lambda x: spectral_isotropy_bound(T2_BARE, 0.0, n=x, v=1.0),
        2, 2,
    ),
    (
        "spectral_singular_point_bound",
        lambda x: spectral_singular_point_bound(T2_BARE, 0.0, n=x, v=1.0),
        2, 2,
    ),
]


def _same(a, b) -> bool:
    if isinstance(a, OrthogonalAction):
        a, b = vars(a), vars(b)
    return bool(np.array_equal(a, b)) if isinstance(a, np.ndarray) else a == b


@pytest.mark.parametrize("call, valid, minimum", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_integer_argument_rule(call, valid, minimum):
    assert _same(call(np.int64(valid)), call(valid))
    refused = [True, 2.0, float(valid)] + ([minimum - 1] if minimum is not None else [])
    for bad in refused:
        with pytest.raises(DomainError):
            call(bad)


def test_space_form_stores_a_plain_int():
    assert type(SpaceForm(np.int64(3), 1.0).n) is int


def test_records_store_plain_ints():
    spec = Spectrum(((0.0, np.int64(1)), (2.0, np.int32(3))), 3.0, np.int64(2))
    assert [type(m) for _, m in spec.entries] == [int, int] and type(spec.dimension) is int
    assert type(SingularPoint(np.int64(2), True).isotropy_order) is int
    model = ModelOrbifold("x", np.int64(2), 1.0, 1.0, 0.0, lattice_basis=np.eye(2))
    assert type(model.dimension) is int
