"""Certified diameter, isotropy, and singular-point bounds."""
from __future__ import annotations

import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from orbispec import (
    BoundReport,
    CertificationError,
    ConvergenceError,
    DomainError,
    SpaceForm,
    Spectrum,
    alpha_constant,
    ball_volume,
    best_diameter_bound,
    bonnet_myers_cap,
    catalog_model,
    default_r_grid,
    diameter_bound,
    ell_constant,
    isotropy_order_cap,
    isotropy_type_enumeration,
    lambda_threshold,
    law_of_cosines_side,
    r_constant,
    singular_point_cap,
    spectral_isotropy_bound,
    spectral_singular_point_bound,
    spectrum_content_id,
    sphere_measure,
    weyl_fit,
)
from orbispec import bounds as bounds_module
from orbispec.bounds import SHRINK
from oracles import (
    flat_separation_radius,
    gauss_legendre_linked_complement,
    hyperbolic_separation_radius,
)

BESSEL_J01_SQ = 5.783185962946785


def test_lambda_threshold_known_values():
    assert abs(lambda_threshold(2, 1.0, 0.5 * math.pi) - 2.0) < 1e-7
    assert abs(lambda_threshold(2, 0.0, 1.0) - BESSEL_J01_SQ) < 1e-7
    assert abs(lambda_threshold(2, 0.0, 0.5) - BESSEL_J01_SQ / 0.25) < 1e-6


def test_spectrum_content_id_is_content_addressed():
    a = Spectrum(((0.0, 1), (2.0, 3)), 10.0)
    b = Spectrum(((0.0, 1), (2.0, 3)), 10.0)
    c = Spectrum(((0.0, 1), (2.0, 4)), 10.0)
    assert spectrum_content_id(a) == spectrum_content_id(b)
    assert spectrum_content_id(a) != spectrum_content_id(c)
    assert len(spectrum_content_id(a)) == 16
    assert all(ch in "0123456789abcdef" for ch in spectrum_content_id(a))


def test_diameter_bound_counts_and_clamps(s2_spectrum, catalog_spectra):
    # On the round sphere any admissible radius reaches the Bonnet-Myers clamp.
    d, rho = diameter_bound(s2_spectrum, 1.0, 2, 1.0)
    assert d == math.pi and rho >= 1
    # Flat torus at r = 0.4: threshold ~36.1 catches only the zero eigenvalue.
    _, t2_spec = catalog_spectra["t2"]
    d, rho = diameter_bound(t2_spec, 0.0, 2, 0.4)
    assert rho == 1
    assert abs(d - 1.6) < 1e-12
    assert d >= catalog_spectra["t2"][0].diameter  # soundness


def test_diameter_bound_validation(s2_spectrum):
    with pytest.raises(DomainError):
        diameter_bound(s2_spectrum, 1.0, 1, 0.5)
    with pytest.raises(DomainError):
        diameter_bound(s2_spectrum, 1.0, 2.0, 0.5)  # non-int dimension
    with pytest.raises(DomainError):
        diameter_bound(s2_spectrum, 1.0, 2, 0.0)
    with pytest.raises(DomainError):
        diameter_bound(s2_spectrum, 1.0, 2, math.pi)  # at the antipodal cap
    short = Spectrum(((0.0, 1),), 0.05)
    with pytest.raises(DomainError):
        diameter_bound(short, 0.0, 2, 1.0)  # threshold above truncation


def test_default_r_grid_shape():
    g = default_r_grid(2, 0.0, math.pi * 4, points=16)
    assert len(g) == 16 and np.all(np.diff(g) > 0)
    assert abs(g[-1] / g[0] - 1000.0) < 1e-6
    capped = default_r_grid(2, 1.0, 1e9)
    assert capped[-1] <= 0.999 * math.pi + 1e-12
    with pytest.raises(DomainError):
        default_r_grid(2, 0.0, -1.0)
    with pytest.raises(DomainError):
        default_r_grid(2, 0.0, 1.0, points=1)


def test_best_diameter_bound_prefers_small_radius(s2_spectrum):
    d, r, rho = best_diameter_bound(s2_spectrum, 1.0, 2, r_grid=[0.5, 1.0, 2.0])
    assert d == math.pi
    assert r == 0.5  # all radii tie at the clamp; ties favor small r
    assert rho == diameter_bound(s2_spectrum, 1.0, 2, 0.5)[1]
    with pytest.raises(DomainError):
        best_diameter_bound(s2_spectrum, 1.0, 2)  # no grid, no hint
    with pytest.raises(DomainError):
        best_diameter_bound(s2_spectrum, 1.0, 2, r_grid=[])


def test_best_diameter_bound_certification_failure():
    short = Spectrum(((0.0, 1),), 0.05)
    with pytest.raises(CertificationError) as err:
        best_diameter_bound(short, 0.0, 2, r_grid=[0.5, 1.0])
    assert err.value.stage == "diameter"


def test_best_diameter_bound_uses_closed_form_at_former_failure_key():
    # The shooting oracle's event-location failure key (test_dirichlet) is
    # an n = 3 key, where the threshold is now the closed form.
    kappa, r = 0.7852497754447629, 0.9071244157410668
    spec = catalog_model("s3").spectrum(899.0)
    assert lambda_threshold(3, kappa, r) == (math.pi / r) ** 2 - kappa
    d, r_used, rho = best_diameter_bound(spec, kappa, 3, r_grid=[r])
    assert r_used == r
    assert (d, rho) == diameter_bound(spec, kappa, 3, r)


def test_best_diameter_bound_skips_unconverged_radius(monkeypatch):
    # A threshold solve that raises ConvergenceError drops its radius; the
    # search certifies with the next one and keeps the reason.
    spec = catalog_model("s3").spectrum(899.0)
    kappa, bad_r = 1.0, 0.9
    real = bounds_module.lambda_threshold

    def flaky(n, k, r):
        if r == bad_r:
            raise ConvergenceError("solver did not converge")
        return real(n, k, r)

    monkeypatch.setattr(bounds_module, "lambda_threshold", flaky)
    d, r, rho = best_diameter_bound(spec, kappa, 3, r_grid=[bad_r, 1.2])
    assert r == 1.2
    assert (d, rho) == diameter_bound(spec, kappa, 3, 1.2)
    with pytest.raises(CertificationError, match="solver did not converge"):
        best_diameter_bound(spec, kappa, 3, r_grid=[bad_r])


def test_isotropy_order_cap_exact_on_sphere_quotients(s2_spectrum):
    # ball_volume(S^2, pi) = 4 pi, so the cap equals k exactly for v = 4 pi / k.
    for k in (2, 3, 4, 6):
        spec = catalog_model(f"s2-mod-{k}").spectrum(120.0)
        cap = isotropy_order_cap(spec, 1.0, (2, 4 * math.pi / k), math.pi)
        assert cap == k
    # diameters beyond the antipodal cap clamp back to it
    assert isotropy_order_cap(s2_spectrum, 1.0, (2, 4 * math.pi), 50.0) == 1


def test_isotropy_order_cap_accepts_weyl_fit(s2_spectrum):
    fit = weyl_fit(s2_spectrum)
    cap = isotropy_order_cap(s2_spectrum, 1.0, fit, math.pi)
    assert cap >= 1


def test_isotropy_order_cap_validation(s2_spectrum):
    with pytest.raises(DomainError):
        isotropy_order_cap(s2_spectrum, 1.0, (0, 1.0), math.pi)
    with pytest.raises(DomainError):
        isotropy_order_cap(s2_spectrum, 1.0, (2, -1.0), math.pi)
    with pytest.raises(DomainError):
        isotropy_order_cap(s2_spectrum, 1.0, (2, 1.0), 0.0)
    with pytest.raises(DomainError):
        isotropy_order_cap(s2_spectrum, 1.0, (3, 4.0), math.pi)  # declared dim 2


def test_isotropy_type_enumeration():
    assert isotropy_type_enumeration(2, 4) == ["C_2", "C_3", "C_4"]
    assert isotropy_type_enumeration(2, 1) == []
    note = isotropy_type_enumeration(3, 5)
    assert len(note) == 1 and "n = 2" in note[0]
    with pytest.raises(DomainError):
        isotropy_type_enumeration(2, 0)


ALPHA_HI = 0.5 * math.pi * (1.0 - 1e-12)


def _oracle_cone(n, kappa, d, alpha):
    """Cone volume over the bad directions, measured by the band oracle."""
    sf = SpaceForm(n, kappa)
    dd = min(d, bonnet_myers_cap(kappa)) if kappa > 0 else d
    band = gauss_legendre_linked_complement(n - 1, alpha)
    return ball_volume(sf, dd) * band / sphere_measure(n - 1)


def test_alpha_constant_is_maximal_under_budget():
    for n, kappa, d, v in ((2, 0.0, 1.0, 1.0), (2, 1.0, math.pi, 4 * math.pi), (3, 0.0, 2.0, 3.0)):
        alpha = alpha_constant(n, kappa, d, v)
        assert _oracle_cone(n, kappa, d, alpha) < v / 6.0  # certified strict budget
        if alpha < ALPHA_HI - 1e-9:
            # near-maximal
            assert _oracle_cone(n, kappa, d, min(alpha * 1.01, ALPHA_HI)) >= v / 6.0 - 1e-9


def test_alpha_constant_small_angles_stay_under_budget():
    # Angles of a few 1e-6 and below, where the bad-direction cone once read
    # up to 37.5% low and the returned angle overran the budget by 1.357x.
    for n, kappa, d, v in ((3, 0.0, 24.0, 1.0), (3, -1.0, 8.0, 1.0)):
        alpha = alpha_constant(n, kappa, d, v)
        assert _oracle_cone(n, kappa, d, alpha) < v / 6.0, (n, kappa, d, v, alpha)


def test_alpha_constant_budget_at_the_ball_volume():
    # A budget equal to the ball volume puts the inverse at pi/2, where the
    # forward cone is flat to rounding over many ulps; the search still ends
    # (one-ulp steps had not after 200000) with an angle under the budget.
    for n in (2, 3, 4):
        for kappa, d in ((0.0, 1.0), (-1.0, 2.0), (1.0, 2.0)):
            v = 6.0 * (ball_volume(SpaceForm(n, kappa), d) + 1e-9)
            alpha = alpha_constant(n, kappa, d, v)
            assert 1.5 < alpha < ALPHA_HI
            assert _oracle_cone(n, kappa, d, alpha) < v / 6.0


def _alpha_or_zero(n, kappa, d, v):
    """alpha_constant, or 0 where no angle fits the budget."""
    try:
        return alpha_constant(n, kappa, d, v)
    except CertificationError as exc:
        assert exc.stage == "alpha"
        # only when even the smallest angle tried busts the budget
        assert _oracle_cone(n, kappa, d, 1e-9) >= v / 6.0 - 1e-9
        return 0.0


@settings(max_examples=150, deadline=None)
@given(
    n=st.sampled_from([2, 3, 4, 5]),
    kappa=st.sampled_from([-1.0, 0.0, 1.0]),
    curvature_scale=st.floats(0.1, 2.0),
    d=st.floats(0.05, 8.0),
    v=st.floats(0.05, 100.0),
    grow=st.floats(1.0, 4.0),
)
def test_alpha_constant_properties(n, kappa, curvature_scale, d, v, grow):
    kappa *= curvature_scale
    alpha = _alpha_or_zero(n, kappa, d, v)
    if alpha > 0.0:
        # the certified budget, measured independently
        assert _oracle_cone(n, kappa, d, alpha) < v / 6.0
        # near-maximal unless the angle ran to its pi/2 endpoint
        if alpha < ALPHA_HI:
            bigger = min(alpha * (1.0 + 1e-6), 0.5 * math.pi)
            assert _oracle_cone(n, kappa, d, bigger) >= v / 6.0 - 1e-9
    # a larger diameter never widens the angle; a larger volume never narrows it
    assert _alpha_or_zero(n, kappa, d * grow, v) <= alpha
    assert _alpha_or_zero(n, kappa, d, v * grow) >= alpha


def test_alpha_constant_saturates_for_large_volume():
    # the whole cone fits under v/6, so the angle runs to its pi/2 endpoint
    alpha = alpha_constant(2, 0.0, 1.0, 30.0)
    assert alpha > 0.5 * math.pi - 1e-9


def test_alpha_constant_error_paths():
    with pytest.raises(CertificationError) as err:
        alpha_constant(2, 0.0, 1.0, 1e-12)
    assert err.value.stage == "alpha"
    with pytest.raises(CertificationError):
        alpha_constant(2, 0.0, 100.0, 1e-6)  # even tiny angles blow the budget
    with pytest.raises(DomainError):
        alpha_constant(2, 0.0, -1.0, 1.0)
    with pytest.raises(DomainError):
        alpha_constant(2, 0.0, 1.0, 0.0)


def test_ell_constant_closed_forms():
    # flat: pi r^2 = v/3 and (4/3) pi r^3 = v/3
    v = 2.7
    assert abs(ell_constant(2, 0.0, v) - (1 - 1e-6) * math.sqrt(v / (3 * math.pi))) < 1e-12
    r3 = (v / (4 * math.pi)) ** (1.0 / 3.0)
    assert abs(ell_constant(3, 0.0, v) - (1 - 1e-6) * r3) < 1e-12
    # sphere: 4 pi sin^2(r/2) = v/3
    v = 4 * math.pi
    r_sphere = 2 * math.asin(math.sqrt(v / (12 * math.pi)))
    assert abs(ell_constant(2, 1.0, v) - (1 - 1e-6) * r_sphere) < 1e-10
    # huge volume saturates at the antipodal cap
    assert abs(ell_constant(2, 1.0, 40 * math.pi) - (1 - 1e-6) * math.pi) < 1e-12
    # hyperbolic: (4 pi / |k|) sinh^2(s r / 2) = v/3
    kappa, v = -2.0, 5.0
    s = math.sqrt(-kappa)
    r_hyp = (2 / s) * math.asinh(math.sqrt(v * s * s / (12 * math.pi)))
    assert abs(ell_constant(2, kappa, v) - (1 - 1e-6) * r_hyp) < 1e-10
    with pytest.raises(DomainError):
        ell_constant(2, 0.0, 0.0)


def test_r_constant_flat_closed_form():
    # flat geometry: the hinge shortens exactly below 2 ell sin(alpha)
    for alpha, ell in ((0.1, 1.0), (0.4, 2.5), (1.2, 0.3)):
        got = r_constant(0.0, alpha, ell)
        want = flat_separation_radius(alpha, ell)
        assert got < want
        assert got > 0.999 * want


def test_r_constant_hyperbolic_closed_form():
    for kappa, alpha, ell in ((-1.0, 0.3, 1.0), (-0.5, 0.8, 2.0)):
        got = r_constant(kappa, alpha, ell)
        want = min(ell, hyperbolic_separation_radius(kappa, alpha, ell))
        assert got < want
        assert got > 0.995 * want


def test_r_constant_spherical_certificate_holds():
    rng = np.random.default_rng(3)
    alpha, ell = 0.5, 1.2
    r = r_constant(1.0, alpha, ell)
    assert 0.0 < r < ell
    c3 = rng.uniform(ell, 2.8, size=300)
    theta = rng.uniform(0.0, 0.5 * math.pi - alpha, size=300)
    closing = law_of_cosines_side(1.0, r, c3, theta)
    assert np.all(closing < c3)


# (kappa, alpha, ell) across all curvature signs; (1.0, 0.2, 1.7) and
# (4.0, 0.9, 0.8) have sqrt(kappa) * ell >= pi/2, where r is ell itself.
R_CONSTANT_CASES = (
    (-4.0, 0.05, 1.5),
    (-1.0, 0.3, 1.0),
    (-0.5, 1.1, 0.2),
    (0.0, 0.1, 1.0),
    (0.0, 1.3, 2.0),
    (0.25, 0.15, 2.0),
    (1.0, 0.1, 0.6),
    (1.0, 0.5, 1.2),
    (1.0, 0.2, 1.7),
    (4.0, 0.9, 0.8),
)


def test_r_constant_sound_on_dense_and_random_hinges():
    rng = np.random.default_rng(7)
    for kappa, alpha, ell in R_CONSTANT_CASES:
        r = r_constant(kappa, alpha, ell)
        assert 0.0 < r < ell
        c3_max = 3.0 * ell
        if kappa > 0:
            c3_max = min(c3_max, bonnet_myers_cap(kappa) * (1.0 - 1e-9))
        theta_max = 0.5 * math.pi - alpha
        dense_c3, dense_theta = np.meshgrid(
            np.linspace(ell, c3_max, 301), np.linspace(0.0, theta_max, 301)
        )
        c3 = np.concatenate([dense_c3.ravel(), rng.uniform(ell, c3_max, 20000)])
        theta = np.concatenate([dense_theta.ravel(), rng.uniform(0.0, theta_max, 20000)])
        closing = law_of_cosines_side(kappa, r, c3, theta)
        assert np.all(closing < c3), (kappa, alpha, ell)


def test_r_constant_tight_at_binding_hinge():
    tested = 0
    for kappa, alpha, ell in R_CONSTANT_CASES:
        r = r_constant(kappa, alpha, ell)
        if r >= SHRINK * ell:
            continue  # r* >= ell: the cap at ell binds, not the hinge
        tested += 1
        past = r * (1.0 + 1e-4) / SHRINK
        assert law_of_cosines_side(kappa, past, ell, 0.5 * math.pi - alpha) >= ell
    assert tested >= 5


@settings(max_examples=200, deadline=None)
@given(
    kappa=st.floats(-4.0, 4.0),
    alpha=st.floats(0.01, 0.5 * math.pi - 0.01),
    ell_fraction=st.floats(0.01, 0.99),
    c=st.floats(0.1, 10.0),
)
def test_r_constant_scales_with_length(kappa, alpha, ell_fraction, c):
    # Lengths scale by c when curvature scales by 1/c^2.  A subnormal kappa
    # can underflow to 0 under that scaling, which changes the geometry.
    assume(kappa == 0.0 or abs(kappa) / (c * c) >= sys.float_info.min)
    if kappa > 0:
        ell = ell_fraction * bonnet_myers_cap(kappa)
    else:
        ell = 10.0 * ell_fraction
    scaled = r_constant(kappa / (c * c), alpha, c * ell)
    assert scaled == pytest.approx(c * r_constant(kappa, alpha, ell), rel=1e-12)


def test_r_constant_validation():
    with pytest.raises(DomainError):
        r_constant(0.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        r_constant(0.0, 2.0, 1.0)  # angle beyond pi/2
    with pytest.raises(DomainError):
        r_constant(0.0, 0.3, 0.0)
    with pytest.raises(DomainError):
        r_constant(1.0, 0.3, 3.5)  # ell beyond the antipodal cap


def test_singular_point_cap_structure():
    pc = catalog_model("pillowcase")
    cap, consts = singular_point_cap(2, 0.0, pc.diameter, pc.volume)
    assert set(consts) == {"alpha", "ell", "r"}
    assert 0.0 < consts["r"] < consts["ell"]
    assert 0.0 < consts["alpha"] <= 0.5 * math.pi
    assert isinstance(cap, int)
    assert cap >= pc.isolated_singular_count  # soundness: at least 4


def test_bound_report_validation():
    base = dict(
        spectrum_id="ab" * 8,
        kappa=1.0,
        n=2,
        volume=4 * math.pi,
        source="given",
        diameter_bound=math.pi,
        r_used=0.5,
        rho=3,
        isotropy_cap=2,
        alpha=None,
        ell=None,
        r_sep=None,
        singular_cap=None,
        notes={},
        stage_trace=(),
    )
    BoundReport(**base)
    with pytest.raises(DomainError):
        BoundReport(**{**base, "diameter_bound": 0.0})
    with pytest.raises(DomainError):
        BoundReport(**{**base, "diameter_bound": 4.0})  # beyond pi at kappa = 1
    with pytest.raises(DomainError):
        BoundReport(**{**base, "rho": 0})
    with pytest.raises(DomainError):
        BoundReport(**{**base, "singular_cap": 5})  # constants missing
    with pytest.raises(DomainError):
        BoundReport(**{**base, "singular_cap": 5, "alpha": 0.3, "ell": 0.2, "r_sep": 0.4})


def test_isotropy_pipeline_exact_inputs():
    model = catalog_model("s2-mod-3")
    spec = model.spectrum(400.0)
    rep = spectral_isotropy_bound(spec, 1.0, n=2, v=model.volume, r_grid=[0.4, 0.8, 1.5])
    assert rep.source == "given"
    assert rep.diameter_bound == math.pi
    assert rep.isotropy_cap == 3
    assert rep.singular_cap is None and rep.alpha is None
    stages = [s["stage"] for s in rep.stage_trace]
    assert stages == ["diameter", "isotropy-cap"]
    d = rep.to_dict()
    assert d["inputs"]["source"] == "given"
    assert d["isotropy_cap"] == 3
    assert d["diameter_bound"] == math.pi
    assert [s["stage"] for s in d["stage_trace"]] == stages
    # determinism: identical spectra give identical reports
    rep2 = spectral_isotropy_bound(model.spectrum(400.0), 1.0, n=2, v=model.volume, r_grid=[0.4, 0.8, 1.5])
    assert rep2.to_dict() == d


def test_isotropy_pipeline_weyl_path(s2_spectrum):
    rep = spectral_isotropy_bound(s2_spectrum, 1.0)
    assert rep.source == "weyl-estimated"
    assert rep.n == 2
    assert abs(rep.volume - 4 * math.pi) <= 0.10 * 4 * math.pi
    stages = [s["stage"] for s in rep.stage_trace]
    assert stages[:2] == ["weyl-dimension", "weyl-volume"]
    assert rep.diameter_bound == math.pi


def test_pipeline_dimension_conflict(s2_spectrum):
    with pytest.raises(CertificationError) as err:
        spectral_isotropy_bound(s2_spectrum, 1.0, n=3, v=4 * math.pi)
    assert err.value.stage == "weyl-dimension"


def test_pipeline_stage_failures(s2_spectrum):
    short = Spectrum(((0.0, 1),), 0.05)
    with pytest.raises(CertificationError) as err:
        spectral_isotropy_bound(short, 0.0, n=2, v=math.pi, r_grid=[0.5, 1.0])
    assert err.value.stage == "diameter"
    with pytest.raises(CertificationError) as err:
        spectral_singular_point_bound(s2_spectrum, 1.0, n=2, v=1e-12, r_grid=[0.5])
    assert err.value.stage == "alpha"


def test_singular_pipeline_full_report():
    model = catalog_model("pillowcase")
    spec = model.spectrum(3000.0)
    rep = spectral_singular_point_bound(
        spec, 0.0, n=2, v=model.volume, r_grid=[0.05, 0.1, 0.2]
    )
    assert rep.singular_cap is not None
    assert rep.singular_cap >= model.isolated_singular_count
    assert rep.alpha is not None and rep.ell is not None and rep.r_sep is not None
    assert 0.0 < rep.r_sep < rep.ell
    stages = [s["stage"] for s in rep.stage_trace]
    assert stages == ["diameter", "isotropy-cap", "singular-cap"]
    assert rep.diameter_bound >= model.diameter  # soundness
    d = rep.to_dict()
    assert set(d["notes"]) >= {"alpha", "ell", "r_sep", "singular_cap", "diameter"}
    assert d["singular_cap"] == rep.singular_cap
