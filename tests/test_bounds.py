"""Certified diameter, isotropy, and singular-point bounds."""
from __future__ import annotations

import functools
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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
    cone_volume,
    counting_function,
    diameter_bound,
    ell_constant,
    flat_torus_spectrum,
    generalized_sin,
    isotropy_order_cap,
    linked_complement_measure,
    lowest_dirichlet_eigenvalue,
    model_catalog,
    packing_bound,
    r_constant,
    singular_point_cap,
    spectral_isotropy_bound,
    spectral_singular_point_bound,
    spectrum_content_id,
    sphere_measure,
    sphere_spectrum,
)
from orbispec import bounds as bounds_module
from orbispec import dirichlet
from orbispec.bounds import ALPHA_MARGIN, RHO_TOL_SCALE, SHRINK
from orbispec.cli import _VERIFY_TRUNCATIONS as VERIFY_TRUNCATIONS
from orbispec.weyl import estimate_volume
from oracles import (
    breakpoints,
    exhaustive_diameter_bound,
    flat_separation_radius,
    gauss_legendre_linked_complement,
    hyperbolic_separation_radius,
    law_of_cosines_side,
    log_radius_grid,
    reference_ell_constant,
    shooting_eigenvalue,
)

BESSEL_J01_SQ = 5.783185962946785


def _eigenvalue(n: int, kappa: float, r: float) -> float:
    return lowest_dirichlet_eigenvalue(SpaceForm(n, kappa), r)


def test_lambda_threshold_known_values():
    assert abs(_eigenvalue(2, 1.0, 0.5 * math.pi) - 2.0) < 1e-7
    assert abs(_eigenvalue(2, 0.0, 1.0) - BESSEL_J01_SQ) < 1e-7
    assert abs(_eigenvalue(2, 0.0, 0.5) - BESSEL_J01_SQ / 0.25) < 1e-6


def test_spectrum_content_id_is_content_addressed():
    a = Spectrum(((0.0, 1), (2.0, 3)), 10.0)
    b = Spectrum(((0.0, 1), (2.0, 3)), 10.0)
    c = Spectrum(((0.0, 1), (2.0, 4)), 10.0)
    assert spectrum_content_id(a) == spectrum_content_id(b)
    assert spectrum_content_id(a) != spectrum_content_id(c)
    assert len(spectrum_content_id(a)) == 16
    assert all(ch in "0123456789abcdef" for ch in spectrum_content_id(a))


def test_spectrum_content_id_round_trips_and_sees_every_field():
    spec = catalog_model("s2-mod-3").spectrum(2000.0)
    base = spectrum_content_id(spec)
    assert spectrum_content_id(Spectrum.from_dict(spec.to_dict())) == base
    entries = list(spec.entries)
    val, mult = entries[1]
    one_ulp = entries[:1] + [(float(np.nextafter(val, math.inf)), mult)] + entries[2:]
    more = entries[:1] + [(val, mult + 1)] + entries[2:]
    variants = [
        Spectrum(tuple(one_ulp), spec.truncation, spec.dimension),
        Spectrum(tuple(more), spec.truncation, spec.dimension),
        Spectrum(spec.entries, float(np.nextafter(spec.truncation, math.inf)), spec.dimension),
    ]
    ids = {base} | {spectrum_content_id(v) for v in variants}
    assert len(ids) == 4
    undeclared = Spectrum(spec.entries, spec.truncation)
    declared = Spectrum(spec.entries, spec.truncation, 2)
    assert spectrum_content_id(undeclared) != spectrum_content_id(declared)
    assert spectrum_content_id(Spectrum.from_dict(undeclared.to_dict())) == spectrum_content_id(
        undeclared
    )


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


def test_rho_tolerance_is_scale_covariant_below_threshold_one():
    # Halving every length multiplies the eigenvalues and the truncation by 4
    # (exactly, in floats) and must halve D with the same rho.  The threshold
    # here is below 1, where an absolute tolerance floor of 1e-9 counted an
    # eigenvalue 0.9e-9 above it at r = 4 ((24.0, 2)) but not at r = 2.
    t = _eigenvalue(2, 0.0, 4.0)
    assert t < 1.0
    spec = Spectrum(((0.0, 1), (t + 0.9e-9, 1)), 10.0)
    halved = Spectrum(((0.0, 1), (4.0 * (t + 0.9e-9), 1)), 40.0)
    assert diameter_bound(spec, 0.0, 2, 4.0) == (16.0, 1)
    assert diameter_bound(halved, 0.0, 2, 2.0) == (8.0, 1)


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


def test_best_diameter_bound_prefers_large_radius(s2_spectrum):
    # Every breakpoint ties at the clamp; ties favor large r (fewest
    # eigenvalues), so the search returns the largest of them.
    d, r, rho = best_diameter_bound(s2_spectrum, 1.0, 2)
    radii = breakpoints(s2_spectrum, 2, 1.0)
    assert d == math.pi and r == radii.max()
    assert all(diameter_bound(s2_spectrum, 1.0, 2, float(x))[0] == math.pi for x in radii)
    assert rho == diameter_bound(s2_spectrum, 1.0, 2, r)[1]


def test_best_diameter_bound_certification_failure():
    # At kappa = 1 every threshold exceeds this truncation.
    short = Spectrum(((0.0, 1),), 0.05)
    with pytest.raises(CertificationError) as err:
        best_diameter_bound(short, 1.0, 2)
    assert err.value.stage == "diameter"


@pytest.mark.parametrize("entries", [((50.0, 1),), ((50.0, 1), (60.0, 2)), ()])
def test_best_diameter_bound_refuses_a_spectrum_without_eigenvalue_zero(entries):
    # The ball count rests on lam_0 = 0.  Without it the search once
    # certified rho = 0, which only the report's constructor refused, as an
    # error with no stage.
    spec = Spectrum(entries, 100.0)
    with pytest.raises(CertificationError, match=r"lam_0 = 0") as err:
        best_diameter_bound(spec, 0.0, 2)
    assert err.value.stage == "diameter"
    with pytest.raises(CertificationError, match=r"^\[diameter\].*lam_0 = 0"):
        spectral_isotropy_bound(spec, 0.0, n=2, v=math.pi)


def test_best_diameter_bound_uses_closed_form_at_former_failure_key():
    # The shooting oracle's event-location failure key (test_dirichlet) is
    # an n = 3 key, where the threshold is now the closed form.
    kappa, r = 0.7852497754447629, 0.9071244157410668
    spec = catalog_model("s3").spectrum(899.0)
    assert _eigenvalue(3, kappa, r) == (math.pi / r) ** 2 - kappa
    d, rho = diameter_bound(spec, kappa, 3, r)
    assert exhaustive_diameter_bound(spec, kappa, 3, [r]) == (d, r, rho)
    assert best_diameter_bound(spec, kappa, 3)[0] <= d


@functools.lru_cache(maxsize=None)
def _catalog_spectrum(model_id: str, truncation: float):
    model = catalog_model(model_id)
    return model, model.spectrum(truncation)


def _search_outcome(search, *args):
    """The (D, r, rho) triple, or the stage and text of the CertificationError."""
    try:
        return tuple(search(*args))
    except CertificationError as exc:
        return ("error", exc.stage, str(exc))


@st.composite
def _radius_grids(draw, n, kappa, volume):
    """64-radius log grids, or unsorted radii with duplicates that may pass the antipodal cap."""
    if draw(st.booleans()):
        return list(log_radius_grid(n, kappa, volume))
    exponents = st.floats(min_value=-3.0, max_value=math.log10(8.0))
    radii = draw(st.lists(exponents.map(lambda e: 10.0**e), min_size=1, max_size=24))
    radii += draw(st.lists(st.sampled_from(radii), max_size=4))
    return draw(st.permutations(radii))


def test_diameter_bound_refuses_an_overflowing_span():
    # At kappa <= 0 no cap clamps 2 r (rho + 1), so a radius near 1e308
    # whose threshold lies below the truncation once certified D = inf and
    # the failure surfaced only in the isotropy stage.  It is refused; no
    # breakpoint lies that far out, so the search certifies a finite D.
    spec = catalog_model("t2").spectrum(8000.0)
    with pytest.raises(DomainError, match=r"2 r \(rho \+ 1\) .* overflows"):
        diameter_bound(spec, 0.0, 2, 1e308)
    assert math.isfinite(best_diameter_bound(spec, 0.0, 2)[0])


@pytest.mark.parametrize("model_id", [m.model_id for m in model_catalog()])
def test_best_diameter_bound_solves_few_radii(model_id, monkeypatch):
    # The default search at both verify truncations and the exact kappa:
    # at most one radius per distinct eigenvalue, plus the truncation's,
    # none past the antipodal cap.  The search resolves only the breakpoints
    # that can win, never calls diameter_bound, scores the truncation's
    # radius r_T first with the triple diameter_bound gives there, and
    # returns the full scan's triple over every breakpoint, none of which
    # that scan refuses.
    model = catalog_model(model_id)
    n, kappa = model.dimension, model.curvature_lower_bound
    real, real_weigh = bounds_module.diameter_bound, bounds_module._weigh
    calls, weighed = [], []

    def counted(*args):
        calls.append(args)
        return real(*args)

    def weigh(*args):
        weighed.append(real_weigh(*args))
        return weighed[-1]

    monkeypatch.setattr(bounds_module, "diameter_bound", counted)
    monkeypatch.setattr(bounds_module, "_weigh", weigh)
    for truncation in VERIFY_TRUNCATIONS[(model.kind, n)]:
        spec = model.spectrum(truncation)
        grid = breakpoints(spec, n, kappa)
        calls.clear()
        weighed.clear()
        search = best_diameter_bound(spec, kappa, n)
        assert calls == [], truncation
        r_t = float(grid[-1])
        d, rho = real(spec, kappa, n, r_t)
        assert weighed[0] == (d, r_t, rho), truncation
        assert search.radii_searched == len(grid) <= spec.values.size + 1
        scan = exhaustive_diameter_bound(spec, kappa, n, grid)
        assert search == scan and scan.last_skip is None


@pytest.mark.parametrize("model_id", [m.model_id for m in model_catalog()])
def test_diameter_search_resolves_at_most_eight_radii(model_id):
    # The walk resolves only breakpoints whose proven lower bound on D can
    # still win, at the exact and a loosened kappa, at both verify
    # truncations and at the largest the benchmark sweeps: a handful of
    # radii however many breakpoints there are.
    model = catalog_model(model_id)
    n = model.dimension
    for truncation in (*VERIFY_TRUNCATIONS[(model.kind, n)], 256000.0 if n == 2 else 16000.0):
        spec = model.spectrum(truncation)
        for kappa in (model.curvature_lower_bound, model.curvature_lower_bound - 0.75):
            search = best_diameter_bound(spec, kappa, n)
            assert search.radii_resolved <= 8, (truncation, kappa, search.radii_searched)
            rep = spectral_isotropy_bound(spec, kappa, n=n, v=model.volume)
            assert _diameter_stage(rep)["radii_resolved"] == search.radii_resolved


@pytest.mark.parametrize("model_id", ["t2", "pillowcase", "t2-mod-4"])
def test_loose_torus_search_makes_no_ritz_solve(model_id, monkeypatch):
    # At kappa = -0.75 the tori take the Liouville route: the search and
    # the pipeline make no Ritz solve and still return the full scan's
    # triple.
    model = catalog_model(model_id)
    n, kappa = model.dimension, -0.75
    keys = _ritz_spy(monkeypatch)
    for truncation in VERIFY_TRUNCATIONS[(model.kind, n)]:
        spec = model.spectrum(truncation)
        search = best_diameter_bound(spec, kappa, n)
        assert search.threshold_route == "liouville"
        # No cap at kappa < 0, and no breakpoint tops the truncation.
        scan = exhaustive_diameter_bound(spec, kappa, n, breakpoints(spec, n, kappa))
        assert search == scan and scan.last_skip is None
        rep = spectral_singular_point_bound(spec, kappa, n=n, v=model.volume)
        assert _diameter_stage(rep)["threshold_route"] == "liouville"
        assert rep.diameter_bound == search[0] and rep.singular_cap is not None
    assert keys == []


def test_diameter_stage_records_search_counts():
    model = catalog_model("s2-mod-3")
    spec = model.spectrum(400.0)
    rep = spectral_isotropy_bound(spec, 1.0, n=2, v=model.volume)
    stage = _diameter_stage(rep)
    assert set(stage) == {
        "diameter_bound", "r", "radii_searched", "radii_resolved", "threshold_route"
    }
    assert rep.notes["diameter"] == (
        "smallest 2r(rho+1) over every admissible radius (the breakpoints of rho), "
        "clamped at the Bonnet-Myers cap"
    )
    assert stage["radii_searched"] == len(breakpoints(spec, 2, 1.0))
    assert 1 <= stage["radii_resolved"] <= 8
    # Counts, not timings: the report stays reproducible and serializable.
    again = spectral_isotropy_bound(model.spectrum(400.0), 1.0, n=2, v=model.volume)
    assert again.to_dict() == rep.to_dict()
    assert json.loads(json.dumps(rep.to_dict())) == rep.to_dict()


# ---------------------------------------------------------------------------
# Closed-form thresholds at every curvature: no Ritz solve, and the same
# certificates at kappa > 0.


def _ritz_spy(monkeypatch) -> list:
    """Route every Ritz solve through a recorder; returns the list of its keys."""
    keys = []
    real = dirichlet._ritz_unit_ball

    def record(n, kappa):
        keys.append((n, kappa))
        return real(n, kappa)

    monkeypatch.setattr(dirichlet, "_ritz_unit_ball", record)
    return keys


def _diameter_stage(report) -> dict:
    return next(s for s in report.stage_trace if s["stage"] == "diameter")["outputs"]


def test_positive_curvature_pipelines_make_no_ritz_solve(monkeypatch, capsys):
    from orbispec import cli

    keys = _ritz_spy(monkeypatch)
    assert cli.main(["verify"]) == 0
    capsys.readouterr()
    assert keys == []
    spec = catalog_model("s2-mod-3").spectrum(10100.0)
    for kappa in (1.0, 0.25):
        rep = spectral_singular_point_bound(spec, kappa)
        assert rep.source == "weyl-estimated" and rep.singular_cap is not None
        assert _diameter_stage(rep)["threshold_route"] == "flat-bessel"
    assert keys == []


def test_dimension_four_negative_curvature_request_makes_no_ritz_solve(monkeypatch):
    # The round S^4 under the loose bound kappa = -1: spectrum-only and
    # given-volume requests count below the Liouville bound, and the
    # diameter bound is still sound.
    keys = _ritz_spy(monkeypatch)
    spec = sphere_spectrum(4, 2000.0)
    for v in (None, sphere_measure(4)):
        rep = spectral_isotropy_bound(spec, -1.0, n=4, v=v)
        assert _diameter_stage(rep)["threshold_route"] == "liouville"
        assert rep.diameter_bound >= math.pi and rep.isotropy_cap >= 1
    assert keys == []


@pytest.mark.parametrize(
    "n, kappa, route",
    [(2, 1.0, "flat-bessel"), (5, 0.25, "flat-bessel"), (2, 0.0, "flat-bessel"),
     (4, -1.0, "liouville"), (2, -1.0, "liouville"), (3, 1.0, "n3-closed-form"),
     (3, -1.0, "n3-closed-form"),
     (3, 0.0, "flat-bessel")],
)
def test_diameter_stage_names_the_threshold_route(n, kappa, route):
    spec = Spectrum(((0.0, 1), (50.0, 3)), 1e6, n)
    rep = spectral_isotropy_bound(spec, kappa, n=n, v=1.0)
    assert _diameter_stage(rep)["threshold_route"] == route
    flat = _eigenvalue(n, 0.0, 0.5)
    threshold = {
        "flat-bessel": flat,
        "n3-closed-form": (math.pi / 0.5) ** 2 - kappa,
        "liouville": flat + (1 / 3 if n == 2 else (n - 1) ** 2 / 4) * -kappa,
    }[route]
    rho = diameter_bound(spec, kappa, n, 0.5)[1]
    assert rho == counting_function(spec, threshold * (1 + RHO_TOL_SCALE))
    named = {"flat-bessel": "flat", "n3-closed-form": "closed form", "liouville": "Liouville"}
    assert named[route] in rep.notes["rho"]


@settings(max_examples=15, deadline=None)
@given(
    st.sampled_from([2, 4, 5]),
    st.floats(0.05, 4.0),
    st.floats(1e-3, 0.99),
)
@example(2, 1.0, 0.99)
@example(5, 4.0, 0.99)
@example(4, 0.05, 1e-3)
def test_flat_threshold_bounds_the_curved_one_from_above(n, kappa, u):
    # Cheng's comparison between the model spaces: the kappa-model has
    # Ric >= 0, so for kappa r^2 in (0, (0.99 pi)^2] its ball eigenvalue is
    # at most the flat (j/r)^2 the pipelines count below.  It is read from
    # the independent shooting oracle, since the Ritz value reads high near
    # the cap; kappa r^2 starts near 1e-5, where the oracle's flat starting
    # value still fits a float.
    r = u * math.pi / math.sqrt(kappa)
    try:
        curved = shooting_eigenvalue(SpaceForm(n, kappa), r)
    except ConvergenceError:
        assume(False)
    assert curved <= _eigenvalue(n, 0.0, r) * (1 + 1e-9)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([2, 4, 5]),
    st.floats(-9.0, math.log10(4.0)),
    st.floats(-3.0, 1.0),
)
@example(2, -9.0, -3.0)
@example(5, math.log10(4.0), 1.0)
@example(4, -3.0, 0.0)
def test_flat_threshold_bounds_the_curved_one_from_below(n, log_abs_kappa, log_r):
    # Cheng's comparison with flat space as the manifold: Ric = 0 >=
    # (n-1) kappa when kappa < 0, so the flat (j/r)^2 is at most the
    # kappa-model eigenvalue, which the Ritz value bounds from above: the
    # Liouville term c_n |kappa| is what lifts the pipelines' threshold to
    # it.  The flat float stays at or below the Ritz float, kappa r^2 from
    # -1e-15 to -400.
    kappa, r = -(10.0**log_abs_kappa), 10.0**log_r
    assert _eigenvalue(n, 0.0, r) <= _eigenvalue(n, kappa, r)


def _ritz_route_diameter(spec, kappa: float, n: int, grid) -> float:
    """The smallest D over a scan of the grid that counts below the curved
    Ritz eigenvalue at (n, kappa, r)."""
    best = None
    for r in grid:
        lam = _eigenvalue(n, kappa, float(r))
        if spec.truncation < lam * (1 + RHO_TOL_SCALE):
            continue
        rho = counting_function(spec, lam * (1 + RHO_TOL_SCALE))
        d = min(2.0 * float(r) * (rho + 1), bonnet_myers_cap(kappa))
        if best is None or d <= best:
            best = d
    return best


SPHERE_FAMILY = ("s2", "s2-mod-2", "s2-mod-3", "s2-mod-4", "s2-mod-6")


@pytest.mark.parametrize("model_id", SPHERE_FAMILY)
@pytest.mark.parametrize("kappa", [1.0, 0.25])
def test_flat_threshold_keeps_the_sphere_family_certificates(model_id, kappa):
    # diameter_bound at each radius of a 64-radius grid, which keeps the
    # oracle's Ritz solves few, certifies what counting below the curved
    # Ritz value there does; the pipeline's search over every breakpoint
    # can only do better.
    model = catalog_model(model_id)
    grid = log_radius_grid(2, kappa, model.volume)
    for truncation in VERIFY_TRUNCATIONS[(model.kind, 2)]:
        spec = model.spectrum(truncation)
        d = exhaustive_diameter_bound(spec, kappa, 2, grid)[0]
        assert d == _ritz_route_diameter(spec, kappa, 2, grid), truncation
        for v in (model.volume, None):
            rep = spectral_singular_point_bound(spec, kappa, n=2, v=v)
            assert _diameter_stage(rep)["threshold_route"] == "flat-bessel"
            assert rep.diameter_bound <= d


def test_isotropy_order_cap_exact_on_sphere_quotients():
    # ball_volume(S^2, pi) = 4 pi, so the cap equals k exactly for v = 4 pi / k.
    for k in (2, 3, 4, 6):
        cap = isotropy_order_cap(2, 1.0, math.pi, 4 * math.pi / k)
        assert cap == k
    # diameters beyond the antipodal cap clamp back to it
    assert isotropy_order_cap(2, 1.0, 50.0, 4 * math.pi) == 1


def test_isotropy_order_cap_validation():
    with pytest.raises(DomainError):
        isotropy_order_cap(0, 1.0, math.pi, 1.0)
    with pytest.raises(DomainError):
        isotropy_order_cap(2, 1.0, math.pi, -1.0)
    with pytest.raises(DomainError):
        isotropy_order_cap(2, 1.0, 0.0, 1.0)


def test_infinite_volume_is_refused():
    # With v = inf the cap floor(ball_volume(D) / v) read 1 on the
    # pillowcase, whose true maximum isotropy order is 2.
    spec = catalog_model("pillowcase").spectrum(4000.0)
    for v in (math.inf, math.nan):
        with pytest.raises(DomainError):
            isotropy_order_cap(2, 0.0, 3.0, v)
        with pytest.raises(CertificationError) as err:
            spectral_isotropy_bound(spec, 0.0, n=2, v=v)
        assert err.value.stage == "weyl-volume"


def test_volumes_past_every_float_are_typed_failures():
    # Each raised a bare OverflowError or ZeroDivisionError.
    with pytest.raises(DomainError, match="not a finite float"):
        isotropy_order_cap(2, 0.0, 1.0, 1e-320)  # pi / 1e-320 overflows
    with pytest.raises(DomainError, match="not a finite float"):
        packing_bound(2, 0.0, 1.0, 1e-200)  # ball_volume(eps / 2) underflows to 0
    # At r = 1e-160 (j / r)^2 overflows, and diameter_bound refuses the
    # radius.  The search does not read the volume, so the ratio fails by
    # name in the isotropy stage.
    spec = catalog_model("t2").spectrum(8000.0)
    with pytest.raises(DomainError, match="overflows"):
        diameter_bound(spec, 0.0, 2, 1e-160)
    with pytest.raises(CertificationError) as err:
        spectral_isotropy_bound(spec, 0.0, n=2, v=1e-320)
    assert err.value.stage == "isotropy-cap" and "not a finite float" in str(err.value)


ALPHA_HI = 0.5 * math.pi * (1.0 - 1e-12)


def _oracle_cone(n, kappa, d, alpha):
    """Cone volume over the bad directions, measured by the band oracle."""
    sf = SpaceForm(n, kappa)
    dd = min(d, bonnet_myers_cap(kappa))
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
    # Budgets from 0 to 10^6 ulps either side of 6 ball_volume, up to n = 10,
    # where cos^(n-2) flattens the band further: every angle passes the
    # library's forward check, and the oracle's.
    for n in range(2, 11):
        for kappa, d in ((0.0, 1.0), (-1.0, 2.0), (1.0, 2.0)):
            sf = SpaceForm(n, kappa)
            six = 6.0 * ball_volume(sf, d)
            for ulps in (0, 1, 3, 10, 100, 10**3, 10**4, 10**5, 10**6, -1, -10**3, -10**6):
                v = six + ulps * math.ulp(six)
                alpha = alpha_constant(n, kappa, d, v)
                band = linked_complement_measure(n - 1, alpha)
                assert cone_volume(sf, d, band) < v / 6.0 * (1.0 - ALPHA_MARGIN)
                assert _oracle_cone(n, kappa, d, alpha) < v / 6.0


def test_alpha_constant_bisects_back_up_to_the_largest_passing_angle():
    # At a budget of 10^-5.76 of the ball the forward check fails at the
    # band's root, and closing its own sign change below meets failing
    # probes as well as passing ones; the angle returned still passes the
    # forward check and the next float up fails.
    n, kappa, d = 4, 1.0, 1.0
    sf = SpaceForm(n, kappa)
    v = ball_volume(sf, d) * 10 ** (-288 / 50)
    target = v / 6.0 * (1.0 - ALPHA_MARGIN)
    alpha = alpha_constant(n, kappa, d, v)

    def cone(angle):
        return cone_volume(sf, d, linked_complement_measure(n - 1, angle))

    assert cone(alpha) < target
    assert not cone(math.nextafter(alpha, math.pi / 2)) < target


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
    # a whole sphere below every float is the cap; past every float it is refused
    for n in (2, 3, 4):
        assert ell_constant(n, 1e300, 1.0) == SHRINK * math.pi / math.sqrt(1e300)
    for n, kappa in ((3, 1e-210), (2, 5e-324), (2, 1e-310), (5, 1e-130)):
        with pytest.raises(DomainError, match="overflows"):
            ell_constant(n, kappa, 1.0)
    # hyperbolic: (4 pi / |k|) sinh^2(s r / 2) = v/3
    kappa, v = -2.0, 5.0
    s = math.sqrt(-kappa)
    r_hyp = (2 / s) * math.asinh(math.sqrt(v * s * s / (12 * math.pi)))
    assert abs(ell_constant(2, kappa, v) - (1 - 1e-6) * r_hyp) < 1e-10
    with pytest.raises(DomainError):
        ell_constant(2, 0.0, 0.0)


@st.composite
def ell_keys(draw):
    """(n, kappa, v): n = 2..6, every sign of kappa with |kappa| in [1e-6, 10],
    v in [1e-3, 100]; for kappa > 0 also v/3 from just under the whole
    sphere to past it, where the antipodal cap is returned."""
    n = draw(st.integers(2, 6))
    sign = draw(st.sampled_from([-1.0, 0.0, 1.0]))
    kappa = sign * 10.0 ** draw(st.floats(-6.0, 1.0))
    if kappa > 0 and draw(st.booleans()):
        whole = sphere_measure(n) * kappa ** (-0.5 * n)
        return n, kappa, 3.0 * whole * (1.0 + draw(st.floats(-0.5, 0.5)) ** 3)
    return n, kappa, 10.0 ** draw(st.floats(-3.0, 2.0))


@settings(max_examples=400, deadline=None)
@given(key=ell_keys())
# v/3 one ulp below the whole sphere: the package radius rounds onto the cap
@example(key=(2, 0.008529521654024232, 4419.838927929922))
# v/3 one ulp below the whole sphere, where the float volume is flat
@example(key=(3, 0.15313835624965452, 988.1548897138464))
# v/3 between two roundings of the whole sphere: the n = 3 closed form for
# the cap's volume rounds up, and a fraction just past 2 once made NaN
@example(key=(3, 0.021427228022871232, 18880.000821016314))
def test_ell_constant_matches_brentq_reference(key):
    n, kappa, v = key
    ell = ell_constant(n, kappa, v)
    want = reference_ell_constant(n, kappa, v)
    sf = SpaceForm(n, kappa)
    # Near the whole sphere the ball volume flattens in r and no float
    # inversion pins r better than rounding times the condition number
    # V / (r dV/dr); elsewhere that number is about 1/n.  It is taken at the
    # smaller radius: the condition only grows toward the cap, and a radius
    # rounded onto the cap has no positive density to divide by.
    r = min(ell, want) / SHRINK
    density = sphere_measure(n - 1) * generalized_sin(kappa, r) ** (n - 1)
    condition = max(1.0, ball_volume(sf, r) / (r * density)) if density > 0 else 1.0
    assert abs(ell - want) <= 1e-13 * condition * want, (ell, want, condition)
    assert ball_volume(sf, ell / SHRINK) <= v / 3.0 * (1.0 + 1e-12)


def test_ell_constant_root_makes_few_volume_calls(monkeypatch):
    calls = []

    def counted(sf, r):
        calls.append(r)
        return ball_volume(sf, r)

    monkeypatch.setattr(bounds_module, "ball_volume", counted)
    ell = ell_constant(5, -1.0, 3.0)
    assert len(calls) <= 20, len(calls)
    assert abs(ball_volume(SpaceForm(5, -1.0), ell / SHRINK) - 1.0) <= 1e-12


@pytest.mark.parametrize(
    "n, kappa, v", [(5, -1.0, 3.0), (3, -0.3, 40.0), (4, -2e-6, 0.01), (6, -7.0, 90.0)]
)
def test_ell_constant_root_is_the_float_below_the_crossing(n, kappa, v, monkeypatch):
    monkeypatch.setattr(bounds_module, "SHRINK", 1.0)
    root = ell_constant(n, kappa, v)
    sf = SpaceForm(n, kappa)
    assert ball_volume(sf, root) <= v / 3.0 < ball_volume(sf, math.nextafter(root, math.inf))


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
        c3_max = min(3.0 * ell, bonnet_myers_cap(kappa) * (1.0 - 1e-9))
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
    for kappa in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="curvature must be finite"):
            r_constant(kappa, 0.3, 1.0)
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
    with pytest.raises(DomainError, match="nonnegative"):
        BoundReport(**{**base, "singular_cap": -1, "alpha": 0.3, "ell": 0.4, "r_sep": 0.2})
    with pytest.raises(DomainError):
        BoundReport(**{**base, "singular_cap": 5})  # constants missing
    with pytest.raises(DomainError):
        BoundReport(**{**base, "singular_cap": 5, "alpha": 0.3, "ell": 0.2, "r_sep": 0.4})


def test_isotropy_pipeline_exact_inputs():
    model = catalog_model("s2-mod-3")
    spec = model.spectrum(400.0)
    rep = spectral_isotropy_bound(spec, 1.0, n=2, v=model.volume)
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
    rep2 = spectral_isotropy_bound(model.spectrum(400.0), 1.0, n=2, v=model.volume)
    assert rep2.to_dict() == d


def test_isotropy_pipeline_weyl_path(s2_spectrum):
    rep = spectral_isotropy_bound(s2_spectrum, 1.0)
    assert rep.source == "weyl-estimated"
    assert rep.n == 2
    assert abs(rep.volume - 4 * math.pi) <= 0.10 * 4 * math.pi
    stages = [s["stage"] for s in rep.stage_trace]
    assert stages[:2] == ["weyl-dimension", "weyl-volume"]
    assert rep.diameter_bound == math.pi


@pytest.mark.parametrize("model_id", [m.model_id for m in model_catalog()])
def test_singular_report_extends_the_isotropy_report(model_id):
    # The singular pipeline runs the isotropy pipeline's stages in the same
    # pass and adds one: without that stage, its four notes and its four
    # fields, its report is the isotropy report, at both verify
    # truncations, at the exact and a loosened kappa, with the given volume
    # and with the Weyl one.
    model = catalog_model(model_id)
    n = model.dimension
    for truncation in VERIFY_TRUNCATIONS[(model.kind, n)]:
        spec = model.spectrum(truncation)
        for kappa in (model.curvature_lower_bound, model.curvature_lower_bound - 0.75):
            for given in ({"n": n, "v": model.volume}, {}):
                full = spectral_singular_point_bound(spec, kappa, **given).to_dict()
                assert full["stage_trace"].pop()["stage"] == "singular-cap"
                for name in ("alpha", "ell", "r_sep", "singular_cap"):
                    del full["notes"][name]
                    full[name] = None
                assert full == spectral_isotropy_bound(spec, kappa, **given).to_dict()


def _outcome(fn, *args, **kwargs):
    """fn(*args, **kwargs), or the text of the domain or certification error it raises
    with any stage prefix dropped."""
    try:
        return fn(*args, **kwargs)
    except (CertificationError, DomainError) as exc:
        return str(exc).split("] ", 1)[-1] if isinstance(exc, CertificationError) else str(exc)


@pytest.mark.parametrize("model_id", [m.model_id for m in model_catalog()])
def test_certificates_equal_the_public_caps_composed(model_id):
    # The pipeline reads one model-ball record per certificate; the public
    # caps validate their arguments and run the same private functions, so
    # at both verify truncations, at kappa = K, K - 0.75 and K - 3, with
    # the given volume and the Weyl one, the report's caps and constants,
    # or its failure's text, are those of isotropy_order_cap and
    # singular_point_cap called on the report's (n, kappa, D, v).
    model = catalog_model(model_id)
    n = model.dimension
    for truncation in VERIFY_TRUNCATIONS[(model.kind, n)]:
        spec = model.spectrum(truncation)
        for kappa in (model.curvature_lower_bound + dk for dk in (0.0, -0.75, -3.0)):
            d = best_diameter_bound(spec, kappa, n)[0]
            for v in (model.volume, estimate_volume(spec, n)):
                given = {"n": n, "v": v} if v == model.volume else {}
                iso = _outcome(isotropy_order_cap, n, kappa, d, v)
                sing = _outcome(singular_point_cap, n, kappa, d, v)
                rep = _outcome(spectral_singular_point_bound, spec, kappa, **given)
                if isinstance(rep, str):
                    assert isinstance(iso, int) and rep == sing, (truncation, kappa, given)
                    continue
                assert (rep.n, rep.diameter_bound, rep.volume) == (n, d, v)
                assert rep.isotropy_cap == iso
                constants = {"alpha": rep.alpha, "ell": rep.ell, "r": rep.r_sep}
                assert (rep.singular_cap, constants) == sing, (truncation, kappa, given)


@pytest.mark.parametrize("pipeline", [spectral_isotropy_bound, spectral_singular_point_bound])
def test_one_model_ball_volume_per_certificate(pipeline, monkeypatch):
    # The isotropy cap, alpha's cone and band and the packing count read
    # one record of the radius-D model ball: ball_volume at D runs once per
    # certificate, whichever caps it certifies.
    radii = []
    real = bounds_module.ball_volume

    def spy(sf, r):
        radii.append(r)
        return real(sf, r)

    monkeypatch.setattr(bounds_module, "ball_volume", spy)
    for model in model_catalog():
        n = model.dimension
        spec = model.spectrum(VERIFY_TRUNCATIONS[(model.kind, n)][-1])
        for kappa in (model.curvature_lower_bound, model.curvature_lower_bound - 0.75):
            radii.clear()
            rep = pipeline(spec, kappa, n=n, v=model.volume)
            assert radii.count(rep.diameter_bound) == 1, (model.model_id, kappa)


def test_pipeline_dimension_conflict(s2_spectrum):
    with pytest.raises(CertificationError) as err:
        spectral_isotropy_bound(s2_spectrum, 1.0, n=3, v=4 * math.pi)
    assert err.value.stage == "weyl-dimension"


def test_pipeline_stage_failures(s2_spectrum):
    short = Spectrum(((0.0, 1),), 0.05)
    with pytest.raises(CertificationError) as err:
        spectral_isotropy_bound(short, 1.0, n=2, v=math.pi)
    assert err.value.stage == "diameter"
    with pytest.raises(CertificationError) as err:
        spectral_singular_point_bound(s2_spectrum, 1.0, n=2, v=1e-12)
    assert err.value.stage == "alpha"


def test_singular_pipeline_full_report():
    model = catalog_model("pillowcase")
    spec = model.spectrum(3000.0)
    rep = spectral_singular_point_bound(spec, 0.0, n=2, v=model.volume)
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


@settings(max_examples=70, deadline=None)
@given(
    model_id=st.sampled_from([m.model_id for m in model_catalog()]),
    j=st.integers(-3, 3),
)
def test_singular_pipeline_is_scale_covariant(catalog_spectra, model_id, j):
    # Lengths times c: eigenvalues, truncation and kappa times c^-2, volume
    # times c^n.  Powers of two keep every rescaled input exact.
    # The breakpoints scale exactly too, so the search's winner does.
    model, spec = catalog_spectra[model_id]
    n, kappa, v = model.dimension, model.curvature_lower_bound, model.volume
    c = 2.0**j
    scaled = Spectrum(
        tuple((lam / (c * c), mult) for lam, mult in spec.entries),
        spec.truncation / (c * c),
        spec.dimension,
    )
    base = spectral_singular_point_bound(spec, kappa, n=n, v=v)
    rep = spectral_singular_point_bound(scaled, kappa / (c * c), n=n, v=v * c**n)
    assert (rep.diameter_bound, rep.r_used) == (c * base.diameter_bound, c * base.r_used)
    assert (rep.rho, rep.isotropy_cap, rep.singular_cap) == (
        base.rho, base.isotropy_cap, base.singular_cap,
    )
    assert rep.r_sep == pytest.approx(c * base.r_sep, rel=1e-12)
    assert rep.ell == pytest.approx(c * base.ell, rel=1e-12)
    assert rep.alpha == pytest.approx(base.alpha, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    model_id=st.sampled_from([m.model_id for m in model_catalog()]),
    curvature_shift=st.sampled_from([0.0, -1.0]),
    data=st.data(),
)
def test_diameter_bound_never_drops_as_the_spectrum_grows(
    catalog_spectra, model_id, curvature_shift, data
):
    # Extra eigenvalues below the truncation and raised multiplicities only
    # raise rho at every radius, so the smallest 2r(rho + 1) cannot fall.
    model, spec = catalog_spectra[model_id]
    n, kappa = model.dimension, model.curvature_lower_bound + curvature_shift
    counts = dict(spec.entries)
    values = [lam for lam, _ in spec.entries]
    for lam in data.draw(st.lists(st.sampled_from(values), max_size=6)):
        counts[lam] += data.draw(st.integers(1, 3))
    for lam in data.draw(st.lists(st.floats(0.0, spec.truncation), max_size=6)):
        counts[lam] = counts.get(lam, 0) + data.draw(st.integers(1, 3))
    grown = Spectrum(tuple(sorted(counts.items())), spec.truncation, spec.dimension)
    d_grown = best_diameter_bound(grown, kappa, n)[0]
    assert d_grown >= best_diameter_bound(spec, kappa, n)[0]


# ---------------------------------------------------------------------------
# The default search: every breakpoint of rho.

# Catalog n is 2 or 3; these shifts reach all three threshold routes, with
# and without an antipodal cap.
ROUTE_SHIFTS = [0.0, 0.5, -0.75, -1.5]


@settings(max_examples=60, deadline=None)
@given(
    model_id=st.sampled_from([m.model_id for m in model_catalog()]),
    truncation=st.sampled_from([60.0, 400.0, 1640.0]),
    curvature_shift=st.sampled_from(ROUTE_SHIFTS),
    data=st.data(),
)
def test_default_search_is_at_most_any_grid(model_id, truncation, curvature_shift, data):
    # The breakpoint search finds the smallest bound over every admissible
    # radius, so diameter_bound at no grid radius, whatever the grid's order,
    # duplicates or radii past the cap, certifies a smaller D; and where it
    # refuses every grid radius the search may still certify, but never the
    # other way round.
    model, spec = _catalog_spectrum(model_id, truncation)
    n, kappa = model.dimension, model.curvature_lower_bound + curvature_shift
    grid = data.draw(_radius_grids(n, kappa, model.volume))
    got = _search_outcome(best_diameter_bound, spec, kappa, n)
    given_grid = _search_outcome(exhaustive_diameter_bound, spec, kappa, n, grid)
    if got[0] == "error":
        assert given_grid[0] == "error"
    elif given_grid[0] != "error":
        assert got[0] <= given_grid[0]


@settings(max_examples=80, deadline=None)
@given(
    model_id=st.sampled_from([m.model_id for m in model_catalog()]),
    truncation=st.sampled_from([60.0, 400.0, 1640.0, 10100.0]),
    scale=st.floats(0.1, 10.0),
    curvature_shift=st.sampled_from(ROUTE_SHIFTS),
)
def test_default_search_equals_exhaustive_scan_over_its_breakpoints(
    model_id, truncation, scale, curvature_shift
):
    # The metric scaled by c: eigenvalues, truncation and kappa times c^-2,
    # and the shifts from the model's K reach all three threshold routes.
    # Each breakpoint is the smallest float whose top sits below its
    # target, and the search is the full scan over them, errors included.
    model, spec = _catalog_spectrum(model_id, truncation)
    s = 1.0 / (scale * scale)
    spec = Spectrum._from_arrays(
        spec.values * s, spec.multiplicities, spec.truncation * s, spec.dimension
    )
    n, kappa = model.dimension, (model.curvature_lower_bound + curvature_shift) * s
    radii = _assert_walk_is_the_scan(spec, kappa, n)
    with np.errstate(divide="ignore", over="ignore"):
        top = bounds_module._ball_threshold(n, kappa, radii)[2]
        below = bounds_module._ball_threshold(n, kappa, np.nextafter(radii, 0.0))[2]
    # The targets are the eigenvalues above the threshold at the largest
    # admissible radius, a suffix of the spectrum, then the truncation's.
    limits = np.append(
        spec.values[spec.values.size - radii.size + 1:], math.nextafter(spec.truncation, math.inf)
    )
    assert (top < limits).all() and (below >= limits).all()


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(2, 7),
    kappa=st.one_of(
        st.sampled_from([0.0, 1.0, -1.0, -0.75]),
        st.floats(-50.0, 50.0),
        st.builds(lambda s, e: s * 10.0**e, st.sampled_from([1.0, -1.0]), st.floats(-30.0, 30.0)),
    ),
    truncation=st.one_of(st.floats(0.0, 1e6), st.floats(0.0, sys.float_info.max)),
    zero_modes=st.integers(1, 2**62),
    levels=st.lists(st.tuples(st.floats(0.0, 1.0), st.integers(1, 2**40)), max_size=12),
)
@example(n=2, kappa=0.0, truncation=0.0, zero_modes=1, levels=[])
@example(n=3, kappa=0.0, truncation=5e-324, zero_modes=2**62, levels=[(1.0, 1)])
@example(n=7, kappa=1e300, truncation=sys.float_info.max, zero_modes=2**62, levels=[(0.5, 3)])
@example(n=7, kappa=-1e300, truncation=sys.float_info.max, zero_modes=2**62,
         levels=[(1e-300, 1), (0.5, 2**40), (1.0, 1)])
@example(n=7, kappa=-1e300, truncation=1e300, zero_modes=1, levels=[(0.5, 1)])
@example(n=4, kappa=1.0, truncation=sys.float_info.max, zero_modes=2**62, levels=[(1e-300, 2)])
def test_best_diameter_bound_equals_exhaustive_scan(n, kappa, truncation, zero_modes, levels):
    # Spectra from an empty truncation to the largest float, with up to 2^62
    # zero modes, at every dimension up to 7 and |kappa| up to 1e300: the
    # search is the full scan over every breakpoint, which refuses none of
    # them, or fails with the same error.
    entries = {0.0: zero_modes}
    for fraction, mult in levels:
        entries.setdefault(truncation * fraction, mult)
    _assert_walk_is_the_scan(Spectrum(sorted(entries.items()), truncation, n), kappa, n)


def _assert_walk_is_the_scan(spec: Spectrum, kappa: float, n: int):
    """The default search against the full scan over the oracle's every
    breakpoint: the same (D, r, rho) and breakpoint count, with no
    breakpoint refused, or the same error.  Every rho the walk scores
    without counting is diameter_bound's count at that radius.  Returns the
    breakpoints."""
    try:
        radii = breakpoints(spec, n, kappa)
    except CertificationError as exc:
        got = _search_outcome(best_diameter_bound, spec, kappa, n)
        assert got == ("error", exc.stage, str(exc))
        return None
    real, given_rho = bounds_module._weigh, []

    def checked(best, r, rho, cap):
        given_rho.append((r, rho))
        return real(best, r, rho, cap)

    bounds_module._weigh = checked
    try:
        search = best_diameter_bound(spec, kappa, n)
    finally:
        bounds_module._weigh = real
    scan = exhaustive_diameter_bound(spec, kappa, n, radii)
    assert tuple(search) == tuple(scan) and scan.last_skip is None
    assert search.radii_searched == radii.size >= search.radii_resolved
    for r, rho in given_rho:
        assert diameter_bound(spec, kappa, n, r)[1] == rho, (r, rho)
    return radii


@pytest.mark.parametrize("model_id", ["s2-mod-3", "t2", "s3"])
@pytest.mark.parametrize("error", [1.5, 0.5])
def test_walk_bound_rests_on_evaluation_not_on_the_inverse(model_id, error, monkeypatch):
    # Each breakpoint's lower bound r_lo = g (1 - 1e-9) counts only once
    # top(r_lo) >= lam is evaluated, so a closed-form inverse g off by a
    # factor either way costs probes and resolutions, never the triple.
    model, spec = _catalog_spectrum(model_id, 400.0)
    real = bounds_module._threshold_form

    def skewed(n, kappa):
        route, q, c = real(n, kappa)
        return route, q * error, c

    monkeypatch.setattr(bounds_module, "_threshold_form", skewed)
    for shift in ROUTE_SHIFTS:
        _assert_walk_is_the_scan(spec, model.curvature_lower_bound + shift, model.dimension)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("kappa", [0.0, 1.0, -1.0, -0.75])
def test_walk_equals_exhaustive_scan_with_eigenvalues_one_float_apart(n, kappa):
    a, twin = 7.0, math.nextafter(7.0, math.inf)
    spec = Spectrum(((0.0, 1), (a, 2), (twin, 1), (40.0, 3)), 50.0, n)
    _assert_walk_is_the_scan(spec, kappa, n)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("kappa", [0.0, -1.0])
def test_walk_scores_a_shared_breakpoint_once(n, kappa):
    # 7 and the float after it share a breakpoint radius here.  With 2e9
    # zero modes the second one's bound on D, 2 r (N(< lam) + 1) at
    # N = 2e9 + 1, falls below the first one's D at a truncation 1.5e-9
    # above them, so the walk resolves it: scored with N(< lam) it would
    # count one eigenvalue too many.
    a, twin = 7.0, math.nextafter(7.0, math.inf)
    spec = Spectrum(((0.0, 2_000_000_000), (a, 1), (twin, 1)), a * (1.0 + 1.5e-9), n)
    radii = _assert_walk_is_the_scan(spec, kappa, n)
    assert radii[0] == radii[1]
    assert best_diameter_bound(spec, kappa, n).radii_resolved == 3


@settings(max_examples=25, deadline=None)
@given(
    a=st.floats(0.5, 2.0),
    b=st.floats(0.5, 2.0),
    kappa=st.sampled_from([0.0, -0.01, -0.75, -3.0]),
)
def test_rectangular_torus_diameter_bound_is_sound(a, b, kappa):
    # R^2 / (a Z x b Z) has diameter exactly sqrt(a^2 + b^2) / 2, and
    # curvature 0 >= kappa: the search over every breakpoint stays above it.
    spec = flat_torus_spectrum([[a, 0.0], [0.0, b]], 2000.0)
    search = best_diameter_bound(spec, kappa, 2)
    assert search[0] >= math.hypot(a, b) / 2.0


@settings(max_examples=80, deadline=None)
@given(
    log_kappa=st.floats(-3.0, 3.0),
    gap=st.floats(0.0, 1e-3),
)
@example(math.log10(3.7), 0.0)
def test_n3_tolerance_covers_the_cancellation_near_the_cap(log_kappa, gap):
    # pi^2/r^2 - kappa cancels near the antipodal cap: at kappa = 3.7 and
    # r = CAP_SHRINK pi / sqrt(kappa) the float reads 2.7e-8 relative below
    # the exact value, past a tolerance of 1e-9 times the threshold.  The
    # tolerance 1e-9 times pi^2/r^2 + kappa keeps top at or above the
    # exact threshold, to 40 digits.
    import mpmath

    kappa = 10.0**log_kappa
    r = (1.0 - gap) * dirichlet.CAP_SHRINK * math.pi / math.sqrt(kappa)
    route, lam, top = bounds_module._ball_threshold(3, kappa, r)
    assert route == "n3-closed-form"
    with mpmath.workdps(40):
        exact = mpmath.pi**2 / mpmath.mpf(r) ** 2 - mpmath.mpf(kappa)
        assert mpmath.mpf(top) >= exact
        if (log_kappa, gap) == (math.log10(3.7), 0.0):
            assert mpmath.mpf(lam * (1 + RHO_TOL_SCALE)) < exact


@pytest.mark.parametrize("kappa", [0.0, 1.0])
def test_breakpoint_targets_without_an_admissible_radius_are_dropped(kappa):
    # On the flat-bessel route the threshold only tends to 0, so lam_0 = 0
    # has no breakpoint (its inverse radius is infinite) and never enters
    # the bisection; at kappa = 1 the breakpoint of 0.5, near r = 3.4,
    # lies past the antipodal cap pi and is not searched either.
    spec = Spectrum(((0.0, 1), (0.5, 1), (50.0, 3)), 100.0, 2)
    search = best_diameter_bound(spec, kappa, 2)
    assert search.radii_searched == 3 - int(kappa) and search.threshold_route == "flat-bessel"
    scan = exhaustive_diameter_bound(spec, kappa, 2, breakpoints(spec, 2, kappa))
    assert search == scan and scan.last_skip is None


@pytest.mark.parametrize("n, kappa, limit", [(2, -3.0, 1.0), (4, -4.0, 9.0), (3, -2.0, 2.0)])
def test_truncation_below_the_threshold_limit_has_no_breakpoint(n, kappa, limit):
    # When kappa < 0 the threshold stays above c_n |kappa| at every radius,
    # so a truncation at or below it leaves no admissible radius at all.
    spec = Spectrum(((0.0, 1),), limit, n)
    with pytest.raises(CertificationError, match=r"c \|kappa\| = ") as err:
        best_diameter_bound(spec, kappa, n)
    assert err.value.stage == "diameter" and f"c |kappa| = {limit:.9g})" in str(err.value)
    with pytest.raises(CertificationError, match=r"^\[diameter\]"):
        spectral_isotropy_bound(spec, kappa, n=n, v=1.0)
    # A truncation just above the limit (and its tolerance) certifies.
    roomy = Spectrum(((0.0, 1),), limit * (1.0 + 1e-8), n)
    assert best_diameter_bound(roomy, kappa, n)[2] == 1


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("kappa", [0.0, 1.0, -1.0])
def test_largest_float_truncation_starts_its_breakpoint_near_the_answer(
    n, kappa, monkeypatch
):
    # nextafter(T, inf) is inf at the largest float T, whose closed-form
    # inverse is the pole r = 0; clamped at T, the start stays within a few
    # floats of the smallest radius with a finite top, so no gallop from 0.
    big = sys.float_info.max
    spec = Spectrum(((0.0, 1), (big / 2, 1)), big, n)
    radii = breakpoints(spec, n, kappa)
    with np.errstate(over="ignore"):
        top = bounds_module._ball_threshold(n, kappa, radii)[2]
        below = bounds_module._ball_threshold(n, kappa, np.nextafter(radii, 0.0))[2]
    limits = np.array([big / 2, math.inf])
    assert (top < limits).all() and (below >= limits).all()
    calls = []

    def counted(*key):
        top = threshold_top(*key)

        def probe(*args):
            calls.append(args)
            return top(*args)

        return probe

    threshold_top = bounds_module._threshold_top
    monkeypatch.setattr(bounds_module, "_threshold_top", counted)
    best_diameter_bound(spec, kappa, n)
    # The walk's evaluator at the widest radius, then per breakpoint its
    # lower-bound check, a few probes around its guess and the shared-radius
    # check: a gallop from the pole or from the largest float takes over a
    # hundred.
    assert 0 < len(calls) <= 12
    monkeypatch.undo()
    _assert_walk_is_the_scan(spec, kappa, n)


def test_form_lookups_per_search_do_not_grow_with_the_spectrum(monkeypatch):
    # The walk evaluates its threshold on a closure built once per search:
    # the threshold's form is looked up a fixed number of times (the walk's
    # inverse, its evaluator, and r_T's score by diameter_bound), however
    # many breakpoints the spectrum has.
    lookups = []
    real = dirichlet._threshold_form

    def counted(n, kappa):
        lookups.append((n, kappa))
        return real(n, kappa)

    monkeypatch.setattr(dirichlet, "_threshold_form", counted)
    monkeypatch.setattr(bounds_module, "_threshold_form", counted)
    model = catalog_model("t2-mod-4")
    per_search = set()
    for truncation in (8000.0, 256000.0):
        for shift in ROUTE_SHIFTS:
            lookups.clear()
            best_diameter_bound(model.spectrum(truncation), model.curvature_lower_bound + shift, 2)
            per_search.add(len(lookups))
    assert len(per_search) == 1 and per_search.pop() <= 4


def test_truncation_below_the_threshold_at_the_cap_has_no_breakpoint():
    # When kappa > 0 the largest admissible radius sits just inside the
    # antipodal cap; a truncation below the threshold there leaves none.
    spec = Spectrum(((0.0, 1),), 0.1, 2)
    with pytest.raises(CertificationError, match=r"over the admissible radii, at r = 3\.14") as err:
        best_diameter_bound(spec, 1.0, 2)
    assert err.value.stage == "diameter"
    with pytest.raises(DomainError, match="below the ball threshold"):
        diameter_bound(spec, 1.0, 2, 3.0)
