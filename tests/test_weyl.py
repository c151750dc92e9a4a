"""Dimension/volume recovery from counting-function asymptotics."""
from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from orbispec import (
    CertificationError,
    DomainError,
    Spectrum,
    bounds,
    catalog_model,
    estimate_dimension,
    estimate_volume,
    model_catalog,
    spectral_isotropy_bound,
    spectral_singular_point_bound,
    weyl,
    weyl_fit,
)
from orbispec.cli import _VERIFY_TRUNCATIONS as VERIFY_TRUNCATIONS
from orbispec.weyl import MIN_EIGENVALUE_COUNT
from conftest import truncation_for


def test_dimension_recovery_on_catalog(catalog_spectra):
    for model_id, (model, spec) in catalog_spectra.items():
        n, diag = estimate_dimension(spec)
        assert n == model.dimension, model_id
        assert 0.0 <= diag <= 0.25


def test_volume_recovery_on_catalog(catalog_spectra):
    # Truncations are chosen deep enough that the median-window estimate
    # lands within 10% of the true volume for every catalog model.
    for model_id, (model, spec) in catalog_spectra.items():
        v = estimate_volume(spec, model.dimension)
        assert abs(v - model.volume) <= 0.10 * model.volume, (model_id, v, model.volume)


def test_weyl_fit_report(s2_spectrum):
    fit = weyl_fit(s2_spectrum)
    assert fit.dimension_estimate == 2
    assert abs(fit.volume_estimate - 4 * math.pi) <= 0.10 * 4 * math.pi
    lo, hi = fit.window
    assert 0.0 < lo < hi <= s2_spectrum.truncation
    d = fit.to_dict()
    assert set(d) == {"dimension", "volume", "window", "residual"}
    assert d["dimension"] == 2 and d["residual"] == fit.residual


def test_needs_enough_eigenvalues():
    spec = Spectrum(((0.0, 1), (2.0, 3), (6.0, 5)), 10.0)
    with pytest.raises(DomainError):
        estimate_dimension(spec)


def test_weyl_fit_equals_the_separate_estimates(catalog_spectra):
    # One pass over the window gives what the two estimators give alone.
    for model_id, (_, spec) in catalog_spectra.items():
        fit = weyl_fit(spec)
        n, diag = estimate_dimension(spec)
        assert (fit.dimension_estimate, fit.residual) == (n, diag), model_id
        assert fit.volume_estimate == estimate_volume(spec, n), model_id


def _mean_slope_dimension(lam, counts):
    """The slope fit's (n, diagnostic) with ndarray.mean, as it was written
    before the means became np.add.reduce over the size."""
    x, y = np.log(lam), np.log(counts)
    x -= x.mean()
    slope = float(x @ (y - y.mean())) / float(x @ x)
    n = round(2.0 * slope)
    return int(n), abs(2.0 * slope - n)


@pytest.mark.parametrize("model_id", [m.model_id for m in model_catalog()])
def test_slope_fit_equals_the_mean_formula_bit_for_bit(model_id):
    # At both verify truncations and the suite's own, every catalog window
    # fits the same (n, diagnostic), to the bit, as the mean-based formula.
    model = catalog_model(model_id)
    for truncation in {*VERIFY_TRUNCATIONS[(model.kind, model.dimension)], truncation_for(model)}:
        lam, counts, _ = weyl._window_samples(model.spectrum(truncation))
        assert weyl._slope_dimension(lam, counts) == _mean_slope_dimension(lam, counts)


@pytest.fixture
def window_calls(monkeypatch):
    """The spectra _window_samples is called on, through weyl and bounds alike."""
    calls = []
    real = weyl._window_samples

    def spy(spec):
        calls.append(spec)
        return real(spec)

    for module in (weyl, bounds):
        monkeypatch.setattr(module, "_window_samples", spy)
    return calls


@pytest.mark.parametrize("pipeline", [spectral_isotropy_bound, spectral_singular_point_bound])
@pytest.mark.parametrize(
    "given, windows", [({}, 1), ({"n": 2}, 1), ({"n": 2, "v": 4.0 * math.pi / 3.0}, 0)]
)
def test_one_window_per_certificate(catalog_spectra, window_calls, pipeline, given, windows):
    # Both fits of a certificate read one window; the volume fit reuses the
    # dimension fit's, and a certificate with (n, v) given builds none.
    spec = catalog_spectra["s2-mod-3"][1]
    report = pipeline(spec, 1.0, **given)
    assert window_calls == [spec] * windows
    assert report.source == ("given" if windows == 0 else "weyl-estimated")


def test_one_window_per_weyl_fit(s2_spectrum, window_calls):
    weyl_fit(s2_spectrum)
    assert window_calls == [s2_spectrum]


def _circle_spectrum():
    # The circle of length 10: eigenvalues (2 pi k / 10)^2, each twice.
    levels = tuple(((2.0 * math.pi * k / 10.0) ** 2, 2) for k in range(1, 400))
    return Spectrum(((0.0, 1),) + levels, levels[-1][0] + 1.0)


@pytest.mark.parametrize("pipeline", [spectral_isotropy_bound, spectral_singular_point_bound])
def test_fitted_dimension_below_two_fails_at_its_stage(pipeline):
    # A circle's spectrum fits n = 1, which the bounds cannot use; the
    # refusal names the fit, not a domain input the caller never gave.
    spec = _circle_spectrum()
    assert weyl_fit(spec).dimension_estimate == 1
    with pytest.raises(CertificationError, match="fitted dimension") as err:
        pipeline(spec, 0.0)
    assert err.value.stage == "weyl-dimension"
    # A given n = 1 is still the caller's domain error.
    with pytest.raises(DomainError) as err:
        pipeline(spec, 0.0, n=1, v=10.0)
    assert err.value.stage == "domain"


@pytest.mark.parametrize("truncation", [6.0, 20.0])
def test_volume_fit_needs_enough_eigenvalues(truncation):
    # From 3 eigenvalues (truncation 6) the fit read v = 9.42 against the
    # true 4.19 and certified isotropy cap 1 with the true order 3; from 9
    # (truncation 20) it certified 2.  The volume fit now has the floor the
    # dimension fit has, and the pipeline fails at its weyl-volume stage.
    spec = catalog_model("s2-mod-3").spectrum(truncation)
    assert spec.total_count < MIN_EIGENVALUE_COUNT
    with pytest.raises(DomainError, match="eigenvalues counted"):
        estimate_volume(spec, 2)
    with pytest.raises(CertificationError) as err:
        spectral_isotropy_bound(spec, 1.0, n=2)
    assert err.value.stage == "weyl-volume"


def test_estimate_volume_rejects_bad_dimension(s2_spectrum):
    with pytest.raises(DomainError):
        estimate_volume(s2_spectrum, 0)
    with pytest.raises(DomainError):
        estimate_volume(s2_spectrum, 2.5)


def test_rejects_non_weyl_growth():
    # N(lam) ~ lam^0.75 sits between dimension 1 and 2; the slope cannot be
    # snapped to a half-integer within the safety threshold.
    entries = tuple((float(j) ** (4.0 / 3.0), 1) for j in range(1, 400))
    spec = Spectrum(((0.0, 1),) + entries, entries[-1][0] + 1.0)
    with pytest.raises(CertificationError) as err:
        estimate_dimension(spec)
    assert err.value.stage == "weyl-dimension"


def test_zero_spectrum_rejected():
    spec = Spectrum(((0.0, 200),), 1.0)
    with pytest.raises(DomainError):
        estimate_dimension(spec)


def test_one_level_window_cannot_fit_a_slope():
    spec = Spectrum(((0.0, 1), (5.0, 200)), 6.0)
    with pytest.raises(DomainError, match="fewer than 2 distinct eigenvalues"):
        estimate_dimension(spec)


def test_window_of_one_logarithm_cannot_fit_a_slope():
    # Two distinct eigenvalues one float apart near 1e300 have the same
    # float logarithm, so the centred log-eigenvalues have no spread.
    top = math.nextafter(1e300, math.inf)
    spec = Spectrum(((0.0, 1), (1e300, 60), (top, 60)), 2e300)
    with pytest.raises(DomainError, match="the fit window's eigenvalues share one logarithm"):
        estimate_dimension(spec)
    with pytest.raises(CertificationError, match=r"^\[weyl-dimension\] the fit window's") as err:
        spectral_isotropy_bound(spec, 0.0)
    assert err.value.stage == "weyl-dimension"


def test_volume_estimate_past_every_float_is_a_weyl_volume_failure():
    # N ~ (lam / 1e200)^2 fits dimension 4, and lam^2 overflows, so the
    # estimate N (2 pi)^4 / (omega_4 lam^2) reads 0.
    entries = ((0.0, 1),) + tuple((1e200 * math.sqrt(j), 1) for j in range(1, 400))
    spec = Spectrum(entries, entries[-1][0])
    assert estimate_dimension(spec)[0] == 4
    with pytest.raises(CertificationError) as err, warnings.catch_warnings():
        warnings.simplefilter("error")  # and no numpy overflow warning first
        weyl_fit(spec)
    assert err.value.stage == "weyl-volume"


def test_synthetic_exact_weyl_law():
    # A spectrum laid exactly on N(lam) = c lam^(n/2) recovers n and the
    # volume that produced c, for several dimensions.
    for n, vol in ((1, 40.0), (2, 7.0), (4, 0.5)):
        c = vol * (2 * math.pi) ** (-n) * (math.pi ** (n / 2) / math.gamma(n / 2 + 1))
        lams = np.linspace(5.0, 400.0, 1500)
        entries = []
        prev = 0
        for lam in lams:
            count = int(round(c * lam ** (n / 2))) + 1
            if count > prev:
                entries.append((float(lam), count - prev))
                prev = count
        spec = Spectrum(((0.0, 1),) + tuple(entries), 401.0)
        got_n, _ = estimate_dimension(spec)
        assert got_n == n
        got_v = estimate_volume(spec, n)
        assert abs(got_v - vol) <= 0.05 * vol
