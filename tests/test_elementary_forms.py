"""The pipelines' special functions in elementary form, against 50-digit mpmath.

ball_volume and linked_complement_measure are integrals of sin^m, sinh^m
and cos^m (spaceform._power_integral); ell_constant and alpha_constant
invert them with Newton steps; _first_bessel_zero closes its bracket on
the exact sign of the Bessel series alone, with zero steps.  Each is
checked here against an independent reference: mpmath's incomplete beta
and 2F1 at 50 digits, mpmath root finding, and the same bracket closed by
Newton steps from scipy's jv.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
from scipy.special import jv

from orbispec.bounds import ALPHA_MARGIN, SHRINK, alpha_constant, ell_constant
from orbispec.dirichlet import _bessel_sign, _first_bessel_zero
from orbispec.spaceform import (
    SpaceForm,
    _series_switch,
    ball_volume,
    bonnet_myers_cap,
    linked_complement_measure,
    newton_bracket,
    sphere_measure,
    unit_ball_volume,
)

mpmath.mp.dps = 50
RTOL = 1e-13
DIMENSIONS = range(2, 13)


def _power_integral_mp(m: int, kappa: float, r):
    """The integral of sn^m over [0, r] at 50 digits: an incomplete beta when
    kappa > 0 (reflected past pi/2), 2F1 at -sinh^2 when kappa < 0."""
    k, r = mpmath.mpf(kappa), mpmath.mpf(r)
    s = mpmath.sqrt(abs(k))
    a, half = mpmath.mpf(m + 1) / 2, mpmath.mpf(1) / 2
    if k > 0:
        x = s * r
        part = mpmath.betainc(a, half, 0, mpmath.sin(x) ** 2) / 2
        if x > mpmath.pi / 2:
            part = mpmath.beta(a, half) - part
        return part / s ** (m + 1)
    sn = mpmath.sinh(s * r) / s
    return sn ** (m + 1) / (m + 1) * mpmath.hyp2f1(half, a, a + 1, k * sn * sn)


def _ball_volume_mp(n: int, kappa: float, r):
    omega = 2 * mpmath.pi ** (mpmath.mpf(n) / 2) / mpmath.gamma(mpmath.mpf(n) / 2)
    return omega * _power_integral_mp(n - 1, kappa, r)


def _linked_complement_mp(d: int, alpha: float):
    omega = 2 * mpmath.pi ** (mpmath.mpf(d) / 2) / mpmath.gamma(mpmath.mpf(d) / 2)
    return omega * mpmath.betainc(mpmath.mpf(1) / 2, mpmath.mpf(d) / 2, 0,
                                  mpmath.sin(mpmath.mpf(alpha)) ** 2)


def _angles(n: int, sign: int) -> list[float]:
    """sqrt|kappa| r from 1e-6 (|kappa| r^2 = 1e-12) up to the antipodal cap,
    or to 40 (|kappa| r^2 = 1600) when kappa < 0, and both sides of every
    branch switch: the series switch of sn^(n-1), and |kappa| r^2 = 1 where
    the n = 3 closed form takes over."""
    top = math.pi if sign > 0 else 40.0
    xs = list(np.geomspace(1e-6, top, 40))
    for edge in (_series_switch(n - 1, sign) or 1.0, 1.0):
        xs += [edge * (1.0 - 1e-12), edge, edge * (1.0 + 1e-12)]
    return sorted(xs)


@pytest.mark.parametrize("n", DIMENSIONS)
@pytest.mark.parametrize("kappa", [1.0, -1.0, 2.5e-7, -3.0e4])
def test_ball_volume_matches_mpmath(n, kappa):
    s = math.sqrt(abs(kappa))
    sign = 1 if kappa > 0 else -1
    for x in _angles(n, sign):
        r = min(x / s, bonnet_myers_cap(kappa))
        got = ball_volume(SpaceForm(n, kappa), r)
        want = _ball_volume_mp(n, kappa, r)
        assert abs(got - want) <= RTOL * want, (n, kappa, r, got, float(want))


@pytest.mark.parametrize("n", DIMENSIONS)
@pytest.mark.parametrize("kappa", [1.0, -1.0])
def test_ball_volume_is_monotone_across_each_switch(n, kappa):
    # Radii 1e-10 apart in relative terms change the volume by about n e-10,
    # far above the 1e-13 accuracy, so any jump at a switch would show.
    sign = 1 if kappa > 0 else -1
    # n = 2 has no series switch: sn^1 takes no recursion step.
    for edge in (_series_switch(n - 1, sign) or 1.0, 1.0):
        radii = edge * (1.0 + 1e-10 * np.arange(-8, 9))
        vols = [ball_volume(SpaceForm(n, kappa), float(r)) for r in radii]
        assert all(b > a for a, b in zip(vols, vols[1:])), (n, kappa, edge)


@pytest.mark.parametrize("d", range(1, 12))
def test_linked_complement_measure_matches_mpmath(d):
    alphas = list(np.geomspace(1e-9, 0.5 * math.pi, 40)) + [0.25 * math.pi, 1.5, 1.57]
    for alpha in alphas:
        got = linked_complement_measure(d, float(alpha))
        want = _linked_complement_mp(d, float(alpha))
        assert abs(got - want) <= RTOL * want, (d, alpha, got, float(want))


def _root(f, start: float) -> float:
    return float(mpmath.findroot(f, mpmath.mpf(start)))


@pytest.mark.parametrize("n", [3, 4, 5, 8, 12])
@pytest.mark.parametrize("kappa", [1.0, 0.3, -0.3, -4.0])
def test_ell_constant_inverts_ball_volume(n, kappa):
    # ell / SHRINK is the float root of ball_volume = v/3, so it sits within
    # rounding, times the condition V / (r dV/dr), of the 50-digit root.
    s = math.sqrt(abs(kappa))
    top = bonnet_myers_cap(kappa) if kappa > 0 else 3.0 / s
    for share in (1e-6, 0.01, 0.3, 0.7):
        v = 3.0 * share * float(_ball_volume_mp(n, kappa, top))
        got = ell_constant(n, kappa, v) / SHRINK
        want = _root(lambda r: _ball_volume_mp(n, kappa, r) - mpmath.mpf(v) / 3, got)
        sn = (math.sin(s * got) if kappa > 0 else math.sinh(s * got)) / s
        condition = max(1.0, v / 3.0 / (got * sphere_measure(n - 1) * sn ** (n - 1)))
        assert abs(got - want) <= RTOL * condition * want, (n, kappa, v, got, want)


@pytest.mark.parametrize("n", [2, 3, 4, 6, 12])
@pytest.mark.parametrize("kappa, d", [(1.0, 2.0), (0.0, 1.0), (-1.0, 1.5)])
def test_alpha_constant_inverts_linked_complement_measure(n, kappa, d):
    # alpha is the largest angle whose cone passes the float check against
    # the v/6 budget, so it sits within rounding, times the condition of
    # the band, of the 50-digit angle where the cone meets the budget.
    ball = _ball_volume_mp(n, kappa, d) if kappa != 0.0 else unit_ball_volume(n) * d**n
    omega = sphere_measure(n - 1)
    for share in (1e-4, 0.05, 0.5):
        v = 6.0 * share * float(ball)
        got = alpha_constant(n, kappa, d, v)
        target = mpmath.mpf(v) / 6 * (1 - mpmath.mpf(ALPHA_MARGIN))
        want = _root(lambda a: ball * _linked_complement_mp(n - 1, a) / omega - target, got)
        rate = 2.0 * sphere_measure(n - 2) * math.cos(got) ** (n - 2)
        condition = max(1.0, linked_complement_measure(n - 1, got) / (got * rate))
        assert abs(got - want) <= RTOL * condition * want, (n, kappa, v, got, want)


def _jv_first_bessel_zero(n: int) -> float:
    """_first_bessel_zero's bracket closed by Newton steps from scipy's jv."""
    nu = 0.5 * n - 1.0

    def probe(x: float) -> tuple[bool, float]:
        f = float(jv(nu, x))
        return _bessel_sign(n, x) > 0, f / (nu / x * f - float(jv(nu - 1.0, x)))

    hi = math.sqrt(nu + 1.0) * (math.sqrt(nu + 2.0) + 1.0)
    return newton_bracket(probe, math.sqrt((nu + 1.0) * (nu + 5.0)), hi, hi)[1]


@pytest.mark.parametrize("n", range(2, 41))
def test_first_bessel_zero_is_bit_identical_to_jv_newton_steps(n):
    assert _first_bessel_zero(n) == _jv_first_bessel_zero(n)
