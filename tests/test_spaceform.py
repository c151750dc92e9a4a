"""Constant-curvature model geometry: volumes, caps, cones, triangles."""

from __future__ import annotations

import math

import numpy as np
import pytest

from orbispec.errors import DomainError
from orbispec.spaceform import (
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

from oracles import gauss_legendre_linked_complement, sobol_two_cap_complement


def test_generalized_sin_closed_forms():
    for t in (0.0, 0.3, 1.0, 2.5):
        assert generalized_sin(0.0, t) == t
        assert abs(generalized_sin(1.0, t) - math.sin(t)) < 1e-15
        assert abs(generalized_sin(-1.0, t) - math.sinh(t)) < 1e-13
    for t in (0.0, 0.3, 0.7):
        # kappa = 4 halves the antipodal cap, so stay below pi/2
        assert abs(generalized_sin(4.0, t) - 0.5 * math.sin(2.0 * t)) < 1e-15


def test_generalized_sin_continuous_at_flat():
    # the kappa -> 0 limit is approached smoothly, no cancellation blowup
    for t in (0.1, 1.0, 3.0):
        for k in (1e-14, -1e-14):
            assert abs(generalized_sin(k, t) - t) < 1e-12 * max(1.0, t)


def test_bonnet_myers_cap():
    assert bonnet_myers_cap(1.0) == math.pi
    assert abs(bonnet_myers_cap(4.0) - math.pi / 2) < 1e-15
    # no diameter cap without positive curvature
    assert bonnet_myers_cap(0.0) == math.inf
    assert bonnet_myers_cap(-1.0) == math.inf


def test_sphere_and_ball_constants():
    assert abs(sphere_measure(1) - 2 * math.pi) < 1e-15
    assert abs(sphere_measure(2) - 4 * math.pi) < 1e-14
    assert abs(sphere_measure(3) - 2 * math.pi**2) < 1e-13
    assert abs(unit_ball_volume(1) - 2.0) < 1e-15
    assert abs(unit_ball_volume(2) - math.pi) < 1e-15
    assert abs(unit_ball_volume(3) - 4 * math.pi / 3) < 1e-15


def test_ball_volume_closed_forms():
    for r in (0.2, 0.9, 2.0):
        assert abs(ball_volume(SpaceForm(2, 0.0), r) - math.pi * r * r) < 1e-13 * r * r
        want = 2 * math.pi * (1 - math.cos(r))
        assert abs(ball_volume(SpaceForm(2, 1.0), r) - want) < 1e-13
        want = 2 * math.pi * (math.cosh(r) - 1)
        assert abs(ball_volume(SpaceForm(2, -1.0), r) - want) < 1e-12 * want
        want = 4 * math.pi * r**3 / 3
        assert abs(ball_volume(SpaceForm(3, 0.0), r) - want) < 1e-13 * want
        want = math.pi * (2 * r - math.sin(2 * r))
        assert abs(ball_volume(SpaceForm(3, 1.0), r) - want) < 1e-12 * max(1.0, want)
    assert ball_volume(SpaceForm(2, 1.0), 0.0) == 0.0
    # full sphere at the antipodal cap
    assert abs(ball_volume(SpaceForm(2, 1.0), math.pi) - 4 * math.pi) < 1e-12
    assert abs(ball_volume(SpaceForm(3, 1.0), math.pi) - 2 * math.pi**2) < 1e-11


def test_ball_volume_matches_quadrature_route():
    rng = np.random.default_rng(20260814)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        kappa = float(rng.uniform(-2.0, 2.0))
        cap = bonnet_myers_cap(kappa) if kappa > 0 else 3.0
        r = float(rng.uniform(0.05, 0.98 * cap))
        a = ball_volume(SpaceForm(n, kappa), r)
        b = ball_volume_quadrature(SpaceForm(n, kappa), r)
        assert abs(a - b) < 1e-10 * max(1.0, b), (n, kappa, r, a, b)


def test_ball_volume_monotone_and_domain():
    sf = SpaceForm(2, 1.0)
    grid = np.linspace(0.01, math.pi, 200)
    vols = [ball_volume(sf, float(r)) for r in grid]
    assert all(b > a for a, b in zip(vols, vols[1:]))
    with pytest.raises(DomainError):
        ball_volume(sf, -0.1)
    with pytest.raises(DomainError):
        ball_volume(sf, math.pi + 1e-6)
    # no cap in nonpositive curvature
    assert ball_volume(SpaceForm(2, -1.0), 30.0) > 0


def test_relative_volume_ratio_nonincreasing():
    # Bishop-Gromov shadow: vol_kappa(r) / vol_0(r) is nonincreasing for kappa > 0
    sf1, sf0 = SpaceForm(2, 1.0), SpaceForm(2, 0.0)
    grid = np.linspace(0.05, math.pi, 400)
    ratios = [ball_volume(sf1, float(r)) / ball_volume(sf0, float(r)) for r in grid]
    assert all(b <= a + 1e-12 for a, b in zip(ratios, ratios[1:]))


def test_two_cap_complement_zero_at_linked_half_pi():
    for d in (1, 2, 3, 4):
        assert linked_complement_measure(d, 0.0) == 0.0


def test_two_cap_complement_monotone_in_alpha_linked():
    # along the linked family theta = pi/2 - alpha the measure grows with alpha
    for d in (1, 2, 3):
        alphas = np.linspace(0.01, math.pi / 2 - 0.01, 60)
        vals = [linked_complement_measure(d, float(a)) for a in alphas]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:])), d
        assert vals[0] < vals[-1]


def test_two_cap_complement_circle_exact_linked():
    # on S^1 the linked complement is exactly 4*alpha (two arcs of 2*alpha)
    for a in (0.1, 0.4, 1.0, 1.4):
        assert abs(linked_complement_measure(1, a) - 4 * a) < 1e-14


def test_linked_complement_matches_band_oracle():
    # incomplete-beta closed form against a fixed Gauss-Legendre rule over the
    # band, from alpha = 1e-6 to within 1e-6 of pi/2, in S^1 .. S^6
    alphas = np.concatenate(
        [np.geomspace(1e-6, 0.1, 12), np.linspace(0.1, math.pi / 2 - 1e-6, 24)]
    )
    for d in range(1, 7):
        for a in alphas:
            got = linked_complement_measure(d, float(a))
            want = gauss_legendre_linked_complement(d, float(a))
            assert abs(got - want) <= 1e-10 * want, (d, a, got, want)
    # S^2: the band within alpha of the equator has measure 4 pi sin(alpha)
    for a in (1e-6, 0.3, 1.2):
        assert abs(linked_complement_measure(2, a) - 4 * math.pi * math.sin(a)) < 1e-13


def test_two_cap_complement_vs_sampling():
    # modest sample count here; the 10^7-sample run lives in the acceptance suite
    for d, alpha, seed in ((2, 0.3, 11), (3, 0.7, 13)):
        theta = math.pi / 2 - alpha
        est, sig = sobol_two_cap_complement(d, alpha, theta, 1 << 20, seed=seed)
        exact = linked_complement_measure(d, alpha)
        assert abs(est - exact) < 3 * sig, (d, alpha, est, exact, sig)


def test_cone_volume_scales_with_direction_measure():
    sf = SpaceForm(3, 1.0)
    r = 1.2
    full = cone_volume(sf, r, sphere_measure(2))
    assert abs(full - ball_volume(sf, r)) < 1e-12
    assert cone_volume(sf, r, 0.0) == 0.0
    half = cone_volume(sf, r, 0.5 * sphere_measure(2))
    assert abs(half - 0.5 * full) < 1e-12
    with pytest.raises(DomainError):
        cone_volume(sf, r, 4 * math.pi + 1e-6)


def test_law_of_cosines_flat_spherical_hyperbolic():
    rng = np.random.default_rng(99)
    for _ in range(60):
        a = float(rng.uniform(0.05, 1.2))
        b = float(rng.uniform(0.05, 1.2))
        g = float(rng.uniform(0.0, math.pi))
        flat = math.sqrt(max(a * a + b * b - 2 * a * b * math.cos(g), 0.0))
        assert abs(law_of_cosines_side(0.0, a, b, g) - flat) < 1e-12
        sph = math.acos(
            np.clip(math.cos(a) * math.cos(b) + math.sin(a) * math.sin(b) * math.cos(g), -1, 1)
        )
        assert abs(law_of_cosines_side(1.0, a, b, g) - sph) < 1e-10
        hyp = math.acosh(
            max(math.cosh(a) * math.cosh(b) - math.sinh(a) * math.sinh(b) * math.cos(g), 1.0)
        )
        assert abs(law_of_cosines_side(-1.0, a, b, g) - hyp) < 1e-10


def test_law_of_cosines_degenerate_angles():
    for kappa in (-1.0, 0.0, 1.0):
        assert abs(law_of_cosines_side(kappa, 0.7, 0.4, 0.0) - 0.3) < 1e-10
        s = law_of_cosines_side(kappa, 0.7, 0.4, math.pi)
        assert abs(s - 1.1) < 1e-10, (kappa, s)


def test_law_of_cosines_near_flat_continuity():
    # the true curvature correction is O(kappa), so only tiny kappa must agree
    for k in (1e-12, -1e-12, 1e-10, -1e-10):
        flat = law_of_cosines_side(0.0, 0.8, 0.5, 1.1)
        assert abs(law_of_cosines_side(k, 0.8, 0.5, 1.1) - flat) < 1e-9
    # and the correction has the right sign: spherical shortens, hyperbolic lengthens
    flat = law_of_cosines_side(0.0, 0.8, 0.5, 1.1)
    assert law_of_cosines_side(0.1, 0.8, 0.5, 1.1) < flat < law_of_cosines_side(-0.1, 0.8, 0.5, 1.1)


def test_law_of_cosines_vectorized():
    a = np.array([0.2, 0.5, 1.0])
    out = law_of_cosines_side(1.0, a, 0.4, np.array([0.3, 0.6, 0.9]))
    assert out.shape == (3,)
    for i in range(3):
        s = law_of_cosines_side(1.0, float(a[i]), 0.4, float([0.3, 0.6, 0.9][i]))
        assert abs(out[i] - s) < 1e-14


def test_space_form_validation():
    with pytest.raises(DomainError):
        SpaceForm(1, 1.0)
    with pytest.raises(DomainError):
        SpaceForm(2, math.nan)
