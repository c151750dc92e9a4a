"""Constant-curvature model geometry: volumes, caps, cones, triangles."""

from __future__ import annotations

import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbispec.errors import ConvergenceError, DomainError
from orbispec.spaceform import (
    NEAR_FLAT,
    ROOT_MAX_PROBES,
    SpaceForm,
    ball_volume,
    bonnet_myers_cap,
    cone_volume,
    generalized_sin,
    linked_complement_measure,
    newton_bracket,
    sphere_measure,
    unit_ball_volume,
    _series_switch,
)

from oracles import (
    ball_volume_quadrature,
    gauss_legendre_linked_complement,
    law_of_cosines_side,
    reference_generalized_sin,
    sobol_two_cap_complement,
)


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


def test_generalized_sin_bit_identical_to_both_branch_reference():
    # The series branch runs only when some point is near flat; the values
    # must not move by a bit, on arrays that straddle NEAR_FLAT and on scalars.
    t = np.linspace(0.0, 1.0, 601)
    for kappa in (-1.0, 2.0, 1e-3, -1e-3, 1e-6, -4e-8, 0.0):
        assert np.array_equal(generalized_sin(kappa, t), reference_generalized_sin(kappa, t))
    edge = math.sqrt(NEAR_FLAT)  # |kappa| r^2 = NEAR_FLAT at kappa = 1, r = edge
    straddle = edge * np.array([0.5, 1.0 - 1e-15, 1.0, 1.0 + 1e-15, 2.0, 1e4])
    for kappa in (1.0, -1.0, 1e-9, -1e-9):
        assert np.array_equal(
            generalized_sin(kappa, straddle), reference_generalized_sin(kappa, straddle)
        )
    for kappa in (-2.5, -1e-12, 0.0, 1e-12, 2.5):
        for r in (0.0, 1e-9, edge, 0.3, 1.2):
            got = generalized_sin(kappa, r)
            assert isinstance(got, float)
            assert got == reference_generalized_sin(kappa, r)
    for bad in (math.nan, math.inf, -1e-300, np.array([0.1, math.nan]), np.array([-0.0, -1.0])):
        with pytest.raises(DomainError):
            generalized_sin(-1.0, bad)
    with pytest.raises(DomainError):
        generalized_sin(1.0, np.array([0.1, math.pi * (1.0 + 1e-9)]))


@pytest.mark.parametrize(
    "kappa, bad", [(-1.0, math.nan), (-1.0, math.inf), (-1.0, -1e-300), (1.0, 4.0)]
)
def test_scalar_and_array_radii_raise_the_same_domain_error(kappa, bad):
    # The error names the offending value, whatever holds it, and
    # ball_volume raises it from its one check.
    messages = set()
    for r in (bad, np.float64(bad), np.array(bad), np.array([0.1, bad])):
        with pytest.raises(DomainError) as err:
            generalized_sin(kappa, r)
        messages.add(str(err.value))
    assert len(messages) == 1, messages
    with pytest.raises(DomainError) as err:
        ball_volume(SpaceForm(5, kappa), bad)
    assert str(err.value) in messages


def _assert_cap_rounds_outward(kappa: float) -> None:
    # The float cap lies above pi/sqrt(kappa) (40 digits), by at most 2^-49 relative.
    cap = bonnet_myers_cap(kappa)
    with mpmath.workdps(40):
        true = mpmath.pi / mpmath.sqrt(mpmath.mpf(kappa))
        assert true < mpmath.mpf(cap) <= true * (1 + mpmath.mpf(2) ** -49), kappa


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=5e-324, max_value=1.7e308, allow_nan=False, allow_infinity=False))
def test_bonnet_myers_cap_rounds_outward(kappa):
    _assert_cap_rounds_outward(kappa)


def test_bonnet_myers_cap():
    # math.pi is 1.22e-16 below pi, so the cap at kappa = 1 lies above it.
    assert bonnet_myers_cap(1.0) > math.pi
    for kappa in (1.0, 0.25, 2.0, 3.7, 4.0, 5e-324, 1e-300, 1e300):
        _assert_cap_rounds_outward(kappa)
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


def test_flat_ball_volume_is_closed_form_in_every_dimension():
    # kappa = 0 takes unit_ball_volume(n) r^n for every n, no quadrature.
    for n in range(2, 9):
        for r in (0.05, 0.7, 1.5, 4.0):
            a = ball_volume(SpaceForm(n, 0.0), r)
            assert a == unit_ball_volume(n) * r**n
            b = ball_volume_quadrature(SpaceForm(n, 0.0), r)
            assert abs(a - b) <= 1e-12 * b, (n, r, a, b)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(2, 8),
    st.sampled_from([-1.0, 0.0, 1.0]),
    st.floats(-12.0, 2.0),
    st.floats(0.05, 4.0),
)
@example(4, 1.0, 2.0, 1.0)  # clipped to 0.999 of the antipodal cap
@example(8, 1.0, 2.0, 3.0)
@example(5, -1.0, 2.0, 1.0)
@example(3, 1.0, -4.0, 0.5)  # near-flat n = 3, formerly quadrature
@example(3, -1.0, -0.01, 2.0)  # just below the n = 3 elementary switch
@example(3, 1.0, -3.99, 1.0)  # the n = 3 elementary form cancels here
@example(3, -1.0, -3.99, 0.3)
@example(6, 1.0, -12.0, 0.3)
@example(6, -1.0, -12.0, 0.3)
def test_ball_volume_closed_forms_match_quadrature_oracle(n, sign, log_size, r):
    # |kappa| r^2 = 10^log_size, capped at (0.999 pi)^2 so positive curvature
    # stays inside the antipodal cap; sign 0 is the flat case
    size = min(10.0**log_size, (0.999 * math.pi) ** 2)
    sf = SpaceForm(n, sign * size / (r * r))
    want = ball_volume_quadrature(sf, r)
    assert abs(ball_volume(sf, r) - want) <= 1e-12 * want


@pytest.mark.parametrize("n", [3, 4, 5, 8])
@pytest.mark.parametrize("kappa", [1.0, -1.0, 1e-9, -1e-9])
def test_ball_volume_strictly_increasing_in_radius(n, kappa):
    cap = bonnet_myers_cap(kappa) if kappa > 0 else 6.0
    radii = list(np.linspace(0.01, 0.999, 300) * cap)
    # both sides of the series switch of sn^(n-1) (at most sqrt(kappa) r =
    # pi/4, or sinh^2 = 1 when kappa < 0) and of the n = 3 closed form's at
    # |kappa| r^2 = 1
    s = math.sqrt(abs(kappa))
    for edge in (_series_switch(n - 1, 1 if kappa > 0 else -1) / s, 1.0 / s):
        radii += [edge * (1 - 1e-9), edge, edge * (1 + 1e-9)]
    radii = sorted(r for r in radii if r < cap)
    vols = [ball_volume(SpaceForm(n, kappa), float(r)) for r in radii]
    assert all(b > a for a, b in zip(vols, vols[1:])), n


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


@pytest.mark.parametrize("n, kappa, r", [(2, -1e4, 15.0), (3, -100.0, 80.0), (5, -100.0, 50.0)])
def test_ball_volume_past_every_float_is_a_domain_error(n, kappa, r):
    # math.sinh, then sinh(2 s r), then sn**n once raised a bare OverflowError.
    # The refusal comes without a numpy overflow warning first.
    with pytest.raises(DomainError, match="overflows"), warnings.catch_warnings():
        warnings.simplefilter("error")
        ball_volume(SpaceForm(n, kappa), r)


def test_relative_volume_ratio_nonincreasing():
    # Bishop-Gromov shadow: vol_kappa(r) / vol_0(r) is nonincreasing for kappa > 0
    sf1, sf0 = SpaceForm(2, 1.0), SpaceForm(2, 0.0)
    grid = np.linspace(0.05, math.pi, 400)
    ratios = [ball_volume(sf1, float(r)) / ball_volume(sf0, float(r)) for r in grid]
    assert all(b <= a + 1e-12 for a, b in zip(ratios, ratios[1:]))


def test_two_cap_complement_zero_at_linked_half_pi():
    for d in (1, 2, 3, 4):
        assert linked_complement_measure(d, 0.0) == 0.0
    for alpha in (-0.1, 0.5 * math.pi + 0.1, math.nan):
        with pytest.raises(DomainError, match="alpha must lie in"):
            linked_complement_measure(2, alpha)


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
    # cosine-power recursion against a fixed Gauss-Legendre rule over the
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


def test_newton_bracket_takes_the_midpoint_when_a_step_leaves_the_bracket():
    # The first Newton step from 0.5 jumps past 0, outside [0, 0.5]; the
    # next probe is the midpoint, and exact steps then close on 0.3.
    probes = []

    def probe(x):
        probes.append(x)
        return x < 0.3, (0.3 - x) if len(probes) > 1 else -10.0

    lo, hi = newton_bracket(probe, 0.0, 1.0, 0.5)
    assert probes[1] == 0.25
    assert lo < 0.3 <= hi and math.nextafter(lo, hi) == hi
    # Near the largest float lo + hi overflows, so the midpoint adds the
    # halves, and a step that overflows gallops: every probe stays inside
    # the bracket, none at inf.  A step of 5.5e307 from 1.2e308 leaves the
    # bracket at a finite float, so the midpoint 1.45e308 comes next.
    for step, second in ((1e308, math.nextafter(1.2e308, math.inf)), (5.5e307, 1.45e308)):
        probes.clear()

        def far(x):
            probes.append(x)
            return x < 1.5e308, step

        lo, hi = newton_bracket(far, 1e308, 1.7e308, 1.2e308)
        assert lo < 1.5e308 <= hi and math.nextafter(lo, hi) == hi
        assert probes[1] == second
        assert all(1e308 <= x <= 1.7e308 for x in probes)


def test_newton_bracket_gives_up_after_its_probe_budget():
    # Newton steps that crawl one float toward the far end are taken as
    # steps, so they never gallop, and one float at a time cannot close
    # [0, 1] in ROOT_MAX_PROBES probes.
    probes = []

    def probe(x):
        probes.append(x)
        return True, math.ulp(x)

    with pytest.raises(ConvergenceError, match=f"{ROOT_MAX_PROBES} probes"):
        newton_bracket(probe, 0.0, 1.0, 0.5)
    assert len(probes) == ROOT_MAX_PROBES


def _float_steps(x: float, k: int) -> float:
    """The float k floats from x, away from 0 for k > 0 and toward it for k < 0."""
    return float((np.array(x).view(np.int64) + k).view(np.float64))


@pytest.mark.parametrize("step", [0.0, math.nan])
@pytest.mark.parametrize("offset", [-10**6, 10**6])
@pytest.mark.parametrize(
    "boundary, lo", [(1.0e-3, 0.0), (-1.0e-3, -sys.float_info.max)], ids=["positive", "negative"]
)
def test_newton_bracket_gallops_on_zero_steps(boundary, lo, offset, step):
    # Zero (or NaN) steps from a guess k floats off gallop 1, 2, 4, ...
    # floats toward the sign change and then bisect: the bracket closes on
    # the exact boundary in at most 2 log2(k) + 4 probes, on [0, largest
    # float] and on the negative floats of [-largest, largest] alike.
    probes = []

    def probe(x):
        probes.append(x)
        return x < boundary, step

    guess = _float_steps(boundary, offset)
    below, hi = newton_bracket(probe, lo, sys.float_info.max, guess)
    assert hi == boundary and below == math.nextafter(boundary, -math.inf)
    assert len(probes) <= 2 * math.log2(abs(offset)) + 4


def test_newton_bracket_gallops_across_a_flat_stretch():
    # On the 2^30 floats from the sign change up the steps point back (away
    # from lo), as where a value is flat to rounding; elsewhere they are
    # exact.  One float per probe would need 2^30 probes.  The gallop
    # crosses the stretch in 30, its 31st lands 2^30 floats below the
    # boundary, a right end already probed, so the exact steps from there
    # leave the open bracket and midpoints bisect the last 2^30 floats.
    boundary = 1.25
    stretch = boundary + 2**30 * math.ulp(boundary)
    probes = []

    def probe(x):
        probes.append(x)
        if boundary <= x < stretch:
            return False, math.ulp(x)
        return x < boundary, boundary - x

    lo, hi = newton_bracket(probe, 1.0, 2.0, math.nextafter(stretch, 0.0))
    assert hi == boundary and lo == math.nextafter(boundary, 0.0)
    assert len(probes) <= 2 * 30 + 4
