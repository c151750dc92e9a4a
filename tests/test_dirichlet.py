"""Lowest Dirichlet eigenvalue of geodesic balls: closed forms and Rayleigh-Ritz
against the shooting and finite-difference oracles, and the closed-form upper
bound the pipelines count below."""

from __future__ import annotations

import math
import sys
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import jn_zeros

from orbispec import dirichlet
from orbispec.bounds import RHO_TOL_SCALE
from orbispec.dirichlet import (
    _ball_threshold,
    _bessel_sign,
    _first_bessel_zero,
    _ritz_unit_ball,
    _threshold_form,
    _threshold_top,
    lowest_dirichlet_eigenvalue,
)
from orbispec.errors import ConvergenceError, DomainError
from orbispec.modelspectra import catalog_model
from orbispec.spaceform import SpaceForm, bonnet_myers_cap

from oracles import (
    finite_difference_eigenvalue,
    log_radius_grid,
    reference_ritz_unit_ball,
    richardson_fd_eigenvalue,
    ritz_quotient,
    shooting_eigenvalue,
)

# A (curvature, radius) key at which scipy's event location inside the
# shooting oracle's radial ODE fails to bracket the zero crossing.
EVENT_FAILURE_KEY = (0.7852497754447629, 0.9071244157410668)

# Richardson-extrapolated finite-difference value at mesh 2048/4096 for the
# unit flat disk; the exact answer is the squared first Bessel zero
# j_{0,1}^2 = 5.783185962946785.
RICHARDSON_DISK = 5.783185958960339


def test_flat_disk_against_fd_oracle():
    sf = SpaceForm(2, 0.0)
    live = richardson_fd_eigenvalue(sf, 1.0)
    assert abs(live - RICHARDSON_DISK) < 1e-9, "oracle drifted from its frozen value"
    got = lowest_dirichlet_eigenvalue(sf, 1.0)
    assert abs(got - RICHARDSON_DISK) < 1e-6 * RICHARDSON_DISK


def test_flat_disk_against_bessel():
    # in dimension n the flat ball eigenvalue is (j_(n/2-1,1) / r)^2
    for n in (2, 3, 4):
        sf = SpaceForm(n, 0.0)
        want = float(jn_zeros(n / 2 - 1, 1)[0]) ** 2 if n % 2 == 0 else None
        got = lowest_dirichlet_eigenvalue(sf, 1.0)
        if n == 2:
            assert abs(got - 5.783185962946785) < 1e-7
        if n == 3:
            # half-integer Bessel: j_(1/2,1) = pi, so the value is pi^2
            assert abs(got - math.pi**2) < 1e-7
        if want is not None:
            assert abs(got - want) < 1e-6 * want


def test_hemisphere_eigenvalue_is_dimension():
    # the first Dirichlet eigenfunction of a hemisphere is the height
    # coordinate, with eigenvalue n; the Ritz route (n != 3) reads high
    for n in (2, 3, 4):
        got = lowest_dirichlet_eigenvalue(SpaceForm(n, 1.0), math.pi / 2)
        assert abs(got - n) < 1e-4, (n, got)
    assert 0.0 <= lowest_dirichlet_eigenvalue(SpaceForm(2, 1.0), math.pi / 2) - 2.0 < 1e-7


def test_flat_scaling_invariance():
    sf = SpaceForm(2, 0.0)
    vals = [lowest_dirichlet_eigenvalue(sf, r) * r * r for r in (0.1, 1.0, 10.0)]
    assert max(vals) - min(vals) < 1e-9 * max(vals)


def test_eigenvalue_decreases_with_radius():
    sf = SpaceForm(2, 1.0)
    radii = (0.3, 0.8, 1.5, 2.5, 3.0)
    vals = [lowest_dirichlet_eigenvalue(sf, r) for r in radii]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    # the hemisphere value 2 separates the radii on either side of pi/2
    assert vals[3] < 2.0 < vals[2]


def test_hyperbolic_against_fd_oracle():
    sf = SpaceForm(2, -1.0)
    got = lowest_dirichlet_eigenvalue(sf, 1.0)
    oracle = richardson_fd_eigenvalue(sf, 1.0)
    assert abs(got - oracle) < 1e-6 * oracle
    assert got > lowest_dirichlet_eigenvalue(SpaceForm(2, 1.0), 1.0)


def test_large_hyperbolic_ball_against_fd_oracle():
    # kappa r^2 = -1600, where the shooting oracle fails to bracket: the
    # inverse iteration's shift keeps the Ritz route converging, and its
    # uniform mesh still reads within 1e-5 of the oracle, on the high side
    sf = SpaceForm(2, -100.0)
    got = lowest_dirichlet_eigenvalue(sf, 4.0)
    oracle = richardson_fd_eigenvalue(sf, 4.0)
    assert oracle * (1 - 1e-9) <= got < oracle * (1 + 1e-5)


def test_near_cap_threshold_stays_positive_and_decreasing():
    # the lowest eigenvalue underflows toward the antipodal cap; the Ritz
    # route must still factor its pencil and return a positive, monotone value
    for n in (4, 10):
        vals = [
            lowest_dirichlet_eigenvalue(SpaceForm(n, 1.0), u * math.pi)
            for u in (0.99, 0.999, 1 - 1e-6, 1 - 2e-9)
        ]
        assert all(v > 0 for v in vals), (n, vals)
        assert all(b < a for a, b in zip(vals, vals[1:])), (n, vals)


def test_domain_errors():
    with pytest.raises(DomainError):
        lowest_dirichlet_eigenvalue(SpaceForm(2, 0.0), 0.0)
    with pytest.raises(DomainError):
        lowest_dirichlet_eigenvalue(SpaceForm(2, 0.0), -1.0)
    with pytest.raises(DomainError):
        # radius beyond the antipodal cap
        lowest_dirichlet_eigenvalue(SpaceForm(2, 1.0), math.pi)
    for kappa, r in ((-1e6, 1.0), (-0.75, 1e308)):
        with pytest.raises(DomainError), warnings.catch_warnings():
            # the volume density sinh(1000 t) overflows on the Ritz mesh,
            # and at kappa r^2 = -inf it is inf / inf; the refusal comes
            # without a numpy warning first
            warnings.simplefilter("error")
            lowest_dirichlet_eigenvalue(SpaceForm(2, kappa), r)
    # Thresholds past every float: (j / r)^2 and (pi / r)^2 overflow, and the
    # Ritz route's r^2 underflows to 0.
    for n, kappa in ((2, 0.0), (3, 1.0), (2, -1.0)):
        with pytest.raises(DomainError, match="overflows"):
            lowest_dirichlet_eigenvalue(SpaceForm(n, kappa), 1e-170)


def test_shooting_oracle_refuses_an_overflowing_start():
    # The flat starting value (j/r)^2 past every float is a DomainError that
    # names the key, as the library's threshold refuses it.
    with pytest.raises(DomainError, match=r"r = 1\.27e-261, kappa = 1\.0 overflows"):
        shooting_eigenvalue(SpaceForm(2, 1.0), 1.27e-261)


def test_event_location_failure_is_a_convergence_error():
    # the shooting oracle still fails here; the library's n = 3 closed form does not
    kappa, r = EVENT_FAILURE_KEY
    with pytest.raises(ConvergenceError):
        shooting_eigenvalue(SpaceForm(3, kappa), r)
    assert lowest_dirichlet_eigenvalue(SpaceForm(3, kappa), r) == (math.pi / r) ** 2 - kappa


def test_fd_second_order_convergence():
    sf = SpaceForm(2, 0.0)
    exact = 5.783185962946785
    coarse = finite_difference_eigenvalue(sf, 1.0, mesh_points=256)
    fine = finite_difference_eigenvalue(sf, 1.0, mesh_points=512)
    # halving h should cut the error by about 4
    ratio = abs(coarse - exact) / abs(fine - exact)
    assert 3.0 < ratio < 5.0, ratio
    richardson = (4.0 * fine - coarse) / 3.0
    assert abs(richardson - exact) < abs(fine - exact)


def test_memoization_returns_identical_floats():
    # no result memo; repeat calls are deterministic and the only cache,
    # the Bessel zero per dimension, is bounded
    sf = SpaceForm(3, 1.0)
    assert lowest_dirichlet_eigenvalue(sf, 0.9) == lowest_dirichlet_eigenvalue(sf, 0.9)
    sf = SpaceForm(4, 0.5)
    assert lowest_dirichlet_eigenvalue(sf, 0.9) == lowest_dirichlet_eigenvalue(sf, 0.9)
    assert _first_bessel_zero.cache_info().maxsize is not None


# ---------------------------------------------------------------------------
# Properties of the threshold.

KAPPA_SIGNS = st.sampled_from([-1.0, 0.0, 1.0])


def _eigenvalue(n: int, kappa: float, r: float) -> float:
    return lowest_dirichlet_eigenvalue(SpaceForm(n, kappa), r)


def _shooting_or_reject(n: int, kappa: float, r: float) -> float:
    """The shooting oracle's value; keys where the oracle itself fails are discarded."""
    try:
        return shooting_eigenvalue(SpaceForm(n, kappa), r)
    except ConvergenceError:
        assume(False)


@st.composite
def ritz_keys(draw):
    """(n, kappa, r) with n in {2, 4, 5}, any sign of kappa, r up to 0.999 pi/sqrt(kappa)."""
    n = draw(st.sampled_from([2, 4, 5]))
    kappa = draw(KAPPA_SIGNS) * draw(st.floats(0.05, 4.0))
    r_max = 0.999 * math.pi / math.sqrt(kappa) if kappa > 0 else 3.0
    r = draw(st.floats(0.05, 1.0)) * r_max
    return n, kappa, r


@settings(max_examples=25, deadline=None)
@given(ritz_keys())
def test_threshold_never_below_shooting_oracle(key):
    n, kappa, r = key
    assert _eigenvalue(n, kappa, r) >= _shooting_or_reject(n, kappa, r) * (1 - 1e-9)


@settings(max_examples=40, deadline=None)
@given(ritz_keys(), st.floats(0.2, 5.0))
def test_threshold_scaling_law(key, c):
    n, kappa, r = key
    scaled = _eigenvalue(n, kappa / (c * c), c * r)
    assert abs(scaled - _eigenvalue(n, kappa, r) / (c * c)) <= 1e-12 * scaled


@settings(max_examples=40, deadline=None)
@given(ritz_keys(), st.floats(0.5, 0.999))
def test_threshold_strictly_decreasing_in_radius(key, shrink):
    n, kappa, r = key
    assert _eigenvalue(n, kappa, shrink * r) > _eigenvalue(n, kappa, r)


@settings(max_examples=25, deadline=None)
@given(KAPPA_SIGNS, st.floats(0.05, 4.0), st.floats(0.05, 1.0))
def test_dimension_three_matches_shooting_oracle(sign, size, u):
    kappa = sign * size
    r = u * (0.999 * math.pi / math.sqrt(kappa) if kappa > 0 else 3.0)
    oracle = _shooting_or_reject(3, kappa, r)
    assert abs(_eigenvalue(3, kappa, r) - oracle) <= 1e-9 * oracle


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 4, 6, 8]), st.floats(0.01, 100.0))
def test_flat_threshold_matches_bessel_zeros(n, r):
    want = (float(jn_zeros(n // 2 - 1, 1)[0]) / r) ** 2
    assert abs(_eigenvalue(n, 0.0, r) - want) <= 1e-12 * want


@pytest.mark.parametrize("n", range(2, 13))
def test_first_bessel_zero_is_rounded_up(n):
    # never below the true zero, so (j/r)^2 never under-estimates the flat
    # threshold, and the float just below it lies below the zero
    with mpmath.workdps(40):
        true = mpmath.besseljzero(mpmath.mpf(n) / 2 - 1, 1)
        j = _first_bessel_zero(n)
        assert mpmath.mpf(math.nextafter(j, 0.0)) < true <= mpmath.mpf(j)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 16), st.floats(1e-3, 20.0))
def test_bessel_sign_is_exact(n, x):
    with mpmath.workdps(40):
        true = mpmath.besselj(mpmath.mpf(n) / 2 - 1, mpmath.mpf(x))
        assert _bessel_sign(n, x) == int(mpmath.sign(true))


# ---------------------------------------------------------------------------
# The closed-form threshold the pipelines count below.


def _liouville_phi(x):
    """coth^2 x - 1/x^2, the potential ratio of the Liouville bound's proof."""
    return mpmath.coth(x) ** 2 - 1 / x**2


def test_liouville_potential_ratio_lies_between_two_thirds_and_one():
    # The proof in bounds.diameter_bound: phi <= 1 as sinh x >= x, and
    # phi >= 2/3 as x^2 sinh^2 x (phi - 2/3) equals, with y = 2x, a power
    # series with only nonnegative coefficients.
    def series(y):
        return mpmath.cosh(y) * (y**2 / 24 - mpmath.mpf(1) / 2) + 5 * y**2 / 24 + mpmath.mpf(1) / 2

    with mpmath.workdps(80):
        for e in np.linspace(-6.0, 2.0, 81):
            x = mpmath.mpf(10) ** mpmath.mpf(float(e))
            phi = _liouville_phi(x)
            assert mpmath.mpf(2) / 3 <= phi <= 1, (e, phi)
            product = x**2 * mpmath.sinh(x) ** 2 * (phi - mpmath.mpf(2) / 3)
            assert abs(product - series(2 * x)) <= mpmath.mpf(10) ** -20 * product
        taylor = mpmath.taylor(series, 0, 13)
        # The coefficient of y^(2m): 1/(24 (2m-2)!) - 1/(2 (2m)!), plus 1/2
        # at m = 0 and 5/24 at m = 1; zero up to m = 2, positive after.
        for m in range(40):
            c = Fraction(1, 24 * math.factorial(2 * m - 2)) if m >= 1 else Fraction(0)
            c += {0: Fraction(1, 2), 1: Fraction(5, 24)}.get(m, 0)
            c -= Fraction(1, 2 * math.factorial(2 * m))
            assert c == 0 if m <= 2 else c > 0, m
            if 2 * m + 1 < len(taylor):
                assert abs(taylor[2 * m] - mpmath.mpf(c.numerator) / c.denominator) < 1e-40
                assert abs(taylor[2 * m + 1]) < 1e-40


@st.composite
def liouville_keys(draw):
    """(n, kappa, r): n in {2, 4, 5, 6}, kappa < 0, kappa r^2 down to -36."""
    n = draw(st.sampled_from([2, 4, 5, 6]))
    r = draw(st.floats(0.05, 3.0))
    kappa_r2 = -draw(st.floats(1e-6, 36.0))
    return n, kappa_r2 / (r * r), r


@settings(max_examples=15, deadline=None)
@given(liouville_keys())
@example((2, -36.0, 1.0))
@example((6, -36.0, 1.0))
@example((4, -1e-6, 1.0))
def test_liouville_threshold_never_below_shooting_oracle(key):
    n, kappa, r = key
    route, lam, _ = _ball_threshold(n, kappa, r)
    assert route == "liouville"
    assert lam >= _shooting_or_reject(n, kappa, r) * (1 - 1e-9)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([2, 3, 4, 5, 10]),
    st.sampled_from([-1.0, 0.0, 1.0]),
    st.floats(0.05, 4.0),
    st.floats(0.05, 0.999),
    st.floats(0.2, 5.0),
)
@example(3, 1.0, 1.0, 0.99609375, 1.5)  # pi^2/r^2 - kappa cancels near the cap
def test_ball_threshold_scales_and_agrees_over_arrays(n, sign, size, u, c):
    # Lengths times c, curvature times c^-2: the threshold times c^-2, to
    # rounding, and exactly for a power of two.  The threshold is (q/r)^2
    # minus or plus c_n |kappa|, so its rounding is relative to the sum of
    # the two terms: near the antipodal cap the n = 3 difference cancels.
    # The value over an array of radii equals the value at each radius bit
    # for bit, which the breakpoint oracle's array pass relies on.
    kappa = sign * size
    r = u * (math.pi / math.sqrt(kappa) if kappa > 0 else 3.0)
    route, lam, _ = _ball_threshold(n, kappa, r)
    scaled_route, scaled, _ = _ball_threshold(n, kappa / (c * c), c * r)
    assert scaled_route == route
    assert abs(scaled - lam / (c * c)) <= 1e-14 * (scaled + abs(kappa) / (c * c))
    assert _ball_threshold(n, kappa / 4.0, 2.0 * r)[1] == lam / 4.0
    radii = np.array([0.5 * r, r, math.nextafter(r, 0.0)])
    assert _ball_threshold(n, kappa, radii)[1].tolist() == [
        _ball_threshold(n, kappa, float(x))[1] for x in radii
    ]


def _stepwise_top(n, kappa, r):
    """top(r) restated with _ball_threshold's float operations in their order."""
    _, q, c = _threshold_form(n, kappa)
    q = q / r
    flat = q * q
    lam = flat - c * kappa
    return lam + RHO_TOL_SCALE * (flat + c * abs(kappa))


@st.composite
def threshold_keys(draw):
    """(n, kappa, r): n from 2 to 7, kappa of each sign with |kappa| from
    1e-6 to 1e6, and r from 1e-300 up to CAP_SHRINK times the antipodal cap
    (the largest float when there is no cap)."""
    n = draw(st.integers(2, 7))
    kappa = draw(st.sampled_from([-1.0, 0.0, 1.0])) * 10.0 ** draw(st.floats(-6.0, 6.0))
    widest = min(dirichlet.CAP_SHRINK * bonnet_myers_cap(kappa), sys.float_info.max)
    return n, kappa, draw(st.one_of(st.floats(1e-300, widest), st.just(widest)))


@settings(max_examples=200, deadline=None)
@given(threshold_keys())
@example((3, 3.7, dirichlet.CAP_SHRINK * math.pi / math.sqrt(3.7)))  # the difference cancels
@example((3, -3.7, 0.5))
@example((2, 0.0, 1e-300))  # (q/r)^2 overflows
@example((7, -1e6, sys.float_info.max))
def test_per_search_threshold_is_ball_threshold_bit_for_bit(key):
    # The evaluator a search builds once per (n, kappa) gives the count
    # limit of _ball_threshold, and of its float operations taken step by
    # step, bit for bit at a radius and over an array of radii.
    n, kappa, r = key
    top = _threshold_top(n, kappa)
    assert top(r).hex() == _ball_threshold(n, kappa, r)[2].hex() == _stepwise_top(n, kappa, r).hex()
    assert top(r, True) == _ball_threshold(n, kappa, r)[1:]
    radii = np.array([r, 0.5 * r, math.nextafter(r, 0.0), 1e-300])
    with np.errstate(over="ignore"):
        bits = top(radii).view(np.int64).tolist()
        assert bits == _ball_threshold(n, kappa, radii)[2].view(np.int64).tolist()
    assert bits == [np.float64(_stepwise_top(n, kappa, float(x))).view(np.int64) for x in radii]


# ---------------------------------------------------------------------------
# The banded LAPACK/BLAS kernel against the reference Ritz kernel.


@settings(max_examples=60, deadline=None)
@given(ritz_keys())
def test_ritz_kernel_matches_reference_kernel(key):
    # Same mesh, quadrature, safe shift and start vector: only the steered
    # shift, the stop test and the linear-algebra calls differ, and both
    # converge to the same discrete ground state, so the quotients agree to
    # rounding.
    n, kappa, r = key
    s = kappa * r * r
    want, _ = reference_ritz_unit_ball(n, s)
    assert abs(_ritz_unit_ball(n, s) - want) <= 1e-13 * want


@settings(max_examples=60, deadline=None)
@given(ritz_keys())
@example((10, -1600.0, 1.0))
@example((10, (0.999 * math.pi) ** 2, 1.0))
def test_ritz_quadrature_error_stays_inside_the_rho_tolerance(key):
    # The returned value is the 6-point Gauss-Legendre quotient of the final
    # P2 iterate; only the exact quotient of a trial function bounds the
    # eigenvalue from above.  The 6-point value must not fall below the
    # 40-point quotient of the same discrete ground state by more than a
    # tenth of the relative tolerance RHO_TOL_SCALE the diameter bound
    # counts with.  Measured: at most about 3.5e-15 relative below over
    # these keys, and 2.8e-8 above at n = 10, kappa r^2 = -1600.
    n, kappa, r = key
    s = kappa * r * r
    _, iterate = reference_ritz_unit_ball(n, s)
    assert _ritz_unit_ball(n, s) >= ritz_quotient(n, s, iterate) * (1 - RHO_TOL_SCALE / 10)


@pytest.mark.parametrize(
    "n, s",
    [
        (10, (0.999 * math.pi) ** 2),
        (2, -1600.0),
        (10, -1600.0),
        (2, 1e-9),
        (2, -1e-9),
        (5, 1e-9),
        (5, -1e-9),
    ],
)
def test_ritz_kernel_matches_reference_at_extreme_keys(n, s):
    want, _ = reference_ritz_unit_ball(n, s)
    assert abs(_ritz_unit_ball(n, s) - want) <= 1e-10 * want


def _patch_linalg(monkeypatch, real, **routines):
    """Give the Ritz kernel the real LAPACK/BLAS routines with some replaced."""
    monkeypatch.setattr(dirichlet, "_linalg", lambda: real._replace(**routines))


def test_banded_kernel_failure_is_typed_and_skips_the_radius(monkeypatch):
    # A nonzero LAPACK info must surface as a ConvergenceError naming the
    # key, never as garbage or an untyped LinAlgError.  The diameter search
    # counts below closed forms and never reaches the kernel, so no radius
    # is skipped for it; the key is a loose torus one (kappa r^2 = -0.1875).
    n, kappa, r = 2, -0.75, 0.5
    sf = SpaceForm(n, kappa)
    real = dirichlet._linalg()
    pencils = []

    def spy(ab, **kw):
        pencils.append(np.array(ab))
        return real.pbtrf(ab, **kw)

    _patch_linalg(monkeypatch, real, pbtrf=spy)
    lowest_dirichlet_eigenvalue(sf, r)
    # The first pencil is the primary factorization; later ones only steer.
    bad_pencil = pencils[0]

    def failing(ab, **kw):
        if np.array_equal(ab, bad_pencil):
            return np.array(ab), 3
        return real.pbtrf(ab, **kw)

    _patch_linalg(monkeypatch, real, pbtrf=failing)
    key_text = f"kappa r^2 = {kappa * r * r!r}"
    with pytest.raises(ConvergenceError, match="pbtrf info 3") as err:
        lowest_dirichlet_eigenvalue(sf, r)
    assert key_text in str(err.value)

    _patch_linalg(monkeypatch, real, pbtrs=lambda chol, b, **kw: (b, -2))
    with pytest.raises(ConvergenceError, match="pbtrs info -2"):
        lowest_dirichlet_eigenvalue(sf, r)


def test_ritz_iteration_budget(monkeypatch, capsys):
    # The steered shift converges in about 6 inverse iterations on the keys
    # it serves: the curved eigenvalues across 64-radius grids for the
    # loose tori at kappa < 0, and `orbispec eig-ball` at kappa > 0.  It
    # stays cheap at a large hyperbolic key in high dimension, where the
    # safe McKean shift alone took 143.
    from orbispec import cli

    keys = []
    real_ritz = dirichlet._ritz_unit_ball

    def record(n, kappa):
        keys.append((n, kappa))
        return real_ritz(n, kappa)

    monkeypatch.setattr(dirichlet, "_ritz_unit_ball", record)
    for model_id in ("t2", "pillowcase", "t2-mod-4"):
        model = catalog_model(model_id)
        for r in log_radius_grid(2, -0.75, model.volume):
            _eigenvalue(2, -0.75, r)
    searched = len(keys)
    for n, kappa, r in ((2, 1.0, 1.5), (4, 1.0, 2.0), (5, 0.25, 3.0), (2, 4.0, 1.2)):
        argv = ["eig-ball", "--n", str(n), "--kappa", str(kappa), "--r", str(r)]
        assert cli.main(argv) == 0
    capsys.readouterr()
    monkeypatch.setattr(dirichlet, "_ritz_unit_ball", real_ritz)
    assert searched >= 20 and len(keys) == searched + 4
    assert all(s < 0 for _, s in keys[:searched]) and all(s > 0 for _, s in keys[searched:])

    # One banded solve per inverse iteration.
    calls = [0]
    real = dirichlet._linalg()

    def count(chol, b, **kw):
        calls[0] += 1
        return real.pbtrs(chol, b, **kw)

    _patch_linalg(monkeypatch, real, pbtrs=count)
    for n, s in keys:
        _ritz_unit_ball(n, s)
    assert calls[0] / len(keys) <= 8.0, calls[0] / len(keys)

    calls[0] = 0
    _ritz_unit_ball(10, -1600.0)
    assert calls[0] <= 50, calls[0]


@pytest.mark.parametrize("n, s", [(2, 1.3), (4, -30.0), (5, 9.0), (10, -1600.0)])
def test_failed_steering_keeps_the_safe_shift(monkeypatch, n, s):
    # Every factorization after the primary one fails: the solve keeps the
    # safe shift, does not raise, and still reaches the reference value.
    real = dirichlet._linalg()
    calls = [0]

    def first_only(ab, **kw):
        calls[0] += 1
        if calls[0] > 1:
            return np.array(ab), 1
        return real.pbtrf(ab, **kw)

    _patch_linalg(monkeypatch, real, pbtrf=first_only)
    got = _ritz_unit_ball(n, s)
    assert calls[0] > 1, "no steering factorization was tried"
    want, _ = reference_ritz_unit_ball(n, s)
    assert abs(got - want) <= 1e-10 * want
