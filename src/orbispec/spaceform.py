"""Constant-curvature model geometry.

Everything downstream (eigenvalue comparison, volume caps, hinge
comparison) reduces to a handful of quantities in the simply connected
model space of dimension n and curvature kappa: the generalized sine
controlling the volume density, geodesic ball and cone volumes, and the
measure of the bad directions between two touching caps on the unit
direction sphere.  The volumes and the measure are integrals of sin^m,
sinh^m and cos^m, which _power_integral evaluates in elementary terms; the
generalized sine takes a series branch near kappa = 0 so nothing jumps
when curvature crosses zero.  The few quantities without a closed form are
one-dimensional roots, found by newton_bracket.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, _count, _real

# Switch to the truncated power series once |kappa| * r^2 drops below this;
# the trig/hyperbolic branches lose digits to cancellation there.
NEAR_FLAT = 1e-8
# Tolerated overshoot when clamping arccos/arccosh arguments.
ACOS_DRIFT = 1e-12
# Probes newton_bracket may spend before it gives up on a bracket.
ROOT_MAX_PROBES = 200
# _power_integral's series stop once a term falls to this share of the sum;
# their ratios stay at most 1/2, so the tail is at most the last term.
SERIES_TOL = 2.0**-54
# _power_integral sums its series at most up to these angles sqrt|kappa| r
# (sin^2 = 1/2, sinh^2 = 1), where their ratios reach 1/2, and takes the
# two-term recursion past them, or sooner: each of its m // 2 steps scales
# the rounding error by about 1/x^2, so it starts once x^(2 (m // 2))
# reaches RECURSION_REACH (see _series_switch).
SERIES_SWITCH = {1: 0.25 * math.pi, -1: math.asinh(1.0)}
RECURSION_REACH = 1.0 / 16.0


@dataclass(frozen=True)
class SpaceForm:
    """Simply connected model space: dimension ``n`` and curvature ``kappa``.

    ``n`` is stored as a plain int and ``kappa`` as a float; numpy scalars pass.
    """

    n: int
    kappa: float

    def __post_init__(self):
        object.__setattr__(self, "n", _count(self.n, "model dimension", 2))
        object.__setattr__(self, "kappa", _check_curvature(self.kappa))


def _check_curvature(kappa) -> float:
    """The curvature rule: kappa as a float, a finite real number (errors._real)."""
    kappa = _real(kappa, "curvature")
    if not math.isfinite(kappa):
        raise DomainError(f"curvature must be finite, got {kappa!r}")
    return kappa


def bonnet_myers_cap(kappa: float) -> float:
    """Largest possible diameter under curvature >= kappa: pi/sqrt(kappa)
    rounded outward, else infinity.  kappa is held to the curvature rule.
    The factor 1 + 2^-50 covers the roundings of math.pi, the root, the
    quotient and the product, so the float is at or above the true cap."""
    kappa = _check_curvature(kappa)
    if kappa > 0:
        return math.pi / math.sqrt(kappa) * (1.0 + 2.0**-50)
    return math.inf


def _check_radius(kappa: float, r, what: str = "radius"):
    """r as a float array, after one min/max pass, and its least entry; a
    scalar r must be a real number (errors._real).

    The error names the offending value, so a scalar and an array holding
    it raise the same message.
    """
    if np.ndim(r) == 0 and not isinstance(r, np.ndarray):
        r = _real(r, what)
    rr = np.asarray(r, dtype=float)
    lo, hi = rr.min(initial=math.inf), rr.max(initial=-math.inf)
    _check_extent(kappa, float(lo), float(hi), what)
    return rr, lo


def _check_extent(kappa: float, lo: float, hi: float, what: str = "radius") -> None:
    """The radius rule for radii from lo to hi: finite, nonnegative and at
    most the antipodal cap (NaN fails both comparisons)."""
    if not (lo >= 0.0 and hi < math.inf):
        bad = hi if lo >= 0.0 else lo
        raise DomainError(f"{what} must be finite and nonnegative, got {bad!r}")
    cap = bonnet_myers_cap(kappa)
    if hi > cap * (1.0 + ACOS_DRIFT):
        raise DomainError(f"{what} {hi:.9g} exceeds the antipodal cap pi/sqrt(kappa) = {cap:.9g}")


def generalized_sin(kappa: float, r):
    """sin-like radial function of the curvature-kappa model space.

    Equals sin(sqrt(k)*r)/sqrt(k) for k > 0, r for k = 0, and
    sinh(sqrt(-k)*r)/sqrt(-k) for k < 0; the volume density of the model
    space is this function to the power n-1.  A truncated series is used
    when |k|*r^2 < 1e-8 so the branches meet continuously at k = 0.

    Accepts scalar or array ``r``.
    """
    rr, lo = _check_radius(kappa, r)
    if kappa == 0.0:
        out = rr
    else:
        s = math.sqrt(abs(kappa))
        if kappa > 0:
            out = np.sin(s * rr) / s
        else:
            out = np.sinh(s * rr) / s
        # |kappa| r^2 rounds monotonically in r, so the smallest radius
        # decides whether any point takes the series.
        if abs(kappa) * lo * lo < NEAR_FLAT:
            x2 = kappa * rr * rr
            series = rr * (1.0 - x2 / 6.0 * (1.0 - x2 / 20.0))
            out = np.where(np.abs(x2) < NEAR_FLAT, series, out)
    if np.ndim(r) == 0:
        return float(out)
    return out


def _bits(x: float) -> int:
    """An integer key per float, ordered as the floats and 1 apart between
    neighbours: the bit pattern as a signed integer, low 63 bits flipped if negative."""
    b = struct.unpack("<q", struct.pack("<d", x))[0]
    return b ^ (b >> 63 & 0x7FFFFFFFFFFFFFFF)


def _from_bits(key: int) -> float:
    """The float whose _bits key is key (the flip undoes itself)."""
    return struct.unpack("<d", struct.pack("<q", key ^ (key >> 63 & 0x7FFFFFFFFFFFFFFF)))[0]


def newton_bracket(probe, lo: float, hi: float, x: float) -> tuple[float, float]:
    """Shrink the bracket [lo, hi] of a sign change to two adjacent floats.

    probe(x) returns (left, step): whether x lies left of the sign change,
    and the Newton step from x.  The next probe is x + step when that moves
    toward the other end and stays strictly inside the bracket, and the
    midpoint 0.5 lo + 0.5 hi (which cannot overflow) when it leaves the
    bracket at a finite float.  A step that is zero, points back or lands
    on no finite float gallops toward the other end instead: 1 float, then
    2, 4, ... floats on the _bits keys while such steps repeat, never past
    the bracket's middle float.  So Newton converges to within rounding
    and the last probes close the bracket.  With zero steps the probes are
    an exponential search and a bisection on the floats: about 2 log2(k)
    from a start k floats off, or across k floats flat to rounding, and at
    most about 130.  The ends passed in are taken on trust; the returned lo
    was probed left and hi right, unless one of them is still a passed-in end.
    """
    stride = 1
    for _ in range(ROOT_MAX_PROBES):
        left, step = probe(x)
        if left:
            lo = x
        else:
            hi = x
        if not math.nextafter(lo, hi) < hi:
            return lo, hi
        nxt = x + step
        if x < nxt < math.inf if left else -math.inf < nxt < x:
            stride = 1
            if not lo < nxt < hi:
                nxt = 0.5 * lo + 0.5 * hi
        elif stride == 1:
            nxt, stride = math.nextafter(x, hi if left else lo), 2
        else:
            key, middle = _bits(x), (_bits(lo) + _bits(hi)) // 2
            nxt = _from_bits(min(key + stride, middle) if left else max(key - stride, middle))
            stride *= 2
        x = nxt
    raise ConvergenceError(f"no adjacent-float bracket after {ROOT_MAX_PROBES} probes")


def sphere_measure(d: int) -> float:
    """Total measure of the unit d-sphere: 2*pi^((d+1)/2) / Gamma((d+1)/2)."""
    d = _count(d, "sphere dimension", 0)
    return 2.0 * math.pi ** ((d + 1) / 2.0) / math.gamma((d + 1) / 2.0)


def unit_ball_volume(n: int) -> float:
    """Volume of the Euclidean unit n-ball: pi^(n/2) / Gamma(n/2 + 1)."""
    n = _count(n, "ball dimension", 1)
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def ball_volume(sf: SpaceForm, r: float) -> float:
    """Volume of the geodesic r-ball in the model space, in elementary terms.

    Flat: omega_n r^n, omega_n the unit-ball volume.  Curved:
    sphere_measure(n-1) times the integral of sn^(n-1) over [0, r], sn the
    generalized sine, which _power_integral evaluates: a positive series
    scaled by sn^n near the centre, so nothing under- or overflows as
    kappa r^2 -> 0, and a two-term recursion past it.  n = 2, and n = 3 once
    |kappa| r^2 >= 1, keep their closed forms, the m = 1 and m = 2 cases of
    that recursion (below 1 the n = 3 form cancels, to about 3e-12 relative
    at 1e-4).  For kappa > 0 the ball grows up to the antipodal cap, where
    it is the whole sphere.  A volume past every float (a large hyperbolic
    ball) is a DomainError.
    """
    r = _real(r, "radius")
    _check_extent(sf.kappa, r, r)
    if r == 0.0:
        return 0.0
    try:
        vol = _ball_volume(sf.n, sf.kappa, r)
    except OverflowError:
        vol = math.inf
    if not math.isfinite(vol):
        raise DomainError(f"the volume of the r = {r!r} ball at kappa = {sf.kappa!r} overflows")
    return vol


def _ball_volume(n: int, k: float, r: float) -> float:
    """ball_volume of a checked radius r > 0."""
    if k == 0.0:
        return unit_ball_volume(n) * r**n
    if n == 2:
        if k > 0:
            return 4.0 * math.pi / k * math.sin(0.5 * math.sqrt(k) * r) ** 2
        return 4.0 * math.pi / (-k) * math.sinh(0.5 * math.sqrt(-k) * r) ** 2
    if n == 3 and abs(k) * r * r >= 1.0:
        s = math.sqrt(abs(k))
        if k > 0:
            return 2.0 * math.pi / k * (r - math.sin(2.0 * s * r) / (2.0 * s))
        return 2.0 * math.pi / (-k) * (math.sinh(2.0 * s * r) / (2.0 * s) - r)
    return sphere_measure(n - 1) * _power_integral(n - 1, k, r)


def _series_switch(m: int, sign: int) -> float:
    """The angle sqrt|kappa| r up to which _power_integral sums its series
    for sn^m, with sign that of kappa: 0 for m <= 1, which the recursion
    gives with no step."""
    steps = m // 2
    return min(SERIES_SWITCH[sign], RECURSION_REACH ** (0.5 / steps)) if steps else 0.0


def _power_integral(m: int, kappa: float, r: float, cosine: bool = False) -> float:
    """Integral over [0, r] of sn^m, or of cn^m when cosine, for m >= 0 and
    kappa != 0 (cosine needs kappa > 0).

    sn and cn = sn' are the generalized sine and cosine: with s =
    sqrt|kappa| and x = s r, the integral is s^-(m+1) times that of sin^m,
    sinh^m or cos^m over [0, x].  The branches:

    * cos^m: I_m = ((m-1) I_(m-2) + cn^(m-1) sn) / m from I_0 = r and
      I_1 = sn, every term nonnegative up to x = pi/2.
    * sin^m up to the switch (at most x = pi/4): sn^(m+1) sum_k (1/2)_k /
      k! z^k / (m+1+2k) with z = kappa sn^2 = sin^2 x <= 1/2, the series of
      2F1(1/2, (m+1)/2; (m+3)/2; z), every term positive.
    * sinh^m up to the switch (at most sinh^2 x = 1): the same 2F1 at
      z = -sinh^2 x, rewritten by Pfaff's transformation into
      sn^(m+1) / ((m+1) cn) times sum_k (1/2)_k / ((m+3)/2)_k t^k,
      t = z/(z-1) = tanh^2 x <= 1/2, every term positive.
    * past the switch (_series_switch): I_m = ((m-1) I_(m-2) -
      sn^(m-1) cn) / (m kappa) from I_0 = r and I_1 = 2 sn(r/2)^2, both
      free of cancellation.  Past x = pi/2 every sin^m term is
      nonnegative; below it, and for sinh^m, the subtracted term cancels
      part of the kept one, and each step scales the error by about
      1/x^2 for small x.  So the switch depends on m: from 0 for m <= 1
      (no step) through x = 1/4 for m = 2, 3 and 1/2 for m = 4, 5 to the
      series' limits.  Against 40-digit values the result stays within
      4e-14 relative for m <= 11 (the hyperbolic error grows like x ulps,
      the conditioning of sinh itself), and the series needs at most 47
      terms, 13 for m = 2, 3.

    The series ratios stay at most 1/2, so stopping at SERIES_TOL leaves a
    tail below the last term.
    """
    s = math.sqrt(abs(kappa))
    x = s * r
    if cosine:
        sn = math.sin(x) / s
        g, h, k, first = math.cos(x), sn, 1.0, sn
    elif kappa > 0:
        sn = math.sin(x) / s
        if x <= _series_switch(m, 1):
            z = kappa * sn * sn
            total = term = 1.0 / (m + 1)
            a, j = 1.0, 0
            while term > SERIES_TOL * total:
                a *= (j + 0.5) / (j + 1.0) * z
                j += 1
                term = a / (m + 1 + 2 * j)
                total += term
            return sn ** (m + 1) * total
        half = math.sin(0.5 * x) / s
        g, h, k, first = sn, -math.cos(x), kappa, 2.0 * half * half
    else:
        sn = math.sinh(x) / s
        if x <= _series_switch(m, -1):
            t = math.tanh(x) ** 2
            total = term = 1.0
            c, j = 0.5 * (m + 3), 0
            while term > SERIES_TOL * total:
                term *= (j + 0.5) / (j + c) * t
                j += 1
                total += term
            return sn ** (m + 1) / ((m + 1) * math.cosh(x)) * total
        half = math.sinh(0.5 * x) / s
        g, h, k, first = sn, -math.cosh(x), kappa, 2.0 * half * half
    # Both recursions read I_j = ((j-1) I_(j-2) + h g^(j-1)) / (j k), with
    # g the integrand's base and (h, k) = (sn, 1) or (-cn, kappa).
    val, j = (first, 1) if m % 2 else (r, 0)
    while j < m:
        j += 2
        val = ((j - 1) * val + h * g ** (j - 1)) / (j * k)
    return val


def linked_complement_measure(d: int, alpha: float) -> float:
    """Measure of the directions on S^d at angle >= pi/2 - alpha from both of
    two reference directions that sit pi - 2*alpha apart.

    The two caps of angular radius pi/2 - alpha touch, so the complement is
    the band within alpha of the great sphere midway between the centres:
    2 sphere_measure(d-1) times the integral of cos^(d-1) over [0, alpha]
    (4*alpha on S^1, 4*pi*sin(alpha) on S^2), whose recursion in
    _power_integral has only nonnegative terms, so nothing cancels up to
    pi/2.
    """
    d = _count(d, "sphere dimension", 1)
    alpha = _real(alpha, "alpha")
    if not (-ACOS_DRIFT <= alpha <= 0.5 * math.pi + ACOS_DRIFT):
        raise DomainError(f"alpha must lie in [0, pi/2], got {alpha!r}")
    alpha = min(max(alpha, 0.0), 0.5 * math.pi)
    return _linked_complement(2.0 * sphere_measure(d - 1), d, alpha)


def _linked_complement(rate: float, d: int, alpha: float) -> float:
    """linked_complement_measure of a checked d and an alpha in [0, pi/2],
    with rate = 2 sphere_measure(d-1) computed once by the caller."""
    return rate * _power_integral(d - 1, 1.0, alpha, cosine=True)


def cone_volume(sf: SpaceForm, r: float, direction_measure: float) -> float:
    """Volume of the geodesic cone of radius r over a direction set of the
    given measure on the unit (n-1)-sphere: ball volume scaled by the
    direction fraction."""
    omega = sphere_measure(sf.n - 1)
    share = _direction_share(_real(direction_measure, "direction measure"), omega)
    return ball_volume(sf, r) * share / omega


def _direction_share(direction_measure: float, omega: float) -> float:
    """min(direction_measure, omega) once the measure lies in [0, omega], up
    to the drift; cone_volume is a ball volume times this over omega."""
    if not (0.0 <= direction_measure <= omega * (1.0 + ACOS_DRIFT)):
        raise DomainError(
            f"direction measure must lie in [0, {omega:.9g}], got {direction_measure!r}"
        )
    return min(direction_measure, omega)
