"""Constant-curvature model geometry.

Everything downstream (eigenvalue comparison, volume caps, hinge
comparison) reduces to a handful of quantities in the simply connected
model space of dimension n and curvature kappa: the generalized sine
controlling the volume density, geodesic ball and cone volumes, and the
measure of the bad directions between two touching caps on the unit
direction sphere.  All three curvature signs share one code path with a
series branch near kappa = 0 so nothing jumps when curvature crosses zero.
The few quantities without a closed form are one-dimensional roots, found
by newton_bracket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc, betaincc, hyp2f1

from .errors import ConvergenceError, DomainError, _count

# Switch to the truncated power series once |kappa| * r^2 drops below this;
# the trig/hyperbolic branches lose digits to cancellation there.
NEAR_FLAT = 1e-8
# Tolerated overshoot when clamping arccos/arccosh arguments.
ACOS_DRIFT = 1e-12
# Probes newton_bracket may spend before it gives up on a bracket.
ROOT_MAX_PROBES = 200


@dataclass(frozen=True)
class SpaceForm:
    """Simply connected model space: dimension ``n`` and curvature ``kappa``.

    ``n`` is stored as a plain int; numpy integers are accepted.
    """

    n: int
    kappa: float

    def __post_init__(self):
        object.__setattr__(self, "n", _count(self.n, "model dimension", 2))
        _check_curvature(self.kappa)


def _check_curvature(kappa: float) -> None:
    """The curvature rule: kappa must be finite."""
    if not math.isfinite(kappa):
        raise DomainError(f"curvature must be finite, got {kappa!r}")


def bonnet_myers_cap(kappa: float) -> float:
    """Largest possible diameter under curvature >= kappa: pi/sqrt(kappa), else infinity."""
    if kappa > 0:
        return math.pi / math.sqrt(kappa)
    return math.inf


def _check_radius(kappa: float, r, what: str = "radius"):
    """r as a float array, after one min/max pass (NaN fails both comparisons).

    The error names the offending value, so a scalar and an array holding
    it raise the same message.
    """
    rr = np.asarray(r, dtype=float)
    lo, hi = rr.min(initial=math.inf), rr.max(initial=-math.inf)
    if not (lo >= 0.0 and hi < math.inf):
        bad = hi if lo >= 0.0 else lo
        raise DomainError(f"{what} must be finite and nonnegative, got {float(bad)!r}")
    cap = bonnet_myers_cap(kappa)
    if hi > cap * (1.0 + ACOS_DRIFT):
        raise DomainError(f"{what} {hi:.9g} exceeds the antipodal cap pi/sqrt(kappa) = {cap:.9g}")
    return rr, lo


def generalized_sin(kappa: float, r):
    """sin-like radial function of the curvature-kappa model space.

    Equals sin(sqrt(k)*r)/sqrt(k) for k > 0, r for k = 0, and
    sinh(sqrt(-k)*r)/sqrt(-k) for k < 0; the volume density of the model
    space is this function to the power n-1.  A truncated series is used
    when |k|*r^2 < 1e-8 so the branches meet continuously at k = 0.

    Accepts scalar or array ``r``.
    """
    rr, lo = _check_radius(kappa, r)
    out = _generalized_sin(kappa, rr, lo)
    if np.ndim(r) == 0:
        return float(out)
    return out


def _generalized_sin(kappa: float, rr, lo: float):
    """generalized_sin of a checked radius rr whose smallest value is lo."""
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
    return out


def newton_bracket(probe, lo: float, hi: float, x: float) -> tuple[float, float]:
    """Shrink the bracket [lo, hi] of a sign change to two adjacent floats.

    probe(x) returns (left, step): whether x lies left of the sign change,
    and the Newton step from x.  The next probe is x + step when that moves
    toward the other end and stays strictly inside the bracket, the midpoint
    when it leaves the bracket, and the neighbouring float toward the other
    end when the step is zero or points back.  So Newton converges to within
    rounding and the last probes close the bracket one float at a time.
    The ends passed in are taken on trust; the returned lo was probed left
    and hi right, unless one of them is still a passed-in end.
    """
    for _ in range(ROOT_MAX_PROBES):
        left, step = probe(x)
        if left:
            lo = x
        else:
            hi = x
        if not math.nextafter(lo, hi) < hi:
            return lo, hi
        nxt = x + step
        if not (nxt > x if left else nxt < x):
            nxt = math.nextafter(x, hi if left else lo)
        elif not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
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
    """Volume of the geodesic r-ball in the model space, in closed form.

    Flat: omega_n r^n, omega_n the unit-ball volume.  n = 2, and n = 3 once
    |kappa| r^2 >= 1: elementary forms (below 1 the n = 3 one cancels, to
    about 3e-12 relative at 1e-4).  Otherwise, with sn = generalized_sin(r),

        omega_n sn^n 2F1(1/2, n/2; n/2 + 1; kappa sn^2),

    which is sinh^n(x)/n 2F1(1/2, n/2; n/2 + 1; -sinh^2 x) up to the factor
    sphere_measure(n-1) |kappa|^(-n/2) for kappa < 0, and the same multiple
    of the incomplete beta (1/2) B(n/2, 1/2) I_{sin^2 x}(n/2, 1/2) for
    kappa > 0 (x = sqrt(|kappa|) r).  Scaling by sn keeps it free of under-
    and overflow as kappa r^2 -> 0.  For kappa > 0 past x = pi/4 the
    incomplete beta is reflected into cos^2 x, which keeps its digits
    through pi/2 up to the antipodal cap, where it gives the whole sphere.
    Strictly increasing in r up to the antipodal cap for kappa > 0.  A volume
    past every float (a large hyperbolic ball) is a DomainError.
    """
    rr, lo = _check_radius(sf.kappa, r)
    if r == 0.0:
        return 0.0
    try:
        vol = _ball_volume(sf.n, sf.kappa, r, rr, lo)
    except OverflowError:
        vol = math.inf
    if not math.isfinite(vol):
        raise DomainError(f"the volume of the r = {r!r} ball at kappa = {sf.kappa!r} overflows")
    return vol


def _ball_volume(n: int, k: float, r: float, rr, lo: float) -> float:
    """ball_volume of a checked radius r > 0, as rr and its smallest value lo."""
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
    if k > 0 and math.sqrt(k) * r > 0.25 * math.pi:
        c = math.cos(math.sqrt(k) * r)
        fraction = 1.0 - math.copysign(float(betainc(0.5, 0.5 * n, c * c)), c)
        return 0.5 * sphere_measure(n) * k ** (-0.5 * n) * fraction
    sn = float(_generalized_sin(k, rr, lo))
    return unit_ball_volume(n) * sn**n * float(hyp2f1(0.5, 0.5 * n, 0.5 * n + 1.0, k * sn * sn))


def linked_complement_measure(d: int, alpha: float) -> float:
    """Measure of the directions on S^d at angle >= pi/2 - alpha from both of
    two reference directions that sit pi - 2*alpha apart.

    The two caps of angular radius pi/2 - alpha touch, so the complement is
    the band within alpha of the great sphere midway between the centres:
    sphere_measure(d) * I_{sin^2 alpha}(1/2, d/2), with I the regularized
    incomplete beta (4*alpha on S^1, 4*pi*sin(alpha) on S^2).  Above pi/4
    the reflection I_x(a, b) = 1 - I_{1-x}(b, a) evaluates it in cos^2 alpha,
    which keeps the digits that sin^2 alpha rounds away near pi/2.
    """
    d = _count(d, "sphere dimension", 1)
    if not (-ACOS_DRIFT <= alpha <= 0.5 * math.pi + ACOS_DRIFT):
        raise DomainError(f"alpha must lie in [0, pi/2], got {alpha!r}")
    alpha = min(max(alpha, 0.0), 0.5 * math.pi)
    if alpha <= 0.25 * math.pi:
        fraction = betainc(0.5, 0.5 * d, math.sin(alpha) ** 2)
    else:
        fraction = betaincc(0.5 * d, 0.5, math.cos(alpha) ** 2)
    return sphere_measure(d) * float(fraction)


def cone_volume(sf: SpaceForm, r: float, direction_measure: float) -> float:
    """Volume of the geodesic cone of radius r over a direction set of the
    given measure on the unit (n-1)-sphere: ball volume scaled by the
    direction fraction."""
    omega = sphere_measure(sf.n - 1)
    if not (0.0 <= direction_measure <= omega * (1.0 + ACOS_DRIFT)):
        raise DomainError(
            f"direction measure must lie in [0, {omega:.9g}], got {direction_measure!r}"
        )
    return ball_volume(sf, r) * min(direction_measure, omega) / omega
