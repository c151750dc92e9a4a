"""Constant-curvature model geometry.

Everything downstream (eigenvalue comparison, volume caps, hinge
comparison) reduces to a handful of quantities in the simply connected
model space of dimension n and curvature kappa: the generalized sine
controlling the volume density, geodesic ball and cone volumes, the
measure of the bad directions between two touching caps on the unit
direction sphere, and the side a hinge closes up to.  All three curvature
signs share one code path with a series branch near kappa = 0 so nothing
jumps when curvature crosses zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.special import betainc, betaincc

from .errors import DomainError

# Switch to the truncated power series once |kappa| * r^2 drops below this;
# the trig/hyperbolic branches lose digits to cancellation there.
NEAR_FLAT = 1e-8
# Tolerated overshoot when clamping arccos/arccosh arguments.
ACOS_DRIFT = 1e-12


@dataclass(frozen=True)
class SpaceForm:
    """Simply connected model space: dimension ``n`` and curvature ``kappa``."""

    n: int
    kappa: float

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 2:
            raise DomainError(f"model dimension must be an integer >= 2, got {self.n!r}")
        if not math.isfinite(self.kappa):
            raise DomainError(f"curvature must be finite, got {self.kappa!r}")


def bonnet_myers_cap(kappa: float) -> float:
    """Largest possible diameter under curvature >= kappa: pi/sqrt(kappa), else infinity."""
    if kappa > 0:
        return math.pi / math.sqrt(kappa)
    return math.inf


def _check_radius(kappa: float, r, what: str = "radius"):
    rr = np.asarray(r, dtype=float)
    if np.any(~np.isfinite(rr)) or np.any(rr < 0):
        raise DomainError(f"{what} must be finite and nonnegative, got {r!r}")
    if kappa > 0:
        cap = bonnet_myers_cap(kappa)
        if np.any(rr > cap * (1.0 + ACOS_DRIFT)):
            raise DomainError(
                f"{what} {np.max(rr):.9g} exceeds the antipodal cap pi/sqrt(kappa) = {cap:.9g}"
            )
    return rr


def generalized_sin(kappa: float, r):
    """sin-like radial function of the curvature-kappa model space.

    Equals sin(sqrt(k)*r)/sqrt(k) for k > 0, r for k = 0, and
    sinh(sqrt(-k)*r)/sqrt(-k) for k < 0; the volume density of the model
    space is this function to the power n-1.  A truncated series is used
    when |k|*r^2 < 1e-8 so the branches meet continuously at k = 0.

    Accepts scalar or array ``r``.
    """
    rr = _check_radius(kappa, r)
    if kappa == 0.0:
        out = rr
    else:
        x2 = kappa * rr * rr
        series = rr * (1.0 - x2 / 6.0 * (1.0 - x2 / 20.0))
        s = math.sqrt(abs(kappa))
        if kappa > 0:
            exact = np.sin(s * rr) / s
        else:
            exact = np.sinh(s * rr) / s
        out = np.where(np.abs(x2) < NEAR_FLAT, series, exact)
    if np.ndim(r) == 0:
        return float(out)
    return out


def sphere_measure(d: int) -> float:
    """Total measure of the unit d-sphere: 2*pi^((d+1)/2) / Gamma((d+1)/2)."""
    if not isinstance(d, int) or d < 0:
        raise DomainError(f"sphere dimension must be an integer >= 0, got {d!r}")
    return 2.0 * math.pi ** ((d + 1) / 2.0) / math.gamma((d + 1) / 2.0)


def unit_ball_volume(n: int) -> float:
    """Volume of the Euclidean unit n-ball: pi^(n/2) / Gamma(n/2 + 1)."""
    if not isinstance(n, int) or n < 1:
        raise DomainError(f"ball dimension must be an integer >= 1, got {n!r}")
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def ball_volume_quadrature(sf: SpaceForm, r: float) -> float:
    """Reference integrator for the geodesic ball volume (any dimension).

    sphere_measure(n-1) * integral_0^r generalized_sin(kappa, t)^(n-1) dt,
    by adaptive quadrature at ~1e-12 relative accuracy.
    """
    _check_radius(sf.kappa, r)
    if r == 0.0:
        return 0.0
    n, kappa = sf.n, sf.kappa
    val, _ = integrate.quad(
        lambda t: generalized_sin(kappa, t) ** (n - 1),
        0.0,
        r,
        epsabs=1e-13,
        epsrel=1e-12,
        limit=200,
    )
    return sphere_measure(n - 1) * val


def ball_volume(sf: SpaceForm, r: float) -> float:
    """Volume of the geodesic r-ball in the model space.

    Closed forms in dimensions 2 and 3 (written via half-angle squares so
    nothing cancels for small curvature*r^2); adaptive quadrature of the
    volume density otherwise.  Strictly increasing in r up to the antipodal
    cap for kappa > 0.
    """
    _check_radius(sf.kappa, r)
    if r == 0.0:
        return 0.0
    n, k = sf.n, sf.kappa
    if n == 2:
        if k == 0.0:
            return math.pi * r * r
        if k > 0:
            return 4.0 * math.pi / k * math.sin(0.5 * math.sqrt(k) * r) ** 2
        return 4.0 * math.pi / (-k) * math.sinh(0.5 * math.sqrt(-k) * r) ** 2
    if n == 3 and k != 0.0 and abs(k) * r * r >= 1e-4:
        s = math.sqrt(abs(k))
        if k > 0:
            return 2.0 * math.pi / k * (r - math.sin(2.0 * s * r) / (2.0 * s))
        return 2.0 * math.pi / (-k) * (math.sinh(2.0 * s * r) / (2.0 * s) - r)
    if n == 3 and k == 0.0:
        return 4.0 * math.pi * r ** 3 / 3.0
    return ball_volume_quadrature(sf, r)


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
    if not isinstance(d, int) or d < 1:
        raise DomainError(f"sphere dimension must be an integer >= 1, got {d!r}")
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


def law_of_cosines_side(kappa: float, a, b, gamma):
    """Side opposite the angle gamma in a geodesic hinge with sides a and b.

    Spherical / Euclidean / hyperbolic law of cosines in one function,
    continuous across kappa = 0: when |kappa|*(a+b)^2 < 1e-8 the curvature
    correction is applied as a series on top of the Euclidean side, which
    avoids the arccos cancellation.  Out-of-range arccos/arccosh arguments
    within 1e-12 are clamped.  Accepts scalar or array ``a``/``b``/``gamma``.
    """
    aa = _check_radius(kappa, a, "side a")
    bb = _check_radius(kappa, b, "side b")
    gg = np.asarray(gamma, dtype=float)
    if np.any(gg < -ACOS_DRIFT) or np.any(gg > math.pi + ACOS_DRIFT):
        raise DomainError(f"hinge angle must lie in [0, pi], got {gamma!r}")
    gg = np.clip(gg, 0.0, math.pi)

    cos_g = np.cos(gg)
    c0sq = np.maximum(aa * aa + bb * bb - 2.0 * aa * bb * cos_g, 0.0)
    if kappa == 0.0:
        out = np.sqrt(c0sq)
    else:
        # Series: c^2 = c0^2 - 2*kappa*E + O(kappa^2), E the quartic hinge form.
        E = (
            (aa ** 4 + bb ** 4) / 24.0
            + aa * aa * bb * bb / 4.0
            - aa * bb * (aa * aa + bb * bb) * cos_g / 6.0
            - c0sq * c0sq / 24.0
        )
        series = np.sqrt(np.maximum(c0sq - 2.0 * kappa * E, 0.0))
        s = math.sqrt(abs(kappa))
        if kappa > 0:
            arg = np.cos(s * aa) * np.cos(s * bb) + np.sin(s * aa) * np.sin(s * bb) * cos_g
            arg = np.clip(arg, -1.0, 1.0)
            exact = np.arccos(arg) / s
        else:
            arg = np.cosh(s * aa) * np.cosh(s * bb) - np.sinh(s * aa) * np.sinh(s * bb) * cos_g
            arg = np.maximum(arg, 1.0)
            exact = np.arccosh(arg) / s
        near_flat = np.abs(kappa) * (aa + bb) ** 2 < NEAR_FLAT
        out = np.where(near_flat, series, exact)
    if np.ndim(a) == 0 and np.ndim(b) == 0 and np.ndim(gamma) == 0:
        return float(out)
    return out
