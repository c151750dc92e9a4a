"""Spectral-to-geometric bound pipelines.

From a truncated Laplace spectrum and a curvature lower bound kappa this
module certifies, in order: an upper bound on the diameter (disjoint balls
of radius r at distance 2r along a segment force small Dirichlet
eigenvalues into the spectrum, so the eigenvalue count below the r-ball
threshold caps the number of balls); an upper bound on every isotropy
order (volume comparison of the orbifold against the curvature-model ball
of diameter size); and an upper bound on the number of isolated singular
points (singular points repel each other by a certified separation radius,
so a packing argument counts them).  The diameter bound counts below a
closed-form upper bound on the model ball's lowest Dirichlet eigenvalue at
every curvature, with no Rayleigh-Ritz solve: the flat Bessel value when
kappa > 0 (Cheng's comparison between the model spaces), the exact forms
at kappa = 0 and n = 3, and a Liouville trial-function bound when
kappa < 0 (proofs in diameter_bound).  Each is (q/r)^2 - c kappa, strictly
decreasing and invertible in r, so the smallest bound over every
admissible radius sits at one of the breakpoints of the eigenvalue count,
one per distinct eigenvalue: the search resolves in floats, from the
closed-form inverse, only the few whose proven lower bound could win, and
scores them on plain floats (see best_diameter_bound).  All constants are
certified conservatively — strict inequalities with explicit margins — so
the soundness argument survives floating point.
"""

from __future__ import annotations

import hashlib
import math
import numbers
import struct
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dirichlet import RHO_TOL_SCALE, _check_ball, _refuse_overflow, _threshold
from .errors import CertificationError, ConvergenceError, DomainError, _count, _positive, _real
from .modelspectra import Spectrum, counting_function
from .spaceform import (
    SpaceForm,
    _check_curvature,
    _direction_share,
    _linked_complement,
    ball_volume,
    bonnet_myers_cap,
    newton_bracket,
    sphere_measure,
    unit_ball_volume,
)
from .weyl import _median_volume, _slope_dimension, _window_samples

ALPHA_MARGIN = 1e-9
SHRINK = 1.0 - 1e-6


def spectrum_content_id(spec: Spectrum) -> str:
    """Content-addressed id: identical spectra give identical reports.

    SHA-256 (first 16 hex digits) of a fixed header (truncation as <f8, entry
    count as <u8), the eigenvalues as <f8 and multiplicities as <i8, then
    the declared dimension as text.
    """
    digest = hashlib.sha256(struct.pack("<dQ", float(spec.truncation), len(spec.values)))
    digest.update(spec.values.astype("<f8", copy=False))
    digest.update(spec.multiplicities.astype("<i8", copy=False))
    digest.update(str(spec.dimension).encode("ascii"))
    return digest.hexdigest()[:16]


# The ball threshold of each route, for the "rho" note.
_THRESHOLD_NOTES = {
    "flat-bessel": "the flat (j_(n/2-1,1) / r)^2, exact at kappa = 0 and at or above the"
    " kappa-model one when kappa > 0 by Cheng's comparison between the model spaces",
    "n3-closed-form": "the exact n = 3 closed form pi^2/r^2 - kappa",
    "liouville": "the Liouville bound (j_(n/2-1,1) / r)^2 + c_n |kappa| on the kappa-model one",
}


def diameter_bound(spec: Spectrum, kappa: float, n: int, r: float) -> tuple[float, int]:
    """(D, rho): diameter bound from the eigenvalue count below the r-ball threshold.

    rho counts eigenvalues (with multiplicity) up to top(r), the threshold
    Lambda(r) plus the tolerance 1e-9 times the sum of its terms'
    magnitudes (see dirichlet._threshold); D = 2 r (rho + 1), clamped to
    the Bonnet-Myers cap.  SpaceForm refuses a dimension that is
    not an integer >= 2 or a non-finite kappa, and the ball check a radius
    that is not positive and finite or that exceeds (1 - 1e-9)
    pi/sqrt(kappa); a threshold past every float or above the truncation is
    refused too, and so is a 2 r (rho + 1) past every float (kappa <= 0
    has no cap to clamp it to, and D = inf bounds nothing).

    Cheng's comparison needs Lambda(r) only at or above lambda_kappa(r),
    the lowest Dirichlet eigenvalue of the r-ball in the kappa-model:
    counting below a larger value can only raise rho, hence D.  Lambda is
    read off the record dirichlet._threshold, a closed form on each route
    (lambda_0(r) = (j_(n/2-1,1) / r)^2 is the flat value):

    * "flat-bessel" (kappa = 0, and kappa > 0 with n != 3): lambda_0(r),
      exact at kappa = 0.  When kappa > 0 this is Cheng's comparison with
      the kappa-model itself as the manifold: it has Ric >= 0, so
      lambda_kappa(r) <= lambda_0(r) for every r < pi/sqrt(kappa).
    * "n3-closed-form" (n = 3, kappa != 0): pi^2/r^2 - kappa, exact.
    * "liouville" (kappa < 0, n != 3): lambda_0(r) + c_n |kappa|, with
      c_2 = 1/3 and c_n = (n-1)^2/4 for n >= 4.  The n = 3 form is the
      case c_3 = 1, where the bound below is exact.

    Proof of the Liouville bound.  Let a = (n-1)/2, s = sqrt|kappa|,
    sn(t) = sinh(s t)/s and x = s t.  A radial f with f(r) = 0 has Rayleigh
    quotient RQ(f) = int sn^(n-1) f'^2 / int sn^(n-1) f^2 over [0, r].  Let
    f0 be the flat ground state on [0, r] (weight t^(n-1), quotient
    lambda_0(r)), g = t^a f0, and take the trial function
    f = g / sn^a = f0 (x / sinh x)^a: smooth, radial, zero at r.  For
    u = sn^a f, f' = (u' - h u) / sn^a with h = (sn^a)'/sn^a; integrating
    -2 h u u' by parts on [eps, r] gives the Liouville identity

        int sn^(n-1) f'^2 = int (u'^2 + Q u^2) + h(eps) u(eps)^2,
        Q = (sn^a)''/sn^a = a(a-1) (sn'/sn)^2 + a sn''/sn,

    and the same identity with sn = t for f0, where u = g as well.  Both
    denominators are int g^2.  Subtract the flat identity from the kappa
    one on [eps, r]: the boundary terms differ by a (s coth(s eps) - 1/eps)
    g(eps)^2 -> 0 as eps -> 0.  (For n = 2, int Q_0 g^2 diverges at 0, so
    each identity alone has no limit; their difference has.)  Hence

        lambda_kappa(r) <= RQ(f) = lambda_0(r) + <Q_kappa - Q_0>_g,

    the mean under the weight g^2.  As sn'' = |kappa| sn,

        Q_kappa - Q_0 = a(a-1) |kappa| phi(x) + a |kappa|,
        phi(x) = coth^2 x - 1/x^2,

    and 2/3 <= phi <= 1 for x > 0.  phi - 1 = 1/sinh^2 x - 1/x^2 <= 0
    because sinh x >= x.  With y = 2x, x^2 sinh^2 x (phi - 2/3) =
    cosh y (y^2/24 - 1/2) + 5 y^2/24 + 1/2, a power series whose
    coefficients of y^0, y^2 and y^4 vanish and whose coefficient of
    y^(2m), m >= 3, is 1/(24 (2m-2)!) - 1/(2 (2m)!) > 0.  For n >= 4,
    a(a-1) > 0 and phi <= 1 bound the mean by a^2 |kappa| =
    (n-1)^2/4 |kappa|; for n = 2, a(a-1) = -1/4 and phi >= 2/3 bound it by
    (1/2 - 1/6) |kappa| = |kappa|/3.  For n = 3, a(a-1) = 0 and g is the
    exact ground state sin(pi t / r).

    The float threshold (q/r)^2 - c kappa may lie below the closed form
    (math.pi and 1/3 round down) by a few ulps of its larger term, not of
    itself: near the antipodal cap the n = 3 difference pi^2/r^2 - kappa
    cancels, and at kappa = 3.7, r = (1 - 1e-9) pi / sqrt(kappa) it reads
    2.7e-8 relative low.  So the tolerance is relative to the sum of the
    terms' magnitudes, (q/r)^2 + c |kappa|, which covers that rounding.
    """
    sf = SpaceForm(n, kappa)
    r = _check_ball(sf, r)
    lam, top = _threshold(sf.n, sf.kappa).top(r, True)
    lam = _refuse_overflow(lam, r, sf.kappa)
    if spec.truncation < top:
        raise DomainError(f"spectrum truncation {spec.truncation:.9g} is below the ball "
                          f"threshold {lam:.9g}; the eigenvalue count there cannot be certified")
    rho = counting_function(spec, top)
    d = 2.0 * r * (rho + 1)
    if d == math.inf:
        raise DomainError(f"the diameter bound 2 r (rho + 1) at r = {r!r}, rho = {rho} overflows")
    return min(d, bonnet_myers_cap(kappa)), rho


class DiameterSearch(tuple):
    """(D, r, rho) of the winning radius, with what the search saw.

    Unpacks and compares as the plain triple.  radii_searched is the number
    of breakpoints, radii_resolved how many of them the search resolved to
    a float radius, and threshold_route the route of the threshold rho was
    counted below (see diameter_bound).
    """

    def __new__(cls, best, radii_searched: int, radii_resolved: int, threshold_route: str):
        self = super().__new__(cls, best)
        self.radii_searched = radii_searched
        self.radii_resolved = radii_resolved
        self.threshold_route = threshold_route
        return self


def _weigh(best: tuple, r: float, rho: int, cap: float) -> tuple:
    """best, or (D, r, rho) with D = min(2 r (rho + 1), cap), diameter_bound's
    expression, when that D is smaller, or equal at a radius at least best's
    (so from best = (inf, 0, 0) it is always the new triple)."""
    d = min(2.0 * r * (rho + 1), cap)
    return (d, r, rho) if d < best[0] or (d == best[0] and r >= best[1]) else best


def _edge(best: tuple, r_t: float, cap: float) -> float:
    """No D of at least min(bound, cap) beats best once bound > edge: it
    loses above best's D <= cap, and at a tie once best lies past r_T, where
    no later r_k does.  So edge is the float below D past r_T, else D, or
    inf when D is the cap."""
    if best[1] > r_t:
        return math.nextafter(best[0], -math.inf)
    return best[0] if best[0] < cap else math.inf


def best_diameter_bound(spec: Spectrum, kappa: float, n: int) -> DiameterSearch:
    """(D*, r*, rho*): smallest diameter_bound over every admissible radius;
    ties favor large r.

    The count rests on lam_0 = 0, the eigenvalue of the constants, which the
    spectrum of every closed connected orbifold has: a spectrum whose lowest
    eigenvalue is not 0 is refused.

    Why the breakpoints suffice.  rho(r) = N(top(r)) counts eigenvalues up
    to top(r) (the closure of the threshold record dirichlet._threshold,
    built once per search), which is non-increasing in the float r, since
    each of its steps is a correctly rounded monotone operation; so the
    smallest floats below are well defined.  rho is a non-increasing
    step function of r, and on each of its plateaus
    D = min(2 r (rho + 1), cap) does not fall as r grows.  A radius is
    admissible when top(r) <= T, the truncation, which makes the
    admissible radii a ray, and when r lies inside the antipodal cap and
    2 r (rho + 1) is finite, which only cut plateaus off on the right.  So
    the smallest D over all admissible floats is attained at a breakpoint:
    where a plateau begins inside the ray, r_k, the smallest float with
    top(r) < lam_k for a distinct eigenvalue lam_k, or where the ray
    begins, r_T, the smallest float with top(r) <= T, i.e.
    top(r) < nextafter(T, inf).  A target at or below top at the largest
    admissible radius, the record's widest ((1 - 1e-9) times the antipodal
    cap, or the largest float), has no breakpoint inside the cap, or none at all
    (lam_0 = 0 on the flat-bessel route, whose threshold only tends to 0),
    and when that drops the truncation's target no radius is admissible.
    radii_searched counts the breakpoints.

    Which breakpoints can win.  The search resolves r_T first and scores
    it; then it walks the targets lam_k upward, so r_k falls, and resolves
    r_k (from the record's closed-form inverse g_k of top) only where a
    proven lower bound on its D could still win against the best so far:

    * r_k >= r_T, since lam_k <= T < nextafter(T, inf).
    * With r_lo = g_k (1 - 1e-9): if top(r_lo) >= lam_k, then r_k > r_lo,
      because top is non-increasing and top(r_k) < lam_k.  The check is
      an evaluation, so an inaccurate g_k costs only the tighter bound.
    * If r_k differs from r_(k-1), rho(r_k) = N(< lam_k) exactly: top(r_k)
      < lam_k, and top(r_k) >= lam_(k-1), as r_k < r_(k-1) is not in the
      set whose smallest float r_(k-1) is (for the lowest target,
      top(r_k) >= top(widest) and no eigenvalue lies between).  If r_k
      equals r_(k-1), its triple is that one's, which the walk has
      already weighed; a resolved r_k with top(r_k) < lam_(k-1) is
      therefore not scored again.

    So D_k >= min(2 max(r_T, r_lo) (N(< lam_k) + 1), cap) for every r_k
    with a radius of its own.  A tie wins only at a larger radius, and every
    later r_k is at most every earlier one, so once the best lies past r_T
    a tie cannot win: r_k stays unresolved when its bound exceeds the best
    D, or equals it with the best past r_T.  N(< lam_k) never falls as k
    grows, so once min(2 r_T (N(< lam_k) + 1), cap) is beaten that way no
    later breakpoint of its own radius can win, and one that shares a
    radius repeats a weighed triple: the walk stops.  With the best at the
    cap, as when kappa > 0 clamps every D, it stops once that product
    reaches the cap (both tests: bound > _edge).  radii_resolved counts
    the breakpoints resolved, r_T's included.

    Resolving.  newton_bracket closes each breakpoint on (0, widest] with
    zero steps from g_k (g at T for r_T), so the pole r = 0 is never
    probed.  g inverts a few correctly rounded steps: in the catalog's
    searches nearly every breakpoint lay from one float below g_k to two
    above, so two or three probes settle most; k floats off cost about
    2 log2(k).

    Scoring.  No breakpoint, r_T included, is refused: each lies in
    (0, widest], its top is at most T, and 2 r (rho + 1) stays finite, as r
    is below about q 1e162 (q over the root of the least positive float)
    and rho below 2^63.  So every breakpoint is scored by _weigh, on the
    same floats diameter_bound would give: r_T with rho = N(top(r_T)), one
    searchsorted of the walk's own top(r_T) (diameter_bound's threshold,
    bit for bit) on the values read off cumulative_counts, as
    counting_function counts, and each resolved r_k with rho = N(< lam_k).
    Of tying radii the largest wins: it has the smallest rho, so the bound
    rests on the fewest eigenvalues.  The result is therefore that of
    calling diameter_bound at every breakpoint.  A dimension or curvature
    outside SpaceForm's domain would fail every radius alike, so it is
    refused before the search.
    """
    sf = SpaceForm(n, kappa)
    n, kappa = sf.n, sf.kappa
    values, counts = spec.values, spec.cumulative_counts
    if not (values.size and values.item(0) == 0.0):
        found = f"the lowest eigenvalue is {values.item(0)!r}" if values.size else "none is given"
        raise CertificationError(
            "diameter",
            "the ball count rests on lam_0 = 0, which the spectrum of every closed connected "
            f"orbifold has, but {found}",
        )
    cap = bonnet_myers_cap(kappa)
    route, _, c, top, inverse, widest = _threshold(n, kappa)

    def first_below(target: float, guess: float) -> float:
        # The smallest positive float r with top(r) < target: see Resolving.
        return newton_bracket(lambda r: (not top(r) < target, 0.0), 0.0, widest, guess)[1]

    least = top(widest)
    truncation = math.nextafter(spec.truncation, math.inf)
    if not truncation > least:
        raise CertificationError(
            "diameter",
            f"spectrum truncation {spec.truncation:.9g} is below {least:.12g}, the least {route} "
            f"ball threshold plus its tolerance over the admissible radii, at r = {widest:.9g}"
            + (f" (every threshold exceeds c |kappa| = {c * -kappa:.9g})" if kappa < 0 else "")
            + "; no eigenvalue count can be certified",
        )
    first = int(np.searchsorted(values, least, "right"))
    # An inf target is inverted at the largest float: from its pole r = 0 the search would gallop.
    r_t = first_below(truncation, inverse(min(truncation, sys.float_info.max)))
    i = int(values.searchsorted(top(r_t), "right"))  # rho(r_T) = N(top(r_T)), see Scoring
    best = _weigh((math.inf, 0.0, 0), r_t, counts.item(i - 1) if i else 0, cap)
    edge = _edge(best, r_t, cap)
    resolved, previous = 1, least
    below = counts.item(first - 1) if first else 0  # N(< lam_k)
    for lam, count in zip(memoryview(values)[first:], memoryview(counts)[first:]):
        if 2.0 * r_t * (below + 1) > edge:
            break
        guess = inverse(lam)
        low = guess * (1.0 - 1e-9)
        # r_k > low once top(low) >= lam_k is checked, and r_k >= r_T always.
        if not 2.0 * (low if low > r_t and top(low) >= lam else r_t) * (below + 1) > edge:
            r = first_below(lam, guess)
            resolved += 1
            if top(r) >= previous:  # else r_k = r_(k-1), whose triple is weighed
                best = _weigh(best, r, below, cap)
                edge = _edge(best, r_t, cap)
        previous, below = lam, count
    return DiameterSearch(
        best,
        radii_searched=values.size - first + 1,
        radii_resolved=resolved,
        threshold_route=route,
    )


def _diameter(d, cap: float) -> float:
    """A diameter bound clamped at the antipodal cap pi/sqrt(kappa)
    (bonnet_myers_cap, passed in), then held to the magnitude rule.  Sound:
    curvature >= kappa > 0 keeps every diameter below the cap, so D = inf
    is accepted when kappa > 0.  Only a real number is clamped, so a bool is
    refused whatever the cap."""
    if isinstance(d, numbers.Real) and not isinstance(d, bool) and d > cap:
        d = cap
    return _positive(d, "diameter bound")


class _ModelBall(NamedTuple):
    """The curvature-kappa model ball of radius D that the isotropy cap,
    alpha's cone and the packing count all read, built once per
    certificate: the model space, D clamped at the cap (by _diameter), the
    cap bonnet_myers_cap(kappa) and ball_volume(sf, D)."""

    sf: SpaceForm
    d: float
    cap: float
    volume: float


def _model_ball(sf: SpaceForm, cap: float, d: float) -> _ModelBall:
    """The record of a D that _diameter has clamped and checked."""
    return _ModelBall(sf, d, cap, ball_volume(sf, d))


def _floor_ratio(num: float, den: float) -> int:
    """floor(num / den) of two volumes, nudged by 1e-9 against float drop-off
    so an exact integer ratio floors to itself.  A ratio that is no finite
    float (an underflowed denominator, an overflowed quotient) is a
    DomainError."""
    ratio = num / den if den > 0 else math.inf
    if not math.isfinite(ratio):
        raise DomainError(f"the volume ratio {num!r} / {den!r} is not a finite float")
    return math.floor(ratio + 1e-9)


def isotropy_order_cap(n: int, kappa: float, d: float, v: float) -> int:
    """Upper bound on every isotropy order: floor of ball_volume(D) / volume.

    The dilation of small balls around a singular point scales volume down
    by the isotropy order, so the order cannot exceed the model-ball/volume
    ratio.  SpaceForm checks n and kappa, D is clamped at the antipodal cap
    and must then be positive and finite, as v must; the pipelines check
    (n, v) against the spectrum before they get here.
    """
    sf = SpaceForm(n, kappa)
    v = _positive(v, "volume")
    cap = bonnet_myers_cap(kappa)
    return _isotropy_cap(_model_ball(sf, cap, _diameter(d, cap)), v)


def _isotropy_cap(ball: _ModelBall, v: float) -> int:
    """isotropy_order_cap on the model-ball record and a checked volume."""
    return max(1, _floor_ratio(ball.volume, v))


def alpha_constant(n: int, kappa: float, d: float, v: float) -> float:
    """Largest certified angle whose bad-direction cone stays under v/6.

    The bad directions fill the band linked_complement_measure(n-1, alpha)
    of the direction sphere, which grows with alpha at the rate
    2 sphere_measure(n-2) cos^(n-2) alpha, so Newton steps on it
    (newton_bracket) give the angle at which the band's share of the
    sphere is the budget's share of the ball.  That angle only starts the
    search: it is returned when the forward cone satisfies the strict
    inequality with relative margin 1e-9 (a relative margin keeps the angle
    invariant under rescaling), and else newton_bracket closes that forward
    check, the certificate, below it.
    """
    sf = SpaceForm(n, kappa)
    cap = bonnet_myers_cap(kappa)
    d = _diameter(d, cap)
    v = _positive(v, "volume")
    return _alpha(_model_ball(sf, cap, d), v)


def _alpha(ball: _ModelBall, v: float) -> float:
    """alpha_constant on the model-ball record and a checked volume.

    cone(alpha) is cone_volume(sf, D, linked_complement_measure(n-1,
    alpha)) on the record's ball volume, with its range check and the same
    floats; every alpha probed lies in [1e-9, pi/2), where the band needs
    no clamp, so its rate 2 sphere_measure(n-2) is computed once.
    """
    n = ball.sf.n
    target = v / 6.0 * (1.0 - ALPHA_MARGIN)
    omega = sphere_measure(n - 1)
    rate = 2.0 * sphere_measure(n - 2)

    def cone(alpha: float) -> float:
        return ball.volume * _direction_share(_linked_complement(rate, n - 1, alpha), omega) / omega

    hi = 0.5 * math.pi * (1.0 - 1e-12)
    if cone(hi) < target:
        return hi
    lo = 1e-9
    if not cone(lo) < target:
        raise CertificationError(
            "alpha", f"no admissible angle: even alpha = {lo} exceeds the v/6 budget"
        )
    band = omega * min(1.0, target / ball.volume)

    def probe(alpha: float) -> tuple[bool, float]:
        gap = band - _linked_complement(rate, n - 1, alpha)
        slope = rate * math.cos(alpha) ** (n - 2)
        return gap > 0.0, gap / slope if slope > 0.0 else 0.0

    start = newton_bracket(probe, lo, hi, min(max(band / rate, lo), hi))[0]
    if cone(start) < target:
        return start
    # The check can fail where the cone is flat to rounding, as near pi/2 when
    # the budget is within ulps of the ball; cone(lo) passes, so it closes below.
    below = math.nextafter(start, lo)
    return newton_bracket(lambda a: (cone(a) < target, 0.0), lo, start, below)[0]


def ell_constant(n: int, kappa: float, v: float) -> float:
    """(1 - 1e-6) times the radius whose model-ball volume equals v/3.

    Closed forms invert ball_volume when flat, (v / 3 omega_n)^(1/n), and
    when n = 2, the asin / asinh of sqrt(|kappa| v / 12 pi).  For
    kappa > 0 a v/3 of at least the whole sphere gives the antipodal cap.
    Every other curved case takes one route: Newton steps on log
    ball_volume (concave in r) from the flat radius close in to adjacent
    floats, and the lower one, whose ball volume is at most v/3, is shrunk.
    The bracket is (0, cap] when kappa > 0 and (0, flat radius] when
    kappa < 0: sn(t) <= t in the first case and sn(t) >= t in the second,
    so the flat radius lies at or below the root, or at or above it.
    """
    sf = SpaceForm(n, kappa)
    v = _positive(v, "volume")
    return _ell(sf, bonnet_myers_cap(kappa), v)


def _ell(sf: SpaceForm, cap: float, v: float) -> float:
    """ell_constant in the checked model space sf, with its cap, and a checked volume."""
    n, kappa = sf.n, sf.kappa
    target = v / 3.0
    flat = (target / unit_ball_volume(n)) ** (1.0 / n)
    if kappa == 0.0:
        return SHRINK * flat
    s = math.sqrt(abs(kappa))
    if kappa > 0:
        try:
            whole = sphere_measure(n) * kappa ** (-0.5 * n)
        except OverflowError:
            whole = math.inf
        if whole == math.inf:
            raise DomainError(f"the volume of the whole sphere at kappa = {kappa!r} overflows")
        if target >= whole:
            return SHRINK * cap
        if n == 2:
            return SHRINK * 2.0 / s * math.asin(min(1.0, math.sqrt(kappa * v / (12.0 * math.pi))))
        sine, hi = math.sin, cap
    else:
        if n == 2:
            return SHRINK * 2.0 / s * math.asinh(math.sqrt(-kappa * v / (12.0 * math.pi)))
        sine, hi = math.sinh, flat
    omega = sphere_measure(n - 1)
    log_target = math.log(target)

    def probe(r: float) -> tuple[bool, float]:
        vol = ball_volume(sf, r)
        gap, slope = (log_target - math.log(vol)) * vol, omega * (sine(s * r) / s) ** (n - 1)
        return vol <= target, gap / slope if slope > 0.0 else 0.0

    return SHRINK * newton_bracket(probe, 0.0, hi, min(flat, hi))[0]


def r_constant(kappa: float, alpha: float, ell: float) -> float:
    """Separation radius: (1 - 1e-6) * min(ell, r*), in closed form.

    Every hinge with one side below r*, the other side c3 >= ell and
    enclosed angle at most pi/2 - alpha closes with a side strictly shorter
    than c3.  By the law of cosines a hinge with sides r, c3 does so exactly
    when tan_k(r/2) < cos(angle) tan_k(c3), tan_k the curvature-kappa
    tangent; that bound falls with the angle and rises with c3, so the
    binding hinge is (ell, pi/2 - alpha) and

        kappa > 0:  r* = (2/s) atan(sin(alpha) tan(s ell)),   s = sqrt(kappa)
        kappa = 0:  r* = 2 ell sin(alpha)
        kappa < 0:  r* = (2/s) atanh(sin(alpha) tanh(s ell)), s = sqrt(-kappa)

    For kappa > 0 with s ell >= pi/2 every such hinge shortens, so r* = ell.
    The final shrink keeps the certificate strict.
    """
    kappa = _check_curvature(kappa)
    return _separation(kappa, bonnet_myers_cap(kappa), _real(alpha, "angle"), ell)


def _separation(kappa: float, cap: float, alpha: float, ell: float) -> float:
    """r_constant at a checked kappa with its cap.  The checks on alpha and
    ell stay here: the singular cap computes them, and a tiny volume can
    underflow ell to 0."""
    if not (0.0 < alpha < 0.5 * math.pi):
        raise DomainError(f"angle must lie in (0, pi/2), got {alpha!r}")
    ell = _positive(ell, "ell")
    if ell >= cap:
        raise DomainError(f"ell = {ell!r} must stay below the antipodal cap {cap!r}")
    sin_a = math.sin(alpha)
    if kappa > 0:
        s = math.sqrt(kappa)
        if s * ell >= 0.5 * math.pi:
            r_star = ell
        else:
            r_star = 2.0 / s * math.atan(sin_a * math.tan(s * ell))
    elif kappa == 0:
        r_star = 2.0 * ell * sin_a
    else:
        s = math.sqrt(-kappa)
        r_star = 2.0 / s * math.atanh(sin_a * math.tanh(s * ell))
    return SHRINK * min(ell, r_star)


def packing_bound(n: int, kappa: float, diameter: float, eps: float) -> int:
    """How many points pairwise at least eps apart fit in diameter <= ``diameter``.

    Their eps/2-balls are disjoint, and relative volume comparison in the
    curvature-kappa model gives each at least the fraction
    ball(eps/2) / ball(diameter) of the space: at most
    floor(ball(diameter) / ball(eps/2)) points.  SpaceForm checks n and
    kappa; the diameter is clamped at the antipodal cap, and it and eps must
    then be positive and finite, with eps <= 2 diameter.
    """
    sf = SpaceForm(n, kappa)
    cap = bonnet_myers_cap(sf.kappa)
    diameter = _diameter(diameter, cap)
    eps = _check_eps(eps, diameter)
    return _packing(_model_ball(sf, cap, diameter), eps)


def _check_eps(eps, diameter: float) -> float:
    """eps as a float, positive and finite and at most 2 diameter."""
    eps = _positive(eps, "eps")
    if eps > 2.0 * diameter:
        raise DomainError(f"need eps <= 2*diameter, got eps={eps} diameter={diameter}")
    return eps


def _packing(ball: _ModelBall, eps: float) -> int:
    """packing_bound on the model-ball record and an eps _check_eps has passed."""
    return _floor_ratio(ball.volume, ball_volume(ball.sf, eps / 2.0))


def singular_point_cap(n: int, kappa: float, d: float, v: float) -> tuple[int, dict[str, float]]:
    """(C, constants): packing cap on isolated singular points.

    Singular points are pairwise at least r apart (the separation radius
    certified by r_constant with the alpha/ell constants).  C is the
    packing_bound at eps = r/2, so disjoint r/4-balls around them pack the
    diameter-D ball.  That is a factor-2 margin under the stated
    separation, which alone would allow eps = r (disjoint r/2-balls) and a
    cap about 2^n smaller; the cap keeps the margin until the separation
    lemma is proved with its constants.
    """
    cap = bonnet_myers_cap(kappa)
    d = _diameter(d, cap)
    sf = SpaceForm(n, kappa)
    v = _positive(v, "volume")
    return _singular_cap(_model_ball(sf, cap, d), v)


def _singular_cap(ball: _ModelBall, v: float) -> tuple[int, dict[str, float]]:
    """singular_point_cap on the model-ball record and a checked volume."""
    alpha = _alpha(ball, v)
    ell = _ell(ball.sf, ball.cap, v)
    r = _separation(ball.sf.kappa, ball.cap, alpha, ell)
    # With consistent inputs r < ell < D; the clamp only guards degenerate
    # volume/diameter combinations and stays sound (smaller r still separates).
    r_used = min(r, ball.d)
    eps = _check_eps(r_used / 2.0, ball.d)
    return _packing(ball, eps), {"alpha": alpha, "ell": ell, "r": r_used}


@dataclass(frozen=True)
class BoundReport:
    """Everything a bound pipeline certified, with provenance."""

    spectrum_id: str
    kappa: float
    n: int
    volume: float
    source: str  # "given" | "weyl-estimated"
    diameter_bound: float
    r_used: float
    rho: int
    isotropy_cap: int
    alpha: float | None
    ell: float | None
    r_sep: float | None
    singular_cap: int | None
    notes: dict[str, str]
    stage_trace: tuple[dict, ...]

    def __post_init__(self):
        _positive(self.diameter_bound, "diameter bound")
        if self.diameter_bound > bonnet_myers_cap(self.kappa) * (1 + 1e-12):
            raise DomainError("diameter bound exceeds the Bonnet-Myers cap")
        if self.rho < 1 or self.isotropy_cap < 1:
            raise DomainError("rho and the isotropy cap must be at least 1")
        if self.singular_cap is not None:
            if self.singular_cap < 0:
                raise DomainError("singular point cap must be nonnegative")
            if not (self.r_sep is not None and self.ell is not None and self.alpha is not None):
                raise DomainError("singular cap requires the alpha/ell/r constants")
            if not (0.0 < self.r_sep < self.ell):
                raise DomainError("separation radius must lie in (0, ell)")

    def to_dict(self) -> dict:
        return {
            "inputs": {
                "spectrum_id": self.spectrum_id,
                "kappa": self.kappa,
                "n": self.n,
                "volume": self.volume,
                "source": self.source,
            },
            "diameter_bound": self.diameter_bound,
            "r_used": self.r_used,
            "rho": self.rho,
            "isotropy_cap": self.isotropy_cap,
            "alpha": self.alpha,
            "ell": self.ell,
            "r_sep": self.r_sep,
            "singular_cap": self.singular_cap,
            "notes": dict(self.notes),
            "stage_trace": [dict(s) for s in self.stage_trace],
        }


class _stage:
    """Run one pipeline stage: the body fills the outputs dict `with` gives.

    Domain and convergence failures become a CertificationError naming the
    stage; a stage that completes is appended to the trace.
    """

    __slots__ = ("trace", "entry")

    def __init__(self, trace: list, stage: str, inputs: dict):
        self.trace, self.entry = trace, {"stage": stage, "inputs": inputs, "outputs": {}}

    def __enter__(self) -> dict:
        return self.entry["outputs"]

    def __exit__(self, kind, exc, tb) -> None:
        if kind is None:
            self.trace.append(self.entry)
        elif issubclass(kind, (DomainError, ConvergenceError)):
            raise CertificationError(self.entry["stage"], str(exc)) from exc


def _resolve_dimension_volume(spec: Spectrum, kappa: float, n, v, trace: list):
    """(sf, v, source): the model space SpaceForm(n, kappa) of the given or
    Weyl-fitted n, and the given or fitted v.  A fitted n must be >= 2,
    SpaceForm checks (n, kappa), and n must match the spectrum's dimension."""
    source = "given" if (n is not None and v is not None) else "weyl-estimated"
    window = None  # the Weyl window samples, built once for both fits
    if n is None:
        with _stage(trace, "weyl-dimension", {"eigenvalue_count": spec.total_count}) as out:
            window = _window_samples(spec)
            n, snap = _slope_dimension(*window[:2])
            out.update(n=_count(n, "fitted dimension", 2), slope_snap_distance=snap)
    sf = SpaceForm(n, kappa)
    n = sf.n
    if spec.dimension is not None and spec.dimension != n:
        raise CertificationError(
            "weyl-dimension",
            f"spectrum declares dimension {spec.dimension} but the pipeline uses {n}",
        )
    if v is None:
        with _stage(trace, "weyl-volume", {"n": n}) as out:
            v = _median_volume(*(window or _window_samples(spec))[:2], n)
            out.update(volume=v)
    try:
        v = _positive(v, "volume")
    except DomainError as exc:
        raise CertificationError("weyl-volume", str(exc)) from exc
    return sf, v, source


def _certify(spec: Spectrum, kappa: float, n, v, singular: bool) -> BoundReport:
    """Both pipelines' stages in one pass, singular-cap only when singular.

    Each piece of work runs once per certificate.  The paper's chain reads
    one object three times, the curvature-kappa model ball of radius D:
    once the diameter stage has D, the isotropy-cap stage builds its record
    (_ModelBall: the SpaceForm(n, kappa) the dimension check built, D
    clamped at the cap, the cap and ball_volume(sf, D)), and the isotropy
    cap, alpha's cone and band and the packing count all read it.
    The public isotropy_order_cap and singular_point_cap are validators
    over the same private functions, so the report equals their
    composition.  A ball volume past every float fails the isotropy-cap
    stage, the first to read it.
    """
    trace: list[dict] = []
    sf, v, source = _resolve_dimension_volume(spec, kappa, n, v, trace)
    n, kappa = sf.n, sf.kappa
    with _stage(trace, "diameter", {"kappa": kappa, "n": n}) as out:
        search = best_diameter_bound(spec, kappa, n)
        d, r_used, rho = search
        out.update(
            diameter_bound=d,
            r=r_used,
            radii_searched=search.radii_searched,
            radii_resolved=search.radii_resolved,
            threshold_route=search.threshold_route,
        )
    with _stage(trace, "isotropy-cap", {"diameter_bound": d, "volume": v}) as out:
        antipodal = bonnet_myers_cap(kappa)
        ball = _model_ball(sf, antipodal, _diameter(d, antipodal))
        cap = _isotropy_cap(ball, v)
        out.update(isotropy_cap=cap)
    notes = {
        "diameter": "smallest 2r(rho+1) over every admissible radius (the breakpoints of rho)"
        + (", clamped at the Bonnet-Myers cap" if kappa > 0 else ""),
        "rho": f"eigenvalues counted up to the ball threshold plus {RHO_TOL_SCALE} times the "
        "sum of its terms' magnitudes, " + _THRESHOLD_NOTES[search.threshold_route],
        "isotropy_cap": "floor(ball_volume(D) / volume)",
        "volume": source,
    }
    singular_cap, constants = None, {"alpha": None, "ell": None, "r": None}
    if singular:
        with _stage(trace, "singular-cap", {"diameter_bound": d, "volume": v}) as out:
            singular_cap, constants = _singular_cap(ball, v)
            out.update(singular_cap=singular_cap, **constants)
        notes.update(
            alpha=f"largest angle with cone volume < (v/6)(1 - {ALPHA_MARGIN})",
            ell="(1 - 1e-6) times the exact v/3 ball radius",
            r_sep="closed form at the binding hinge (long side ell, angle pi/2 - alpha), "
            "shrink 1e-6",
            singular_cap="floor(ball_volume(D) / ball_volume(r/4))",
        )
    return BoundReport(
        spectrum_id=spectrum_content_id(spec),
        kappa=kappa,
        n=n,
        volume=v,
        source=source,
        diameter_bound=d,
        r_used=r_used,
        rho=rho,
        isotropy_cap=cap,
        alpha=constants["alpha"],
        ell=constants["ell"],
        r_sep=constants["r"],
        singular_cap=singular_cap,
        notes=notes,
        stage_trace=tuple(trace),
    )


def spectral_isotropy_bound(
    spec: Spectrum,
    kappa: float,
    n: int | None = None,
    v: float | None = None,
) -> BoundReport:
    """Diameter bound plus isotropy-order cap from a spectrum and curvature.

    The diameter search runs over every admissible radius (see
    best_diameter_bound).
    """
    return _certify(spec, kappa, n, v, singular=False)


def spectral_singular_point_bound(
    spec: Spectrum,
    kappa: float,
    n: int | None = None,
    v: float | None = None,
) -> BoundReport:
    """Full pipeline: Weyl data, diameter bound, isotropy cap, singular-point cap.

    Its stages up to the isotropy cap are spectral_isotropy_bound's, run in
    the same pass.  Every stage failure is reported as a certification
    error naming the stage; the returned report carries the stage trace and
    per-constant provenance notes.
    """
    return _certify(spec, kappa, n, v, singular=True)
