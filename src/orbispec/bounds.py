"""Spectral-to-geometric bound pipelines.

From a truncated Laplace spectrum and a curvature lower bound kappa this
module certifies, in order: an upper bound on the diameter (disjoint balls
of radius r at distance 2r along a segment force small Dirichlet
eigenvalues into the spectrum, so the eigenvalue count below the r-ball
threshold caps the number of balls); an upper bound on every isotropy
order (volume comparison of the orbifold against the curvature-model ball
of diameter size); and an upper bound on the number of isolated singular
points (singular points repel each other by a certified separation radius,
so a packing argument counts them).  All constants are certified
conservatively — strict inequalities with explicit margins — so the
soundness argument survives floating point.
"""

from __future__ import annotations

import hashlib
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import brentq
from scipy.special import betaincinv

from .dirichlet import lowest_dirichlet_eigenvalue
from .errors import CertificationError, ConvergenceError, DomainError
from .modelspectra import Spectrum, counting_function
from .spaceform import (
    SpaceForm,
    ball_volume,
    bonnet_myers_cap,
    cone_volume,
    linked_complement_measure,
    unit_ball_volume,
)
from .weyl import estimate_dimension, estimate_volume

# Eigenvalues within this (scaled) distance of the ball threshold are
# counted: a larger rho weakens the bound but never breaks soundness.
RHO_TOL_SCALE = 1e-9
ALPHA_MARGIN = 1e-9
SHRINK = 1.0 - 1e-6
DEFAULT_GRID_POINTS = 64
# Positive-curvature radius grids stop just short of the antipodal cap.
CAP_GRID_FRACTION = 0.999


def lambda_threshold(n: int, kappa: float, r: float) -> float:
    """Lowest Dirichlet eigenvalue of the r-ball in the curvature model, never below it."""
    return lowest_dirichlet_eigenvalue(SpaceForm(n, kappa), r)


def spectrum_content_id(spec: Spectrum) -> str:
    """Content-addressed id: identical spectra give identical reports."""
    payload = json.dumps(spec.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def diameter_bound(spec: Spectrum, kappa: float, n: int, r: float) -> tuple[float, int]:
    """(D, rho): diameter bound from the eigenvalue count below the r-ball threshold.

    rho counts eigenvalues (with multiplicity) up to the threshold plus an
    absolute tolerance 1e-9 * max(1, threshold); D = 2 r (rho + 1), clamped
    to the Bonnet-Myers cap when kappa > 0.
    """
    if not (isinstance(n, int) and n >= 2):
        raise DomainError(f"dimension must be an integer >= 2, got {n!r}")
    if not (math.isfinite(r) and r > 0):
        raise DomainError(f"ball radius must be positive and finite, got {r!r}")
    if kappa > 0 and r >= bonnet_myers_cap(kappa):
        raise DomainError(
            f"ball radius {r:.9g} must be below the antipodal cap "
            f"{bonnet_myers_cap(kappa):.9g} for kappa = {kappa:.9g}"
        )
    lam_thr = lambda_threshold(n, kappa, r)
    tol = RHO_TOL_SCALE * max(1.0, lam_thr)
    if spec.truncation < lam_thr + tol:
        raise DomainError(
            f"spectrum truncation {spec.truncation:.9g} is below the ball threshold "
            f"{lam_thr:.9g}; the eigenvalue count there cannot be certified"
        )
    rho = counting_function(spec, lam_thr + tol)
    d = 2.0 * r * (rho + 1)
    if kappa > 0:
        d = min(d, bonnet_myers_cap(kappa))
    return d, rho


def default_r_grid(
    n: int, kappa: float, volume: float, points: int = DEFAULT_GRID_POINTS
) -> np.ndarray:
    """Logarithmic radius grid spanning three decades below a diameter-scale hint."""
    if not volume > 0:
        raise DomainError(f"volume must be positive, got {volume!r}")
    if points < 2:
        raise DomainError(f"grid needs at least 2 points, got {points!r}")
    d_hint = 2.0 * (volume / unit_ball_volume(n)) ** (1.0 / n)
    hi = d_hint
    if kappa > 0:
        hi = min(hi, CAP_GRID_FRACTION * bonnet_myers_cap(kappa))
    lo = min(d_hint, hi) / 1000.0
    return np.geomspace(lo, hi, points)


def best_diameter_bound(
    spec: Spectrum,
    kappa: float,
    n: int,
    r_grid=None,
    volume_hint: float | None = None,
) -> tuple[float, float, int]:
    """(D*, r*, rho*): smallest diameter bound over a radius grid; ties favor small r.

    Grid points whose ball threshold exceeds the spectrum truncation, that
    fall outside the curvature domain, or whose threshold solve does not
    converge are skipped; dropping a radius can only loosen the bound.
    Without an explicit grid a default is built from volume_hint.
    """
    if r_grid is None:
        if volume_hint is None:
            raise DomainError("need either an explicit r_grid or a volume_hint")
        r_grid = default_r_grid(n, kappa, volume_hint)
    radii = np.sort(np.asarray(r_grid, dtype=float))
    if radii.size == 0:
        raise DomainError("the radius grid is empty")
    best: tuple[float, float, int] | None = None
    last_reason = "empty grid"
    for r in radii:
        try:
            d, rho = diameter_bound(spec, kappa, n, float(r))
        except (DomainError, ConvergenceError) as exc:
            last_reason = str(exc)
            continue
        if best is None or d < best[0]:
            best = (d, float(r), rho)
    if best is None:
        raise CertificationError(
            "diameter", f"no admissible radius in the grid; last failure: {last_reason}"
        )
    return best


def isotropy_order_cap(spec: Spectrum, kappa: float, fit, d: float) -> int:
    """Upper bound on every isotropy order: floor of ball_volume(D) / volume.

    fit is either a WeylFit or an explicit (n, volume) pair.  The dilation
    of small balls around a singular point scales volume down by the
    isotropy order, so the order cannot exceed the model-ball/volume ratio.
    """
    if hasattr(fit, "dimension_estimate"):
        n, v = fit.dimension_estimate, fit.volume_estimate
    else:
        n, v = fit
    if not (isinstance(n, int) and n >= 1):
        raise DomainError(f"dimension must be an integer >= 1, got {n!r}")
    if spec.dimension is not None and spec.dimension != n:
        raise DomainError(
            f"spectrum declares dimension {spec.dimension} but the fit says {n}"
        )
    if not v > 0:
        raise DomainError(f"volume must be positive, got {v!r}")
    if not d > 0:
        raise DomainError(f"diameter bound must be positive, got {d!r}")
    sf = SpaceForm(n, kappa)
    if kappa > 0:
        d = min(d, bonnet_myers_cap(kappa))
    ratio = ball_volume(sf, d) / v
    # Nudge against float drop-off so an exact integer ratio floors to itself.
    return max(1, math.floor(ratio + 1e-9))


def isotropy_type_enumeration(n: int, cap: int) -> list[str]:
    """Possible isotropy groups under an order cap.

    Orientable 2-orbifold isotropy sits in SO(2), so the groups are the
    cyclic C_k with k up to the cap; in higher dimension only the order
    cap itself is reported.
    """
    if not (isinstance(cap, int) and cap >= 1):
        raise DomainError(f"order cap must be an integer >= 1, got {cap!r}")
    if n == 2:
        return [f"C_{k}" for k in range(2, cap + 1)]
    return [
        f"orders 2..{cap} admissible; explicit group enumeration is provided "
        "only for n = 2, where orientable isotropy is cyclic"
    ]


def alpha_constant(n: int, kappa: float, d: float, v: float) -> float:
    """Largest certified angle whose bad-direction cone stays under v/6.

    The bad directions fill the fraction I_{sin^2 alpha}(1/2, (n-1)/2) of
    the direction sphere (see linked_complement_measure), which grows with
    alpha, so the incomplete-beta inverse at the budget gives the angle.
    That inverse only starts the search: the angle is stepped down until the
    forward cone satisfies the strict inequality with margin 1e-9, and that
    forward check is the certificate.
    """
    sf = SpaceForm(n, kappa)
    if kappa > 0:
        d = min(d, bonnet_myers_cap(kappa))
    if not d > 0:
        raise DomainError(f"diameter bound must be positive, got {d!r}")
    if not v > 0:
        raise DomainError(f"volume must be positive, got {v!r}")
    target = v / 6.0 - ALPHA_MARGIN
    if target <= 0.0:
        raise CertificationError(
            "alpha", f"volume {v!r} is too small to certify any angle at margin {ALPHA_MARGIN}"
        )

    def cone(alpha: float) -> float:
        return cone_volume(sf, d, linked_complement_measure(n - 1, alpha))

    hi = 0.5 * math.pi * (1.0 - 1e-12)
    if cone(hi) < target:
        return hi
    lo = 1e-9
    if not cone(lo) < target:
        raise CertificationError(
            "alpha", f"no admissible angle: even alpha = {lo} exceeds the v/6 budget"
        )
    x = betaincinv(0.5, 0.5 * (n - 1), min(1.0, target / ball_volume(sf, d)))
    alpha = min(max(math.asin(math.sqrt(x)), lo), hi)
    # Step down until the forward check passes, doubling the step after each
    # failure, then bisect back up to the last failure: the result is the
    # angle one-ulp steps would reach, without the billions of steps they
    # take where the cone is flat to rounding (a budget within a few ulps of
    # the ball volume puts the start near pi/2).  cone(lo) passes, so the
    # walk stops at lo at worst.
    fail, step = None, math.ulp(alpha)
    while not cone(alpha) < target:
        fail, alpha, step = alpha, max(lo, alpha - step), 2.0 * step
    while fail is not None and math.nextafter(alpha, fail) < fail:
        mid = 0.5 * (alpha + fail)
        if cone(mid) < target:
            alpha = mid
        else:
            fail = mid
    return alpha


def ell_constant(n: int, kappa: float, v: float) -> float:
    """(1 - 1e-6) times the radius whose model-ball volume equals v/3."""
    sf = SpaceForm(n, kappa)
    if not v > 0:
        raise DomainError(f"volume must be positive, got {v!r}")
    target = v / 3.0
    if kappa > 0:
        cap = bonnet_myers_cap(kappa)
        if ball_volume(sf, cap) <= target:
            return SHRINK * cap
        hi = cap * (1.0 - 1e-12)
    else:
        hi = 1.0
        for _ in range(200):
            if ball_volume(sf, hi) > target:
                break
            hi *= 2.0
        else:
            raise ConvergenceError("could not bracket the v/3 ball radius from above")
    lo = hi / 2.0
    while ball_volume(sf, lo) >= target:
        lo /= 2.0
        if lo < 1e-300:
            raise ConvergenceError("could not bracket the v/3 ball radius from below")
    r0 = brentq(lambda r: ball_volume(sf, r) - target, lo, hi, xtol=1e-15, rtol=1e-15)
    return SHRINK * r0


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
    if not math.isfinite(kappa):
        raise DomainError(f"curvature must be finite, got {kappa!r}")
    if not (0.0 < alpha < 0.5 * math.pi):
        raise DomainError(f"angle must lie in (0, pi/2), got {alpha!r}")
    if not (math.isfinite(ell) and ell > 0):
        raise DomainError(f"ell must be positive and finite, got {ell!r}")
    if kappa > 0 and ell >= bonnet_myers_cap(kappa):
        raise DomainError(
            f"ell = {ell!r} must stay below the antipodal cap {bonnet_myers_cap(kappa)!r}"
        )
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


def singular_point_cap(n: int, kappa: float, d: float, v: float) -> tuple[int, dict[str, float]]:
    """(C, constants): packing cap on isolated singular points.

    Singular points are pairwise at least r apart (the separation radius
    certified by r_constant with the alpha/ell constants), so disjoint
    r/4-balls around them pack the diameter-D ball: C is the volume ratio.
    """
    sf = SpaceForm(n, kappa)
    if kappa > 0:
        d = min(d, bonnet_myers_cap(kappa))
    alpha = alpha_constant(n, kappa, d, v)
    ell = ell_constant(n, kappa, v)
    r = r_constant(kappa, alpha, ell)
    # With consistent inputs r < ell < D; the clamp only guards degenerate
    # volume/diameter combinations and stays sound (smaller r still separates).
    r_used = min(r, d)
    cap = math.floor(ball_volume(sf, d) / ball_volume(sf, r_used / 4.0) + 1e-9)
    return cap, {"alpha": alpha, "ell": ell, "r": r_used}


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
        if not self.diameter_bound > 0:
            raise DomainError("diameter bound must be positive")
        if self.kappa > 0 and self.diameter_bound > bonnet_myers_cap(self.kappa) * (1 + 1e-12):
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


@contextmanager
def _stage(trace: list, stage: str, inputs: dict):
    """Run one pipeline stage: the body fills the yielded outputs dict.

    Domain and convergence failures become a CertificationError naming the
    stage; a stage that completes is appended to the trace.
    """
    outputs: dict = {}
    try:
        yield outputs
    except (DomainError, ConvergenceError) as exc:
        raise CertificationError(stage, str(exc)) from exc
    trace.append({"stage": stage, "inputs": inputs, "outputs": outputs})


def _resolve_dimension_volume(spec: Spectrum, n, v, trace: list):
    source = "given" if (n is not None and v is not None) else "weyl-estimated"
    if n is None:
        with _stage(trace, "weyl-dimension", {"eigenvalue_count": spec.total_count}) as out:
            n, snap = estimate_dimension(spec)
            out.update(n=n, slope_snap_distance=snap)
    if spec.dimension is not None and spec.dimension != n:
        raise CertificationError(
            "weyl-dimension",
            f"spectrum declares dimension {spec.dimension} but the pipeline uses {n}",
        )
    if v is None:
        with _stage(trace, "weyl-volume", {"n": n}) as out:
            v = estimate_volume(spec, n)
            out.update(volume=v)
    if not v > 0:
        raise CertificationError("weyl-volume", f"volume {v!r} is not positive")
    return int(n), float(v), source


def spectral_isotropy_bound(
    spec: Spectrum,
    kappa: float,
    n: int | None = None,
    v: float | None = None,
    r_grid=None,
) -> BoundReport:
    """Diameter bound plus isotropy-order cap from a spectrum and curvature."""
    trace: list[dict] = []
    n, v, source = _resolve_dimension_volume(spec, n, v, trace)
    with _stage(trace, "diameter", {"kappa": kappa, "n": n}) as out:
        d, r_used, rho = best_diameter_bound(spec, kappa, n, r_grid=r_grid, volume_hint=v)
        out.update(diameter_bound=d, r=r_used)
    with _stage(trace, "isotropy-cap", {"diameter_bound": d, "volume": v}) as out:
        cap = isotropy_order_cap(spec, kappa, (n, v), d)
        out.update(isotropy_cap=cap)
    notes = {
        "diameter": "smallest 2r(rho+1) over the radius grid"
        + (", clamped at the Bonnet-Myers cap" if kappa > 0 else ""),
        "rho": f"eigenvalues counted up to the ball threshold + {RHO_TOL_SCALE} * max(1, threshold)",
        "isotropy_cap": "floor(ball_volume(D) / volume)",
        "volume": source,
    }
    return BoundReport(
        spectrum_id=spectrum_content_id(spec),
        kappa=float(kappa),
        n=n,
        volume=v,
        source=source,
        diameter_bound=d,
        r_used=r_used,
        rho=rho,
        isotropy_cap=cap,
        alpha=None,
        ell=None,
        r_sep=None,
        singular_cap=None,
        notes=notes,
        stage_trace=tuple(trace),
    )


def spectral_singular_point_bound(
    spec: Spectrum,
    kappa: float,
    n: int | None = None,
    v: float | None = None,
    r_grid=None,
) -> BoundReport:
    """Full pipeline: Weyl data, diameter bound, isotropy cap, singular-point cap.

    Every stage failure is reported as a certification error naming the
    stage; the returned report carries the stage trace and per-constant
    provenance notes.
    """
    base = spectral_isotropy_bound(spec, kappa, n=n, v=v, r_grid=r_grid)
    trace = list(base.stage_trace)
    with _stage(
        trace, "singular-cap", {"diameter_bound": base.diameter_bound, "volume": base.volume}
    ) as out:
        cap, constants = singular_point_cap(base.n, kappa, base.diameter_bound, base.volume)
        out.update(singular_cap=cap, **constants)
    notes = {
        **base.notes,
        "alpha": f"largest angle with cone volume < v/6, strict margin {ALPHA_MARGIN}",
        "ell": "(1 - 1e-6) times the exact v/3 ball radius",
        "r_sep": "closed form at the binding hinge (long side ell, angle pi/2 - alpha), shrink 1e-6",
        "singular_cap": "floor(ball_volume(D) / ball_volume(r/4))",
    }
    return replace(
        base,
        alpha=constants["alpha"],
        ell=constants["ell"],
        r_sep=constants["r"],
        singular_cap=cap,
        notes=notes,
        stage_trace=tuple(trace),
    )
