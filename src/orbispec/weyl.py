"""Dimension and volume estimates from a truncated spectrum.

The counting function of a closed n-orbifold grows like
N(lam) ~ vol(B) * vol(O) * lam^(n/2) / (2 pi)^n, so the log-log slope of N
over a tail window recovers n/2, and the prefactor recovers the volume.
The slope is snapped to a half-integer grid (dimension must be an integer)
and the snap distance is surfaced as a diagnostic; the volume uses a
median over the window because lattice-type spectra oscillate around the
asymptote.  Both fits are a few whole-array numpy calls on one set of
window samples, built once per weyl_fit or certificate: the slope is the
closed-form least-squares slope of the centred logs, and the median the
middle of the sorted ratios, bit for bit np.median's, whose NaN check
would import numpy.ma (10 to 20 ms) on a process's first certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CertificationError, DomainError, _positive
from .modelspectra import Spectrum
from .spaceform import unit_ball_volume

MIN_EIGENVALUE_COUNT = 100
WINDOW_FRACTION = 0.25
SLOPE_SNAP_THRESHOLD = 0.25


@dataclass(frozen=True)
class WeylFit:
    dimension_estimate: int
    volume_estimate: float
    window: tuple[float, float]
    residual: float

    def to_dict(self) -> dict:
        return {
            "dimension": self.dimension_estimate,
            "volume": self.volume_estimate,
            "window": [self.window[0], self.window[1]],
            "residual": self.residual,
        }


def _window_samples(spec: Spectrum):
    """Distinct positive eigenvalues in the top WINDOW_FRACTION tail, N there, and the window.

    Both fits stand on these samples, so both need MIN_EIGENVALUE_COUNT
    eigenvalues: a handful of low levels fits a volume far off the truth.
    """
    if spec.total_count < MIN_EIGENVALUE_COUNT:
        raise DomainError(
            f"need at least {MIN_EIGENVALUE_COUNT} eigenvalues counted with "
            f"multiplicity, got {spec.total_count}"
        )
    vals = spec.values
    counts = spec.cumulative_counts
    # MIN_EIGENVALUE_COUNT >= 1 eigenvalues, so there is a top one, and the
    # window always holds it.
    lam_hi = float(vals[-1])
    if lam_hi <= 0.0:
        raise DomainError("spectrum has no positive eigenvalues to fit")
    lam_lo = WINDOW_FRACTION * lam_hi
    mask = (vals >= lam_lo) & (vals > 0.0)
    return vals[mask], counts[mask].astype(float), (lam_lo, lam_hi)


def _slope_dimension(lam: np.ndarray, counts: np.ndarray) -> tuple[int, float]:
    """estimate_dimension's (dimension, diagnostic) from the window samples."""
    if len(lam) < 2:
        raise DomainError("the fit window has fewer than 2 distinct eigenvalues")
    # The least-squares slope of log N against log lam, on centred data.  A
    # mean is np.add.reduce over the size, the sum ndarray.mean takes, bit
    # for bit, without its per-call dispatch.
    x, y = np.log(lam), np.log(counts)
    x -= np.add.reduce(x) / x.size
    spread = float(x @ x)
    if not spread > 0.0:
        raise DomainError("the fit window's eigenvalues share one logarithm")
    slope = float(x @ (y - np.add.reduce(y) / y.size)) / spread
    n = round(2.0 * slope)
    diagnostic = abs(2.0 * slope - n)
    if diagnostic > SLOPE_SNAP_THRESHOLD or n < 1:
        raise CertificationError(
            "weyl-dimension",
            f"log-log slope {slope:.6g} gives 2s = {2 * slope:.6g}, "
            f"{diagnostic:.3g} away from an integer (threshold {SLOPE_SNAP_THRESHOLD})",
        )
    return int(n), diagnostic


def _median_volume(lam: np.ndarray, counts: np.ndarray, n: int) -> float:
    prefactor = (2.0 * math.pi) ** n / unit_ball_volume(n)
    # lam^(n/2) past every float reads volume 0, which weyl_fit refuses.
    with np.errstate(over="ignore"):
        ratios = np.sort(counts * prefactor / lam ** (0.5 * n))
    mid, odd = divmod(ratios.size, 2)
    return float(ratios[mid] if odd else (ratios[mid - 1] + ratios[mid]) / 2.0)


def estimate_dimension(spec: Spectrum) -> tuple[int, float]:
    """(dimension, diagnostic): snapped log-log slope of the counting function.

    The diagnostic is |2s - round(2s)| for the fitted slope s; values
    beyond 0.25 mean the input is not in the asymptotic regime (or is not
    a Laplace spectrum) and are rejected.
    """
    return _slope_dimension(*_window_samples(spec)[:2])


def estimate_volume(spec: Spectrum, n: int) -> float:
    """Median of N(lam) (2 pi)^n / (vol B^n_0(1) lam^(n/2)) over the window.

    unit_ball_volume checks that n is an integer >= 1.
    """
    return _median_volume(*_window_samples(spec)[:2], n)


def weyl_fit(spec: Spectrum) -> WeylFit:
    lam, counts, window = _window_samples(spec)
    n, diagnostic = _slope_dimension(lam, counts)
    try:
        volume = _positive(_median_volume(lam, counts, n), "volume estimate")
    except DomainError as exc:
        raise CertificationError("weyl-volume", str(exc)) from exc
    return WeylFit(n, volume, window, diagnostic)
