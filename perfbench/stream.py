"""Seeded request streams, scaled ground truth and the soundness checker.

Nothing here imports orbispec at module level: the benchmark times the
library import as part of set-up, and the self-tests import this module
without paying for it.
"""

from __future__ import annotations

import itertools
import math
import random
from collections.abc import Iterator
from dataclasses import dataclass

# Full truncations per (kind, dimension); the same values `orbispec verify`
# uses without --quick.
FULL_TRUNCATIONS = {
    ("round_sphere", 2): 10100.0,
    ("sphere_quotient", 2): 10100.0,
    ("round_sphere", 3): 4032.0,
    ("sphere_quotient", 3): 4032.0,
    ("flat_torus", 2): 64000.0,
    ("torus_quotient", 2): 64000.0,
}

TORUS_FAMILY = ("t2", "pillowcase", "t2-mod-4")
CATALOG_ORDER = (
    "s2", "s2-mod-2", "s2-mod-3", "s2-mod-4", "s2-mod-6",
    "t2", "pillowcase", "t2-mod-4", "s3", "lens-4-1",
)
# certify-stream cycle: every catalog model once, kinds interleaved, each
# with a fixed curvature mode.  All s2-mod-k take the exact kappa (where the
# seed's isotropy defect shows); the tori take both modes, so the loose
# kappa (K - u) c^-2 < 0 exercises the hyperbolic branch.
STREAM_CYCLE = (
    ("s2-mod-2", "exact"), ("t2", "loose"), ("s3", "loose"), ("s2-mod-3", "exact"),
    ("pillowcase", "loose"), ("lens-4-1", "exact"), ("s2-mod-4", "exact"),
    ("t2-mod-4", "exact"), ("s2", "loose"), ("s2-mod-6", "exact"),
)

SCALE_RANGE = (0.5, 2.0)  # c, drawn log-uniformly
# u in kappa = (K - u) c^-2.  Fixed, so a certificate's slack depends on the
# model and mode only (the bounds are scale covariant) and not on the seed.
LOOSENING = 0.75
SWEEP_RANGE = (8000.0, 256000.0)  # truncations, drawn log-uniformly
SWEEP_STRATA = 4
SWEEP_CYCLE = SWEEP_STRATA * len(TORUS_FAMILY)

# A diameter bound may undershoot the true diameter by this relative amount
# (the Bonnet-Myers clamp pi / sqrt(kappa) at kappa = c^-2 is c pi up to rounding).
DIAMETER_RTOL = 1e-9

CHECKS = ("diameter", "isotropy", "singular")


@dataclass(frozen=True)
class CertifyRequest:
    """Spectrum-only request: catalog spectrum scaled by c, curvature bound kappa."""

    index: int
    model_id: str
    c: float
    mode: str  # "exact": kappa = K c^-2; "loose": kappa = (K - LOOSENING) c^-2
    kappa: float


@dataclass(frozen=True)
class SweepRequest:
    """Torus-family request: exact spectrum at a truncation, given n and v, kappa = 0."""

    index: int | str
    model_id: str
    truncation: float


@dataclass(frozen=True)
class Truth:
    """Ground truth a certificate is checked against."""

    dimension: int
    volume: float
    diameter: float
    max_isotropy_order: int
    isolated_singular_count: int


def certify_requests(seed: int, curvature: dict[str, float]) -> Iterator[CertifyRequest]:
    """The endless certify-stream request sequence, in cycles of STREAM_CYCLE.

    Every cycle holds the same models and modes whatever the seed; the seed
    draws the scale c of each request.
    """
    rng = random.Random(f"certify-stream:{seed}")
    lo, hi = (math.log(x) for x in SCALE_RANGE)
    index = itertools.count()
    while True:
        for model_id, mode in STREAM_CYCLE:
            c = math.exp(rng.uniform(lo, hi))
            k = curvature[model_id] - (LOOSENING if mode == "loose" else 0.0)
            yield CertifyRequest(next(index), model_id, c, mode, k / (c * c))


def sweep_requests(seed: int) -> Iterator[SweepRequest]:
    """The endless truncation-sweep request sequence.

    Stratified log-uniform truncations: each cycle of SWEEP_CYCLE requests
    gives every torus-family model one truncation in each of SWEEP_STRATA
    equal log-width strata, in a seeded order, so medians over whole cycles
    move little between seeds.
    """
    rng = random.Random(f"truncation-sweep:{seed}")
    lo, hi = (math.log(x) for x in SWEEP_RANGE)
    width = (hi - lo) / SWEEP_STRATA
    index = itertools.count()
    while True:
        cells = [(m, s) for m in TORUS_FAMILY for s in range(SWEEP_STRATA)]
        rng.shuffle(cells)
        for model_id, stratum in cells:
            t = math.exp(lo + width * (stratum + rng.random()))
            yield SweepRequest(next(index), model_id, t)


def model_truth(model) -> Truth:
    return Truth(
        model.dimension,
        model.volume,
        model.diameter,
        model.max_isotropy_order,
        model.isolated_singular_count,
    )


def scaled_truth(truth: Truth, c: float) -> Truth:
    """Metric scaled by c: diameter x c, volume x c^n, caps unchanged."""
    return Truth(
        truth.dimension,
        truth.volume * c**truth.dimension,
        truth.diameter * c,
        truth.max_isotropy_order,
        truth.isolated_singular_count,
    )


def scaled_spectrum(spec, c: float):
    """Eigenvalues and truncation x c^-2: the spectrum of the metric scaled by c."""
    s = 1.0 / (c * c)
    return type(spec)(
        tuple((v * s, m) for v, m in spec.entries), spec.truncation * s, spec.dimension
    )


def unsound_checks(
    truth: Truth, diameter: float, isotropy_cap: int, singular_cap: int | None
) -> list[str]:
    """Names of the certified quantities that fall on the wrong side of the truth."""
    bad = []
    if not diameter >= truth.diameter * (1.0 - DIAMETER_RTOL):
        bad.append("diameter")
    if not isotropy_cap >= truth.max_isotropy_order:
        bad.append("isotropy")
    if singular_cap is not None and not singular_cap >= truth.isolated_singular_count:
        bad.append("singular")
    return bad


def known_defect(model_id: str, mode: str, check: str) -> bool:
    """The recorded seed defect: isotropy cap k - 1 on s2-mod-k at exact kappa.

    The Weyl volume estimate runs about 1.4% high and D clamps to the whole
    sphere, so floor(ball_volume(D) / volume) drops to k - 1.  Such requests
    count as failed; only unsoundness outside this set makes a run incorrect.
    """
    return check == "isotropy" and mode == "exact" and model_id.startswith("s2-mod-")
