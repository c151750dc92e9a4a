"""Lowest Dirichlet eigenvalue of geodesic balls in constant curvature.

The ground state of the Laplacian on a geodesic r-ball in the model space
is radial, so the eigenvalue problem reduces to a Sturm-Liouville problem

    -(1/w) (w f')' = lam f  on (0, r),   w = sn^(n-1),   f(r) = 0,

and the diameter bound needs its lowest eigenvalue never *under*-estimated
(Cheng's comparison).  Three routes, chosen by the input:

* kappa = 0: lam = j_(n/2-1,1)^2 / r^2, the first Bessel zero squared.
* n = 3, any kappa: lam = pi^2 / r^2 - kappa exactly, since
  f = sin(sqrt(lam + kappa) t) / sn(t) solves the equation.
* otherwise: the scaling law lam(n, kappa, r) = lam(n, kappa r^2, 1) / r^2
  and a quadratic-element (P2) Galerkin discretization on [0, 1].  Shifted
  inverse iteration runs on LAPACK's banded Cholesky factor (pbtrf/pbtrs)
  with a BLAS banded product (sbmv) and stops once the normalized iterate
  stops moving.  The returned value is one exact element-wise Rayleigh
  quotient of that final P2 trial function, which by Rayleigh-Ritz lies at
  or above the true eigenvalue whether or not the iteration has converged.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.linalg import get_blas_funcs, get_lapack_funcs
from scipy.special import jv

from .errors import ConvergenceError, DomainError
from .spaceform import SpaceForm, bonnet_myers_cap, generalized_sin, newton_bracket

# Balls in positive curvature must stay strictly inside the antipodal cap;
# accuracy degrades as the friction term blows up near the cap.
CAP_SHRINK = 1.0 - 1e-9

# P2 elements on [0, 1]: 100 keeps the hemisphere value within 1e-8 of n.
RITZ_ELEMENTS = 100
# Inverse iteration stops once the max-norm change of the iterate (scaled to
# max-norm 1) is at most this, or after RITZ_MAX_ITER steps; either way the
# Rayleigh quotient of the last iterate is an upper bound.
RITZ_ITERATE_TOL = 1e-9
RITZ_MAX_ITER = 200

# Six-point Gauss-Legendre rule on the reference element [0, 1], and the
# quadratic Lagrange shape functions (nodes 0, 1/2, 1) and their derivatives
# at its nodes: rows are shape functions, columns quadrature points.
_GL_X, _GL_W = np.polynomial.legendre.leggauss(6)
_XI = 0.5 * (_GL_X + 1.0)
_OMEGA = 0.5 * _GL_W
_SHAPE = np.array([2 * _XI**2 - 3 * _XI + 1, 4 * _XI * (1 - _XI), 2 * _XI**2 - _XI])
_DSHAPE = np.array([4 * _XI - 3, 4 - 8 * _XI, 4 * _XI - 1])

# Quadrature points of every element (one row each); the weighted
# shape-function products behind the six distinct entries of an element
# matrix (rows quadrature points, columns the pairs below), so that one
# matmul with the volume density assembles every element; and the cosine
# start vector on the free nodes.
_H = 1.0 / RITZ_ELEMENTS
_T = (np.arange(RITZ_ELEMENTS)[:, None] + _XI[None, :]) * _H
_PAIRS = ((0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (0, 2))
_MASS_TABLE = _H * np.stack([_SHAPE[a] * _SHAPE[b] * _OMEGA for a, b in _PAIRS], axis=1)
_STIFF_TABLE = np.stack([_DSHAPE[a] * _DSHAPE[b] * _OMEGA for a, b in _PAIRS], axis=1) / _H
_START = np.cos(0.5 * math.pi * np.linspace(0.0, 1.0, 2 * RITZ_ELEMENTS + 1)[:-1])
_START.setflags(write=False)

# Banded Cholesky factor and solve, and the symmetric banded product, all in
# LAPACK's upper band storage with two superdiagonals.
_pbtrf, _pbtrs = get_lapack_funcs(("pbtrf", "pbtrs"), dtype=np.float64)
_sbmv = get_blas_funcs("sbmv", dtype=np.float64)


def _check_ball(sf: SpaceForm, r: float):
    if not (math.isfinite(r) and r > 0):
        raise DomainError(f"ball radius must be positive and finite, got {r!r}")
    if sf.kappa > 0 and r > CAP_SHRINK * bonnet_myers_cap(sf.kappa):
        raise DomainError(
            f"ball radius {r:.9g} must stay strictly inside the antipodal cap "
            f"{bonnet_myers_cap(sf.kappa):.9g} (within factor {CAP_SHRINK})"
        )


def _bessel_sign(n: int, x: float) -> int:
    """Exact sign of J_(n/2 - 1)(x) at a float x > 0.

    With w = x^2/2, J_(n/2-1)(x) is a positive multiple of the alternating
    series sum_k (-w)^k / (k! n (n+2) ... (n+2k-2)), summed exactly in
    integers (x is a dyadic rational) until the terms decrease and the
    partial sum outweighs the next term, which bounds the tail.
    """
    num, den = x.as_integer_ratio()
    p, q = num * num, 2 * den * den
    # After k terms the partial sum is total / D and the last term is
    # term / D, with D = g_0 ... g_(k-1) and g_k = q (k+1) (n+2k).
    total, term, k = 1, 1, 0
    while True:
        g = q * (k + 1) * (n + 2 * k)
        if p <= g and abs(total) * g > abs(term) * p:
            return (total > 0) - (total < 0)
        term *= -p
        total = total * g + term
        k += 1


@functools.lru_cache(maxsize=16)
def _first_bessel_zero(n: int) -> float:
    """First positive zero of J_(n/2 - 1), rounded up to a float; the flat
    unit-ball eigenvalue is its square.

    Newton steps on jv inside sqrt((nu+1)(nu+5)) < j < sqrt(nu+1)(sqrt(nu+2)+1)
    close the bracket to adjacent floats, and the upper end is kept.  jv
    rounds, so its sign change can sit a float off; the exact sign then
    walks that end to the smallest float where J_nu <= 0, and (j/r)^2 never
    under-estimates the threshold.
    """
    nu = 0.5 * n - 1.0

    def probe(x: float) -> tuple[bool, float]:
        f = float(jv(nu, x))
        return f > 0.0, f / (nu / x * f - float(jv(nu - 1.0, x)))

    hi = math.sqrt(nu + 1.0) * (math.sqrt(nu + 2.0) + 1.0)
    x = newton_bracket(probe, math.sqrt((nu + 1.0) * (nu + 5.0)), hi, hi)[1]
    while _bessel_sign(n, x) > 0:
        x = math.nextafter(x, math.inf)
    while _bessel_sign(n, math.nextafter(x, 0.0)) <= 0:
        x = math.nextafter(x, 0.0)
    return x


def _assemble_band(local: np.ndarray) -> np.ndarray:
    """Upper banded form (3 rows) of the global matrix from per-element entries.

    local holds the six distinct entries of each element matrix, in the
    order of _PAIRS.  Element e owns nodes 2e, 2e+1, 2e+2; the last node
    carries the Dirichlet condition and is dropped.
    """
    m = RITZ_ELEMENTS
    ab = np.zeros((3, 2 * m + 1))
    ab[2, 0:2 * m:2] = local[:, 0]
    ab[2, 1::2] = local[:, 1]
    ab[2, 2::2] += local[:, 2]
    ab[1, 1::2] = local[:, 3]
    ab[1, 2::2] = local[:, 4]
    ab[0, 2::2] = local[:, 5]
    return ab[:, :-1]


def _ritz_unit_ball(n: int, kappa: float) -> float:
    """P2 Rayleigh-Ritz upper bound on the lowest eigenvalue of the unit ball.

    Inverse iteration on the stiffness/mass pencil shifted by sigma, with a
    banded Cholesky factor.  When kappa < 0, sigma is McKean's lower bound
    (n-1)^2 |kappa| / 4 on the spectrum, so large hyperbolic balls converge
    as fast as small ones; the shifted pencil stays positive definite
    because every Ritz value lies above the true eigenvalue.  When
    kappa >= 0, sigma = -1 keeps the factorization positive definite near
    the antipodal cap, where the lowest eigenvalue underflows.  The
    iteration stops once the iterate moves by at most RITZ_ITERATE_TOL in
    max norm.  The shift and the stop only steer the iteration: the returned
    value is the Rayleigh quotient of the final iterate under the unshifted
    forms, summed from squared gradients and values element by element, so
    it carries no cancellation and bounds the eigenvalue from above whether
    or not the iteration has converged.
    """
    w = generalized_sin(kappa, _T) ** (n - 1)
    if not np.isfinite(w).all():
        raise DomainError(f"the volume density of the kappa r^2 = {kappa!r} ball overflows")
    mass = _assemble_band(w @ _MASS_TABLE)
    stiff = _assemble_band(w @ _STIFF_TABLE)
    sigma = 0.25 * (n - 1) ** 2 * -kappa if kappa < 0 else -1.0
    chol, info = _pbtrf(stiff - sigma * mass)
    if info != 0:
        raise ConvergenceError(
            f"banded Cholesky of the shifted Ritz pencil failed (LAPACK pbtrf info {info}) "
            f"at n = {n}, kappa r^2 = {kappa!r}"
        )
    x = _START
    for _ in range(RITZ_MAX_ITER):
        y, info = _pbtrs(chol, _sbmv(2, 1.0, mass, x))
        if info != 0:
            raise ConvergenceError(
                f"banded Cholesky solve of the Ritz pencil failed (LAPACK pbtrs info {info}) "
                f"at n = {n}, kappa r^2 = {kappa!r}"
            )
        y /= np.abs(y).max()
        step = np.abs(y - x).max()
        x = y
        if step <= RITZ_ITERATE_TOL:
            break
    nodes = np.append(x, 0.0)
    local = np.stack([nodes[0:-1:2], nodes[1::2], nodes[2::2]], axis=1)
    grad = local @ _DSHAPE
    val = local @ _SHAPE
    wq = w * _OMEGA
    return float(np.sum(wq * grad * grad)) / (_H * _H * float(np.sum(wq * val * val)))


def lowest_dirichlet_eigenvalue(sf: SpaceForm, r: float) -> float:
    """Lowest Dirichlet eigenvalue of the geodesic r-ball in the model space.

    Exact closed forms for kappa = 0 and n = 3; elsewhere a P2 Rayleigh-Ritz
    value, which is a one-sided upper bound on the true eigenvalue.
    """
    _check_ball(sf, r)
    n, kappa = sf.n, sf.kappa
    if kappa == 0.0:
        return (_first_bessel_zero(n) / r) ** 2
    if n == 3:
        return (math.pi / r) ** 2 - kappa
    return _ritz_unit_ball(n, kappa * r * r) / (r * r)
