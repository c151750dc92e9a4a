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
  and a quadratic-element (P2) Galerkin discretization on [0, 1].  The
  returned value is the Rayleigh quotient of a P2 trial function, which by
  Rayleigh-Ritz lies at or above the true eigenvalue whether or not the
  inverse iteration producing it has fully converged.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded
from scipy.optimize import brentq
from scipy.special import jv

from .errors import ConvergenceError, DomainError
from .spaceform import SpaceForm, bonnet_myers_cap, generalized_sin

# Balls in positive curvature must stay strictly inside the antipodal cap;
# accuracy degrades as the friction term blows up near the cap.
CAP_SHRINK = 1.0 - 1e-9

# P2 elements on [0, 1]: 100 keeps the hemisphere value within 1e-8 of n.
RITZ_ELEMENTS = 100
# Inverse iteration stops once the Rayleigh quotient drops by less than this
# relative amount, or after RITZ_MAX_ITER steps; either way it is an upper bound.
RITZ_RTOL = 1e-15
RITZ_MAX_ITER = 200

# Six-point Gauss-Legendre rule on the reference element [0, 1], and the
# quadratic Lagrange shape functions (nodes 0, 1/2, 1) and their derivatives
# at its nodes: rows are shape functions, columns quadrature points.
_GL_X, _GL_W = np.polynomial.legendre.leggauss(6)
_XI = 0.5 * (_GL_X + 1.0)
_OMEGA = 0.5 * _GL_W
_SHAPE = np.array([2 * _XI**2 - 3 * _XI + 1, 4 * _XI * (1 - _XI), 2 * _XI**2 - _XI])
_DSHAPE = np.array([4 * _XI - 3, 4 - 8 * _XI, 4 * _XI - 1])


def _check_ball(sf: SpaceForm, r: float):
    if not (math.isfinite(r) and r > 0):
        raise DomainError(f"ball radius must be positive and finite, got {r!r}")
    if sf.kappa > 0 and r > CAP_SHRINK * bonnet_myers_cap(sf.kappa):
        raise DomainError(
            f"ball radius {r:.9g} must stay strictly inside the antipodal cap "
            f"{bonnet_myers_cap(sf.kappa):.9g} (within factor {CAP_SHRINK})"
        )


@functools.lru_cache(maxsize=16)
def _first_bessel_zero(n: int) -> float:
    """First positive zero of J_(n/2 - 1); the flat unit-ball eigenvalue is its square."""
    nu = 0.5 * n - 1.0
    x = max(nu, 0.0) + 0.1
    fx = jv(nu, x)
    step = 0.2
    for _ in range(400):
        x2 = x + step
        fx2 = jv(nu, x2)
        if fx > 0 and fx2 <= 0:
            return brentq(lambda t: jv(nu, t), x, x2, xtol=1e-13, rtol=1e-15)
        x, fx = x2, fx2
    raise ConvergenceError(f"no sign change found for Bessel order {nu}")


def _assemble_band(local: np.ndarray) -> np.ndarray:
    """Upper banded form (3 rows) of the global matrix from per-element 3x3 blocks.

    Element e owns nodes 2e, 2e+1, 2e+2; the last node carries the Dirichlet
    condition and is dropped.
    """
    m = local.shape[0]
    ab = np.zeros((3, 2 * m + 1))
    ab[2, 0:2 * m:2] += local[:, 0, 0]
    ab[2, 1::2] += local[:, 1, 1]
    ab[2, 2::2] += local[:, 2, 2]
    ab[1, 1::2] += local[:, 0, 1]
    ab[1, 2::2] += local[:, 1, 2]
    ab[0, 2::2] += local[:, 0, 2]
    return ab[:, :-1]


def _band_matvec(ab: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Product of the symmetric matrix in upper banded form with x."""
    y = ab[2] * x
    y[:-1] += ab[1, 1:] * x[1:]
    y[1:] += ab[1, 1:] * x[:-1]
    y[:-2] += ab[0, 2:] * x[2:]
    y[2:] += ab[0, 2:] * x[:-2]
    return y


def _ritz_unit_ball(n: int, kappa: float) -> float:
    """P2 Rayleigh-Ritz upper bound on the lowest eigenvalue of the unit ball.

    Inverse iteration on the stiffness/mass pencil shifted by sigma.  When
    kappa < 0, sigma is McKean's lower bound (n-1)^2 |kappa| / 4 on the
    spectrum, so large hyperbolic balls converge as fast as small ones; the
    shifted pencil stays positive definite because every Ritz value lies
    above the true eigenvalue.  When kappa >= 0, sigma = -1 keeps the
    factorization positive definite near the antipodal cap, where the lowest
    eigenvalue underflows.  The shift only steers the iteration: the
    returned quotient is that of the unshifted forms, summed from squared
    gradients and values element by element, so it carries no cancellation.
    """
    m = RITZ_ELEMENTS
    h = 1.0 / m
    t = (np.arange(m)[:, None] + _XI[None, :]) * h
    wq = generalized_sin(kappa, t) ** (n - 1) * _OMEGA
    if not np.isfinite(wq).all():
        raise DomainError(f"the volume density of the kappa r^2 = {kappa!r} ball overflows")
    mass = _assemble_band(h * np.einsum("eq,aq,bq->eab", wq, _SHAPE, _SHAPE))
    stiff = _assemble_band(np.einsum("eq,aq,bq->eab", wq, _DSHAPE, _DSHAPE) / h)
    sigma = 0.25 * (n - 1) ** 2 * -kappa if kappa < 0 else -1.0
    chol = cholesky_banded(stiff - sigma * mass)

    def quotient(x: np.ndarray) -> float:
        nodes = np.append(x, 0.0)
        local = np.stack([nodes[0:-1:2], nodes[1::2], nodes[2::2]], axis=1)
        grad = local @ _DSHAPE
        val = local @ _SHAPE
        return float(np.sum(wq * grad * grad)) / (h * h * float(np.sum(wq * val * val)))

    x = np.cos(0.5 * math.pi * np.linspace(0.0, 1.0, 2 * m + 1)[:-1])
    best = quotient(x)
    for _ in range(RITZ_MAX_ITER):
        x = cho_solve_banded((chol, False), _band_matvec(mass, x), check_finite=False)
        x /= np.abs(x).max()
        q = quotient(x)
        if best - q <= RITZ_RTOL * q:
            return min(best, q)
        best = q
    return best


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
