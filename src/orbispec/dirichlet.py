"""Lowest Dirichlet eigenvalue of geodesic balls in constant curvature.

The ground state of the Laplacian on a geodesic r-ball in the model space
is radial, so the eigenvalue problem reduces to a Sturm-Liouville problem

    -(1/w) (w f')' = lam f  on (0, r),   w = sn^(n-1),   f(r) = 0.

The diameter bound needs only an upper bound on its lowest eigenvalue
(Cheng's comparison): _ball_threshold gives one in closed form at every
curvature, and the limit the count runs to (proofs in bounds.diameter_bound).

lowest_dirichlet_eigenvalue returns the eigenvalue itself: exactly when
kappa = 0 or n = 3, and otherwise by the scaling law lam(n, kappa, r) =
lam(n, kappa r^2, 1) / r^2 and a quadratic-element (P2) Galerkin
discretization on [0, 1].  Shifted inverse iteration runs on LAPACK's
banded Cholesky factor (pbtrf/pbtrs) with a BLAS banded product (sbmv),
moves its shift once to just below the iterate's Rayleigh quotient when
that shift's pencil factors (so it stays below the lowest discrete
eigenvalue), and stops once the normalized iterate stops moving.  The
returned value is the Rayleigh quotient of that final P2 trial function,
summed element by element with the 6-point Gauss-Legendre rule.  By
Rayleigh-Ritz the exact quotient lies at or above the true eigenvalue
whether or not the iteration has converged; against a 40-point rule the
6-point quotient sits at most about 4e-15 relative below (n in {2, 4, 5},
kappa r^2 from -36 to (0.999 pi)^2).  No certificate rests on the Ritz
value: it serves lowest_dirichlet_eigenvalue and `orbispec eig-ball`, so
its LAPACK and BLAS routines load from scipy.linalg with the first Ritz
solve, and importing the package loads no scipy.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConvergenceError, DomainError, _positive
from .spaceform import SERIES_TOL, SpaceForm, bonnet_myers_cap, generalized_sin, newton_bracket

# Balls in positive curvature must stay strictly inside the antipodal cap;
# accuracy degrades as the friction term blows up near the cap.
CAP_SHRINK = 1.0 - 1e-9
# Eigenvalues up to this many times the sum of the threshold's terms'
# magnitudes above it are counted: a larger rho weakens the bound but never
# breaks soundness; a purely relative tolerance keeps rho scale covariant.
RHO_TOL_SCALE = 1e-9

# P2 elements on [0, 1]: 100 keeps the hemisphere value within 1e-8 of n.
RITZ_ELEMENTS = 100
# Inverse iteration stops once the max-norm change of the iterate (scaled to
# max-norm 1) is at most this, or after RITZ_MAX_ITER steps; either way the
# Rayleigh quotient of the last iterate is an upper bound.
RITZ_ITERATE_TOL = 1e-9
RITZ_MAX_ITER = 200
# Steering: once the iterate moves by at most RITZ_STEER_STEP, the shift is
# tried at RITZ_STEER_GAP of the way from the iterate's Rayleigh quotient rq
# back to the current shift, sigma' = rq - RITZ_STEER_GAP (rq - sigma), and
# kept only if its pencil factors.  A failed try is repeated once the step
# has shrunk tenfold.  These constants set only the cost of a solve, never
# its one-sidedness.
RITZ_STEER_STEP = 3e-2
RITZ_STEER_GAP = 1e-2

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
# mass matrix and then of an element stiffness matrix (rows quadrature
# points, columns the pairs below), so that one matmul with the volume
# density assembles every element of both forms; the nodes of every element
# (one row each, the Dirichlet node last); and the cosine start vector on
# the free nodes.
_H = 1.0 / RITZ_ELEMENTS
_T = (np.arange(RITZ_ELEMENTS)[:, None] + _XI[None, :]) * _H
_PAIRS = ((0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (0, 2))
_FORM_TABLE = np.concatenate(
    [
        _H * np.stack([_SHAPE[a] * _SHAPE[b] * _OMEGA for a, b in _PAIRS], axis=1),
        np.stack([_DSHAPE[a] * _DSHAPE[b] * _OMEGA for a, b in _PAIRS], axis=1) / _H,
    ],
    axis=1,
)
_ELEMENT_NODES = 2 * np.arange(RITZ_ELEMENTS)[:, None] + np.arange(3)
_START = np.cos(0.5 * math.pi * np.linspace(0.0, 1.0, 2 * RITZ_ELEMENTS + 1)[:-1])
_START.setflags(write=False)


class _Linalg(NamedTuple):
    """Banded Cholesky factor and solve, and the symmetric banded product,
    all in LAPACK's upper band storage with two superdiagonals; and the
    index of the entry largest in magnitude, for max norms without a
    temporary."""

    pbtrf: Callable
    pbtrs: Callable
    sbmv: Callable
    idamax: Callable


@functools.cache
def _linalg() -> _Linalg:
    """The Ritz kernel's LAPACK and BLAS routines, from scipy.linalg on first use."""
    from scipy.linalg import blas, get_blas_funcs, get_lapack_funcs

    pbtrf, pbtrs = get_lapack_funcs(("pbtrf", "pbtrs"), dtype=np.float64)
    return _Linalg(pbtrf, pbtrs, get_blas_funcs("sbmv", dtype=np.float64), blas.idamax)


def _check_ball(sf: SpaceForm, r: float) -> float:
    """r as a float, positive and finite and inside the antipodal cap."""
    r = _positive(r, "ball radius")
    if r > CAP_SHRINK * bonnet_myers_cap(sf.kappa):
        raise DomainError(
            f"ball radius {r:.9g} must stay strictly inside the antipodal cap "
            f"{bonnet_myers_cap(sf.kappa):.9g} (within factor {CAP_SHRINK})"
        )
    return r


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


def _bessel_step(n: int, x: float) -> float:
    """Newton step -J_nu(x) / J_nu'(x), nu = n/2 - 1, at a float x > 0.

    J_nu(x) is x^nu times the series _bessel_sign sums exactly, here summed
    in floats: with terms t_k, G = sum t_k and K = sum k t_k, the step is
    -x G / (nu G + 2 K).  It only steers; no sign is taken from it.
    """
    w = 0.5 * x * x
    term = total = peak = 1.0
    moment, k = 0.0, 0
    while True:
        k += 1
        g = k * (n + 2 * k - 2)
        term *= -w / g
        total += term
        moment += k * term
        peak = max(peak, abs(term))
        if g > w and abs(term) <= SERIES_TOL * peak:
            return -x * total / ((0.5 * n - 1.0) * total + 2.0 * moment)


@functools.lru_cache(maxsize=16)
def _first_bessel_zero(n: int) -> float:
    """First positive zero of J_(n/2 - 1), rounded up to a float; the flat
    unit-ball eigenvalue is its square.

    Inside sqrt((nu+1)(nu+5)) < j < sqrt(nu+1)(sqrt(nu+2)+1) each probe
    takes its side from the exact sign of J_nu and its Newton step from the
    same series in floats (_bessel_step), so the bracket closes on the
    exact sign change: the upper end kept is the smallest float where
    J_nu <= 0, and (j/r)^2 never under-estimates the threshold.
    """
    nu = 0.5 * n - 1.0

    def probe(x: float) -> tuple[bool, float]:
        return _bessel_sign(n, x) > 0, _bessel_step(n, x)

    hi = math.sqrt(nu + 1.0) * (math.sqrt(nu + 2.0) + 1.0)
    return newton_bracket(probe, math.sqrt((nu + 1.0) * (nu + 5.0)), hi, hi)[1]


def _threshold_form(n: int, kappa: float) -> tuple[str, float, float]:
    """(route, q, c): the pipelines' ball threshold is Lambda(r) = (q/r)^2 -
    c kappa on every route (the routes and their proofs are in
    bounds.diameter_bound), strictly decreasing in r with the inverse
    r = q / sqrt(Lambda + c kappa).  The one place the route is decided.
    """
    if n == 3 and kappa != 0.0:
        return "n3-closed-form", math.pi, 1.0
    if kappa < 0:
        return "liouville", _first_bessel_zero(n), 1.0 / 3.0 if n == 2 else 0.25 * (n - 1) ** 2
    return "flat-bessel", _first_bessel_zero(n), 0.0


def _threshold_top(n: int, kappa: float) -> Callable:
    """The closure top(r) of _ball_threshold, the form looked up once and
    c kappa, c |kappa| folded in, for a search over many radii; top(r, True)
    is (Lambda(r), top(r)).  The one copy of the threshold expression."""
    _, q, c = _threshold_form(n, kappa)
    shift, spread = c * kappa, c * abs(kappa)

    def top(r, with_lam: bool = False):
        q_r = q / r
        flat = q_r * q_r
        lam = flat - shift
        limit = lam + RHO_TOL_SCALE * (flat + spread)
        return (lam, limit) if with_lam else limit

    return top


def _ball_threshold(n: int, kappa: float, r):
    """(route, Lambda, top): the closed-form upper bound on the r-ball's
    lowest Dirichlet eigenvalue that the pipelines count below, and top =
    Lambda + RHO_TOL_SCALE ((q/r)^2 + c |kappa|), the limit rho counts up
    to: the sum of the terms' magnitudes is what the rounding error is
    relative to (the n = 3 difference cancels near the antipodal cap).

    One expression, evaluated per search (_threshold_top), so bounds'
    diameter_bound, search and breakpoints all agree on top bit for bit.
    No domain checks; r is a float or an array of radii.  The square is a
    product, correctly rounded for both, so a value over an array agrees
    bit for bit with the value at each of its radii.  Each step is a
    correctly rounded monotone operation, so both values are
    non-increasing in the float r.
    """
    return (_threshold_form(n, kappa)[0], *_threshold_top(n, kappa)(r, True))


def _refuse_overflow(lam: float, r: float, kappa: float) -> float:
    """lam, or a DomainError when the threshold at (r, kappa) is past every float."""
    if not math.isfinite(lam):
        raise DomainError(f"the ball threshold at r = {r!r}, kappa = {kappa!r} overflows")
    return lam


def _assemble_bands(local: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mass and stiffness matrices in upper banded form (3 rows each).

    local holds per element the six distinct entries of its mass matrix and
    then of its stiffness matrix, each in the order of _PAIRS.  Element e
    owns nodes 2e, 2e+1, 2e+2; the last node carries the Dirichlet condition
    and is dropped.  Both bands come out Fortran-contiguous, the layout the
    LAPACK/BLAS wrappers take without a copy.
    """
    m = RITZ_ELEMENTS
    local = local.reshape(m, 2, 6).transpose(1, 0, 2)
    ab = np.zeros((2, 2 * m + 1, 3))  # form, node, band row
    ab[:, 0:2 * m:2, 2] = local[:, :, 0]
    ab[:, 1::2, 2] = local[:, :, 1]
    ab[:, 2::2, 2] += local[:, :, 2]
    ab[:, 1::2, 1] = local[:, :, 3]
    ab[:, 2::2, 1] = local[:, :, 4]
    ab[:, 2::2, 0] = local[:, :, 5]
    return ab[0, :-1].T, ab[1, :-1].T


def _ritz_unit_ball(n: int, kappa: float) -> float:
    """P2 Rayleigh-Ritz upper bound on the lowest eigenvalue of the unit ball.

    Inverse iteration on the stiffness/mass pencil K - sigma M, with a
    banded Cholesky factor.  The first shift is safe by construction: when
    kappa < 0, McKean's lower bound (n-1)^2 |kappa| / 4 on the spectrum, so
    large hyperbolic balls converge as fast as small ones, and the shifted
    pencil stays positive definite because every Ritz value lies above the
    true eigenvalue; when kappa >= 0, sigma = -1, which keeps the
    factorization positive definite near the antipodal cap, where the
    lowest eigenvalue underflows.

    Once the iterate has settled (RITZ_STEER_STEP), the shift moves to just
    below its Rayleigh quotient rq (RITZ_STEER_GAP), which cuts the
    iterations to about half.  A steering shift is kept only if its pencil
    factors: by Sylvester's law of inertia K - sigma' M is positive definite
    exactly when sigma' lies below the lowest eigenvalue of the discrete
    pencil, so the iteration stays on the ground state.  A failed try keeps
    the old factor.  rq comes from the shifted forms already at hand, so it
    may cancel, but it only steers; the shift depends on nothing but the
    key, so a key's value does not depend on call order.

    The iteration stops once the iterate moves by at most RITZ_ITERATE_TOL
    in max norm.  The shifts and the stop only steer: the returned value is
    the Rayleigh quotient of the final iterate under the unshifted forms,
    summed from squared gradients and values element by element, so it
    carries no cancellation and bounds the eigenvalue from above whether or
    not the iteration has converged, up to the quadrature error (see the
    module docstring).
    """
    # A density past every float (an inf / inf when kappa r^2 is -inf) is
    # refused below; numpy need not warn first.
    with np.errstate(over="ignore", invalid="ignore"):
        w = generalized_sin(kappa, _T) ** (n - 1)
    if not np.isfinite(w).all():
        raise DomainError(f"the volume density of the kappa r^2 = {kappa!r} ball overflows")
    mass, stiff = _assemble_bands(w @ _FORM_TABLE)
    pbtrf, pbtrs, sbmv, idamax = _linalg()
    sigma = 0.25 * (n - 1) ** 2 * -kappa if kappa < 0 else -1.0
    chol, info = pbtrf(stiff - sigma * mass, overwrite_ab=1)
    if info != 0:
        raise ConvergenceError(
            f"banded Cholesky of the shifted Ritz pencil failed (LAPACK pbtrf info {info}) "
            f"at n = {n}, kappa r^2 = {kappa!r}"
        )
    steer_below = RITZ_STEER_STEP
    x = _START
    mx = sbmv(2, 1.0, mass, x)
    for _ in range(RITZ_MAX_ITER):
        y, info = pbtrs(chol, mx)
        if info != 0:
            raise ConvergenceError(
                f"banded Cholesky solve of the Ritz pencil failed (LAPACK pbtrs info {info}) "
                f"at n = {n}, kappa r^2 = {kappa!r}"
            )
        my = sbmv(2, 1.0, mass, y)
        scale = 1.0 / abs(y[idamax(y)])
        y *= scale
        dy = y - x
        step = abs(dy[idamax(dy)])
        if step <= steer_below:
            # (K - sigma M) y = M x, so rq(y) = sigma + y.Mx / y.My.
            rq = sigma + float(y @ mx) / float(y @ my)
            steered = sigma + (1.0 - RITZ_STEER_GAP) * (rq - sigma)
            factor, info = pbtrf(stiff - steered * mass, overwrite_ab=1)
            if info == 0:
                chol, sigma, steer_below = factor, steered, -1.0
            else:
                steer_below = 0.1 * step
        x = y
        mx = my * scale
        if step <= RITZ_ITERATE_TOL:
            break
    nodes = np.append(x, 0.0)[_ELEMENT_NODES]
    grad = nodes @ _DSHAPE
    val = nodes @ _SHAPE
    wq = w * _OMEGA
    return float(np.sum(wq * grad * grad)) / (_H * _H * float(np.sum(wq * val * val)))


def lowest_dirichlet_eigenvalue(sf: SpaceForm, r: float) -> float:
    """Lowest Dirichlet eigenvalue of the geodesic r-ball in the model space.

    Exact closed forms for kappa = 0 and n = 3 (there the pipelines'
    threshold is exact); elsewhere a P2 Rayleigh-Ritz value, which is a
    one-sided upper bound on the true eigenvalue.  A value past every float
    (a tiny ball) is a DomainError.
    """
    r = _check_ball(sf, r)
    n, kappa = sf.n, sf.kappa
    if kappa == 0.0 or n == 3:
        lam = _ball_threshold(n, kappa, r)[1]
    else:
        rr = r * r
        lam = _ritz_unit_ball(n, kappa * r * r) / rr if rr > 0.0 else math.inf
    return _refuse_overflow(lam, r, kappa)
