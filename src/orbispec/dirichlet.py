"""Lowest Dirichlet eigenvalue of geodesic balls in constant curvature.

The ground state of the Laplacian on a geodesic r-ball in the model space
is radial, so the eigenvalue problem reduces to a Sturm-Liouville ODE

    f'' + (n-1) * (sn'/sn)(t) * f' + lam * f = 0,   f(0) = 1, f'(0) = 0,

whose lowest Dirichlet eigenvalue is the smallest lam for which the first
zero of f lands exactly at t = r.  Two independent routes are provided:

* a shooting solver (bracket the zero-crossing count, then root-find the
  boundary value in lam), and
* a symmetric finite-difference discretization of the weighted operator
  -(1/w)(w f')' with w = sn^(n-1), whose smallest eigenvalue converges at
  O(h^2) and serves as a cross-check oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import brentq
from scipy.special import jv

from .errors import ConvergenceError, DomainError
from .spaceform import SpaceForm, bonnet_myers_cap, generalized_sin

# Balls in positive curvature must stay strictly inside the antipodal cap;
# accuracy degrades as the friction term blows up near the cap.
CAP_SHRINK = 1.0 - 1e-9


@dataclass(frozen=True)
class ShootingConfig:
    """Knobs for the shooting solver.

    ode_step: initial integrator step (a length); None lets the integrator pick.
    lambda_bracket_growth: geometric factor for expanding the eigenvalue bracket.
    root_tol: relative tolerance on the eigenvalue.
    max_iter: cap on bracket expansions and root iterations.
    """

    ode_step: float | None = None
    lambda_bracket_growth: float = 1.6
    root_tol: float = 1e-10
    max_iter: int = 80

    def __post_init__(self):
        if self.ode_step is not None and not self.ode_step > 0:
            raise DomainError("ode_step must be positive or None")
        if not self.lambda_bracket_growth > 1.0:
            raise DomainError("lambda_bracket_growth must exceed 1")
        if not (0.0 < self.root_tol <= 1e-3):
            raise DomainError("root_tol must lie in (0, 1e-3]")
        if self.max_iter < 16:
            raise DomainError("max_iter must be at least 16")


DEFAULT_SHOOTING = ShootingConfig()

_memo: dict[tuple, float] = {}


def _check_ball(sf: SpaceForm, r: float):
    if not (math.isfinite(r) and r > 0):
        raise DomainError(f"ball radius must be positive and finite, got {r!r}")
    if sf.kappa > 0 and r > CAP_SHRINK * bonnet_myers_cap(sf.kappa):
        raise DomainError(
            f"ball radius {r:.9g} must stay strictly inside the antipodal cap "
            f"{bonnet_myers_cap(sf.kappa):.9g} (within factor {CAP_SHRINK})"
        )


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


_bessel_cache: dict[int, float] = {}


def _flat_guess(n: int, r: float) -> float:
    if n not in _bessel_cache:
        _bessel_cache[n] = _first_bessel_zero(n)
    z = _bessel_cache[n]
    return (z / r) ** 2


def _shoot(sf: SpaceForm, lam: float, r: float, cfg: ShootingConfig) -> tuple[int, float]:
    """Integrate the radial ODE at a trial eigenvalue.

    Returns (number of zero crossings of f on (t0, r], f(r)).  The start is
    pushed off the coordinate singularity with the series
    f(t) ~ 1 - lam t^2 / (2n).
    """
    n, kappa = sf.n, sf.kappa
    t0 = 1e-6 * r
    y0 = [1.0 - lam * t0 * t0 / (2.0 * n), -lam * t0 / n]
    s = math.sqrt(abs(kappa)) if kappa != 0.0 else 0.0

    def friction(t: float) -> float:
        if kappa == 0.0:
            return 1.0 / t
        if kappa > 0:
            return s / math.tan(s * t)
        return s / math.tanh(s * t)

    def rhs(t, y):
        return [y[1], -(n - 1) * friction(t) * y[1] - lam * y[0]]

    def crossing(t, y):
        return y[0]

    kwargs = {}
    if cfg.ode_step is not None:
        kwargs["first_step"] = min(cfg.ode_step, 0.5 * (r - t0))
    try:
        sol = solve_ivp(
            rhs, (t0, r), y0, method="RK45", rtol=1e-10, atol=1e-12, events=crossing, **kwargs
        )
    except ValueError as exc:
        # scipy's event location root-finds the crossing inside a step and
        # raises when the dense output does not change sign there.
        raise ConvergenceError(
            f"zero-crossing location failed at lam={lam!r}, r={r!r}: {exc}"
        ) from exc
    if not sol.success:
        raise ConvergenceError(f"radial ODE integration failed at lam={lam!r}: {sol.message}")
    return len(sol.t_events[0]), float(sol.y[0, -1])


def lowest_dirichlet_eigenvalue(sf: SpaceForm, r: float, cfg: ShootingConfig = DEFAULT_SHOOTING) -> float:
    """Lowest Dirichlet eigenvalue of the geodesic r-ball in the model space.

    Strategy: bracket the eigenvalue by the zero-crossing count of the
    radial solution (monotone in lam: below the eigenvalue the solution
    stays positive on (0, r], above it crosses), then root-find f(r) over
    the certified bracket.  Results are memoized; they are pure functions
    of (n, kappa, r, root_tol).
    """
    _check_ball(sf, r)
    key = (sf.n, sf.kappa, float(r), cfg.root_tol)
    if key in _memo:
        return _memo[key]

    growth = cfg.lambda_bracket_growth
    lam = _flat_guess(sf.n, r)
    crossings, _ = _shoot(sf, lam, r, cfg)
    lo = hi = None
    if crossings == 0:
        lo = lam
        for _ in range(cfg.max_iter):
            lam *= growth
            crossings, _ = _shoot(sf, lam, r, cfg)
            if crossings > 0:
                hi = lam
                break
            lo = lam
    else:
        hi = lam
        for _ in range(cfg.max_iter):
            lam /= growth
            crossings, _ = _shoot(sf, lam, r, cfg)
            if crossings == 0:
                lo = lam
                break
            hi = lam
    if lo is None or hi is None:
        raise ConvergenceError(
            f"failed to bracket the eigenvalue after {cfg.max_iter} expansions: "
            f"lo={lo!r} hi={hi!r} last lam={lam!r} crossings={crossings}"
        )

    f_lo = _shoot(sf, lo, r, cfg)[1]
    f_hi = _shoot(sf, hi, r, cfg)[1]
    if not (f_lo > 0 > f_hi):
        raise ConvergenceError(
            f"bracket [{lo!r}, {hi!r}] does not straddle a simple boundary zero "
            f"(f(r) = {f_lo!r}, {f_hi!r}); bracket growth may have skipped a branch"
        )
    lam_star = brentq(
        lambda x: _shoot(sf, x, r, cfg)[1],
        lo,
        hi,
        rtol=max(cfg.root_tol, 4e-16),
        maxiter=max(cfg.max_iter, 64),
    )
    _memo[key] = float(lam_star)
    return _memo[key]


def _fd_system(sf: SpaceForm, r: float, mesh_points: int):
    """Cell-centered symmetric discretization of -(1/w)(w f')' on (0, r).

    Cells are centered at (i + 1/2) h; the flux through t = 0 vanishes with
    the weight (natural closure at the coordinate singularity) and the
    Dirichlet value at t = r enters through a half-cell flux.
    """
    if not isinstance(mesh_points, int) or mesh_points < 64:
        raise DomainError(f"mesh_points must be an integer >= 64, got {mesh_points!r}")
    _check_ball(sf, r)
    m = mesh_points
    h = r / m
    edges = np.linspace(0.0, r, m + 1)
    centers = edges[:-1] + 0.5 * h
    w_edge = generalized_sin(sf.kappa, edges) ** (sf.n - 1)
    w_cent = generalized_sin(sf.kappa, centers) ** (sf.n - 1)

    diag = (w_edge[:-1] + w_edge[1:]) / h
    diag[-1] = (w_edge[-2] + 2.0 * w_edge[-1]) / h
    off = -w_edge[1:-1] / h
    mass = w_cent * h
    # Symmetrized generalized problem: B = M^(-1/2) K M^(-1/2).
    d = diag / mass
    e = off / np.sqrt(mass[:-1] * mass[1:])
    return d, e, centers, mass


def finite_difference_eigenvalue(sf: SpaceForm, r: float, mesh_points: int = 2048) -> float:
    """Smallest eigenvalue of the finite-difference Dirichlet operator.

    Independent O(h^2) cross-check for the shooting solver; combine two
    meshes with Richardson extrapolation when more accuracy is needed.
    """
    d, e, _, _ = _fd_system(sf, r, mesh_points)
    vals = eigh_tridiagonal(d, e, select="i", select_range=(0, 0), eigvals_only=True)
    return float(vals[0])


def finite_difference_ground_state(sf: SpaceForm, r: float, mesh_points: int = 2048):
    """(eigenvalue, cell centers, ground eigenfunction values) of the discretization."""
    d, e, centers, mass = _fd_system(sf, r, mesh_points)
    vals, vecs = eigh_tridiagonal(d, e, select="i", select_range=(0, 0))
    f = vecs[:, 0] / np.sqrt(mass)
    if f[0] < 0:
        f = -f
    f = f / f[0] if f[0] != 0 else f
    return float(vals[0]), centers, f


def rayleigh_quotient_discrete(values, gradient_norms, weights) -> float:
    """Discrete Rayleigh quotient: sum(w |g|^2) / sum(w v^2).

    Any admissible trial vector gives an upper bound for the lowest
    Dirichlet eigenvalue, so this is the cheap sanity check against both
    solvers above.
    """
    v = np.asarray(values, dtype=float)
    g = np.asarray(gradient_norms, dtype=float)
    w = np.asarray(weights, dtype=float)
    if v.shape != g.shape or v.shape != w.shape:
        raise DomainError("values, gradient_norms and weights must share a shape")
    if np.any(w < 0):
        raise DomainError("quadrature weights must be nonnegative")
    denom = float(np.sum(w * v * v))
    if denom <= 0.0:
        raise DomainError("trial function has zero weighted norm")
    return float(np.sum(w * g * g)) / denom
