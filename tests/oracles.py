"""Independent oracles the test suite checks the package against.

Each function here recomputes a quantity the package provides, by a different
route: a different discretization, a different series expansion, a different
enumeration order, or plain sampling.  Tests freeze oracle outputs as
literals where a value is load-bearing, and call these routines directly for
randomized sweeps.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import brentq
from scipy.stats import norm, qmc

from orbispec.dirichlet import _first_bessel_zero
from orbispec.errors import ConvergenceError, DomainError
from orbispec.spaceform import SpaceForm, generalized_sin, sphere_measure

# Shooting-solver knobs: bracket growth factor, relative root tolerance, and
# the cap on bracket expansions and root iterations.
SHOOT_GROWTH = 1.6
SHOOT_ROOT_TOL = 1e-10
SHOOT_MAX_ITER = 80


def _shoot(sf: SpaceForm, lam: float, r: float) -> tuple[int, float]:
    """Integrate the radial ODE f'' + (n-1)(sn'/sn) f' + lam f = 0 at a trial lam.

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

    try:
        sol = solve_ivp(rhs, (t0, r), y0, method="RK45", rtol=1e-10, atol=1e-12, events=crossing)
    except ValueError as exc:
        # scipy's event location root-finds the crossing inside a step and
        # raises when the dense output does not change sign there.
        raise ConvergenceError(
            f"zero-crossing location failed at lam={lam!r}, r={r!r}: {exc}"
        ) from exc
    if not sol.success:
        raise ConvergenceError(f"radial ODE integration failed at lam={lam!r}: {sol.message}")
    return len(sol.t_events[0]), float(sol.y[0, -1])


def shooting_eigenvalue(sf: SpaceForm, r: float) -> float:
    """Lowest Dirichlet eigenvalue of the r-ball by shooting on the radial ODE.

    Brackets the eigenvalue by the zero-crossing count of the radial
    solution (below the eigenvalue it stays positive on (0, r], above it
    crosses), then root-finds f(r) over the bracket.  Independent of the
    package's closed forms and Rayleigh-Ritz route.
    """
    if not (math.isfinite(r) and r > 0):
        raise DomainError(f"ball radius must be positive and finite, got {r!r}")
    # Start the bracket at the flat-ball value (j_(n/2-1,1) / r)^2.
    lam = (_first_bessel_zero(sf.n) / r) ** 2
    crossings, _ = _shoot(sf, lam, r)
    lo = hi = None
    if crossings == 0:
        lo = lam
        for _ in range(SHOOT_MAX_ITER):
            lam *= SHOOT_GROWTH
            crossings, _ = _shoot(sf, lam, r)
            if crossings > 0:
                hi = lam
                break
            lo = lam
    else:
        hi = lam
        for _ in range(SHOOT_MAX_ITER):
            lam /= SHOOT_GROWTH
            crossings, _ = _shoot(sf, lam, r)
            if crossings == 0:
                lo = lam
                break
            hi = lam
    if lo is None or hi is None:
        raise ConvergenceError(f"failed to bracket the eigenvalue: lo={lo!r} hi={hi!r}")
    f_lo = _shoot(sf, lo, r)[1]
    f_hi = _shoot(sf, hi, r)[1]
    if not (f_lo > 0 > f_hi):
        raise ConvergenceError(
            f"bracket [{lo!r}, {hi!r}] does not straddle a simple boundary zero "
            f"(f(r) = {f_lo!r}, {f_hi!r})"
        )
    return float(
        brentq(lambda x: _shoot(sf, x, r)[1], lo, hi, rtol=SHOOT_ROOT_TOL, maxiter=SHOOT_MAX_ITER)
    )


def _fd_system(sf: SpaceForm, r: float, mesh_points: int):
    """Cell-centered symmetric discretization of -(1/w)(w f')' on (0, r).

    Cells are centered at (i + 1/2) h; the flux through t = 0 vanishes with
    the weight (natural closure at the coordinate singularity) and the
    Dirichlet value at t = r enters through a half-cell flux.
    """
    if not isinstance(mesh_points, int) or mesh_points < 64:
        raise DomainError(f"mesh_points must be an integer >= 64, got {mesh_points!r}")
    if not (math.isfinite(r) and r > 0):
        raise DomainError(f"ball radius must be positive and finite, got {r!r}")
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
    return d, e


def finite_difference_eigenvalue(sf: SpaceForm, r: float, mesh_points: int = 2048) -> float:
    """Smallest eigenvalue of the O(h^2) finite-difference Dirichlet operator."""
    d, e = _fd_system(sf, r, mesh_points)
    vals = eigh_tridiagonal(d, e, select="i", select_range=(0, 0), eigvals_only=True)
    return float(vals[0])


def richardson_fd_eigenvalue(sf: SpaceForm, r: float, mesh: int = 2048) -> float:
    """Richardson-extrapolated finite-difference ground eigenvalue.

    Combining meshes m and 2m as (4 l(2m) - l(m)) / 3 cancels the leading
    O(h^2) error term of the second-order discretization.
    """
    coarse = finite_difference_eigenvalue(sf, r, mesh_points=mesh)
    fine = finite_difference_eigenvalue(sf, r, mesh_points=2 * mesh)
    return (4.0 * fine - coarse) / 3.0


def sobol_two_cap_complement(
    d: int, alpha: float, theta: float, n_samples: int, seed: int = 0
) -> tuple[float, float]:
    """Quasi-random estimate (value, sigma) of the two-cap complement measure.

    Places the two cap centers at mutual angle pi - 2*alpha in the plane of
    the first two coordinates, samples S^d through a Sobol sequence mapped by
    Gaussian inverse-CDF and normalization, and averages the indicator of
    "outside both caps of angular radius theta".  sigma uses the binomial
    formula, conservative for a low-discrepancy sequence.
    """
    gamma = 0.5 * math.pi - alpha
    c1 = np.zeros(d + 1)
    c2 = np.zeros(d + 1)
    c1[0], c1[1] = math.cos(gamma), math.sin(gamma)
    c2[0], c2[1] = math.cos(gamma), -math.sin(gamma)
    cos_theta = math.cos(theta)
    sampler = qmc.Sobol(d=d + 1, scramble=True, seed=seed)
    hits = 0
    total = 0
    chunk = 1 << 20
    remaining = n_samples
    while remaining > 0:
        take = min(chunk, remaining)
        u = sampler.random(take)
        g = norm.ppf(np.clip(u, 1e-15, 1.0 - 1e-15))
        norms = np.linalg.norm(g, axis=1)
        good = norms > 1e-12
        x = g[good] / norms[good, None]
        outside = (x @ c1 < cos_theta) & (x @ c2 < cos_theta)
        hits += int(outside.sum())
        total += int(good.sum())
        remaining -= take
    p = hits / total
    area = sphere_measure(d)
    sigma = area * math.sqrt(max(p * (1.0 - p), 1e-30) / total)
    return area * p, sigma


def brute_torus_levels(basis: np.ndarray, lambda_max: float) -> list[tuple[float, int]]:
    """Float brute-force torus spectrum; rows of ``basis`` generate the lattice.

    Dual modes are mu = B^(-1) k over an integer box sized from the operator
    norm of B, eigenvalues 4 pi^2 |mu|^2, grouped at relative tolerance 1e-9.
    Independent of the package's exact-fraction enumeration.
    """
    basis = np.asarray(basis, dtype=float)
    dim = basis.shape[0]
    radius = math.sqrt(max(lambda_max, 0.0) / (4.0 * math.pi**2))
    k_max = int(math.ceil(radius * np.linalg.norm(basis, 2))) + 2
    inv = np.linalg.inv(basis)
    grids = np.meshgrid(*([np.arange(-k_max, k_max + 1)] * dim), indexing="ij")
    ks = np.stack([g.ravel() for g in grids], axis=1)
    mus = ks @ inv.T
    vals = 4.0 * math.pi**2 * (mus**2).sum(axis=1)
    vals = np.sort(vals[vals <= lambda_max * (1.0 + 1e-12)])
    levels: list[tuple[float, int]] = []
    for v in vals:
        if levels and abs(v - levels[-1][0]) <= 1e-9 * max(1.0, abs(v)):
            levels[-1] = (levels[-1][0], levels[-1][1] + 1)
        else:
            levels.append((float(v), 1))
    return levels


def merge_levels(levels, rel: float = 1e-9) -> list[tuple[float, int]]:
    """Merge adjacent eigenvalue levels closer than a relative tolerance.

    Irrational lattice bases are only float-representable, so shells that
    coincide for the ideal lattice can split at the last ulp; merging both
    routes' outputs at 1e-9 makes them comparable.
    """
    out: list[tuple[float, int]] = []
    for v, m in levels:
        if out and abs(v - out[-1][0]) <= rel * max(1.0, abs(v)):
            out[-1] = (out[-1][0], out[-1][1] + m)
        else:
            out.append((float(v), int(m)))
    return out


def circle_divisor_count(k: int, l: int) -> int:
    """Brute-force count of integers m with |m| <= l and k | m."""
    return sum(1 for m in range(-l, l + 1) if m % k == 0)


def series_reciprocal_characters(g: np.ndarray, l_max: int) -> list[float]:
    """Degree-l character values chi_l(g) by power-series long division.

    Expands 1/det(I - t g) = sum h_d t^d via the convolution recurrence on
    the characteristic-polynomial coefficients of g (an explicit long
    division, no Newton identities), then chi_l = h_l - h_(l-2).
    """
    g = np.asarray(g, dtype=float)
    m = g.shape[0]
    # np.poly gives prod(t - mu_i) = sum_j mono[j] t^(m-j); multiplying by t^-m
    # and substituting t -> 1/t shows det(I - t g) = sum_j mono[j] t^j as is.
    c = np.real(np.poly(np.linalg.eigvals(g)))
    h = np.zeros(l_max + 1)
    h[0] = 1.0 / c[0]
    for dgr in range(1, l_max + 1):
        acc = 0.0
        for j in range(1, min(dgr, m) + 1):
            acc += c[j] * h[dgr - j]
        h[dgr] = -acc / c[0]
    # Individual characters are sums of roots of unity; only group averages
    # are integers, so return them as floats and let callers round averages.
    return [h[l] - (h[l - 2] if l >= 2 else 0.0) for l in range(l_max + 1)]


def gauss_legendre_linked_complement(d: int, alpha: float, order: int = 64) -> float:
    """Fixed-order Gauss-Legendre evaluation of the linked two-cap complement.

    The two caps of angular radius pi/2 - alpha with centres pi - 2*alpha
    apart on S^d touch, leaving the band of directions within alpha of the
    great sphere between them:
    2 * sphere_measure(d-1) * int_0^alpha cos(s)^(d-1) ds.  Integrating the
    band itself, not sphere_measure(d) minus two caps, keeps the digits that
    subtraction cancels at small alpha; a fixed quadrature rule, independent
    of the package's incomplete-beta closed form.
    """
    nodes, weights = np.polynomial.legendre.leggauss(order)
    s = 0.5 * alpha * (nodes + 1.0)
    w = 0.5 * alpha * weights
    return 2.0 * sphere_measure(d - 1) * float(np.sum(w * np.cos(s) ** (d - 1)))


def flat_separation_radius(alpha: float, ell: float) -> float:
    """Closed-form kappa=0 separation radius min(ell, 2 ell sin(alpha))."""
    return min(ell, 2.0 * ell * math.sin(alpha))


def hyperbolic_separation_radius(kappa: float, alpha: float, ell: float) -> float:
    """Closed-form kappa<0 separation radius.

    The binding triangle has its apex angle at pi/2 - alpha and the opposite
    side at length ell; hyperbolic trigonometry gives
    r = (2/sqrt(|kappa|)) artanh(tanh(sqrt(|kappa|) ell) sin(alpha)).
    """
    s = math.sqrt(-kappa)
    return 2.0 / s * math.atanh(math.tanh(s * ell) * math.sin(alpha))
