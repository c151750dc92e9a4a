"""Independent oracles the test suite checks the package against.

Each function here recomputes a quantity the package provides, by a different
route: a different discretization, a different series expansion, a different
enumeration order, or plain sampling.  Tests freeze oracle outputs as
literals where a value is load-bearing, and call these routines directly for
randomized sweeps.  The proof ingredients no certificate calls (the hinge law
of cosines, the antipodal action, orbits, orbit sums, the LP open-hemisphere
test, and greedy nets on sampled model surfaces) live here too, exercised by
the acceptance criteria, as does the float character average over the
element list g^j that the exact invariant counts are checked against.
"""

from __future__ import annotations

import itertools
import math
import sys
from fractions import Fraction

import numpy as np
from scipy import integrate
from scipy.integrate import solve_ivp
from scipy.linalg import cho_solve_banded, cholesky_banded, eigh_tridiagonal
from scipy.optimize import brentq, linprog
from scipy.stats import norm, qmc

from orbispec import bounds
from orbispec.dirichlet import (
    CAP_SHRINK,
    _DSHAPE,
    _OMEGA,
    _SHAPE,
    _XI,
    RITZ_ELEMENTS,
    RITZ_MAX_ITER,
    _first_bessel_zero,
    _threshold_form,
    _threshold_top,
)
from orbispec.errors import CertificationError, ConvergenceError, DomainError
from orbispec.groups import OrthogonalAction
from orbispec.modelspectra import (
    FOUR_PI_SQ,
    ModelOrbifold,
    Spectrum,
    catalog_model,
    harmonic_multiplicity,
)
from orbispec.spaceform import (
    ACOS_DRIFT,
    NEAR_FLAT,
    SpaceForm,
    _check_radius,
    ball_volume,
    bonnet_myers_cap,
    generalized_sin,
    sphere_measure,
    unit_ball_volume,
)

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
    try:
        lam = (_first_bessel_zero(sf.n) / r) ** 2
    except OverflowError:
        raise DomainError(
            f"the flat starting value at r = {r!r}, kappa = {sf.kappa!r} overflows"
        ) from None
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
    Independent of the package's exact integer-form enumeration.
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


def _fraction_dual_gram(basis: np.ndarray) -> list[list[Fraction]]:
    """(B B^T)^(-1) as exact Fractions, via the adjugate over Fraction entries."""
    n = basis.shape[0]
    g = [[Fraction(float(basis[i] @ basis[j])) for j in range(n)] for i in range(n)]

    def det(m):
        if not m:
            return Fraction(1)
        return sum(
            (-1) ** j * m[0][j] * det([row[:j] + row[j + 1 :] for row in m[1:]])
            for j in range(len(m))
        )

    d = det(g)
    if d == 0:
        raise DomainError("lattice basis is singular")
    return [
        [(-1) ** (i + j) * det([r[:i] + r[i + 1 :] for k, r in enumerate(g) if k != j]) / d
         for j in range(n)]
        for i in range(n)
    ]


def _fraction_dual_levels(basis, lambda_max: float) -> dict[Fraction, list[tuple[int, ...]]]:
    """Dual-lattice modes grouped by their exact Fraction quadratic-form value.

    Evaluates (B B^T)^(-1) in Fraction arithmetic at every point of the
    integer box |k_i|^2 <= c (B B^T)_(ii), c = lambda_max (1 + 1e-12) / (4 pi^2),
    and keeps the modes with q(k) <= c.  Independent of the package's
    integer-scaled form and numpy grouping.
    """
    basis = np.asarray(basis, dtype=float)
    n = basis.shape[0]
    q_form = _fraction_dual_gram(basis)
    gram = [[Fraction(float(basis[i] @ basis[j])) for j in range(n)] for i in range(n)]
    c = Fraction(float(lambda_max)) * Fraction(1 + 1e-12) / Fraction(FOUR_PI_SQ)
    bounds = []
    for i in range(n):
        lim = c * gram[i][i]
        bounds.append(math.isqrt(lim.numerator // lim.denominator))

    def q_value(k):
        total = Fraction(0)
        for i in range(n):
            if k[i] == 0:
                continue
            total += q_form[i][i] * k[i] * k[i]
            for j in range(i + 1, n):
                total += 2 * q_form[i][j] * k[i] * k[j]
        return total

    levels: dict[Fraction, list[tuple[int, ...]]] = {}
    for k in itertools.product(*(range(-b, b + 1) for b in bounds)):
        q = q_value(k)
        if q <= c:
            levels.setdefault(q, []).append(k)
    return levels


def _fraction_levels_spectrum(groups, lambda_max: float, dimension: int) -> Spectrum:
    entries: list[tuple[float, int]] = []
    for q, mult in sorted(groups):
        val = FOUR_PI_SQ * float(q)
        if val > lambda_max or mult == 0:
            continue
        if entries and entries[-1][0] == val:
            entries[-1] = (val, entries[-1][1] + mult)
        else:
            entries.append((val, mult))
    return Spectrum(tuple(entries), float(lambda_max), dimension)


def fraction_torus_spectrum(basis, lambda_max: float) -> Spectrum:
    """Flat-torus spectrum from the Fraction enumeration, one level per exact value."""
    basis = np.asarray(basis, dtype=float)
    levels = _fraction_dual_levels(basis, lambda_max)
    return _fraction_levels_spectrum(
        [(q, len(ks)) for q, ks in levels.items()], lambda_max, basis.shape[0]
    )


def orbit_walk_quotient_spectrum(basis, dual, order: int, lambda_max: float) -> Spectrum:
    """Torus-quotient spectrum by walking each dual-mode orbit explicitly.

    ``dual`` is the integer matrix acting on dual modes k.  Each level's
    invariant dimension is its number of orbits under k -> dual k, found by
    following every orbit for ``order`` steps; a mode that leaves its level
    or an orbit that does not close after ``order`` steps raises.
    """
    basis = np.asarray(basis, dtype=float)
    dual = np.asarray(dual, dtype=np.int64)
    groups = []
    for q, ks in _fraction_dual_levels(basis, lambda_max).items():
        level = set(ks)
        seen: set[tuple[int, ...]] = set()
        orbits = 0
        for k in ks:
            if k in seen:
                continue
            orbits += 1
            cur = k
            for _ in range(order):
                if cur not in level:
                    raise CertificationError("torus-quotient", f"dual mode {cur} left its level")
                seen.add(cur)
                cur = tuple(int(x) for x in dual @ np.array(cur, dtype=np.int64))
            if cur != k:
                raise CertificationError("torus-quotient", f"orbit of {k} does not close")
        groups.append((q, orbits))
    return _fraction_levels_spectrum(groups, lambda_max, basis.shape[0])


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


def elements(action: OrthogonalAction) -> list[np.ndarray]:
    """The group elements g^j, j = 0..order-1, by repeated multiplication."""
    out = [np.eye(action.ambient_dim)]
    for _ in range(action.order - 1):
        out.append(out[-1] @ action.generator)
    return out


def _homogeneous_traces(eigs: np.ndarray, l_max: int) -> np.ndarray:
    """h_d(g) for d = 0..l_max: traces of g on homogeneous degree-d polynomials.

    Newton's identity h_d = (1/d) sum_k p_k h_(d-k) with power sums
    p_k = sum of eigenvalue k-th powers.
    """
    p = np.array([np.sum(eigs**k) for k in range(1, l_max + 1)])
    h = np.zeros(l_max + 1, dtype=complex)
    h[0] = 1.0
    for d in range(1, l_max + 1):
        h[d] = np.sum(p[:d] * h[d - 1 :: -1]) / d
    return h


def character_averages(action: OrthogonalAction, l_max: int) -> np.ndarray:
    """Float group averages of the harmonic characters chi_l = h_l - h_(l-2), l = 0..l_max.

    Each element's h_d come from Newton's identities on the eigenvalues of
    its matrix (the identity contributes the harmonic dimensions exactly);
    an average is the invariant dimension up to rounding, and the caller
    decides how close to an integer it must be.
    """
    dim = action.ambient_dim
    total = np.zeros(l_max + 1)
    for g in elements(action):
        if np.max(np.abs(g - np.eye(dim))) < 1e-12:
            total += [harmonic_multiplicity(dim - 1, l) for l in range(l_max + 1)]
            continue
        h = np.real(_homogeneous_traces(np.linalg.eigvals(g), l_max))
        total += h - np.concatenate(([0.0, 0.0], h[:-2]))[: l_max + 1]
    return total / action.order


def gauss_legendre_linked_complement(d: int, alpha: float, order: int = 64) -> float:
    """Fixed-order Gauss-Legendre evaluation of the linked two-cap complement.

    The two caps of angular radius pi/2 - alpha with centres pi - 2*alpha
    apart on S^d touch, leaving the band of directions within alpha of the
    great sphere between them:
    2 * sphere_measure(d-1) * int_0^alpha cos(s)^(d-1) ds.  Integrating the
    band itself, not sphere_measure(d) minus two caps, keeps the digits that
    subtraction cancels at small alpha; a fixed quadrature rule, independent
    of the package's cosine-power recursion.
    """
    nodes, weights = np.polynomial.legendre.leggauss(order)
    s = 0.5 * alpha * (nodes + 1.0)
    w = 0.5 * alpha * weights
    return 2.0 * sphere_measure(d - 1) * float(np.sum(w * np.cos(s) ** (d - 1)))


def law_of_cosines_side(kappa: float, a, b, gamma):
    """Side opposite the angle gamma in a geodesic hinge with sides a and b.

    Spherical / Euclidean / hyperbolic law of cosines in one function,
    continuous across kappa = 0: when |kappa|*(a+b)^2 < 1e-8 the curvature
    correction is applied as a series on top of the Euclidean side, which
    avoids the arccos cancellation.  Out-of-range arccos/arccosh arguments
    within 1e-12 are clamped.  Accepts scalar or array ``a``/``b``/``gamma``.
    The hinge oracle behind the closed-form separation radius r_constant.
    """
    aa, _ = _check_radius(kappa, a, "side a")
    bb, _ = _check_radius(kappa, b, "side b")
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


def log_radius_grid(n: int, kappa: float, volume: float) -> np.ndarray:
    """64 radii spaced logarithmically over three decades below a diameter
    hint, twice the radius of the flat n-ball of the given volume, held
    within 0.999 of the antipodal cap.

    A fixed grid for the scans that solve a Ritz eigenvalue at every
    radius; the library searches every breakpoint of rho instead.
    """
    d_hint = 2.0 * (volume / unit_ball_volume(n)) ** (1.0 / n)
    hi = min(d_hint, 0.999 * bonnet_myers_cap(kappa))
    return np.geomspace(hi / 1000.0, hi, 64)


# The bit pattern of the largest float; those of positive floats order as
# the floats do.
_LARGEST_BITS = int(np.array(sys.float_info.max).view(np.int64))


def _first_below(top, targets: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Per target, the smallest positive float r with top(r) < target.

    top must be non-increasing in r and below every target at the largest
    float.  One array pass probes each guess in start and the two floats on
    either side; each other entry steps 1, 2, 4, ... floats toward its
    answer until it is bracketed, then bisects the bracket, probing only
    open brackets.
    """
    guess = np.minimum(np.maximum(start.view(np.int64), 3), _LARGEST_BITS - 2)
    window = guess + np.arange(-2, 3)[:, None]
    fails = (top(window.view(float)) >= targets).sum(axis=0)  # failures come first
    down = fails == 0
    lo = np.where(down, 0, guess + (fails - 3))  # r = 0 is the threshold's pole
    hi = np.where(fails == 5, _LARGEST_BITS, guess + (fails - 2))
    idx, step = np.flatnonzero(hi - lo > 1), 1
    while idx.size:
        below, above = lo[idx], hi[idx]
        offset = np.minimum((above - below) // 2, step)
        probe = np.where(down[idx], above - offset, below + offset)
        passed = top(probe.view(float)) < targets[idx]
        hi[idx] = np.where(passed, probe, above)
        lo[idx] = np.where(passed, below, probe)
        idx, step = idx[hi[idx] - lo[idx] > 1], min(2 * step, 1 << 62)
    return hi.view(float)


def breakpoints(spec: Spectrum, n: int, kappa: float) -> np.ndarray:
    """Every breakpoint of rho, resolved in array passes: per distinct
    eigenvalue lam_k above top at the largest admissible radius the
    smallest float r with top(r) < lam_k, then the smallest with
    top(r) <= T.  The library's search resolves only those that can win.

    With no target above that least top the truncation's is dropped too,
    and no radius is admissible: the same CertificationError the library
    raises.
    """
    route, q, c = _threshold_form(n, kappa)
    top = _threshold_top(n, kappa)
    widest = min(CAP_SHRINK * bonnet_myers_cap(kappa), sys.float_info.max)
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
    targets = np.append(spec.values[spec.values > least], truncation)
    reach = np.minimum(targets, sys.float_info.max)
    flat = (reach + c * kappa - bounds.RHO_TOL_SCALE * c * abs(kappa)) / (
        1.0 + bounds.RHO_TOL_SCALE
    )
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return _first_below(top, targets, q / np.sqrt(np.maximum(flat, 0.0)))


class Scan(tuple):
    """The (D, r, rho) triple of a scan, with last_skip, diameter_bound's
    refusal at the largest skipped radius (None when none was skipped)."""

    def __new__(cls, best, last_skip):
        self = super().__new__(cls, best)
        self.last_skip = last_skip
        return self


def exhaustive_diameter_bound(spec: Spectrum, kappa: float, n: int, r_grid) -> Scan:
    """(D*, r*, rho*) by calling diameter_bound at every grid radius in
    increasing order, skipping each radius it refuses (a 2 r (rho + 1)
    that overflows among them); ties favor large r.

    Over the breakpoints of rho the package's search must return the same
    triple, and this scan must skip none of them; over any other radii it
    stands for diameter_bound called at each one.
    """
    best = None
    last_reason = None
    for r in np.sort(np.asarray(r_grid, dtype=float)):
        try:
            d, rho = bounds.diameter_bound(spec, kappa, n, float(r))
        except DomainError as exc:
            last_reason = str(exc)
            continue
        if best is None or d <= best[0]:
            best = (d, float(r), rho)
    if best is None:
        raise CertificationError(
            "diameter", f"no admissible radius; last failure: {last_reason or 'empty grid'}"
        )
    return Scan(best, last_reason)


# Stop of the reference Ritz kernel: the Rayleigh quotient drops by less
# than this relative amount.
RITZ_RTOL = 1e-15


def _reference_assemble_band(local: np.ndarray) -> np.ndarray:
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


def _reference_band_matvec(ab: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Product of the symmetric matrix in upper banded form with x."""
    y = ab[2] * x
    y[:-1] += ab[1, 1:] * x[1:]
    y[1:] += ab[1, 1:] * x[:-1]
    y[:-2] += ab[0, 2:] * x[2:]
    y[2:] += ab[0, 2:] * x[:-2]
    return y


def reference_ritz_unit_ball(n: int, kappa: float) -> tuple[float, np.ndarray]:
    """P2 Rayleigh-Ritz upper bound on the lowest eigenvalue of the unit ball,
    and the final iterate (its free nodal values) whose quotient it is.

    The package's kernel before it moved to direct LAPACK/BLAS calls, an
    iterate-change stop and a steered shift: the same mesh, quadrature, safe
    shift and start vector, with scipy's banded Cholesky wrappers, a NumPy
    band product and a Rayleigh-quotient stop.  Both converge to the same
    discrete ground state, so the package must agree with it to rounding.

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
    mass = _reference_assemble_band(h * np.einsum("eq,aq,bq->eab", wq, _SHAPE, _SHAPE))
    stiff = _reference_assemble_band(np.einsum("eq,aq,bq->eab", wq, _DSHAPE, _DSHAPE) / h)
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
        y = cho_solve_banded((chol, False), _reference_band_matvec(mass, x), check_finite=False)
        y /= np.abs(y).max()
        q = quotient(y)
        if best - q <= RITZ_RTOL * q:
            return (q, y) if q < best else (best, x)
        best, x = q, y
    return best, x


def ritz_quotient(n: int, kappa: float, x: np.ndarray, points: int = 40) -> float:
    """Rayleigh quotient of the P2 function with free nodal values x on the
    unit ball, with a ``points``-point Gauss-Legendre rule per element.

    At 40 points the rule is exact to rounding for the smooth volume density,
    so this is the quotient the 6-point rule of the package approximates.
    """
    m = len(x) // 2
    h = 1.0 / m
    gx, gw = np.polynomial.legendre.leggauss(points)
    xi, omega = 0.5 * (gx + 1.0), 0.5 * gw
    shape = np.array([2 * xi**2 - 3 * xi + 1, 4 * xi * (1 - xi), 2 * xi**2 - xi])
    dshape = np.array([4 * xi - 3, 4 - 8 * xi, 4 * xi - 1])
    t = (np.arange(m)[:, None] + xi[None, :]) * h
    wq = generalized_sin(kappa, t) ** (n - 1) * omega
    nodes = np.append(x, 0.0)
    local = np.stack([nodes[0:-1:2], nodes[1::2], nodes[2::2]], axis=1)
    grad = local @ dshape
    val = local @ shape
    return float(np.sum(wq * grad * grad)) / (h * h * float(np.sum(wq * val * val)))


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


def reference_generalized_sin(kappa: float, r):
    """The package's generalized_sin as it was before its near-flat shortcut:
    both branches at every point, joined by np.where.  The package must stay
    bit-identical to it."""
    rr, _ = _check_radius(kappa, r)
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


def reference_ell_constant(n: int, kappa: float, v: float) -> float:
    """(1 - 1e-6) times the radius whose model-ball volume equals v/3, by
    doubling brackets and brentq on ball_volume in every case; the package
    inverts in closed form wherever one exists."""
    sf = SpaceForm(n, kappa)
    if not v > 0:
        raise DomainError(f"volume must be positive, got {v!r}")
    target = v / 3.0
    if kappa > 0:
        cap = bonnet_myers_cap(kappa)
        if ball_volume(sf, cap) <= target:
            return bounds.SHRINK * cap
        # Near the cap the float ball volume is flat and rounds up and down,
        # so only the cap itself is sure to lie above the target.
        hi = cap
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
    return bounds.SHRINK * r0


# Finite-group proof ingredients of acceptance criteria 2 and 9: the antipodal
# action, orbits, the roots-of-unity orbit sum, and the LP-certified
# open-hemisphere test.
HEMISPHERE_MARGIN = 1e-9
# Two orbit points closer than this in every coordinate are one point.
DEDUP_TOL = 1e-9
# The LP solutions are re-verified against the 1e-9 margin, so the solver
# must satisfy its constraints an order of magnitude more tightly than that.
_LP_OPTIONS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}


class IndeterminateError(CertificationError):
    """A yes/no certificate could not be produced at the working margin."""


def antipodal_action(ambient_dim: int) -> OrthogonalAction:
    if int(ambient_dim) < 1:
        raise DomainError("ambient dimension must be positive")
    return OrthogonalAction(2, reversed_axes=int(ambient_dim))


def _unit_vector(v, dim: int, what: str) -> np.ndarray:
    v = np.asarray(v, dtype=float).ravel()
    if v.shape != (dim,):
        raise DomainError(f"{what} must have dimension {dim}, got shape {v.shape}")
    if abs(float(np.linalg.norm(v)) - 1.0) > 1e-12:
        raise DomainError(f"{what} must be a unit vector (|v| = 1 within 1e-12)")
    return v


def orbit(action: OrthogonalAction, v) -> np.ndarray:
    """The orbit {g v : g in G}, deduplicated; its size divides the order."""
    v = _unit_vector(v, action.ambient_dim, "orbit point")
    pts: list[np.ndarray] = []
    for g in elements(action):
        q = g @ v
        if not any(np.max(np.abs(q - p)) <= DEDUP_TOL for p in pts):
            pts.append(q)
    n_group = action.order
    if n_group % len(pts) != 0:
        raise CertificationError(
            "orbit",
            f"orbit size {len(pts)} does not divide the group order {n_group}; "
            f"deduplication at {DEDUP_TOL} is ambiguous for this input",
        )
    return np.array(pts)


def orbit_sum(action: OrthogonalAction, v) -> np.ndarray:
    """Sum of the generator power chain gamma^k v, k = 0..order-1.

    For a fixed-point-free cyclic block action every block angle is a
    primitive root of unity times 2*pi, so the sum telescopes to zero; the
    norm is certified to be at most 1e-10 * order, and a failure flags a
    non-coprime exponent or a numerical fault.
    """
    v = _unit_vector(v, action.ambient_dim, "orbit point")
    g = action.generator
    l = action.order
    total = np.zeros_like(v)
    q = v.copy()
    for _ in range(l):
        total = total + q
        q = g @ q
    if float(np.linalg.norm(q - v)) > DEDUP_TOL * l:
        raise CertificationError(
            "orbit-sum", f"generator does not have order {l} at tolerance {DEDUP_TOL * l:.1e}"
        )
    norm = float(np.linalg.norm(total))
    if norm > 1e-10 * l:
        raise CertificationError(
            "orbit-sum",
            f"|sum of the power chain| = {norm:.3e} exceeds 1e-10 * order = {1e-10 * l:.1e}; "
            "the action is not fixed-point-free on this vector",
        )
    return total


def in_open_hemisphere(points, margin: float = HEMISPHERE_MARGIN):
    """Witness direction w with <w, p> > margin for all points, or None.

    None means the origin lies in the convex hull of the points (within
    the margin), so no open hemisphere contains them all.  Both outcomes
    are certified by direct arithmetic on the LP solutions; if neither
    certificate can be produced the situation is numerically ambiguous and
    an IndeterminateError is raised.
    """
    P = np.asarray(points, dtype=float)
    if P.ndim == 1:
        P = P[None, :]
    if P.ndim != 2 or P.shape[0] == 0:
        raise DomainError("need a nonempty list of points")
    m, d = P.shape

    witness = linprog(
        np.zeros(d),
        A_ub=-P,
        b_ub=-np.ones(m),
        bounds=[(None, None)] * d,
        method="highs",
        options=_LP_OPTIONS,
    )
    if witness.status == 0:
        w = np.asarray(witness.x, dtype=float)
        nw = float(np.linalg.norm(w))
        if nw > 0.0:
            w = w / nw
            if float(np.min(P @ w)) > margin:
                return w
        # Feasible but with an uncertifiable margin: fall through to the
        # hull test before declaring the input ambiguous.
    elif witness.status != 2:
        raise IndeterminateError(
            "hemisphere", f"witness LP ended with status {witness.status}: {witness.message}"
        )

    hull = linprog(
        np.zeros(m),
        A_ub=np.vstack([P.T, -P.T]),
        b_ub=np.full(2 * d, margin),
        A_eq=np.ones((1, m)),
        b_eq=np.ones(1),
        bounds=[(0, None)] * m,
        method="highs",
        options=_LP_OPTIONS,
    )
    if hull.status == 0:
        lam = np.asarray(hull.x, dtype=float)
        # The solver may leave coefficients negative within its own primal
        # feasibility tolerance; clamp those, renormalize, and certify the
        # cleaned combination by direct arithmetic.
        if float(np.min(lam)) >= -1e-8:
            lam = np.clip(lam, 0.0, None)
            total = float(np.sum(lam))
            if abs(total - 1.0) <= 1e-6 and total > 0.0:
                lam = lam / total
                if float(np.max(np.abs(P.T @ lam))) <= 4.0 * margin:
                    return None
        raise IndeterminateError(
            "hemisphere", "hull combination returned by the LP failed re-verification"
        )
    if hull.status == 2:
        raise IndeterminateError(
            "hemisphere",
            f"neither a witness with margin > {margin} nor a hull combination "
            f"within {margin} exists; the configuration is on the tolerance boundary",
        )
    raise IndeterminateError(
        "hemisphere", f"hull LP ended with status {hull.status}: {hull.message}"
    )


# Nets on sampled model surfaces, acceptance criterion 10: a farthest-point-
# first greedy pass returns centers that cover a finite metric space at
# radius eps while staying pairwise >= eps apart, so the count obeys
# bounds.packing_bound.
METRIC_TOL = 1e-9


class FiniteMetricSpace:
    """A list of point ids plus a validated, immutable distance matrix.

    Validation (all at tolerance ``METRIC_TOL``): square shape, nonnegative
    entries, zero diagonal, symmetry, and the triangle inequality, checked
    exhaustively via a running min-plus pass over intermediate points.
    """

    def __init__(self, points, dist) -> None:
        ids = list(points)
        if not ids:
            raise DomainError("metric space needs at least one point")
        if len(set(ids)) != len(ids):
            raise DomainError("point ids must be distinct")
        d = np.asarray(dist, dtype=float)
        n = len(ids)
        if d.shape != (n, n):
            raise DomainError(f"distance matrix shape {d.shape} != ({n}, {n})")
        if not np.all(np.isfinite(d)):
            raise DomainError("distance matrix has non-finite entries")
        if d.min() < -METRIC_TOL:
            raise DomainError("negative distance")
        if np.abs(np.diag(d)).max() > METRIC_TOL:
            raise DomainError("nonzero diagonal")
        if np.abs(d - d.T).max() > METRIC_TOL:
            raise DomainError("asymmetric distance matrix")
        shortcut = d.copy()
        for k in range(n):
            np.minimum(shortcut, d[:, k, None] + d[None, k, :], out=shortcut)
        gap = (d - shortcut).max()
        if gap > METRIC_TOL:
            raise DomainError(f"triangle inequality violated by {gap:.3e}")
        d = d.copy()
        d.flags.writeable = False
        self._points = ids
        self._dist = d
        self._index = {pid: i for i, pid in enumerate(ids)}

    @property
    def points(self) -> list:
        return list(self._points)

    @property
    def dist(self) -> np.ndarray:
        return self._dist

    def __len__(self) -> int:
        return len(self._points)

    def index_of(self, point_id) -> int:
        try:
            return self._index[point_id]
        except KeyError:
            raise DomainError(f"unknown point id {point_id!r}") from None


def greedy_minimal_net(space: FiniteMetricSpace, eps: float) -> list:
    """Farthest-point-first net: covers at radius eps, centers >= eps apart.

    Deterministic given the input order: the first point seeds the net and
    ties in the farthest-point selection resolve to the lowest index.  A point
    is covered once some center lies at distance strictly below eps, so a
    point exactly eps away still gets promoted to a center.
    """
    if not eps > 0.0:
        raise DomainError(f"eps must be positive, got {eps}")
    d = space.dist
    ids = space.points
    centers = [0]
    reach = d[0].copy()
    while True:
        far = int(np.argmax(reach))
        if reach[far] < eps:
            break
        centers.append(far)
        np.minimum(reach, d[far], out=reach)
    return [ids[i] for i in centers]


def verify_net(space: FiniteMetricSpace, eps: float, net) -> tuple[bool, list]:
    """Exhaustively check the two net properties; list every violation.

    Returns ``(ok, violations)`` where each violation is either
    ``{"kind": "uncovered", "point": id, "distance": float}`` (the nearest
    center sits at distance >= eps) or
    ``{"kind": "separation", "pair": [id, id], "distance": float}`` (two
    centers closer than eps).
    """
    if not eps > 0.0:
        raise DomainError(f"eps must be positive, got {eps}")
    idx = [space.index_of(pid) for pid in net]
    if not idx:
        raise DomainError("net is empty")
    d = space.dist
    ids = space.points
    violations: list = []
    nearest = d[idx].min(axis=0)
    for j in np.flatnonzero(nearest >= eps):
        violations.append({"kind": "uncovered", "point": ids[j], "distance": float(nearest[j])})
    for a in range(len(idx)):
        for b in range(a + 1, len(idx)):
            gap = d[idx[a], idx[b]]
            if gap < eps:
                violations.append(
                    {"kind": "separation", "pair": [ids[idx[a]], ids[idx[b]]], "distance": float(gap)}
                )
    return (not violations, violations)


# ---------------------------------------------------------------------------
# Samplers and closed-form distance matrices for the catalog surfaces.


def uniform_sphere_points(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform points on the unit ``dim``-sphere in R^(dim+1), as rows."""
    if dim < 1 or count < 1:
        raise DomainError("need dim >= 1 and count >= 1")
    pts = rng.standard_normal((count, dim + 1))
    norms = np.linalg.norm(pts, axis=1)
    while np.any(norms < 1e-12):  # pragma: no cover - astronomically unlikely
        bad = norms < 1e-12
        pts[bad] = rng.standard_normal((int(bad.sum()), dim + 1))
        norms = np.linalg.norm(pts, axis=1)
    return pts / norms[:, None]


def uniform_torus_points(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform points in the unit cube, read as coordinates on R^dim / Z^dim."""
    if dim < 1 or count < 1:
        raise DomainError("need dim >= 1 and count >= 1")
    return rng.random((count, dim))


def sphere_distance_matrix(points: np.ndarray, action: OrthogonalAction | None = None) -> np.ndarray:
    """Great-circle distances, minimized over an optional deck action.

    For a quotient S^d / G the distance between orbits is
    min_g arccos(<p, g q>); passing ``action=None`` gives the round sphere.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise DomainError("points must be a 2-D array of row vectors")
    norms = np.linalg.norm(pts, axis=1)
    if np.abs(norms - 1.0).max() > 1e-9:
        raise DomainError("sphere points must be unit vectors")
    group = [np.eye(pts.shape[1])] if action is None else elements(action)
    best = -np.ones((len(pts), len(pts)))
    for g in group:
        np.maximum(best, pts @ (pts @ g.T).T, out=best)
    dist = np.arccos(np.clip(best, -1.0, 1.0))
    dist = 0.5 * (dist + dist.T)
    np.fill_diagonal(dist, 0.0)
    return dist


def torus_distance_matrix(points: np.ndarray, action: OrthogonalAction | None = None) -> np.ndarray:
    """Flat distances on R^dim / Z^dim, minimized over an optional point group.

    Each coordinate difference wraps to min(|t|, 1 - |t|); an optional
    orthogonal action (which must map the unit lattice to itself, e.g. the
    half-turn x -> -x or a quarter-turn block rotation) is minimized over to
    give quotient distances.
    """
    pts = np.asarray(points, dtype=float) % 1.0
    if pts.ndim != 2:
        raise DomainError("points must be a 2-D array of row vectors")
    group = [np.eye(pts.shape[1])] if action is None else elements(action)
    best = np.full((len(pts), len(pts)), np.inf)
    for g in group:
        lattice = g.round()
        if np.abs(g - lattice).max() > 1e-9:
            raise DomainError("point-group element does not preserve the unit lattice")
        moved = (pts @ g.T) % 1.0
        delta = np.abs(pts[:, None, :] - moved[None, :, :])
        wrapped = np.minimum(delta, 1.0 - delta)
        np.minimum(best, np.sqrt((wrapped**2).sum(axis=2)), out=best)
    dist = 0.5 * (best + best.T)
    np.fill_diagonal(dist, 0.0)
    return dist


def _cloud_ids(count: int) -> list:
    return [f"p{i}" for i in range(count)]


def model_point_cloud(model: ModelOrbifold | str, count: int, seed: int) -> FiniteMetricSpace:
    """Sample ``count`` points from a catalog surface with exact distances.

    Spheres and their orthogonal quotients use great-circle distances
    minimized over the deck action; flat models require the unit-cube lattice
    basis and use wrapped coordinate distances minimized over the point group.
    """
    if isinstance(model, str):
        model = catalog_model(model)
    if count < 1:
        raise DomainError("need count >= 1")
    rng = np.random.default_rng(seed)
    if model.kind in ("round_sphere", "sphere_quotient"):
        pts = uniform_sphere_points(model.dimension, count, rng)
        dist = sphere_distance_matrix(pts, model.action)
    elif model.kind in ("flat_torus", "torus_quotient"):
        basis = np.asarray(model.lattice_basis, dtype=float)
        if np.abs(basis - np.eye(model.dimension)).max() > 1e-12:
            raise DomainError("point clouds are only supported for unit-cube lattice bases")
        pts = uniform_torus_points(model.dimension, count, rng)
        dist = torus_distance_matrix(pts, model.action)
    else:  # pragma: no cover - catalog kinds are closed
        raise DomainError(f"unsupported model kind {model.kind!r}")
    return FiniteMetricSpace(_cloud_ids(count), dist)
