"""Exact truncated Laplace spectra for model manifolds and good orbifolds.

Flat tori (dual-lattice enumeration in exact rational arithmetic), round
spheres (harmonic-polynomial multiplicities), and their quotients by finite
isometry groups: sphere quotients via character averaging over the group,
torus quotients by lattice-compatible linear symmetries via orbit counting
on dual modes.  Eigenvalue grouping happens in exact arithmetic; floats
appear only at the Spectrum boundary.  Every catalog entry carries its
ground-truth geometry (volume, diameter, curvature lower bound, singular
points) so the bound pipelines can be validated end to end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import CertificationError, DomainError
from .groups import OrthogonalAction, antipodal_action, cyclic_generator, sphere_rotation_action
from .spaceform import sphere_measure

FOUR_PI_SQ = 4.0 * math.pi * math.pi


@dataclass(frozen=True)
class Spectrum:
    """Sorted (eigenvalue, multiplicity) pairs, complete up to the truncation."""

    entries: tuple[tuple[float, int], ...]
    truncation: float
    dimension: int | None = None

    def __post_init__(self):
        if not (math.isfinite(self.truncation) and self.truncation >= 0):
            raise DomainError(f"truncation must be finite and >= 0, got {self.truncation!r}")
        prev = -math.inf
        for val, mult in self.entries:
            if not (math.isfinite(val) and val >= 0):
                raise DomainError(f"eigenvalues must be finite and >= 0, got {val!r}")
            if val <= prev:
                raise DomainError("eigenvalues must be strictly increasing")
            if not (isinstance(mult, int) and mult > 0):
                raise DomainError(f"multiplicities must be positive integers, got {mult!r}")
            if val > self.truncation:
                raise DomainError(f"eigenvalue {val!r} exceeds the truncation {self.truncation!r}")
            prev = val

    @property
    def values(self) -> np.ndarray:
        return np.array([v for v, _ in self.entries])

    @property
    def multiplicities(self) -> np.ndarray:
        return np.array([m for _, m in self.entries], dtype=int)

    @property
    def total_count(self) -> int:
        return int(sum(m for _, m in self.entries))

    def to_dict(self) -> dict:
        out = {
            "truncation": self.truncation,
            "eigenvalues": [[v, m] for v, m in self.entries],
        }
        if self.dimension is not None:
            out["dimension"] = self.dimension
        return out

    @staticmethod
    def from_dict(data: dict) -> "Spectrum":
        if not isinstance(data, dict):
            raise DomainError("spectrum JSON must be an object")
        try:
            raw = data["eigenvalues"]
            trunc = float(data["truncation"])
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError(f"spectrum JSON needs 'eigenvalues' and 'truncation': {exc}") from exc
        entries = []
        for item in raw:
            if len(item) != 2:
                raise DomainError(f"each eigenvalue entry must be [value, multiplicity]: {item!r}")
            entries.append((float(item[0]), int(item[1])))
        dim = data.get("dimension")
        return Spectrum(tuple(entries), trunc, None if dim is None else int(dim))


def counting_function(spec: Spectrum, lam: float) -> int:
    """N(lam): number of eigenvalues <= lam, counted with multiplicity."""
    if lam > spec.truncation:
        raise DomainError(
            f"counting at {lam!r} beyond the truncation {spec.truncation!r} would undercount"
        )
    total = 0
    for val, mult in spec.entries:
        if val <= lam:
            total += mult
        else:
            break
    return total


def _exact_dual_gram(basis: np.ndarray) -> list[list[Fraction]]:
    """(B B^T)^(-1) as exact Fractions, via the adjugate over Fraction entries."""
    n = basis.shape[0]
    g = [[Fraction(float(basis[i] @ basis[j])) for j in range(n)] for i in range(n)]

    def det(m):
        k = len(m)
        if k == 1:
            return m[0][0]
        total = Fraction(0)
        for j in range(k):
            minor = [row[:j] + row[j + 1 :] for row in m[1:]]
            total += (-1) ** j * m[0][j] * det(minor)
        return total

    d = det(g)
    if d == 0:
        raise DomainError("lattice basis is singular")
    inv = []
    for i in range(n):
        row = []
        for j in range(n):
            minor = [r[:i] + r[i + 1 :] for k, r in enumerate(g) if k != j]
            row.append((-1) ** (i + j) * det(minor) / d)
        inv.append(row)
    return inv


def _dual_levels(basis: np.ndarray, lambda_max: float) -> dict[Fraction, list[tuple[int, ...]]]:
    """Dual-lattice modes grouped by the exact quadratic form value.

    Keys q satisfy 4 pi^2 q <= lambda_max (with a relative slack of 1e-12 so
    the float boundary cannot drop a level); values are the integer
    coefficient vectors.  Completeness comes from the ellipsoid bound
    |k_i|^2 <= c (B B^T)_(ii) applied in exact arithmetic.
    """
    basis = np.asarray(basis, dtype=float)
    if basis.ndim != 2 or basis.shape[0] != basis.shape[1]:
        raise DomainError(f"lattice basis must be a square matrix, got shape {basis.shape}")
    if not np.all(np.isfinite(basis)):
        raise DomainError("lattice basis must be finite")
    if lambda_max < 0:
        raise DomainError(f"the truncation must be >= 0, got {lambda_max!r}")
    n = basis.shape[0]
    q_form = _exact_dual_gram(basis)
    gram = [[Fraction(float(basis[i] @ basis[j])) for j in range(n)] for i in range(n)]
    c = Fraction(float(lambda_max)) * Fraction(1 + 1e-12) / Fraction(FOUR_PI_SQ)

    bounds = []
    for i in range(n):
        lim = c * gram[i][i]
        bounds.append(math.isqrt(lim.numerator // lim.denominator))

    levels: dict[Fraction, list[tuple[int, ...]]] = {}
    idx = [-b for b in bounds]

    def q_value(k):
        total = Fraction(0)
        for i in range(n):
            if k[i] == 0:
                continue
            total += q_form[i][i] * k[i] * k[i]
            for j in range(i + 1, n):
                total += 2 * q_form[i][j] * k[i] * k[j]
        return total

    import itertools

    for k in itertools.product(*(range(-b, b + 1) for b in bounds)):
        q = q_value(k)
        if q <= c:
            levels.setdefault(q, []).append(k)
    return levels


def _levels_to_spectrum(
    groups: list[tuple[Fraction, int]], lambda_max: float, dimension: int
) -> Spectrum:
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


def flat_torus_spectrum(lattice_basis, lambda_max: float) -> Spectrum:
    """Spectrum of R^n / L: eigenvalues 4 pi^2 |mu|^2 over the dual lattice.

    Rows of lattice_basis generate the lattice, so the dual modes are
    mu = B^(-1) k with integer k and the quadratic form is (B B^T)^(-1).
    """
    basis = np.asarray(lattice_basis, dtype=float)
    levels = _dual_levels(basis, lambda_max)
    groups = [(q, len(ks)) for q, ks in levels.items()]
    return _levels_to_spectrum(groups, lambda_max, basis.shape[0])


def harmonic_multiplicity(n: int, l: int) -> int:
    """Dimension of degree-l spherical harmonics on S^n."""
    if l < 0:
        return 0
    if l == 0:
        return 1
    return math.comb(n + l, n) - math.comb(n + l - 2, n)


def sphere_spectrum(n: int, lambda_max: float) -> Spectrum:
    """Spectrum of the unit round S^n: eigenvalues l(l+n-1)."""
    if not isinstance(n, int) or n < 2:
        raise DomainError(f"sphere dimension must be an integer >= 2, got {n!r}")
    if lambda_max < 0:
        raise DomainError(f"the truncation must be >= 0, got {lambda_max!r}")
    entries = []
    l = 0
    while l * (l + n - 1) <= lambda_max:
        entries.append((float(l * (l + n - 1)), harmonic_multiplicity(n, l)))
        l += 1
    return Spectrum(tuple(entries), float(lambda_max), n)


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


def _character_table(action: OrthogonalAction, l_max: int) -> np.ndarray:
    """chi_l(g) = h_l(g) - h_(l-2)(g) for every group element, l = 0..l_max."""
    dim = action.ambient_dim
    n = dim - 1
    rows = []
    for g in action.elements():
        if np.max(np.abs(g - np.eye(dim))) < 1e-12:
            rows.append([float(harmonic_multiplicity(n, l)) for l in range(l_max + 1)])
            continue
        h = _homogeneous_traces(np.linalg.eigvals(g), l_max)
        chi = [h[l] - (h[l - 2] if l >= 2 else 0.0) for l in range(l_max + 1)]
        rows.append(np.real(chi))
    return np.array(rows)


def invariant_multiplicity(action: OrthogonalAction, l: int) -> int:
    """Dimension of the G-invariant degree-l spherical harmonics on S^(d-1).

    Average of the character chi_l over the group; the result must be a
    nonnegative integer within 1e-6 or the computation is rejected.
    """
    if not isinstance(l, int) or l < 0:
        raise DomainError(f"harmonic degree must be an integer >= 0, got {l!r}")
    return _invariant_count(_character_table(action, l), l)


def _invariant_count(table: np.ndarray, l: int) -> int:
    """Group average of the degree-l characters, rounded to the integer it must be."""
    avg = float(np.sum(table[:, l])) / table.shape[0]
    r = round(avg)
    if abs(avg - r) > 1e-6 or r < 0:
        raise CertificationError(
            "invariant-multiplicity",
            f"character average {avg!r} at degree {l} is not a nonnegative integer",
        )
    return int(r)


@dataclass(frozen=True)
class SingularPoint:
    isotropy_order: int
    isolated: bool


@dataclass(frozen=True, eq=False)
class ModelOrbifold:
    """A model space with exact spectrum and known ground-truth geometry."""

    model_id: str
    kind: str  # flat_torus | round_sphere | sphere_quotient | torus_quotient
    dimension: int
    volume: float
    diameter: float
    curvature_lower_bound: float
    singular_points: tuple[SingularPoint, ...] = ()
    lattice_basis: np.ndarray | None = None
    action: OrthogonalAction | None = None
    description: str = ""

    def __post_init__(self):
        if self.kind not in ("flat_torus", "round_sphere", "sphere_quotient", "torus_quotient"):
            raise DomainError(f"unknown model kind {self.kind!r}")
        if not (self.volume > 0 and self.diameter > 0):
            raise DomainError("volume and diameter must be positive")
        for p in self.singular_points:
            if p.isotropy_order < 2:
                raise DomainError("singular points have isotropy order >= 2")

    @property
    def max_isotropy_order(self) -> int:
        return max((p.isotropy_order for p in self.singular_points), default=1)

    @property
    def isolated_singular_count(self) -> int:
        return sum(1 for p in self.singular_points if p.isolated)

    def spectrum(self, lambda_max: float) -> Spectrum:
        if self.kind == "flat_torus":
            return flat_torus_spectrum(self.lattice_basis, lambda_max)
        if self.kind == "round_sphere":
            return sphere_spectrum(self.dimension, lambda_max)
        return quotient_spectrum(self, lambda_max)


def _integer_matrix(m: np.ndarray, what: str) -> np.ndarray:
    r = np.rint(m)
    if np.max(np.abs(m - r)) > 1e-9:
        raise DomainError(f"{what} is not an integer matrix within 1e-9")
    return r.astype(np.int64)


def _torus_quotient_groups(model: ModelOrbifold, lambda_max: float) -> list[tuple[Fraction, int]]:
    """Invariant Fourier dimensions per level: orbits of dual modes.

    A lattice-compatible linear symmetry permutes the dual modes without
    phases, so the invariant dimension at each level is the number of
    orbits of the cyclic action there.
    """
    action = model.action
    if action is None or len(action.generators) != 1:
        raise DomainError("torus quotients need a single-generator lattice symmetry")
    order = action.order
    if order not in (2, 3, 4, 6):
        raise DomainError(
            f"torus quotients support crystallographic orders 2, 3, 4, 6; got {order}"
        )
    basis = np.asarray(model.lattice_basis, dtype=float)
    a = action.generators[0]
    # Rows of the basis generate, so lattice coordinates of A are B^(-T) A B^T
    # and the dual modes k transform by the transpose of that.
    m_lattice = _integer_matrix(
        np.linalg.solve(basis.T, a @ basis.T), "the symmetry in lattice coordinates"
    )
    dual = m_lattice.T

    levels = _dual_levels(basis, lambda_max)
    groups = []
    for q, ks in levels.items():
        level = set(ks)
        seen: set[tuple[int, ...]] = set()
        orbits = 0
        for k in ks:
            if k in seen:
                continue
            orbits += 1
            cur = np.array(k, dtype=np.int64)
            for _ in range(order):
                t = tuple(int(x) for x in cur)
                if t not in level:
                    raise CertificationError(
                        "torus-quotient",
                        f"dual mode {t} left its level; the symmetry does not preserve the lattice",
                    )
                seen.add(t)
                cur = dual @ cur
        groups.append((q, orbits))
    return groups


def quotient_spectrum(model: ModelOrbifold, lambda_max: float) -> Spectrum:
    """Spectrum of a sphere or torus quotient: invariant eigenfunctions of the cover."""
    if lambda_max < 0:
        raise DomainError(f"the truncation must be >= 0, got {lambda_max!r}")
    if model.kind == "sphere_quotient":
        if model.action is None:
            raise DomainError("sphere quotients need an action")
        n = model.action.ambient_dim - 1
        if n != model.dimension:
            raise DomainError("action ambient dimension does not match the model dimension")
        l_max = 0
        while (l_max + 1) * (l_max + n) <= lambda_max:
            l_max += 1
        table = _character_table(model.action, l_max)
        entries = []
        for l in range(l_max + 1):
            if l * (l + n - 1) > lambda_max:
                break
            r = _invariant_count(table, l)
            if r > 0:
                entries.append((float(l * (l + n - 1)), r))
        return Spectrum(tuple(entries), float(lambda_max), model.dimension)
    if model.kind == "torus_quotient":
        groups = _torus_quotient_groups(model, lambda_max)
        return _levels_to_spectrum(groups, lambda_max, model.dimension)
    raise DomainError(f"quotient_spectrum does not apply to kind {model.kind!r}")


def model_catalog() -> list[ModelOrbifold]:
    """Verification targets with exactly known spectra and geometry."""
    eye2 = np.eye(2)
    cat = [
        ModelOrbifold(
            "s2", "round_sphere", 2, 4.0 * math.pi, math.pi, 1.0,
            description="unit round 2-sphere",
        ),
        ModelOrbifold(
            "t2", "flat_torus", 2, 1.0, 0.5 * math.sqrt(2.0), 0.0,
            lattice_basis=eye2,
            description="unit square torus; diameter = half diagonal",
        ),
        ModelOrbifold(
            "pillowcase", "torus_quotient", 2, 0.5, 0.5 * math.sqrt(2.0), 0.0,
            singular_points=tuple(SingularPoint(2, True) for _ in range(4)),
            lattice_basis=eye2,
            action=OrthogonalAction([-np.eye(2)], order=2),
            description=(
                "unit square torus modulo x -> -x; four order-2 cone points at the "
                "half-lattice points; area halves, diameter stays sqrt(2)/2 "
                "(realized between cone points fixed by the involution)"
            ),
        ),
        ModelOrbifold(
            "t2-mod-4", "torus_quotient", 2, 0.25, 0.5 * math.sqrt(2.0), 0.0,
            singular_points=(SingularPoint(4, True), SingularPoint(4, True), SingularPoint(2, True)),
            lattice_basis=eye2,
            action=OrthogonalAction(
                [np.array([[0.0, -1.0], [1.0, 0.0]])], order=4
            ),
            description=(
                "unit square torus modulo the quarter turn; cone points of orders 4, 4 "
                "(at the origin and the center, both fixed) and 2 (the edge-midpoint "
                "pair swapped by the quarter turn); diameter realized from the origin "
                "to the center, whose orbit is a single point"
            ),
        ),
        ModelOrbifold(
            "s3", "round_sphere", 3, sphere_measure(3), math.pi, 1.0,
            description="unit round 3-sphere",
        ),
        ModelOrbifold(
            "lens-4-1", "sphere_quotient", 3, sphere_measure(3) / 4.0, 0.5 * math.pi, 1.0,
            action=cyclic_generator(4, [1]),
            description=(
                "lens space S^3/Z_4 with block angles (2 pi/4, 2 pi/4); free action, "
                "no singular points; diameter pi/2: the orbit of any point contains a "
                "representative within pi/2 of any other point because the four inner "
                "products <x, gamma^j y> sum to a nonnegative pair-structure, and pi/2 "
                "is attained for axis-aligned pairs"
            ),
        ),
    ]
    for k in (2, 3, 4, 6):
        cat.append(
            ModelOrbifold(
                f"s2-mod-{k}", "sphere_quotient", 2, 4.0 * math.pi / k, math.pi, 1.0,
                singular_points=(SingularPoint(k, True), SingularPoint(k, True)),
                action=sphere_rotation_action(k),
                description=(
                    f"unit 2-sphere modulo the order-{k} polar rotation; two order-{k} "
                    "cone points at the poles, which stay at distance pi in the quotient"
                ),
            )
        )
    order = ["s2", "s2-mod-2", "s2-mod-3", "s2-mod-4", "s2-mod-6",
             "t2", "pillowcase", "t2-mod-4", "s3", "lens-4-1"]
    by_id = {c.model_id: c for c in cat}
    return [by_id[i] for i in order]


def catalog_model(model_id: str) -> ModelOrbifold:
    for model in model_catalog():
        if model.model_id == model_id:
            return model
    known = ", ".join(m.model_id for m in model_catalog())
    raise DomainError(f"unknown model {model_id!r}; catalog has: {known}")
