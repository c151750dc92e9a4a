"""Exact truncated Laplace spectra for model manifolds and good orbifolds.

Flat tori (dual-lattice modes keyed by one exact integer quadratic form),
round spheres (harmonic-polynomial multiplicities), and their quotients by
cyclic isometry groups: sphere quotients by an exact integer count of
invariant monomials (Molien's count for a cyclic action), torus quotients by
lattice-compatible linear symmetries via a Burnside count of fixed dual
modes.  Eigenvalue grouping happens on exact integer keys; floats appear
only at the Spectrum boundary.  Every catalog entry carries its ground-truth
geometry (volume, diameter, curvature lower bound, singular points) so the
bound pipelines can be validated end to end.
"""

from __future__ import annotations

import math
from dataclasses import FrozenInstanceError, dataclass, field
from functools import lru_cache
from fractions import Fraction

import numpy as np

from .errors import DomainError, _count, _positive, _real
from .groups import OrthogonalAction, cyclic_generator, sphere_rotation_action
from .spaceform import _check_curvature, sphere_measure

FOUR_PI_SQ = 4.0 * math.pi * math.pi


class Spectrum:
    """Sorted eigenvalues with multiplicities, complete up to the truncation.

    The state is three read-only arrays, built once at construction: float64
    ``values``, int64 ``multiplicities`` and their running total
    ``cumulative_counts``.  ``entries``, the (eigenvalue, multiplicity)
    pairs as plain floats and ints, is a view derived from them on each
    read and never kept, so a spectrum holds only its arrays; equality and
    hashing mean the same truncation, dimension and entries.

    The constructor takes the pairs and applies the library's rules: the
    truncation a finite real >= 0, stored as a float; eigenvalues real,
    finite, >= 0, strictly increasing and at most the truncation; each
    multiplicity an integer >= 1 and the dimension, when given, an integer
    >= 1; numpy integers are stored as plain ints.  A bool is refused
    everywhere, as is a float multiplicity such as 2.0 and an entry that is
    not a pair.  So every record it builds survives its own JSON:
    from_dict(to_dict()) gives it back.
    """

    def __init__(self, entries, truncation: float, dimension: int | None = None):
        try:
            pairs = [(v, m) for v, m in entries]
        except (TypeError, ValueError) as exc:
            raise DomainError(f"entries must be (eigenvalue, multiplicity) pairs: {exc}") from exc
        values = np.array([_real(v, "eigenvalue") for v, _ in pairs], dtype=float)
        self._fill(values, _multiplicity_array([m for _, m in pairs]), truncation, dimension)

    @classmethod
    def _from_arrays(cls, values: np.ndarray, multiplicities: np.ndarray,
                     truncation: float, dimension: int | None = None) -> "Spectrum":
        """The builders' route: a float values array and a signed-integer
        multiplicities array, which the spectrum takes over (as float64 and
        int64) and freezes, under the constructor's rules."""
        if values.dtype.kind != "f" or multiplicities.dtype.kind != "i":
            raise DomainError(
                "a spectrum takes float eigenvalues and integer multiplicities, "
                f"got {values.dtype} and {multiplicities.dtype} arrays"
            )
        spec = cls.__new__(cls)
        spec._fill(
            values.astype(float, copy=False), multiplicities.astype(np.int64, copy=False),
            truncation, dimension,
        )
        return spec

    def _prefix(self, truncation: float) -> "Spectrum":
        """The spectrum at a lower truncation, cut from this one in O(1).

        truncation must be a float _check_truncation has passed, at most
        this spectrum's.  The cut takes read-only [:cut] views of all three
        arrays and sets the truncation and the dimension; no check of _fill
        is lost, and none is run again:

        * a prefix of a checked spectrum meets every rule of _fill: its
          eigenvalues are finite, >= 0 and strictly increasing, and its
          multiplicities integers >= 1, as the whole array's are;
        * searchsorted(..., "right") keeps every value at or below the new
          truncation and no other, so none exceeds it and none is dropped;
        * the running total of a prefix is the prefix of the running total,
          so cumulative_counts needs no fresh cumsum.

        Views of read-only arrays are read-only, and the dimension was
        checked when this spectrum was built.
        """
        cut = int(self.values.searchsorted(truncation, "right"))
        spec = self.__class__.__new__(self.__class__)
        state = spec.__dict__
        state["values"] = self.values[:cut]
        state["multiplicities"] = self.multiplicities[:cut]
        state["cumulative_counts"] = self.cumulative_counts[:cut]
        state["truncation"] = truncation
        state["dimension"] = self.dimension
        return spec

    def _fill(self, values: np.ndarray, mults: np.ndarray, truncation, dimension) -> None:
        truncation = _check_truncation(truncation)
        if len(values):
            bad = ~(np.isfinite(values) & (values >= 0))
            if bad.any():
                val = float(values[bad.argmax()])
                raise DomainError(f"eigenvalues must be finite and >= 0, got {val!r}")
            if (np.diff(values) <= 0).any():
                raise DomainError("eigenvalues must be strictly increasing")
            if mults.min() < 1:
                _count(int(mults[(mults < 1).argmax()]), "multiplicity", 1)
            if values[-1] > truncation:
                val = float(values[(values > truncation).argmax()])
                raise DomainError(f"eigenvalue {val!r} exceeds the truncation {truncation!r}")
        if dimension is not None:
            dimension = _count(dimension, "spectrum dimension", 1)
        state = self.__dict__
        state["values"] = _frozen(values)
        state["multiplicities"] = _frozen(mults)
        state["cumulative_counts"] = _frozen(np.cumsum(mults))
        state["truncation"] = truncation
        state["dimension"] = dimension

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    @property
    def entries(self) -> tuple[tuple[float, int], ...]:
        return tuple(zip(self.values.tolist(), self.multiplicities.tolist()))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.truncation == other.truncation
            and self.dimension == other.dimension
            and np.array_equal(self.values, other.values)
            and np.array_equal(self.multiplicities, other.multiplicities)
        )

    def __hash__(self):
        return hash((self.entries, self.truncation, self.dimension))

    def __repr__(self):
        return (
            f"Spectrum(entries={self.entries!r}, truncation={self.truncation!r}, "
            f"dimension={self.dimension!r})"
        )

    @property
    def total_count(self) -> int:
        return int(self.cumulative_counts[-1]) if len(self.values) else 0

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
        """The spectrum of to_dict's JSON, under the constructor's rules; only
        an integral JSON float such as 3.0 is read as an integer."""
        if not isinstance(data, dict):
            raise DomainError("spectrum JSON must be an object")
        try:
            pairs = ((v, _integral(m)) for v, m in data["eigenvalues"])
            trunc = data["truncation"]
        except (KeyError, TypeError) as exc:
            raise DomainError(f"spectrum JSON needs 'eigenvalues' and 'truncation': {exc}") from exc
        # A malformed pair fails in the constructor, which reads the generator.
        return Spectrum(pairs, trunc, _integral(data.get("dimension")))


def _check_truncation(lambda_max) -> float:
    """A truncation as a float: a finite real >= 0; inf would never end a sphere build."""
    lambda_max = _real(lambda_max, "the truncation")
    if not (math.isfinite(lambda_max) and lambda_max >= 0):
        raise DomainError(f"the truncation must be finite and >= 0, got {lambda_max!r}")
    return lambda_max


def _multiplicity_array(mults: list) -> np.ndarray:
    """Multiplicities as int64 under the integer rule's type test: plain ints
    pass at once, anything else goes through _count (numpy integers become
    ints, a bool or a float is refused).  The >= 1 test is the array check's."""
    if not set(map(type, mults)) <= {int}:
        mults = [_count(m, "multiplicity") for m in mults]
    try:
        return np.array(mults, dtype=np.int64)
    except OverflowError as exc:
        raise DomainError(f"multiplicities must fit in 64 bits: {exc}") from exc


def _integral(x):
    """JSON's integral float such as 3.0 as the int 3; anything else unchanged,
    for the Spectrum constructor's integer rule to judge."""
    if isinstance(x, float) and x.is_integer():
        return int(x)
    return x


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def counting_function(spec: Spectrum, lam: float) -> int:
    """N(lam): number of eigenvalues <= lam, counted with multiplicity."""
    lam = _real(lam, "eigenvalue bound")
    if not math.isfinite(lam):
        raise DomainError(f"counting needs a finite eigenvalue bound, got {lam!r}")
    if lam > spec.truncation:
        raise DomainError(
            f"counting at {lam!r} beyond the truncation {spec.truncation!r} would undercount"
        )
    i = int(np.searchsorted(spec.values, lam, side="right"))
    return int(spec.cumulative_counts[i - 1]) if i else 0


def _int_det(m: list[list[int]]) -> int:
    """Determinant of a small integer matrix by cofactor expansion, exactly."""
    if not m:
        return 1
    return sum(
        (-1) ** j * m[0][j] * _int_det([row[:j] + row[j + 1 :] for row in m[1:]])
        for j in range(len(m))
    )


class _Lattice:
    """A torus R^n / L, and the symmetry that divides it, in exact integers.

    The Gram matrix G = B B^T is read exactly from its float entries and
    scaled by the lcm ``den`` of their denominators to an integer G_int, so a
    dual mode k has q(k) = k^T G^(-1) k = (k^T A k) den / det, with the form
    A = adj(G_int) and det = det(G_int) > 0; ``gram_diag`` holds the G_ii
    that bound the mode box.  A symmetry of ``order`` acts on the dual modes
    by integer matrices, and ``powers`` are its non-identity powers (none on
    a plain torus).  The symmetry must be crystallographic: an integer matrix
    in lattice coordinates that preserves the form, both checked exactly.
    """

    def __init__(self, lattice_basis, action: OrthogonalAction | None = None):
        basis = np.asarray(lattice_basis, dtype=float)
        if basis.ndim != 2 or basis.shape[0] != basis.shape[1]:
            raise DomainError(f"lattice basis must be a square matrix, got shape {basis.shape}")
        if not np.all(np.isfinite(basis)):
            raise DomainError("lattice basis must be finite")
        n = self.n = basis.shape[0]
        gram = [[Fraction(float(basis[i] @ basis[j])) for j in range(n)] for i in range(n)]
        self.gram_diag = tuple(gram[i][i] for i in range(n))
        den = self.den = math.lcm(*(g.denominator for row in gram for g in row))
        g_int = [[int(g * den) for g in row] for row in gram]
        minors = [_int_det([row[:k] for row in g_int[:k]]) for k in range(1, n + 1)]
        if not minors or min(minors) <= 0:
            raise DomainError("lattice basis is singular")
        self.det = minors[-1]
        self.form = [
            [(-1) ** (i + j) * _int_det([r[:i] + r[i + 1 :] for k, r in enumerate(g_int) if k != j])
             for j in range(n)]
            for i in range(n)
        ]
        self.order, self.powers = 1, ()
        if action is None:
            return
        if action.order not in (2, 3, 4, 6):
            raise DomainError(
                f"torus quotients support crystallographic orders 2, 3, 4, 6; got {action.order}"
            )
        # Rows of the basis generate, so lattice coordinates of A are B^(-T) A B^T
        # and the dual modes k transform by the transpose of that.
        m_lattice = np.linalg.solve(basis.T, action.generator @ basis.T)
        if np.max(np.abs(m_lattice - np.rint(m_lattice))) > 1e-9:
            raise DomainError("the symmetry is not an integer matrix in lattice coordinates")
        dual = np.rint(m_lattice).astype(np.int64).T.astype(object)
        form = np.array(self.form, dtype=object)
        if not np.array_equal(dual.T @ form @ dual, form):
            raise DomainError("the symmetry does not preserve the dual form of the lattice")
        # The record's generator has exactly its declared order, and so does its
        # integer conjugate: these are the group's elements.
        powers = [dual]
        for _ in range(action.order - 2):
            powers.append(powers[-1] @ dual)
        self.order, self.powers = action.order, tuple(powers)


def _dual_modes(lat: _Lattice, lambda_max: float):
    """The keys k^T A k of the dual modes k with 4 pi^2 q(k) <= lambda_max,
    and, when the lattice has a symmetry, those modes, one column each (else
    None).  lambda_max is a truncation _check_truncation has passed.

    Completeness comes from the ellipsoid bound |k_i|^2 <= c G_ii, with a
    relative slack of 1e-12 on c so the float boundary cannot drop a level.
    """
    c = Fraction(lambda_max) * Fraction(1 + 1e-12) / Fraction(FOUR_PI_SQ)
    bounds = [math.isqrt(int(c * g)) for g in lat.gram_diag]
    # numpy integers wrap silently, so int64 is chosen only under an a-priori
    # bound on every partial sum, with w = max(b_i) + 1: n^2 max|A_ij| w^2 for
    # k^T A k, and n max|p_ij| w for a power p applied to a mode.
    n, w = lat.n, max(bounds) + 1
    amax = max(abs(a) for row in lat.form for a in row)
    pmax = max((abs(int(x)) for p in lat.powers for x in p.flat), default=0)
    dtype = object if n * w * max(n * amax * w, pmax) >= 2**62 else np.int64
    axes = [np.arange(-b, b + 1).astype(dtype) for b in bounds]
    # k^T A k on the whole box at once: a weighted sum of outer products of
    # the axes, each axis along its own dimension of the box.
    grid = [ax.reshape((-1,) + (1,) * (n - 1 - i)) for i, ax in enumerate(axes)]
    a = lat.form
    box = sum(
        (a[i][j] if i == j else 2 * a[i][j]) * grid[i] * grid[j]
        for i in range(n) for j in range(i, n)
    )
    # key den / det <= c, with the denominators cleared: key <= floor(c.num det / (c.den den)).
    keep = box <= (c.numerator * lat.det) // (c.denominator * lat.den)
    # Only a quotient's Burnside count reads the modes themselves.
    modes = np.stack([np.broadcast_to(g, keep.shape)[keep] for g in grid]) if lat.powers else None
    return box[keep], modes


def flat_torus_spectrum(lattice_basis, lambda_max: float) -> Spectrum:
    """Spectrum of R^n / L: eigenvalues 4 pi^2 |mu|^2 over the dual lattice.

    Rows of lattice_basis generate the lattice, so the dual modes are
    mu = B^(-1) k with integer k and the quadratic form is (B B^T)^(-1).
    """
    return _torus_spectrum(_Lattice(lattice_basis), lambda_max)


def _torus_spectrum(lat: _Lattice, lambda_max: float) -> Spectrum:
    """Spectrum of the torus R^n / L, or of its quotient by a lattice symmetry.

    Without a symmetry each level's multiplicity is its number of dual modes.
    With one, it is the invariant Fourier dimension: a lattice-compatible
    linear symmetry permutes the dual modes without phases, so the level
    carries one invariant per orbit of the cyclic action there, the group
    average of the number of modes each element fixes (Burnside).
    """
    lambda_max = _check_truncation(lambda_max)
    keys, modes = _dual_modes(lat, lambda_max)
    # Each level's number of modes, which the identity fixes.
    levels, counts = np.unique(keys, return_counts=True)
    for p in lat.powers:
        fixed = keys[(p.astype(modes.dtype) @ modes == modes).all(axis=0)]
        counts = counts + np.bincount(np.searchsorted(levels, fixed), minlength=len(levels))
    # Every kept level is complete (an exact key cut on a box that holds the
    # whole ellipsoid), and a symmetry of the form maps it onto itself, so its
    # fixed counts sum to the order times its number of orbits: exact division.
    counts //= lat.order
    # Eigenvalue 4 pi^2 ((key den) / det).  Python-int true division rounds
    # correctly, and so does float division of two integers below 2**53, which
    # are exact floats; so each value is exactly float(Fraction(key den, det)).
    # The zero mode is always kept, so there is a largest key.
    fits = max(max(int(levels[-1]), 1) * lat.den, lat.det) < 2**53
    scaled = levels.astype(np.int64 if fits else object, copy=False) * lat.den
    values = (FOUR_PI_SQ * (scaled / lat.det)).astype(float, copy=False)
    # Ascending keys give nondecreasing values: cut the tail past the truncation,
    # and merge levels that round to one float.
    cut = int(np.searchsorted(values, lambda_max, side="right"))
    values, counts = values[:cut], counts[:cut]
    starts = np.flatnonzero(np.diff(values, prepend=-1.0))
    return Spectrum._from_arrays(values[starts], np.add.reduceat(counts, starts), lambda_max, lat.n)


def harmonic_multiplicity(n: int, l: int) -> int:
    """Dimension of degree-l spherical harmonics on S^n; 0 for a negative degree."""
    n = _count(n, "sphere dimension", 1)
    l = _count(l, "harmonic degree")
    if l < 0:
        return 0
    if l == 0:
        return 1
    return math.comb(n + l, n) - math.comb(n + l - 2, n)


def sphere_spectrum(n: int, lambda_max: float) -> Spectrum:
    """Spectrum of the unit round S^n: eigenvalues l(l+n-1)."""
    return _sphere_spectrum(n, None, lambda_max)


def _sphere_spectrum(n: int, action: OrthogonalAction | None, lambda_max: float) -> Spectrum:
    """Spectrum of the unit round S^n, or of its quotient by an orthogonal action.

    The degree-l harmonics sit at l(l+n-1); a quotient keeps the invariant
    ones, and a degree with none drops out.
    """
    n = _count(n, "sphere dimension", 2)
    lambda_max = _check_truncation(lambda_max)
    l_max = 0
    while (l_max + 1) * (l_max + n) <= lambda_max:
        l_max += 1
    if action is None:
        counts = [harmonic_multiplicity(n, l) for l in range(l_max + 1)]
    else:
        counts = _invariant_counts(action, l_max)
    counts = _multiplicity_array(counts)
    degrees = np.flatnonzero(counts)
    values = (degrees * (degrees + n - 1)).astype(float)
    return Spectrum._from_arrays(values, counts[degrees], lambda_max, n)


def _invariant_counts(action: OrthogonalAction, l_max: int) -> list[int]:
    """Dimensions of the invariant degree-l harmonics on S^(d-1), l = 0..l_max.

    In eigen-coordinates the generator scales each monomial by a root of
    unity exp(2 pi i w / k), where w is the monomial's weight sum: a and -a
    for the two coordinates of an a-block, 0 for a fixed axis and k/2 for a
    reversed one.  The invariant degree-l polynomials are the p_l monomials
    of weight 0 mod k, and, the squared norm being invariant, the invariant
    harmonics number p_l - p_(l-2).  p comes from one exact integer table
    over (degree, weight mod k), one variable at a time.
    """
    k = action.order
    weights = [w for a in action.exponents for w in (a, -a)]
    weights += [0] * action.fixed_axes + [k // 2] * action.reversed_axes
    p = [[1] + [0] * (k - 1)] + [[0] * k for _ in range(l_max)]
    for w in weights:
        for l in range(1, l_max + 1):
            below = p[l - 1]
            p[l] = [c + below[(r - w) % k] for r, c in enumerate(p[l])]
    return [p[l][0] - (p[l - 2][0] if l >= 2 else 0) for l in range(l_max + 1)]


@dataclass(frozen=True)
class SingularPoint:
    """A singular point: its isotropy order, an integer >= 2 under the
    library's integer rule (stored as a plain int), and whether it is isolated."""

    isotropy_order: int
    isolated: bool

    def __post_init__(self):
        order = _count(self.isotropy_order, "isotropy order", 2)
        object.__setattr__(self, "isotropy_order", order)


@dataclass(frozen=True, eq=False)
class ModelOrbifold:
    """A model space with exact spectrum and known ground-truth geometry.

    The record decides the builder: a torus when lattice_basis is set, a
    round sphere otherwise, divided by action when one is given.  kind names
    that choice.  The record checks itself: dimension passes the integer
    rule (stored as a plain int), volume and diameter the magnitude rule and
    the curvature lower bound the curvature rule (stored as floats), a
    lattice basis must be dimension x dimension, and an action must act on
    R^dimension on a torus and on R^(dimension + 1) on a sphere.  A torus
    is reduced to its exact _Lattice here, once, so a symmetry that is not
    crystallographic is refused when the record is built.

    The record holds one spectrum, the largest it has built.  A spectrum at
    a truncation T is exactly the part at or below T of any spectrum built
    at or above T, so spectrum() builds only past the held truncation and
    cuts a lower one from the held spectrum in O(1) (Spectrum._prefix): the
    cut shares all three of its read-only arrays and runs none of the
    constructor's checks again, as a prefix of a checked spectrum passes
    them all.
    """

    model_id: str
    dimension: int
    volume: float
    diameter: float
    curvature_lower_bound: float
    singular_points: tuple[SingularPoint, ...] = ()
    lattice_basis: np.ndarray | None = None
    action: OrthogonalAction | None = None
    description: str = ""
    _lattice: _Lattice | None = field(default=None, init=False, repr=False, compare=False)
    _held: Spectrum | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        n = _count(self.dimension, "model dimension", 1)
        object.__setattr__(self, "dimension", n)
        object.__setattr__(self, "volume", _positive(self.volume, "volume"))
        object.__setattr__(self, "diameter", _positive(self.diameter, "diameter"))
        kappa = _check_curvature(self.curvature_lower_bound)
        object.__setattr__(self, "curvature_lower_bound", kappa)
        torus = self.lattice_basis is not None
        if torus and np.shape(self.lattice_basis) != (n, n):
            raise DomainError(
                f"a dimension-{n} lattice basis must be {n} x {n}, "
                f"got shape {np.shape(self.lattice_basis)}"
            )
        ambient = n if torus else n + 1
        if self.action is not None and self.action.ambient_dim != ambient:
            raise DomainError(
                f"the action acts on R^{self.action.ambient_dim}, but the model needs R^{ambient}"
            )
        if torus:
            object.__setattr__(self, "_lattice", _Lattice(self.lattice_basis, self.action))

    @property
    def kind(self) -> str:
        """flat_torus | torus_quotient | round_sphere | sphere_quotient, read off the record."""
        if self.lattice_basis is not None:
            return "flat_torus" if self.action is None else "torus_quotient"
        return "round_sphere" if self.action is None else "sphere_quotient"

    @property
    def max_isotropy_order(self) -> int:
        return max((p.isotropy_order for p in self.singular_points), default=1)

    @property
    def isolated_singular_count(self) -> int:
        return sum(1 for p in self.singular_points if p.isolated)

    def spectrum(self, lambda_max: float) -> Spectrum:
        lambda_max = _check_truncation(lambda_max)
        held = self._held
        if held is None or lambda_max > held.truncation:
            if self._lattice is not None:
                held = _torus_spectrum(self._lattice, lambda_max)
            else:
                held = _sphere_spectrum(self.dimension, self.action, lambda_max)
            object.__setattr__(self, "_held", held)
        # -0.0 equals 0.0 but prints apart, so the held one is returned only
        # for the same float; every other truncation is cut from it.
        if lambda_max.hex() == held.truncation.hex():
            return held
        return held._prefix(lambda_max)


def model_catalog() -> list[ModelOrbifold]:
    """Verification targets with exactly known spectra and geometry, in a fresh list."""
    return list(_catalog())


@lru_cache(maxsize=1)
def _catalog() -> tuple[ModelOrbifold, ...]:
    """The catalog records, built once: each torus reduces its lattice at
    construction, so a rebuild per lookup costs far more than the lookup.
    The records are frozen and share one read-only lattice basis."""
    eye2 = _frozen(np.eye(2))
    cat = [ModelOrbifold("s2", 2, 4.0 * math.pi, math.pi, 1.0, description="unit round 2-sphere")]
    cat += [
        ModelOrbifold(
            f"s2-mod-{k}", 2, 4.0 * math.pi / k, math.pi, 1.0,
            singular_points=(SingularPoint(k, True), SingularPoint(k, True)),
            action=sphere_rotation_action(k),
            description=(
                f"unit 2-sphere modulo the order-{k} polar rotation; two order-{k} "
                "cone points at the poles, which stay at distance pi in the quotient"
            ),
        )
        for k in (2, 3, 4, 6)
    ]
    return tuple(cat) + (
        ModelOrbifold(
            "t2", 2, 1.0, 0.5 * math.sqrt(2.0), 0.0,
            lattice_basis=eye2,
            description="unit square torus; diameter = half diagonal",
        ),
        ModelOrbifold(
            "pillowcase", 2, 0.5, 0.5 * math.sqrt(2.0), 0.0,
            singular_points=tuple(SingularPoint(2, True) for _ in range(4)),
            lattice_basis=eye2,
            action=OrthogonalAction(2, reversed_axes=2),
            description=(
                "unit square torus modulo x -> -x; four order-2 cone points at the "
                "half-lattice points; area halves, diameter stays sqrt(2)/2 "
                "(realized between cone points fixed by the involution)"
            ),
        ),
        ModelOrbifold(
            "t2-mod-4", 2, 0.25, 0.5 * math.sqrt(2.0), 0.0,
            singular_points=(SingularPoint(4, True), SingularPoint(4, True), SingularPoint(2, True)),
            lattice_basis=eye2,
            action=OrthogonalAction(4, (1,)),
            description=(
                "unit square torus modulo the quarter turn; cone points of orders 4, 4 "
                "(at the origin and the center, both fixed) and 2 (the edge-midpoint "
                "pair swapped by the quarter turn); diameter realized from the origin "
                "to the center, whose orbit is a single point"
            ),
        ),
        ModelOrbifold("s3", 3, sphere_measure(3), math.pi, 1.0, description="unit round 3-sphere"),
        ModelOrbifold(
            "lens-4-1", 3, sphere_measure(3) / 4.0, 0.5 * math.pi, 1.0,
            action=cyclic_generator(4, [1]),
            description=(
                "lens space S^3/Z_4 with block angles (2 pi/4, 2 pi/4); free action, "
                "no singular points; diameter pi/2: the orbit of any point contains a "
                "representative within pi/2 of any other point because the four inner "
                "products <x, gamma^j y> sum to a nonnegative pair-structure, and pi/2 "
                "is attained for axis-aligned pairs"
            ),
        ),
    )


def catalog_model(model_id: str) -> ModelOrbifold:
    for model in _catalog():
        if model.model_id == model_id:
            return model
    known = ", ".join(m.model_id for m in _catalog())
    raise DomainError(f"unknown model {model_id!r}; catalog has: {known}")
