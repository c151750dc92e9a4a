"""Finite orthogonal actions on spheres.

Cyclic block-rotation generators and group closure with a check of the
declared order.  The sphere-quotient spectra in modelspectra average over
these elements.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CertificationError, ConvergenceError, DomainError

ORTHO_TOL = 1e-12
DEDUP_TOL = 1e-9
# Long products drift; re-project onto the orthogonal group every 16 steps.
REORTHO_EVERY = 16
# A closure that grows past this many elements is taken to be infinite.
MAX_ORDER = 4096


def _polar_factor(m: np.ndarray) -> np.ndarray:
    u, _, vt = np.linalg.svd(m)
    return u @ vt


def _check_orthogonal(m: np.ndarray, what: str) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DomainError(f"{what} must be a square matrix, got shape {m.shape}")
    d = m.shape[0]
    err = float(np.max(np.abs(m.T @ m - np.eye(d))))
    if err > ORTHO_TOL:
        raise DomainError(f"{what} is not orthogonal: |g^T g - I| = {err:.3e} > {ORTHO_TOL}")
    return m


class OrthogonalAction:
    """A finite subgroup of O(d) given by generators.

    For cyclic block-rotation actions the exponent list (1, a_1, ...) is
    retained; ``order`` is the declared cyclic order, or the size of the
    computed closure for plain matrix actions.
    """

    def __init__(
        self,
        generators,
        order: int | None = None,
        exponents: tuple[int, ...] | None = None,
    ):
        mats = [_check_orthogonal(g, f"generator {i}") for i, g in enumerate(generators)]
        if not mats:
            raise DomainError("an action needs at least one generator")
        d = mats[0].shape[0]
        if any(m.shape[0] != d for m in mats):
            raise DomainError("generators must share an ambient dimension")
        for m in mats:
            m.setflags(write=False)
        self.ambient_dim = d
        self.generators = tuple(mats)
        self.exponents = tuple(int(a) for a in exponents) if exponents is not None else None
        self._declared_order = None if order is None else int(order)
        self._elements: list[np.ndarray] | None = None

    @property
    def order(self) -> int:
        if self._declared_order is not None:
            return self._declared_order
        return len(self.elements())

    def elements(self) -> list[np.ndarray]:
        """All group elements, by breadth-first closure of the generators."""
        if self._elements is not None:
            return self._elements
        d = self.ambient_dim
        elems: list[np.ndarray] = [np.eye(d)]
        frontier = [np.eye(d)]
        accepted = 1
        while frontier:
            nxt = []
            for a in frontier:
                for g in self.generators:
                    b = a @ g
                    if accepted % REORTHO_EVERY == 0:
                        b = _polar_factor(b)
                    if any(np.max(np.abs(b - e)) <= DEDUP_TOL for e in elems):
                        continue
                    elems.append(b)
                    nxt.append(b)
                    accepted += 1
                    if len(elems) > MAX_ORDER:
                        raise ConvergenceError(
                            f"group closure exceeded {MAX_ORDER} elements; "
                            "generators may not generate a finite group at this tolerance"
                        )
            frontier = nxt
        if self._declared_order is not None and len(elems) != self._declared_order:
            raise CertificationError(
                "group-closure",
                f"closure has {len(elems)} elements but order {self._declared_order} was declared",
            )
        self._elements = elems
        return elems


def rotation_block(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def cyclic_generator(order: int, exponents=()) -> OrthogonalAction:
    """Cyclic action generated by block rotations with angles 2*pi*a/order.

    The leading block always rotates by 2*pi/order; each extra exponent a
    (coprime to the order, so the action on the unit sphere has no fixed
    points) contributes a block rotating by 2*pi*a/order.  The ambient
    dimension is 2*(1 + len(exponents)).
    """
    l = int(order)
    if l < 2:
        raise DomainError(f"cyclic order must be an integer >= 2, got {order!r}")
    exps = [1] + [int(a) for a in exponents]
    for a in exps:
        if math.gcd(a, l) != 1:
            raise DomainError(
                f"exponent {a} shares a factor with the order {l}; "
                "the action would fix points on the sphere"
            )
    blocks = [rotation_block(2.0 * math.pi * a / l) for a in exps]
    d = 2 * len(blocks)
    g = np.zeros((d, d))
    for i, b in enumerate(blocks):
        g[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = b
    return OrthogonalAction([g], order=l, exponents=tuple(exps))


def sphere_rotation_action(order: int) -> OrthogonalAction:
    """Z_order acting on the 2-sphere by rotation about the polar axis."""
    l = int(order)
    if l < 2:
        raise DomainError(f"rotation order must be an integer >= 2, got {order!r}")
    g = np.eye(3)
    g[:2, :2] = rotation_block(2.0 * math.pi / l)
    return OrthogonalAction([g], order=l)
