"""Finite cyclic orthogonal actions on spheres, as exact integer records.

An action is its order k, the exponents a_j of its 2x2 rotation blocks
(block j turns by 2 pi a_j / k), and its numbers of fixed and reversed
axes.  The generator matrix is derived from the record; the sphere-quotient
spectra in modelspectra count invariant monomials from the record itself.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .errors import DomainError, _count


class OrthogonalAction:
    """The cyclic group generated by diag(R(2 pi a_1/k), ..., R(2 pi a_m/k), +1, ..., -1, ...).

    The record must generate a group of exactly the declared order k: the
    lcm of the block orders k / gcd(a_j, k), and of 2 if any axis is
    reversed, must be k.
    """

    def __init__(self, order: int, exponents=(), fixed_axes: int = 0, reversed_axes: int = 0):
        k = _count(order, "cyclic order", 2)
        exps = tuple(_count(a, "a rotation exponent") for a in exponents)
        fixed = _count(fixed_axes, "the number of fixed axes", 0)
        flipped = _count(reversed_axes, "the number of reversed axes", 0)
        generated = math.lcm(*(k // math.gcd(a, k) for a in exps), 2 if flipped else 1)
        if generated != k:
            raise DomainError(
                f"the record generates a group of order {generated}, not the declared {k}"
            )
        self.order = k
        self.exponents = exps
        self.fixed_axes = fixed
        self.reversed_axes = flipped
        self.ambient_dim = 2 * len(exps) + fixed + flipped

    @cached_property
    def generator(self) -> np.ndarray:
        """The generator matrix, read-only."""
        kept = 2 * len(self.exponents) + self.fixed_axes
        g = np.diag([1.0] * kept + [-1.0] * self.reversed_axes)
        for i, a in enumerate(self.exponents):
            t = 2.0 * math.pi * a / self.order
            c, s = math.cos(t), math.sin(t)
            g[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = [[c, -s], [s, c]]
        g.setflags(write=False)
        return g


def cyclic_generator(order: int, exponents=()) -> OrthogonalAction:
    """Cyclic action generated by block rotations with angles 2*pi*a/order.

    The leading block always rotates by 2*pi/order; each extra exponent a
    (coprime to the order, so the action on the unit sphere has no fixed
    points) contributes a block rotating by 2*pi*a/order.  The ambient
    dimension is 2*(1 + len(exponents)).
    """
    l = _count(order, "the order")
    exps = [1] + [_count(a, "a rotation exponent") for a in exponents]
    for a in exps:
        if math.gcd(a, l) != 1:
            raise DomainError(
                f"exponent {a} shares a factor with the order {l}; "
                "the action would fix points on the sphere"
            )
    return OrthogonalAction(l, exps)


def sphere_rotation_action(order: int) -> OrthogonalAction:
    """Z_order acting on the 2-sphere by rotation about the polar axis."""
    return OrthogonalAction(order, (1,), fixed_axes=1)
