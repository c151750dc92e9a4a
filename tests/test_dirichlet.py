"""Lowest Dirichlet eigenvalue of geodesic balls: shooting vs. finite differences."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.special import jn_zeros

from orbispec.dirichlet import (
    ShootingConfig,
    finite_difference_eigenvalue,
    finite_difference_ground_state,
    lowest_dirichlet_eigenvalue,
    rayleigh_quotient_discrete,
)
from orbispec.errors import ConvergenceError, DomainError
from orbispec.spaceform import SpaceForm

from oracles import richardson_fd_eigenvalue

# A (curvature, radius) key at which scipy's event location inside the
# radial ODE fails to bracket the zero crossing.
EVENT_FAILURE_KEY = (0.7852497754447629, 0.9071244157410668)

# Richardson-extrapolated finite-difference value at mesh 2048/4096 for the
# unit flat disk; the exact answer is the squared first Bessel zero
# j_{0,1}^2 = 5.783185962946785.
RICHARDSON_DISK = 5.783185958960339


def test_flat_disk_against_fd_oracle():
    sf = SpaceForm(2, 0.0)
    live = richardson_fd_eigenvalue(sf, 1.0)
    assert abs(live - RICHARDSON_DISK) < 1e-9, "oracle drifted from its frozen value"
    shot = lowest_dirichlet_eigenvalue(sf, 1.0)
    assert abs(shot - RICHARDSON_DISK) < 1e-6 * RICHARDSON_DISK


def test_flat_disk_against_bessel():
    # in dimension n the flat ball eigenvalue is (j_(n/2-1,1) / r)^2
    for n in (2, 3, 4):
        sf = SpaceForm(n, 0.0)
        want = float(jn_zeros(n / 2 - 1, 1)[0]) ** 2 if n % 2 == 0 else None
        got = lowest_dirichlet_eigenvalue(sf, 1.0)
        if n == 2:
            assert abs(got - 5.783185962946785) < 1e-7
        if n == 3:
            # half-integer Bessel: j_(1/2,1) = pi, so the value is pi^2
            assert abs(got - math.pi**2) < 1e-7
        if want is not None:
            assert abs(got - want) < 1e-6 * want


def test_hemisphere_eigenvalue_is_dimension():
    # the first Dirichlet eigenfunction of a hemisphere is the height
    # coordinate, with eigenvalue n
    for n in (2, 3, 4):
        got = lowest_dirichlet_eigenvalue(SpaceForm(n, 1.0), math.pi / 2)
        assert abs(got - n) < 1e-4, (n, got)


def test_flat_scaling_invariance():
    sf = SpaceForm(2, 0.0)
    vals = [lowest_dirichlet_eigenvalue(sf, r) * r * r for r in (0.1, 1.0, 10.0)]
    assert max(vals) - min(vals) < 1e-9 * max(vals)


def test_eigenvalue_decreases_with_radius():
    sf = SpaceForm(2, 1.0)
    radii = (0.3, 0.8, 1.5, 2.5, 3.0)
    vals = [lowest_dirichlet_eigenvalue(sf, r) for r in radii]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    # the hemisphere value 2 separates the radii on either side of pi/2
    assert vals[3] < 2.0 < vals[2]


def test_hyperbolic_against_fd_oracle():
    sf = SpaceForm(2, -1.0)
    shot = lowest_dirichlet_eigenvalue(sf, 1.0)
    oracle = richardson_fd_eigenvalue(sf, 1.0)
    assert abs(shot - oracle) < 1e-6 * oracle
    assert shot > lowest_dirichlet_eigenvalue(SpaceForm(2, 1.0), 1.0)


def test_domain_errors():
    with pytest.raises(DomainError):
        lowest_dirichlet_eigenvalue(SpaceForm(2, 0.0), 0.0)
    with pytest.raises(DomainError):
        lowest_dirichlet_eigenvalue(SpaceForm(2, 0.0), -1.0)
    with pytest.raises(DomainError):
        # radius beyond the antipodal cap
        lowest_dirichlet_eigenvalue(SpaceForm(2, 1.0), math.pi)
    with pytest.raises(DomainError):
        ShootingConfig(root_tol=0.0)
    with pytest.raises(DomainError):
        ShootingConfig(root_tol=1e-2)
    with pytest.raises(DomainError):
        ShootingConfig(max_iter=3)


def test_event_location_failure_is_a_convergence_error():
    kappa, r = EVENT_FAILURE_KEY
    with pytest.raises(ConvergenceError):
        lowest_dirichlet_eigenvalue(SpaceForm(3, kappa), r)


def test_fd_second_order_convergence():
    sf = SpaceForm(2, 0.0)
    exact = 5.783185962946785
    coarse = finite_difference_eigenvalue(sf, 1.0, mesh_points=256)
    fine = finite_difference_eigenvalue(sf, 1.0, mesh_points=512)
    # halving h should cut the error by about 4
    ratio = abs(coarse - exact) / abs(fine - exact)
    assert 3.0 < ratio < 5.0, ratio
    richardson = (4.0 * fine - coarse) / 3.0
    assert abs(richardson - exact) < abs(fine - exact)


def test_fd_ground_state_profile():
    sf = SpaceForm(2, 1.0)
    val, centers, profile = finite_difference_ground_state(sf, 1.0, mesh_points=512)
    assert abs(val - finite_difference_eigenvalue(sf, 1.0, mesh_points=512)) < 1e-12
    assert profile[0] == 1.0
    assert np.all(profile > 0.0)
    # radial ground state decreases monotonically to the boundary
    assert np.all(np.diff(profile) < 1e-12)
    assert centers.shape == profile.shape


def test_rayleigh_quotient_discrete():
    # for the exact discrete ground state the quotient matches the eigenvalue
    vals = np.array([1.0, 0.5])
    grads = np.array([2.0, 1.0])
    weights = np.array([0.5, 0.5])
    got = rayleigh_quotient_discrete(vals, grads, weights)
    want = (0.5 * 4 + 0.5 * 1) / (0.5 * 1 + 0.5 * 0.25)
    assert abs(got - want) < 1e-15
    with pytest.raises(DomainError):
        rayleigh_quotient_discrete(vals, grads[:1], weights)
    with pytest.raises(DomainError):
        rayleigh_quotient_discrete(np.zeros(2), grads, weights)


def test_memoization_returns_identical_floats():
    sf = SpaceForm(3, 1.0)
    a = lowest_dirichlet_eigenvalue(sf, 0.9)
    b = lowest_dirichlet_eigenvalue(sf, 0.9)
    assert a == b


def test_custom_tolerance_still_close():
    sf = SpaceForm(2, 0.0)
    loose = lowest_dirichlet_eigenvalue(sf, 1.0, ShootingConfig(root_tol=1e-4))
    tight = lowest_dirichlet_eigenvalue(sf, 1.0, ShootingConfig(root_tol=1e-10))
    assert abs(loose - tight) < 1e-3
