"""Greedy nets, packing bounds, and model point clouds."""
from __future__ import annotations

import math

import numpy as np
import pytest

from orbispec import DomainError, catalog_model, packing_bound
from orbispec.groups import OrthogonalAction, sphere_rotation_action

from oracles import (
    FiniteMetricSpace,
    greedy_minimal_net,
    model_point_cloud,
    sphere_distance_matrix,
    torus_distance_matrix,
    uniform_sphere_points,
    uniform_torus_points,
    verify_net,
)


def _path_space(n: int, step: float = 1.0) -> FiniteMetricSpace:
    xs = np.arange(n) * step
    d = np.abs(xs[:, None] - xs[None, :])
    return FiniteMetricSpace(list(range(n)), d)


def test_metric_space_validation():
    with pytest.raises(DomainError):
        FiniteMetricSpace([], np.zeros((0, 0)))
    with pytest.raises(DomainError):
        FiniteMetricSpace(["a", "a"], np.zeros((2, 2)))
    with pytest.raises(DomainError):
        FiniteMetricSpace(["a", "b"], np.zeros((3, 3)))
    with pytest.raises(DomainError):
        FiniteMetricSpace(["a", "b"], [[0.0, -1.0], [-1.0, 0.0]])
    with pytest.raises(DomainError):
        FiniteMetricSpace(["a", "b"], [[0.5, 1.0], [1.0, 0.0]])
    with pytest.raises(DomainError):
        FiniteMetricSpace(["a", "b"], [[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(DomainError):
        FiniteMetricSpace(["a", "b"], [[0.0, np.inf], [np.inf, 0.0]])
    # 0-1-2 with a 10 shortcut violates the triangle inequality
    bad = [[0.0, 1.0, 10.0], [1.0, 0.0, 1.0], [10.0, 1.0, 0.0]]
    with pytest.raises(DomainError):
        FiniteMetricSpace(["a", "b", "c"], bad)


def test_metric_space_accessors_and_immutability():
    space = _path_space(4)
    assert len(space) == 4
    assert space.points == [0, 1, 2, 3]
    assert space.index_of(2) == 2
    with pytest.raises(DomainError):
        space.index_of("missing")
    with pytest.raises(ValueError):
        space.dist[0, 1] = 5.0


def test_greedy_net_on_a_path():
    # Points 0..9 spaced 1 apart; eps = 2.5 marches from the left end.
    space = _path_space(10)
    net = greedy_minimal_net(space, 2.5)
    ok, violations = verify_net(space, 2.5, net)
    assert ok and violations == []
    assert net[0] == 0  # seeded at the first point
    # a point exactly eps from every center becomes a center itself
    two = _path_space(2, step=2.5)
    assert greedy_minimal_net(two, 2.5) == [0, 1]
    with pytest.raises(DomainError):
        greedy_minimal_net(space, 0.0)


def test_greedy_net_is_deterministic():
    rng = np.random.default_rng(5)
    pts = rng.random((40, 3))
    d = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(axis=2))
    space = FiniteMetricSpace(list(range(40)), d)
    assert greedy_minimal_net(space, 0.3) == greedy_minimal_net(space, 0.3)


def test_greedy_net_properties_random_metrics():
    # Random point clouds in several dimensions: the greedy net must cover
    # at radius eps and stay eps-separated, and shrinking eps can only
    # grow the net.
    rng = np.random.default_rng(17)
    for dim in (1, 2, 5):
        pts = rng.random((60, dim))
        d = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(axis=2))
        space = FiniteMetricSpace(list(range(60)), d)
        sizes = []
        for eps in (0.8, 0.4, 0.2, 0.1):
            net = greedy_minimal_net(space, eps)
            ok, violations = verify_net(space, eps, net)
            assert ok, violations
            sizes.append(len(net))
        assert sizes == sorted(sizes)


def test_packing_bound_closed_forms():
    # flat disks: ratio (D / (eps/2))^n exactly
    assert packing_bound(2, 0.0, 1.0, 0.5) == 16
    assert packing_bound(3, 0.0, 2.0, 1.0) == 64
    assert packing_bound(np.int64(3), 0.0, 2.0, 1.0) == 64  # numpy integers pass
    # sphere: ball(pi) = 4 pi, ball(pi/4) = 4 pi sin^2(pi/8)
    want = math.floor(1.0 / math.sin(math.pi / 8) ** 2 + 1e-9)
    assert packing_bound(2, 1.0, math.pi, math.pi / 2) == want
    with pytest.raises(DomainError):
        packing_bound(2, 0.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        packing_bound(2, 0.0, 1.0, 2.5)  # eps beyond 2 * diameter
    # a diameter past the antipodal cap clamps to it, as in the other caps
    for d in (4.0, math.inf):
        assert packing_bound(2, 1.0, d, math.pi / 2) == want


def test_packing_bound_dominates_greedy_net():
    # The greedy net is eps-separated, so its size obeys the packing bound
    # computed from the true diameter of the sample.
    rng = np.random.default_rng(23)
    pts = rng.random((80, 2))
    d = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(axis=2))
    space = FiniteMetricSpace(list(range(80)), d)
    diam = float(d.max())
    for eps in (0.5, 0.25, 0.125):
        net = greedy_minimal_net(space, eps)
        assert len(net) <= packing_bound(2, 0.0, diam, eps)


def test_verify_net_reports_violations():
    space = _path_space(5)  # 0,1,2,3,4
    ok, violations = verify_net(space, 1.5, [0, 1])
    assert not ok
    kinds = {v["kind"] for v in violations}
    assert kinds == {"uncovered", "separation"}
    unc = [v for v in violations if v["kind"] == "uncovered"]
    assert {v["point"] for v in unc} == {3, 4}
    sep = [v for v in violations if v["kind"] == "separation"]
    assert sep[0]["pair"] == [0, 1] and sep[0]["distance"] == 1.0
    with pytest.raises(DomainError):
        verify_net(space, 1.0, [])
    with pytest.raises(DomainError):
        verify_net(space, 0.0, [0])


def test_sphere_sampler_and_distances():
    rng = np.random.default_rng(1)
    pts = uniform_sphere_points(2, 50, rng)
    assert pts.shape == (50, 3)
    assert np.abs(np.linalg.norm(pts, axis=1) - 1.0).max() < 1e-12
    d = sphere_distance_matrix(pts)
    assert d.max() <= math.pi + 1e-12
    i, j = 3, 17
    assert abs(d[i, j] - math.acos(float(np.clip(pts[i] @ pts[j], -1, 1)))) < 1e-12
    with pytest.raises(DomainError):
        sphere_distance_matrix(2.0 * pts)
    with pytest.raises(DomainError):
        uniform_sphere_points(0, 5, rng)


def test_quotient_sphere_distances_shrink():
    rng = np.random.default_rng(2)
    pts = uniform_sphere_points(2, 30, rng)
    free = sphere_distance_matrix(pts)
    act = sphere_rotation_action(3)
    quot = sphere_distance_matrix(pts, act)
    assert np.all(quot <= free + 1e-12)
    # a point and its rotated copy map to the same orbit
    g = act.generator
    two = np.vstack([pts[0], pts[0] @ g.T])
    dq = sphere_distance_matrix(two, act)
    assert dq[0, 1] < 1e-9


def test_torus_distances_wrap():
    pts = np.array([[0.05, 0.5], [0.95, 0.5], [0.45, 0.5]])
    d = torus_distance_matrix(pts)
    assert abs(d[0, 1] - 0.1) < 1e-12  # wraps around, not 0.9
    assert abs(d[0, 2] - 0.4) < 1e-12
    rng = np.random.default_rng(4)
    cloud = uniform_torus_points(2, 40, rng)
    dd = torus_distance_matrix(cloud)
    assert dd.max() <= math.sqrt(2) / 2 + 1e-12  # torus diameter


def test_pillowcase_identification():
    # On the half-turn quotient, x and -x are the same point.
    act = OrthogonalAction(2, reversed_axes=2)
    pts = np.array([[0.1, 0.1], [0.9, 0.9], [0.3, 0.2]])
    d = torus_distance_matrix(pts, act)
    assert d[0, 1] < 1e-12
    free = torus_distance_matrix(pts)
    assert np.all(d <= free + 1e-12)
    # a point group must preserve the unit lattice; a third-turn does not
    skew = OrthogonalAction(3, (1,))
    with pytest.raises(DomainError):
        torus_distance_matrix(pts, skew)


def test_model_point_cloud_round_trip():
    for mid in ("s2", "pillowcase", "lens-4-1"):
        cloud = model_point_cloud(mid, 25, seed=0)
        assert len(cloud) == 25
        model = catalog_model(mid)
        assert cloud.dist.max() <= model.diameter + 1e-9
    # same seed, same cloud; different seed, different cloud
    a = model_point_cloud("s2", 10, seed=7)
    b = model_point_cloud("s2", 10, seed=7)
    c = model_point_cloud("s2", 10, seed=8)
    assert np.array_equal(a.dist, b.dist)
    assert not np.array_equal(a.dist, c.dist)
    with pytest.raises(DomainError):
        model_point_cloud("s2", 0, seed=0)


def test_net_on_model_cloud_obeys_packing_bound():
    for mid in ("s2-mod-4", "t2"):
        model = catalog_model(mid)
        cloud = model_point_cloud(model, 120, seed=3)
        eps = model.diameter / 4.0
        net = greedy_minimal_net(cloud, eps)
        ok, violations = verify_net(cloud, eps, net)
        assert ok, violations
        bound = packing_bound(
            model.dimension, model.curvature_lower_bound, model.diameter, eps
        )
        assert len(net) <= bound
