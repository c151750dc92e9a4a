"""Cyclic orthogonal action records, orbits, and hemisphere certificates."""

from __future__ import annotations

import math

import numpy as np
import pytest

from orbispec.bounds import packing_bound, spectral_isotropy_bound
from orbispec.errors import DomainError
from orbispec.modelspectra import Spectrum
from orbispec.groups import OrthogonalAction, cyclic_generator, sphere_rotation_action

from oracles import antipodal_action, elements, in_open_hemisphere, orbit, orbit_sum


def _random_unit(rng, dim):
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def test_sphere_rotation_action_basics():
    act = sphere_rotation_action(5)
    assert act.ambient_dim == 3
    assert act.order == 5
    els = elements(act)
    assert len(els) == 5
    pole = np.array([0.0, 0.0, 1.0])
    for g in els:
        assert np.allclose(g @ pole, pole, atol=1e-12)
        assert np.abs(g @ g.T - np.eye(3)).max() < 1e-12
    with pytest.raises(DomainError):
        sphere_rotation_action(1)
    assert sphere_rotation_action(np.int64(5)).order == 5  # numpy integers pass


@pytest.mark.parametrize(
    "call",
    [
        lambda: cyclic_generator(4.7, []),
        lambda: cyclic_generator(4.0, []),
        lambda: cyclic_generator(True, []),
        lambda: cyclic_generator(4, [1.5]),
        lambda: cyclic_generator(5, [True]),
        lambda: sphere_rotation_action(3.9),
        lambda: sphere_rotation_action(np.float64(3.0)),
        lambda: packing_bound(2.7, 0.0, 1.0, 0.1),
        lambda: packing_bound(True, 0.0, 1.0, 0.1),
        lambda: spectral_isotropy_bound(Spectrum(((0.0, 1), (2.0, 3)), 10.0), 0.0, n=2.7, v=4.0),
    ],
)
def test_integer_arguments_are_refused_not_truncated(call):
    # int() once turned 4.7 into order 4 and 1.5 into exponent 1, and
    # packing_bound and the pipelines took n = 2.7 as dimension 2.
    with pytest.raises(DomainError):
        call()


def test_antipodal_action():
    act = antipodal_action(3)
    assert act.order == 2
    assert np.array_equal(act.generator, -np.eye(3))


def test_cyclic_generator_block_structure():
    act = cyclic_generator(4, [1])
    assert act.ambient_dim == 4
    assert act.order == 4
    g = act.generator
    # both blocks rotate by 2 pi / 4
    c, s = math.cos(math.pi / 2), math.sin(math.pi / 2)
    want = np.zeros((4, 4))
    want[0, 0], want[0, 1], want[1, 0], want[1, 1] = c, -s, s, c
    want[2, 2], want[2, 3], want[3, 2], want[3, 3] = c, -s, s, c
    assert np.abs(g - want).max() < 1e-12
    # exponents sharing a factor with the order do not give a free action
    with pytest.raises(DomainError):
        cyclic_generator(4, [2])
    assert cyclic_generator(np.int64(5), [np.int32(2)]).exponents == (1, 2)


def test_record_derives_its_generator():
    act = OrthogonalAction(6, (1, 3), fixed_axes=1, reversed_axes=2)
    assert act.ambient_dim == 7
    g = act.generator
    assert not g.flags.writeable
    c, s = math.cos(math.pi / 3), math.sin(math.pi / 3)
    assert np.abs(g[:2, :2] - [[c, -s], [s, c]]).max() < 1e-15
    assert np.abs(g[2:4, 2:4] + np.eye(2)).max() < 1e-15
    assert np.array_equal(np.diag(g)[4:], [1.0, -1.0, -1.0])
    assert np.count_nonzero(g) == 4 + 4 + 3
    # g^6 = I and no lower power is
    powers = elements(act) + [elements(act)[-1] @ g]
    assert np.abs(powers[6] - np.eye(7)).max() < 1e-12
    assert min(np.abs(p - np.eye(7)).max() for p in powers[1:6]) > 0.5


def test_proper_subgroup_record_is_rejected():
    # Each record generates a group smaller than its declared order.
    for order, exps, fixed, flipped in (
        (4, (2,), 0, 0),  # a half turn declared as order 4
        (6, (2, 4), 1, 0),  # third turns: order 3
        (6, (3,), 0, 1),  # a half turn and a reflection: order 2
        (3, (), 0, 1),  # a reflection has order 2, not 3
        (4, (0,), 2, 0),  # the identity
        (2, (), 3, 0),
    ):
        with pytest.raises(DomainError):
            OrthogonalAction(order, exps, fixed, flipped)
    # the lcm of the block orders and of the reflection is the order
    assert OrthogonalAction(6, (2,), 0, 1).order == 6
    assert OrthogonalAction(6, (2, 3)).order == 6
    assert OrthogonalAction(12, (3, 4, 0), 2, 0).order == 12


def test_malformed_record_is_rejected():
    for args in (
        (1, (1,)),
        (0, ()),
        (2.0, (1,)),
        (4, (1.5,)),
        (4, (True,)),
        (4, (1,), -1, 0),
        (4, (1,), 0, -2),
        (4, (1,), 0.5, 0),
    ):
        with pytest.raises(DomainError):
            OrthogonalAction(*args)


def test_closure_stays_orthogonal_for_large_order():
    act = cyclic_generator(512, [])
    els = elements(act)
    assert len(els) == 512
    worst = max(np.abs(g @ g.T - np.eye(2)).max() for g in els)
    assert worst < 1e-10, worst


def test_orbit_size_divides_order():
    rng = np.random.default_rng(5)
    for _ in range(20):
        l = int(rng.integers(2, 13))
        act = cyclic_generator(l, [])
        v = _random_unit(rng, act.ambient_dim)
        pts = orbit(act, v)
        assert len(pts) in {d for d in range(1, l + 1) if l % d == 0}
        assert np.abs(np.linalg.norm(pts, axis=1) - 1.0).max() < 1e-10
    with pytest.raises(DomainError):
        orbit(cyclic_generator(3, []), np.array([0.5, 0.0]))


def test_orbit_sum_vanishes_for_free_cyclic_actions():
    rng = np.random.default_rng(11)
    for _ in range(60):
        l = int(rng.integers(2, 51))
        n_blocks = int(rng.integers(0, 4))
        exps = []
        for _ in range(n_blocks):
            e = int(rng.integers(1, l))
            while math.gcd(e, l) != 1:
                e = int(rng.integers(1, l))
            exps.append(e)
        act = cyclic_generator(l, exps)
        v = _random_unit(rng, act.ambient_dim)
        s = orbit_sum(act, v)
        assert np.linalg.norm(s) <= 1e-10 * l, (l, exps, np.linalg.norm(s))


def test_orbit_not_in_open_hemisphere():
    rng = np.random.default_rng(23)
    for _ in range(25):
        l = int(rng.integers(2, 31))
        act = cyclic_generator(l, [])
        pts = orbit(act, _random_unit(rng, act.ambient_dim))
        assert in_open_hemisphere(pts) is None, (l, pts)


def test_antipodal_pair_not_in_open_hemisphere():
    rng = np.random.default_rng(29)
    for dim in range(2, 9):
        v = _random_unit(rng, dim)
        assert in_open_hemisphere(np.array([v, -v])) is None


def test_hemisphere_witness_verified_by_inner_products():
    rng = np.random.default_rng(31)
    for _ in range(40):
        dim = int(rng.integers(2, 9))
        count = int(rng.integers(1, 12))
        w = _random_unit(rng, dim)
        pts = []
        while len(pts) < count:
            p = _random_unit(rng, dim)
            if p @ w > 0.05:
                pts.append(p)
        witness = in_open_hemisphere(np.array(pts))
        assert witness is not None
        assert abs(np.linalg.norm(witness) - 1.0) < 1e-9
        assert (np.array(pts) @ witness).min() > 0.0


def test_hemisphere_rejects_malformed_points():
    with pytest.raises(DomainError):
        in_open_hemisphere(np.zeros((0, 3)))
    # non-unit points are fine; the certificate is scale-covariant
    w = in_open_hemisphere(np.array([[2.0, 0.0], [0.5, 0.1]]))
    assert w is not None and (np.array([[2.0, 0.0], [0.5, 0.1]]) @ w).min() > 0.0
