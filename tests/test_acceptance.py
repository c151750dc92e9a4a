"""Acceptance gate: ten numbered criteria, one test (and pass/fail line) each.

Run ``pytest -v tests/test_acceptance.py`` to get a line per criterion; add
``-s`` to also see the measured quantities behind each verdict.  Everything
here checks either an exact value, an independently computed oracle, or a
soundness inequality against catalog ground truth.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from orbispec import (
    SpaceForm,
    ball_volume,
    best_diameter_bound,
    catalog_model,
    isotropy_order_cap,
    linked_complement_measure,
    lowest_dirichlet_eigenvalue,
    packing_bound,
    r_constant,
    sphere_rotation_action,
    spectral_singular_point_bound,
    cyclic_generator,
    estimate_dimension,
    estimate_volume,
)
from oracles import (
    antipodal_action,
    greedy_minimal_net,
    in_open_hemisphere,
    model_point_cloud,
    orbit,
    orbit_sum,
    richardson_fd_eigenvalue,
    shooting_eigenvalue,
    sobol_two_cap_complement,
    verify_net,
)

from conftest import TORUS_TRUNCATION


@pytest.fixture(scope="module")
def best_bounds(catalog_spectra):
    """best_diameter_bound over every admissible radius, per catalog model."""
    out = {}
    for model_id, (model, spec) in catalog_spectra.items():
        out[model_id] = best_diameter_bound(spec, model.curvature_lower_bound, model.dimension)
    return out


def test_criterion_01_dirichlet_kernel():
    # (a) flat unit disk vs Richardson-extrapolated finite differences
    disk = lowest_dirichlet_eigenvalue(SpaceForm(2, 0.0), 1.0)
    oracle = richardson_fd_eigenvalue(SpaceForm(2, 0.0), 1.0, mesh=2048)
    rel = abs(disk - oracle) / oracle
    assert rel < 1e-6
    # (b) hemispheres: lambda(n, 1, pi/2) = n
    hemi_errs = []
    for n in (2, 3, 4):
        lam = lowest_dirichlet_eigenvalue(SpaceForm(n, 1.0), 0.5 * math.pi)
        hemi_errs.append(abs(lam - n))
        assert abs(lam - n) < 1e-4
    # (c) flat scaling invariance: lambda * r^2 constant
    spreads = []
    for n in (2, 3):
        vals = [
            lowest_dirichlet_eigenvalue(SpaceForm(n, 0.0), r) * r * r
            for r in (0.1, 1.0, 10.0)
        ]
        spread = max(vals) - min(vals)
        spreads.append(spread)
        assert spread <= 1e-9 * max(vals)
    # (d) n = 3 closed form pi^2/r^2 - kappa at curved kappa vs shooting
    curved_errs = []
    for kappa, r in ((1.0, 1.0), (1.0, 2.5), (-1.0, 1.0), (-4.0, 1.5)):
        lam = lowest_dirichlet_eigenvalue(SpaceForm(3, kappa), r)
        assert lam == (math.pi / r) ** 2 - kappa
        shot = shooting_eigenvalue(SpaceForm(3, kappa), r)
        curved_errs.append(abs(lam - shot) / shot)
        assert curved_errs[-1] < 1e-9
    print(
        f"criterion 1 PASS: disk rel err {rel:.3e}; hemisphere errs "
        f"{[f'{e:.1e}' for e in hemi_errs]}; scaling spreads {[f'{s:.1e}' for s in spreads]}; "
        f"n=3 curved rel errs {[f'{e:.1e}' for e in curved_errs]}"
    )


def test_criterion_02_quotient_multiplicities():
    from orbispec.modelspectra import _invariant_counts

    checked = 0
    for k in range(2, 11):
        counts = _invariant_counts(sphere_rotation_action(k), 30)
        for l in range(0, 31):
            got = counts[l]
            brute = sum(1 for m in range(-l, l + 1) if m % k == 0)
            assert got == 2 * (l // k) + 1 == brute, (k, l, got)
            checked += 1
    anti = _invariant_counts(antipodal_action(3), 30)
    for l in range(1, 31, 2):
        assert anti[l] == 0
    print(f"criterion 2 PASS: {checked} (k, l) pairs exact; antipodal kills odd degrees")


def test_criterion_03_weyl_recovery(catalog_spectra):
    t2_model, t2_spec = catalog_spectra["t2"]
    assert t2_spec.truncation == TORUS_TRUNCATION
    assert t2_spec.total_count >= 5000
    n, _ = estimate_dimension(t2_spec)
    v = estimate_volume(t2_spec, 2)
    assert n == 2 and abs(v - 1.0) <= 0.10
    s2_model, s2_spec = catalog_spectra["s2"]
    assert s2_spec.values[-1] == 100 * 101  # truncated at degree l = 100
    n2, _ = estimate_dimension(s2_spec)
    v2 = estimate_volume(s2_spec, 2)
    assert n2 == 2 and abs(v2 - 4 * math.pi) <= 0.10 * 4 * math.pi
    _, q_spec = catalog_spectra["s2-mod-3"]
    v3 = estimate_volume(q_spec, 2)
    assert abs(v3 - 4 * math.pi / 3) <= 0.10 * 4 * math.pi / 3
    print(
        f"criterion 3 PASS: torus ({t2_spec.total_count} modes) n=2, vol {v:.4f}; "
        f"sphere vol {v2:.4f} (4pi={4 * math.pi:.4f}); quotient vol {v3:.4f}"
    )


def test_criterion_04_relative_volume_monotone():
    sf = SpaceForm(2, 1.0)
    grid = np.linspace(0.05, math.pi, 1000)
    denom = np.array([ball_volume(sf, float(r)) for r in grid])
    worst_step, worst_limit = 0.0, 0.0
    for k in (2, 3, 4, 6):
        ratio = (2 * math.pi / k) * (1.0 - np.cos(grid)) / denom
        steps = np.diff(ratio)
        worst_step = max(worst_step, float(steps.max()))
        assert np.all(steps <= 1e-12)  # non-increasing within 1e-12
        r0 = 1e-3
        limit = (2 * math.pi / k) * (1.0 - math.cos(r0)) / ball_volume(sf, r0)
        err = abs(limit - 1.0 / k)
        worst_limit = max(worst_limit, err)
        assert err <= 1e-9
    print(
        f"criterion 4 PASS: max increasing step {worst_step:.2e} (<= 1e-12); "
        f"worst r->0 limit error {worst_limit:.2e} (<= 1e-9)"
    )


def test_criterion_05_diameter_soundness(catalog_spectra, best_bounds):
    margins = {}
    for model_id, (model, _) in catalog_spectra.items():
        d, _r, _rho = best_bounds[model_id]
        assert d >= model.diameter - 1e-12, (model_id, d, model.diameter)
        margins[model_id] = d / model.diameter
    d_s2 = best_bounds["s2"][0]
    assert d_s2 == math.pi  # Bonnet-Myers clamp is exact on the round sphere
    print(
        "criterion 5 PASS: bound/true diameter ratios "
        + ", ".join(f"{m}={margins[m]:.2f}" for m in margins)
        + "; s2 bound exactly pi"
    )


def test_criterion_06_isotropy_cap_soundness(catalog_spectra, best_bounds):
    for model_id, (model, _) in catalog_spectra.items():
        d = best_bounds[model_id][0]
        cap = isotropy_order_cap(model.dimension, model.curvature_lower_bound, d, model.volume)
        assert cap >= model.max_isotropy_order, (model_id, cap)
    exact = {}
    for k in (2, 3, 4, 6):
        cap = isotropy_order_cap(2, 1.0, math.pi, 4 * math.pi / k)
        exact[k] = cap
        assert cap == k  # floor(4 pi / (4 pi / k)) exactly
    print(f"criterion 6 PASS: caps sound on all models; exact caps {exact}")


def test_criterion_07_singular_cap_soundness(catalog_spectra):
    results = {}
    for model_id in ("s2-mod-2", "s2-mod-3", "s2-mod-4", "s2-mod-6", "pillowcase", "t2", "lens-4-1"):
        model, spec = catalog_spectra[model_id]
        report = spectral_singular_point_bound(spec, model.curvature_lower_bound)
        true_count = model.isolated_singular_count
        assert report.singular_cap >= true_count, (model_id, report.singular_cap)
        results[model_id] = (true_count, report.singular_cap)
    print(
        "criterion 7 PASS: (true, cap) "
        + ", ".join(f"{m}={results[m]}" for m in results)
    )


def test_criterion_08_constants_and_measures():
    # (a) flat separation radius vs closed form min(ell, 2 ell sin alpha)
    worst = 0.0
    for alpha, ell in ((0.1, 1.0), (0.35, 0.6), (0.8, 2.0), (1.3, 1.5)):
        got = r_constant(0.0, alpha, ell)
        want = min(ell, 2.0 * ell * math.sin(alpha)) * (1 - 1e-6)
        worst = max(worst, abs(got - want))
        assert abs(got - want) <= 1e-3
    # (b) exact vanishing of the antipodal two-cap complement
    for d in (1, 2, 3, 4):
        assert linked_complement_measure(d, 0.0) == 0.0
    # (c) closed form vs scrambled-Sobol oracle at 10^7 samples, 3 sigma,
    # on the linked family theta = pi/2 - alpha
    sigmas = []
    for d, alpha in ((2, 0.3), (3, 0.5)):
        est, sigma = sobol_two_cap_complement(d, alpha, 0.5 * math.pi - alpha, n_samples=10**7)
        exact = linked_complement_measure(d, alpha)
        sigmas.append(abs(exact - est) / sigma)
        assert abs(exact - est) <= 3.0 * sigma
    print(
        f"criterion 8 PASS: worst flat-r gap {worst:.2e} (<= 1e-3); antipodal complement 0; "
        f"Sobol agreement at {[f'{s:.2f}' for s in sigmas]} sigma (<= 3)"
    )


def test_criterion_09_orbit_identities():
    rng = np.random.default_rng(2026)
    worst_ratio = 0.0
    for _ in range(200):
        l = int(rng.integers(2, 51))
        coprime = [e for e in range(1, l) if math.gcd(e, l) == 1]
        extra = int(rng.integers(0, 4))  # ambient dimension 2 .. 8
        exps = [int(coprime[i]) for i in rng.integers(0, len(coprime), size=extra)]
        act = cyclic_generator(l, exps)
        v = rng.standard_normal(act.ambient_dim)
        v /= np.linalg.norm(v)
        total = orbit_sum(act, v)
        norm = float(np.linalg.norm(total))
        worst_ratio = max(worst_ratio, norm / (1e-10 * l))
        assert norm <= 1e-10 * l
        assert in_open_hemisphere(orbit(act, v)) is None
    for _ in range(200):
        d = int(rng.integers(2, 7))
        u = rng.standard_normal(d)
        u /= np.linalg.norm(u)
        assert in_open_hemisphere(np.vstack([u, -u])) is None
    good = 0
    for _ in range(200):
        d = int(rng.integers(2, 7))
        w = rng.standard_normal(d)
        w /= np.linalg.norm(w)
        m = int(rng.integers(3, 41))
        pts = rng.standard_normal((m, d))
        flip = (pts @ w) < 0.0
        pts[flip] *= -1.0
        pts += 0.1 * w  # push strictly inside the hemisphere around w
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        witness = in_open_hemisphere(pts)
        assert witness is not None
        assert float((pts @ witness).min()) > 0.0  # direct inner-product check
        good += 1
    print(
        f"criterion 9 PASS: 200 orbit sums at <= {worst_ratio:.1e} of the 1e-10*l budget, "
        f"all orbits/antipodal pairs hemisphere-free, {good} witnesses verified"
    )


def test_criterion_10_packing_bounds():
    sizes = {}
    for model_id in ("s2", "s2-mod-3", "t2"):
        model = catalog_model(model_id)
        cloud = model_point_cloud(model, 500, seed=42)
        for frac in (10.0, 4.0, 2.0):
            eps = model.diameter / frac
            net = greedy_minimal_net(cloud, eps)
            ok, violations = verify_net(cloud, eps, net)
            assert ok, (model_id, frac, violations)
            bound = packing_bound(
                model.dimension, model.curvature_lower_bound, model.diameter, eps
            )
            assert len(net) <= bound, (model_id, frac, len(net), bound)
            sizes[(model_id, frac)] = (len(net), bound)
    print(
        "criterion 10 PASS: net size vs packing bound "
        + ", ".join(f"{m}@D/{f:g}={a}/{b}" for (m, f), (a, b) in sizes.items())
    )
