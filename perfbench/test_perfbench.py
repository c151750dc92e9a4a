"""Self-tests for the benchmark's own code: request streams, scaling, soundness checks.

Run from the repository root with ``python -m pytest -q perfbench``.
"""

from __future__ import annotations

import itertools
import math
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import speed  # noqa: E402
import stream  # noqa: E402
import tracing  # noqa: E402

CURVATURE = {m: (0.0 if m in stream.TORUS_FAMILY else 1.0) for m in stream.CATALOG_ORDER}


def _take(gen, n):
    return list(itertools.islice(gen, n))


def test_same_seed_gives_same_certify_stream():
    a = _take(stream.certify_requests(7, CURVATURE), 40)
    b = _take(stream.certify_requests(7, CURVATURE), 40)
    c = _take(stream.certify_requests(8, CURVATURE), 40)
    assert a == b
    assert [r.c for r in a] != [r.c for r in c]
    # The model and mode mix does not depend on the seed.
    assert [(r.model_id, r.mode) for r in a] == [(r.model_id, r.mode) for r in c]


def test_same_seed_gives_same_sweep_stream():
    a = _take(stream.sweep_requests(3), 50)
    assert a == _take(stream.sweep_requests(3), 50)
    assert a != _take(stream.sweep_requests(4), 50)


def test_certify_stream_cycles():
    reqs = _take(stream.certify_requests(1, CURVATURE), 20)
    for r in reqs:
        assert stream.SCALE_RANGE[0] <= r.c <= stream.SCALE_RANGE[1]
        k = CURVATURE[r.model_id]
        expected = k if r.mode == "exact" else k - stream.LOOSENING
        assert r.kappa == pytest.approx(expected / (r.c * r.c), rel=1e-15)
    first, second = reqs[:10], reqs[10:]
    assert sorted(r.model_id for r in first) == sorted(stream.CATALOG_ORDER)
    assert [(r.model_id, r.mode) for r in first] == [(r.model_id, r.mode) for r in second]
    # Every s2-mod-k takes the exact kappa; some torus takes a negative kappa.
    assert all(r.mode == "exact" for r in first if r.model_id.startswith("s2-mod-"))
    assert any(r.kappa < 0 for r in first if r.model_id in stream.TORUS_FAMILY)


def test_sweep_truncations_are_stratified():
    reqs = _take(stream.sweep_requests(5), 2 * stream.SWEEP_CYCLE)
    lo, hi = (math.log(x) for x in stream.SWEEP_RANGE)
    width = (hi - lo) / stream.SWEEP_STRATA
    for cycle in (reqs[: stream.SWEEP_CYCLE], reqs[stream.SWEEP_CYCLE :]):
        cells = sorted(
            (r.model_id, int((math.log(r.truncation) - lo) // width)) for r in cycle
        )
        assert cells == sorted(
            (m, s) for m in stream.TORUS_FAMILY for s in range(stream.SWEEP_STRATA)
        )


def test_scaling_keeps_ground_truth_relations():
    from orbispec import catalog_model, estimate_volume

    model = catalog_model("s2-mod-3")
    spec = model.spectrum(2000.0)
    truth = stream.model_truth(model)
    for c in (0.5, 1.37, 2.0):
        scaled = stream.scaled_spectrum(spec, c)
        t = stream.scaled_truth(truth, c)
        assert scaled.truncation == pytest.approx(spec.truncation / c**2, rel=1e-15)
        assert [m for _, m in scaled.entries] == [m for _, m in spec.entries]
        for (v, _), (w, _) in zip(spec.entries, scaled.entries):
            assert w == pytest.approx(v / c**2, rel=1e-15)
        assert t.diameter == pytest.approx(truth.diameter * c, rel=1e-15)
        assert t.volume == pytest.approx(truth.volume * c**2, rel=1e-15)
        assert (t.max_isotropy_order, t.isolated_singular_count) == (3, 2)
        # The Weyl volume of the scaled spectrum scales like the true volume.
        assert estimate_volume(scaled, 2) == pytest.approx(
            estimate_volume(spec, 2) * c**2, rel=1e-9
        )


TRUTH = stream.Truth(2, 4.0 * math.pi / 3, math.pi, 3, 2)


def test_checker_passes_a_sound_certificate():
    assert stream.unsound_checks(TRUTH, math.pi, 3, 2) == []
    cert = run.certificate("s2-mod-3", "loose", TRUTH, 4.0, 14, 5000)
    assert cert["unsound"] == [] and not cert["unexpected"]
    assert cert["diameter_slack"] == pytest.approx(4.0 / math.pi)


def test_checker_flags_unsound_certificates():
    assert stream.unsound_checks(TRUTH, 3.0, 3, 2) == ["diameter"]
    assert stream.unsound_checks(TRUTH, 4.0, 2, 1) == ["isotropy", "singular"]
    # A diameter undershoot below the rounding allowance is still sound.
    assert stream.unsound_checks(TRUTH, math.pi * (1 - 1e-12), 3, None) == []


def test_known_defect_counts_as_failed_but_expected():
    cert = run.certificate("s2-mod-3", "exact", TRUTH, math.pi, 2, 3090)
    assert cert["unsound"] == ["isotropy"] and not cert["unexpected"]
    # The same flaw anywhere else is unexpected.
    assert run.certificate("s2-mod-3", "loose", TRUTH, math.pi, 2, 3090)["unexpected"]
    assert run.certificate("s2-mod-3", "exact", TRUTH, 3.0, 3, 3090)["unexpected"]
    # A request that raised returned nothing unsound, but it still fails.
    raised = run.certificate("t2", "exact", TRUTH, 0, 0, None, error="ValueError: boom")
    assert not raised["unexpected"]
    records = [
        {"latency_s": 1.0, "ref_latency_s": 1.0, "certificates": [cert]},
        {"latency_s": 1.0, "ref_latency_s": 1.0, "certificates": [raised]},
    ]
    metrics, _ = run.end_to_end(records, 1.0, 1.0)
    assert metrics["sound_share"] == 0.0
    counts = run.failure_counts(records)
    assert counts["bounds.fail.s2-mod-3"] == counts["bounds.fail.t2"] == counts["bounds.errors"] == 1


def test_tail_is_the_fixed_percentile():
    assert run.tail([float(i) for i in range(1, 41)]) == (30.0, 10)
    assert run.tail([3.0]) == (3.0, 0)


def test_tracer_spans_self_time_and_absent_names():
    clock = itertools.count()
    tracer = tracing.Tracer(clock=lambda: float(next(clock)))

    class Owner:
        @staticmethod
        def inner(x):
            return x

    tracer.patch(Owner, "inner", "bounds.inner")
    assert not tracer.patch(Owner, "gone", "bounds.gone")
    assert tracer.absent == [f"{Owner.__name__}.gone"]
    tracer.request = 0
    with tracer.span("request"):
        Owner.inner(1)
    tracer.restore()
    assert Owner.inner(2) == 2 and len(tracer.spans) == 2
    outer, inner = tracer.spans
    assert inner[tracing.PARENT] == 0 and inner[tracing.REQUEST] == 0
    assert tracing.self_times(tracer.spans) == [2.0, 1.0]


def test_speed_scaling_and_sampler():
    assert speed.scale([speed.REFERENCE_S]) == pytest.approx(1.0)
    # Twice as slow as the reference: wall seconds count half.
    assert speed.scale([2 * speed.REFERENCE_S, 2 * speed.REFERENCE_S]) == pytest.approx(0.5)
    with speed.Sampler(interval_s=0.01) as sampler:
        time.sleep(0.2)
    assert sampler.samples and all(k > 0 for k in sampler.samples)
    assert not sampler._thread.is_alive()
