#!/usr/bin/env python3
"""orbispec benchmark: how long a certificate takes, how tight it is, and whether it is sound.

Run from the repository root:

    python3 perfbench/run.py --workload certify-stream --seed 1 --seconds 20 --trace 0

Every workload is a closed loop with one client: the next request goes out
when the previous certificate is back.  Each certificate is checked against
the catalog's exact ground truth.  With ``--trace 0`` the last line of
standard output is one JSON object with the end-to-end metrics; with
``--trace 1`` a separate run wraps the library's layer boundaries and the
last line holds the per-layer metrics instead.  Lines before it print every
metric with its unit and direction, and the run metadata.  Details (every
request, and the spans of a traced run) go to ``.perfbench_out/``.

Workloads
---------
verify-cli        ``orbispec verify`` at full truncations, a fresh interpreter
                  per sweep (in-process through ``cli.main`` when traced).
                  Fixed catalog; the seed is unused.
certify-stream    spectrum-only ``spectral_singular_point_bound(spec, kappa)``
                  on catalog spectra rescaled by a seeded c in [0.5, 2]; every
                  ball-threshold key is new.  Each model has a fixed
                  curvature mode (exact or loosened kappa).
truncation-sweep  torus-family spectra at seeded truncations in [8000, 256000],
                  certified with the true n and volume at kappa = 0 after one
                  warm-up certification per model, so thresholds repeat.

Requests go out in whole cycles of the workload's stream (one sweep, ten
catalog requests, twelve sweep requests) while the projected end stays
inside ``--seconds``; at least one cycle always runs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import stream
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

SETUP_REPEATS = 3  # set-ups per run; setup_s is their median
IMPORT_REPEATS = 3  # fresh-interpreter imports per run; cli.import_s is their median
CHILD_TIMEOUT_S = 170
WARMUP_TRUNCATION = stream.SWEEP_RANGE[0]
# A fixed percentile: picking the highest one with 10 samples beyond it would
# switch percentiles as the request count per run moves with machine speed.
TAIL_PERCENTILE = 75.0
NO_SLACK = 1e9  # a slack metric when no request returned a certificate (JSON has no inf)

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "certify_per_s": ("1/s", "higher"),
    "certify_p50_s": ("s", "lower"),
    "certify_tail_s": ("s", "lower"),
    "sound_share": ("share", "higher"),
    "diameter_slack": ("ratio", "lower"),
    "isotropy_slack": ("ratio", "lower"),
    "singular_slack_log10": ("log10", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

PER_LAYER = {
    "requests": ("count", "higher"),
    "dirichlet.threshold_calls": ("count", "lower"),
    "dirichlet.threshold_keys": ("count", "lower"),
    "dirichlet.reuse_share": ("share", "higher"),
    "dirichlet.threshold_first_s": ("s", "lower"),
    "dirichlet.threshold_repeat_s": ("s", "lower"),
    "dirichlet.self_s": ("s", "lower"),
    "bounds.diameter_s": ("s", "lower"),
    "bounds.diameter_self_s": ("s", "lower"),
    "bounds.radii_tried": ("count", "lower"),
    "bounds.radii_admissible": ("count", "higher"),
    "bounds.radius_yield": ("share", "higher"),
    "bounds.isotropy_s": ("s", "lower"),
    "bounds.alpha_s": ("s", "lower"),
    "bounds.ell_s": ("s", "lower"),
    "bounds.r_sep_s": ("s", "lower"),
    "bounds.singular_s": ("s", "lower"),
    "bounds.content_id_s": ("s", "lower"),
    "bounds.errors": ("count", "lower"),
    "bounds.unsound.diameter": ("count", "lower"),
    "bounds.unsound.isotropy": ("count", "lower"),
    "bounds.unsound.singular": ("count", "lower"),
    **{f"bounds.fail.{m}": ("count", "lower") for m in stream.CATALOG_ORDER},
    "modelspectra.spectrum_s.flat_torus": ("s", "lower"),
    "modelspectra.spectrum_s.round_sphere": ("s", "lower"),
    "modelspectra.spectrum_s.sphere_quotient": ("s", "lower"),
    "modelspectra.spectrum_s.torus_quotient": ("s", "lower"),
    "modelspectra.entries": ("count", "lower"),
    "modelspectra.eigenvalues": ("count", "lower"),
    "modelspectra.counting_calls": ("count", "lower"),
    "modelspectra.counting_s": ("s", "lower"),
    "groups.character_table_s": ("s", "lower"),
    "weyl.fit_s": ("s", "lower"),
    "cli.import_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    **{f"self_share.{layer}": ("share", "lower") for layer in tracing.LAYERS},
    "trace.overhead_share": ("share", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.absent_names": ("count", "lower"),
}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def fresh_import() -> None:
    """A fresh interpreter that imports orbispec.cli and exits."""
    subprocess.run(
        [sys.executable, "-c", "import orbispec.cli"],
        env=_child_env(), cwd=ROOT, check=True, timeout=CHILD_TIMEOUT_S,
    )


def certificate(model_id, mode, truth, diameter, isotropy_cap, singular_cap, error=None) -> dict:
    """One checked certificate: which checks fail, whether that is the known defect, slacks.

    A request that raised returned no certificate: it counts as failed, but
    only a returned certificate on the wrong side of the truth, outside the
    recorded defect, is "unexpected" and makes the run incorrect.
    """
    rec = {"model": model_id, "mode": mode, "error": error, "unsound": []}
    if error is None:
        rec["unsound"] = stream.unsound_checks(truth, diameter, isotropy_cap, singular_cap)
        rec["diameter_slack"] = diameter / truth.diameter
        rec["isotropy_slack"] = isotropy_cap / truth.max_isotropy_order
        if singular_cap is not None:
            rec["singular_log10"] = math.log10(
                max(singular_cap, 1) / max(truth.isolated_singular_count, 1)
            )
    rec["unexpected"] = any(
        not stream.known_defect(model_id, mode, check) for check in rec["unsound"]
    )
    return rec


def failed(cert: dict) -> bool:
    """A request that raised, or a certificate on the wrong side of the truth."""
    return cert["error"] is not None or bool(cert["unsound"])


def _error_text(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _request_span(tracer):
    return tracer.span("request") if tracer is not None else contextlib.nullcontext()


# ---------------------------------------------------------------------------
# Workloads.  setup() prepares the inputs; run(req, tracer) returns a request
# record with its wall latency and the certificates it produced; `cycle` is
# the number of requests that make up one full mix of the stream.


class VerifyCli:
    """`orbispec verify` sweeps over the whole catalog."""

    cycle = 1

    def setup(self, seed: int, tracer) -> None:
        # Users pay the import on every sweep; that is this workload's set-up.
        self.setup_samples = [speed.timed(fresh_import)[1:] for _ in range(SETUP_REPEATS)]
        from orbispec.modelspectra import model_catalog

        self.truth = {m.model_id: stream.model_truth(m) for m in model_catalog()}
        if tracer is not None:
            import orbispec.cli

            self.cli = orbispec.cli
            tracer.install(tracing.BOUNDS_TARGETS + tracing.CLI_TARGETS)
            tracer.install_spectrum()

    def requests(self, seed: int):
        return itertools.count()

    def _sweep(self, tracer) -> tuple[float, list[float], dict | None, str | None]:
        """(wall latency, calibration samples taken meanwhile, parsed output, error)."""
        samples: list[float] = []
        t0 = time.perf_counter()
        if tracer is None:
            with speed.Sampler() as sampler:
                proc = subprocess.run(
                    [sys.executable, "-m", "orbispec.cli", "verify"],
                    env=_child_env(), cwd=ROOT, capture_output=True, text=True,
                    timeout=CHILD_TIMEOUT_S,
                )
            latency = time.perf_counter() - t0
            samples = sampler.samples
            code, text, err = proc.returncode, proc.stdout, proc.stderr.strip()
        else:
            buf = io.StringIO()
            with tracer.span("request"), contextlib.redirect_stdout(buf):
                with tracer.span("cli.main"):
                    code = self.cli.main(["verify"])
            latency = time.perf_counter() - t0
            text, err = buf.getvalue(), ""
        if code not in (0, 2):
            return latency, samples, None, f"exit code {code}: {err[-400:]}"
        try:
            return latency, samples, json.loads(text), None
        except json.JSONDecodeError as exc:
            return latency, samples, None, _error_text(exc)

    def run(self, req, tracer) -> dict:
        latency, samples, payload, error = self._sweep(tracer)
        rows = {}
        if payload is not None:
            rows = {row["model"]: row for row in payload.get("models", [])}
        certs = []
        for model_id, truth in self.truth.items():
            row = rows.get(model_id)
            if row is None:
                certs.append(certificate(model_id, "given", truth, 0, 0, None,
                                         error or "model missing from the verify output"))
                continue
            singular = row["singular"]["cap"] if row.get("singular") else None
            certs.append(certificate(
                model_id, "given", truth,
                row["diameter"]["bound"], row["isotropy"]["cap"], singular,
            ))
        return {"latency_s": latency, "speed_samples": samples, "certificates": certs}


class CertifyStream:
    """Spectrum-only certificates of rescaled catalog spectra, every key new."""

    cycle = len(stream.STREAM_CYCLE)

    def setup(self, seed: int, tracer) -> None:
        from orbispec import bounds, modelspectra

        if tracer is not None:
            tracer.request = "setup"
            tracer.install(tracing.BOUNDS_TARGETS)
            tracer.install_spectrum()
        self.bounds = bounds
        models = modelspectra.model_catalog()
        self.truth = {m.model_id: stream.model_truth(m) for m in models}
        self.curvature = {m.model_id: m.curvature_lower_bound for m in models}
        self.spectra = {
            m.model_id: m.spectrum(stream.FULL_TRUNCATIONS[(m.kind, m.dimension)])
            for m in models
        }

    def requests(self, seed: int):
        return stream.certify_requests(seed, self.curvature)

    def run(self, req, tracer) -> dict:
        spec = stream.scaled_spectrum(self.spectra[req.model_id], req.c)
        truth = stream.scaled_truth(self.truth[req.model_id], req.c)
        error = report = None
        t0 = time.perf_counter()
        try:
            with _request_span(tracer):
                report = self.bounds.spectral_singular_point_bound(spec, req.kappa)
        except Exception as exc:  # a failed request is recorded, the stream goes on
            error = _error_text(exc)
        latency = time.perf_counter() - t0
        cert = certificate(
            req.model_id, req.mode, truth,
            *((report.diameter_bound, report.isotropy_cap, report.singular_cap)
              if report is not None else (0, 0, None)),
            error=error,
        )
        cert.update(entries=len(spec.entries), eigenvalues=spec.total_count)
        return {"latency_s": latency, "c": req.c, "kappa": req.kappa, "certificates": [cert]}


class TruncationSweep:
    """Torus-family spectra built per request and certified on the warm path."""

    cycle = stream.SWEEP_CYCLE

    def setup(self, seed: int, tracer) -> None:
        from orbispec import bounds, modelspectra

        if tracer is not None:
            tracer.request = "setup"
            tracer.install(tracing.BOUNDS_TARGETS)
            tracer.install_spectrum()
        self.bounds = bounds
        self.models = {m: modelspectra.catalog_model(m) for m in stream.TORUS_FAMILY}
        self.truth = {m: stream.model_truth(model) for m, model in self.models.items()}
        self.warmup = [
            self.run(stream.SweepRequest(f"warmup-{m}", m, WARMUP_TRUNCATION), tracer)
            for m in stream.TORUS_FAMILY
        ]

    def requests(self, seed: int):
        return stream.sweep_requests(seed)

    def run(self, req, tracer) -> dict:
        model = self.models[req.model_id]
        error = report = spec = None
        t0 = time.perf_counter()
        try:
            with _request_span(tracer):
                spec = model.spectrum(req.truncation)
                report = self.bounds.spectral_singular_point_bound(
                    spec, 0.0, n=model.dimension, v=model.volume
                )
        except Exception as exc:  # a failed request is recorded, the stream goes on
            error = _error_text(exc)
        latency = time.perf_counter() - t0
        cert = certificate(
            req.model_id, "given", self.truth[req.model_id],
            *((report.diameter_bound, report.isotropy_cap, report.singular_cap)
              if report is not None else (0, 0, None)),
            error=error,
        )
        if spec is not None:
            cert.update(entries=len(spec.entries), eigenvalues=spec.total_count)
        return {"latency_s": latency, "truncation": req.truncation, "certificates": [cert]}


WORKLOADS = {
    "verify-cli": VerifyCli,
    "certify-stream": CertifyStream,
    "truncation-sweep": TruncationSweep,
}


# ---------------------------------------------------------------------------
# Measurement and metrics.


def measure(workload, seed: int, seconds: float, tracer) -> list[dict]:
    """Closed loop, one client, in whole cycles of the workload's stream.

    Another cycle starts while elapsed time plus the median cycle so far
    stays within `seconds`; at least one cycle runs.  Whole cycles keep the
    mix of models (and truncation strata) the same in every run.  Each
    request's latency is also scaled to reference speed with the
    calibration samples taken just before and after it.
    """
    done: list[dict] = []
    cycle_s: list[float] = []
    requests = workload.requests(seed)
    k_before = speed.calibration_s()
    start = time.perf_counter()
    while not cycle_s or time.perf_counter() - start + statistics.median(cycle_s) <= seconds:
        t0 = time.perf_counter()
        for req in itertools.islice(requests, workload.cycle):
            if tracer is not None:
                tracer.request = len(done)
            rec = workload.run(req, tracer)
            k_after = speed.calibration_s()
            rec["ref_latency_s"] = rec["latency_s"] * speed.scale(
                [k_before, k_after] + rec.pop("speed_samples", [])
            )
            rec["id"] = len(done)
            done.append(rec)
            k_before = k_after
        cycle_s.append(time.perf_counter() - t0)
    return done


def tail(latencies: list[float]) -> tuple[float, int]:
    """(TAIL_PERCENTILE by nearest rank, samples beyond it)."""
    xs = sorted(latencies)
    k = max(0, math.ceil(TAIL_PERCENTILE / 100.0 * len(xs)) - 1)
    return xs[k], len(xs) - k - 1


def end_to_end(records: list[dict], setup_s: float, rss_mb: float) -> tuple[dict, dict]:
    """End-to-end metrics; times are reference seconds, with wall seconds in the notes."""
    certs = [c for r in records for c in r["certificates"]]
    ok = [c for c in certs if c["error"] is None]
    n_failed = sum(1 for c in certs if failed(c))
    latencies = [r["ref_latency_s"] for r in records]
    wall = [r["latency_s"] for r in records]
    tail_s, beyond = tail(latencies)
    singular = [c["singular_log10"] for c in ok if "singular_log10" in c]
    metrics = {
        "setup_s": setup_s,
        "certify_per_s": len(certs) / sum(latencies),
        "certify_p50_s": statistics.median(latencies),
        "certify_tail_s": tail_s,
        "sound_share": 1.0 - n_failed / len(certs),
        "diameter_slack": statistics.geometric_mean(c["diameter_slack"] for c in ok) if ok else NO_SLACK,
        "isotropy_slack": statistics.geometric_mean(c["isotropy_slack"] for c in ok) if ok else NO_SLACK,
        "singular_slack_log10": statistics.fmean(singular) if singular else NO_SLACK,
        "peak_rss_mb": rss_mb,
    }
    notes = {
        "certify_per_s": f"wall: {len(certs) / sum(wall):.6g}",
        "certify_p50_s": f"wall: {statistics.median(wall):.6g} s",
        "certify_tail_s": f"p{TAIL_PERCENTILE:g} of {len(latencies)} requests, "
        f"{beyond} beyond it; wall: {tail(wall)[0]:.6g} s",
        "sound_share": f"1 - fail_share; {n_failed} of {len(certs)} certificates failed",
    }
    return metrics, notes


def failure_counts(records: list[dict]) -> dict:
    certs = [c for r in records for c in r["certificates"]]
    out = {
        "bounds.errors": sum(1 for c in certs if c["error"] is not None),
        **{f"bounds.unsound.{k}": sum(1 for c in certs if k in c["unsound"]) for k in stream.CHECKS},
    }
    for m in stream.CATALOG_ORDER:
        out[f"bounds.fail.{m}"] = sum(1 for c in certs if c["model"] == m and failed(c))
    return out


def per_layer(records, tracer, import_s, span_cost_s) -> dict:
    measured = [r["id"] for r in records]
    metrics = tracing.layer_metrics(tracer, measured, span_cost_s)
    fresh = tracing.fresh_thresholds(tracer.spans)
    for r in records:
        r["counts"] = tracing.request_counts(tracer.spans, fresh, r["id"])
    sizes = [(c["entries"], c["eigenvalues"]) for r in records for c in r["certificates"]
             if "entries" in c]
    if not sizes:  # verify-cli builds its spectra inside the CLI
        wanted = set(measured)
        sizes = [s[tracing.NOTE] for s in tracer.spans
                 if s[tracing.REQUEST] in wanted and s[tracing.NAME].startswith("modelspectra.spectrum.")
                 and s[tracing.NOTE] is not None]
    metrics["modelspectra.entries"] = statistics.fmean(e for e, _ in sizes) if sizes else 0.0
    metrics["modelspectra.eigenvalues"] = statistics.fmean(n for _, n in sizes) if sizes else 0.0
    metrics["cli.import_s"] = import_s
    metrics["requests"] = len(records)
    metrics.update(failure_counts(records))
    return metrics


def run_metadata(workload: str, seed: int, seconds: int, trace: int) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=30, check=True,
            ).stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((SRC / "orbispec").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": commit or "unknown (not a git checkout)",
        "source_sha256": digest.hexdigest()[:16],
    }


def _child_setup(workload: str, seed: int) -> tuple[float, float]:
    """(wall, reference) seconds of one set-up in a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        env=_child_env(), cwd=ROOT, capture_output=True, text=True, check=True,
        timeout=CHILD_TIMEOUT_S,
    )
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return float(out["wall_s"]), float(out["setup_s"])


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up and print it as JSON (used for the set-up repeats)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "orbispec" / "__init__.py").is_file():
        print(f"error: orbispec sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]()
    tracer = tracing.Tracer() if args.trace else None

    _, setup_wall, setup_ref = speed.timed(lambda: workload.setup(args.seed, tracer))
    if args.setup_only:
        print(json.dumps({"setup_s": setup_ref, "wall_s": setup_wall}))
        return 0
    records = measure(workload, args.seed, args.seconds, tracer)

    checked = records + getattr(workload, "warmup", [])
    certs = [c for r in checked for c in r["certificates"]]
    # Correct: some certificate came back, and none is unsound outside the known defect.
    correct = any(c["error"] is None for c in certs) and not any(c["unexpected"] for c in certs)
    attempted = sum(len(r["certificates"]) for r in records)
    n_failed = sum(1 for r in records for c in r["certificates"] if failed(c))

    meta = run_metadata(args.workload, args.seed, args.seconds, args.trace)
    detail = {"meta": meta, "records": records}
    if tracer is None:
        if args.workload == "verify-cli":
            setup_samples = workload.setup_samples
            rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        else:
            setup_samples = [(setup_wall, setup_ref)] + [
                _child_setup(args.workload, args.seed) for _ in range(SETUP_REPEATS - 1)
            ]
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics, notes = end_to_end(records, statistics.median(r for _, r in setup_samples), rss)
        notes["setup_s"] = "median of " + ", ".join(f"{r:.4f}" for _, r in setup_samples) + (
            "; wall: " + ", ".join(f"{w:.4f}" for w, _ in setup_samples) + " s"
        )
        detail["setup_samples"] = setup_samples
        table = END_TO_END
    else:
        tracer.restore()
        import_s = statistics.median(speed.timed(fresh_import)[1] for _ in range(IMPORT_REPEATS))
        metrics = per_layer(records, tracer, import_s, tracing.span_overhead_s())
        notes = {f"absent: {name}": "not found; its spans are missing" for name in tracer.absent}
        table = PER_LAYER
        detail["spans"] = tracer.spans
        detail["absent"] = tracer.absent
    detail["metrics"] = metrics

    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(detail, default=str) + "\n", encoding="utf-8")

    print("meta " + json.dumps(meta, sort_keys=True))
    for name, (unit, better) in table.items():
        print(f"{name:40s} {metrics[name]:>16.6g} {unit:6s} ({better} is better)"
              + (f"  [{notes[name]}]" if name in notes else ""))
    for name, note in notes.items():
        if name not in table:
            print(f"{name}: {note}")
    print(f"correct={correct} attempted={attempted} failed={n_failed} details={out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": n_failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, (u, _) in table.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
