#!/usr/bin/env python3
"""Write BENCH_<pr>.json, the benchmark trend line, for a change and its parent.

Run from the repository root:

    python3 tools/bench_trend.py --pr 10 --parent HEAD~1 --seed 11

For each side (this checkout's tracked files as they stand in the working
tree, and the parent revision unpacked with ``git archive``, each placed
in the same temporary directory, so both run from a fresh copy at the
same depth) it runs ``perfbench/run.py`` on
every workload for the ``run_seconds`` that BENCHMARK.json fixes:
``--pairs`` untraced runs for the end-to-end metrics, with parent and
change alternating and the side that goes first alternating too, then one
traced run for the per-layer numbers.  It also times
``import orbispec.cli``, ``orbispec verify`` and ``orbispec verify --quick``
in fresh interpreters (wall seconds, median of CLI_REPEATS, the two sides
taking turns in each repeat, every repeat kept beside the median), runs a
same-process A/B of the certify path (``--pairs`` fresh processes per side,
taking turns the same way, each timing AB_CYCLES cycles of perfbench's
certify-stream and truncation-sweep requests in process; see time_cycles),
counts the ``scipy`` modules a fresh ``orbispec verify --quick`` leaves loaded,
reads the library's size (lines in ``src/orbispec/*.py`` and the length of
``orbispec.__all__``, the names from a fresh interpreter on the side's
tree), and runs the tier-1 pytest suite
once in the side's tree (wall seconds and pytest's summary line; bytecode
goes to a fresh cache directory per side, so both sides compile cold and
nothing is written into the tree but the hypothesis database).  Each side
runs its own ``perfbench`` and sources, so both are measured with the benchmark code of
their own commit; give a parent whose benchmark matches when the numbers
are to be compared.

The JSON holds the versions and machine, the settings, and per side its
commit (for this checkout "uncommitted" when ``git status --porcelain`` is
not empty; ``source_sha256`` identifies the sources either way) and per
workload the median, quartiles and every run of each end-to-end metric,
the per-layer self-time shares and ``bounds.radii_tried`` from the traced
run, ``same_process_s`` (per stream the median, quartiles and every run of
the A/B's wall seconds per request), the import and CLI wall times
(``cli_wall_s`` and ``import_wall_s`` the medians, ``cli_wall_runs_s`` and
``import_wall_runs_s`` every repeat in run order), the scipy module count, the library size and the pytest run.
Per workload, ``pairs_won`` counts for each end-to-end metric the pairs in
which the change read better than the parent run beside it, in the
direction BENCHMARK.json gives; ties count for neither side.
``same_process_pairs_won`` counts per stream the A/B runs in which the
change took less time than the parent run beside it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SECONDS = BENCHMARK["run_seconds"]
WORKLOADS = ("verify-cli", "certify-stream", "truncation-sweep")
# Per-layer metrics kept from a traced run, besides every self_share.* entry.
TRACE_KEYS = ("bounds.radii_tried",)
CLI_REPEATS = 5
# Timed cycles of each stream in one same-process A/B run (after one
# untimed cycle); about 1 s per run on a 2-core Xeon.
AB_CYCLES = 200
AB_STREAMS = ("truncation-sweep", "certify-stream")
# Runs time_cycles from this file in a side's tree: argv is this file, the
# seed and the number of cycles.
AB_PROGRAM = (
    "import runpy, sys\n"
    "runpy.run_path(sys.argv[1])['time_cycles'](int(sys.argv[2]), int(sys.argv[3]))"
)
RUN_TIMEOUT_S = 900
CLI_PROGRAM = "import sys, orbispec.cli; sys.exit(orbispec.cli.main(sys.argv[1:]))"
IMPORT_PROGRAM = "import orbispec.cli"
SCIPY_PROGRAM = (
    "import contextlib, io, sys, orbispec.cli\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    orbispec.cli.main(['verify', '--quick'])\n"
    "print(sum(m == 'scipy' or m.startswith('scipy.') for m in sys.modules))"
)
NAMES_PROGRAM = "import orbispec; print(len(orbispec.__all__))"
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider")
PYTEST_TIMEOUT_S = 1800


def _git(*args: str, cwd: Path = ROOT) -> str:
    return subprocess.run(
        ["git", *args], cwd=cwd, capture_output=True, text=True, check=True, timeout=60
    ).stdout.strip()


def tree_commit(root: Path) -> str:
    """HEAD of the checkout at root, or "uncommitted" when ``git status
    --porcelain`` lists any change: HEAD then names the parent of what runs."""
    if _git("status", "--porcelain", cwd=root):
        return "uncommitted"
    return _git("rev-parse", "HEAD", cwd=root)


def copy_tracked(root: Path, dest: Path) -> Path:
    """The working-tree contents of the files git tracks in root, copied
    under dest (a tracked file deleted from the working tree is left out)."""
    tree = dest / "change"
    for name in _git("ls-files", "-z", cwd=root).split("\0"):
        source = root / name
        if name and source.is_file():
            target = tree / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)
    return tree


def unpack(rev: str, dest: Path) -> Path:
    """The committed tree of rev, unpacked under dest."""
    archive = dest / "tree.tar"
    with archive.open("wb") as fh:
        subprocess.run(["git", "archive", rev], cwd=ROOT, stdout=fh, check=True, timeout=120)
    tree = dest / "tree"
    tree.mkdir()
    with tarfile.open(archive) as tar:
        tar.extractall(tree, filter="data")
    return tree


def perfbench(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Metric values, run metadata and correctness of one perfbench run in root."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, check=True, timeout=RUN_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    meta = next(json.loads(ln[5:]) for ln in lines if ln.startswith("meta "))
    return {
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "meta": meta,
    }


def _env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return env


def _turns(sides: dict[str, Path], repeats: int):
    """The sides in run order: every repeat runs each side once, and the
    side that goes first alternates, so a drift in the machine's speed
    reaches both alike."""
    names = list(sides)
    for i in range(repeats):
        yield from names if i % 2 == 0 else names[::-1]


def fresh_wall(sides: dict[str, Path], argv: list[str]) -> dict[str, list[float]]:
    """Per side, the wall seconds of each of CLI_REPEATS runs of `python
    <argv>` in a fresh interpreter, in run order (the sides take turns, see
    _turns).

    The child's output goes to a pipe, whose end of file ends the wait as
    the child exits: with a timeout and no pipe, subprocess waits by
    polling, sleeping up to 50 ms between polls, which put every wall on a
    50 ms grid (the 0.05 s steps between the sides in BENCH_28 to BENCH_31).
    """
    times: dict[str, list[float]] = {side: [] for side in sides}
    for side in _turns(sides, CLI_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, *argv], cwd=sides[side],
            env=_env(sides[side]), stdout=subprocess.PIPE, check=True,
            timeout=RUN_TIMEOUT_S,
        )
        times[side].append(time.perf_counter() - t0)
    return times


def time_cycles(seed: int, cycles: int) -> None:
    """Print, as one JSON line, per stream of AB_STREAMS the median over
    `cycles` cycles of the wall seconds per request.

    Runs in a side's tree (the working directory) on that side's library
    and perfbench/stream.py, whose request generators and scaled spectra it
    reads as perfbench/run.py does.  A truncation-sweep request times the
    spectrum build and the pipeline with the true n and v at kappa = 0, on
    torus models warmed at the lowest sweep truncation; it runs first, as
    the catalog records are shared and certify-stream builds every model's
    spectrum at its full truncation.  A certify-stream request times
    spectral_singular_point_bound(spec, kappa) on the rescaled catalog
    spectrum.  A request that raises is timed to the raise.  One untimed
    cycle of each stream runs first.
    """
    sys.path.insert(0, str(Path.cwd() / "perfbench"))
    import stream
    from orbispec import bounds, modelspectra

    pipeline = bounds.spectral_singular_point_bound

    def timed(call) -> float:
        t0 = time.perf_counter()
        try:
            call()
        except Exception:  # timed to the raise, as perfbench records it
            pass
        return time.perf_counter() - t0

    def sweep():
        tori = {key: modelspectra.catalog_model(key) for key in stream.TORUS_FAMILY}
        for model in tori.values():
            model.spectrum(stream.SWEEP_RANGE[0])

        def run(req) -> float:
            model = tori[req.model_id]
            return timed(lambda: pipeline(
                model.spectrum(req.truncation), 0.0, n=model.dimension, v=model.volume
            ))

        return run, stream.sweep_requests(seed), stream.SWEEP_CYCLE

    def certify():
        models = modelspectra.model_catalog()
        curvature = {m.model_id: m.curvature_lower_bound for m in models}
        held = {
            m.model_id: m.spectrum(stream.FULL_TRUNCATIONS[(m.kind, m.dimension)])
            for m in models
        }

        def run(req) -> float:
            spec = stream.scaled_spectrum(held[req.model_id], req.c)
            return timed(lambda: pipeline(spec, req.kappa))

        return run, stream.certify_requests(seed, curvature), len(stream.STREAM_CYCLE)

    out = {}
    for name, setup in (("truncation-sweep", sweep), ("certify-stream", certify)):
        run, requests, size = setup()
        per_request = [
            statistics.fmean(run(next(requests)) for _ in range(size))
            for _ in range(cycles + 1)
        ]
        out[name] = statistics.median(per_request[1:])
    print(json.dumps(out))


def same_process(sides: dict[str, Path], seed: int, repeats: int) -> dict[str, dict]:
    """Per side and stream, the seconds per request of each of `repeats`
    fresh processes running time_cycles, in run order (the sides take
    turns, see _turns).  Both sides run this file's time_cycles, so only
    the library and its stream module differ between them."""
    runs: dict[str, dict] = {side: {name: [] for name in AB_STREAMS} for side in sides}
    for side in _turns(sides, repeats):
        proc = subprocess.run(
            [sys.executable, "-c", AB_PROGRAM, str(Path(__file__).resolve()), str(seed),
             str(AB_CYCLES)],
            cwd=sides[side], env=_env(sides[side]), stdout=subprocess.PIPE, text=True,
            check=True, timeout=RUN_TIMEOUT_S,
        )
        for name, value in json.loads(proc.stdout.strip().splitlines()[-1]).items():
            runs[side][name].append(value)
    return runs


def cli_wall(sides: dict[str, Path], args: list[str]) -> dict[str, list[float]]:
    """Per side, the wall seconds of each run of `orbispec <args>` (see fresh_wall)."""
    return fresh_wall(sides, ["-c", CLI_PROGRAM, *args])


def wall_fields(side: str, cli: dict[str, dict], imports: dict[str, list[float]]) -> dict:
    """One side's fresh-interpreter fields: the medians, and every repeat beside them."""
    return {
        "cli_wall_s": {cmd: statistics.median(walls[side]) for cmd, walls in cli.items()},
        "cli_wall_runs_s": {cmd: walls[side] for cmd, walls in cli.items()},
        "import_wall_s": statistics.median(imports[side]),
        "import_wall_runs_s": imports[side],
    }


def scipy_modules(root: Path) -> int:
    """How many scipy modules a fresh `orbispec verify --quick` in root leaves loaded."""
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_PROGRAM], cwd=root, env=_env(root),
        capture_output=True, text=True, check=True, timeout=RUN_TIMEOUT_S,
    )
    return int(proc.stdout.strip().splitlines()[-1])


def library_size(root: Path) -> dict:
    """Lines in root's src/orbispec/*.py and the number of names in its orbispec.__all__."""
    lines = sum(p.read_bytes().count(b"\n") for p in (root / "src" / "orbispec").glob("*.py"))
    proc = subprocess.run(
        [sys.executable, "-c", NAMES_PROGRAM], cwd=root, env=_env(root),
        capture_output=True, text=True, check=True, timeout=RUN_TIMEOUT_S,
    )
    return {"lines": lines, "public_names": int(proc.stdout.strip())}


def pytest_wall(root: Path, pycache: Path) -> dict:
    """Wall seconds, exit code and summary line of one tier-1 pytest run in root."""
    env = _env(root)
    env["PYTHONPYCACHEPREFIX"] = str(pycache)
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *TIER1], cwd=root, env=env, capture_output=True, text=True,
        timeout=PYTEST_TIMEOUT_S,
    )
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": wall, "returncode": proc.returncode, "summary": lines[-1] if lines else ""}


def summary(values: list[float]) -> dict:
    """Median, quartiles and every run."""
    qs = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": qs[0], "q3": qs[2], "runs": values}


def pairs_won(change: list[dict], parent: list[dict]) -> dict:
    """Per end-to-end metric, the pairs whose change run beats its parent run."""
    sign = {m["name"]: 1 if m["better"] == "higher" else -1 for m in BENCHMARK["end_to_end"]}
    return {
        k: sum(sign[k] * (c["metrics"][k] - p["metrics"][k]) > 0 for c, p in zip(change, parent))
        for k in change[0]["metrics"] if k in sign
    }


def measure(sides: dict[str, Path], args, scratch: Path) -> tuple[dict, dict, dict]:
    """Per side the summaries described above, the untraced runs, and one run's metadata."""
    runs = {side: {w: [] for w in WORKLOADS} for side in sides}
    names = list(sides)
    for i in range(args.pairs):
        order = names if i % 2 == 0 else names[::-1]
        for workload in WORKLOADS:
            for side in order:
                runs[side][workload].append(
                    perfbench(sides[side], workload, args.seed, SECONDS, trace=0)
                )
    cli = {cmd: cli_wall(sides, cmd.split()) for cmd in ("verify", "verify --quick")}
    imports = fresh_wall(sides, ["-c", IMPORT_PROGRAM])
    ab = same_process(sides, args.seed, args.pairs)
    out = {}
    for side, root in sides.items():
        workloads = {}
        for workload in WORKLOADS:
            plain = runs[side][workload]
            traced = perfbench(root, workload, args.seed, SECONDS, trace=1)["metrics"]
            workloads[workload] = {
                "end_to_end": {
                    k: summary([r["metrics"][k] for r in plain]) for k in plain[0]["metrics"]
                },
                "correct": all(r["correct"] for r in plain),
                "attempted": [r["attempted"] for r in plain],
                "failed": [r["failed"] for r in plain],
                "per_layer": {
                    k: v for k, v in traced.items()
                    if k.startswith("self_share.") or k in TRACE_KEYS
                },
            }
        out[side] = {
            "source_sha256": plain[0]["meta"]["source_sha256"],
            "workloads": workloads,
            "same_process_s": {name: summary(values) for name, values in ab[side].items()},
            **wall_fields(side, cli, imports),
            "scipy_modules_verify_quick": scipy_modules(root),
            "library": library_size(root),
            "pytest": pytest_wall(root, scratch / f"pycache-{side}"),
        }
    out["change"]["same_process_pairs_won"] = {
        name: sum(c < p for c, p in zip(ab["change"][name], ab["parent"][name]))
        for name in AB_STREAMS
    }
    return out, runs, runs[names[0]][WORKLOADS[0]][0]["meta"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", required=True, type=int, help="number in the file name")
    parser.add_argument("--parent", required=True,
                        help="git revision to measure beside this checkout")
    parser.add_argument("--pairs", type=int, default=10, help="untraced runs per workload and side")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    commit = tree_commit(ROOT)
    with tempfile.TemporaryDirectory(prefix="bench-trend-") as name:
        tmp = Path(name)
        sides = {"change": copy_tracked(ROOT, tmp), "parent": unpack(args.parent, tmp)}
        results, runs, meta = measure(sides, args, tmp)
    results["change"]["commit"] = commit
    results["parent"]["commit"] = _git("rev-parse", args.parent)
    for workload in WORKLOADS:
        results["change"]["workloads"][workload]["pairs_won"] = pairs_won(
            runs["change"][workload], runs["parent"][workload]
        )

    report = {
        "pr": args.pr,
        "versions": {k: meta[k] for k in ("python", "numpy", "scipy")},
        "machine": {k: meta[k] for k in ("cpu_model", "nproc", "openblas_num_threads", "omp_num_threads")},
        "settings": {
            "seed": args.seed, "seconds": SECONDS, "pairs": args.pairs,
            "cli_repeats": CLI_REPEATS, "workloads": list(WORKLOADS),
            "same_process_cycles": AB_CYCLES,
            "times": (
                "end-to-end times in perfbench reference seconds; "
                "cli_wall_s, import_wall_s, their *_runs_s, same_process_s "
                "and pytest.wall_s in wall seconds"
            ),
        },
        **results,
    }
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
