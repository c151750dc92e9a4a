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
taking turns in each repeat, every repeat kept beside the median), counts
the ``scipy`` modules a fresh ``orbispec verify --quick`` leaves loaded,
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
run, the import and CLI wall times (``cli_wall_s`` and ``import_wall_s``
the medians, ``cli_wall_runs_s`` and ``import_wall_runs_s`` every repeat in
run order), the scipy module count, the library size and the pytest run.
Per workload, ``pairs_won`` counts for each end-to-end metric the pairs in
which the change read better than the parent run beside it, in the
direction BENCHMARK.json gives; ties count for neither side.
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


def fresh_wall(sides: dict[str, Path], argv: list[str]) -> dict[str, list[float]]:
    """Per side, the wall seconds of each of CLI_REPEATS runs of `python
    <argv>` in a fresh interpreter, in run order.

    The sides take turns within each repeat, and the side that goes first
    alternates, so a drift in the machine's speed reaches both alike.  The
    child's output goes to a pipe, whose end of file ends the wait as the
    child exits: with a timeout and no pipe, subprocess waits by polling,
    sleeping up to 50 ms between polls, which put every wall on a 50 ms
    grid (the 0.05 s steps between the sides in BENCH_28 to BENCH_31).
    """
    names = list(sides)
    times: dict[str, list[float]] = {side: [] for side in names}
    for i in range(CLI_REPEATS):
        for side in names if i % 2 == 0 else names[::-1]:
            t0 = time.perf_counter()
            subprocess.run(
                [sys.executable, *argv], cwd=sides[side],
                env=_env(sides[side]), stdout=subprocess.PIPE, check=True,
                timeout=RUN_TIMEOUT_S,
            )
            times[side].append(time.perf_counter() - t0)
    return times


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
            **wall_fields(side, cli, imports),
            "scipy_modules_verify_quick": scipy_modules(root),
            "library": library_size(root),
            "pytest": pytest_wall(root, scratch / f"pycache-{side}"),
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
            "times": (
                "end-to-end times in perfbench reference seconds; "
                "cli_wall_s, import_wall_s, their *_runs_s and pytest.wall_s "
                "in wall seconds"
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
