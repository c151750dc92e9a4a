"""The trend line's library-size, import, scipy and commit fields, on throwaway trees."""
from __future__ import annotations

import importlib.util
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _bench_trend():
    spec = importlib.util.spec_from_file_location("bench_trend", ROOT / "tools" / "bench_trend.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_library_size_reads_the_given_tree(tmp_path):
    pkg = tmp_path / "src" / "orbispec"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text('__all__ = ["a", "b", "c"]\na = b = c = 1\n')
    (pkg / "extra.py").write_text("x = 1\n\n\ny = 2\n")
    (pkg / "notes.txt").write_text("not\ncounted\n")
    assert _bench_trend().library_size(tmp_path) == {"lines": 6, "public_names": 3}


def test_cli_wall_alternates_the_sides(tmp_path, monkeypatch):
    # Each repeat runs both sides, and the side that goes first alternates,
    # so a drift in the machine's speed cannot read as a change.
    bench_trend = _bench_trend()
    sides = {"change": tmp_path / "change", "parent": tmp_path / "parent"}
    ran = []
    monkeypatch.setattr(bench_trend.subprocess, "run", lambda cmd, cwd, **kw: ran.append(cwd))
    walls = bench_trend.cli_wall(sides, ["verify", "--quick"])
    change, parent, repeats = sides["change"], sides["parent"], bench_trend.CLI_REPEATS
    turns = [change, parent, parent, change] * (repeats // 2) + [change, parent] * (repeats % 2)
    assert ran == turns
    assert set(walls) == set(sides)


def test_import_wall_times_a_bare_import_with_the_sides_alternating(tmp_path, monkeypatch):
    bench_trend = _bench_trend()
    sides = {"change": tmp_path / "change", "parent": tmp_path / "parent"}
    ran = []
    monkeypatch.setattr(
        bench_trend.subprocess, "run", lambda cmd, cwd, **kw: ran.append((cmd[1:], cwd))
    )
    walls = bench_trend.fresh_wall(sides, ["-c", bench_trend.IMPORT_PROGRAM])
    assert {tuple(cmd) for cmd, _ in ran} == {("-c", "import orbispec.cli")}
    change, parent, repeats = sides["change"], sides["parent"], bench_trend.CLI_REPEATS
    turns = [change, parent, parent, change] * (repeats // 2) + [change, parent] * (repeats % 2)
    assert [cwd for _, cwd in ran] == turns
    assert set(walls) == set(sides)


def test_same_process_ab_alternates_the_sides(tmp_path, monkeypatch):
    # Each A/B run is a fresh process on one side's tree; every repeat runs
    # both sides, the side that goes first alternates, and each side keeps
    # its runs' seconds per request in run order.
    bench_trend = _bench_trend()
    sides = {"change": tmp_path / "change", "parent": tmp_path / "parent"}
    ran = []

    def run(cmd, cwd, **kw):
        ran.append((cmd, cwd))
        value = float(len(ran))
        return subprocess.CompletedProcess(cmd, 0, stdout=json.dumps(
            {name: value for name in bench_trend.AB_STREAMS}
        ) + "\n")

    monkeypatch.setattr(bench_trend.subprocess, "run", run)
    runs = bench_trend.same_process(sides, 7, 5)
    change, parent = sides["change"], sides["parent"]
    turns = [change, parent, parent, change] * 2 + [change, parent]
    assert [cwd for _, cwd in ran] == turns
    assert all(cmd[1:3] == ["-c", bench_trend.AB_PROGRAM] and cmd[-2:] == ["7", str(
        bench_trend.AB_CYCLES)] for cmd, _ in ran)
    for name in bench_trend.AB_STREAMS:
        assert runs["change"][name] == [1.0, 4.0, 5.0, 8.0, 9.0]
        assert runs["parent"][name] == [2.0, 3.0, 6.0, 7.0, 10.0]


def test_time_cycles_prints_seconds_per_request_of_each_stream():
    # The A/B's child program, run as same_process runs it on this tree,
    # with one timed cycle of each stream.
    bench_trend = _bench_trend()
    proc = subprocess.run(
        [sys.executable, "-c", bench_trend.AB_PROGRAM, str(ROOT / "tools" / "bench_trend.py"),
         "1", "1"],
        cwd=ROOT, env=bench_trend._env(ROOT), capture_output=True, text=True, check=True,
        timeout=300,
    )
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert list(out) == list(bench_trend.AB_STREAMS)
    assert all(0.0 < value < 1.0 for value in out.values())


def test_fresh_walls_keep_every_repeat_beside_the_median(tmp_path, monkeypatch):
    # Each side's fresh-interpreter fields hold every repeat in run order,
    # so an offset between the sides can be read repeat by repeat.
    bench_trend = _bench_trend()
    sides = {"change": tmp_path / "change", "parent": tmp_path / "parent"}
    clock = iter(range(100))
    waits = []
    monkeypatch.setattr(bench_trend.subprocess, "run", lambda cmd, cwd, **kw: waits.append(kw))
    monkeypatch.setattr(bench_trend.time, "perf_counter", lambda: float(next(clock)) ** 2)
    cli = {"verify": bench_trend.cli_wall(sides, ["verify"])}
    imports = bench_trend.fresh_wall(sides, ["-c", bench_trend.IMPORT_PROGRAM])
    repeats = bench_trend.CLI_REPEATS
    for walls in (cli["verify"], imports):
        assert set(walls) == set(sides)
        assert all(len(runs) == repeats for runs in walls.values())
    fields = bench_trend.wall_fields("parent", cli, imports)
    assert fields == {
        "cli_wall_s": {"verify": statistics.median(cli["verify"]["parent"])},
        "cli_wall_runs_s": {"verify": cli["verify"]["parent"]},
        "import_wall_s": statistics.median(imports["parent"]),
        "import_wall_runs_s": imports["parent"],
    }
    # perf_counter reads k^2 at its k-th call, so each wall is an odd number
    # and none repeats: the runs are the samples themselves, not a summary.
    assert len(set(imports["parent"] + imports["change"])) == 2 * repeats
    json.dumps(fields)
    # Each run's output goes to a pipe, so its wall ends at the child's exit
    # rather than at the next poll of a wait with a timeout (every 50 ms).
    assert all(kw["stdout"] is subprocess.PIPE for kw in waits)
    assert all(kw["timeout"] == bench_trend.RUN_TIMEOUT_S for kw in waits)


def test_scipy_modules_counts_what_verify_quick_left_loaded(tmp_path):
    # A stand-in scipy on the tree's src shadows the installed one, so the
    # count is that of the tree's own imports.
    pkg = tmp_path / "src" / "orbispec"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "cli.py").write_text(
        "def main(argv):\n"
        "    assert argv == ['verify', '--quick']\n"
        "    print('report')\n"
        "    return 0\n"
    )
    count = _bench_trend().scipy_modules
    assert count(tmp_path) == 0
    fake = tmp_path / "src" / "scipy"
    fake.mkdir()
    (fake / "__init__.py").write_text("")
    (fake / "linalg.py").write_text("")
    (pkg / "cli.py").write_text(
        "def main(argv):\n"
        "    import scipy.linalg\n"
        "    return 0\n"
    )
    assert count(tmp_path) == 2


def test_tree_commit_marks_an_uncommitted_tree(tmp_path):
    def git(*args):
        return subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@example.org",
             "-c", "commit.gpgsign=false", *args],
            cwd=tmp_path, capture_output=True, text=True, check=True,
        ).stdout.strip()

    tree_commit = _bench_trend().tree_commit
    git("init", "-q")
    (tmp_path / "a.py").write_text("x = 1\n")
    git("add", "a.py")
    git("commit", "-q", "-m", "one")
    assert tree_commit(tmp_path) == git("rev-parse", "HEAD")
    (tmp_path / "a.py").write_text("x = 2\n")
    assert tree_commit(tmp_path) == "uncommitted"
    git("commit", "-q", "-am", "two")
    (tmp_path / "b.py").write_text("y = 1\n")
    assert tree_commit(tmp_path) == "uncommitted"


def test_copy_tracked_takes_the_working_tree_of_tracked_files(tmp_path):
    # The change side runs from a copy, as the parent does: tracked files
    # with their uncommitted edits, and nothing git does not track.
    repo, dest = tmp_path / "repo", tmp_path / "dest"
    repo.mkdir()
    dest.mkdir()

    def git(*args):
        subprocess.run(["git", *args], cwd=repo, capture_output=True, check=True)

    git("init", "-q")
    (repo / "pkg").mkdir()
    (repo / "pkg" / "a.py").write_text("x = 1\n")
    (repo / "gone.py").write_text("")
    git("add", "pkg/a.py", "gone.py")
    (repo / "pkg" / "a.py").write_text("x = 2\n")
    (repo / "gone.py").unlink()
    (repo / "untracked.py").write_text("")
    tree = _bench_trend().copy_tracked(repo, dest)
    assert sorted(str(p.relative_to(tree)) for p in tree.rglob("*")) == ["pkg", "pkg/a.py"]
    assert (tree / "pkg" / "a.py").read_text() == "x = 2\n"
