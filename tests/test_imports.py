"""The library's import graph: a fresh interpreter that imports orbispec and
runs `orbispec verify --quick` loads only scipy.linalg and scipy.special
from scipy, so a stray import cannot bring the optimizer, sparse or
statistics stacks back into every cold start."""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
FORBIDDEN = ("scipy.optimize", "scipy.sparse", "scipy.spatial", "scipy.integrate", "scipy.stats")

PROGRAM = f"""
import contextlib, io, sys
import orbispec, orbispec.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = orbispec.cli.main(["verify", "--quick"])
loaded = sorted(m for m in sys.modules if m.startswith({FORBIDDEN!r}))
print(code, " ".join(loaded))
"""


def test_library_imports_no_heavy_scipy_subpackage():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", PROGRAM], env=env, cwd=ROOT,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    code, _, loaded = proc.stdout.strip().partition(" ")
    assert code == "0", proc.stdout
    assert loaded == "", f"library import pulled in: {loaded}"
