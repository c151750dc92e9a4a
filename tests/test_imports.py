"""The library's public names and import graph.

`orbispec.__all__` must equal a checked-in list, so a public name is added or
removed on purpose.  A fresh interpreter that imports orbispec and runs
`orbispec verify --quick` loads only scipy.linalg and scipy.special from
scipy, so a stray import cannot bring the optimizer, sparse or statistics
stacks back into every cold start, and no test-only module of the library
(the former `orbispec.netpack`) comes back with them.  The command-line
front end is a thin layer over the pipelines, so it imports no private
(underscore-prefixed) name of the library."""

from __future__ import annotations

import ast
import os
import pathlib
import subprocess
import sys

import orbispec

ROOT = pathlib.Path(__file__).resolve().parents[1]
FORBIDDEN = (
    "scipy.optimize", "scipy.sparse", "scipy.spatial", "scipy.integrate", "scipy.stats",
    "orbispec.netpack",
)
PUBLIC_NAMES = [
    "BoundReport", "CertificationError", "ConvergenceError", "DomainError",
    "ModelOrbifold", "OrthogonalAction", "SingularPoint", "SpaceForm", "Spectrum",
    "WeylFit", "__version__", "alpha_constant", "ball_volume", "best_diameter_bound",
    "bonnet_myers_cap", "catalog_model", "cone_volume", "counting_function",
    "cyclic_generator", "default_r_grid", "diameter_bound", "ell_constant",
    "estimate_dimension", "estimate_volume", "flat_torus_spectrum", "generalized_sin",
    "harmonic_multiplicity", "isotropy_order_cap",
    "linked_complement_measure", "lowest_dirichlet_eigenvalue",
    "model_catalog", "packing_bound", "r_constant",
    "singular_point_cap", "spectral_isotropy_bound", "spectral_singular_point_bound",
    "spectrum_content_id", "sphere_measure", "sphere_rotation_action",
    "sphere_spectrum", "unit_ball_volume", "weyl_fit",
]

PROGRAM = f"""
import contextlib, io, sys
import orbispec, orbispec.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = orbispec.cli.main(["verify", "--quick"])
loaded = sorted(m for m in sys.modules if m.startswith({FORBIDDEN!r}))
print(code, " ".join(loaded))
"""


def test_public_names_are_the_checked_in_list():
    assert sorted(orbispec.__all__) == PUBLIC_NAMES
    assert all(hasattr(orbispec, name) for name in PUBLIC_NAMES)


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


def test_cli_imports_no_private_library_name():
    tree = ast.parse((ROOT / "src" / "orbispec" / "cli.py").read_text(encoding="utf-8"))
    private = [
        f"{node.module or '.'}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "orbispec")
        for alias in node.names
        if alias.name.startswith("_") and alias.name != "__version__"
    ]
    assert private == [], f"orbispec.cli imports private names: {private}"
