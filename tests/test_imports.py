"""The library's public names and import graph.

`orbispec.__all__` must equal a checked-in list, so a public name is added or
removed on purpose.  A fresh interpreter loads no scipy module at all when it
imports orbispec and orbispec.cli, runs `orbispec verify` with or without
--quick, or certifies spectrum-only at n = 2..5 with kappa of each sign: the
pipelines' special functions are elementary and LAPACK loads only with the
Ritz kernel, which `orbispec eig-ball` still reaches through scipy.linalg.
The first spectrum-only certificate leaves numpy.ma unloaded too.
No test-only module of the library (the former `orbispec.netpack`) comes
back either.  The command-line front end is a thin layer over the
pipelines, so it imports no private (underscore-prefixed) name of the
library."""

from __future__ import annotations

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import orbispec

ROOT = pathlib.Path(__file__).resolve().parents[1]
FORBIDDEN = ("scipy", "orbispec.netpack")
PUBLIC_NAMES = [
    "BoundReport", "CertificationError", "ConvergenceError", "DomainError",
    "ModelOrbifold", "OrthogonalAction", "SingularPoint", "SpaceForm", "Spectrum",
    "WeylFit", "__version__", "alpha_constant", "ball_volume", "best_diameter_bound",
    "bonnet_myers_cap", "catalog_model", "cone_volume", "counting_function",
    "cyclic_generator", "diameter_bound", "ell_constant",
    "estimate_dimension", "estimate_volume", "flat_torus_spectrum", "generalized_sin",
    "harmonic_multiplicity", "isotropy_order_cap",
    "linked_complement_measure", "lowest_dirichlet_eigenvalue",
    "model_catalog", "packing_bound", "r_constant",
    "singular_point_cap", "spectral_isotropy_bound", "spectral_singular_point_bound",
    "spectrum_content_id", "sphere_measure", "sphere_rotation_action",
    "sphere_spectrum", "unit_ball_volume", "weyl_fit",
]

# Each program runs in a fresh interpreter and prints the exit codes of the
# commands it ran (none for a bare import).
CLI = """
import contextlib, io
import orbispec, orbispec.cli
codes = []
for argv in {argvs!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(orbispec.cli.main(argv))
print(*codes)
"""
SPECTRUM_ONLY = """
from orbispec import sphere_spectrum, spectral_singular_point_bound
for n, truncation in ((2, 10100.0), (3, 4032.0), (4, 2000.0), (5, 1500.0)):
    spec = sphere_spectrum(n, truncation)
    for kappa in (1.0, 0.0, -0.1):
        assert spectral_singular_point_bound(spec, kappa).singular_cap >= 1
print(0)
"""
REPORT = """
import sys
print(" ".join(sorted(
    m for m in sys.modules if any(m == f or m.startswith(f + ".") for f in {FORBIDDEN!r})
)))
"""
SCIPY_FREE = {
    "import": "import orbispec, orbispec.cli",
    "verify": CLI.format(argvs=[["verify"]]),
    "verify-quick": CLI.format(argvs=[["verify", "--quick"]]),
    "spectrum-only": SPECTRUM_ONLY,
}


def _fresh(program: str) -> tuple[str, list[str]]:
    """(what the program printed, the forbidden modules it left loaded)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", program + REPORT.format(FORBIDDEN=FORBIDDEN)], env=env,
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    *printed, loaded = proc.stdout.split("\n")[:-1]
    return "\n".join(printed), loaded.split()


def test_public_names_are_the_checked_in_list():
    assert sorted(orbispec.__all__) == PUBLIC_NAMES
    assert all(hasattr(orbispec, name) for name in PUBLIC_NAMES)


@pytest.mark.parametrize("program", SCIPY_FREE, ids=list(SCIPY_FREE))
def test_pipelines_load_no_scipy(program):
    printed, loaded = _fresh(SCIPY_FREE[program])
    assert printed.split() == ([] if program == "import" else ["0"]), printed
    assert loaded == [], f"{program} pulled in: {' '.join(loaded)}"


def test_first_spectrum_only_certificate_stays_on_the_cold_path():
    # One spectrum-only certificate in a fresh interpreter: the Weyl fit
    # takes its median from a sort, as np.median's NaN check would import
    # numpy.ma (10 to 20 ms on the first certificate of a process), and no
    # special function needs scipy.
    program = (
        "import sys\n"
        "from orbispec import catalog_model, spectral_singular_point_bound\n"
        "spectral_singular_point_bound(catalog_model('s2-mod-3').spectrum(10100.0), 1.0)\n"
        "print(' '.join(m for m in sorted(sys.modules)"
        " if m == 'numpy.ma' or m.startswith('numpy.ma.')))\n"
    )
    printed, loaded = _fresh(program)
    assert printed == "", f"numpy.ma loaded: {printed}"
    assert loaded == [], f"pulled in: {' '.join(loaded)}"


def test_ritz_kernel_loads_scipy_linalg_on_first_use():
    # n = 2 at kappa = 1 is a Ritz key: no closed form gives the eigenvalue.
    argv = ["eig-ball", "--n", "2", "--kappa", "1", "--r", "1"]
    printed, loaded = _fresh(CLI.format(argvs=[argv]))
    assert printed == "0"
    assert "scipy.linalg" in loaded


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
