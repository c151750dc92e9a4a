"""The line tracer, on a throwaway module."""
from __future__ import annotations

import importlib.util
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

MODULE = '''\
def sign(x):
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


def unused():
    return [
        2
        for _ in range(3)
    ]
'''


def _linetrace():
    spec = importlib.util.spec_from_file_location("linetrace", ROOT / "tools" / "linetrace.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_missed_lines_lists_each_unreached_executable_line(tmp_path):
    linetrace = _linetrace()
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "branches.py").write_text(MODULE)
    (pkg / "whole.py").write_text("X = 1\n")
    assert linetrace.executable_lines(pkg / "branches.py") == {1, 2, 3, 4, 5, 6, 9, 10, 11, 12}

    def run():
        sys.path.insert(0, str(tmp_path))
        try:
            import pkg.branches
            import pkg.whole  # noqa: F401

            assert pkg.branches.sign(2) == 1 and pkg.branches.sign(0) == 0
        finally:
            sys.path.remove(str(tmp_path))
            for name in ("pkg", "pkg.branches", "pkg.whole"):
                sys.modules.pop(name, None)

    missed = linetrace.missed_lines(pkg, run)
    # sign(-1) never ran, nor unused(); blank lines and the module's fully
    # run twin are not listed.
    assert missed == {(pkg / "branches.py").resolve(): [5, 10, 11, 12]}
