"""The trend line's library-size field, on a throwaway tree."""
from __future__ import annotations

import importlib.util
import pathlib

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

