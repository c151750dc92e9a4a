#!/usr/bin/env python3
"""List the library lines that a pytest run never executes.

Run from the repository root, with any pytest arguments after the script:

    python3 tools/linetrace.py -q -p no:cacheprovider

It runs pytest in this interpreter under ``sys.settrace`` (and
``threading.settrace``), recording line events only in files under
``src/orbispec``, then prints ``path:line`` for every executable line that no
event reached, and their count.  A line is executable when some code object
compiled from the file reports it through ``co_lines``.  Standard library
only; no coverage package is needed.  Tracing about doubles the run time.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "orbispec"


def executable_lines(path: Path) -> set[int]:
    """Line numbers that the code objects compiled from ``path`` report."""
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    lines: set[int] = set()
    while todo:
        code = todo.pop()
        # None marks instructions without a line, 0 a module's entry.
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def missed_lines(directory: Path, run) -> dict[Path, list[int]]:
    """Call ``run()`` under the tracer; per ``*.py`` file under ``directory``,
    the sorted executable lines it never reached (files it reached fully are
    left out)."""
    prefix = str(directory.resolve())
    hit: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            hit[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        hit.setdefault(name, set()).add(frame.f_lineno)
        return local

    # Restored afterwards, so a traced run can itself run this one.
    previous = sys.gettrace(), threading.gettrace()
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        run()
    finally:
        sys.settrace(previous[0])
        threading.settrace(previous[1])
    missed = {}
    for path in sorted(directory.resolve().rglob("*.py")):
        left = executable_lines(path) - hit.get(str(path), set())
        if left:
            missed[path] = sorted(left)
    return missed


def main(argv: list[str]) -> int:
    import pytest

    sys.path.insert(0, str(LIBRARY.parent))
    status = []
    missed = missed_lines(LIBRARY, lambda: status.append(pytest.main(argv)))
    for path, lines in missed.items():
        for line in lines:
            print(f"{path.relative_to(ROOT)}:{line}")
    print(f"{sum(map(len, missed.values()))} executable library lines not reached")
    return int(status[0]) if status else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
