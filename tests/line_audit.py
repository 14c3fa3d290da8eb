"""Line audit: run the Tier-1 suite in this process under ``sys.settrace``
and print, for each module of ``src/qcatk``, the executable lines that no
test reached, in line order.

    python tests/line_audit.py [pytest arguments; default: the tests directory]

Only this process is traced.  CLI commands that tests start as
subprocesses are not, so a line that only they reach is listed as
unreached.  The run writes nothing into the working tree: the pytest cache
is off, no bytecode is written, and Hypothesis keeps its database in a
temporary directory that is removed afterwards.  Tracing makes the suite
several times slower.
"""

import os
import shutil
import sys
import tempfile
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qcatk"


def executable_lines(path: Path) -> set[int]:
    """The lines that the compiled module and its nested code objects
    attribute instructions to (line 0, the module's entry, is not one)."""
    lines = set()
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def traced_run(pytest_args: list[str]) -> tuple[int, dict[Path, set[int]]]:
    """Run pytest with the given arguments, or on the tests directory;
    return its exit code and the lines of each library file that ran."""
    reached: dict[str, set[int]] = {}
    inside: dict[str, bool] = {}
    prefix = str(PACKAGE) + os.sep

    def local(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in inside:
            inside[filename] = os.path.realpath(filename).startswith(prefix)
        if not inside[filename]:
            return None
        reached.setdefault(filename, set())
        return local

    import pytest

    threading.settrace(call)
    sys.settrace(call)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider",
                            *(pytest_args or [str(ROOT / "tests")])])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    by_path: dict[Path, set[int]] = {}
    for filename, lines in reached.items():
        by_path.setdefault(Path(os.path.realpath(filename)), set()).update(lines)
    return int(code), by_path


def main(argv: list[str]) -> int:
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    storage = tempfile.mkdtemp(prefix="line-audit-hypothesis-")
    os.environ["HYPOTHESIS_STORAGE_DIRECTORY"] = storage
    try:
        code, reached = traced_run(argv)
    finally:
        shutil.rmtree(storage, ignore_errors=True)
    rows, total, missed = [], 0, 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        unreached = sorted(lines - reached.get(path.resolve(), set()))
        total += len(lines)
        missed += len(unreached)
        rows.append(f"{path.name}: {len(unreached)} of {len(lines)}"
                    + (": " + " ".join(map(str, unreached)) if unreached else ""))
    print()
    print(f"line audit: {missed} of {total} executable lines in src/qcatk were not reached")
    print("(CLI commands that tests start as subprocesses are not traced)")
    print("\n".join(rows))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
