"""List the library lines that no tier-1 test reaches.

Runs the tier-1 suite in this process under a `sys.settrace` line tracer
that follows only the frames of `src/vrcgsim`, then prints, for each of
its modules, the executable lines that no test executed, and the total.
Each such line is to be tested or deleted. Tests that run the library in
a subprocess do not count. Hypothesis draws from a fixed seed, so runs of
one tree give one count. A run takes a few minutes; arguments, if any,
go to pytest in place of the tests directory.

    python tests/unreached.py
"""
import dis
import os
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "vrcgsim"


def executable_lines(path: Path) -> set[int]:
    """The lines of a source file that start a bytecode instruction."""
    lines: set[int] = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)
        todo += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return lines


def spans(lines: list[int]) -> str:
    """Sorted line numbers as runs, e.g. '3-5, 9'."""
    out: list[list[int]] = []
    for line in lines:
        if out and line == out[-1][1] + 1:
            out[-1][1] = line
        else:
            out.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in out)


def run_traced(args: list[str]) -> tuple[int, set[tuple[str, int]]]:
    """pytest's exit code on args, and the (file, line) pairs of the library it ran."""
    library = str(LIBRARY) + os.sep
    ours: dict[str, str | None] = {}  # code file name -> its real path, if in the library
    reached: set[tuple[str, int]] = set()

    def line(frame, event, arg):
        if event == "line":
            reached.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in ours:
            real = os.path.realpath(name)
            ours[name] = real if real.startswith(library) else None
        return line if ours[name] else None

    sys.settrace(call)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                            "--hypothesis-seed=0", *(args or [str(ROOT / "tests")])])
    finally:
        sys.settrace(None)
    return int(code), {(ours[name], n) for name, n in reached}


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    code, reached = run_traced(argv)
    missed = total = 0
    for path in sorted(LIBRARY.glob("*.py")):
        lines = executable_lines(path)
        unreached = sorted(n for n in lines if (str(path), n) not in reached)
        total += len(lines)
        missed += len(unreached)
        if unreached:
            print(f"{path.relative_to(ROOT)}: {len(unreached)} of {len(lines)}: {spans(unreached)}")
    print(f"unreached: {missed} of {total} executable lines")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
