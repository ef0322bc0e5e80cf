"""If-arm audit: each `if` in src/drmdp with an arm that no test runs.

    PYTHONPATH=src:tests python -m pytest -q -m "not slow" -p arc_audit

A `sys.settrace` tracer records, in every frame of a drmdp source file,
each step from one line to the next.  An `if` takes its true arm when a
step goes from a line of its test into its body, and its false arm when a
step goes from a line of its test anywhere else, or the frame returns
straight from its test.  At the end of the session every `if` with an arm
that never ran is printed, one line each, and the run exits nonzero if any
of them is not in EXPECTED.  The plugin is not part of the test suite; it
needs no coverage package.
"""

import ast
import importlib.util
import sys
import threading
from collections import defaultdict
from pathlib import Path

SRC = Path(importlib.util.find_spec("drmdp").origin).resolve().parent
RETURN = 0  # the line a step out of a returning frame goes to
# (file, source text, arm) of each arm no test can run: the command's
# script entry point, which an import never takes
EXPECTED = {("cli.py", 'if __name__ == "__main__":', "true")}
_arcs = defaultdict(set)  # source file -> {(from line, to line)}
_traced = {}  # code filename -> its source file, or None if not drmdp's
_unrun = []  # (file name, line, source text, arm) of each arm never run


def _source_of(filename):
    if filename not in _traced:
        path = Path(filename).resolve()
        _traced[filename] = path if path.parent == SRC else None
    return _traced[filename]


def _trace(frame, event, arg):
    path = _source_of(frame.f_code.co_filename)
    if path is None:
        return None
    arcs, last = _arcs[path], [None]

    def step(frame, event, arg):
        if event == "line":
            if last[0] is not None:
                arcs.add((last[0], frame.f_lineno))
            last[0] = frame.f_lineno
        elif event == "return" and last[0] is not None:
            arcs.add((last[0], RETURN))
        elif event == "exception":
            # a raising test takes neither arm
            last[0] = None
        return step

    return step


def _missing_arms(path):
    """(line, source text, arm) for each arm of an `if` in path that the
    recorded steps never took."""
    text = path.read_text()
    lines = text.splitlines()
    arcs = _arcs[path]
    for node in ast.walk(ast.parse(text)):
        if not isinstance(node, ast.If):
            continue
        test = set(range(node.lineno, node.test.end_lineno + 1))
        body = set(range(node.body[0].lineno, node.body[-1].end_lineno + 1))
        left = {b for a, b in arcs if a in test and b not in test}
        for arm, taken in (("true", left & body), ("false", left - body)):
            if not taken:
                yield node.lineno, lines[node.lineno - 1].strip(), arm


def pytest_sessionfinish(session):
    sys.settrace(None)
    threading.settrace(None)
    _unrun.extend(
        (path.name, line, source, arm)
        for path in sorted(SRC.glob("*.py"))
        for line, source, arm in sorted(_missing_arms(path))
    )
    if session.exitstatus == 0 and any((name, source, arm) not in EXPECTED for name, _, source, arm in _unrun):
        session.exitstatus = 1


def pytest_terminal_summary(terminalreporter):
    terminalreporter.section("if arms that never ran")
    found = [
        f"{name}:{line}: {source}  [{arm} arm]" + ("  (expected)" if (name, source, arm) in EXPECTED else "")
        for name, line, source, arm in _unrun
    ]
    for entry in found or ["none"]:
        terminalreporter.write_line(entry)


# installed on import, before the test modules import drmdp, so that
# module-level code is traced too
sys.settrace(_trace)
threading.settrace(_trace)
