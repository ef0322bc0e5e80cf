"""What `import drmdp` loads of scipy: its compiled HiGHS module alone.

The first three tests, and the test of the attribute chain, run in a fresh
interpreter each, because this test process has already imported
scipy.sparse (other test modules do).
"""

import importlib.machinery
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import drmdp.lp as lp

SRC = Path(lp.__file__).resolve().parents[1]
CORE = "scipy.optimize._highspy._core"
LINPROG = (
    "from scipy.optimize import linprog\n"
    "res = linprog([-1.0, -2.0], A_ub=[[1.0, 1.0]], b_ub=[3.0], bounds=[(0, 2), (0, 2)], method='highs')\n"
    "assert res.status == 0 and abs(res.fun + 5.0) <= 1e-9, res\n"
)


def _run(code):
    """Run `code` in a fresh interpreter that imports drmdp from this
    checkout; returns its last line of output, parsed as JSON."""
    out = subprocess.run(
        [sys.executable, "-c", f"import sys\nsys.path.insert(0, {str(SRC)!r})\n{code}"],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


def test_import_loads_no_scipy_package_module():
    loaded = _run(
        "import json, drmdp, drmdp.cli\n"
        "print(json.dumps(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))))"
    )
    assert CORE in loaded
    assert [m for m in loaded if not m.startswith(CORE)] == []


def test_scipy_optimize_imported_after_drmdp_shares_its_highs_module():
    same = _run(
        "import json\nimport drmdp.lp\nimport scipy.optimize\n"
        + LINPROG
        + f"core = sys.modules[{CORE!r}]\n"
        "from scipy.optimize._highspy._core import _Highs\n"
        "print(json.dumps([core is drmdp.lp._core, _Highs is drmdp.lp._Highs]))"
    )
    assert same == [True, True]


def test_drmdp_imported_after_scipy_optimize_takes_its_highs_module():
    same = _run(
        "import json\nimport scipy.optimize\nimport drmdp.lp\n"
        + LINPROG
        + f"print(json.dumps([sys.modules[{CORE!r}] is drmdp.lp._core]))"
    )
    assert same == [True]


def test_bindings_already_loaded_are_taken_as_they_are():
    assert lp._highs_bindings() is sys.modules[CORE] is lp._core


def test_missing_bindings_name_the_paths_looked_at(monkeypatch):
    monkeypatch.delitem(sys.modules, CORE)
    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".missing.so"])
    with pytest.raises(ImportError, match=r"_core\.missing\.so"):
        lp._highs_bindings()


def test_highs_package_loaded_after_drmdp_holds_its_bindings():
    chain = _run(
        "import json, drmdp\nimport scipy.optimize._highspy._core\n"
        "print(json.dumps([scipy.optimize._highspy._core is drmdp.lp._core,\n"
        "                  any(isinstance(f, drmdp.lp._AttachCore) for f in sys.meta_path)]))"
    )
    assert chain == [True, False]


def test_attach_core_finder_sets_the_bindings_on_the_package_alone(monkeypatch):
    import scipy.optimize

    monkeypatch.setattr(sys, "meta_path", list(sys.meta_path))
    finder = lp._AttachCore(lp._core)
    sys.meta_path.insert(0, finder)
    assert finder.find_spec("json", None) is None
    assert finder in sys.meta_path
    spec = finder.find_spec("scipy.optimize._highspy", scipy.optimize.__path__)
    assert finder not in sys.meta_path
    # a second package object, never registered in sys.modules
    package = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(package)
    assert package._core is lp._core
