"""The package surface: modules imported on first use and the re-exported names."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import fssbench

from conftest import executed_after, package_env


def test_import_executes_no_library_module():
    assert executed_after("import fssbench") == (["fssbench"], [])
    package = Path(fssbench.__file__).parent
    modules = {path.stem for path in package.glob("*.py")} - {"__init__", "__main__", "cli"}
    code = ("import sys, fssbench; "
            f"assert all(getattr(fssbench, name) is sys.modules['fssbench.' + name] "
            f"for name in {sorted(modules)!r})")
    executed, _ = executed_after(code)
    assert executed == sorted({"fssbench"} | {f"fssbench.{name}" for name in modules})


def test_a_name_executes_only_its_module_and_what_that_imports():
    for code, executed in [
            ("from fssbench import YearWindow", ["fssbench", "fssbench.corpus"]),
            ("import fssbench; fssbench.derive_staff",
             ["fssbench", "fssbench.corpus", "fssbench.staff"]),
            ("import fssbench; fssbench.compare_modes",
             ["fssbench", "fssbench.compare", "fssbench.corpus", "fssbench.fss"])]:
        assert executed_after(code) == (executed, []), code


def test_each_exported_name_is_its_defining_modules_object():
    for name in fssbench.__all__:
        value = getattr(fssbench, name)
        module = sys.modules[f"fssbench.{fssbench._MODULE_OF[name]}"]
        assert value is getattr(module, name), name
        assert value.__module__ == module.__name__, name
    assert set(fssbench.__all__) <= set(dir(fssbench))


def test_an_unknown_name_is_refused_by_name():
    with pytest.raises(AttributeError, match="module 'fssbench' has no attribute 'no_such_name'"):
        fssbench.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        from fssbench import no_such_name  # noqa: F401


def test_the_cli_module_runs_as_a_script_without_a_warning(tmp_path):
    done = subprocess.run([sys.executable, "-m", "fssbench.cli", "report", "--out", str(tmp_path)],
                          env=package_env(), capture_output=True, text=True)
    assert done.stderr == "error: report: missing report.json; run `compare` first\n"


def test_a_module_that_raises_while_it_executes_raises_again_on_every_use(tmp_path):
    package = tmp_path / "fssbench"
    shutil.copytree(Path(fssbench.__file__).parent, package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    with (package / "staff.py").open("a", encoding="utf-8") as fh:
        fh.write('\nraise ImportError("staff is broken")\n')
    uses = ["fssbench.derive_staff", "fssbench.derive_staff", "fssbench.staff.derive_staff",
            "__import__('fssbench.staff')", "fssbench.DEFAULT_RULES"]
    code = ("import json, sys, fssbench\n"
            "seen = []\n"
            f"for use in {uses!r}:\n"
            "    try:\n"
            "        eval(use)\n"
            "        error = None\n"
            "    except ImportError as exc:\n"
            "        error = str(exc)\n"
            "    seen.append([error, 'fssbench.staff' in sys.modules, 'staff' in vars(fssbench)])\n"
            "print(json.dumps(seen))")
    done = subprocess.run([sys.executable, "-c", code],
                          env={**package_env(), "PYTHONPATH": str(tmp_path)},
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    # each use raises as a failed eager import would, and leaves neither
    # sys.modules nor the package holding the half-executed module; the
    # other modules still work
    assert json.loads(done.stdout) == [["staff is broken", False, False]] * 4 + [
        [None, False, False]]
