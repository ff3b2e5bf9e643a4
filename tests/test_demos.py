"""Each demo script runs to the end in a fresh interpreter."""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import package_env

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_the_demos_are_found():
    assert [d.name for d in DEMOS] == ["clustering_quality.py", "contamination_direction.py",
                                       "reference_distortion.py",
                                       "run_synthetic_pipeline.py"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.name)
def test_demo_exits_zero(tmp_path, demo):
    argv = [sys.executable, str(demo)]
    if demo.name == "run_synthetic_pipeline.py":
        argv += ["--out", str(tmp_path / "out")]
    # temporary files, too, stay under tmp_path
    env = dict(package_env(), TMPDIR=str(tmp_path))
    result = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout
