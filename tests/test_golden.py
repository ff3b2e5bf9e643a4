"""Every artifact of two fixed worlds, held to checked-in digests.

``synth`` through ``report`` run in-process, with the temporary directory
as the working directory and a relative ``--out`` (the manifest records
``out``). The sha256 of every file in ``--out``, of ``report``'s stdout and
of ``run_manifest.json`` as each stage leaves it (each stage overwrites it,
so the file in ``--out`` is ``report``'s) must equal ``golden_digests.json``.
A change that is meant to alter bytes replaces that file in the same
commit, with the JSON the failure prints, and says which files changed and
why. ``synth`` draws through numpy's ``Generator``, whose streams numpy does
not promise to keep across versions (NEP 19), so the file records the numpy
version it was made with.

README's library example runs in the README flow's output directory and
must return what ``score`` and ``compare`` wrote there.
"""

import json
import time
from pathlib import Path

import numpy as np

from fssbench.cli import STAGES, run_pipeline
from fssbench.corpus import sha256
from fssbench.fss import load_scores

GOLDEN = Path(__file__).with_name("golden_digests.json")
README = Path(__file__).resolve().parents[1] / "README.md"

#: The key of ``report``'s stdout among the file names.
STDOUT = "report stdout"

#: The key of ``run_manifest.json`` as stage ``{}`` left it.
MANIFEST = "run_manifest.json after {}"

#: name -> (world.cfg, synth's --seed, derive-staff's flags); every other
#: setting at its default.
WORLDS = {
    # homonyms, unlisted publishers and missing identifiers, filters relaxed
    "check-world": ("n_universities = 4\nn_researchers = 120\nn_scs = 4\n"
                    "homonym_rate = 0.2\nnon_faculty_share = 0.3\n"
                    "orcid_missing_rate = 0.3\nemail_missing_rate = 0.3\n",
                    "3", ["--min-clusters", "1", "--min-age", "1", "--recency", "2019"]),
    # README's command-line flow
    "readme-flow": ("n_universities = 3\nn_researchers = 120\nn_scs = 2\n", "7", []),
}

_ORDER = [name for stage in STAGES.values() for name in stage.outputs]


def _run_world(tmp_path, monkeypatch, capsys, name):
    world, seed, staff_flags = WORLDS[name]
    cwd = tmp_path / name
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    Path("world.cfg").write_text(world, encoding="utf-8")
    capsys.readouterr()
    manifests = {}
    for stage in STAGES:
        argv = [stage, "--out", "run"]
        argv += {"synth": ["--config", "world.cfg", "--seed", seed],
                 "derive-staff": staff_flags}.get(stage, [])
        assert run_pipeline(argv) == 0, f"{name}: {argv}"
        manifests[MANIFEST.format(stage)] = sha256(
            Path("run", "run_manifest.json").read_bytes()).hexdigest()
    stdout = capsys.readouterr().out
    files = sorted(Path("run").iterdir(),
                   key=lambda p: (_ORDER.index(p.name) if p.name in _ORDER else len(_ORDER),
                                  p.name))
    digests = {p.name: sha256(p.read_bytes()).hexdigest() for p in files}
    digests[STDOUT] = sha256(stdout.encode("utf-8")).hexdigest()
    return {**digests, **manifests}


def test_artifacts_match_golden_digests(tmp_path, monkeypatch, capsys):
    t0 = time.perf_counter()
    got = {"numpy": np.__version__,
           "worlds": {name: _run_world(tmp_path, monkeypatch, capsys, name)
                      for name in WORLDS}}
    elapsed = time.perf_counter() - t0
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    for name, digests in got["worlds"].items():
        want = golden["worlds"].get(name, {})
        differing = [f for f in [*digests, *want] if digests.get(f) != want.get(f)]
        assert not differing, (
            f"{name}: {differing[0]} differs from {GOLDEN.name} (made with numpy "
            f"{golden['numpy']}, here {got['numpy']}); if the change is meant, "
            f"replace {GOLDEN.name} with:\n{json.dumps(got, indent=2)}\n")
    assert elapsed < 10.0, f"{elapsed:.2f}s, limit 10s"


def test_readme_library_example_scores_what_score_writes(tmp_path, monkeypatch, capsys):
    _run_world(tmp_path, monkeypatch, capsys, "readme-flow")
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    example = library.split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir("run")
    namespace = {}
    exec(example, namespace)
    assert namespace["by_mode"] == load_scores("scores_researchers.csv",
                                               "scores_universities.csv")
    assert namespace["report"] == json.loads(Path("report.json").read_text(encoding="utf-8"))
