import argparse
import csv
import dataclasses
import gc
import hashlib
import json
import logging
import os
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from fssbench import cli, synth
from fssbench.cli import SETTINGS, STAGES, load_config_file, run_pipeline
from fssbench.disambig import ScoringRules

from conftest import executed_after, mention, package_env, pub, write_jsonl

SMALL_WORLD = """\
# generator knobs for a quick world
n_universities = 3
n_researchers = 36
n_scs = 2
"""


def write_config(tmp_path, text=SMALL_WORLD, name="world.cfg"):
    tmp_path.mkdir(parents=True, exist_ok=True)
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def chain_steps(tmp_path, out_name="out", seed="42", world=SMALL_WORLD):
    out = str(tmp_path / out_name)
    cfg = write_config(tmp_path, world)
    return [
        ["synth", "--config", cfg, "--out", out, "--seed", seed],
        ["ingest", "--out", out],
        ["disambiguate", "--out", out],
        ["derive-staff", "--out", out, "--min-clusters", "1",
         "--min-age", "1", "--recency", "2015"],
        ["score", "--out", out],
        ["compare", "--out", out],
        ["report", "--out", out],
    ]


def run_chain(tmp_path, out_name="out", seed="42"):
    for argv in chain_steps(tmp_path, out_name, seed):
        assert run_pipeline(argv) == 0, f"step failed: {argv}"
    return tmp_path / out_name


def run_fresh(code: str) -> subprocess.CompletedProcess:
    """``python -c code`` in a new interpreter that imports this fssbench."""
    return subprocess.run([sys.executable, "-c", code], env=package_env(),
                          capture_output=True, text=True)


def test_full_pipeline_produces_all_artifacts(tmp_path, capsys):
    out = run_chain(tmp_path)
    for name in ["publications.jsonl", "roster.csv", "corpus.jsonl",
                 "clusters.jsonl", "staff.csv", "review_queue.csv",
                 "scores_researchers.csv", "scores_universities.csv",
                 "report.json", "rank_table.csv", "quartile_matrix.csv",
                 "distribution_stats.csv", "report.txt", "run_manifest.json"]:
        assert (out / name).exists(), name
    stdout = capsys.readouterr().out
    assert "universities" in stdout          # report echoes the summary


def test_pipeline_rerun_is_deterministic(tmp_path):
    out_a = run_chain(tmp_path / "a")
    out_b = run_chain(tmp_path / "b")
    for name in ["publications.jsonl", "corpus.jsonl", "clusters.jsonl",
                 "staff.csv", "scores_researchers.csv", "report.json"]:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


#: A world with homonyms, non-faculty publishers and missing identifiers,
#: where clustering and staff derivation have ties to break.
MIXED_WORLD = """\
n_universities = 4
n_researchers = 120
n_scs = 4
homonym_rate = 0.2
non_faculty_share = 0.3
orcid_missing_rate = 0.3
email_missing_rate = 0.3
"""


def test_outputs_do_not_depend_on_the_order_of_publications(tmp_path):
    synth_step, *_ = chain_steps(tmp_path, "in_order", "3", MIXED_WORLD)
    assert run_pipeline(synth_step) == 0
    path = shutil.copytree(tmp_path / "in_order", tmp_path / "shuffled") / "publications.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    random.Random(7).shuffle(lines)
    path.write_text("".join(lines), encoding="utf-8")
    for out_name in ("in_order", "shuffled"):
        # ingest through compare
        for argv in chain_steps(tmp_path, out_name, "3", MIXED_WORLD)[1:-1]:
            assert run_pipeline(argv) == 0, argv
    for name in ["corpus.jsonl", "clusters.jsonl", "staff.csv", "review_queue.csv",
                 "scores_researchers.csv", "scores_universities.csv", "report.json",
                 "rank_table.csv", "quartile_matrix.csv", "distribution_stats.csv"]:
        assert ((tmp_path / "in_order" / name).read_bytes()
                == (tmp_path / "shuffled" / name).read_bytes()), name


def test_each_stage_writes_exactly_its_stages_entry(tmp_path):
    steps = chain_steps(tmp_path)
    assert [argv[0] for argv in steps] == list(STAGES)
    out = tmp_path / "out"
    out.mkdir()
    for argv in steps:
        # what the stage writes or replaces gets a fresh mtime
        for path in out.iterdir():
            os.utime(path, ns=(0, 0))
        assert run_pipeline(argv) == 0, argv
        written = sorted(p.name for p in out.iterdir() if p.stat().st_mtime_ns)
        assert written == sorted([*STAGES[argv[0]].outputs, "run_manifest.json"]), argv[0]
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["outputs"] == list(STAGES[argv[0]].outputs)


def test_synth_generate_returns_the_files_of_the_synth_entry(tmp_path):
    files, _ = synth.generate(synth.SynthConfig(n_universities=2, n_researchers=4, n_scs=2),
                              tmp_path)
    assert [p.name for p in files.values()] == list(STAGES["synth"].outputs)
    assert all(p == tmp_path / p.name for p in files.values())


@pytest.mark.parametrize("line,refusal", [
    ("[1, 2]", "line 2: not a JSON object"),
    ('{"pub_id": "W9", "mentions": ["Rossi, M"]}', "line 2: mention is not a JSON object"),
])
def test_ingest_refuses_json_that_is_not_an_object(tmp_path, capsys, line, refusal):
    out = tmp_path / "out"
    assert run_pipeline(["synth", "--config", write_config(tmp_path), "--out", str(out)]) == 0
    first = (out / "publications.jsonl").read_text(encoding="utf-8").splitlines()[0]
    if line.startswith("{"):
        line = json.dumps({**json.loads(first), **json.loads(line)})
    (out / "publications.jsonl").write_text(f"{first}\n{line}\n", encoding="utf-8")
    capsys.readouterr()
    assert run_pipeline(["ingest", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: ingest: publications.jsonl {refusal}\n"


@pytest.mark.parametrize("field,value,refusal", [
    ("pub_id", 5, "invalid 'pub_id': 5"),
    ("year", 2016.9, "invalid 'year': 2016.9"),
    ("year", True, "invalid 'year': True"),
    ("citation_count", 3.7, "invalid 'citation_count': 3.7"),
    ("citation_count", False, "invalid 'citation_count': False"),
    ("subject_categories", ["SC1", None], "subject category None is not a string"),
    ("subject_categories", [7], "subject category 7 is not a string"),
    ("email", 5, "mention email is neither a string nor null"),
    ("organization", 5, "mention organization is neither a string nor null"),
    ("city", ["x"], "mention city is neither a string nor null"),
    ("country", {"it": 1}, "mention country is neither a string nor null"),
    ("affiliation", 7, "mention affiliation is neither a string nor null"),
    ("researcher_id", ["RID", 1], "mention researcher_id is neither a string nor null"),
    ("researcher_id", 5.5, "mention researcher_id is neither a string nor null"),
    ("journal", {"name": "x"}, "journal is neither a string nor null"),
    ("census_date", 20200101, "invalid 'census_date': 20200101"),
    ("orcid", 0, "mention orcid is neither a string nor null"),
], ids=["pub_id-int", "year-fraction", "year-bool", "citations-fraction", "citations-bool",
        "sc-null", "sc-int", "email-int", "organization-int", "city-list", "country-object",
        "affiliation-int", "researcher_id-list", "researcher_id-fraction", "journal-object",
        "census_date-int", "orcid-zero"])
def test_ingest_refuses_a_field_of_the_wrong_type(tmp_path, capsys, field, value, refusal):
    record = pub("W1", 2016, [mention("Rossi, Maria", organization="univ one")], ["SC1"], 2)
    if field in record:
        record[field] = value
    else:
        record["mentions"][0][field] = value
    path = write_jsonl(tmp_path / "publications.jsonl", [record])
    assert run_pipeline(["ingest", "--publications", str(path),
                         "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: ingest: publications.jsonl line 1: {refusal}\n"


def test_missing_upstream_artifact_names_producer(tmp_path, capsys):
    out = str(tmp_path / "empty")
    assert run_pipeline(["disambiguate", "--out", out]) == 1
    assert "run `ingest` first" in capsys.readouterr().err
    assert run_pipeline(["compare", "--out", out]) == 1
    assert "score" in capsys.readouterr().err


def test_ingest_without_publications(tmp_path, capsys):
    assert run_pipeline(["ingest", "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ingest:")
    assert "synth" in err


def test_flag_beats_config_file(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, SMALL_WORLD + "seed = 1\n")
    assert run_pipeline(["synth", "--config", cfg, "--out", str(out),
                         "--seed", "7"]) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert "seed" not in manifest
    assert manifest["config"]["seed"] == 7


def test_config_file_value_used_without_flag(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, SMALL_WORLD + "seed = 9\n")
    assert run_pipeline(["synth", "--config", cfg, "--out", str(out)]) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["config"]["seed"] == 9


def test_manifest_records_inputs_and_hash(tmp_path):
    out = run_chain(tmp_path)
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["subcommand"] == "report"
    assert len(manifest["config_hash"]) == 64
    assert all(len(d) == 64 for d in manifest["inputs"].values())
    assert manifest["outputs"] == ["report.txt"]


def test_config_hash_of_a_fixed_config(tmp_path, monkeypatch):
    # sha256 of the sorted key=value lines of what score reads (min_obs, out,
    # seed, window), not of the knobs; any change to it is a new hash
    monkeypatch.chdir(tmp_path)
    Path("out").mkdir()
    args = cli.build_parser().parse_args(["score", "--out", "out", "--seed", "7"])
    cfg = cli.resolve_config(args, {"n_researchers": "36", "homonym_rate": "0.2"})
    cli.write_manifest(cfg, "score")
    manifest = json.loads(Path("out", "run_manifest.json").read_text())
    assert manifest["config_hash"] == (
        "8062011f1a4701b4256f25f5700a6244fc3d219f732caea30744f4122edcf5e6")


def test_manifest_keeps_the_digest_of_each_flag_sharing_a_file_name(tmp_path):
    out = run_to_staff(tmp_path)
    roster, scheme = tmp_path / "a" / "x.csv", tmp_path / "b" / "x.csv"
    for path, name in [(roster, "roster.csv"), (scheme, "scheme.csv")]:
        path.parent.mkdir()
        path.write_bytes((out / name).read_bytes())
    assert run_pipeline(["score", "--out", str(out),
                         "--roster", str(roster), "--scheme", str(scheme)]) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["inputs"] == {
        "roster": hashlib.sha256(roster.read_bytes()).hexdigest(),
        "scheme": hashlib.sha256(scheme.read_bytes()).hexdigest(),
    }


def test_manifest_digests_only_the_inputs_its_stage_reads(tmp_path):
    world = tmp_path / "world"
    world.mkdir()
    (world / "rules.cfg").write_text("")
    # one config file for every stage: world knobs, each setting, each input
    # file; a stage's manifest records, and digests, only what the stage reads
    files = {"publications": "publications.jsonl", "roster": "roster.csv",
             "scheme": "scheme.csv", "registry": "registry.csv", "rules": "rules.cfg"}
    settings = "seed = 42\nwindow = 2015:2019\nmin_clusters = 1\nmin_age = 1\n" \
               "recency = 2015\nmin_obs = 10\n"
    shared = write_config(tmp_path, SMALL_WORLD + settings + "".join(
        f"{flag} = {world / name}\n" for flag, name in files.items()), "shared.cfg")
    inputs = {}
    for stage, entry in STAGES.items():
        out = world if stage == "synth" else tmp_path / "out"
        assert run_pipeline([stage, "--config", shared, "--out", str(out)]) == 0, stage
        manifest = json.loads((out / "run_manifest.json").read_text())
        knobs = ["n_universities", "n_researchers", "n_scs"] if stage == "synth" else []
        assert sorted(manifest) == ["config", "config_hash", "inputs", "outputs", "subcommand"]
        assert sorted(manifest["config"]) == sorted(["out", *entry.flags, *knobs]), stage
        assert {flag: value for flag, value in manifest["config"].items() if flag in files} == {
            flag: str(world / files[flag]) for flag in entry.flags if flag in files}
        inputs[stage] = manifest["inputs"]
    assert inputs["score"] == {
        flag: hashlib.sha256((world / files[flag]).read_bytes()).hexdigest()
        for flag in ("roster", "scheme")}
    assert {stage: sorted(digests) for stage, digests in inputs.items()} == {
        "synth": [], "ingest": ["publications"], "disambiguate": ["rules"],
        "derive-staff": ["registry"], "score": ["roster", "scheme"], "compare": [],
        "report": []}


def test_synth_refuses_a_negative_seed(tmp_path, capsys):
    out = tmp_path / "o"
    assert run_pipeline(["synth", "--out", str(out), "--seed", "-3"]) == 1
    assert capsys.readouterr().err == "error: synth: seed must be non-negative, got -3\n"
    assert not (out / "publications.jsonl").exists()


@pytest.mark.parametrize("window", ["0001:0003"], ids=["window-0001"])
def test_synth_refuses_a_career_start_before_year_zero(tmp_path, capsys, window):
    # a career may start up to six years before the window; a start below
    # year 0 keys a negative draw, which synth must refuse
    args = ["synth", "--out", str(tmp_path / "o"), "--window", window,
            "--config", write_config(tmp_path)]
    assert run_pipeline(args) == 1
    assert capsys.readouterr().err == "error: synth: expected non-negative integer\n"


def test_bad_setting_value_in_config_file(tmp_path, capsys):
    for stage, key, value in [("synth", "min_obs", "lots"), ("synth", "window", "lots"),
                              ("synth", "n_researchers", "lots"),
                              ("ingest", "n_researchers", "lots")]:
        cfg = write_config(tmp_path, f"{key} = {value}\n")
        assert run_pipeline([stage, "--config", cfg,
                             "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (
            f"error: {stage}: config key {key}: bad value '{value}'\n")


@pytest.mark.parametrize("stage", list(STAGES))
def test_every_stage_refuses_a_world_knob_out_of_range(tmp_path, capsys, stage):
    for text, reason in [("n_researchers = -5\n", "n_researchers must be positive"),
                         ("homonym_rate = 7\n", "homonym_rate must be in [0, 1], got 7.0")]:
        cfg = write_config(tmp_path, text)
        assert run_pipeline([stage, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"error: {stage}: {reason}\n"


#: setting -> (config-file value, flag value); neither is the default.
#: ``out`` is set by every test.
SETTING_VALUES = {
    "seed": ("9", "7"),
    "window": ("2014:2018", "2013:2017"),
    "min_clusters": ("5", "6"),
    "min_age": ("2", "3"),
    "recency": ("2016", "2017"),
    "min_obs": ("3", "4"),
}


#: The settings under which ``derive-staff`` accepts staff in SMALL_WORLD.
RELAXED = {"min_clusters": "1", "min_age": "1", "recency": "2015"}


@pytest.mark.parametrize("key", sorted(SETTINGS.keys() - {"out"}))
def test_setting_from_config_file_and_flag(tmp_path, finished_run, key):
    # on the first stage that reads the setting
    stage = next(name for name, entry in STAGES.items() if key in entry.flags)
    in_file, by_flag = SETTING_VALUES[key]
    settings = {**RELAXED, key: in_file}
    cfg = write_config(tmp_path, SMALL_WORLD + "".join(f"{k} = {v}\n"
                                                       for k, v in settings.items()))
    out = shutil.copytree(finished_run, tmp_path / "out")
    flag = ["--" + key.replace("_", "-"), by_flag]
    for extra, expected in [([], in_file), (flag, by_flag)]:
        assert run_pipeline([stage, "--config", cfg, "--out", str(out), *extra]) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert str(manifest["config"][key]) == expected


def test_malformed_config_line(tmp_path, capsys):
    cfg = write_config(tmp_path, "n_universities = 3\njust words\n")
    assert run_pipeline(["synth", "--config", cfg,
                         "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == (
        "error: synth: config line 2: expected key = value, got 'just words'\n")


def test_config_key_set_twice_refused(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL_WORLD + "seed = 1\n\nseed = 2\n")
    assert run_pipeline(["synth", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == (
        "error: synth: config line 7: key seed already listed on line 5\n")


@pytest.mark.parametrize("char", ["\x85", "\u2028", "\u2029"])
def test_config_line_does_not_end_at_a_unicode_line_separator(tmp_path, capsys, char):
    cfg = tmp_path / "world.cfg"
    cfg.write_text(f"n_universities = 3\nn_researchers = 36 {char} n_scs = 2\n",
                   encoding="utf-8")
    assert run_pipeline(["synth", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    value = f"36 {char} n_scs = 2"
    assert capsys.readouterr().err == (
        f"error: synth: config key n_researchers: bad value {value!r}\n")


def test_config_lines_end_at_lf_crlf_and_cr(tmp_path):
    cfg = tmp_path / "world.cfg"
    cfg.write_bytes(b"a = 1\r\nb = 2\rc = 3\n")
    assert load_config_file(cfg) == {"a": "1", "b": "2", "c": "3"}


def test_a_config_file_with_a_byte_order_mark_synthesizes_the_same_world(tmp_path, caplog):
    # a mark kept in the first key would leave n_universities at its default
    text = "n_universities = 3\nn_researchers = 36\nn_scs = 2\n"
    for name, encoding in [("plain", "utf-8"), ("marked", "utf-8-sig")]:
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(text, encoding=encoding)
        assert run_pipeline(["synth", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "marked.cfg").read_bytes().startswith(b"\xef\xbb\xbfn_universities")
    assert [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING] == []
    for name in STAGES["synth"].outputs:
        marked, plain = (tmp_path / out / name for out in ("marked", "plain"))
        assert marked.read_bytes() == plain.read_bytes(), name


def test_load_config_file_strips_comments(tmp_path):
    cfg = write_config(tmp_path, "a = 1   # trailing\n\n# full line\nb = two\n")
    assert load_config_file(cfg) == {"a": "1", "b": "two"}


def test_unknown_synth_knob_warned_not_fatal(tmp_path, caplog):
    cfg = write_config(tmp_path, SMALL_WORLD + "warp_factor = 9\n")
    assert run_pipeline(["synth", "--config", cfg,
                         "--out", str(tmp_path / "o")]) == 0
    assert any("warp_factor" in r.getMessage() for r in caplog.records)


def test_fixed_generator_parameter_in_config_is_ignored(tmp_path, caplog):
    cfg = write_config(tmp_path, SMALL_WORLD + "coauthor_max = 0\n", name="old.cfg")
    assert run_pipeline(["synth", "--config", cfg, "--out", str(tmp_path / "old")]) == 0
    assert [r.getMessage() for r in caplog.records if "coauthor_max" in r.getMessage()] == [
        "ignoring unknown config key 'coauthor_max'"]
    assert run_pipeline(["synth", "--config", write_config(tmp_path),
                         "--out", str(tmp_path / "new")]) == 0
    for name in STAGES["synth"].outputs:
        assert (tmp_path / "old" / name).read_bytes() == (tmp_path / "new" / name).read_bytes()


def test_readme_names_every_world_knob():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    knobs = cli._synth_knobs()
    assert "n_researchers" in knobs and "seed" not in knobs
    assert [key for key in knobs if f"`{key}`" not in readme] == []


def _table_after(text: str, header: str) -> list[str]:
    """The lines of ``text`` after the line ``header``, up to the next blank one."""
    lines = text.splitlines()
    start = lines.index(header) + 1
    return lines[start:lines.index("", start)]


README_SETTINGS = "| config key | flag | default | read by |"


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    return next(action for action in cli.build_parser()._actions
                if isinstance(action, argparse._SubParsersAction)).choices


def test_readme_and_cli_docstring_list_exactly_the_settings():
    expected = [(key, "--" + key.replace("_", "-")) for key in SETTINGS]
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    readme_rows = [row.split("|")[1:3] for row in _table_after(readme, README_SETTINGS)[1:]]
    assert [(key.strip(" `"), flag.strip(" `")) for key, flag in readme_rows] == expected
    doc_rows = _table_after(
        cli.__doc__, "    key           flag             default                 read by")
    assert [tuple(row.split()[:2]) for row in doc_rows] == expected


def test_each_stage_has_the_flags_of_what_it_reads_and_no_other():
    # README's "read by" column, each ``STAGES`` entry and each subcommand's
    # options name the same settings
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    read_by = {}
    for row in _table_after(readme, README_SETTINGS)[1:]:
        key, cell = row.split("|")[1].strip(" `"), row.split("|")[4]
        named = set(re.findall(r"`([a-z-]+)`", cell))
        read_by[key] = set(STAGES) - named if "every stage" in cell else named
    for name, parser in _subparsers().items():
        options = set(parser._option_string_actions) - {"-h", "--help"}
        flags = ["out", *STAGES[name].flags]
        assert options == {"--config", *("--" + key.replace("_", "-") for key in flags)}, name
        assert {key for key, stages in read_by.items() if name in stages} == (
            SETTINGS.keys() & flags), name
    assert sum(len(entry.flags) for entry in STAGES.values()) == 16


def test_a_flag_of_a_setting_the_stage_does_not_read_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_:
        run_pipeline(["ingest", "--out", str(tmp_path / "o"), "--min-obs", "3"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --min-obs 3" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_readme_lists_the_rules_keys_and_only_real_flags():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    rows = [row.split("|")[1:3] for row in
            _table_after(readme, "| rules key | default | added when two mentions share |")[1:]]
    assert [(key.strip(" `"), float(default)) for key, default in rows] == [
        (f.name, f.default) for f in dataclasses.fields(ScoringRules)]
    inline = " ".join(re.findall(r"`([^`]+)`", re.sub(r"```.*?```", "", readme, flags=re.S)))
    flags = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", inline))
    assert [key for key in cli._PATH_KEYS if f"--{key}" not in flags] == []
    options = {option for parser in _subparsers().values()
               for option in parser._option_string_actions}
    assert sorted(flags - options) == []


def run_to_staff(tmp_path):
    out = str(tmp_path / "out")
    cfg = write_config(tmp_path)
    for argv in [["synth", "--config", cfg, "--out", out],
                 ["ingest", "--out", out],
                 ["disambiguate", "--out", out],
                 ["derive-staff", "--out", out, "--min-clusters", "1"]]:
        assert run_pipeline(argv) == 0, argv
    return tmp_path / "out"


@pytest.mark.parametrize("cut, flags, refusal", [
    # a floor above every SC's count empties both modes; the first is named
    (None, ["--min-obs", "1000"], "no supervised researcher left after exclusions "
                                  "(min_obs 1000)"),
    # an empty input is named, not the floor, which no value would help
    ("roster.csv", [], "roster.csv lists no researcher"),
    ("staff.csv", [], "staff.csv lists no staff unit"),
], ids=["floor", "header-only-roster", "header-only-staff"])
def test_score_refuses_a_mode_left_without_researchers(tmp_path, capsys, cut, flags, refusal):
    out = run_to_staff(tmp_path)
    if cut:
        path = out / cut
        path.write_text(path.read_text().splitlines(keepends=True)[0])
    assert run_pipeline(["score", "--out", str(out), *flags]) == 1
    assert capsys.readouterr().err == f"error: score: {refusal}\n"
    assert not (out / "scores_universities.csv").exists()
    assert run_pipeline(["compare", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: compare: missing scores_universities.csv; run `score` first\n")


def test_recency_defaults_to_window_end(tmp_path):
    out = run_to_staff(tmp_path)
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["config"]["recency"] == 2019
    with (out / "staff.csv").open(newline="") as fh:
        assert list(csv.DictReader(fh))


def test_score_refuses_staff_naming_unknown_cluster(tmp_path, capsys):
    out = run_to_staff(tmp_path)
    staff_path = out / "staff.csv"
    with staff_path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        fields, rows = reader.fieldnames, list(reader)
    rows[0]["member_cluster_ids"] = "W999:0"
    with staff_path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fields)
        writer.writeheader()
        writer.writerows(rows)
    capsys.readouterr()
    assert run_pipeline(["score", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: score: staff.csv references unknown cluster W999:0; "
        "run `disambiguate` first\n")


def test_score_refuses_a_cluster_listed_twice(tmp_path, capsys):
    out = run_to_staff(tmp_path)
    staff_path = out / "staff.csv"
    with staff_path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    with staff_path.open("a", newline="") as fh:
        csv.writer(fh).writerow(rows[0].values())
    first = rows[0]["member_cluster_ids"].split(";")[0]
    capsys.readouterr()
    assert run_pipeline(["score", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: score: staff.csv line {len(rows) + 2}: cluster {first} "
        "already listed on line 2\n")


def test_score_refuses_staff_without_member_column(tmp_path, capsys):
    out = run_to_staff(tmp_path)
    staff_path = out / "staff.csv"
    with staff_path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    fields = [f for f in rows[0] if f != "member_cluster_ids"]
    with staff_path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fields, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)
    capsys.readouterr()
    assert run_pipeline(["score", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: score: staff.csv: missing column member_cluster_ids\n")


def test_score_ignores_an_incidence_key_in_the_config_file(tmp_path, capsys):
    # the field-code table is gone; a config file written for it still runs
    out = run_to_staff(tmp_path)
    cfg = write_config(tmp_path, "incidence = incidence.csv\n", name="old.cfg")
    capsys.readouterr()
    assert run_pipeline(["score", "--config", cfg, "--out", str(out)]) == 0
    assert capsys.readouterr().err == (
        "warning: score: ignoring unknown config key 'incidence'\n")


def test_a_roster_without_field_code_scores_the_same(tmp_path):
    out = run_to_staff(tmp_path)
    assert run_pipeline(["score", "--out", str(out)]) == 0
    scored = {name: (out / name).read_bytes() for name in STAGES["score"].outputs}
    with (out / "roster.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert all(row.pop("field_code") for row in rows)
    with (out / "roster.csv").open("w", newline="") as fh:
        writer = csv.DictWriter(fh, list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    assert run_pipeline(["score", "--out", str(out)]) == 0
    assert {name: (out / name).read_bytes() for name in STAGES["score"].outputs} == scored


def test_derive_staff_refuses_when_nobody_is_accepted(tmp_path, capsys):
    out = str(tmp_path / "out")
    cfg = write_config(tmp_path)
    for argv in [["synth", "--config", cfg, "--out", out],
                 ["ingest", "--out", out],
                 ["disambiguate", "--out", out]]:
        assert run_pipeline(argv) == 0
    capsys.readouterr()
    assert run_pipeline(["derive-staff", "--out", out]) == 1    # min_clusters 30
    assert capsys.readouterr().err == (
        "error: derive-staff: accepted no staff unit out of 35 candidates; flags: "
        "excluded_small_university 35, stale 17, below_age 13\n")
    assert not (tmp_path / "out" / "staff.csv").exists()
    assert not (tmp_path / "out" / "review_queue.csv").exists()


def test_refused_derive_staff_removes_earlier_staff(tmp_path, capsys):
    out = run_chain(tmp_path)
    assert run_pipeline(["derive-staff", "--out", str(out), "--min-clusters", "1000"]) == 1
    assert not (out / "staff.csv").exists()
    assert not (out / "review_queue.csv").exists()
    capsys.readouterr()
    assert run_pipeline(["score", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: score: missing staff.csv; run `derive-staff` first\n")


def test_derive_staff_refuses_a_malformed_mention_ref(tmp_path, capsys, finished_run):
    out = shutil.copytree(finished_run, tmp_path / "out")
    path = out / "clusters.jsonl"
    first, *rest = path.read_text(encoding="utf-8").splitlines(keepends=True)
    obj = json.loads(first)
    obj["mention_refs"] = [["W1"]]
    path.write_text(json.dumps(obj) + "\n" + "".join(rest), encoding="utf-8")
    capsys.readouterr()
    assert run_pipeline(["derive-staff", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: derive-staff: clusters.jsonl line 1: bad cluster record: "
        'mention ref ["W1"] is not [pub_id, position]\n')


def test_derive_staff_refuses_a_cluster_id_used_twice(tmp_path, capsys, finished_run):
    out = shutil.copytree(finished_run, tmp_path / "out")
    path = out / "clusters.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines) + lines[0], encoding="utf-8")
    capsys.readouterr()
    assert run_pipeline(["derive-staff", "--out", str(out), "--min-clusters", "1",
                         "--min-age", "1", "--recency", "2015"]) == 1
    assert capsys.readouterr().err == (
        f"error: derive-staff: clusters.jsonl line {len(lines) + 1}: cluster_id "
        f"{json.loads(lines[0])['cluster_id']} already listed on line 1\n")


def test_recency_after_window_end_refused(tmp_path, capsys):
    assert run_pipeline(["derive-staff", "--out", str(tmp_path / "o"),
                         "--recency", "2020"]) == 1
    assert capsys.readouterr().err == (
        "error: derive-staff: recency 2020 is after the window's last year 2019; "
        "no cluster can be active then\n")


@pytest.mark.parametrize("stage, flags, message", [
    ("derive-staff", ["--min-clusters", "-5", "--min-age", "-2"],
     "min_clusters must be non-negative, got -5"),
    ("derive-staff", ["--min-age", "-2"], "min_age must be non-negative, got -2"),
    ("score", ["--min-obs", "-4"], "min_obs must be non-negative, got -4"),
])
def test_setting_out_of_range_refused(tmp_path, capsys, stage, flags, message):
    out = tmp_path / "o"
    assert run_pipeline([stage, "--out", str(out), *flags]) == 1
    assert capsys.readouterr().err == f"error: {stage}: {message}\n"
    assert not (out / "run_manifest.json").exists()


def test_settings_at_their_lowest_allowed_values_run(tmp_path):
    out = tmp_path / "out"
    assert run_pipeline(["synth", "--config", write_config(tmp_path), "--out", str(out)]) == 0
    for argv in [["ingest"],
                 ["disambiguate"],
                 ["derive-staff", "--min-clusters", "0", "--min-age", "0",
                  "--recency", "2015"],
                 ["score", "--min-obs", "0"]]:
        assert run_pipeline([*argv, "--out", str(out)]) == 0, argv


def test_unknown_config_key_warned_and_not_recorded(tmp_path, caplog):
    out = tmp_path / "out"
    assert run_pipeline(["synth", "--config", write_config(tmp_path),
                         "--out", str(out)]) == 0
    # no setting picks a mode: ``score`` scores both in every run; the SC
    # lookback and the observation-floor rule are fixed
    unknown = ["mode", "obs_rule", "sc_lookback", "threads"]
    cfg = write_config(tmp_path, "threads = 4\nmode = both\nobs_rule = strict\n"
                                 "sc_lookback = 5\n", name="stage.cfg")
    caplog.clear()
    assert run_pipeline(["ingest", "--config", cfg, "--out", str(out)]) == 0
    assert [r.getMessage() for r in caplog.records if "unknown" in r.getMessage()] == [
        f"ignoring unknown config key {key!r}" for key in unknown]
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert [key for key in unknown if key in manifest["config"]] == []
    # a row of a setting that is gone would be skipped without a word
    assert SETTING_VALUES.keys() == SETTINGS.keys() - {"out"}


@pytest.mark.parametrize("key", ["window_start", "window_end"])
def test_window_bound_keys_in_config_refused(tmp_path, capsys, key):
    cfg = write_config(tmp_path, SMALL_WORLD + f"{key} = 2018\n")
    assert run_pipeline(["synth", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == (
        f"error: synth: config key {key} is not a setting; use window = START:END\n")


def test_window_flag_round_trips(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path)
    assert run_pipeline(["synth", "--config", cfg, "--out", str(out),
                         "--window", "2013:2017"]) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["config"]["window"] == "2013:2017"


def test_compare_refuses_short_row(tmp_path, capsys):
    out = run_chain(tmp_path)
    path = out / "scores_universities.csv"
    lines = path.read_text().splitlines()
    lines[1] = ",".join(lines[1].split(",")[:3])
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run_pipeline(["compare", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: compare: scores_universities.csv line 2: expected 4 fields, got 3\n")


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    """The out directory of one full chain, for tests to copy and spoil."""
    return run_chain(tmp_path_factory.mktemp("chain"))


def set_cell(path, line, column, value):
    """Replace the ``column`` field of the row on ``line`` of a CSV file."""
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    rows[line - 1][rows[0].index(column)] = value
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def test_compare_refuses_an_unknown_mode(tmp_path, capsys, finished_run):
    # skipped unnoticed, the row would take U00 off the supervised side
    out = shutil.copytree(finished_run, tmp_path / "out")
    path = out / "scores_universities.csv"
    line = 1 + next(i for i, row in enumerate(path.read_text().splitlines())
                    if row.startswith("U00,supervised,"))
    set_cell(path, line, "mode", "Supervised")
    capsys.readouterr()
    assert run_pipeline(["compare", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: compare: scores_universities.csv line {line}: mode 'Supervised' "
        "is neither 'supervised' nor 'unsupervised'\n")
    # the finished run's report would otherwise be printed as this one's
    assert not any((out / name).exists() for name in STAGES["compare"].outputs)
    assert run_pipeline(["report", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: report: missing report.json; run `compare` first\n")


def test_score_writes_one_row_per_mode_and_university_and_compare_ranks_each(finished_run):
    with (finished_run / "scores_universities.csv").open(newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["university_id", "mode", "rs_u", "fss_u"]
    scores = {(mode, uid): (int(rs_u), float(fss_u)) for uid, mode, rs_u, fss_u in rows}
    assert len(scores) == len(rows)
    with (finished_run / "rank_table.csv").open(newline="") as fh:
        ranked = {(mode, r["university_id"]): (int(r[f"{side}_obs"]), float(r[f"{side}_fss_u"]))
                  for r in csv.DictReader(fh)
                  for mode, side in (("supervised", "sup"), ("unsupervised", "unsup"))}
    assert ranked == scores


def test_compare_refuses_university_scores_in_the_old_layout(tmp_path, capsys, finished_run):
    # read without its level column, an SC row would rank U00 in place of its overall row
    out = shutil.copytree(finished_run, tmp_path / "out")
    (out / "scores_universities.csv").write_text(
        "university_id,mode,level,key,rs_u,fss_u\n"
        "U00,supervised,sc,SC00,7,0.81\n"
        "U00,supervised,sc,SC01,5,1.12\n"
        "U00,supervised,area,A00,12,0.94\n"
        "U00,supervised,overall,overall,12,0.94\n")
    capsys.readouterr()
    assert run_pipeline(["compare", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "warning: compare: scores_universities.csv: ignoring unknown column 'level'\n"
        "warning: compare: scores_universities.csv: ignoring unknown column 'key'\n"
        "error: compare: scores_universities.csv line 3: university U00 (supervised) "
        "already listed on line 2\n")


def test_compare_refuses_a_researcher_listed_twice(tmp_path, capsys, finished_run):
    # read twice, the researcher would count twice in every distribution
    out = shutil.copytree(finished_run, tmp_path / "out")
    path = out / "scores_researchers.csv"
    lines = path.read_text().splitlines()
    subject, mode = lines[1].split(",")[:2]
    assert mode == "supervised"
    path.write_text("\n".join([*lines, lines[1]]) + "\n")
    capsys.readouterr()
    assert run_pipeline(["compare", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: compare: scores_researchers.csv line {len(lines) + 1}: subject {subject} "
        "(supervised) already listed on line 2\n")


def test_compare_refused_by_a_setting_removes_its_outputs(tmp_path, capsys, finished_run):
    out = shutil.copytree(finished_run, tmp_path / "out")
    capsys.readouterr()
    cfg = write_config(tmp_path, "recency = 2020\n", name="late.cfg")
    assert run_pipeline(["compare", "--out", str(out), "--config", cfg]) == 1
    assert capsys.readouterr().err == (
        "error: compare: recency 2020 is after the window's last year 2019; "
        "no cluster can be active then\n")
    assert not any((out / name).exists() for name in STAGES["compare"].outputs)
    assert run_pipeline(["report", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: report: missing report.json; run `compare` first\n")


def test_unreadable_config_removes_nothing(tmp_path, capsys, finished_run):
    # the file would name out and the inputs; unread, both are unknown
    out = shutil.copytree(finished_run, tmp_path / "out")
    assert run_pipeline(["compare", "--out", str(out),
                         "--config", str(tmp_path / "missing.cfg")]) == 1
    assert capsys.readouterr().err.startswith("error: compare: ")
    assert all((out / name).exists() for name in STAGES["compare"].outputs)


def test_refused_stage_keeps_an_input_passed_by_flag(tmp_path, capsys, finished_run):
    out = shutil.copytree(finished_run, tmp_path / "out")
    corpus = out / "corpus.jsonl"
    corpus.write_text("[1, 2]\n", encoding="utf-8")
    assert run_pipeline(["ingest", "--out", str(out), "--publications", str(corpus)]) == 1
    assert capsys.readouterr().err == "error: ingest: corpus.jsonl line 1: not a JSON object\n"
    assert corpus.read_text(encoding="utf-8") == "[1, 2]\n"


@pytest.mark.parametrize("name, column, value, refusal", [
    ("scores_researchers.csv", "mode", "", "mode '' is neither 'supervised' nor 'unsupervised'"),
    ("scores_universities.csv", "rs_u", "x", "rs_u 'x' is not an integer"),
    ("scores_universities.csv", "rs_u", "0", "rs_u 0 is below 1"),
    ("scores_universities.csv", "rs_u", "-3", "rs_u -3 is below 1"),
    ("scores_universities.csv", "fss_u", "high", "fss_u 'high' is not a number"),
    ("scores_researchers.csv", "t", "", "t '' is not a number"),
    ("scores_researchers.csv", "n", "2.0", "n '2.0' is not an integer"),
    ("scores_researchers.csv", "fss_r", "x", "fss_r 'x' is not a number"),
    ("scores_researchers.csv", "fss_r", "nan", "fss_r 'nan' is not a number"),
    ("scores_researchers.csv", "t", "inf", "t 'inf' is not a number"),
    ("scores_universities.csv", "fss_u", "-Infinity", "fss_u '-Infinity' is not a number"),
])
def test_compare_refuses_a_bad_score_field(tmp_path, capsys, finished_run, name, column,
                                           value, refusal):
    out = shutil.copytree(finished_run, tmp_path / "out")
    set_cell(out / name, 3, column, value)
    capsys.readouterr()
    assert run_pipeline(["compare", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: compare: {name} line 3: {refusal}\n"


def test_compare_refuses_a_single_university(tmp_path, capsys):
    out = run_chain(tmp_path)
    path = out / "scores_universities.csv"
    lines = path.read_text().splitlines()
    for cut, refusal in [(("U01,", "U02,"), "a correlation needs at least 2 pairs, got 1"),
                         (("U00,unsupervised,", "U01,unsupervised,", "U02,unsupervised,"),
                          "scores_universities.csv lists no unsupervised university")]:
        path.write_text("\n".join(line for line in lines if not line.startswith(cut)) + "\n")
        capsys.readouterr()
        assert run_pipeline(["compare", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: compare: {refusal}\n"


@pytest.mark.parametrize("name, mode, refusal", [
    # unrefused here, it fails later as an empty distribution, naming no file
    ("scores_researchers.csv", "unsupervised",
     "scores_researchers.csv lists no unsupervised researcher"),
    ("scores_universities.csv", "supervised",
     "scores_universities.csv lists no supervised university"),
])
def test_compare_refuses_a_score_file_without_a_mode(tmp_path, capsys, finished_run, name,
                                                     mode, refusal):
    out = shutil.copytree(finished_run, tmp_path / "out")
    path = out / name
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(line for line in lines if f",{mode}," not in line))
    capsys.readouterr()
    assert run_pipeline(["compare", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: compare: {refusal}\n"
    assert not (out / "report.json").exists()


def test_compare_leaves_a_zero_supervised_score_out_of_the_score_deviation(tmp_path):
    # at seed 2 the two supervised researchers of U12 score 0, and so does U12;
    # its score deviation would divide by 0
    world = "n_universities = 20\nn_researchers = 40\nn_scs = 2\n"
    steps = chain_steps(tmp_path, seed="2", world=world)
    steps[3][steps[3].index("--min-age") + 1] = "0"     # every university gets a unit
    for argv in steps:
        assert run_pipeline(argv) == 0, argv
    out = tmp_path / "out"
    assert "U12,supervised,2,0.0" in (out / "scores_universities.csv").read_text().splitlines()
    report = json.loads((out / "report.json").read_text())
    assert report["n_universities"] == 20
    assert all(isinstance(value, float)
               for value in report["university_deviation_correlations"].values())


def test_report_prints_a_null_correlation_as_na(tmp_path, capsys, finished_run):
    out = shutil.copytree(finished_run, tmp_path / "out")
    report = json.loads((out / "report.json").read_text())
    assert report["n_universities"] == 3
    report["correlation"].update(pearson_scores=None, spearman_ranks=None)
    report["university_deviation_correlations"]["obs_vs_fss_u"] = None
    (out / "report.json").write_text(json.dumps(report))
    capsys.readouterr()
    assert run_pipeline(["report", "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "correlation: pearson(scores)=n/a spearman(ranks)=n/a (n=3)" in lines
    assert lines[-1].startswith("staff-count deviation vs score deviation: pearson=n/a; ")


def test_report_prints_no_correlation_line_for_a_null_correlation(tmp_path, capsys,
                                                                  finished_run):
    out = shutil.copytree(finished_run, tmp_path / "out")
    report = json.loads((out / "report.json").read_text())
    assert report["correlation"] is not None
    report["correlation"] = None
    (out / "report.json").write_text(json.dumps(report))
    capsys.readouterr()
    assert run_pipeline(["report", "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert not [line for line in lines if line.startswith("correlation")]
    assert lines[0] == "universities compared: 3"
    assert lines[1].startswith("quartile matrix ")


@pytest.mark.parametrize("text, reason", [
    ("[1, 2]", "not a JSON object"),
    ('{"correlation": null}', "'n_universities'"),
    ('{"n_universities": 3, "universities_only_supervised": [], '
     '"universities_only_unsupervised": []}', "'correlation'"),
    # a section compare always writes
    ('{"n_universities": 3, "universities_only_supervised": [], '
     '"universities_only_unsupervised": [], "correlation": null}', "'quartile_matrix'"),
])
def test_report_refuses_a_malformed_report(tmp_path, capsys, text, reason):
    out = tmp_path / "out"
    out.mkdir()
    (out / "report.json").write_text(text)
    assert run_pipeline(["report", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: report: report.json: bad report: {reason}\n"
    assert not (out / "report.txt").exists()


NINETY_RESEARCHERS = "n_universities = 3\nn_researchers = 90\nn_scs = 2\n"


def default_filter_flow(tmp_path, seed):
    """The README flow with default filters, as argv lists."""
    out = str(tmp_path / "out")
    cfg = write_config(tmp_path, NINETY_RESEARCHERS)
    return [["synth", "--config", cfg, "--out", out, "--seed", seed],
            *([stage, "--out", out] for stage in ("ingest", "disambiguate", "derive-staff",
                                                  "score", "compare", "report"))]


def test_compare_ranks_the_universities_both_modes_cover(tmp_path, capsys):
    # at seed 7 derive-staff accepts units in U00 and U02 only
    for argv in default_filter_flow(tmp_path, "7"):
        assert run_pipeline(argv) == 0, argv
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["n_universities"] == 2
    assert report["universities_only_supervised"] == ["U01"]
    assert report["universities_only_unsupervised"] == []
    assert "scored supervised only, not compared: U01\n" in capsys.readouterr().out


def test_package_warning_prints_as_one_stage_line(tmp_path, capsys):
    # at seed 7 two universities are compared, one short of a correlation
    *upstream, compare, _ = default_filter_flow(tmp_path, "7")
    for argv in upstream:
        assert run_pipeline(argv) == 0, argv
    capsys.readouterr()
    assert run_pipeline(compare) == 0
    assert capsys.readouterr().err == (
        "warning: compare: 2 universities compared, need 3 for a correlation; skipped\n")
    assert logging.getLogger("fssbench").handlers == []


def test_compare_names_dropped_universities_when_one_remains(tmp_path, capsys):
    # at seed 42 derive-staff accepts units in U02 only
    *upstream, compare, _ = default_filter_flow(tmp_path, "42")
    for argv in upstream:
        assert run_pipeline(argv) == 0, argv
    capsys.readouterr()
    assert run_pipeline(compare) == 1
    assert capsys.readouterr().err == (
        "error: compare: a correlation needs at least 2 pairs, got 1; "
        "only supervised ['U00', 'U01'], only unsupervised []\n")


def test_cli_import_does_not_load_scipy():
    code = "import fssbench.cli, sys; assert 'scipy' not in sys.modules, 'scipy loaded'"
    done = run_fresh(code)
    assert done.returncode == 0, done.stderr


def test_cli_import_executes_only_corpus_and_not_numpy():
    executed, printed = executed_after("import fssbench.cli, sys; "
                                       "print('numpy' in sys.modules, '_hashlib' in sys.modules)")
    assert executed == ["fssbench", "fssbench.cli", "fssbench.corpus"]
    assert printed == ["False False"]            # _hashlib: OpenSSL, through hashlib


#: The package modules each stage process executes; the others are never imported.
STAGE_MODULES = {
    "synth": {"cli", "corpus", "synth"},
    "ingest": {"cli", "corpus"},
    "disambiguate": {"cli", "corpus", "disambig"},
    "derive-staff": {"cli", "corpus", "disambig", "staff"},
    "score": {"cli", "corpus", "disambig", "staff", "fss"},
    "compare": {"cli", "corpus", "fss", "compare"},
    "report": {"cli", "corpus"},
}


def test_only_synth_and_compare_load_numpy(tmp_path):
    # and no stage loads numpy.ma, which np.percentile and np.median import;
    # only synth loads OpenSSL, through numpy.random's secrets and hmac, even
    # where a stage digests an input file passed by flag; each stage executes
    # only the package modules of STAGE_MODULES
    steps, out = chain_steps(tmp_path), tmp_path / "out"
    steps[1] += ["--publications", str(out / "publications.jsonl")]
    steps[4] += ["--roster", str(out / "roster.csv"), "--scheme", str(out / "scheme.csv")]
    loaded, executed = {}, {}
    for argv in steps:
        modules, (*_, flags) = executed_after(
            "import sys; from fssbench.cli import run_pipeline; "
            f"code = run_pipeline({argv!r}); "
            "print(code, 'numpy' in sys.modules, 'numpy.ma' in sys.modules, "
            "'_hashlib' in sys.modules)")
        loaded[argv[0]] = flags.split()
        executed[argv[0]] = {name.removeprefix("fssbench.") for name in modules} - {"fssbench"}
    assert loaded == {stage: ["0", str(stage in ("synth", "compare")), "False",
                              str(stage == "synth")]
                      for stage in ("synth", "ingest", "disambiguate", "derive-staff",
                                    "score", "compare", "report")}
    assert executed == STAGE_MODULES


def test_a_config_file_of_settings_alone_leaves_synth_unexecuted(tmp_path):
    cfg = write_config(tmp_path, "min_obs = 5\nmin_age = 2\n")
    done = run_fresh("import sys; from fssbench.cli import run_pipeline; "
                     f"run_pipeline(['ingest', '--config', {cfg!r}, '--out', {str(tmp_path)!r}]); "
                     "print('fssbench.synth' in sys.modules)")
    assert done.stdout.split() == ["False"]
    assert done.stderr == ("error: ingest: missing publications.jsonl; "
                           "pass --publications or run `synth` first\n")


@pytest.mark.filterwarnings("error")
def test_readme_flow_with_default_filters(tmp_path):
    out = str(tmp_path / "out")
    cfg = write_config(tmp_path, "n_universities = 3\nn_researchers = 120\nn_scs = 2\n")
    for argv in [["synth", "--config", cfg, "--out", out],
                 ["ingest", "--out", out],
                 ["disambiguate", "--out", out],
                 ["derive-staff", "--out", out],
                 ["score", "--out", out],
                 ["compare", "--out", out],
                 ["report", "--out", out]]:
        assert run_pipeline(argv) == 0, argv
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["n_universities"] == 3


def test_stages_leave_no_garbage_that_grows_with_the_world(tmp_path):
    # the collector is off while a stage runs; a cycle per record would be
    # kept until the process ends
    garbage = {}
    for n in (60, 60, 240):          # the first run imports numpy's lazy modules
        world = f"n_universities = 3\nn_researchers = {n}\nn_scs = 2\n"
        shutil.rmtree(tmp_path / "out", ignore_errors=True)
        for argv in chain_steps(tmp_path, world=world):
            gc.collect()
            assert run_pipeline(argv) == 0, argv
            assert gc.isenabled()
            garbage[n, argv[0]] = gc.collect()
    for stage in STAGES:
        assert garbage[240, stage] <= garbage[60, stage], stage


@pytest.mark.parametrize("enabled", [True, False])
def test_stage_runs_without_the_collector_and_gives_its_state_back(tmp_path, monkeypatch,
                                                                 enabled):
    seen = []
    monkeypatch.setitem(STAGES, "report", cli.Stage(lambda cfg: seen.append(gc.isenabled()),
                                                    STAGES["report"].outputs))
    try:
        gc.enable() if enabled else gc.disable()
        assert run_pipeline(["report", "--out", str(tmp_path)]) == 0
        assert run_pipeline(["compare", "--out", str(tmp_path)]) == 1    # refused
        assert gc.isenabled() is enabled
    finally:
        gc.enable()
    assert seen == [False]


def run_main(monkeypatch, **env):
    for name in cli.BLAS_THREAD_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    monkeypatch.setattr(cli, "run_pipeline", lambda: 0)
    with pytest.raises(SystemExit) as exit_:
        cli.main()
    assert exit_.value.code == 0
    return {name: os.environ.get(name) for name in cli.BLAS_THREAD_VARIABLES}


def test_main_starts_numpy_with_one_blas_thread(monkeypatch):
    assert run_main(monkeypatch) == {"OPENBLAS_NUM_THREADS": "1", "GOTO_NUM_THREADS": None,
                                     "OMP_NUM_THREADS": None}


@pytest.mark.parametrize("name", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_main_keeps_the_users_blas_threads(monkeypatch, name):
    threads = run_main(monkeypatch, **{name: "3"})
    assert threads == {var: "3" if var == name else None for var in cli.BLAS_THREAD_VARIABLES}


def test_compare_writes_the_same_bytes_with_any_blas_threads(tmp_path, finished_run):
    written = []
    for threads in ("1", "2"):
        out = shutil.copytree(finished_run, tmp_path / threads)
        done = subprocess.run([sys.executable, "-m", "fssbench", "compare", "--out", str(out)],
                              env={**package_env(), "OPENBLAS_NUM_THREADS": threads},
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        written.append([(out / name).read_bytes() for name in STAGES["compare"].outputs])
    assert written[0] == written[1]
