import csv
import hashlib
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fssbench import synth
from fssbench.cli import SETTINGS, STAGES, load_config_file, run_pipeline

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


def chain_steps(tmp_path, out_name="out", seed="42"):
    out = str(tmp_path / out_name)
    cfg = write_config(tmp_path)
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
    import fssbench

    src = str(Path(fssbench.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env,
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
    assert manifest["seed"] == 7
    assert manifest["config"]["seed"] == 7


def test_config_file_value_used_without_flag(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, SMALL_WORLD + "seed = 9\n")
    assert run_pipeline(["synth", "--config", cfg, "--out", str(out)]) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["seed"] == 9


def test_manifest_records_inputs_and_hash(tmp_path):
    out = run_chain(tmp_path)
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["subcommand"] == "report"
    assert len(manifest["config_hash"]) == 64
    assert all(len(d) == 64 for d in manifest["inputs"].values())
    assert manifest["outputs"] == ["report.txt"]


def test_manifest_keeps_the_digest_of_each_flag_sharing_a_file_name(tmp_path):
    out = tmp_path / "out"
    assert run_pipeline(["synth", "--config", write_config(tmp_path), "--out", str(out)]) == 0
    assert run_pipeline(["ingest", "--out", str(out)]) == 0
    roster, scheme = tmp_path / "a" / "x.csv", tmp_path / "b" / "x.csv"
    for path, name in [(roster, "roster.csv"), (scheme, "scheme.csv")]:
        path.parent.mkdir()
        path.write_bytes((out / name).read_bytes())
    assert run_pipeline(["score", "--out", str(out), "--mode", "supervised",
                         "--roster", str(roster), "--scheme", str(scheme)]) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["inputs"] == {
        "roster": hashlib.sha256(roster.read_bytes()).hexdigest(),
        "scheme": hashlib.sha256(scheme.read_bytes()).hexdigest(),
    }


def test_synth_refuses_a_negative_seed(tmp_path, capsys):
    out = tmp_path / "o"
    assert run_pipeline(["synth", "--out", str(out), "--seed", "-3"]) == 1
    assert capsys.readouterr().err == "error: synth: seed must be non-negative, got -3\n"
    assert not (out / "publications.jsonl").exists()


@pytest.mark.parametrize("setting", [["--window", "0001:0003"],
                                     ["--config", "career_lookback_max = 3000\n"]],
                         ids=["window-0001", "lookback-3000"])
def test_synth_refuses_a_career_start_before_year_zero(tmp_path, capsys, setting):
    # a career may start up to career_lookback_max years before the window;
    # a start below year 0 keys a negative draw, which synth must refuse
    flag, value = setting
    if flag == "--config":
        value = write_config(tmp_path, SMALL_WORLD + value)
    args = ["synth", "--out", str(tmp_path / "o"), flag, value]
    if flag != "--config":
        args += ["--config", write_config(tmp_path)]
    assert run_pipeline(args) == 1
    assert capsys.readouterr().err == "error: synth: expected non-negative integer\n"


def test_bad_obs_rule_in_config_file(tmp_path, capsys):
    for key, value in [("obs_rule", "sometimes"), ("mode", "sometimes"),
                       ("window", "lots"), ("n_researchers", "lots")]:
        cfg = write_config(tmp_path, f"{key} = {value}\n")
        assert run_pipeline(["synth", "--config", cfg,
                             "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (
            f"error: synth: config key {key}: bad value '{value}'\n")


#: setting -> (config-file value, flag value); neither is the default.
#: ``out`` is set by every test; ``--mode`` exists on ``score`` only.
SETTING_VALUES = {
    "seed": ("9", "7"),
    "window": ("2014:2018", "2013:2017"),
    "min_clusters": ("5", "6"),
    "min_age": ("2", "3"),
    "recency": ("2016", "2017"),
    "min_obs": ("3", "4"),
    "obs_rule": ("strict", "literal"),
    "sc_lookback": ("10", "12"),
}


@pytest.mark.parametrize("key", sorted(SETTINGS.keys() - {"out", "mode"}))
def test_setting_from_config_file_and_flag(tmp_path, key):
    in_file, by_flag = SETTING_VALUES[key]
    cfg = write_config(tmp_path, SMALL_WORLD + f"{key} = {in_file}\n")
    out = tmp_path / "out"
    flag = ["--" + key.replace("_", "-"), by_flag]
    for extra, expected in [([], in_file), (flag, by_flag)]:
        assert run_pipeline(["synth", "--config", cfg, "--out", str(out), *extra]) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert str(manifest["config"][key]) == expected


def test_malformed_config_line(tmp_path, capsys):
    cfg = write_config(tmp_path, "n_universities = 3\njust words\n")
    assert run_pipeline(["synth", "--config", cfg,
                         "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == (
        "error: synth: config line 2: expected key = value, got 'just words'\n")


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


def test_load_config_file_strips_comments(tmp_path):
    cfg = write_config(tmp_path, "a = 1   # trailing\n\n# full line\nb = two\n")
    assert load_config_file(cfg) == {"a": "1", "b": "two"}


def test_unknown_synth_knob_warned_not_fatal(tmp_path, caplog):
    cfg = write_config(tmp_path, SMALL_WORLD + "warp_factor = 9\n")
    assert run_pipeline(["synth", "--config", cfg,
                         "--out", str(tmp_path / "o")]) == 0
    assert any("warp_factor" in r.getMessage() for r in caplog.records)


def test_score_single_mode_blocks_compare(tmp_path, capsys):
    out = str(tmp_path / "out")
    cfg = write_config(tmp_path)
    for argv in [["synth", "--config", cfg, "--out", out],
                 ["ingest", "--out", out],
                 ["score", "--out", out, "--mode", "supervised"]]:
        assert run_pipeline(argv) == 0
    assert run_pipeline(["compare", "--out", out]) == 1
    assert "mode=both" in capsys.readouterr().err


def run_to_staff(tmp_path):
    out = str(tmp_path / "out")
    cfg = write_config(tmp_path)
    for argv in [["synth", "--config", cfg, "--out", out],
                 ["ingest", "--out", out],
                 ["disambiguate", "--out", out],
                 ["derive-staff", "--out", out, "--min-clusters", "1"]]:
        assert run_pipeline(argv) == 0, argv
    return tmp_path / "out"


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


def test_score_refuses_empty_incidence_file(tmp_path, capsys):
    out = str(tmp_path / "out")
    cfg = write_config(tmp_path)
    for argv in [["synth", "--config", cfg, "--out", out],
                 ["ingest", "--out", out]]:
        assert run_pipeline(argv) == 0
    incidence = tmp_path / "incidence.csv"
    incidence.write_text("")
    capsys.readouterr()
    assert run_pipeline(["score", "--out", out, "--mode", "supervised",
                         "--incidence", str(incidence)]) == 1
    assert capsys.readouterr().err == "error: score: incidence.csv: empty file\n"


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


def test_recency_after_window_end_refused(tmp_path, capsys):
    assert run_pipeline(["derive-staff", "--out", str(tmp_path / "o"),
                         "--recency", "2020"]) == 1
    assert capsys.readouterr().err == (
        "error: derive-staff: recency 2020 is after the window's last year 2019; "
        "no cluster can be active then\n")


def test_unknown_config_key_warned_and_not_recorded(tmp_path, caplog):
    out = tmp_path / "out"
    assert run_pipeline(["synth", "--config", write_config(tmp_path),
                         "--out", str(out)]) == 0
    cfg = write_config(tmp_path, "threads = 4\n", name="stage.cfg")
    caplog.clear()
    assert run_pipeline(["ingest", "--config", cfg, "--out", str(out)]) == 0
    assert [r.getMessage() for r in caplog.records if "threads" in r.getMessage()] == [
        "ignoring unknown config key 'threads'"]
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert "threads" not in manifest["config"]


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
        "error: compare: scores_universities.csv line 2: expected 6 fields, got 3\n")


def test_compare_refuses_a_single_university(tmp_path, capsys):
    out = run_chain(tmp_path)
    path = out / "scores_universities.csv"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(line for line in lines
                               if not line.startswith(("U01,", "U02,"))) + "\n")
    capsys.readouterr()
    assert run_pipeline(["compare", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: compare: a correlation needs at least 2 pairs, got 1\n")


def test_report_prints_a_null_correlation_as_na(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    (out / "report.json").write_text(json.dumps({
        "n_universities": 3,
        "correlations": {"overall": {"n": 3, "pearson_scores": None,
                                     "spearman_ranks": None}},
    }))
    assert run_pipeline(["report", "--out", str(out)]) == 0
    assert capsys.readouterr().out == (
        "universities compared: 3\n"
        "correlation [overall]: pearson(scores)=n/a spearman(ranks)=n/a (n=3)\n")


@pytest.mark.parametrize("text, reason", [
    ("[1, 2]", "not a JSON object"),
    ('{"correlations": {}}', "'n_universities'"),
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
    # at seed 7 two universities are compared, one short of a quartile group
    *upstream, compare, _ = default_filter_flow(tmp_path, "7")
    for argv in upstream:
        assert run_pipeline(argv) == 0, argv
    capsys.readouterr()
    assert run_pipeline(compare) == 0
    assert capsys.readouterr().err == (
        "warning: compare: group 'overall' has 2 universities, need 3; skipped\n")
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


def test_cli_import_loads_every_package_module_but_not_numpy():
    done = run_fresh("import fssbench.cli, json, sys; print(json.dumps(list(sys.modules)))")
    assert done.returncode == 0, done.stderr
    modules = set(json.loads(done.stdout))
    assert {f"fssbench.{name}" for name in ("corpus", "disambig", "staff", "fss",
                                            "compare", "synth")} <= modules
    assert "numpy" not in modules


def test_only_synth_and_compare_load_numpy(tmp_path):
    loaded = {}
    for argv in chain_steps(tmp_path):
        done = run_fresh("import sys; from fssbench.cli import run_pipeline; "
                         f"code = run_pipeline({argv!r}); print(code, 'numpy' in sys.modules)")
        assert done.returncode == 0, done.stderr
        loaded[argv[0]] = done.stdout.split()[-2:]
    assert loaded == {stage: ["0", str(stage in ("synth", "compare"))] for stage in
                      ("synth", "ingest", "disambiguate", "derive-staff", "score",
                       "compare", "report")}


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
