"""Pipeline front end.

One subcommand per stage, handing artifacts off through the output
directory:

    synth         -> publications.jsonl roster.csv registry.csv scheme.csv
                     ground_truth.csv
    ingest        -> corpus.jsonl
    disambiguate  -> clusters.jsonl
    derive-staff  -> staff.csv review_queue.csv
    score         -> scores_researchers.csv scores_universities.csv
    compare       -> report.json rank_table.csv quartile_matrix.csv
                     distribution_stats.csv
    report        -> report.txt (and a summary on stdout)

Each stage overwrites run_manifest.json with its own resolved config,
config hash and seed, its output names, and the sha256 digests of the
input files passed by flag (--publications, --roster, ...); artifacts a
stage reads from the output directory are not digested.
Settings come from an optional ``key = value`` config file; command-line
flags override it. The file may also set the world generator's knobs;
any other key is ignored with a warning and left out of the manifest.
Exit status 0 on success; any failure prints a single
``error: <stage>: <reason>`` line on stderr and exits nonzero, naming
the subcommand to run first when an upstream artifact is missing.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import logging
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from . import compare as comparemod
from . import corpus as corpusmod
from . import disambig, fss, staff as staffmod, synth as synthmod

log = logging.getLogger(__name__)

DEFAULTS = {
    "window": "2015:2019",
    "seed": 42,
    "min_clusters": 30,
    "min_age": 4,
    "recency": None,             # the window's last year
    "min_obs": 10,
    "obs_rule": "literal",
    "sc_lookback": corpusmod.DEFAULT_SC_LOOKBACK,
    "out": "out",
    "mode": "both",
}

_PATH_KEYS = ("publications", "roster", "registry", "scheme", "rules", "incidence")

#: World-generator knobs a config file may set; the window and seed come
#: from the settings above.
_SYNTH_KNOBS = {f.name: f for f in dataclasses.fields(synthmod.SynthConfig)
                if f.name not in ("seed", "window_start", "window_end")}


class StageError(RuntimeError):
    """Pipeline failure with a user-facing one-line message."""


@dataclass
class RunConfig:
    out: Path
    window: corpusmod.YearWindow
    seed: int
    min_clusters: int
    min_age: int
    recency: int
    min_obs: int
    obs_rule: str
    sc_lookback: int
    mode: str
    publications: Path | None
    roster: Path | None
    registry: Path | None
    scheme: Path | None
    rules: Path | None
    incidence: Path | None
    extra: dict[str, str]        # world-generator knobs from the config file

    def digestable(self) -> dict:
        d = {
            "window": f"{self.window.start}:{self.window.end}",
            "seed": self.seed,
            "min_clusters": self.min_clusters,
            "min_age": self.min_age,
            "recency": self.recency,
            "min_obs": self.min_obs,
            "obs_rule": self.obs_rule,
            "sc_lookback": self.sc_lookback,
            "mode": self.mode,
            "out": str(self.out),
        }
        for key in _PATH_KEYS:
            value = getattr(self, key)
            if value is not None:
                d[key] = str(value)
        d.update({k: v for k, v in sorted(self.extra.items())})
        return d


def load_config_file(path: str | Path) -> dict[str, str]:
    return {key: value for _, key, value in corpusmod.read_key_values(path, "config")}


def resolve_config(args: argparse.Namespace) -> RunConfig:
    file_values = load_config_file(args.config) if args.config else {}

    def pick(key, cast=str):
        flag = getattr(args, key, None)
        if flag is not None:
            return flag
        if key in file_values:
            try:
                return cast(file_values[key])
            except ValueError as exc:
                raise StageError(f"config key {key}: bad value {file_values[key]!r}") from exc
        return DEFAULTS.get(key)

    for key in ("window_start", "window_end"):
        if key in file_values:
            raise StageError(f"config key {key} is not a setting; use window = START:END")
    for key in sorted(file_values.keys() - DEFAULTS.keys() - set(_PATH_KEYS)
                      - _SYNTH_KNOBS.keys()):
        log.warning("ignoring unknown config key %r", key)
    window = corpusmod.YearWindow.parse(str(pick("window")))
    recency = pick("recency", int)
    recency = window.end if recency is None else recency
    if recency > window.end:
        raise StageError(f"recency {recency} is after the window's last year "
                         f"{window.end}; no cluster can be active then")
    obs_rule = str(pick("obs_rule"))
    if obs_rule not in (fss.OBS_RULE_LITERAL, fss.OBS_RULE_STRICT):
        raise StageError(f"obs_rule must be literal or strict, got {obs_rule!r}")
    mode = str(pick("mode"))
    if mode not in ("both", fss.MODE_SUPERVISED, fss.MODE_UNSUPERVISED):
        raise StageError(f"mode must be both, supervised, or unsupervised, got {mode!r}")
    paths = {}
    for key in _PATH_KEYS:
        value = getattr(args, key, None) or file_values.get(key)
        paths[key] = Path(value) if value else None
    return RunConfig(
        out=Path(pick("out")),
        window=window,
        seed=int(pick("seed", int)),
        min_clusters=int(pick("min_clusters", int)),
        min_age=int(pick("min_age", int)),
        recency=recency,
        min_obs=int(pick("min_obs", int)),
        obs_rule=obs_rule,
        sc_lookback=int(pick("sc_lookback", int)),
        mode=mode,
        extra={k: v for k, v in file_values.items() if k in _SYNTH_KNOBS},
        **paths,
    )


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(cfg: RunConfig, subcommand: str, inputs: list[Path],
                   outputs: list[Path]) -> None:
    config = cfg.digestable()
    config_hash = hashlib.sha256(
        "\n".join(f"{k}={config[k]}" for k in sorted(config)).encode()).hexdigest()
    manifest = {
        "subcommand": subcommand,
        "config": config,
        "config_hash": config_hash,
        "seed": cfg.seed,
        "inputs": {p.name: _sha256(p) for p in inputs if p.exists()},
        "outputs": [p.name for p in outputs],
    }
    (cfg.out / "run_manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _require(cfg: RunConfig, name: str, producer: str) -> Path:
    path = cfg.out / name
    if not path.exists():
        raise StageError(f"missing {name}; run `{producer}` first")
    return path


def _require_flag(value: Path | None, flag: str, stage: str) -> Path:
    if value is None:
        raise StageError(f"{stage} needs --{flag} (or config key {flag})")
    if not value.exists():
        raise StageError(f"--{flag} file {value} does not exist")
    return value


def _load_corpus(cfg: RunConfig, path: Path) -> corpusmod.Corpus:
    return corpusmod.load_publications(path, cfg.window, sc_lookback=cfg.sc_lookback)


def cmd_synth(cfg: RunConfig) -> list[Path]:
    kwargs = {key: (float if _SYNTH_KNOBS[key].type == "float" else int)(raw)
              for key, raw in cfg.extra.items()}
    config = synthmod.SynthConfig(seed=cfg.seed, window_start=cfg.window.start,
                                  window_end=cfg.window.end, **kwargs)
    files, truth = synthmod.generate(config, cfg.out)
    log.info("synthesized %d persons, %s", len(truth.persons), files["publications"])
    return list(files.values())


def cmd_ingest(cfg: RunConfig) -> list[Path]:
    pubs = cfg.publications or (cfg.out / "publications.jsonl")
    if not pubs.exists():
        raise StageError(
            "missing publications.jsonl; pass --publications or run `synth` first")
    corpus = _load_corpus(cfg, pubs)
    out = cfg.out / "corpus.jsonl"
    corpus.write_jsonl(out)
    log.info("ingested %d publications, %d mentions", len(corpus), corpus.mention_count())
    return [out]


def cmd_disambiguate(cfg: RunConfig) -> list[Path]:
    corpus = _load_corpus(cfg, _require(cfg, "corpus.jsonl", "ingest"))
    rules = disambig.load_rules(cfg.rules) if cfg.rules else disambig.DEFAULT_RULES
    clusters = disambig.cluster_corpus(corpus, rules)
    out = cfg.out / "clusters.jsonl"
    disambig.write_clusters_jsonl(clusters, out)
    log.info("clustered %d mentions into %d clusters",
             corpus.mention_count(), len(clusters))
    return [out]


def cmd_derive_staff(cfg: RunConfig) -> list[Path]:
    clusters_path = _require(cfg, "clusters.jsonl", "disambiguate")
    registry_path = cfg.registry or (cfg.out / "registry.csv")
    if not registry_path.exists():
        raise StageError("missing registry.csv; pass --registry or run `synth` first")
    clusters = disambig.load_clusters_jsonl(clusters_path)
    registry = corpusmod.load_registry(registry_path)
    derived = staffmod.derive_staff(clusters, registry,
                                    min_clusters=cfg.min_clusters,
                                    min_age=cfg.min_age,
                                    recency_year=cfg.recency)
    if not derived.members:
        flags = Counter(f for cand in derived.review_queue for f in cand.flags)
        per_flag = ", ".join(f"{flag} {n}" for flag, n in
                             sorted(flags.items(), key=lambda kv: (-kv[1], kv[0])))
        raise StageError(f"accepted no staff unit out of {len(derived.review_queue)} "
                         f"candidates" + (f"; flags: {per_flag}" if per_flag else ""))
    staff_out = cfg.out / "staff.csv"
    queue_out = cfg.out / "review_queue.csv"
    staffmod.write_staff_csv(derived, staff_out)
    staffmod.write_review_queue_csv(derived, queue_out)
    log.info("accepted %d staff units over %d universities; %d queued",
             len(derived.all_units()), len(derived.members), len(derived.review_queue))
    return [staff_out, queue_out]


def cmd_score(cfg: RunConfig) -> list[Path]:
    corpus = _load_corpus(cfg, _require(cfg, "corpus.jsonl", "ingest"))
    scheme_path = cfg.scheme or (cfg.out / "scheme.csv")
    if not scheme_path.exists():
        raise StageError("missing scheme.csv; pass --scheme or run `synth` first")
    scheme = corpusmod.load_scheme(scheme_path)
    incidence = corpusmod.load_incidence(cfg.incidence) if cfg.incidence else None
    cells = fss.build_citation_cells(corpus)

    def score(subjects: list[fss.Subject]) -> list[fss.ResearcherScore]:
        return fss.score_subjects(subjects, corpus, cells, cfg.seed,
                                  sc_lookback=cfg.sc_lookback, incidence=incidence)

    by_mode: dict[str, list[fss.ResearcherScore]] = {}
    if cfg.mode in ("both", fss.MODE_SUPERVISED):
        roster_path = cfg.roster or (cfg.out / "roster.csv")
        if not roster_path.exists():
            raise StageError("missing roster.csv; pass --roster or run `synth` first")
        roster = corpusmod.load_roster(roster_path, cfg.window)
        by_mode[fss.MODE_SUPERVISED] = score(fss.subjects_from_roster(roster, corpus))
    if cfg.mode in ("both", fss.MODE_UNSUPERVISED):
        derived = staffmod.load_staff_csv(
            _require(cfg, "staff.csv", "derive-staff"),
            disambig.load_clusters_jsonl(_require(cfg, "clusters.jsonl", "disambiguate")))
        by_mode[fss.MODE_UNSUPERVISED] = score(fss.subjects_from_staff(derived, corpus))
    by_mode = fss.apply_exclusions(by_mode, scheme, min_obs=cfg.min_obs, rule=cfg.obs_rule)

    researcher_rows = []
    university_rows = []
    for mode, scores in by_mode.items():
        researcher_rows.extend(scores)
        baselines = fss.compute_sc_baselines(scores)
        for level in (fss.LEVEL_SC, fss.LEVEL_AREA, fss.LEVEL_OVERALL):
            for uscore in fss.compute_fss_u(scores, baselines, level, scheme):
                university_rows.append((mode, uscore))

    res_out = cfg.out / "scores_researchers.csv"
    uni_out = cfg.out / "scores_universities.csv"
    fss.write_researcher_scores_csv(researcher_rows, res_out)
    fss.write_university_scores_csv(university_rows, uni_out)
    log.info("scored %d researcher rows, %d university rows",
             len(researcher_rows), len(university_rows))
    return [res_out, uni_out]


def cmd_compare(cfg: RunConfig) -> list[Path]:
    uni_path = _require(cfg, "scores_universities.csv", "score")
    res_path = _require(cfg, "scores_researchers.csv", "score")
    by_mode: dict[str, list[fss.UniversityScore]] = {"supervised": [], "unsupervised": []}
    for mode, score in fss.load_university_scores_csv(uni_path):
        if score.level == fss.LEVEL_OVERALL and mode in by_mode:
            by_mode[mode].append(score)
    if not by_mode["supervised"] or not by_mode["unsupervised"]:
        raise StageError(
            "scores_universities.csv lacks one of the modes; run `score` with "
            "mode=both first")
    researchers = fss.load_researcher_scores_csv(res_path)
    sup_res = [s for s in researchers if s.mode == fss.MODE_SUPERVISED]
    unsup_res = [s for s in researchers if s.mode == fss.MODE_UNSUPERVISED]

    table = comparemod.rank_universities(by_mode["supervised"], by_mode["unsupervised"])
    report = comparemod.comparison_report(table,
                                          supervised_researchers=sup_res,
                                          unsupervised_researchers=unsup_res)
    report_out = cfg.out / "report.json"
    comparemod.write_report_json(report, report_out)
    comparemod.write_rank_table_csv(table, cfg.out / "rank_table.csv")
    comparemod.write_quartile_matrix_csv(comparemod.quartile_confusion(table),
                                         cfg.out / "quartile_matrix.csv")
    stats_by_group: dict[str, comparemod.DistributionStats] = {}
    for mode, scores in (("supervised", sup_res), ("unsupervised", unsup_res)):
        per_sc: dict[str, list[float]] = {}
        for s in scores:
            per_sc.setdefault(s.sc_id, []).append(s.fss_r)
        if scores:
            stats_by_group[f"{mode}:overall"] = comparemod.distribution_stats(
                [s.fss_r for s in scores])
        for sc, values in per_sc.items():
            stats_by_group[f"{mode}:{sc}"] = comparemod.distribution_stats(values)
    comparemod.write_distribution_stats_csv(stats_by_group,
                                            cfg.out / "distribution_stats.csv")
    log.info("compared %d universities", table.n)
    return [report_out, cfg.out / "rank_table.csv", cfg.out / "quartile_matrix.csv",
            cfg.out / "distribution_stats.csv"]


def cmd_report(cfg: RunConfig) -> list[Path]:
    report_path = _require(cfg, "report.json", "compare")
    report = json.loads(report_path.read_text(encoding="utf-8"))
    lines = [f"universities compared: {report['n_universities']}"]
    for name, corr in sorted(report.get("correlations", {}).items()):
        lines.append(f"correlation [{name}]: pearson(scores)="
                     f"{corr['pearson_scores']:.3f} "
                     f"spearman(ranks)={corr['spearman_ranks']:.3f} (n={corr['n']})")
    matrix = report.get("quartile_matrix")
    if matrix:
        lines.append("quartile matrix (rows unsupervised, columns supervised):")
        for i, row in enumerate(matrix, 1):
            lines.append(f"  Q{i}: " + " ".join(f"{c:3d}" for c in row))
        lines.append(f"same quartile: {report['quartile_diagonal']}; "
                     f"better supervised: {report['quartile_above_diagonal']}; "
                     f"worse supervised: {report['quartile_below_diagonal']}")
    jumps = report.get("rank_jumps", {})
    if jumps:
        lines.append(f"quartile jumps >= {jumps['threshold']}: "
                     f"{len(jumps['universities'])}")
        for university, q_unsup, q_sup in jumps["universities"]:
            lines.append(f"  {university}: Q{q_unsup} -> Q{q_sup}")
        lines.append(f"max |delta rank|: {jumps['max_abs_delta_rank']} overall, "
                     f"{jumps['max_abs_delta_rank_top']} in supervised top "
                     f"{jumps['top_k']}")
    dev = report.get("university_deviation_correlations", {})
    if dev:
        lines.append("staff-count deviation vs score deviation: "
                     f"pearson={_fmt(dev.get('obs_vs_fss_u'))}; "
                     "vs rank movement: "
                     f"pearson={_fmt(dev.get('obs_vs_delta_rank'))}")
    text = "\n".join(lines) + "\n"
    out = cfg.out / "report.txt"
    out.write_text(text, encoding="utf-8")
    sys.stdout.write(text)
    return [out]


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.3f}"


_COMMANDS = {
    "synth": (cmd_synth, []),
    "ingest": (cmd_ingest, ["publications"]),
    "disambiguate": (cmd_disambiguate, ["rules"]),
    "derive-staff": (cmd_derive_staff, ["registry"]),
    "score": (cmd_score, ["roster", "scheme", "incidence"]),
    "compare": (cmd_compare, []),
    "report": (cmd_report, []),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fssbench",
        description="Supervised vs unsupervised research-organization scoring.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, path_flags) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", help="key = value settings file")
        p.add_argument("--seed", type=int)
        p.add_argument("--window", help="observation window, START:END")
        p.add_argument("--min-clusters", dest="min_clusters", type=int)
        p.add_argument("--min-age", dest="min_age", type=int)
        p.add_argument("--recency", type=int)
        p.add_argument("--min-obs", dest="min_obs", type=int)
        p.add_argument("--obs-rule", dest="obs_rule", choices=["literal", "strict"])
        p.add_argument("--sc-lookback", dest="sc_lookback", type=int)
        p.add_argument("--out", help="artifact directory (default: out)")
        if name == "score":
            p.add_argument("--mode", choices=["both", "supervised", "unsupervised"])
        for flag in path_flags:
            p.add_argument(f"--{flag}")
    return parser


def run_pipeline(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    subcommand = args.subcommand
    try:
        cfg = resolve_config(args)
        cfg.out.mkdir(parents=True, exist_ok=True)
        handler, _ = _COMMANDS[subcommand]
        outputs = handler(cfg)
        inputs = [p for p in (cfg.publications, cfg.roster, cfg.registry,
                              cfg.scheme, cfg.rules, cfg.incidence) if p]
        write_manifest(cfg, subcommand, inputs, outputs)
        return 0
    except (StageError, corpusmod.CorpusError, fss.ScoreError, ValueError,
            OSError) as exc:
        message = str(exc).replace("\n", " ")
        sys.stderr.write(f"error: {subcommand}: {message}\n")
        return 1


def main() -> None:
    sys.exit(run_pipeline())


if __name__ == "__main__":
    main()
