"""Pipeline front end.

One subcommand per stage, each an entry of ``STAGES``, handing artifacts
off through the output directory:

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
config hash and seed, its output names, and the sha256 digest of each
input file passed by flag (--publications, --roster, ...), keyed by the
flag's name; artifacts a stage reads from the output directory are not
digested. Every digest, the config hash included, comes from the
interpreter's builtin SHA-256 (``corpus.sha256``), not from ``hashlib``,
so ``synth`` is the one stage that loads OpenSSL (about 3.5 MB of a
process), through numpy's random module.
Settings come from an optional ``key = value`` config file; command-line
flags override it. Each is one entry of ``SETTINGS``:

    key           flag             default
    seed          --seed           42
    window        --window         2015:2019
    min_clusters  --min-clusters   30
    min_age       --min-age        4
    recency       --recency        the window's last year
    min_obs       --min-obs        10
    obs_rule      --obs-rule       literal (or strict)
    sc_lookback   --sc-lookback    19
    out           --out            out

A ``recency`` after the window's last year and a negative ``min_clusters``,
``min_age`` or ``min_obs`` are refused, naming the setting, and so is an
``sc_lookback`` below 1 where a stage loads the publications.
The file may also set the world generator's knobs; any other key is
ignored with a warning and left out of the manifest. A file value not of
its setting's or knob's type, or not one of its allowed values, is refused
as ``config key <key>: bad value '<value>'``, and a knob outside the range
``synth.SynthConfig`` allows with that class's own message
(``n_researchers must be positive``), by every stage.
Exit status 0 on success; any failure prints a single
``error: <stage>: <reason>`` line on stderr and exits nonzero, naming
the subcommand to run first when an upstream artifact is missing. A
refused stage after ``synth`` removes its own outputs from the output
directory, so that no later stage reads an earlier run's, also when one of
its settings is refused; a file passed by flag is never removed. A config
file that cannot be read removes nothing: its ``out`` and inputs are
unknown. A warning from the package prints as
``warning: <stage>: <message>`` on stderr and does not change the exit
status.

Each stage runs with the cyclic garbage collector off, and the ``fssbench``
command starts numpy with one BLAS thread unless ``OPENBLAS_NUM_THREADS``,
``GOTO_NUM_THREADS`` or ``OMP_NUM_THREADS`` is set; a library caller keeps
its own settings of both. A stage's data hold no reference cycles, and its
arrays no more than a few thousand numbers: a full collection of a national
corpus walks millions of objects for nothing, and OpenBLAS's thread pool
costs more to start than it could save.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import logging
import os
import sys
import typing
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from . import compare as comparemod
from . import corpus as corpusmod
from . import disambig, fss, staff as staffmod, synth as synthmod

log = logging.getLogger(__name__)


class Setting(typing.NamedTuple):
    """A run setting: ``type`` casts a flag or config-file string; ``help`` and
    ``choices`` go to the flag, which every subcommand has."""

    type: typing.Callable[[str], object]
    default: object
    help: str | None = None
    choices: tuple[str, ...] | None = None


#: Every run setting, in the order of the flags in ``--help``.
SETTINGS = {
    "seed": Setting(int, 42),
    "window": Setting(corpusmod.YearWindow.parse, corpusmod.YearWindow(2015, 2019),
                      "observation window, START:END"),
    "min_clusters": Setting(int, staffmod.DEFAULT_MIN_CLUSTERS),
    "min_age": Setting(int, staffmod.DEFAULT_MIN_AGE),
    "recency": Setting(int, None),                # None: the window's last year
    "min_obs": Setting(int, fss.DEFAULT_MIN_OBS),
    "obs_rule": Setting(str, fss.OBS_RULE_LITERAL,
                        choices=(fss.OBS_RULE_LITERAL, fss.OBS_RULE_STRICT)),
    "sc_lookback": Setting(int, corpusmod.DEFAULT_SC_LOOKBACK),
    "out": Setting(Path, Path("out"), "artifact directory (default: out)"),
}

#: World-generator knobs a config file may set; the window and seed come
#: from the settings above.
_SYNTH_KNOBS = {name: hint for name, hint in typing.get_type_hints(synthmod.SynthConfig).items()
                if name not in SETTINGS}


class StageError(RuntimeError):
    """Pipeline failure with a user-facing one-line message."""


@dataclass
class RunConfig:
    out: Path
    window: corpusmod.YearWindow
    seed: int
    min_clusters: int
    min_age: int
    recency: int | None          # None becomes the window's last year
    min_obs: int
    obs_rule: str
    sc_lookback: int
    paths: dict[str, Path | None]   # each input-file flag of ``STAGES``: its file, if given
    extra: dict[str, str]        # world-generator knobs from the config file, as written

    def __post_init__(self):
        if self.recency is None:
            self.recency = self.window.end
        if self.recency > self.window.end:
            raise StageError(f"recency {self.recency} is after the window's last year "
                             f"{self.window.end}; no cluster can be active then")
        for key in ("min_clusters", "min_age", "min_obs"):
            if getattr(self, key) < 0:
                raise StageError(f"{key} must be non-negative, got {getattr(self, key)}")

    def digestable(self) -> dict:
        """The manifest's ``config``: every setting, each input path that is
        set, then the world knobs as written in the config file."""
        config = dataclasses.asdict(self)
        extra = config.pop("extra")
        config.update(config.pop("paths"))
        config["window"] = f"{self.window.start}:{self.window.end}"
        config = {key: str(value) if isinstance(value, Path) else value
                  for key, value in config.items() if value is not None}
        return {**config, **dict(sorted(extra.items()))}


def load_config_file(path: str | Path) -> dict[str, str]:
    return {key: value for _, key, value in corpusmod.read_key_values(path, "config")}


def _cast(key: str, raw: str) -> object:
    """Config-file value ``raw`` of setting or world knob ``key``, cast to its type."""
    setting = SETTINGS.get(key)
    try:
        value = setting.type(raw) if setting else _SYNTH_KNOBS[key](raw)
        if setting and setting.choices and value not in setting.choices:
            raise ValueError(raw)
    except (ValueError, corpusmod.CorpusError) as exc:
        raise StageError(f"config key {key}: bad value {raw!r}") from exc
    return value


def _pick(args: argparse.Namespace, file_values: dict[str, str], key: str) -> object:
    """Setting ``key``: its flag, else its config-file value, else its default."""
    setting = SETTINGS[key]
    flag = getattr(args, key, None)
    if flag is not None:
        return setting.type(flag)
    if key in file_values:
        return _cast(key, file_values[key])
    return setting.default


def _paths(args: argparse.Namespace, file_values: dict[str, str]) -> dict[str, Path | None]:
    """Each input-file flag's file: the flag, else its config-file value."""
    paths = {}
    for key in _PATH_KEYS:
        value = getattr(args, key, None) or file_values.get(key)
        paths[key] = Path(value) if value else None
    return paths


def resolve_config(args: argparse.Namespace, file_values: dict[str, str]) -> RunConfig:
    """The run's settings from its flags and the config file's ``file_values``."""
    for key in ("window_start", "window_end"):
        if key in file_values:
            raise StageError(f"config key {key} is not a setting; use window = START:END")
    for key in sorted(file_values.keys() - SETTINGS.keys() - set(_PATH_KEYS)
                      - _SYNTH_KNOBS.keys()):
        log.warning("ignoring unknown config key %r", key)
    extra = {k: v for k, v in file_values.items() if k in _SYNTH_KNOBS}
    # refused in every stage, not only synth: a bad type here, a value out of
    # range by the generator's own checks
    synthmod.SynthConfig(**{key: _cast(key, raw) for key, raw in extra.items()})
    return RunConfig(**{key: _pick(args, file_values, key) for key in SETTINGS},
                     paths=_paths(args, file_values), extra=extra)


def _sha256(path: Path) -> str:
    h = corpusmod.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(cfg: RunConfig, subcommand: str) -> None:
    config = cfg.digestable()
    config_hash = corpusmod.sha256(
        "\n".join(f"{k}={config[k]}" for k in sorted(config)).encode()).hexdigest()
    manifest = {
        "subcommand": subcommand,
        "config": config,
        "config_hash": config_hash,
        "seed": cfg.seed,
        "inputs": {flag: _sha256(p) for flag, p in cfg.paths.items() if p and p.exists()},
        "outputs": list(STAGES[subcommand].outputs),
    }
    (cfg.out / "run_manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _artifact(cfg: RunConfig, name: str) -> Path:
    """Artifact ``name`` in the output directory, or the file passed by the
    flag named after it; a missing one names its producer in ``STAGES``."""
    flag = Path(name).stem
    path = cfg.paths.get(flag) or cfg.out / name
    if not path.exists():
        producer = next(stage for stage, entry in STAGES.items() if name in entry.outputs)
        how = f"pass --{flag} or run" if flag in cfg.paths else "run"
        raise StageError(f"missing {name}; {how} `{producer}` first")
    return path


def _load_corpus(cfg: RunConfig, path: Path) -> corpusmod.Corpus:
    return corpusmod.load_publications(path, cfg.window, sc_lookback=cfg.sc_lookback)


def cmd_synth(cfg: RunConfig) -> None:
    config = synthmod.SynthConfig(seed=cfg.seed, window=cfg.window,
                                  **{key: _cast(key, raw) for key, raw in cfg.extra.items()})
    files, truth = synthmod.generate(config, cfg.out)
    log.info("synthesized %d persons, %s", len(truth.persons), files["publications"])


def cmd_ingest(cfg: RunConfig) -> None:
    corpus = _load_corpus(cfg, _artifact(cfg, "publications.jsonl"))
    corpus.write_jsonl(cfg.out / "corpus.jsonl")
    log.info("ingested %d publications, %d mentions", len(corpus), corpus.mention_count())


def cmd_disambiguate(cfg: RunConfig) -> None:
    corpus = _load_corpus(cfg, _artifact(cfg, "corpus.jsonl"))
    rules = (disambig.load_rules(cfg.paths["rules"]) if cfg.paths["rules"]
             else disambig.DEFAULT_RULES)
    clusters = disambig.cluster_corpus(corpus, rules)
    disambig.write_clusters_jsonl(clusters, cfg.out / "clusters.jsonl")
    log.info("clustered %d mentions into %d clusters",
             corpus.mention_count(), len(clusters))


def cmd_derive_staff(cfg: RunConfig) -> None:
    clusters = disambig.load_clusters_jsonl(_artifact(cfg, "clusters.jsonl"))
    registry = corpusmod.load_registry(_artifact(cfg, "registry.csv"))
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
    staffmod.write_staff_csv(derived, cfg.out / "staff.csv")
    staffmod.write_review_queue_csv(derived, cfg.out / "review_queue.csv")
    log.info("accepted %d staff units over %d universities; %d queued",
             len(derived.all_units()), len(derived.members), len(derived.review_queue))


def cmd_score(cfg: RunConfig) -> None:
    corpus = _load_corpus(cfg, _artifact(cfg, "corpus.jsonl"))
    scheme = corpusmod.load_scheme(_artifact(cfg, "scheme.csv"))
    incidence = (corpusmod.load_incidence(cfg.paths["incidence"]) if cfg.paths["incidence"]
                 else None)
    roster_path = _artifact(cfg, "roster.csv")
    roster = corpusmod.load_roster(roster_path, cfg.window)
    if not roster:
        raise StageError(f"{roster_path.name} lists no researcher")
    staff_path = _artifact(cfg, "staff.csv")
    derived = staffmod.load_staff_csv(
        staff_path, disambig.load_clusters_jsonl(_artifact(cfg, "clusters.jsonl")))
    if not derived.members:
        raise StageError(f"{staff_path.name} lists no staff unit")
    scored = fss.score_modes(corpus, roster, derived, scheme, cfg.seed, min_obs=cfg.min_obs,
                             rule=cfg.obs_rule, incidence=incidence).values()
    researcher_rows = [s for scores, _ in scored for s in scores]
    university_rows = [u for _, universities in scored for u in universities]
    fss.write_researcher_scores_csv(researcher_rows, cfg.out / "scores_researchers.csv")
    fss.write_university_scores_csv(university_rows, cfg.out / "scores_universities.csv")
    log.info("scored %d researcher rows, %d university rows",
             len(researcher_rows), len(university_rows))


def cmd_compare(cfg: RunConfig) -> None:
    uni_path = _artifact(cfg, "scores_universities.csv")
    report, table, matrix, distributions = comparemod.compare_modes(
        fss.load_scores(_artifact(cfg, "scores_researchers.csv"), uni_path))
    comparemod.write_report_json(report, cfg.out / "report.json")
    comparemod.write_rank_table_csv(table, cfg.out / "rank_table.csv")
    comparemod.write_quartile_matrix_csv(matrix, cfg.out / "quartile_matrix.csv")
    comparemod.write_distribution_stats_csv(distributions, cfg.out / "distribution_stats.csv")
    log.info("compared %d universities", table.n)


def cmd_report(cfg: RunConfig) -> None:
    path = _artifact(cfg, "report.json")
    try:
        report = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(report, dict):
            raise TypeError("not a JSON object")
        text = "\n".join(_report_lines(report)) + "\n"
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise StageError(f"{path.name}: bad report: {exc}") from exc
    (cfg.out / "report.txt").write_text(text, encoding="utf-8")
    sys.stdout.write(text)


def _report_lines(report: dict) -> list[str]:
    """The summary of ``report``, the dictionary ``compare`` writes."""
    lines = [f"universities compared: {report['n_universities']}"]
    for mode in (fss.MODE_SUPERVISED, fss.MODE_UNSUPERVISED):
        unranked = report[f"universities_only_{mode}"]
        if unranked:
            lines.append(f"scored {mode} only, not compared: {', '.join(unranked)}")
    for name, corr in sorted(report["correlations"].items()):
        lines.append(f"correlation [{name}]: pearson(scores)="
                     f"{_fmt(corr['pearson_scores'])} "
                     f"spearman(ranks)={_fmt(corr['spearman_ranks'])} (n={corr['n']})")
    lines.append("quartile matrix (rows unsupervised, columns supervised):")
    for i, row in enumerate(report["quartile_matrix"], 1):
        lines.append(f"  Q{i}: " + " ".join(f"{c:3d}" for c in row))
    lines.append(f"same quartile: {report['quartile_diagonal']}; "
                 f"better supervised: {report['quartile_above_diagonal']}; "
                 f"worse supervised: {report['quartile_below_diagonal']}")
    jumps = report["rank_jumps"]
    lines.append(f"quartile jumps >= {jumps['threshold']}: "
                 f"{len(jumps['universities'])}")
    for university, q_unsup, q_sup in jumps["universities"]:
        lines.append(f"  {university}: Q{q_unsup} -> Q{q_sup}")
    lines.append(f"max |delta rank|: {jumps['max_abs_delta_rank']} overall, "
                 f"{jumps['max_abs_delta_rank_top']} in supervised top "
                 f"{jumps['top_k']}")
    dev = report["university_deviation_correlations"]
    lines.append("staff-count deviation vs score deviation: "
                 f"pearson={_fmt(dev['obs_vs_fss_u'])}; "
                 "vs rank movement: "
                 f"pearson={_fmt(dev['obs_vs_delta_rank'])}")
    return lines


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.3f}"


class Stage(typing.NamedTuple):
    """A subcommand: its computation, the artifacts it writes to ``--out``
    (in the manifest's order), and its input-file flags."""

    run: typing.Callable[[RunConfig], None]
    outputs: tuple[str, ...]
    flags: tuple[str, ...] = ()


#: Every subcommand, in pipeline order. An artifact's producer is the stage
#: that lists it; a ``synth`` output may come from the flag named after it.
STAGES = {
    "synth": Stage(cmd_synth, ("publications.jsonl", "roster.csv", "registry.csv",
                               "scheme.csv", "ground_truth.csv")),
    "ingest": Stage(cmd_ingest, ("corpus.jsonl",), ("publications",)),
    "disambiguate": Stage(cmd_disambiguate, ("clusters.jsonl",), ("rules",)),
    "derive-staff": Stage(cmd_derive_staff, ("staff.csv", "review_queue.csv"),
                          ("registry",)),
    "score": Stage(cmd_score, ("scores_researchers.csv", "scores_universities.csv"),
                   ("roster", "scheme", "incidence")),
    "compare": Stage(cmd_compare, ("report.json", "rank_table.csv", "quartile_matrix.csv",
                                   "distribution_stats.csv")),
    "report": Stage(cmd_report, ("report.txt",)),
}

#: Every input-file flag; each is a key of ``RunConfig.paths`` and a config key.
_PATH_KEYS = tuple(flag for stage in STAGES.values() for flag in stage.flags)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fssbench",
        description="Supervised vs unsupervised research-organization scoring.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, stage in STAGES.items():
        p = sub.add_parser(name)
        p.add_argument("--config", help="key = value settings file")
        for key, setting in SETTINGS.items():
            # a bad window is refused by resolve_config, in one line
            p.add_argument(f"--{key.replace('_', '-')}", dest=key,
                           type=int if setting.type is int else None,
                           choices=setting.choices, help=setting.help)
        for flag in stage.flags:
            p.add_argument(f"--{flag}")
    return parser


def _remove_outputs(out: Path, paths: dict[str, Path | None], subcommand: str) -> None:
    """Remove refused stage ``subcommand``'s outputs from ``out``: a later
    stage would otherwise take an earlier run's for this one's. ``synth``'s
    may be a user's own corpus, and a file of ``paths``, passed by flag or
    config key, is an input."""
    if subcommand == "synth" or not out.is_dir():
        return
    inputs = {path.resolve() for path in paths.values() if path}
    for name in STAGES[subcommand].outputs:
        path = out / name
        if path.resolve() not in inputs:
            try:
                path.unlink(missing_ok=True)
            except OSError as exc:
                log.warning("could not remove %s: %s", path, exc.strerror)


def run_pipeline(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    subcommand = args.subcommand
    # the package's warnings, in the stage's own words; without a handler
    # they would reach stderr as bare lines through logging's last resort
    warn_handler = logging.StreamHandler(sys.stderr)
    warn_handler.setLevel(logging.WARNING)
    warn_handler.setFormatter(logging.Formatter(f"warning: {subcommand}: %(message)s"))
    package_log = logging.getLogger(__package__)
    package_log.addHandler(warn_handler)
    gc_enabled = gc.isenabled()
    gc.disable()
    paths = None
    try:
        file_values = load_config_file(args.config) if args.config else {}
        # known before any setting can be refused; an unreadable config
        # file leaves them unknown, and so removes nothing
        out, paths = _pick(args, file_values, "out"), _paths(args, file_values)
        cfg = resolve_config(args, file_values)
        cfg.out.mkdir(parents=True, exist_ok=True)
        STAGES[subcommand].run(cfg)
        write_manifest(cfg, subcommand)
        return 0
    except (StageError, ValueError, OSError) as exc:
        if paths is not None:
            _remove_outputs(out, paths, subcommand)
        message = str(exc).replace("\n", " ")
        sys.stderr.write(f"error: {subcommand}: {message}\n")
        return 1
    finally:
        if gc_enabled:
            gc.enable()
        package_log.removeHandler(warn_handler)


#: The variables OpenBLAS reads its thread count from.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def main() -> None:
    # before anything imports numpy, which starts its BLAS threads on import
    if not any(name in os.environ for name in BLAS_THREAD_VARIABLES):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.exit(run_pipeline())


if __name__ == "__main__":
    main()
