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

Each stage overwrites run_manifest.json with ``out``, the settings and set
input files it reads, their config hash, its output names, and the sha256
digest of each of those files (--publications, --roster, ...), keyed by
the flag's name; neither a file set for another stage's flag nor an
artifact read from the output directory is digested.
Every digest, the config hash included, comes from the interpreter's
builtin SHA-256 (``corpus.sha256``), not from ``hashlib``, so ``synth`` is
the one stage that loads OpenSSL (about 3.5 MB of a process), through
numpy's random module.
Settings come from an optional ``key = value`` config file; command-line
flags override it. Each is one entry of ``SETTINGS``, and a flag of the
stages that read it:

    key           flag             default                 read by
    seed          --seed           42                      synth score
    window        --window         2015:2019               synth to score
    min_clusters  --min-clusters   30                      derive-staff
    min_age       --min-age        4                       derive-staff
    recency       --recency        the window's last year  derive-staff
    min_obs       --min-obs        10                      score
    out           --out            out                     every stage

A ``recency`` after the window's last year and a negative ``min_clusters``,
``min_age`` or ``min_obs`` are refused, naming the setting. The SC lookback
(``corpus.SC_LOOKBACK``, 19 years) and the observation-floor rule are
constants of the scoring method, not settings, and so are the pair-scoring
weights and the merge threshold that ``disambiguate`` clusters with
(``disambig``); ``disambiguate`` reads no input file by flag.
The file may also set the world generator's knobs; any other key is
ignored with a warning and left out of the manifest. A file value not of
its setting's or knob's type is refused as ``config key <key>: bad value
'<value>'``, and a knob outside the range ``synth.SynthConfig`` allows with
that class's own message (``n_researchers must be positive``), by every
stage; a stage then ignores, and leaves out of its manifest, each setting,
input file and knob it does not read (only ``synth`` reads the knobs).
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

A stage process executes only the package modules its stage uses: this
module imports ``corpus``, and each ``cmd_*`` function the other modules
it calls. It calls through the module object (``disambig.cluster_corpus``),
so that a wrapper set on a module attribute, as ``benchmarks/tracing.py``
sets, sees the call. ``ingest`` and ``report`` execute ``cli`` and
``corpus``; ``disambiguate`` adds ``disambig``, ``derive-staff`` also
``staff`` and ``score`` also ``fss``; ``compare`` executes ``cli``,
``corpus``, ``fss`` and ``compare``, and ``synth`` ``cli``, ``corpus`` and
``synth``. So the settings' defaults come from ``corpus``, and the world
knobs, which execute ``synth``, are read only for a config file that sets
a key other than a setting or an input file. On a small world, executing
every module took a stage process longer than most stages' own work.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import logging
import os
import sys
import typing
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from . import corpus as corpusmod

log = logging.getLogger(__name__)


class Setting(typing.NamedTuple):
    """A run setting: ``type`` casts a flag or config-file string; ``help``
    goes to the flag of each stage that reads it."""

    type: typing.Callable[[str], object]
    default: object
    help: str | None = None


#: Every run setting, in the order of the flags in ``--help``.
SETTINGS = {
    "seed": Setting(int, 42),
    "window": Setting(corpusmod.YearWindow.parse, corpusmod.YearWindow(2015, 2019),
                      "observation window, START:END"),
    "min_clusters": Setting(int, corpusmod.DEFAULT_MIN_CLUSTERS),
    "min_age": Setting(int, corpusmod.DEFAULT_MIN_AGE),
    "recency": Setting(int, None),                # None: the window's last year
    "min_obs": Setting(int, corpusmod.DEFAULT_MIN_OBS),
    "out": Setting(Path, Path("out"), "artifact directory (default: out)"),
}


@functools.cache
def _synth_knobs() -> dict[str, typing.Callable[[str], object]]:
    """World-generator knobs a config file may set, each with its type; the
    window and seed come from the settings above. Reading them executes
    ``synth``, so only a config file that sets some other key reads them."""
    from . import synth as synthmod

    return {name: hint for name, hint in typing.get_type_hints(synthmod.SynthConfig).items()
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
    paths: dict[str, Path | None]   # each input-file flag of the stage: its file, if given
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


def load_config_file(path: str | Path) -> dict[str, str]:
    return {key: value for _, key, value in corpusmod.read_key_values(path)}


def _cast(key: str, raw: str) -> object:
    """Config-file value ``raw`` of setting or world knob ``key``, cast to its type."""
    setting = SETTINGS.get(key)
    try:
        return setting.type(raw) if setting else _synth_knobs()[key](raw)
    except (ValueError, corpusmod.CorpusError) as exc:
        raise StageError(f"config key {key}: bad value {raw!r}") from exc


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
    """Each input-file flag of stage ``args.subcommand``: its flag, else its config key."""
    values = {key: getattr(args, key) or file_values.get(key)
              for key in STAGES[args.subcommand].flags if key not in SETTINGS}
    return {key: Path(value) if value else None for key, value in values.items()}


def resolve_config(args: argparse.Namespace, file_values: dict[str, str]) -> RunConfig:
    """The run's settings from its flags and the config file's ``file_values``."""
    for key in ("window_start", "window_end"):
        if key in file_values:
            raise StageError(f"config key {key} is not a setting; use window = START:END")
    extra = {}
    others = file_values.keys() - SETTINGS.keys() - set(_PATH_KEYS)
    if others:
        from . import synth as synthmod

        knobs = _synth_knobs()
        for key in sorted(others - knobs.keys()):
            log.warning("ignoring unknown config key %r", key)
        extra = {k: v for k, v in file_values.items() if k in knobs}
        # refused in every stage, not only synth: a bad type here, a value out
        # of range by the generator's own checks
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
    """Write stage ``subcommand``'s manifest. Its ``config`` holds ``out``, each
    setting and set input path the stage reads, and ``synth``'s world knobs."""
    config = {"out": str(cfg.out), **{key: str(path) for key, path in cfg.paths.items() if path}}
    for key in STAGES[subcommand].flags:
        if key in SETTINGS:
            config[key] = getattr(cfg, key)
    if "window" in config:
        config["window"] = f"{cfg.window.start}:{cfg.window.end}"
    if subcommand == "synth":
        config.update(cfg.extra)
    config_hash = corpusmod.sha256(
        "\n".join(f"{k}={config[k]}" for k in sorted(config)).encode()).hexdigest()
    manifest = {
        "subcommand": subcommand,
        "config": config,
        "config_hash": config_hash,
        "inputs": {flag: _sha256(path) for flag, path in cfg.paths.items() if path},
        "outputs": list(STAGES[subcommand].outputs),
    }
    (cfg.out / "run_manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _artifact(cfg: RunConfig, name: str) -> Path:
    """Artifact ``name`` in the output directory, or the file passed by the
    flag or config key named after it. A missing file set that way is named
    as set; a missing artifact names its producer in ``STAGES``."""
    flag = Path(name).stem
    given = cfg.paths.get(flag)
    path = given or cfg.out / name
    if not path.exists():
        if given:
            raise StageError(f"missing {given}, set as the {flag} file")
        producer = next(stage for stage, entry in STAGES.items() if name in entry.outputs)
        how = f"pass --{flag} or run" if flag in cfg.paths else "run"
        raise StageError(f"missing {name}; {how} `{producer}` first")
    return path


def cmd_synth(cfg: RunConfig) -> None:
    from . import synth as synthmod

    config = synthmod.SynthConfig(seed=cfg.seed, window=cfg.window,
                                  **{key: _cast(key, raw) for key, raw in cfg.extra.items()})
    files, truth = synthmod.generate(config, cfg.out)
    log.info("synthesized %d persons, %s", len(truth.persons), files["publications"])


def cmd_ingest(cfg: RunConfig) -> None:
    corpus = corpusmod.load_publications(_artifact(cfg, "publications.jsonl"), cfg.window)
    corpus.write_jsonl(cfg.out / "corpus.jsonl")
    log.info("ingested %d publications, %d mentions", len(corpus), corpus.mention_count())


def cmd_disambiguate(cfg: RunConfig) -> None:
    from . import disambig

    corpus = corpusmod.load_publications(_artifact(cfg, "corpus.jsonl"), cfg.window)
    clusters = disambig.cluster_corpus(corpus, disambig.DEFAULT_RULES)
    disambig.write_clusters_jsonl(clusters, cfg.out / "clusters.jsonl")
    log.info("clustered %d mentions into %d clusters",
             corpus.mention_count(), len(clusters))


def cmd_derive_staff(cfg: RunConfig) -> None:
    from . import disambig, staff as staffmod

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
    from . import disambig, fss, staff as staffmod

    corpus = corpusmod.load_publications(_artifact(cfg, "corpus.jsonl"), cfg.window)
    scheme = corpusmod.load_scheme(_artifact(cfg, "scheme.csv"))
    roster_path = _artifact(cfg, "roster.csv")
    roster = corpusmod.load_roster(roster_path, cfg.window)
    if not roster:
        raise StageError(f"{roster_path.name} lists no researcher")
    staff_path = _artifact(cfg, "staff.csv")
    derived = staffmod.load_staff_csv(
        staff_path, disambig.load_clusters_jsonl(_artifact(cfg, "clusters.jsonl")))
    if not derived.members:
        raise StageError(f"{staff_path.name} lists no staff unit")
    scored = fss.score_modes(corpus, roster, derived, scheme, cfg.seed,
                             min_obs=cfg.min_obs).values()
    researcher_rows = [s for scores, _ in scored for s in scores]
    university_rows = [u for _, universities in scored for u in universities]
    fss.write_researcher_scores_csv(researcher_rows, cfg.out / "scores_researchers.csv")
    fss.write_university_scores_csv(university_rows, cfg.out / "scores_universities.csv")
    log.info("scored %d researcher rows, %d university rows",
             len(researcher_rows), len(university_rows))


def cmd_compare(cfg: RunConfig) -> None:
    from . import compare as comparemod, fss

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
    for mode in (corpusmod.MODE_SUPERVISED, corpusmod.MODE_UNSUPERVISED):
        unranked = report[f"universities_only_{mode}"]
        if unranked:
            lines.append(f"scored {mode} only, not compared: {', '.join(unranked)}")
    corr = report["correlation"]
    if corr is not None:
        lines.append(f"correlation: pearson(scores)={_fmt(corr['pearson_scores'])} "
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
    (in the manifest's order), and each setting and input-file flag it reads
    besides ``--config`` and ``--out``: its flags, and its manifest's config."""

    run: typing.Callable[[RunConfig], None]
    outputs: tuple[str, ...]
    flags: tuple[str, ...] = ()


#: Every subcommand, in pipeline order. An artifact's producer is the stage
#: that lists it; a ``synth`` output may come from the flag named after it.
STAGES = {
    "synth": Stage(cmd_synth, ("publications.jsonl", "roster.csv", "registry.csv",
                               "scheme.csv", "ground_truth.csv"), ("seed", "window")),
    "ingest": Stage(cmd_ingest, ("corpus.jsonl",), ("window", "publications")),
    "disambiguate": Stage(cmd_disambiguate, ("clusters.jsonl",), ("window",)),
    # the window gives recency its default and its upper bound
    "derive-staff": Stage(cmd_derive_staff, ("staff.csv", "review_queue.csv"),
                          ("window", "min_clusters", "min_age", "recency", "registry")),
    "score": Stage(cmd_score, ("scores_researchers.csv", "scores_universities.csv"),
                   ("seed", "window", "min_obs", "roster", "scheme")),
    "compare": Stage(cmd_compare, ("report.json", "rank_table.csv", "quartile_matrix.csv",
                                   "distribution_stats.csv")),
    "report": Stage(cmd_report, ("report.txt",)),
}

#: Every input-file flag, each a config key: a flag of ``STAGES`` not in ``SETTINGS``.
_PATH_KEYS = tuple(key for stage in STAGES.values() for key in stage.flags
                   if key not in SETTINGS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fssbench",
        description="Supervised vs unsupervised research-organization scoring.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, stage in STAGES.items():
        p = sub.add_parser(name)
        p.add_argument("--config", help="key = value settings file")
        for key in ("out", *stage.flags):
            setting = SETTINGS.get(key)
            # a bad window is refused by resolve_config, in one line
            p.add_argument(f"--{key.replace('_', '-')}", dest=key,
                           type=int if setting and setting.type is int else None,
                           help=setting and setting.help)
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
