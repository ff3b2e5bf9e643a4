"""The benchmark's workloads: world configurations, stage flags, input trimming.

Standard library only, so run.py (which must stay small, see its
docstring) and the child processes that import fssbench can both use it.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

#: Pipeline stages inside the timed region of the CLI workloads, in order.
STAGES = ("ingest", "disambiguate", "derive-staff", "score", "compare", "report")

#: Files each stage must leave in the run directory.
STAGE_OUTPUTS = {
    "synth": ("publications.jsonl", "roster.csv", "registry.csv", "scheme.csv",
              "ground_truth.csv"),
    "ingest": ("corpus.jsonl",),
    "disambiguate": ("clusters.jsonl",),
    "derive-staff": ("staff.csv", "review_queue.csv"),
    "score": ("scores_researchers.csv", "scores_universities.csv"),
    "compare": ("report.json", "rank_table.csv", "quartile_matrix.csv",
                "distribution_stats.csv"),
    "report": ("report.txt",),
}

# What the default loader keeps (fssbench.corpus.DEFAULT_DOC_FILTER, the core
# collection, and window 2015:2019 plus the 19-year SC lookback). Only used to
# count the mentions of the homonym block that ingest will actually load.
_LOADED_DOC_TYPES = frozenset({"article", "review", "letter", "proceedings"})
_LOADED_YEARS = range(2001, 2020)

# The default recency of 2020 flags every cluster `stale` for the default
# 2015:2019 window, which leaves staff.csv empty and makes `compare` fail
# (a known defect tracked in the ROADMAP); tests and demos pass 2019 too.
RECENCY = 2019


@dataclass(frozen=True)
class Workload:
    name: str
    world: dict[str, float]                 # SynthConfig knobs
    min_clusters: int | None = None         # derive-staff override of the default 30
    block_size: int | None = None           # homonym block cut to this many mentions
    sweep_worlds: int = 0                   # > 0: in-process sweep over this many seeds

    @property
    def is_cli(self) -> bool:
        return self.sweep_worlds == 0


WORKLOADS = {
    # Many small blocks: time goes to process start-up and import, three
    # corpus loads and pair scoring; agglomeration is a small share.
    "wide-m": Workload(
        name="wide-m",
        world={"n_universities": 10, "n_researchers": 500, "n_scs": 8,
               "non_faculty_share": 0.25, "orcid_missing_rate": 0.5,
               "email_missing_rate": 0.5, "initials_only_rate": 0.4},
    ),
    # Every faculty mention shares one surname and initial, so they form a
    # single block and `disambiguate` is dominated by agglomeration, which
    # grows as about n^2.7. Untrimmed, the block holds 341 to 566 mentions
    # over seeds 1..10, which would swing the pipeline time by a factor of
    # four from seed to seed; the world is therefore generated larger and
    # cut to a fixed block size (see trim_block).
    "homonym-block": Workload(
        name="homonym-block",
        world={"n_universities": 4, "n_researchers": 80, "n_scs": 4,
               "homonym_rate": 1.0, "orcid_missing_rate": 0.5,
               "email_missing_rate": 0.5},
        min_clusters=1,
        block_size=530,
    ),
    # Ten contamination worlds run through the library in one process: no
    # per-stage import and no artifact I/O, the shape of the acceptance
    # suite's contamination check and of the demos.
    "seed-sweep-s": Workload(
        name="seed-sweep-s",
        world={"n_universities": 8, "n_researchers": 120, "n_scs": 6,
               "non_faculty_share": 0.35,
               "non_faculty_productivity_multiplier": 0.5,
               "orcid_missing_rate": 0.3, "email_missing_rate": 0.3,
               "initials_only_rate": 0.4},
        min_clusters=1,
        sweep_worlds=10,
    ),
}


def config_text(workload: Workload) -> str:
    """The world as a ``key = value`` file for ``fssbench synth --config``."""
    return "".join(f"{k} = {v}\n" for k, v in workload.world.items())


def stage_argv(workload: Workload, stage: str, seed: int, out: str = "run") -> list[str]:
    """Arguments of one ``fssbench`` stage, as a user would type them."""
    argv = [stage, "--out", out]
    if stage == "synth":
        argv += ["--config", "world.cfg", "--seed", str(seed)]
    elif stage == "derive-staff":
        argv += ["--recency", str(RECENCY)]
        if workload.min_clusters is not None:
            argv += ["--min-clusters", str(workload.min_clusters)]
    return argv


def trim_block(run_dir: Path, size: int) -> int:
    """Cut publications.jsonl so the faculty mentions that ingest loads
    number ``size``, or all of them in a smaller world.

    Publications are kept in file order while their loadable faculty
    mentions fit in the block; one that would overflow it is dropped.
    Publications without such a mention are all kept. Returns the block
    size reached. At 80 faculty, seeds 0 to 39
    give 690 to 1,210 loadable faculty mentions before the cut.
    """
    faculty: set[str] = set()
    with (run_dir / "ground_truth.csv").open(encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            if row["kind"] == "faculty" and row["mention_refs"]:
                faculty.update(row["mention_refs"].split(";"))
    path = run_dir / "publications.jsonl"
    kept, count = [], 0
    for line in path.read_text(encoding="utf-8").splitlines():
        rec = json.loads(line)
        loaded = (rec["doc_type"] in _LOADED_DOC_TYPES and rec["source_index"] == "core"
                  and rec["year"] in _LOADED_YEARS)
        hits = sum(f"{rec['pub_id']}:{i}" in faculty for i in range(len(rec["mentions"])))
        if loaded and hits:
            if count + hits > size:
                continue
            count += hits
        kept.append(line)
    path.write_text("\n".join(kept) + "\n", encoding="utf-8")
    return count
