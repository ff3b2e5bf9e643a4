"""Spans around calls into the package's modules, recorded from outside.

A ``Tracer`` replaces public module attributes (``disambig.score_pair``,
``corpus.load_publications``, ...) with wrappers that record one span per
call: name, start, end, parent span and run id. Module-internal calls go
through the module's globals, so they are caught too. Spans live in
compact arrays in memory and are written out once, when the run ends.
No code under src/ is changed. Standard library only.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass
from pathlib import Path

#: module -> public attributes wrapped per layer. ``Corpus.write_jsonl``
#: is a method, wrapped on the class.
TRACED_CALLS = {
    "synth": ("generate",),
    "corpus": ("load_publications", "normalize_name", "normalize_org"),
    "disambig": ("block_mentions", "score_pair", "cluster_block", "summarize_cluster",
                 "cluster_corpus", "write_clusters_jsonl", "load_clusters_jsonl"),
    "staff": ("build_candidates", "derive_staff"),
    "fss": ("build_citation_cells", "subjects_from_roster", "subjects_from_staff",
            "score_subjects", "apply_exclusions", "compute_sc_baselines", "compute_fss_u",
            "write_researcher_scores_csv", "load_researcher_scores_csv",
            "load_university_scores_csv"),
    "compare": ("rank_universities", "comparison_report", "distribution_stats",
                "write_report_json", "write_rank_table_csv", "write_quartile_matrix_csv",
                "write_distribution_stats_csv"),
}

#: The values of ``staff.FLAG_*``, one per-layer count each. Fixed here so
#: that the metric names stay those BENCHMARK.json declares.
STAFF_FLAGS = ("below_age", "email_conflict", "email_org_conflict",
               "excluded_small_university", "incoherent_org", "non_university_email",
               "orcid_conflict", "stale")

NO_PARENT = -1


class Tracer:
    """Records spans for wrapped calls; ``restore`` undoes the wrapping."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.run = array("q")
        self.run_id = 0
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def count(self, key: str, n: int = 1, combine=int.__add__) -> None:
        self.counts[key] = combine(self.counts[key], n) if key in self.counts else n

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Replace ``owner.attr`` with a recording wrapper. ``on_result``
        gets (result, args) after the span closes, to record counts. A
        missing attribute is skipped: its metrics then read 0."""
        fn = getattr(owner, attr, None)
        if fn is None:
            return
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        stack, name_id, start, end = self._stack, self.name_id, self.start, self.end
        parent, run, clock = self.parent, self.run, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else NO_PARENT)
            run.append(self.run_id)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result, args)
            return result

        setattr(owner, attr, traced)
        self._restore.append((owner, attr, fn))

    def restore(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\trun\n")
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.name_id[i]]}\t{self.start[i]}\t"
                         f"{self.end[i]}\t{self.parent[i]}\t{self.run[i]}\n")

    def aggregate(self) -> dict[str, "CallStats"]:
        return aggregate(self.names, self.name_id, self.start, self.end, self.parent)


@dataclass
class CallStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    max_s: float = 0.0


def aggregate(names, name_id, start, end, parent) -> dict[str, CallStats]:
    """Per span name: calls, total, self and longest single duration.

    A span's self time is its duration minus the durations of its direct
    children. Spans on one thread nest without overlap, so the children
    cover exactly that much of the parent's interval.
    """
    child_ns = [0] * len(start)
    for i, p in enumerate(parent):
        if p != NO_PARENT:
            child_ns[p] += end[i] - start[i]
    stats = {name: CallStats() for name in names}
    for i in range(len(start)):
        s = stats[names[name_id[i]]]
        dur = end[i] - start[i]
        s.calls += 1
        s.total_s += dur / 1e9
        s.self_s += (dur - child_ns[i]) / 1e9
        s.max_s = max(s.max_s, dur / 1e9)
    return stats


def install(tracer: Tracer, modules: dict[str, object]) -> None:
    """Wrap every call in TRACED_CALLS and attach the result counters."""
    candidates: list = []

    def on_generate(result, args):
        files, truth = result
        with files["publications"].open("rb") as fh:
            tracer.count("synth.pubs", sum(1 for _ in fh))
        tracer.count("synth.persons", len(truth.persons))

    def on_load(result, args):
        tracer.count("corpus.records", len(result))
        tracer.count("corpus.mentions", result.mention_count())

    def on_blocks(result, args):
        tracer.count("disambig.blocks", len(result))
        tracer.count("disambig.block_max", max(map(len, result.values()), default=0), max)

    def on_cluster_block(result, args):
        tracer.count("disambig.merges", len(args[0]) - len(result))

    def on_cluster_corpus(result, args):
        tracer.count("disambig.clusters", len(result))

    def on_subjects(result, args):
        tracer.count("fss.subjects", len(result))

    def on_derive(result, args):
        tracer.count("staff.accepted", len(result.all_units()))
        tracer.count("staff.candidates", len(candidates))
        for flag in STAFF_FLAGS:
            tracer.count(f"staff.flag.{flag}",
                         sum(flag in cand.flags for cand in candidates))
        candidates.clear()

    hooks = {
        "synth.generate": on_generate,
        "corpus.load_publications": on_load,
        "disambig.block_mentions": on_blocks,
        "disambig.cluster_block": on_cluster_block,
        "disambig.cluster_corpus": on_cluster_corpus,
        "fss.subjects_from_roster": on_subjects,
        "fss.subjects_from_staff": on_subjects,
        "staff.build_candidates": lambda result, args: candidates.extend(result),
        "staff.derive_staff": on_derive,
    }
    for mod_name, attrs in TRACED_CALLS.items():
        for attr in attrs:
            name = f"{mod_name}.{attr}"
            tracer.wrap(modules[mod_name], attr, name, hooks.get(name))
    tracer.wrap(modules["corpus"].Corpus, "write_jsonl", "corpus.Corpus.write_jsonl")


def layer_metrics(stats: dict[str, CallStats], counts: dict[str, int]) -> dict[str, float]:
    """The per-layer metrics of the library layers, from spans and counts."""
    def total(*names):
        return sum(stats[n].total_s for n in names if n in stats)

    def calls(*names):
        return sum(stats[n].calls for n in names if n in stats)

    block = stats.get("disambig.cluster_block", CallStats())
    return {
        "synth.generate_s": total("synth.generate"),
        "synth.pubs": counts.get("synth.pubs", 0),
        "synth.persons": counts.get("synth.persons", 0),
        "corpus.load_s": total("corpus.load_publications"),
        "corpus.load_calls": calls("corpus.load_publications"),
        "corpus.records": counts.get("corpus.records", 0),
        "corpus.mentions": counts.get("corpus.mentions", 0),
        "corpus.normalize_calls": calls("corpus.normalize_name", "corpus.normalize_org"),
        "corpus.normalize_s": total("corpus.normalize_name", "corpus.normalize_org"),
        "corpus.write_s": total("corpus.Corpus.write_jsonl"),
        "disambig.block_s": total("disambig.block_mentions"),
        "disambig.blocks": counts.get("disambig.blocks", 0),
        "disambig.block_max": counts.get("disambig.block_max", 0),
        "disambig.pairs": calls("disambig.score_pair"),
        "disambig.score_pair_s": total("disambig.score_pair"),
        "disambig.cluster_block_s": block.total_s,
        "disambig.cluster_block_max_s": block.max_s,
        # self time of cluster_block: its children are score_pair and
        # summarize_cluster, so what remains is the agglomeration loop
        "disambig.agglomerate_s": block.self_s,
        "disambig.summarize_s": total("disambig.summarize_cluster"),
        "disambig.merges": counts.get("disambig.merges", 0),
        "disambig.clusters": counts.get("disambig.clusters", 0),
        "disambig.clusters_io_s": total("disambig.write_clusters_jsonl",
                                        "disambig.load_clusters_jsonl"),
        "staff.derive_s": total("staff.derive_staff"),
        "staff.candidates": counts.get("staff.candidates", 0),
        "staff.accepted": counts.get("staff.accepted", 0),
        **{f"staff.flag.{f}": counts.get(f"staff.flag.{f}", 0) for f in STAFF_FLAGS},
        "fss.cells_s": total("fss.build_citation_cells"),
        "fss.subjects": counts.get("fss.subjects", 0),
        "fss.score_subjects_s": total("fss.score_subjects"),
        "fss.exclusions_s": total("fss.apply_exclusions"),
        "fss.fss_u_s": total("fss.compute_sc_baselines", "fss.compute_fss_u"),
        "fss.scores_io_s": total("fss.write_researcher_scores_csv",
                                 "fss.load_researcher_scores_csv",
                                 "fss.load_university_scores_csv"),
        "compare.rank_s": total("compare.rank_universities"),
        "compare.report_s": total("compare.comparison_report", "compare.write_report_json",
                                  "compare.write_rank_table_csv",
                                  "compare.write_quartile_matrix_csv",
                                  "compare.write_distribution_stats_csv"),
        "compare.stats_s": total("compare.distribution_stats"),
    }
