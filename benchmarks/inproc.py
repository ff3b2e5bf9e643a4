"""Child-process side of the benchmark: the parts that import fssbench.

run.py starts this script with PYTHONPATH set to the checkout's src, so
each checkout measures its own code, and keeps its own process free of
the package so that it does not inflate the peak RSS its children report.
Every command writes one JSON object to --result:

    sweep-setup  generate the sweep's worlds (--repeats times), timing generate()
    sweep        the sweep's timed loop over generated worlds, then its checks
    pipeline     the CLI stages in-process through fssbench.cli.run_pipeline
    check        the correctness gate of one CLI run directory

--trace wraps the package's public calls (see tracing.py) and adds the
per-layer metrics; the spans go to spans.tsv next to the result.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import pickle
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from fssbench import cli, compare, corpus, disambig, fss, staff, synth

import hostspeed
import quality
import tracing
import worlds

MODULES = {"synth": synth, "corpus": corpus, "disambig": disambig, "staff": staff,
           "fss": fss, "compare": compare}
ORACLE_TOLERANCE = 1e-9


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def world_config(wl: worlds.Workload, seed: int) -> synth.SynthConfig:
    return synth.SynthConfig(seed=seed, **wl.world)


def generate_worlds(wl: worlds.Workload, seed: int, root: Path,
                    clock: hostspeed.Clock | None = None) -> float:
    """Write the sweep's worlds under root; returns seconds in generate(),
    scaled world by world by ``clock`` if given."""
    seconds = 0.0
    for i in range(wl.sweep_worlds):
        t0 = time.perf_counter()
        _, truth = synth.generate(world_config(wl, seed + i), root / f"world{i}")
        wall = time.perf_counter() - t0
        seconds += clock.scale(wall) if clock else wall
        with (root / f"world{i}" / "truth.pickle").open("wb") as fh:
            pickle.dump(truth, fh)
    return seconds


def sweep_world(wl: worlds.Workload, seed: int, world: Path, window: corpus.YearWindow):
    """The README library path for both modes, then ranking and report."""
    pubs = corpus.load_publications(world / "publications.jsonl", window)
    cells = fss.build_citation_cells(pubs)
    roster = corpus.load_roster(world / "roster.csv", window)
    supervised = fss.score_subjects(fss.subjects_from_roster(roster, pubs), pubs, cells, seed)
    clusters = disambig.cluster_corpus(pubs, disambig.DEFAULT_RULES)
    derived = staff.derive_staff(clusters, corpus.load_registry(world / "registry.csv"),
                                 min_clusters=wl.min_clusters, recency_year=worlds.RECENCY)
    unsupervised = fss.score_subjects(fss.subjects_from_staff(derived, pubs), pubs, cells, seed)
    sup_u = fss.compute_fss_u(supervised, fss.compute_sc_baselines(supervised))
    uns_u = fss.compute_fss_u(unsupervised, fss.compute_sc_baselines(unsupervised))
    table = compare.rank_universities(sup_u, uns_u)
    report = compare.comparison_report(table, supervised_researchers=supervised,
                                       unsupervised_researchers=unsupervised)
    return pubs, clusters, supervised, sup_u, table, report


def check_world(world: Path, seed: int, result) -> tuple[list[str], float, float, float]:
    """Oracle agreement of the supervised scores, university coverage and
    clustering quality of one sweep world. Returns (problems, pairwise F1
    by fssbench, pairwise F1 by the benchmark, B-cubed F1)."""
    pubs, clusters, supervised, sup_u, table, report = result
    with (world / "truth.pickle").open("rb") as fh:
        truth = pickle.load(fh)
    problems = []
    oracle_r, oracle_u = synth.oracle_scores(truth, pubs, fss.MODE_SUPERVISED, seed)
    got_r = {s.subject_id: s.fss_r for s in supervised}
    got_u = {u.university_id: u.fss_u for u in sup_u}
    if got_r.keys() != oracle_r.keys() or got_u.keys() != oracle_u.keys():
        problems.append(f"{world.name}: scored subjects or universities differ from the oracle")
    else:
        worst = max([abs(got_r[k] - v) for k, v in oracle_r.items()]
                    + [abs(got_u[k] - v) for k, v in oracle_u.items()])
        if worst > ORACLE_TOLERANCE:
            problems.append(f"{world.name}: scores differ from the oracle by {worst:.3g}")
    generated = university_ids(world / "registry.csv")
    ranked = {r.university_id for r in table.rows}
    if ranked != generated or report["n_universities"] != len(generated):
        problems.append(f"{world.name}: report does not list every generated university")
    predicted = [[f"{p}:{i}" for p, i in c.mention_refs] for c in clusters]
    truth_groups = quality.truth_partition(world / "ground_truth.csv",
                                           {ref for g in predicted for ref in g})
    return (problems, disambig.pairwise_metrics(predicted, truth_groups)[2],
            quality.pairwise_scores(predicted, truth_groups)[2],
            quality.bcubed_scores(predicted, truth_groups)[2])


def university_ids(path: Path) -> set[str]:
    """The university_id column of registry.csv or rank_table.csv."""
    with path.open(encoding="utf-8", newline="") as fh:
        return {row["university_id"] for row in csv.DictReader(fh)}


def cmd_sweep_setup(args, wl, tracer) -> dict:
    clock = hostspeed.Clock()
    samples = [generate_worlds(wl, args.seed, args.dir / f"setup{k}", clock)
               for k in range(args.repeats)]
    return {"setup_s": samples, "factors": clock.factors}


def cmd_sweep(args, wl, tracer) -> dict:
    root = args.dir
    if args.generate:
        generate_worlds(wl, args.seed, root)
    window = world_config(wl, args.seed).window
    world_s, scaled_s, problems, f1, own_f1, bcubed = [], [], [], [], [], []
    failed = 0
    clock = hostspeed.Clock()
    for i in range(wl.sweep_worlds):
        world, seed = root / f"world{i}", args.seed + i
        if tracer:
            tracer.run_id = i
        t0 = time.perf_counter()
        try:
            result = sweep_world(wl, seed, world, window)
        except Exception:   # a failing world is counted, the sweep goes on
            world_s.append(time.perf_counter() - t0)
            scaled_s.append(clock.scale(world_s[-1]))
            failed += 1
            problems.append(f"world{i}: {traceback.format_exc(limit=3)}")
            continue
        world_s.append(time.perf_counter() - t0)
        scaled_s.append(clock.scale(world_s[-1]))
        # outside the timed region; calls nothing the tracer wraps
        world_problems, *scores = check_world(world, seed, result)
        failed += bool(world_problems)
        problems += world_problems
        for acc, value in zip((f1, own_f1, bcubed), scores):
            acc.append(value)
    return {"pipeline_s": sum(world_s), "world_s": world_s, "scaled_s": scaled_s,
            "factors": clock.factors, "peak_rss_mb": peak_rss_mb(),
            "attempted": wl.sweep_worlds, "failed": failed, "problems": problems,
            "cluster_f1": statistics.fmean(f1) if f1 else 0.0,
            "own_pairwise_f1": statistics.fmean(own_f1) if own_f1 else 0.0,
            "bcubed_f1": statistics.fmean(bcubed) if bcubed else 0.0}


def cmd_pipeline(args, wl, tracer) -> dict:
    root = args.dir
    root.mkdir(parents=True, exist_ok=True)
    os.chdir(root)
    Path("world.cfg").write_text(worlds.config_text(wl), encoding="utf-8")
    codes = {"synth": cli.run_pipeline(worlds.stage_argv(wl, "synth", args.seed))}
    if wl.block_size:
        worlds.trim_block(Path("run"), wl.block_size)
    seconds = 0.0
    for i, stage in enumerate(worlds.STAGES, start=1):
        if tracer:
            tracer.run_id = i
        t0 = time.perf_counter()
        codes[stage] = cli.run_pipeline(worlds.stage_argv(wl, stage, args.seed))
        seconds += time.perf_counter() - t0
    return {"pipeline_s": seconds, "codes": codes, "run_dir": str(root / "run")}


def cmd_check(args, wl, tracer) -> dict:
    run = args.run_dir
    problems = []
    for stage in ("synth", *worlds.STAGES):
        for name in worlds.STAGE_OUTPUTS[stage]:
            if not (run / name).is_file():
                problems.append(f"{stage} did not write {name}")
    if problems:
        return {"problems": problems}
    generated = university_ids(run / "registry.csv")
    report = json.loads((run / "report.json").read_text(encoding="utf-8"))
    ranked = university_ids(run / "rank_table.csv")
    if report.get("n_universities") != len(generated) or ranked != generated:
        problems.append(f"report covers {sorted(ranked)}, generated {sorted(generated)}")
    predicted = quality.clusters_partition(run / "clusters.jsonl")
    truth = quality.truth_partition(run / "ground_truth.csv",
                                    {ref for g in predicted for ref in g})
    return {"problems": problems,
            "cluster_f1": disambig.pairwise_metrics(predicted, truth)[2],
            "own_pairwise_f1": quality.pairwise_scores(predicted, truth)[2],
            "bcubed_f1": quality.bcubed_scores(predicted, truth)[2]}


COMMANDS = {"sweep-setup": cmd_sweep_setup, "sweep": cmd_sweep,
            "pipeline": cmd_pipeline, "check": cmd_check}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--workload", required=True, choices=sorted(worlds.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--run-dir", type=Path, help="check: the run directory to check")
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--generate", action="store_true",
                        help="sweep: generate the worlds first, in this process")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    args.dir = args.dir.resolve()
    result_path = args.result.resolve()
    wl = worlds.WORKLOADS[args.workload]
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracing.install(tracer, MODULES)
    result = COMMANDS[args.command](args, wl, tracer)
    if tracer:
        tracer.restore()
        tracer.write(result_path.with_name("spans.tsv"))
        result["layers"] = tracing.layer_metrics(tracer.aggregate(), tracer.counts)
    result_path.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
