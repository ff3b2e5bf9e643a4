#!/usr/bin/env python3
"""fssbench benchmark: one workload and one seed in, one line of JSON out.

    python3 benchmarks/run.py --workload homonym-block --seed 3 --seconds 40 --trace 0

Workloads (see worlds.py and README.md): ``wide-m`` and ``homonym-block``
run the README command-line flow, one ``python -m fssbench`` process per
stage; ``seed-sweep-s`` runs the README library path over ten worlds in one
process. Set-up builds the inputs ``SETUP_REPEATS`` times and reports the
median; the timed region then repeats, at least ``MIN_PASSES`` times and
then while another repetition fits in ``--seconds``. ``pipeline_s`` adds up
the median time of each stage (CLI) or world (sweep) over the repetitions.
Every reported time is scaled to a nominal host speed by timings of a
reference loop around each timed unit (see hostspeed.py); the text part
of the output gives the unscaled figures and the scale factors.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes a separate
traced run and prints the per-layer metrics. Outputs are checked outside
the timed region; any failure is counted, printed to stderr, and makes the
command exit 1. Without the package source next to this directory it exits
2 and prints no result.

This process imports only the standard library: a child's peak RSS counts
the memory of the process that spawned it, so holding numpy and the
package here would inflate every stage's figure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import hostspeed
import worlds

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "work"
DIGESTS = WORK / "digests.json"
ENV = {**os.environ, "PYTHONPATH": str(SRC)}
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
MIN_PASSES = 3

UNITS = {"setup_s": "s", "pipeline_s": "s", "peak_rss_mb": "MB",
         "cluster_f1": "ratio", "bcubed_f1": "ratio"}
SUFFIX_UNITS = (("_s", "s"), ("_mb", "MB"), ("_bytes", "bytes"), ("_pct", "%"))


@dataclass
class Outcome:
    """Operations attempted and failed, with a reason for each failure."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, ok: bool, problem: str) -> bool:
        self.attempted += 1
        if not ok:
            self.fail(problem)
        return ok

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


@dataclass
class Proc:
    code: int
    wall_s: float
    rss_mb: float
    cpu_s: float


def run_proc(argv: list[str], cwd: Path, log: Path) -> Proc:
    """Run one child to completion; its rusage comes from wait4."""
    t0 = time.perf_counter()
    with log.open("wb") as out:
        proc = subprocess.Popen(argv, cwd=cwd, env=ENV, stdout=out, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, wall, usage.ru_maxrss / 1024,
                usage.ru_utime + usage.ru_stime)


def fssbench(wl: worlds.Workload, stage: str, seed: int, cwd: Path) -> Proc:
    argv = [sys.executable, "-m", "fssbench", *worlds.stage_argv(wl, stage, seed)]
    return run_proc(argv, cwd, cwd / f"{stage}.log")


def inproc(command: str, wl: worlds.Workload, seed: int, directory: Path,
           outcome: Outcome, *extra: str) -> dict:
    """Run one inproc.py command; a crash is a failure and returns {}."""
    directory.mkdir(parents=True, exist_ok=True)
    result = directory / f"{command}.json"
    argv = [sys.executable, str(BENCH / "inproc.py"), command, "--workload", wl.name,
            "--seed", str(seed), "--dir", str(directory), "--result", str(result), *extra]
    proc = run_proc(argv, directory, directory / f"{command}.log")
    if not outcome.record(proc.code == 0 and result.is_file(),
                          f"inproc {command} exited {proc.code}; see {directory / command}.log"):
        return {}
    return json.loads(result.read_text(encoding="utf-8"))


def fresh(directory: Path, wl: worlds.Workload) -> None:
    """An empty working directory holding the world's config file."""
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    (directory / "world.cfg").write_text(worlds.config_text(wl), encoding="utf-8")


def digests(run_dir: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(run_dir.iterdir()) if p.is_file()}


def code_digest() -> str:
    """Digest of the package source and this benchmark's code: artifacts of
    the same code and seed must be byte-identical from run to run."""
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *SRC.rglob("*.csv"), *BENCH.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class DigestLog:
    """Artifact digests per (workload, seed, code), kept across runs in WORK."""

    def __init__(self, wl: worlds.Workload, seed: int, outcome: Outcome):
        self.key = f"{wl.name}:{seed}:{code_digest()}"
        self.outcome = outcome
        self.known = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}

    def check(self, run_dir: Path, what: str) -> None:
        got = digests(run_dir)
        expected = self.known.setdefault(self.key, got)
        changed = sorted(n for n in expected.keys() | got.keys()
                         if expected.get(n) != got.get(n))
        self.outcome.record(not changed, f"{what}: artifacts differ from an earlier run "
                                         f"of the same code and seed: {changed}")
        DIGESTS.write_text(json.dumps(self.known, indent=1, sort_keys=True))


@dataclass
class Pass:
    """One run of the timed CLI stages, with each stage's scaled time."""

    stages: dict[str, Proc]
    scaled: dict[str, float]

    @property
    def wall_s(self) -> float:
        return sum(p.wall_s for p in self.stages.values())

    @property
    def rss_mb(self) -> float:
        return max(p.rss_mb for p in self.stages.values())


def median_sum(samples: list[list[float]]) -> float:
    """Sum over units of each unit's median time; ``samples`` holds one
    list of unit times per repetition."""
    return sum(statistics.median(unit) for unit in zip(*samples))


def clear_outputs(run_dir: Path) -> None:
    """Remove everything but synth's inputs, so that each pass starts from
    what set-up left and must write all of its artifacts again."""
    for path in run_dir.iterdir():
        if path.name in worlds.STAGE_OUTPUTS["synth"]:
            continue
        if path.is_dir():
            shutil.rmtree(path)
        else:
            path.unlink()


def setup_cli(wl: worlds.Workload, seed: int, directory: Path, outcome: Outcome,
              clock: hostspeed.Clock | None = None) -> float | None:
    """`fssbench synth` (plus the block cut); seconds, scaled by ``clock``
    if given, or None on failure."""
    fresh(directory, wl)
    t0 = time.perf_counter()
    proc = fssbench(wl, "synth", seed, directory)
    if not outcome.record(proc.code == 0, f"synth exited {proc.code} in {directory}"):
        return None
    if wl.block_size:
        worlds.trim_block(directory / "run", wl.block_size)
    seconds = time.perf_counter() - t0
    return clock.scale(seconds) if clock else seconds


def run_stages(wl: worlds.Workload, seed: int, directory: Path, outcome: Outcome,
               clock: hostspeed.Clock | None = None) -> Pass | None:
    """The timed stages, one process each; None once one fails."""
    stages, scaled = {}, {}
    for stage in worlds.STAGES:
        stages[stage] = proc = fssbench(wl, stage, seed, directory)
        if not outcome.record(proc.code == 0, f"{stage} exited {proc.code}; "
                                              f"see {directory / stage}.log"):
            return None
        scaled[stage] = clock.scale(proc.wall_s) if clock else proc.wall_s
    return Pass(stages, scaled)


def check_cli(wl: worlds.Workload, seed: int, run_dir: Path, outcome: Outcome) -> dict:
    """The correctness gate of one CLI run directory, in a child process."""
    result = inproc("check", wl, seed, run_dir.parent / "check", outcome,
                    "--run-dir", str(run_dir))
    for problem in result.get("problems", []):
        outcome.fail(problem)
    if "cluster_f1" in result:
        check_pairwise(result, outcome)
    return result


def check_pairwise(result: dict, outcome: Outcome) -> None:
    """fssbench.pairwise_metrics must agree with the contingency count."""
    if abs(result["cluster_f1"] - result["own_pairwise_f1"]) > 1e-12:
        outcome.fail(f"fssbench.pairwise_metrics F1 {result['cluster_f1']!r} differs from "
                     f"the benchmark's contingency count {result['own_pairwise_f1']!r}")


def fits(started: float, last: float, seconds: float) -> bool:
    """Whether another repetition of ``last`` seconds fits in the budget."""
    return time.perf_counter() - started + last <= seconds


def end_to_end_cli(wl: worlds.Workload, seed: int, seconds: float, outcome: Outcome) -> dict:
    base = WORK / wl.name
    shutil.rmtree(base, ignore_errors=True)
    log = DigestLog(wl, seed, outcome)
    clock = hostspeed.Clock()
    setup = [setup_cli(wl, seed, base / f"setup{k}", outcome, clock)
             for k in range(SETUP_REPEATS)]
    if None in setup:
        return {}
    first = digests(base / "setup0" / "run")
    for k in range(1, SETUP_REPEATS):
        outcome.record(digests(base / f"setup{k}" / "run") == first,
                       f"synth output of set-up {k} differs from set-up 0")
    work = base / "setup0"
    passes: list[Pass] = []
    started = time.perf_counter()
    while len(passes) < MIN_PASSES or fits(started, passes[-1].wall_s, seconds):
        clear_outputs(work / "run")
        done = run_stages(wl, seed, work, outcome, clock)
        if done is None:
            return {}
        passes.append(done)
        log.check(work / "run", f"pass {len(passes)}")
    quality = check_cli(wl, seed, work / "run", outcome)
    report_speed(clock.factors, [[p.wall_s for p in d.stages.values()] for d in passes])
    return {"setup_s": statistics.median(setup),
            "pipeline_s": median_sum([list(p.scaled.values()) for p in passes]),
            "peak_rss_mb": statistics.median(p.rss_mb for p in passes),
            "cluster_f1": quality.get("cluster_f1", 0.0),
            "bcubed_f1": quality.get("bcubed_f1", 0.0)}


def end_to_end_sweep(wl: worlds.Workload, seed: int, seconds: float, outcome: Outcome) -> dict:
    base = WORK / wl.name
    shutil.rmtree(base, ignore_errors=True)
    setup = inproc("sweep-setup", wl, seed, base, outcome, "--repeats", str(SETUP_REPEATS))
    if not setup:
        return {}
    runs: list[dict] = []
    started = last = time.perf_counter()
    while len(runs) < MIN_PASSES or fits(started, last, seconds):
        t0 = time.perf_counter()
        result = inproc("sweep", wl, seed, base / "setup0", outcome)
        if not result:
            return {}
        last = time.perf_counter() - t0
        absorb_sweep(result, outcome)
        runs.append(result)
    report_speed(setup["factors"] + [f for r in runs for f in r["factors"]],
                 [r["world_s"] for r in runs])
    return {"setup_s": statistics.median(setup["setup_s"]),
            "pipeline_s": median_sum([r["scaled_s"] for r in runs]),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
            "cluster_f1": runs[0]["cluster_f1"],
            "bcubed_f1": runs[0]["bcubed_f1"]}


def report_speed(factors: list[float], walls: list[list[float]]) -> None:
    """The unscaled times of the timed region and the scale factors."""
    print(f"unscaled: pipeline_s {median_sum(walls):.3f} s; repetitions "
          + " ".join(f"{sum(w):.3f}" for w in walls) + " s")
    print(f"host speed scale: median {statistics.median(factors):.3f}, "
          f"{min(factors):.3f} to {max(factors):.3f} over {len(factors)} units")


def cli_layer(wl: worlds.Workload, seed: int, outcome: Outcome) -> dict:
    """The cli layer: import cost and one untraced process per stage."""
    base = WORK / wl.name / "cli"
    fresh(base, wl)
    imports = [run_proc([sys.executable, "-c", "import fssbench.cli"], base, base / "import.log")
               for _ in range(IMPORT_REPEATS)]
    for p in imports:
        outcome.record(p.code == 0, f"importing fssbench.cli exited {p.code}")
    metrics = {"cli.import_s": statistics.median(p.wall_s for p in imports)}
    if setup_cli(wl, seed, base, outcome) is None:
        return metrics
    done = run_stages(wl, seed, base, outcome)
    if done is None:
        return metrics
    DigestLog(wl, seed, outcome).check(base / "run", "traced run's stage processes")
    check_cli(wl, seed, base / "run", outcome)
    for stage, proc in done.stages.items():
        key = stage.replace("-", "_")
        metrics[f"cli.{key}_s"] = proc.wall_s
        metrics[f"cli.{key}_rss_mb"] = proc.rss_mb
    metrics["cli.cpu_s"] = sum(p.cpu_s for p in done.stages.values())
    synth_files = set(worlds.STAGE_OUTPUTS["synth"])
    metrics["cli.artifact_bytes"] = sum(p.stat().st_size for p in (base / "run").iterdir()
                                        if p.name not in synth_files)
    return metrics


def per_layer(wl: worlds.Workload, seed: int, outcome: Outcome) -> dict:
    """Traced run: the cli layer from untraced processes, the library
    layers from an in-process run with tracing, and the tracing overhead
    against the same in-process run without it."""
    shutil.rmtree(WORK / wl.name, ignore_errors=True)
    metrics = cli_layer(wl, seed, outcome)
    command, extra = ("pipeline", ()) if wl.is_cli else ("sweep", ("--generate",))
    plain = inproc(command, wl, seed, WORK / wl.name / "plain", outcome, *extra)
    traced = inproc(command, wl, seed, WORK / wl.name / "traced", outcome, *extra, "--trace")
    for result in (plain, traced):
        check_inproc(wl, seed, result, outcome)
    if not (plain and traced):
        return metrics
    metrics.update(traced["layers"])
    metrics["trace.overhead_pct"] = 100 * (traced["pipeline_s"] / plain["pipeline_s"] - 1)
    return metrics


def check_inproc(wl: worlds.Workload, seed: int, result: dict, outcome: Outcome) -> None:
    """Gate of an in-process run: every stage or world must succeed, and the
    artifacts of the CLI workloads must match the stage processes' ones."""
    if not result:
        return
    if wl.is_cli:
        for stage, code in result["codes"].items():
            outcome.record(code == 0, f"in-process {stage} exited {code}")
        run_dir = Path(result["run_dir"])
        expected = digests(WORK / wl.name / "cli" / "run")
        outcome.record(digests(run_dir) == expected,
                       f"in-process artifacts in {run_dir} differ from the stage processes'")
    else:
        absorb_sweep(result, outcome)


def absorb_sweep(result: dict, outcome: Outcome) -> None:
    """Count a sweep child's worlds in place of the child process itself."""
    outcome.attempted += result["attempted"] - 1
    outcome.failed += result["failed"]
    outcome.problems += result["problems"]
    check_pairwise(result, outcome)


def unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return next((u for suffix, u in SUFFIX_UNITS if name.endswith(suffix)), "count")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(worlds.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "fssbench" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'fssbench'}", file=sys.stderr)
        return 2
    wl = worlds.WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    outcome = Outcome()
    if args.trace:
        metrics = per_layer(wl, args.seed, outcome)
    elif wl.is_cli:
        metrics = end_to_end_cli(wl, args.seed, args.seconds, outcome)
    else:
        metrics = end_to_end_sweep(wl, args.seed, args.seconds, outcome)
    for problem in outcome.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name}: {value} {unit(name)}")
    attempted = max(outcome.attempted, 1)
    print(f"failed_ratio: {outcome.failed / attempted} ({outcome.failed}/{attempted})")
    print(json.dumps({"correct": outcome.failed == 0, "attempted": attempted,
                      "failed": outcome.failed,
                      "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()}}))
    return 0 if outcome.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
