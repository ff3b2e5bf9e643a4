"""Tests of the benchmark's own helpers: quality scores, span arithmetic,
the tracer and the homonym block cut.

    python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import csv
import json
import random
import sys
import types
from pathlib import Path

import pytest

import quality
import tracing
import worlds

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def test_worked_example():
    truth = [["a", "b", "c"], ["d", "e"]]
    predicted = [["a", "b"], ["c", "d", "e"]]
    # true pairs ab ac bc de, predicted pairs ab cd ce de: two shared
    assert quality.pairwise_scores(predicted, truth) == (0.5, 0.5, 0.5)
    # per mention (precision, recall): a, b (1, 2/3); c (1/3, 1/3); d, e (2/3, 1)
    p, r, f = quality.bcubed_scores(predicted, truth)
    assert p == pytest.approx(11 / 15) and r == pytest.approx(11 / 15)
    assert f == pytest.approx(11 / 15)


def test_identical_partitions_score_one():
    groups = [["a", "b"], ["c"], ["d", "e", "f"]]
    assert quality.pairwise_scores(groups, groups) == (1.0, 1.0, 1.0)
    assert quality.bcubed_scores(groups, groups) == (1.0, 1.0, 1.0)


def test_singletons_only():
    singletons = [["a"], ["b"], ["c"], ["d"]]
    one = [["a", "b", "c", "d"]]
    assert quality.pairwise_scores(singletons, singletons) == (1.0, 1.0, 1.0)
    assert quality.bcubed_scores(singletons, singletons) == (1.0, 1.0, 1.0)
    # no predicted pairs: precision 1 by convention, no true pair found
    assert quality.pairwise_scores(singletons, one) == (1.0, 0.0, 0.0)
    p, r, f = quality.bcubed_scores(singletons, one)
    assert (p, r) == (1.0, 0.25) and f == pytest.approx(2 / 5)


def test_one_cluster():
    one = [["a", "b", "c", "d"]]
    singletons = [["a"], ["b"], ["c"], ["d"]]
    assert quality.pairwise_scores(one, one) == (1.0, 1.0, 1.0)
    assert quality.pairwise_scores(one, singletons) == (0.0, 1.0, 0.0)
    p, r, f = quality.bcubed_scores(one, singletons)
    assert (p, r) == (0.25, 1.0) and f == pytest.approx(2 / 5)


def test_empty_partitions():
    assert quality.pairwise_scores([], []) == (1.0, 1.0, 1.0)
    assert quality.bcubed_scores([], []) == (1.0, 1.0, 1.0)


def test_bad_partitions_are_refused():
    with pytest.raises(ValueError, match="two groups"):
        quality.pairwise_scores([["a", "b"], ["b"]], [["a", "b"]])
    with pytest.raises(ValueError, match="different mentions"):
        quality.bcubed_scores([["a", "b"]], [["a", "c"]])


def test_pairwise_matches_fssbench():
    from fssbench import pairwise_metrics
    rng = random.Random(7)
    for _ in range(200):
        refs = [f"W{i}:0" for i in range(rng.randint(0, 30))]

        def partition():
            groups: dict[int, list[str]] = {}
            for ref in refs:
                groups.setdefault(rng.randint(0, 6), []).append(ref)
            return list(groups.values())

        predicted, truth = partition(), partition()
        assert quality.pairwise_scores(predicted, truth) == pytest.approx(
            pairwise_metrics(predicted, truth), abs=1e-12)


def test_self_time_of_nested_spans():
    # root [0, 100] holds a [10, 30] and b [40, 90]; b holds c [50, 60];
    # a second root-level "a" [100, 105] has no parent
    names = ["root", "a", "b", "c"]
    name_id = [0, 1, 2, 3, 1]
    start = [0, 10, 40, 50, 100]
    end = [100, 30, 90, 60, 105]
    parent = [tracing.NO_PARENT, 0, 0, 2, tracing.NO_PARENT]
    stats = tracing.aggregate(names, name_id, start, end, parent)
    ns = 1e-9
    assert stats["root"].self_s == pytest.approx(30 * ns)
    assert stats["b"].self_s == pytest.approx(40 * ns)
    assert stats["b"].total_s == pytest.approx(50 * ns)
    assert stats["c"].self_s == pytest.approx(10 * ns)
    assert stats["a"].calls == 2
    assert stats["a"].total_s == pytest.approx(25 * ns)
    assert stats["a"].max_s == pytest.approx(20 * ns)


def test_tracer_records_nesting_and_restores():
    mod = types.SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2      # module-internal call by attribute
    original = mod.outer, mod.inner
    tracer = tracing.Tracer()
    seen = []
    tracer.wrap(mod, "outer", "m.outer", on_result=lambda result, args: seen.append(result))
    tracer.wrap(mod, "inner", "m.inner")
    tracer.run_id = 4
    assert mod.outer(1) == 4 and seen == [4]
    assert mod.inner(0) == 1
    names = [tracer.names[i] for i in tracer.name_id]
    assert names == ["m.outer", "m.inner", "m.inner"]
    assert list(tracer.parent) == [tracing.NO_PARENT, 0, tracing.NO_PARENT]
    assert list(tracer.run) == [4, 4, 4]
    stats = tracer.aggregate()
    assert stats["m.inner"].calls == 2
    assert stats["m.outer"].self_s <= stats["m.outer"].total_s
    tracer.restore()
    assert (mod.outer, mod.inner) == original


def test_traced_calls_exist_in_the_package():
    from fssbench import staff
    import fssbench.cli    # noqa: F401  (imports every module)
    modules = sys.modules
    for mod_name, attrs in tracing.TRACED_CALLS.items():
        for attr in attrs:
            assert callable(getattr(modules[f"fssbench.{mod_name}"], attr)), (mod_name, attr)
    assert callable(modules["fssbench.corpus"].Corpus.write_jsonl)
    flags = sorted(v for k, v in vars(staff).items() if k.startswith("FLAG_"))
    assert tuple(flags) == tracing.STAFF_FLAGS


def test_tracer_counts():
    tracer = tracing.Tracer()
    tracer.count("n", 3)
    tracer.count("n", 4)
    tracer.count("m", 3, max)
    tracer.count("m", 2, max)
    assert tracer.counts == {"n": 7, "m": 3}


def _toy_world(path: Path, faculty_hits: list[int]) -> None:
    """One publication per entry, each with that many faculty mentions
    first and one external mention last."""
    path.mkdir()
    refs = []
    with (path / "publications.jsonl").open("w") as fh:
        for i, hits in enumerate(faculty_hits):
            refs += [f"W{i}:{k}" for k in range(hits)]
            fh.write(json.dumps({"pub_id": f"W{i}", "year": 2016, "doc_type": "article",
                                 "source_index": "core", "mentions": [{}] * (hits + 1)}) + "\n")
    with (path / "ground_truth.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["person_id", "kind", "mention_refs"])
        writer.writerow(["P0", "faculty", ";".join(refs)])


def test_trim_block_cuts_to_exact_size(tmp_path):
    _toy_world(tmp_path / "w", [2, 1, 2, 0, 1, 3])
    assert worlds.trim_block(tmp_path / "w", 4) == 4
    kept = [json.loads(line)["pub_id"]
            for line in (tmp_path / "w" / "publications.jsonl").read_text().splitlines()]
    # W2 would overflow (3 + 2 > 4), W4 fills the block, W3 has no faculty
    assert kept == ["W0", "W1", "W3", "W4"]


def test_trim_block_keeps_a_small_world_whole(tmp_path):
    _toy_world(tmp_path / "w", [1, 0, 1])
    before = (tmp_path / "w" / "publications.jsonl").read_text()
    assert worlds.trim_block(tmp_path / "w", 3) == 2
    assert (tmp_path / "w" / "publications.jsonl").read_text() == before



def test_median_sum_takes_each_units_median_repetition():
    import run
    assert run.median_sum([[3.0, 5.0], [2.0, 6.0], [4.0, 4.0]]) == 8.0
    assert run.median_sum([[1.5, 2.5]]) == 4.0


def test_clock_scales_by_the_loop_timings_around_each_unit(monkeypatch):
    import hostspeed
    timings = iter([0.085, 0.170, 0.085])
    monkeypatch.setattr(hostspeed, "sample", lambda: next(timings))
    clock = hostspeed.Clock()
    # between loop timings of 0.085 and 0.170 s the host ran at 2/3 of nominal speed
    assert clock.scale(3.0) == pytest.approx(3.0 * hostspeed.NOMINAL_S / 0.1275)
    assert clock.scale(3.0) == pytest.approx(3.0 * hostspeed.NOMINAL_S / 0.1275)
    assert clock.factors == pytest.approx([hostspeed.NOMINAL_S / 0.1275] * 2)
