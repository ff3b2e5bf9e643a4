import gc
import heapq
import itertools
import json
import math
import struct
import subprocess
import sys
import time
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from fssbench import disambig
from fssbench.corpus import Corpus, CorpusError, YearWindow, load_publications
from fssbench.disambig import (
    DEFAULT_RULES,
    NEVER_MERGE,
    AuthorCluster,
    MentionContext,
    ScoringRules,
    block_key,
    block_mentions,
    cluster_block,
    cluster_corpus,
    load_clusters_jsonl,
    mention_context,
    pairwise_metrics,
    score_pair,
    summarize_cluster,
    write_clusters_jsonl,
)
from fssbench.synth import SynthConfig, generate

import reference_clustering as reference
from conftest import WINDOW, corpus_of, package_env, record
from reference_clustering import reference_cluster_block


def ctx(pub_id, names, pos=0, year=2016, scs=("SC1",), journal="j", **kw):
    rec = record(pub_id, year, names, list(scs), journal=journal, **kw)
    return mention_context(rec, pos)


def contexts(rec):
    """Every mention's context on ``rec``'s byline, in byline order."""
    return [mention_context(rec, pos) for pos in range(len(rec.mentions))]


# ---------------------------------------------------------------------------
# pair scoring

def test_score_pair_orcid_match():
    a = ctx("W1", ["rossi, maria"], orcid="0000-0001-2345-6789")
    b = ctx("W2", ["rossi, m"], orcid="0000-0001-2345-6789", journal="other")
    s = score_pair(a, b)
    assert s >= disambig.ORCID_WEIGHT


def test_score_pair_distinct_orcids_never_merge():
    a = ctx("W1", ["rossi, maria"], orcid="0000-0001-2345-6789")
    b = ctx("W2", ["rossi, maria"], orcid="0000-0002-2345-6781")
    assert score_pair(a, b) == NEVER_MERGE
    assert math.isinf(NEVER_MERGE)


def test_score_pair_same_publication_raises():
    rec = record("W1", 2016, ["rossi, m", "rossi, maria"], ["SC1"])
    a, b = contexts(rec)
    with pytest.raises(ValueError, match="same byline"):
        score_pair(a, b)


def test_score_pair_additive_evidence():
    a = ctx("W1", ["rossi, maria", "verdi, a", "bianchi, b"],
            email="m.rossi@unimi.it", organization="univ milano")
    b = ctx("W2", ["rossi, maria", "verdi, a", "bianchi, b"],
            email="m.rossi@unimi.it", organization="univ milano")
    # email 90 + 2 shared coauthors 50 + org 15 + journal 10 + sc 10 + full first 10
    assert score_pair(a, b) == pytest.approx(185.0)


def test_score_pair_symmetric():
    a = ctx("W1", ["rossi, maria", "verdi, a"], organization="univ milano")
    b = ctx("W2", ["rossi, m", "verdi, a"], journal="other")
    assert score_pair(a, b) == score_pair(b, a)


def test_score_pair_initials_do_not_count_as_first_name():
    a = ctx("W1", ["rossi, m"], journal="ja")
    b = ctx("W2", ["rossi, m"], journal="jb")
    c = ctx("W3", ["rossi, maria"], journal="jc")
    d = ctx("W4", ["rossi, maria"], journal="jd")
    # sc overlap only, for both pairs; full-first fires only for maria/maria
    assert score_pair(a, b) == disambig.SUBJECT_CATEGORY_WEIGHT
    assert score_pair(c, d) == disambig.SUBJECT_CATEGORY_WEIGHT + disambig.FIRST_NAME_WEIGHT


def test_score_pair_sc_overlap_counts_once():
    a = ctx("W1", ["rossi, m"], scs=("SC1", "SC2"), journal="ja")
    b = ctx("W2", ["rossi, m"], scs=("SC1", "SC2"), journal="jb")
    assert score_pair(a, b) == disambig.SUBJECT_CATEGORY_WEIGHT


def test_scoring_rules_validation():
    for threshold in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="merge_threshold must be finite and > 0"):
            ScoringRules(merge_threshold=threshold)
    assert [f.name for f in fields(ScoringRules)] == ["merge_threshold"]


# ---------------------------------------------------------------------------
# blocking

def test_block_key_uses_surname_and_initial():
    assert block_key("rossi", "maria") == "rossi|m"
    assert block_key("rossi", "") == "rossi|"


def test_block_mentions_groups_and_orders():
    corpus = corpus_of([
        record("W2", 2016, ["rossi, maria", "verdi, anna"], ["SC1"]),
        record("W1", 2015, ["rossi, marco"], ["SC1"]),
    ])
    blocks = block_mentions(corpus)
    assert sorted(blocks) == ["rossi|m", "verdi|a"]
    assert [(rec.pub_id, pos) for rec, pos in blocks["rossi|m"]] == [("W1", 0), ("W2", 0)]
    assert all(rec is corpus.by_id[rec.pub_id] for block in blocks.values()
               for rec, _ in block)


# ---------------------------------------------------------------------------
# summaries

def test_summarize_cluster_fields():
    members = [
        ctx("W2", ["rossi, m"], year=2019, email="b@x.it", organization="univ b"),
        ctx("W1", ["rossi, maria"], year=2010, email="a@x.it", organization="univ a"),
        ctx("W3", ["rossi, maria"], year=2015, email="a@x.it", organization="univ a"),
    ]
    cluster = summarize_cluster(members)
    assert cluster.cluster_id == "W1:0"
    assert cluster.mention_refs == (("W1", 0), ("W2", 0), ("W3", 0))
    assert (cluster.first_year, cluster.last_year, cluster.academic_age) == (2010, 2019, 9)
    assert cluster.first_name == "maria"
    assert cluster.full_name == "rossi, m"
    assert cluster.email == "a@x.it"      # modal
    assert cluster.organization == "univ a"
    assert cluster.n_pubs == 3


def test_summarize_cluster_initials_from_multi_token_first_name():
    members = [ctx("W1", ["marchetti, carlo alberto"], year=1996),
               ctx("W2", ["marchetti, ca"], year=2020)]
    cluster = summarize_cluster(members)
    assert cluster.full_name == "marchetti, ca"
    assert cluster.first_name == "carlo alberto"
    assert cluster.academic_age == 24


def test_summarize_cluster_modal_tie_takes_lexicographic_smaller():
    members = [
        ctx("W1", ["rossi, m"], organization="univ b"),
        ctx("W2", ["rossi, m"], organization="univ b"),
        ctx("W3", ["rossi, m"], organization="univ a"),
        ctx("W4", ["rossi, m"], organization="univ a"),
    ]
    assert summarize_cluster(members).organization == "univ a"


def test_summarize_cluster_unique_identifiers_only():
    members = [ctx("W1", ["rossi, m"], researcher_id="RID-1"),
               ctx("W2", ["rossi, m"], researcher_id="RID-2")]
    assert summarize_cluster(members).researcher_id is None


def test_summarize_cluster_rejects_same_pub_and_mixed_orcids():
    rec = record("W1", 2016, ["rossi, m", "rossi, maria"], ["SC1"])
    with pytest.raises(CorpusError, match="same|one publication"):
        summarize_cluster(contexts(rec))
    members = [ctx("W1", ["rossi, m"], orcid="0000-0001-2345-6789"),
               ctx("W2", ["rossi, m"], orcid="0000-0002-2345-6781")]
    with pytest.raises(CorpusError, match="orcid"):
        summarize_cluster(members)


# ---------------------------------------------------------------------------
# clustering

def test_cluster_block_merges_strong_pair_and_respects_threshold():
    strong_a = ctx("W1", ["rossi, maria", "verdi, a"], email="m@x.it")
    strong_b = ctx("W2", ["rossi, maria", "verdi, a"], email="m@x.it", journal="k")
    weak = ctx("W3", ["rossi, marta"], scs=("SC9",), journal="q")
    clusters = cluster_block([strong_a, strong_b, weak])
    by_id = {c.cluster_id: c for c in clusters}
    assert sorted(by_id) == ["W1:0", "W3:0"]
    assert by_id["W1:0"].mention_refs == (("W1", 0), ("W2", 0))


def test_cluster_block_same_publication_is_a_hard_wall():
    # identical metadata, same byline: still two people
    rec = record("W1", 2016, ["rossi, m", "rossi, m"], ["SC1"], orcid=None)
    a, b = contexts(rec)
    clusters = cluster_block([a, b])
    assert len(clusters) == 2


def test_cluster_block_publication_overlap_blocks_transitive_merge():
    # x and y merge; z shares a pub with x, so even a strong z-y link cannot
    # pull z into the merged cluster
    shared = record("W1", 2016, ["rossi, m", "rossi, maria"], ["SC1"],
                    email="m@x.it")
    x, z = contexts(shared)
    y = ctx("W2", ["rossi, maria"], email="m@x.it")
    clusters = cluster_block([x, y, z])
    for c in clusters:
        pub_ids = [ref[0] for ref in c.mention_refs]
        assert len(pub_ids) == len(set(pub_ids))


def test_cluster_corpus_orders_by_canonical_ref(window):
    corpus = corpus_of([
        record("W2", 2016, ["verdi, anna"], ["SC1"], email="a@x.it"),
        record("W1", 2016, ["rossi, maria"], ["SC1"], email="m@x.it"),
        record("W3", 2017, ["rossi, maria"], ["SC1"], email="m@x.it"),
    ])
    clusters = cluster_corpus(corpus)
    assert [c.cluster_id for c in clusters] == ["W1:0", "W2:0"]
    assert clusters[0].n_pubs == 2


# ---------------------------------------------------------------------------
# randomized properties (small versions; the acceptance suite runs these at
# full case counts)

_SURNAMES = ["rossi", "verdi", "bianchi", "ferrari"]


def _random_corpus(rng: np.random.Generator, n_pubs: int = 14) -> Corpus:
    records = []
    for i in range(n_pubs):
        n_auth = int(rng.integers(1, 4))
        names = []
        for _ in range(n_auth):
            surname = _SURNAMES[int(rng.integers(0, len(_SURNAMES)))]
            given = ["maria", "marco", "m"][int(rng.integers(0, 3))]
            names.append(f"{surname}, {given}")
        kw = {}
        if rng.random() < 0.5:
            kw["email"] = f"{names[0].split(',')[0]}@u{int(rng.integers(0, 2))}.it"
        if rng.random() < 0.3:
            kw["orcid"] = f"0000-000{int(rng.integers(1, 3))}-1111-2222"
        records.append(record(
            f"W{i:03d}", int(2015 + rng.integers(0, 5)), names,
            [f"SC{int(rng.integers(0, 3))}"],
            journal=f"j{int(rng.integers(0, 3))}", **kw))
    return corpus_of(records)


def test_clustering_is_a_partition_randomized():
    rng = np.random.default_rng(101)
    for _ in range(60):
        corpus = _random_corpus(rng)
        clusters = cluster_corpus(corpus)
        seen = [ref for c in clusters for ref in c.mention_refs]
        expected = [(r.pub_id, i) for r in corpus for i in range(len(r.mentions))]
        assert sorted(seen) == sorted(expected)
        assert len(seen) == len(set(seen))


def test_raising_threshold_never_reduces_cluster_count():
    rng = np.random.default_rng(202)
    for _ in range(40):
        corpus = _random_corpus(rng)
        counts = []
        for threshold in (25, 50, 90, 150):
            rules = ScoringRules(merge_threshold=threshold)
            counts.append(len(cluster_corpus(corpus, rules)))
        assert counts == sorted(counts)


def test_cluster_corpus_holds_one_block_of_contexts_at_a_time(monkeypatch):
    # a few hundred blocks: when each is clustered, the only live contexts
    # are its own, not every mention's
    rng = np.random.default_rng(303)
    records = [record(f"W{i:04d}", 2016,
                      [f"s{int(k):03d}, {'ab'[int(k) % 2]}"
                       for k in rng.integers(0, 300, int(rng.integers(1, 5)))], ["SC1"])
               for i in range(300)]
    corpus = corpus_of(records)
    live = []

    def counting(block, rules=DEFAULT_RULES):
        live.append((sum(type(o) is MentionContext for o in gc.get_objects()), len(block)))
        return cluster_block(block, rules)

    monkeypatch.setattr(disambig, "cluster_block", counting)
    clusters = cluster_corpus(corpus)
    assert len(live) == len(block_mentions(corpus)) >= 200
    assert [(n, size) for n, size in live if n > size] == []
    assert sum(len(c.mention_refs) for c in clusters) == corpus.mention_count()


# ---------------------------------------------------------------------------
# serialization and metrics

def test_clusters_jsonl_round_trip(tmp_path):
    corpus = corpus_of([
        record("W1", 2016, ["rossi, maria"], ["SC1"], email="m@x.it",
               orcid="0000-0001-2345-6789"),
        record("W2", 2017, ["rossi, maria"], ["SC1"], email="m@x.it",
               orcid="0000-0001-2345-6789"),
    ])
    clusters = cluster_corpus(corpus)
    path = tmp_path / "clusters.jsonl"
    write_clusters_jsonl(clusters, path)
    back = load_clusters_jsonl(path)
    assert [c.to_dict() for c in back] == [c.to_dict() for c in clusters]


def test_clusters_jsonl_of_a_generated_world_rewrites_byte_identical(tmp_path):
    config = SynthConfig(seed=3, n_universities=3, n_researchers=30, n_scs=2,
                         non_faculty_share=0.3, orcid_missing_rate=0.5, email_missing_rate=0.5)
    files, _ = generate(config, tmp_path)
    first, second = tmp_path / "clusters.jsonl", tmp_path / "again.jsonl"
    write_clusters_jsonl(cluster_corpus(load_publications(files["publications"],
                                                          config.window)), first)
    write_clusters_jsonl(load_clusters_jsonl(first), second)
    assert second.read_bytes() == first.read_bytes()


def _cluster(**kw) -> AuthorCluster:
    fields = dict(cluster_id="W1:0", mention_refs=(("W1", 0),), n_pubs=1, first_year=2016,
                  last_year=2016, academic_age=0, full_name="Rossi, Maria",
                  last_name="rossi", first_name="maria", email=None, organization=None,
                  city=None, country=None, orcid=None, researcher_id=None)
    return AuthorCluster(**{**fields, **kw})


@pytest.mark.parametrize("char", ["\x85", "\u2028", "\u2029"])
def test_clusters_jsonl_round_trips_characters_splitlines_breaks_at(tmp_path, char):
    # json.dumps writes these raw, and str.splitlines breaks lines at them
    clusters = [_cluster(email=f"m{char}r@x.it"),
                _cluster(cluster_id="W1:1", mention_refs=(("W1", 1),),
                         researcher_id=f"R{char}1"),
                _cluster(cluster_id=f"W{char}2:0", mention_refs=((f"W{char}2", 0),))]
    path = tmp_path / "clusters.jsonl"
    write_clusters_jsonl(clusters, path)
    assert load_clusters_jsonl(path) == clusters


@pytest.mark.parametrize("field", ["mention_refs", "n_pubs", "first_year", "cluster_id",
                                   "full_name", "last_name", "first_name"])
def test_load_clusters_jsonl_refuses_a_null_field(tmp_path, field):
    path = tmp_path / "clusters.jsonl"
    write_clusters_jsonl([_cluster(), _cluster()], path)
    first, second = path.read_text(encoding="utf-8").splitlines()
    obj = json.loads(second)
    obj[field] = None
    path.write_text(f"{first}\n{json.dumps(obj)}\n", encoding="utf-8")
    with pytest.raises(CorpusError, match="^clusters.jsonl line 2: bad cluster record"):
        load_clusters_jsonl(path)


@pytest.mark.parametrize("field, value, reason", [
    ("mention_refs", [["W1"]], 'mention ref ["W1"] is not [pub_id, position]'),
    ("mention_refs", "W1", "mention_refs is not a list"),
    ("mention_refs", [[1, 0]], "mention ref [1, 0] is not [pub_id, position]"),
    ("mention_refs", [[None, 0]], "mention ref [null, 0] is not [pub_id, position]"),
    ("mention_refs", [["W1", 1.5]], 'mention ref ["W1", 1.5] is not [pub_id, position]'),
    ("mention_refs", [["W1", True]], 'mention ref ["W1", true] is not [pub_id, position]'),
    ("mention_refs", [["W1", 0, 5]], 'mention ref ["W1", 0, 5] is not [pub_id, position]'),
    ("mention_refs", [["W1", -1]], 'mention ref ["W1", -1] is not [pub_id, position]'),
    ("mention_refs", [["W1", 0], "W2"], 'mention ref "W2" is not [pub_id, position]'),
    *((name, 5, f"{name} is neither a string nor null")
      for name in ("email", "organization", "city", "country", "orcid", "researcherid")),
    ("n_pubs", "3", "invalid 'n_pubs': '3'"),
    ("last_year", 2019.7, "invalid 'last_year': 2019.7"),
    ("academic_age", True, "invalid 'academic_age': True"),
    ("cluster_id", 5, "invalid 'cluster_id': 5"),
    # derived fields that disagree with the years and the refs they come from
    *((field, value, f"academic_age {age} and n_pubs {n_pubs} are not last_year - "
                     f"first_year ({span}) and the distinct pub_ids of mention_refs ({refs})")
      for field, value, age, n_pubs, span, refs in [
          ("academic_age", 3, 3, 1, 0, 1),
          ("last_year", 2019, 0, 1, 3, 1),
          ("n_pubs", 2, 0, 2, 0, 1),
          ("mention_refs", [["W1", 0], ["W2", 0]], 0, 1, 0, 2),
      ]),
    # the one publication counts once in n_pubs, as summarize_cluster counts it
    ("mention_refs", [["W1", 0], ["W1", 1]], "cluster contains two mentions from one publication"),
])
def test_load_clusters_jsonl_refuses_a_malformed_field(tmp_path, field, value, reason):
    path = tmp_path / "clusters.jsonl"
    write_clusters_jsonl([_cluster()], path)
    obj = json.loads(path.read_text(encoding="utf-8"))
    obj[field] = value
    path.write_text(f"{json.dumps(obj)}\n", encoding="utf-8")
    with pytest.raises(CorpusError) as refused:
        load_clusters_jsonl(path)
    assert str(refused.value) == f"clusters.jsonl line 1: bad cluster record: {reason}"


@pytest.mark.parametrize("clusters, refusal", [
    ([_cluster(mention_refs=(("W1", 0), ("W1", 0)))],
     "clusters.jsonl line 1: mention ref W1:0 already listed on line 1"),
    # a second mention of W1 added to another cluster: listed twice, and in
    # that cluster two mentions of one publication
    ([_cluster(), _cluster(cluster_id="W2:0", mention_refs=(("W2", 0),)),
      _cluster(cluster_id="W1:1", mention_refs=(("W1", 1), ("W1", 0)))],
     "clusters.jsonl line 3: mention ref W1:0 already listed on line 1"),
], ids=["one-cluster", "two-clusters"])
def test_load_clusters_jsonl_refuses_a_mention_ref_listed_twice(tmp_path, clusters, refusal):
    path = tmp_path / "clusters.jsonl"
    write_clusters_jsonl(clusters, path)
    with pytest.raises(CorpusError) as refused:
        load_clusters_jsonl(path)
    assert str(refused.value) == refusal


def test_pairwise_metrics_hand_example():
    truth = [{("W1", 0), ("W2", 0), ("W3", 0)}, {("W4", 0)}]
    predicted = [{("W1", 0), ("W2", 0)}, {("W3", 0), ("W4", 0)}]
    p, r, f = pairwise_metrics(predicted, truth)
    assert p == pytest.approx(0.5)       # 1 of 2 predicted pairs correct
    assert r == pytest.approx(1 / 3)     # 1 of 3 true pairs found
    assert f == pytest.approx(0.4)


def test_pairwise_metrics_perfect_and_degenerate():
    part = [{("W1", 0), ("W2", 0)}]
    assert pairwise_metrics(part, part) == (1.0, 1.0, 1.0)
    singletons = [{("W1", 0)}, {("W2", 0)}]
    assert pairwise_metrics(singletons, singletons) == (1.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# agglomeration against the dense reference

_POOL_PUBS = [f"W{i}" for i in range(8)]
_POOL_ORCIDS = [None, None, "0000-0001-0000-0001", "0000-0002-0000-0002"]
# Thresholds on both sides of 45, the organization, journal, subject-category
# and first-name weights together: a block at or above the split floor is cut
# only above it. The sampled ones are sums of weights, so that averages land
# on the threshold.
_RULES = st.one_of(st.sampled_from([10.0, 20.0, 25.0, 45.0, 50.0, 100.0, 125.0, 200.0]),
                   st.floats(0.01, 300)).map(ScoringRules)


@st.composite
def _blocks(draw):
    """A one-surname block: publications repeat (several mentions share a
    byline), ORCIDs collide or differ, and small pools of evidence values
    make equal scores and equal averages common."""
    n = draw(st.integers(0, 24))
    positions: dict[str, int] = {}
    block = []
    for _ in range(n):
        pub_id = draw(st.sampled_from(_POOL_PUBS))
        positions[pub_id] = positions.get(pub_id, -1) + 1
        block.append(MentionContext(
            pub_id=pub_id,
            position=positions[pub_id],
            last_name="rossi",
            first_name=draw(st.sampled_from(["m", "maria", "marco"])),
            email=draw(st.sampled_from([None, "m@x.it", "m@y.it"])),
            orcid=draw(st.sampled_from(_POOL_ORCIDS)),
            researcher_id=draw(st.sampled_from([None, None, "A-1"])),
            organization=draw(st.sampled_from([None, "univ milano", "univ roma"])),
            city=None,
            country=None,
            journal=draw(st.sampled_from(["j1", "j2"])),
            year=draw(st.integers(2015, 2019)),
            subject_categories=frozenset(draw(st.sets(st.sampled_from(["SC1", "SC2"]),
                                                      min_size=1))),
            coauthor_last_names=frozenset(draw(st.sets(st.sampled_from(["verdi", "neri"])))),
        ))
    return block


@settings(max_examples=200)
@given(block=_blocks(), rules=_RULES)
def test_cluster_block_equals_dense_reference(block, rules):
    assert cluster_block(block, rules) == reference_cluster_block(block, rules)


def _large_block(drawn) -> list[MentionContext]:
    """Mentions of a dozen people named rossi, m: each identifier is absent,
    the person's own, or the next person's."""
    positions: dict[str, int] = {}
    block = []
    for pub_id, person, (email, orcid, rid), first, org, journal, year, scs, coauthors in drawn:
        positions[pub_id] = positions.get(pub_id, -1) + 1
        email, orcid, rid = (None if who is None else (person + who) % 12
                             for who in (email, orcid, rid))
        block.append(MentionContext(
            pub_id, positions[pub_id], "rossi", first,
            None if email is None else f"m@{email}.it",
            None if orcid is None else f"0000-0001-0000-{orcid:04d}",
            None if rid is None else f"A-{rid}", org, None, None, journal, year, scs, coauthors))
    return block


_WHOSE = st.sampled_from([None, None, 0, 0, 0, 1])

#: A one-surname block at or above the split floor, of a dozen people, with
#: more publications and co-author surnames than ``_blocks`` draws, so that
#: it falls into several parts about as often as into one. Publications
#: still repeat, and ORCIDs still collide or differ.
_LARGE_BLOCKS = st.lists(st.tuples(
    st.sampled_from([f"W{i}" for i in range(40)]),
    st.integers(0, 11),
    st.tuples(_WHOSE, _WHOSE, _WHOSE),
    st.sampled_from(["m", "maria", "marco"]),
    st.sampled_from([None, "univ milano", "univ roma"]),
    st.sampled_from(["j1", "j2", "j3"]),
    st.integers(2015, 2019),
    st.frozensets(st.sampled_from(["SC1", "SC2", "SC3"]), min_size=1),
    st.frozensets(st.sampled_from([f"co{i}" for i in range(20)]), max_size=2),
), min_size=disambig._SPLIT_FLOOR, max_size=60).map(_large_block)


def _parts(block, rules):
    """The parts ``cluster_block`` agglomerates ``block`` in, as a
    hypothesis event, so that ``--hypothesis-show-statistics`` shows how
    often each path ran."""
    parts = disambig._split(sorted(block, key=lambda c: c.ref), rules.merge_threshold)
    event("one part" if len(parts) == 1 else "several parts")
    return parts


@settings(max_examples=100)
@given(block=_LARGE_BLOCKS, rules=_RULES)
def test_cluster_block_equals_dense_reference_above_the_split_floor(block, rules):
    _parts(block, rules)
    assert cluster_block(block, rules) == reference_cluster_block(block, rules)


@settings(max_examples=100)
@given(block=_LARGE_BLOCKS, rules=_RULES)
def test_no_pair_that_clears_the_threshold_lies_across_two_parts(block, rules):
    parts = _parts(block, rules)
    assert sorted(c.ref for part in parts for c in part) == sorted(c.ref for c in block)
    assert all(part == sorted(part, key=lambda c: c.ref) for part in parts)
    part_of = {c.ref: i for i, part in enumerate(parts) for c in part}
    for a, b in itertools.combinations(block, 2):
        if a.pub_id != b.pub_id and score_pair(a, b) >= rules.merge_threshold:
            assert part_of[a.ref] == part_of[b.ref]
    # at or below 45, a pair may clear the threshold on the weak kinds alone
    if rules.merge_threshold <= 45:
        assert len(parts) == 1


# ---------------------------------------------------------------------------
# scoring, summaries and mention contexts against their earlier forms

@st.composite
def _mentions(draw, pub_id, orcids=_POOL_ORCIDS):
    """One mention of pub_id whose fields come from small pools, None and
    the empty string included, so that values tie and sets meet or not."""
    def pick(*values):
        return draw(st.sampled_from(values))

    return MentionContext(
        pub_id=pub_id,
        position=0,
        last_name=pick("rossi", "rossi", "rosi", ""),
        first_name=pick("", "m", "ma", "mb", "maria", "marta", "mario", "m a", "ma rb"),
        email=pick(None, "", "m@x.it", "m@y.it"),
        orcid=pick(*orcids),
        researcher_id=pick(None, "", "A-1", "A-2"),
        organization=pick(None, "", "univ milano", "univ roma"),
        city=pick(None, "", "milano", "roma"),
        country=pick(None, "", "italy", "spain"),
        journal=pick("", "j1", "j2"),
        year=draw(st.integers(2010, 2019)),
        subject_categories=frozenset(draw(st.sets(st.sampled_from(["SC1", "SC2", "SC3"])))),
        coauthor_last_names=frozenset(draw(st.sets(st.sampled_from(["verdi", "neri", "blu"])))),
    )


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


@settings(max_examples=500)
@given(a=_mentions("W1"), b=_mentions("W2"))
def test_score_pair_equals_the_reference_bit_for_bit(a, b):
    # bits, so that a sign or a last-place difference shows
    assert _bits(score_pair(a, b)) == _bits(reference.score_pair(a, b))
    assert _bits(score_pair(b, a)) == _bits(reference.score_pair(b, a))


def _outcome(fn, members):
    try:
        return fn(members)
    except (ValueError, CorpusError) as exc:
        return type(exc), str(exc)


@st.composite
def _clusters(draw):
    """1-6 mentions of one person, on distinct publications unless a draw
    repeats one, with at most one ORCID unless a draw mixes two."""
    pub_ids = draw(st.lists(st.sampled_from(_POOL_PUBS), min_size=1, max_size=6,
                            unique=draw(st.booleans())))
    orcids = draw(st.sampled_from([[None], [None, _POOL_ORCIDS[2]], _POOL_ORCIDS]))
    return [draw(_mentions(p, orcids)) for p in pub_ids]


@settings(max_examples=500)
@given(members=_clusters())
def test_summarize_cluster_equals_the_reference(members):
    assert (_outcome(summarize_cluster, members)
            == _outcome(reference.summarize_cluster, members))


@given(names=st.lists(st.sampled_from(["rossi", "verdi", "neri"]), min_size=1, max_size=6))
def test_mention_context_coauthors_are_the_other_surnames(names):
    rec = record("W1", 2016, [f"{n}, m" for n in names], ["SC1"])
    for pos, c in enumerate(contexts(rec)):
        assert (c.ref, c.last_name, c.subject_categories) == (("W1", pos), names[pos],
                                                              frozenset(["SC1"]))
        assert c.coauthor_last_names == frozenset(n for i, n in enumerate(names) if i != pos)


# ---------------------------------------------------------------------------
# complete blocks, which skip the agglomeration loop

@st.composite
def _complete_blocks(draw):
    """One person's block: every mention on its own publication, all
    sharing an ORCID or an email, so every pair can clear the threshold.
    In a uniform block the mentions differ only in publication, so every
    pair has the same score."""
    by_orcid, uniform = draw(st.booleans()), draw(st.booleans())

    def mention(pub_id):
        c = draw(_mentions(pub_id))
        c.last_name = "rossi"
        if by_orcid:
            c.orcid = _POOL_ORCIDS[2]
        else:
            c.email = "m@x.it"
            c.orcid = draw(st.sampled_from([None, _POOL_ORCIDS[2]]))
        return c

    first = mention("W0")
    return [first] + [replace(first, pub_id=f"W{i}") if uniform else mention(f"W{i}")
                      for i in range(1, draw(st.integers(1, 12)))]


@settings(max_examples=300)
@given(block=_complete_blocks(), rules=_RULES, tight=st.booleans())
def test_cluster_block_on_a_complete_block_equals_the_reference(block, rules, tight):
    lowest = min((score_pair(a, b) for a in block for b in block if a is not b),
                 default=0.0)
    if tight and 0 < lowest < math.inf:
        # averages land on the threshold, where a sum rounded down shows
        rules = replace(rules, merge_threshold=lowest)
    assert cluster_block(block, rules) == reference_cluster_block(block, rules)


# ---------------------------------------------------------------------------
# the two 2**53 guards: below that total, sums of whole-number scores are
# exact, and the cut and the complete-block shortcut rely on it. No block of
# a real corpus comes near, so the tests lower the bound.

def _heapified(monkeypatch) -> list[int]:
    """The size of each heap ``_agglomerate`` builds from here on: one per
    block or part that takes the agglomeration loop."""
    sizes = []

    def heapify(heap):
        sizes.append(len(heap))
        heapq.heapify(heap)

    monkeypatch.setattr(disambig, "heapq", SimpleNamespace(
        heapify=heapify, heappop=heapq.heappop, heappush=heapq.heappush))
    return sizes


@pytest.mark.parametrize("bound, loop", [(720.0, True), (721.0, False)])
def test_a_complete_block_whose_seeds_reach_the_bound_takes_the_loop(monkeypatch, bound, loop):
    # six pairs of one ORCID, journal and subject category: 120 each, 720 in all
    block = [ctx(f"W{i}", ["rossi, m"], orcid="0000-0001-0000-0001") for i in range(4)]
    assert {score_pair(a, b) for a in block for b in block if a is not b} == {120.0}
    heapified = _heapified(monkeypatch)
    monkeypatch.setattr(disambig, "_EXACT_SUMS", bound)
    clusters = cluster_block(block)
    assert heapified == ([6] if loop else [])
    assert clusters == reference_cluster_block(block)
    assert [c.mention_refs for c in clusters] == [tuple((f"W{i}", 0) for i in range(4))]


@pytest.mark.parametrize("bound, parts", [(166_160.0, 1), (166_161.0, 2)])
def test_a_block_whose_pairs_could_reach_the_bound_is_not_cut(monkeypatch, bound, parts):
    # two people of 16 mentions each, one email apiece, no co-authors: each
    # of the 496 pairs scores at most 335, 166,160 in all
    block = [ctx(f"W{i:02d}", ["rossi, m"], email=f"m@{i % 2}.it", journal=f"j{i % 3}")
             for i in range(32)]
    monkeypatch.setattr(disambig, "_EXACT_SUMS", bound)
    assert len(disambig._split(block, DEFAULT_RULES.merge_threshold)) == parts
    clusters = cluster_block(block)
    assert clusters == reference_cluster_block(block)
    assert [len(c.mention_refs) for c in clusters] == [16, 16]


@settings(max_examples=100)
@given(block=st.one_of(_blocks(), _LARGE_BLOCKS, _complete_blocks()), rules=_RULES,
       bound=st.sampled_from([0.0, 500.0, 5_000.0]))
def test_cluster_block_under_a_lowered_bound_equals_the_reference(block, rules, bound):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(disambig, "_EXACT_SUMS", bound)
        assert cluster_block(block, rules) == reference_cluster_block(block, rules)


def test_cluster_block_scales_to_a_large_homonym_block(tmp_path):
    # every faculty member shares one surname and initial; the dense rescan
    # would take minutes on a block this size
    config = SynthConfig(seed=7, n_universities=4, n_researchers=150, n_scs=4,
                         homonym_rate=1.0, orcid_missing_rate=0.5, email_missing_rate=0.5)
    files, _ = generate(config, tmp_path)
    blocks = block_mentions(load_publications(files["publications"], config.window))
    block = [mention_context(*ref) for ref in max(blocks.values(), key=len)[:1600]]
    assert len(block) == 1600
    started = time.perf_counter()
    clusters = cluster_block(block)
    assert time.perf_counter() - started < 30
    assert sorted(ref for c in clusters for ref in c.mention_refs) == [c.ref for c in block]
    assert len(clusters) < len(block) / 2


#: Clusters the largest block of a publications file in a fresh interpreter
#: and prints its size, its cluster count, the wall time of ``cluster_block``
#: and the interpreter's peak RSS. The peak is VmHWM, which starts afresh at
#: exec; ru_maxrss would start from the RSS of the process that forked it.
_CLUSTER_LARGEST_BLOCK = """
import json, re, sys, time
from pathlib import Path
from fssbench.corpus import YearWindow, load_publications
from fssbench.disambig import block_mentions, cluster_block, mention_context
corpus = load_publications(sys.argv[1], YearWindow(int(sys.argv[2]), int(sys.argv[3])))
block = [mention_context(*ref) for ref in max(block_mentions(corpus).values(), key=len)]
started = time.perf_counter()
clusters = cluster_block(block)
seconds = time.perf_counter() - started
peak_kb = re.search(r"VmHWM:\\s*(\\d+) kB", Path("/proc/self/status").read_text()).group(1)
print(json.dumps({"mentions": len(block), "clusters": len(clusters), "seconds": seconds,
                  "peak_mb": int(peak_kb) / 1024}))
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_cluster_block_clusters_a_4606_mention_homonym_block_in_bounded_time_and_memory(
        tmp_path):
    # Measured on 2 cores, Python 3.11, over 5 runs: cluster_block took
    # 0.94-1.18 s and the interpreter peaked at 73.5 MB, 54 MB of it before
    # clustering. Agglomerating the block whole, without the cut at shared
    # identifiers, took 12.5-13.2 s and 534-537 MB. The bounds leave about
    # 4x and 2x headroom.
    config = SynthConfig(seed=7, n_universities=4, n_researchers=400, n_scs=4,
                         homonym_rate=1.0, orcid_missing_rate=0.5, email_missing_rate=0.5)
    files, _ = generate(config, tmp_path)
    done = subprocess.run([sys.executable, "-c", _CLUSTER_LARGEST_BLOCK,
                           str(files["publications"]), str(config.window.start),
                           str(config.window.end)],
                          env=package_env(), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    run = json.loads(done.stdout)
    assert (run["mentions"], run["clusters"]) == (4606, 604)
    assert run["seconds"] < 5.0
    assert run["peak_mb"] < 150.0
