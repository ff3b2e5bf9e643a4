import math
import struct
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fssbench.corpus import Corpus, CorpusError, YearWindow, load_publications
from fssbench.disambig import (
    DEFAULT_RULES,
    NEVER_MERGE,
    MentionContext,
    ScoringRules,
    block_key,
    block_mentions,
    cluster_block,
    cluster_corpus,
    load_clusters_jsonl,
    load_rules,
    mention_contexts,
    pairwise_metrics,
    score_pair,
    summarize_cluster,
    write_clusters_jsonl,
)
from fssbench.synth import SynthConfig, generate

import reference_clustering as reference
from conftest import WINDOW, corpus_of, record
from reference_clustering import reference_cluster_block


def ctx(pub_id, names, pos=0, year=2016, scs=("SC1",), journal="j", **kw):
    rec = record(pub_id, year, names, list(scs), journal=journal, **kw)
    return mention_contexts(rec)[pos]


# ---------------------------------------------------------------------------
# pair scoring

def test_score_pair_orcid_match():
    a = ctx("W1", ["rossi, maria"], orcid="0000-0001-2345-6789")
    b = ctx("W2", ["rossi, m"], orcid="0000-0001-2345-6789", journal="other")
    s = score_pair(a, b)
    assert s >= DEFAULT_RULES.orcid


def test_score_pair_distinct_orcids_never_merge():
    a = ctx("W1", ["rossi, maria"], orcid="0000-0001-2345-6789")
    b = ctx("W2", ["rossi, maria"], orcid="0000-0002-2345-6781")
    assert score_pair(a, b) == NEVER_MERGE
    assert math.isinf(NEVER_MERGE)


def test_score_pair_same_publication_raises():
    rec = record("W1", 2016, ["rossi, m", "rossi, maria"], ["SC1"])
    a, b = mention_contexts(rec)
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
    assert score_pair(a, b) == DEFAULT_RULES.subject_category
    assert score_pair(c, d) == DEFAULT_RULES.subject_category + DEFAULT_RULES.first_name


def test_score_pair_sc_overlap_counts_once():
    a = ctx("W1", ["rossi, m"], scs=("SC1", "SC2"), journal="ja")
    b = ctx("W2", ["rossi, m"], scs=("SC1", "SC2"), journal="jb")
    assert score_pair(a, b) == DEFAULT_RULES.subject_category


def test_scoring_rules_validation():
    with pytest.raises(ValueError):
        ScoringRules(merge_threshold=0)
    with pytest.raises(ValueError):
        ScoringRules(orcid=float("nan"))


def test_load_rules_overrides_and_unknown_keys(tmp_path, caplog):
    path = tmp_path / "rules.cfg"
    path.write_text("merge_threshold = 75\nemail=40\nmystery = 1\n# comment\n",
                    encoding="utf-8")
    rules = load_rules(path)
    assert rules.merge_threshold == 75
    assert rules.email == 40
    assert rules.orcid == DEFAULT_RULES.orcid
    assert any("mystery" in r.getMessage() for r in caplog.records)


def test_load_rules_bad_value(tmp_path):
    path = tmp_path / "rules.cfg"
    path.write_text("email = lots\n", encoding="utf-8")
    with pytest.raises(CorpusError, match="email"):
        load_rules(path)


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
    assert [c.ref for c in blocks["rossi|m"]] == [("W1", 0), ("W2", 0)]


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
        summarize_cluster(mention_contexts(rec))
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
    a, b = mention_contexts(rec)
    clusters = cluster_block([a, b])
    assert len(clusters) == 2


def test_cluster_block_publication_overlap_blocks_transitive_merge():
    # x and y merge; z shares a pub with x, so even a strong z-y link cannot
    # pull z into the merged cluster
    shared = record("W1", 2016, ["rossi, m", "rossi, maria"], ["SC1"],
                    email="m@x.it")
    x, z = mention_contexts(shared)
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


def test_pairwise_metrics_hand_example():
    truth = {"A": {("W1", 0), ("W2", 0), ("W3", 0)}, "B": {("W4", 0)}}
    predicted = [{("W1", 0), ("W2", 0)}, {("W3", 0), ("W4", 0)}]
    p, r, f = pairwise_metrics(predicted, truth)
    assert p == pytest.approx(0.5)       # 1 of 2 predicted pairs correct
    assert r == pytest.approx(1 / 3)     # 1 of 3 true pairs found
    assert f == pytest.approx(0.4)


def test_pairwise_metrics_perfect_and_degenerate():
    part = {"A": {("W1", 0), ("W2", 0)}}
    assert pairwise_metrics(part, part) == (1.0, 1.0, 1.0)
    singletons = [{("W1", 0)}, {("W2", 0)}]
    assert pairwise_metrics(singletons, singletons) == (1.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# agglomeration against the dense reference

_POOL_PUBS = [f"W{i}" for i in range(8)]
_POOL_ORCIDS = [None, None, "0000-0001-0000-0001", "0000-0002-0000-0002"]
# few distinct values, so that sums tie and averages land on the threshold
_WEIGHTS = st.one_of(st.sampled_from([0.0, 0.0, -10.0, 10.0, 25.0, 50.0, 100.0]),
                     st.floats(-120, 120, allow_nan=False))
_THRESHOLDS = st.one_of(st.sampled_from([10.0, 25.0, 50.0]),
                        st.floats(0.01, 150, allow_nan=False))


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


_RULES = st.builds(ScoringRules, orcid=_WEIGHTS, researcher_id=_WEIGHTS, email=_WEIGHTS,
                   coauthor=_WEIGHTS, organization=_WEIGHTS, journal=_WEIGHTS,
                   subject_category=_WEIGHTS, first_name=_WEIGHTS,
                   merge_threshold=_THRESHOLDS)


@settings(max_examples=200)
@given(block=_blocks(), rules=_RULES)
def test_cluster_block_equals_dense_reference(block, rules):
    assert cluster_block(block, rules) == reference_cluster_block(block, rules)


# ---------------------------------------------------------------------------
# scoring, summaries and mention contexts against their earlier forms

_SCORE_WEIGHTS = st.one_of(
    st.sampled_from([0.0, -0.0, 10.0, -10.0, 25.0, -25.0, 1e308, -1e308]),
    st.floats(-1e308, 1e308, allow_nan=False, allow_infinity=False))
_SCORE_RULES = st.builds(ScoringRules, orcid=_SCORE_WEIGHTS, researcher_id=_SCORE_WEIGHTS,
                         email=_SCORE_WEIGHTS, coauthor=_SCORE_WEIGHTS,
                         organization=_SCORE_WEIGHTS, journal=_SCORE_WEIGHTS,
                         subject_category=_SCORE_WEIGHTS, first_name=_SCORE_WEIGHTS,
                         merge_threshold=st.floats(0.01, 150))


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
@given(a=_mentions("W1"), b=_mentions("W2"), rules=_SCORE_RULES)
def test_score_pair_equals_the_reference_bit_for_bit(a, b, rules):
    # bits, so that -0.0 differs from 0.0 and a NaN from an overflow compares
    assert _bits(score_pair(a, b, rules)) == _bits(reference.score_pair(a, b, rules))
    assert _bits(score_pair(b, a, rules)) == _bits(reference.score_pair(b, a, rules))


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
def test_mention_contexts_coauthors_are_the_other_surnames(names):
    contexts = mention_contexts(record("W1", 2016, [f"{n}, m" for n in names], ["SC1"]))
    for pos, c in enumerate(contexts):
        assert c.coauthor_last_names == frozenset(n for i, n in enumerate(names) if i != pos)


def test_overflowing_score_is_a_hard_conflict_like_the_reference():
    # a-b overflows to the never-merge score without any ORCID; after a and
    # c merge, the average with b alone would clear the threshold
    rules = ScoringRules(coauthor=-1e308, email=100, organization=100, journal=0,
                         subject_category=0)
    a = ctx("W1", ["rossi, m", "verdi, a", "neri, b"], organization="u")
    c = ctx("W2", ["rossi, m"], organization="u", email="m@x.it")
    b = ctx("W3", ["rossi, m", "verdi, a", "neri, b"], email="m@x.it")
    assert score_pair(a, b, rules) == NEVER_MERGE
    clusters = cluster_block([a, b, c], rules)
    assert clusters == reference_cluster_block([a, b, c], rules)
    assert [cl.mention_refs for cl in clusters] == [(("W1", 0), ("W2", 0)), (("W3", 0),)]


def test_cluster_block_scales_to_a_large_homonym_block(tmp_path):
    # every faculty member shares one surname and initial; the dense rescan
    # would take minutes on a block this size
    config = SynthConfig(seed=7, n_universities=4, n_researchers=150, n_scs=4,
                         homonym_rate=1.0, orcid_missing_rate=0.5, email_missing_rate=0.5)
    files, _ = generate(config, tmp_path)
    blocks = block_mentions(load_publications(files["publications"], config.window))
    block = max(blocks.values(), key=len)[:1600]
    assert len(block) == 1600
    started = time.perf_counter()
    clusters = cluster_block(block)
    assert time.perf_counter() - started < 30
    assert sorted(ref for c in clusters for ref in c.mention_refs) == [c.ref for c in block]
    assert len(clusters) < len(block) / 2
