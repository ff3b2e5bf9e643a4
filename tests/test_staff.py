import csv
import time
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fssbench.corpus import CorpusError, University, UniversityRegistry
from fssbench.disambig import AuthorCluster
from fssbench.staff import (
    FLAG_BELOW_AGE,
    FLAG_EMAIL_CONFLICT,
    FLAG_EMAIL_ORG_CONFLICT,
    FLAG_INCOHERENT_ORG,
    FLAG_NON_UNIVERSITY_EMAIL,
    FLAG_ORCID_CONFLICT,
    FLAG_SMALL_UNIVERSITY,
    FLAG_STALE,
    apply_filters,
    build_candidates,
    derive_staff,
    load_staff_csv,
    resolve_conflicts,
    write_review_queue_csv,
    write_staff_csv,
)

from reference_staff import reference_resolve_conflicts


def make_cluster(cid, org=None, email=None, orcid=None, n_pubs=2,
                 first=2005, last=2020, rid=None):
    refs = tuple((f"{cid}p{i}", 0) for i in range(n_pubs))
    return AuthorCluster(
        cluster_id=cid,
        mention_refs=refs,
        n_pubs=n_pubs,
        first_year=first,
        last_year=last,
        academic_age=last - first,
        full_name="rossi, m",
        last_name="rossi",
        first_name="maria",
        email=email,
        organization=org,
        city=None,
        country=None,
        orcid=orcid,
        researcher_id=rid,
    )


REGISTRY = UniversityRegistry([
    University("U1", ("unione.it",), ("univ one",)),
    University("U2", ("unitwo.it",), ("univ two",)),
])


# ---------------------------------------------------------------------------
# matching and coherence

def candidate(cluster):
    """(university_id, evidence, flags) of the cluster's candidate, or None."""
    cands = build_candidates([cluster], REGISTRY)
    return (cands[0].university_id, cands[0].evidence, cands[0].flags) if cands else None


def test_match_by_organization_only():
    c = make_cluster("C1", org="univ one")
    assert candidate(c) == ("U1", "organization", set())


def test_match_by_email_only():
    c = make_cluster("C1", email="m.rossi@unione.it")
    assert candidate(c) == ("U1", "email", set())


def test_match_both_in_agreement():
    c = make_cluster("C1", org="univ one", email="m.rossi@unione.it")
    assert candidate(c) == ("U1", "both", set())


def test_match_disagreement_email_wins():
    c = make_cluster("C1", org="univ one", email="m.rossi@unitwo.it")
    assert candidate(c) == ("U2", "email", {FLAG_EMAIL_ORG_CONFLICT})


def test_match_nothing():
    assert candidate(make_cluster("C1", org="research hospital")) is None
    assert candidate(make_cluster("C1", org="research hospital",
                                  email="m@gmail.com")) is None


def test_coherence_flags():
    c = make_cluster("C1", org="natl res council", email="m@unione.it")
    assert candidate(c) == ("U1", "email", {FLAG_INCOHERENT_ORG})
    c = make_cluster("C1", org="univ one", email="m@gmail.com")
    assert candidate(c) == ("U1", "organization", {FLAG_NON_UNIVERSITY_EMAIL})
    c = make_cluster("C1", org="univ one", email="m@unione.it")
    assert candidate(c) == ("U1", "both", set())


def test_build_candidates_skips_unmatched_and_sorts():
    clusters = [make_cluster("C2", org="univ one"),
                make_cluster("C1", email="a@unitwo.it"),
                make_cluster("C0", org="nowhere special")]
    cands = build_candidates(clusters, REGISTRY)
    assert [c.cluster_id for c in cands] == ["C1", "C2"]
    assert cands[0].flags == set()


# ---------------------------------------------------------------------------
# filters

def test_apply_filters_age_and_recency():
    young = build_candidates([make_cluster("C1", org="univ one",
                                           first=2018, last=2020)], REGISTRY)
    apply_filters(young, min_clusters=1, min_age=4, recency_year=2020)
    assert young[0].flags == {FLAG_BELOW_AGE}

    stale = build_candidates([make_cluster("C1", org="univ one",
                                           first=2005, last=2016)], REGISTRY)
    apply_filters(stale, min_clusters=1, min_age=4, recency_year=2020)
    assert stale[0].flags == {FLAG_STALE}


def test_small_university_cut_counts_before_other_filters():
    # U1 has two candidates; one of them is stale, but the small-university
    # count still sees both, so neither is flagged small at min_clusters=2
    clusters = [make_cluster("C1", org="univ one"),
                make_cluster("C2", org="univ one", last=2010),
                make_cluster("C3", org="univ two")]
    cands = apply_filters(build_candidates(clusters, REGISTRY),
                          min_clusters=2, min_age=4, recency_year=2020)
    flags = {c.cluster_id: c.flags for c in cands}
    assert FLAG_SMALL_UNIVERSITY not in flags["C1"]
    assert flags["C2"] == {FLAG_STALE}
    assert flags["C3"] == {FLAG_SMALL_UNIVERSITY}


# ---------------------------------------------------------------------------
# conflict resolution

def _accepted(clusters):
    return build_candidates(clusters, REGISTRY)


def test_shared_orcid_same_university_merges():
    orcid = "0000-0001-2345-6789"
    staff = resolve_conflicts(_accepted([
        make_cluster("C1", org="univ one", orcid=orcid, n_pubs=3),
        make_cluster("C2", org="univ one", orcid=orcid, n_pubs=2),
    ]))
    units = staff.members["U1"]
    assert len(units) == 1
    unit = units[0]
    assert unit.unit_id == "C1"
    assert unit.cluster_ids == ("C1", "C2")
    assert unit.n_pubs == 5                 # disjoint pub sets union
    assert staff.review_queue == []


def test_shared_email_same_university_merges():
    staff = resolve_conflicts(_accepted([
        make_cluster("C1", org="univ one", email="x@unione.it", n_pubs=10),
        make_cluster("C2", org="univ one", email="x@unione.it", n_pubs=4),
    ]))
    units = staff.members["U1"]
    assert len(units) == 1
    assert units[0].unit_id == "C1"
    assert units[0].cluster_ids == ("C1", "C2")
    assert staff.review_queue == []


def test_cross_university_email_falls_to_coherence_not_resolution():
    # the email domain pins the cluster to U1, so the org disagreement is a
    # coherence flag and the cluster never reaches conflict resolution
    staff = resolve_conflicts(_accepted([
        make_cluster("C1", org="univ one", email="x@unione.it", n_pubs=10),
        make_cluster("C2", org="univ two", email="x@unione.it", n_pubs=4),
    ]))
    assert [u.unit_id for u in staff.members["U1"]] == ["C1"]
    assert [c.cluster_id for c in staff.review_queue] == ["C2"]
    assert staff.review_queue[0].flags == {FLAG_EMAIL_ORG_CONFLICT}


def test_shared_orcid_tie_keeps_smaller_cluster_id():
    orcid = "0000-0001-2345-6789"
    staff = resolve_conflicts(_accepted([
        make_cluster("C2", org="univ two", orcid=orcid, n_pubs=4),
        make_cluster("C1", org="univ one", orcid=orcid, n_pubs=4),
    ]))
    assert [u.unit_id for u in staff.members.get("U1", [])] == ["C1"]
    assert "U2" not in staff.members
    assert [c.cluster_id for c in staff.review_queue] == ["C2"]
    assert staff.review_queue[0].flags == {FLAG_ORCID_CONFLICT}


def test_shared_email_distinct_orcids_never_merges():
    staff = resolve_conflicts(_accepted([
        make_cluster("C1", org="univ one", email="x@unione.it",
                     orcid="0000-0001-2345-6789", n_pubs=5),
        make_cluster("C2", org="univ one", email="x@unione.it",
                     orcid="0000-0002-2345-6781", n_pubs=2),
    ]))
    assert [u.unit_id for u in staff.members["U1"]] == ["C1"]
    assert [c.cluster_id for c in staff.review_queue] == ["C2"]
    assert staff.review_queue[0].flags == {FLAG_EMAIL_CONFLICT}


def test_identifier_chain_merges_transitively():
    orcid = "0000-0001-2345-6789"
    staff = resolve_conflicts(_accepted([
        make_cluster("C1", org="univ one", orcid=orcid),
        make_cluster("C2", org="univ one", orcid=orcid, email="x@unione.it"),
        make_cluster("C3", org="univ one", email="x@unione.it"),
    ]))
    units = staff.members["U1"]
    assert len(units) == 1
    assert units[0].cluster_ids == ("C1", "C2", "C3")


def test_flagged_candidates_stay_out_of_units():
    cands = _accepted([make_cluster("C1", org="univ one"),
                       make_cluster("C2", org="univ one")])
    apply_filters(cands, min_clusters=1, min_age=4, recency_year=2021)
    staff = resolve_conflicts(cands)
    assert staff.members == {}
    assert sorted(c.cluster_id for c in staff.review_queue) == ["C1", "C2"]
    assert all(c.flags == {FLAG_STALE} for c in staff.review_queue)


def test_orcid_conflict_across_universities():
    orcid = "0000-0001-2345-6789"
    staff = resolve_conflicts(_accepted([
        make_cluster("C1", org="univ one", orcid=orcid, n_pubs=8),
        make_cluster("C2", org="univ two", orcid=orcid, n_pubs=3),
    ]))
    assert [u.unit_id for u in staff.members["U1"]] == ["C1"]
    assert staff.review_queue[0].flags == {FLAG_ORCID_CONFLICT}


_POOL_ORCIDS = [None, "0000-0001-0000-0001", "0000-0002-0000-0002", "0000-0003-0000-0003"]
_POOL_EMAILS = [None, "a@unione.it", "b@unione.it", "a@unitwo.it", "b@unitwo.it", "a@gmail.com"]
_POOL_ORGS = [None, "univ one", "univ one", "univ two", "inst of stuff"]


@st.composite
def _derivations(draw):
    """Clusters from small pools of orcids, emails over three domains and
    organizations, on overlapping publications so that unit sizes tie,
    with or without the robustness filters."""
    clusters = []
    for i in range(draw(st.integers(0, 14))):
        pubs = draw(st.sets(st.sampled_from("pqrstu"), min_size=1, max_size=3))
        cluster = make_cluster(f"C{i:02d}", org=draw(st.sampled_from(_POOL_ORGS)),
                               email=draw(st.sampled_from(_POOL_EMAILS)),
                               orcid=draw(st.sampled_from(_POOL_ORCIDS)),
                               first=draw(st.sampled_from([2005, 2017])),
                               last=draw(st.sampled_from([2018, 2020])))
        clusters.append(replace(cluster, n_pubs=len(pubs),
                                mention_refs=tuple((p, 0) for p in sorted(pubs))))
    filters = draw(st.none() | st.fixed_dictionaries({
        "min_clusters": st.integers(1, 3), "min_age": st.sampled_from([0, 4]),
        "recency_year": st.sampled_from([2018, 2019])}))
    return draw(st.permutations(clusters)), filters


@settings(max_examples=600)
@given(derivation=_derivations())
def test_resolve_conflicts_equals_the_two_phase_reference(derivation):
    clusters, filters = derivation
    ours, theirs = build_candidates(clusters, REGISTRY), build_candidates(clusters, REGISTRY)
    if filters is not None:
        apply_filters(ours, **filters)
        apply_filters(theirs, **filters)
    got, want = resolve_conflicts(ours), reference_resolve_conflicts(theirs)
    assert got.members == want.members
    assert ([(c.cluster_id, c.flags) for c in got.review_queue]
            == [(c.cluster_id, c.flags) for c in want.review_queue])
    assert [c.flags for c in ours] == [c.flags for c in theirs]


def test_resolve_conflicts_scales_to_many_email_pairs():
    # the two-phase form regroups every unit after each of the 5,000 pairs
    clusters = [make_cluster(f"C{i:05d}", org="univ one", email=f"p{i // 2}@unione.it")
                for i in range(10_000)]
    started = time.perf_counter()
    staff = derive_staff(clusters, REGISTRY, recency_year=2020)
    assert time.perf_counter() - started < 5
    assert [u.cluster_ids for u in staff.members["U1"]] == [
        (f"C{i:05d}", f"C{i + 1:05d}") for i in range(0, 10_000, 2)]
    assert staff.review_queue == []


def test_resolve_conflicts_scales_to_one_email_over_many_clusters():
    # a shared mailbox: rebuilding the survivor at every merge costs n^2
    clusters = [make_cluster(f"C{i:05d}", org="univ one", email="office@unione.it")
                for i in range(10_000)]
    started = time.perf_counter()
    staff = derive_staff(clusters, REGISTRY, recency_year=2020)
    assert time.perf_counter() - started < 5
    [unit] = staff.members["U1"]
    assert unit.cluster_ids == tuple(c.cluster_id for c in clusters)
    assert unit.n_pubs == 20_000
    assert staff.review_queue == []


# ---------------------------------------------------------------------------
# end to end + writers

def test_derive_staff_end_to_end(tmp_path):
    orcid = "0000-0001-2345-6789"
    clusters = [
        make_cluster("C1", org="univ one", email="a@unione.it"),
        make_cluster("C2", org="univ one", orcid=orcid),
        make_cluster("C3", org="univ one", orcid=orcid),      # merges with C2
        make_cluster("C4", org="univ two"),                   # small university
        make_cluster("C5", org="inst of stuff"),              # incoherent
        make_cluster("C6", org="univ one", first=2019, last=2020),  # below age
    ]
    staff = derive_staff(clusters, REGISTRY, min_clusters=2, min_age=4,
                         recency_year=2020)
    assert sorted(staff.members) == ["U1"]
    assert [u.unit_id for u in staff.members["U1"]] == ["C1", "C2"]
    queued = {c.cluster_id: c.flags for c in staff.review_queue}
    assert queued == {"C4": {FLAG_SMALL_UNIVERSITY},
                      "C6": {FLAG_BELOW_AGE}}

    staff_path = tmp_path / "staff.csv"
    queue_path = tmp_path / "queue.csv"
    write_staff_csv(staff, staff_path)
    write_review_queue_csv(staff, queue_path)
    with staff_path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["cluster_id"] for r in rows] == ["C1", "C2"]
    assert rows[1]["member_cluster_ids"] == "C2;C3"
    loaded = load_staff_csv(staff_path, clusters)
    assert loaded.all_units() == staff.all_units()
    assert loaded.review_queue == []
    with queue_path.open(newline="") as fh:
        qrows = list(csv.DictReader(fh))
    assert [r["cluster_id"] for r in qrows] == ["C4", "C6"]
    assert qrows[0]["flags"] == FLAG_SMALL_UNIVERSITY


def test_staff_csv_round_trips_a_merge_over_one_orcid_with_distinct_emails(tmp_path):
    orcid = "0000-0001-2345-6789"
    clusters = [
        make_cluster("C2", org="univ one", email="b@unione.it", orcid=orcid, n_pubs=2),
        make_cluster("C1", email="a@unione.it", orcid=orcid, n_pubs=3),
        make_cluster("C3", org="univ one"),
    ]
    derived = derive_staff(clusters, REGISTRY, min_clusters=1, recency_year=2020)
    merged, single = derived.members["U1"]
    assert merged.unit_id == "C1"
    assert merged.cluster_ids == ("C1", "C2")
    assert merged.evidence == "both"        # the survivor C1 has email evidence
    assert merged.emails == ("a@unione.it", "b@unione.it")
    assert merged.orcid == orcid
    assert merged.n_pubs == 5
    assert single.cluster_ids == ("C3",)
    path = tmp_path / "staff.csv"
    write_staff_csv(derived, path)
    assert load_staff_csv(path, clusters).all_units() == derived.all_units()


def test_load_staff_csv_refuses_unit_id_not_smallest_member(tmp_path):
    clusters = [make_cluster("C1", org="univ one"), make_cluster("C2", org="univ one")]
    path = tmp_path / "staff.csv"
    path.write_text("university_id,cluster_id,evidence,n_pubs,member_cluster_ids\n"
                    "U1,C2,organization,4,C1;C2\n", encoding="utf-8")
    with pytest.raises(CorpusError, match="^staff.csv line 2: cluster_id C2 is not the "
                                          "smallest of member_cluster_ids$"):
        load_staff_csv(path, clusters)


@pytest.mark.parametrize("rows, line", [
    ("U1,C1,organization,2,C1\nU1,C2,organization,2,C2\nU1,C1,organization,2,C1\n", 4),
    ("U1,C1,organization,2,C1\nU1,C2,organization,4,C2;C1\n", 3),
    ("U1,C1,organization,4,C1;C1\n", 2),
])
def test_load_staff_csv_refuses_a_cluster_listed_twice(tmp_path, rows, line):
    clusters = [make_cluster("C1", org="univ one"), make_cluster("C2", org="univ one")]
    path = tmp_path / "staff.csv"
    path.write_text("university_id,cluster_id,evidence,n_pubs,member_cluster_ids\n" + rows,
                    encoding="utf-8")
    with pytest.raises(CorpusError, match=f"^staff.csv line {line}: cluster C1 already "
                                          "listed on line 2$"):
        load_staff_csv(path, clusters)


def test_load_staff_csv_refuses_a_unit_without_a_university(tmp_path):
    path = tmp_path / "staff.csv"
    path.write_text("university_id,cluster_id,evidence,n_pubs,member_cluster_ids\n"
                    ",C1,organization,2,C1\n", encoding="utf-8")
    with pytest.raises(CorpusError, match="^staff.csv line 2: unit C1 has no university_id$"):
        load_staff_csv(path, [make_cluster("C1", org="univ one")])


def test_derive_staff_requires_recency_year():
    clusters = [make_cluster("C1", org="univ one")]
    with pytest.raises(TypeError, match="recency_year"):
        derive_staff(clusters, REGISTRY)
    with pytest.raises(TypeError):
        derive_staff(clusters, REGISTRY, 1, 4, 2020)
    with pytest.raises(TypeError):
        apply_filters(build_candidates(clusters, REGISTRY))
