"""Derive each university's research staff from author clusters.

A cluster becomes a staff candidate when its prevailing organization
matches a registered name variant or its email lands in a registered
domain; ``build_candidates`` looks each up once and derives the
university, the evidence and the coherence flags from the two answers
(organization that is no known university, email outside every
university, email and organization pointing at different universities).
Size, age and recency filters follow, then a deterministic resolution of
clusters sharing an orcid or email. A candidate is accepted exactly when
its flag set is empty; every rejected candidate carries the flags naming
the rules that fired. Every staff unit, whether one accepted cluster, a
merge or a row of staff.csv, is built from its member clusters by
``_unit``.
"""

from __future__ import annotations

import heapq
import logging
from dataclasses import dataclass, field
from pathlib import Path

from .corpus import (DEFAULT_MIN_AGE, DEFAULT_MIN_CLUSTERS, CorpusError, UniversityRegistry,
                     listed_once, read_csv, write_csv)
from .disambig import AuthorCluster

log = logging.getLogger(__name__)

FLAG_INCOHERENT_ORG = "incoherent_org"
FLAG_NON_UNIVERSITY_EMAIL = "non_university_email"
FLAG_EMAIL_ORG_CONFLICT = "email_org_conflict"
FLAG_ORCID_CONFLICT = "orcid_conflict"
FLAG_EMAIL_CONFLICT = "email_conflict"
FLAG_BELOW_AGE = "below_age"
FLAG_STALE = "stale"
FLAG_SMALL_UNIVERSITY = "excluded_small_university"


@dataclass
class StaffCandidate:
    """A cluster tentatively attached to a university. Accepted iff
    ``flags`` is empty."""

    cluster: AuthorCluster
    university_id: str
    evidence: str                      # organization | email | both
    flags: set[str] = field(default_factory=set)

    @property
    def cluster_id(self) -> str:
        return self.cluster.cluster_id

    @property
    def accepted(self) -> bool:
        return not self.flags


@dataclass
class StaffUnit:
    """One accepted staff member; usually one cluster, more after merges."""

    unit_id: str                       # smallest member cluster_id
    university_id: str
    evidence: str
    cluster_ids: tuple[str, ...]
    pub_ids: frozenset[str]
    orcid: str | None
    emails: tuple[str, ...]

    @property
    def n_pubs(self) -> int:
        return len(self.pub_ids)


@dataclass
class DerivedStaff:
    """Accepted staff per university plus the queue of flagged candidates
    (the machine stand-in for manual adjudication)."""

    members: dict[str, list[StaffUnit]]
    review_queue: list[StaffCandidate]

    def all_units(self) -> list[StaffUnit]:
        return [u for uid in sorted(self.members) for u in self.members[uid]]


def build_candidates(clusters: list[AuthorCluster],
                     registry: UniversityRegistry) -> list[StaffCandidate]:
    """Match clusters to universities and attach coherence flags.

    Each cluster's organization and email are looked up once in the
    registry. A cluster matching neither is no candidate. Otherwise:

    * university: the email's match when there is one (the domain
      convention is the higher-trust signal), else the organization's.
    * evidence: ``both`` when the two matches agree, ``email`` when the
      email matched, ``organization`` when only the organization did.
    * incoherent_org: the cluster names an organization, but it is no
      registered university variant.
    * non_university_email: the cluster has an email outside every
      registered domain.
    * email_org_conflict: organization and email match different
      universities.
    """
    out = []
    for cluster in sorted(clusters, key=lambda c: c.cluster_id):
        by_org = registry.match_organization(cluster.organization)
        by_email = registry.match_email(cluster.email)
        if by_email is not None:
            university_id = by_email
            evidence = "both" if by_org == by_email else "email"
        elif by_org is not None:
            university_id, evidence = by_org, "organization"
        else:
            continue
        flags: set[str] = set()
        if cluster.organization and by_org is None:
            flags.add(FLAG_INCOHERENT_ORG)
        if cluster.email and by_email is None:
            flags.add(FLAG_NON_UNIVERSITY_EMAIL)
        if by_org not in (None, university_id):
            flags.add(FLAG_EMAIL_ORG_CONFLICT)
        out.append(StaffCandidate(cluster=cluster, university_id=university_id,
                                  evidence=evidence, flags=flags))
    return out


def apply_filters(candidates: list[StaffCandidate], min_clusters: int, min_age: int,
                  recency_year: int) -> list[StaffCandidate]:
    """Flag candidates failing the robustness filters (in place, returned
    for chaining).

    The small-university cut counts every matched candidate of the
    university, before any other filter: the cut happens right after the
    first extraction, ahead of the quality-control steps.
    """
    per_university: dict[str, int] = {}
    for cand in candidates:
        per_university[cand.university_id] = per_university.get(cand.university_id, 0) + 1
    for cand in candidates:
        if cand.cluster.academic_age < min_age:
            cand.flags.add(FLAG_BELOW_AGE)
        if cand.cluster.last_year < recency_year:
            cand.flags.add(FLAG_STALE)
        if per_university[cand.university_id] < min_clusters:
            cand.flags.add(FLAG_SMALL_UNIVERSITY)
    return candidates


def _unit(clusters: list[AuthorCluster], university_id: str, evidence: str) -> StaffUnit:
    """The staff unit made of ``clusters``; its id is their smallest cluster_id."""
    cluster_ids = tuple(sorted(c.cluster_id for c in clusters))
    return StaffUnit(
        unit_id=cluster_ids[0],
        university_id=university_id,
        evidence=evidence,
        cluster_ids=cluster_ids,
        pub_ids=frozenset().union(*(c.pub_ids for c in clusters)),
        orcid=next((c.orcid for c in clusters if c.orcid), None),
        emails=tuple(sorted({c.email for c in clusters if c.email})),
    )


@dataclass(eq=False)
class _Growing:
    """A unit that merges grow in place; hashed by identity, as its unit_id changes."""

    unit_id: str
    university_id: str
    evidence: str
    candidates: list[StaffCandidate]
    pub_ids: set[str]
    orcid: str | None
    emails: set[str]

    def keys(self) -> list[tuple[int, str]]:
        return ([(0, self.orcid)] if self.orcid else []) + [(1, e) for e in self.emails]


def resolve_conflicts(candidates: list[StaffCandidate]) -> DerivedStaff:
    """Resolve accepted clusters sharing an orcid or email.

    The smallest identifier held by two or more units goes next, every
    orcid before any email. Its holder with the most publications (then
    the smallest unit_id) survives; each other holder, in that order, is
    queued with orcid_conflict/email_conflict if it is of another
    university or has a distinct orcid, else merged into the survivor
    (evidence kept when equal, else ``both``). Flagged candidates go to
    the review queue untouched. An identifier index, a heap and survivors
    grown in place make the cost linear in clusters, plus sorting holders.
    """
    review = [c for c in candidates if not c.accepted]
    live: set[_Growing] = set()
    holders: dict[tuple[int, str], set[_Growing]] = {}
    pending: list[tuple[int, str]] = []
    for cand in candidates:
        if cand.accepted:
            c = cand.cluster
            unit = _Growing(c.cluster_id, cand.university_id, cand.evidence, [cand],
                            set(c.pub_ids), c.orcid, {c.email} if c.email else set())
            live.add(unit)
            for key in unit.keys():
                held = holders.setdefault(key, set())
                held.add(unit)
                if len(held) == 2:
                    heapq.heappush(pending, key)
    # a merge only moves keys from the absorbed unit to the survivor, so no
    # key gains a holder after this point and none needs pushing again
    while pending:
        key = heapq.heappop(pending)
        if len(holders[key]) < 2:
            continue
        survivor, *rest = sorted(holders[key], key=lambda u: (-len(u.pub_ids), u.unit_id))
        flag = FLAG_EMAIL_CONFLICT if key[0] else FLAG_ORCID_CONFLICT
        for other in rest:
            live.remove(other)
            merge = (other.university_id == survivor.university_id
                     and len({survivor.orcid, other.orcid} - {None}) < 2)
            for other_key in other.keys():
                holders[other_key].discard(other)
                if merge:
                    holders[other_key].add(survivor)
            if merge:
                survivor.unit_id = min(survivor.unit_id, other.unit_id)
                if survivor.evidence != other.evidence:
                    survivor.evidence = "both"
                survivor.candidates += other.candidates
                survivor.pub_ids |= other.pub_ids
                survivor.orcid = survivor.orcid or other.orcid
                survivor.emails |= other.emails
            else:
                for cand in other.candidates:
                    cand.flags.add(flag)
                review += other.candidates
    members: dict[str, list[StaffUnit]] = {}
    for unit in sorted(live, key=lambda u: u.unit_id):
        members.setdefault(unit.university_id, []).append(
            _unit([c.cluster for c in unit.candidates], unit.university_id, unit.evidence))
    review.sort(key=lambda c: c.cluster_id)
    return DerivedStaff(members=members, review_queue=review)


def derive_staff(clusters: list[AuthorCluster],
                 registry: UniversityRegistry,
                 min_clusters: int = DEFAULT_MIN_CLUSTERS,
                 min_age: int = DEFAULT_MIN_AGE,
                 *, recency_year: int) -> DerivedStaff:
    """Full unsupervised staff derivation: match, check, filter, resolve.

    ``recency_year`` has no default: a cluster last active before it is
    flagged stale, and the right year is the last year of the corpus's
    observation window (the CLI's ``--recency`` default). A fixed year
    later than that window flags every cluster.
    """
    candidates = build_candidates(clusters, registry)
    apply_filters(candidates, min_clusters=min_clusters, min_age=min_age,
                  recency_year=recency_year)
    return resolve_conflicts(candidates)


#: Columns of staff.csv; load_staff_csv reads all but n_pubs.
STAFF_COLUMNS = ("university_id", "cluster_id", "evidence", "n_pubs", "member_cluster_ids")


def write_staff_csv(staff: DerivedStaff, path: str | Path) -> None:
    write_csv(path, STAFF_COLUMNS,
              ([unit.university_id, unit.unit_id, unit.evidence, unit.n_pubs,
                ";".join(unit.cluster_ids)] for unit in staff.all_units()))


def load_staff_csv(path: str | Path, clusters: list[AuthorCluster]) -> DerivedStaff:
    """Read staff.csv back into staff units.

    Each unit's publications, orcid and emails come from its member
    clusters, so the clusters must be those the staff was derived from. A
    unit without a university_id, or a cluster listed twice, in two rows or
    in one, is refused. The review queue is not stored and comes back empty.
    """
    by_id = {c.cluster_id: c for c in clusters}
    listed: dict[str, int] = {}
    members: dict[str, list[StaffUnit]] = {}
    required = tuple(c for c in STAFF_COLUMNS if c != "n_pubs")
    for where, row in read_csv(path, required, ("n_pubs",)):
        if not row["university_id"]:
            raise CorpusError(f"{where}: unit {row['cluster_id']} has no university_id")
        ids = row["member_cluster_ids"].split(";")
        for cid in ids:
            if not cid:
                raise CorpusError(f"{where}: empty id in member_cluster_ids")
            if cid not in by_id:
                raise CorpusError(f"{Path(path).name} references unknown cluster "
                                  f"{cid}; run `disambiguate` first")
            listed_once(listed, cid, where, f"cluster {cid}")
        unit = _unit([by_id[cid] for cid in ids], row["university_id"], row["evidence"])
        if unit.unit_id != row["cluster_id"]:
            raise CorpusError(f"{where}: cluster_id {row['cluster_id']} is not the "
                              f"smallest of member_cluster_ids")
        members.setdefault(row["university_id"], []).append(unit)
    return DerivedStaff(members=members, review_queue=[])


def write_review_queue_csv(staff: DerivedStaff, path: str | Path) -> None:
    write_csv(path, ("cluster_id", "flags", "details"),
              ([cand.cluster_id, ";".join(sorted(cand.flags)),
                f"university={cand.university_id} evidence={cand.evidence} "
                f"n_pubs={cand.cluster.n_pubs} age={cand.cluster.academic_age} "
                f"last_year={cand.cluster.last_year}"]
               for cand in staff.review_queue))
