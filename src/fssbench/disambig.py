"""Rule-based author-name clustering.

Mentions are blocked by (normalized last name, first initial), scored
pairwise on metadata evidence, and agglomerated greedily with average
linkage. Agglomeration keeps only the nonzero pair sums, one dict per
cluster, and takes merges from a heap of candidate pairs whose average
clears the threshold, dropping stale entries as they surface. Two clusters
that share a publication or carry distinct ORCIDs never merge. Beyond
scoring pairs, a block costs about O(P log P) for P nonzero pair sums, not
the O(n^3) of rescanning all pairs after each merge. A complete block, one
whose every pair clears the threshold, is one cluster without any
agglomeration. Most blocks of a national corpus hold one person and are
complete.

A block of 32 mentions or more, such as one common surname and initial
shared by many people, is first cut at shared identifiers into parts that
no merge can cross, and only the pairs within a part are scored: a
530-mention homonym block takes 6,391 pair scores instead of 140,185, and
a 4,606-mention one clusters in about 1 s instead of 11-13 s.

Blocks hold their mentions as (record, position) references. A mention's
scoring context is built only while its block is clustered, so memory
holds the corpus, one block's contexts and that block's nonzero pair sums,
and the clusters made so far: never every mention's context at once.

Each resulting cluster is a proto-individual summarized in the
same field layout as the reference cluster schema; ``_CLUSTER_FIELDS``
lists its fields, the keys of each ``clusters.jsonl`` line.

The evidence weights (``ORCID_WEIGHT`` to ``FIRST_NAME_WEIGHT``) are
constants of the method, in the manner of the fixed evidence scores of
rule-based disambiguation (Caron and van Eck, 2014), not a
reimplementation of any published algorithm's internal weights. The one
value a library caller may vary is the merge threshold, through
``ScoringRules``; ``DEFAULT_RULES`` holds the default of 50.

Known limitation, by design: one real person can come out split over
several clusters (initials-only mentions with no shared identifiers).
No repair pass is attempted; precision is favoured over recall.
"""

from __future__ import annotations

import heapq
import json
import logging
import math
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path

from .corpus import (Corpus, CorpusError, PublicationRecord, first_initial, listed_once,
                     read_jsonl, required_text, text_or_none, whole_number, write_jsonl)

log = logging.getLogger(__name__)

#: Sort key of a mention: its ref, (pub_id, position).
_BY_REF = attrgetter("pub_id", "position")
#: The fields a cluster summary reads from each mention.
_SUMMARY_FIELDS = attrgetter("pub_id", "position", "year", "orcid", "researcher_id",
                             "last_name", "first_name", "email", "organization", "city",
                             "country")

#: Sentinel for a hard conflict (two distinct ORCIDs): never merge.
NEVER_MERGE = float("-inf")


#: The score two mentions of one name block add for each kind of evidence
#: they share. Whole numbers, so that every pair score is one, kept as
#: floats: ``score_pair`` then adds floats alone, and ``cluster_corpus`` on
#: the ten ``seed-sweep-s`` worlds ran 4 % faster than with ints (2 cores,
#: Python 3.11).
ORCID_WEIGHT = 100.0
RESEARCHER_ID_WEIGHT = 100.0
EMAIL_WEIGHT = 90.0
COAUTHOR_WEIGHT = 25.0          # per shared co-author last name
ORGANIZATION_WEIGHT = 15.0
JOURNAL_WEIGHT = 10.0
SUBJECT_CATEGORY_WEIGHT = 10.0  # any overlap, counted once
FIRST_NAME_WEIGHT = 10.0        # full first names (not initials) equal

#: The most a pair can score without sharing an identifier or a co-author
#: surname: the organization, journal, subject-category and first-name
#: weights together (45).
_WEAK_SUM = ORGANIZATION_WEIGHT + JOURNAL_WEIGHT + SUBJECT_CATEGORY_WEIGHT + FIRST_NAME_WEIGHT
#: The most a pair can score but its co-author term (335).
_MOST_BUT_COAUTHORS = ORCID_WEIGHT + RESEARCHER_ID_WEIGHT + EMAIL_WEIGHT + _WEAK_SUM


@dataclass(frozen=True)
class ScoringRules:
    """The merge threshold: two clusters merge while the average score of
    their mention pairs is at least this."""

    merge_threshold: float = 50.0

    def __post_init__(self):
        if not math.isfinite(self.merge_threshold) or self.merge_threshold <= 0:
            raise ValueError("merge_threshold must be finite and > 0")


DEFAULT_RULES = ScoringRules()


@dataclass(slots=True)
class MentionContext:
    """One byline mention with the publication context scoring needs."""

    pub_id: str
    position: int
    last_name: str
    first_name: str
    email: str | None
    orcid: str | None
    researcher_id: str | None
    organization: str | None
    city: str | None
    country: str | None
    journal: str
    year: int
    subject_categories: frozenset[str]
    coauthor_last_names: frozenset[str]
    #: First token of the given name when it is a full name (at least two
    #: letters), not an initial. Set by __post_init__, read by score_pair
    #: for every pair.
    full_first: str | None = field(init=False, repr=False, compare=False)

    @property
    def ref(self) -> tuple[str, int]:
        return (self.pub_id, self.position)

    def __post_init__(self) -> None:
        token = self.first_name.split(" ", 1)[0] if self.first_name else ""
        self.full_first = token if len(token) >= 2 else None


def mention_context(record: PublicationRecord, position: int) -> MentionContext:
    """The context of the mention at ``position`` on ``record``'s byline.

    Its co-authors are the surnames of the byline's other mentions: a
    surname shared with another author on the byline stays a co-author.
    """
    m = record.mentions[position]
    others = [o.last_name for o in record.mentions]
    del others[position]
    # positional, in field order: one context is built per mention, and
    # keywords cost each build about a microsecond more
    return MentionContext(record.pub_id, position, m.last_name, m.first_name, m.email,
                          m.orcid, m.researcher_id, m.organization, m.city, m.country,
                          record.journal, record.year,
                          frozenset(record.subject_categories), frozenset(others))


def block_key(last_name: str, first_name: str) -> str:
    return f"{last_name}|{first_initial(first_name)}"


def block_mentions(corpus: Corpus) -> dict[str, list[tuple[PublicationRecord, int]]]:
    """Partition all mentions into blocks keyed by last name + first initial.

    Mentions in different blocks are never compared. Each block lists its
    mentions as (record, position) references, in canonical (pub_id,
    position) order: the corpus keeps its records in pub_id order. A
    reference holds no context of its own, so the blocks cost one small
    tuple per mention on top of the corpus.
    """
    blocks: dict[str, list[tuple[PublicationRecord, int]]] = {}
    for record in corpus:
        for pos, m in enumerate(record.mentions):
            blocks.setdefault(block_key(m.last_name, m.first_name), []).append((record, pos))
    return blocks


def score_pair(a: MentionContext, b: MentionContext) -> float:
    """Evidence score for "a and b are the same person".

    Sum of the weights of the satisfied evidence kinds; per-shared-co-author
    weight counts multiplicity. Two distinct ORCIDs are a hard conflict and
    return the never-merge sentinel. Symmetric in its arguments.
    """
    if a.pub_id == b.pub_id:
        raise ValueError(
            f"mentions {a.ref} and {b.ref} are on the same byline and cannot "
            "be the same person")
    if a.orcid is not None and b.orcid is not None and a.orcid != b.orcid:
        return NEVER_MERGE
    score = 0.0
    if a.orcid is not None and a.orcid == b.orcid:
        score += ORCID_WEIGHT
    if a.researcher_id is not None and a.researcher_id == b.researcher_id:
        score += RESEARCHER_ID_WEIGHT
    if a.email is not None and a.email == b.email:
        score += EMAIL_WEIGHT
    if not a.coauthor_last_names.isdisjoint(b.coauthor_last_names):
        score += COAUTHOR_WEIGHT * len(a.coauthor_last_names & b.coauthor_last_names)
    if a.organization is not None and a.organization == b.organization:
        score += ORGANIZATION_WEIGHT
    if a.journal and a.journal == b.journal:
        score += JOURNAL_WEIGHT
    if not a.subject_categories.isdisjoint(b.subject_categories):
        score += SUBJECT_CATEGORY_WEIGHT
    if a.full_first is not None and a.full_first == b.full_first:
        score += FIRST_NAME_WEIGHT
    return score


@dataclass(frozen=True)
class AuthorCluster:
    """A proto-individual: mentions plus the summary shown in the cluster
    schema. ``academic_age`` = last_year - first_year."""

    cluster_id: str
    mention_refs: tuple[tuple[str, int], ...]
    n_pubs: int
    first_year: int
    last_year: int
    academic_age: int
    full_name: str
    last_name: str
    first_name: str
    email: str | None
    organization: str | None
    city: str | None
    country: str | None
    orcid: str | None
    researcher_id: str | None

    @property
    def pub_ids(self) -> frozenset[str]:
        return frozenset(ref[0] for ref in self.mention_refs)

    def to_dict(self) -> dict:
        """The cluster as a ``clusters.jsonl`` object, keys in file order."""
        return {key: getattr(self, attr) for key, attr, _ in _CLUSTER_FIELDS}


def _modal(values: Sequence[str | None]) -> str | None:
    """Most frequent non-empty value; ties go to the lexicographically
    smaller one."""
    if values.count(values[0]) == len(values):
        return values[0] or None
    counts: dict[str, int] = {}
    for v in values:
        if v:
            counts[v] = counts.get(v, 0) + 1
    if not counts:
        return None
    return min(counts, key=lambda v: (-counts[v], v))


#: ``summarize_cluster``'s refusal, which ``load_clusters_jsonl`` shares.
_ONE_PUBLICATION = "cluster contains two mentions from one publication"


def summarize_cluster(members: list[MentionContext]) -> AuthorCluster:
    """Build the cluster summary for one set of mentions.

    Modal email/organization/city/country (ties broken lexicographically),
    orcid and researcher_id only when a unique value occurs, longest first
    name, and the year span of the member publications.
    """
    if not members:
        raise ValueError("cannot summarize an empty mention set")
    members = sorted(members, key=_BY_REF)
    (pub_ids, positions, years, orcids, rids, last_names, first_names,
     emails, organizations, cities, countries) = zip(*map(_SUMMARY_FIELDS, members))
    n_pubs = len(set(pub_ids))
    if n_pubs != len(members):
        raise CorpusError(_ONE_PUBLICATION)
    orcids = sorted(set(orcids) - {None})
    if len(orcids) > 1:
        raise CorpusError(f"cluster mixes distinct orcids {orcids}")
    rids = set(rids) - {None}
    first_year, last_year = min(years), max(years)
    last_name = _modal(last_names) or last_names[0]
    # the longest first name; among equally long ones the smallest
    longest = max(map(len, first_names))
    first_name = min(n for n in first_names if len(n) == longest)
    initials = "".join(tok[0] for tok in first_name.split() if tok)
    # positional, in field order, as in mention_context
    return AuthorCluster(f"{pub_ids[0]}:{positions[0]}", tuple(zip(pub_ids, positions)),
                         n_pubs, first_year, last_year, last_year - first_year,
                         f"{last_name}, {initials}" if initials else last_name,
                         last_name, first_name, _modal(emails), _modal(organizations),
                         _modal(cities), _modal(countries), orcids[0] if orcids else None,
                         next(iter(rids)) if len(rids) == 1 else None)


#: Below this total, sums of whole-number scores are exact in floating point.
_EXACT_SUMS = 2.0 ** 53


def _distinct(x: str | None, y: str | None) -> bool:
    """Both identifiers present and different: a hard conflict for ORCIDs."""
    return x is not None and y is not None and x != y


#: Blocks of fewer mentions are agglomerated whole; ``cluster_block`` gives
#: the measurements behind the figure.
_SPLIT_FLOOR = 32


def _split(ctxs: list[MentionContext], threshold: float) -> list[list[MentionContext]]:
    """A sorted block cut into parts that no merge can cross, each sorted,
    as ``cluster_block`` describes; one part, ``[ctxs]``, where the block is
    agglomerated whole. Parts are kept as a union-find forest whose roots
    are their lowest indices, so they come out in canonical order.
    """
    n = len(ctxs)
    if n < _SPLIT_FLOOR or threshold <= _WEAK_SUM:
        return [ctxs]
    # the largest score a pair can take among these mentions
    most = _MOST_BUT_COAUTHORS + COAUTHOR_WEIGHT * max(len(c.coauthor_last_names) for c in ctxs)
    if most * (n * (n - 1) // 2) >= _EXACT_SUMS:
        return [ctxs]
    root = list(range(n))

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = i = root[root[i]]
        return i

    def join(i: int, j: int) -> bool:
        i, j = find(i), find(j)
        if i == j:
            return False
        root[max(i, j)] = min(i, j)
        return True

    orcids: dict[str, int] = {}
    rids: dict[str, int] = {}
    emails: dict[str, int] = {}
    by_coauthor: dict[str, list[int]] = {}
    parts = n
    for i, c in enumerate(ctxs):
        for seen, value in ((orcids, c.orcid), (rids, c.researcher_id), (emails, c.email)):
            if value is not None and join(seen.setdefault(value, i), i):
                parts -= 1
        for name in c.coauthor_last_names:
            by_coauthor.setdefault(name, []).append(i)
    for members in by_coauthor.values():
        for k, a in enumerate(members):
            ma = ctxs[a]
            for b in members[k + 1:]:
                mb = ctxs[b]
                if (parts > 1 and mb.pub_id != ma.pub_id and find(a) != find(b)
                        and score_pair(ma, mb) >= threshold):
                    join(a, b)
                    parts -= 1
    if parts == 1:
        return [ctxs]
    split: dict[int, list[MentionContext]] = {}
    for i, c in enumerate(ctxs):
        split.setdefault(find(i), []).append(c)
    return list(split.values())


def cluster_block(block: list[MentionContext],
                  rules: ScoringRules = DEFAULT_RULES) -> list[AuthorCluster]:
    """Greedy average-linkage agglomeration of one block.

    Repeatedly merges the cluster pair with the highest average pairwise
    score, while that average clears the merge threshold and the two
    clusters do not conflict. Ties break on the smallest (pub_id, position)
    pair, so the trace is deterministic. The clusters come back in
    canonical ref order.

    A block of ``_SPLIT_FLOOR`` (32) mentions or more is first cut into
    parts that no merge can cross (``_split``), and each part is
    agglomerated alone:

    - Mentions that share an ORCID, ResearcherID or email go into one part
      unscored. A pair that shares only a co-author surname and lies in two
      parts is scored, and its parts are joined when it clears the
      threshold.
    - Two clusters merge only when their average pair score clears the
      threshold. With exact sums, that needs a pair between them that
      clears it: whole-number scores that all fall below the threshold
      average below it, rounding included. A pair that shares none of the
      four kinds above scores at most the organization, journal,
      subject-category and first-name weights together (45, against a
      default threshold of 50). So every pair that clears the threshold
      lies within one part, and no merge crosses two parts.
      Within a part, the merges are the ones whole-block agglomeration
      makes there, in the same order; a merge in one part leaves every
      other part's averages alone. Parts coarser than needed change
      nothing, which is why identifiers join unscored.
    - The cut is made only where that argument holds exactly: the
      threshold is above 45, and the block's n(n-1)/2 pairs, each bounded
      by the weights and the block's largest co-author set, total below
      2**53, so every sum is exact. Any other block is agglomerated whole.
    - The floor comes from measured costs (2 cores, Python 3.11). On
      mentions drawn at random from the 530-mention homonym block of the
      ``homonym-block`` benchmark, the cut breaks even at about 16
      mentions, saves a quarter of the time at 32 and half at 64. On the
      ten ``seed-sweep-s`` worlds (seed 3), whose blocks mostly hold one
      person and do not split, cutting every block of 3 or more mentions
      adds 170 ms to the 565 ms of agglomerating them whole; cutting from
      16 mentions adds 37 ms, and from 32 adds 10 ms, 60 of their 15,420
      blocks.

    Cost: the ``score_pair`` calls within each part, after those the cut
    makes on co-author pairs, then O(P log P) for P nonzero pair sums
    (``_agglomerate``). The 530-mention block cuts into 39 parts, the
    largest of 49 mentions, and takes 6,391 ``score_pair`` calls instead of
    140,185. A block that does not split pays the cut for nothing: about
    2 µs per mention, under a tenth of its agglomeration.
    """
    threshold = rules.merge_threshold
    parts = _split(sorted(block, key=_BY_REF), threshold)
    if len(parts) == 1:
        return _agglomerate(parts[0], threshold)
    clusters = [c for part in parts for c in _agglomerate(part, threshold)]
    return sorted(clusters, key=lambda c: c.mention_refs[0])


def _agglomerate(ctxs: list[MentionContext], threshold: float) -> list[AuthorCluster]:
    """``cluster_block``'s agglomeration of a sorted block, or of one part
    of it.

    Clusters are numbered in canonical mention order, and a merge keeps the
    lower number: the cluster with the smaller canonical ref survives. So a
    cluster's number is the index of its canonical mention, and comparing
    numbers compares canonical refs: the block is sorted by ref, and refs
    are unique within it.

    - Pair sums are sparse: one dict per cluster holds its nonzero sums. A
      pair without evidence sums to 0 and cannot clear the threshold,
      which is > 0. A merge folds b's sums into a's with one float addition
      per pair, the same addition a dense matrix would make.
    - Candidate merges wait in a heap keyed by (-average, lo, hi), the two
      cluster numbers in order, which breaks ties as the canonical refs
      would. The seed pairs that clear the threshold go in first; after
      each merge, every pair of the survivor whose average clears the
      threshold goes in again. A popped entry is dropped when either
      cluster has died or its average is no longer current (lazy
      invalidation; Müllner, arXiv:1109.2378).
    - Two clusters conflict when their publication sets meet or their
      ORCIDs differ. Distinct ORCIDs are the only never-merge evidence, so
      a cluster holds at most one ORCID, and a conflict, once there, lasts.

    A complete block skips the loop and comes back as one cluster. It is
    complete when every one of its n(n-1)/2 pairs was seeded and the seeds
    total below 2**53. The loop would then end in that same one cluster:

    - No two mentions share a publication or carry distinct ORCIDs, or
      their pair would not have been seeded, so no two clusters conflict.
    - Every weight, so every score, is a whole number, and the seeds total
      below 2**53, so every cluster pair's sum, a sum of seeds, is exact.
      It covers size_a * size_b seeds, each at or above the threshold, so the
      average, rounded once, stays at or above the threshold too. Each
      merge leaves every pair of live clusters in the heap at its current
      average, and each valid pop merges, down to one cluster.
    - ``summarize_cluster`` sorts its members, so the merge order cannot
      show.

    Cost: the n(n-1)/2 calls to ``score_pair``, then O(log P) per heap
    entry, where P counts the nonzero pair sums. At most one entry goes in
    per nonzero sum at the seed and per neighbour of each merge's survivor:
    about O(P log P) per block, not the O(n^3) of rescanning every live
    pair after each merge. A complete block costs one O(P) pass over its
    seeds instead of the heap.
    """
    n = len(ctxs)
    ids = list(range(n))                    # dict keys share these, not one int per pair
    sums: list[dict[int, float]] = [{} for _ in ctxs]
    heap = []
    for a, ma in zip(ids, ctxs):
        pub_a, sums_a = ma.pub_id, sums[a]
        for b in ids[a + 1:]:
            mb = ctxs[b]
            if mb.pub_id == pub_a:
                continue
            s = score_pair(ma, mb)
            # distinct ORCIDs, the one never-merge score, are checked per cluster
            if s == 0 or s == NEVER_MERGE:
                continue
            sums_a[b] = sums[b][a] = s
            if s >= threshold:
                heap.append((-s, a, b))
    # a complete block: every pair was seeded, and its sums are exact
    if n and len(heap) == n * (n - 1) // 2 and -sum(entry[0] for entry in heap) < _EXACT_SUMS:
        return [summarize_cluster(ctxs)]
    members = [[c] for c in ctxs]           # emptied when the cluster dies
    pubs = [{c.pub_id} for c in ctxs]
    orcids = [c.orcid for c in ctxs]
    heapq.heapify(heap)
    heappop, heappush = heapq.heappop, heapq.heappush
    while heap:
        neg_avg, a, b = heappop(heap)
        # a dead cluster has no sums and is gone from every live one's
        s = sums[a].get(b)
        if s is None or s / (len(members[a]) * len(members[b])) != -neg_avg:
            continue
        if not pubs[a].isdisjoint(pubs[b]) or _distinct(orcids[a], orcids[b]):
            continue
        members[a] += members[b]
        members[b] = []
        pubs[a] |= pubs[b]
        if orcids[a] is None:
            orcids[a] = orcids[b]
        sa, sb = sums[a], sums[b]
        sums[b] = {}
        del sa[b], sb[a]
        for x, s in sb.items():
            sx = sums[x]
            del sx[b]
            sa[x] = sx[a] = sa.get(x, 0.0) + s
        size_a = len(members[a])
        for x, s in sa.items():
            avg = s / (size_a * len(members[x]))
            if avg >= threshold:
                heappush(heap, (-avg, a, x) if a < x else (-avg, x, a))
    # each survivor's number is its canonical mention's index, so the
    # clusters come out in canonical ref order
    return [summarize_cluster(m) for m in members if m]


def cluster_corpus(corpus: Corpus,
                   rules: ScoringRules = DEFAULT_RULES) -> list[AuthorCluster]:
    """Cluster every block of the corpus. Blocks are independent; the
    clusters come back sorted by first mention ref, which no two share.

    One block is clustered at a time, and its mentions' contexts are built
    just before its ``cluster_block`` call and dropped after it. So beside
    the corpus and its block references, memory holds one block's contexts
    and that block's nonzero pair sums, and the clusters made so far.
    """
    clusters = []
    for refs in block_mentions(corpus).values():
        clusters += cluster_block([mention_context(record, pos) for record, pos in refs], rules)
    return sorted(clusters, key=lambda c: c.mention_refs[0])


def write_clusters_jsonl(clusters: list[AuthorCluster], path: str | Path) -> None:
    write_jsonl(path, (c.to_dict() for c in clusters))


def _refs(obj: dict, key: str) -> tuple[tuple[str, int], ...]:
    """``obj[key]``, a list of [pub_id, position] pairs, a string and a
    non-negative integer each."""
    refs = obj.get(key)
    if not isinstance(refs, list):
        raise TypeError(f"{key} is not a list")
    for ref in refs:
        if not (isinstance(ref, list) and len(ref) == 2 and isinstance(ref[0], str)
                and type(ref[1]) is int and ref[1] >= 0):
            raise TypeError(f"mention ref {json.dumps(ref)} is not [pub_id, position]")
    return tuple(map(tuple, refs))


#: ``clusters.jsonl``'s fields in file order, (JSON key, ``AuthorCluster`` attribute,
#: getter), for ``to_dict`` and ``load_clusters_jsonl``; tuples write as JSON lists.
_CLUSTER_FIELDS = (
    ("cluster_id", "cluster_id", required_text),
    ("n_pubs", "n_pubs", whole_number),
    ("first_year", "first_year", whole_number),
    ("last_year", "last_year", whole_number),
    ("academic_age", "academic_age", whole_number),
    ("full_name", "full_name", required_text),
    ("last_name", "last_name", required_text),
    ("first_name", "first_name", required_text),
    ("email", "email", text_or_none),
    ("organization", "organization", text_or_none),
    ("city", "city", text_or_none),
    ("country", "country", text_or_none),
    ("orcid", "orcid", text_or_none),
    ("researcherid", "researcher_id", text_or_none),
    ("mention_refs", "mention_refs", _refs),
)


def load_clusters_jsonl(path: str | Path) -> list[AuthorCluster]:
    """The clusters of a ``clusters.jsonl`` file; a malformed or inconsistent
    record, a cluster holding two mentions of one publication, or a
    ``cluster_id`` or mention ref listed twice raises ``CorpusError`` naming
    its line."""
    clusters = []
    # keyed by the clusters' own id strings and ref tuples, no copies
    listed: dict[str, int] = {}
    refs_listed: dict[tuple[str, int], int] = {}
    for where, obj in read_jsonl(path):
        try:
            cluster = AuthorCluster(
                **{attr: get(obj, key) for key, attr, get in _CLUSTER_FIELDS})
        except TypeError as exc:
            raise CorpusError(f"{where}: bad cluster record: {exc}") from exc
        age, n_pubs = cluster.last_year - cluster.first_year, len(cluster.pub_ids)
        if (cluster.academic_age, cluster.n_pubs) != (age, n_pubs):
            raise CorpusError(f"{where}: bad cluster record: academic_age {cluster.academic_age} "
                              f"and n_pubs {cluster.n_pubs} are not last_year - first_year "
                              f"({age}) and the distinct pub_ids of mention_refs ({n_pubs})")
        listed_once(listed, cluster.cluster_id, where, f"cluster_id {cluster.cluster_id}")
        for ref in cluster.mention_refs:
            listed_once(refs_listed, ref, where, f"mention ref {ref[0]}:{ref[1]}")
        if n_pubs != len(cluster.mention_refs):
            raise CorpusError(f"{where}: bad cluster record: {_ONE_PUBLICATION}")
        clusters.append(cluster)
    return clusters


def pairwise_metrics(predicted, truth) -> tuple[float, float, float]:
    """Pairwise precision, recall, and F-measure from contingency counts.

    Each argument is a partition of mention refs: an iterable of ref
    collections, one per group. A pair is correct when both mentions share
    a predicted group and a truth group, so the correct pairs number the
    sum of C(n, 2) over the mentions n shared by each (predicted, truth)
    group pair; memory grows with the mentions, not the pairs (Menestrina,
    Whang and Garcia-Molina, PVLDB 2010). Degenerate cases (no pairs at all
    on either side) score 1.0 by convention.
    """
    def pair_count(sizes):
        return sum(n * (n - 1) // 2 for n in sizes)

    pred, true = list(predicted), list(truth)
    label = {ref: i for i, refs in enumerate(pred) for ref in refs}
    overlap = Counter((label[ref], j) for j, refs in enumerate(true)
                      for ref in refs if ref in label)
    pred_pairs = pair_count(len(refs) for refs in pred)
    true_pairs = pair_count(len(refs) for refs in true)
    both = pair_count(overlap.values())
    precision = both / pred_pairs if pred_pairs else 1.0
    recall = both / true_pairs if true_pairs else 1.0
    f = (2 * precision * recall / (precision + recall)) if precision + recall else 0.0
    return precision, recall, f
