"""Rule-based author-name clustering.

Mentions are blocked by (normalized last name, first initial), scored
pairwise on metadata evidence, and agglomerated greedily with average
linkage. Agglomeration keeps only the nonzero pair sums, one dict per
cluster, and takes merges from a heap of candidate pairs whose average
clears the threshold, dropping stale entries as they surface. Two clusters
that share a publication or carry distinct ORCIDs never merge. Beyond
scoring every pair of a block once, a block costs about O(P log P) for P
nonzero pair sums, not the O(n^3) of rescanning all pairs after each merge.

Each resulting cluster is a proto-individual summarized in the
same field layout as the reference cluster schema (cluster_id, n_pubs,
first_year, last_year, academic_age, full_name, last_name, first_name,
email, organization, city, country, orcid, researcherid).

The scoring rules are a configurable approximation of the
rule-based-scoring family of disambiguators, not a reimplementation of
any published algorithm's internal weights. Defaults live in
``DEFAULT_RULES``; a plain-text ``key = value`` file can override them.

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
from dataclasses import dataclass, field, fields, replace
from operator import attrgetter
from pathlib import Path

from .corpus import Corpus, CorpusError, PublicationRecord, first_initial, read_key_values

log = logging.getLogger(__name__)

#: Sort key of a mention: its ref, (pub_id, position).
_BY_REF = attrgetter("pub_id", "position")
#: The fields a cluster summary reads from each mention.
_SUMMARY_FIELDS = attrgetter("pub_id", "position", "year", "orcid", "researcher_id",
                             "last_name", "first_name", "email", "organization", "city",
                             "country")

#: Sentinel for a hard conflict (two distinct ORCIDs): never merge.
NEVER_MERGE = float("-inf")


@dataclass(frozen=True)
class ScoringRules:
    """Evidence weights and the merge threshold for pairwise scoring."""

    orcid: float = 100.0
    researcher_id: float = 100.0
    email: float = 90.0
    coauthor: float = 25.0          # per shared co-author last name
    organization: float = 15.0
    journal: float = 10.0
    subject_category: float = 10.0  # any overlap, counted once
    first_name: float = 10.0        # full first names (not initials) equal
    merge_threshold: float = 50.0

    def __post_init__(self):
        for f in fields(self):
            if f.name != "merge_threshold" and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"scoring weight {f.name} must be finite")
        if not math.isfinite(self.merge_threshold) or self.merge_threshold <= 0:
            raise ValueError("merge_threshold must be finite and > 0")


DEFAULT_RULES = ScoringRules()

_RULE_KEYS = {f.name for f in fields(ScoringRules)}


def load_rules(path: str | Path) -> ScoringRules:
    """Read a ``key = value`` weights file; unlisted keys keep defaults."""
    overrides: dict[str, float] = {}
    for lineno, key, value in read_key_values(path, "rules file"):
        if key not in _RULE_KEYS:
            log.warning("ignoring unknown rules key %r", key)
            continue
        try:
            overrides[key] = float(value)
        except ValueError as exc:
            raise CorpusError(f"rules file line {lineno}: bad value for {key}") from exc
    return replace(DEFAULT_RULES, **overrides)


@dataclass(frozen=True)
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
        object.__setattr__(self, "full_first", token if len(token) >= 2 else None)


def mention_contexts(record: PublicationRecord) -> list[MentionContext]:
    last_names = [m.last_name for m in record.mentions]
    byline = frozenset(last_names)
    scs = frozenset(record.subject_categories)
    out = []
    for pos, m in enumerate(record.mentions):
        # a surname shared with another author on the byline stays a co-author
        name = m.last_name
        shared = len(byline) < len(last_names) and last_names.count(name) > 1
        others = byline if shared else byline - {name}
        out.append(MentionContext(
            pub_id=record.pub_id,
            position=pos,
            last_name=name,
            first_name=m.first_name,
            email=m.email,
            orcid=m.orcid,
            researcher_id=m.researcher_id,
            organization=m.organization,
            city=m.city,
            country=m.country,
            journal=record.journal,
            year=record.year,
            subject_categories=scs,
            coauthor_last_names=others,
        ))
    return out


def block_key(last_name: str, first_name: str) -> str:
    return f"{last_name}|{first_initial(first_name)}"


def block_mentions(corpus: Corpus) -> dict[str, list[MentionContext]]:
    """Partition all mentions into blocks keyed by last name + first initial.

    Mentions in different blocks are never compared. Each block comes back
    in canonical (pub_id, position) order.
    """
    blocks: dict[str, list[MentionContext]] = {}
    for record in corpus:
        for ctx in mention_contexts(record):
            blocks.setdefault(block_key(ctx.last_name, ctx.first_name), []).append(ctx)
    for members in blocks.values():
        members.sort(key=_BY_REF)
    return blocks


def score_pair(a: MentionContext, b: MentionContext, rules: ScoringRules = DEFAULT_RULES) -> float:
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
        score += rules.orcid
    if a.researcher_id is not None and a.researcher_id == b.researcher_id:
        score += rules.researcher_id
    if a.email is not None and a.email == b.email:
        score += rules.email
    # a term skipped on disjoint sets would add w * 0 = +-0.0, and the score,
    # which starts at +0.0, cannot be -0.0: skipping it changes no bit
    if not a.coauthor_last_names.isdisjoint(b.coauthor_last_names):
        score += rules.coauthor * len(a.coauthor_last_names & b.coauthor_last_names)
    if a.organization is not None and a.organization == b.organization:
        score += rules.organization
    if a.journal and a.journal == b.journal:
        score += rules.journal
    if not a.subject_categories.isdisjoint(b.subject_categories):
        score += rules.subject_category
    if a.full_first is not None and a.full_first == b.full_first:
        score += rules.first_name
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
        return {
            "cluster_id": self.cluster_id,
            "n_pubs": self.n_pubs,
            "first_year": self.first_year,
            "last_year": self.last_year,
            "academic_age": self.academic_age,
            "full_name": self.full_name,
            "last_name": self.last_name,
            "first_name": self.first_name,
            "email": self.email,
            "organization": self.organization,
            "city": self.city,
            "country": self.country,
            "orcid": self.orcid,
            "researcherid": self.researcher_id,
            "mention_refs": [list(r) for r in self.mention_refs],
        }


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
        raise CorpusError("cluster contains two mentions from one publication")
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
    return AuthorCluster(
        cluster_id=f"{pub_ids[0]}:{positions[0]}",
        mention_refs=tuple(zip(pub_ids, positions)),
        n_pubs=n_pubs,
        first_year=first_year,
        last_year=last_year,
        academic_age=last_year - first_year,
        full_name=f"{last_name}, {initials}" if initials else last_name,
        last_name=last_name,
        first_name=first_name,
        email=_modal(emails),
        organization=_modal(organizations),
        city=_modal(cities),
        country=_modal(countries),
        orcid=orcids[0] if orcids else None,
        researcher_id=next(iter(rids)) if len(rids) == 1 else None,
    )


def _distinct(x: str | None, y: str | None) -> bool:
    """Both identifiers present and different: a hard conflict for ORCIDs."""
    return x is not None and y is not None and x != y


def cluster_block(block: list[MentionContext],
                  rules: ScoringRules = DEFAULT_RULES) -> list[AuthorCluster]:
    """Greedy average-linkage agglomeration of one block.

    Repeatedly merges the cluster pair with the highest average pairwise
    score, while that average clears the merge threshold and the two
    clusters do not conflict. Ties break on the smallest (pub_id, position)
    pair, so the trace is deterministic.

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
      A never-merge score that comes from overflowing weights is kept as a
      pair sum instead, and no sum it enters can clear the threshold.

    Cost: the n(n-1)/2 calls to ``score_pair``, then O(log P) per heap
    entry, where P counts the nonzero pair sums. At most one entry goes in
    per nonzero sum at the seed and per neighbour of each merge's survivor:
    about O(P log P) per block, not the O(n^3) of rescanning every live
    pair after each merge.
    """
    ctxs = sorted(block, key=_BY_REF)
    ids = list(range(len(ctxs)))            # dict keys share these, not one int per pair
    members = [[c] for c in ctxs]           # emptied when the cluster dies
    pubs = [{c.pub_id} for c in ctxs]
    orcids = [c.orcid for c in ctxs]
    sums: list[dict[int, float]] = [{} for _ in ctxs]
    threshold = rules.merge_threshold
    heap = []
    for a, ma in zip(ids, ctxs):
        pub_a, orcid_a, sums_a = ma.pub_id, ma.orcid, sums[a]
        for b in ids[a + 1:]:
            mb = ctxs[b]
            if mb.pub_id == pub_a:
                continue
            s = score_pair(ma, mb, rules)
            # distinct ORCIDs are checked per cluster; any other never-merge
            # score (weights that overflowed) is kept as the pair's sum
            if s == 0 or (s == NEVER_MERGE and _distinct(orcid_a, mb.orcid)):
                continue
            sums_a[b] = sums[b][a] = s
            if s >= threshold:
                heap.append((-s, a, b))
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
    """Cluster every block of the corpus. Blocks are independent; results
    are assembled in block-key order, then sorted by first mention ref."""
    blocks = block_mentions(corpus)
    clusters = [c for k in sorted(blocks) for c in cluster_block(blocks[k], rules)]
    return sorted(clusters, key=lambda c: c.mention_refs[0])


def write_clusters_jsonl(clusters: list[AuthorCluster], path: str | Path) -> None:
    lines = [json.dumps(c.to_dict(), ensure_ascii=False) for c in clusters]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def load_clusters_jsonl(path: str | Path) -> list[AuthorCluster]:
    clusters = []
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            clusters.append(AuthorCluster(
                cluster_id=obj["cluster_id"],
                mention_refs=tuple((r[0], int(r[1])) for r in obj["mention_refs"]),
                n_pubs=int(obj["n_pubs"]),
                first_year=int(obj["first_year"]),
                last_year=int(obj["last_year"]),
                academic_age=int(obj["academic_age"]),
                full_name=obj["full_name"],
                last_name=obj["last_name"],
                first_name=obj["first_name"],
                email=obj.get("email"),
                organization=obj.get("organization"),
                city=obj.get("city"),
                country=obj.get("country"),
                orcid=obj.get("orcid"),
                researcher_id=obj.get("researcherid"),
            ))
        except (KeyError, ValueError, json.JSONDecodeError) as exc:
            raise CorpusError(f"{Path(path).name} line {lineno}: bad cluster record: {exc}") from exc
    return clusters


def pairwise_metrics(predicted, truth) -> tuple[float, float, float]:
    """Pairwise precision, recall, and F-measure from contingency counts.

    Each argument is a partition of mention refs: either a mapping of group
    id to refs or a plain iterable of ref collections. A pair is correct
    when both mentions share a predicted group and a truth group, so the
    correct pairs number the sum of C(n, 2) over the mentions n shared by
    each (predicted, truth) group pair; memory grows with the mentions, not
    the pairs (Menestrina, Whang and Garcia-Molina, PVLDB 2010). Degenerate
    cases (no pairs at all on either side) score 1.0 by convention.
    """
    def groups(partition):
        return list(partition.values() if hasattr(partition, "values") else partition)

    def pair_count(sizes):
        return sum(n * (n - 1) // 2 for n in sizes)

    pred, true = groups(predicted), groups(truth)
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
