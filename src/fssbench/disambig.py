"""Rule-based author-name clustering.

Mentions are blocked by (normalized last name, first initial), scored
pairwise on metadata evidence, and agglomerated greedily with average
linkage. Each resulting cluster is a proto-individual summarized in the
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

import json
import logging
import math
from collections import Counter
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .corpus import Corpus, CorpusError, PublicationRecord, first_initial, read_key_values

log = logging.getLogger(__name__)

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

    @property
    def ref(self) -> tuple[str, int]:
        return (self.pub_id, self.position)


def mention_contexts(record: PublicationRecord) -> list[MentionContext]:
    last_names = [m.last_name for m in record.mentions]
    out = []
    for pos, m in enumerate(record.mentions):
        others = frozenset(n for i, n in enumerate(last_names) if i != pos)
        out.append(MentionContext(
            pub_id=record.pub_id,
            position=pos,
            last_name=m.last_name,
            first_name=m.first_name,
            email=m.email,
            orcid=m.orcid,
            researcher_id=m.researcher_id,
            organization=m.organization,
            city=m.city,
            country=m.country,
            journal=record.journal,
            year=record.year,
            subject_categories=frozenset(record.subject_categories),
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
        members.sort(key=lambda c: c.ref)
    return blocks


def _full_first(name: str) -> str | None:
    """First token of the given-name part when it is a full name, not an
    initial (at least two letters)."""
    token = name.split(" ", 1)[0] if name else ""
    return token if len(token) >= 2 else None


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
    shared = a.coauthor_last_names & b.coauthor_last_names
    score += rules.coauthor * len(shared)
    if a.organization is not None and a.organization == b.organization:
        score += rules.organization
    if a.journal and a.journal == b.journal:
        score += rules.journal
    if a.subject_categories & b.subject_categories:
        score += rules.subject_category
    fa, fb = _full_first(a.first_name), _full_first(b.first_name)
    if fa is not None and fa == fb:
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


def _modal(values) -> str | None:
    """Most frequent non-empty value; ties go to the lexicographically
    smaller one."""
    counts: dict[str, int] = {}
    for v in values:
        if v:
            counts[v] = counts.get(v, 0) + 1
    if not counts:
        return None
    return min(counts, key=lambda v: (-counts[v], v))


def summarize_cluster(members: list[MentionContext], corpus: Corpus | None = None) -> AuthorCluster:
    """Build the cluster summary for one set of mentions.

    Modal email/organization/city/country (ties broken lexicographically),
    orcid and researcher_id only when a unique value occurs, longest first
    name, and the year span of the member publications.
    """
    if not members:
        raise ValueError("cannot summarize an empty mention set")
    members = sorted(members, key=lambda c: c.ref)
    pub_ids = {c.pub_id for c in members}
    if len(pub_ids) != len(members):
        raise CorpusError("cluster contains two mentions from one publication")
    orcids = sorted({c.orcid for c in members if c.orcid is not None})
    if len(orcids) > 1:
        raise CorpusError(f"cluster mixes distinct orcids {orcids}")
    rids = {c.researcher_id for c in members if c.researcher_id is not None}
    years = [c.year for c in members]
    first_year, last_year = min(years), max(years)
    last_name = _modal(c.last_name for c in members) or members[0].last_name
    first_name = max((c.first_name for c in members),
                     key=lambda n: (len(n), [-ord(ch) for ch in n]))
    initials = "".join(tok[0] for tok in first_name.split() if tok)
    canon = members[0].ref
    return AuthorCluster(
        cluster_id=f"{canon[0]}:{canon[1]}",
        mention_refs=tuple(c.ref for c in members),
        n_pubs=len(pub_ids),
        first_year=first_year,
        last_year=last_year,
        academic_age=last_year - first_year,
        full_name=f"{last_name}, {initials}" if initials else last_name,
        last_name=last_name,
        first_name=first_name,
        email=_modal(c.email for c in members),
        organization=_modal(c.organization for c in members),
        city=_modal(c.city for c in members),
        country=_modal(c.country for c in members),
        orcid=orcids[0] if orcids else None,
        researcher_id=next(iter(rids)) if len(rids) == 1 else None,
    )


def cluster_block(block: list[MentionContext],
                  rules: ScoringRules = DEFAULT_RULES) -> list[AuthorCluster]:
    """Greedy average-linkage agglomeration of one block.

    Repeatedly merges the cluster pair with the highest average pairwise
    score, while that average clears the merge threshold, no member pair is
    a hard conflict, and the clusters share no publication. Ties break on
    the smallest (pub_id, position) pair, so the trace is deterministic.
    """
    n = len(block)
    if n == 0:
        return []
    order = sorted(range(n), key=lambda i: block[i].ref)
    members = [[i] for i in order]          # each cluster: member indices into block
    canon = [block[i].ref for i in order]   # smallest mention ref per cluster
    pubs = [{block[i].pub_id} for i in order]
    # pair_sum[a][b] = sum of pairwise scores between clusters a and b;
    # conflict[a][b] = some member pair can never merge
    pair_sum = [[0.0] * n for _ in range(n)]
    conflict = [[False] * n for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            ma, mb = block[order[a]], block[order[b]]
            if ma.pub_id == mb.pub_id:
                conflict[a][b] = conflict[b][a] = True
                continue
            s = score_pair(ma, mb, rules)
            if s == NEVER_MERGE:
                conflict[a][b] = conflict[b][a] = True
            else:
                pair_sum[a][b] = pair_sum[b][a] = s
    alive = list(range(n))
    while len(alive) > 1:
        best = best_key = None
        for ia, a in enumerate(alive):
            for b in alive[ia + 1:]:
                if conflict[a][b] or (pubs[a] & pubs[b]):
                    continue
                avg = pair_sum[a][b] / (len(members[a]) * len(members[b]))
                if avg < rules.merge_threshold:
                    continue
                lo, hi = sorted((canon[a], canon[b]))
                key = (-avg, lo, hi)
                if best is None or key < best_key:
                    best, best_key = (a, b), key
        if best is None:
            break
        a, b = best
        members[a].extend(members[b])
        pubs[a] |= pubs[b]
        canon[a] = min(canon[a], canon[b])
        for x in alive:
            if x in (a, b):
                continue
            pair_sum[a][x] = pair_sum[x][a] = pair_sum[a][x] + pair_sum[b][x]
            if conflict[b][x]:
                conflict[a][x] = conflict[x][a] = True
        alive.remove(b)
    out = [summarize_cluster([block[i] for i in members[a]]) for a in alive]
    return sorted(out, key=lambda c: c.mention_refs[0])


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
