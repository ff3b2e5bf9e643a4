"""Reference agglomeration, pair scoring and cluster summary for the
equality tests.

``reference_cluster_block`` is the dense form of ``disambig.cluster_block``:
two n×n lists and a full rescan of every live cluster pair after each
merge, about n^2.7 on a homonym block. It is slow on purpose and is kept
only so that the sparse, heap-driven ``cluster_block`` can be checked to
give the same clusters. It also agglomerates every block whole, where
``cluster_block`` first cuts a block of 32 mentions or more into parts
that no merge can cross, so equality on blocks above that floor checks
the cut too.

``score_pair``, ``_modal`` and ``summarize_cluster`` are copies of the
package's functions before their constant factors were cut: intersections
built for every pair, a dict count for every modal value, a per-character
sort key for the first name. The dense reference scores and summarizes
with these copies, so a change to the package's versions shows up as a
difference here.
"""

from __future__ import annotations

from fssbench.corpus import CorpusError
from fssbench.disambig import (
    DEFAULT_RULES,
    NEVER_MERGE,
    AuthorCluster,
    MentionContext,
    ScoringRules,
)


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
    if a.full_first is not None and a.full_first == b.full_first:
        score += rules.first_name
    return score


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


def summarize_cluster(members: list[MentionContext]) -> AuthorCluster:
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


def reference_cluster_block(block: list[MentionContext],
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
