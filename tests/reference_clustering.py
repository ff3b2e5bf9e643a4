"""Reference agglomeration for the trace-equality tests.

This is the dense form of ``disambig.cluster_block``: two n×n lists and a
full rescan of every live cluster pair after each merge, about n^2.7 on a
homonym block. It is slow on purpose and is kept only so that the sparse,
heap-driven ``cluster_block`` can be checked to give the same clusters.
"""

from __future__ import annotations

from fssbench.disambig import (
    DEFAULT_RULES,
    NEVER_MERGE,
    AuthorCluster,
    MentionContext,
    ScoringRules,
    score_pair,
    summarize_cluster,
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
