"""Clustering quality against ground truth: pairwise and B-cubed F1.

Definitions follow Menestrina, Whang and Garcia-Molina, "Evaluating entity
resolution results" (PVLDB 2010). Both are computed from the contingency
counts of the two partitions, so memory grows with the number of mentions,
not with the number of pairs. Standard library only.
"""

from __future__ import annotations

import csv
import json
from collections import Counter
from pathlib import Path

Partition = list[list[str]]     # groups of mention refs


def _f1(precision: float, recall: float) -> float:
    return 2 * precision * recall / (precision + recall) if precision + recall else 0.0


def _labels(partition: Partition) -> dict[str, int]:
    labels: dict[str, int] = {}
    for gid, group in enumerate(partition):
        for ref in group:
            if ref in labels:
                raise ValueError(f"mention {ref} is in two groups")
            labels[ref] = gid
    return labels


def _contingency(predicted: Partition, truth: Partition) -> Counter:
    """(predicted group, true group) -> shared mentions. Both partitions
    must cover the same mentions."""
    pred, true = _labels(predicted), _labels(truth)
    if pred.keys() != true.keys():
        raise ValueError("partitions cover different mentions")
    return Counter((pred[ref], true[ref]) for ref in pred)


def pairwise_scores(predicted: Partition, truth: Partition) -> tuple[float, float, float]:
    """Pairwise precision, recall and F1. With no pairs on one side that
    side's ratio is 1.0, the convention of ``fssbench.pairwise_metrics``."""
    both = sum(n * (n - 1) // 2 for n in _contingency(predicted, truth).values())
    pred_pairs = sum(len(g) * (len(g) - 1) // 2 for g in predicted)
    true_pairs = sum(len(g) * (len(g) - 1) // 2 for g in truth)
    precision = both / pred_pairs if pred_pairs else 1.0
    recall = both / true_pairs if true_pairs else 1.0
    return precision, recall, _f1(precision, recall)


def bcubed_scores(predicted: Partition, truth: Partition) -> tuple[float, float, float]:
    """B-cubed precision, recall and F1: per-mention overlap of its
    predicted and true groups, averaged over mentions."""
    cells = _contingency(predicted, truth)
    if not cells:
        return 1.0, 1.0, 1.0
    pred_size, true_size = Counter(), Counter()
    for (p, t), n in cells.items():
        pred_size[p] += n
        true_size[t] += n
    mentions = sum(cells.values())
    precision = sum(n * n / pred_size[p] for (p, _), n in cells.items()) / mentions
    recall = sum(n * n / true_size[t] for (_, t), n in cells.items()) / mentions
    return precision, recall, _f1(precision, recall)


def clusters_partition(path: Path) -> Partition:
    """Mention refs (``pub_id:position``) of each cluster in clusters.jsonl."""
    groups = []
    with path.open(encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                groups.append([f"{p}:{i}" for p, i in json.loads(line)["mention_refs"]])
    return groups


def truth_partition(path: Path, mentions: set[str]) -> Partition:
    """Each person's mention refs from ground_truth.csv, restricted to
    ``mentions`` (the ones the corpus loaded)."""
    groups = []
    with path.open(encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            refs = [r for r in row["mention_refs"].split(";") if r in mentions]
            if refs:
                groups.append(refs)
    return groups
