"""Measure name-clustering quality against ground truth as noise rises.

Generates worlds where author mentions lose identifiers and vary their
affiliations, clusters them, and reports pairwise precision/recall/F1
plus the effect of the merge threshold.
"""

import argparse
import tempfile
from pathlib import Path

from fssbench.corpus import load_publications
from fssbench.disambig import ScoringRules, cluster_corpus, pairwise_metrics
from fssbench.synth import SynthConfig, generate


def world(seed, out_dir, **noise):
    config = SynthConfig(seed=seed, n_universities=4, n_researchers=60,
                         n_scs=4, **noise)
    files, truth = generate(config, out_dir)
    corpus = load_publications(files["publications"], config.window)
    return corpus, truth


def evaluate(corpus, truth, rules=ScoringRules()):
    clusters = cluster_corpus(corpus, rules)
    predicted = [c.mention_refs for c in clusters]
    actual = truth.mention_clusters(corpus).values()
    return len(clusters), pairwise_metrics(predicted, actual)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args()

    levels = [
        ("clean", {}),
        ("no orcid for 50%", {"orcid_missing_rate": 0.5}),
        ("plus initials-only but no emails",
         {"orcid_missing_rate": 0.5, "email_missing_rate": 0.5,
          "initials_only_rate": 0.6}),
        ("plus homonyms and org variants",
         {"orcid_missing_rate": 0.5, "email_missing_rate": 0.5,
          "initials_only_rate": 0.6, "homonym_rate": 0.15,
          "affiliation_variant_rate": 0.3}),
    ]
    with tempfile.TemporaryDirectory() as td:
        print(f"{'noise level':40s} {'clusters':>8s} {'prec':>6s} {'rec':>6s} {'f1':>6s}")
        for i, (label, noise) in enumerate(levels):
            corpus, truth = world(args.seed, Path(td) / f"w{i}", **noise)
            n, (precision, recall, f1) = evaluate(corpus, truth)
            print(f"{label:40s} {n:8d} {precision:6.3f} {recall:6.3f} {f1:6.3f}")

        print("\nmerge threshold sweep on the noisiest world")
        corpus, truth = world(args.seed, Path(td) / "sweep", **levels[-1][1])
        for threshold in (25, 50, 90, 150):
            rules = ScoringRules(merge_threshold=threshold)
            n, (precision, recall, f1) = evaluate(corpus, truth, rules)
            print(f"  threshold {threshold:3d}: {n:4d} clusters  "
                  f"prec {precision:.3f}  rec {recall:.3f}  f1 {f1:.3f}")


if __name__ == "__main__":
    main()
