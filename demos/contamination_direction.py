"""Show which way roster contamination bends the unsupervised scores.

When a university's publishing population includes people who are not on
its official roster (technicians, clinicians, visiting staff), the
unsupervised path counts them as researchers. They publish less than the
faculty here (half the rate), so per-SC score averages drop, and the
universities whose observed staff inflate the most deviate the most.
"""

import argparse
import tempfile
from pathlib import Path

from fssbench import compare
from fssbench.corpus import load_publications, load_registry, load_roster, load_scheme
from fssbench.disambig import DEFAULT_RULES, cluster_corpus
from fssbench.fss import score_modes
from fssbench.staff import derive_staff
from fssbench.synth import SynthConfig, generate


def sc_means(scores):
    acc = {}
    for s in scores:
        acc.setdefault(s.sc_id, []).append(s.fss_r)
    return {sc: sum(v) / len(v) for sc, v in acc.items()}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--share", type=float, default=0.35,
                        help="unlisted publishers as a share of all publishers")
    args = parser.parse_args()

    config = SynthConfig(seed=args.seed, n_universities=8, n_researchers=120,
                         n_scs=6, non_faculty_share=args.share,
                         non_faculty_productivity_multiplier=0.5)
    with tempfile.TemporaryDirectory() as td:
        files, _ = generate(config, Path(td))
        corpus = load_publications(files["publications"], config.window)
        staff = derive_staff(cluster_corpus(corpus, DEFAULT_RULES),
                             load_registry(files["registry"]), min_clusters=1, min_age=0,
                             recency_year=1900)
        # what `fssbench score` writes, the observation floor included
        by_mode = score_modes(corpus, load_roster(files["roster"], config.window), staff,
                              load_scheme(files["scheme"]), args.seed)
    (sup, _), (uns, _) = by_mode.values()
    # and what `fssbench compare` writes
    report, table, _, _ = compare.compare_modes(by_mode)

    print(f"subjects: {len(sup)} on the rosters, {len(uns)} derived from clusters\n")

    sup_m, uns_m = sc_means(sup), sc_means(uns)
    print("mean researcher score per SC")
    print(f"  {'SC':6s} {'roster':>8s} {'derived':>8s} {'shift':>8s}")
    for sc in sorted(set(sup_m) & set(uns_m)):
        print(f"  {sc:6s} {sup_m[sc]:8.3f} {uns_m[sc]:8.3f} "
              f"{uns_m[sc] - sup_m[sc]:+8.3f}")

    print("\nper-university staff counts and scores")
    print(f"  {'univ':6s} {'staff':>11s} {'score':>15s} {'obs dev':>8s} {'score dev':>10s}")
    for row in sorted(table.rows, key=lambda r: r.university_id):
        d_obs = compare.percent_deviation(row.sup_obs, row.unsup_obs)
        d_fss = compare.percent_deviation(row.sup_fss_u, row.unsup_fss_u)
        print(f"  {row.university_id:6s} {row.sup_obs:4d} -> {row.unsup_obs:4d} "
              f"{row.sup_fss_u:6.3f} -> {row.unsup_fss_u:6.3f} {d_obs:+7.1f}% {d_fss:+9.1f}%")

    r = report["university_deviation_correlations"]["obs_vs_fss_u"]
    print(f"\ncorrelation between staff inflation and score deviation: {r:+.3f}")


if __name__ == "__main__":
    main()
