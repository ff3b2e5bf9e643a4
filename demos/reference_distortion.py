"""Rerun the distortion analysis on the packaged 65-university reference table.

The table carries, for each university, the staff count, score, rank, and
percentile under both measurement paths. Everything printed here is
recomputed from the raw columns.
"""

from fssbench.compare import (
    correlation_battery,
    load_reference_table,
    quartile_confusion,
    rank_jumps,
)


def main() -> None:
    table = load_reference_table()
    print(f"{table.n} universities\n")

    correlation = correlation_battery(table)
    print("agreement between the two paths")
    print(f"  pearson on scores:   {correlation.pearson_scores:.3f}")
    print(f"  spearman on ranks:   {correlation.spearman_ranks:.3f}\n")

    matrix = quartile_confusion(table)
    print("quartile confusion (rows: unsupervised, cols: supervised)")
    for q, row in enumerate(matrix.counts, start=1):
        cells = " ".join(f"{v:3d}" for v in row)
        print(f"  Q{q} | {cells}")
    on = matrix.diagonal_total
    print(f"  same quartile {on}/{matrix.total}, "
          f"{matrix.above_diagonal} look better unsupervised, "
          f"{matrix.below_diagonal} look worse\n")

    report = rank_jumps(table, threshold_quartiles=2)
    print(f"universities moving at least {report.threshold} quartiles")
    for name, q_unsup, q_sup in report.jumps:
        row = table.row(name)
        print(f"  {name:35s} unsup Q{q_unsup} (rank {row.unsup_rank:2d}) "
              f"-> sup Q{q_sup} (rank {row.sup_rank:2d})")
    print(f"\nlargest rank move anywhere: {report.max_abs_delta}")
    print(f"largest rank move in the supervised top {report.top_k}: "
          f"{report.max_abs_delta_top}")


if __name__ == "__main__":
    main()
