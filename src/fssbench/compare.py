"""Distortion analysis over a (supervised, unsupervised) score pair.

Distribution statistics per researcher population, university rank
tables with percentiles and quartiles, the quartile confusion matrix,
two-quartile rank jumps, the score and rank correlation of the two
rankings, and the percentage deviation correlations that relate
staff-count inflation to score distortion.

Fixed conventions (see README): sample standard deviation (ddof 1),
population-moment skewness m3/m2^1.5 and non-excess kurtosis m4/m2^2
(NaN on constant input), linear-interpolation percentiles, percentile of
a rank = round-half-up of 100*(n-rank)/(n-1), quartiles cut at the
unrounded 75/50/25 percentile thresholds, and delta_rank = supervised
rank minus unsupervised rank (negative when the unsupervised ranking is
too generous).

numpy is imported inside the functions that compute with it. Of the CLI
stages only ``compare`` executes this module, and it needs numpy; a library
caller that ranks universities or counts quartile moves does not load it.
Percentiles and medians do not use numpy: ``np.percentile`` and ``np.median``
import ``numpy.ma`` (numpy 2.4), which costs ``compare`` about 1.7 MB of peak
RSS and 12 ms, though no masked array is ever built. ``_percentiles`` and
``_median`` repeat numpy's own operations in numpy's order over the sorted
values, so on their domain, the finite non-negative ``fss_r`` values the
pipeline writes, they equal numpy's results bit for bit. ``statistics`` is
not used either: it imports ``decimal`` and ``fractions``.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import asdict, astuple, dataclass, fields
from pathlib import Path
from typing import TYPE_CHECKING

from .corpus import MODE_SUPERVISED, MODE_UNSUPERVISED, read_csv, write_csv
from .fss import ResearcherScore, UniversityScore

if TYPE_CHECKING:
    import numpy as np

log = logging.getLogger(__name__)

PERCENTILE_POINTS = (1, 5, 10, 25, 50, 75, 90, 95, 99)


@dataclass(frozen=True)
class DistributionStats:
    obs: int
    mean: float
    std_dev: float
    variance: float
    skewness: float
    kurtosis: float
    percentiles: tuple[float, ...]   # at PERCENTILE_POINTS
    max: float


def distribution_stats(values) -> DistributionStats:
    """Descriptive statistics of one score distribution.

    Skewness and kurtosis use population moments; on a constant vector
    both are NaN (m2 = 0). A single observation also gives NaN sample
    std/variance.
    """
    import numpy as np

    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("cannot describe an empty distribution")
    mean = float(arr.mean())
    if arr.size > 1:
        variance = float(arr.var(ddof=1))
        std_dev = math.sqrt(variance)
    else:
        variance = std_dev = float("nan")
    centered = arr - mean
    m2 = float((centered ** 2).mean())
    if m2 > 0.0:
        skewness = float((centered ** 3).mean()) / m2 ** 1.5
        kurtosis = float((centered ** 4).mean()) / m2 ** 2
    else:
        skewness = kurtosis = float("nan")
    return DistributionStats(
        obs=int(arr.size),
        mean=mean,
        std_dev=std_dev,
        variance=variance,
        skewness=skewness,
        kurtosis=kurtosis,
        percentiles=_percentiles(sorted(arr.tolist()), PERCENTILE_POINTS),
        max=float(arr.max()),
    )


def _percentiles(ordered: list[float], points) -> tuple[float, ...]:
    """``np.percentile(ordered, points)`` by its default linear method, over
    ascending values: the virtual index v = (n - 1) * (p / 100) falls between
    two neighbours, both the last value (with weight v + 1) when v >= n - 1,
    and numpy's ``_lerp`` interpolates them from whichever end is nearer.
    The last-value case goes through ``_lerp`` too, which is what turns a
    last value of -0.0 into +0.0 exactly where numpy does."""
    last = len(ordered) - 1
    out = []
    for p in points:
        v = last * (p / 100)
        if v >= last:
            a = b = ordered[last]
            t = v + 1
        else:
            i = math.floor(v)
            a, b = ordered[i], ordered[i + 1]
            t = v - i
        d = b - a
        out.append(b - d * (1 - t) if t >= 0.5 else a + d * t)
    return tuple(out)


def _median(values: list[float]) -> float:
    """``np.median(values)``: numpy's mean of the middle one or two ascending
    values, its sum started at +0.0."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return 0.0 + ordered[mid]
    return (0.0 + ordered[mid - 1] + ordered[mid]) / 2


# ---------------------------------------------------------------------------
# ranks, percentiles, quartiles

def percentile_of_rank(rank: int, n: int) -> int:
    """round_half_up(100 * (n - rank) / (n - 1)), computed in exact integer
    arithmetic so .5 cases always round up; rank 1 -> 100, rank n -> 0."""
    if not 1 <= rank <= n:
        raise ValueError(f"rank {rank} out of range 1..{n}")
    if n == 1:
        return 100
    return (200 * (n - rank) + (n - 1)) // (2 * (n - 1))


def assign_quartile(rank: int, n: int) -> int:
    """Quartile 1..4 by the unrounded percentile: Q1 at >= 75, Q2 at
    >= 50, Q3 at >= 25. Integer comparisons, no floating point."""
    if not 1 <= rank <= n:
        raise ValueError(f"rank {rank} out of range 1..{n}")
    if n == 1:
        return 1
    above = n - rank            # percentile = 100 * above / (n - 1)
    if 100 * above >= 75 * (n - 1):
        return 1
    if 2 * above >= n - 1:
        return 2
    if 4 * above >= n - 1:
        return 3
    return 4


@dataclass(frozen=True)
class RankRow:
    """One row of rank_table.csv, fields in its column order."""

    university_id: str
    unsup_obs: int
    unsup_fss_u: float
    unsup_rank: int
    unsup_percentile: int
    unsup_quartile: int
    sup_obs: int
    sup_fss_u: float
    sup_rank: int
    sup_percentile: int
    sup_quartile: int
    delta_rank: int              # sup_rank - unsup_rank


@dataclass(frozen=True)
class RankTable:
    rows: tuple[RankRow, ...]    # sorted by unsupervised rank
    only_supervised: tuple[str, ...] = ()     # scored in one mode only, so unranked
    only_unsupervised: tuple[str, ...] = ()

    @property
    def n(self) -> int:
        return len(self.rows)

    def row(self, university_id: str) -> RankRow:
        for r in self.rows:
            if r.university_id == university_id:
                return r
        raise KeyError(university_id)


def build_rank_table(rows: list[tuple[str, int, float, int, int, float, int]],
                     only_supervised: tuple[str, ...] = (),
                     only_unsupervised: tuple[str, ...] = ()) -> RankTable:
    """Assemble a RankTable from explicit per-mode ranks.

    Each row is (university_id, sup_obs, sup_fss_u, sup_rank, unsup_obs,
    unsup_fss_u, unsup_rank); percentiles, quartiles, and delta_rank are
    derived here. Each mode's ranks must be exactly 1..n.
    """
    n = len(rows)
    for mode, i in (("sup_rank", 3), ("unsup_rank", 6)):
        if sorted(r[i] for r in rows) != list(range(1, n + 1)):
            raise ValueError(f"{mode} values are not a permutation of 1..{n}")
    out = [RankRow(
        university_id=u,
        sup_obs=sup_obs,
        sup_fss_u=sup_fss_u,
        sup_rank=sup_rank,
        sup_percentile=percentile_of_rank(sup_rank, n),
        sup_quartile=assign_quartile(sup_rank, n),
        unsup_obs=unsup_obs,
        unsup_fss_u=unsup_fss_u,
        unsup_rank=unsup_rank,
        unsup_percentile=percentile_of_rank(unsup_rank, n),
        unsup_quartile=assign_quartile(unsup_rank, n),
        delta_rank=sup_rank - unsup_rank,
    ) for u, sup_obs, sup_fss_u, sup_rank, unsup_obs, unsup_fss_u, unsup_rank in rows]
    out.sort(key=lambda r: r.unsup_rank)
    return RankTable(tuple(out), only_supervised, only_unsupervised)


def _ranks_desc(values: dict[str, float]) -> dict[str, int]:
    ordered = sorted(values, key=lambda u: (-values[u], u))
    return {u: i + 1 for i, u in enumerate(ordered)}


def _by_university(scores: list[UniversityScore], mode: str) -> dict[str, UniversityScore]:
    by_id: dict[str, UniversityScore] = {}
    for score in scores:
        if score.university_id in by_id:
            raise ValueError(f"university {score.university_id} listed twice "
                             f"in the {mode} scores")
        by_id[score.university_id] = score
    return by_id


def rank_universities(supervised: list[UniversityScore],
                      unsupervised: list[UniversityScore]) -> RankTable:
    """Rank both modes' university scores on the universities both cover.

    Descending by score, ties broken by full-precision value and then by
    university_id. A university scored in one mode only is left out and
    named in the table's only_supervised or only_unsupervised. Fewer than
    two shared universities are refused (no correlation can be taken), as
    is a university listed twice in one mode.
    """
    sup = _by_university(supervised, MODE_SUPERVISED)
    unsup = _by_university(unsupervised, MODE_UNSUPERVISED)
    shared = sup.keys() & unsup.keys()
    only_sup = tuple(sorted(sup.keys() - shared))
    only_unsup = tuple(sorted(unsup.keys() - shared))
    if len(shared) < 2:
        dropped = (f"; only supervised {list(only_sup)}, only unsupervised "
                   f"{list(only_unsup)}" if only_sup or only_unsup else "")
        raise ValueError(f"a correlation needs at least 2 pairs, got {len(shared)}{dropped}")
    sup_ranks = _ranks_desc({u: sup[u].fss_u for u in shared})
    unsup_ranks = _ranks_desc({u: unsup[u].fss_u for u in shared})
    return build_rank_table([(u, sup[u].rs_u, sup[u].fss_u, sup_ranks[u],
                              unsup[u].rs_u, unsup[u].fss_u, unsup_ranks[u])
                             for u in sorted(shared)], only_sup, only_unsup)


FIXTURE_COLUMNS = ("university", "unsup_obs", "unsup_fss_u", "unsup_rank",
                   "unsup_perc", "sup_obs", "sup_fss_u", "sup_rank", "sup_perc",
                   "delta_rank")


def load_fixture_rows() -> list[dict]:
    """Raw rows of the bundled 65-university reference table (every value
    as published: scores at 3 decimals, ranks, percentiles, rank deltas)."""
    from importlib import resources     # not at the top: no CLI stage reads the table

    source = resources.files("fssbench.data").joinpath("reference_table.csv")
    with resources.as_file(source) as path:
        return [row for _, row in read_csv(path, FIXTURE_COLUMNS)]


def load_reference_table() -> RankTable:
    """The bundled reference table as a RankTable, using its published
    ranks (two unsupervised scores tie at 3 decimals, so re-ranking the
    rounded scores would be ambiguous)."""
    return build_rank_table([(r["university"], int(r["sup_obs"]), float(r["sup_fss_u"]),
                              int(r["sup_rank"]), int(r["unsup_obs"]),
                              float(r["unsup_fss_u"]), int(r["unsup_rank"]))
                             for r in load_fixture_rows()])


# ---------------------------------------------------------------------------
# confusion, jumps

@dataclass(frozen=True)
class QuartileMatrix:
    """counts[i][j] = universities in unsupervised quartile i+1 and
    supervised quartile j+1."""

    counts: tuple[tuple[int, ...], ...]

    @property
    def total(self) -> int:
        return sum(sum(row) for row in self.counts)

    @property
    def diagonal_total(self) -> int:
        return sum(self.counts[i][i] for i in range(4))

    @property
    def above_diagonal(self) -> int:
        """Universities placed in a better quartile by the supervised
        ranking (column index beyond row index)."""
        return sum(self.counts[i][j] for i in range(4) for j in range(4) if j > i)

    @property
    def below_diagonal(self) -> int:
        return sum(self.counts[i][j] for i in range(4) for j in range(4) if j < i)


def quartile_confusion(table: RankTable) -> QuartileMatrix:
    counts = [[0] * 4 for _ in range(4)]
    for row in table.rows:
        counts[row.unsup_quartile - 1][row.sup_quartile - 1] += 1
    return QuartileMatrix(counts=tuple(tuple(r) for r in counts))


@dataclass(frozen=True)
class RankJumpReport:
    jumps: tuple[tuple[str, int, int], ...]   # (university, q_unsup, q_sup)
    threshold: int
    max_abs_delta: int
    top_k: int
    max_abs_delta_top: int


def rank_jumps(table: RankTable, threshold_quartiles: int = 2,
               top_k: int = 11) -> RankJumpReport:
    """Universities whose quartile differs by at least the threshold,
    ordered by (unsupervised quartile, supervised rank); also the largest
    rank move overall and within the supervised top-k."""
    jumps = [(r.university_id, r.unsup_quartile, r.sup_quartile)
             for r in sorted(table.rows, key=lambda r: (r.unsup_quartile, r.sup_rank))
             if abs(r.unsup_quartile - r.sup_quartile) >= threshold_quartiles]
    deltas = [abs(r.delta_rank) for r in table.rows]
    top = [abs(r.delta_rank) for r in table.rows if r.sup_rank <= top_k]
    return RankJumpReport(
        jumps=tuple(jumps),
        threshold=threshold_quartiles,
        max_abs_delta=max(deltas, default=0),
        top_k=top_k,
        max_abs_delta_top=max(top, default=0),
    )


# ---------------------------------------------------------------------------
# correlations

@dataclass(frozen=True)
class GroupCorrelation:
    n: int
    pearson_scores: float
    spearman_ranks: float


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson's r with ``scipy.stats.pearsonr``'s arithmetic (scipy 1.17),
    so the two agree bit for bit: each centred vector v is divided by its
    norm, taken as max|v| times the norm of v / max|v|; the dot product is
    clipped to [-1, 1], and two pairs give exactly -1.0 or 1.0."""
    import numpy as np

    xm, ym = x - x.mean(), y - y.mean()
    xmax, ymax = np.abs(xm).max(), np.abs(ym).max()
    r = np.vecdot(xm / (xmax * np.linalg.vector_norm(xm / xmax)),
                  ym / (ymax * np.linalg.vector_norm(ym / ymax)))
    r = np.clip(r, -1.0, 1.0)
    return float(np.round(r) if x.size == 2 else r)


def _average_ranks(v: np.ndarray) -> np.ndarray:
    """Ranks 1..n; tied values share the mean of their ranks."""
    import numpy as np

    order = np.argsort(v, kind="stable")
    ordered = v[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], v.size]
    ranks = np.empty(v.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2, ends - starts)
    return ranks


def _spearman(x: np.ndarray, y: np.ndarray) -> float:
    """Spearman's rho as ``scipy.stats.spearmanr`` computes it: the
    Pearson correlation (``np.corrcoef``) of the average ranks."""
    import numpy as np

    return float(np.corrcoef(_average_ranks(x), _average_ranks(y))[1, 0])


def _correlation(test, x: list, y: list) -> float:
    """``test`` (``_pearson`` or ``_spearman``) over the pairs (x[i], y[i]).

    Fewer than two pairs are refused. When x or y is constant the
    coefficient is undefined: NaN.
    """
    import numpy as np

    if len(x) < 2:
        raise ValueError(f"a correlation needs at least 2 pairs, got {len(x)}")
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if (x == x[0]).all() or (y == y[0]).all():
        return math.nan
    return test(x, y)


def correlation_battery(table: RankTable) -> GroupCorrelation | None:
    """Pearson on scores and Spearman on ranks (average-rank ties) over all
    the table's universities. A table of fewer than 3 universities gives
    None, with a warning."""
    rows = table.rows
    if len(rows) < 3:
        log.warning("%d universities compared, need 3 for a correlation; skipped",
                    len(rows))
        return None
    return GroupCorrelation(
        n=len(rows),
        pearson_scores=_correlation(_pearson, [r.sup_fss_u for r in rows],
                                    [r.unsup_fss_u for r in rows]),
        spearman_ranks=_correlation(_spearman, [r.sup_rank for r in rows],
                                    [r.unsup_rank for r in rows]))


def percent_deviation(supervised: float, unsupervised: float) -> float:
    """100 * (unsupervised - supervised) / supervised."""
    if supervised == 0:
        raise ValueError("percent deviation needs a nonzero supervised value")
    return 100.0 * (unsupervised - supervised) / supervised


def university_deviation_correlations(table: RankTable) -> dict[str, float]:
    """Pearson correlations of staff-count deviation against score
    deviation and against rank movement, across universities. A university
    whose supervised fss_u is 0 has no score deviation and is left out of
    the first, which is NaN when fewer than 2 universities remain."""
    obs_dev = [percent_deviation(r.sup_obs, r.unsup_obs) for r in table.rows]
    scored = [(obs, r) for obs, r in zip(obs_dev, table.rows) if r.sup_fss_u != 0]
    fss_dev = [percent_deviation(r.sup_fss_u, r.unsup_fss_u) for _, r in scored]
    delta = [float(r.delta_rank) for r in table.rows]
    return {
        "obs_vs_fss_u": (_correlation(_pearson, [obs for obs, _ in scored], fss_dev)
                         if len(scored) >= 2 else math.nan),
        "obs_vs_delta_rank": _correlation(_pearson, obs_dev, delta),
    }


def _fss_r_by_sc(scores: list[ResearcherScore]) -> dict[str, list[float]]:
    by_sc: dict[str, list[float]] = {}
    for s in scores:
        by_sc.setdefault(s.sc_id, []).append(s.fss_r)
    return by_sc


#: Fewest researchers an SC needs in each mode to enter the deviation correlations.
SC_DEVIATION_MIN_OBS = 2


def sc_deviation_correlations(supervised: list[ResearcherScore],
                              unsupervised: list[ResearcherScore]) -> dict[str, float]:
    """Per-SC percentage deviations of researcher counts against the
    deviations of mean and median scores (Pearson, across SCs present in
    both modes with at least ``SC_DEVIATION_MIN_OBS`` researchers in each)."""
    import numpy as np

    sup, unsup = _fss_r_by_sc(supervised), _fss_r_by_sc(unsupervised)
    obs_dev, mean_dev, median_dev = [], [], []
    for sc in sorted(set(sup) & set(unsup)):
        a, b = sup[sc], unsup[sc]
        if len(a) < SC_DEVIATION_MIN_OBS or len(b) < SC_DEVIATION_MIN_OBS:
            continue
        mean_a, mean_b = float(np.mean(a)), float(np.mean(b))
        med_a, med_b = _median(a), _median(b)
        if mean_a == 0 or med_a == 0:
            continue
        obs_dev.append(percent_deviation(len(a), len(b)))
        mean_dev.append(percent_deviation(mean_a, mean_b))
        median_dev.append(percent_deviation(med_a, med_b))
    if len(obs_dev) < 3:
        return {"obs_vs_mean_fss": float("nan"), "obs_vs_median_fss": float("nan")}
    return {
        "obs_vs_mean_fss": _correlation(_pearson, obs_dev, mean_dev),
        "obs_vs_median_fss": _correlation(_pearson, obs_dev, median_dev),
    }


# ---------------------------------------------------------------------------
# report assembly

def _json_safe(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def comparison_report(table: RankTable,
                      supervised_researchers: list[ResearcherScore],
                      unsupervised_researchers: list[ResearcherScore]) -> dict:
    """The full battery as one JSON-ready dictionary: the table's rank,
    quartile and correlation figures, and both modes' researcher score
    distributions and per-SC deviation correlations. Non-finite floats
    become None."""
    matrix = quartile_confusion(table)
    jumps = rank_jumps(table)
    correlation = correlation_battery(table)
    report = {
        "n_universities": table.n,
        "universities_only_supervised": list(table.only_supervised),
        "universities_only_unsupervised": list(table.only_unsupervised),
        "correlation": asdict(correlation) if correlation else None,
        "quartile_matrix": [list(row) for row in matrix.counts],
        "quartile_diagonal": matrix.diagonal_total,
        "quartile_above_diagonal": matrix.above_diagonal,
        "quartile_below_diagonal": matrix.below_diagonal,
        "rank_jumps": {
            "threshold": jumps.threshold,
            "universities": [list(j) for j in jumps.jumps],
            "max_abs_delta_rank": jumps.max_abs_delta,
            "top_k": jumps.top_k,
            "max_abs_delta_rank_top": jumps.max_abs_delta_top,
        },
        "university_deviation_correlations": university_deviation_correlations(table),
        "sc_deviation_correlations": sc_deviation_correlations(
            supervised_researchers, unsupervised_researchers),
        "researcher_distributions": {
            mode: _stats_dict(distribution_stats([s.fss_r for s in scores]))
            for mode, scores in ((MODE_SUPERVISED, supervised_researchers),
                                 (MODE_UNSUPERVISED, unsupervised_researchers))
        },
    }
    return _json_safe(report)


def _stats_dict(stats: DistributionStats) -> dict:
    """``stats`` as a dictionary, its percentiles keyed by point."""
    return {**asdict(stats), "percentiles": dict(zip(map(str, PERCENTILE_POINTS),
                                                     stats.percentiles))}


def compare_modes(by_mode: dict[str, tuple[list[ResearcherScore], list[UniversityScore]]],
                  ) -> tuple[dict, RankTable, QuartileMatrix, dict[str, DistributionStats]]:
    """What ``fssbench compare`` writes, from the scores ``fss.score_modes``
    and ``fss.load_scores`` return: the report, the rank table, the quartile
    matrix, and each mode's researcher score distributions, over all its
    researchers (group ``<mode>:overall``) and per SC (``<mode>:<sc_id>``)."""
    (sup, sup_u), (unsup, unsup_u) = by_mode[MODE_SUPERVISED], by_mode[MODE_UNSUPERVISED]
    table = rank_universities(sup_u, unsup_u)
    report = comparison_report(table, sup, unsup)
    matrix = quartile_confusion(table)
    distributions = {}
    for mode, scores in ((MODE_SUPERVISED, sup), (MODE_UNSUPERVISED, unsup)):
        distributions[f"{mode}:overall"] = distribution_stats([s.fss_r for s in scores])
        for sc, values in _fss_r_by_sc(scores).items():
            distributions[f"{mode}:{sc}"] = distribution_stats(values)
    return report, table, matrix, distributions


def write_report_json(report: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


def write_rank_table_csv(table: RankTable, path: str | Path) -> None:
    write_csv(path, (f.name for f in fields(RankRow)), map(astuple, table.rows))


def write_quartile_matrix_csv(matrix: QuartileMatrix, path: str | Path) -> None:
    write_csv(path, ("unsup_quartile", "sup_q1", "sup_q2", "sup_q3", "sup_q4"),
              ([f"Q{i}", *row] for i, row in enumerate(matrix.counts, start=1)))


def write_distribution_stats_csv(stats_by_group: dict[str, DistributionStats],
                                 path: str | Path) -> None:
    write_csv(path, ("group", "obs", "mean", "std_dev", "variance", "skewness",
                     "kurtosis", *(f"p{p}" for p in PERCENTILE_POINTS), "max"),
              ([name, s.obs, repr(s.mean), repr(s.std_dev),
                repr(s.variance), repr(s.skewness), repr(s.kurtosis),
                *(repr(p) for p in s.percentiles), repr(s.max)]
               for name, s in sorted(stats_by_group.items())))
