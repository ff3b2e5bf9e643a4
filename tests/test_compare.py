import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fssbench.compare import (
    PERCENTILE_POINTS,
    _correlation,
    _median,
    _pearson,
    _percentiles,
    _spearman,
    assign_quartile,
    build_rank_table,
    compare_modes,
    comparison_report,
    correlation_battery,
    distribution_stats,
    load_fixture_rows,
    load_reference_table,
    percent_deviation,
    percentile_of_rank,
    quartile_confusion,
    rank_jumps,
    rank_universities,
    sc_deviation_correlations,
    university_deviation_correlations,
    write_quartile_matrix_csv,
    write_rank_table_csv,
    write_report_json,
)
from fssbench.fss import MODE_SUPERVISED, MODE_UNSUPERVISED, ResearcherScore, UniversityScore


def uscore(uid, fss_u, rs_u=10, mode=MODE_SUPERVISED):
    return UniversityScore(university_id=uid, mode=mode, rs_u=rs_u, fss_u=fss_u)


def rscore(sid, sc, fss, mode=MODE_SUPERVISED):
    return ResearcherScore(subject_id=sid, mode=mode, university_id="U1",
                           sc_id=sc, t=5.0, n_pubs=1, fss_r=fss)


# ---------------------------------------------------------------------------
# percentiles and quartiles

def test_percentile_of_rank_anchors():
    assert percentile_of_rank(1, 65) == 100
    assert percentile_of_rank(65, 65) == 0
    assert percentile_of_rank(5, 65) == 94
    assert percentile_of_rank(9, 65) == 88
    assert percentile_of_rank(33, 65) == 50
    assert percentile_of_rank(1, 1) == 100


def test_percentile_of_rank_rounds_half_up():
    # n=5: rank 2 -> 75.0 exactly; rank 4 -> 25.0 exactly
    assert percentile_of_rank(2, 5) == 75
    assert percentile_of_rank(4, 5) == 25
    # n=9: rank 5 -> 50.0; rank 3 -> 75.0
    assert percentile_of_rank(5, 9) == 50
    # a true .5 case: n=3, rank 2 -> 50.0; n=201, rank 100 -> 50.25
    assert percentile_of_rank(2, 3) == 50


def test_percentile_of_rank_range_errors():
    with pytest.raises(ValueError):
        percentile_of_rank(0, 10)
    with pytest.raises(ValueError):
        percentile_of_rank(11, 10)


def test_quartile_marginals_at_65():
    counts = [0, 0, 0, 0]
    for rank in range(1, 66):
        counts[assign_quartile(rank, 65) - 1] += 1
    assert counts == [17, 16, 16, 16]


def test_quartile_thresholds_consistent_with_percentiles():
    for n in (4, 5, 13, 64, 65, 66, 100):
        for rank in range(1, n + 1):
            q = assign_quartile(rank, n)
            p = 100 * (n - rank) / (n - 1)
            if p >= 75:
                assert q == 1
            elif p >= 50:
                assert q == 2
            elif p >= 25:
                assert q == 3
            else:
                assert q == 4


# ---------------------------------------------------------------------------
# distribution statistics

def test_distribution_stats_hand_values():
    stats = distribution_stats([1.0, 2.0, 3.0, 4.0])
    assert stats.obs == 4
    assert stats.mean == pytest.approx(2.5)
    assert stats.variance == pytest.approx(5 / 3)       # ddof=1
    assert stats.std_dev == pytest.approx(math.sqrt(5 / 3))
    assert stats.percentiles[PERCENTILE_POINTS.index(50)] == pytest.approx(2.5)
    assert stats.max == 4.0
    assert stats.skewness == pytest.approx(0.0)


def test_distribution_stats_skew_kurt_population_moments():
    values = [0.0, 0.0, 0.0, 10.0]
    arr = np.array(values)
    m2 = float(((arr - arr.mean()) ** 2).mean())
    m3 = float(((arr - arr.mean()) ** 3).mean())
    m4 = float(((arr - arr.mean()) ** 4).mean())
    stats = distribution_stats(values)
    assert stats.skewness == pytest.approx(m3 / m2 ** 1.5)
    assert stats.kurtosis == pytest.approx(m4 / m2 ** 2)


def test_distribution_stats_degenerate_cases():
    one = distribution_stats([2.0])
    assert math.isnan(one.std_dev) and math.isnan(one.variance)
    const = distribution_stats([3.0, 3.0, 3.0])
    assert math.isnan(const.skewness) and math.isnan(const.kurtosis)
    assert const.std_dev == 0.0
    with pytest.raises(ValueError):
        distribution_stats([])


def test_distribution_stats_percentiles_match_numpy():
    rng = np.random.default_rng(5)
    values = rng.lognormal(0.5, 1.0, size=200)
    stats = distribution_stats(values)
    expected = np.percentile(values, (1, 5, 10, 25, 50, 75, 90, 95, 99))
    assert stats.percentiles == tuple(expected.tolist())


#: Finite non-negative scores as the pipeline writes them: zeros, ties,
#: a single value, and magnitudes from subnormal to near the float maximum.
_fss_r_values = st.lists(
    st.one_of(st.just(0.0), st.sampled_from([0.25, 1.0, 3.0]),
              st.floats(0.0, 1e6), st.floats(0.0, 1.7e308)),
    min_size=1, max_size=80)


@settings(max_examples=500)
@given(values=_fss_r_values)
def test_percentiles_and_median_equal_numpy_bit_for_bit(values):
    arr = np.array(values)
    with np.errstate(over="ignore"):        # two values near the maximum sum to inf
        wanted, median = np.percentile(arr, PERCENTILE_POINTS), np.median(arr)
    got = _percentiles(sorted(values), PERCENTILE_POINTS)
    assert all(_same_float(g, float(w)) for g, w in zip(got, wanted, strict=True))
    assert _same_float(_median(values), float(median))


# ---------------------------------------------------------------------------
# rank table construction

def test_rank_universities_ranks_and_delta_sign():
    supervised = [uscore("A", 2.0, rs_u=10), uscore("B", 1.0, rs_u=20),
                  uscore("C", 3.0, rs_u=30)]
    unsupervised = [uscore("A", 1.0, rs_u=12), uscore("B", 3.0, rs_u=18),
                    uscore("C", 2.0, rs_u=33)]
    table = rank_universities(supervised, unsupervised)
    assert [r.university_id for r in table.rows] == ["B", "C", "A"]
    row_a = table.row("A")
    assert (row_a.sup_rank, row_a.unsup_rank) == (2, 3)
    assert row_a.delta_rank == -1                      # sup minus unsup
    assert row_a.sup_obs == 10 and row_a.unsup_obs == 12


def test_rank_universities_mismatched_sets_error_names_both_sides():
    # fewer than two shared universities leave nothing to correlate
    with pytest.raises(ValueError, match=(
            r"^a correlation needs at least 2 pairs, got 1; "
            r"only supervised \['A'\], only unsupervised \['C', 'D'\]$")):
        rank_universities([uscore("A", 1.0), uscore("B", 1.0)],
                          [uscore("B", 1.0), uscore("C", 1.0), uscore("D", 1.0)])


def test_rank_universities_refuses_a_university_listed_twice_in_one_mode():
    supervised = [uscore("A", 1.0, rs_u=3), uscore("B", 2.0), uscore("C", 3.0),
                  uscore("A", 9.0, rs_u=5)]
    unsupervised = [uscore(u, 1.0, mode=MODE_UNSUPERVISED) for u in "ABC"]
    with pytest.raises(ValueError, match="^university A listed twice in the supervised scores$"):
        rank_universities(supervised, unsupervised)
    with pytest.raises(ValueError, match="^university B listed twice in the unsupervised scores$"):
        rank_universities(supervised[:3],
                          unsupervised + [uscore("B", 4.0, mode=MODE_UNSUPERVISED)])


def test_rank_universities_ranks_the_shared_set():
    table = rank_universities(
        [uscore("A", 3.0), uscore("B", 1.0), uscore("C", 2.0)],
        [uscore("B", 2.0), uscore("C", 1.0), uscore("D", 3.0)])
    assert [(r.university_id, r.sup_rank, r.unsup_rank) for r in table.rows] == [
        ("B", 2, 1), ("C", 1, 2)]
    assert (table.only_supervised, table.only_unsupervised) == (("A",), ("D",))
    report = comparison_report(table, [rscore("P1", "SC1", 1.0)],
                               [rscore("C1", "SC1", 1.0, MODE_UNSUPERVISED)])
    assert report["universities_only_supervised"] == ["A"]
    assert report["universities_only_unsupervised"] == ["D"]


def test_build_rank_table_requires_permutations():
    rows = [("A", 1, 1.0, 1, 1, 1.0, 1), ("B", 1, 0.5, 3, 1, 0.5, 2)]
    with pytest.raises(ValueError, match="^sup_rank values are not a permutation of 1..2$"):
        build_rank_table(rows)
    rows = [("A", 1, 1.0, 1, 1, 1.0, 2), ("B", 1, 0.5, 2, 1, 0.5, 2)]
    with pytest.raises(ValueError, match="^unsup_rank values are not a permutation of 1..2$"):
        build_rank_table(rows)


def test_rank_ties_break_by_university_id():
    table = rank_universities(
        [uscore("A", 1.0), uscore("B", 1.0), uscore("C", 0.5)],
        [uscore("A", 1.0), uscore("B", 2.0), uscore("C", 0.5)])
    assert table.row("A").sup_rank == 1
    assert table.row("B").sup_rank == 2


# ---------------------------------------------------------------------------
# fixture

def test_fixture_has_65_rows_and_all_columns():
    rows = load_fixture_rows()
    assert len(rows) == 65
    assert rows[0]["university"] == "Vita - Salute San Raffaele"


def test_reference_table_reproduces_published_percentiles():
    table = load_reference_table()
    for raw in load_fixture_rows():
        row = table.row(raw["university"])
        assert row.sup_percentile == int(raw["sup_perc"])
        assert row.unsup_percentile == int(raw["unsup_perc"])


def test_reference_table_reproduces_published_delta_rank():
    table = load_reference_table()
    for raw in load_fixture_rows():
        assert table.row(raw["university"]).delta_rank == int(raw["delta_rank"])


# ---------------------------------------------------------------------------
# confusion and jumps

def _small_table():
    # 8 universities, a mix of agreements and jumps
    sup_scores = {"A": 8.0, "B": 7.0, "C": 6.0, "D": 5.0,
                  "E": 4.0, "F": 3.0, "G": 2.0, "H": 1.0}
    unsup_scores = {"A": 8.0, "B": 1.0, "C": 6.0, "D": 5.0,
                    "E": 4.0, "F": 3.0, "G": 2.0, "H": 7.0}
    return rank_universities([uscore(u, s) for u, s in sup_scores.items()],
                             [uscore(u, s) for u, s in unsup_scores.items()])


def test_quartile_confusion_counts_sum_to_n():
    table = _small_table()
    matrix = quartile_confusion(table)
    assert matrix.total == 8
    assert matrix.diagonal_total + matrix.above_diagonal + matrix.below_diagonal == 8


def test_rank_jumps_threshold_and_order():
    table = _small_table()
    report = rank_jumps(table, threshold_quartiles=2, top_k=3)
    jumped = {j[0] for j in report.jumps}
    assert jumped == {"B", "H"}
    # B: unsup rank 8 (Q4) sup rank 2 (Q1); H: unsup 2 (Q1) sup 8 (Q4)
    assert report.jumps[0][0] == "H"          # ordered by unsup quartile
    assert report.max_abs_delta == 6
    assert report.max_abs_delta_top == 6      # B is in the supervised top 3


def test_rank_jumps_high_threshold_empty():
    report = rank_jumps(_small_table(), threshold_quartiles=4)
    assert report.jumps == ()


# ---------------------------------------------------------------------------
# correlations

def test_correlation_battery_perfect_agreement():
    scores = {"A": 3.0, "B": 2.0, "C": 1.0, "D": 0.5}
    table = rank_universities([uscore(u, s) for u, s in scores.items()],
                              [uscore(u, s) for u, s in scores.items()])
    correlation = correlation_battery(table)
    assert correlation.n == 4
    assert correlation.pearson_scores == pytest.approx(1.0)
    assert correlation.spearman_ranks == pytest.approx(1.0)


def test_correlation_battery_skips_tiny_groups(caplog):
    table = rank_universities([uscore("A", 2.0), uscore("B", 1.0)],
                              [uscore("A", 1.0), uscore("B", 2.0)])
    assert correlation_battery(table) is None
    assert [r.getMessage() for r in caplog.records] == [
        "2 universities compared, need 3 for a correlation; skipped"]


def test_correlation_needs_two_pairs():
    with pytest.raises(ValueError, match="needs at least 2 pairs, got 1"):
        _correlation(_pearson, [1.0], [2.0])


@pytest.mark.filterwarnings("error")
def test_constant_input_gives_nan():
    for test in (_pearson, _spearman):
        assert math.isnan(_correlation(test, [1.0, 1.0, 1.0], [1.0, 2.0, 3.0]))
        assert math.isnan(_correlation(test, [1.0, 2.0, 3.0], [4.0, 4.0, 4.0]))


@st.composite
def _pairs(draw):
    """Paired columns of 2 to 30 values: floats at one of five magnitudes
    from 1e-5 to 1e5 (optionally on a large offset), heavily tied values
    from a pool of three, or integer ranks."""
    n = draw(st.integers(2, 30))
    kind = draw(st.sampled_from(["floats", "ties", "ranks"]))

    def column():
        if kind == "ranks":
            return draw(st.permutations(range(1, n + 1)))
        if kind == "ties":
            return draw(st.lists(st.sampled_from([0.5, 1.0, 3.0]), min_size=n, max_size=n))
        scale = draw(st.sampled_from([1e-5, 1e-2, 1.0, 1e2, 1e5]))
        offset = draw(st.sampled_from([0.0, 1e5]))
        values = draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n))
        return [offset + scale * v for v in values]

    return column(), column()


def _same_float(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


@pytest.fixture(scope="module")
def sps():
    return pytest.importorskip("scipy.stats")


@settings(max_examples=500)
@given(xy=_pairs())
def test_correlations_equal_scipy_bit_for_bit(sps, xy):
    x, y = xy
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        pearson = float(sps.pearsonr(x, y).statistic)
        spearman = float(sps.spearmanr(x, y).statistic)
    assert _same_float(_correlation(_pearson, x, y), pearson)
    assert _same_float(_correlation(_spearman, x, y), spearman)


def test_percent_deviation():
    assert percent_deviation(200.0, 150.0) == pytest.approx(-25.0)
    with pytest.raises(ValueError):
        percent_deviation(0.0, 5.0)


@pytest.mark.filterwarnings("error")
def test_university_deviation_correlations_sign():
    # staff inflation moves with score deflation -> negative correlation
    sup = [uscore("A", 2.0, rs_u=100), uscore("B", 2.0, rs_u=100),
           uscore("C", 2.0, rs_u=100), uscore("D", 2.0, rs_u=100)]
    unsup = [uscore("A", 2.0, rs_u=100), uscore("B", 1.8, rs_u=110),
             uscore("C", 1.6, rs_u=120), uscore("D", 1.4, rs_u=130)]
    corr = university_deviation_correlations(rank_universities(sup, unsup))
    assert corr["obs_vs_fss_u"] < -0.9


@pytest.mark.filterwarnings("error")
def test_university_deviation_correlations_leave_out_a_zero_supervised_score():
    # Z's score deviation would divide by 0; its staff and rank still deviate
    sup = [uscore("A", 2.0, rs_u=100), uscore("B", 1.0, rs_u=100),
           uscore("C", 3.0, rs_u=100), uscore("Z", 0.0, rs_u=100)]
    unsup = [uscore("A", 2.0, rs_u=100), uscore("B", 1.8, rs_u=110),
             uscore("C", 1.6, rs_u=120), uscore("Z", 1.7, rs_u=150)]
    table = rank_universities(sup, unsup)
    corr = university_deviation_correlations(table)
    assert corr["obs_vs_fss_u"] == pytest.approx(university_deviation_correlations(
        rank_universities(sup[:3], unsup[:3]))["obs_vs_fss_u"], abs=1e-12)
    assert corr["obs_vs_delta_rank"] == _correlation(
        _pearson, [percent_deviation(r.sup_obs, r.unsup_obs) for r in table.rows],
        [r.delta_rank for r in table.rows])
    # one university left: no correlation
    alone = university_deviation_correlations(rank_universities(sup[2:], unsup[2:]))
    assert math.isnan(alone["obs_vs_fss_u"])
    assert alone["obs_vs_delta_rank"] == 1.0


def test_reference_table_deviation_correlations():
    corr = university_deviation_correlations(load_reference_table())
    assert corr["obs_vs_fss_u"] == pytest.approx(-0.526, abs=5e-4)
    assert corr["obs_vs_delta_rank"] == pytest.approx(-0.361, abs=5e-4)


def test_sc_deviation_correlations_needs_three_scs():
    sup = [rscore("P1", "SC1", 1.0), rscore("P2", "SC2", 1.0)]
    unsup = [rscore("C1", "SC1", 1.0, MODE_UNSUPERVISED),
             rscore("C2", "SC2", 1.0, MODE_UNSUPERVISED)]
    out = sc_deviation_correlations(sup, unsup)
    assert math.isnan(out["obs_vs_mean_fss"])


def test_sc_deviation_correlations_direction():
    rng = np.random.default_rng(11)
    sup, unsup = [], []
    for k, sc in enumerate(["SC1", "SC2", "SC3", "SC4", "SC5"]):
        n_sup = 10
        n_extra = k * 3          # more contamination in later SCs
        for i in range(n_sup):
            fss = float(rng.uniform(0.8, 1.2))
            sup.append(rscore(f"P{sc}{i}", sc, fss))
            unsup.append(rscore(f"C{sc}{i}", sc, fss, MODE_UNSUPERVISED))
        for i in range(n_extra):  # false positives: low scores
            unsup.append(rscore(f"X{sc}{i}", sc, float(rng.uniform(0.0, 0.2)),
                                MODE_UNSUPERVISED))
    out = sc_deviation_correlations(sup, unsup)
    assert out["obs_vs_mean_fss"] < 0
    assert out["obs_vs_median_fss"] < 0


# ---------------------------------------------------------------------------
# report assembly and writers

@pytest.mark.filterwarnings("error")
def test_comparison_report_json_round_trip(tmp_path):
    table = _small_table()
    sup_res = [rscore("P1", "SC1", 1.0), rscore("P2", "SC1", 0.0)]
    unsup_res = [rscore("C1", "SC1", 1.0, MODE_UNSUPERVISED)]
    report = comparison_report(table, supervised_researchers=sup_res,
                               unsupervised_researchers=unsup_res)
    path = tmp_path / "report.json"
    write_report_json(report, path)
    back = json.loads(path.read_text())
    assert back["n_universities"] == 8
    assert back["universities_only_supervised"] == []
    assert back["universities_only_unsupervised"] == []
    assert back["quartile_matrix"][0][0] >= 0
    # NaN correlations become null, never the string "NaN"
    assert back["sc_deviation_correlations"]["obs_vs_mean_fss"] is None
    assert "NaN" not in path.read_text()


@pytest.mark.filterwarnings("error")
def test_compare_modes_returns_what_the_stage_functions_return():
    sup = [rscore("P1", "SC1", 1.0), rscore("P2", "SC1", 2.0), rscore("P3", "SC1", 0.5),
           rscore("P4", "SC2", 0.3), rscore("P5", "SC2", 0.9)]
    unsup = [rscore(f"C{i}", sc, fss, MODE_UNSUPERVISED) for i, (sc, fss) in
             enumerate([("SC1", 1.1), ("SC1", 0.4), ("SC1", 0.0), ("SC2", 0.2),
                        ("SC2", 0.8), ("SC2", 0.6)])]
    sup_u = [uscore(u, fss, rs_u=n) for u, fss, n in [("A", 1.2, 2), ("B", 0.8, 2),
                                                       ("C", 1.0, 1)]]
    unsup_u = [uscore(u, fss, rs_u=n, mode=MODE_UNSUPERVISED)
               for u, fss, n in [("A", 0.9, 3), ("B", 1.1, 2), ("C", 0.7, 1)]]
    by_mode = {MODE_SUPERVISED: (sup, sup_u), MODE_UNSUPERVISED: (unsup, unsup_u)}
    report, table, matrix, distributions = compare_modes(by_mode)
    assert table == rank_universities(sup_u, unsup_u)
    assert report == comparison_report(table, sup, unsup)
    assert matrix == quartile_confusion(table)
    assert distributions == {
        f"{mode}:{group}": distribution_stats(
            [s.fss_r for s in scores if group in ("overall", s.sc_id)])
        for mode, (scores, _) in by_mode.items() for group in ("overall", "SC1", "SC2")}


def test_rank_table_and_matrix_csv(tmp_path):
    table = _small_table()
    write_rank_table_csv(table, tmp_path / "rank.csv")
    lines = (tmp_path / "rank.csv").read_text().splitlines()
    assert lines[0] == ("university_id,unsup_obs,unsup_fss_u,unsup_rank,unsup_percentile,"
                        "unsup_quartile,sup_obs,sup_fss_u,sup_rank,sup_percentile,"
                        "sup_quartile,delta_rank")
    assert lines[1] == "A,10,8.0,1,100,1,10,8.0,1,100,1,0"
    assert len(lines) == 1 + table.n
    write_quartile_matrix_csv(quartile_confusion(table), tmp_path / "matrix.csv")
    lines = (tmp_path / "matrix.csv").read_text().strip().splitlines()
    assert len(lines) == 5
