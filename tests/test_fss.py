import math
from dataclasses import replace

import pytest

from fssbench.corpus import Corpus, RosterEntry, SCScheme, SubjectCategory, YearWindow
from fssbench.fss import (
    MODE_SUPERVISED,
    MODE_UNSUPERVISED,
    ScoreError,
    Subject,
    apply_exclusions,
    assign_prevailing_sc,
    build_citation_cells,
    compute_fss_r,
    compute_fss_u,
    compute_sc_baselines,
    load_researcher_scores_csv,
    load_scores,
    load_university_scores_csv,
    normalized_citation_score,
    publication_norm,
    score_modes,
    score_subjects,
    subjects_from_roster,
    subjects_from_staff,
    write_researcher_scores_csv,
    write_university_scores_csv,
)
from fssbench.staff import DerivedStaff, StaffUnit

from conftest import WINDOW, corpus_of, record


def sup(subject_id, pubs, years, hint=None, univ="U1"):
    return Subject(subject_id=subject_id, mode=MODE_SUPERVISED, university_id=univ,
                   pub_ids=tuple(pubs), active_years=frozenset(years), sc_hint=hint)


def unsup(subject_id, pubs, univ="U1"):
    return Subject(subject_id=subject_id, mode=MODE_UNSUPERVISED,
                   university_id=univ, pub_ids=tuple(pubs))


# ---------------------------------------------------------------------------
# citation cells

def test_build_citation_cells_means():
    corpus = corpus_of([
        record("W1", 2016, ["a, b"], ["SC1"], citations=6),
        record("W2", 2016, ["a, b"], ["SC1"], citations=0),
        record("W3", 2016, ["a, b"], ["SC1", "SC2"], citations=3),
    ])
    cells = build_citation_cells(corpus)
    assert cells.keys() == {(2016, "SC1"), (2016, "SC2")}
    assert cells[(2016, "SC1")] == pytest.approx(3.0)
    assert cells[(2016, "SC2")] == pytest.approx(3.0)


def test_normalized_citation_score_and_zero_mean():
    corpus = corpus_of([
        record("W1", 2016, ["a, b"], ["SC1"], citations=0),
        record("W2", 2016, ["a, b"], ["SC1"], citations=0),
    ])
    cells = build_citation_cells(corpus)
    assert normalized_citation_score(corpus.by_id["W1"], "SC1", cells) == 0.0


def test_normalized_citation_score_missing_cell_names_everything():
    corpus = corpus_of([record("W1", 2016, ["a, b"], ["SC1"], citations=1)])
    cells = build_citation_cells(corpus)
    with pytest.raises(ScoreError, match="2016.*SC9.*W1"):
        normalized_citation_score(corpus.by_id["W1"], "SC9", cells)


def test_publication_norm_averages_over_subject_categories():
    corpus = corpus_of([
        record("W1", 2016, ["a, b"], ["SC1", "SC2"], citations=4),
        record("W2", 2016, ["a, b"], ["SC1"], citations=4),   # SC1 mean 4
        record("W3", 2016, ["a, b"], ["SC2"], citations=0),   # SC2 mean 2
    ])
    cells = build_citation_cells(corpus)
    # SC1 cell mean (4+4)/2=4 -> 1.0; SC2 cell mean (4+0)/2=2 -> 2.0
    assert publication_norm(corpus.by_id["W1"], cells) == pytest.approx(1.5)


# ---------------------------------------------------------------------------
# fss_r hand oracles

def test_fss_r_single_publication_hand_value():
    corpus = corpus_of([
        record("W1", 2016, ["a, x", "b, y", "c, z"], ["SC1"], citations=6),
        record("W2", 2016, ["d, w"], ["SC1"], citations=0),
        record("W3", 2016, ["e, v"], ["SC1"], citations=3),
    ])
    cells = build_citation_cells(corpus)
    subject = sup("P1", ["W1"], range(2015, 2020))
    score = compute_fss_r(subject, corpus, cells, seed=1)
    assert score.t == 5.0
    assert score.fss_r == pytest.approx((1 / 5) * (2.0 * (1 / 3)))
    assert score.n_pubs == 1


def test_fss_r_two_publication_hand_value():
    corpus = corpus_of([
        record("W1", 2016, ["a, x"], ["SC1"], citations=4),
        record("W2", 2016, ["f, u"], ["SC1"], citations=4),
        record("W3", 2017, ["a, x", "b, y"], ["SC1"], citations=0),
        record("W4", 2017, ["f, u"], ["SC1"], citations=4),
    ])
    cells = build_citation_cells(corpus)
    subject = sup("P1", ["W1", "W3"], range(2015, 2019))
    score = compute_fss_r(subject, corpus, cells, seed=1)
    assert score.t == 4.0
    assert score.fss_r == pytest.approx(0.25)


def test_fss_r_no_window_pubs_is_zero_not_error():
    corpus = corpus_of([record("W1", 2016, ["a, x"], ["SC1"], citations=1)])
    score = compute_fss_r(sup("P1", [], range(2015, 2020), hint="SC1"),
                          corpus, build_citation_cells(corpus), seed=1)
    assert score.fss_r == 0.0
    assert score.n_pubs == 0
    assert not score.productive


def test_fss_r_supervised_time_is_active_years_in_window():
    corpus = corpus_of([record("W1", 2016, ["a, x"], ["SC1"], citations=2),
                        record("W2", 2016, ["b, y"], ["SC1"], citations=0)])
    cells = build_citation_cells(corpus)
    short = compute_fss_r(sup("P1", ["W1"], [2016, 2017]), corpus, cells, seed=1)
    long = compute_fss_r(sup("P2", ["W1"], range(2015, 2020)), corpus, cells, seed=1)
    assert short.t == 2.0 and long.t == 5.0
    assert short.fss_r == pytest.approx(long.fss_r * 5 / 2)


def test_fss_r_unsupervised_time_is_window_length():
    corpus = corpus_of([record("W1", 2016, ["a, x"], ["SC1"], citations=2)])
    cells = build_citation_cells(corpus)
    score = compute_fss_r(unsup("C1", ["W1"]), corpus, cells, seed=1)
    assert score.t == 5.0


def test_fss_r_supervised_no_active_years_raises():
    corpus = corpus_of([record("W1", 2016, ["a, x"], ["SC1"], citations=1)])
    subject = Subject(subject_id="P1", mode=MODE_SUPERVISED, university_id="U1",
                      pub_ids=(), active_years=frozenset(), sc_hint="SC1")
    with pytest.raises(ScoreError, match="active years"):
        compute_fss_r(subject, corpus, build_citation_cells(corpus), seed=1)


def test_fss_r_ignores_out_of_window_pubs():
    corpus = corpus_of([
        record("W0", 2010, ["a, x"], ["SC1"], citations=50),   # lookback only
        record("W1", 2016, ["a, x"], ["SC1"], citations=2),
        record("W2", 2016, ["b, y"], ["SC1"], citations=0),
    ])
    cells = build_citation_cells(corpus)
    score = compute_fss_r(sup("P1", ["W0", "W1"], range(2015, 2020)),
                          corpus, cells, seed=1)
    assert score.n_pubs == 1
    assert score.fss_r == pytest.approx(0.4)     # W1's share; W0's would add 0.2


def test_fss_r_citation_scaling_invariance():
    base = [
        record("W1", 2016, ["a, x", "b, y"], ["SC1"], citations=6),
        record("W2", 2016, ["c, z"], ["SC1"], citations=2),
        record("W3", 2017, ["a, x"], ["SC2"], citations=8),
        record("W4", 2017, ["d, v"], ["SC2"], citations=4),
    ]
    scaled = [record(r.pub_id, r.year, [f"{m.last_name}, {m.first_name}" for m in r.mentions],
                     list(r.subject_categories), citations=r.citation_count * 7)
              for r in base]
    subject = sup("P1", ["W1", "W3"], range(2015, 2020))
    one = compute_fss_r(subject, corpus_of(base), build_citation_cells(corpus_of(base)), 1)
    seven = compute_fss_r(subject, corpus_of(scaled), build_citation_cells(corpus_of(scaled)), 1)
    assert one.fss_r == pytest.approx(seven.fss_r, rel=1e-12)


# ---------------------------------------------------------------------------
# prevailing SC

def _sc_corpus():
    return corpus_of([
        record("W1", 2016, ["a, x"], ["SC1"], citations=1),
        record("W2", 2017, ["a, x"], ["SC1"], citations=1),
        record("W3", 2018, ["a, x"], ["SC2"], citations=1),
        record("W4", 2005, ["a, x"], ["SC2"], citations=1),   # in 19y lookback
    ])


def test_prevailing_sc_unique_mode():
    corpus = _sc_corpus()
    assert assign_prevailing_sc(unsup("C1", ["W1", "W2", "W3"]), corpus, 1) == "SC1"


def test_prevailing_sc_unsupervised_whole_oeuvre_vs_supervised_lookback():
    corpus = _sc_corpus()
    # oeuvre counts SC1 twice and SC2 twice -> seeded tie-break
    picked = assign_prevailing_sc(unsup("C1", ["W1", "W2", "W3", "W4"]), corpus, 1)
    assert picked in {"SC1", "SC2"}
    again = assign_prevailing_sc(unsup("C1", ["W1", "W2", "W3", "W4"]), corpus, 1)
    assert picked == again


def test_prevailing_sc_tie_depends_on_seed_key_not_order():
    corpus = _sc_corpus()
    pubs = ["W1", "W2", "W3", "W4"]
    a = assign_prevailing_sc(unsup("C1", pubs), corpus, 1)
    b = assign_prevailing_sc(unsup("C1", list(reversed(pubs))), corpus, 1)
    assert a == b
    picks = {assign_prevailing_sc(unsup(f"C{i}", pubs), corpus, 1) for i in range(30)}
    assert picks == {"SC1", "SC2"}   # the draw actually varies by subject


def test_prevailing_sc_supervised_tie_prefers_hint():
    corpus = _sc_corpus()
    subject = sup("P1", ["W1", "W2", "W3", "W4"], [2016], hint="SC2")
    assert assign_prevailing_sc(subject, corpus, 1) == "SC2"


def test_prevailing_sc_supervised_tie_without_a_tied_hint_is_lexicographic():
    corpus = _sc_corpus()
    pubs = ["W1", "W2", "W3", "W4"]
    assert assign_prevailing_sc(sup("P1", pubs, [2016]), corpus, 1) == "SC1"
    # SC2 counted first, and a hint that is not among the tied SCs
    backwards = sup("P1", pubs[::-1], [2016], hint="SC9")
    assert assign_prevailing_sc(backwards, corpus, 1) == "SC1"


def test_prevailing_sc_supervised_no_pubs_fallbacks():
    corpus = _sc_corpus()
    assert assign_prevailing_sc(sup("P1", [], [2016], hint="SC7"), corpus, 1) == "SC7"
    with pytest.raises(ScoreError) as exc:
        assign_prevailing_sc(sup("P1", [], [2016]), corpus, 1)
    assert str(exc.value) == "supervised subject 'P1' has no publications and no sc_hint"


def test_prevailing_sc_supervised_reads_the_corpus_lookback():
    # W5 (2000, SC2) is in the corpus but before the 19 years ending in 2019
    records = [*_sc_corpus().records, record("W5", 2000, ["a, x"], ["SC2"], citations=1)]
    corpus = Corpus(records, WINDOW)
    assert corpus.lookback == YearWindow(2001, 2019) and "W5" in corpus
    # counted, W5 would give SC2 three publications to SC1's two
    subject = sup("P1", ["W1", "W2", "W3", "W4", "W5"], [2016])
    assert assign_prevailing_sc(subject, corpus, 1) == "SC1"
    # the oeuvre, read in full for an unsupervised subject, does count it
    assert assign_prevailing_sc(unsup("C1", ["W1", "W2", "W3", "W4", "W5"]), corpus, 1) == "SC2"


def test_prevailing_sc_unsupervised_without_pubs_raises():
    with pytest.raises(ScoreError, match="C1"):
        assign_prevailing_sc(unsup("C1", []), _sc_corpus(), 1)


def test_roster_listing_a_publication_twice_counts_it_once():
    corpus = corpus_of([
        record("W1", 2016, ["a, x"], ["SC1"], citations=1),
        record("W2", 2017, ["a, x"], ["SC2"], citations=1),
        record("W3", 2018, ["a, x"], ["SC2"], citations=1),
    ])
    entry = RosterEntry(person_id="P1", university_id="U1", sc_hint=None,
                        active_years=frozenset({2016}),
                        linked_pub_ids=("W1", "W2", "W1", "W3", "W9"))
    (subject,) = subjects_from_roster([entry], corpus)
    assert subject.pub_ids == ("W1", "W2", "W3")
    assert assign_prevailing_sc(subject, corpus, 1) == "SC2"


# ---------------------------------------------------------------------------
# baselines and university aggregation

def _scored_world():
    corpus = corpus_of([
        record("W1", 2016, ["a, x"], ["SC1"], citations=4),
        record("W2", 2016, ["b, y"], ["SC1"], citations=0),
        record("W3", 2016, ["c, z"], ["SC2"], citations=2),
        record("W4", 2016, ["d, w"], ["SC2"], citations=2),
    ])
    cells = build_citation_cells(corpus)
    subjects = [
        sup("P1", ["W1"], range(2015, 2020), univ="U1"),
        sup("P2", ["W2"], range(2015, 2020), hint="SC1", univ="U1"),  # unproductive
        sup("P3", ["W3"], range(2015, 2020), univ="U2"),
        sup("P4", ["W4"], range(2015, 2020), univ="U2"),
    ]
    return corpus, score_subjects(subjects, corpus, cells, seed=1)


def test_compute_sc_baselines_productive_only():
    _, scores = _scored_world()
    baselines = compute_sc_baselines(scores)
    assert [s.subject_id for s in scores if s.sc_id == "SC1"] == ["P1", "P2"]
    p1 = next(s for s in scores if s.subject_id == "P1")
    assert baselines["SC1"] == pytest.approx(p1.fss_r)


def test_compute_fss_u_counts_unproductive_in_denominator():
    _, scores = _scored_world()
    baselines = compute_sc_baselines(scores)
    by_univ = {u.university_id: u for u in compute_fss_u(scores, baselines)}
    # U1: productive P1 (ratio 1) + unproductive P2 (0), rs_u=2
    assert by_univ["U1"].rs_u == 2
    assert by_univ["U1"].fss_u == pytest.approx(0.5)
    # U2: two researchers at exactly the SC2 baseline
    assert by_univ["U2"].fss_u == pytest.approx(1.0)


def test_compute_fss_u_missing_baseline_names_sc_and_member():
    _, scores = _scored_world()
    baselines = compute_sc_baselines([s for s in scores if s.sc_id != "SC2"])
    with pytest.raises(ScoreError, match="SC2.*P3"):
        compute_fss_u(scores, baselines)


def test_self_baseline_single_member_scs_normalize_to_one():
    corpus = corpus_of([
        record("W1", 2016, ["a, x"], ["SC1"], citations=3),
        record("W2", 2016, ["b, y"], ["SC2"], citations=9),
    ])
    cells = build_citation_cells(corpus)
    scores = score_subjects([sup("P1", ["W1"], range(2015, 2020), univ="U1"),
                             sup("P2", ["W2"], range(2015, 2020), univ="U1")],
                            corpus, cells, seed=1)
    baselines = compute_sc_baselines(scores)
    rows = compute_fss_u(scores, baselines)
    assert rows[0].fss_u == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# exclusions

def _fake_score(subject_id, sc, mode=MODE_SUPERVISED, fss=1.0):
    from fssbench.fss import ResearcherScore
    return ResearcherScore(subject_id=subject_id, mode=mode, university_id="U1",
                           sc_id=sc, t=5.0, n_pubs=1, fss_r=fss)


SCHEME = SCScheme([
    SubjectCategory("SC1"),
    SubjectCategory("SC2"),
    SubjectCategory("LAW", excluded_area=True),
    SubjectCategory("MULTI", is_multidisciplinary=True),
])


def test_apply_exclusions_drops_excluded_and_multidisciplinary():
    scores = [_fake_score("P1", "SC1"), _fake_score("P2", "LAW"),
              _fake_score("P3", "MULTI")]
    kept = apply_exclusions({MODE_SUPERVISED: scores}, SCHEME, min_obs=1)
    assert [s.subject_id for s in kept[MODE_SUPERVISED]] == ["P1"]


def test_apply_exclusions_literal_needs_short_in_both():
    supd = [_fake_score(f"P{i}", "SC1") for i in range(10)] + [_fake_score("P99", "SC2")]
    unsupd = [_fake_score(f"C{i}", "SC1", MODE_UNSUPERVISED) for i in range(10)] \
        + [_fake_score(f"C9{i}", "SC2", MODE_UNSUPERVISED) for i in range(10)]
    both = {MODE_SUPERVISED: supd, MODE_UNSUPERVISED: unsupd}
    # SC2 is short only in the supervised list -> kept
    assert apply_exclusions(both, SCHEME, min_obs=10) == both


# ---------------------------------------------------------------------------
# a scoring run

def _run_inputs():
    """``_scored_world``'s corpus, a roster of its four authors (P1 and P2
    at U1, P3 and P4 at U2) and a staff of one unit per publication."""
    corpus, _ = _scored_world()
    roster = [RosterEntry(f"P{i}", f"U{1 + (i > 2)}", None, frozenset(WINDOW.years()),
                          (f"W{i}",)) for i in range(1, 5)]
    units = [StaffUnit(f"W{i}:0", f"U{1 + (i > 2)}", "both", (f"W{i}:0",),
                       frozenset({f"W{i}"}), None, ()) for i in range(1, 5)]
    staff = DerivedStaff(members={"U1": units[:2], "U2": units[2:]}, review_queue=[])
    return corpus, roster, staff


def test_score_modes_returns_each_mode_researchers_then_universities():
    corpus, roster, staff = _run_inputs()
    by_mode = score_modes(corpus, roster, staff, SCScheme([]), 1, min_obs=0)
    assert list(by_mode) == [MODE_SUPERVISED, MODE_UNSUPERVISED]
    cells = build_citation_cells(corpus)
    for mode, subjects in ((MODE_SUPERVISED, subjects_from_roster(roster, corpus)),
                           (MODE_UNSUPERVISED, subjects_from_staff(staff, corpus))):
        researchers, universities = by_mode[mode]
        assert researchers == score_subjects(subjects, corpus, cells, 1)
        assert universities == compute_fss_u(researchers, compute_sc_baselines(researchers))
        assert [u.university_id for u in universities] == ["U1", "U2"]
        assert {u.mode for u in universities} == {mode}


def test_score_modes_applies_the_exclusions():
    corpus, roster, staff = _run_inputs()
    scheme = SCScheme([SubjectCategory("SC2", excluded_area=True)])
    for researchers, universities in score_modes(corpus, roster, staff, scheme, 1,
                                                 min_obs=0).values():
        assert {s.sc_id for s in researchers} == {"SC1"}
        assert [(u.university_id, u.rs_u) for u in universities] == [("U1", 2)]


def test_score_modes_refuses_a_mode_left_without_researchers():
    corpus, roster, staff = _run_inputs()
    # two researchers per SC in each mode: a floor of 3 excludes every SC
    with pytest.raises(ScoreError) as refused:
        score_modes(corpus, roster, staff, SCScheme([]), 1, min_obs=3)
    assert str(refused.value) == "no supervised researcher left after exclusions (min_obs 3)"


def test_load_scores_reads_back_what_score_modes_returns(tmp_path):
    corpus, roster, staff = _run_inputs()
    by_mode = score_modes(corpus, roster, staff, SCScheme([]), 1, min_obs=0)
    researchers, universities = tmp_path / "r.csv", tmp_path / "u.csv"
    write_researcher_scores_csv([s for r, _ in by_mode.values() for s in r], researchers)
    write_university_scores_csv([u for _, us in by_mode.values() for u in us], universities)
    back = load_scores(researchers, universities)
    assert back == by_mode
    assert list(back) == [MODE_SUPERVISED, MODE_UNSUPERVISED]


# ---------------------------------------------------------------------------
# score files

def test_researcher_scores_csv_round_trip(tmp_path):
    _, scores = _scored_world()
    path = tmp_path / "r.csv"
    write_researcher_scores_csv(scores, path)
    back = load_researcher_scores_csv(path)
    assert [(s.subject_id, s.sc_id, s.t, s.n_pubs) for s in back] == \
        [(s.subject_id, s.sc_id, s.t, s.n_pubs) for s in scores]
    for a, b in zip(back, scores):
        assert a.fss_r == b.fss_r         # repr round-trip is exact


def test_researcher_scores_csv_loads_back_the_scores_written(tmp_path):
    corpus, supervised = _scored_world()
    unsupervised = score_subjects([unsup("C2", ["W3", "W4"], univ="U2"),
                                   unsup("C1", ["W1"])],
                                  corpus, build_citation_cells(corpus), seed=1)
    scores = unsupervised + supervised
    path = tmp_path / "scores_researchers.csv"
    write_researcher_scores_csv(scores, path)
    assert load_researcher_scores_csv(path) == \
        sorted(scores, key=lambda s: (s.mode, s.subject_id))


def _university_rows(scores, mode):
    """compute_fss_u over ``scores`` recast as ``mode``'s."""
    scores = [replace(s, mode=mode) for s in scores]
    return compute_fss_u(scores, compute_sc_baselines(scores))


def test_compute_fss_u_stamps_the_mode_of_its_scores():
    _, scores = _scored_world()
    for mode in (MODE_SUPERVISED, MODE_UNSUPERVISED):
        rows = _university_rows(scores, mode)
        assert len(rows) == 2
        assert {u.mode for u in rows} == {mode}


def test_university_scores_csv_round_trip(tmp_path):
    _, scores = _scored_world()
    rows = [u for mode in (MODE_SUPERVISED, MODE_UNSUPERVISED)
            for u in _university_rows(scores, mode)]
    path = tmp_path / "u.csv"
    write_university_scores_csv(rows, path)
    back = load_university_scores_csv(path)
    assert back == rows          # each row keeps its mode; repr round-trip is exact
    assert [u.mode for u in back] == [MODE_SUPERVISED] * 2 + [MODE_UNSUPERVISED] * 2
