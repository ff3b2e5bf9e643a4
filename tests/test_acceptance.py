"""Frozen end-to-end acceptance checks.

Each test prints exactly one PASS or FAIL line (run with ``pytest -v -s``
to see them) and pins the expected numbers at fixed tolerances. The
reference-table checks work off the packaged fixture; the generator
checks rebuild small worlds from scratch and compare the pipeline
against the slow direct evaluation.
"""

import math
import time
from pathlib import Path

import numpy as np
import scipy.stats as sps

from conftest import WINDOW, corpus_of, record
from fssbench.compare import (
    assign_quartile,
    correlation_battery,
    load_fixture_rows,
    load_reference_table,
    percentile_of_rank,
    quartile_confusion,
    rank_jumps,
)
from fssbench.corpus import (
    AuthorMention,
    PublicationRecord,
    load_publications,
    load_registry,
    load_roster,
    load_scheme,
)
from fssbench.disambig import (DEFAULT_RULES, block_mentions, cluster_block, cluster_corpus,
                               mention_context)
from fssbench.fss import (
    MODE_SUPERVISED,
    MODE_UNSUPERVISED,
    Subject,
    build_citation_cells,
    compute_fss_r,
    compute_sc_baselines,
    normalized_citation_score,
    publication_norm,
    score_modes,
    score_subjects,
)
from fssbench.staff import derive_staff
from fssbench.synth import SynthConfig, generate, oracle_scores


def check(name: str, ok: bool, detail: str, elapsed: float | None = None) -> None:
    stamp = "" if elapsed is None else f" [{elapsed:.2f}s]"
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}{stamp}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# reference-table checks

EXPECTED_MATRIX = ((12, 1, 4, 0),
                   (4, 8, 2, 2),
                   (1, 5, 6, 4),
                   (0, 2, 4, 10))

EXPECTED_JUMPS = (
    ("Messina", 1, 3),
    ('Napoli "Parthenope"', 1, 3),
    ("Enna", 1, 3),
    ("Mediterranea di Reggio Calabria", 1, 3),
    ("del Sannio", 2, 4),
    ("Teramo", 2, 4),
    ('"Campus Bio-medico"', 3, 1),
    ("LUISS", 4, 2),
    ('Urbino "Carlo Bo"', 4, 2),
)


def test_quartile_matrix_reproduced_exactly():
    t0 = time.perf_counter()
    matrix = quartile_confusion(load_reference_table())
    elapsed = time.perf_counter() - t0
    ok = (matrix.counts == EXPECTED_MATRIX
          and matrix.diagonal_total == 36
          and matrix.above_diagonal == 13
          and matrix.below_diagonal == 16
          and elapsed < 1.0)
    check("quartile confusion matrix", ok,
          f"counts {matrix.counts} diag {matrix.diagonal_total} "
          f"above {matrix.above_diagonal} below {matrix.below_diagonal}, limit 1s",
          elapsed)


def test_quartile_jumpers_identified():
    t0 = time.perf_counter()
    table = load_reference_table()
    two = rank_jumps(table, threshold_quartiles=2)
    three = rank_jumps(table, threshold_quartiles=3)
    elapsed = time.perf_counter() - t0
    ok = two.jumps == EXPECTED_JUMPS and three.jumps == () and elapsed < 1.0
    check("universities jumping 2+ quartiles", ok,
          f"{len(two.jumps)} movers at threshold 2 (want the 9 known ones in "
          f"order), {len(three.jumps)} at threshold 3 (want 0), limit 1s",
          elapsed)


def test_score_and_rank_correlations():
    correlation = correlation_battery(load_reference_table())
    pearson, spearman = correlation.pearson_scores, correlation.spearman_ranks
    ok = abs(pearson - 0.813) <= 0.010 and abs(spearman - 0.686) <= 0.005
    check("score and rank correlations", ok,
          f"pearson {pearson:.6f} (want 0.813 +/- 0.010), "
          f"spearman {spearman:.6f} (want 0.686 +/- 0.005)")


def test_every_published_percentile_recomputed():
    table = load_reference_table()
    rows = load_fixture_rows()
    matched = sum((table.row(r["university"]).sup_percentile == int(r["sup_perc"]))
                  + (table.row(r["university"]).unsup_percentile == int(r["unsup_perc"]))
                  for r in rows)
    anchors = (percentile_of_rank(5, 65) == 94
               and percentile_of_rank(9, 65) == 88
               and percentile_of_rank(33, 65) == 50)
    ok = matched == 2 * len(rows) == 130 and anchors
    check("percentile recomputation", ok,
          f"{matched}/130 published percentiles reproduced with round-half-up, "
          f"anchor ranks 5/9/33 -> 94/88/50")


def test_top_group_rank_stability():
    report = rank_jumps(load_reference_table(), top_k=11)
    ok = report.max_abs_delta_top == 6
    check("top-11 rank stability", ok,
          f"max |rank shift| within the supervised top 11 is "
          f"{report.max_abs_delta_top} (want exactly 6)")


# ---------------------------------------------------------------------------
# generator-backed checks

def _scores(files, corpus, seed, **score_kw):
    """``score_modes`` over a generated world: its roster, and the staff
    derived from its clusters with the size, age and recency filters off."""
    staff = derive_staff(cluster_corpus(corpus, DEFAULT_RULES), load_registry(files["registry"]),
                         min_clusters=1, min_age=0, recency_year=1900)
    return score_modes(corpus, load_roster(files["roster"], corpus.window), staff,
                       load_scheme(files["scheme"]), seed, **score_kw)


def _truth_unit_ids(truth, corpus):
    """person_id -> the id their mention cluster gets, for faculty with
    at least one mention in the loaded corpus."""
    out = {}
    for person in truth.faculty():
        refs = [r for r in person.mention_refs if r[0] in corpus.by_id]
        if refs:
            pub_id, pos = min(refs)
            out[person.person_id] = f"{pub_id}:{pos}"
    return out


def test_pipeline_matches_direct_evaluation(tmp_path):
    t0 = time.perf_counter()
    tol = 1e-9
    worst = 0.0
    for seed in range(1, 11):
        config = SynthConfig(seed=seed, n_universities=4, n_researchers=40, n_scs=4)
        files, truth = generate(config, tmp_path / f"w{seed}")
        corpus = load_publications(files["publications"], config.window)
        # the oracle applies no exclusion, and none can fire: the scheme puts
        # no SC out of scope, and min_obs 0 excludes no thin SC
        scheme = load_scheme(files["scheme"])
        assert not any(map(scheme.is_dropped, scheme.categories))
        unit_of = _truth_unit_ids(truth, corpus)
        for mode, (scores, universities) in _scores(files, corpus, seed, min_obs=0).items():
            oracle_r, oracle_u = oracle_scores(truth, corpus, mode, seed)
            subject_of = {k: unit_of[k] if mode == MODE_UNSUPERVISED else k for k in oracle_r}
            got = {s.subject_id: s.fss_r for s in scores}
            fss_u = {u.university_id: u.fss_u for u in universities}
            assert set(got) == set(subject_of.values())
            worst = max(worst, *(abs(got[subject_of[k]] - oracle_r[k]) for k in oracle_r))
            worst = max(worst, *(abs(fss_u[k] - oracle_u[k]) for k in oracle_u))
    elapsed = time.perf_counter() - t0
    ok = worst <= tol and elapsed < 10.0
    check("pipeline vs direct evaluation", ok,
          f"10 seeds, both modes, researcher and university scores; "
          f"worst abs diff {worst:.2e} (tol {tol}), limit 10s", elapsed)


def test_clean_world_staff_recovery(tmp_path):
    t0 = time.perf_counter()
    min_age, recency = 2, 2016
    all_equal, total_filtered = True, 0
    for seed in range(1, 6):
        config = SynthConfig(seed=seed, n_universities=4, n_researchers=48, n_scs=4)
        files, truth = generate(config, tmp_path / f"w{seed}")
        corpus = load_publications(files["publications"], config.window)
        registry = load_registry(files["registry"])
        clusters = cluster_corpus(corpus, DEFAULT_RULES)
        staff = derive_staff(clusters, registry, min_clusters=1,
                             min_age=min_age, recency_year=recency)
        got = {}
        for unit in staff.all_units():
            got.setdefault(unit.university_id, set()).add(unit.pub_ids)
        expected = {}
        for person in truth.faculty():
            pubs = [p for p in person.pub_ids if p in corpus.by_id]
            if not pubs:
                continue
            years = [corpus.by_id[p].year for p in pubs]
            if max(years) < recency or max(years) - min(years) < min_age:
                total_filtered += 1
                continue
            expected.setdefault(person.university_id, set()).add(frozenset(pubs))
        all_equal = all_equal and got == expected
    elapsed = time.perf_counter() - t0
    ok = all_equal and total_filtered > 0
    check("clean-world staff recovery", ok,
          f"5 seeds, derived staff identical to the active ground-truth "
          f"publishers surviving the age/recency filters "
          f"({total_filtered} correctly filtered)", elapsed)


# ---------------------------------------------------------------------------
# invariant suites (randomized, 1000+ cases each or exhaustive)

_LASTS = ["verdi", "rossi", "bianchi", "ferrari", "russo", "colombo"]
_FIRSTS = ["anna", "bruno", "carla", "dario"]
_SCS = ["SC1", "SC2", "SC3", "SC4"]


def _random_records(rng, n_pubs):
    records = []
    for i in range(n_pubs):
        n_authors = int(rng.integers(1, 6))
        names = [f"{rng.choice(_LASTS)}, {rng.choice(_FIRSTS)}"
                 for _ in range(n_authors)]
        n_scs = 1 + (rng.random() < 0.25)
        scs = list(rng.choice(_SCS, size=n_scs, replace=False))
        records.append(record(f"W{i:03d}", int(rng.integers(2015, 2020)),
                              names, scs, citations=int(rng.integers(0, 30))))
    return records


def _rand_mention_pub(rng, pub_id, year):
    n_authors = int(rng.integers(1, 5))
    mentions = []
    for _ in range(n_authors):
        last, first = str(rng.choice(_LASTS)), str(rng.choice(_FIRSTS))
        kw = {}
        if rng.random() < 0.4:
            kw["orcid"] = f"0000-000{rng.integers(0, 4)}-0000-000{rng.integers(0, 10)}"
        if rng.random() < 0.4:
            kw["email"] = f"{last}.{first}@uni{rng.integers(0, 3)}.example"
        if rng.random() < 0.6:
            kw["organization"] = f"univ {rng.choice(['north', 'south', 'east'])}"
        mentions.append(AuthorMention(raw_full_name=f"{last}, {first}",
                                      last_name=last, first_name=first, **kw))
    base = record(pub_id, year, [], [str(rng.choice(_SCS))],
                  citations=int(rng.integers(0, 20)),
                  journal=f"j{rng.integers(0, 3)}")
    return PublicationRecord(**{**base.__dict__, "mentions": tuple(mentions)})


def _random_mention_corpus(rng):
    n = int(rng.integers(8, 16))
    records = [_rand_mention_pub(rng, f"W{i:03d}", int(rng.integers(2015, 2020)))
               for i in range(n)]
    return corpus_of(records)


def _suite_byline_fractions(rng):
    cases = 0
    while cases < 1000:
        records = _random_records(rng, 25)
        corpus = corpus_of(records)
        cells = build_citation_cells(corpus)
        for r in records:
            norm = publication_norm(r, cells)
            if r.year not in corpus.window or norm == 0.0:
                continue    # a zero norm hides the weight from every score
            alone = Subject(subject_id=r.pub_id, mode=MODE_UNSUPERVISED,
                            university_id=None, pub_ids=(r.pub_id,))
            score = compute_fss_r(alone, corpus, cells, seed=1)
            weight = score.fss_r * score.t / norm
            assert math.isclose(weight * len(r.mentions), 1.0, rel_tol=1e-12)
            cases += 1
    return cases


def _suite_cell_mean_is_one(rng):
    cases = 0
    while cases < 1000:
        corpus = corpus_of(_random_records(rng, 30))
        cells = build_citation_cells(corpus)
        for (year, sc), mean in cells.items():
            if mean == 0:
                continue
            members = [r for r in corpus.records
                       if r.year == year and sc in r.subject_categories]
            mean_norm = sum(normalized_citation_score(r, sc, cells)
                            for r in members) / len(members)
            assert math.isclose(mean_norm, 1.0, rel_tol=1e-9)
            cases += 1
    return cases


def _subjects_over(records, rng, n_subjects):
    pub_ids = [r.pub_id for r in records]
    subjects = []
    for i in range(n_subjects):
        k = int(rng.integers(1, 6))
        owned = tuple(sorted(set(rng.choice(pub_ids, size=k))))
        subjects.append(Subject(subject_id=f"S{i:02d}", mode=MODE_SUPERVISED,
                                university_id=f"U{i % 3}", pub_ids=owned,
                                active_years=frozenset(WINDOW.years())))
    return subjects


def _suite_citation_scaling(rng):
    cases = 0
    while cases < 1000:
        records = _random_records(rng, 25)
        factor = int(rng.integers(2, 10))
        scaled = [PublicationRecord(**{**r.__dict__,
                                       "citation_count": r.citation_count * factor})
                  for r in records]
        subjects = _subjects_over(records, rng, 20)
        corpus_a, corpus_b = corpus_of(records), corpus_of(scaled)
        scores_a = score_subjects(subjects, corpus_a,
                                  build_citation_cells(corpus_a), seed=3)
        scores_b = score_subjects(subjects, corpus_b,
                                  build_citation_cells(corpus_b), seed=3)
        for a, b in zip(scores_a, scores_b):
            assert math.isclose(a.fss_r, b.fss_r, rel_tol=1e-9, abs_tol=1e-12)
            cases += 1
    return cases


def _suite_baseline_normalized_mean(rng):
    cases = 0
    while cases < 1000:
        records = _random_records(rng, 20)
        corpus = corpus_of(records)
        subjects = _subjects_over(records, rng, 16)
        scores = score_subjects(subjects, corpus, build_citation_cells(corpus), seed=5)
        for sc, baseline in compute_sc_baselines(scores).items():
            ratios = [s.fss_r / baseline
                      for s in scores if s.sc_id == sc and s.productive]
            assert math.isclose(sum(ratios) / len(ratios), 1.0, rel_tol=1e-9)
            cases += 1
    return cases


def _suite_cluster_partition(rng):
    cases = 0
    while cases < 1000:
        corpus = _random_mention_corpus(rng)
        clusters = cluster_corpus(corpus, DEFAULT_RULES)
        seen = [ref for c in clusters for ref in c.mention_refs]
        expected = [(r.pub_id, pos) for r in corpus.records
                    for pos in range(len(r.mentions))]
        assert sorted(seen) == sorted(expected)
        assert len(set(seen)) == len(seen)
        cases += len(seen)
    return cases


def _suite_block_independence(rng):
    cases = 0
    while cases < 1000:
        corpus = _random_mention_corpus(rng)
        blocks = list(block_mentions(corpus).values())
        union = [c for i in rng.permutation(len(blocks))
                 for c in cluster_block([mention_context(*ref) for ref in blocks[i]],
                                        DEFAULT_RULES)]
        assert cluster_corpus(corpus, DEFAULT_RULES) == sorted(
            union, key=lambda c: c.mention_refs[0])
        cases += corpus.mention_count()
    return cases


def _suite_quartile_marginals():
    cases = 0
    for n in range(2, 66):
        quartiles = [assign_quartile(rank, n) for rank in range(1, n + 1)]
        assert quartiles == sorted(quartiles)
        assert quartiles[0] == 1 and quartiles[-1] == 4
        counts = [quartiles.count(q) for q in (1, 2, 3, 4)]
        assert sum(counts) == n
        if n == 65:
            assert counts == [17, 16, 16, 16]
        cases += n
    return cases


def test_randomized_invariant_suites():
    t0 = time.perf_counter()
    totals = {
        "byline-fractions": _suite_byline_fractions(np.random.default_rng(401)),
        "cell-mean": _suite_cell_mean_is_one(np.random.default_rng(402)),
        "citation-scaling": _suite_citation_scaling(np.random.default_rng(403)),
        "baseline-mean": _suite_baseline_normalized_mean(np.random.default_rng(404)),
        "cluster-partition": _suite_cluster_partition(np.random.default_rng(405)),
        "block-independence": _suite_block_independence(np.random.default_rng(406)),
        "quartile-marginals": _suite_quartile_marginals(),
    }
    elapsed = time.perf_counter() - t0
    ok = all(v >= 1000 for v in totals.values())
    check("randomized invariant suites", ok,
          ", ".join(f"{k} {v}" for k, v in totals.items()) + " cases (each >= 1000)",
          elapsed)


# ---------------------------------------------------------------------------
# directional distortion under roster contamination

def test_contamination_pushes_scores_down(tmp_path):
    t0 = time.perf_counter()
    seeds_down = 0
    obs_dev, fss_dev = [], []
    n_seeds = 20
    for seed in range(1, n_seeds + 1):
        config = SynthConfig(seed=seed, n_universities=8, n_researchers=120,
                             n_scs=6, non_faculty_share=0.35,
                             non_faculty_productivity_multiplier=0.5)
        files, _ = generate(config, tmp_path / f"w{seed}")
        corpus = load_publications(files["publications"], config.window)
        # at `fssbench score`'s defaults, as the CLI scores it
        (sup_scores, sup_u), (uns_scores, uns_u) = _scores(files, corpus, seed).values()

        def sc_means(scores):
            acc = {}
            for s in scores:
                acc.setdefault(s.sc_id, []).append(s.fss_r)
            return {sc: sum(v) / len(v) for sc, v in acc.items()}

        sup_m, uns_m = sc_means(sup_scores), sc_means(uns_scores)
        common = sorted(set(sup_m) & set(uns_m))
        if sum(uns_m[sc] - sup_m[sc] for sc in common) / len(common) < 0:
            seeds_down += 1

        sup_by_univ = {u.university_id: u for u in sup_u}
        for unsup in uns_u:
            sup = sup_by_univ[unsup.university_id]
            obs_dev.append(100.0 * (unsup.rs_u - sup.rs_u) / sup.rs_u)
            fss_dev.append(100.0 * (unsup.fss_u - sup.fss_u) / sup.fss_u)
    pooled = float(sps.pearsonr(obs_dev, fss_dev).statistic)
    elapsed = time.perf_counter() - t0
    ok = seeds_down >= 18 and pooled < 0 and elapsed < 60.0
    check("contamination pushes scores down", ok,
          f"unlisted-publisher share 0.35 at half productivity: per-SC means "
          f"lower without the roster in {seeds_down}/{n_seeds} seeds (need 18), "
          f"staff-inflation vs score-deviation pearson {pooled:.3f} (need < 0), "
          f"limit 60s", elapsed)
