import csv

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import reference_synth as reference
from fssbench import synth
from fssbench.corpus import YearWindow, load_publications, load_roster
from fssbench.fss import (
    MODE_SUPERVISED,
    build_citation_cells,
    score_subjects,
    subjects_from_roster,
)
from fssbench.synth import SynthConfig, _pick, _rng, generate, oracle_scores


def small_config(**kw):
    base = dict(seed=5, n_universities=3, n_researchers=24, n_scs=3,
                window=YearWindow(2015, 2019))
    base.update(kw)
    return SynthConfig(**base)


def read_bytes(files):
    return {name: path.read_bytes() for name, path in files.items()}


# ---------------------------------------------------------------------------
# configuration validation

# explicit ids keep each case's name when another case is added or removed
@pytest.mark.parametrize("kw,msg", [
    pytest.param(dict(non_faculty_share=-0.1), "non_faculty_share",
                 id="kw1-non_faculty_share"),
    pytest.param(dict(n_researchers=0), "n_researchers", id="kw2-n_researchers"),
    pytest.param(dict(window=(2019, 2015)), "empty year window", id="kw3-window_start"),
    pytest.param(dict(non_faculty_share=1.0), "below 1", id="kw4-below 1"),
    pytest.param(dict(n_universities=99), "universities", id="kw6-universities"),
])
def test_config_rejects_bad_values(kw, msg):
    with pytest.raises(ValueError, match=msg):
        if "window" in kw:                   # the window refuses itself
            kw = dict(window=YearWindow(*kw["window"]))
        small_config(**kw)


# ---------------------------------------------------------------------------
# determinism

def test_same_seed_byte_identical(tmp_path):
    files_a, _ = generate(small_config(), tmp_path / "a")
    files_b, _ = generate(small_config(), tmp_path / "b")
    assert read_bytes(files_a) == read_bytes(files_b)


def test_different_seed_differs(tmp_path):
    files_a, _ = generate(small_config(seed=5), tmp_path / "a")
    files_b, _ = generate(small_config(seed=6), tmp_path / "b")
    assert files_a["publications"].read_bytes() != files_b["publications"].read_bytes()


# ---------------------------------------------------------------------------
# draws equal the reference draws (tests/reference_synth.py)

@given(seed=st.integers(0, 2 ** 70), key=st.lists(st.integers(0, 2 ** 64), max_size=4))
@example(seed=0, key=[])
@example(seed=2 ** 32 - 1, key=[0, 2 ** 32 - 1])
@example(seed=2 ** 32, key=[2 ** 32, 2 ** 64])
@example(seed=2 ** 70, key=[3, 2 ** 64 - 1, 0])
def test_rng_state_equals_default_rng(seed, key):
    config = SynthConfig(seed=seed)
    assert (_rng(config, *key).bit_generator.state
            == reference._rng(config, *key).bit_generator.state)


@pytest.mark.parametrize("seed, key", [(-1, ()), (0, (-1,)), (7, (4, 3, -(2 ** 40)))])
def test_rng_refuses_a_negative_int_as_default_rng_does(seed, key):
    config = SynthConfig()
    object.__setattr__(config, "seed", seed)     # past the seed check of SynthConfig
    for rng in (_rng, reference._rng):
        with pytest.raises(ValueError, match="^expected non-negative integer$"):
            rng(config, *key)


@given(seed=st.integers(0, 2 ** 64),
       seq=st.sampled_from([synth._SYLLABLES, synth._FIRST_NAMES, ["Maria"], ["Marco", "Maria"]]),
       draws=st.integers(1, 5))
def test_pick_equals_choice_and_leaves_the_same_stream(seed, seq, draws):
    picked, chosen = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(draws):
        assert _pick(picked, seq) == chosen.choice(seq)
        assert picked.bit_generator.state == chosen.bit_generator.state


@pytest.mark.parametrize("kw", [
    dict(seed=3, n_universities=8, n_researchers=120, n_scs=6, non_faculty_share=0.35,
         non_faculty_productivity_multiplier=0.5),
    dict(seed=2 ** 32 + 1, n_universities=4, n_researchers=80, n_scs=4, homonym_rate=1.0,
         orcid_missing_rate=0.5, email_missing_rate=0.5),
], ids=["contamination", "homonym"])
def test_generate_writes_the_bytes_of_the_reference_draws(tmp_path, monkeypatch, kw):
    config = SynthConfig(**kw)
    files, _ = generate(config, tmp_path / "package")
    monkeypatch.setattr(synth, "_rng", reference._rng)
    monkeypatch.setattr(synth, "_person_names", reference._person_names)
    monkeypatch.setattr(synth, "_draw_name", reference.draw_name)
    reference_files, _ = generate(config, tmp_path / "reference")
    assert read_bytes(files) == read_bytes(reference_files)


# ---------------------------------------------------------------------------
# world structure

def load_world(tmp_path, **kw):
    config = small_config(**kw)
    files, truth = generate(config, tmp_path / "world")
    corpus = load_publications(files["publications"], config.window)
    return config, files, truth, corpus


def test_roster_holds_exactly_the_faculty(tmp_path):
    config, files, truth, _ = load_world(tmp_path)
    roster = load_roster(files["roster"], config.window)
    assert {e.person_id for e in roster} == {p.person_id for p in truth.faculty()}
    assert len(roster) == config.n_researchers


def test_roster_years_clip_to_window(tmp_path):
    config, files, truth, _ = load_world(tmp_path)
    for entry in load_roster(files["roster"], config.window):
        person = truth.persons[entry.person_id]
        expected = {y for y in range(person.career_start, person.career_end + 1)
                    if y in config.window}
        assert set(entry.active_years) == expected


def test_every_corpus_mention_has_a_truth_label(tmp_path):
    _, _, truth, corpus = load_world(tmp_path)
    labels = [ref for refs in truth.mention_clusters(corpus).values() for ref in refs]
    assert len(labels) == len(set(labels))           # one person per mention
    assert set(labels) == {(rec.pub_id, pos) for rec in corpus.records
                           for pos in range(len(rec.mentions))}


def test_mention_refs_point_at_own_pubs(tmp_path):
    _, _, truth, _ = load_world(tmp_path)
    for person in truth.persons.values():
        owned = set(person.pub_ids)
        for pub_id, _pos in person.mention_refs:
            assert pub_id in owned


def test_careers_reach_the_window(tmp_path):
    config, _, truth, _ = load_world(tmp_path)
    for person in truth.faculty():
        assert person.career_start <= person.career_end
        assert person.career_end >= config.window.start


def test_clean_world_has_no_unlisted_publishers(tmp_path):
    _, _, truth, _ = load_world(tmp_path)
    kinds = {p.kind for p in truth.persons.values() if p.kind != "external"}
    assert kinds == {"faculty"}


def test_contaminated_world_adds_unlisted_publishers(tmp_path):
    config, files, truth, _ = load_world(
        tmp_path, non_faculty_share=0.3, n_researchers=30)
    extras = [p for p in truth.persons.values() if p.kind == "non_faculty"]
    # n chosen so extras / (faculty + extras) ~= the configured share
    assert len(extras) == round(30 * 0.3 / 0.7)
    roster_ids = {e.person_id for e in load_roster(files["roster"], config.window)}
    assert not roster_ids & {p.person_id for p in extras}
    # contaminants publish under the university's email domain
    with_email = [p for p in extras if p.email]
    assert with_email
    assert all(p.email.endswith(".example") for p in with_email)


def test_homonyms_share_block_key(tmp_path):
    _, _, truth, _ = load_world(tmp_path, homonym_rate=0.3, n_researchers=40)
    keys = [(p.last_name.lower(), p.first_name[0].lower())
            for p in truth.faculty()]
    assert len(set(keys)) < len(keys)


def test_ground_truth_csv_round_trips_refs(tmp_path):
    _, files, truth, _ = load_world(tmp_path)
    with files["ground_truth"].open() as fh:
        rows = {row["person_id"]: row for row in csv.DictReader(fh)}
    for pid, person in truth.persons.items():
        refs = rows[pid]["mention_refs"]
        parsed = set()
        if refs:
            for token in refs.split(";"):
                pub_id, _, pos = token.rpartition(":")
                parsed.add((pub_id, int(pos)))
        assert parsed == set(person.mention_refs)


# ---------------------------------------------------------------------------
# oracle sanity

def test_oracle_zero_pub_faculty_scores_zero(tmp_path):
    config, _, truth, corpus = load_world(tmp_path, seed=9)
    fss_r, _ = oracle_scores(truth, corpus, MODE_SUPERVISED, config.seed)
    silent = [p for p in truth.faculty()
              if not any(pid in corpus.by_id for pid in p.pub_ids)]
    unproductive = [pid for pid, v in fss_r.items() if v == 0.0]
    for person in silent:
        assert person.person_id in unproductive


def test_oracle_single_university_self_baseline(tmp_path):
    config, _, truth, corpus = load_world(tmp_path, n_universities=1,
                                          n_researchers=12)
    _, fss_u = oracle_scores(truth, corpus, MODE_SUPERVISED, config.seed)
    assert set(fss_u) == {"U00"}
    # with one university per SC the baseline averages its own people,
    # but unproductive members still dilute, so 1.0 only when none exist
    productive, _ = oracle_scores(truth, corpus, MODE_SUPERVISED, config.seed)
    if all(v > 0 for v in productive.values()):
        assert fss_u["U00"] == pytest.approx(1.0)


def test_oracle_agrees_with_pipeline_supervised(tmp_path):
    config, files, truth, corpus = load_world(tmp_path, seed=13)
    fss_r, fss_u = oracle_scores(truth, corpus, MODE_SUPERVISED, config.seed)

    roster = load_roster(files["roster"], config.window)
    subjects = subjects_from_roster(roster, corpus)
    cells = build_citation_cells(corpus)
    scores = score_subjects(subjects, corpus, cells, config.seed)
    assert {s.subject_id: s.fss_r for s in scores} == pytest.approx(fss_r)


def test_oracle_cell_means_match_fast_cells(tmp_path):
    config, _, _, corpus = load_world(tmp_path, seed=21)
    cells = build_citation_cells(corpus)
    from fssbench.synth import _oracle_cell_mean
    for (year, sc), mean in cells.items():
        assert _oracle_cell_mean(corpus, year, sc) == pytest.approx(mean)
