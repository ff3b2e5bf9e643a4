import dataclasses
import hashlib
import inspect
import json
import logging
import re
import string
import unicodedata
from datetime import date
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fssbench import corpus as cm
from fssbench.corpus import (
    CorpusError,
    University,
    UniversityRegistry,
    YearWindow,
    first_initial,
    load_publications,
    load_registry,
    load_roster,
    load_scheme,
    normalize_email,
    normalize_name,
    normalize_org,
    split_full_name,
)

from fssbench.cli import load_config_file
from fssbench.disambig import (AuthorCluster, load_clusters_jsonl, load_rules, mention_context,
                               score_pair)
from fssbench.fss import load_researcher_scores_csv, load_university_scores_csv
from fssbench.staff import load_staff_csv

from conftest import WINDOW, mention, pub, write_jsonl


# ---------------------------------------------------------------------------
# mentions

def test_author_mention_is_slotted_frozen_and_hashed_by_its_fields():
    m = cm.AuthorMention(raw_full_name="Rossi, M", last_name="rossi", first_name="m",
                         email="m@x.it", orcid="0000-0001-0000-0001")
    assert not hasattr(m, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        m.email = "other@x.it"
    # a name that is not a field is refused too; Python 3.11 raises TypeError,
    # as its frozen __setattr__ names the class from before slots were added
    with pytest.raises((dataclasses.FrozenInstanceError, TypeError)):
        m.nickname = "mimi"
    twin = dataclasses.replace(m)
    assert twin == m and twin is not m
    assert hash(twin) == hash(m) == hash(dataclasses.astuple(m))
    assert dataclasses.replace(m, email=None) != m
    assert len({m, twin, dataclasses.replace(m, email=None)}) == 2


# ---------------------------------------------------------------------------
# normalization

def test_normalize_name_basic():
    assert normalize_name("  D'Amico ") == "damico"
    assert normalize_name("Muñoz, José") == "munoz jose"
    assert normalize_name("van der Berg") == "van der berg"
    assert normalize_name("Smith-Jones") == "smith-jones"
    assert normalize_name("Smith - Jones") == "smith jones"


# single characters, plus hyphen and apostrophe runs that lead, trail or double
_ASCII_PIECES = st.one_of(
    st.sampled_from(string.ascii_letters + string.digits + string.punctuation
                    + string.whitespace),
    st.sampled_from(["-", "--", "---", "'", "''", "-'", "'-", " - ", "a-b", "a--b", "\x00"]),
    st.characters(max_codepoint=127))


@given(st.lists(_ASCII_PIECES, max_size=12).map("".join))
def test_normalize_name_ascii_path_equals_the_nfkd_path(text):
    # NFKD keeps a trailing combining mark apart and the combining-mark
    # filter drops it, so text + mark is decomposed and normalizes as text would
    assert text.isascii()
    assert normalize_name(text) == normalize_name(text + "\u0301")


def _per_character_normal_form(text):
    """The per-character rule ``normalize_name`` applied before it used one regex."""
    text = unicodedata.normalize("NFKD", text)
    text = "".join(ch for ch in text if not unicodedata.combining(ch))
    text = text.lower().replace("'", "").replace("\u2019", "")
    out = []
    for i, ch in enumerate(text):
        if ch.isalnum():
            out.append(ch)
        elif ch == "-" and 0 < i < len(text) - 1 and text[i - 1].isalnum() and text[i + 1].isalnum():
            out.append(ch)
        else:
            out.append(" ")
    return " ".join("".join(out).split())


@given(st.lists(st.one_of(st.characters(), st.sampled_from(
    ["-", "--", "_", "'", " ", "a", "Z", "7", "\u00e9", "\u00df", "\u0130", "\u0663", "\u2019", "\u0301"])),
    max_size=12).map("".join))
def test_normalize_name_regex_equals_the_per_character_rule(text):
    assert normalize_name(text) == _per_character_normal_form(text)


def test_normalize_name_collapses_whitespace_and_punctuation():
    assert normalize_name("Uni.  of\tSomething,   Dept.") == "uni of something dept"
    assert normalize_name("") == ""


def test_normalize_org_is_name_normalization():
    assert normalize_org("Univ. Degli Studi di MILANO") == "univ degli studi di milano"


def test_split_full_name_comma_form():
    assert split_full_name("D'Amico, Pier Luigi") == ("damico", "pier luigi")
    assert split_full_name("Rossi, M.") == ("rossi", "m")


def test_split_full_name_space_form_takes_last_token_as_surname():
    assert split_full_name("Maria Rossi") == ("rossi", "maria")
    assert split_full_name("Rossi") == ("rossi", "")


def test_first_initial():
    assert first_initial("carlo alberto") == "c"
    assert first_initial("") == ""


def test_normalize_email():
    assert normalize_email("  A.Rossi@UniMi.IT ") == "a.rossi@unimi.it"
    assert normalize_email("") is None
    assert normalize_email(None) is None


# ---------------------------------------------------------------------------
# YearWindow

def test_year_window_parse_colon_and_hyphen():
    assert YearWindow.parse("2015:2019") == YearWindow(2015, 2019)
    assert YearWindow.parse("2015-2019") == YearWindow(2015, 2019)


def test_year_window_contains_and_len():
    w = YearWindow(2015, 2019)
    assert 2015 in w and 2019 in w and 2014 not in w and 2020 not in w
    assert len(w) == 5
    assert list(w.years()) == [2015, 2016, 2017, 2018, 2019]


@pytest.mark.parametrize("bad", ["2019:2015", "19:20", "abc", "2015", "2015:2019:2020",
                                 "\u0662\u0660\u0661\u0665:\u0662\u0660\u0661\u0669"])
def test_year_window_rejects_malformed(bad):
    with pytest.raises((CorpusError, ValueError)):
        YearWindow.parse(bad)


def test_lookback_window_spans_nineteen_years():
    lb = cm.lookback_window(WINDOW)
    assert (lb.start, lb.end) == (2001, 2019)
    assert len(lb) == 19


# ---------------------------------------------------------------------------
# publications loader

def _one_pub(**kw):
    return pub("W1", 2016, [mention("Rossi, Maria", organization="univ milano")],
               ["SC1"], **kw)


def test_load_publications_happy_path(tmp_path):
    path = write_jsonl(tmp_path / "pubs.jsonl", [_one_pub()])
    corpus = load_publications(path, WINDOW)
    assert len(corpus) == 1
    rec = corpus.by_id["W1"]
    assert rec.mentions[0].last_name == "rossi"
    assert rec.mentions[0].first_name == "maria"
    assert rec.mentions[0].organization == "univ milano"


def test_load_publications_filters_doc_type_and_source(tmp_path):
    rows = [
        _one_pub(),
        pub("W2", 2016, [mention("Rossi, M")], ["SC1"], doc_type="other"),
        pub("W3", 2016, [mention("Rossi, M")], ["SC1"], source_index="esci"),
    ]
    corpus = load_publications(write_jsonl(tmp_path / "p.jsonl", rows), WINDOW)
    assert [r.pub_id for r in corpus] == ["W1"]


def test_load_publications_keeps_lookback_years_only(tmp_path):
    rows = [
        pub("W1", 2001, [mention("Rossi, M")], ["SC1"]),   # lookback floor
        pub("W2", 2000, [mention("Rossi, M")], ["SC1"]),   # too old
        pub("W3", 2019, [mention("Rossi, M")], ["SC1"]),
    ]
    corpus = load_publications(write_jsonl(tmp_path / "p.jsonl", rows), WINDOW)
    assert sorted(corpus.by_id) == ["W1", "W3"]


def test_load_publications_records_its_lookback(tmp_path):
    rows = [
        pub("W1", 2000, [mention("Rossi, M")], ["SC1"]),   # before the 19-year lookback
        pub("W2", 2001, [mention("Rossi, M")], ["SC1"]),
        pub("W3", 2019, [mention("Rossi, M")], ["SC1"]),
    ]
    corpus = load_publications(write_jsonl(tmp_path / "p.jsonl", rows), WINDOW)
    assert corpus.lookback == YearWindow(2001, 2019)
    assert sorted(corpus.by_id) == ["W2", "W3"]
    assert cm.Corpus([], WINDOW).lookback == cm.lookback_window(WINDOW)


def test_load_publications_duplicate_pub_id_names_both_lines(tmp_path):
    path = write_jsonl(tmp_path / "p.jsonl", [_one_pub(), _one_pub()])
    with pytest.raises(CorpusError) as exc:
        load_publications(path, WINDOW)
    assert str(exc.value) == "p.jsonl line 2: pub_id W1 already listed on line 1"


@pytest.mark.parametrize("field,value,fragment", [
    ("doc_type", "monograph", "doc_type"),
    ("citation_count", -1, "citation_count"),
    ("census_date", "not-a-date", "census_date"),
    ("subject_categories", [], "subject_categories"),
    ("mentions", [], "mentions"),
    ("census_date", "20200101", "census_date"),       # Python 3.11 reads both as dates
    ("census_date", "2020-W01-1", "census_date"),
])
def test_load_publications_field_errors_name_the_line(tmp_path, field, value, fragment):
    bad = _one_pub()
    bad[field] = value
    path = write_jsonl(tmp_path / "p.jsonl", [bad])
    with pytest.raises(CorpusError, match=f"line 1.*{fragment}"):
        load_publications(path, WINDOW)


def _full_pub(pub_id, year=2016, **kw):
    return pub(pub_id, year, [mention("Rossi, Maria", email="M.Rossi@UniMi.it",
                                      orcid="0000-0001-0000-0001", researcher_id="R-1",
                                      affiliation="Univ. Milano, Italy",
                                      organization="Univ. Milano", city="Milano",
                                      country="Italy")],
               ["SC1", "SC2"], census_date="2018-12-31", **kw)


def test_load_publications_holds_one_object_per_distinct_value(tmp_path):
    rows = [_full_pub(f"W{i}", doc_type="review") for i in range(3)]
    first, *others = load_publications(write_jsonl(tmp_path / "p.jsonl", rows), WINDOW)
    for rec in others:
        assert rec.mentions == first.mentions
        for name in ("doc_type", "source_index", "subject_categories", "journal",
                     "census_date"):
            assert getattr(rec, name) is getattr(first, name), name
        for slot in cm.AuthorMention.__slots__:
            assert getattr(rec.mentions[0], slot) is getattr(first.mentions[0], slot), slot
    assert first.census_date == date(2018, 12, 31)
    assert first.subject_categories == ("SC1", "SC2")


@pytest.mark.parametrize("field,value,refusal", [
    ("year", 2019, "year 2019 is after census_date 2018-12-31"),
    ("census_date", "2018-12-32", "invalid census_date '2018-12-32'"),
    ("census_date", "20181231", "invalid census_date '20181231'"),
    ("orcid", "0000-0001-0000-001", "invalid orcid '0000-0001-0000-001'"),
    ("orcid", "0000-0002-1825-0097\n", "invalid orcid '0000-0002-1825-0097\\n'"),
    ("orcid", "\uff10\uff10\uff10\uff10-0002-1825-0097",
     "invalid orcid '\uff10\uff10\uff10\uff10-0002-1825-0097'"),
    ("email", 5, "mention email is neither a string nor null"),
    ("subject_categories", ["SC1", 2], "subject category 2 is not a string"),
    ("source_index", None, "missing field 'source_index'"),
])
def test_load_publications_refuses_a_bad_field_after_a_good_record_like_it(
        tmp_path, field, value, refusal):
    good, bad = _full_pub("W1"), _full_pub("W2")
    if field in bad:
        bad[field] = value
    else:
        bad["mentions"][0][field] = value
    path = write_jsonl(tmp_path / "p.jsonl", [good, bad])
    with pytest.raises(CorpusError) as exc:
        load_publications(path, WINDOW)
    assert str(exc.value) == f"p.jsonl line 2: {refusal}"


def test_corpus_docstring_names_every_publication_and_mention_field():
    named = [key for key in sorted(cm._PUB_FIELDS | cm._MENTION_FIELDS)
             if f"``{key}``" not in cm.__doc__]
    assert named == []


def test_load_publications_null_journal_is_no_journal(tmp_path):
    rows = [pub(f"W{i}", 2016, [mention("Rossi, M")], ["SC1"], journal=None) for i in (1, 2)]
    corpus = load_publications(write_jsonl(tmp_path / "p.jsonl", rows), WINDOW)
    assert [r.journal for r in corpus] == ["", ""]
    a, b = (mention_context(r, 0) for r in corpus)
    assert score_pair(a, b) == score_pair(a, dataclasses.replace(b, journal="other"))


def test_load_publications_accepts_whole_numbers_and_null_text(tmp_path):
    row = pub("W1", 2016.0, [mention("Rossi, M", email=None, organization=None, city=None,
                                     country=None, affiliation=None)], ["SC1"], 3.0)
    (rec,) = load_publications(write_jsonl(tmp_path / "p.jsonl", [row]), WINDOW)
    assert (rec.year, rec.citation_count) == (2016, 3)
    assert type(rec.year) is int and type(rec.citation_count) is int
    m = rec.mentions[0]
    assert (m.email, m.organization, m.city, m.country, m.affiliation_raw) == (
        None, None, None, None, "")


def test_load_publications_rejects_year_after_census(tmp_path):
    path = write_jsonl(tmp_path / "p.jsonl",
                       [pub("W1", 2019, [mention("Rossi, M")], ["SC1"],
                            census_date="2018-01-01")])
    with pytest.raises(CorpusError, match="after census_date"):
        load_publications(path, WINDOW)


def test_load_publications_rejects_bad_orcid(tmp_path):
    path = write_jsonl(tmp_path / "p.jsonl",
                       [pub("W1", 2016, [mention("Rossi, M", orcid="123")], ["SC1"])])
    with pytest.raises(CorpusError, match="orcid"):
        load_publications(path, WINDOW)


def test_load_publications_warns_unknown_field_once(tmp_path, caplog):
    rows = [_one_pub()]
    rows[0]["surprise"] = 1
    extra = pub("W2", 2016, [mention("Verdi, A")], ["SC1"])
    extra["surprise"] = 2
    path = write_jsonl(tmp_path / "p.jsonl", rows + [extra])
    with caplog.at_level(logging.WARNING):
        load_publications(path, WINDOW)
    hits = [r for r in caplog.records if "surprise" in r.getMessage()]
    assert len(hits) == 1


def test_corpus_serialization_round_trips_byte_identical(tmp_path):
    rows = [
        pub("W2", 2016, [mention("Verdi, Anna", email="A.Verdi@UniMi.it",
                                 organization="Univ. MILANO")], ["SC2", "SC1"], 4),
        _one_pub(),
    ]
    first = load_publications(write_jsonl(tmp_path / "p.jsonl", rows), WINDOW)
    out1, out2 = tmp_path / "corpus1.jsonl", tmp_path / "corpus2.jsonl"
    first.write_jsonl(out1)
    second = load_publications(out1, WINDOW)
    second.write_jsonl(out2)
    assert out2.read_bytes() == out1.read_bytes()
    assert [r.pub_id for r in second] == ["W1", "W2"]   # sorted by pub_id


# ---------------------------------------------------------------------------
# roster loader

ROSTER_HEADER = "person_id,full_name,university_id,field_code,sc_hint,active_years,linked_pub_ids"


def _roster(tmp_path, *rows):
    path = tmp_path / "roster.csv"
    path.write_text("\n".join([ROSTER_HEADER, *rows]) + "\n", encoding="utf-8")
    return path


def test_load_roster_parses_year_tokens_and_ranges(tmp_path):
    path = _roster(tmp_path, 'P1,"Rossi, Maria",U1,F01,SC1,2015-2017;2019,W1;W2')
    entries = load_roster(path, WINDOW)
    assert entries[0].active_years == frozenset({2015, 2016, 2017, 2019})
    assert entries[0].linked_pub_ids == ("W1", "W2")
    assert entries[0].sc_hint == "SC1"


def test_load_roster_rejects_years_outside_window(tmp_path):
    path = _roster(tmp_path, 'P1,"Rossi, M",U1,F01,SC1,2013-2016,')
    with pytest.raises(CorpusError, match=r"P1.*outside\s+window"):
        load_roster(path, WINDOW)


def test_load_roster_rejects_duplicate_person(tmp_path):
    path = _roster(tmp_path,
                   'P1,"Rossi, M",U1,F01,SC1,2015,',
                   'P1,"Rossi, M",U1,F01,SC1,2016,')
    with pytest.raises(CorpusError) as exc:
        load_roster(path, WINDOW)
    assert str(exc.value) == "roster.csv line 3: person_id P1 already listed on line 2"


def test_load_roster_refuses_a_person_without_a_university(tmp_path):
    path = _roster(tmp_path,
                   'P0000,"Rossi, M",,F01,SC1,2015,',
                   'P0001,"Verdi, A",U1,F01,SC1,2016,')
    with pytest.raises(CorpusError) as exc:
        load_roster(path, WINDOW)
    assert str(exc.value) == "roster.csv line 2: person P0000 has no university_id"


@pytest.mark.parametrize("years", ["\u0662\u0660\u0661\u0665-\u0662\u0660\u0661\u0667",
                                   "\u0662\u0660\u0661\u0666"])
def test_load_roster_refuses_years_in_non_ascii_digits(tmp_path, years):
    # int() reads any Unicode digit, so these would load as 2015-2017 and 2016
    path = _roster(tmp_path, f'P1,"Rossi, M",U1,F01,SC1,{years},')
    with pytest.raises(CorpusError) as exc:
        load_roster(path, WINDOW)
    assert str(exc.value) == f"roster.csv line 2: bad year token {years!r}"


def test_load_roster_rejects_empty_years(tmp_path):
    path = _roster(tmp_path, 'P1,"Rossi, M",U1,F01,SC1,,')
    with pytest.raises(CorpusError, match="empty active_years"):
        load_roster(path, WINDOW)


# ---------------------------------------------------------------------------
# registry loader

def _registry(tmp_path, *rows):
    header = "university_id,official_name,email_domains,organization_variants"
    path = tmp_path / "registry.csv"
    path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    return path


def test_load_registry_and_matching(tmp_path):
    path = _registry(tmp_path,
                     'U1,University One,unione.it,univ one;universita one',
                     'U2,University Two,unitwo.it,univ two')
    reg = load_registry(path)
    assert reg.match_organization("universita one") == "U1"
    assert reg.match_organization("nowhere") is None
    assert reg.match_email("a.b@unitwo.it") == "U2"
    assert reg.match_email("a.b@dept.unitwo.it") == "U2"
    assert reg.match_email("a.b@unitwo.it.evil.com") is None
    assert reg.match_email(None) is None


def test_match_email_prefers_longest_nested_domain():
    reg = UniversityRegistry([
        University("U1", ("uni.example",), ()),
        University("U2", ("med.uni.example",), ()),
    ])
    assert reg.match_email("x@med.uni.example") == "U2"
    assert reg.match_email("x@lab.med.uni.example") == "U2"
    assert reg.match_email("x@uni.example") == "U1"
    assert reg.match_email("x@lab.uni.example") == "U1"
    assert reg.match_email("x@med.uni.example.org") is None


def test_load_registry_refuses_a_column_named_twice(tmp_path):
    # a second, empty email_domains would otherwise win and match no email
    path = tmp_path / "registry.csv"
    path.write_text("university_id,official_name,email_domains,organization_variants,"
                    "email_domains\nU1,One,one.it,univ one,\n", encoding="utf-8")
    with pytest.raises(CorpusError) as exc:
        load_registry(path)
    assert str(exc.value) == "registry.csv: column email_domains appears twice"


def test_load_registry_variant_claimed_twice_names_both(tmp_path):
    path = _registry(tmp_path,
                     'U1,One,one.it,univ shared',
                     'U2,Two,two.it,univ shared')
    with pytest.raises(CorpusError, match="U1.*U2|U2.*U1"):
        load_registry(path)


def test_load_registry_domain_claimed_twice(tmp_path):
    path = _registry(tmp_path, 'U1,One,same.it,univ one', 'U2,Two,same.it,univ two')
    with pytest.raises(CorpusError, match="same.it"):
        load_registry(path)


# ---------------------------------------------------------------------------
# scheme

def test_load_scheme_flags_and_area(tmp_path):
    path = tmp_path / "scheme.csv"
    path.write_text(
        "sc_id,name,area_id,excluded_area,is_multidisciplinary\n"
        "SC1,Physics,A1,false,false\n"
        "SC2,Law,A2,true,false\n"
        "SC3,Multi,A1,false,true\n",
        encoding="utf-8")
    scheme = load_scheme(path)
    assert not scheme.is_dropped("SC1")
    assert scheme.is_dropped("SC2")
    assert scheme.is_dropped("SC3")
    assert sorted(scheme.categories) == ["SC1", "SC2", "SC3"]


def test_load_scheme_without_area_column(tmp_path):
    path = tmp_path / "scheme.csv"
    path.write_text("sc_id,excluded_area\nSC1,false\nSC2,true\n", encoding="utf-8")
    scheme = load_scheme(path)
    assert sorted(scheme.categories) == ["SC1", "SC2"]
    assert scheme.is_dropped("SC2") and not scheme.is_dropped("SC1")


def test_load_scheme_refuses_an_sc_listed_twice(tmp_path):
    path = tmp_path / "scheme.csv"
    path.write_text("sc_id,area_id\nSC1,A1\nSC2,A1\nSC1,A2\n", encoding="utf-8")
    with pytest.raises(CorpusError) as exc:
        load_scheme(path)
    assert str(exc.value) == "scheme.csv line 4: sc_id SC1 already listed on line 2"


def test_load_scheme_rejects_bad_boolean(tmp_path):
    path = tmp_path / "scheme.csv"
    path.write_text("sc_id,name,area_id,excluded_area,is_multidisciplinary\n"
                    "SC1,Physics,A1,maybe,false\n", encoding="utf-8")
    with pytest.raises(CorpusError, match="excluded_area"):
        load_scheme(path)


# ---------------------------------------------------------------------------
# every CSV loader: header checks

#: file name -> (loader, full header, required columns)
CSV_LOADERS = {
    "roster.csv": (lambda p: load_roster(p, WINDOW), ROSTER_HEADER.split(","),
                   ("person_id", "university_id", "active_years")),
    "registry.csv": (load_registry,
                     ["university_id", "official_name", "email_domains",
                      "organization_variants"],
                     ("university_id",)),
    "scheme.csv": (load_scheme,
                   ["sc_id", "name", "area_id", "excluded_area", "is_multidisciplinary"],
                   ("sc_id",)),
    "staff.csv": (lambda p: load_staff_csv(p, []),
                  ["university_id", "cluster_id", "evidence", "n_pubs",
                   "member_cluster_ids"],
                  ("university_id", "cluster_id", "evidence", "member_cluster_ids")),
    "scores_researchers.csv": (load_researcher_scores_csv,
                               ["subject_id", "mode", "university_id", "sc", "t", "n",
                                "fss_r"],
                               ("subject_id", "mode", "university_id", "sc", "t", "n",
                                "fss_r")),
    "scores_universities.csv": (load_university_scores_csv,
                                ["university_id", "mode", "rs_u", "fss_u"],
                                ("university_id", "mode", "rs_u", "fss_u")),
}


@pytest.mark.parametrize("name", sorted(CSV_LOADERS))
def test_csv_loader_refuses_missing_required_column(tmp_path, name):
    load, header, required = CSV_LOADERS[name]
    path = tmp_path / name
    for column in required:
        path.write_text(",".join(c for c in header if c != column) + "\n", encoding="utf-8")
        with pytest.raises(CorpusError) as exc:
            load(path)
        assert str(exc.value) == f"{name}: missing column {column}"


@pytest.mark.parametrize("name", sorted(CSV_LOADERS))
def test_csv_loader_skips_a_byte_order_mark(tmp_path, name):
    # kept, the mark would turn the first, required column into "\ufeff<column>"
    load, header, required = CSV_LOADERS[name]
    assert header[0] in required
    path = tmp_path / name
    path.write_text(",".join(header) + "\n", encoding="utf-8-sig")
    assert path.read_bytes().startswith(b"\xef\xbb\xbf" + header[0].encode())
    load(path)


def test_read_csv_reads_a_marked_file_like_an_unmarked_one(tmp_path):
    text = "university_id,email_domains\nU1,a.it\n"
    rows = []
    for name, encoding in [("plain.csv", "utf-8"), ("marked.csv", "utf-8-sig")]:
        (tmp_path / name).write_text(text, encoding=encoding)
        rows.append([row for _, row in cm.read_csv(tmp_path / name, ("university_id",),
                                                      ("email_domains",))])
    assert rows == [[{"university_id": "U1", "email_domains": "a.it"}]] * 2


@pytest.mark.parametrize("name", sorted(CSV_LOADERS))
def test_csv_loader_refuses_empty_file(tmp_path, name):
    load, _, _ = CSV_LOADERS[name]
    path = tmp_path / name
    path.write_text("", encoding="utf-8")
    with pytest.raises(CorpusError, match=f"^{name}: empty file$"):
        load(path)


@pytest.mark.parametrize("name", sorted(CSV_LOADERS))
def test_csv_loader_refuses_short_row(tmp_path, name):
    load, header, _ = CSV_LOADERS[name]
    path = tmp_path / name
    path.write_text(",".join(header) + "\nx,y\n", encoding="utf-8")
    with pytest.raises(CorpusError) as exc:
        load(path)
    assert str(exc.value) == f"{name} line 2: expected {len(header)} fields, got 2"


@pytest.mark.parametrize("name,row", [
    # an unquoted comma in the name would shift the domain and the variants
    ("registry.csv", "U00,University of Arden, main campus,uniarden.example,univ arden"),
    ("scores_universities.csv", "U00,supervised,3,1.5,0.5"),
])
def test_csv_loader_refuses_long_row(tmp_path, name, row):
    load, header, _ = CSV_LOADERS[name]
    path = tmp_path / name
    path.write_text(",".join(header) + "\n" + row + "\n", encoding="utf-8")
    with pytest.raises(CorpusError) as exc:
        load(path)
    assert str(exc.value) == f"{name} line 2: expected {len(header)} fields, got 5"


def test_csv_loader_warns_unknown_column_once(tmp_path, caplog):
    path = tmp_path / "roster.csv"
    path.write_text(ROSTER_HEADER + ",nickname\n"
                    'P1,"Rossi, M",U1,F01,SC1,2015,,Mimi\n'
                    'P2,"Verdi, A",U1,F01,SC1,2016,,Annie\n', encoding="utf-8")
    with caplog.at_level(logging.WARNING):
        entries = load_roster(path, WINDOW)
    assert [e.person_id for e in entries] == ["P1", "P2"]
    hits = [r.getMessage() for r in caplog.records if "nickname" in r.getMessage()]
    assert hits == ["roster.csv: ignoring unknown column 'nickname'"]


_W1_CLUSTER = AuthorCluster(
    cluster_id="W1:0", mention_refs=(("W1", 0),), n_pubs=1, first_year=2016, last_year=2016,
    academic_age=0, full_name="Rossi, M", last_name="rossi", first_name="m", email=None,
    organization=None, city=None, country=None, orcid=None, researcher_id=None)

#: file name -> (loader, file text listing a key twice, the refusal)
LISTED_TWICE = {
    "world.cfg": (load_config_file, "seed = 1\n# again\nseed = 2\n",
                  "config line 3: key seed already listed on line 1"),
    "rules.cfg": (load_rules, "orcid = 100\norcid = 5\n",
                  "rules file line 2: key orcid already listed on line 1"),
    "publications.jsonl": (lambda p: load_publications(p, WINDOW),
                           f"{json.dumps(_one_pub())}\n" * 2,
                           "publications.jsonl line 2: pub_id W1 already listed on line 1"),
    "roster.csv": (lambda p: load_roster(p, WINDOW),
                   f"{ROSTER_HEADER}\nP1,,U1,,,2015,\nP2,,U1,,,2015,\nP1,,U2,,,2016,\n",
                   "roster.csv line 4: person_id P1 already listed on line 2"),
    "registry.csv": (load_registry, "university_id,email_domains\nU1,a.it\nU2,b.it\nU1,c.it\n",
                     "registry.csv line 4: university_id U1 already listed on line 2"),
    "scheme.csv": (load_scheme, "sc_id\nSC1\nSC1\n",
                   "scheme.csv line 3: sc_id SC1 already listed on line 2"),
    "scores_researchers.csv": (
        load_researcher_scores_csv,
        "subject_id,mode,university_id,sc,t,n,fss_r\n"
        "R1,supervised,U1,SC1,1,2,0.5\nR1,unsupervised,U1,SC1,1,2,0.5\n"
        "R1,supervised,U2,SC2,1,2,0.5\n",
        "scores_researchers.csv line 4: subject R1 (supervised) already listed on line 2"),
    "scores_universities.csv": (
        load_university_scores_csv,
        "university_id,mode,rs_u,fss_u\nU1,unsupervised,3,1.5\nU1,unsupervised,2,0.5\n",
        "scores_universities.csv line 3: university U1 (unsupervised) already listed "
        "on line 2"),
    "staff.csv": (lambda p: load_staff_csv(p, [_W1_CLUSTER]),
                  "university_id,cluster_id,evidence,n_pubs,member_cluster_ids\n"
                  "U1,W1:0,organization,1,W1:0\nU2,W1:0,organization,1,W1:0\n",
                  "staff.csv line 3: cluster W1:0 already listed on line 2"),
    "clusters.jsonl": (load_clusters_jsonl, f"{json.dumps(_W1_CLUSTER.to_dict())}\n" * 2,
                       "clusters.jsonl line 2: cluster_id W1:0 already listed on line 1"),
}


@pytest.mark.parametrize("name", sorted(LISTED_TWICE))
def test_loader_refuses_a_key_listed_twice_naming_both_lines(tmp_path, name):
    load, text, refusal = LISTED_TWICE[name]
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    with pytest.raises(CorpusError) as exc:
        load(path)
    assert str(exc.value) == refusal


@pytest.mark.parametrize("members", ["", ";W1:0", "W1:0;", "W1:0;;W1:1"])
def test_load_staff_csv_refuses_an_empty_member_id(tmp_path, members):
    # not "references unknown cluster ; run `disambiguate` first", which no
    # rerun of disambiguate would mend
    path = tmp_path / "staff.csv"
    path.write_text("university_id,cluster_id,evidence,n_pubs,member_cluster_ids\n"
                    f"U1,W1:0,organization,1,{members}\n", encoding="utf-8")
    with pytest.raises(CorpusError) as exc:
        load_staff_csv(path, [_W1_CLUSTER, dataclasses.replace(_W1_CLUSTER, cluster_id="W1:1")])
    assert str(exc.value) == "staff.csv line 2: empty id in member_cluster_ids"


def test_only_listed_once_words_a_repeated_key_refusal():
    # a hand-written check in a loader would word its own refusal
    helper = inspect.getsource(cm.listed_once)
    wording = re.compile(r"already (listed|used|set)|duplicate ", re.IGNORECASE)
    assert wording.search(helper)
    hits = [f"{path.name}: {line.strip()}"
            for path in sorted(Path(cm.__file__).parent.glob("*.py"))
            for line in path.read_text(encoding="utf-8").replace(helper, "").splitlines()
            if wording.search(line)]
    assert hits == []


def test_write_csv_round_trips_through_read_csv(tmp_path):
    path = tmp_path / "t.csv"
    cm.write_csv(path, ("a", "b"), [["x, y", 1], ["", 'q"uote']])
    assert path.read_bytes() == b'a,b\r\n"x, y",1\r\n,"q""uote"\r\n'
    assert list(cm.read_csv(path, ("a", "b"))) == [
        ("t.csv line 2", {"a": "x, y", "b": "1"}),
        ("t.csv line 3", {"a": "", "b": 'q"uote'})]



@pytest.mark.parametrize("text,line", [
    ("sc_id,area_id\nSC1,A1\n\nSC2\n", 4),           # after a blank line
    ('sc_id,area_id\n"SC\n1",A1\nSC2\n', 4),         # after a quoted line break
    ('sc_id,area_id\nSC1,A1\n"SC\n2"\n', 3),         # the short row's first line
])
def test_read_csv_error_names_the_line_the_row_starts_on(tmp_path, text, line):
    path = tmp_path / "s.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(CorpusError) as exc:
        list(cm.read_csv(path, ("sc_id", "area_id")))
    assert str(exc.value) == f"s.csv line {line}: expected 2 fields, got 1"


def test_read_csv_rows_name_their_lines_past_blank_and_multiline_rows(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text('sc_id,area_id\n\n"SC\n1",A1\nSC2,A2\n', encoding="utf-8")
    assert [where for where, _ in cm.read_csv(path, ("sc_id", "area_id"))] == [
        "s.csv line 3", "s.csv line 5"]


@settings(max_examples=300)
@given(data=st.binary(max_size=300), cut=st.integers(0, 300))
# one-block padding ends at 55 bytes; 64 is a whole block
@example(data=bytes(range(55)), cut=54)
@example(data=bytes(range(56)), cut=1)
@example(data=bytes(range(63)), cut=63)
@example(data=bytes(range(64)), cut=32)
@example(data=bytes(range(65)), cut=64)
def test_sha256_equals_hashlib(data, cut):
    expected = hashlib.sha256(data).hexdigest()
    assert cm.sha256(data).hexdigest() == expected
    h = cm.sha256()
    h.update(data[:cut])
    h.update(data[cut:])
    assert h.hexdigest() == expected
    assert h.digest() == bytes.fromhex(expected)
