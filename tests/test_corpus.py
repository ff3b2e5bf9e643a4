import json
import logging
import string
import unicodedata

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fssbench import corpus as cm
from fssbench.corpus import (
    CorpusError,
    University,
    UniversityRegistry,
    YearWindow,
    first_initial,
    load_incidence,
    load_publications,
    load_registry,
    load_roster,
    load_scheme,
    normalize_email,
    normalize_name,
    normalize_org,
    split_full_name,
)

from fssbench.fss import load_researcher_scores_csv, load_university_scores_csv
from fssbench.staff import load_staff_csv

from conftest import WINDOW, mention, pub, write_jsonl


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


@pytest.mark.parametrize("bad", ["2019:2015", "19:20", "abc", "2015", "2015:2019:2020"])
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


def test_load_publications_duplicate_pub_id_names_both_lines(tmp_path):
    path = write_jsonl(tmp_path / "p.jsonl", [_one_pub(), _one_pub()])
    with pytest.raises(CorpusError, match=r"line 2.*duplicate pub_id.*line 1"):
        load_publications(path, WINDOW)


@pytest.mark.parametrize("field,value,fragment", [
    ("doc_type", "monograph", "doc_type"),
    ("citation_count", -1, "citation_count"),
    ("census_date", "not-a-date", "census_date"),
    ("subject_categories", [], "subject_categories"),
    ("mentions", [], "mentions"),
])
def test_load_publications_field_errors_name_the_line(tmp_path, field, value, fragment):
    bad = _one_pub()
    bad[field] = value
    path = write_jsonl(tmp_path / "p.jsonl", [bad])
    with pytest.raises(CorpusError, match=f"line 1.*{fragment}"):
        load_publications(path, WINDOW)


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
    out1 = tmp_path / "corpus1.jsonl"
    first.write_jsonl(out1)
    second = load_publications(out1, WINDOW)
    assert second.to_jsonl() == first.to_jsonl()
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
    with pytest.raises(CorpusError, match="duplicate person_id"):
        load_roster(path, WINDOW)


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
        University("U1", "One", ("uni.example",), ()),
        University("U2", "Two", ("med.uni.example",), ()),
    ])
    assert reg.match_email("x@med.uni.example") == "U2"
    assert reg.match_email("x@lab.med.uni.example") == "U2"
    assert reg.match_email("x@uni.example") == "U1"
    assert reg.match_email("x@lab.uni.example") == "U1"
    assert reg.match_email("x@med.uni.example.org") is None


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
# scheme and incidence

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
    assert scheme.area_of("SC1") == "A1"


def test_load_scheme_rejects_bad_boolean(tmp_path):
    path = tmp_path / "scheme.csv"
    path.write_text("sc_id,name,area_id,excluded_area,is_multidisciplinary\n"
                    "SC1,Physics,A1,maybe,false\n", encoding="utf-8")
    with pytest.raises(CorpusError, match="excluded_area"):
        load_scheme(path)


def test_load_incidence_sorted_by_weight_then_id(tmp_path):
    path = tmp_path / "incidence.csv"
    path.write_text("field_code,sc_id,incidence\n"
                    "F01,SC2,0.3\nF01,SC1,0.6\nF01,SC3,0.3\n", encoding="utf-8")
    table = load_incidence(path)
    assert table["F01"] == (("SC1", 0.6), ("SC2", 0.3), ("SC3", 0.3))


# ---------------------------------------------------------------------------
# every CSV loader: header checks

#: file name -> (loader, full header, required columns)
CSV_LOADERS = {
    "roster.csv": (lambda p: load_roster(p, WINDOW), ROSTER_HEADER.split(","),
                   ("person_id", "active_years")),
    "registry.csv": (load_registry,
                     ["university_id", "official_name", "email_domains",
                      "organization_variants"],
                     ("university_id",)),
    "scheme.csv": (load_scheme,
                   ["sc_id", "name", "area_id", "excluded_area", "is_multidisciplinary"],
                   ("sc_id", "area_id")),
    "incidence.csv": (load_incidence, ["field_code", "sc_id", "incidence"],
                      ("field_code", "sc_id", "incidence")),
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
                                ["university_id", "mode", "level", "key", "rs_u", "fss_u"],
                                ("university_id", "mode", "level", "key", "rs_u", "fss_u")),
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


def test_write_csv_round_trips_through_read_csv(tmp_path):
    path = tmp_path / "t.csv"
    cm.write_csv(path, ("a", "b"), [["x, y", 1], ["", 'q"uote']])
    assert path.read_bytes() == b'a,b\r\n"x, y",1\r\n,"q""uote"\r\n'
    assert list(cm.read_csv(path, ("a", "b"))) == [
        ("t.csv line 2", {"a": "x, y", "b": "1"}),
        ("t.csv line 3", {"a": "", "b": 'q"uote'})]

