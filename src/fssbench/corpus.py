"""Data model and ingestion for publication corpora, staff rosters, the
university registry, and the subject-category scheme, plus the one reader
and writer of CSV and of JSON Lines (``read_csv``, ``write_csv``,
``read_jsonl``, ``write_jsonl``), ``key = value`` reader and SHA-256
(``sha256``) the package uses. It also defines the run settings' defaults,
the SC lookback (``SC_LOOKBACK``) and the two mode names that ``staff``,
``fss``, ``compare`` and ``cli`` share, so that ``cli`` reads them without
executing those modules.

Input formats (documented in the README); required columns first, then
the optional ones:

* ``publications.jsonl`` - one JSON object per line, fields ``pub_id``,
  ``year``, ``doc_type``, ``source_index``, ``subject_categories``,
  ``journal``, ``citation_count``, ``census_date``, ``mentions``; each
  mention has ``full_name`` and optionally ``email``, ``orcid``,
  ``researcher_id``, ``affiliation``, ``organization``, ``city``,
  ``country``. ``pub_id``, ``doc_type``, ``census_date`` (ISO date), the
  subject categories and ``full_name`` must be strings; ``journal``,
  ``orcid``, ``researcher_id`` and the other mention fields a string or
  null; ``year`` and ``citation_count`` whole numbers (not a bool). No
  value of another JSON type is converted. An ``orcid`` is four groups of
  ASCII digits joined by "-", the last character a digit or ``X``, and
  nothing else: ``0000-0002-1825-0097``.
* ``roster.csv`` - required ``person_id, university_id, active_years``;
  optional ``full_name, field_code, sc_hint, linked_pub_ids`` (years and
  pub ids joined with ";", year ranges like "2015-2019" allowed).
* ``registry.csv`` - required ``university_id``; optional
  ``official_name, email_domains, organization_variants`` (";"-joined
  lists).
* ``scheme.csv`` - required ``sc_id``; optional ``name, area_id,
  excluded_area, is_multidisciplinary``.

The roster's ``full_name`` and ``field_code``, the registry's
``official_name`` and the scheme's ``name`` and ``area_id`` are accepted and
not read.

The pipeline's own CSV artifacts (``staff.csv``, ``scores_researchers.csv``,
``scores_universities.csv``) require every column their loader reads. Their
numbers must parse, and a float must be finite.

An empty CSV file or one whose header lacks a required column is refused
with a ``CorpusError`` naming the file and the column, a row with more or
fewer fields than the header, or a JSON Lines line that is not a JSON
object, with one naming the file and the line. A key listed twice is
refused, by the ``listed_once`` that every loader in the package shares,
naming both lines. A leading UTF-8 byte-order mark is skipped in a CSV or
``key = value`` file and refused as invalid JSON in a JSON Lines file.
Unknown columns and JSON fields are ignored with one warning each. Loading
is a pure function of the file bytes: the same input yields an identical
in-memory corpus, and downstream code treats it as read-only.

``load_publications`` holds each distinct value once. ``json.loads`` makes
new strings for every line, so a researcher's name, email, ORCID,
ResearcherID and affiliation would be stored again on each of their papers,
and every record would carry its own census date and SC tuple. One dict,
kept for the length of the call, maps each parsed mention text field, doc
type, source index, journal and SC tuple to its first equal object, and each
distinct ``census_date`` string to the one ``date`` parsed from it; at 2,000
faculty the loaded corpus takes about half the memory. Nothing outlives the
call, and only a value that passed its checks is shared, so a bad value is
refused on whichever line carries it.
"""

from __future__ import annotations

import csv
import functools
import json
import logging
import math
import re
import unicodedata
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path

# SHA-256 from the interpreter's builtin module, for the config hash, the
# input digests and the tie-break and ORCID keys: hashlib loads OpenSSL, about
# 3.5 MB and 5 ms of every stage process. CPython's random.py does the same.
try:
    from _sha2 import sha256             # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256       # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256

log = logging.getLogger(__name__)

DOC_TYPES = ("article", "review", "letter", "proceedings", "other")
SOURCE_INDEXES = ("core", "esci", "other")

#: Document types counted by default: articles, reviews, letters, proceedings.
DEFAULT_DOC_FILTER = frozenset({"article", "review", "letter", "proceedings"})

#: Span, in years up to the window end, of the production used for
#: supervised subject-category assignment (19 years: e.g. 2001-2019 for a
#: window ending in 2019).
SC_LOOKBACK = 19

#: Defaults of ``staff.derive_staff``'s size and age filters; the recency
#: year has none.
DEFAULT_MIN_CLUSTERS = 30
DEFAULT_MIN_AGE = 4

#: Default observation floor of ``fss.apply_exclusions``.
DEFAULT_MIN_OBS = 10

#: The two scoring modes, in the order every artifact lists them.
MODE_SUPERVISED = "supervised"
MODE_UNSUPERVISED = "unsupervised"

#: An ORCID's one accepted form: ASCII digits only, nothing after the check
#: character (``$`` would let a trailing newline through).
_ORCID_RE = re.compile(r"[0-9]{4}-[0-9]{4}-[0-9]{4}-[0-9]{3}[0-9X]")


class CorpusError(ValueError):
    """Raised for malformed or inconsistent input files."""


# ---------------------------------------------------------------------------
# normalization

#: What ``normalize_name`` blanks once the text is lowercase: anything but
#: a letter, a digit or a hyphen, and a hyphen without a letter or digit on
#: both sides. ``[^\W_]`` is one character for which ``str.isalnum()``
#: holds; the lookarounds read the unchanged text.
_BLANKED = re.compile(r"[^\w-]|_|(?<![^\W_])-|-(?![^\W_])")


# Names and organizations repeat heavily: one contamination world makes
# 36.6k calls for 2.7k distinct strings. ASCII text, which NFKD leaves as
# it is, skips the decomposition.
@functools.lru_cache(maxsize=4096)
def normalize_name(text: str) -> str:
    """Normal form used for person and organization names.

    Lowercase, fold Unicode diacritics, drop punctuation (hyphens between
    letters survive, so double-barrelled surnames stay joined; apostrophes
    vanish outright, so the D'Amico/Damico spellings coincide), collapse
    whitespace. Idempotent.
    """
    if not text.isascii():
        text = unicodedata.normalize("NFKD", text)
        text = "".join(ch for ch in text if not unicodedata.combining(ch))
    text = text.lower().replace("'", "").replace("\u2019", "")
    return " ".join(_BLANKED.sub(" ", text).split())


normalize_org = normalize_name


def split_full_name(raw: str) -> tuple[str, str]:
    """Split a raw byline name into (last, first) parts, both normalized.

    "surname, given names" when a comma is present, otherwise the final
    whitespace token is taken as the surname.
    """
    if "," in raw:
        last, _, first = raw.partition(",")
    else:
        parts = raw.rsplit(None, 1)
        if len(parts) == 2:
            first, last = parts
        else:
            first, last = "", raw
    return normalize_name(last), normalize_name(first)


def first_initial(first_name: str) -> str:
    return first_name[0] if first_name else ""


def normalize_email(text: str | None) -> str | None:
    if text is None:
        return None
    text = text.strip().lower()
    return text or None


def email_host(email: str) -> str | None:
    """The part after '@', or None when the address has no '@'."""
    if "@" not in email:
        return None
    return email.rsplit("@", 1)[1]


# ---------------------------------------------------------------------------
# domain types

@dataclass(frozen=True)
class YearWindow:
    """Inclusive range of calendar years."""

    start: int
    end: int

    def __post_init__(self):
        if self.start > self.end:
            raise CorpusError(f"empty year window {self.start}:{self.end}")

    def __contains__(self, year: int) -> bool:
        return self.start <= year <= self.end

    def __len__(self) -> int:
        return self.end - self.start + 1

    def years(self) -> range:
        return range(self.start, self.end + 1)

    @classmethod
    def parse(cls, text: str) -> "YearWindow":
        m = re.match(r"^([0-9]{4})[:\-]([0-9]{4})$", text.strip())
        if not m:
            raise CorpusError(f"cannot parse year window {text!r} (expected START:END)")
        return cls(int(m.group(1)), int(m.group(2)))


@dataclass(frozen=True, slots=True)
class AuthorMention:
    """One name on one byline, with its affiliation and identifier evidence.

    Slotted, with no ``__dict__``: a national corpus holds about a million."""

    raw_full_name: str
    last_name: str
    first_name: str
    email: str | None = None
    orcid: str | None = None
    researcher_id: str | None = None
    affiliation_raw: str = ""
    organization: str | None = None
    city: str | None = None
    country: str | None = None


@dataclass(frozen=True)
class PublicationRecord:
    """One indexed publication; byline order is the mention order.

    Not slotted: the acceptance tests rebuild records from ``__dict__``."""

    pub_id: str
    year: int
    doc_type: str
    source_index: str
    subject_categories: tuple[str, ...]
    journal: str
    mentions: tuple[AuthorMention, ...]
    citation_count: int
    census_date: date

    @property
    def byline_size(self) -> int:
        return len(self.mentions)


@dataclass(frozen=True)
class RosterEntry:
    """Ground-truth staff member for the supervised path."""

    person_id: str
    university_id: str
    sc_hint: str | None
    active_years: frozenset[int]
    linked_pub_ids: tuple[str, ...] = ()


@dataclass(frozen=True)
class University:
    university_id: str
    email_domains: tuple[str, ...]
    organization_variants: tuple[str, ...]


def _claims(universities: list[University], attr: str, what: str) -> dict[str, str]:
    """Each value of ``attr`` (a tuple of strings) of the universities,
    mapped to the one university that lists it."""
    owner: dict[str, str] = {}
    for u in universities:
        for value in getattr(u, attr):
            other = owner.setdefault(value, u.university_id)
            if other != u.university_id:
                raise CorpusError(f"{what} {value!r} claimed by both "
                                  f"{other!r} and {u.university_id!r}")
    return owner


class UniversityRegistry:
    """Universities with their normalized name variants and email domains.

    Each variant and each domain maps to exactly one university.
    """

    def __init__(self, universities: list[University]):
        self._by_variant = _claims(universities, "organization_variants",
                                   "organization variant")
        self._by_domain = _claims(universities, "email_domains", "email domain")

    def match_organization(self, organization: str | None) -> str | None:
        if not organization:
            return None
        return self._by_variant.get(normalize_org(organization))

    def match_email(self, email: str | None) -> str | None:
        """University whose domain the address ends in ('@dom' or '.dom');
        with nested registered domains the longest one wins."""
        if not email:
            return None
        host = email_host(email.lower())
        if host is None:
            return None
        labels = host.split(".")
        for i in range(len(labels)):
            univ = self._by_domain.get(".".join(labels[i:]))
            if univ is not None:
                return univ
        return None


@dataclass(frozen=True)
class SubjectCategory:
    sc_id: str
    excluded_area: bool = False
    is_multidisciplinary: bool = False


class SCScheme:
    """Subject categories with the flags that put their researchers out of
    scope."""

    def __init__(self, categories: list[SubjectCategory]):
        self.categories = {c.sc_id: c for c in categories}

    def is_dropped(self, sc_id: str) -> bool:
        """True when researchers of this SC are outside the analysis scope."""
        cat = self.categories.get(sc_id)
        if cat is None:
            return False
        return cat.excluded_area or cat.is_multidisciplinary


class Corpus:
    """Immutable post-ingestion view of the loaded publications.

    ``lookback`` is the range of years feeding supervised SC assignment,
    ``lookback_window(window)``.
    """

    def __init__(self, records: list[PublicationRecord], window: YearWindow):
        self.records: tuple[PublicationRecord, ...] = tuple(
            sorted(records, key=lambda r: r.pub_id))
        self.window = window
        self.lookback = lookback_window(window)
        self.by_id: dict[str, PublicationRecord] = {r.pub_id: r for r in self.records}

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def __contains__(self, pub_id: str) -> bool:
        return pub_id in self.by_id

    def mention_count(self) -> int:
        return sum(len(r.mentions) for r in self.records)

    def write_jsonl(self, path: str | Path) -> None:
        """The ``ingest`` stage output: one record a line, in pub_id order."""
        write_jsonl(path, map(_record_to_dict, self.records))


def _record_to_dict(r: PublicationRecord) -> dict:
    """The record as a JSON object, every object's keys in sorted order."""
    return {
        "census_date": r.census_date.isoformat(),
        "citation_count": r.citation_count,
        "doc_type": r.doc_type,
        "journal": r.journal,
        "mentions": [
            {
                "affiliation": m.affiliation_raw,
                "city": m.city,
                "country": m.country,
                "email": m.email,
                "full_name": m.raw_full_name,
                "orcid": m.orcid,
                "organization": m.organization,
                "researcher_id": m.researcher_id,
            }
            for m in r.mentions
        ],
        "pub_id": r.pub_id,
        "source_index": r.source_index,
        "subject_categories": list(r.subject_categories),
        "year": r.year,
    }


# ---------------------------------------------------------------------------
# text formats: every CSV, JSON Lines and ``key = value`` file is read and
# written here

def read_csv(path: str | Path, required: Sequence[str],
             optional: Sequence[str] = ()) -> Iterator[tuple[str, dict[str, str]]]:
    """Yield ``("<file> line <n>", row)`` for each data row of a CSV file.

    An empty file, a header naming a column twice or lacking a column of
    ``required``, or a row with more or fewer fields than the header raises
    ``CorpusError`` naming the file (and the column or the line); each
    column outside ``required`` and ``optional`` is ignored with one
    warning. Blank lines are skipped, and so is a leading UTF-8 byte-order
    mark.
    """
    path = Path(path)
    with path.open(encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise CorpusError(f"{path.name}: empty file")
        twice = [column for i, column in enumerate(header) if column in header[:i]]
        if twice:
            raise CorpusError(f"{path.name}: column {twice[0]} appears twice")
        for column in required:
            if column not in header:
                raise CorpusError(f"{path.name}: missing column {column}")
        known = {*required, *optional}
        for column in header:
            if column not in known:
                log.warning("%s: ignoring unknown column %r", path.name, column)
        end = reader.line_num
        for values in reader:
            # a row starts after the line the previous one ended on; blank
            # lines and line breaks inside quoted fields count
            where, end = f"{path.name} line {end + 1}", reader.line_num
            if not values:
                continue
            if len(values) != len(header):
                raise CorpusError(f"{where}: expected {len(header)} fields, "
                                  f"got {len(values)}")
            yield where, dict(zip(header, values))


def csv_number(where: str, row: dict[str, str], column: str,
               kind: type[int] | type[float]) -> int | float:
    """``row[column]`` as ``kind``; text that does not parse, or a float that
    is not finite, raises ``CorpusError`` naming ``where`` and the column."""
    try:
        value = kind(row[column])
        if kind is float and not math.isfinite(value):
            raise ValueError(value)
    except ValueError:
        raise CorpusError(f"{where}: {column} {row[column]!r} is not "
                          f"{'an integer' if kind is int else 'a number'}") from None
    return value


def listed_once(listed: dict, key, where: str, what: str) -> None:
    """Note in ``listed``, which maps each key to the line it was first listed
    on, that ``key`` is listed at ``where`` (``"<file> line <n>"``); a key
    already there raises ``CorpusError`` naming ``what`` and both lines."""
    first = listed.get(key)
    if first is not None:
        raise CorpusError(f"{where}: {what} already listed on line {first}")
    listed[key] = int(where.rsplit(" ", 1)[1])


def write_csv(path: str | Path, header: Iterable[str], rows: Iterable[Iterable]) -> None:
    """Write a header and rows as utf-8 CSV in the default dialect."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_jsonl(path: str | Path) -> Iterator[tuple[str, dict]]:
    """Yield ``("<file> line <n>", object)`` for each non-blank line of a JSON
    Lines file; a line that is not a JSON object raises ``CorpusError``.
    Unlike ``str.splitlines``, no line ends at U+0085, U+2028 or U+2029,
    which ``write_jsonl`` writes raw."""
    path = Path(path)
    with path.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path.name} line {lineno}"
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"{where}: invalid JSON: {exc}") from exc
            if not isinstance(obj, dict):
                raise CorpusError(f"{where}: not a JSON object")
            yield where, obj


def write_jsonl(path: str | Path, objects: Iterable[dict]) -> None:
    """Write each object as one line of utf-8 JSON, non-ASCII text as is."""
    with Path(path).open("w", encoding="utf-8") as fh:
        for obj in objects:
            fh.write(json.dumps(obj, ensure_ascii=False) + "\n")


def read_key_values(path: str | Path, what: str) -> Iterator[tuple[int, str, str]]:
    """Yield ``(lineno, key, value)`` for each line of a ``key = value`` file;
    ``#`` starts a comment, and blank lines and a leading UTF-8 byte-order
    mark are skipped. A key set twice is refused. As in ``read_jsonl``, a
    line ends only at LF, CR LF or CR, never at U+0085, U+2028 or U+2029."""
    listed: dict[str, int] = {}
    with Path(path).open(encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise CorpusError(f"{what} line {lineno}: expected key = value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            listed_once(listed, key, f"{what} line {lineno}", f"key {key}")
            yield lineno, key, value.strip()


# ---------------------------------------------------------------------------
# loaders

_PUB_FIELDS = {"pub_id", "year", "doc_type", "source_index", "subject_categories",
               "journal", "citation_count", "census_date", "mentions"}
_MENTION_FIELDS = {"full_name", "email", "orcid", "researcher_id", "affiliation",
                   "organization", "city", "country"}


def _warn_unknown(kind: str, obj: dict, known: set[str], warned: set[str]) -> None:
    if known.issuperset(obj):
        return
    for name in set(obj) - known:
        if name not in warned:
            warned.add(name)
            log.warning("ignoring unknown %s field %r", kind, name)


def text_or_none(obj: dict, key: str) -> str | None:
    """``obj[key]``, a string or null (or absent); any other value raises
    ``TypeError`` naming ``key``."""
    value = obj.get(key)
    if value is not None and not isinstance(value, str):
        raise TypeError(f"{key} is neither a string nor null")
    return value


def required_text(obj: dict, key: str) -> str:
    """``obj[key]``, a string; any other value raises ``TypeError``."""
    value = obj.get(key)
    if not isinstance(value, str):
        raise _refusal(key, value)
    return value


def whole_number(obj: dict, key: str) -> int:
    """``obj[key]``, an integer or a float without a fraction (not a bool);
    any other value raises ``TypeError``."""
    value = obj.get(key)
    if type(value) is int:
        return value
    if type(value) is float and value.is_integer():
        return int(value)
    raise _refusal(key, value)


def _refusal(key: str, value) -> TypeError:
    if value is None:
        return TypeError(f"missing field {key!r}")
    return TypeError(f"invalid {key!r}: {value!r}")


def _parse_mention(obj: dict, where: str, warned: set[str], shared: dict) -> AuthorMention:
    if not isinstance(obj, dict):
        raise CorpusError(f"{where}: mention is not a JSON object")
    _warn_unknown("mention", obj, _MENTION_FIELDS, warned)
    raw = obj.get("full_name")
    if not raw or not isinstance(raw, str):
        raise CorpusError(f"{where}: mention missing full_name")
    last, first = split_full_name(raw)
    if not last:
        raise CorpusError(f"{where}: empty surname after normalization in {raw!r}")
    try:
        orcid = text_or_none(obj, "orcid") or None
        rid = text_or_none(obj, "researcher_id") or None
        email = text_or_none(obj, "email")
        affiliation = text_or_none(obj, "affiliation")
        org = text_or_none(obj, "organization")
        city = text_or_none(obj, "city")
        country = text_or_none(obj, "country")
    except TypeError as exc:
        raise CorpusError(f"{where}: mention {exc}") from exc
    if orcid is not None and not _ORCID_RE.fullmatch(orcid):
        raise CorpusError(f"{where}: invalid orcid {orcid!r}")
    share = shared.setdefault
    email = normalize_email(email)
    affiliation = affiliation or ""
    org = normalize_org(org) if org else None
    city = normalize_name(city) if city else None
    country = normalize_name(country) if country else None
    # positional, in field order: keywords cost each build about a
    # microsecond more, which offsets part of the lookups' cost
    return AuthorMention(
        share(raw, raw), share(last, last), share(first, first), share(email, email),
        share(orcid, orcid), share(rid, rid), share(affiliation, affiliation),
        share(org, org), share(city, city), share(country, country))


#: ``census_date``'s one accepted form. ``date.fromisoformat`` alone also takes
#: ``20200101`` and ``2020-W01-1`` on Python 3.11 and refuses them on 3.10.
_ISO_DATE_RE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def _census_date(text: str, where: str) -> date:
    try:
        if not _ISO_DATE_RE.fullmatch(text):
            raise ValueError(text)
        return date.fromisoformat(text)
    except ValueError as exc:
        raise CorpusError(f"{where}: invalid census_date {text!r}") from exc


def _parse_record(obj: dict, where: str, warned: set[str], shared: dict) -> PublicationRecord:
    """One record; ``shared`` maps each value parsed so far in this load to
    its one object (see the module docstring)."""
    _warn_unknown("publication", obj, _PUB_FIELDS, warned)
    try:
        pub_id = required_text(obj, "pub_id")
        year = whole_number(obj, "year")
        doc_type = required_text(obj, "doc_type")
        journal = text_or_none(obj, "journal")  # null or absent: no journal
        citations = whole_number(obj, "citation_count")
        census_raw = required_text(obj, "census_date")
    except TypeError as exc:
        raise CorpusError(f"{where}: {exc}") from exc
    if doc_type not in DOC_TYPES:
        raise CorpusError(f"{where}: invalid doc_type {doc_type!r}")
    source_index = obj.get("source_index", "other")
    if source_index not in SOURCE_INDEXES:
        raise CorpusError(f"{where}: invalid source_index {source_index!r}")
    scs = obj.get("subject_categories")
    if not isinstance(scs, list) or not scs:
        raise CorpusError(f"{where}: subject_categories must be a non-empty list")
    for sc in scs:
        if not isinstance(sc, str):
            raise CorpusError(f"{where}: subject category {sc!r} is not a string")
    if citations < 0:
        raise CorpusError(f"{where}: citation_count must be >= 0, got {citations}")
    # keyed by a pair that starts with the class: the dict's other keys are
    # strings and tuples of strings, which the same text may also be
    census = shared.get((date, census_raw))
    if census is None:
        census = shared[(date, census_raw)] = _census_date(census_raw, where)
    if year > census.year:
        raise CorpusError(f"{where}: year {year} is after census_date {census_raw}")
    mention_objs = obj.get("mentions")
    if not isinstance(mention_objs, list) or not mention_objs:
        raise CorpusError(f"{where}: mentions must be a non-empty list")
    mentions = tuple([_parse_mention(m, where, warned, shared) for m in mention_objs])
    share = shared.setdefault
    scs = tuple(scs)
    journal = normalize_name(journal) if journal else ""
    return PublicationRecord(pub_id, year, share(doc_type, doc_type),
                             share(source_index, source_index), share(scs, scs),
                             share(journal, journal), mentions, citations, census)


def lookback_window(window: YearWindow) -> YearWindow:
    """Years of production considered for supervised SC assignment: the
    ``SC_LOOKBACK`` years ending with the window."""
    return YearWindow(window.end - SC_LOOKBACK + 1, window.end)


def load_publications(path: str | Path, window: YearWindow) -> Corpus:
    """Load and filter publications.jsonl.

    Keeps records whose doc_type is in ``DEFAULT_DOC_FILTER``, whose source
    index is the core collection, and whose year falls in the observation
    window or the SC-assignment lookback range, which the corpus records as
    ``lookback``. Records come back sorted by pub_id. Equal values share
    one object (see the module docstring).
    """
    accepted_years = set(window.years()) | set(lookback_window(window).years())
    warned: set[str] = set()
    shared: dict = {}
    records: list[PublicationRecord] = []
    listed: dict[str, int] = {}
    for where, obj in read_jsonl(path):
        rec = _parse_record(obj, where, warned, shared)
        listed_once(listed, rec.pub_id, where, f"pub_id {rec.pub_id}")
        if (rec.doc_type in DEFAULT_DOC_FILTER and rec.source_index == "core"
                and rec.year in accepted_years):
            records.append(rec)
    return Corpus(records, window)


def _parse_years(text: str, where: str) -> frozenset[int]:
    years: set[int] = set()
    for token in filter(None, (t.strip() for t in text.split(";"))):
        m = re.match(r"^([0-9]{4})-([0-9]{4})$", token)
        if m:
            lo, hi = int(m.group(1)), int(m.group(2))
            if lo > hi:
                raise CorpusError(f"{where}: bad year range {token!r}")
            years.update(range(lo, hi + 1))
        elif re.match(r"^[0-9]{4}$", token):
            years.add(int(token))
        else:
            raise CorpusError(f"{where}: bad year token {token!r}")
    return frozenset(years)


def load_roster(path: str | Path, window: YearWindow) -> list[RosterEntry]:
    """Load roster.csv; active years must fall inside the window."""
    entries: list[RosterEntry] = []
    listed: dict[str, int] = {}
    for where, row in read_csv(path, ("person_id", "university_id", "active_years"),
                               ("full_name", "field_code", "sc_hint", "linked_pub_ids")):
        pid = (row.get("person_id") or "").strip()
        if not pid:
            raise CorpusError(f"{where}: missing person_id")
        listed_once(listed, pid, where, f"person_id {pid}")
        university_id = row["university_id"].strip()
        if not university_id:
            raise CorpusError(f"{where}: person {pid} has no university_id")
        years = _parse_years(row.get("active_years") or "", where)
        if not years:
            raise CorpusError(f"{where}: person {pid!r} has empty active_years")
        outside = sorted(y for y in years if y not in window)
        if outside:
            raise CorpusError(
                f"{where}: person {pid!r} active_years {outside} outside "
                f"window {window.start}:{window.end}")
        links = tuple(filter(None, (t.strip() for t in (row.get("linked_pub_ids") or "").split(";"))))
        entries.append(RosterEntry(
            person_id=pid,
            university_id=university_id,
            sc_hint=(row.get("sc_hint") or "").strip() or None,
            active_years=years,
            linked_pub_ids=links,
        ))
    return entries


def load_registry(path: str | Path) -> UniversityRegistry:
    """Load registry.csv, normalizing variants and enforcing disjointness."""
    universities: list[University] = []
    listed: dict[str, int] = {}
    for where, row in read_csv(path, ("university_id",),
                               ("official_name", "email_domains", "organization_variants")):
        uid = (row.get("university_id") or "").strip()
        if not uid:
            raise CorpusError(f"{where}: missing university_id")
        listed_once(listed, uid, where, f"university_id {uid}")
        domains = tuple(dict.fromkeys(
            d.strip().lower() for d in (row.get("email_domains") or "").split(";") if d.strip()))
        variants = tuple(dict.fromkeys(
            normalize_org(v) for v in (row.get("organization_variants") or "").split(";") if v.strip()))
        universities.append(University(
            university_id=uid,
            email_domains=domains,
            organization_variants=variants,
        ))
    return UniversityRegistry(universities)


_TRUTHY = {"1", "true", "yes", "y"}
_FALSY = {"0", "false", "no", "n", ""}


def _parse_bool(text: str | None, where: str, fieldname: str) -> bool:
    text = (text or "").strip().lower()
    if text in _TRUTHY:
        return True
    if text in _FALSY:
        return False
    raise CorpusError(f"{where}: invalid {fieldname} value {text!r}")


def load_scheme(path: str | Path) -> SCScheme:
    """Load scheme.csv; an SC listed twice is refused naming both lines."""
    categories: list[SubjectCategory] = []
    listed: dict[str, int] = {}
    for where, row in read_csv(path, ("sc_id",),
                               ("name", "area_id", "excluded_area", "is_multidisciplinary")):
        sc_id = (row.get("sc_id") or "").strip()
        if not sc_id:
            raise CorpusError(f"{where}: missing sc_id")
        listed_once(listed, sc_id, where, f"sc_id {sc_id}")
        categories.append(SubjectCategory(
            sc_id=sc_id,
            excluded_area=_parse_bool(row.get("excluded_area"), where, "excluded_area"),
            is_multidisciplinary=_parse_bool(row.get("is_multidisciplinary"), where,
                                             "is_multidisciplinary"),
        ))
    return SCScheme(categories)

