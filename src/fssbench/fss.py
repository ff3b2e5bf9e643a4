"""Productivity scoring.

A researcher's score is the time-averaged sum, over their publications in
the observation window, of the publication's citation count normalized by
the mean citations of its (year, subject category) cell, weighted by the
inverse byline size:

    fss_r = (1/t) * sum_i (c_i / cbar_i) * f_i

University scores divide each staff member's fss_r by the national mean
over the productive researchers of the member's prevailing subject
category, then average over the whole staff, unproductive members
included:

    fss_u = (1/rs_u) * sum_j fss_r_j / baseline(sc_j)

Supervised subjects come from the roster (t = active years in the
window); unsupervised subjects come from derived staff units (t = window
length, the years on staff being unknown). Both run through the same
scoring code path.

Conventions that the formulas leave open, fixed here and in the README:
a publication listing several subject categories is normalized against
each listed cell and the results averaged; an all-zero cell contributes
0 (the 0/0 case); prevailing-SC ties are broken by a draw keyed on
(seed, subject id), so the outcome is reproducible and independent of
iteration order.
"""

from __future__ import annotations

import hashlib
import logging
from collections import Counter
from dataclasses import astuple, dataclass
from pathlib import Path

from .corpus import Corpus, PublicationRecord, RosterEntry, SCScheme, read_csv, write_csv
from .staff import DerivedStaff

log = logging.getLogger(__name__)

MODE_SUPERVISED = "supervised"
MODE_UNSUPERVISED = "unsupervised"


class ScoreError(ValueError):
    """Raised for inconsistent scoring inputs (missing cells, baselines,
    unassignable subjects)."""


@dataclass(frozen=True)
class CitationCell:
    year: int
    sc_id: str
    mean_citations: float
    pub_count: int


def build_citation_cells(corpus: Corpus) -> dict[tuple[int, str], CitationCell]:
    """Mean citation count per (year, subject category) over the whole
    corpus; a publication with several SCs counts in each of its cells."""
    sums: dict[tuple[int, str], list[float]] = {}
    for rec in corpus:
        for sc in set(rec.subject_categories):
            cell = sums.setdefault((rec.year, sc), [0.0, 0])
            cell[0] += rec.citation_count
            cell[1] += 1
    return {key: CitationCell(year=key[0], sc_id=key[1],
                              mean_citations=total / count, pub_count=count)
            for key, (total, count) in sums.items()}


def normalized_citation_score(pub: PublicationRecord, sc_id: str,
                              cells: dict[tuple[int, str], CitationCell]) -> float:
    """c_i / cbar for one publication against one SC cell; 0 when the cell
    mean is 0 (then c_i is 0 too)."""
    cell = cells.get((pub.year, sc_id))
    if cell is None:
        raise ScoreError(
            f"no citation cell for year {pub.year}, SC {sc_id!r} "
            f"(publication {pub.pub_id})")
    if cell.mean_citations == 0.0:
        return 0.0
    return pub.citation_count / cell.mean_citations


def publication_norm(pub: PublicationRecord,
                     cells: dict[tuple[int, str], CitationCell]) -> float:
    """The normalized citation score averaged over the publication's SCs."""
    scs = sorted(set(pub.subject_categories))
    return sum(normalized_citation_score(pub, sc, cells) for sc in scs) / len(scs)


@dataclass(frozen=True)
class Subject:
    """A scoring subject: roster person (supervised) or staff unit
    (unsupervised), with its resolvable publication ids."""

    subject_id: str
    mode: str
    university_id: str | None
    pub_ids: tuple[str, ...]
    active_years: frozenset[int] | None = None
    sc_hint: str | None = None
    field_code: str | None = None


def subjects_from_roster(roster: list[RosterEntry], corpus: Corpus) -> list[Subject]:
    """Supervised subjects; linked pub ids missing from the corpus (filtered
    document types, out-of-range years) are dropped."""
    subjects = []
    missing = 0
    for entry in sorted(roster, key=lambda e: e.person_id):
        present = tuple(p for p in entry.linked_pub_ids if p in corpus)
        missing += len(entry.linked_pub_ids) - len(present)
        subjects.append(Subject(
            subject_id=entry.person_id,
            mode=MODE_SUPERVISED,
            university_id=entry.university_id,
            pub_ids=present,
            active_years=entry.active_years,
            sc_hint=entry.sc_hint,
            field_code=entry.field_code,
        ))
    if missing:
        log.debug("dropped %d roster-linked pub ids not in the corpus", missing)
    return subjects


def subjects_from_staff(staff: DerivedStaff, corpus: Corpus) -> list[Subject]:
    """Unsupervised subjects from accepted staff units."""
    subjects = []
    for unit in staff.all_units():
        present = tuple(sorted(p for p in unit.pub_ids if p in corpus))
        subjects.append(Subject(
            subject_id=unit.unit_id,
            mode=MODE_UNSUPERVISED,
            university_id=unit.university_id,
            pub_ids=present,
        ))
    return subjects


def _seeded_choice(seed: int, subject_id: str, options: list[str]) -> str:
    """Deterministic draw among tied options, keyed on (seed, subject)."""
    ordered = sorted(options)
    digest = hashlib.sha256(f"{seed}:{subject_id}".encode("utf-8")).digest()
    return ordered[int.from_bytes(digest[:8], "big") % len(ordered)]


def _sc_counts(pubs: list[PublicationRecord]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for pub in pubs:
        for sc in set(pub.subject_categories):
            counts[sc] = counts.get(sc, 0) + 1
    return counts


def assign_prevailing_sc(subject: Subject, corpus: Corpus, seed: int,
                         incidence: dict[str, tuple[tuple[str, float], ...]] | None = None,
                         ) -> str:
    """The subject category a researcher is evaluated under.

    Unsupervised: the most frequent SC over the whole oeuvre; several
    equally frequent SCs are settled by the seeded draw. Supervised: the
    most frequent SC over the production in the corpus's lookback range
    (``corpus.lookback``, set when the corpus was loaded); a tie prefers the
    roster hint, then the field-code incidence ranking; with no production
    at all the hint, then the incidence table, decide, and an error is
    raised when neither exists.
    """
    pubs = [corpus.by_id[p] for p in subject.pub_ids if p in corpus.by_id]
    if subject.mode == MODE_UNSUPERVISED:
        counts = _sc_counts(pubs)
        if not counts:
            raise ScoreError(f"unsupervised subject {subject.subject_id!r} has no publications")
        top = max(counts.values())
        tied = [sc for sc, c in counts.items() if c == top]
        return tied[0] if len(tied) == 1 else _seeded_choice(seed, subject.subject_id, tied)

    counts = _sc_counts([p for p in pubs if p.year in corpus.lookback])
    rows = (incidence or {}).get(subject.field_code or "", ())
    if counts:
        top = max(counts.values())
        tied = sorted(sc for sc, c in counts.items() if c == top)
        if len(tied) == 1:
            return tied[0]
        if subject.sc_hint in tied:
            return subject.sc_hint
        ranked = [sc for sc, _ in rows if sc in tied]
        return ranked[0] if ranked else tied[0]
    if subject.sc_hint:
        return subject.sc_hint
    if rows:
        return rows[0][0]
    raise ScoreError(
        f"supervised subject {subject.subject_id!r} has no publications, no "
        "sc_hint, and no incidence row for its field code")


@dataclass(frozen=True)
class PublicationTerm:
    """One window publication's contribution: norm * frac joins the sum."""

    pub_id: str
    frac: float
    norm: float


@dataclass(frozen=True)
class ResearcherScore:
    subject_id: str
    mode: str
    university_id: str | None
    sc_id: str
    t: float
    n_pubs: int
    fss_r: float
    terms: tuple[PublicationTerm, ...]

    @property
    def productive(self) -> bool:
        return self.fss_r > 0.0


def compute_fss_r(subject: Subject, corpus: Corpus,
                  cells: dict[tuple[int, str], CitationCell], seed: int,
                  incidence: dict[str, tuple[tuple[str, float], ...]] | None = None,
                  ) -> ResearcherScore:
    """Score one subject over the corpus window.

    Both modes share this implementation; they differ only in t (active
    years vs window length) and in how the subject's publication set was
    obtained. Zero window publications, or all-zero citations, give an
    unproductive score of 0.
    """
    window = corpus.window
    if subject.mode == MODE_SUPERVISED:
        active = subject.active_years or frozenset()
        t = float(len([y for y in active if y in window]))
        if t <= 0:
            raise ScoreError(f"subject {subject.subject_id!r} has no active years in window")
    elif subject.mode == MODE_UNSUPERVISED:
        t = float(len(window))
    else:
        raise ScoreError(f"unknown mode {subject.mode!r}")
    sc_id = assign_prevailing_sc(subject, corpus, seed, incidence)
    terms = []
    total = 0.0
    for pub_id in sorted(set(subject.pub_ids)):
        pub = corpus.by_id.get(pub_id)
        if pub is None or pub.year not in window:
            continue
        norm = publication_norm(pub, cells)
        frac = 1.0 / pub.byline_size
        terms.append(PublicationTerm(pub_id=pub.pub_id, frac=frac, norm=norm))
        total += norm * frac
    return ResearcherScore(
        subject_id=subject.subject_id,
        mode=subject.mode,
        university_id=subject.university_id,
        sc_id=sc_id,
        t=t,
        n_pubs=len(terms),
        fss_r=total / t,
        terms=tuple(terms),
    )


def score_subjects(subjects: list[Subject], corpus: Corpus,
                   cells: dict[tuple[int, str], CitationCell], seed: int,
                   incidence: dict[str, tuple[tuple[str, float], ...]] | None = None,
                   ) -> list[ResearcherScore]:
    return [compute_fss_r(s, corpus, cells, seed, incidence=incidence)
            for s in sorted(subjects, key=lambda s: s.subject_id)]


@dataclass(frozen=True)
class SCBaseline:
    """National mean score of the productive researchers of one SC."""

    sc_id: str
    mean_fss_over_productive: float
    productive_count: int
    total_count: int


def compute_sc_baselines(scores: list[ResearcherScore]) -> dict[str, SCBaseline]:
    """Baselines per SC; an SC whose researchers are all unproductive gets
    no baseline (downstream aggregation will refuse it by name)."""
    totals: dict[str, list[float]] = {}
    counts: dict[str, int] = {}
    for score in scores:
        counts[score.sc_id] = counts.get(score.sc_id, 0) + 1
        if score.productive:
            totals.setdefault(score.sc_id, []).append(score.fss_r)
    return {
        sc: SCBaseline(sc_id=sc,
                       mean_fss_over_productive=sum(values) / len(values),
                       productive_count=len(values),
                       total_count=counts[sc])
        for sc, values in totals.items()
    }


OBS_RULE_LITERAL = "literal"
OBS_RULE_STRICT = "strict"
#: Default observation floor of ``apply_exclusions``.
DEFAULT_MIN_OBS = 10


def apply_exclusions(scores: dict[str, list[ResearcherScore]], scheme: SCScheme,
                     min_obs: int = DEFAULT_MIN_OBS, rule: str = OBS_RULE_LITERAL,
                     ) -> dict[str, list[ResearcherScore]]:
    """Drop out-of-scope researchers, then thin SCs.

    ``scores`` maps each mode to its score list; the same modes come back.
    Researchers whose prevailing SC sits in an excluded area, or is the
    multidisciplinary SC, are dropped first. Then the observation floor:
    under the literal rule an SC is excluded when it has fewer than min_obs
    researchers in EVERY mode given, under the strict rule when it is short
    in any one.
    """
    if rule not in (OBS_RULE_LITERAL, OBS_RULE_STRICT):
        raise ValueError(f"unknown obs rule {rule!r}")
    kept = {mode: [s for s in lst if not scheme.is_dropped(s.sc_id)]
            for mode, lst in scores.items()}
    obs = [Counter(s.sc_id for s in lst) for lst in kept.values()]
    all_scs = set().union(*obs)
    short = [{sc for sc in all_scs if per_sc[sc] < min_obs} for per_sc in obs]
    combine = set.intersection if rule == OBS_RULE_LITERAL else set.union
    excluded = combine(*short) if short else set()
    return {mode: [s for s in lst if s.sc_id not in excluded] for mode, lst in kept.items()}


LEVEL_SC = "sc"
LEVEL_AREA = "area"
LEVEL_OVERALL = "overall"


@dataclass(frozen=True)
class UniversityScore:
    """One row of scores_universities.csv, fields in its column order."""

    university_id: str
    mode: str
    level: str
    level_key: str
    rs_u: int
    fss_u: float


def compute_fss_u(staff_scores: list[ResearcherScore],
                  baselines: dict[str, SCBaseline],
                  level: str = LEVEL_OVERALL,
                  scheme: SCScheme | None = None) -> list[UniversityScore]:
    """Aggregate researcher scores per (mode, university) at one level.

    Every member's score is scaled by their prevailing-SC baseline before
    any aggregation, whichever the level; rs_u counts unproductive members
    too (they are a research cost). Each row carries the mode of the
    scores it averages; ``baselines`` must be those of that mode, so a
    caller passes one mode's scores at a time.
    """
    if level not in (LEVEL_SC, LEVEL_AREA, LEVEL_OVERALL):
        raise ValueError(f"unknown aggregation level {level!r}")
    if level == LEVEL_AREA and scheme is None:
        raise ValueError("area-level aggregation needs the SC scheme")
    groups: dict[tuple[str, str, str], list[ResearcherScore]] = {}
    for score in staff_scores:
        if score.university_id is None:
            raise ScoreError(f"subject {score.subject_id!r} has no university")
        if level == LEVEL_SC:
            key = score.sc_id
        elif level == LEVEL_AREA:
            key = scheme.area_of(score.sc_id)
        else:
            key = LEVEL_OVERALL
        groups.setdefault((score.mode, score.university_id, key), []).append(score)
    out = []
    for (mode, university_id, key), members in sorted(groups.items()):
        total = 0.0
        for member in members:
            baseline = baselines.get(member.sc_id)
            if baseline is None:
                raise ScoreError(
                    f"no baseline for SC {member.sc_id!r} "
                    f"(staff member {member.subject_id!r} of {university_id!r})")
            total += member.fss_r / baseline.mean_fss_over_productive
        out.append(UniversityScore(
            university_id=university_id,
            mode=mode,
            level=level,
            level_key=key,
            rs_u=len(members),
            fss_u=total / len(members),
        ))
    return out


# ---------------------------------------------------------------------------
# score files

#: Columns of scores_researchers.csv, written and read.
RESEARCHER_COLUMNS = ("subject_id", "mode", "university_id", "sc", "t", "n", "fss_r")

#: Columns of scores_universities.csv, written and read.
UNIVERSITY_COLUMNS = ("university_id", "mode", "level", "key", "rs_u", "fss_u")


def write_researcher_scores_csv(scores: list[ResearcherScore], path: str | Path) -> None:
    write_csv(path, RESEARCHER_COLUMNS,
              ([s.subject_id, s.mode, s.university_id or "", s.sc_id, f"{s.t:g}",
                s.n_pubs, repr(s.fss_r)]
               for s in sorted(scores, key=lambda s: (s.mode, s.subject_id))))


def load_researcher_scores_csv(path: str | Path) -> list[ResearcherScore]:
    return [ResearcherScore(
        subject_id=row["subject_id"],
        mode=row["mode"],
        university_id=row["university_id"] or None,
        sc_id=row["sc"],
        t=float(row["t"]),
        n_pubs=int(row["n"]),
        fss_r=float(row["fss_r"]),
        terms=(),
    ) for _, row in read_csv(path, RESEARCHER_COLUMNS)]


def write_university_scores_csv(scores: list[UniversityScore], path: str | Path) -> None:
    write_csv(path, UNIVERSITY_COLUMNS, map(astuple, scores))


def load_university_scores_csv(path: str | Path) -> list[UniversityScore]:
    return [UniversityScore(
        university_id=row["university_id"],
        mode=row["mode"],
        level=row["level"],
        level_key=row["key"],
        rs_u=int(row["rs_u"]),
        fss_u=float(row["fss_u"]),
    ) for _, row in read_csv(path, UNIVERSITY_COLUMNS)]
