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
0 (the 0/0 case); an unsupervised subject's prevailing-SC tie is broken
by a draw keyed on (seed, subject id), so the outcome is reproducible and
independent of iteration order, and a supervised one's by the roster hint,
else the smallest SC id. A supervised prevailing SC counts only the
``corpus.SC_LOOKBACK`` years ending with the window, and an SC short of
min_obs researchers in both modes is excluded.
"""

from __future__ import annotations

import logging
from collections import Counter
from collections.abc import Iterator
from dataclasses import astuple, dataclass
from pathlib import Path

from .corpus import (DEFAULT_MIN_OBS, MODE_SUPERVISED, MODE_UNSUPERVISED, Corpus, CorpusError,
                     PublicationRecord, RosterEntry, SCScheme, csv_number, listed_once,
                     read_csv, sha256, write_csv)
from .staff import DerivedStaff

log = logging.getLogger(__name__)


class ScoreError(ValueError):
    """Raised for inconsistent scoring inputs (missing cells, baselines,
    unassignable subjects)."""


def build_citation_cells(corpus: Corpus) -> dict[tuple[int, str], float]:
    """Mean citation count per (year, subject category) over the whole
    corpus, keyed by (year, SC); a publication with several SCs counts in
    each of its cells."""
    sums: dict[tuple[int, str], list[float]] = {}
    for rec in corpus:
        for sc in set(rec.subject_categories):
            cell = sums.setdefault((rec.year, sc), [0.0, 0])
            cell[0] += rec.citation_count
            cell[1] += 1
    return {key: total / count for key, (total, count) in sums.items()}


def normalized_citation_score(pub: PublicationRecord, sc_id: str,
                              cells: dict[tuple[int, str], float]) -> float:
    """c_i / cbar for one publication against one SC cell; 0 when the cell
    mean is 0 (then c_i is 0 too)."""
    mean = cells.get((pub.year, sc_id))
    if mean is None:
        raise ScoreError(
            f"no citation cell for year {pub.year}, SC {sc_id!r} "
            f"(publication {pub.pub_id})")
    if mean == 0.0:
        return 0.0
    return pub.citation_count / mean


def publication_norm(pub: PublicationRecord,
                     cells: dict[tuple[int, str], float]) -> float:
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


def subjects_from_roster(roster: list[RosterEntry], corpus: Corpus) -> list[Subject]:
    """Supervised subjects; linked pub ids missing from the corpus (filtered
    document types, out-of-range years) are dropped, and a pub id listed
    twice is kept once, where it was first listed."""
    subjects = []
    missing = 0
    for entry in sorted(roster, key=lambda e: e.person_id):
        linked = tuple(dict.fromkeys(entry.linked_pub_ids))
        present = tuple(p for p in linked if p in corpus)
        missing += len(linked) - len(present)
        subjects.append(Subject(
            subject_id=entry.person_id,
            mode=MODE_SUPERVISED,
            university_id=entry.university_id,
            pub_ids=present,
            active_years=entry.active_years,
            sc_hint=entry.sc_hint,
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
    digest = sha256(f"{seed}:{subject_id}".encode("utf-8")).digest()
    return ordered[int.from_bytes(digest[:8], "big") % len(ordered)]


def _sc_counts(pubs: list[PublicationRecord]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for pub in pubs:
        for sc in set(pub.subject_categories):
            counts[sc] = counts.get(sc, 0) + 1
    return counts


def assign_prevailing_sc(subject: Subject, corpus: Corpus, seed: int) -> str:
    """The subject category a researcher is evaluated under.

    Unsupervised: the most frequent SC over the whole oeuvre; several
    equally frequent SCs are settled by the seeded draw. Supervised: the
    most frequent SC over the production in the corpus's lookback range
    (``corpus.lookback``, the ``SC_LOOKBACK`` years ending with the
    window); a tie goes to the roster hint when it is among the tied SCs,
    else to the smallest SC id; with no production at all the hint decides,
    and an error is raised when there is none.
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
    if counts:
        top = max(counts.values())
        tied = [sc for sc, c in counts.items() if c == top]
        if subject.sc_hint in tied:
            return subject.sc_hint
        return min(tied)
    if subject.sc_hint:
        return subject.sc_hint
    raise ScoreError(
        f"supervised subject {subject.subject_id!r} has no publications and no sc_hint")


@dataclass(frozen=True)
class ResearcherScore:
    subject_id: str
    mode: str
    university_id: str | None
    sc_id: str
    t: float
    n_pubs: int
    fss_r: float

    @property
    def productive(self) -> bool:
        return self.fss_r > 0.0


def compute_fss_r(subject: Subject, corpus: Corpus,
                  cells: dict[tuple[int, str], float], seed: int) -> ResearcherScore:
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
    sc_id = assign_prevailing_sc(subject, corpus, seed)
    n_pubs = 0
    total = 0.0
    for pub_id in sorted(set(subject.pub_ids)):
        pub = corpus.by_id.get(pub_id)
        if pub is None or pub.year not in window:
            continue
        norm = publication_norm(pub, cells)
        frac = 1.0 / pub.byline_size
        n_pubs += 1
        total += norm * frac
    return ResearcherScore(
        subject_id=subject.subject_id,
        mode=subject.mode,
        university_id=subject.university_id,
        sc_id=sc_id,
        t=t,
        n_pubs=n_pubs,
        fss_r=total / t,
    )


def score_subjects(subjects: list[Subject], corpus: Corpus,
                   cells: dict[tuple[int, str], float], seed: int) -> list[ResearcherScore]:
    return [compute_fss_r(s, corpus, cells, seed)
            for s in sorted(subjects, key=lambda s: s.subject_id)]


def compute_sc_baselines(scores: list[ResearcherScore]) -> dict[str, float]:
    """Each SC's baseline: the mean fss_r of its productive researchers,
    keyed by SC. An SC whose researchers are all unproductive gets no
    baseline (downstream aggregation will refuse it by name)."""
    totals: dict[str, list[float]] = {}
    for score in scores:
        if score.productive:
            totals.setdefault(score.sc_id, []).append(score.fss_r)
    return {sc: sum(values) / len(values) for sc, values in totals.items()}


def apply_exclusions(scores: dict[str, list[ResearcherScore]], scheme: SCScheme,
                     min_obs: int = DEFAULT_MIN_OBS) -> dict[str, list[ResearcherScore]]:
    """Drop out-of-scope researchers, then thin SCs.

    ``scores`` maps each mode to its score list; the same modes come back.
    Researchers whose prevailing SC sits in an excluded area, or is the
    multidisciplinary SC, are dropped first. Then the observation floor: an
    SC is excluded when it has fewer than min_obs researchers in EVERY mode
    given.
    """
    kept = {mode: [s for s in lst if not scheme.is_dropped(s.sc_id)]
            for mode, lst in scores.items()}
    obs = [Counter(s.sc_id for s in lst) for lst in kept.values()]
    all_scs = set().union(*obs)
    short = [{sc for sc in all_scs if per_sc[sc] < min_obs} for per_sc in obs]
    excluded = set.intersection(*short) if short else set()
    return {mode: [s for s in lst if s.sc_id not in excluded] for mode, lst in kept.items()}


@dataclass(frozen=True)
class UniversityScore:
    """One row of scores_universities.csv, fields in its column order."""

    university_id: str
    mode: str
    rs_u: int
    fss_u: float


def compute_fss_u(staff_scores: list[ResearcherScore],
                  baselines: dict[str, float]) -> list[UniversityScore]:
    """One score per (mode, university) over the university's whole staff.

    Each member's fss_r is divided by the baseline of the member's
    prevailing SC, and fss_u averages these ratios over every member;
    rs_u counts unproductive members too (they are a research cost). Each
    row carries the mode of the scores it averages; ``baselines`` must be
    those of that mode, so a caller passes one mode's scores at a time.
    """
    groups: dict[tuple[str, str], list[ResearcherScore]] = {}
    for score in staff_scores:
        if score.university_id is None:
            raise ScoreError(f"subject {score.subject_id!r} has no university")
        groups.setdefault((score.mode, score.university_id), []).append(score)
    out = []
    for (mode, university_id), members in sorted(groups.items()):
        total = 0.0
        for member in members:
            baseline = baselines.get(member.sc_id)
            if baseline is None:
                raise ScoreError(
                    f"no baseline for SC {member.sc_id!r} "
                    f"(staff member {member.subject_id!r} of {university_id!r})")
            total += member.fss_r / baseline
        out.append(UniversityScore(
            university_id=university_id,
            mode=mode,
            rs_u=len(members),
            fss_u=total / len(members),
        ))
    return out


def score_modes(corpus: Corpus, roster: list[RosterEntry], staff: DerivedStaff,
                scheme: SCScheme, seed: int, *, min_obs: int = DEFAULT_MIN_OBS
                ) -> dict[str, tuple[list[ResearcherScore], list[UniversityScore]]]:
    """A scoring run, as ``fssbench score`` writes it: for each mode,
    supervised first, the researcher scores left by ``apply_exclusions``
    and the university scores over them. A mode left without a researcher
    is refused, naming the floor."""
    cells = build_citation_cells(corpus)
    by_mode = apply_exclusions(
        {mode: score_subjects(subjects, corpus, cells, seed)
         for mode, subjects in ((MODE_SUPERVISED, subjects_from_roster(roster, corpus)),
                                (MODE_UNSUPERVISED, subjects_from_staff(staff, corpus)))},
        scheme, min_obs=min_obs)
    for mode, scores in by_mode.items():
        if not scores:
            raise ScoreError(f"no {mode} researcher left after exclusions (min_obs {min_obs})")
    return {mode: (scores, compute_fss_u(scores, compute_sc_baselines(scores)))
            for mode, scores in by_mode.items()}


# ---------------------------------------------------------------------------
# score files

#: Columns of scores_researchers.csv, written and read.
RESEARCHER_COLUMNS = ("subject_id", "mode", "university_id", "sc", "t", "n", "fss_r")

#: Columns of scores_universities.csv, written and read.
UNIVERSITY_COLUMNS = ("university_id", "mode", "rs_u", "fss_u")


def write_researcher_scores_csv(scores: list[ResearcherScore], path: str | Path) -> None:
    write_csv(path, RESEARCHER_COLUMNS,
              ([s.subject_id, s.mode, s.university_id or "", s.sc_id, f"{s.t:g}",
                s.n_pubs, repr(s.fss_r)]
               for s in sorted(scores, key=lambda s: (s.mode, s.subject_id))))


def _score_rows(path: str | Path, columns: tuple[str, ...],
                id_column: str) -> Iterator[tuple[str, dict[str, str]]]:
    """``read_csv``'s rows of a score file. A mode other than the two, or a
    (mode, ``id_column``) pair an earlier row lists, is refused naming the
    line."""
    listed: dict[tuple[str, str], int] = {}
    for where, row in read_csv(path, columns):
        mode = row["mode"]
        if mode not in (MODE_SUPERVISED, MODE_UNSUPERVISED):
            raise CorpusError(f"{where}: mode {mode!r} is neither {MODE_SUPERVISED!r} "
                              f"nor {MODE_UNSUPERVISED!r}")
        listed_once(listed, (mode, row[id_column]), where,
                    f"{id_column.removesuffix('_id')} {row[id_column]} ({mode})")
        yield where, row


def load_researcher_scores_csv(path: str | Path) -> list[ResearcherScore]:
    return [ResearcherScore(
        subject_id=row["subject_id"],
        mode=row["mode"],
        university_id=row["university_id"] or None,
        sc_id=row["sc"],
        t=csv_number(where, row, "t", float),
        n_pubs=csv_number(where, row, "n", int),
        fss_r=csv_number(where, row, "fss_r", float),
    ) for where, row in _score_rows(path, RESEARCHER_COLUMNS, "subject_id")]


def write_university_scores_csv(scores: list[UniversityScore], path: str | Path) -> None:
    write_csv(path, UNIVERSITY_COLUMNS, map(astuple, scores))


def _staff_count(where: str, row: dict[str, str]) -> int:
    """``rs_u``, which counts at least the one member that put the row there."""
    rs_u = csv_number(where, row, "rs_u", int)
    if rs_u < 1:
        raise CorpusError(f"{where}: rs_u {rs_u} is below 1")
    return rs_u


def load_university_scores_csv(path: str | Path) -> list[UniversityScore]:
    return [UniversityScore(
        university_id=row["university_id"],
        mode=row["mode"],
        rs_u=_staff_count(where, row),
        fss_u=csv_number(where, row, "fss_u", float),
    ) for where, row in _score_rows(path, UNIVERSITY_COLUMNS, "university_id")]


def load_scores(researchers_path: str | Path, universities_path: str | Path,
                ) -> dict[str, tuple[list[ResearcherScore], list[UniversityScore]]]:
    """The score files ``fssbench score`` writes, as ``score_modes`` returns
    them; the universities file is read first. A file that lists no row of a
    mode is refused, naming the file and the mode."""
    universities = load_university_scores_csv(universities_path)
    researchers = load_researcher_scores_csv(researchers_path)
    modes = (MODE_SUPERVISED, MODE_UNSUPERVISED)
    for path, rows, what in ((universities_path, universities, "university"),
                             (researchers_path, researchers, "researcher")):
        for mode in modes:
            if not any(row.mode == mode for row in rows):
                raise CorpusError(f"{Path(path).name} lists no {mode} {what}")
    return {mode: ([s for s in researchers if s.mode == mode],
                   [u for u in universities if u.mode == mode]) for mode in modes}
