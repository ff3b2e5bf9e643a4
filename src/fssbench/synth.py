"""Seeded synthetic-academia generator.

Builds a small world of universities, subject categories, faculty
researchers (who appear on the roster), non-faculty contaminants (who
publish under a university address but are not on the roster), and
external co-authors, then emits the exact input files the ingestion
module reads, plus a ground-truth file labeling every byline mention.

Every random draw is keyed on (seed, entity), so output is deterministic
for a fixed seed no matter the generation order or thread count. The
contamination knobs encode the hypothesis under test: non-faculty
personnel publish less (productivity multiplier below 1), and their
share differs between universities, so staff inflation should depress
unsupervised scores where it is largest.

``oracle_scores`` evaluates the two scoring formulas by brute force
(full corpus scan per cell mean, no indexing, no caching) and is the
independent reference the scoring pipeline is tested against.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass, field, fields
from datetime import date
from pathlib import Path

import numpy as np

from .corpus import Corpus, YearWindow, write_csv

log = logging.getLogger(__name__)

_CITIES = ["Arden", "Boretto", "Caldera", "Dorline", "Esmara", "Forlano",
           "Gavena", "Hollia", "Imbria", "Jesolane", "Kremola", "Luminar",
           "Morvena", "Nerwin", "Ostia Nova", "Pellaro", "Quarzano", "Rivalta",
           "Selvino", "Tremonte"]

_FIRST_NAMES = ["Maria", "Marco", "Anna", "Andrea", "Paolo", "Laura", "Giulia",
                "Luca", "Sara", "Davide", "Elena", "Franco", "Chiara", "Stefano",
                "Silvia", "Roberto", "Elisa", "Antonio", "Francesca", "Giorgio",
                "Irene", "Matteo", "Paola", "Nicola", "Serena", "Fabio",
                "Valentina", "Alessandro", "Martina", "Giovanni", "Federica",
                "Carlo", "Alessia", "Enrico", "Beatrice", "Dario", "Camilla",
                "Tommaso", "Ilaria", "Vittorio"]

_SYLLABLES = ["bal", "ber", "bra", "car", "cel", "chi", "cor", "dal", "del",
              "dra", "fer", "fio", "gal", "gri", "lan", "lom", "mar", "mon",
              "nar", "oli", "pal", "pel", "ren", "ric", "ros", "sal", "ser",
              "tar", "tes", "tor", "val", "ven", "vis", "zan", "zol"]

_SC_NAMES = ["applied mechanics", "molecular biology", "statistics and data",
             "materials chemistry", "control engineering", "marine geoscience",
             "organic synthesis", "computational physics", "econometrics",
             "neural systems", "plant science", "fluid dynamics"]

_NS_UNIVERSITY = 1
_NS_SC = 2
_NS_PERSON = 3
_NS_PUB = 4
_NS_ALLOC = 5


@dataclass(frozen=True)
class SynthConfig:
    """Generator knobs. All rates are probabilities in [0, 1]."""

    seed: int = 42
    n_universities: int = 8
    n_researchers: int = 160                 # faculty, spread over universities
    n_scs: int = 6
    window_start: int = 2015
    window_end: int = 2019
    career_lookback_max: int = 6             # years a career may start before the window
    pubs_per_year_base: float = 1.5
    pubs_sigma: float = 0.6                  # person-level lognormal spread
    sc_productivity_spread: float = 0.25     # SC-level lognormal spread
    citation_mean_log: float = 0.7
    citation_sigma_log: float = 1.1
    zero_citation_rate: float = 0.15
    coauthor_max: int = 5                    # filler co-authors per publication
    multi_sc_rate: float = 0.2
    doc_type_other_rate: float = 0.04
    esci_rate: float = 0.04
    non_faculty_share: float = 0.0           # share of university publishers not on the roster
    non_faculty_productivity_multiplier: float = 0.5
    non_faculty_external_org_rate: float = 0.15
    orcid_missing_rate: float = 0.0
    email_missing_rate: float = 0.0
    researcherid_missing_rate: float = 0.4
    homonym_rate: float = 0.0
    affiliation_variant_rate: float = 0.0
    initials_only_rate: float = 0.25

    def __post_init__(self):
        for f in fields(self):
            if f.name.endswith(("_rate", "_share")):
                value = getattr(self, f.name)
                if not 0.0 <= value <= 1.0:
                    raise ValueError(f"{f.name} must be in [0, 1], got {value}")
        for name in ("n_universities", "n_researchers", "n_scs"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.window_start > self.window_end:
            raise ValueError("window_start must not exceed window_end")
        if self.career_lookback_max < 0 or self.coauthor_max < 0:
            raise ValueError("career_lookback_max and coauthor_max must be >= 0")
        if self.non_faculty_share >= 1.0 and self.non_faculty_share > 0:
            raise ValueError("non_faculty_share must be below 1")
        if self.non_faculty_productivity_multiplier < 0:
            raise ValueError("non_faculty_productivity_multiplier must be >= 0")
        if self.n_universities > len(_CITIES):
            raise ValueError(f"at most {len(_CITIES)} universities supported")
        if self.n_scs > len(_SC_NAMES):
            raise ValueError(f"at most {len(_SC_NAMES)} subject categories supported")
        if self.homonym_rate > 0 and self.n_researchers < 2:
            raise ValueError("homonyms need at least 2 researchers")

    @property
    def window(self) -> YearWindow:
        return YearWindow(self.window_start, self.window_end)


def _rng(config: SynthConfig, *key: int) -> np.random.Generator:
    return np.random.default_rng([config.seed, *key])


@dataclass(frozen=True)
class GroundTruthPerson:
    person_id: str
    kind: str                       # faculty | non_faculty | external
    university_id: str              # "" for externals
    sc_id: str                      # "" for externals
    career_start: int
    career_end: int
    last_name: str
    first_name: str
    orcid: str
    researcher_id: str
    email: str | None
    pub_ids: tuple[str, ...] = ()
    mention_refs: tuple[tuple[str, int], ...] = ()


@dataclass
class GroundTruth:
    persons: dict[str, GroundTruthPerson]

    def faculty(self) -> list[GroundTruthPerson]:
        return [p for p in self.persons.values() if p.kind == "faculty"]

    def university_publishers(self) -> list[GroundTruthPerson]:
        return [p for p in self.persons.values()
                if p.kind in ("faculty", "non_faculty")]

    def mention_labels(self) -> dict[tuple[str, int], str]:
        labels: dict[tuple[str, int], str] = {}
        for person in self.persons.values():
            for ref in person.mention_refs:
                labels[ref] = person.person_id
        return labels

    def mention_clusters(self, corpus: Corpus) -> dict[str, set[tuple[str, int]]]:
        """True person -> mention refs, restricted to loaded publications."""
        clusters: dict[str, set[tuple[str, int]]] = {}
        for person in self.persons.values():
            refs = {r for r in person.mention_refs if r[0] in corpus}
            if refs:
                clusters[person.person_id] = refs
        return clusters


@dataclass
class _Person:
    person_id: str
    kind: str
    university: int                 # index, -1 for externals
    sc: int                         # index, -1 for externals
    career_start: int
    career_end: int
    last_name: str
    first_name: str
    orcid: str
    researcher_id: str
    email: str | None
    external_org: str | None = None
    rate: float = 0.0
    pubs: list = field(default_factory=list)
    mention_refs: list = field(default_factory=list)


def _largest_remainder(weights: list[float], total: int) -> list[int]:
    if total == 0 or not weights:
        return [0] * len(weights)
    scale = total / sum(weights)
    raw = [w * scale for w in weights]
    counts = [int(x) for x in raw]
    remainder = total - sum(counts)
    order = sorted(range(len(raw)), key=lambda i: (-(raw[i] - counts[i]), i))
    for i in order[:remainder]:
        counts[i] += 1
    return counts


def _person_names(config: SynthConfig, index: int,
                  assigned: list[tuple[str, str]]) -> tuple[str, str]:
    rng = _rng(config, _NS_PERSON, index, 0)
    last = "".join(rng.choice(_SYLLABLES) for _ in range(int(rng.integers(2, 4))))
    last = last.capitalize()
    first = str(rng.choice(_FIRST_NAMES))
    if index > 0 and rng.random() < config.homonym_rate:
        target_last, target_first = assigned[int(rng.integers(0, index))]
        same_initial = [n for n in _FIRST_NAMES
                        if n[0] == target_first[0] and n != target_first]
        first = str(rng.choice(same_initial)) if same_initial else target_first
        last = target_last
    return last, first


def _orcid_for(config: SynthConfig, index: int) -> str:
    digest = hashlib.sha256(f"{config.seed}:orcid:{index}".encode()).digest()
    number = int.from_bytes(digest[:8], "big") % 10 ** 16
    s = f"{number:016d}"
    return f"{s[0:4]}-{s[4:8]}-{s[8:12]}-{s[12:16]}"


def generate(config: SynthConfig, out_dir: str | Path) -> tuple[dict[str, Path], GroundTruth]:
    """Write publications.jsonl, roster.csv, registry.csv, scheme.csv, and
    ground_truth.csv into out_dir; returns the paths and the ground truth.

    Byte-identical output for identical (config, seed).
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    window = config.window

    universities = []
    for u in range(config.n_universities):
        city = _CITIES[u]
        slug = city.lower().replace(" ", "")
        universities.append({
            "university_id": f"U{u:02d}",
            "official_name": f"University of {city}",
            "city": city.lower(),
            "domain": f"uni{slug}.example",
            "variants": [f"univ {city}", f"{city} univ", f"state univ {city}",
                         f"univ studies {city}"],
        })

    sc_ids = [f"SC{i:02d}" for i in range(config.n_scs)]
    sc_mult = []
    cite_mult = []
    for i in range(config.n_scs):
        rng = _rng(config, _NS_SC, i)
        sc_mult.append(float(np.exp(rng.normal(0.0, config.sc_productivity_spread))))
        cite_mult.append(float(np.exp(rng.normal(0.0, 0.3))))

    n_faculty = config.n_researchers
    share = config.non_faculty_share
    n_non_faculty = round(n_faculty * share / (1.0 - share)) if share > 0 else 0
    alloc_rng = _rng(config, _NS_ALLOC)
    weights = [0.5 + float(alloc_rng.random()) for _ in range(config.n_universities)]
    nf_per_university = _largest_remainder(weights, n_non_faculty)

    persons: list[_Person] = []
    assigned_names: list[tuple[str, str]] = []

    def add_person(kind: str, university: int) -> _Person:
        index = len(persons)
        last, first = _person_names(config, index, assigned_names)
        assigned_names.append((last, first))
        rng = _rng(config, _NS_PERSON, index, 1)
        sc = int(rng.integers(0, config.n_scs))
        start = window.start - int(rng.integers(0, config.career_lookback_max + 1))
        end = window.end
        if rng.random() < 0.15:
            start = window.start + int(rng.integers(1, max(2, len(window))))
        if rng.random() < 0.10:
            end = window.start + int(rng.integers(0, max(1, len(window) - 1)))
        start = min(start, end)
        rate = config.pubs_per_year_base * float(np.exp(rng.normal(0.0, config.pubs_sigma)))
        rate *= sc_mult[sc]
        if kind == "non_faculty":
            rate *= config.non_faculty_productivity_multiplier
        prefix = {"faculty": "P", "non_faculty": "N"}[kind]
        person_id = f"{prefix}{index:04d}"
        univ = universities[university]
        email = f"{last.lower()}.{index:04d}@{univ['domain']}"
        person = _Person(
            person_id=person_id,
            kind=kind,
            university=university,
            sc=sc,
            career_start=start,
            career_end=end,
            last_name=last,
            first_name=first,
            orcid=_orcid_for(config, index),
            researcher_id=f"RID-{index:04d}",
            email=email,
            rate=rate,
        )
        if kind == "non_faculty" and rng.random() < config.non_faculty_external_org_rate:
            person.external_org = f"natl inst {last.lower()} res"
        persons.append(person)
        return person

    for i in range(n_faculty):
        add_person("faculty", i % config.n_universities)
    for u, count in enumerate(nf_per_university):
        for _ in range(count):
            add_person("non_faculty", u)

    # external co-author pools, one per lead, stable across that lead's pubs
    pool_size = max(4, 2 * config.coauthor_max)
    external_pools: list[list[_Person]] = []
    for lead_index in range(len(persons)):
        pool = []
        for k in range(pool_size):
            rng = _rng(config, _NS_PERSON, 10_000 + lead_index * 100 + k, 0)
            last = "".join(rng.choice(_SYLLABLES) for _ in range(int(rng.integers(2, 4))))
            last = last.capitalize()
            first = str(rng.choice(_FIRST_NAMES))
            pool.append(_Person(
                person_id=f"X{lead_index:04d}K{k:02d}",
                kind="external",
                university=-1,
                sc=-1,
                career_start=window.start,
                career_end=window.end,
                last_name=last,
                first_name=first,
                orcid=_orcid_for(config, 10_000 + lead_index * 100 + k),
                researcher_id=f"RID-X{lead_index:04d}K{k:02d}",
                email=f"{last.lower()}.{k}@inst{lead_index:04d}.example",
                external_org=f"inst {last.lower()} res ctr",
            ))
        external_pools.append(pool)

    # publications
    raw_pubs = []   # record dicts without pub_id, in (lead_index, year, j) order
    for lead_index, person in enumerate(persons):
        for year in range(person.career_start, person.career_end + 1):
            year_rng = _rng(config, _NS_PUB, lead_index, year)
            count = min(int(year_rng.poisson(person.rate)), 8)
            for j in range(count):
                raw_pubs.append(_make_pub(config, universities, sc_ids, cite_mult,
                                          persons, external_pools, lead_index, year, j))
    pub_lines = []
    for number, record in enumerate(raw_pubs):
        pub_id = f"W{number:06d}"
        record["pub_id"] = pub_id
        byline = record.pop("_byline")
        for position, member in enumerate(byline):
            member.pubs.append(pub_id)
            member.mention_refs.append((pub_id, position))
        ordered = {
            "pub_id": pub_id,
            "year": record["year"],
            "doc_type": record["doc_type"],
            "source_index": record["source_index"],
            "subject_categories": record["subject_categories"],
            "journal": record["journal"],
            "citation_count": record["citation_count"],
            "census_date": record["census_date"],
            "mentions": record["mentions"],
        }
        pub_lines.append(json.dumps(ordered, ensure_ascii=False))

    files = {
        "publications": out_dir / "publications.jsonl",
        "roster": out_dir / "roster.csv",
        "registry": out_dir / "registry.csv",
        "scheme": out_dir / "scheme.csv",
        "ground_truth": out_dir / "ground_truth.csv",
    }
    files["publications"].write_text(
        "\n".join(pub_lines) + ("\n" if pub_lines else ""), encoding="utf-8")

    write_csv(files["roster"], ("person_id", "full_name", "university_id", "field_code",
                                "sc_hint", "active_years", "linked_pub_ids"),
              ([person.person_id,
                f"{person.last_name}, {person.first_name}",
                universities[person.university]["university_id"],
                f"F{person.sc:02d}",
                sc_ids[person.sc],
                f"{max(person.career_start, window.start)}-{min(person.career_end, window.end)}",
                ";".join(person.pubs)]
               for person in persons if person.kind == "faculty"))
    write_csv(files["registry"], ("university_id", "official_name", "email_domains",
                                  "organization_variants"),
              ([univ["university_id"], univ["official_name"], univ["domain"],
                ";".join(univ["variants"])] for univ in universities))
    write_csv(files["scheme"], ("sc_id", "name", "area_id", "excluded_area",
                                "is_multidisciplinary"),
              ([sc, _SC_NAMES[i], f"AREA{i % 4}", "false", "false"]
               for i, sc in enumerate(sc_ids)))

    truth_persons: dict[str, GroundTruthPerson] = {}
    for person in persons + [p for pool in external_pools for p in pool]:
        if person.kind == "external" and not person.mention_refs:
            continue
        truth_persons[person.person_id] = GroundTruthPerson(
            person_id=person.person_id,
            kind=person.kind,
            university_id=(universities[person.university]["university_id"]
                           if person.university >= 0 else ""),
            sc_id=sc_ids[person.sc] if person.sc >= 0 else "",
            career_start=person.career_start,
            career_end=person.career_end,
            last_name=person.last_name,
            first_name=person.first_name,
            orcid=person.orcid,
            researcher_id=person.researcher_id,
            email=person.email,
            pub_ids=tuple(person.pubs),
            mention_refs=tuple(person.mention_refs),
        )
    truth = GroundTruth(persons=truth_persons)

    write_csv(files["ground_truth"], ("person_id", "kind", "university_id", "sc_id",
                                      "career_start", "career_end", "orcid", "email",
                                      "pub_ids", "mention_refs"),
              ([p.person_id, p.kind, p.university_id, p.sc_id,
                p.career_start, p.career_end, p.orcid, p.email or "",
                ";".join(p.pub_ids),
                ";".join(f"{r[0]}:{r[1]}" for r in p.mention_refs)]
               for _, p in sorted(truth_persons.items())))
    return files, truth


def _make_pub(config, universities, sc_ids, cite_mult, persons, external_pools,
              lead_index, year, j) -> dict:
    rng = _rng(config, _NS_PUB, lead_index, year, j)
    lead = persons[lead_index]
    n_fillers = int(rng.integers(0, config.coauthor_max + 1))
    pool = external_pools[lead_index]
    filler_idx = sorted(rng.choice(len(pool), size=n_fillers, replace=False).tolist()) \
        if n_fillers else []
    byline = [lead] + [pool[i] for i in filler_idx]
    lead_pos = int(rng.integers(0, len(byline)))
    byline[0], byline[lead_pos] = byline[lead_pos], byline[0]

    scs = [sc_ids[lead.sc]]
    if config.n_scs > 1 and rng.random() < config.multi_sc_rate:
        scs.append(sc_ids[(lead.sc + 1) % config.n_scs])
    draw = rng.random()
    if draw < config.doc_type_other_rate:
        doc_type = "other"
    elif draw < config.doc_type_other_rate + 0.10:
        doc_type = "review"
    elif draw < config.doc_type_other_rate + 0.15:
        doc_type = "letter"
    elif draw < config.doc_type_other_rate + 0.20:
        doc_type = "proceedings"
    else:
        doc_type = "article"
    source_index = "esci" if rng.random() < config.esci_rate else "core"
    if rng.random() < config.zero_citation_rate:
        citations = 0
    else:
        citations = min(int(np.exp(rng.normal(config.citation_mean_log,
                                              config.citation_sigma_log))
                            * cite_mult[lead.sc]), 500)
    mentions = []
    for member in byline:
        initials_only = rng.random() < config.initials_only_rate
        if initials_only:
            name = f"{member.last_name}, {member.first_name[0]}."
        else:
            name = f"{member.last_name}, {member.first_name}"
        email = member.email
        if email is not None and rng.random() < config.email_missing_rate:
            email = None
        orcid = member.orcid if rng.random() >= config.orcid_missing_rate else None
        rid = (member.researcher_id
               if rng.random() >= config.researcherid_missing_rate else None)
        if member.kind == "external":
            organization = member.external_org
            city = "harbor point"
            country = "farland"
        else:
            univ = universities[member.university]
            if member.external_org is not None:
                organization = member.external_org
            elif rng.random() < config.affiliation_variant_rate:
                organization = str(univ["variants"][int(rng.integers(0, len(univ["variants"])))])
            else:
                organization = univ["variants"][0]
            city = univ["city"]
            country = "italia"
        mentions.append({
            "full_name": name,
            "email": email,
            "orcid": orcid,
            "researcher_id": rid,
            "affiliation": f"{organization}, {city}",
            "organization": organization,
            "city": city,
            "country": country,
        })
    return {
        "year": year,
        "doc_type": doc_type,
        "source_index": source_index,
        "subject_categories": scs,
        "journal": f"journal of {sc_ids[lead.sc].lower()} studies "
                   f"{int(rng.integers(1, 4))}",
        "citation_count": citations,
        "census_date": date(config.window_end + 2, 3, 29).isoformat(),
        "mentions": mentions,
        "_byline": byline,
    }


# ---------------------------------------------------------------------------
# brute-force oracle

def _oracle_cell_mean(corpus: Corpus, year: int, sc: str) -> float:
    values = [rec.citation_count for rec in corpus
              if rec.year == year and sc in rec.subject_categories]
    return sum(values) / len(values)


def _oracle_tie_break(seed: int, subject_id: str, tied: list[str]) -> str:
    ordered = sorted(tied)
    digest = hashlib.sha256(f"{seed}:{subject_id}".encode("utf-8")).digest()
    return ordered[int.from_bytes(digest[:8], "big") % len(ordered)]


def _oracle_subject_id(person: GroundTruthPerson, corpus: Corpus, mode: str) -> str:
    if mode == "supervised":
        return person.person_id
    # unsupervised subjects are clusters, named after their smallest mention
    refs = [r for r in person.mention_refs if r[0] in corpus.by_id]
    pub_id, pos = min(refs)
    return f"{pub_id}:{pos}"


def _oracle_prevailing_sc(person: GroundTruthPerson, corpus: Corpus, mode: str,
                          seed: int, lookback: YearWindow) -> str:
    if mode == "supervised":
        pubs = [corpus.by_id[p] for p in person.pub_ids
                if p in corpus.by_id and corpus.by_id[p].year in lookback]
    else:
        pubs = [corpus.by_id[p] for p in person.pub_ids if p in corpus.by_id]
    counts: dict[str, int] = {}
    for pub in pubs:
        for sc in set(pub.subject_categories):
            counts[sc] = counts.get(sc, 0) + 1
    if not counts:
        return person.sc_id
    top = max(counts.values())
    tied = sorted(sc for sc, c in counts.items() if c == top)
    if len(tied) == 1:
        return tied[0]
    if mode == "supervised":
        return person.sc_id if person.sc_id in tied else tied[0]
    return _oracle_tie_break(seed, _oracle_subject_id(person, corpus, mode), tied)


def oracle_scores(truth: GroundTruth, corpus: Corpus, mode: str, seed: int,
                  sc_lookback: int = 19,
                  ) -> tuple[dict[str, float], dict[str, float]]:
    """Direct evaluation of both formulas over the ground-truth faculty.

    Returns (fss_r by person, overall fss_u by university). Every cell
    mean is recomputed by scanning the whole corpus at the point of use;
    this is the slow, obviously-correct reference implementation.
    """
    window = corpus.window
    lookback = YearWindow(window.end - sc_lookback + 1, window.end)
    subjects = sorted(truth.faculty(), key=lambda p: p.person_id)
    if mode == "unsupervised":
        # only people with at least one mention in the corpus are observable
        subjects = [p for p in subjects
                    if any(pid in corpus.by_id for pid in p.pub_ids)]
    fss_r: dict[str, float] = {}
    prevailing: dict[str, str] = {}
    for person in subjects:
        if mode == "supervised":
            years = [y for y in range(person.career_start, person.career_end + 1)
                     if y in window]
            t = float(len(years))
        else:
            t = float(len(window))
        total = 0.0
        for pub_id in person.pub_ids:
            rec = corpus.by_id.get(pub_id)
            if rec is None or rec.year not in window:
                continue
            norm_sum = 0.0
            scs = sorted(set(rec.subject_categories))
            for sc in scs:
                cbar = _oracle_cell_mean(corpus, rec.year, sc)
                norm_sum += (rec.citation_count / cbar) if cbar > 0 else 0.0
            total += (norm_sum / len(scs)) * (1.0 / len(rec.mentions))
        fss_r[person.person_id] = total / t
        prevailing[person.person_id] = _oracle_prevailing_sc(
            person, corpus, mode, seed, lookback)

    baselines: dict[str, float] = {}
    for sc in sorted({sc for sc in prevailing.values()}):
        values = [fss_r[p.person_id] for p in subjects
                  if prevailing[p.person_id] == sc and fss_r[p.person_id] > 0]
        if values:
            baselines[sc] = sum(values) / len(values)

    fss_u: dict[str, float] = {}
    for university in sorted({p.university_id for p in subjects}):
        members = [p for p in subjects if p.university_id == university]
        total = 0.0
        for person in members:
            sc = prevailing[person.person_id]
            if sc not in baselines:
                raise ValueError(f"oracle: SC {sc!r} has no productive researcher")
            total += fss_r[person.person_id] / baselines[sc]
        fss_u[university] = total / len(members)
    return fss_r, fss_u
