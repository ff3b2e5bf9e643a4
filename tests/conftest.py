"""Shared builders for the test suite.

Most tests construct tiny corpora by hand; these helpers keep the JSON
plumbing out of the test bodies.
"""

from __future__ import annotations

import json
import os
from datetime import date
from pathlib import Path

import pytest
from hypothesis import settings

from fssbench.corpus import AuthorMention, Corpus, PublicationRecord, YearWindow

# Property tests draw the same examples on every run, and a slow example on
# a busy host is not a failure.
settings.register_profile("fssbench", derandomize=True, deadline=None)
settings.load_profile("fssbench")

WINDOW = YearWindow(2015, 2019)
CENSUS = "2021-03-29"


def mention(full_name: str, **kw) -> dict:
    out = {"full_name": full_name}
    out.update(kw)
    return out


def pub(pub_id: str, year: int, mentions: list[dict], scs: list[str],
        citations: int = 0, **kw) -> dict:
    out = {
        "pub_id": pub_id,
        "year": year,
        "doc_type": kw.pop("doc_type", "article"),
        "source_index": kw.pop("source_index", "core"),
        "subject_categories": scs,
        "journal": kw.pop("journal", "journal of things"),
        "citation_count": citations,
        "census_date": kw.pop("census_date", CENSUS),
        "mentions": mentions,
    }
    out.update(kw)
    return out


def write_jsonl(path: Path, records: list[dict]) -> Path:
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return path


def record(pub_id: str, year: int, names: list[str], scs: list[str],
           citations: int = 0, journal: str = "j", **mention_kw) -> PublicationRecord:
    """Build a PublicationRecord directly, bypassing the loader."""
    mentions = []
    for name in names:
        last, _, first = name.partition(",")
        mentions.append(AuthorMention(
            raw_full_name=name,
            last_name=last.strip().lower(),
            first_name=first.strip().lower(),
            **mention_kw,
        ))
    return PublicationRecord(
        pub_id=pub_id,
        year=year,
        doc_type="article",
        source_index="core",
        subject_categories=tuple(scs),
        journal=journal,
        mentions=tuple(mentions),
        citation_count=citations,
        census_date=date.fromisoformat(CENSUS),
    )


def package_env() -> dict[str, str]:
    """The environment for a child interpreter that imports this fssbench,
    with none of the BLAS thread counts the caller's shell may set."""
    import fssbench
    from fssbench.cli import BLAS_THREAD_VARIABLES

    src = str(Path(fssbench.__file__).resolve().parents[1])
    env = {name: value for name, value in os.environ.items()
           if name not in BLAS_THREAD_VARIABLES}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return env


def corpus_of(records: list[PublicationRecord], window: YearWindow = WINDOW) -> Corpus:
    return Corpus(records, window)


@pytest.fixture
def window() -> YearWindow:
    return WINDOW
