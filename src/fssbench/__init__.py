"""Measure research-organization performance two ways and quantify the gap.

The supervised path scores each university from an authoritative staff
roster; the unsupervised path reconstructs the staff from the publication
corpus alone (author-name disambiguation plus affiliation evidence) and
scores from that. The comparison layer reports how far observer-minted
scores, ranks, and quartiles drift from the roster-based ones, and a
synthetic world generator provides ground truth for calibration.

``import fssbench`` executes none of the library modules. A module
executes, through a plain import, when it or one of the names of
``__all__`` is first read from the package, and then only with the modules
it imports itself; so each ``fssbench`` stage process runs only the
modules its stage uses. A module that raises while it executes raises
again on every use, as any failed import does.
"""

import importlib

__version__ = "0.1.0"

#: Each library module and the names the package re-exports from it.
_EXPORTS = {
    "compare": ("RankTable", "compare_modes", "comparison_report", "correlation_battery",
                "distribution_stats", "load_reference_table", "quartile_confusion",
                "rank_jumps", "rank_universities"),
    "corpus": ("Corpus", "CorpusError", "PublicationRecord", "RosterEntry", "SCScheme",
               "University", "UniversityRegistry", "YearWindow", "load_publications",
               "load_registry", "load_roster", "load_scheme"),
    "disambig": ("DEFAULT_RULES", "AuthorCluster", "ScoringRules", "cluster_corpus",
                 "pairwise_metrics", "score_pair"),
    "fss": ("ResearcherScore", "ScoreError", "UniversityScore", "apply_exclusions",
            "build_citation_cells", "compute_fss_r", "compute_fss_u", "compute_sc_baselines",
            "load_scores", "score_modes", "score_subjects", "subjects_from_roster",
            "subjects_from_staff"),
    "staff": ("DerivedStaff", "derive_staff"),
    "synth": ("GroundTruth", "SynthConfig", "generate", "oracle_scores"),
}

#: Each re-exported name and the module that defines it.
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name, name)
    if module not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f"{__name__}.{module}")
    if module != name:
        value = getattr(value, name)
        globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _EXPORTS.keys() | _MODULE_OF.keys())
