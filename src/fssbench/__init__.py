"""Measure research-organization performance two ways and quantify the gap.

The supervised path scores each university from an authoritative staff
roster; the unsupervised path reconstructs the staff from the publication
corpus alone (author-name disambiguation plus affiliation evidence) and
scores from that. The comparison layer reports how far observer-minted
scores, ranks, and quartiles drift from the roster-based ones, and a
synthetic world generator provides ground truth for calibration.
"""

from .corpus import (
    Corpus,
    CorpusError,
    PublicationRecord,
    RosterEntry,
    SCScheme,
    University,
    UniversityRegistry,
    YearWindow,
    load_publications,
    load_registry,
    load_roster,
    load_scheme,
)
from .disambig import (
    DEFAULT_RULES,
    AuthorCluster,
    ScoringRules,
    cluster_corpus,
    pairwise_metrics,
    score_pair,
)
from .staff import DerivedStaff, derive_staff
from .fss import (
    ResearcherScore,
    ScoreError,
    UniversityScore,
    apply_exclusions,
    build_citation_cells,
    compute_fss_r,
    compute_fss_u,
    compute_sc_baselines,
    load_scores,
    score_modes,
    score_subjects,
    subjects_from_roster,
    subjects_from_staff,
)
from .compare import (
    RankTable,
    compare_modes,
    comparison_report,
    correlation_battery,
    distribution_stats,
    load_reference_table,
    quartile_confusion,
    rank_jumps,
    rank_universities,
)
from .synth import GroundTruth, SynthConfig, generate, oracle_scores

__version__ = "0.1.0"

__all__ = [
    "AuthorCluster",
    "Corpus",
    "CorpusError",
    "DEFAULT_RULES",
    "DerivedStaff",
    "GroundTruth",
    "PublicationRecord",
    "RankTable",
    "ResearcherScore",
    "RosterEntry",
    "SCScheme",
    "ScoreError",
    "ScoringRules",
    "SynthConfig",
    "University",
    "UniversityRegistry",
    "UniversityScore",
    "YearWindow",
    "apply_exclusions",
    "build_citation_cells",
    "cluster_corpus",
    "compare_modes",
    "comparison_report",
    "compute_fss_r",
    "compute_fss_u",
    "compute_sc_baselines",
    "correlation_battery",
    "derive_staff",
    "distribution_stats",
    "generate",
    "load_publications",
    "load_reference_table",
    "load_registry",
    "load_roster",
    "load_scheme",
    "load_scores",
    "oracle_scores",
    "pairwise_metrics",
    "quartile_confusion",
    "rank_jumps",
    "rank_universities",
    "score_modes",
    "score_pair",
    "score_subjects",
    "subjects_from_roster",
    "subjects_from_staff",
]
