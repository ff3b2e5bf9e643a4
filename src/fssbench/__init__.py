"""Measure research-organization performance two ways and quantify the gap.

The supervised path scores each university from an authoritative staff
roster; the unsupervised path reconstructs the staff from the publication
corpus alone (author-name disambiguation plus affiliation evidence) and
scores from that. The comparison layer reports how far observer-minted
scores, ranks, and quartiles drift from the roster-based ones, and a
synthetic world generator provides ground truth for calibration.

``import fssbench`` registers every library module in ``sys.modules``,
and as an attribute of the package, without executing it
(``importlib.util.LazyLoader``). A module executes when one of its
attributes is first read, so an error in it surfaces there, and each
``fssbench`` stage process runs only the modules its stage uses. A module
that raises while it executes leaves ``sys.modules`` and the package, as
after a failed eager import, so every later use imports it again and
raises again. The names of ``__all__`` are served on first use from the
module that defines them.
``cli`` is imported as usual: whoever imports it runs it, and a lazy
``cli`` would make ``python -m fssbench.cli`` warn that it was found in
``sys.modules`` before it ran.
"""

import importlib.util
import sys

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


class _Loader:
    """A module's own loader, which ``LazyLoader`` runs on the module's first
    use: it drops a module that raises from ``sys.modules`` and from the
    package, as a failed eager import would."""

    def __init__(self, loader):
        self.loader = loader

    def create_module(self, spec):
        return self.loader.create_module(spec)

    def exec_module(self, module):
        module.__spec__.loader = module.__loader__ = self.loader
        try:
            self.loader.exec_module(module)
        except BaseException:
            name = module.__spec__.name
            for namespace, key in ((sys.modules, name), (globals(), name.rpartition(".")[2])):
                if namespace.get(key) is module:
                    del namespace[key]
            raise


def _register(name: str):
    """Package module ``name``, in ``sys.modules`` and not yet executed."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(_Loader(spec.loader))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


for _name in _EXPORTS:
    globals()[_name] = _register(_name)
del _name


def __getattr__(name: str):
    module = _MODULE_OF.get(name, name)
    if module not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # a registered module comes from sys.modules; one dropped after it
    # raised is imported eagerly, and raises again
    value = importlib.import_module(f"{__name__}.{module}")
    if module != name:
        value = getattr(value, name)
        globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _MODULE_OF.keys())
