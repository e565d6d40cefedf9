"""sharpbounds: discover sharp linear inequalities between graph invariants.

The pipeline: load a corpus of small simple graphs, compute exact numeric
invariants and Boolean predicates into a feature table, fit the linear bound
between each property pair that maximizes the number of objects attaining
equality (the touch number), then filter and rank the resulting conjectures.
"""

from .engine import (
    Conjecture,
    EngineConfig,
    FitRecord,
    check_conjecture,
    conjecture_from_record,
    conjecture_to_record,
    dalmatian_filter,
    export_text,
    fit_records,
    generality_filter,
    read_numbered_export,
    render_conjecture,
    run_pipeline,
    sort_conjectures,
    write_export,
)
from .errors import (
    ConfigError,
    CorpusError,
    Graph6Error,
    SharpboundsError,
    UndefinedInvariantError,
    UnsupportedSizeError,
)
from .features import (
    FeatureTable,
    Hypothesis,
    build_table,
    corpus_digest,
    load_or_build_table,
    load_table,
    save_table,
)
from .fitting import FitResult, SharpBoundingFunction, fit_linear_bound
from .graph6 import (
    Graph6Corpus,
    parse_graph6,
    read_graph6_file,
    to_graph6,
    write_graph6_file,
)
from .graphs import (
    Graph,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    mask_rows,
    path,
    petersen,
    prism,
    star,
)
from .invariants import (
    domination_number,
    forcing_closure,
    independence_number,
    independent_domination_number,
    matching_number,
    min_maximal_matching,
    resolve_column,
    standard_invariants,
    total_domination_number,
    vertex_cover_number,
    zero_forcing_number,
)
from .predicates import standard_predicates

__version__ = "0.1.0"

__all__ = [
    "Conjecture", "EngineConfig", "FeatureTable", "FitRecord", "FitResult",
    "Graph", "Graph6Corpus",
    "Graph6Error", "Hypothesis", "SharpBoundingFunction", "SharpboundsError",
    "ConfigError", "CorpusError", "UndefinedInvariantError",
    "UnsupportedSizeError", "build_table", "check_conjecture", "complete",
    "complete_bipartite", "conjecture_from_record", "conjecture_to_record",
    "corpus_digest", "cycle", "dalmatian_filter", "disjoint_union",
    "domination_number", "export_text", "fit_linear_bound",
    "fit_records", "forcing_closure", "generality_filter",
    "independence_number", "independent_domination_number",
    "load_or_build_table", "load_table", "mask_rows", "matching_number",
    "min_maximal_matching", "parse_graph6", "path", "petersen", "prism",
    "read_graph6_file", "read_numbered_export", "render_conjecture",
    "resolve_column", "run_pipeline", "save_table", "sort_conjectures",
    "standard_invariants", "standard_predicates", "star", "to_graph6",
    "total_domination_number", "vertex_cover_number",
    "write_export", "write_graph6_file", "zero_forcing_number",
]
