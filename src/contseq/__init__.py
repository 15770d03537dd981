"""Continent-sequence analytics for co-authorship corpora.

Pipeline: crawl or ingest a publication corpus, canonicalize each paper's
author affiliations into a "continent (number of countries)" sequence, build
the rank-frequency table, and fit its power laws. A synthetic-corpus
generator with a known ground-truth distribution closes the loop for
verification.
"""

from .crawl import (AuthorProfile, CorpusStore, CrawlPolicy, CrawlResult,
                    PruneReason, PublicationStore, crawl, prune_reason)
from .errors import (ContractViolationError, ContseqError, EmptyInputError,
                     InsufficientDataError, SequenceFormatError,
                     TableFormatError, TableValidationError,
                     UnknownAuthorError, UnknownPublicationError)
from .ingest import (ExclusionPolicy, IngestReport, MalformedRecord,
                     RejectReason, SCHEMA_VERSION, classify, filter_record,
                     parse_corpus, parse_record_line, record_to_json,
                     write_corpus)
from .mapping import map_to_sequence, parse_sequence, render_sequence
from .model import (Affiliation, AuthorRecord, CONTINENTS, Continent,
                    ContinentSequence, ContinentTable, PublicationRecord,
                    default_table, load_aliases, load_continent_table,
                    normalize_label)
from .stats import (FitResult, HeapCurve, HeapPoint, RankEntry, RankTable,
                    build_rank_table, default_sample_sizes, fit_heap, fit_zipf,
                    format_fit_report, heap_curve, read_heap_file,
                    read_rank_file, write_heap_file, write_rank_file,
                    zipf_sensitivity)
from .syngen import (SyntheticSpec, generate_corpus, iter_corpus,
                     sample_type_indices, sequence_vocabulary,
                     type_probabilities)

__version__ = "0.1.0"

__all__ = [
    "Affiliation", "AuthorProfile", "AuthorRecord", "CONTINENTS",
    "Continent", "ContinentSequence", "ContinentTable",
    "ContractViolationError", "ContseqError", "CorpusStore", "CrawlPolicy",
    "CrawlResult", "EmptyInputError", "ExclusionPolicy", "FitResult",
    "HeapCurve", "HeapPoint", "IngestReport", "InsufficientDataError",
    "MalformedRecord", "PruneReason", "PublicationRecord",
    "PublicationStore", "RankEntry", "RankTable", "RejectReason",
    "SCHEMA_VERSION", "SequenceFormatError", "SyntheticSpec",
    "TableFormatError", "TableValidationError", "UnknownAuthorError",
    "UnknownPublicationError", "build_rank_table", "classify",
    "crawl", "default_sample_sizes", "default_table", "filter_record",
    "fit_heap", "fit_zipf", "format_fit_report", "generate_corpus",
    "heap_curve", "iter_corpus", "load_aliases", "load_continent_table",
    "map_to_sequence", "normalize_label", "parse_corpus",
    "parse_record_line", "parse_sequence", "prune_reason",
    "read_heap_file", "read_rank_file", "record_to_json", "render_sequence",
    "sample_type_indices", "sequence_vocabulary", "type_probabilities",
    "write_corpus", "write_heap_file", "write_rank_file", "zipf_sensitivity",
]
