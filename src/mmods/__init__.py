"""MODS bibliographic records as typed knowledge graphs.

Converts MODS XML into a typed graph vocabulary, checks the graph against the
vocabulary's integrity constraints, and materializes the triples its inference
rules imply.
"""

from .axioms import (
    Constraint,
    ConstraintCatalog,
    DatatypeFiller,
    VocabFiller,
    catalog,
)
from .canonical import LabellingBudgetError, canonicalize
from .graph import (
    BlankNode,
    Graph,
    GraphError,
    Iri,
    Literal,
    Triple,
    instances_of,
)
from .mapping import MappingError, MappingResult, map_record
from .modsxml import (
    ModsDocument,
    ModsParseError,
    ModsStructureError,
    parse_mods_xml,
)
from .serialize import (
    NTriplesError,
    read_ntriples,
    write_ntriples,
    write_report_json,
    write_report_text,
    write_turtle,
)
from .validate import Finding, ValidationReport, check_constraint, materialize, validate
from .vocab import (
    DEFAULT_BASE_IRI,
    ControlledVocabulary,
    VocabularyError,
    VocabularyRegistry,
    emit_ontology,
)

__version__ = "0.1.0"

# Name of the triple store in use, for callers that record it; there is one.
BACKEND = "python"

__all__ = [
    "BACKEND",
    "BlankNode",
    "Constraint",
    "ConstraintCatalog",
    "ControlledVocabulary",
    "DEFAULT_BASE_IRI",
    "DatatypeFiller",
    "Finding",
    "Graph",
    "GraphError",
    "Iri",
    "LabellingBudgetError",
    "Literal",
    "MappingError",
    "MappingResult",
    "ModsDocument",
    "ModsParseError",
    "ModsStructureError",
    "NTriplesError",
    "Triple",
    "ValidationReport",
    "VocabFiller",
    "VocabularyError",
    "VocabularyRegistry",
    "canonicalize",
    "catalog",
    "check_constraint",
    "emit_ontology",
    "instances_of",
    "map_record",
    "materialize",
    "parse_mods_xml",
    "read_ntriples",
    "validate",
    "write_ntriples",
    "write_report_json",
    "write_report_text",
    "write_turtle",
    "__version__",
]
