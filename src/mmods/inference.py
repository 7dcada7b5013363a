"""Materialization of inferred triples to the least fixpoint.

The catalog's chain rules and subclass facts are applied until nothing new
follows.  The result is monotone (a superset of the input) and idempotent.
"""

from __future__ import annotations

from .axioms import ConstraintCatalog
from .graph import Graph


def materialize(graph: Graph, catalog: ConstraintCatalog) -> Graph:
    """A new graph extended with every implied triple."""
    result = graph.copy()
    result.apply_rules(catalog.chains(), catalog.subclass_pairs())
    return result
