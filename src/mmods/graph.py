"""Terms, triples, and the in-memory graph.

A Graph has set semantics: adding a triple twice leaves one copy.  Terms are
interned to integer ids so pattern matching runs on the id-level store in
_core_py.

canonicalize() produces a text form shared by exactly the graphs that are
isomorphic under blank-node renaming, so graph comparison is string equality.
canonical_triples() gives the same triples with the same blank labels, for
writers that format them another way.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Optional, Union

from ._core_py import WILDCARD, TripleStore, saturate


class GraphError(ValueError):
    """Malformed term or ill-placed term in a triple."""


RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS_NS = "http://www.w3.org/2000/01/rdf-schema#"
XSD_NS = "http://www.w3.org/2001/XMLSchema#"
OWL_NS = "http://www.w3.org/2002/07/owl#"


@dataclass(frozen=True)
class Iri:
    """An absolute IRI reference."""

    value: str

    def __post_init__(self):
        if not self.value:
            raise GraphError("empty IRI")
        if any(ch.isspace() for ch in self.value) or "<" in self.value or ">" in self.value:
            raise GraphError(f"invalid IRI: {self.value!r}")


@dataclass(frozen=True)
class BlankNode:
    """A graph-local node with no global identity."""

    label: str

    def __post_init__(self):
        if not self.label or any(ch.isspace() for ch in self.label) or ":" in self.label:
            raise GraphError(f"invalid blank node label: {self.label!r}")


RDF_TYPE = Iri(RDF_NS + "type")
RDF_LANGSTRING = Iri(RDF_NS + "langString")
RDFS_SUBCLASS_OF = Iri(RDFS_NS + "subClassOf")
XSD_STRING = Iri(XSD_NS + "string")
XSD_BOOLEAN = Iri(XSD_NS + "boolean")
OWL_CLASS = Iri(OWL_NS + "Class")
OWL_OBJECT_PROPERTY = Iri(OWL_NS + "ObjectProperty")
OWL_DATATYPE_PROPERTY = Iri(OWL_NS + "DatatypeProperty")
OWL_NAMED_INDIVIDUAL = Iri(OWL_NS + "NamedIndividual")
OWL_ONTOLOGY = Iri(OWL_NS + "Ontology")


@dataclass(frozen=True)
class Literal:
    """A typed or language-tagged literal value."""

    lexical: str
    datatype: Iri = XSD_STRING
    lang: Optional[str] = None

    def __post_init__(self):
        if self.lang is not None:
            if not self.lang or any(ch.isspace() for ch in self.lang):
                raise GraphError(f"invalid language tag: {self.lang!r}")
            object.__setattr__(self, "datatype", RDF_LANGSTRING)
        elif self.datatype == RDF_LANGSTRING:
            raise GraphError("language-tagged literal requires a language tag")


Term = Union[Iri, BlankNode, Literal]
Node = Union[Iri, BlankNode]


class Triple(NamedTuple):
    s: Node
    p: Iri
    o: Term


def term_sort_key(term: Term) -> tuple:
    """Total order on terms: IRIs, then blank nodes, then literals."""
    if isinstance(term, Iri):
        return (0, term.value, "", "")
    if isinstance(term, BlankNode):
        return (1, term.label, "", "")
    return (2, term.lexical, term.datatype.value, term.lang or "")


def triple_sort_key(t: Triple) -> tuple:
    return (term_sort_key(t.s), term_sort_key(t.p), term_sort_key(t.o))


_LITERAL_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}


def escape_literal(text: str) -> str:
    out = []
    for ch in text:
        esc = _LITERAL_ESCAPES.get(ch)
        if esc is not None:
            out.append(esc)
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04X}")
        else:
            out.append(ch)
    return "".join(out)


def format_term(term: Term) -> str:
    """Render one term in N-Triples syntax."""
    if isinstance(term, Iri):
        return f"<{term.value}>"
    if isinstance(term, BlankNode):
        return f"_:{term.label}"
    if isinstance(term, Literal):
        body = f'"{escape_literal(term.lexical)}"'
        if term.lang is not None:
            return f"{body}@{term.lang}"
        if term.datatype != XSD_STRING:
            return f"{body}^^<{term.datatype.value}>"
        return body
    raise GraphError(f"not a term: {term!r}")


def format_triple(t: Triple) -> str:
    return f"{format_term(t.s)} {format_term(t.p)} {format_term(t.o)} ."


class Graph:
    """Mutable triple set with interned terms and indexed pattern matching."""

    def __init__(self):
        self._terms: list[Term] = []
        self._ids: dict[Term, int] = {}
        self._store = TripleStore()
        self._blank_counter = 0

    def _intern(self, term: Term) -> int:
        tid = self._ids.get(term)
        if tid is None:
            tid = len(self._terms)
            self._terms.append(term)
            self._ids[term] = tid
        return tid

    def add(self, s: Node, p: Iri, o: Term) -> "Graph":
        if not isinstance(s, (Iri, BlankNode)):
            raise GraphError(f"subject must be an IRI or blank node: {s!r}")
        if not isinstance(p, Iri):
            raise GraphError(f"predicate must be an IRI: {p!r}")
        if not isinstance(o, (Iri, BlankNode, Literal)):
            raise GraphError(f"object must be a term: {o!r}")
        self._store.add(self._intern(s), self._intern(p), self._intern(o))
        return self

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, triple: tuple) -> bool:
        s, p, o = triple
        try:
            return self._store.contains(self._ids[s], self._ids[p], self._ids[o])
        except KeyError:
            return False

    def __iter__(self) -> Iterator[Triple]:
        return iter(self.triples())

    def triples(self) -> list[Triple]:
        """All triples in insertion order."""
        terms = self._terms
        return [Triple(terms[s], terms[p], terms[o]) for s, p, o in self._store.triples()]

    def match(
        self,
        s: Optional[Node] = None,
        p: Optional[Iri] = None,
        o: Optional[Term] = None,
    ) -> list[Triple]:
        """Triples matching the pattern (None = wildcard), in term order."""
        ids = []
        for term in (s, p, o):
            if term is None:
                ids.append(WILDCARD)
            else:
                tid = self._ids.get(term)
                if tid is None:
                    return []
                ids.append(tid)
        terms = self._terms
        found = [
            Triple(terms[ts], terms[tp], terms[to])
            for ts, tp, to in self._store.match(ids[0], ids[1], ids[2])
        ]
        found.sort(key=triple_sort_key)
        return found

    def fresh_blank(self) -> BlankNode:
        """A blank node whose label is unused in this graph: b0, b1, ..."""
        while True:
            node = BlankNode(f"b{self._blank_counter}")
            self._blank_counter += 1
            if node not in self._ids:
                return node

    def copy(self) -> "Graph":
        dup = Graph()
        dup._terms = list(self._terms)
        dup._ids = dict(self._ids)
        dup._store = self._store.copy()
        dup._blank_counter = self._blank_counter
        return dup

    def apply_rules(
        self,
        chains: Iterable[tuple[Iri, Iri, bool, Iri]],
        subclass_pairs: Iterable[tuple[Iri, Iri]],
    ) -> int:
        """Add implied triples in place until fixpoint; returns how many.

        A chain (p1, p2, inverted, q) asserts (a, q, c) for every
        a -p1-> b -p2-> c, or for every a -p1-> b and c -p2-> b when
        inverted.  A subclass pair (sub, sup) asserts (x, rdf:type, sup)
        for every (x, rdf:type, sub).
        """
        chain_ids = [
            (self._intern(p1), self._intern(p2), bool(inv), self._intern(q))
            for p1, p2, inv, q in chains
        ]
        pair_ids = [(self._intern(a), self._intern(b)) for a, b in subclass_pairs]
        return saturate(self._store, chain_ids, pair_ids, self._intern(RDF_TYPE))


def instances_of(graph: Graph, class_iri: Iri, catalog=None) -> list[Node]:
    """Subjects typed as the class or, given a catalog, any of its subclasses."""
    classes = {class_iri}
    if catalog is not None:
        pairs = list(catalog.subclass_pairs())
        changed = True
        while changed:
            changed = False
            for sub, sup in pairs:
                if sup in classes and sub not in classes:
                    classes.add(sub)
                    changed = True
    found = {t.s for cls in classes for t in graph.match(None, RDF_TYPE, cls)}
    return sorted(found, key=term_sort_key)


def _blank_signature(t: Triple, focus: BlankNode, colors: dict) -> str:
    parts = []
    for term in t:
        if term == focus:
            parts.append("~")
        elif isinstance(term, BlankNode):
            parts.append("?" + colors[term])
        else:
            parts.append(format_term(term))
    return " ".join(parts)


def _refine(triples: list[Triple], blanks: list[BlankNode], colors: dict) -> dict:
    """Iterate neighborhood hashing until the blank-node partition stabilizes."""

    def partition(cs: dict) -> list:
        groups: dict[str, list[str]] = {}
        for b in blanks:
            groups.setdefault(cs[b], []).append(b.label)
        return sorted(sorted(g) for g in groups.values())

    occurrences: dict[BlankNode, list[Triple]] = {b: [] for b in blanks}
    for t in triples:
        for term in (t.s, t.o):
            if isinstance(term, BlankNode):
                occurrences[term].append(t)

    while True:
        new = {}
        for b in blanks:
            sigs = sorted(_blank_signature(t, b, colors) for t in occurrences[b])
            payload = colors[b] + "\x00" + "\x00".join(sigs)
            new[b] = hashlib.sha256(payload.encode()).hexdigest()
        if partition(new) == partition(colors):
            return new
        colors = new


def _relabel(t: Triple, names: dict) -> Triple:
    o = names.get(t.o, t.o) if isinstance(t.o, BlankNode) else t.o
    return Triple(names.get(t.s, t.s), t.p, o)


def _canonical_doc(
    triples: list[Triple], blanks: list[BlankNode], colors: dict
) -> tuple[str, dict[BlankNode, BlankNode]]:
    """The least canonical document and the blank -> cN map that produces it."""
    colors = _refine(triples, blanks, colors)
    groups: dict[str, list[BlankNode]] = {}
    for b in blanks:
        groups.setdefault(colors[b], []).append(b)
    tied = sorted((color for color, g in groups.items() if len(g) > 1))
    if not tied:
        order = sorted(blanks, key=lambda b: colors[b])
        names = {b: BlankNode(f"c{i}") for i, b in enumerate(order)}
        lines = sorted(format_triple(_relabel(t, names)) for t in triples)
        return "".join(line + "\n" for line in lines), names
    # Symmetry remains: individuate each member of the first tied group in
    # turn and keep the least document produced.
    group = groups[tied[0]]
    best = None
    for b in sorted(group, key=lambda x: x.label):
        branched = dict(colors)
        branched[b] = "!" + colors[b]
        found = _canonical_doc(triples, blanks, branched)
        if best is None or found[0] < best[0]:
            best = found
    return best


def _canonical(graph: Graph) -> tuple[list[Triple], str, dict[BlankNode, BlankNode]]:
    """The graph's triples, its canonical text, and the blank labelling behind it."""
    triples = graph.triples()
    blanks = sorted(
        {term for t in triples for term in (t.s, t.o) if isinstance(term, BlankNode)},
        key=lambda b: b.label,
    )
    if not blanks:
        lines = sorted(format_triple(t) for t in triples)
        return triples, "".join(line + "\n" for line in lines), {}
    return (triples, *_canonical_doc(triples, blanks, {b: "" for b in blanks}))


def canonicalize(graph: Graph) -> str:
    """Canonical N-Triples text: equal strings iff the graphs are isomorphic."""
    return _canonical(graph)[1]


def canonical_triples(graph: Graph) -> list[Triple]:
    """The graph's triples with blank nodes renamed as canonicalize names them."""
    triples, _, names = _canonical(graph)
    return [_relabel(t, names) for t in triples]
