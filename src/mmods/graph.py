"""Terms, the in-memory graph and its id store, saturation.

A Graph has set semantics: adding a triple twice leaves one copy.  It is the
one store: each term is interned to an integer id under its key, the
N-Triples text format_term writes (<iri>, _:label, or "lex" with @lang or
^^<dt>), and term objects are built from keys only when asked for.  Rule
saturation (apply_rules) runs on the id triples.  The one index, by
predicate, is built on first use, so building and writing a graph maintains
none.  term_id, term and match_ids expose the id level to the validator.
"""

from __future__ import annotations

import re
from collections import defaultdict
from typing import Iterable, Iterator, NamedTuple, Optional, Union

# The id that matches any term in match_ids.
WILDCARD = -1


class GraphError(ValueError):
    """Malformed term or ill-placed term in a triple."""


RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS_NS = "http://www.w3.org/2000/01/rdf-schema#"
XSD_NS = "http://www.w3.org/2001/XMLSchema#"
OWL_NS = "http://www.w3.org/2002/07/owl#"

# N-Triples LANGTAG (https://www.w3.org/TR/n-triples/#grammar-production-LANGTAG).
_LANGTAG = re.compile(r"[a-zA-Z]+(?:-[a-zA-Z0-9]+)*")
# An IRI is absolute: it starts with an RFC 3987 scheme.  Its text follows
# N-Triples IRIREF: no U+0000-U+0020 and none of <>"{}|^`\
# (https://www.w3.org/TR/n-triples/#grammar-production-IRIREF), nor any other
# whitespace.
_IRI = re.compile(r'[A-Za-z][A-Za-z0-9+.-]*:[^\s\x00-\x20<>"{}|^`\\]*')
_NOT_IRI_TEXT = re.compile(r'[\s\x00-\x20<>"{}|^`\\]')
_NOT_BLANK_LABEL = re.compile(r"[\s:]")


class _Value:
    """Immutable: fields are set once, in __init__."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


_set = object.__setattr__


class Iri(_Value):
    """An absolute IRI reference."""

    __slots__ = ("value",)

    def __init__(self, value: str):
        if not value:
            raise GraphError("empty IRI")
        if not _IRI.fullmatch(value):
            kind = "invalid" if _NOT_IRI_TEXT.search(value) else "relative"
            raise GraphError(f"{kind} IRI: {value!r}")
        _set(self, "value", value)

    def __eq__(self, other):
        return self.value == other.value if other.__class__ is Iri else NotImplemented

    def __hash__(self):
        return hash(self.value)

    def __repr__(self):
        return f"Iri(value={self.value!r})"

    def __reduce__(self):
        return Iri, (self.value,)


class BlankNode(_Value):
    """A graph-local node with no global identity."""

    __slots__ = ("label",)

    def __init__(self, label: str):
        if not label or _NOT_BLANK_LABEL.search(label):
            raise GraphError(f"invalid blank node label: {label!r}")
        _set(self, "label", label)

    def __eq__(self, other):
        return self.label == other.label if other.__class__ is BlankNode else NotImplemented

    def __hash__(self):
        return hash(self.label)

    def __repr__(self):
        return f"BlankNode(label={self.label!r})"

    def __reduce__(self):
        return BlankNode, (self.label,)


RDF_TYPE = Iri(RDF_NS + "type")
RDF_LANGSTRING = Iri(RDF_NS + "langString")
RDFS_SUBCLASS_OF = Iri(RDFS_NS + "subClassOf")
XSD_STRING = Iri(XSD_NS + "string")
XSD_BOOLEAN = Iri(XSD_NS + "boolean")
OWL_CLASS = Iri(OWL_NS + "Class")
OWL_OBJECT_PROPERTY = Iri(OWL_NS + "ObjectProperty")
OWL_DATATYPE_PROPERTY = Iri(OWL_NS + "DatatypeProperty")
OWL_ONTOLOGY = Iri(OWL_NS + "Ontology")
OWL_ANNOTATION_PROPERTY = Iri(OWL_NS + "AnnotationProperty")


class Literal(_Value):
    """A typed or language-tagged literal value."""

    __slots__ = ("lexical", "datatype", "lang")

    def __init__(self, lexical: str, datatype: Iri = XSD_STRING, lang: Optional[str] = None):
        if lang is not None:
            if not _LANGTAG.fullmatch(lang):
                raise GraphError(f"invalid language tag: {lang!r}")
            datatype = RDF_LANGSTRING
        elif datatype == RDF_LANGSTRING:
            raise GraphError("language-tagged literal requires a language tag")
        _set(self, "lexical", lexical)
        _set(self, "datatype", datatype)
        _set(self, "lang", lang)

    def __eq__(self, other):
        if other.__class__ is Literal:
            return (self.lexical, self.datatype, self.lang) == (other.lexical, other.datatype, other.lang)
        return NotImplemented

    def __hash__(self):
        return hash((self.lexical, self.datatype, self.lang))

    def __repr__(self):
        return f"Literal(lexical={self.lexical!r}, datatype={self.datatype!r}, lang={self.lang!r})"

    def __reduce__(self):
        return Literal, (self.lexical, self.datatype, self.lang)


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


# The str.translate table of escape_literal: the five characters with an
# ECHAR form take it, every other code point below U+0020 takes \uXXXX.
_LITERAL_ESCAPES = {point: f"\\u{point:04X}" for point in range(0x20)}
_LITERAL_ESCAPES.update(
    {ord("\\"): "\\\\", ord('"'): '\\"', ord("\n"): "\\n", ord("\r"): "\\r", ord("\t"): "\\t"}
)


def escape_literal(text: str) -> str:
    """A literal's lexical form as the body of an N-Triples string."""
    return text.translate(_LITERAL_ESCAPES)


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


_ESCAPES = {
    "t": "\t",
    "b": "\b",
    "n": "\n",
    "r": "\r",
    "f": "\f",
    '"': '"',
    "'": "'",
    "\\": "\\",
}
_HEX = re.compile(r"[0-9A-Fa-f]*")


def _unescape(raw: str, what: str, escapes: dict = _ESCAPES) -> str:
    """Decode the N-Triples backslash escapes of an IRI or literal body."""
    out = []
    done = 0
    i = raw.find("\\")
    while i != -1:
        out.append(raw[done:i])
        code = raw[i + 1 : i + 2]
        if not code:
            raise GraphError(f"dangling escape in {what}")
        if code in escapes:
            out.append(escapes[code])
            done = i + 2
        elif code in ("u", "U"):
            width = 4 if code == "u" else 8
            hexpart = raw[i + 2 : i + 2 + width]
            if len(hexpart) != width:
                raise GraphError(f"truncated \\{code} escape in {what}")
            point = int(hexpart, 16) if _HEX.fullmatch(hexpart) else -1
            if not 0 <= point <= 0x10FFFF:
                raise GraphError(f"bad \\{code} escape {hexpart!r} in {what}")
            if 0xD800 <= point <= 0xDFFF:
                # A surrogate is no character and cannot be written as UTF-8.
                raise GraphError(f"surrogate \\{code} escape {hexpart!r} in {what}")
            out.append(chr(point))
            done = i + 2 + width
        else:
            raise GraphError(f"unknown escape \\{code} in {what}")
        i = raw.find("\\", done)
    out.append(raw[done:])
    return "".join(out)


def _term_of(key: str) -> Term:
    """The term whose N-Triples text (format_term) is the key."""
    if key[0] == "<":
        return Iri(key[1:-1])
    if key[0] == "_":
        return BlankNode(key[2:])
    body, _, suffix = key[1:].rpartition('"')
    lexical = _unescape(body, "literal") if "\\" in body else body
    if suffix[:1] == "@":
        return Literal(lexical, lang=suffix[1:])
    return Literal(lexical, Iri(suffix[3:-1]) if suffix else XSD_STRING)


class Graph:
    """Mutable triple set with interned terms and pattern matching on ids.

    Terms are interned to integer ids under their keys, and the id triples
    are the keys of one insertion-ordered dict.  The predicate index maps
    each predicate id to the triples holding it; match_ids builds it in one
    pass the first time a pattern binds the predicate, and later adds keep
    it current.  A graph that is only written never builds it.
    """

    def __init__(self):
        self._keys: list[str] = []
        self._ids: dict[str, int] = {}
        # Key -> term, filled by term(); a key names one term, so copies share it.
        self._made: dict[str, Term] = {}
        self._triples: dict[tuple[int, int, int], None] = {}
        # Predicate id -> the triples holding it; None until first built.
        self._by_predicate: Optional[dict[int, list]] = None
        self._blank_counter = 0

    def _intern(self, key: str) -> int:
        tid = self._ids.get(key)
        if tid is None:
            tid = self._ids[key] = len(self._keys)
            self._keys.append(key)
        return tid

    def _intern_term(self, term: Term) -> int:
        key = format_term(term)
        self._made[key] = term
        return self._intern(key)

    def _add_ids(self, s: int, p: int, o: int) -> bool:
        """Insert an id triple; returns True when it was not present before.

        The ids must be the graph's own, with a node as subject and an IRI
        as predicate: nothing here checks the positions, as add() does.
        """
        t = (s, p, o)
        if t in self._triples:
            return False
        self._triples[t] = None
        if self._by_predicate is not None:
            self._by_predicate.setdefault(p, []).append(t)
        return True

    def add(self, s: Node, p: Iri, o: Term) -> "Graph":
        if not isinstance(s, (Iri, BlankNode)):
            raise GraphError(f"subject must be an IRI or blank node: {s!r}")
        if not isinstance(p, Iri):
            raise GraphError(f"predicate must be an IRI: {p!r}")
        if not isinstance(o, (Iri, BlankNode, Literal)):
            raise GraphError(f"object must be a term: {o!r}")
        self._add_ids(self._intern_term(s), self._intern_term(p), self._intern_term(o))
        return self

    def __len__(self) -> int:
        return len(self._triples)

    def __contains__(self, triple: tuple) -> bool:
        try:
            return tuple(self._ids[format_term(x)] for x in triple) in self._triples
        except (KeyError, GraphError):
            return False

    def __iter__(self) -> Iterator[Triple]:
        return iter(self.triples())

    def triples(self) -> list[Triple]:
        """All triples in insertion order."""
        terms = list(map(self.term, range(len(self._keys))))
        return [Triple(terms[s], terms[p], terms[o]) for s, p, o in self._triples]

    def match(
        self,
        s: Optional[Node] = None,
        p: Optional[Iri] = None,
        o: Optional[Term] = None,
    ) -> list[Triple]:
        """Triples matching the pattern (None = wildcard), in insertion order."""
        ids = []
        for term in (s, p, o):
            tid = WILDCARD if term is None else self.term_id(term)
            if tid is None:
                return []
            ids.append(tid)
        term = self.term
        return [Triple(term(ts), term(tp), term(to)) for ts, tp, to in self.match_ids(*ids)]

    def term_id(self, term: Term) -> Optional[int]:
        """The interned id of a term, or None when the graph has not interned
        it (then no triple holds it)."""
        return self._ids.get(format_term(term))

    def term(self, tid: int) -> Term:
        """The term behind an interned id, built from its key on first use."""
        key = self._keys[tid]
        term = self._made.get(key)
        if term is None:
            term = self._made[key] = _term_of(key)
        return term

    def match_ids(self, s: int, p: int, o: int) -> list[tuple[int, int, int]]:
        """Id triples matching the pattern (WILDCARD, -1, = any), unsorted.

        A bound predicate is looked up in the predicate index, and a pattern
        without one scans every triple; bound subject and object filter.
        """
        if p == WILDCARD:
            cands = self._triples
        else:
            index = self._by_predicate
            if index is None:
                index = self._by_predicate = {}
                for t in self._triples:
                    index.setdefault(t[1], []).append(t)
            cands = index.get(p, ())
        if s == WILDCARD and o == WILDCARD:
            return list(cands)
        return [t for t in cands if (s == WILDCARD or t[0] == s) and (o == WILDCARD or t[2] == o)]

    def _fresh_key(self) -> str:
        """The key of a blank node unused in this graph: _:b0, _:b1, ..."""
        while True:
            key = f"_:b{self._blank_counter}"
            self._blank_counter += 1
            if key not in self._ids:
                return key

    def copy(self) -> "Graph":
        """An independent graph with the same terms and triples, in O(n).

        The key list, the id map and the triple dict are copied as they
        stand, and the term cache is shared; the copy builds its own
        predicate index when first matched.
        """
        dup = Graph()
        dup._keys = list(self._keys)
        dup._ids = dict(self._ids)
        dup._made = self._made
        dup._triples = dict(self._triples)
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

        A worklist closure: the worklist starts with every edge of a chain
        predicate and every rdf:type edge whose class has a superclass, and
        each triple the rules add joins it.  A triple taken from the list
        is entered in the adjacency maps of its predicate, then joined with
        the edges entered before it (and itself), so every pair of premises
        meets once the later of the two is taken.  Rules only connect
        existing nodes, so the loop terminates.  Only the predicate index is read.
        """
        intern = self._intern_term
        rdf_type = intern(RDF_TYPE)
        supers: dict[int, list[int]] = {}
        for sub, sup in subclass_pairs:
            supers.setdefault(intern(sub), []).append(intern(sup))
        # Per predicate: the chains it starts (p2, inverted, q) and ends
        # (p1, inverted, q), and maps subject -> objects (out_edges) or
        # object -> subjects (in_edges) over the edges taken so far.
        first: dict[int, list[tuple[int, bool, int]]] = {}
        second: dict[int, list[tuple[int, bool, int]]] = {}
        out_edges: dict[int, defaultdict[int, list[int]]] = {}
        in_edges: dict[int, defaultdict[int, list[int]]] = {}
        for p1, p2, inverted, q in chains:
            p1, p2, q = intern(p1), intern(p2), intern(q)
            inverted = bool(inverted)
            first.setdefault(p1, []).append((p2, inverted, q))
            second.setdefault(p2, []).append((p1, inverted, q))
            in_edges.setdefault(p1, defaultdict(list))
            (in_edges if inverted else out_edges).setdefault(p2, defaultdict(list))
        match, add = self.match_ids, self._add_ids
        work = [t for p in first.keys() | second.keys() for t in match(WILDCARD, p, WILDCARD)]
        if supers and rdf_type not in first and rdf_type not in second:
            work += [t for t in match(WILDCARD, rdf_type, WILDCARD) if t[2] in supers]
        total = 0
        while work:
            s, p, o = work.pop()
            derived: list[tuple[int, int, int]] = []
            if p in out_edges:
                out_edges[p][s].append(o)
            if p in in_edges:
                in_edges[p][o].append(s)
            if p in first:
                for p2, inverted, q in first[p]:
                    # s -p-> o, then o -p2-> c (or c -p2-> o when inverted).
                    ends = (in_edges if inverted else out_edges)[p2].get(o, ())
                    derived += [(s, q, c) for c in ends]
            if p in second:
                for p1, inverted, q in second[p]:
                    # a -p1-> b, then b -p-> c (or c -p-> b when inverted).
                    b, c = (o, s) if inverted else (s, o)
                    derived += [(a, q, c) for a in in_edges[p1].get(b, ())]
            if p == rdf_type and o in supers:
                derived += [(s, p, sup) for sup in supers[o]]
            for t in derived:
                if add(*t):
                    work.append(t)
                    total += 1
        return total


def instances_of(graph: Graph, class_iri: Iri, catalog=None) -> list[Node]:
    """Subjects typed as the class or, given a catalog, any of its subclasses."""
    if catalog is not None:
        graph = graph.copy()
        graph.apply_rules((), catalog.subclass_pairs())
    return sorted({t.s for t in graph.match(None, RDF_TYPE, class_iri)}, key=term_sort_key)
