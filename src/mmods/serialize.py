"""Deterministic graph and report serialization.

Three output formats: N-Triples (canonical, sorted, round-trippable),
Turtle (prefixed, grouped, no sugar beyond predicate and object lists),
and a JSON validation-report document. One reader: N-Triples, for
round-trip testing and graph-file inputs.

The Turtle writer works on the graph's id triples and the blank labels of
the one canonical labelling: each distinct term is formatted once into a
per-id text table, and "a" stands for rdf:type only as a predicate.

The reader walks each line with one precompiled pattern per term (subject,
predicate, object with its datatype or language tag, and the line end),
each matched at the current position. A term without a backslash is used
as written; only one with an escape goes through the decoder. A cache local
to one read_ntriples call maps each token's text to its id in the graph, so
every distinct IRI, blank node and literal is decoded, checked and interned
once, and each line adds one id triple.
"""

from __future__ import annotations

import json
import re

from .graph import (
    OWL_NS,
    RDF_LANGSTRING,
    RDF_NS,
    RDF_TYPE,
    RDFS_NS,
    XSD_NS,
    XSD_STRING,
    BlankNode,
    Graph,
    Iri,
    Literal,
    escape_literal,
    format_term,
)
from .canonical import _canonical_labels, canonicalize
from .validate import ValidationReport

REPORT_VERSION = 1


class NTriplesError(ValueError):
    """Syntax error in N-Triples input, with line number."""


def write_ntriples(graph: Graph) -> str:
    """Canonical N-Triples text: sorted lines, stable blank labels."""
    return canonicalize(graph)


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

# Term patterns, matched at a position in one line.  An IRI is everything up
# to the first ">" (its text is checked by Iri); a blank label is a run of
# _LABEL_CHAR and "." that does not end in "."; a literal body runs to the
# first '"' not taken by a backslash escape; a language tag is a run of
# _TAG_CHAR.  Spaces and tabs separate terms.
_LABEL_CHAR = r"[\w-]"  # str.isalnum(), "_" or "-"
_TAG_CHAR = r"(?:[^\W_]|-)"  # str.isalnum() or "-"
_IRI_SRC = r"<[^>]*>"
_BLANK_SRC = rf"_:(?:\.*{_LABEL_CHAR})*"
_SUBJECT = re.compile(rf"[ \t]*({_IRI_SRC}|{_BLANK_SRC})[ \t]*")
_PREDICATE = re.compile(rf"({_IRI_SRC})[ \t]*")
_OBJECT = re.compile(
    rf'{_IRI_SRC}|{_BLANK_SRC}|"([^"\\]*(?:\\.[^"\\]*)*)"(?:\^\^({_IRI_SRC})?|@({_TAG_CHAR}*))?',
    re.DOTALL,
)
_END = re.compile(r"[ \t]*\.[ \t]*(?:#|\Z)")
_SPACES = re.compile(r"[ \t]*")


def _unescape(raw: str, what: str, escapes: dict = _ESCAPES) -> str:
    """Decode the backslash escapes of an IRI or literal body."""
    out = []
    done = 0
    i = raw.find("\\")
    while i != -1:
        out.append(raw[done:i])
        code = raw[i + 1 : i + 2]
        if not code:
            raise NTriplesError(f"dangling escape in {what}")
        if code in escapes:
            out.append(escapes[code])
            done = i + 2
        elif code in ("u", "U"):
            width = 4 if code == "u" else 8
            hexpart = raw[i + 2 : i + 2 + width]
            if len(hexpart) != width:
                raise NTriplesError(f"truncated \\{code} escape in {what}")
            point = int(hexpart, 16) if _HEX.fullmatch(hexpart) else -1
            if not 0 <= point <= 0x10FFFF:
                raise NTriplesError(f"bad \\{code} escape {hexpart!r} in {what}")
            if 0xD800 <= point <= 0xDFFF:
                # A surrogate is no character and cannot be written as UTF-8.
                raise NTriplesError(f"surrogate \\{code} escape {hexpart!r} in {what}")
            out.append(chr(point))
            done = i + 2 + width
        else:
            raise NTriplesError(f"unknown escape \\{code} in {what}")
        i = raw.find("\\", done)
    out.append(raw[done:])
    return "".join(out)


def _node(token: str):
    """The Iri of an "<...>" token or the BlankNode of a "_:..." token."""
    if token[0] == "<":
        raw = token[1:-1]
        # IRIREF takes \u and \U escapes only (UCHAR), none of a literal's.
        return Iri(_unescape(raw, "IRI", {}) if "\\" in raw else raw)
    if len(token) == 2:
        raise NTriplesError("empty blank node label")
    return BlankNode(token[2:])


def _literal(match, datatypes: dict) -> Literal:
    """The Literal of an _OBJECT match on a literal token; `datatypes` caches
    each datatype token's Iri."""
    body, datatype, lang = match.group(1, 2, 3)
    lexical = _unescape(body, "literal") if "\\" in body else body
    if datatype is not None:
        iri = datatypes.get(datatype)
        if iri is None:
            iri = datatypes[datatype] = _node(datatype)
        if iri == RDF_LANGSTRING:
            raise NTriplesError("language string literal requires a language tag")
        return Literal(lexical, iri)
    if lang is not None:
        if not lang:
            raise NTriplesError("empty language tag")
        return Literal(lexical, lang=lang)
    if match.group().endswith("^^"):
        raise _expected_iri(match.string, match.end())
    return Literal(lexical, XSD_STRING)


def _expected_iri(line: str, pos: int) -> NTriplesError:
    found = line[pos : pos + 1]
    if found != "<":
        return NTriplesError(f"expected IRI, found {found!r}")
    return NTriplesError("unterminated IRI")


def _bad_object(line: str, pos: int) -> NTriplesError:
    """The error for an object at pos that _OBJECT does not match."""
    found = line[pos : pos + 1]
    if found == "<":
        return NTriplesError("unterminated IRI")
    if found == '"':
        return NTriplesError("unterminated literal")
    return NTriplesError("expected blank node label")


def read_ntriples(text: str) -> Graph:
    """Parse N-Triples text into a fresh graph (set semantics).

    Blank node labels are kept as local labels.  Lines end at "\\n"; "\\r"
    just before a line end is part of it.  Raises NTriplesError with the
    line number on the first syntax error.
    """
    graph = Graph()
    intern, add = graph._intern, graph._add_ids
    # Token text -> term id, for every token read so far; each distinct term
    # is decoded, checked and interned once per call.  The patterns put an
    # IRI or blank node in subject place and an IRI in predicate place.
    ids: dict[str, int] = {}
    datatypes: dict[str, Iri] = {}
    lines = text.split("\n")
    if "\r" in text:
        lines = [line.rstrip("\r") for line in lines]
    line_no = 0
    try:
        for line_no, line in enumerate(lines, start=1):
            m = _SUBJECT.match(line)
            if m is None:
                pos = _SPACES.match(line).end()
                if pos == len(line) or line[pos] == "#":
                    continue
                if line[pos] == "<":
                    raise NTriplesError("unterminated IRI")
                raise NTriplesError("expected blank node label")
            token = m.group(1)
            subject = ids.get(token)
            if subject is None:
                subject = ids[token] = intern(_node(token))

            pos = m.end()
            m = _PREDICATE.match(line, pos)
            if m is None:
                raise _expected_iri(line, pos)
            token = m.group(1)
            predicate = ids.get(token)
            if predicate is None:
                predicate = ids[token] = intern(_node(token))

            pos = m.end()
            m = _OBJECT.match(line, pos)
            if m is None:
                raise _bad_object(line, pos)
            token = m.group()
            obj = ids.get(token)
            if obj is None:
                term = _node(token) if token[0] != '"' else _literal(m, datatypes)
                obj = ids[token] = intern(term)

            pos = m.end()
            if _END.match(line, pos) is None:
                pos = _SPACES.match(line, pos).end()
                if line[pos : pos + 1] != ".":
                    raise NTriplesError("expected '.' at end of triple")
                raise NTriplesError("unexpected text after '.'")
            add(subject, predicate, obj)
    except ValueError as exc:
        raise NTriplesError(f"line {line_no}: {exc}") from exc
    return graph


# The local names written after a prefix: an ASCII subset of PN_LOCAL.
_LOCAL_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_-]*")


def _turtle_term(term, prefixes: list[tuple[str, str]], formatted: dict) -> str:
    """A term as Turtle writes it: an IRI under the first prefix whose local
    name fits _LOCAL_NAME, a typed literal with its datatype's text taken
    from (or added to) `formatted`, anything else as in N-Triples."""
    if isinstance(term, Iri):
        for prefix, namespace in prefixes:
            if term.value.startswith(namespace):
                local = term.value[len(namespace) :]
                if _LOCAL_NAME.fullmatch(local):
                    return f"{prefix}:{local}"
        return f"<{term.value}>"
    if isinstance(term, Literal) and term.lang is None and term.datatype != XSD_STRING:
        datatype = formatted.get(term.datatype)
        if datatype is None:
            datatype = formatted[term.datatype] = _turtle_term(term.datatype, prefixes, formatted)
        return f'"{escape_literal(term.lexical)}"^^{datatype}'
    return format_term(term)


def write_turtle(graph: Graph, registry) -> str:
    """Prefixed Turtle, grouped by subject, deterministic.

    Content is exactly the canonical N-Triples form: same triples, same
    blank labels, taken from the one labelling canonicalize uses.  Each
    distinct term is formatted once; rdf:type is written "a" as a predicate
    only, the one place Turtle allows it.  Predicate groups use ';', object
    lists use ','.
    """
    prefixes = [
        ("mmods", registry.base_iri),
        ("owl", OWL_NS),
        ("rdf", RDF_NS),
        ("rdfs", RDFS_NS),
        ("xsd", XSD_NS),
    ]
    lines = [f"@prefix {prefix}: <{namespace}> ." for prefix, namespace in prefixes]

    labels = _canonical_labels(graph)
    formatted: dict = {}  # term -> its Turtle text; each is formatted once
    text = {}  # term id -> its Turtle text, for every term of a triple
    for x in {x for t in graph._triples for x in t}:
        term = graph._terms[x]
        if x in labels:
            text[x] = f"_:c{labels[x]}"
        elif term in formatted:  # a datatype already written
            text[x] = formatted[term]
        else:
            text[x] = formatted[term] = _turtle_term(term, prefixes, formatted)
    by_subject: dict[int, dict[int, list[str]]] = {}
    for s, p, o in graph._triples:
        by_subject.setdefault(s, {}).setdefault(p, []).append(text[o])

    rdf_type = graph.term_id(RDF_TYPE)
    for s in sorted(by_subject, key=text.__getitem__):
        predicates = by_subject[s]
        # rdf:type first, then the rest sorted; objects sorted within each.
        keys = sorted(predicates, key=lambda p: (p != rdf_type, text[p]))
        body = [
            f"    {'a' if p == rdf_type else text[p]} " + ", ".join(sorted(predicates[p]))
            for p in keys
        ]
        lines.append("\n" + text[s] + "\n" + " ;\n".join(body) + " .")
    return "\n".join(lines) + "\n"


def report_to_document(report: ValidationReport) -> dict:
    """The report as a plain JSON-ready dict with fixed key order."""
    findings = sorted(report.findings, key=lambda f: (f.code, f.focus))
    return {
        "version": REPORT_VERSION,
        "source": report.source,
        "summary": {
            "errors": report.errors,
            "warnings": report.warnings,
            "infos": report.infos,
        },
        "findings": [
            {
                "code": f.code,
                "axiom": f.axiom_id,
                "severity": f.severity,
                "focus": f.focus,
                "detail": f.detail,
            }
            for f in findings
        ],
    }


def write_report_json(report: ValidationReport) -> str:
    return json.dumps(report_to_document(report), indent=2) + "\n"


def write_report_text(report: ValidationReport) -> str:
    """Line-per-finding text form, ending with a summary line."""
    lines = [
        f"{f.severity}: {f.code} {f.focus} {f.message} ({f.detail})"
        for f in sorted(report.findings, key=lambda f: (f.code, f.focus))
    ]
    counts = report.summary()
    lines.append(
        f"errors: {counts['errors']}, warnings: {counts['warnings']}, "
        f"infos: {counts['infos']}"
    )
    return "\n".join(lines) + "\n"
