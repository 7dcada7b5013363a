"""Deterministic graph and report serialization.

Three output formats: N-Triples (canonical, sorted, round-trippable),
Turtle (prefixed, grouped, no sugar beyond predicate and object lists),
and a JSON validation-report document. One reader: N-Triples, for
round-trip testing and graph-file inputs.

Both writers join the store's keys, each term's N-Triples text, and the
blank labels of the one canonical labelling.  The Turtle writer rewrites
each distinct key once into a per-id text table, with IRIs under a prefix
where one fits, and "a" stands for rdf:type only as a predicate.

The reader takes a line of the writer's own shape, "S P O ." with single
spaces, by one split and one lookup per token in the graph's key dict; a
token not there yet is interned as it stands when _KEY shows it is a key.
Every other line goes through the scanner, one precompiled pattern per term
matched at the current position, which decodes and checks each distinct
token once through the term classes and alone raises NTriplesError.
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
    _IRI,
    _LANGTAG,
    _unescape,
)
from .canonical import _canonical_labels, canonicalize
from .validate import ValidationReport

REPORT_VERSION = 1


class NTriplesError(ValueError):
    """Syntax error in N-Triples input, with line number."""


def write_ntriples(graph: Graph) -> str:
    """Canonical N-Triples text: sorted lines, stable blank labels."""
    return canonicalize(graph)


# The scanner's term patterns, matched at a position in one line.  An IRI is
# everything up to the first ">" (its text is checked by Iri); a blank label
# is a run of _LABEL_CHAR and "." that does not end in "."; a literal body
# runs to the first '"' not taken by a backslash escape; a language tag is a
# run of _TAG_CHAR.  Spaces and tabs separate terms.
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

# A key as the split path admits it, matched whole: an IRI with a scheme and
# Iri's characters (so no escapes), a blank label the scanner reads whole, or
# a literal body as escape_literal writes it, with a LANGTAG or a datatype
# other than xsd:string (written without one) and rdf:langString (an error).
_KEY = re.compile(
    rf'<{_IRI.pattern}>|_:(?:\.*{_LABEL_CHAR})+|"(?:[^\x00-\x1f"\\]|\\[\\"nrt]|\\u00(?:0[0-8BCEF]|1[0-9A-F]))*"'
    rf"(?:@{_LANGTAG.pattern}|\^\^(?!<{re.escape(XSD_STRING.value)}>|<{re.escape(RDF_LANGSTRING.value)}>)"
    rf"<{_IRI.pattern}>)?"
)


def _node(token: str):
    """The Iri of an "<...>" token or the BlankNode of a "_:..." token."""
    if token[0] == "<":
        raw = token[1:-1]
        # IRIREF takes \u and \U escapes only (UCHAR), none of a literal's.
        return Iri(_unescape(raw, "IRI", {}) if "\\" in raw else raw)
    if len(token) == 2:
        raise NTriplesError("empty blank node label")
    return BlankNode(token[2:])


def _literal(match) -> Literal:
    """The Literal of an _OBJECT match on a literal token."""
    body, datatype, lang = match.group(1, 2, 3)
    lexical = _unescape(body, "literal") if "\\" in body else body
    if datatype is not None:
        iri = _node(datatype)
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
    known, intern, intern_term = graph._ids.get, graph._intern, graph._intern_term
    triples = graph._triples
    # The scanner's token text -> term id, so each distinct token is decoded,
    # checked and interned once; its patterns put an IRI or blank node in
    # subject place and an IRI in predicate place.
    ids: dict[str, int] = {}
    lines = text.split("\n")
    if "\r" in text:
        lines = [line.rstrip("\r") for line in lines]
    line_no = 0
    try:
        for line_no, line in enumerate(lines, start=1):
            # The split path: every token is a key, known or admitted, and
            # the subject is no literal and the predicate an IRI.
            parts = line.split(" ", 2)
            if len(parts) == 3 and parts[2][-2:] == " .":
                s, p, o = parts[0], parts[1], parts[2][:-2]
                subject, predicate, obj = known(s), known(p), known(o)
                if subject is None and _KEY.fullmatch(s):
                    subject = intern(s)
                if predicate is None and _KEY.fullmatch(p):
                    predicate = intern(p)
                if obj is None and _KEY.fullmatch(o):
                    obj = intern(o)
                if (
                    subject is not None and predicate is not None and obj is not None
                    and s[0] != '"' and p[0] == "<"
                ):
                    triples[subject, predicate, obj] = None
                    continue

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
                subject = ids[token] = intern_term(_node(token))

            pos = m.end()
            m = _PREDICATE.match(line, pos)
            if m is None:
                raise _expected_iri(line, pos)
            token = m.group(1)
            predicate = ids.get(token)
            if predicate is None:
                predicate = ids[token] = intern_term(_node(token))

            pos = m.end()
            m = _OBJECT.match(line, pos)
            if m is None:
                raise _bad_object(line, pos)
            token = m.group()
            obj = ids.get(token)
            if obj is None:
                obj = ids[token] = intern_term(_node(token) if token[0] != '"' else _literal(m))

            pos = m.end()
            if _END.match(line, pos) is None:
                pos = _SPACES.match(line, pos).end()
                if line[pos : pos + 1] != ".":
                    raise NTriplesError("expected '.' at end of triple")
                raise NTriplesError("unexpected text after '.'")
            # A fresh graph has no predicate index to keep current.
            triples[subject, predicate, obj] = None
    except ValueError as exc:
        raise NTriplesError(f"line {line_no}: {exc}") from exc
    return graph


# The local names written after a prefix: an ASCII subset of PN_LOCAL.
_LOCAL_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_-]*")


def _turtle_term(key: str, prefixes: list[tuple[str, str]], formatted: dict) -> str:
    """A key as Turtle writes it: an IRI under the first prefix whose local
    name fits _LOCAL_NAME, a typed literal with its datatype's text taken
    from (or added to) `formatted`, anything else as in N-Triples."""
    if key[0] == "<":
        for prefix, namespace in prefixes:
            if key.startswith(namespace, 1):
                local = key[len(namespace) + 1 : -1]
                if _LOCAL_NAME.fullmatch(local):
                    return f"{prefix}:{local}"
        return key
    # A literal's closing quote is its key's last '"'; ^^<datatype> follows it.
    head, _, suffix = key.rpartition('"')
    if key[0] == '"' and suffix[:2] == "^^":
        text = formatted.get(suffix[2:])
        if text is None:
            text = formatted[suffix[2:]] = _turtle_term(suffix[2:], prefixes, formatted)
        return f'{head}"^^{text}'
    return key


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
    keys = graph._keys
    formatted: dict = {}  # key -> its Turtle text; each is formatted once
    text = {}  # term id -> its Turtle text, for every term of a triple
    for x in {x for t in graph._triples for x in t}:
        if x in labels:
            text[x] = f"_:c{labels[x]}"
        elif keys[x] in formatted:  # a datatype already written
            text[x] = formatted[keys[x]]
        else:
            text[x] = formatted[keys[x]] = _turtle_term(keys[x], prefixes, formatted)
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
        "summary": report.summary(),
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
