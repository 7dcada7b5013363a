"""Deterministic graph and report serialization.

Three output formats: N-Triples (canonical, sorted, round-trippable),
Turtle (prefixed, grouped, no sugar beyond predicate and object lists),
and a JSON validation-report document. One reader: N-Triples, for
round-trip testing and graph-file inputs.
"""

from __future__ import annotations

import json

from .graph import (
    OWL_NS,
    RDF_LANGSTRING,
    RDF_NS,
    RDFS_NS,
    XSD_NS,
    XSD_STRING,
    BlankNode,
    Graph,
    Iri,
    Literal,
    canonical_triples,
    canonicalize,
    escape_literal,
)
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


class _LineParser:
    def __init__(self, text: str, line_no: int):
        self.text = text
        self.pos = 0
        self.line_no = line_no

    def error(self, message: str) -> NTriplesError:
        return NTriplesError(f"line {self.line_no}: {message}")

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def at_end(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _unescape(self, raw: str, what: str) -> str:
        out = []
        i = 0
        while i < len(raw):
            ch = raw[i]
            if ch != "\\":
                out.append(ch)
                i += 1
                continue
            if i + 1 >= len(raw):
                raise self.error(f"dangling escape in {what}")
            code = raw[i + 1]
            if code in _ESCAPES:
                out.append(_ESCAPES[code])
                i += 2
            elif code in ("u", "U"):
                width = 4 if code == "u" else 8
                hexpart = raw[i + 2 : i + 2 + width]
                if len(hexpart) != width:
                    raise self.error(f"truncated \\{code} escape in {what}")
                try:
                    out.append(chr(int(hexpart, 16)))
                except ValueError:
                    raise self.error(f"bad \\{code} escape {hexpart!r} in {what}") from None
                i += 2 + width
            else:
                raise self.error(f"unknown escape \\{code} in {what}")
        return "".join(out)

    def read_iri(self) -> Iri:
        if self.peek() != "<":
            raise self.error(f"expected IRI, found {self.peek()!r}")
        end = self.text.find(">", self.pos + 1)
        if end == -1:
            raise self.error("unterminated IRI")
        raw = self.text[self.pos + 1 : end]
        self.pos = end + 1
        try:
            return Iri(self._unescape(raw, "IRI"))
        except NTriplesError:
            raise
        except ValueError as exc:
            raise self.error(str(exc)) from exc

    def read_blank(self) -> BlankNode:
        if not self.text.startswith("_:", self.pos):
            raise self.error("expected blank node label")
        start = self.pos + 2
        end = start
        while end < len(self.text) and (self.text[end].isalnum() or self.text[end] in "_-."):
            end += 1
        while end > start and self.text[end - 1] == ".":
            end -= 1
        if end == start:
            raise self.error("empty blank node label")
        label = self.text[start:end]
        self.pos = end
        return BlankNode(label)

    def read_literal(self) -> Literal:
        if self.peek() != '"':
            raise self.error(f"expected literal, found {self.peek()!r}")
        i = self.pos + 1
        while i < len(self.text):
            if self.text[i] == "\\":
                i += 2
                continue
            if self.text[i] == '"':
                break
            i += 1
        else:
            raise self.error("unterminated literal")
        if i >= len(self.text):
            raise self.error("unterminated literal")
        lexical = self._unescape(self.text[self.pos + 1 : i], "literal")
        self.pos = i + 1
        if self.text.startswith("^^", self.pos):
            self.pos += 2
            datatype = self.read_iri()
            if datatype == RDF_LANGSTRING:
                raise self.error("language string literal requires a language tag")
            return Literal(lexical, datatype)
        if self.peek() == "@":
            self.pos += 1
            start = self.pos
            while self.pos < len(self.text) and (
                self.text[self.pos].isalnum() or self.text[self.pos] == "-"
            ):
                self.pos += 1
            tag = self.text[start : self.pos]
            if not tag:
                raise self.error("empty language tag")
            return Literal(lexical, lang=tag)
        return Literal(lexical, XSD_STRING)

    def read_subject(self):
        if self.peek() == "<":
            return self.read_iri()
        return self.read_blank()

    def read_object(self):
        ch = self.peek()
        if ch == "<":
            return self.read_iri()
        if ch == '"':
            return self.read_literal()
        return self.read_blank()


def read_ntriples(text: str) -> Graph:
    """Parse N-Triples text into a fresh graph (set semantics).

    Blank node labels are kept as local labels. Raises NTriplesError
    with the line number on the first syntax error.
    """
    graph = Graph()
    for line_no, line in enumerate(text.split("\n"), start=1):
        parser = _LineParser(line, line_no)
        parser.skip_ws()
        if parser.at_end() or parser.peek() == "#":
            continue
        subject = parser.read_subject()
        parser.skip_ws()
        predicate = parser.read_iri()
        parser.skip_ws()
        obj = parser.read_object()
        parser.skip_ws()
        if parser.peek() != ".":
            raise parser.error("expected '.' at end of triple")
        parser.pos += 1
        parser.skip_ws()
        if not parser.at_end() and parser.peek() != "#":
            raise parser.error("unexpected text after '.'")
        try:
            graph.add(subject, predicate, obj)
        except ValueError as exc:
            raise NTriplesError(f"line {line_no}: {exc}") from exc
    return graph


_PN_FIRST = set("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_PN_REST = _PN_FIRST | set("0123456789-")


def _local_name_ok(local: str) -> bool:
    if not local or local[0] not in _PN_FIRST:
        return False
    return all(ch in _PN_REST for ch in local[1:])


def _turtle_term(term, prefixes: list[tuple[str, str]]) -> str:
    if isinstance(term, Iri):
        if term.value == RDF_NS + "type":
            return "a"
        for prefix, namespace in prefixes:
            if term.value.startswith(namespace):
                local = term.value[len(namespace) :]
                if _local_name_ok(local):
                    return f"{prefix}:{local}"
        return f"<{term.value}>"
    if isinstance(term, BlankNode):
        return f"_:{term.label}"
    quoted = f'"{escape_literal(term.lexical)}"'
    if term.lang is not None:
        return f"{quoted}@{term.lang}"
    if term.datatype == XSD_STRING:
        return quoted
    return f"{quoted}^^{_turtle_term(term.datatype, prefixes)}"


def write_turtle(graph: Graph, registry) -> str:
    """Prefixed Turtle, grouped by subject, deterministic.

    Content is exactly the canonical N-Triples form: same triples, same
    blank labels. Predicate groups use ';', object lists use ','.
    """
    prefixes = [
        ("mmods", registry.base_iri),
        ("owl", OWL_NS),
        ("rdf", RDF_NS),
        ("rdfs", RDFS_NS),
        ("xsd", XSD_NS),
    ]
    lines = [f"@prefix {prefix}: <{namespace}> ." for prefix, namespace in prefixes]

    by_subject: dict = {}
    order: list = []
    for s, p, o in canonical_triples(graph):
        key = _turtle_term(s, prefixes)
        if key not in by_subject:
            by_subject[key] = {}
            order.append(key)
        by_subject[key].setdefault(_turtle_term(p, prefixes), []).append(
            _turtle_term(o, prefixes)
        )

    for subject in sorted(order):
        lines.append("")
        predicates = by_subject[subject]
        # rdf:type first, then the rest sorted; objects sorted within each.
        keys = sorted(predicates, key=lambda k: (k != "a", k))
        body = [
            f"    {predicate} " + ", ".join(sorted(predicates[predicate]))
            for predicate in keys
        ]
        lines.append(subject + "\n" + " ;\n".join(body) + " .")
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
