"""Serialization: round trips, determinism, report format, Turtle cross-check."""

import json
import pathlib

import jsonschema
import pytest

from mmods.axioms import catalog
from mmods.graph import (
    RDF_NS,
    XSD_BOOLEAN,
    XSD_STRING,
    BlankNode,
    Graph,
    Iri,
    Literal,
    RDF_TYPE,
    canonicalize,
)
from mmods.mapping import map_record
from mmods.modsxml import parse_mods_xml
from mmods.serialize import (
    NTriplesError,
    read_ntriples,
    write_ntriples,
    write_report_json,
    write_report_text,
    write_turtle,
)
from mmods.validate import Finding, ValidationReport, validate
from mmods.vocab import VocabularyRegistry

from oracles import random_vocab_graph

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
SCHEMA = json.loads(
    (pathlib.Path(__file__).parent.parent / "schemas" / "validation-report.schema.json").read_text()
)


@pytest.fixture(scope="module")
def reg():
    return VocabularyRegistry()


@pytest.fixture(scope="module")
def rules(reg):
    return catalog(reg)


def fixture_graph(name, reg):
    data = (FIXTURES / name).read_bytes()
    return map_record(parse_mods_xml(data), reg).graph


class TestWriteNTriples:
    def test_empty_graph(self):
        assert write_ntriples(Graph()) == ""

    def test_single_triple(self):
        g = Graph().add(Iri("urn:s"), Iri("urn:p"), Iri("urn:o"))
        text = write_ntriples(g)
        lines = text.splitlines()
        assert len(lines) == 1
        assert lines[0].endswith(" .")
        assert text.endswith("\n")

    def test_lines_strictly_sorted(self, reg):
        text = write_ntriples(fixture_graph("personal.xml", reg))
        lines = text.splitlines()
        assert lines == sorted(lines)
        assert len(lines) == len(set(lines))

    def test_write_read_write_fixed_point(self, reg):
        for seed in range(40):
            g = random_vocab_graph(seed, reg)
            once = write_ntriples(g)
            assert write_ntriples(read_ntriples(once)) == once


class TestReadNTriples:
    def test_round_trip_preserves_graph(self, reg):
        g = fixture_graph("attrs.xml", reg)
        assert canonicalize(read_ntriples(write_ntriples(g))) == canonicalize(g)

    def test_duplicate_lines_single_triple(self):
        line = "<urn:s> <urn:p> <urn:o> .\n"
        assert len(read_ntriples(line * 3)) == 1

    def test_blank_labels_preserved(self):
        g = read_ntriples("_:alpha <urn:p> _:beta .\n")
        t = g.triples()[0]
        assert t.s == BlankNode("alpha")
        assert t.o == BlankNode("beta")

    def test_plain_literal_gets_string_type(self):
        g = read_ntriples('<urn:s> <urn:p> "v" .\n')
        assert g.triples()[0].o == Literal("v", XSD_STRING)

    def test_datatype_literal(self):
        g = read_ntriples(
            f'<urn:s> <urn:p> "true"^^<{XSD_BOOLEAN.value}> .\n'
        )
        assert g.triples()[0].o == Literal("true", XSD_BOOLEAN)

    def test_language_literal(self):
        g = read_ntriples('<urn:s> <urn:p> "chat"@fr .\n')
        assert g.triples()[0].o == Literal("chat", lang="fr")

    def test_escapes(self):
        g = read_ntriples('<urn:s> <urn:p> "a\\nb\\t\\"q\\"\\\\z\\u00e9\\U0001F600" .\n')
        assert g.triples()[0].o.lexical == 'a\nb\t"q"\\z\u00e9\U0001F600'

    def test_comments_and_blank_lines(self):
        text = "# header\n\n<urn:s> <urn:p> <urn:o> . # trailing\n   \n"
        assert len(read_ntriples(text)) == 1

    def test_missing_dot_reports_line(self):
        text = "<urn:s> <urn:p> <urn:o> .\n<urn:s> <urn:p> <urn:o2>\n"
        with pytest.raises(NTriplesError) as err:
            read_ntriples(text)
        assert "line 2" in str(err.value)

    def test_unterminated_iri(self):
        with pytest.raises(NTriplesError) as err:
            read_ntriples("<urn:s <urn:p> <urn:o> .\n")
        assert "line 1" in str(err.value)

    def test_unterminated_literal(self):
        with pytest.raises(NTriplesError):
            read_ntriples('<urn:s> <urn:p> "open .\n')

    def test_bad_escape(self):
        with pytest.raises(NTriplesError):
            read_ntriples('<urn:s> <urn:p> "a\\qb" .\n')

    def test_truncated_unicode_escape(self):
        with pytest.raises(NTriplesError):
            read_ntriples('<urn:s> <urn:p> "\\u00e" .\n')

    def test_literal_subject_rejected(self):
        with pytest.raises(NTriplesError):
            read_ntriples('"s" <urn:p> <urn:o> .\n')

    def test_trailing_garbage(self):
        with pytest.raises(NTriplesError):
            read_ntriples("<urn:s> <urn:p> <urn:o> . <urn:x>\n")


# Minimal Turtle reader covering exactly the subset the writer emits;
# independent of the writer so it can serve as a cross-check.
class _TurtleReader:
    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.prefixes = {}

    def _ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t\n\r":
            self.pos += 1

    def _token(self):
        self._ws()
        if self.pos >= len(self.text):
            return None
        start = self.pos
        if self.text[self.pos] == '"':
            self.pos += 1
            while self.pos < len(self.text):
                if self.text[self.pos] == "\\":
                    self.pos += 2
                    continue
                if self.text[self.pos] == '"':
                    self.pos += 1
                    break
                self.pos += 1
            while self.pos < len(self.text) and self.text[self.pos] not in " \t\n\r":
                self.pos += 1
            return self.text[start : self.pos]
        while self.pos < len(self.text) and self.text[self.pos] not in " \t\n\r":
            self.pos += 1
        return self.text[start : self.pos]

    def _unescape(self, raw):
        out, i = [], 0
        escapes = {"n": "\n", "r": "\r", "t": "\t", "b": "\b", "f": "\f", '"': '"', "\\": "\\", "'": "'"}
        while i < len(raw):
            if raw[i] != "\\":
                out.append(raw[i])
                i += 1
            elif raw[i + 1] in escapes:
                out.append(escapes[raw[i + 1]])
                i += 2
            elif raw[i + 1] == "u":
                out.append(chr(int(raw[i + 2 : i + 6], 16)))
                i += 6
            else:
                out.append(chr(int(raw[i + 2 : i + 10], 16)))
                i += 10
        return "".join(out)

    def _term(self, token):
        if token == "a":
            return RDF_TYPE
        if token.startswith("<"):
            assert token.endswith(">"), token
            return Iri(token[1:-1])
        if token.startswith("_:"):
            return BlankNode(token[2:])
        if token.startswith('"'):
            end = len(token) - 1
            while token[end] != '"':
                end -= 1
            lexical = self._unescape(token[1:end])
            suffix = token[end + 1 :]
            if suffix.startswith("@"):
                return Literal(lexical, lang=suffix[1:])
            if suffix.startswith("^^"):
                return Literal(lexical, self._term(suffix[2:]))
            return Literal(lexical, XSD_STRING)
        prefix, _, local = token.partition(":")
        assert prefix in self.prefixes, token
        return Iri(self.prefixes[prefix] + local)

    def read(self):
        graph = Graph()
        while True:
            token = self._token()
            if token is None:
                return graph
            if token == "@prefix":
                name = self._token()
                iri = self._token()
                assert self._token() == "."
                self.prefixes[name.rstrip(":")] = iri[1:-1]
                continue
            subject = self._term(token)
            while True:
                predicate = self._term(self._token())
                # Object lists attach the separator comma to the object token.
                while True:
                    obj = self._token()
                    if obj.endswith(","):
                        graph.add(subject, predicate, self._term(obj[:-1]))
                        continue
                    graph.add(subject, predicate, self._term(obj))
                    break
                separator = self._token()
                if separator == ".":
                    break
                assert separator == ";", separator


def read_turtle(text):
    return _TurtleReader(text).read()


class TestWriteTurtle:
    def test_empty_graph_header_only(self, reg):
        text = write_turtle(Graph(), reg)
        assert all(line.startswith("@prefix") for line in text.splitlines())
        assert "mmods:" in text

    def test_registry_terms_prefixed(self, reg):
        text = write_turtle(fixture_graph("personal.xml", reg), reg)
        # Registry classes, properties, and individuals never appear as
        # full IRIs; minted record nodes may (slash in the local part).
        assert f"<{reg.cls('Agent').value}>" not in text
        assert f"<{reg.prop('hasName').value}>" not in text
        assert f"<{reg.individual('Primary').value}>" not in text
        assert "mmods:Agent" in text
        assert "mmods:hasName" in text
        assert "    a mmods:" in text

    def test_cross_check_fixtures(self, reg):
        for name in ["personal.xml", "dates.xml", "attrs.xml", "collection.xml"]:
            g = fixture_graph(name, reg)
            back = read_turtle(write_turtle(g, reg))
            assert canonicalize(back) == canonicalize(g)

    def test_cross_check_random_graphs(self, reg):
        for seed in range(60):
            g = random_vocab_graph(seed, reg)
            back = read_turtle(write_turtle(g, reg))
            assert canonicalize(back) == canonicalize(g)

    def test_matches_ntriples_content(self, reg):
        # The ID-less record with identical names is symmetric: its labels
        # come from the tie-branching search.
        symmetric = "<mods>" + "<name><namePart>Same</namePart></name>" * 3 + "</mods>"
        for g in [
            fixture_graph("shared_affiliation.xml", reg),
            map_record(parse_mods_xml(symmetric), reg).graph,
        ]:
            assert canonicalize(read_turtle(write_turtle(g, reg))) == write_ntriples(g)

    def test_deterministic(self, reg):
        g = fixture_graph("dates.xml", reg)
        assert write_turtle(g, reg) == write_turtle(g, reg)

    def test_non_registry_iri_stays_full(self, reg):
        g = Graph().add(Iri("urn:x"), Iri("http://other.example/p"), Iri("urn:y"))
        text = write_turtle(g, reg)
        assert "<http://other.example/p>" in text


def _report(findings, source="test.xml"):
    return ValidationReport(findings, source=source)


def _finding(code="E_NAME_20", severity="error", focus="<urn:n>", detail="missing"):
    return Finding(
        code=code,
        axiom_id=code.rsplit("_", 1)[-1].lower(),
        severity=severity,
        focus=focus,
        detail=detail,
        message="message",
    )


class TestReportJson:
    def test_empty_report(self):
        doc = json.loads(write_report_json(_report([])))
        assert doc["summary"] == {"errors": 0, "warnings": 0, "infos": 0}
        assert doc["findings"] == []
        assert doc["source"] == "test.xml"

    def test_single_error(self):
        doc = json.loads(write_report_json(_report([_finding()])))
        assert doc["summary"]["errors"] == 1
        assert len(doc["findings"]) == 1
        assert doc["findings"][0]["code"] == "E_NAME_20"
        assert doc["findings"][0]["axiom"] == "20"

    def test_findings_sorted_by_code_then_focus(self):
        report = _report(
            [
                _finding(code="E_NAME_22", focus="<urn:b>"),
                _finding(code="E_AGENTROLE_6", focus="<urn:z>"),
                _finding(code="E_NAME_22", focus="<urn:a>"),
            ]
        )
        doc = json.loads(write_report_json(report))
        keys = [(f["code"], f["focus"]) for f in doc["findings"]]
        assert keys == sorted(keys)

    def test_summary_counts_match_tallies(self, reg, rules):
        for seed in range(30):
            g = random_vocab_graph(seed, reg)
            report = validate(g, rules, reg, source=f"seed{seed}")
            doc = json.loads(write_report_json(report))
            by_severity = {"error": 0, "warning": 0, "info": 0}
            for f in doc["findings"]:
                by_severity[f["severity"]] += 1
            assert doc["summary"] == {
                "errors": by_severity["error"],
                "warnings": by_severity["warning"],
                "infos": by_severity["info"],
            }

    def test_byte_identical_across_runs(self, reg, rules):
        g = random_vocab_graph(7, reg)
        a = write_report_json(validate(g, rules, reg, source="x"))
        b = write_report_json(validate(g, rules, reg, source="x"))
        assert a == b

    def test_two_space_indent(self):
        text = write_report_json(_report([]))
        assert '\n  "version"' in text

    def test_validates_against_schema(self, reg, rules):
        jsonschema.Draft202012Validator.check_schema(SCHEMA)
        validator = jsonschema.Draft202012Validator(SCHEMA)
        validator.validate(json.loads(write_report_json(_report([]))))
        validator.validate(json.loads(write_report_json(_report([_finding()]))))
        for seed in range(20):
            g = random_vocab_graph(seed, reg)
            report = validate(g, rules, reg, source=f"seed{seed}")
            validator.validate(json.loads(write_report_json(report)))


class TestReportText:
    def test_summary_line_present(self):
        text = write_report_text(_report([]))
        assert text == "errors: 0, warnings: 0, infos: 0\n"

    def test_finding_lines(self):
        text = write_report_text(_report([_finding()]))
        assert text.splitlines()[0].startswith("error: E_NAME_20 <urn:n>")

    def test_deterministic(self, reg, rules):
        g = random_vocab_graph(3, reg)
        a = write_report_text(validate(g, rules, reg))
        b = write_report_text(validate(g, rules, reg))
        assert a == b
