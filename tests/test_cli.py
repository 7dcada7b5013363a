"""Command-line behavior: exit codes, formats, flag precedence, determinism."""

import json
import os
import pathlib
import pyexpat
import subprocess
import sys
import time
from xml.sax.saxutils import quoteattr

import pytest

import mmods
from mmods.canonical import canonicalize
from mmods.cli import main
from mmods.graph import RDF_TYPE, BlankNode, Graph, Iri
from mmods.mapping import map_record
from mmods.modsxml import parse_mods_xml
from mmods.serialize import read_ntriples
from mmods.vocab import VocabularyRegistry

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

# The characters N-Triples IRIREF excludes that an XML attribute can carry;
# XML 1.0 admits no other character below U+0020.
IRIREF_EXCLUDED_XML = ["\t", "\n", "\r", " ", "<", ">", '"', "{", "}", "|", "^", "`", "\\"]


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConvert:
    def test_minimal_record_nt_stdout(self, capsys, tmp_path):
        record = tmp_path / "minimal.xml"
        record.write_text("<mods><name><namePart>N</namePart></name></mods>")
        code, out, err = run(capsys, "convert", record, "--format", "nt")
        assert code == 0
        assert out
        assert all(line.endswith(" .") for line in out.splitlines())

    def test_default_format_is_turtle(self, capsys):
        code, out, _ = run(capsys, "convert", FIXTURES / "personal.xml")
        assert code == 0
        assert out.startswith("@prefix ")

    def test_malformed_exit_1_with_line(self, capsys):
        code, out, err = run(capsys, "convert", FIXTURES / "malformed.xml")
        assert code == 1
        assert not out
        assert "line" in err

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run(capsys, "convert", "no-such-file.xml")
        assert code == 2
        assert "no-such-file.xml" in err

    def test_warnings_on_stderr_not_stdout(self, capsys):
        code, out, err = run(capsys, "convert", FIXTURES / "corporate.xml", "--format", "nt")
        assert code == 0
        assert "titleInfo" in err
        assert "titleInfo" not in out

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "g.nt"
        code, out, _ = run(
            capsys, "convert", FIXTURES / "personal.xml", "--format", "nt", "--out", target
        )
        assert code == 0
        assert not out
        assert target.read_text().startswith("<")

    def test_unwritable_out_exit_2(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "convert", FIXTURES / "personal.xml", "--out", tmp_path / "nodir" / "g.ttl"
        )
        assert code == 2

    def test_merge_multiple_inputs(self, capsys):
        code, out, _ = run(
            capsys,
            "convert",
            FIXTURES / "personal.xml",
            FIXTURES / "conference.xml",
            "--format",
            "nt",
        )
        assert code == 0
        merged = read_ntriples(out)
        items = [
            t
            for t in merged.triples()
            if hasattr(t.o, "value") and t.o.value.endswith("/ModsItem")
        ]
        assert len(items) == 2

    def test_byte_identical_across_runs(self, capsys):
        _, first, _ = run(capsys, "convert", FIXTURES / "collection.xml", "--format", "nt")
        _, second, _ = run(capsys, "convert", FIXTURES / "collection.xml", "--format", "nt")
        assert first == second

    def test_base_iri_flag(self, capsys):
        code, out, _ = run(
            capsys,
            "convert",
            FIXTURES / "personal.xml",
            "--format",
            "nt",
            "--base-iri",
            "https://graphs.example/x/",
        )
        assert code == 0
        assert "<https://graphs.example/x/rec1/agent0>" in out
        assert "<https://graphs.example/x/Agent>" in out

    def test_backslash_record_id_exit_1(self, capsys, tmp_path):
        # A backslash cannot stand in an N-Triples IRI, so no writer may mint
        # one from a record ID: both formats reject the record.
        for record_id in ("r\\q", "r\\u0041"):
            record = tmp_path / "backslash.xml"
            record.write_text(f'<mods ID="{record_id}"><name><namePart>N</namePart></name></mods>')
            for fmt in ("nt", "ttl"):
                code, out, err = run(capsys, "convert", record, "--format", fmt)
                assert (code, out) == (1, "")
                assert err == f"error: {record}: invalid record ID {record_id!r}\n"

    @pytest.mark.parametrize("char", IRIREF_EXCLUDED_XML, ids=ascii)
    def test_record_id_with_iriref_excluded_character_exit_1(self, capsys, tmp_path, char):
        record_id = f"r{char}1"
        record = tmp_path / "excluded.xml"
        record.write_text(f"<mods ID={quoteattr(record_id)}><name><namePart>N</namePart></name></mods>")
        code, out, err = run(capsys, "convert", record, "--format", "nt")
        assert (code, out) == (1, "")
        assert err == f"error: {record}: invalid record ID {record_id!r}\n"

    @pytest.mark.parametrize("command", ["convert", "validate"])
    def test_invalid_record_id_exit_1(self, capsys, tmp_path, command):
        record = tmp_path / "spaced.xml"
        record.write_text('<mods ID="a b"><name><namePart>N</namePart></name></mods>')
        code, out, err = run(capsys, command, record)
        assert code == 1
        assert not out
        assert err == f"error: {record}: invalid record ID 'a b'\n"

    @pytest.mark.parametrize("command", ["convert", "validate"])
    def test_duplicate_record_id_exit_1(self, capsys, tmp_path, command):
        # MODS types the record ID as xs:ID: two records must not share one.
        record = tmp_path / "twice.xml"
        record.write_text(
            '<modsCollection><mods ID="r1"><name><namePart>A</namePart></name></mods>'
            '<mods ID="r1"><name><namePart>B</namePart></name></mods></modsCollection>'
        )
        code, out, err = run(capsys, command, record)
        assert code == 1
        assert not out
        assert err == f"error: {record}: duplicate record ID 'r1'\n"

    def test_duplicate_record_id_across_inputs_exit_1(self, capsys, tmp_path):
        # Two inputs of one convert must not merge two records into one node.
        first, second = tmp_path / "a.xml", tmp_path / "b.xml"
        first.write_text('<mods ID="r1"><name type="personal"><namePart>Ada</namePart></name></mods>')
        second.write_text(
            '<modsCollection><mods ID="r0"/>'
            '<mods ID="r1"><name type="corporate"><namePart>Bob</namePart></name></mods>'
            "</modsCollection>"
        )
        code, out, err = run(capsys, "convert", first, second, "--format", "nt")
        assert (code, out) == (1, "")
        assert err == f"error: {second}: duplicate record ID 'r1'\n"

    def test_duplicate_record_id_is_the_first_error_of_a_later_input(self, capsys, tmp_path):
        # The later input is checked against the graph as it maps, record by
        # record, so its first error in document order is the one reported.
        first, second = tmp_path / "a.xml", tmp_path / "b.xml"
        first.write_text('<mods ID="r1"/>')
        second.write_text('<modsCollection><mods ID="r1"/><mods ID="a b"/></modsCollection>')
        code, out, err = run(capsys, "convert", first, second, "--format", "nt")
        assert (code, out) == (1, "")
        assert err == f"error: {second}: duplicate record ID 'r1'\n"

    @pytest.mark.parametrize(
        "attribute, calendar_edges, warning",
        [
            pytest.param(
                "encoding",
                1,
                "cannot mint a DateEncoding individual from 'edtf': "
                "'Edtf' is a minted Calendar individual, skipped",
                id="other-vocabulary",
            ),
            pytest.param(
                "calendar", 2, "minted Calendar individual 'Edtf' for value 'edtf'", id="same-vocabulary"
            ),
        ],
    )
    def test_a_name_an_earlier_input_minted(self, capsys, tmp_path, attribute, calendar_edges, warning):
        # The inputs map into one graph, so a later input sees the Calendar
        # the first one minted: the same vocabulary reuses the node, another
        # one does not type it a second time.
        first, second = tmp_path / "a.xml", tmp_path / "b.xml"
        first.write_text('<mods ID="r1"><dateIssued calendar="edtf">2020</dateIssued></mods>')
        second.write_text(f'<mods ID="r2"><dateIssued {attribute}="edtf">2021</dateIssued></mods>')
        code, out, err = run(capsys, "convert", first, second, "--format", "nt")
        assert code == 0
        reg = VocabularyRegistry()
        graph = read_ntriples(out)
        edtf = Iri(reg.base_iri + "Edtf")
        assert graph.match(edtf, None, None) == [(edtf, RDF_TYPE, reg.cls("Calendar"))]
        assert [t.p for t in graph.match(None, None, edtf)] == [reg.prop("hasAlternativeCalendar")] * calendar_edges
        assert err.splitlines() == [
            f"warning: {first}: record r1: minted Calendar individual 'Edtf' for value 'edtf'",
            f"warning: {second}: record r2: {warning}",
        ]

    def test_id_less_inputs_stay_disjoint(self, capsys, tmp_path):
        # The later input is mapped into the first one's graph: its blank
        # nodes must get labels the first input does not use.
        record = FIXTURES / "conference.xml"
        graph = map_record(parse_mods_xml(record.read_bytes()), VocabularyRegistry()).graph
        assert all(isinstance(t.s, BlankNode) for t in graph)
        union = Graph()
        for tag in ("x", "y"):
            for triple in graph:
                union.add(*(BlankNode(tag + t.label) if isinstance(t, BlankNode) else t for t in triple))
        code, out, _ = run(capsys, "convert", record, record, "--format", "nt")
        assert code == 0
        assert len(read_ntriples(out)) == len(union) == 2 * len(graph)
        assert out == canonicalize(union)
        written = tmp_path / "twice.nt"
        written.write_text(out)
        code, _, err = run(capsys, "infer", written, "--format", "nt")
        assert (code, err) == (0, "")

    def test_many_identical_names_finish_fast(self, capsys, tmp_path):
        # Eight interchangeable blank name chains: 8! labellings without pruning.
        record = tmp_path / "same.xml"
        record.write_text("<mods>" + "<name><namePart>Same</namePart></name>" * 8 + "</mods>")
        start = time.perf_counter()
        code, out, _ = run(capsys, "convert", record, "--format", "nt")
        assert time.perf_counter() - start < 2.0
        assert code == 0
        assert len(out.splitlines()) == 6 * 8 + 1

    def test_env_base_iri(self, capsys, monkeypatch):
        monkeypatch.setenv("MMODS_BASE_IRI", "https://env.example/ns/")
        code, out, _ = run(capsys, "convert", FIXTURES / "personal.xml", "--format", "nt")
        assert code == 0
        assert "<https://env.example/ns/Agent>" in out

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("MMODS_BASE_IRI", "https://env.example/ns/")
        code, out, _ = run(
            capsys,
            "convert",
            FIXTURES / "personal.xml",
            "--format",
            "nt",
            "--base-iri",
            "https://flag.example/ns/",
        )
        assert code == 0
        assert "https://flag.example/ns/Agent" in out
        assert "env.example" not in out


class TestValidate:
    def test_conformant_fixture_exit_0(self, capsys):
        code, out, _ = run(capsys, "validate", FIXTURES / "personal.xml")
        assert code == 0
        assert "errors: 0" in out

    def test_triangle_without_infer_exit_3(self, capsys):
        code, out, _ = run(
            capsys, "validate", FIXTURES / "triangle.nt", "--no-infer"
        )
        assert code == 3
        assert "E_AGENTROLE_6" in out

    def test_triangle_with_infer_exit_0(self, capsys):
        code, out, _ = run(capsys, "validate", FIXTURES / "triangle.nt")
        assert code == 0
        assert "errors: 0" in out

    def test_json_report(self, capsys):
        code, out, _ = run(
            capsys, "validate", FIXTURES / "triangle.nt", "--no-infer", "--report", "json"
        )
        assert code == 3
        doc = json.loads(out)
        assert doc["source"].endswith("triangle.nt")
        assert doc["summary"]["errors"] == 1
        assert doc["findings"][0]["code"] == "E_AGENTROLE_6"

    def test_multiple_inputs_json_array(self, capsys):
        code, out, _ = run(
            capsys,
            "validate",
            FIXTURES / "personal.xml",
            FIXTURES / "triangle.nt",
            "--no-infer",
            "--report",
            "json",
        )
        assert code == 3
        docs = json.loads(out)
        assert isinstance(docs, list)
        assert [d["summary"]["errors"] for d in docs] == [0, 1]

    def test_multiple_inputs_text_headers(self, capsys):
        code, out, _ = run(
            capsys, "validate", FIXTURES / "personal.xml", FIXTURES / "dates.xml"
        )
        assert code == 0
        assert out.count("source: ") == 2

    def test_input_format_override(self, capsys, tmp_path):
        graph_file = tmp_path / "graph.data"
        graph_file.write_text((FIXTURES / "triangle.nt").read_text())
        code, out, _ = run(
            capsys, "validate", graph_file, "--input-format", "nt", "--no-infer"
        )
        assert code == 3

    def test_strict_promotes_vocabulary_warning(self, capsys, tmp_path):
        base = "https://example.org/mmods-o/"
        rdf = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
        lines = [
            f"<urn:ex:n> <{rdf}> <{base}Name> .",
            f"<urn:ex:n> <{base}hasNamePart> <urn:ex:p> .",
            f"<urn:ex:p> <{rdf}> <{base}NamePart> .",
            f"<urn:ex:p> <{base}hasNamePartType> <urn:ex:bogus> .",
        ]
        graph_file = tmp_path / "parts.nt"
        graph_file.write_text("\n".join(lines) + "\n")
        code, out, _ = run(capsys, "validate", graph_file)
        assert code == 0
        assert "E_NAME_24" in out and "warning" in out
        code, out, _ = run(capsys, "validate", graph_file, "--strict")
        assert code == 3
        assert "error: E_NAME_24" in out

    def test_bad_nt_exit_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.nt"
        bad.write_text("<urn:s> <urn:p>\n")
        code, _, err = run(capsys, "validate", bad)
        assert code == 1
        assert "line 1" in err

    def test_byte_order_mark_is_dropped(self, capsys, tmp_path):
        _, text, _ = run(capsys, "convert", FIXTURES / "nameless.xml", "--format", "nt")
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes()[:3] == b"\xef\xbb\xbf"
        for flags in ([], ["--no-infer"]):
            found = []
            for path in (plain, marked):
                code, out, err = run(
                    capsys, "validate", path, "--input-format", "nt", "--report", "json", *flags
                )
                report = json.loads(out)
                assert report.pop("source") == str(path) and err == ""
                found.append((code, report))
            assert found[0] == found[1]
            assert found[0][0] == 3 and found[0][1]["findings"]

    def test_mapped_xml_validates_through_cli(self, capsys):
        for name in ["corporate.xml", "dates.xml", "attrs.xml", "collection.xml"]:
            code, out, _ = run(capsys, "validate", FIXTURES / name)
            assert code == 0, name


class TestInfer:
    def test_triangle_infers_has_name(self, capsys):
        code, out, _ = run(capsys, "infer", FIXTURES / "triangle.nt", "--format", "nt")
        assert code == 0
        assert "<urn:ex:a> <https://example.org/mmods-o/hasName> <urn:ex:n> ." in out

    def test_closed_graph_fixed_point(self, capsys, tmp_path):
        code, once, _ = run(capsys, "infer", FIXTURES / "triangle.nt", "--format", "nt")
        assert code == 0
        closed = tmp_path / "closed.nt"
        closed.write_text(once)
        code, twice, _ = run(capsys, "infer", closed, "--format", "nt")
        assert code == 0
        assert twice == once

    def test_empty_input_empty_output(self, capsys, tmp_path):
        empty = tmp_path / "empty.nt"
        empty.write_text("")
        code, out, _ = run(capsys, "infer", empty, "--format", "nt")
        assert code == 0
        assert out == ""

    def test_parse_failure_exit_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.nt"
        bad.write_text("not ntriples\n")
        code, _, err = run(capsys, "infer", bad)
        assert code == 1

    def test_surrogate_escape_exit_1(self, capsys, tmp_path):
        bad = tmp_path / "surrogate.nt"
        bad.write_text('<urn:s> <urn:p> "ok" .\n_:a <http://e.org/p> "\\uD800" .\n')
        code, out, err = run(capsys, "infer", bad, "--format", "nt")
        assert code == 1
        assert not out
        assert err.startswith(f"error: {bad}: line 2: ")

    @pytest.mark.parametrize("tag", ["1bad", "-en", "en-", "en--us", "ёж"])
    def test_language_tag_outside_the_grammar_exit_1(self, capsys, tmp_path, tag):
        bad = tmp_path / "tag.nt"
        bad.write_text(f'<urn:s> <urn:p> "ok"@en-US .\n<urn:s> <urn:p> "x"@{tag} .\n', encoding="utf-8")
        code, out, err = run(capsys, "infer", bad, "--format", "nt")
        assert (code, out) == (1, "")
        assert err == f"error: {bad}: line 2: invalid language tag: {tag!r}\n"

    def test_crlf_input_exit_0(self, capsys, tmp_path):
        lf = (FIXTURES / "triangle.nt").read_text()
        crlf = tmp_path / "triangle-crlf.nt"
        crlf.write_bytes(lf.replace("\n", "\r\n").encode())
        code, out, err = run(capsys, "infer", crlf, "--format", "nt")
        assert (code, err) == (0, "")
        assert out == run(capsys, "infer", FIXTURES / "triangle.nt", "--format", "nt")[1]

    def test_byte_order_mark_is_dropped(self, capsys, tmp_path):
        plain = (FIXTURES / "triangle.nt").read_bytes()
        marked = tmp_path / "triangle-bom.nt"
        marked.write_bytes(b"\xef\xbb\xbf" + plain)
        for fmt in ("nt", "ttl"):
            code, out, err = run(capsys, "infer", marked, "--format", fmt)
            assert (code, err) == (0, "")
            assert out == run(capsys, "infer", FIXTURES / "triangle.nt", "--format", fmt)[1]

    def test_byte_order_mark_only_at_the_start(self, capsys, tmp_path):
        inner = tmp_path / "inner-bom.nt"
        inner.write_bytes(b"<urn:s> <urn:p> <urn:o> .\n\xef\xbb\xbf<urn:s> <urn:p> <urn:q> .\n")
        code, out, err = run(capsys, "infer", inner, "--format", "nt")
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {inner}: line 2: ")

    def test_blank_two_cycles_finish_fast(self, capsys, tmp_path):
        graph = tmp_path / "cycles.nt"
        graph.write_text(
            "".join(f"_:a{i} <urn:p> _:b{i} .\n_:b{i} <urn:p> _:a{i} .\n" for i in range(6))
        )
        start = time.perf_counter()
        code, out, _ = run(capsys, "infer", graph, "--format", "nt")
        assert time.perf_counter() - start < 2.0
        assert code == 0
        assert len(out.splitlines()) == 12


class TestEmitOntology:
    def test_contains_subclass_triples(self, capsys):
        code, out, _ = run(capsys, "emit-ontology", "--format", "nt")
        assert code == 0
        base = "https://example.org/mmods-o/"
        sub = "http://www.w3.org/2000/01/rdf-schema#subClassOf"
        assert f"<{base}NamePart> <{sub}> <{base}ElementInfo> ." in out
        assert f"<{base}NameIdentifier> <{sub}> <{base}Identifier> ." in out

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, "emit-ontology")
        _, second, _ = run(capsys, "emit-ontology")
        assert first == second

    def test_turtle_form_prefixed(self, capsys):
        code, out, _ = run(capsys, "emit-ontology")
        assert code == 0
        assert "mmods:NamePart" in out
        assert "rdfs:subClassOf" in out


class TestVocab:
    def test_name_type_four_lines(self, capsys):
        code, out, _ = run(capsys, "vocab", "NameType")
        assert code == 0
        assert out.splitlines() == ["Personal", "Corporate", "Conference", "Family"]

    def test_qualifier_members(self, capsys):
        code, out, _ = run(capsys, "vocab", "Qualifier")
        assert code == 0
        assert out.splitlines() == ["Approximate", "Inferred", "Questionable"]

    def test_unknown_vocab_exit_4(self, capsys):
        code, out, err = run(capsys, "vocab", "Colors")
        assert code == 4
        assert not out
        assert "Colors" in err

    def test_all_vocabularies(self, capsys):
        code, out, _ = run(capsys, "vocab")
        assert code == 0
        lines = out.splitlines()
        assert "NameType\tPersonal" in lines
        assert "Point\tEnd" in lines
        assert not any(line.startswith("Calendar") for line in lines)

    def test_empty_vocab_lists_nothing(self, capsys):
        code, out, _ = run(capsys, "vocab", "Calendar")
        assert code == 0
        assert out == ""


def _graph_inputs(tmp_path):
    """Every fixture that reads or maps, with its graph: triangle.nt, and each
    XML fixture both as itself and written out as N-Triples."""
    registry = VocabularyRegistry()
    found = [(FIXTURES / "triangle.nt", read_ntriples((FIXTURES / "triangle.nt").read_text()))]
    for record in sorted(FIXTURES.glob("*.xml")):
        try:
            graph = map_record(parse_mods_xml(record.read_bytes()), registry).graph
        except (mmods.ModsParseError, mmods.MappingError):
            continue
        written = tmp_path / f"{record.stem}.nt"
        written.write_text(mmods.write_ntriples(graph))
        found += [(record, graph), (written, read_ntriples(written.read_text()))]
    return found


class TestInPlaceSaturation:
    """validate and infer saturate the graph they own in place; what they
    write equals the library's validate(infer=True) and materialize, which
    saturate a copy."""

    def test_validate_matches_the_library(self, capsys, tmp_path):
        registry = VocabularyRegistry()
        rules = mmods.catalog(registry)
        for path, graph in _graph_inputs(tmp_path):
            size = len(graph)
            report = mmods.validate(graph, rules, registry, infer=True, source=str(path))
            assert len(graph) == size
            for fmt, writer in (("json", mmods.write_report_json), ("text", mmods.write_report_text)):
                code, out, _ = run(capsys, "validate", path, "--report", fmt)
                assert (code, out) == (0 if report.ok() else 3, writer(report)), (path, fmt)

    def test_infer_matches_materialize(self, capsys, tmp_path):
        registry = VocabularyRegistry()
        rules = mmods.catalog(registry)
        for path, graph in _graph_inputs(tmp_path):
            if path.suffix != ".nt":
                continue
            size = len(graph)
            inferred = mmods.materialize(graph, rules)
            assert len(graph) == size
            for fmt, text in (
                ("nt", mmods.write_ntriples(inferred)),
                ("ttl", mmods.write_turtle(inferred, registry)),
            ):
                assert run(capsys, "infer", path, "--format", fmt) == (0, text, ""), (path, fmt)


class TestIndexesBuilt:
    """The validate path reads the graph by predicate, so it builds the
    predicate index; convert matches no pattern and builds none."""

    def _mapped(self, registry):
        for record in sorted(FIXTURES.glob("*.xml")):
            try:
                yield record, map_record(parse_mods_xml(record.read_bytes()), registry).graph
            except (mmods.ModsParseError, mmods.MappingError):
                continue

    def test_validate_builds_only_the_predicate_index(self):
        registry = VocabularyRegistry()
        rules = mmods.catalog(registry)
        for record, graph in self._mapped(registry):
            graph.apply_rules(rules.chains(), rules.subclass_pairs())
            mmods.validate(graph, rules, registry, infer=False)
            assert graph._by_predicate is not None, record

    def test_convert_builds_no_index(self):
        registry = VocabularyRegistry()
        for record, graph in self._mapped(registry):
            mmods.write_ntriples(graph)
            mmods.write_turtle(graph, registry)
            assert graph._by_predicate is None, record


# Nine levels of internal entities, each ten references to the one below:
# 10**9 copies of "lol" if expanded.
_ENTITY_BOMB = (
    '<?xml version="1.0"?>\n<!DOCTYPE mods [\n  <!ENTITY e0 "lol">\n'
    + "".join(f'  <!ENTITY e{i} "{f"&e{i - 1};" * 10}">\n' for i in range(1, 10))
    + ']>\n<mods><name><namePart>&e9;</namePart></name></mods>\n'
)


@pytest.mark.skipif(
    pyexpat.version_info < (2, 4, 0), reason="expat before 2.4.0 has no amplification limit"
)
def test_entity_expansion_is_refused(tmp_path):
    record = tmp_path / "bomb.xml"
    record.write_text(_ENTITY_BOMB)
    start = time.perf_counter()
    done = fresh_python("-m", "mmods.cli", "convert", record, "--format", "nt")
    assert time.perf_counter() - start < 5.0
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.startswith("error: ")
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("depth", [990, 100_000])
def test_deep_nesting_converts(tmp_path, depth):
    # Deeper than the interpreter's recursion limit: the element tree is
    # built without recursion, and the unknown element is reported once.
    record = tmp_path / "deep.xml"
    record.write_text("<mods><name>" + "<x>" * depth + "</x>" * depth + "</name></mods>")
    start = time.perf_counter()
    done = fresh_python("-m", "mmods.cli", "convert", record, "--format", "nt")
    assert time.perf_counter() - start < 5.0
    assert done.returncode == 0
    assert "mmods-o/Agent> ." in done.stdout
    assert done.stderr == f"warning: {record}: unmapped element name/x\n"


@pytest.mark.parametrize("command", ["convert", "validate"])
def test_unknown_encoding_exits_1(tmp_path, command):
    record = tmp_path / "enc.xml"
    record.write_text('<?xml version="1.0" encoding="foo"?><mods/>')
    done = fresh_python("-m", "mmods.cli", command, record)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == f"error: {record}: unsupported XML encoding: unknown encoding: foo\n"
    assert "Traceback" not in done.stderr


class TestExitCodeContract:
    def test_all_observed_codes_documented(self, capsys, tmp_path):
        observed = set()
        observed.add(run(capsys, "vocab", "NameType")[0])
        observed.add(run(capsys, "vocab", "Nope")[0])
        observed.add(run(capsys, "convert", FIXTURES / "malformed.xml")[0])
        observed.add(run(capsys, "convert", "missing.xml")[0])
        observed.add(run(capsys, "validate", FIXTURES / "triangle.nt", "--no-infer")[0])
        assert observed == {0, 1, 2, 3, 4}

    def test_usage_error_exits_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["no-such-command"])
        assert err.value.code == 2


SRC = pathlib.Path(mmods.__file__).resolve().parent.parent


def fresh_env():
    """The environment under which a fresh interpreter imports this mmods."""
    return dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))


def fresh_python(*args, env=None):
    """Run python with mmods importable in a fresh interpreter, with extra env."""
    return subprocess.run(
        [sys.executable, *map(str, args)],
        capture_output=True,
        text=True,
        env=dict(fresh_env(), **(env or {})),
        check=False,
    )


class TestParserReuse:
    def test_calls_in_one_process_match_separate_runs(self, capsys):
        # Flags given to one call must not stick to the next: infer and the
        # second validate rely on defaults the calls before them override.
        calls = [
            ("convert", FIXTURES / "personal.xml", "--format", "nt"),
            ("infer", FIXTURES / "triangle.nt"),
            ("validate", FIXTURES / "triangle.nt", "--no-infer", "--report", "json"),
            ("validate", FIXTURES / "triangle.nt"),
            ("vocab", "NameType"),
        ]
        in_process = [run(capsys, *argv) for argv in calls]
        for argv, result in zip(calls, in_process):
            done = fresh_python("-m", "mmods.cli", *argv)
            assert result == (done.returncode, done.stdout, done.stderr), argv

    def test_parser_not_built_at_import(self):
        done = fresh_python(
            "-c", "import mmods.cli; print(mmods.cli._shared_parser.cache_info().currsize)"
        )
        assert done.stdout == "0\n"


class TestVocabularyReuse:
    def test_calls_under_each_base_match_separate_runs(self, capsys, monkeypatch):
        # main() keeps a registry and catalog per base IRI; each call must
        # get those of its own base, not the ones the call before it built.
        from_env = {"MMODS_BASE_IRI": "https://example.org/from-env/"}
        calls = [
            ({}, ("convert", FIXTURES / "personal.xml", "--format", "nt")),
            ({}, ("convert", FIXTURES / "personal.xml", "--base-iri", "https://example.org/other/")),
            (from_env, ("convert", FIXTURES / "personal.xml", "--format", "nt")),
            (from_env, ("validate", FIXTURES / "personal.xml", "--report", "json")),
            (from_env, ("infer", FIXTURES / "triangle.nt")),
            ({}, ("validate", FIXTURES / "personal.xml", "--report", "json")),
            ({}, ("infer", FIXTURES / "triangle.nt")),
        ]
        for env, argv in calls:
            monkeypatch.delenv("MMODS_BASE_IRI", raising=False)
            for name, value in env.items():
                monkeypatch.setenv(name, value)
            result = run(capsys, *argv)
            done = fresh_python("-m", "mmods.cli", *argv)
            assert result == (done.returncode, done.stdout, done.stderr), (env, argv)

    def test_invalid_base_fails_on_every_call(self, capsys):
        for _ in range(2):
            code, out, err = run(capsys, "convert", FIXTURES / "personal.xml", "--base-iri", "foo")
            assert (code, out, err) == (2, "", "error: invalid base IRI 'foo'\n")

    def test_registry_not_built_at_import(self):
        done = fresh_python(
            "-c", "import mmods.cli; print(mmods.cli._shared_vocabulary.cache_info().currsize)"
        )
        assert done.stdout == "0\n"


BASE_IRI_COMMANDS = [
    ("convert", FIXTURES / "personal.xml"),
    ("validate", FIXTURES / "personal.xml", "--report", "json"),
    ("infer", FIXTURES / "triangle.nt"),
    ("emit-ontology",),
    ("vocab",),
]


def test_cold_import_loads_no_record_machinery():
    """Importing the package and its CLI leaves dataclasses, inspect and
    difflib unloaded; name suggestions still load difflib when asked."""
    done = fresh_python(
        "-c",
        "import sys, mmods, mmods.cli\n"
        "print(sorted(m for m in ('dataclasses', 'inspect', 'difflib') if m in sys.modules))\n"
        "try:\n"
        "    mmods.VocabularyRegistry().cls('Agnet')\n"
        "except mmods.VocabularyError as err:\n"
        "    print(err.args[0])\n",
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["[]", "unknown class name: 'Agnet'; nearest: Agent"]


class TestInvalidBaseIri:
    @pytest.mark.parametrize("argv", BASE_IRI_COMMANDS, ids=lambda argv: argv[0])
    def test_flag_exits_2(self, argv):
        done = fresh_python("-m", "mmods.cli", *argv, "--base-iri", "a b")
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == "error: invalid base IRI 'a b'\n"

    @pytest.mark.parametrize("argv", BASE_IRI_COMMANDS, ids=lambda argv: argv[0])
    def test_base_without_a_scheme_exits_2(self, argv, capsys):
        # A relative base would mint relative node IRIs, which N-Triples forbids.
        code, out, err = run(capsys, *argv, "--base-iri", "foo")
        assert (code, out, err) == (2, "", "error: invalid base IRI 'foo'\n")

    @pytest.mark.parametrize("argv", BASE_IRI_COMMANDS, ids=lambda argv: argv[0])
    def test_environment_exits_2(self, argv):
        done = fresh_python("-m", "mmods.cli", *argv, env={"MMODS_BASE_IRI": "http://x/>"})
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == "error: invalid base IRI 'http://x/>'\n"


class TestHashSeedIndependence:
    """Output bytes do not depend on string hashing, so no set or dict order
    leaks.  tied.xml, a collection of identical ID-less records, takes the
    labelling's search through tied cells."""

    def test_same_bytes_under_two_hash_seeds(self):
        calls = [("infer", FIXTURES / "triangle.nt", "--format", fmt) for fmt in ("nt", "ttl")]
        for record in sorted(FIXTURES.glob("*.xml")):
            calls.append(("validate", record, "--report", "json"))
            calls.extend(("convert", record, "--format", fmt) for fmt in ("nt", "ttl"))
        for argv in calls:
            # The two seeds run side by side.
            runs = [
                subprocess.Popen(
                    [sys.executable, "-m", "mmods.cli", *map(str, argv)],
                    stdout=subprocess.PIPE,
                    stderr=subprocess.PIPE,
                    env=dict(fresh_env(), PYTHONHASHSEED=seed),
                )
                for seed in ("0", "1")
            ]
            first, second = ((*r.communicate(), r.returncode) for r in runs)
            assert first == second, argv
            assert b"Traceback" not in first[1], argv


class TestLabellingBudget:
    @pytest.mark.parametrize("fmt", ["nt", "ttl"])
    def test_past_the_budget_exits_1(self, tmp_path, fmt):
        # One step per triple is far too few for eight interchangeable names.
        record = tmp_path / "same.xml"
        record.write_text("<mods>" + "<name><namePart>Same</namePart></name>" * 8 + "</mods>")
        script = (
            "import sys, mmods.canonical, mmods.cli\n"
            "mmods.canonical._WORK_PER_TRIPLE = mmods.canonical._WORK_MIN_TRIPLES = 1\n"
            "sys.exit(mmods.cli.main(sys.argv[1:]))\n"
        )
        done = fresh_python("-c", script, "convert", record, "--format", fmt)
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr.startswith("error: blank-node labelling passed its budget of ")
        assert done.stderr.count("\n") == 1


class TestOutputEncoding:
    """stdout carries the UTF-8 bytes --out writes, whatever encoding Python
    gives stdout."""

    def _run(self, encoding, *argv):
        return subprocess.run(
            [sys.executable, "-m", "mmods.cli", *map(str, argv)],
            capture_output=True,
            env=dict(fresh_env(), PYTHONIOENCODING=encoding),
            check=False,
        )

    @pytest.mark.parametrize("encoding", ["ascii", "latin-1"])
    @pytest.mark.parametrize("fmt", ["nt", "ttl"])
    def test_stdout_equals_the_out_file(self, tmp_path, encoding, fmt):
        record = tmp_path / "zoe.xml"
        record.write_text("<mods><name><namePart>Zoë</namePart></name></mods>", encoding="utf-8")
        out = tmp_path / "out.graph"
        assert self._run(encoding, "convert", record, "--format", fmt, "--out", out).returncode == 0
        done = self._run(encoding, "convert", record, "--format", fmt)
        assert (done.returncode, done.stderr) == (0, b"")
        assert done.stdout == out.read_bytes()
        assert '"Zoë"'.encode() in done.stdout

    @pytest.mark.parametrize("encoding", ["ascii", "latin-1"])
    def test_text_report_on_a_non_ascii_id(self, tmp_path, encoding):
        record = tmp_path / "zoe.xml"
        record.write_text('<mods ID="Zoë"><name><displayForm>Z</displayForm></name></mods>', encoding="utf-8")
        done = self._run(encoding, "validate", record, "--report", "text")
        assert (done.returncode, done.stderr) == (3, b"")
        assert "/Zoë/name0".encode() in done.stdout
