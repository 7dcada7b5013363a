"""Command-line behavior: exit codes, formats, flag precedence, determinism."""

import json
import pathlib
import re

import pytest

from mmods.cli import main
from mmods.graph import canonicalize
from mmods.serialize import read_ntriples

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


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

    def test_backslash_record_id_same_iris_in_turtle(self, capsys, tmp_path):
        # Both writers print IRIs as stored; Turtle must not unescape them.
        for record_id in ("r\\q", "r\\u0041"):
            record = tmp_path / "backslash.xml"
            record.write_text(f'<mods ID="{record_id}"><name><namePart>N</namePart></name></mods>')
            minted = re.compile("<([^>]*/" + re.escape(record_id) + "/[^>]*)>")
            nt_code, nt, _ = run(capsys, "convert", record, "--format", "nt")
            ttl_code, ttl, err = run(capsys, "convert", record, "--format", "ttl")
            assert (nt_code, ttl_code) == (0, 0)
            assert "Traceback" not in err
            assert set(minted.findall(ttl)) == set(minted.findall(nt)) != set()

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
