"""Acceptance gate: eight criteria, one printed pass/fail line each.

Run with -s to see the lines as they pass; each criterion is also a
regular test that fails loudly if its bound is missed.
"""

import json
import pathlib
import time
from contextlib import contextmanager

from mmods.axioms import catalog, catalog_table_markdown
from mmods.canonical import canonicalize
from mmods.cli import main
from mmods.graph import (
    OWL_CLASS,
    OWL_DATATYPE_PROPERTY,
    OWL_OBJECT_PROPERTY,
    RDF_TYPE,
    RDFS_SUBCLASS_OF,
    instances_of,
)
from mmods.mapping import map_record
from mmods.modsxml import parse_mods_xml
from mmods.serialize import read_ntriples, write_ntriples
from mmods.validate import materialize, validate
from mmods.vocab import VocabularyRegistry, emit_ontology

from oracles import finding_counter, naive_materialize, oracle_findings, random_vocab_graph
from test_mutations import ERROR_CODES, MUTATIONS, base_graph

ROOT = pathlib.Path(__file__).parent.parent
FIXTURES = pathlib.Path(__file__).parent / "fixtures"

REG = VocabularyRegistry()
RULES = catalog(REG)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}", flush=True)
        raise
    print(f"PASS criterion {number}: {description}", flush=True)


def test_criterion_1_catalog_completeness():
    with criterion(1, "constraint catalog covers every numbered rule"):
        ids = {c.axiom_id for c in RULES}
        assert {str(n) for n in range(1, 44)} <= ids
        evaluatable = [
            c for c in RULES if c.kind not in ("role_chain", "subclass_of")
        ]
        assert len(evaluatable) >= 30
        table = (ROOT / "docs" / "axiom-catalog.md").read_text()
        assert table == catalog_table_markdown(RULES)
        for c in RULES:
            assert f"| {c.axiom_id} | {c.code} |" in table


def test_criterion_2_validator_oracle_agreement():
    with criterion(2, "validator agrees with brute-force oracle on 1000 graphs"):
        started = time.monotonic()
        for seed in range(1000):
            graph = random_vocab_graph(seed, REG)
            strict = seed % 4 == 0
            report = validate(graph, RULES, REG, infer=False, strict=strict)
            assert finding_counter(report) == oracle_findings(
                graph, RULES, REG, strict=strict
            ), f"disagreement at seed {seed}"
        elapsed = time.monotonic() - started
        assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f}s"


def test_criterion_3_materialization():
    with criterion(3, "materialization equals naive saturation, idempotent, monotone"):
        for seed in range(1000):
            graph = random_vocab_graph(seed, REG)
            fast = materialize(graph, RULES)
            assert canonicalize(fast) == canonicalize(naive_materialize(graph, RULES))
            assert canonicalize(materialize(fast, RULES)) == canonicalize(fast)
            assert set(graph.triples()) <= set(fast.triples())

        triangle = read_ntriples((FIXTURES / "triangle.nt").read_text())
        closed = materialize(triangle, RULES)
        has_name = REG.prop("hasName")
        inferred = [t for t in closed.match(None, has_name, None)]
        assert len(inferred) == 1
        assert inferred[0].s.value == "urn:ex:a"
        assert inferred[0].o.value == "urn:ex:n"


def test_criterion_4_mutation_detection():
    with criterion(4, "each error rule detected by its targeted mutation"):
        assert sorted(MUTATIONS) == ERROR_CODES
        assert len(ERROR_CODES) == 20
        for code in ERROR_CODES:
            mutate, strict, expected = MUTATIONS[code]
            report = validate(mutate(base_graph()), RULES, REG, infer=False, strict=strict)
            fired = {f.code for f in report.findings if f.severity == "error"}
            assert fired == expected, f"{code}: fired {fired}"


def test_criterion_5_end_to_end_conversion():
    with criterion(5, "fixtures convert, materialize, and validate clean"):
        names = [
            "personal.xml",
            "corporate.xml",
            "conference.xml",
            "dates.xml",
            "attrs.xml",
            "shared_affiliation.xml",
            "collection.xml",
        ]
        assert len(names) >= 5
        for name in names:
            document = parse_mods_xml((FIXTURES / name).read_bytes(), source=name)
            graph = map_record(document, REG).graph
            report = validate(graph, RULES, REG, infer=True, source=name)
            assert report.errors == 0, (name, [f.code for f in report.findings])

        shared = map_record(
            parse_mods_xml((FIXTURES / "shared_affiliation.xml").read_bytes()), REG
        ).graph
        assert len(instances_of(shared, REG.cls("Organization"))) == 1

        dates = map_record(parse_mods_xml((FIXTURES / "dates.xml").read_bytes()), REG).graph
        issued = [
            t.s
            for t in dates.match(None, REG.prop("isOfType"), REG.individual("DateIssued"))
        ]
        assert len(issued) == 1
        attr_edges = dates.match(issued[0], REG.prop("hasDateAttributes"), None)
        assert len(attr_edges) == 1
        assert dates.match(attr_edges[0].o, RDF_TYPE, REG.cls("DateAttributes"))


def test_criterion_6_vocabulary_exactness():
    with criterion(6, "controlled vocabularies list the exact member sets"):
        def members(name):
            return list(REG.vocabularies[name].member_names)

        assert members("NameType") == ["Personal", "Corporate", "Conference", "Family"]
        assert members("Qualifier") == ["Approximate", "Inferred", "Questionable"]
        assert members("NamePartType") == ["FirstName", "MiddleName", "LastName"]
        assert {"DateIssued", "DateCreated", "DateCaptured", "DateModified", "DateValid"} <= set(
            members("DateInfoType")
        )


def test_criterion_7_serialization_round_trip(tmp_path):
    with criterion(7, "round trip on 500 graphs, byte-identical pipeline reruns"):
        for seed in range(500):
            graph = random_vocab_graph(seed, REG)
            back = read_ntriples(write_ntriples(graph))
            assert canonicalize(back) == canonicalize(graph)

        first = tmp_path / "a.nt"
        second = tmp_path / "b.nt"
        for out in (first, second):
            code = main(
                [
                    "convert",
                    str(FIXTURES / "collection.xml"),
                    "--format",
                    "nt",
                    "--out",
                    str(out),
                ]
            )
            assert code == 0
        assert first.read_bytes() == second.read_bytes()

        report_a = tmp_path / "a.json"
        report_b = tmp_path / "b.json"
        for out in (report_a, report_b):
            code = main(
                [
                    "validate",
                    str(FIXTURES / "dates.xml"),
                    "--report",
                    "json",
                    "--out",
                    str(out),
                ]
            )
            assert code == 0
        assert report_a.read_bytes() == report_b.read_bytes()
        assert json.loads(report_a.read_text())["summary"]["errors"] == 0


def test_criterion_8_ontology_emission(tmp_path):
    with criterion(8, "ontology emission declares every term and both subclass facts"):
        emitted = emit_ontology(REG, RULES)
        for iri in REG.classes.values():
            assert (iri, RDF_TYPE, OWL_CLASS) in emitted
        for name, iri in REG.properties.items():
            declared = (
                (iri, RDF_TYPE, OWL_OBJECT_PROPERTY) in emitted
                or (iri, RDF_TYPE, OWL_DATATYPE_PROPERTY) in emitted
            )
            assert declared, name
        assert (REG.cls("NamePart"), RDFS_SUBCLASS_OF, REG.cls("ElementInfo")) in emitted
        assert (REG.cls("NameIdentifier"), RDFS_SUBCLASS_OF, REG.cls("Identifier")) in emitted
        assert canonicalize(emit_ontology(REG, RULES)) == canonicalize(emitted)

        first = tmp_path / "a.ttl"
        second = tmp_path / "b.ttl"
        for out in (first, second):
            assert main(["emit-ontology", "--out", str(out)]) == 0
        assert first.read_bytes() == second.read_bytes()
