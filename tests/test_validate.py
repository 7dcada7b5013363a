"""Constraint checking semantics, kind by kind."""

import random

import pytest

from mmods.axioms import DatatypeFiller, catalog
from mmods.graph import RDF_LANGSTRING, RDF_TYPE, XSD_BOOLEAN, XSD_STRING, BlankNode, Graph, Iri, Literal
from mmods.validate import _IdView, check_constraint, validate
from mmods.vocab import VocabularyRegistry


@pytest.fixture(scope="module")
def reg():
    return VocabularyRegistry()


@pytest.fixture(scope="module")
def cat(reg):
    return catalog(reg)


def codes(report):
    return [f.code for f in report.findings]


def one(cat, axiom_id):
    return next(c for c in cat if c.axiom_id == axiom_id)


def node(i):
    return Iri(f"urn:x{i}")


class TestExistential:
    def test_bare_agent_flagged(self, reg, cat):
        g = Graph().add(node(1), RDF_TYPE, reg.cls("Agent"))
        findings = check_constraint(g, one(cat, "6"), reg)
        assert [f.code for f in findings] == ["E_AGENTROLE_6"]
        assert findings[0].severity == "error"
        assert "hasName" in findings[0].detail

    def test_edge_to_untyped_node_does_not_satisfy(self, reg, cat):
        g = Graph()
        g.add(node(1), RDF_TYPE, reg.cls("Agent"))
        g.add(node(1), reg.prop("hasName"), node(2))
        assert len(check_constraint(g, one(cat, "6"), reg)) == 1

    def test_edge_to_typed_node_satisfies(self, reg, cat):
        g = Graph()
        g.add(node(1), RDF_TYPE, reg.cls("Agent"))
        g.add(node(1), reg.prop("hasName"), node(2))
        g.add(node(2), RDF_TYPE, reg.cls("Name"))
        assert check_constraint(g, one(cat, "6"), reg) == []

    def test_datatype_filler_checks_literal_type(self, reg, cat):
        g = Graph()
        g.add(node(1), RDF_TYPE, reg.cls("DateInfo"))
        g.add(node(1), reg.prop("hasValue"), Literal("true", XSD_BOOLEAN))
        assert [f.code for f in check_constraint(g, one(cat, "39"), reg)] == ["E_DATEINFO_39"]
        g.add(node(1), reg.prop("hasValue"), Literal("2002"))
        assert check_constraint(g, one(cat, "39"), reg) == []

    def test_vocab_filler_requires_membership(self, reg, cat):
        g = Graph()
        g.add(node(1), RDF_TYPE, reg.cls("DateInfo"))
        g.add(node(1), reg.prop("isOfType"), Iri("urn:bogus"))
        assert len(check_constraint(g, one(cat, "38"), reg)) == 1
        g.add(node(1), reg.prop("isOfType"), reg.individual("DateIssued"))
        assert check_constraint(g, one(cat, "38"), reg) == []

    def test_open_vocab_admits_graph_typed_individual(self, reg, cat):
        g = Graph()
        g.add(node(1), RDF_TYPE, reg.cls("DateInfo"))
        minted = Iri(reg.base_iri + "Hijri")
        g.add(node(1), reg.prop("isOfType"), minted)
        assert len(check_constraint(g, one(cat, "38"), reg)) == 1
        g.add(minted, RDF_TYPE, reg.cls("DateInfoType"))
        assert check_constraint(g, one(cat, "38"), reg) == []


class TestMaxOne:
    def test_two_link_attribute_sets(self, reg, cat):
        g = Graph()
        g.add(node(1), reg.prop("hasLinkAttributes"), node(2))
        g.add(node(1), reg.prop("hasLinkAttributes"), node(3))
        findings = check_constraint(g, one(cat, "10"), reg)
        assert [f.code for f in findings] == ["E_ELEMENTINFO_10"]
        assert "2 distinct" in findings[0].detail

    def test_single_object_fine(self, reg, cat):
        g = Graph().add(node(1), reg.prop("hasLinkAttributes"), node(2))
        assert check_constraint(g, one(cat, "10"), reg) == []

    def test_repeated_equal_literal_counts_once(self, reg, cat):
        g = Graph()
        g.add(node(1), reg.prop("hasLinkAttributes"), Literal("x"))
        g.add(node(1), reg.prop("hasLinkAttributes"), Literal("x"))
        assert check_constraint(g, one(cat, "10"), reg) == []

    def test_distinct_literals_count_separately(self, reg, cat):
        g = Graph()
        g.add(node(1), reg.prop("hasLinkAttributes"), Literal("x"))
        g.add(node(1), reg.prop("hasLinkAttributes"), Literal("x", XSD_BOOLEAN))
        assert len(check_constraint(g, one(cat, "10"), reg)) == 1

    def test_inverse_counts_subjects(self, reg, cat):
        g = Graph()
        g.add(node(1), reg.prop("hasDateInfo"), node(3))
        g.add(node(2), reg.prop("hasDateInfo"), node(3))
        findings = check_constraint(g, one(cat, "33"), reg)
        assert [f.code for f in findings] == ["E_DATEINFO_33"]
        assert findings[0].focus == "<urn:x3>"

    def test_inverse_scope_and_filler(self, reg, cat):
        # Only agents pointing at role-typed nodes count for the
        # single-assuming-agent rule.
        g = Graph()
        g.add(node(9), RDF_TYPE, reg.cls("AgentRole"))
        g.add(node(1), RDF_TYPE, reg.cls("Agent"))
        g.add(node(2), RDF_TYPE, reg.cls("Agent"))
        g.add(node(1), reg.prop("assumesAgentRole"), node(9))
        g.add(node(3), reg.prop("assumesAgentRole"), node(9))  # untyped subject
        assert check_constraint(g, one(cat, "4"), reg) == []
        g.add(node(2), reg.prop("assumesAgentRole"), node(9))
        assert [f.code for f in check_constraint(g, one(cat, "4"), reg)] == ["E_AGENTROLE_4"]

    def test_inverse_scope_ignores_unscoped_objects(self, reg, cat):
        g = Graph()
        g.add(node(1), RDF_TYPE, reg.cls("Agent"))
        g.add(node(2), RDF_TYPE, reg.cls("Agent"))
        g.add(node(1), reg.prop("assumesAgentRole"), node(9))
        g.add(node(2), reg.prop("assumesAgentRole"), node(9))  # x9 untyped
        assert check_constraint(g, one(cat, "4"), reg) == []


class TestUniversalRange:
    def test_class_filler_is_error(self, reg, cat):
        g = Graph().add(node(1), reg.prop("hasLanguageAttributes"), node(2))
        findings = check_constraint(g, one(cat, "12"), reg)
        assert [(f.code, f.severity) for f in findings] == [("E_ELEMENTINFO_12", "error")]
        g.add(node(2), RDF_TYPE, reg.cls("LanguageAttributes"))
        assert check_constraint(g, one(cat, "12"), reg) == []

    def test_closed_vocab_warns_then_errors_under_strict(self, reg, cat):
        g = Graph().add(node(1), reg.prop("hasNamePartType"), Iri("urn:bogus"))
        relaxed = check_constraint(g, one(cat, "24"), reg)
        assert [(f.code, f.severity) for f in relaxed] == [("E_NAME_24", "warning")]
        strict = check_constraint(g, one(cat, "24"), reg, strict=True)
        assert [(f.code, f.severity) for f in strict] == [("E_NAME_24", "error")]

    def test_closed_vocab_ignores_graph_typing(self, reg, cat):
        # A closed vocabulary admits only its predefined members.
        g = Graph()
        fake = Iri(reg.base_iri + "Nickname")
        g.add(fake, RDF_TYPE, reg.cls("NamePartType"))
        g.add(node(1), reg.prop("hasNamePartType"), fake)
        assert len(check_constraint(g, one(cat, "24"), reg)) == 1

    def test_member_passes(self, reg, cat):
        g = Graph().add(node(1), reg.prop("hasNamePartType"), reg.individual("FirstName"))
        assert check_constraint(g, one(cat, "24"), reg) == []


class TestInverseExistential:
    def test_orphan_name_part(self, reg, cat):
        g = Graph().add(node(1), RDF_TYPE, reg.cls("NamePart"))
        assert [f.code for f in check_constraint(g, one(cat, "21"), reg)] == ["E_NAME_21"]

    def test_incoming_from_untyped_subject_insufficient(self, reg, cat):
        g = Graph()
        g.add(node(1), RDF_TYPE, reg.cls("NamePart"))
        g.add(node(2), reg.prop("hasNamePart"), node(1))
        assert len(check_constraint(g, one(cat, "21"), reg)) == 1

    def test_incoming_from_name_satisfies(self, reg, cat):
        g = Graph()
        g.add(node(1), RDF_TYPE, reg.cls("NamePart"))
        g.add(node(2), RDF_TYPE, reg.cls("Name"))
        g.add(node(2), reg.prop("hasNamePart"), node(1))
        assert check_constraint(g, one(cat, "21"), reg) == []


class TestNegatedPath:
    def test_id_reachable_through_links(self, reg, cat):
        g = Graph()
        g.add(node(1), RDF_TYPE, reg.cls("NamePart"))
        g.add(node(1), reg.prop("hasLinkAttributes"), node(2))
        g.add(node(2), reg.prop("hasID"), Literal("n7"))
        findings = check_constraint(g, one(cat, "31"), reg)
        assert [f.code for f in findings] == ["E_NAME_31"]

    def test_one_finding_per_instance_even_with_two_paths(self, reg, cat):
        g = Graph()
        g.add(node(1), RDF_TYPE, reg.cls("NamePart"))
        for i in (2, 3):
            g.add(node(1), reg.prop("hasLinkAttributes"), node(i))
            g.add(node(i), reg.prop("hasID"), Literal(f"n{i}"))
        assert len(check_constraint(g, one(cat, "31"), reg)) == 1

    def test_links_without_id_fine(self, reg, cat):
        g = Graph()
        g.add(node(1), RDF_TYPE, reg.cls("NamePart"))
        g.add(node(1), reg.prop("hasLinkAttributes"), node(2))
        g.add(node(2), reg.prop("hasHref"), Literal("https://example.org"))
        assert check_constraint(g, one(cat, "31"), reg) == []


class TestStructuralTautology:
    def test_never_an_error_only_warnings(self, reg, cat):
        g = Graph()
        g.add(node(1), RDF_TYPE, reg.cls("Name"))
        g.add(node(1), reg.prop("hasNameType"), Iri("urn:bogus"))
        findings = check_constraint(g, one(cat, "26"), reg)
        assert [(f.code, f.severity) for f in findings] == [("E_NAME_26", "warning")]

    def test_well_typed_edge_is_silent(self, reg, cat):
        g = Graph()
        g.add(node(1), RDF_TYPE, reg.cls("Name"))
        g.add(node(1), reg.prop("hasNameType"), reg.individual("Corporate"))
        assert check_constraint(g, one(cat, "26"), reg) == []

    def test_out_of_scope_subject_ignored(self, reg, cat):
        g = Graph().add(node(1), reg.prop("hasNameType"), Iri("urn:bogus"))
        assert check_constraint(g, one(cat, "26"), reg) == []

    def test_boolean_flag_guidance(self, reg, cat):
        g = Graph()
        g.add(node(1), RDF_TYPE, reg.cls("DateAttributes"))
        g.add(node(1), reg.prop("isKeyDate"), Literal("yes"))
        assert [f.severity for f in check_constraint(g, one(cat, "41"), reg)] == ["warning"]
        g2 = Graph()
        g2.add(node(1), RDF_TYPE, reg.cls("DateAttributes"))
        g2.add(node(1), reg.prop("isKeyDate"), Literal("true", XSD_BOOLEAN))
        assert check_constraint(g2, one(cat, "41"), reg) == []

    def test_unscoped_tautology_checks_every_edge(self, reg, cat):
        g = Graph().add(node(1), reg.prop("hasDateInfo"), node(2))
        assert [f.severity for f in check_constraint(g, one(cat, "34"), reg)] == ["warning"]


class TestScopedDomain:
    def test_untyped_subject_pointing_at_agent(self, reg, cat):
        g = Graph()
        g.add(node(2), RDF_TYPE, reg.cls("Agent"))
        g.add(node(1), reg.prop("assumesAgentRole"), node(2))
        findings = check_constraint(g, one(cat, "3"), reg)
        assert [f.code for f in findings] == ["E_AGENTROLE_3"]

    def test_typed_subject_passes(self, reg, cat):
        g = Graph()
        g.add(node(2), RDF_TYPE, reg.cls("Agent"))
        g.add(node(1), RDF_TYPE, reg.cls("AgentRole"))
        g.add(node(1), reg.prop("assumesAgentRole"), node(2))
        assert check_constraint(g, one(cat, "3"), reg) == []

    def test_edge_to_non_agent_out_of_scope(self, reg, cat):
        g = Graph().add(node(1), reg.prop("assumesAgentRole"), node(2))
        assert check_constraint(g, one(cat, "3"), reg) == []

    def test_one_finding_per_subject(self, reg, cat):
        g = Graph()
        g.add(node(2), RDF_TYPE, reg.cls("Agent"))
        g.add(node(3), RDF_TYPE, reg.cls("Agent"))
        g.add(node(1), reg.prop("assumesAgentRole"), node(2))
        g.add(node(1), reg.prop("assumesAgentRole"), node(3))
        assert len(check_constraint(g, one(cat, "3"), reg)) == 1


class TestValidate:
    def test_empty_graph_is_clean(self, reg, cat):
        report = validate(Graph(), cat, reg)
        assert report.summary() == {"errors": 0, "warnings": 0, "infos": 0}
        assert report.ok()

    def test_inference_discharges_missing_name(self, reg, cat):
        g = Graph()
        a, r, n, np_ = node(1), node(2), node(3), node(4)
        g.add(a, RDF_TYPE, reg.cls("Agent"))
        g.add(r, RDF_TYPE, reg.cls("AgentRole"))
        g.add(n, RDF_TYPE, reg.cls("Name"))
        g.add(np_, RDF_TYPE, reg.cls("NamePart"))
        g.add(n, reg.prop("hasNamePart"), np_)
        g.add(a, reg.prop("assumesAgentRole"), r)
        g.add(r, reg.prop("hasRoleUnderName"), n)
        assert codes(validate(g, cat, reg, infer=False)) == ["E_AGENTROLE_6"]
        assert codes(validate(g, cat, reg)) == []

    def test_summary_counts_match_findings(self, reg, cat):
        g = Graph()
        g.add(node(1), RDF_TYPE, reg.cls("Agent"))  # error: no name
        g.add(node(2), RDF_TYPE, reg.cls("Name"))
        g.add(node(2), reg.prop("hasNameType"), Iri("urn:bogus"))  # tautology warning
        g.add(node(2), reg.prop("hasNamePart"), node(3))
        g.add(node(3), RDF_TYPE, reg.cls("NamePart"))
        report = validate(g, cat, reg, infer=False)
        assert report.errors == sum(1 for f in report.findings if f.severity == "error")
        assert report.errors >= 1 and report.warnings >= 1

    def test_catalog_order_independence(self, reg, cat):
        g = Graph()
        g.add(node(1), RDF_TYPE, reg.cls("Agent"))
        g.add(node(2), RDF_TYPE, reg.cls("NamePart"))
        g.add(node(1), reg.prop("hasLinkAttributes"), node(3))
        g.add(node(1), reg.prop("hasLinkAttributes"), node(4))
        baseline = set(validate(g, cat, reg, infer=False).findings)
        rng = random.Random(5)
        for _ in range(5):
            shuffled = list(cat)
            rng.shuffle(shuffled)
            permuted = type(cat)(tuple(shuffled))
            assert set(validate(g, permuted, reg, infer=False).findings) == baseline

    def test_strict_flag_passes_through(self, reg, cat):
        g = Graph().add(node(1), reg.prop("hasNamePartType"), Iri("urn:bogus"))
        assert validate(g, cat, reg, infer=False).errors == 0
        assert validate(g, cat, reg, infer=False, strict=True).errors == 1

    def test_source_recorded(self, reg, cat):
        report = validate(Graph(), cat, reg, source="input.xml")
        assert report.source == "input.xml"

    def test_duplicate_rule_reports_under_both_codes(self, reg, cat):
        # The link-attributes cap appears in two modules; both fire.
        g = Graph()
        g.add(node(1), reg.prop("hasLinkAttributes"), node(2))
        g.add(node(1), reg.prop("hasLinkAttributes"), node(3))
        got = codes(validate(g, cat, reg, infer=False))
        assert got == ["E_ELEMENTINFO_10", "E_ORGANIZATION_18"]


@pytest.mark.parametrize(
    "datatype",
    [XSD_STRING, XSD_BOOLEAN, RDF_LANGSTRING, Iri("urn:d")],
    ids=["string", "boolean", "langString", "other"],
)
def test_datatype_filler_reads_the_key_as_the_term_would(datatype, reg):
    # The test on ids reads a literal's key after its closing quote; bodies
    # that spell a suffix inside the quotes must not fool it.
    objects = [
        Iri("urn:o"),
        BlankNode("b"),
        *(
            Literal(lexical, *rest)
            for lexical in ("x", 'a"@en', 'a"^^<urn:d>', "\\", "line\nbreak", "")
            for rest in ((), (XSD_BOOLEAN,), (Iri("urn:d"),), (XSD_STRING, "en-GB"))
        ),
    ]
    g = Graph()
    for o in objects:
        g.add(Iri("urn:s"), Iri("urn:p"), o)
    accepts = _IdView(g, reg).accepts(DatatypeFiller(datatype))
    for o in objects:
        assert accepts(g.term_id(o)) == (isinstance(o, Literal) and o.datatype == datatype), o
