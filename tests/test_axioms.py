"""Constraint catalog content and shape tests."""

import re
from pathlib import Path

import pytest

from mmods.axioms import (
    DatatypeFiller,
    VocabFiller,
    catalog,
    catalog_table_markdown,
)
from mmods.graph import XSD_BOOLEAN, XSD_NS, XSD_STRING, Iri
from mmods.vocab import VocabularyRegistry

DOCS_TABLE = Path(__file__).resolve().parent.parent / "docs" / "axiom-catalog.md"


@pytest.fixture(scope="module")
def reg():
    return VocabularyRegistry()


@pytest.fixture(scope="module")
def cat(reg):
    return catalog(reg)


def entry(cat, axiom_id):
    matches = [c for c in cat if c.axiom_id == axiom_id]
    assert len(matches) == 1
    return matches[0]


class TestCatalogShape:
    def test_axiom_ids_unique(self, cat):
        ids = [c.axiom_id for c in cat]
        assert len(set(ids)) == len(ids)

    def test_thirty_plus_evaluatable_entries(self, cat):
        evaluatable = [c for c in cat if c.kind not in ("role_chain", "subclass_of")]
        assert len(evaluatable) >= 30

    def test_numbered_entries_cover_one_through_fortythree(self, cat):
        numbered = {c.axiom_id for c in cat if c.axiom_id.isdigit()}
        assert numbered == {str(i) for i in range(1, 44)}

    def test_code_format(self, cat):
        for c in cat:
            assert re.fullmatch(r"E_[A-Z]+_[A-Z0-9]+", c.code), c.code

    def test_codes_unique(self, cat):
        # Labels 10 and 18 state the same rule but live in different
        # modules, so their codes still differ.
        codes = [c.code for c in cat]
        assert len(set(codes)) == len(codes)

    def test_severities(self, cat):
        for c in cat:
            if c.kind == "structural_tautology":
                assert c.severity == "info", c.code
            elif c.kind in ("role_chain", "subclass_of"):
                assert c.severity == "info", c.code
            else:
                assert c.severity == "error", c.code

    def test_error_entry_count(self, cat):
        errors = sorted(c.code for c in cat if c.severity == "error")
        assert len(errors) == 20

    def test_deterministic_order(self, reg):
        first = [c.code for c in catalog(reg)]
        second = [c.code for c in catalog(reg)]
        assert first == second


class TestKeyEntries:
    def test_agent_must_have_name(self, cat, reg):
        c = entry(cat, "6")
        assert c.kind == "existential"
        assert c.scope_class == reg.cls("Agent")
        assert c.prop == reg.prop("hasName")
        assert c.filler == reg.cls("Name")
        assert c.code == "E_AGENTROLE_6"

    def test_single_provider(self, cat, reg):
        c = entry(cat, "1")
        assert c.kind == "max_one"
        assert c.direction == "inverse"
        assert c.prop == reg.prop("providesAgentRole")
        assert c.scope_class is None and c.filler is None

    def test_single_assuming_agent_is_scoped_and_filled(self, cat, reg):
        c = entry(cat, "4")
        assert c.kind == "max_one" and c.direction == "inverse"
        assert c.scope_class == reg.cls("AgentRole")
        assert c.filler == reg.cls("Agent")

    def test_role_domain_restriction(self, cat, reg):
        c = entry(cat, "3")
        assert c.kind == "scoped_domain"
        assert c.filler == reg.cls("Agent")
        assert c.required_class == reg.cls("AgentRole")

    def test_chains(self, cat, reg):
        assert entry(cat, "7").chain == (
            reg.prop("assumesAgentRole"),
            reg.prop("hasRoleUnderName"),
            False,
            reg.prop("hasName"),
        )
        assert entry(cat, "8").chain == (
            reg.prop("hasName"),
            reg.prop("hasRoleUnderName"),
            True,
            reg.prop("assumesAgentRole"),
        )

    def test_documentation_entry_has_no_sub(self, cat, reg):
        c = entry(cat, "9")
        assert c.kind == "subclass_of" and c.sub is None
        assert c.sup == reg.cls("ElementInfo")
        assert c.severity == "info"

    def test_subclass_pairs_exclude_documentation_entry(self, cat, reg):
        assert cat.subclass_pairs() == [
            (reg.cls("NamePart"), reg.cls("ElementInfo")),
            (reg.cls("NameIdentifier"), reg.cls("Identifier")),
        ]

    def test_no_id_under_name_part_links(self, cat, reg):
        c = entry(cat, "31")
        assert c.kind == "negated_path"
        assert c.scope_class == reg.cls("NamePart")
        assert c.prop == reg.prop("hasLinkAttributes")
        assert c.prop2 == reg.prop("hasID")

    def test_name_part_ownership(self, cat, reg):
        c = entry(cat, "21")
        assert c.kind == "inverse_existential"
        assert c.source_class == reg.cls("Name")

    def test_vocab_range_for_name_part_type(self, cat):
        c = entry(cat, "24")
        assert c.kind == "universal_range"
        assert c.filler == VocabFiller("NamePartType")

    def test_date_value_must_be_string(self, cat):
        c = entry(cat, "39")
        assert c.kind == "existential"
        assert c.filler == DatatypeFiller(XSD_STRING)

    def test_key_date_flag_is_boolean_guidance(self, cat):
        c = entry(cat, "41")
        assert c.kind == "structural_tautology"
        assert c.filler == DatatypeFiller(XSD_BOOLEAN)

    def test_date_owner_uniqueness_is_inverse(self, cat, reg):
        c = entry(cat, "33")
        assert c.direction == "inverse" and c.prop == reg.prop("hasDateInfo")

    def test_support_entries_are_tautologies(self, cat, reg):
        affiliation = entry(cat, "affiliation")
        assert affiliation.kind == "structural_tautology"
        assert affiliation.scope_class == reg.cls("Agent")
        assert affiliation.filler == reg.cls("Organization")
        assert entry(cat, "qualifier").filler == VocabFiller("Qualifier")
        assert entry(cat, "displayForm").filler == DatatypeFiller(XSD_STRING)

    def test_every_property_reference_is_registered(self, cat, reg):
        registered = set(reg.properties.values())
        classes = set(reg.classes.values())
        for c in cat:
            for prop in (c.prop, c.prop2):
                assert prop is None or prop in registered
            if c.chain is not None:
                assert {c.chain[0], c.chain[1], c.chain[3]} <= registered
            for cls in (c.scope_class, c.source_class, c.required_class, c.sub, c.sup):
                assert cls is None or cls in classes, c.code
            if isinstance(c.filler, Iri):
                assert c.filler in classes, c.code
            elif isinstance(c.filler, VocabFiller):
                assert c.filler.vocabulary in reg.vocabularies, c.code
            elif isinstance(c.filler, DatatypeFiller):
                assert c.filler.datatype.value.startswith(XSD_NS), c.code
            else:
                assert c.filler is None, c.code


class TestDocsTable:
    def test_docs_table_matches_catalog(self, cat):
        assert DOCS_TABLE.read_text() == catalog_table_markdown(cat)

    def test_docs_table_lists_every_code(self, cat):
        text = DOCS_TABLE.read_text()
        for c in cat:
            assert c.code in text
