"""Vocabulary registry and ontology emission tests."""

import json

import pytest

from mmods.axioms import catalog
from mmods.canonical import canonicalize
from mmods.graph import (
    OWL_CLASS,
    OWL_DATATYPE_PROPERTY,
    OWL_OBJECT_PROPERTY,
    OWL_ONTOLOGY,
    RDF_TYPE,
    RDFS_SUBCLASS_OF,
    Iri,
    Literal,
)
from mmods.vocab import (
    DEFAULT_BASE_IRI,
    VocabularyError,
    VocabularyRegistry,
    emit_ontology,
)


@pytest.fixture(scope="module")
def reg():
    return VocabularyRegistry()


class TestResolve:
    def test_class_is_base_plus_name(self, reg):
        assert reg.resolve("class", "AgentRole") == Iri(DEFAULT_BASE_IRI + "AgentRole")

    def test_vocab_individual_is_member_of_its_list(self, reg):
        personal = reg.resolve("vocabIndividual", "Personal")
        assert personal in reg.vocabulary_values("NameType")

    def test_unknown_name_suggests_candidates(self, reg):
        with pytest.raises(VocabularyError, match="Affiliation"):
            reg.resolve("class", "Affiliation")
        try:
            reg.resolve("class", "Agnet")
        except VocabularyError as exc:
            assert "Agent" in str(exc)

    def test_unknown_kind_rejected(self, reg):
        with pytest.raises(VocabularyError):
            reg.resolve("individual", "Personal")

    def test_property_lookup(self, reg):
        assert reg.prop("hasName").value == DEFAULT_BASE_IRI + "hasName"
        assert reg.prop("hasStandardizedName").value.endswith("hasStandardizedName")


class TestVocabularies:
    def test_qualifier_members_in_order(self, reg):
        values = reg.vocabulary_values("Qualifier")
        assert [v.value.rsplit("/", 1)[-1] for v in values] == [
            "Approximate",
            "Inferred",
            "Questionable",
        ]

    def test_name_type_has_four_members(self, reg):
        assert len(reg.vocabulary_values("NameType")) == 4

    def test_name_part_type_members(self, reg):
        assert reg.vocabularies["NamePartType"].member_names == (
            "FirstName",
            "MiddleName",
            "LastName",
        )

    def test_usage_single_member(self, reg):
        assert reg.vocabularies["Usage"].member_names == ("Primary",)

    def test_date_info_type_includes_date_valid(self, reg):
        assert reg.individual("DateValid") in reg.vocabulary_values("DateInfoType")

    def test_date_encoding_is_open_with_two_seeds(self, reg):
        vocab = reg.vocabularies["DateEncoding"]
        assert not vocab.closed
        assert vocab.member_names == ("W3cdtf", "Iso8601")

    def test_point_members(self, reg):
        assert reg.vocabularies["Point"].member_names == ("Start", "End")
        assert reg.vocabularies["Point"].closed

    def test_calendar_is_empty_but_extensible(self, reg):
        assert reg.vocabulary_values("Calendar") == []
        assert not reg.vocabularies["Calendar"].closed

    def test_unknown_vocabulary(self, reg):
        with pytest.raises(VocabularyError):
            reg.vocabulary_values("Colour")

    def test_individuals_pairwise_distinct(self, reg):
        all_individuals = [
            iri for vocab in reg.vocabularies.values() for iri in vocab.individuals
        ]
        assert len(set(all_individuals)) == len(all_individuals)

    def test_vocabulary_of_individual(self, reg):
        assert reg.vocabulary_of(reg.individual("W3cdtf")).name == "DateEncoding"
        assert reg.vocabulary_of(Iri("urn:other")) is None


class TestBaseIri:
    def test_custom_base_renames_everything(self):
        custom = VocabularyRegistry("https://kb.example.net/terms/")
        default = VocabularyRegistry()
        assert set(custom.classes) == set(default.classes)
        for name, iri in custom.classes.items():
            assert iri.value == "https://kb.example.net/terms/" + name
        for name, iri in custom.properties.items():
            assert iri.value.startswith("https://kb.example.net/terms/")

    def test_missing_trailing_separator_added(self):
        reg = VocabularyRegistry("https://kb.example.net/terms")
        assert reg.base_iri.endswith("/")
        assert reg.cls("Agent").value == "https://kb.example.net/terms/Agent"

    def test_hash_base_kept(self):
        reg = VocabularyRegistry("https://kb.example.net/terms#")
        assert reg.cls("Agent").value == "https://kb.example.net/terms#Agent"

    def test_empty_base_rejected(self):
        with pytest.raises(VocabularyError):
            VocabularyRegistry("")

    @pytest.mark.parametrize(
        "base",
        ["a b", "http://x/>", "<http://x/", "http://x/\t"]
        + [f"http://x/{char}/" for char in '"{}|^`\\'],
    )
    def test_base_failing_iri_text_rule_rejected(self, base):
        with pytest.raises(VocabularyError, match="invalid base IRI"):
            VocabularyRegistry(base)


class TestJsonDump:
    def test_round_trips_through_json(self, reg):
        dump = json.loads(json.dumps(reg.to_json()))
        assert dump["baseIri"] == DEFAULT_BASE_IRI
        assert dump["classes"]["Agent"] == DEFAULT_BASE_IRI + "Agent"
        assert dump["vocabularies"]["NameType"]["closed"] is True
        assert "Role-Dependent Names" in dump["modules"]

    def test_module_names_present(self, reg):
        for name in ("MODS Item", "Name", "Date Information", "Organization"):
            assert name in reg.modules


@pytest.fixture(scope="module")
def emitted(reg):
    return emit_ontology(reg, catalog(reg))


class TestEmitOntology:
    def test_subclass_triples_present(self, reg, emitted):
        assert (reg.cls("NamePart"), RDFS_SUBCLASS_OF, reg.cls("ElementInfo")) in emitted
        assert (reg.cls("NameIdentifier"), RDFS_SUBCLASS_OF, reg.cls("Identifier")) in emitted

    def test_class_declaration_count_matches_table(self, reg, emitted):
        assert len(emitted.match(None, RDF_TYPE, OWL_CLASS)) == len(reg.classes)

    def test_property_declarations(self, reg, emitted):
        object_props = emitted.match(None, RDF_TYPE, OWL_OBJECT_PROPERTY)
        data_props = emitted.match(None, RDF_TYPE, OWL_DATATYPE_PROPERTY)
        assert len(object_props) + len(data_props) == len(reg.properties)
        assert any(t.s == reg.prop("hasName") for t in object_props)
        assert any(t.s == reg.prop("hasValue") for t in data_props)
        assert any(t.s == reg.prop("isKeyDate") for t in data_props)

    def test_each_individual_typed_into_its_vocabulary_class(self, reg, emitted):
        for vocab in reg.vocabularies.values():
            for individual in vocab.individuals:
                assert (individual, RDF_TYPE, vocab.class_iri) in emitted

    def test_module_annotations(self, reg, emitted):
        ontology_node = Iri(DEFAULT_BASE_IRI.rstrip("/"))
        assert (ontology_node, RDF_TYPE, OWL_ONTOLOGY) in emitted
        has_module = Iri(DEFAULT_BASE_IRI + "hasModule")
        annotations = emitted.match(ontology_node, has_module, None)
        assert len(annotations) == len(reg.modules)
        assert (ontology_node, has_module, Literal("Role-Dependent Names")) in emitted

    def test_identical_across_runs(self, reg):
        first = emit_ontology(reg, catalog(reg))
        second = emit_ontology(reg, catalog(reg))
        assert canonicalize(first) == canonicalize(second)
