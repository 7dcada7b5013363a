"""Vocabulary registry and ontology emission tests."""

import pytest

from mmods.axioms import catalog
from mmods.canonical import canonicalize
from mmods.graph import (
    OWL_ANNOTATION_PROPERTY,
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
    MODULE_NAMES,
    VocabularyError,
    VocabularyRegistry,
    emit_ontology,
)


@pytest.fixture(scope="module")
def reg():
    return VocabularyRegistry()


class TestResolve:
    def test_class_is_base_plus_name(self, reg):
        assert reg.cls("AgentRole") == Iri(DEFAULT_BASE_IRI + "AgentRole")

    def test_vocab_individual_is_member_of_its_list(self, reg):
        personal = reg.individual("Personal")
        assert personal in reg.vocabularies["NameType"].individuals

    def test_unknown_name_suggests_candidates(self, reg):
        with pytest.raises(VocabularyError, match="Affiliation"):
            reg.cls("Affiliation")
        with pytest.raises(VocabularyError, match="^\"unknown class name: 'Agnet'; nearest: Agent"):
            reg.cls("Agnet")
        with pytest.raises(VocabularyError, match="^\"unknown property name: 'hasNam'; nearest: hasName"):
            reg.prop("hasNam")
        with pytest.raises(
            VocabularyError, match="^\"unknown vocabIndividual name: 'Personel'; nearest: Personal"
        ):
            reg.individual("Personel")
        with pytest.raises(VocabularyError, match="^\"unknown class name: 'Zzz'\"$"):
            reg.cls("Zzz")

    def test_each_lookup_reads_only_its_own_table(self, reg):
        with pytest.raises(VocabularyError, match="unknown class name: 'Personal'"):
            reg.cls("Personal")
        with pytest.raises(VocabularyError, match="unknown property name: 'Agent'"):
            reg.prop("Agent")
        with pytest.raises(VocabularyError, match="unknown vocabIndividual name: 'hasName'"):
            reg.individual("hasName")

    def test_property_lookup(self, reg):
        assert reg.prop("hasName").value == DEFAULT_BASE_IRI + "hasName"
        assert reg.prop("hasStandardizedName").value.endswith("hasStandardizedName")


class TestVocabularies:
    def test_qualifier_members_in_order(self, reg):
        values = reg.vocabularies["Qualifier"].individuals
        assert [v.value.rsplit("/", 1)[-1] for v in values] == [
            "Approximate",
            "Inferred",
            "Questionable",
        ]

    def test_name_type_has_four_members(self, reg):
        assert len(reg.vocabularies["NameType"].individuals) == 4

    def test_name_part_type_members(self, reg):
        assert reg.vocabularies["NamePartType"].member_names == (
            "FirstName",
            "MiddleName",
            "LastName",
        )

    def test_usage_single_member(self, reg):
        assert reg.vocabularies["Usage"].member_names == ("Primary",)

    def test_date_info_type_includes_date_valid(self, reg):
        assert reg.individual("DateValid") in reg.vocabularies["DateInfoType"].individuals

    def test_date_encoding_is_open_with_two_seeds(self, reg):
        vocab = reg.vocabularies["DateEncoding"]
        assert not vocab.closed
        assert vocab.member_names == ("W3cdtf", "Iso8601")

    def test_point_members(self, reg):
        assert reg.vocabularies["Point"].member_names == ("Start", "End")
        assert reg.vocabularies["Point"].closed

    def test_calendar_is_empty_but_extensible(self, reg):
        assert reg.vocabularies["Calendar"].individuals == ()
        assert not reg.vocabularies["Calendar"].closed

    def test_unknown_vocabulary(self, reg):
        # Every vocabulary is a class; an unknown name is neither.
        assert "Colour" not in reg.vocabularies
        with pytest.raises(VocabularyError):
            reg.cls("Colour")

    def test_individuals_pairwise_distinct(self, reg):
        all_individuals = [
            iri for vocab in reg.vocabularies.values() for iri in vocab.individuals
        ]
        assert len(set(all_individuals)) == len(all_individuals)


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
    def test_module_names_present(self):
        for name in ("MODS Item", "Name", "Date Information", "Organization"):
            assert name in MODULE_NAMES


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
        assert len(annotations) == len(MODULE_NAMES)
        assert (ontology_node, has_module, Literal("Role-Dependent Names")) in emitted
        assert (has_module, RDF_TYPE, OWL_ANNOTATION_PROPERTY) in emitted

    def test_every_predicate_is_declared(self, emitted):
        declared = {t.s for t in emitted if t.p == RDF_TYPE}
        used = {t.p for t in emitted} - {RDF_TYPE, RDFS_SUBCLASS_OF}
        assert used and used <= declared, sorted(used - declared, key=str)

    def test_identical_across_runs(self, reg):
        first = emit_ontology(reg, catalog(reg))
        second = emit_ontology(reg, catalog(reg))
        assert canonicalize(first) == canonicalize(second)
