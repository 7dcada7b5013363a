"""Record mapping: node shapes, dedup, attribute groups, warnings."""

import pathlib

import pytest

from mmods.axioms import catalog
from mmods.canonical import canonicalize
from mmods.graph import RDF_TYPE, XSD_BOOLEAN, BlankNode, Graph, Iri, Literal, instances_of
from mmods.mapping import MappingError, map_record
from mmods.modsxml import parse_mods_xml
from mmods.validate import materialize, validate
from mmods.vocab import VocabularyRegistry

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
FIXTURE_NAMES = [
    "personal",
    "corporate",
    "conference",
    "dates",
    "attrs",
    "shared_affiliation",
    "collection",
]


@pytest.fixture(scope="module")
def reg():
    return VocabularyRegistry()


@pytest.fixture(scope="module")
def rules(reg):
    return catalog(reg)


def convert(text_or_name, reg):
    if text_or_name.endswith(".xml"):
        data = (FIXTURES / text_or_name).read_bytes()
    else:
        data = text_or_name
    return map_record(parse_mods_xml(data), reg)


class TestRecordShape:
    def test_empty_record_is_item_and_type_only(self, reg):
        result = convert("<mods/>", reg)
        triples = list(result.graph.triples())
        assert len(triples) == 1
        s, p, o = triples[0]
        assert p == RDF_TYPE
        assert o == reg.cls("ModsItem")

    def test_record_id_mints_iris(self, reg):
        result = convert("personal.xml", reg)
        item = Iri(reg.base_iri + "rec1/item0")
        assert result.graph.match(item, RDF_TYPE, reg.cls("ModsItem"))

    @pytest.mark.parametrize("raw, record_id", [("a b", "a b"), ("r&gt;1", "r>1")])
    def test_record_id_unusable_in_an_iri_rejected(self, reg, raw, record_id):
        with pytest.raises(MappingError, match=f"invalid record ID {record_id!r}"):
            convert(f'<mods ID="{raw}"/>', reg)

    def test_duplicate_record_id_rejected(self, reg):
        text = '<modsCollection><mods ID="r1"/><mods ID="s1"/><mods ID="r1"/></modsCollection>'
        with pytest.raises(MappingError, match="duplicate record ID 'r1'"):
            convert(text, reg)

    def test_no_record_id_mints_blanks(self, reg):
        result = convert("conference.xml", reg)
        items = instances_of(result.graph, reg.cls("ModsItem"))
        assert len(items) == 1
        assert isinstance(items[0], BlankNode)

    def test_collection_one_item_per_record(self, reg):
        result = convert("collection.xml", reg)
        assert len(instances_of(result.graph, reg.cls("ModsItem"))) == 2

    def test_mapping_is_deterministic(self, reg):
        first = convert("attrs.xml", reg)
        second = convert("attrs.xml", reg)
        assert canonicalize(first.graph) == canonicalize(second.graph)
        assert first.warnings == second.warnings


class TestNames:
    def test_agent_name_and_parts(self, reg):
        result = convert("personal.xml", reg)
        g = result.graph
        agent = Iri(reg.base_iri + "rec1/agent0")
        name = Iri(reg.base_iri + "rec1/name0")
        assert g.match(agent, RDF_TYPE, reg.cls("Agent"))
        assert g.match(agent, reg.prop("hasName"), name)
        parts = [t.o for t in g.match(name, reg.prop("hasNamePart"), None)]
        assert len(parts) == 2
        values = {t.o.lexical for p in parts for t in g.match(p, reg.prop("hasValue"), None)}
        assert values == {"Ada", "Lovelace"}

    def test_name_part_types(self, reg):
        g = convert("personal.xml", reg).graph
        typed = {
            (t.s, t.o)
            for t in g.match(None, reg.prop("hasNamePartType"), None)
        }
        individuals = {o for _, o in typed}
        assert individuals == {reg.individual("FirstName"), reg.individual("LastName")}

    def test_unknown_name_part_type_left_untyped(self, reg):
        result = convert(
            '<mods><name><namePart type="termsOfAddress">Dr.</namePart></name></mods>', reg
        )
        assert not result.graph.match(None, reg.prop("hasNamePartType"), None)
        assert any("termsOfAddress" in w for w in result.warnings)

    def test_empty_name_part_skipped_with_warning(self, reg):
        result = convert("<mods><name><namePart/><namePart>A</namePart></name></mods>", reg)
        parts = instances_of(result.graph, reg.cls("NamePart"))
        assert len(parts) == 1
        assert any("empty namePart" in w for w in result.warnings)

    def test_name_part_text_is_stripped(self, reg):
        g = convert("<mods><name><namePart>\n  Ada \t</namePart></name></mods>", reg).graph
        assert [t.o for t in g.match(None, reg.prop("hasValue"), None)] == [Literal("Ada")]

    def test_roles_build_the_triangle(self, reg):
        g = convert("personal.xml", reg).graph
        agent = Iri(reg.base_iri + "rec1/agent0")
        name = Iri(reg.base_iri + "rec1/name0")
        item = Iri(reg.base_iri + "rec1/item0")
        roles = instances_of(g, reg.cls("AgentRole"))
        assert len(roles) == 1
        role = roles[0]
        assert g.match(agent, reg.prop("assumesAgentRole"), role)
        assert g.match(role, reg.prop("hasRoleUnderName"), name)
        assert g.match(item, reg.prop("providesAgentRole"), role)
        assert g.match(role, reg.prop("hasValue"), Literal("author"))

    def test_one_role_node_per_role_term(self, reg):
        result = convert(
            "<mods><name><namePart>N</namePart>"
            "<role><roleTerm>author</roleTerm><roleTerm>editor</roleTerm></role>"
            "</name></mods>",
            reg,
        )
        assert len(instances_of(result.graph, reg.cls("AgentRole"))) == 2

    def test_role_without_term_warns(self, reg):
        result = convert("<mods><name><namePart>N</namePart><role/></name></mods>", reg)
        assert not instances_of(result.graph, reg.cls("AgentRole"))
        assert any("role without roleTerm" in w for w in result.warnings)

    def test_name_type_individual(self, reg):
        g = convert("conference.xml", reg).graph
        objects = [t.o for t in g.match(None, reg.prop("hasNameType"), None)]
        assert objects == [reg.individual("Conference")]

    def test_unknown_name_type_warns(self, reg):
        result = convert('<mods><name type="robot"><namePart>R</namePart></name></mods>', reg)
        assert not result.graph.match(None, reg.prop("hasNameType"), None)
        assert any("robot" in w for w in result.warnings)

    def test_primary_usage(self, reg):
        g = convert("personal.xml", reg).graph
        assert g.match(None, reg.prop("isPrimaryInstance"), reg.individual("Primary"))

    def test_other_usage_warns(self, reg):
        result = convert('<mods><name usage="secondary"><namePart>R</namePart></name></mods>', reg)
        assert not result.graph.match(None, reg.prop("isPrimaryInstance"), None)
        assert result.warnings == ["unknown usage value 'secondary', skipped"]

    def test_display_form(self, reg):
        g = convert("personal.xml", reg).graph
        name = Iri(reg.base_iri + "rec1/name0")
        assert g.match(name, reg.prop("hasDisplayForm"), Literal("Ada Lovelace"))

    def test_authority_info(self, reg):
        g = convert("personal.xml", reg).graph
        name = Iri(reg.base_iri + "rec1/name0")
        infos = [t.o for t in g.match(name, reg.prop("hasAuthorityInfo"), None)]
        assert len(infos) == 1
        assert g.match(infos[0], RDF_TYPE, reg.cls("AuthorityInfo"))
        assert g.match(infos[0], reg.prop("hasValue"), Literal("naf"))

    def test_name_identifier_is_also_identifier(self, reg):
        g = convert("personal.xml", reg).graph
        ids = instances_of(g, reg.cls("NameIdentifier"))
        assert len(ids) == 1
        assert g.match(ids[0], RDF_TYPE, reg.cls("Identifier"))
        assert g.match(ids[0], reg.prop("hasValue"), None)


class TestAffiliations:
    def test_shared_string_yields_one_organization(self, reg):
        g = convert("shared_affiliation.xml", reg).graph
        orgs = instances_of(g, reg.cls("Organization"))
        assert len(orgs) == 1
        agents = instances_of(g, reg.cls("Agent"))
        assert len(agents) == 2
        for agent in agents:
            assert g.match(agent, reg.prop("hasAffiliation"), orgs[0])

    def test_organization_wraps_string_in_a_name(self, reg):
        g = convert("personal.xml", reg).graph
        orgs = instances_of(g, reg.cls("Organization"))
        assert len(orgs) == 1
        names = [t.o for t in g.match(orgs[0], reg.prop("hasName"), None)]
        assert len(names) == 1
        parts = [t.o for t in g.match(names[0], reg.prop("hasNamePart"), None)]
        assert len(parts) == 1
        assert g.match(parts[0], reg.prop("hasValue"), Literal("University of London"))

    def test_no_affiliation_edge_on_the_name(self, reg):
        g = convert("personal.xml", reg).graph
        name = Iri(reg.base_iri + "rec1/name0")
        assert not g.match(name, reg.prop("hasAffiliation"), None)

    def test_dedup_spans_collection_records(self, reg):
        g = convert("collection.xml", reg).graph
        assert len(instances_of(g, reg.cls("Organization"))) == 1

    def test_different_strings_two_organizations(self, reg):
        result = convert(
            "<mods><name><namePart>A</namePart><affiliation>One</affiliation></name>"
            "<name><namePart>B</namePart><affiliation>Two</affiliation></name></mods>",
            reg,
        )
        assert len(instances_of(result.graph, reg.cls("Organization"))) == 2


class TestDates:
    def test_all_seven_elements(self, reg):
        g = convert("dates.xml", reg).graph
        dates = instances_of(g, reg.cls("DateInfo"))
        assert len(dates) == 7
        kinds = {t.o for t in g.match(None, reg.prop("isOfType"), None)}
        assert kinds == {
            reg.individual("DateIssued"),
            reg.individual("DateCreated"),
            reg.individual("DateCaptured"),
            reg.individual("DateModified"),
            reg.individual("DateValid"),
            reg.individual("DateOther"),
            reg.individual("CopyrightDate"),
        }

    def test_owner_is_the_item(self, reg):
        g = convert("dates.xml", reg).graph
        item = Iri(reg.base_iri + "d1/item0")
        assert len(g.match(item, reg.prop("hasDateInfo"), None)) == 7

    def test_exactly_one_attribute_node_even_when_empty(self, reg):
        g = convert("dates.xml", reg).graph
        for date in instances_of(g, reg.cls("DateInfo")):
            edges = g.match(date, reg.prop("hasDateAttributes"), None)
            assert len(edges) == 1
            assert g.match(edges[0].o, RDF_TYPE, reg.cls("DateAttributes"))

    def test_value_and_type_per_date(self, reg):
        g = convert("dates.xml", reg).graph
        for date in instances_of(g, reg.cls("DateInfo")):
            assert len(g.match(date, reg.prop("hasValue"), None)) == 1
            assert len(g.match(date, reg.prop("isOfType"), None)) == 1

    def test_known_encodings(self, reg):
        g = convert("dates.xml", reg).graph
        encodings = {t.o for t in g.match(None, reg.prop("hasDateEncodingType"), None)}
        assert reg.individual("W3cdtf") in encodings
        assert reg.individual("Iso8601") in encodings

    def test_unknown_encoding_minted_and_typed(self, reg):
        result = convert("dates.xml", reg)
        minted = Iri(reg.base_iri + "Marc")
        assert result.graph.match(None, reg.prop("hasDateEncodingType"), minted)
        assert result.graph.match(minted, RDF_TYPE, reg.cls("DateEncoding"))
        assert any("Marc" in w for w in result.warnings)

    def test_key_date_boolean(self, reg):
        g = convert("dates.xml", reg).graph
        flags = g.match(None, reg.prop("isKeyDate"), None)
        assert len(flags) == 1
        assert flags[0].o == Literal("true", XSD_BOOLEAN)

    def test_key_date_other_value_warns(self, reg):
        result = convert("<mods><originInfo><dateIssued keyDate='no'>1</dateIssued></originInfo></mods>", reg)
        assert not result.graph.match(None, reg.prop("isKeyDate"), None)
        assert any("keyDate" in w for w in result.warnings)

    def test_points(self, reg):
        g = convert("dates.xml", reg).graph
        points = {t.o for t in g.match(None, reg.prop("isStartOrEndPoint"), None)}
        assert points == {reg.individual("Start"), reg.individual("End")}

    def test_unknown_point_skipped(self, reg):
        result = convert(
            "<mods><originInfo><dateIssued point='middle'>1</dateIssued></originInfo></mods>", reg
        )
        assert not result.graph.match(None, reg.prop("isStartOrEndPoint"), None)
        assert any("middle" in w for w in result.warnings)

    def test_qualifiers(self, reg):
        g = convert("dates.xml", reg).graph
        qualifiers = {t.o for t in g.match(None, reg.prop("hasQualifier"), None)}
        assert qualifiers == {
            reg.individual("Approximate"),
            reg.individual("Inferred"),
            reg.individual("Questionable"),
        }

    def test_unknown_qualifier_skipped(self, reg):
        result = convert(
            "<mods><originInfo><dateIssued qualifier='guessed'>1</dateIssued></originInfo></mods>",
            reg,
        )
        assert not result.graph.match(None, reg.prop("hasQualifier"), None)
        assert any("guessed" in w for w in result.warnings)

    def test_calendar_minted(self, reg):
        result = convert("dates.xml", reg)
        minted = Iri(reg.base_iri + "Julian")
        assert result.graph.match(None, reg.prop("hasAlternativeCalendar"), minted)
        assert result.graph.match(minted, RDF_TYPE, reg.cls("Calendar"))
        assert any("Julian" in w for w in result.warnings)

    @pytest.mark.parametrize(
        "attrs, taken",
        [
            ('calendar="agent"', "Agent"),
            ('encoding="name part"', "NamePart"),
            ('calendar="personal"', "Personal"),
            ('encoding="start"', "Start"),
            ('calendar="iso 8601"', "Iso8601"),
        ],
    )
    def test_value_naming_a_vocabulary_term_is_not_minted(self, reg, attrs, taken):
        result = convert(f'<mods ID="r1"><dateCreated {attrs}>2001</dateCreated></mods>', reg)
        term = Iri(reg.base_iri + taken)
        assert not result.graph.match(term, None, None)
        assert not result.graph.match(None, None, term)
        assert not result.graph.match(None, reg.prop("hasDateEncodingType"), None)
        assert not result.graph.match(None, reg.prop("hasAlternativeCalendar"), None)
        value = attrs.split('"')[1]
        vocab = "Calendar" if attrs.startswith("calendar") else "DateEncoding"
        assert result.warnings == [
            f"record r1: cannot mint a {vocab} individual from {value!r}: "
            f"{taken!r} is a vocabulary term, skipped"
        ]

    @pytest.mark.parametrize(
        "records",
        [
            ['<dateCreated calendar="edtf" encoding="edtf">2001</dateCreated>'],
            ['<dateCreated encoding="edtf">2001</dateCreated>', '<dateOther calendar="edtf">2002</dateOther>'],
        ],
        ids=["one-element", "two-records"],
    )
    def test_two_open_vocabularies_do_not_mint_one_individual(self, reg, records):
        # The encoding row comes first, so DateEncoding mints Edtf and the
        # calendar value is skipped.
        text = "".join(f'<mods ID="r{i}">{r}</mods>' for i, r in enumerate(records, 1))
        result = convert(f"<modsCollection>{text}</modsCollection>", reg)
        edtf = Iri(reg.base_iri + "Edtf")
        assert [t.o for t in result.graph.match(edtf, None, None)] == [reg.cls("DateEncoding")]
        assert not result.graph.match(None, reg.prop("hasAlternativeCalendar"), None)
        assert result.warnings == [
            "record r1: minted DateEncoding individual 'Edtf' for value 'edtf'",
            f"record r{len(records)}: cannot mint a Calendar individual from 'edtf': "
            "'Edtf' is a minted DateEncoding individual, skipped",
        ]

    def test_value_naming_a_member_maps_to_it(self, reg):
        result = convert(
            '<mods ID="r1"><dateCreated encoding="iso 8601">2001</dateCreated></mods>', reg
        )
        iso = reg.individual("Iso8601")
        assert result.graph.match(None, reg.prop("hasDateEncodingType"), iso)
        assert not result.graph.match(iso, None, None)
        assert result.warnings == []

    def test_empty_date_skipped(self, reg):
        result = convert("<mods><originInfo><dateIssued/></originInfo></mods>", reg)
        assert not instances_of(result.graph, reg.cls("DateInfo"))
        assert any("empty dateIssued" in w for w in result.warnings)

    def test_date_direct_under_record(self, reg):
        # MODS puts dates under originInfo, but a direct child still maps.
        result = convert("<mods><dateIssued>1900</dateIssued></mods>", reg)
        assert len(instances_of(result.graph, reg.cls("DateInfo"))) == 1


class TestCommonAttributes:
    def test_display_label(self, reg):
        g = convert("attrs.xml", reg).graph
        name = Iri(reg.base_iri + "a1/name0")
        assert g.match(name, reg.prop("hasDisplayLabel"), Literal("Author"))

    def test_one_link_node_with_id(self, reg):
        g = convert("attrs.xml", reg).graph
        name = Iri(reg.base_iri + "a1/name0")
        links = [t.o for t in g.match(name, reg.prop("hasLinkAttributes"), None)]
        assert len(links) == 1
        assert g.match(links[0], RDF_TYPE, reg.cls("LinkAttributes"))
        assert g.match(links[0], reg.prop("hasID"), Literal("n1"))

    def test_href_without_id(self, reg):
        g = convert("attrs.xml", reg).graph
        hrefs = g.match(None, reg.prop("hasHref"), None)
        assert len(hrefs) == 1
        assert hrefs[0].o == Literal("https://example.org/people/shuichi")

    def test_one_language_node_per_owner(self, reg):
        g = convert("attrs.xml", reg).graph
        name = Iri(reg.base_iri + "a1/name0")
        langs = [t.o for t in g.match(name, reg.prop("hasLanguageAttributes"), None)]
        assert len(langs) == 1
        assert g.match(langs[0], reg.prop("hasLang"), Literal("en"))
        assert g.match(langs[0], reg.prop("hasScript"), Literal("Latn"))

    @pytest.mark.parametrize("xml_lang, expected", [("en", {"en"}), ("fr", {"en", "fr"})])
    def test_lang_and_xml_lang_share_one_node(self, reg, xml_lang, expected):
        g = convert(f'<mods><name lang="en" xml:lang="{xml_lang}"><namePart>N</namePart></name></mods>', reg).graph
        (lang_node,) = instances_of(g, reg.cls("LanguageAttributes"))
        assert {t.o.lexical for t in g.match(lang_node, reg.prop("hasLang"), None)} == expected

    def test_transliteration(self, reg):
        g = convert("attrs.xml", reg).graph
        assert g.match(None, reg.prop("hasTransliteration"), Literal("hepburn"))

    def test_no_attributes_no_nodes(self, reg):
        result = convert("<mods><name><namePart>N</namePart></name></mods>", reg)
        assert not instances_of(result.graph, reg.cls("LinkAttributes"))
        assert not instances_of(result.graph, reg.cls("LanguageAttributes"))

    def test_name_part_id_dropped_with_warning(self, reg):
        result = convert('<mods><name><namePart ID="p1">N</namePart></name></mods>', reg)
        assert not result.graph.match(None, reg.prop("hasID"), None)
        assert any("must not carry IDs" in w for w in result.warnings)

    def test_name_part_href_still_allowed(self, reg):
        g = convert("attrs.xml", reg).graph
        parts = instances_of(g, reg.cls("NamePart"))
        with_links = [
            p for p in parts if g.match(p, reg.prop("hasLinkAttributes"), None)
        ]
        assert len(with_links) == 1
        link = g.match(with_links[0], reg.prop("hasLinkAttributes"), None)[0].o
        assert g.match(link, reg.prop("hasHref"), None)
        assert not g.match(link, reg.prop("hasID"), None)


class TestWarnings:
    def test_unmapped_element(self, reg):
        result = convert("corporate.xml", reg)
        assert any("unmapped element titleInfo" in w for w in result.warnings)

    def test_unmapped_origin_info_child(self, reg):
        result = convert(
            "<mods><originInfo><publisher>X</publisher></originInfo></mods>", reg
        )
        assert any("originInfo/publisher" in w for w in result.warnings)

    def test_unmapped_name_child(self, reg):
        result = convert(
            "<mods><name><namePart>N</namePart><etal/></name></mods>", reg
        )
        assert any("name/etal" in w for w in result.warnings)

    def test_record_id_prefixes_warnings(self, reg):
        result = convert("corporate.xml", reg)
        assert all(w.startswith("record org-record: ") for w in result.warnings)

    def test_warnings_never_block_output(self, reg):
        result = convert("<mods><unknown/><name><namePart>N</namePart></name></mods>", reg)
        assert result.warnings
        assert len(result.graph) > 1


class TestForeignNamespaces:
    """Only MODS-namespace and unqualified elements are mapped; any other
    element is reported as unmapped under its Clark-notation tag."""

    def test_foreign_name_and_date_are_not_mapped(self, reg):
        result = convert(
            '<mods xmlns:x="urn:other"><x:name><x:namePart>A</x:namePart></x:name>'
            "<x:dateIssued>2001</x:dateIssued></mods>",
            reg,
        )
        assert result.warnings == [
            "unmapped element {urn:other}name",
            "unmapped element {urn:other}dateIssued",
        ]
        for cls in ("Agent", "NamePart", "DateInfo"):
            assert not instances_of(result.graph, reg.cls(cls)), cls
        assert len(result.graph) == 1

    def test_foreign_children_of_mapped_elements(self, reg):
        result = convert(
            '<mods xmlns="http://www.loc.gov/mods/v3" xmlns:x="urn:other" ID="r1">'
            "<name><x:namePart>A</x:namePart><namePart>B</namePart>"
            "<role><x:roleTerm>author</x:roleTerm></role></name>"
            "<originInfo><x:dateIssued>2001</x:dateIssued><dateIssued>2002</dateIssued></originInfo>"
            "</mods>",
            reg,
        )
        assert result.warnings == [
            "record r1: unmapped element name/{urn:other}namePart",
            "record r1: unmapped element name/role/{urn:other}roleTerm",
            "record r1: role without roleTerm skipped",
            "record r1: unmapped element originInfo/{urn:other}dateIssued",
        ]
        g = result.graph
        values = {t.o.lexical for t in g.match(None, reg.prop("hasValue"), None)}
        assert values == {"B", "2002"}
        assert not instances_of(g, reg.cls("AgentRole"))

    def test_other_children_of_a_role_warn(self, reg):
        result = convert(
            '<mods xmlns:x="urn:other"><name><namePart>A</namePart><role>'
            "<x:roleTerm>editor</x:roleTerm><roleTerm>author</roleTerm><note/>"
            "</role></name></mods>",
            reg,
        )
        assert result.warnings == [
            "unmapped element name/role/{urn:other}roleTerm",
            "unmapped element name/role/note",
        ]
        roles = instances_of(result.graph, reg.cls("AgentRole"))
        assert [t.o for t in result.graph.match(roles[0], reg.prop("hasValue"), None)] == [
            Literal("author")
        ]
        assert len(roles) == 1

    def test_other_children_of_a_collection_warn_in_document_order(self, reg):
        result = convert(
            '<modsCollection xmlns="http://www.loc.gov/mods/v3" xmlns:x="urn:other">'
            '<mods ID="a"><titleInfo/></mods><x:mods ID="b"/><note/>'
            "<mods><titleInfo/></mods></modsCollection>",
            reg,
        )
        assert result.warnings == [
            "record a: unmapped element titleInfo",
            "unmapped element modsCollection/{urn:other}mods",
            "unmapped element modsCollection/note",
            "unmapped element titleInfo",
        ]
        assert result.record_ids == ["a"]

    def test_foreign_mods_in_a_collection_is_not_a_record(self, reg):
        result = convert(
            '<modsCollection xmlns="http://www.loc.gov/mods/v3" xmlns:x="urn:other">'
            '<x:mods ID="x1"><name><namePart>A</namePart></name></x:mods>'
            '<mods ID="m1"/></modsCollection>',
            reg,
        )
        assert result.record_ids == ["m1"]
        assert instances_of(result.graph, reg.cls("ModsItem")) == [Iri(reg.base_iri + "m1/item0")]
        assert not instances_of(result.graph, reg.cls("Agent"))


class TestMappingIntoOneGraph:
    @pytest.mark.parametrize(
        "first, second",
        [("personal", "dates"), ("conference", "twins"), ("conference", "conference")],
    )
    def test_two_documents_map_into_their_disjoint_union(self, reg, first, second):
        graph = Graph()
        union = Graph()
        for tag, name in (("x", first), ("y", second)):
            document = parse_mods_xml((FIXTURES / f"{name}.xml").read_bytes())
            assert map_record(document, reg, graph).graph is graph
            for triple in map_record(document, reg).graph:
                union.add(*(BlankNode(tag + t.label) if isinstance(t, BlankNode) else t for t in triple))
        assert canonicalize(graph) == canonicalize(union)

    def test_record_id_repeated_across_calls_rejected(self, reg):
        graph = map_record(parse_mods_xml('<mods ID="r1"/>'), reg).graph
        later = parse_mods_xml('<modsCollection><mods ID="r0"/><mods ID="r1"/></modsCollection>')
        with pytest.raises(MappingError, match="duplicate record ID 'r1'"):
            map_record(later, reg, graph)
        # The records mapped before the error stay in the graph.
        assert instances_of(graph, reg.cls("ModsItem")) == [
            Iri(reg.base_iri + "r0/item0"), Iri(reg.base_iri + "r1/item0")
        ]

    def test_mapping_builds_no_predicate_index(self, reg):
        graph = Graph()
        for name in FIXTURE_NAMES:
            map_record(parse_mods_xml((FIXTURES / f"{name}.xml").read_bytes()), reg, graph)
        assert graph._by_predicate is None


class TestMappedGraphsValidate:
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_zero_errors_after_materialization(self, name, reg, rules):
        result = convert(f"{name}.xml", reg)
        report = validate(result.graph, rules, reg, infer=True, source=name)
        assert report.errors == 0, [f.detail for f in report.findings if f.severity == "error"]

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_zero_errors_in_strict_mode(self, name, reg, rules):
        result = convert(f"{name}.xml", reg)
        report = validate(result.graph, rules, reg, infer=True, strict=True, source=name)
        assert report.errors == 0

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_name_parts_have_one_owner(self, name, reg, rules):
        g = convert(f"{name}.xml", reg).graph
        for part in instances_of(g, reg.cls("NamePart")):
            assert len(g.match(None, reg.prop("hasNamePart"), part)) == 1

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_no_id_under_a_name_part(self, name, reg, rules):
        g = materialize(convert(f"{name}.xml", reg).graph, rules)
        for part in instances_of(g, reg.cls("NamePart")):
            for edge in g.match(part, reg.prop("hasLinkAttributes"), None):
                assert not g.match(edge.o, reg.prop("hasID"), None)
