"""XML parsing: tree shape, attribute normalization, error reporting."""

import pathlib

import pytest

from mmods.modsxml import (
    MODS_NS,
    ModsDocument,
    ModsElement,
    ModsParseError,
    ModsStructureError,
    parse_mods_xml,
)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def fixture(name: str) -> bytes:
    return (FIXTURES / name).read_bytes()


class TestParsing:
    def test_minimal_record(self):
        doc = parse_mods_xml("<mods><titleInfo><title>T</title></titleInfo></mods>")
        assert doc.root.tag == "mods"
        branches = [child for child in doc.root.children if child.recognized]
        assert len(branches) == 1
        assert branches[0].tag == "titleInfo"
        assert branches[0].children[0].tag == "title"
        assert branches[0].children[0].text == "T"

    def test_namespaced_record(self):
        doc = parse_mods_xml(fixture("personal.xml"))
        assert doc.root.tag == "mods"
        assert doc.root.ns == "http://www.loc.gov/mods/v3"
        assert doc.root.attrs["ID"] == "rec1"

    def test_bare_record(self):
        doc = parse_mods_xml(fixture("corporate.xml"))
        assert doc.root.ns == ""
        assert doc.root.attrs["ID"] == "org-record"

    def test_element_count_matches_hand_count(self):
        # mods, titleInfo, title, name, namePart, role, roleTerm
        doc = parse_mods_xml(
            "<mods><titleInfo><title>T</title></titleInfo>"
            "<name><namePart>N</namePart><role><roleTerm>author</roleTerm></role></name></mods>"
        )
        assert doc.element_count() == 7

    def test_text_is_stripped(self):
        doc = parse_mods_xml("<mods><name><namePart>\n  Ada \t</namePart></name></mods>")
        assert doc.root.children[0].children[0].text == "Ada"

    def test_bytes_and_str_agree(self):
        raw = fixture("conference.xml")
        assert parse_mods_xml(raw).root == parse_mods_xml(raw.decode("utf-8")).root

    def test_source_is_kept(self):
        doc = parse_mods_xml("<mods/>", source="x.xml")
        assert doc.source == "x.xml"


class TestAttributes:
    def test_xml_lang_key(self):
        doc = parse_mods_xml(fixture("attrs.xml"))
        name = doc.root.find_all("name")[0]
        assert name.attrs["xml:lang"] == "en"

    def test_xlink_href_key(self):
        doc = parse_mods_xml(fixture("attrs.xml"))
        name = doc.root.find_all("name")[0]
        given = [p for p in name.find_all("namePart") if p.attrs.get("type") == "given"]
        assert given[0].attrs["xlink:href"] == "https://example.org/people/shuichi"

    def test_plain_attributes(self):
        doc = parse_mods_xml('<mods><name type="personal" usage="primary"/></mods>')
        name = doc.root.children[0]
        assert name.attrs == {"type": "personal", "usage": "primary"}


class TestRecognition:
    def test_unknown_element_preserved_but_unrecognized(self):
        doc = parse_mods_xml("<mods><frobnicate>x</frobnicate></mods>")
        child = doc.root.children[0]
        assert child.tag == "frobnicate"
        assert child.text == "x"
        assert not child.recognized

    def test_foreign_namespace_not_recognized(self):
        doc = parse_mods_xml('<mods><f:name xmlns:f="urn:other">x</f:name></mods>')
        child = doc.root.children[0]
        assert child.tag == "name"
        assert child.ns == "urn:other"
        assert not child.recognized

    def test_foreign_namespace_in_a_mods_record_not_recognized(self):
        doc = parse_mods_xml(
            '<mods xmlns="http://www.loc.gov/mods/v3" xmlns:f="urn:other">'
            "<f:namePart>x</f:namePart><namePart>y</namePart></mods>"
        )
        foreign, own = doc.root.children
        assert (foreign.tag, foreign.ns, foreign.recognized) == ("namePart", "urn:other", False)
        assert (own.tag, own.ns, own.recognized) == ("namePart", MODS_NS, True)

    def test_known_elements_recognized(self):
        doc = parse_mods_xml(fixture("dates.xml"))
        origin = doc.root.children[0]
        assert origin.recognized
        assert all(child.recognized for child in origin.children)


class TestRecords:
    def test_single_record(self):
        doc = parse_mods_xml(fixture("personal.xml"))
        assert [r.attrs.get("ID") for r in doc.records()] == ["rec1"]

    def test_collection_records(self):
        doc = parse_mods_xml(fixture("collection.xml"))
        assert [r.attrs.get("ID") for r in doc.records()] == ["c1", "c2"]

    def test_empty_collection(self):
        doc = parse_mods_xml("<modsCollection/>")
        assert doc.records() == []


class TestErrors:
    def test_malformed_reports_line_and_column(self):
        with pytest.raises(ModsParseError) as err:
            parse_mods_xml(fixture("malformed.xml"), source="malformed.xml")
        message = str(err.value)
        assert "malformed.xml" in message
        assert "line" in message and "column" in message

    def test_undeclared_prefix_is_a_parse_error(self):
        with pytest.raises(ModsParseError):
            parse_mods_xml("<mods><x:y>1</x:y></mods>")

    def test_wrong_root(self):
        with pytest.raises(ModsStructureError) as err:
            parse_mods_xml(fixture("wrongroot.xml"))
        assert "record" in str(err.value)

    def test_structure_error_is_a_parse_error(self):
        assert issubclass(ModsStructureError, ModsParseError)

    def test_wrong_namespace_root(self):
        with pytest.raises(ModsStructureError):
            parse_mods_xml('<mods xmlns="urn:not-mods"/>')

    def test_empty_input(self):
        with pytest.raises(ModsParseError):
            parse_mods_xml("")


def _parsed_fixtures():
    for path in sorted(FIXTURES.glob("*.xml")):
        try:
            yield path.name, parse_mods_xml(path.read_bytes())
        except ModsParseError:
            continue


class TestElementContract:
    def test_parsing_twice_gives_equal_trees(self):
        for name, doc in _parsed_fixtures():
            again = parse_mods_xml(fixture(name))
            assert again.root == doc.root, name
            assert all(type(element) is ModsElement for element in again.root.iter_tree())

    @pytest.mark.parametrize("field", ["tag", "ns", "attrs", "text", "children", "recognized"])
    def test_fields_cannot_be_assigned(self, field):
        root = parse_mods_xml(fixture("personal.xml")).root
        before = getattr(root, field)
        with pytest.raises(AttributeError):
            setattr(root, field, before)
        assert getattr(root, field) is before

    def test_collection_hand_count(self):
        # modsCollection, then per record: mods, name, namePart, affiliation.
        doc = parse_mods_xml(fixture("collection.xml"))
        record = ["mods", "name", "namePart", "affiliation"]
        assert [e.tag for e in doc.root.iter_tree()] == ["modsCollection"] + record * 2
        assert doc.element_count() == 9
        assert doc.root.find_all("mods") == doc.records() == list(doc.root.children)
        assert doc.root.find_all("name") == []
        for mods in doc.records():
            (name,) = mods.find_all("name")
            assert [child.tag for child in name.children] == ["namePart", "affiliation"]
            assert name.find_all("affiliation")[0].text == "Shared Org"
