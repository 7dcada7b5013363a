"""XML parsing: tree shape, namespaces, records, error reporting."""

import pathlib
import xml.etree.ElementTree as ET

import pytest

from mmods.modsxml import (
    MODS_NS,
    XLINK_NS,
    XML_NS,
    ModsParseError,
    ModsStructureError,
    local_name,
    parse_mods_xml,
)
from mmods.mapping import map_record
from mmods.vocab import VocabularyRegistry

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def fixture(name: str) -> bytes:
    return (FIXTURES / name).read_bytes()


class TestParsing:
    def test_minimal_record(self):
        doc = parse_mods_xml("<mods><titleInfo><title>T</title></titleInfo></mods>")
        assert doc.root.tag == "mods"
        (branch,) = doc.root
        assert branch.tag == "titleInfo"
        assert branch[0].tag == "title"
        assert branch[0].text == "T"

    def test_namespaced_record(self):
        doc = parse_mods_xml(fixture("personal.xml"))
        assert doc.root.tag == f"{{{MODS_NS}}}mods"
        assert doc.root.get("ID") == "rec1"

    def test_bare_record(self):
        doc = parse_mods_xml(fixture("corporate.xml"))
        assert doc.root.tag == "mods"
        assert doc.root.get("ID") == "org-record"

    def test_element_count_matches_hand_count(self):
        # mods, titleInfo, title, name, namePart, role, roleTerm
        doc = parse_mods_xml(
            "<mods><titleInfo><title>T</title></titleInfo>"
            "<name><namePart>N</namePart><role><roleTerm>author</roleTerm></role></name></mods>"
        )
        assert doc.element_count() == 7

    def test_bytes_and_str_agree(self):
        raw = fixture("conference.xml")
        assert ET.tostring(parse_mods_xml(raw).root) == ET.tostring(
            parse_mods_xml(raw.decode("utf-8")).root
        )

    def test_source_is_kept(self):
        doc = parse_mods_xml("<mods/>", source="x.xml")
        assert doc.source == "x.xml"


class TestAttributes:
    def test_xml_lang_key(self):
        doc = parse_mods_xml(fixture("attrs.xml"))
        name = doc.root.find(f"{{{MODS_NS}}}name")
        assert name.get(f"{{{XML_NS}}}lang") == "en"

    def test_xlink_href_key(self):
        doc = parse_mods_xml(fixture("attrs.xml"))
        name = doc.root.find(f"{{{MODS_NS}}}name")
        given = [p for p in name.findall(f"{{{MODS_NS}}}namePart") if p.get("type") == "given"]
        assert given[0].get(f"{{{XLINK_NS}}}href") == "https://example.org/people/shuichi"

    def test_plain_attributes(self):
        doc = parse_mods_xml('<mods><name type="personal" usage="primary"/></mods>')
        assert doc.root[0].attrib == {"type": "personal", "usage": "primary"}


class TestRecognition:
    """local_name takes MODS-namespace and unqualified tags as MODS, and no
    other namespace."""

    def test_mods_and_unqualified_tags(self):
        assert local_name(f"{{{MODS_NS}}}namePart") == "namePart"
        assert local_name("namePart") == "namePart"
        assert local_name(f"{{{MODS_NS}/}}namePart") is None

    def test_unknown_element_preserved_but_unrecognized(self):
        doc = parse_mods_xml("<mods><frobnicate>x</frobnicate></mods>")
        (child,) = doc.root
        assert (child.tag, child.text) == ("frobnicate", "x")
        result = map_record(doc, VocabularyRegistry())
        assert result.warnings == ["unmapped element frobnicate"]

    def test_foreign_namespace_not_recognized(self):
        doc = parse_mods_xml('<mods><f:name xmlns:f="urn:other">x</f:name></mods>')
        (child,) = doc.root
        assert (child.tag, child.text) == ("{urn:other}name", "x")
        assert local_name(child.tag) is None

    def test_foreign_namespace_in_a_mods_record_not_recognized(self):
        doc = parse_mods_xml(
            '<mods xmlns="http://www.loc.gov/mods/v3" xmlns:f="urn:other">'
            "<f:namePart>x</f:namePart><namePart>y</namePart></mods>"
        )
        foreign, own = doc.root
        assert (foreign.tag, local_name(foreign.tag)) == ("{urn:other}namePart", None)
        assert (own.tag, local_name(own.tag)) == (f"{{{MODS_NS}}}namePart", "namePart")

    def test_known_elements_recognized(self):
        doc = parse_mods_xml(fixture("dates.xml"))
        (origin,) = doc.root
        assert local_name(origin.tag) == "originInfo"
        assert all(local_name(child.tag) for child in origin)


class TestRecords:
    def test_single_record(self):
        doc = parse_mods_xml(fixture("personal.xml"))
        assert [r.get("ID") for r in doc.records()] == ["rec1"]

    def test_collection_records(self):
        doc = parse_mods_xml(fixture("collection.xml"))
        assert [r.get("ID") for r in doc.records()] == ["c1", "c2"]

    def test_empty_collection(self):
        doc = parse_mods_xml("<modsCollection/>")
        assert doc.records() == []

    def test_foreign_mods_in_a_collection_is_not_a_record(self):
        doc = parse_mods_xml(
            '<modsCollection xmlns="http://www.loc.gov/mods/v3" xmlns:x="urn:other">'
            '<mods ID="a"/><x:mods ID="b"/><note/><mods ID="c"/></modsCollection>'
        )
        assert [r.get("ID") for r in doc.records()] == ["a", "c"]


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
        # The message names the root's local name, whatever its namespace.
        with pytest.raises(ModsStructureError, match="got 'mods'$"):
            parse_mods_xml('<mods xmlns="urn:not-mods"/>')

    def test_empty_input(self):
        with pytest.raises(ModsParseError):
            parse_mods_xml("")

    @pytest.mark.parametrize("encoding", ["foo", "rot13", "utf-7", "utf-32", "undefined"])
    def test_undecodable_encoding(self, encoding):
        # Unknown to Python, not a text codec, or a codec expat cannot use.
        # The declaration decodes bytes only; text is read as it is.
        raw = f'<?xml version="1.0" encoding="{encoding}"?><mods/>'
        with pytest.raises(ModsParseError, match="^rec.xml: unsupported XML encoding: "):
            parse_mods_xml(raw.encode("ascii"), source="rec.xml")
        assert parse_mods_xml(raw).root.tag == "mods"

    def test_text_is_not_decoded_again(self):
        # Text declaring another encoding was once encoded as UTF-8 and then
        # decoded by the declaration, which read "é" as "Ã©".
        raw = '<?xml version="1.0" encoding="ISO-8859-1"?><mods><name><namePart>é</namePart></name></mods>'
        assert parse_mods_xml(raw).root[0][0].text == "é"
        assert ET.tostring(parse_mods_xml(raw.encode("latin-1")).root) == ET.tostring(
            parse_mods_xml(raw).root
        )


class TestTreeWithoutRecursion:
    def test_nesting_deeper_than_the_recursion_limit(self):
        depth = 20_000
        doc = parse_mods_xml("<mods><name>" + "<x>" * depth + "</x>" * depth + "</name></mods>")
        assert doc.element_count() == depth + 2
        element = doc.root[0]
        for _ in range(depth):
            (element,) = element
        assert element.tag == "x" and len(element) == 0


class TestElementContract:
    def test_parsing_twice_gives_equal_trees(self):
        for path in sorted(FIXTURES.glob("*.xml")):
            try:
                doc = parse_mods_xml(path.read_bytes())
            except ModsParseError:
                continue
            again = parse_mods_xml(path.read_bytes())
            assert ET.tostring(again.root) == ET.tostring(doc.root), path.name

    def test_collection_hand_count(self):
        # modsCollection, then per record: mods, name, namePart, affiliation.
        doc = parse_mods_xml(fixture("collection.xml"))
        record = ["mods", "name", "namePart", "affiliation"]
        assert [local_name(e.tag) for e in doc.root.iter()] == ["modsCollection"] + record * 2
        assert doc.element_count() == 9
        assert doc.records() == list(doc.root)
        for mods in doc.records():
            (name,) = mods
            assert [local_name(child.tag) for child in name] == ["namePart", "affiliation"]
            assert name[1].text == "Shared Org"
