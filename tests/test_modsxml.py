"""XML parsing: tree shape, attribute normalization, error reporting."""

import pathlib
import xml.etree.ElementTree as ET

import pytest

from mmods.modsxml import (
    MODS_NS,
    RECOGNIZED_ELEMENTS,
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
        assert parse_mods_xml(raw).root.children[0].children[0].text == "é"
        assert parse_mods_xml(raw.encode("latin-1")).root == parse_mods_xml(raw).root


def _parsed_fixtures():
    for path in sorted(FIXTURES.glob("*.xml")):
        try:
            yield path.name, parse_mods_xml(path.read_bytes())
        except ModsParseError:
            continue


def _convert_recursively(node):
    """The element tree conversion as a plain recursion, for comparison."""
    tag = node.tag
    local, ns = (tag[1:].split("}")[::-1] if tag.startswith("{") else (tag, ""))
    aliases = {
        "{http://www.w3.org/XML/1998/namespace}lang": "xml:lang",
        "{http://www.w3.org/1999/xlink}href": "xlink:href",
    }
    return ModsElement(
        local,
        ns,
        {aliases.get(key, key): value for key, value in node.attrib.items()},
        (node.text or "").strip(),
        tuple(map(_convert_recursively, node)),
        ns in ("", MODS_NS) and local in RECOGNIZED_ELEMENTS,
    )


# Branches of different depths and widths, so a child list is closed while
# its parent still has children to come.
_BRANCHY = (
    '<mods xmlns="http://www.loc.gov/mods/v3" xml:lang="en"><name type="personal">'
    '<namePart>A</namePart><x><y><z a="1">deep</z></y><y/></x><namePart>B</namePart></name>'
    "<note/><originInfo><dateIssued>2001</dateIssued></originInfo>"
    '<f:x xmlns:f="urn:f"><namePart/></f:x></mods>'
)


class TestTreeWithoutRecursion:
    def test_same_trees_as_a_recursive_conversion(self):
        sources = [_BRANCHY, *(fixture(name) for name, _ in _parsed_fixtures())]
        for source in sources:
            expected = _convert_recursively(ET.fromstring(source))
            assert parse_mods_xml(source).root == expected

    def test_iter_tree_is_document_order(self):
        doc = parse_mods_xml(_BRANCHY)
        tags = [e.tag for e in doc.root.iter_tree()]
        assert tags == [node.tag.rpartition("}")[2] for node in ET.fromstring(_BRANCHY).iter()]
        assert tags[:8] == ["mods", "name", "namePart", "x", "y", "z", "y", "namePart"]
        assert doc.element_count() == len(tags) == 13

    def test_nesting_deeper_than_the_recursion_limit(self):
        depth = 20_000
        doc = parse_mods_xml("<mods><name>" + "<x>" * depth + "</x>" * depth + "</name></mods>")
        assert doc.element_count() == depth + 2
        element = doc.root.children[0]
        for _ in range(depth):
            (element,) = element.children
        assert element.tag == "x" and element.children == ()


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
