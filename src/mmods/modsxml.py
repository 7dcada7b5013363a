"""MODS XML parsing into a plain element tree.

Namespace-aware: elements in the MODS namespace and unqualified elements are
treated alike, xml:lang and xlink:href attributes are kept under readable
keys, and unknown elements stay in the tree marked unrecognized so mapping
can report them.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Iterator, NamedTuple

MODS_NS = "http://www.loc.gov/mods/v3"
XML_NS = "http://www.w3.org/XML/1998/namespace"
XLINK_NS = "http://www.w3.org/1999/xlink"

_ATTR_ALIASES = {
    f"{{{XML_NS}}}lang": "xml:lang",
    f"{{{XLINK_NS}}}href": "xlink:href",
}

RECOGNIZED_ELEMENTS = frozenset(
    {
        "mods",
        "modsCollection",
        "abstract",
        "accessCondition",
        "affiliation",
        "classification",
        "copyrightDate",
        "dateCaptured",
        "dateCreated",
        "dateIssued",
        "dateModified",
        "dateOther",
        "dateValid",
        "description",
        "displayForm",
        "edition",
        "extension",
        "extent",
        "form",
        "frequency",
        "genre",
        "geographic",
        "identifier",
        "issuance",
        "language",
        "languageTerm",
        "location",
        "name",
        "nameIdentifier",
        "namePart",
        "nonSort",
        "note",
        "originInfo",
        "part",
        "partName",
        "partNumber",
        "physicalDescription",
        "place",
        "placeTerm",
        "publisher",
        "recordChangeDate",
        "recordCreationDate",
        "recordIdentifier",
        "recordInfo",
        "recordOrigin",
        "relatedItem",
        "role",
        "roleTerm",
        "scriptTerm",
        "subTitle",
        "subject",
        "tableOfContents",
        "targetAudience",
        "temporal",
        "title",
        "titleInfo",
        "topic",
        "typeOfResource",
        "url",
    }
)


class ModsParseError(ValueError):
    """Malformed XML or a document that is not a MODS record."""


class ModsStructureError(ModsParseError):
    """Well-formed XML whose root is not mods or modsCollection."""


class ModsElement(NamedTuple):
    """One element: local tag, namespace, attributes, text, children.

    Immutable: assigning to a field raises AttributeError.
    """

    tag: str
    ns: str
    attrs: dict
    text: str
    children: tuple
    recognized: bool

    def find_all(self, tag: str) -> list["ModsElement"]:
        return [child for child in self.children if child.tag == tag]

    def iter_tree(self) -> Iterator["ModsElement"]:
        """This element and its descendants in document order (pre-order)."""
        stack = [self]
        while stack:
            element = stack.pop()
            yield element
            stack.extend(reversed(element.children))


class ModsDocument(NamedTuple):
    root: ModsElement
    source: str

    def records(self) -> list[ModsElement]:
        """The mods record elements: the root itself or collection members."""
        if self.root.tag == "mods":
            return [self.root]
        return self.root.find_all("mods")

    def element_count(self) -> int:
        return sum(1 for _ in self.root.iter_tree())


def _split_tag(raw: str) -> tuple[str, str]:
    if raw.startswith("{"):
        ns, _, local = raw[1:].partition("}")
        return local, ns
    return raw, ""


def _element(node: ET.Element, children: tuple) -> ModsElement:
    local, ns = _split_tag(node.tag)
    return ModsElement(
        local,
        ns,
        {_ATTR_ALIASES.get(key, key): value for key, value in node.attrib.items()},
        (node.text or "").strip(),
        children,
        ns in ("", MODS_NS) and local in RECOGNIZED_ELEMENTS,
    )


def _convert(root: ET.Element) -> ModsElement:
    """The ModsElement tree of an ElementTree element.

    Built with an explicit stack, so any depth the XML parser accepts
    converts: each element is made once all its children are, a leaf at once.
    """
    # Per open element: the node, an iterator over its children and the
    # children converted so far.
    stack = [(root, iter(root), [])]
    while True:
        node, pending, done = stack[-1]
        for child in pending:
            if len(child):
                stack.append((child, iter(child), []))
                break
            done.append(_element(child, ()))
        else:
            stack.pop()
            element = _element(node, tuple(done))
            if not stack:
                return element
            stack[-1][2].append(element)


def parse_mods_xml(data, source: str = "") -> ModsDocument:
    """Parse bytes or text into a ModsDocument.

    Raises ModsParseError with line and column for malformed XML, and for
    an encoding the XML parser cannot decode, and ModsStructureError when
    the root is not a record or collection.  Text is taken as already
    decoded: an encoding named in its XML declaration applies to bytes only.
    """
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        line, column = exc.position
        raise ModsParseError(
            f"{source or 'input'}: malformed XML at line {line}, column {column}: {exc.msg}"
        ) from exc
    except (LookupError, ValueError) as exc:
        # A declared encoding Python does not know, or one expat cannot use
        # (a multi-byte or non-text codec).
        raise ModsParseError(f"{source or 'input'}: unsupported XML encoding: {exc}") from exc
    converted = _convert(root)
    if converted.tag not in ("mods", "modsCollection") or converted.ns not in ("", MODS_NS):
        raise ModsStructureError(
            f"{source or 'input'}: root element must be mods or modsCollection, "
            f"got {converted.tag!r}"
        )
    return ModsDocument(root=converted, source=source)
