"""MODS XML parsing into an ElementTree.

Namespace-aware: elements in the MODS namespace and unqualified elements are
treated alike, and `local_name` is the one place that says so.  Elements of
any other namespace stay in the tree under their Clark-notation tags, for
mapping to report as unmapped.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import NamedTuple, Optional

MODS_NS = "http://www.loc.gov/mods/v3"
XML_NS = "http://www.w3.org/XML/1998/namespace"
XLINK_NS = "http://www.w3.org/1999/xlink"
_MODS_PREFIX = f"{{{MODS_NS}}}"


class ModsParseError(ValueError):
    """Malformed XML or a document that is not a MODS record."""


class ModsStructureError(ModsParseError):
    """Well-formed XML whose root is not mods or modsCollection."""


def local_name(tag: str) -> Optional[str]:
    """The local name of a MODS-namespace or unqualified tag; None for a tag
    in any other namespace."""
    if tag.startswith(_MODS_PREFIX):
        return tag[len(_MODS_PREFIX) :]
    return None if tag.startswith("{") else tag


class ModsDocument(NamedTuple):
    """A parsed document: its root `xml.etree.ElementTree.Element`, a mods
    record or a modsCollection, and the source it was read from."""

    root: ET.Element
    source: str

    def records(self) -> list[ET.Element]:
        """The mods record elements: the root itself or collection members."""
        if local_name(self.root.tag) == "mods":
            return [self.root]
        return [child for child in self.root if local_name(child.tag) == "mods"]

    def element_count(self) -> int:
        return sum(1 for _ in self.root.iter())


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
    if local_name(root.tag) not in ("mods", "modsCollection"):
        raise ModsStructureError(
            f"{source or 'input'}: root element must be mods or modsCollection, "
            f"got {root.tag.rpartition('}')[2]!r}"
        )
    return ModsDocument(root=root, source=source)
