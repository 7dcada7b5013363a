"""Mapping of parsed MODS records onto the typed graph vocabulary.

Each record becomes one item node; names, roles, affiliations, dates, and
the shared attribute groups become typed nodes linked to it. Anything the
mapping does not cover is reported as a warning, never an error. The one
error is a record ID that cannot name the record's nodes: one that is not
valid IRI text, or one that repeats within the document.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from typing import Optional

from .graph import RDF_TYPE, XSD_BOOLEAN, Graph, GraphError, Iri, Literal
from .modsxml import XLINK_NS, XML_NS, ModsDocument, local_name
from .vocab import VocabularyRegistry

XML_LANG = f"{{{XML_NS}}}lang"
XLINK_HREF = f"{{{XLINK_NS}}}href"

# Readable names of namespaced attributes, for warnings.
_ATTR_ALIASES = {XML_LANG: "xml:lang", XLINK_HREF: "xlink:href"}

DATE_ELEMENTS = {
    "dateIssued": "DateIssued",
    "dateCreated": "DateCreated",
    "dateCaptured": "DateCaptured",
    "dateModified": "DateModified",
    "dateValid": "DateValid",
    "dateOther": "DateOther",
    "copyrightDate": "CopyrightDate",
}

NAME_TYPE_VALUES = {
    "personal": "Personal",
    "corporate": "Corporate",
    "conference": "Conference",
    "family": "Family",
}

NAME_PART_TYPES = {"given": "FirstName", "family": "LastName"}

QUALIFIER_VALUES = {
    "approximate": "Approximate",
    "inferred": "Inferred",
    "questionable": "Questionable",
}

POINT_VALUES = {"start": "Start", "end": "End"}

ENCODING_VALUES = {"w3cdtf": "W3cdtf", "iso8601": "Iso8601"}


def _text(element: ET.Element) -> str:
    """The element's own text, without surrounding whitespace."""
    return (element.text or "").strip()


class MappingError(ValueError):
    """A record ID that cannot name the record's nodes."""


class MappingResult:
    """A mapped graph, the warnings gathered while producing it, and the
    record IDs it carries in document order."""

    __slots__ = ("graph", "warnings", "record_ids")

    def __init__(
        self, graph: Graph, warnings: Optional[list[str]] = None, record_ids: Optional[list[str]] = None
    ):
        self.graph = graph
        self.warnings = [] if warnings is None else warnings
        self.record_ids = [] if record_ids is None else record_ids


class _Ids(dict):
    """Registry names of one kind -> their ids in one graph, interned on first use."""

    def __init__(self, intern, resolve):
        super().__init__()
        self._intern, self._resolve = intern, resolve

    def __missing__(self, name: str) -> int:
        tid = self[name] = self._intern(self._resolve(name))
        return tid


class _DocumentContext:
    """Mutable state while mapping one document, on the graph's ids.

    The graph, the registry terms' ids, the organization table and the
    warning list are shared by the document's records; node minting, the
    name parts and the item are per record (start_record resets them).
    Each minted node and literal is interned once, when it is created.
    """

    def __init__(self, graph, registry, base_iri):
        self.graph = graph
        self.intern, self.add = graph._intern, graph._add_ids
        self.registry = registry
        self.base_iri = base_iri
        self.cls = _Ids(self.intern, registry.cls)
        self.prop = _Ids(self.intern, registry.prop)
        self.individual = _Ids(self.intern, registry.individual)
        self.rdf_type = self.intern(RDF_TYPE)
        self.warnings: list[str] = []
        self.org_table: dict[str, int] = {}

    def start_record(self, record_id: str) -> None:
        self.record_id = record_id
        self.counters: dict[str, int] = {}
        self.name_parts: set[int] = set()
        self.item = self.node("item", "ModsItem")

    def mint(self, kind: str) -> int:
        n = self.counters.get(kind, 0)
        self.counters[kind] = n + 1
        if self.record_id:
            return self.intern(Iri(f"{self.base_iri}{self.record_id}/{kind}{n}"))
        return self.intern(self.graph.fresh_blank())

    def warn(self, message: str) -> None:
        prefix = f"record {self.record_id}: " if self.record_id else ""
        self.warnings.append(prefix + message)

    def node(self, kind: str, class_name: str) -> int:
        new = self.mint(kind)
        self.add(new, self.rdf_type, self.cls[class_name])
        return new


def _individual_name(value: str) -> str:
    """Upper-camel identifier derived from an attribute value, or ''."""
    words = re.findall(r"[0-9A-Za-z]+", value)
    if not words:
        return ""
    return "".join(word[:1].upper() + word[1:] for word in words)


def _mint_vocab_individual(ctx: _DocumentContext, vocab_name: str, value: str):
    """An individual for an open-vocabulary value not predefined.

    The individual is typed as the vocabulary class so membership checks
    accept it; a warning records the extension.
    """
    local = _individual_name(value)
    if not local:
        ctx.warn(f"cannot derive a {vocab_name} individual from {value!r}, skipped")
        return None
    # Vocabulary extensions live under the registry base, not the node base.
    iri = ctx.intern(Iri(ctx.registry.base_iri + local))
    ctx.add(iri, ctx.rdf_type, ctx.cls[vocab_name])
    ctx.warn(f"minted {vocab_name} individual {local!r} for value {value!r}")
    return iri


def map_common_attributes(element: ET.Element, owner, ctx: _DocumentContext) -> None:
    """Shared attribute handling: display label, link, and language groups.

    At most one link node and one language node are created per element;
    nothing is added when none of the attributes are present.
    """
    add = ctx.add
    attrs = element.attrib

    label = attrs.get("displayLabel")
    if label is not None:
        add(owner, ctx.prop["hasDisplayLabel"], ctx.intern(Literal(label)))

    element_id = attrs.get("ID")
    if element_id is not None and owner in ctx.name_parts:
        ctx.warn(
            f"ID {element_id!r} on a namePart dropped: name parts must not carry IDs"
        )
        element_id = None
    href = attrs.get(XLINK_HREF, attrs.get("href"))
    if element_id is not None or href is not None:
        link = ctx.node("linkAttributes", "LinkAttributes")
        add(owner, ctx.prop["hasLinkAttributes"], link)
        if element_id is not None:
            add(link, ctx.prop["hasID"], ctx.intern(Literal(element_id)))
        if href is not None:
            add(link, ctx.prop["hasHref"], ctx.intern(Literal(href)))

    langs = []
    for key in ("lang", XML_LANG):
        value = attrs.get(key)
        if value is not None and value not in langs:
            langs.append(value)
    script = attrs.get("script")
    transliteration = attrs.get("transliteration")
    if langs or script is not None or transliteration is not None:
        lang_node = ctx.node("languageAttributes", "LanguageAttributes")
        add(owner, ctx.prop["hasLanguageAttributes"], lang_node)
        for value in langs:
            add(lang_node, ctx.prop["hasLang"], ctx.intern(Literal(value)))
        if script is not None:
            add(lang_node, ctx.prop["hasScript"], ctx.intern(Literal(script)))
        if transliteration is not None:
            add(lang_node, ctx.prop["hasTransliteration"], ctx.intern(Literal(transliteration)))


def _map_affiliation(text: str, agent, ctx: _DocumentContext) -> None:
    add = ctx.add
    org = ctx.org_table.get(text)
    if org is None:
        org = ctx.node("organization", "Organization")
        org_name = ctx.node("name", "Name")
        org_part = ctx.node("namePart", "NamePart")
        ctx.name_parts.add(org_part)
        add(org, ctx.prop["hasName"], org_name)
        add(org_name, ctx.prop["hasNamePart"], org_part)
        add(org_part, ctx.prop["hasValue"], ctx.intern(Literal(text)))
        ctx.org_table[text] = org
    add(agent, ctx.prop["hasAffiliation"], org)


def map_name(element: ET.Element, ctx: _DocumentContext):
    """One name element: agent, name, parts, roles, and related nodes."""
    add = ctx.add

    agent = ctx.node("agent", "Agent")
    name = ctx.node("name", "Name")
    add(agent, ctx.prop["hasName"], name)

    name_type = element.get("type")
    if name_type is not None:
        individual = NAME_TYPE_VALUES.get(name_type)
        if individual is None:
            ctx.warn(f"unknown name type {name_type!r}, skipped")
        else:
            add(name, ctx.prop["hasNameType"], ctx.individual[individual])

    if element.get("usage") == "primary":
        add(name, ctx.prop["isPrimaryInstance"], ctx.individual["Primary"])

    authority = element.get("authority")
    if authority is not None:
        info = ctx.node("authorityInfo", "AuthorityInfo")
        add(name, ctx.prop["hasAuthorityInfo"], info)
        add(info, ctx.prop["hasValue"], ctx.intern(Literal(authority)))

    map_common_attributes(element, name, ctx)

    for child in element:
        tag = local_name(child.tag)
        if tag == "namePart":
            text = _text(child)
            if not text:
                ctx.warn("empty namePart skipped")
                continue
            part = ctx.node("namePart", "NamePart")
            ctx.name_parts.add(part)
            add(name, ctx.prop["hasNamePart"], part)
            add(part, ctx.prop["hasValue"], ctx.intern(Literal(text)))
            part_type = child.get("type")
            if part_type is not None:
                individual = NAME_PART_TYPES.get(part_type)
                if individual is None:
                    ctx.warn(f"namePart type {part_type!r} has no individual, left untyped")
                else:
                    add(part, ctx.prop["hasNamePartType"], ctx.individual[individual])
            map_common_attributes(child, part, ctx)
        elif tag == "role":
            terms = [_text(term) for term in child if local_name(term.tag) == "roleTerm"]
            if not terms:
                ctx.warn("role without roleTerm skipped")
            for text in terms:
                if not text:
                    ctx.warn("empty roleTerm skipped")
                    continue
                role = ctx.node("agentRole", "AgentRole")
                add(role, ctx.prop["hasValue"], ctx.intern(Literal(text)))
                add(agent, ctx.prop["assumesAgentRole"], role)
                add(role, ctx.prop["hasRoleUnderName"], name)
                add(ctx.item, ctx.prop["providesAgentRole"], role)
        elif tag == "affiliation":
            text = _text(child)
            if not text:
                ctx.warn("empty affiliation skipped")
                continue
            _map_affiliation(text, agent, ctx)
        elif tag == "displayForm":
            text = _text(child)
            if not text:
                ctx.warn("empty displayForm skipped")
                continue
            add(name, ctx.prop["hasDisplayForm"], ctx.intern(Literal(text)))
        elif tag == "nameIdentifier":
            text = _text(child)
            if not text:
                ctx.warn("empty nameIdentifier skipped")
                continue
            identifier = ctx.node("nameIdentifier", "NameIdentifier")
            add(identifier, ctx.rdf_type, ctx.cls["Identifier"])
            add(name, ctx.prop["hasNameIdentifier"], identifier)
            add(identifier, ctx.prop["hasValue"], ctx.intern(Literal(text)))
            map_common_attributes(child, identifier, ctx)
        else:
            ctx.warn(f"unmapped element name/{tag or child.tag}")
    return name


def map_date(element: ET.Element, ctx: _DocumentContext, owner=None):
    """One date element: a date node with exactly one attribute node."""
    add = ctx.add
    if owner is None:
        owner = ctx.item

    tag = local_name(element.tag)
    text = _text(element)
    if not text:
        ctx.warn(f"empty {tag} skipped")
        return None

    date = ctx.node("dateInfo", "DateInfo")
    add(owner, ctx.prop["hasDateInfo"], date)
    add(date, ctx.prop["hasValue"], ctx.intern(Literal(text)))
    add(date, ctx.prop["isOfType"], ctx.individual[DATE_ELEMENTS[tag]])

    attrs_node = ctx.node("dateAttributes", "DateAttributes")
    add(date, ctx.prop["hasDateAttributes"], attrs_node)

    encoding = element.get("encoding")
    if encoding is not None:
        individual = ENCODING_VALUES.get(encoding.lower())
        if individual is not None:
            target = ctx.individual[individual]
        else:
            target = _mint_vocab_individual(ctx, "DateEncoding", encoding)
        if target is not None:
            add(attrs_node, ctx.prop["hasDateEncodingType"], target)

    key_date = element.get("keyDate")
    if key_date is not None:
        if key_date == "yes":
            add(attrs_node, ctx.prop["isKeyDate"], ctx.intern(Literal("true", XSD_BOOLEAN)))
        else:
            ctx.warn(f"keyDate value {key_date!r} is not 'yes', skipped")

    point = element.get("point")
    if point is not None:
        individual = POINT_VALUES.get(point.lower())
        if individual is None:
            ctx.warn(f"unknown point value {point!r}, skipped")
        else:
            add(attrs_node, ctx.prop["isStartOrEndPoint"], ctx.individual[individual])

    qualifier = element.get("qualifier")
    if qualifier is not None:
        individual = QUALIFIER_VALUES.get(qualifier.lower())
        if individual is None:
            ctx.warn(f"unknown qualifier value {qualifier!r}, skipped")
        else:
            add(attrs_node, ctx.prop["hasQualifier"], ctx.individual[individual])

    calendar = element.get("calendar")
    if calendar is not None:
        target = _mint_vocab_individual(ctx, "Calendar", calendar)
        if target is not None:
            add(attrs_node, ctx.prop["hasAlternativeCalendar"], target)

    map_common_attributes(element, date, ctx)
    return date


def _map_record_element(record: ET.Element, ctx: _DocumentContext) -> None:
    for key in record.attrib:
        if key not in ("ID", "version"):
            ctx.warn(f"unmapped attribute {_ATTR_ALIASES.get(key, key)!r} on record element")
    for child in record:
        tag = local_name(child.tag)
        if tag == "name":
            map_name(child, ctx)
        elif tag == "originInfo":
            for grandchild in child:
                date_tag = local_name(grandchild.tag)
                if date_tag in DATE_ELEMENTS:
                    map_date(grandchild, ctx)
                else:
                    ctx.warn(f"unmapped element originInfo/{date_tag or grandchild.tag}")
        elif tag in DATE_ELEMENTS:
            map_date(child, ctx)
        else:
            ctx.warn(f"unmapped element {tag or child.tag}")


def map_record(document: ModsDocument, registry: VocabularyRegistry, base_iri=None) -> MappingResult:
    """Map every record of a parsed document into one fresh graph.

    Nodes are minted as IRIs under the record ID when the record carries
    one, otherwise as blank nodes. Equal affiliation strings share one
    organization node across the whole document. Raises MappingError for
    a record ID that is not valid IRI text or that an earlier record of
    the document already carries (MODS types it xs:ID, unique per document).
    """
    if base_iri is None:
        base_iri = registry.base_iri
    elif not base_iri.endswith(("/", "#")):
        base_iri += "/"
    ctx = _DocumentContext(Graph(), registry, base_iri)
    record_ids: dict[str, None] = {}  # ordered, for MappingResult.record_ids
    for record in document.records():
        record_id = record.get("ID", "")
        if record_id:
            try:
                Iri(record_id)  # the ID goes verbatim into the node IRIs
            except GraphError:
                raise MappingError(f"invalid record ID {record_id!r}") from None
            if record_id in record_ids:
                raise MappingError(f"duplicate record ID {record_id!r}")
            record_ids[record_id] = None
        ctx.start_record(record_id)
        _map_record_element(record, ctx)
    return MappingResult(graph=ctx.graph, warnings=ctx.warnings, record_ids=list(record_ids))
