"""Mapping of parsed MODS records onto the typed graph vocabulary.

Each record becomes one item node; names, roles, affiliations, dates, and
the shared attribute groups become typed nodes linked to it. Anything the
mapping does not cover is reported as a warning, never an error. The one
error is a record ID that cannot name the record's nodes: one that is not
valid IRI text, or one that a record already mapped into the graph carries.

Attributes whose values come from a vocabulary are data: one table per
element (NAME_ATTRIBUTES, NAME_PART_ATTRIBUTES, DATE_ATTRIBUTES) that
_map_attributes reads in row order.  A row maps listed values to members
and says whether an unlisted value is warned about or minted.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from typing import NamedTuple, Optional, Union

from .graph import RDF_TYPE, XSD_BOOLEAN, Graph, Literal, _NOT_IRI_TEXT, escape_literal, format_term
from .modsxml import XLINK_NS, XML_NS, ModsDocument, local_name
from .vocab import VocabularyRegistry

XML_LANG = f"{{{XML_NS}}}lang"
XLINK_HREF = f"{{{XLINK_NS}}}href"

# Readable names of namespaced attributes, for warnings.
_ATTR_ALIASES = {XML_LANG: "xml:lang", XLINK_HREF: "xlink:href"}

# Date element -> its DateInfoType individual, the tag with a capital initial.
_DATES = "dateIssued dateCreated dateCaptured dateModified dateValid dateOther copyrightDate"
DATE_ELEMENTS = {tag: tag[0].upper() + tag[1:] for tag in _DATES.split()}

# The children of name whose text is their value; empty ones are skipped.
_NAME_TEXT_CHILDREN = ("namePart", "affiliation", "displayForm", "nameIdentifier")


class _Attribute(NamedTuple):
    """A table row: a listed value (looked up lower-cased if `lower`) becomes
    its member, an individual's name or a literal; an unlisted one is minted
    in the open vocabulary `mint`, if given, or else warned about with the
    format `warn`."""

    key: str
    prop: str
    members: dict[str, Union[str, Literal]]
    lower: bool = False
    warn: Optional[str] = None
    mint: Optional[str] = None


NAME_ATTRIBUTES = (
    _Attribute(
        "type", "hasNameType",
        {"personal": "Personal", "corporate": "Corporate",
         "conference": "Conference", "family": "Family"},
        warn="unknown name type {!r}, skipped",
    ),
    _Attribute(
        "usage", "isPrimaryInstance", {"primary": "Primary"},
        warn="unknown usage value {!r}, skipped",
    ),
)
NAME_PART_ATTRIBUTES = (
    _Attribute(
        "type", "hasNamePartType", {"given": "FirstName", "family": "LastName"},
        warn="namePart type {!r} has no individual, left untyped",
    ),
)
DATE_ATTRIBUTES = (
    _Attribute(
        "encoding", "hasDateEncodingType", {"w3cdtf": "W3cdtf", "iso8601": "Iso8601"},
        lower=True, mint="DateEncoding",
    ),
    _Attribute(
        "keyDate", "isKeyDate", {"yes": Literal("true", XSD_BOOLEAN)},
        warn="keyDate value {!r} is not 'yes', skipped",
    ),
    _Attribute(
        "point", "isStartOrEndPoint", {"start": "Start", "end": "End"},
        lower=True, warn="unknown point value {!r}, skipped",
    ),
    _Attribute(
        "qualifier", "hasQualifier",
        {"approximate": "Approximate", "inferred": "Inferred", "questionable": "Questionable"},
        lower=True, warn="unknown qualifier value {!r}, skipped",
    ),
    _Attribute("calendar", "hasAlternativeCalendar", {}, mint="Calendar"),
)

# The open vocabularies the tables mint individuals in, in row order.
_MINTED = [row.mint for row in NAME_ATTRIBUTES + NAME_PART_ATTRIBUTES + DATE_ATTRIBUTES if row.mint]

# The language group's attributes and their properties, in order; lang and
# xml:lang both give hasLang, so equal values of the two add one triple.
_LANGUAGE_ATTRIBUTES = (
    ("lang", "hasLang"), (XML_LANG, "hasLang"),
    ("script", "hasScript"), ("transliteration", "hasTransliteration"),
)


def _text(element: ET.Element) -> str:
    """The element's own text, without surrounding whitespace."""
    return (element.text or "").strip()


class MappingError(ValueError):
    """A record ID that cannot name the record's nodes."""


class MappingResult(NamedTuple):
    """The graph mapped into, the warnings gathered while mapping the
    document, and the document's record IDs in document order."""

    graph: Graph
    warnings: list[str]
    record_ids: list[str]


class _Ids(dict):
    """Registry names of one kind -> their ids in one graph, interned on first use."""

    def __init__(self, intern, resolve):
        super().__init__()
        self._intern, self._resolve = intern, resolve

    def __missing__(self, name: str) -> int:
        tid = self[name] = self._intern(format_term(self._resolve(name)))
        return tid


class _DocumentContext:
    """Mutable state while mapping one document, on the graph's ids.

    The graph, the registry terms' ids, the organization table and the
    warning list are shared by the document's records; node minting and
    the item are per record (start_record resets them).  Each minted node
    and literal is interned once, when it is created, under a key written
    from checked parts (base, record ID, a fixed kind) or by escape_literal.
    """

    def __init__(self, graph, registry):
        self.graph = graph
        self.intern, self.add = graph._intern, graph._add_ids
        self.registry = registry
        self.base_iri = registry.base_iri
        self.cls = _Ids(self.intern, registry.cls)
        self.prop = _Ids(self.intern, registry.prop)
        self.individual = _Ids(self.intern, registry.individual)
        self.rdf_type = self.intern(format_term(RDF_TYPE))
        self.warnings: list[str] = []
        self.org_table: dict[str, int] = {}

    def start_record(self, record_id: str) -> None:
        self.record_id = record_id
        self.counters: dict[str, int] = {}
        self.item = self.node("item", "ModsItem")

    def mint(self, kind: str) -> int:
        n = self.counters.get(kind, 0)
        self.counters[kind] = n + 1
        if self.record_id:
            return self.intern(f"<{self.base_iri}{self.record_id}/{kind}{n}>")
        return self.intern(self.graph._fresh_key())

    def literal(self, text: str) -> int:
        """The id of the plain literal of the text."""
        return self.intern(f'"{escape_literal(text)}"')

    def warn(self, message: str) -> None:
        prefix = f"record {self.record_id}: " if self.record_id else ""
        self.warnings.append(prefix + message)

    def node(self, kind: str, class_name: str) -> int:
        new = self.mint(kind)
        self.add(new, self.rdf_type, self.cls[class_name])
        return new


def _map_attributes(element: ET.Element, owner, table, ctx: _DocumentContext) -> None:
    """The element's attributes that the table's rows name, in row order.

    An unlisted value of an open vocabulary mints an individual named by the
    value's words in upper camel case, typed as the vocabulary class so
    membership checks accept it; a warning records the extension.  A name
    that is already one of the vocabulary's members maps to that member;
    any other name the registry holds (a class, a property or another
    vocabulary's member) is warned about and skipped, so no minted
    individual lands on a vocabulary term's IRI.  So is a name the graph
    already types as an individual of another open vocabulary, whichever
    document minted it.
    """
    for row in table:
        value = element.get(row.key)
        if value is None:
            continue
        member = row.members.get(value.lower() if row.lower else value)
        if member is not None:
            target = ctx.individual[member] if isinstance(member, str) else ctx.intern(format_term(member))
        elif row.mint is not None:
            local = "".join(w[:1].upper() + w[1:] for w in re.findall(r"[0-9A-Za-z]+", value))
            if not local:
                ctx.warn(f"cannot derive a {row.mint} individual from {value!r}, skipped")
                continue
            registry = ctx.registry
            if local in registry.vocabularies[row.mint].member_names:
                target = ctx.individual[local]
            elif (
                local in registry.classes
                or local in registry.properties
                or any(local in vocab.member_names for vocab in registry.vocabularies.values())
            ):
                ctx.warn(
                    f"cannot mint a {row.mint} individual from {value!r}: "
                    f"{local!r} is a vocabulary term, skipped"
                )
                continue
            else:
                key = f"<{ctx.base_iri}{local}>"
                tid = ctx.graph._ids.get(key)
                others = [] if tid is None else [
                    vocab for vocab in _MINTED
                    if vocab != row.mint and (tid, ctx.rdf_type, ctx.cls[vocab]) in ctx.graph._triples
                ]
                if others:
                    ctx.warn(
                        f"cannot mint a {row.mint} individual from {value!r}: "
                        f"{local!r} is a minted {others[0]} individual, skipped"
                    )
                    continue
                target = ctx.intern(key)
                ctx.add(target, ctx.rdf_type, ctx.cls[row.mint])
                ctx.warn(f"minted {row.mint} individual {local!r} for value {value!r}")
        else:
            ctx.warn(row.warn.format(value))
            continue
        ctx.add(owner, ctx.prop[row.prop], target)


def map_common_attributes(element: ET.Element, owner, ctx: _DocumentContext, name_part=False) -> None:
    """Shared attribute handling: display label, link, and language groups.

    At most one link node and one language node are created per element;
    nothing is added when none of the attributes are present.  A name
    part's ID is dropped with a warning.
    """
    add = ctx.add
    attrs = element.attrib

    label = attrs.get("displayLabel")
    if label is not None:
        add(owner, ctx.prop["hasDisplayLabel"], ctx.literal(label))

    element_id = attrs.get("ID")
    if element_id is not None and name_part:
        ctx.warn(f"ID {element_id!r} on a namePart dropped: name parts must not carry IDs")
        element_id = None
    href = attrs.get(XLINK_HREF, attrs.get("href"))
    if element_id is not None or href is not None:
        link = ctx.node("linkAttributes", "LinkAttributes")
        add(owner, ctx.prop["hasLinkAttributes"], link)
        if element_id is not None:
            add(link, ctx.prop["hasID"], ctx.literal(element_id))
        if href is not None:
            add(link, ctx.prop["hasHref"], ctx.literal(href))

    values = [(prop, attrs[key]) for key, prop in _LANGUAGE_ATTRIBUTES if key in attrs]
    if values:
        lang_node = ctx.node("languageAttributes", "LanguageAttributes")
        add(owner, ctx.prop["hasLanguageAttributes"], lang_node)
        for prop, value in values:
            add(lang_node, ctx.prop[prop], ctx.literal(value))


def _map_affiliation(text: str, agent, ctx: _DocumentContext) -> None:
    add = ctx.add
    org = ctx.org_table.get(text)
    if org is None:
        org = ctx.node("organization", "Organization")
        org_name = ctx.node("name", "Name")
        org_part = ctx.node("namePart", "NamePart")
        add(org, ctx.prop["hasName"], org_name)
        add(org_name, ctx.prop["hasNamePart"], org_part)
        add(org_part, ctx.prop["hasValue"], ctx.literal(text))
        ctx.org_table[text] = org
    add(agent, ctx.prop["hasAffiliation"], org)


def _map_role(element: ET.Element, agent, name, ctx: _DocumentContext) -> None:
    add = ctx.add
    found = False
    for term in element:
        tag = local_name(term.tag)
        if tag != "roleTerm":
            ctx.warn(f"unmapped element name/role/{tag or term.tag}")
            continue
        found = True
        text = _text(term)
        if not text:
            ctx.warn("empty roleTerm skipped")
            continue
        role = ctx.node("agentRole", "AgentRole")
        add(role, ctx.prop["hasValue"], ctx.literal(text))
        add(agent, ctx.prop["assumesAgentRole"], role)
        add(role, ctx.prop["hasRoleUnderName"], name)
        add(ctx.item, ctx.prop["providesAgentRole"], role)
    if not found:
        ctx.warn("role without roleTerm skipped")


def map_name(element: ET.Element, ctx: _DocumentContext) -> None:
    """One name element: agent, name, parts, roles, and related nodes."""
    add = ctx.add

    agent = ctx.node("agent", "Agent")
    name = ctx.node("name", "Name")
    add(agent, ctx.prop["hasName"], name)

    _map_attributes(element, name, NAME_ATTRIBUTES, ctx)
    authority = element.get("authority")
    if authority is not None:
        info = ctx.node("authorityInfo", "AuthorityInfo")
        add(name, ctx.prop["hasAuthorityInfo"], info)
        add(info, ctx.prop["hasValue"], ctx.literal(authority))
    map_common_attributes(element, name, ctx)

    for child in element:
        tag = local_name(child.tag)
        if tag == "role":
            _map_role(child, agent, name, ctx)
            continue
        if tag not in _NAME_TEXT_CHILDREN:
            ctx.warn(f"unmapped element name/{tag or child.tag}")
            continue
        text = _text(child)
        if not text:
            ctx.warn(f"empty {tag} skipped")
        elif tag == "namePart":
            part = ctx.node("namePart", "NamePart")
            add(name, ctx.prop["hasNamePart"], part)
            add(part, ctx.prop["hasValue"], ctx.literal(text))
            _map_attributes(child, part, NAME_PART_ATTRIBUTES, ctx)
            map_common_attributes(child, part, ctx, name_part=True)
        elif tag == "affiliation":
            _map_affiliation(text, agent, ctx)
        elif tag == "displayForm":
            add(name, ctx.prop["hasDisplayForm"], ctx.literal(text))
        else:
            identifier = ctx.node("nameIdentifier", "NameIdentifier")
            add(identifier, ctx.rdf_type, ctx.cls["Identifier"])
            add(name, ctx.prop["hasNameIdentifier"], identifier)
            add(identifier, ctx.prop["hasValue"], ctx.literal(text))
            map_common_attributes(child, identifier, ctx)


def map_date(element: ET.Element, ctx: _DocumentContext) -> None:
    """One date element of the item: a date node with exactly one attribute node."""
    add = ctx.add
    tag = local_name(element.tag)
    text = _text(element)
    if not text:
        ctx.warn(f"empty {tag} skipped")
        return

    date = ctx.node("dateInfo", "DateInfo")
    add(ctx.item, ctx.prop["hasDateInfo"], date)
    add(date, ctx.prop["hasValue"], ctx.literal(text))
    add(date, ctx.prop["isOfType"], ctx.individual[DATE_ELEMENTS[tag]])

    attrs_node = ctx.node("dateAttributes", "DateAttributes")
    add(date, ctx.prop["hasDateAttributes"], attrs_node)
    _map_attributes(element, attrs_node, DATE_ATTRIBUTES, ctx)
    map_common_attributes(element, date, ctx)


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


def map_record(
    document: ModsDocument, registry: VocabularyRegistry, graph: Optional[Graph] = None
) -> MappingResult:
    """Map every record of a parsed document into `graph`, or a fresh one.

    Nodes are minted as IRIs under the registry's base and the record ID
    when the record carries one, otherwise as blank nodes new to the graph.
    Equal affiliation strings share one organization node across the
    document. A child of a modsCollection that is not a record is warned
    about, in document order. Raises MappingError for a record ID that is
    not valid IRI text or that a record already in the graph carries (MODS
    types it xs:ID); the records mapped before it stay in the graph.
    """
    ctx = _DocumentContext(Graph() if graph is None else graph, registry)
    record_ids: list[str] = []
    root = document.root
    for record in (root,) if local_name(root.tag) == "mods" else root:
        tag = local_name(record.tag)
        if tag != "mods":
            ctx.warnings.append(f"unmapped element modsCollection/{tag or record.tag}")
            continue
        record_id = record.get("ID", "")
        if record_id:
            # The ID goes verbatim into the node IRIs, after the base.
            if _NOT_IRI_TEXT.search(record_id):
                raise MappingError(f"invalid record ID {record_id!r}")
            if f"<{ctx.base_iri}{record_id}/item0>" in ctx.graph._ids:  # as mint writes it
                raise MappingError(f"duplicate record ID {record_id!r}")
            record_ids.append(record_id)
        ctx.start_record(record_id)
        _map_record_element(record, ctx)
    return MappingResult(ctx.graph, ctx.warnings, record_ids)
