"""Mapping of parsed MODS records onto the typed graph vocabulary.

Each record becomes one item node; names, roles, affiliations, dates, and
the shared attribute groups become typed nodes linked to it. Anything the
mapping does not cover is reported as a warning, never an error. The one
error is a record ID that cannot name the record's nodes: one that is not
valid IRI text, or one that repeats within the document.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .graph import RDF_TYPE, XSD_BOOLEAN, Graph, GraphError, Iri, Literal
from .modsxml import ModsDocument, ModsElement
from .vocab import VocabularyRegistry

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


class MappingError(ValueError):
    """A record ID that cannot name the record's nodes."""


@dataclass
class MappingResult:
    """A mapped graph, the warnings gathered while producing it, and the
    record IDs it carries in document order."""

    graph: Graph
    warnings: list[str] = field(default_factory=list)
    record_ids: list[str] = field(default_factory=list)


class _RecordContext:
    """Mutable state while mapping one record.

    The organization table and warning list are shared across the records
    of one document; node minting and the item handle are per record.
    """

    def __init__(self, graph, registry, base_iri, record_id, warnings, org_table):
        self.graph = graph
        self.registry = registry
        self.base_iri = base_iri
        self.record_id = record_id
        self.warnings = warnings
        self.org_table = org_table
        self.counters: dict[str, int] = {}
        self.name_parts: set = set()
        self.item = self.mint("item")
        graph.add(self.item, RDF_TYPE, registry.cls("ModsItem"))

    def mint(self, kind: str):
        n = self.counters.get(kind, 0)
        self.counters[kind] = n + 1
        if self.record_id:
            return Iri(f"{self.base_iri}{self.record_id}/{kind}{n}")
        return self.graph.fresh_blank()

    def warn(self, message: str) -> None:
        prefix = f"record {self.record_id}: " if self.record_id else ""
        self.warnings.append(prefix + message)

    def node(self, kind: str, class_name: str):
        new = self.mint(kind)
        self.graph.add(new, RDF_TYPE, self.registry.cls(class_name))
        return new


def _individual_name(value: str) -> str:
    """Upper-camel identifier derived from an attribute value, or ''."""
    words = re.findall(r"[0-9A-Za-z]+", value)
    if not words:
        return ""
    return "".join(word[:1].upper() + word[1:] for word in words)


def _mint_vocab_individual(ctx: _RecordContext, vocab_name: str, value: str):
    """An individual for an open-vocabulary value not predefined.

    The individual is typed as the vocabulary class so membership checks
    accept it; a warning records the extension.
    """
    local = _individual_name(value)
    if not local:
        ctx.warn(f"cannot derive a {vocab_name} individual from {value!r}, skipped")
        return None
    # Vocabulary extensions live under the registry base, not the node base.
    iri = Iri(ctx.registry.base_iri + local)
    ctx.graph.add(iri, RDF_TYPE, ctx.registry.cls(vocab_name))
    ctx.warn(f"minted {vocab_name} individual {local!r} for value {value!r}")
    return iri


def map_common_attributes(element: ModsElement, owner, ctx: _RecordContext) -> None:
    """Shared attribute handling: display label, link, and language groups.

    At most one link node and one language node are created per element;
    nothing is added when none of the attributes are present.
    """
    reg = ctx.registry
    graph = ctx.graph
    attrs = element.attrs

    label = attrs.get("displayLabel")
    if label is not None:
        graph.add(owner, reg.prop("hasDisplayLabel"), Literal(label))

    element_id = attrs.get("ID")
    if element_id is not None and owner in ctx.name_parts:
        ctx.warn(
            f"ID {element_id!r} on a namePart dropped: name parts must not carry IDs"
        )
        element_id = None
    href = attrs.get("xlink:href", attrs.get("href"))
    if element_id is not None or href is not None:
        link = ctx.node("linkAttributes", "LinkAttributes")
        graph.add(owner, reg.prop("hasLinkAttributes"), link)
        if element_id is not None:
            graph.add(link, reg.prop("hasID"), Literal(element_id))
        if href is not None:
            graph.add(link, reg.prop("hasHref"), Literal(href))

    langs = []
    for key in ("lang", "xml:lang"):
        value = attrs.get(key)
        if value is not None and value not in langs:
            langs.append(value)
    script = attrs.get("script")
    transliteration = attrs.get("transliteration")
    if langs or script is not None or transliteration is not None:
        lang_node = ctx.node("languageAttributes", "LanguageAttributes")
        graph.add(owner, reg.prop("hasLanguageAttributes"), lang_node)
        for value in langs:
            graph.add(lang_node, reg.prop("hasLang"), Literal(value))
        if script is not None:
            graph.add(lang_node, reg.prop("hasScript"), Literal(script))
        if transliteration is not None:
            graph.add(lang_node, reg.prop("hasTransliteration"), Literal(transliteration))


def _map_affiliation(text: str, agent, ctx: _RecordContext) -> None:
    reg = ctx.registry
    graph = ctx.graph
    org = ctx.org_table.get(text)
    if org is None:
        org = ctx.node("organization", "Organization")
        org_name = ctx.node("name", "Name")
        org_part = ctx.node("namePart", "NamePart")
        ctx.name_parts.add(org_part)
        graph.add(org, reg.prop("hasName"), org_name)
        graph.add(org_name, reg.prop("hasNamePart"), org_part)
        graph.add(org_part, reg.prop("hasValue"), Literal(text))
        ctx.org_table[text] = org
    graph.add(agent, reg.prop("hasAffiliation"), org)


def map_name(element: ModsElement, ctx: _RecordContext):
    """One name element: agent, name, parts, roles, and related nodes."""
    reg = ctx.registry
    graph = ctx.graph

    agent = ctx.node("agent", "Agent")
    name = ctx.node("name", "Name")
    graph.add(agent, reg.prop("hasName"), name)

    name_type = element.attrs.get("type")
    if name_type is not None:
        individual = NAME_TYPE_VALUES.get(name_type)
        if individual is None:
            ctx.warn(f"unknown name type {name_type!r}, skipped")
        else:
            graph.add(name, reg.prop("hasNameType"), reg.individual(individual))

    if element.attrs.get("usage") == "primary":
        graph.add(name, reg.prop("isPrimaryInstance"), reg.individual("Primary"))

    authority = element.attrs.get("authority")
    if authority is not None:
        info = ctx.node("authorityInfo", "AuthorityInfo")
        graph.add(name, reg.prop("hasAuthorityInfo"), info)
        graph.add(info, reg.prop("hasValue"), Literal(authority))

    map_common_attributes(element, name, ctx)

    for child in element.children:
        if child.tag == "namePart":
            if not child.text:
                ctx.warn("empty namePart skipped")
                continue
            part = ctx.node("namePart", "NamePart")
            ctx.name_parts.add(part)
            graph.add(name, reg.prop("hasNamePart"), part)
            graph.add(part, reg.prop("hasValue"), Literal(child.text))
            part_type = child.attrs.get("type")
            if part_type is not None:
                individual = NAME_PART_TYPES.get(part_type)
                if individual is None:
                    ctx.warn(f"namePart type {part_type!r} has no individual, left untyped")
                else:
                    graph.add(part, reg.prop("hasNamePartType"), reg.individual(individual))
            map_common_attributes(child, part, ctx)
        elif child.tag == "role":
            terms = child.find_all("roleTerm")
            if not terms:
                ctx.warn("role without roleTerm skipped")
            for term in terms:
                if not term.text:
                    ctx.warn("empty roleTerm skipped")
                    continue
                role = ctx.node("agentRole", "AgentRole")
                graph.add(role, reg.prop("hasValue"), Literal(term.text))
                graph.add(agent, reg.prop("assumesAgentRole"), role)
                graph.add(role, reg.prop("hasRoleUnderName"), name)
                graph.add(ctx.item, reg.prop("providesAgentRole"), role)
        elif child.tag == "affiliation":
            if not child.text:
                ctx.warn("empty affiliation skipped")
                continue
            _map_affiliation(child.text, agent, ctx)
        elif child.tag == "displayForm":
            if not child.text:
                ctx.warn("empty displayForm skipped")
                continue
            graph.add(name, reg.prop("hasDisplayForm"), Literal(child.text))
        elif child.tag == "nameIdentifier":
            if not child.text:
                ctx.warn("empty nameIdentifier skipped")
                continue
            identifier = ctx.node("nameIdentifier", "NameIdentifier")
            graph.add(identifier, RDF_TYPE, reg.cls("Identifier"))
            graph.add(name, reg.prop("hasNameIdentifier"), identifier)
            graph.add(identifier, reg.prop("hasValue"), Literal(child.text))
            map_common_attributes(child, identifier, ctx)
        else:
            ctx.warn(f"unmapped element name/{child.tag}")
    return name


def map_date(element: ModsElement, ctx: _RecordContext, owner=None):
    """One date element: a date node with exactly one attribute node."""
    reg = ctx.registry
    graph = ctx.graph
    if owner is None:
        owner = ctx.item

    if not element.text:
        ctx.warn(f"empty {element.tag} skipped")
        return None

    date = ctx.node("dateInfo", "DateInfo")
    graph.add(owner, reg.prop("hasDateInfo"), date)
    graph.add(date, reg.prop("hasValue"), Literal(element.text))
    graph.add(date, reg.prop("isOfType"), reg.individual(DATE_ELEMENTS[element.tag]))

    attrs_node = ctx.node("dateAttributes", "DateAttributes")
    graph.add(date, reg.prop("hasDateAttributes"), attrs_node)

    encoding = element.attrs.get("encoding")
    if encoding is not None:
        individual = ENCODING_VALUES.get(encoding.lower())
        if individual is not None:
            target = reg.individual(individual)
        else:
            target = _mint_vocab_individual(ctx, "DateEncoding", encoding)
        if target is not None:
            graph.add(attrs_node, reg.prop("hasDateEncodingType"), target)

    key_date = element.attrs.get("keyDate")
    if key_date is not None:
        if key_date == "yes":
            graph.add(attrs_node, reg.prop("isKeyDate"), Literal("true", XSD_BOOLEAN))
        else:
            ctx.warn(f"keyDate value {key_date!r} is not 'yes', skipped")

    point = element.attrs.get("point")
    if point is not None:
        individual = POINT_VALUES.get(point.lower())
        if individual is None:
            ctx.warn(f"unknown point value {point!r}, skipped")
        else:
            graph.add(attrs_node, reg.prop("isStartOrEndPoint"), reg.individual(individual))

    qualifier = element.attrs.get("qualifier")
    if qualifier is not None:
        individual = QUALIFIER_VALUES.get(qualifier.lower())
        if individual is None:
            ctx.warn(f"unknown qualifier value {qualifier!r}, skipped")
        else:
            graph.add(attrs_node, reg.prop("hasQualifier"), reg.individual(individual))

    calendar = element.attrs.get("calendar")
    if calendar is not None:
        target = _mint_vocab_individual(ctx, "Calendar", calendar)
        if target is not None:
            graph.add(attrs_node, reg.prop("hasAlternativeCalendar"), target)

    map_common_attributes(element, date, ctx)
    return date


def _map_record_element(record: ModsElement, ctx: _RecordContext) -> None:
    for key in record.attrs:
        if key not in ("ID", "version"):
            ctx.warn(f"unmapped attribute {key!r} on record element")
    for child in record.children:
        if child.tag == "name":
            map_name(child, ctx)
        elif child.tag == "originInfo":
            for grandchild in child.children:
                if grandchild.tag in DATE_ELEMENTS:
                    map_date(grandchild, ctx)
                else:
                    ctx.warn(f"unmapped element originInfo/{grandchild.tag}")
        elif child.tag in DATE_ELEMENTS:
            map_date(child, ctx)
        else:
            ctx.warn(f"unmapped element {child.tag}")


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
    graph = Graph()
    warnings: list[str] = []
    org_table: dict = {}
    record_ids: dict[str, None] = {}  # ordered, for MappingResult.record_ids
    for record in document.records():
        record_id = record.attrs.get("ID", "")
        if record_id:
            try:
                Iri(record_id)  # the ID goes verbatim into the node IRIs
            except GraphError:
                raise MappingError(f"invalid record ID {record_id!r}") from None
            if record_id in record_ids:
                raise MappingError(f"duplicate record ID {record_id!r}")
            record_ids[record_id] = None
        ctx = _RecordContext(
            graph=graph,
            registry=registry,
            base_iri=base_iri,
            record_id=record_id,
            warnings=warnings,
            org_table=org_table,
        )
        _map_record_element(record, ctx)
    return MappingResult(graph=graph, warnings=warnings, record_ids=list(record_ids))
