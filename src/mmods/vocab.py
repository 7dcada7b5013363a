"""Vocabulary registry: the single source of truth for graph identifiers.

Holds the class table, the property table and the controlled vocabularies,
all minted under one configurable base IRI; cls, prop and individual look
names up, each in its own table.  emit_ontology writes the vocabulary's own
declaration graph, with one annotation per name in MODULE_NAMES.
"""

from __future__ import annotations

from typing import NamedTuple

from .graph import (
    OWL_ANNOTATION_PROPERTY,
    OWL_CLASS,
    OWL_DATATYPE_PROPERTY,
    OWL_OBJECT_PROPERTY,
    OWL_ONTOLOGY,
    RDF_TYPE,
    RDFS_SUBCLASS_OF,
    Graph,
    GraphError,
    Iri,
    Literal,
)

DEFAULT_BASE_IRI = "https://example.org/mmods-o/"

CLASS_NAMES = (
    "Agent",
    "AgentRole",
    "Name",
    "NamePart",
    "Organization",
    "ElementInfo",
    "LinkAttributes",
    "LanguageAttributes",
    "AuthorityInfo",
    "Identifier",
    "NameIdentifier",
    "Description",
    "DateInfo",
    "DateAttributes",
    "ModsItem",
    # Controlled vocabularies are classes whose members are predefined.
    "NameType",
    "NamePartType",
    "Usage",
    "Qualifier",
    "DateEncoding",
    "DateInfoType",
    "Point",
    "Calendar",
)

OBJECT_PROPERTY_NAMES = (
    "providesAgentRole",
    "assumesAgentRole",
    "hasRoleUnderName",
    "hasName",
    "hasStandardizedName",
    "hasNamePart",
    "hasNamePartType",
    "hasNameType",
    "isPrimaryInstance",
    "hasDescription",
    "hasAuthorityInfo",
    "hasLinkAttributes",
    "hasLanguageAttributes",
    "hasDateInfo",
    "hasDateAttributes",
    "isOfType",
    "hasDateEncodingType",
    "isStartOrEndPoint",
    "hasAlternativeCalendar",
    "hasQualifier",
    "hasAffiliation",
    "hasNameIdentifier",
)

DATA_PROPERTY_NAMES = (
    "hasValue",
    "hasID",
    "isKeyDate",
    "hasDisplayLabel",
    "hasDisplayForm",
    "hasHref",
    "hasLang",
    "hasScript",
    "hasTransliteration",
)

# (vocabulary name, member local names, closed?); an open vocabulary takes
# further members, which the mapper mints.
_VOCABULARIES = (
    ("NameType", ("Personal", "Corporate", "Conference", "Family"), True),
    ("NamePartType", ("FirstName", "MiddleName", "LastName"), True),
    ("Usage", ("Primary",), True),
    ("Qualifier", ("Approximate", "Inferred", "Questionable"), True),
    ("DateEncoding", ("W3cdtf", "Iso8601"), False),
    (
        "DateInfoType",
        (
            "DateIssued",
            "DateCreated",
            "DateCaptured",
            "DateModified",
            "DateValid",
            "DateOther",
            "CopyrightDate",
        ),
        False,
    ),
    ("Point", ("Start", "End"), True),
    ("Calendar", (), False),
)

MODULE_NAMES = (
    "MODS Item",
    "Role-Dependent Names",
    "Name",
    "Name Part",
    "Element Information",
    "Organization",
    "Date Information",
    "Date Attributes",
    "Link Attributes",
    "Language Attributes",
    "Authority Information",
    "Identifier",
    "Name Identifier",
    "Description",
    "Title Information",
    "Type of Resource",
    "Genre of Resource",
    "Origin Information",
    "Target Audience",
    "Access Restrictions",
    "Geographic Location",
    "Subject",
)


class VocabularyError(KeyError):
    """Unknown class, property, vocabulary, or individual name."""


class ControlledVocabulary(NamedTuple):
    """An ordered set of predefined individuals with a class IRI."""

    name: str
    class_iri: Iri
    individuals: tuple[Iri, ...]
    member_names: tuple[str, ...]
    closed: bool


def _lookup(table: dict, kind: str, name: str) -> Iri:
    iri = table.get(name)
    if iri is None:
        import difflib  # only error messages need it; it is slow to import

        close = difflib.get_close_matches(name, list(table), n=3)
        nearest = "; nearest: " + ", ".join(close) if close else ""
        raise VocabularyError(f"unknown {kind} name: {name!r}{nearest}")
    return iri


class VocabularyRegistry:
    """Immutable table of every IRI the vocabulary mints."""

    def __init__(self, base_iri: str = DEFAULT_BASE_IRI):
        if not base_iri:
            raise VocabularyError("base IRI must be non-empty")
        try:
            Iri(base_iri)
        except GraphError:
            raise VocabularyError(f"invalid base IRI {base_iri!r}") from None
        if not base_iri.endswith(("/", "#")):
            base_iri += "/"
        self._base = base_iri
        self.classes: dict[str, Iri] = {name: Iri(base_iri + name) for name in CLASS_NAMES}
        self.properties: dict[str, Iri] = {
            name: Iri(base_iri + name)
            for name in OBJECT_PROPERTY_NAMES + DATA_PROPERTY_NAMES
        }
        self.vocabularies: dict[str, ControlledVocabulary] = {
            name: ControlledVocabulary(
                name=name,
                class_iri=self.classes[name],
                individuals=tuple(Iri(base_iri + member) for member in members),
                member_names=members,
                closed=closed,
            )
            for name, members, closed in _VOCABULARIES
        }
        self._individuals: dict[str, Iri] = {}
        for vocab in self.vocabularies.values():
            self._individuals.update(zip(vocab.member_names, vocab.individuals))

    @property
    def base_iri(self) -> str:
        return self._base

    def cls(self, name: str) -> Iri:
        return _lookup(self.classes, "class", name)

    def prop(self, name: str) -> Iri:
        return _lookup(self.properties, "property", name)

    def individual(self, name: str) -> Iri:
        return _lookup(self._individuals, "vocabIndividual", name)


def emit_ontology(registry: VocabularyRegistry, catalog) -> Graph:
    """The vocabulary's own declaration graph.

    One class declaration per class-table entry, one property declaration per
    property, one type triple per vocabulary individual, one subclass triple
    per subclass rule in the catalog, and one module-name annotation per
    module, whose property is declared an annotation property.
    """
    g = Graph()
    ontology_node = Iri(registry.base_iri.rstrip("/#"))
    g.add(ontology_node, RDF_TYPE, OWL_ONTOLOGY)
    has_module = Iri(registry.base_iri + "hasModule")
    g.add(has_module, RDF_TYPE, OWL_ANNOTATION_PROPERTY)
    for module_name in MODULE_NAMES:
        g.add(ontology_node, has_module, Literal(module_name))
    for iri in registry.classes.values():
        g.add(iri, RDF_TYPE, OWL_CLASS)
    for name in OBJECT_PROPERTY_NAMES:
        g.add(registry.properties[name], RDF_TYPE, OWL_OBJECT_PROPERTY)
    for name in DATA_PROPERTY_NAMES:
        g.add(registry.properties[name], RDF_TYPE, OWL_DATATYPE_PROPERTY)
    for vocab in registry.vocabularies.values():
        for individual in vocab.individuals:
            g.add(individual, RDF_TYPE, vocab.class_iri)
    for sub, sup in catalog.subclass_pairs():
        g.add(sub, RDFS_SUBCLASS_OF, sup)
    return g
