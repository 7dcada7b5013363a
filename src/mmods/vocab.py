"""Vocabulary registry: the single source of truth for graph identifiers.

Holds the class table, property table, controlled vocabularies, and module
name list, all minted under one configurable base IRI, plus the emitter that
writes the vocabulary's own declaration graph.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .graph import (
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

# (vocabulary name, member local names, closed?, description)
_VOCABULARIES = (
    (
        "NameType",
        ("Personal", "Corporate", "Conference", "Family"),
        True,
        "The four kinds of named entity a name can denote.",
    ),
    (
        "NamePartType",
        ("FirstName", "MiddleName", "LastName"),
        True,
        "Which part of a full name a name part carries.",
    ),
    (
        "Usage",
        ("Primary",),
        True,
        "Marks one name instance as the primary one.",
    ),
    (
        "Qualifier",
        ("Approximate", "Inferred", "Questionable"),
        True,
        "How certain a recorded date is.",
    ),
    (
        "DateEncoding",
        ("W3cdtf", "Iso8601"),
        False,
        "Encoding scheme of a date value; further schemes may be added.",
    ),
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
        "Which kind of event a date records; further kinds may be added.",
    ),
    (
        "Point",
        ("Start", "End"),
        True,
        "Whether a date marks the start or the end of a range.",
    ),
    (
        "Calendar",
        (),
        False,
        "Alternative calendar systems; empty but extensible.",
    ),
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
    description: str

    def local_names(self) -> tuple[str, ...]:
        return self.member_names


def _suggest(name: str, candidates) -> str:
    import difflib  # only error messages need it; it is slow to import

    close = difflib.get_close_matches(name, list(candidates), n=3)
    if close:
        return "; nearest: " + ", ".join(close)
    return ""


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
                member_names=tuple(members),
                closed=closed,
                description=description,
            )
            for name, members, closed, description in _VOCABULARIES
        }
        self.modules: tuple[str, ...] = MODULE_NAMES
        self._individuals: dict[str, Iri] = {}
        for vocab in self.vocabularies.values():
            for local, iri in zip(vocab.local_names(), vocab.individuals):
                self._individuals[local] = iri

    @property
    def base_iri(self) -> str:
        return self._base

    def resolve(self, kind: str, name: str) -> Iri:
        """Look up a registered name of the given kind as an absolute IRI."""
        if kind == "class":
            table = self.classes
        elif kind == "property":
            table = self.properties
        elif kind == "vocabIndividual":
            table = self._individuals
        else:
            raise VocabularyError(f"unknown kind: {kind!r}")
        iri = table.get(name)
        if iri is None:
            raise VocabularyError(f"unknown {kind} name: {name!r}{_suggest(name, table)}")
        return iri

    def vocabulary_values(self, vocab_name: str) -> list[Iri]:
        """The full, ordered individual list of one controlled vocabulary."""
        vocab = self.vocabularies.get(vocab_name)
        if vocab is None:
            raise VocabularyError(
                f"unknown vocabulary: {vocab_name!r}{_suggest(vocab_name, self.vocabularies)}"
            )
        return list(vocab.individuals)

    def cls(self, name: str) -> Iri:
        return self.resolve("class", name)

    def prop(self, name: str) -> Iri:
        return self.resolve("property", name)

    def individual(self, name: str) -> Iri:
        return self.resolve("vocabIndividual", name)

    def vocabulary_of(self, term: Iri) -> Optional[ControlledVocabulary]:
        """The vocabulary that predefines the given individual, if any."""
        for vocab in self.vocabularies.values():
            if term in vocab.individuals:
                return vocab
        return None

    def to_json(self) -> dict:
        """Name-to-IRI maps for documentation tooling."""
        return {
            "baseIri": self._base,
            "classes": {name: iri.value for name, iri in self.classes.items()},
            "properties": {name: iri.value for name, iri in self.properties.items()},
            "vocabularies": {
                name: {
                    "class": vocab.class_iri.value,
                    "closed": vocab.closed,
                    "description": vocab.description,
                    "individuals": {
                        local: iri.value
                        for local, iri in zip(vocab.local_names(), vocab.individuals)
                    },
                }
                for name, vocab in self.vocabularies.items()
            },
            "modules": list(self.modules),
        }


def emit_ontology(registry: VocabularyRegistry, catalog) -> Graph:
    """The vocabulary's own declaration graph.

    One class declaration per class-table entry, one property declaration per
    property, one type triple per vocabulary individual, one subclass triple
    per subclass rule in the catalog, and one module-name annotation per
    module.
    """
    g = Graph()
    ontology_node = Iri(registry.base_iri.rstrip("/#"))
    g.add(ontology_node, RDF_TYPE, OWL_ONTOLOGY)
    has_module = Iri(registry.base_iri + "hasModule")
    for module_name in registry.modules:
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
