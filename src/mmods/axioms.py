"""Constraint catalog: the vocabulary's integrity and inference rules.

Each entry is one rule with a stable violation code "E_" + module + "_" +
label.  Error-severity entries can produce validation findings; info-severity
entries are structural guidance (tautologies), inference rules (chains and
subclass facts), or documentation.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Union

from .graph import XSD_BOOLEAN, XSD_STRING, Iri
from .vocab import VocabularyRegistry


class VocabFiller(NamedTuple):
    """Filler restricting objects to a controlled vocabulary's members."""

    vocabulary: str


class DatatypeFiller(NamedTuple):
    """Filler restricting objects to literals of one datatype."""

    datatype: Iri


Filler = Union[Iri, VocabFiller, DatatypeFiller]


class Constraint(NamedTuple):
    """One rule; unused fields stay None depending on the kind.

    scope_class None means the rule applies to every node.
    """

    axiom_id: str
    module: str
    kind: str
    severity: str
    message: str
    scope_class: Optional[Iri] = None
    prop: Optional[Iri] = None
    filler: Optional[Filler] = None
    direction: Optional[str] = None
    source_class: Optional[Iri] = None
    prop2: Optional[Iri] = None
    required_class: Optional[Iri] = None
    chain: Optional[tuple[Iri, Iri, bool, Iri]] = None
    sub: Optional[Iri] = None
    sup: Optional[Iri] = None

    @property
    def code(self) -> str:
        return f"E_{self.module}_{self.axiom_id.upper()}"


class ConstraintCatalog(tuple):
    """The constraints, in catalog order; iterating or indexing it yields them."""

    __slots__ = ()

    def subclass_pairs(self) -> list[tuple[Iri, Iri]]:
        """(sub, sup) facts feeding instance closure; the scope-free
        documentation entry carries no sub and is excluded."""
        return [
            (c.sub, c.sup)
            for c in self
            if c.kind == "subclass_of" and c.sub is not None
        ]

    def chains(self) -> list[tuple[Iri, Iri, bool, Iri]]:
        return [c.chain for c in self if c.kind == "role_chain"]


def catalog(registry: VocabularyRegistry) -> ConstraintCatalog:
    """Build the full, deterministically ordered constraint list."""
    c = registry.cls
    p = registry.prop

    entries = (
        Constraint(
            "1", "AGENTROLE", "max_one", "error",
            "a role may be provided by at most one entity",
            direction="inverse", prop=p("providesAgentRole"),
        ),
        Constraint(
            "2", "AGENTROLE", "structural_tautology", "info",
            "a role may be held under a name",
            scope_class=c("AgentRole"), prop=p("hasRoleUnderName"), filler=c("Name"),
        ),
        Constraint(
            "3", "AGENTROLE", "scoped_domain", "error",
            "whatever assumes a role of an agent must itself be typed as a role",
            prop=p("assumesAgentRole"), filler=c("Agent"), required_class=c("AgentRole"),
        ),
        Constraint(
            "4", "AGENTROLE", "max_one", "error",
            "a role is assumed by at most one agent",
            direction="inverse", prop=p("assumesAgentRole"),
            scope_class=c("AgentRole"), filler=c("Agent"),
        ),
        Constraint(
            "5", "AGENTROLE", "structural_tautology", "info",
            "an agent may assume roles",
            scope_class=c("Agent"), prop=p("assumesAgentRole"), filler=c("AgentRole"),
        ),
        Constraint(
            "6", "AGENTROLE", "existential", "error",
            "an agent must have at least one name",
            scope_class=c("Agent"), prop=p("hasName"), filler=c("Name"),
        ),
        Constraint(
            "7", "AGENTROLE", "role_chain", "info",
            "assuming a role held under a name implies bearing that name",
            chain=(p("assumesAgentRole"), p("hasRoleUnderName"), False, p("hasName")),
        ),
        Constraint(
            "8", "AGENTROLE", "role_chain", "info",
            "bearing a name under which a role is held implies assuming that role",
            chain=(p("hasName"), p("hasRoleUnderName"), True, p("assumesAgentRole")),
        ),
        Constraint(
            "9", "ELEMENTINFO", "subclass_of", "info",
            "any node may carry element information; documentation only, never enforced",
            sup=c("ElementInfo"),
        ),
        Constraint(
            "10", "ELEMENTINFO", "max_one", "error",
            "a node has at most one set of link attributes",
            direction="forward", prop=p("hasLinkAttributes"),
        ),
        Constraint(
            "11", "ELEMENTINFO", "structural_tautology", "info",
            "element information may include link attributes",
            scope_class=c("ElementInfo"), prop=p("hasLinkAttributes"),
            filler=c("LinkAttributes"),
        ),
        Constraint(
            "12", "ELEMENTINFO", "universal_range", "error",
            "language attribute targets must be typed as language attributes",
            prop=p("hasLanguageAttributes"), filler=c("LanguageAttributes"),
        ),
        Constraint(
            "13", "ELEMENTINFO", "max_one", "error",
            "a node has at most one set of language attributes",
            direction="forward", prop=p("hasLanguageAttributes"),
        ),
        Constraint(
            "14", "ELEMENTINFO", "structural_tautology", "info",
            "element information may include language attributes",
            scope_class=c("ElementInfo"), prop=p("hasLanguageAttributes"),
            filler=c("LanguageAttributes"),
        ),
        Constraint(
            "15", "ORGANIZATION", "structural_tautology", "info",
            "an organization may provide roles",
            scope_class=c("Organization"), prop=p("providesAgentRole"),
            filler=c("AgentRole"),
        ),
        Constraint(
            "16", "ORGANIZATION", "existential", "error",
            "an organization must have at least one name",
            scope_class=c("Organization"), prop=p("hasName"), filler=c("Name"),
        ),
        Constraint(
            "17", "ORGANIZATION", "structural_tautology", "info",
            "an organization may have a standardized name",
            scope_class=c("Organization"), prop=p("hasStandardizedName"), filler=c("Name"),
        ),
        Constraint(
            "18", "ORGANIZATION", "max_one", "error",
            "a node has at most one set of link attributes",
            direction="forward", prop=p("hasLinkAttributes"),
        ),
        Constraint(
            "19", "ORGANIZATION", "structural_tautology", "info",
            "an organization may have link attributes",
            scope_class=c("Organization"), prop=p("hasLinkAttributes"),
            filler=c("LinkAttributes"),
        ),
        Constraint(
            "20", "NAME", "existential", "error",
            "a name must have at least one name part",
            scope_class=c("Name"), prop=p("hasNamePart"), filler=c("NamePart"),
        ),
        Constraint(
            "21", "NAME", "inverse_existential", "error",
            "a name part must belong to a name",
            scope_class=c("NamePart"), prop=p("hasNamePart"), source_class=c("Name"),
        ),
        Constraint(
            "22", "NAME", "max_one", "error",
            "a name part belongs to at most one name",
            direction="inverse", prop=p("hasNamePart"),
        ),
        Constraint(
            "23", "NAME", "structural_tautology", "info",
            "a name may have any number of name parts",
            scope_class=c("Name"), prop=p("hasNamePart"), filler=c("NamePart"),
        ),
        Constraint(
            "24", "NAME", "universal_range", "error",
            "name part types must come from the NamePartType vocabulary",
            prop=p("hasNamePartType"), filler=VocabFiller("NamePartType"),
        ),
        Constraint(
            "25", "NAME", "structural_tautology", "info",
            "a name may have a description",
            scope_class=c("Name"), prop=p("hasDescription"), filler=c("Description"),
        ),
        Constraint(
            "26", "NAME", "structural_tautology", "info",
            "a name may have a type from the NameType vocabulary",
            scope_class=c("Name"), prop=p("hasNameType"), filler=VocabFiller("NameType"),
        ),
        Constraint(
            "27", "NAME", "structural_tautology", "info",
            "a name may be marked as the primary instance",
            scope_class=c("Name"), prop=p("isPrimaryInstance"), filler=VocabFiller("Usage"),
        ),
        Constraint(
            "28", "NAME", "max_one", "error",
            "a node has at most one set of authority information",
            direction="forward", prop=p("hasAuthorityInfo"),
        ),
        Constraint(
            "29", "NAME", "structural_tautology", "info",
            "a name may have authority information",
            scope_class=c("Name"), prop=p("hasAuthorityInfo"), filler=c("AuthorityInfo"),
        ),
        Constraint(
            "30", "NAME", "subclass_of", "info",
            "every name part is element information",
            sub=c("NamePart"), sup=c("ElementInfo"),
        ),
        Constraint(
            "31", "NAME", "negated_path", "error",
            "a name part must not reach an ID through its link attributes",
            scope_class=c("NamePart"), prop=p("hasLinkAttributes"), prop2=p("hasID"),
        ),
        Constraint(
            "32", "NAME", "subclass_of", "info",
            "every name identifier is an identifier",
            sub=c("NameIdentifier"), sup=c("Identifier"),
        ),
        Constraint(
            "33", "DATEINFO", "max_one", "error",
            "date information belongs to at most one owner",
            direction="inverse", prop=p("hasDateInfo"),
        ),
        Constraint(
            "34", "DATEINFO", "structural_tautology", "info",
            "anything may have date information",
            prop=p("hasDateInfo"), filler=c("DateInfo"),
        ),
        Constraint(
            "35", "DATEINFO", "existential", "error",
            "date information must have date attributes",
            scope_class=c("DateInfo"), prop=p("hasDateAttributes"),
            filler=c("DateAttributes"),
        ),
        Constraint(
            "36", "DATEINFO", "max_one", "error",
            "a node has at most one set of date attributes",
            direction="forward", prop=p("hasDateAttributes"),
        ),
        Constraint(
            "37", "DATEINFO", "structural_tautology", "info",
            "date information may have date attributes",
            scope_class=c("DateInfo"), prop=p("hasDateAttributes"),
            filler=c("DateAttributes"),
        ),
        Constraint(
            "38", "DATEINFO", "existential", "error",
            "date information must have a type from the DateInfoType vocabulary",
            scope_class=c("DateInfo"), prop=p("isOfType"), filler=VocabFiller("DateInfoType"),
        ),
        Constraint(
            "39", "DATEINFO", "existential", "error",
            "date information must have a string value",
            scope_class=c("DateInfo"), prop=p("hasValue"), filler=DatatypeFiller(XSD_STRING),
        ),
        Constraint(
            "40", "DATEINFO", "structural_tautology", "info",
            "date attributes may carry an encoding from the DateEncoding vocabulary",
            scope_class=c("DateAttributes"), prop=p("hasDateEncodingType"),
            filler=VocabFiller("DateEncoding"),
        ),
        Constraint(
            "41", "DATEINFO", "structural_tautology", "info",
            "date attributes may carry a boolean key-date flag",
            scope_class=c("DateAttributes"), prop=p("isKeyDate"),
            filler=DatatypeFiller(XSD_BOOLEAN),
        ),
        Constraint(
            "42", "DATEINFO", "structural_tautology", "info",
            "date attributes may mark the date as a start or end point",
            scope_class=c("DateAttributes"), prop=p("isStartOrEndPoint"),
            filler=VocabFiller("Point"),
        ),
        Constraint(
            "43", "DATEINFO", "structural_tautology", "info",
            "date attributes may name an alternative calendar",
            scope_class=c("DateAttributes"), prop=p("hasAlternativeCalendar"),
            filler=VocabFiller("Calendar"),
        ),
        # Support entries for properties the vocabulary mints beyond the
        # numbered rules.
        Constraint(
            "affiliation", "ORGANIZATION", "structural_tautology", "info",
            "an agent may be affiliated with an organization",
            scope_class=c("Agent"), prop=p("hasAffiliation"), filler=c("Organization"),
        ),
        Constraint(
            "displayForm", "NAME", "structural_tautology", "info",
            "a name may have a display form string",
            scope_class=c("Name"), prop=p("hasDisplayForm"),
            filler=DatatypeFiller(XSD_STRING),
        ),
        Constraint(
            "nameIdentifier", "NAME", "structural_tautology", "info",
            "a name may have a name identifier",
            scope_class=c("Name"), prop=p("hasNameIdentifier"), filler=c("NameIdentifier"),
        ),
        Constraint(
            "qualifier", "DATEINFO", "structural_tautology", "info",
            "date attributes may carry a qualifier from the Qualifier vocabulary",
            scope_class=c("DateAttributes"), prop=p("hasQualifier"),
            filler=VocabFiller("Qualifier"),
        ),
    )

    return ConstraintCatalog(entries)


def catalog_table_markdown(built: ConstraintCatalog) -> str:
    """Markdown table of every catalog entry, used for the docs page."""
    lines = [
        "# Constraint catalog",
        "",
        "Stable violation codes, one per rule.  Error entries can fail",
        "validation; info entries are structural guidance or inference rules.",
        "",
        "| Label | Code | Kind | Severity | Statement |",
        "|---|---|---|---|---|",
    ]
    for c in built:
        lines.append(
            f"| {c.axiom_id} | {c.code} | {c.kind} | {c.severity} | {c.message} |"
        )
    return "\n".join(lines) + "\n"
