"""Materialization of inferred triples, and closed-world constraint checking.

materialize applies the catalog's chain rules and subclass facts to a copy
of a graph until nothing new follows.  Each constraint is read as an
integrity check on the triples actually present (by default after
materializing), not as open-world entailment: a required edge that is
absent is a violation.

The kernels run on the store's interned integer ids.  A view of the graph,
built once per validate() call (and once per check_constraint() call), holds
the set of subject ids typed with each class, all built on first use from
one read of the rdf:type edges; fillers become tests on ids, and edges are
read unsorted.  Every read is by predicate, so the store builds only its
predicate index.  Per-edge tests read the term's key, its N-Triples text:
its leading "<" for an IRI, or a literal's datatype suffix.  Findings take
their text from keys and their order from terms: by focus, or for edge-level
rules by (subject, object), never by interning or insertion order.
"""

from __future__ import annotations

import re
from collections import Counter, defaultdict
from operator import itemgetter
from typing import Callable, NamedTuple, Optional

from .axioms import Constraint, ConstraintCatalog, Filler, VocabFiller
from .graph import (
    RDF_LANGSTRING,
    RDF_TYPE,
    WILDCARD,
    XSD_STRING,
    Graph,
    Iri,
    _LANGTAG,
    format_term,
    term_sort_key,
)
from .vocab import VocabularyRegistry


class Finding(NamedTuple):
    """One constraint violation or warning, anchored on a focus node."""

    code: str
    axiom_id: str
    severity: str
    focus: str
    detail: str
    message: str


class ValidationReport:
    """Findings from one validation run plus summary counts."""

    def __init__(self, findings: list[Finding], source: str = ""):
        self.findings = findings
        self.source = source

    @property
    def errors(self) -> int:
        return sum(1 for f in self.findings if f.severity == "error")

    @property
    def warnings(self) -> int:
        return sum(1 for f in self.findings if f.severity == "warning")

    @property
    def infos(self) -> int:
        return sum(1 for f in self.findings if f.severity == "info")

    def ok(self) -> bool:
        return self.errors == 0

    def summary(self) -> dict:
        return {"errors": self.errors, "warnings": self.warnings, "infos": self.infos}


class _IdView:
    """A graph seen through its interned ids, for the constraint kernels.

    Kernels read whole properties (every edge of one predicate) and typed
    sets, so each asks the store a fixed number of questions whatever the
    graph's size.  A class or property the graph has not interned reads as
    empty.  The typed sets of all classes are built together on first use,
    from one read of the rdf:type edges, and kept for the life of the view.
    """

    def __init__(self, graph: Graph, registry: VocabularyRegistry):
        self.registry = registry
        self.id = graph.term_id
        self.term = graph.term
        self.key = graph._keys.__getitem__
        self._match_ids = graph.match_ids
        self._typed: Optional[dict[int, set[int]]] = None

    def edges(self, prop: Iri) -> list[tuple[int, int, int]]:
        """Every id triple with the property as predicate, unsorted."""
        pid = self.id(prop)
        return [] if pid is None else self._match_ids(WILDCARD, pid, WILDCARD)

    def typed(self, cls: Optional[Iri]) -> set[int]:
        """Ids of the subjects typed with the class, or with any class for
        None (a rule without a scope class applies to every typed node)."""
        if self._typed is None:
            by_class = defaultdict(set)
            for s, _, o in self.edges(RDF_TYPE):
                by_class[o].add(s)
            self._typed = dict(by_class)
        if cls is None:
            if WILDCARD not in self._typed:
                self._typed[WILDCARD] = set().union(*self._typed.values())
            return self._typed[WILDCARD]
        return self._typed.get(self.id(cls), set())

    def accepts(self, filler: Optional[Filler]) -> Callable[[int], bool]:
        """A test on ids for a filler: membership in a class (used for scope
        classes too) or a vocabulary, a literal's datatype, or None for any."""
        if filler is None:
            return lambda tid: True
        if isinstance(filler, Iri):
            return self.typed(filler).__contains__
        if isinstance(filler, VocabFiller):
            # Closed vocabularies admit only listed members; open ones also
            # admit any IRI the graph types with the vocabulary class.
            vocab = self.registry.vocabularies[filler.vocabulary]
            members = {self.id(member) for member in vocab.individuals} - {None}
            if not vocab.closed:
                members.update(tid for tid in self.typed(vocab.class_iri) if self.key(tid)[0] == "<")
            return members.__contains__
        # After a literal's closing quote comes "" for xsd:string, "@tag" for
        # rdf:langString and "^^<datatype>" for any other datatype.
        datatype, key = filler.datatype, self.key
        suffix = "" if datatype == XSD_STRING else re.escape(f"^^<{datatype.value}>")
        if datatype == RDF_LANGSTRING:
            suffix = f"@{_LANGTAG.pattern}"
        literal_of_datatype = re.compile(f'".*"{suffix}', re.DOTALL).fullmatch
        return lambda tid: literal_of_datatype(key(tid)) is not None

    def sort_key(self, tid: int) -> tuple:
        return term_sort_key(self.term(tid))

    def sorted_keys(self, ids) -> list[str]:
        """The ids' keys, in term order."""
        return [self.key(tid) for tid in sorted(ids, key=self.sort_key)]

    def sorted_pairs(self, pairs) -> list[tuple[str, str]]:
        """(subject, object) id pairs as keys, in (subject, object) term order."""
        ordered = sorted(pairs, key=lambda pair: (self.sort_key(pair[0]), self.sort_key(pair[1])))
        return [(self.key(s), self.key(o)) for s, o in ordered]


def _filler_text(filler: Filler) -> str:
    if isinstance(filler, Iri):
        return f"a node typed {format_term(filler)}"
    if isinstance(filler, VocabFiller):
        return f"a member of the {filler.vocabulary} vocabulary"
    return f"a literal of datatype {format_term(filler.datatype)}"


def _finding(constraint: Constraint, severity: str, focus: str, detail: str) -> Finding:
    return Finding(
        code=constraint.code,
        axiom_id=constraint.axiom_id,
        severity=severity,
        focus=focus,
        detail=detail,
        message=constraint.message,
    )


def _existential(view: _IdView, constraint: Constraint, strict: bool) -> list[Finding]:
    scope = view.typed(constraint.scope_class)
    ok = view.accepts(constraint.filler)
    satisfied = {s for s, _, o in view.edges(constraint.prop) if s in scope and ok(o)}
    missing = scope - satisfied
    return [
        _finding(
            constraint,
            "error",
            x,
            f"{x} has no {format_term(constraint.prop)} edge to {_filler_text(constraint.filler)}",
        )
        for x in view.sorted_keys(missing)
    ]


def _max_one(view: _IdView, constraint: Constraint, strict: bool) -> list[Finding]:
    forward = constraint.direction == "forward"
    focus_at, other_at = (0, 2) if forward else (2, 0)
    edges = view.edges(constraint.prop)
    # Only a node at two or more edges can break the rule; usually none is.
    counts = Counter(map(itemgetter(focus_at), edges))
    shared = {focus for focus, count in counts.items() if count > 1}
    if not shared:
        return []
    in_scope = view.accepts(constraint.scope_class)
    ok = view.accepts(constraint.filler)
    # Triples are distinct, so with the property fixed each group's members are too.
    groups: dict[int, list[int]] = {}
    for t in edges:
        focus, other = t[focus_at], t[other_at]
        if focus in shared and in_scope(focus) and ok(other):
            groups.setdefault(focus, []).append(other)
    what, ends = ("", "objects") if forward else ("incoming ", "subjects")
    out = []
    for focus in sorted(groups, key=view.sort_key):
        others = groups[focus]
        if len(others) > 1:
            listed = ", ".join(sorted(map(view.key, others)))
            detail = (
                f"{view.key(focus)} has {len(others)} distinct {what}"
                f"{format_term(constraint.prop)} {ends}: {listed}"
            )
            out.append(_finding(constraint, "error", view.key(focus), detail))
    return out


def _range_findings(
    view: _IdView, constraint: Constraint, severity: str, scope: Optional[Iri]
) -> list[Finding]:
    """One finding per edge from a node in scope whose object fails the filler."""
    ok = view.accepts(constraint.filler)
    in_scope = view.accepts(scope)
    bad = [(s, o) for s, _, o in view.edges(constraint.prop) if not ok(o) and in_scope(s)]
    return [
        _finding(
            constraint,
            severity,
            s,
            f"object of {s} {format_term(constraint.prop)} {o} . "
            f"is not {_filler_text(constraint.filler)}",
        )
        for s, o in view.sorted_pairs(bad)
    ]


def _universal_range(view: _IdView, constraint: Constraint, strict: bool) -> list[Finding]:
    vocab_filler = isinstance(constraint.filler, VocabFiller)
    severity = "error" if (not vocab_filler or strict) else "warning"
    return _range_findings(view, constraint, severity, None)


def _structural_tautology(view: _IdView, constraint: Constraint, strict: bool) -> list[Finding]:
    return _range_findings(view, constraint, "warning", constraint.scope_class)


def _inverse_existential(view: _IdView, constraint: Constraint, strict: bool) -> list[Finding]:
    sources = view.typed(constraint.source_class)
    reached = {o for s, _, o in view.edges(constraint.prop) if s in sources}
    missing = view.typed(constraint.scope_class) - reached
    return [
        _finding(
            constraint,
            "error",
            x,
            f"{x} has no incoming {format_term(constraint.prop)} edge "
            f"from a node typed {format_term(constraint.source_class)}",
        )
        for x in view.sorted_keys(missing)
    ]


def _negated_path(view: _IdView, constraint: Constraint, strict: bool) -> list[Finding]:
    tails: dict[int, list[int]] = {}
    for middle, _, tail in view.edges(constraint.prop2):
        tails.setdefault(middle, []).append(tail)
    scope = view.typed(constraint.scope_class)
    # focus -> its middle nodes that have a tail
    hits: dict[int, list[int]] = {}
    for x, _, middle in view.edges(constraint.prop):
        if middle in tails and x in scope:
            hits.setdefault(x, []).append(middle)
    out = []
    for x in sorted(hits, key=view.sort_key):
        middle = min(hits[x], key=view.sort_key)
        tail = view.key(min(tails[middle], key=view.sort_key))
        detail = (
            f"{view.key(x)} reaches {tail} via "
            f"{format_term(constraint.prop)} then {format_term(constraint.prop2)}"
        )
        out.append(_finding(constraint, "error", view.key(x), detail))
    return out


def _scoped_domain(view: _IdView, constraint: Constraint, strict: bool) -> list[Finding]:
    targets = view.typed(constraint.filler)
    required = view.typed(constraint.required_class)
    bad = [
        (s, o) for s, _, o in view.edges(constraint.prop) if o in targets and s not in required
    ]
    out = []
    seen = set()
    # In (subject, object) order the first pair of each subject names its least object.
    for s, o in view.sorted_pairs(bad):
        if s in seen:
            continue
        seen.add(s)
        detail = (
            f"{s} has a {format_term(constraint.prop)} edge to "
            f"{o} but is not typed {format_term(constraint.required_class)}"
        )
        out.append(_finding(constraint, "error", s, detail))
    return out


_KERNELS = {
    "existential": _existential,
    "max_one": _max_one,
    "universal_range": _universal_range,
    "inverse_existential": _inverse_existential,
    "negated_path": _negated_path,
    "structural_tautology": _structural_tautology,
    "scoped_domain": _scoped_domain,
}


def _check(view: _IdView, constraint: Constraint, strict: bool) -> list[Finding]:
    kind = constraint.kind
    if kind in ("subclass_of", "role_chain"):
        return []
    kernel = _KERNELS.get(kind)
    if kernel is None:
        raise ValueError(f"unknown constraint kind: {kind}")
    return kernel(view, constraint, strict)


def check_constraint(
    graph: Graph,
    constraint: Constraint,
    registry: VocabularyRegistry,
    strict: bool = False,
) -> list[Finding]:
    """Findings for one constraint, in deterministic focus order."""
    return _check(_IdView(graph, registry), constraint, strict)


def materialize(graph: Graph, catalog: ConstraintCatalog) -> Graph:
    """A new graph extended with every triple the catalog's chain rules and
    subclass facts imply, to the least fixpoint: a superset of the input,
    and idempotent."""
    result = graph.copy()
    result.apply_rules(catalog.chains(), catalog.subclass_pairs())
    return result


def validate(
    graph: Graph,
    catalog: ConstraintCatalog,
    registry: VocabularyRegistry,
    *,
    infer: bool = True,
    strict: bool = False,
    source: str = "",
) -> ValidationReport:
    """Check every catalog constraint; inferred triples count by default."""
    target = materialize(graph, catalog) if infer else graph
    view = _IdView(target, registry)
    findings: list[Finding] = []
    for constraint in catalog:
        findings.extend(_check(view, constraint, strict))
    return ValidationReport(findings, source=source)
