"""The id-level validator against the former term-level one, finding for finding.

tests/oracles.py keeps the term-level constraint kernels as
validate_reference.  Here complete Finding lists (code, axiom id, severity,
focus, detail and message, in order) must be equal, so a change in finding
order or detail text fails even where the oracle's counters agree.
"""

import pytest

from mmods.axioms import catalog
from mmods.graph import RDF_TYPE, XSD_BOOLEAN, BlankNode, Graph, Iri, Literal
from mmods.validate import check_constraint, materialize, validate
from mmods.vocab import VocabularyRegistry

from oracles import check_constraint_reference, random_vocab_graph, validate_reference

REG = VocabularyRegistry()
CAT = catalog(REG)
cls, prop, ind = REG.cls, REG.prop, REG.individual
FLAGS = [(infer, strict) for infer in (False, True) for strict in (False, True)]


def assert_same_findings(graph):
    """validate and validate_reference agree under every flag; returns the codes seen."""
    codes = set()
    for infer, strict in FLAGS:
        got = validate(graph, CAT, REG, infer=infer, strict=strict).findings
        want = validate_reference(graph, CAT, REG, infer=infer, strict=strict)
        assert got == want, (infer, strict)
        codes.update(f.code for f in got)
    return codes


@pytest.mark.parametrize("infer,strict", FLAGS)
def test_random_graphs(infer, strict):
    total = 0
    for seed in range(1000):
        g = random_vocab_graph(seed, REG)
        got = validate(g, CAT, REG, infer=infer, strict=strict).findings
        assert got == validate_reference(g, CAT, REG, infer=infer, strict=strict), seed
        total += len(got)
    assert total > 8000


def test_check_constraint_one_by_one():
    """The public per-constraint entry runs the same kernels on a fresh view."""
    total = 0
    for seed in range(1000):
        g = random_vocab_graph(seed, REG)
        if seed % 2:
            g = materialize(g, CAT)
        strict = seed % 3 == 0
        for constraint in CAT:
            got = check_constraint(g, constraint, REG, strict)
            assert got == check_constraint_reference(g, constraint, REG, strict), (
                seed,
                constraint.code,
            )
            total += len(got)
    assert total > 8000


def test_empty_graph():
    assert assert_same_findings(Graph()) == set()


def test_class_and_property_absent_from_graph():
    # Agent is typed, but hasName, Name and every other class are absent.
    g = Graph()
    g.add(Iri("urn:a"), RDF_TYPE, cls("Agent"))
    assert "E_AGENTROLE_6" in assert_same_findings(g)

    # Edges with no rdf:type triple anywhere: every class filler fails.
    g = Graph()
    g.add(Iri("urn:n"), prop("hasLanguageAttributes"), Iri("urn:l"))
    g.add(Iri("urn:n"), prop("hasNamePart"), Iri("urn:p"))
    g.add(BlankNode("b"), prop("hasLanguageAttributes"), Iri("urn:l"))
    assert {"E_ELEMENTINFO_12"} <= assert_same_findings(g)
    for constraint in CAT:
        for strict in (False, True):
            assert check_constraint(g, constraint, REG, strict) == check_constraint_reference(
                g, constraint, REG, strict
            )


def test_literals_where_a_node_is_expected():
    g = Graph()
    for name in ("urn:n1", "urn:n2"):
        g.add(Iri(name), RDF_TYPE, cls("Name"))
        g.add(Iri(name), prop("hasNamePart"), Literal("Ada"))
    g.add(Iri("urn:a"), RDF_TYPE, cls("Agent"))
    g.add(Iri("urn:a"), prop("hasName"), Literal("Ada"))
    g.add(Iri("urn:a"), prop("assumesAgentRole"), Literal("author"))
    g.add(Iri("urn:a"), prop("hasLanguageAttributes"), Literal("en", lang="en"))
    g.add(Iri("urn:a"), prop("hasLanguageAttributes"), Literal("true", XSD_BOOLEAN))
    g.add(Iri("urn:d"), RDF_TYPE, cls("DateInfo"))
    g.add(Iri("urn:d"), prop("hasValue"), Literal("2002", XSD_BOOLEAN))
    g.add(Iri("urn:d"), prop("isOfType"), Literal("DateIssued"))
    g.add(Iri("urn:d"), prop("hasDateAttributes"), Literal("x"))
    codes = assert_same_findings(g)
    # A literal object shared by two names is the focus of the at-most-one rule.
    assert {"E_NAME_20", "E_NAME_22", "E_AGENTROLE_6", "E_ELEMENTINFO_12"} <= codes
    assert {"E_DATEINFO_35", "E_DATEINFO_38", "E_DATEINFO_39"} <= codes
    found = validate(g, CAT, REG, infer=False).findings
    assert [f.focus for f in found if f.code == "E_NAME_22"] == ['"Ada"']


def test_open_and_closed_vocabulary_members():
    g = Graph()
    minted, blank, stray = Iri("urn:v:Minted"), BlankNode("v"), Iri("urn:v:Stray")
    g.add(minted, RDF_TYPE, cls("DateInfoType"))
    g.add(blank, RDF_TYPE, cls("DateInfoType"))
    g.add(Iri("urn:v:TypedPartType"), RDF_TYPE, cls("NamePartType"))
    for i, kind in enumerate(
        (ind("DateIssued"), minted, blank, stray, ind("FirstName"), Literal("DateIssued"))
    ):
        d = Iri(f"urn:d{i}")
        g.add(d, RDF_TYPE, cls("DateInfo"))
        g.add(d, prop("isOfType"), kind)
    for i, kind in enumerate(
        (ind("FirstName"), Iri("urn:v:TypedPartType"), ind("Personal"), stray, Literal("x"))
    ):
        g.add(Iri(f"urn:p{i}"), prop("hasNamePartType"), kind)
    codes = assert_same_findings(g)
    assert {"E_DATEINFO_38", "E_NAME_24"} <= codes
    lax = validate(g, CAT, REG, infer=False).findings
    # The open vocabulary admits its listed member and the IRI typed with its
    # class, not a typed blank node; the closed one admits only its members.
    assert [f.focus for f in lax if f.code == "E_DATEINFO_38"] == [
        "<urn:d2>", "<urn:d3>", "<urn:d4>", "<urn:d5>",
    ]
    assert [(f.focus, f.severity) for f in lax if f.code == "E_NAME_24"] == [
        ("<urn:p1>", "warning"), ("<urn:p2>", "warning"),
        ("<urn:p3>", "warning"), ("<urn:p4>", "warning"),
    ]
    strict = validate(g, CAT, REG, infer=False, strict=True).findings
    assert {f.severity for f in strict if f.code == "E_NAME_24"} == {"error"}


def test_negated_path_with_several_middles_and_tails():
    g = Graph()
    links, has_id = prop("hasLinkAttributes"), prop("hasID")
    part, other = Iri("urn:part"), BlankNode("other")
    for focus in (part, other):
        g.add(focus, RDF_TYPE, cls("NamePart"))
    # Middles in an order unlike their term order; the least ones have no tail.
    for middle in (Iri("urn:m3"), BlankNode("m0"), Iri("urn:m1"), Iri("urn:m0"), Literal("m")):
        g.add(part, links, middle)
    g.add(other, links, BlankNode("m0"))
    for tail in ("z", "b", "k"):
        g.add(Iri("urn:m3"), has_id, Literal(tail))
    for tail in ("y", "c"):
        g.add(Iri("urn:m1"), has_id, Literal(tail))
    g.add(BlankNode("m0"), has_id, Literal("a"))
    assert "E_NAME_31" in assert_same_findings(g)
    found = [f for f in validate(g, CAT, REG, infer=False).findings if f.code == "E_NAME_31"]
    # IRIs sort before blank nodes: the least middle with a tail is urn:m1.
    assert [(f.focus, f.detail.split(" via ")[0]) for f in found] == [
        ("<urn:part>", '<urn:part> reaches "c"'),
        ("_:other", '_:other reaches "a"'),
    ]


def test_rules_without_a_scope_class():
    """scope_class None: every typed node is in scope, as for the reference."""
    unscoped = [
        c._replace(scope_class=None)
        for c in CAT
        if c.scope_class is not None and c.kind not in ("subclass_of", "role_chain")
    ]
    kinds = {c.kind for c in unscoped}
    assert {"existential", "inverse_existential", "negated_path", "structural_tautology"} <= kinds
    total = 0
    for seed in range(0, 1000, 10):
        g = random_vocab_graph(seed, REG)
        for constraint in unscoped:
            got = check_constraint(g, constraint, REG)
            assert got == check_constraint_reference(g, constraint, REG), (seed, constraint.code)
            total += len(got)
    assert total > 500
