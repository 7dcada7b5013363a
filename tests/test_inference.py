"""Materialization semantics against a naive saturation oracle."""

import pytest

from mmods.axioms import catalog
from mmods.canonical import canonicalize
from mmods.graph import RDF_TYPE, Graph, Iri
from mmods.validate import materialize
from mmods.vocab import VocabularyRegistry

from oracles import naive_materialize, random_vocab_graph


@pytest.fixture(scope="module")
def reg():
    return VocabularyRegistry()


@pytest.fixture(scope="module")
def cat(reg):
    return catalog(reg)


def test_empty_graph_unchanged(reg, cat):
    assert len(materialize(Graph(), cat)) == 0


def test_forward_chain_adds_name(reg, cat):
    a, r, n = Iri("urn:a"), Iri("urn:r"), Iri("urn:n")
    g = Graph()
    g.add(a, reg.prop("assumesAgentRole"), r)
    g.add(r, reg.prop("hasRoleUnderName"), n)
    m = materialize(g, cat)
    assert (a, reg.prop("hasName"), n) in m
    assert len(m) == 3


def test_inverted_chain_adds_role_then_stops(reg, cat):
    a, r, n = Iri("urn:a"), Iri("urn:r"), Iri("urn:n")
    g = Graph()
    g.add(a, reg.prop("hasName"), n)
    g.add(r, reg.prop("hasRoleUnderName"), n)
    m = materialize(g, cat)
    assert (a, reg.prop("assumesAgentRole"), r) in m
    # The forward chain then re-derives only the existing name edge, so the
    # fixpoint is one triple beyond the input.
    assert len(m) == len(g) + 1


def test_subclass_closure(reg, cat):
    g = Graph().add(Iri("urn:x"), RDF_TYPE, reg.cls("NameIdentifier"))
    m = materialize(g, cat)
    assert (Iri("urn:x"), RDF_TYPE, reg.cls("Identifier")) in m


def test_input_not_mutated(reg, cat):
    g = Graph()
    g.add(Iri("urn:a"), reg.prop("assumesAgentRole"), Iri("urn:r"))
    g.add(Iri("urn:r"), reg.prop("hasRoleUnderName"), Iri("urn:n"))
    before = len(g)
    materialize(g, cat)
    assert len(g) == before


def test_matches_naive_saturation_on_random_graphs(reg, cat):
    for seed in range(300):
        g = random_vocab_graph(seed, reg)
        fast = materialize(g, cat)
        slow = naive_materialize(g, cat)
        assert set(fast.triples()) == set(slow.triples()), f"seed {seed}"


def test_idempotent_on_random_graphs(reg, cat):
    for seed in range(200):
        g = random_vocab_graph(seed, reg)
        once = materialize(g, cat)
        twice = materialize(once, cat)
        assert canonicalize(once) == canonicalize(twice), f"seed {seed}"


def test_monotone_on_random_graphs(reg, cat):
    for seed in range(200):
        g = random_vocab_graph(seed, reg)
        out = materialize(g, cat)
        assert set(g.triples()) <= set(out.triples()), f"seed {seed}"


def test_triangle_consistency_after_materialization(reg, cat):
    assumes, under, has_name = (
        reg.prop("assumesAgentRole"),
        reg.prop("hasRoleUnderName"),
        reg.prop("hasName"),
    )
    for seed in range(200):
        m = materialize(random_vocab_graph(seed, reg), cat)
        for ta in m.match(None, assumes, None):
            for tn in m.match(ta.o, under, None):
                assert (ta.s, has_name, tn.o) in m
