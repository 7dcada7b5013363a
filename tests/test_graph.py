"""Graph, term, matching, and canonicalization tests.

Pattern matching is checked against a full scan and canonicalization against
a brute-force bijection search, so the indexed paths never verify themselves.
The pruned labelling search must tell graphs apart exactly where the
unpruned one in oracles.py does, on random graphs and on graphs with many
automorphisms, and its work is counted on the families that made the
hash-based labelling quadratic.
"""

import copy
import itertools
import math
import pathlib
import pickle
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mmods.canonical as canonical_module
from mmods.canonical import LabellingBudgetError, _canonical_labels, canonicalize
from mmods.graph import (
    RDF_TYPE,
    XSD_BOOLEAN,
    XSD_STRING,
    BlankNode,
    Graph,
    GraphError,
    Iri,
    Literal,
    Triple,
    instances_of,
    term_sort_key,
)
from mmods.mapping import map_record
from mmods.modsxml import parse_mods_xml
from mmods.vocab import VocabularyRegistry

from oracles import canonicalize_exhaustive, format_triple, naive_materialize, triple_sort_key

# The characters N-Triples IRIREF excludes from IRI text.
IRIREF_EXCLUDED = [chr(c) for c in range(0x21)] + list('<>"{}|^`\\')

P = Iri("urn:p")
Q = Iri("urn:q")
A = Iri("urn:a")
B = Iri("urn:b")


def scan(graph, s=None, p=None, o=None):
    """Reference matcher: filter the raw triple list."""
    hits = [
        t
        for t in graph.triples()
        if (s is None or t.s == s) and (p is None or t.p == p) and (o is None or t.o == o)
    ]
    hits.sort(key=triple_sort_key)
    return hits


def blanks_of(triples):
    return sorted(
        {term for t in triples for term in (t.s, t.o) if isinstance(term, BlankNode)},
        key=lambda b: b.label,
    )


def isomorphic_bruteforce(g1, g2):
    """Try every blank-node bijection."""
    t1, t2 = set(g1.triples()), set(g2.triples())
    b1, b2 = blanks_of(t1), blanks_of(t2)
    if len(t1) != len(t2) or len(b1) != len(b2):
        return False
    for perm in itertools.permutations(b2):
        mapping = dict(zip(b1, perm))

        def ren(term):
            return mapping.get(term, term) if isinstance(term, BlankNode) else term

        if {Triple(ren(t.s), t.p, ren(t.o)) for t in t1} == t2:
            return True
    return False


TERM_MAKERS = [
    pytest.param(lambda: Iri("urn:a"), id="iri"),
    pytest.param(lambda: BlankNode("b0"), id="blank"),
    pytest.param(lambda: Literal("true", XSD_BOOLEAN), id="typed"),
    pytest.param(lambda: Literal("chat", lang="fr"), id="tagged"),
]


class TestTerms:
    def test_iri_rejects_empty_and_whitespace(self):
        with pytest.raises(GraphError):
            Iri("")
        with pytest.raises(GraphError):
            Iri("urn:has space")
        with pytest.raises(GraphError):
            Iri("urn:<angle>")

    @pytest.mark.parametrize("char", IRIREF_EXCLUDED, ids=lambda c: f"U+{ord(c):04X}")
    def test_iri_rejects_iriref_excluded_character(self, char):
        with pytest.raises(GraphError, match="invalid IRI"):
            Iri(f"urn:a{char}b")

    @pytest.mark.parametrize("text", ["s", "rec1", "/a/b", "#frag", "1a:b", "-a:b", "_:b", "a b:c"])
    def test_iri_rejects_a_reference_without_a_scheme(self, text):
        with pytest.raises(GraphError, match="relative IRI|invalid IRI"):
            Iri(text)

    @pytest.mark.parametrize("text", ["a:", "urn:x", "A1+.-:y", "http://example.org/a"])
    def test_iri_accepts_any_rfc3987_scheme(self, text):
        assert Iri(text).value == text

    def test_iri_keeps_other_characters(self):
        for text in ("urn:a'b", "urn:%7B", "urn:é/Ⅷ", "urn:\U0001F600", "urn:a\x7f"):
            assert Iri(text).value == text

    def test_blank_label_rules(self):
        assert BlankNode("b0").label == "b0"
        with pytest.raises(GraphError):
            BlankNode("")
        with pytest.raises(GraphError):
            BlankNode("a b")
        with pytest.raises(GraphError):
            BlankNode("a:b")

    def test_literal_defaults_to_string_datatype(self):
        assert Literal("x").datatype == XSD_STRING

    def test_language_tag_forces_langstring_datatype(self):
        lit = Literal("chat", lang="fr")
        assert lit.datatype.value.endswith("langString")
        with pytest.raises(GraphError):
            Literal("x", datatype=Iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#langString"))

    @pytest.mark.parametrize("tag", ["en", "EN", "en-US", "de-CH-1901", "x-1a2B"])
    def test_language_tag_in_the_langtag_grammar(self, tag):
        assert Literal("x", lang=tag).lang == tag

    @pytest.mark.parametrize(
        "tag", ["", "1bad", "-en", "en-", "en--us", "ёж", "en_US", "en US", "en\n", "en-ü"]
    )
    def test_language_tag_outside_the_langtag_grammar(self, tag):
        with pytest.raises(GraphError, match="invalid language tag"):
            Literal("x", lang=tag)

    def test_terms_are_value_equal_and_hashable(self):
        assert Iri("urn:a") == Iri("urn:a")
        assert len({Literal("x"), Literal("x"), Literal("x", XSD_BOOLEAN)}) == 2

    def test_iri_and_blank_node_with_one_text_are_two_terms(self):
        # An IRI needs a scheme, so the blank label takes the IRI's text after it.
        iri, blank = Iri("urn:x"), BlankNode("x")
        assert iri != blank and blank != iri
        assert not iri == blank
        g = Graph().add(blank, P, iri)
        assert g.term_id(iri) != g.term_id(blank)
        assert g.term(g.term_id(iri)) == iri and g.term(g.term_id(blank)) == blank

    def test_terms_are_not_equal_to_their_text(self):
        assert Iri("urn:a") != "urn:a"
        assert Literal("x") != "x"
        assert Literal("x") != Literal("x", lang="en")

    @pytest.mark.parametrize("make", TERM_MAKERS)
    def test_equal_terms_hash_equal(self, make):
        assert make() == make() and make() is not make()
        assert hash(make()) == hash(make())
        assert len({make(), make()}) == 1

    @pytest.mark.parametrize("make", TERM_MAKERS)
    def test_fields_cannot_be_set_or_deleted(self, make):
        term = make()
        for name in [n for n in ("value", "label", "lexical", "datatype", "lang") if hasattr(term, n)]:
            with pytest.raises(AttributeError):
                setattr(term, name, "urn:other")
            with pytest.raises(AttributeError):
                delattr(term, name)
        with pytest.raises(AttributeError):
            term.extra = 1
        assert term == make()

    @pytest.mark.parametrize("make", TERM_MAKERS)
    def test_copy_and_pickle_round_trip(self, make):
        term = make()
        for other in (
            copy.copy(term),
            copy.deepcopy(term),
            *(pickle.loads(pickle.dumps(term, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)),
        ):
            assert other == term and type(other) is type(term)
            assert repr(other) == repr(term)

    def test_keyword_construction(self):
        assert Iri(value="urn:a") == Iri("urn:a")
        assert BlankNode(label="b0") == BlankNode("b0")
        assert Literal(lexical="1", datatype=XSD_BOOLEAN) == Literal("1", XSD_BOOLEAN)
        assert Literal(lexical="chat", lang="fr").datatype == Literal("x", lang="en").datatype

    def test_repr_text(self):
        assert repr(Iri("urn:a")) == "Iri(value='urn:a')"
        assert repr(BlankNode("b0")) == "BlankNode(label='b0')"
        assert repr(Literal("x")) == (
            "Literal(lexical='x', datatype=Iri(value='http://www.w3.org/2001/XMLSchema#string'), lang=None)"
        )
        assert repr(Literal("chat", lang="fr")) == (
            "Literal(lexical='chat', datatype="
            "Iri(value='http://www.w3.org/1999/02/22-rdf-syntax-ns#langString'), lang='fr')"
        )


class TestGraphBasics:
    def test_add_returns_graph_for_chaining(self):
        g = Graph()
        assert g.add(A, P, B).add(B, P, A) is g
        assert len(g) == 2

    def test_duplicate_add_is_noop(self):
        g = Graph()
        for _ in range(6):
            g.add(A, P, Literal("x"))
        assert len(g) == 1

    def test_set_semantics_across_insertion_orders(self):
        triples = [(A, P, B), (B, Q, Literal("v")), (A, Q, A)]
        g1, g2 = Graph(), Graph()
        for s, p, o in triples:
            g1.add(s, p, o)
        for s, p, o in reversed(triples * 2):
            g2.add(s, p, o)
        assert canonicalize(g1) == canonicalize(g2)

    # add() checks term positions before interning; the reader and the
    # mapper add id triples whose positions their own rules guarantee.
    def test_subject_must_be_node(self):
        g = Graph()
        with pytest.raises(GraphError, match="subject must be"):
            g.add(Literal("x"), P, A)
        assert len(g) == 0 and g.term_id(P) is None

    def test_predicate_must_be_iri(self):
        g = Graph()
        with pytest.raises(GraphError, match="predicate must be"):
            g.add(A, BlankNode("b0"), B)
        with pytest.raises(GraphError, match="predicate must be"):
            g.add(A, Literal("p"), B)
        assert len(g) == 0 and g.term_id(A) is None

    def test_object_must_be_term(self):
        with pytest.raises(GraphError):
            Graph().add(A, P, "not-a-term")

    def test_contains_and_iter(self):
        g = Graph().add(A, P, B)
        assert (A, P, B) in g
        assert (A, P, A) not in g
        assert (Iri("urn:unseen"), P, B) not in g
        assert list(g) == [Triple(A, P, B)]

    def test_copy_is_independent(self):
        g = Graph().add(A, P, B)
        dup = g.copy()
        dup.add(B, P, A)
        assert len(g) == 1 and len(dup) == 2
        assert (B, P, A) not in g

    @pytest.mark.parametrize("grown", ["copy", "original"])
    def test_copy_shares_no_index_list(self, grown):
        c, v = Iri("urn:c"), Literal("v")
        g = Graph().add(A, P, B).add(B, Q, v)
        dup = g.copy()
        target, other = (dup, g) if grown == "copy" else (g, dup)
        patterns = list(itertools.product([None, A, B, c], [None, P, Q], [None, A, B, c, v]))
        before = {pattern: other.match(*pattern) for pattern in patterns}
        added = [
            (A, Q, c),  # same subject as (A, P, B)
            (c, P, A),  # same predicate
            (c, Q, B),  # same object
            (A, P, c),  # same subject and predicate
            (c, P, B),  # same predicate and object
        ]
        for triple in added:
            target.add(*triple)
        assert {pattern: other.match(*pattern) for pattern in patterns} == before
        assert len(other) == 2 and len(target) == 7
        assert not any(triple in other for triple in added)

    def test_id_surface_agrees_with_match(self):
        g = Graph().add(A, P, B).add(B, Q, Literal("v")).add(A, P, BlankNode("x"))
        assert g.term_id(Iri("urn:never")) is None
        for s in (None, A, B):
            for p in (None, P, Q):
                ids = [g.term_id(t) if t is not None else -1 for t in (s, p, None)]
                got = [Triple(*map(g.term, t)) for t in g.match_ids(*ids)]
                assert got == g.match(s, p)

    def test_fresh_blank_sequence(self):
        g = Graph()
        labels = [g._fresh_key() for _ in range(1000)]
        assert labels[:3] == ["_:b0", "_:b1", "_:b2"]
        assert len(set(labels)) == 1000

    def test_fresh_blank_skips_used_labels(self):
        g = Graph().add(BlankNode("b0"), P, BlankNode("b2"))
        labels = [g._fresh_key() for _ in range(3)]
        assert labels == ["_:b1", "_:b3", "_:b4"]


class TestMatch:
    def test_match_agrees_with_scan(self):
        rng = random.Random(7)
        g = Graph()
        nodes = [Iri(f"urn:n{i}") for i in range(10)] + [BlankNode(f"x{i}") for i in range(5)]
        preds = [Iri(f"urn:p{i}") for i in range(4)]
        objects = nodes + [Literal(str(i)) for i in range(6)]
        for _ in range(200):
            g.add(rng.choice(nodes), rng.choice(preds), rng.choice(objects))
        patterns = [None] + nodes[:4]
        for s in patterns:
            for p in [None] + preds:
                for o in [None, objects[-1], nodes[0]]:
                    assert sorted(g.match(s, p, o), key=triple_sort_key) == scan(g, s, p, o)

    def test_match_unknown_term_is_empty(self):
        g = Graph().add(A, P, B)
        assert g.match(Iri("urn:never")) == []
        assert g.match(None, None, Literal("never")) == []

    def test_match_results_are_ordered(self):
        # In insertion order, with or without the predicate index.
        z = BlankNode("z")
        g = Graph().add(B, P, A).add(A, Q, A).add(z, P, A).add(A, P, A)
        assert g.match(None, None, A) == [(B, P, A), (A, Q, A), (z, P, A), (A, P, A)]
        assert g.match(None, P, A) == [(B, P, A), (z, P, A), (A, P, A)]
        g.add(B, P, B)
        assert g.match(None, P) == [(B, P, A), (z, P, A), (A, P, A), (B, P, B)]

    def test_full_wildcard_returns_everything(self):
        g = Graph().add(A, P, B).add(B, Q, Literal("v"))
        assert len(g.match()) == 2

    def test_only_a_bound_predicate_builds_the_index(self):
        g = Graph().add(A, P, B).add(B, Q, Literal("v"))
        assert g.match(A) and g.match(None, None, B) and g._by_predicate is None
        assert g.match(None, P) and g._by_predicate is not None
        g.add(A, Q, B)
        assert g.match(None, Q, B) == [Triple(A, Q, B)]


_STORE_NODES = [A, B, BlankNode("x"), BlankNode("y")]
_STORE_OBJECTS = _STORE_NODES + [Literal("v"), Literal("v", lang="en")]
_STORE_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.sampled_from(["add", "match"]),
            st.integers(0, 7),
            st.sampled_from(_STORE_NODES),
            st.sampled_from([P, Q]),
            st.sampled_from(_STORE_OBJECTS),
        ),
        st.tuples(st.just("copy"), st.integers(0, 7)),
    ),
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(_STORE_OPS)
def test_store_against_a_model_across_copies(ops):
    # Indexes are built by the first match that needs one and kept current
    # by later adds; a copy builds its own.  Each graph is checked against
    # its own set of triples, so an add never shows in another graph.
    graphs, models = [Graph()], [set()]
    for op, which, *triple in ops:
        g, model = graphs[which % len(graphs)], models[which % len(graphs)]
        if op == "copy":
            graphs.append(g.copy())
            models.append(set(model))
        elif op == "add":
            g.add(*triple)
            model.add(tuple(triple))
        else:
            for keep in itertools.product([False, True], repeat=3):
                pattern = [term if k else None for term, k in zip(triple, keep)]
                expected = {
                    t for t in model if all(want in (None, got) for want, got in zip(pattern, t))
                }
                ids = [-1 if term is None else g.term_id(term) for term in pattern]
                if None in ids:
                    assert expected == set()
                    continue
                found = g.match_ids(*ids)
                assert len(found) == len(set(found))
                assert {tuple(map(g.term, t)) for t in found} == expected, pattern
    for g, model in zip(graphs, models):
        assert set(g.triples()) == model and len(g) == len(model)
        # The one index, once built, holds every triple once, under its predicate.
        if g._by_predicate is not None:
            indexed = [t for p, held in g._by_predicate.items() for t in held if t[1] == p]
            assert sorted(indexed) == sorted(g._triples)


class _PairCatalog:
    """A catalog reduced to what instances_of reads: its subclass pairs."""

    def __init__(self, pairs):
        self.pairs = pairs

    def subclass_pairs(self):
        return list(self.pairs)


class TestInstancesOf:
    CATALOG = _PairCatalog([(Iri("urn:Sub"), Iri("urn:Sup")), (Iri("urn:SubSub"), Iri("urn:Sub"))])

    def test_direct_instances(self):
        g = Graph().add(A, RDF_TYPE, Iri("urn:Sup")).add(B, RDF_TYPE, Iri("urn:Other"))
        assert instances_of(g, Iri("urn:Sup")) == [A]

    def test_subclass_instances_included_transitively(self):
        g = Graph()
        g.add(A, RDF_TYPE, Iri("urn:SubSub"))
        g.add(B, RDF_TYPE, Iri("urn:Sup"))
        got = instances_of(g, Iri("urn:Sup"), self.CATALOG)
        assert got == sorted([A, B], key=term_sort_key)
        assert instances_of(g, Iri("urn:Sub"), self.CATALOG) == [A]


_CLASSES = [Iri(f"urn:K{i}") for i in range(5)]
_TYPED_NODES = [A, B, Iri("urn:c"), BlankNode("x"), BlankNode("y")]
_TYPED_GRAPHS = st.lists(
    st.tuples(
        st.sampled_from(_TYPED_NODES),
        st.sampled_from([RDF_TYPE, P]),
        st.sampled_from(_CLASSES + _TYPED_NODES),
    ),
    max_size=20,
)
_CHAIN = [(_CLASSES[i], _CLASSES[i + 1]) for i in range(4)]


# Pairs drawn from five classes give chains up to four deep, cycles and
# self-pairs; the examples pin one of each.
@settings(max_examples=300, deadline=None)
@given(
    _TYPED_GRAPHS,
    st.lists(st.tuples(*[st.sampled_from(_CLASSES)] * 2), max_size=8),
    st.sampled_from(_CLASSES),
)
@example([(A, RDF_TYPE, _CLASSES[0]), (B, RDF_TYPE, _CLASSES[2])], _CHAIN, _CLASSES[4])
@example([(A, RDF_TYPE, _CLASSES[1])], _CHAIN[:3] + [(_CLASSES[3], _CLASSES[0])], _CLASSES[2])
@example([(A, RDF_TYPE, _CLASSES[1]), (B, P, _CLASSES[1])], [(_CLASSES[1], _CLASSES[1])], _CLASSES[1])
def test_instances_of_agrees_with_a_naive_closure(triples, pairs, cls):
    g = Graph()
    for t in triples:
        g.add(*t)
    before = g.triples()
    closed = naive_materialize(g, subclass_pairs=pairs)
    want = {t.s for t in closed.triples() if t.p == RDF_TYPE and t.o == cls}
    got = instances_of(g, cls, _PairCatalog(pairs))
    assert got == sorted(want, key=term_sort_key)
    assert instances_of(g, cls) == sorted(
        {t.s for t in before if t.p == RDF_TYPE and t.o == cls}, key=term_sort_key
    )
    assert g.triples() == before


class TestApplyRules:
    def test_chain_and_subclass_rules(self):
        g = Graph()
        g.add(A, P, B)
        g.add(B, Q, Iri("urn:c"))
        g.add(Iri("urn:x"), RDF_TYPE, Iri("urn:Sub"))
        n = g.apply_rules(
            [(P, Q, False, Iri("urn:implied"))],
            [(Iri("urn:Sub"), Iri("urn:Sup"))],
        )
        assert n == 2
        assert (A, Iri("urn:implied"), Iri("urn:c")) in g
        assert (Iri("urn:x"), RDF_TYPE, Iri("urn:Sup")) in g

    def test_inverted_chain(self):
        g = Graph()
        g.add(A, P, Iri("urn:n"))
        g.add(Iri("urn:r"), Q, Iri("urn:n"))
        assert g.apply_rules([(P, Q, True, Iri("urn:implied"))], []) == 1
        assert (A, Iri("urn:implied"), Iri("urn:r")) in g

    def test_rules_reach_fixpoint(self):
        g = Graph()
        g.add(A, RDF_TYPE, Iri("urn:c0"))
        pairs = [(Iri(f"urn:c{i}"), Iri(f"urn:c{i + 1}")) for i in range(5)]
        assert g.apply_rules([], pairs) == 5
        assert g.apply_rules([], pairs) == 0


_RULE_PREDICATES = [P, Q, Iri("urn:r"), RDF_TYPE]
_RULE_CLASSES = [Iri(f"urn:C{i}") for i in range(3)]
_RULE_NODES = [A, B, BlankNode("x"), BlankNode("y")]
_RULE_GRAPHS = st.lists(
    st.tuples(
        st.sampled_from(_RULE_NODES),
        st.sampled_from(_RULE_PREDICATES),
        st.sampled_from(_RULE_NODES + _RULE_CLASSES + [Literal("v")]),
    ),
    max_size=25,
)
# Predicates are drawn from one small pool, so chains share predicates, imply
# one of their own premises (q = p1 or q = p2) and chain through rdf:type;
# pairs drawn from three classes give subclass chains, self-loops and cycles.
_CHAINS = st.lists(
    st.tuples(
        st.sampled_from(_RULE_PREDICATES),
        st.sampled_from(_RULE_PREDICATES),
        st.booleans(),
        st.sampled_from(_RULE_PREDICATES),
    ),
    max_size=4,
)
_SUBCLASS_PAIRS = st.lists(st.tuples(*[st.sampled_from(_RULE_CLASSES)] * 2), max_size=4)


@settings(max_examples=300, deadline=None)
@given(_RULE_GRAPHS, _CHAINS, _SUBCLASS_PAIRS)
def test_apply_rules_against_a_naive_fixpoint(triples, chains, pairs):
    g = Graph()
    for t in triples:
        g.add(*t)
    want = naive_materialize(g, chains=chains, subclass_pairs=pairs)
    size = len(g)
    assert g.apply_rules(chains, pairs) == len(want) - size
    assert set(g.triples()) == set(want.triples())
    assert g.apply_rules(chains, pairs) == 0


def relabeled_shuffled(g, seed):
    """Same graph with renamed blanks and a different insertion order."""
    rng = random.Random(seed)
    triples = g.triples()
    blanks = blanks_of(triples)
    fresh = [BlankNode(f"r{seed}n{i}") for i in range(len(blanks))]
    rng.shuffle(fresh)
    mapping = dict(zip(blanks, fresh))

    def ren(term):
        return mapping.get(term, term) if isinstance(term, BlankNode) else term

    rng.shuffle(triples)
    out = Graph()
    for t in triples:
        out.add(ren(t.s), t.p, ren(t.o))
    return out


class TestCanonicalize:
    def test_ground_graph_is_sorted_ntriples(self):
        g = Graph().add(B, P, Literal("x")).add(A, P, B)
        text = canonicalize(g)
        assert text == '<urn:a> <urn:p> <urn:b> .\n<urn:b> <urn:p> "x" .\n'

    def test_empty_graph(self):
        assert canonicalize(Graph()) == ""

    def test_invariant_under_relabeling(self):
        g = Graph()
        b0, b1, b2 = BlankNode("m"), BlankNode("n"), BlankNode("o")
        g.add(b0, P, b1).add(b1, P, b2).add(b2, Q, Literal("end")).add(A, P, b0)
        for seed in range(10):
            assert canonicalize(relabeled_shuffled(g, seed)) == canonicalize(g)

    def test_blank_labels_do_not_leak(self):
        g = Graph().add(BlankNode("secret"), P, Literal("x"))
        assert "secret" not in canonicalize(g)

    def test_distinguishes_two_two_cycles_from_four_cycle(self):
        # All blanks look alike to plain degree counting here.
        g1, g2 = Graph(), Graph()
        b = [BlankNode(f"v{i}") for i in range(4)]
        g1.add(b[0], P, b[1]).add(b[1], P, b[0]).add(b[2], P, b[3]).add(b[3], P, b[2])
        g2.add(b[0], P, b[1]).add(b[1], P, b[2]).add(b[2], P, b[3]).add(b[3], P, b[0])
        assert not isomorphic_bruteforce(g1, g2)
        assert canonicalize(g1) != canonicalize(g2)
        assert canonicalize(relabeled_shuffled(g1, 3)) == canonicalize(g1)
        assert canonicalize(relabeled_shuffled(g2, 4)) == canonicalize(g2)

    def test_equality_matches_bruteforce_on_random_pairs(self):
        rng = random.Random(42)
        preds = [P, Q]
        for trial in range(60):
            nodes = [BlankNode(f"u{i}") for i in range(rng.randint(1, 5))] + [A]
            g1 = Graph()
            for _ in range(rng.randint(1, 8)):
                g1.add(rng.choice(nodes), rng.choice(preds), rng.choice(nodes))
            if trial % 2:
                g2 = relabeled_shuffled(g1, trial)
            else:
                g2 = Graph()
                for _ in range(rng.randint(1, 8)):
                    g2.add(rng.choice(nodes), rng.choice(preds), rng.choice(nodes))
            same = canonicalize(g1) == canonicalize(g2)
            assert same == isomorphic_bruteforce(g1, g2), f"trial {trial}"


@st.composite
def small_graphs(draw):
    n_blanks = draw(st.integers(min_value=0, max_value=4))
    nodes = [BlankNode(f"h{i}") for i in range(n_blanks)] + [A, B]
    preds = [P, Q]
    objects = nodes + [Literal("1"), Literal("2")]
    n = draw(st.integers(min_value=0, max_value=10))
    g = Graph()
    for _ in range(n):
        g.add(
            nodes[draw(st.integers(0, len(nodes) - 1))],
            preds[draw(st.integers(0, len(preds) - 1))],
            objects[draw(st.integers(0, len(objects) - 1))],
        )
    return g


@settings(max_examples=80, deadline=None)
@given(g=small_graphs(), seed=st.integers(0, 10_000))
def test_canonical_text_is_relabeling_invariant(g, seed):
    assert canonicalize(relabeled_shuffled(g, seed)) == canonicalize(g)


@settings(max_examples=80, deadline=None)
@given(g=small_graphs())
def test_canonical_text_round_trips_to_isomorphic_graph(g):
    # Rebuilding from the canonical text yields a graph with the same text.
    rebuilt = Graph()
    for line in canonicalize(g).splitlines():
        body = line[: -len(" .")]
        parts = body.split(" ", 2)

        def parse(tok):
            if tok.startswith("<"):
                return Iri(tok[1:-1])
            if tok.startswith("_:"):
                return BlankNode(tok[2:])
            return Literal(tok[1:-1])
        rebuilt.add(parse(parts[0]), parse(parts[1]), parse(parts[2]))
    assert canonicalize(rebuilt) == canonicalize(g)


def name_chains(k):
    """k interchangeable blank agent -> name -> name part chains, as mapping mints them."""
    g = Graph()
    for i in range(k):
        agent, name, part = BlankNode(f"a{i}"), BlankNode(f"n{i}"), BlankNode(f"p{i}")
        g.add(agent, RDF_TYPE, Iri("urn:Agent")).add(agent, Iri("urn:hasName"), name)
        g.add(name, RDF_TYPE, Iri("urn:Name")).add(name, Iri("urn:hasNamePart"), part)
        g.add(part, RDF_TYPE, Iri("urn:NamePart")).add(part, Iri("urn:hasValue"), Literal("Same"))
    return g


def cycles(lengths, undirected=False):
    """Disjoint blank cycles over one predicate: every node looks alike to refinement."""
    g = Graph()
    for c, length in enumerate(lengths):
        ring = [BlankNode(f"y{c}x{i}") for i in range(length)]
        for a, b in zip(ring, ring[1:] + ring[:1]):
            g.add(a, P, b)
            if undirected:
                g.add(b, P, a)
    return g


def permutation_pair(first, second):
    """Edges x -P-> first[x] and x -Q-> second[x]: one P and one Q edge at each end."""
    g = Graph()
    node = [BlankNode(f"z{x}") for x in range(len(first))]
    for x, (y, z) in enumerate(zip(first, second)):
        g.add(node[x], P, node[y]).add(node[x], Q, node[z])
    return g


def cube():
    """The 3-cube: 8 blank corners, an edge each way between corners one bit apart."""
    g = Graph()
    for v in range(8):
        for bit in (1, 2, 4):
            g.add(BlankNode(f"v{v}"), P, BlankNode(f"v{v ^ bit}"))
    return g


# Neighbour offsets on the 4x4 torus.
SRG_STEPS = {
    "rook": [(1, 0), (2, 0), (3, 0), (0, 1), (0, 2), (0, 3)],
    "shrikhande": [(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)],
}


def strongly_regular(*names):
    """Disjoint copies of the 4x4 rook's graph ("rook") or the Shrikhande graph.

    Both are strongly regular with parameters (16, 6, 2, 2), so colour
    refinement cannot tell their nodes apart, even with one node individuated.
    """
    g = Graph()
    for c, name in enumerate(names):
        for (a, b), (i, j) in itertools.product(
            itertools.product(range(4), repeat=2), SRG_STEPS[name]
        ):
            g.add(BlankNode(f"g{c}n{a}{b}"), P, BlankNode(f"g{c}n{(a + i) % 4}{(b + j) % 4}"))
    return g


SYMMETRIC = st.one_of(
    st.integers(1, 4).map(name_chains),
    st.integers(1, 4).map(lambda k: cycles([2] * k)),
    st.tuples(st.integers(1, 6), st.integers(1, 2)).map(lambda lc: cycles([lc[0]] * lc[1])),
    st.tuples(st.integers(3, 6), st.integers(1, 2)).map(lambda lc: cycles([lc[0]] * lc[1], True)),
    st.just(cube()),
    st.lists(st.integers(2, 5), min_size=2, max_size=3).map(cycles),
    st.lists(st.integers(3, 4), min_size=2, max_size=2).map(lambda ls: cycles(ls, True)),
    st.integers(3, 7).flatmap(
        lambda n: st.tuples(st.permutations(range(n)), st.permutations(range(n)))
    ).map(lambda pair: permutation_pair(*pair)),
)


@st.composite
def symmetric_graphs(draw):
    """A symmetric family member, relabelled, with a few extra edges or none."""
    g = relabeled_shuffled(draw(SYMMETRIC), draw(st.integers(0, 10_000)))
    blanks = blanks_of(g.triples())
    for _ in range(draw(st.integers(0, 2))):
        g.add(draw(st.sampled_from(blanks)), Q, draw(st.sampled_from(blanks + [A])))
    return g


@st.composite
def random_graphs(draw):
    """Up to 6 blank nodes with self-loops, literals and IRIs, from two predicates."""
    nodes = [BlankNode(f"r{i}") for i in range(draw(st.integers(1, 6)))] + [A]
    objects = nodes + [Literal("1"), Literal("1", lang="en"), Literal("1", XSD_BOOLEAN)]
    g = Graph()
    for _ in range(draw(st.integers(1, 14))):
        s, p = draw(st.sampled_from(nodes)), draw(st.sampled_from([P, Q]))
        g.add(s, p, draw(st.sampled_from(objects)))
    return g


def assert_agrees_with_exhaustive(*graphs):
    """canonicalize gives two of the graphs equal text exactly when the
    unpruned search of tests/oracles.py does.  Canonical form v2 is not the
    oracle's text, but it must draw the same distinctions."""
    ours = [canonicalize(g) for g in graphs]
    theirs = [canonicalize_exhaustive(g) for g in graphs]
    for i, j in itertools.combinations(range(len(graphs)), 2):
        assert (ours[i] == ours[j]) == (theirs[i] == theirs[j]), (i, j)


class TestPrunedSearchMatchesExhaustive:
    @settings(max_examples=150, deadline=None)
    @given(g=random_graphs(), h=random_graphs(), seed=st.integers(0, 10_000))
    def test_random_graphs(self, g, h, seed):
        assert_agrees_with_exhaustive(g, relabeled_shuffled(g, seed), h)

    @settings(max_examples=120, deadline=None)
    @given(g=symmetric_graphs(), h=symmetric_graphs(), seed=st.integers(0, 10_000))
    def test_symmetric_families(self, g, h, seed):
        assert_agrees_with_exhaustive(g, relabeled_shuffled(g, seed), h)

    @pytest.mark.parametrize(
        "g",
        [
            name_chains(4),
            cycles([2, 2, 2, 2]),
            cycles([6]),
            cycles([5, 5], undirected=True),
            cube(),
            cycles([3, 3, 3]),
            # Two P 2-cycles across one Q 4-cycle: a leaf equal to the first
            # must return to where the paths part, not one level higher.
            permutation_pair([2, 3, 0, 1], [3, 2, 0, 1]),
        ],
        ids=[
            "4-name-chains",
            "4-two-cycles",
            "6-cycle",
            "two-5-rings",
            "3-cube",
            "three-3-cycles",
            "2-cycles-across-4-cycle",
        ],
    )
    def test_largest_family_members(self, g):
        assert_agrees_with_exhaustive(g, relabeled_shuffled(g, 1), relabeled_shuffled(g, 2))

    def test_refinement_blind_components(self):
        # A searched sibling's colours match here without an automorphism
        # behind them, so pruning on colours alone would make the text
        # depend on the input's blank labels.
        mixed = strongly_regular("rook", "shrikhande")
        text = canonicalize(mixed)
        for seed in range(12):
            assert canonicalize(relabeled_shuffled(mixed, seed)) == text
        assert text != canonicalize(strongly_regular("rook", "rook"))
        assert text != canonicalize(strongly_regular("shrikhande", "shrikhande"))

    def test_canonical_labels_carry_the_document_labels(self):
        # The writers take blank labels from this map: renaming each blank
        # node to c<N> gives the document itself.
        g = relabeled_shuffled(name_chains(3).add(A, P, BlankNode("a1")), 5)
        labels = _canonical_labels(g)
        assert sorted(labels.values()) == list(range(len(labels)))
        relabeled = Graph()
        rename = {g.term(x): BlankNode(f"c{n}") for x, n in labels.items()}
        for s, p, o in g.triples():
            relabeled.add(rename.get(s, s), p, rename.get(o, o))
        lines = sorted(format_triple(t) for t in relabeled.triples())
        assert "".join(line + "\n" for line in lines) == canonicalize(g)


def labels_and_rule(g):
    """_canonical_labels(g), and what its forest test answered: [] when
    refinement alone labels every blank, else [True] or [False]."""
    answers = []
    is_forest = canonical_module._is_forest
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(canonical_module, "_is_forest", lambda edges: answers.append(is_forest(edges)) or answers[-1])
        labels = _canonical_labels(g)
    return labels, answers


def labels_by_full_search(g):
    """_canonical_labels(g) with the forest rule off: every leaf is searched."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(canonical_module, "_is_forest", lambda edges: False)
        return _canonical_labels(g)


def units_spent(g, forest_rule=True):
    """The budget units _canonical_labels(g) spends: its partition's limit
    minus what is left of its budget."""
    parts = []
    init = canonical_module._Partition.__init__
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(canonical_module._Partition, "__init__", lambda self, *args: parts.append(self) or init(self, *args))
        if not forest_rule:
            patch.setattr(canonical_module, "_is_forest", lambda edges: False)
        _canonical_labels(g)
    return sum(part.limit - part.budget for part in parts)


R = Iri("urn:r")
FOREST_ATTRIBUTES = [(A, False), (B, False), (A, True), (Literal("1"), False), (Literal("2"), False), (None, False)]


@st.composite
def blank_forests(draw):
    """Random trees of blanks, each in 1-4 isomorphic copies, on 1-3
    predicates in either direction, with literal or IRI attributes (an IRI
    also as subject) and self-loops."""
    preds = [P, Q, R][: draw(st.integers(1, 3))]
    g = Graph()
    for tree in range(draw(st.integers(1, 3))):
        size = draw(st.integers(1, 6))
        # Node i > 0 hangs off an earlier node, on a predicate, downward or up.
        links = [
            (draw(st.integers(0, i - 1)), draw(st.sampled_from(preds)), draw(st.booleans()))
            for i in range(1, size)
        ]
        attributes = [
            draw(st.lists(st.tuples(st.sampled_from(preds), st.sampled_from(FOREST_ATTRIBUTES)), max_size=2))
            for _ in range(size)
        ]
        for copy_number in range(draw(st.integers(1, 4))):
            node = [BlankNode(f"t{tree}c{copy_number}n{i}") for i in range(size)]
            for i, (parent, p, down) in enumerate(links, 1):
                g.add(*((node[parent], p, node[i]) if down else (node[i], p, node[parent])))
            for b, pairs in zip(node, attributes):
                for p, (value, inward) in pairs:
                    g.add(*((value, p, b) if inward else (b, p, b if value is None else value)))
    return g


class TestForestRule:
    """Where the blanks form a forest, the search stops at its first leaf,
    which must be the leaf the full search keeps."""

    @settings(max_examples=300, deadline=None)
    @given(g=blank_forests(), seed=st.integers(0, 10_000))
    def test_first_leaf_is_the_full_search_result(self, g, seed):
        labels, answers = labels_and_rule(g)
        assert answers in ([], [True])
        assert labels == labels_by_full_search(g)
        assert canonicalize(relabeled_shuffled(g, seed)) == canonicalize(g)

    @pytest.mark.parametrize(
        "g",
        [
            cycles([3, 6]),
            cycles([4, 8]),
            cycles([3, 4, 5]),
            # Two predicates between the same two blanks.
            relabeled_shuffled(name_chains(2).add(BlankNode("a0"), Q, BlankNode("n0")).add(BlankNode("a1"), Q, BlankNode("n1")), 0),
            # a -p-> b together with b -p-> a.
            cycles([2, 2, 2]),
        ],
        ids=["C3+C6", "C4+C8", "C3+C4+C5", "two-predicates", "both-directions"],
    )
    def test_other_graphs_search_every_leaf(self, g):
        labels, answers = labels_and_rule(g)
        assert answers == [False]
        text = canonicalize(g)
        for seed in range(40):
            assert canonicalize(relabeled_shuffled(g, seed)) == text
        assert_agrees_with_exhaustive(g, relabeled_shuffled(g, 1), cycles([9]))

    @pytest.mark.parametrize("fixture, taken", [("twins.xml", [True]), ("tied.xml", [False])])
    def test_fixtures(self, fixture, taken):
        path = pathlib.Path(__file__).parent / "fixtures" / fixture
        g = map_record(parse_mods_xml(path.read_bytes()), VocabularyRegistry()).graph
        labels, answers = labels_and_rule(g)
        assert answers == taken
        assert labels == labels_by_full_search(g)

    @pytest.mark.parametrize("distinct", range(6))
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_descent_on_symmetric_records(self, k, distinct):
        # The benchmark's symmetric_blank shape: one ID-less record with k
        # identical bare names and 0-5 distinct ones.
        names = ["Ada Lovelace"] * k + [f"Name {i}" for i in range(distinct)]
        random.Random(10 * k + distinct).shuffle(names)
        body = "".join(f"<name><namePart>{n}</namePart></name>" for n in names)
        text = f'<mods xmlns="http://www.loc.gov/mods/v3">{body}</mods>'
        g = map_record(parse_mods_xml(text), VocabularyRegistry()).graph
        labels, answers = labels_and_rule(g)
        assert answers == [True]
        assert labels == labels_by_full_search(g)
        assert units_spent(g) <= units_spent(g, forest_rule=False)

    def test_descent_on_twins_spends_no_more(self):
        path = pathlib.Path(__file__).parent / "fixtures" / "twins.xml"
        g = map_record(parse_mods_xml(path.read_bytes()), VocabularyRegistry()).graph
        assert units_spent(g) <= units_spent(g, forest_rule=False)

    @settings(max_examples=100, deadline=None)
    @given(g=blank_forests())
    def test_descent_spends_no_more(self, g):
        assert units_spent(g) <= units_spent(g, forest_rule=False)


class _Budget:
    def spend(self, units):
        pass


def test_orbits_take_in_only_automorphisms_that_fix_the_path_to_depth():
    # Each automorphism comes with the depth of the search path it fixes; a
    # node at depth d may merge only the orbits of those found at d or deeper.
    automorphisms = [(0, {1: 2, 2: 1}), (2, {3: 4, 4: 3}), (1, {5: 6, 6: 5}), (0, {7: 8, 8: 7})]
    orbits = canonical_module._Orbits()
    orbits.take_in(automorphisms[:2], 1, _Budget())
    orbits.take_in(automorphisms, 1, _Budget())
    assert orbits.seen == 4
    assert orbits.find(3) == orbits.find(4) and orbits.find(5) == orbits.find(6)
    assert orbits.find(1) != orbits.find(2) and orbits.find(7) != orbits.find(8)
    assert orbits.find(3) != orbits.find(5)


def collection(records):
    """The mapped graph of one ID-less MODS collection."""
    text = '<modsCollection xmlns="http://www.loc.gov/mods/v3">' + "".join(records) + "</modsCollection>"
    return map_record(parse_mods_xml(text), VocabularyRegistry()).graph


IDENTICAL_RECORD = (
    '<mods><name type="personal"><namePart type="given">Ada</namePart>'
    '<namePart type="family">Lovelace</namePart><affiliation>University of London</affiliation>'
    '<role><roleTerm type="text">author</roleTerm></role></name>'
    "<originInfo><dateIssued>1843</dateIssued></originInfo></mods>"
)


@pytest.mark.parametrize(
    "g",
    [
        # Interchangeable records, sharing one affiliation node.
        collection([IDENTICAL_RECORD] * 300),
        # Without a role, a name does not link to its record: the item nodes
        # are interchangeable though every name differs.
        collection(f"<mods><name><namePart>Name {i}</namePart></name></mods>" for i in range(300)),
        cycles([3000]),
    ],
    ids=["identical-records", "role-less-records", "blank-ring"],
)
def test_labelling_work_is_near_linear(g, monkeypatch):
    # The labelling counts its refinement steps and search nodes against a
    # budget of _WORK_PER_TRIPLE per triple; with 2 * log2(m) per triple it
    # must finish, and a tenth of a step per triple must stop it.  Steps are
    # counted, not timed.  The hash-based labelling did quadratic work on all
    # three.
    m = len(g)
    monkeypatch.setattr(canonical_module, "_WORK_MIN_TRIPLES", 0)
    monkeypatch.setattr(canonical_module, "_WORK_PER_TRIPLE", 2 * math.log2(m))
    labels = _canonical_labels(g)
    assert sorted(labels.values()) == list(range(len(blanks_of(g.triples()))))
    monkeypatch.setattr(canonical_module, "_WORK_PER_TRIPLE", 0.1)
    with pytest.raises(LabellingBudgetError):
        _canonical_labels(g)
