"""Blank-node labels on a seeded corpus, against stored digests.

A fixed random.Random seed builds a few hundred small blank graphs: trees
that refinement alone labels, forests of isomorphic copies, records shaped
like the benchmark's symmetric_blank and blank_convert files (mapped from
inline MODS), unions of cycles, two predicates between the same two blanks,
edges both ways, self-loops, and blanks among IRI and literal neighbours.
tests/fixtures/canonical-corpus.sha256 holds the sha256 of each graph's
canonicalize() text.  Each graph, and a copy with renamed blanks and
reshuffled triples, must give that digest, so a change to how labels are
computed must keep every label.  A change to the labels on purpose
regenerates the file, so the change shows in its diff:

    PYTHONPATH=src python tests/test_canonical_corpus.py
"""

import functools
import hashlib
import pathlib
import random

import pytest

from mmods.canonical import canonicalize
from mmods.graph import BlankNode, Graph, Iri, Literal
from mmods.mapping import map_record
from mmods.modsxml import parse_mods_xml
from mmods.vocab import VocabularyRegistry
from test_graph import relabeled_shuffled

DIGESTS = pathlib.Path(__file__).parent / "fixtures" / "canonical-corpus.sha256"
SEED = 20231024
PREDICATES = [Iri("urn:p"), Iri("urn:q"), Iri("urn:r")]
IRIS = [Iri("urn:a"), Iri("urn:b"), Iri("urn:c")]
LITERALS = [Literal("1"), Literal("2"), Literal("x", lang="en")]
MODS = 'xmlns="http://www.loc.gov/mods/v3"'


def _tree_links(rng, size):
    """(parent, predicate, downward) for nodes 1..size-1 of a random tree."""
    return [(rng.randrange(i), rng.choice(PREDICATES), rng.random() < 0.5) for i in range(1, size)]


def _add_tree(g, links, attributes, prefix):
    nodes = [BlankNode(f"{prefix}n{i}") for i in range(len(links) + 1)]
    for child, (parent, p, down) in enumerate(links, 1):
        s, o = (nodes[parent], nodes[child]) if down else (nodes[child], nodes[parent])
        g.add(s, p, o)
    for i, (p, value) in attributes:
        g.add(nodes[i], p, value)


def discrete_tree(rng):
    """A tree whose nodes refinement tells apart: each carries its depth-first
    index as a literal, or the tree is a path from a marked end."""
    g = Graph()
    size = rng.randint(2, 12)
    if rng.random() < 0.5:
        attributes = [(i, (PREDICATES[0], Literal(f"v{i}"))) for i in range(size)]
        _add_tree(g, _tree_links(rng, size), attributes, "t")
    else:
        links = [(i - 1, rng.choice(PREDICATES), True) for i in range(1, size)]
        _add_tree(g, links, [(0, (PREDICATES[0], IRIS[0]))], "t")
    return g


def forest(rng):
    """2-4 isomorphic copies of a random tree, with one other tree beside
    them half of the time."""
    g = Graph()
    trees = [rng.randint(2, 4)] + ([1] if rng.random() < 0.5 else [])
    for t, copies in enumerate(trees):
        size = rng.randint(1, 6)
        links = _tree_links(rng, size)
        attributes = [
            (rng.randrange(size), (rng.choice(PREDICATES), rng.choice(IRIS + LITERALS)))
            for _ in range(rng.randint(0, 3))
        ]
        for c in range(copies):
            _add_tree(g, links, attributes, f"f{t}c{c}")
    if len(g) == 0:
        g.add(BlankNode("lone"), PREDICATES[0], LITERALS[0])
    return g


def _mapped(text):
    return map_record(parse_mods_xml(text), VocabularyRegistry()).graph


def symmetric_record(rng):
    """One ID-less record with k in {2, 3, 4} identical bare names and 0-5
    distinct ones, in random order."""
    k, distinct = rng.randint(2, 4), rng.randint(0, 5)
    names = ["Same Name"] * k + [f"Other {i}" for i in range(distinct)]
    rng.shuffle(names)
    body = "".join(f"<name><namePart>{n}</namePart></name>" for n in names)
    return _mapped(f"<mods {MODS}>{body}</mods>")


def _name(rng, orgs):
    kind = rng.choice(["personal", "personal", "corporate", "family"])
    types = [' type="given"', ' type="family"'] if kind != "corporate" else [""]
    parts = "".join(f'<namePart{t}>{rng.choice(["Ada", "Bela", "Chen", "Dara"])}</namePart>' for t in types)
    roles = "".join(
        f'<role><roleTerm type="text">{term}</roleTerm></role>'
        for term in rng.sample(["author", "editor", "translator"], rng.randint(0, 2))
    )
    affiliation = f"<affiliation>{rng.choice(orgs)}</affiliation>" if rng.random() < 0.4 else ""
    return f'<name type="{kind}">{parts}{roles}{affiliation}</name>'


def collection_record(rng):
    """An ID-less collection of 2-6 records with names, roles, shared
    affiliations and issue dates; some records repeat another."""
    orgs = ["Org One", "Org Two"]
    records = []
    for _ in range(rng.randint(2, 6)):
        if records and rng.random() < 0.25:
            records.append(rng.choice(records))
            continue
        names = "".join(_name(rng, orgs) for _ in range(rng.randint(1, 3)))
        encoding = rng.choice(['encoding="w3cdtf" ', ""])
        date = f"<originInfo><dateIssued {encoding}>{rng.randint(1990, 1993)}</dateIssued></originInfo>"
        records.append(f"<mods>{names}{date}</mods>")
    return _mapped(f"<modsCollection {MODS}>{''.join(records)}</modsCollection>")


def cycle_union(rng):
    """1-3 disjoint blank cycles of length 2-7 on one predicate, each way
    half of the time."""
    g = Graph()
    both = rng.random() < 0.5
    for c in range(rng.randint(1, 3)):
        ring = [BlankNode(f"y{c}x{i}") for i in range(rng.randint(2, 7))]
        for a, b in zip(ring, ring[1:] + ring[:1]):
            g.add(a, PREDICATES[0], b)
            if both:
                g.add(b, PREDICATES[0], a)
    return g


def two_predicates(rng):
    """Pairs of blanks joined by two predicates, beside pairs joined by one."""
    g = Graph()
    for i in range(rng.randint(1, 4)):
        a, b = BlankNode(f"a{i}"), BlankNode(f"b{i}")
        g.add(a, PREDICATES[0], b)
        if i == 0 or rng.random() < 0.6:
            g.add(a, PREDICATES[1], b)
        if rng.random() < 0.3:
            g.add(b, PREDICATES[2], rng.choice(LITERALS))
    return g


def both_directions(rng):
    """Pairs and chains of blanks with an edge each way between neighbours."""
    g = Graph()
    for c in range(rng.randint(1, 3)):
        chain = [BlankNode(f"d{c}x{i}") for i in range(rng.randint(2, 4))]
        back = rng.choice(PREDICATES)
        for a, b in zip(chain, chain[1:]):
            g.add(a, PREDICATES[0], b).add(b, back, a)
    return g


def self_loops(rng):
    """Blanks with self-loops, on a path or ring of blanks: on every node
    half of the time."""
    g = Graph()
    ring = [BlankNode(f"s{i}") for i in range(rng.randint(2, 7))]
    closed = rng.random() < 0.5
    for a, b in zip(ring, ring[1:] + (ring[:1] if closed else [])):
        g.add(a, PREDICATES[0], b)
    loops = len(ring) if rng.random() < 0.5 else rng.randint(1, len(ring))
    for x in rng.sample(ring, loops):
        g.add(x, PREDICATES[1], x)
    return g


def neighbours(rng):
    """1-3 copies of random blanks joined at random, with IRIs (also as
    subjects) and literals around them; the copies share the IRIs."""
    g = Graph()
    size = rng.randint(2, 6)
    edges = [(rng.randrange(size), rng.choice(PREDICATES), rng.randrange(size)) for _ in range(rng.randint(1, 2 * size))]
    around = [
        (rng.randrange(size), rng.choice(PREDICATES), rng.choice(IRIS + LITERALS), rng.random() < 0.3)
        for _ in range(rng.randint(1, 2 * size))
    ]
    for c in range(rng.randint(1, 3)):
        blanks = [BlankNode(f"m{c}x{i}") for i in range(size)]
        for s, p, o in edges:
            if s != o:
                g.add(blanks[s], p, blanks[o])
        for x, p, value, incoming in around:
            if incoming and isinstance(value, Iri):
                g.add(value, p, blanks[x])
            else:
                g.add(blanks[x], p, value)
    return g


KINDS = [
    discrete_tree,
    forest,
    symmetric_record,
    collection_record,
    cycle_union,
    two_predicates,
    both_directions,
    self_loops,
    neighbours,
]
PER_KIND = 30


def corpus():
    """(name, graph) for every graph of the corpus, in a fixed order."""
    rng = random.Random(SEED)
    return [(f"{make.__name__}-{i:02d}", make(rng)) for make in KINDS for i in range(PER_KIND)]


def digest(g):
    return hashlib.sha256(canonicalize(g).encode()).hexdigest()


@functools.cache
def stored():
    lines = DIGESTS.read_text(encoding="utf-8").splitlines()
    return {name: value for value, name in (line.split() for line in lines)}


CORPUS = corpus()


@pytest.mark.parametrize("name, g", CORPUS, ids=[name for name, _ in CORPUS])
def test_labels_match_the_stored_digest(name, g):
    want = stored()[name]
    assert digest(g) == want
    assert digest(relabeled_shuffled(g, name)) == want


def test_every_stored_digest_is_checked():
    assert sorted(stored()) == sorted(name for name, _ in CORPUS)


if __name__ == "__main__":
    DIGESTS.write_text("".join(f"{digest(g)}  {name}\n" for name, g in CORPUS), encoding="utf-8")
