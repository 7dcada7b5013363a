"""Independent reference implementations used only by tests.

Everything here works by plain scans over the raw triple list, never through
the library's indexed lookups or its constraint checker, so agreement between
the two is meaningful.
"""

import hashlib
import random
from collections import Counter

from mmods.axioms import DatatypeFiller, VocabFiller
from mmods.graph import (
    RDF_TYPE,
    XSD_BOOLEAN,
    BlankNode,
    Graph,
    Iri,
    Literal,
    Triple,
    format_term,
    format_triple,
)

PROPERTY_WEIGHTS = (
    # Constrained properties drawn often so the corpus exercises every rule.
    ("hasName", 4),
    ("hasNamePart", 4),
    ("hasNamePartType", 2),
    ("assumesAgentRole", 4),
    ("providesAgentRole", 3),
    ("hasRoleUnderName", 3),
    ("hasLinkAttributes", 4),
    ("hasLanguageAttributes", 3),
    ("hasAuthorityInfo", 2),
    ("hasDateInfo", 3),
    ("hasDateAttributes", 3),
    ("isOfType", 2),
    ("hasValue", 2),
    ("hasID", 2),
    ("hasNameType", 1),
    ("isPrimaryInstance", 1),
    ("isKeyDate", 1),
    ("hasQualifier", 1),
    ("hasDateEncodingType", 1),
    ("hasAffiliation", 1),
    ("hasStandardizedName", 1),
    ("hasDescription", 1),
)

CLASS_WEIGHTS = (
    ("Agent", 4),
    ("AgentRole", 4),
    ("Name", 4),
    ("NamePart", 4),
    ("Organization", 2),
    ("DateInfo", 3),
    ("DateAttributes", 3),
    ("LanguageAttributes", 2),
    ("LinkAttributes", 2),
    ("AuthorityInfo", 1),
    ("NameIdentifier", 1),
    ("ElementInfo", 1),
    ("ModsItem", 1),
    ("DateInfoType", 1),
    ("DateEncoding", 1),
)


def _weighted(pairs):
    pool = []
    for name, weight in pairs:
        pool.extend([name] * weight)
    return pool


def random_vocab_graph(seed, reg, max_nodes=12, max_triples=40):
    """A small random graph over the registry's vocabulary."""
    rng = random.Random(seed)
    g = Graph()
    nodes = [Iri(f"urn:n{i}") for i in range(rng.randint(1, max_nodes))]
    class_pool = [reg.cls(name) for name in _weighted(CLASS_WEIGHTS)]
    prop_pool = [reg.prop(name) for name in _weighted(PROPERTY_WEIGHTS)]
    individuals = [iri for vocab in reg.vocabularies.values() for iri in vocab.individuals]
    literals = [
        Literal("2002"),
        Literal("value"),
        Literal("true", XSD_BOOLEAN),
        Literal("titre", lang="fr"),
    ]
    objects = nodes * 3 + individuals + literals
    for _ in range(rng.randint(0, max_triples)):
        if rng.random() < 0.4:
            g.add(rng.choice(nodes), RDF_TYPE, rng.choice(class_pool))
        else:
            g.add(rng.choice(nodes), rng.choice(prop_pool), rng.choice(objects))
    return g


def oracle_findings(graph, cat, reg, strict=False):
    """Counter of (code, severity, focus) per constraint, by brute force."""
    trips = graph.triples()
    types = {}
    for t in trips:
        if t.p == RDF_TYPE:
            types.setdefault(t.s, set()).add(t.o)

    def is_typed(term, cls):
        return not isinstance(term, Literal) and cls in types.get(term, ())

    def member(term, vocab_name):
        vocab = reg.vocabularies[vocab_name]
        if term in vocab.individuals:
            return True
        return not vocab.closed and isinstance(term, Iri) and vocab.class_iri in types.get(term, ())

    def fok(filler, term):
        if filler is None:
            return True
        if isinstance(filler, Iri):
            return is_typed(term, filler)
        if isinstance(filler, VocabFiller):
            return member(term, filler.vocabulary)
        assert isinstance(filler, DatatypeFiller)
        return isinstance(term, Literal) and term.datatype == filler.datatype

    def instances(cls):
        return [n for n, ts in types.items() if cls in ts]

    out = []
    for c in cat:
        kind = c.kind
        if kind in ("role_chain", "subclass_of"):
            continue
        if kind == "existential":
            for x in instances(c.scope_class):
                if not any(t.s == x and t.p == c.prop and fok(c.filler, t.o) for t in trips):
                    out.append((c.code, "error", format_term(x)))
        elif kind == "max_one":
            if c.direction == "forward":
                subjects = {t.s for t in trips if t.p == c.prop}
                for x in subjects:
                    if c.scope_class is not None and not is_typed(x, c.scope_class):
                        continue
                    objs = {
                        t.o
                        for t in trips
                        if t.s == x and t.p == c.prop and (c.filler is None or fok(c.filler, t.o))
                    }
                    if len(objs) > 1:
                        out.append((c.code, "error", format_term(x)))
            else:
                targets = {t.o for t in trips if t.p == c.prop}
                for y in targets:
                    if c.scope_class is not None and not is_typed(y, c.scope_class):
                        continue
                    subs = {
                        t.s
                        for t in trips
                        if t.p == c.prop and t.o == y and (c.filler is None or fok(c.filler, t.s))
                    }
                    if len(subs) > 1:
                        out.append((c.code, "error", format_term(y)))
        elif kind == "universal_range":
            vocab_filler = isinstance(c.filler, VocabFiller)
            severity = "error" if (not vocab_filler or strict) else "warning"
            for t in trips:
                if t.p == c.prop and not fok(c.filler, t.o):
                    out.append((c.code, severity, format_term(t.s)))
        elif kind == "inverse_existential":
            for x in instances(c.scope_class):
                if not any(
                    t.o == x and t.p == c.prop and is_typed(t.s, c.source_class) for t in trips
                ):
                    out.append((c.code, "error", format_term(x)))
        elif kind == "negated_path":
            for x in instances(c.scope_class):
                mids = [
                    t.o
                    for t in trips
                    if t.s == x and t.p == c.prop and not isinstance(t.o, Literal)
                ]
                if any(t.s == mid and t.p == c.prop2 for mid in mids for t in trips):
                    out.append((c.code, "error", format_term(x)))
        elif kind == "structural_tautology":
            for t in trips:
                if t.p != c.prop:
                    continue
                if c.scope_class is not None and not is_typed(t.s, c.scope_class):
                    continue
                if not fok(c.filler, t.o):
                    out.append((c.code, "warning", format_term(t.s)))
        elif kind == "scoped_domain":
            offenders = {
                t.s
                for t in trips
                if t.p == c.prop and is_typed(t.o, c.filler) and not is_typed(t.s, c.required_class)
            }
            for s in offenders:
                out.append((c.code, "error", format_term(s)))
        else:
            raise AssertionError(f"oracle does not know kind {kind}")
    return Counter(out)


def finding_counter(report):
    return Counter((f.code, f.severity, f.focus) for f in report.findings)


def naive_materialize(graph, cat):
    """Apply every rule everywhere, one at a time, until nothing changes."""
    out = Graph()
    for t in graph.triples():
        out.add(t.s, t.p, t.o)
    changed = True
    while changed:
        changed = False
        for first, second, inverted, implied in cat.chains():
            for t1 in list(out.triples()):
                if t1.p != first:
                    continue
                for t2 in list(out.triples()):
                    if t2.p != second:
                        continue
                    if not inverted and t2.s == t1.o:
                        if (t1.s, implied, t2.o) not in out:
                            out.add(t1.s, implied, t2.o)
                            changed = True
                    elif inverted and t2.o == t1.o:
                        if (t1.s, implied, t2.s) not in out:
                            out.add(t1.s, implied, t2.s)
                            changed = True
        for sub, sup in cat.subclass_pairs():
            for t in list(out.triples()):
                if t.p == RDF_TYPE and t.o == sub and (t.s, RDF_TYPE, sup) not in out:
                    out.add(t.s, RDF_TYPE, sup)
                    changed = True
    return out


def _blank_signature(t, focus, colors):
    parts = []
    for term in t:
        if term == focus:
            parts.append("~")
        elif isinstance(term, BlankNode):
            parts.append("?" + colors[term])
        else:
            parts.append(format_term(term))
    return " ".join(parts)


def _refine(triples, blanks, colors):
    """Iterate neighborhood hashing until the blank-node partition stabilizes."""

    def partition(cs):
        groups = {}
        for b in blanks:
            groups.setdefault(cs[b], []).append(b.label)
        return sorted(sorted(g) for g in groups.values())

    occurrences = {b: [] for b in blanks}
    for t in triples:
        for term in (t.s, t.o):
            if isinstance(term, BlankNode):
                occurrences[term].append(t)

    while True:
        new = {}
        for b in blanks:
            sigs = sorted(_blank_signature(t, b, colors) for t in occurrences[b])
            payload = colors[b] + "\x00" + "\x00".join(sigs)
            new[b] = hashlib.sha256(payload.encode()).hexdigest()
        if partition(new) == partition(colors):
            return new
        colors = new


def _relabel(t, names):
    o = names.get(t.o, t.o) if isinstance(t.o, BlankNode) else t.o
    return Triple(names.get(t.s, t.s), t.p, o)


def _exhaustive_doc(triples, blanks, colors):
    colors = _refine(triples, blanks, colors)
    groups = {}
    for b in blanks:
        groups.setdefault(colors[b], []).append(b)
    tied = sorted(color for color, g in groups.items() if len(g) > 1)
    if not tied:
        order = sorted(blanks, key=lambda b: colors[b])
        names = {b: BlankNode(f"c{i}") for i, b in enumerate(order)}
        lines = sorted(format_triple(_relabel(t, names)) for t in triples)
        return "".join(line + "\n" for line in lines)
    # Individuate each member of the least tied class in turn; keep the least document.
    best = None
    for b in sorted(groups[tied[0]], key=lambda x: x.label):
        branched = dict(colors)
        branched[b] = "!" + colors[b]
        found = _exhaustive_doc(triples, blanks, branched)
        if best is None or found < best:
            best = found
    return best


def canonicalize_exhaustive(graph):
    """Canonical N-Triples text by colour refinement and an unpruned branch search.

    Every member of every tied colour class is individuated and the least
    leaf document wins, so the search takes time exponential in the
    symmetry of the graph.  The library's canonicalize must return the
    same text, byte for byte.
    """
    triples = graph.triples()
    blanks = sorted(
        {term for t in triples for term in (t.s, t.o) if isinstance(term, BlankNode)},
        key=lambda b: b.label,
    )
    if not blanks:
        return "".join(line + "\n" for line in sorted(format_triple(t) for t in triples))
    return _exhaustive_doc(triples, blanks, {b: "" for b in blanks})
