"""Independent reference implementations used only by tests.

Everything here works by plain scans over the raw triple list, never through
the library's indexed lookups or its constraint checker, so agreement between
the two is meaningful.  The N-Triples reference reader scans its input one
character at a time, with none of the library reader's patterns or cache,
and the literal escaper takes one character at a time where the library's
uses one translate table.
The reference validator is the exception: it is the library's former
term-level constraint checker, which the id-level one must match finding for
finding.
"""

import hashlib
import random
from collections import Counter

from mmods.axioms import DatatypeFiller, VocabFiller
from mmods.graph import (
    RDF_LANGSTRING,
    RDF_TYPE,
    XSD_BOOLEAN,
    XSD_STRING,
    BlankNode,
    Graph,
    Iri,
    Literal,
    Triple,
    format_term,
    term_sort_key,
)
from mmods.serialize import NTriplesError
from mmods.validate import Finding

def format_triple(t):
    return f"{format_term(t.s)} {format_term(t.p)} {format_term(t.o)} ."


def triple_sort_key(t):
    return (term_sort_key(t.s), term_sort_key(t.p), term_sort_key(t.o))


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


def naive_materialize(graph, cat=None, *, chains=(), subclass_pairs=()):
    """Apply every rule everywhere, one at a time, until nothing changes.

    The rules are the catalog's when one is given, else the chains
    (p1, p2, inverted, q) and subclass pairs (sub, sup) passed in.
    """
    if cat is not None:
        chains, subclass_pairs = cat.chains(), cat.subclass_pairs()
    out = Graph()
    for t in graph.triples():
        out.add(t.s, t.p, t.o)
    changed = True
    while changed:
        changed = False
        for first, second, inverted, implied in chains:
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
        for sub, sup in subclass_pairs:
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
    symmetry of the graph.  It is the library's former canonical form; the
    library's canonicalize must give two graphs equal text exactly when
    this does.
    """
    triples = graph.triples()
    blanks = sorted(
        {term for t in triples for term in (t.s, t.o) if isinstance(term, BlankNode)},
        key=lambda b: b.label,
    )
    if not blanks:
        return "".join(line + "\n" for line in sorted(format_triple(t) for t in triples))
    return _exhaustive_doc(triples, blanks, {b: "" for b in blanks})


_LITERAL_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}


def escape_literal_reference(text):
    """The library's former per-character literal escaper: ECHAR for the
    five characters that have one, \\uXXXX for the rest below U+0020."""
    out = []
    for ch in text:
        esc = _LITERAL_ESCAPES.get(ch)
        if esc is not None:
            out.append(esc)
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04X}")
        else:
            out.append(ch)
    return "".join(out)


_NT_ESCAPES = {
    "t": "\t",
    "b": "\b",
    "n": "\n",
    "r": "\r",
    "f": "\f",
    '"': '"',
    "'": "'",
    "\\": "\\",
}
_HEX_DIGITS = set("0123456789abcdefABCDEF")


class _LineParser:
    """Reads one N-Triples line one character at a time."""

    def __init__(self, text, line_no):
        self.text = text
        self.pos = 0
        self.line_no = line_no

    def error(self, message):
        return NTriplesError(f"line {self.line_no}: {message}")

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def at_end(self):
        return self.pos >= len(self.text)

    def peek(self):
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _unescape(self, raw, what):
        out = []
        i = 0
        while i < len(raw):
            ch = raw[i]
            if ch != "\\":
                out.append(ch)
                i += 1
                continue
            if i + 1 >= len(raw):
                raise self.error(f"dangling escape in {what}")
            code = raw[i + 1]
            # ECHAR belongs to literals; an IRI takes UCHAR (\u, \U) only.
            if code in _NT_ESCAPES and what == "literal":
                out.append(_NT_ESCAPES[code])
                i += 2
            elif code in ("u", "U"):
                width = 4 if code == "u" else 8
                hexpart = raw[i + 2 : i + 2 + width]
                if len(hexpart) != width:
                    raise self.error(f"truncated \\{code} escape in {what}")
                if not all(digit in _HEX_DIGITS for digit in hexpart):
                    raise self.error(f"bad \\{code} escape {hexpart!r} in {what}")
                point = int(hexpart, 16)
                if point > 0x10FFFF:
                    raise self.error(f"bad \\{code} escape {hexpart!r} in {what}")
                if 0xD800 <= point <= 0xDFFF:
                    raise self.error(f"surrogate \\{code} escape {hexpart!r} in {what}")
                out.append(chr(point))
                i += 2 + width
            else:
                raise self.error(f"unknown escape \\{code} in {what}")
        return "".join(out)

    def read_iri(self):
        if self.peek() != "<":
            raise self.error(f"expected IRI, found {self.peek()!r}")
        end = self.text.find(">", self.pos + 1)
        if end == -1:
            raise self.error("unterminated IRI")
        raw = self.text[self.pos + 1 : end]
        self.pos = end + 1
        try:
            return Iri(self._unescape(raw, "IRI"))
        except NTriplesError:
            raise
        except ValueError as exc:
            raise self.error(str(exc)) from exc

    def read_blank(self):
        if not self.text.startswith("_:", self.pos):
            raise self.error("expected blank node label")
        start = self.pos + 2
        end = start
        while end < len(self.text) and (self.text[end].isalnum() or self.text[end] in "_-."):
            end += 1
        while end > start and self.text[end - 1] == ".":
            end -= 1
        if end == start:
            raise self.error("empty blank node label")
        label = self.text[start:end]
        self.pos = end
        return BlankNode(label)

    def read_literal(self):
        i = self.pos + 1
        while i < len(self.text):
            if self.text[i] == "\\":
                i += 2
                continue
            if self.text[i] == '"':
                break
            i += 1
        else:
            raise self.error("unterminated literal")
        if i >= len(self.text):
            raise self.error("unterminated literal")
        lexical = self._unescape(self.text[self.pos + 1 : i], "literal")
        self.pos = i + 1
        if self.text.startswith("^^", self.pos):
            self.pos += 2
            datatype = self.read_iri()
            if datatype == RDF_LANGSTRING:
                raise self.error("language string literal requires a language tag")
            return Literal(lexical, datatype)
        if self.peek() == "@":
            self.pos += 1
            start = self.pos
            while self.pos < len(self.text) and (
                self.text[self.pos].isalnum() or self.text[self.pos] == "-"
            ):
                self.pos += 1
            tag = self.text[start : self.pos]
            if not tag:
                raise self.error("empty language tag")
            try:
                return Literal(lexical, lang=tag)
            except ValueError as exc:
                raise self.error(str(exc)) from exc
        return Literal(lexical, XSD_STRING)

    def read_subject(self):
        if self.peek() == "<":
            return self.read_iri()
        return self.read_blank()

    def read_object(self):
        ch = self.peek()
        if ch == "<":
            return self.read_iri()
        if ch == '"':
            return self.read_literal()
        return self.read_blank()


def read_ntriples_reference(text):
    """N-Triples text to a graph by a character-at-a-time scan.

    The library's read_ntriples must read the same graph, or fail with the
    same message on the same line.  Line ends are "\n", with any "\r" just
    before one (or at the end of the text) taken as part of it.
    """
    graph = Graph()
    for line_no, line in enumerate(text.split("\n"), start=1):
        parser = _LineParser(line.rstrip("\r"), line_no)
        parser.skip_ws()
        if parser.at_end() or parser.peek() == "#":
            continue
        subject = parser.read_subject()
        parser.skip_ws()
        predicate = parser.read_iri()
        parser.skip_ws()
        obj = parser.read_object()
        parser.skip_ws()
        if parser.peek() != ".":
            raise parser.error("expected '.' at end of triple")
        parser.pos += 1
        parser.skip_ws()
        if not parser.at_end() and parser.peek() != "#":
            raise parser.error("unexpected text after '.'")
        try:
            graph.add(subject, predicate, obj)
        except ValueError as exc:
            raise NTriplesError(f"line {line_no}: {exc}") from exc
    return graph

# The validator's former term-level kernels, kept as a reference.  They look
# terms up through Graph.match, sorting the term triples it returns into
# term order, and test types with `in`; the library's kernels work on
# interned ids and sort only their findings.  Findings must agree field for
# field, in order.


def _match(graph, s=None, p=None, o=None):
    return sorted(graph.match(s, p, o), key=triple_sort_key)


def _typed(graph, cls):
    return sorted({t.s for t in graph.match(None, RDF_TYPE, cls)}, key=term_sort_key)


def _is_typed(graph, term, cls):
    return not isinstance(term, Literal) and (term, RDF_TYPE, cls) in graph


def _vocab_member(graph, registry, vocab_name, term):
    """Closed vocabularies admit only listed members; open ones also admit
    any IRI the graph types with the vocabulary class."""
    vocab = registry.vocabularies[vocab_name]
    if term in vocab.individuals:
        return True
    if not vocab.closed and isinstance(term, Iri):
        return (term, RDF_TYPE, vocab.class_iri) in graph
    return False


def _filler_ok(graph, registry, filler, term):
    if filler is None:
        return True
    if isinstance(filler, Iri):
        return _is_typed(graph, term, filler)
    if isinstance(filler, VocabFiller):
        return _vocab_member(graph, registry, filler.vocabulary, term)
    return isinstance(term, Literal) and term.datatype == filler.datatype


def _filler_text(filler):
    if isinstance(filler, Iri):
        return f"a node typed {format_term(filler)}"
    if isinstance(filler, VocabFiller):
        return f"a member of the {filler.vocabulary} vocabulary"
    return f"a literal of datatype {format_term(filler.datatype)}"


def _finding(constraint, severity, focus, detail):
    return Finding(
        code=constraint.code,
        axiom_id=constraint.axiom_id,
        severity=severity,
        focus=format_term(focus),
        detail=detail,
        message=constraint.message,
    )


def _check_existential(graph, constraint, registry):
    out = []
    for x in _typed(graph, constraint.scope_class):
        edges = _match(graph, x, constraint.prop, None)
        if not any(_filler_ok(graph, registry, constraint.filler, t.o) for t in edges):
            detail = (
                f"{format_term(x)} has no {format_term(constraint.prop)} edge to "
                f"{_filler_text(constraint.filler)}"
            )
            out.append(_finding(constraint, "error", x, detail))
    return out


def _check_max_one(graph, constraint, registry):
    out = []
    edges = _match(graph, None, constraint.prop, None)
    if constraint.direction == "forward":
        groups = {}
        for t in edges:
            if constraint.scope_class is not None and not _is_typed(graph, t.s, constraint.scope_class):
                continue
            if constraint.filler is not None and not _filler_ok(graph, registry, constraint.filler, t.o):
                continue
            groups.setdefault(t.s, set()).add(t.o)
        for focus in sorted(groups, key=term_sort_key):
            objects = groups[focus]
            if len(objects) > 1:
                listed = ", ".join(sorted(format_term(o) for o in objects))
                detail = (
                    f"{format_term(focus)} has {len(objects)} distinct "
                    f"{format_term(constraint.prop)} objects: {listed}"
                )
                out.append(_finding(constraint, "error", focus, detail))
        return out
    groups = {}
    for t in edges:
        if constraint.scope_class is not None and not _is_typed(graph, t.o, constraint.scope_class):
            continue
        if constraint.filler is not None and not _filler_ok(graph, registry, constraint.filler, t.s):
            continue
        groups.setdefault(t.o, set()).add(t.s)
    for focus in sorted(groups, key=term_sort_key):
        subjects = groups[focus]
        if len(subjects) > 1:
            listed = ", ".join(sorted(format_term(s) for s in subjects))
            detail = (
                f"{format_term(focus)} has {len(subjects)} distinct incoming "
                f"{format_term(constraint.prop)} subjects: {listed}"
            )
            out.append(_finding(constraint, "error", focus, detail))
    return out


def _check_universal_range(graph, constraint, registry, strict):
    out = []
    vocab_filler = isinstance(constraint.filler, VocabFiller)
    severity = "error" if (not vocab_filler or strict) else "warning"
    for t in _match(graph, None, constraint.prop, None):
        if not _filler_ok(graph, registry, constraint.filler, t.o):
            detail = f"object of {format_triple(t)} is not {_filler_text(constraint.filler)}"
            out.append(_finding(constraint, severity, t.s, detail))
    return out


def _check_inverse_existential(graph, constraint, registry):
    out = []
    for x in _typed(graph, constraint.scope_class):
        incoming = _match(graph, None, constraint.prop, x)
        if not any(_is_typed(graph, t.s, constraint.source_class) for t in incoming):
            detail = (
                f"{format_term(x)} has no incoming {format_term(constraint.prop)} edge "
                f"from a node typed {format_term(constraint.source_class)}"
            )
            out.append(_finding(constraint, "error", x, detail))
    return out


def _check_negated_path(graph, constraint, registry):
    out = []
    for x in _typed(graph, constraint.scope_class):
        hit = None
        for step in _match(graph, x, constraint.prop, None):
            if isinstance(step.o, Literal):
                continue
            tails = _match(graph, step.o, constraint.prop2, None)
            if tails:
                hit = (step.o, tails[0].o)
                break
        if hit is not None:
            detail = (
                f"{format_term(x)} reaches {format_term(hit[1])} via "
                f"{format_term(constraint.prop)} then {format_term(constraint.prop2)}"
            )
            out.append(_finding(constraint, "error", x, detail))
    return out


def _check_structural_tautology(graph, constraint, registry):
    out = []
    for t in _match(graph, None, constraint.prop, None):
        if constraint.scope_class is not None and not _is_typed(graph, t.s, constraint.scope_class):
            continue
        if not _filler_ok(graph, registry, constraint.filler, t.o):
            detail = f"object of {format_triple(t)} is not {_filler_text(constraint.filler)}"
            out.append(_finding(constraint, "warning", t.s, detail))
    return out


def _check_scoped_domain(graph, constraint, registry):
    out = []
    seen = set()
    for t in _match(graph, None, constraint.prop, None):
        if t.s in seen:
            continue
        if _is_typed(graph, t.o, constraint.filler) and not _is_typed(graph, t.s, constraint.required_class):
            seen.add(t.s)
            detail = (
                f"{format_term(t.s)} has a {format_term(constraint.prop)} edge to "
                f"{format_term(t.o)} but is not typed {format_term(constraint.required_class)}"
            )
            out.append(_finding(constraint, "error", t.s, detail))
    return out


def check_constraint_reference(graph, constraint, registry, strict=False):
    """Findings for one constraint, as the term-level kernels give them."""
    kind = constraint.kind
    if kind in ("subclass_of", "role_chain"):
        return []
    if kind == "existential":
        return _check_existential(graph, constraint, registry)
    if kind == "max_one":
        return _check_max_one(graph, constraint, registry)
    if kind == "universal_range":
        return _check_universal_range(graph, constraint, registry, strict)
    if kind == "inverse_existential":
        return _check_inverse_existential(graph, constraint, registry)
    if kind == "negated_path":
        return _check_negated_path(graph, constraint, registry)
    if kind == "structural_tautology":
        return _check_structural_tautology(graph, constraint, registry)
    if kind == "scoped_domain":
        return _check_scoped_domain(graph, constraint, registry)
    raise ValueError(f"unknown constraint kind: {kind}")


def validate_reference(graph, cat, reg, *, infer=True, strict=False):
    """Every finding of the catalog, in catalog order, as a list.

    Inferred triples come from naive_materialize, not the library's store copy
    and saturation.
    """
    target = naive_materialize(graph, cat) if infer else graph
    findings = []
    for constraint in cat:
        findings.extend(check_constraint_reference(target, constraint, reg, strict))
    return findings
