"""Seeded input corpora for the pipeline benchmark.

``generate(workload, seed, out_dir)`` writes one workload's input files and
returns its manifest: for every file, the mmods command line to run on it
and the generator's own prediction of what mmods must report (triples,
inferred triples, blank nodes, E_NAME_20 findings, exit code, mapping
warnings, parsed elements).  The predictions come from bookkeeping done
while the files are written, never from mmods.  The same workload, seed and
file count always give byte-identical files.

Workloads (see BENCHMARK.json for why each was chosen):

- ``ids_validate``: MODS collections whose records carry IDs, 1-40 records.
- ``blank_convert``: the same record shapes without IDs, 5-20 records.
- ``nt_infer``: N-Triples written here directly, with derivable edges left out.
- ``symmetric_blank``: one ID-less record with k identical bare names and
  a few distinct ones.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from xml.sax.saxutils import escape, quoteattr

# mmods' default vocabulary base; the CLI mints every class, property and
# individual under it when --base-iri is not given.
VOCAB = "https://example.org/mmods-o/"
RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
XSD_BOOLEAN = "http://www.w3.org/2001/XMLSchema#boolean"
MODS_NS = "http://www.loc.gov/mods/v3"
XLINK_NS = "http://www.w3.org/1999/xlink"

GIVEN = (
    "Ada", "Bela", "Chioma", "Dmitri", "Elif", "Farid", "Greta", "Hiroshi",
    "Ines", "Jonas", "Kavya", "Lars", "Mei", "Nadia", "Oskar", "Priya",
    "Quentin", "Rosa", "Sven", "Tamar", "Umar", "Vera", "Wen", "Ximena",
    "Yusuf", "Zofia", "Amélie", "Björn", "Cécile", "Dörte",
)
FAMILY = (
    "Okafor", "Lindqvist", "Nakamura", "Brennan", "Castillo", "Dubois",
    "Eriksen", "Fischer", "Gupta", "Haddad", "Ivanova", "Jansen", "Kowalski",
    "Lefèvre", "Müller", "Novák", "Ødegaard", "Petrov", "Quispe", "Rossi",
    "Sato", "Tanaka", "Urquhart", "Vásquez", "Wójcik", "Xu", "Yilmaz",
    "Zhang", "García", "Ó Briain",
)
ORG_HEADS = (
    "Institute of", "Society for", "Centre for", "Academy of", "Council on",
    "Laboratory for",
)
ORG_TOPICS = (
    "Applied Linguistics", "Marine Biology", "Medieval Studies",
    "Library Science", "Quantum Optics", "Urban Planning", "Folk Music",
    "Glaciology", "Printing & Typography", "Numismatics", "Cartography",
    "Textile History",
)
ROLE_TERMS = (
    "author", "editor", "illustrator", "translator", "compiler",
    "contributor", "photographer", "annotator",
)
NAME_KINDS = ("personal", "personal", "personal", "family", "corporate", "conference")
AUTHORITIES = ("orcid", "viaf", "lcnaf")
CALENDARS = ("julian", "hebrew", "islamic")
LANGS = ("en", "de", "fr", "es", "nl")
GENRES = ("article", "thesis", "map", "score", "photograph")
RESOURCE_TYPES = ("text", "cartographic", "notated music", "still image")
# Literals with characters N-Triples must escape or may spell as \u escapes.
SPECIAL_VALUES = (
    'Smith "Jr."',
    "Back\\slash & Co",
    "Line one\nline two",
    "Café Ñandú",
    "Tab\tseparated",
)

# Share of names written with no namePart in the files that get them; each
# such name gives one E_NAME_20.  Half of the ids_validate files get none,
# so both exit codes occur.
NAMELESS_SHARE = 0.1


class Tally:
    """What mmods must report for one generated file."""

    def __init__(self, with_ids: bool):
        self.with_ids = with_ids
        self.triples = 0
        self.inferred = 0
        self.blank_nodes = 0
        self.name_20 = 0
        self.unmapped = 0
        self.warnings = 0
        self.elements = 0
        self.records = 0

    def nodes(self, n: int) -> None:
        """n graph nodes minted by mapping: blank unless the record has an ID."""
        if not self.with_ids:
            self.blank_nodes += n

    def unmapped_element(self) -> None:
        self.unmapped += 1
        self.warnings += 1

    def expect(self, exit_on_errors: bool) -> dict:
        return {
            "records": self.records,
            "elements": self.elements,
            "triples": self.triples,
            "inferred": self.inferred,
            "blank_nodes": self.blank_nodes,
            "name_20": self.name_20,
            "findings": self.name_20,
            "unmapped": self.unmapped,
            "warnings": self.warnings,
            "exit": 3 if exit_on_errors and self.name_20 else 0,
        }


class Deck:
    """Seeded draws that meet their target shares over every deck dealt.

    Each feature draws from its own shuffled deck that holds the choices in
    their target proportions and is reshuffled when used up.  Files of equal
    size thus carry nearly equal work whatever the seed, which keeps the
    benchmark's figures steady across seeds; the seed still decides which
    record gets what and every string.
    """

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.decks: dict = {}

    def pick(self, key: str, choices: tuple):
        deck = self.decks.get(key)
        if not deck:
            deck = self.decks[key] = list(choices)
            self.rng.shuffle(deck)
        return deck.pop()

    def chance(self, key: str, share: float) -> bool:
        hits = round(share * 20)
        return self.pick(key, (True,) * hits + (False,) * (20 - hits))


def _el(tag, attrs=(), text="", children=()):
    return (tag, tuple(attrs), text, tuple(children))


def _render(node, out: list, depth: int) -> int:
    """Append the element's lines to out; returns how many elements it holds."""
    tag, attrs, text, children = node
    pad = "  " * depth
    attr_text = "".join(f" {key}={quoteattr(value)}" for key, value in attrs)
    if not children:
        out.append(f"{pad}<{tag}{attr_text}>{escape(text)}</{tag}>")
        return 1
    out.append(f"{pad}<{tag}{attr_text}>")
    count = 1 + sum(_render(child, out, depth + 1) for child in children)
    out.append(f"{pad}</{tag}>")
    return count


class _ModsWriter:
    """Builds one MODS collection and tallies what mapping will make of it.

    Every name, date value and name identifier is unique within the file,
    and every record has its own dateIssued, so no two blank nodes of an
    ID-less file are automorphic.
    """

    def __init__(self, rng: random.Random, with_ids: bool, nameless_share: float):
        self.rng = rng
        self.deck = Deck(rng)
        self.tally = Tally(with_ids)
        self.nameless_share = nameless_share
        self.labels: set = set()
        self.dates: set = set()
        self.tokens: set = set()
        self.orgs = [
            f"{head} {topic}"
            for head, topic in zip(rng.sample(ORG_HEADS * 2, 6), rng.sample(ORG_TOPICS, 6))
        ]
        self.orgs_seen: set = set()
        self.minted_seen: set = set()

    # Unique values -------------------------------------------------------

    @staticmethod
    def _unique(used: set, make):
        while True:
            value = make()
            if value not in used:
                used.add(value)
                return value

    def _person(self) -> tuple:
        return self._unique(self.labels, lambda: (self.rng.choice(GIVEN), self.rng.choice(FAMILY)))

    def _corporate(self) -> str:
        rng = self.rng
        return self._unique(
            self.labels, lambda: f"{rng.choice(ORG_HEADS)} {rng.choice(ORG_TOPICS)} {rng.choice(FAMILY)}"
        )

    def _date(self) -> str:
        rng = self.rng
        return self._unique(
            self.dates,
            lambda: f"{rng.randint(1800, 2023):04d}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}",
        )

    def _token(self) -> str:
        rng = self.rng
        return self._unique(
            self.tokens, lambda: "-".join(f"{rng.randint(0, 9999):04d}" for _ in range(4))
        )

    # Mapped structures ---------------------------------------------------

    def _minted(self, vocab: str, value: str) -> None:
        """A vocabulary individual mapping mints, with its warning."""
        t = self.tally
        t.triples += 1
        t.warnings += 1
        if (vocab, value) not in self.minted_seen:
            self.minted_seen.add((vocab, value))
            t.triples += 1

    def _date_element(self, tag: str, value: str, attrs: list):
        t = self.tally
        t.triples += 6
        t.nodes(2)
        keys = dict(attrs)
        encoding = keys.get("encoding")
        if encoding is not None:
            if encoding.lower() in ("w3cdtf", "iso8601"):
                t.triples += 1
            else:
                self._minted("DateEncoding", encoding)
        if keys.get("keyDate") == "yes":
            t.triples += 1
        if "point" in keys:
            t.triples += 1
        if "qualifier" in keys:
            t.triples += 1
        if "calendar" in keys:
            self._minted("Calendar", keys["calendar"])
        return _el(tag, attrs, value)

    def _name_part(self, text: str, part_type):
        t = self.tally
        attrs = []
        t.triples += 3
        t.inferred += 1  # NamePart is a subclass of ElementInfo
        t.nodes(1)
        if part_type is not None:
            attrs.append(("type", part_type))
            t.triples += 1
        if self.deck.chance("part_lang", 0.15):
            attrs.append(("xml:lang", self.rng.choice(LANGS)))
            t.triples += 3
            t.nodes(1)
        return _el("namePart", attrs, text)

    def _name(self):
        rng, deck = self.rng, self.deck
        t = self.tally
        kind = deck.pick("kind", NAME_KINDS)
        attrs = [("type", kind)]
        t.triples += 4  # agent and name typed, agent hasName name, hasNameType
        t.nodes(2)
        if deck.chance("usage", 0.2):
            attrs.append(("usage", "primary"))
            t.triples += 1
        if deck.chance("authority", 0.2):
            attrs.append(("authority", rng.choice(AUTHORITIES)))
            t.triples += 3
            t.nodes(1)
        if deck.chance("label", 0.1):
            attrs.append(("displayLabel", "Creator"))
            t.triples += 1
        if deck.chance("href", 0.1):
            attrs.append(("xlink:href", f"https://example.org/people/{self._token()}"))
            t.triples += 3
            t.nodes(1)

        children = []
        if kind in ("personal", "family"):
            given, family = self._person()
            parts = [(given, "given"), (family, "family")]
            display = f"{family}, {given}"
        else:
            display = self._corporate()
            parts = [(display, None)]
        if deck.chance("nameless", self.nameless_share):
            t.name_20 += 1
            children.append(_el("displayForm", (), display))
            t.triples += 1
        else:
            children.extend(self._name_part(text, part_type) for text, part_type in parts)
            if deck.chance("display", 0.4):
                children.append(_el("displayForm", (), display))
                t.triples += 1

        terms = rng.sample(ROLE_TERMS, deck.pick("roles", (0, 1, 1, 1, 2, 3)))
        t.triples += 5 * len(terms)
        t.nodes(len(terms))
        while terms:
            take = 2 if len(terms) > 1 and rng.random() < 0.5 else 1
            group, terms = terms[:take], terms[take:]
            children.append(
                _el("role", (), "", [_el("roleTerm", [("type", "text")], term) for term in group])
            )
        if deck.chance("affiliation", 0.3):
            org = rng.choice(self.orgs)
            children.append(_el("affiliation", (), org))
            t.triples += 1
            if org not in self.orgs_seen:
                self.orgs_seen.add(org)
                t.triples += 6
                t.inferred += 1
                t.nodes(3)
        if deck.chance("identifier", 0.25):
            children.append(_el("nameIdentifier", [("type", "orcid")], self._token()))
            t.triples += 4
            t.nodes(1)
        if deck.chance("description", 0.1):
            children.append(_el("description", (), "Biographical note."))
            t.unmapped_element()
        return _el("name", attrs, "", children)

    def _origin_info(self):
        rng, deck = self.rng, self.deck
        children = []
        attrs = []
        encoding = deck.pick("encoding", ("w3cdtf",) * 12 + ("ISO8601",) * 2 + ("edtf",) * 3 + (None,) * 3)
        if encoding is not None:
            attrs.append(("encoding", encoding))
        if deck.chance("key_date", 0.7):
            attrs.append(("keyDate", "yes"))
        children.append(self._date_element("dateIssued", self._date(), attrs))
        if deck.chance("created", 0.3):
            attrs = []
            if deck.chance("qualifier", 0.5):
                attrs.append(("qualifier", rng.choice(("approximate", "inferred", "questionable"))))
            if deck.chance("point", 0.3):
                attrs.append(("point", rng.choice(("start", "end"))))
            children.append(self._date_element("dateCreated", self._date(), attrs))
        if deck.chance("calendar", 0.1):
            calendar = [("calendar", rng.choice(CALENDARS))]
            children.append(self._date_element("dateOther", self._date(), calendar))
        if deck.chance("publisher", 0.3):
            children.append(_el("publisher", (), rng.choice(self.orgs)))
            self.tally.unmapped_element()
        return _el("originInfo", (), "", children)

    def record(self, index: int):
        rng, deck = self.rng, self.deck
        t = self.tally
        t.records += 1
        t.triples += 1
        t.nodes(1)
        attrs = [("ID", f"r{index}")] if t.with_ids else []
        if deck.chance("version", 0.3):
            attrs.append(("version", "3.7"))
        children = [_el("titleInfo", (), "", [_el("title", (), f"Record {index}")])]
        t.unmapped_element()
        children.extend(self._name() for _ in range(deck.pick("names", (1, 1, 2, 2, 3, 4))))
        if deck.chance("resource_type", 0.3):
            children.append(_el("typeOfResource", (), rng.choice(RESOURCE_TYPES)))
            t.unmapped_element()
        if deck.chance("genre", 0.3):
            children.append(_el("genre", (), rng.choice(GENRES)))
            t.unmapped_element()
        children.append(self._origin_info())
        if deck.chance("copyright", 0.1):
            children.append(self._date_element("copyrightDate", self._date(), [("encoding", "w3cdtf")]))
        if deck.chance("note", 0.2):
            children.append(_el("note", (), "Digitised from the print edition."))
            t.unmapped_element()
        return _el("mods", attrs, "", children)


def _xml_document(root) -> tuple[str, int]:
    tag, attrs, text, children = root
    root = (tag, (("xmlns", MODS_NS), ("xmlns:xlink", XLINK_NS)) + attrs, text, children)
    lines = ['<?xml version="1.0" encoding="UTF-8"?>']
    elements = _render(root, lines, 0)
    return "\n".join(lines) + "\n", elements


def _collection(rng: random.Random, records: int, with_ids: bool, nameless_share: float) -> tuple[str, Tally]:
    writer = _ModsWriter(rng, with_ids, nameless_share)
    first = rng.randint(1, 9000)
    root = _el("modsCollection", (), "", [writer.record(first + i) for i in range(records)])
    text, elements = _xml_document(root)
    writer.tally.elements = elements
    return text, writer.tally


def _symmetric(rng: random.Random, k: int, distinct: int, used: set) -> tuple[str, Tally]:
    """One ID-less record with k identical bare names and `distinct` other ones.

    Every bare name maps to 6 triples, 3 blank nodes and 1 inferred triple;
    the record adds one triple and one blank node.  The other names break
    no tie, but each branch of the labelling search refines them again.
    """

    def bare_name():
        label = _ModsWriter._unique(
            used, lambda: f"{rng.choice(GIVEN)} {rng.choice(FAMILY)} {rng.randint(1, 999)}"
        )
        return _el("name", (), "", [_el("namePart", (), label)])

    names = [bare_name()] * k + [bare_name() for _ in range(distinct)]
    rng.shuffle(names)
    text, elements = _xml_document(_el("mods", (), "", names))
    n = k + distinct
    tally = Tally(with_ids=False)
    tally.records = 1
    tally.elements = elements
    tally.triples = 6 * n + 1
    tally.inferred = n
    tally.blank_nodes = 3 * n + 1
    return text, tally


# N-Triples ---------------------------------------------------------------


def _nt_literal(rng: random.Random, value: str, lang=None, datatype=None) -> str:
    spell_unicode = rng.random() < 0.5
    out = []
    for ch in value:
        if ch == "\\":
            out.append("\\\\")
        elif ch == '"':
            out.append('\\"')
        elif ch == "\n":
            out.append("\\n")
        elif ch == "\t":
            out.append("\\t")
        elif ord(ch) > 0x7F and spell_unicode:
            out.append(f"\\u{ord(ch):04X}")
        else:
            out.append(ch)
    body = '"' + "".join(out) + '"'
    if lang is not None:
        return f"{body}@{lang}"
    if datatype is not None:
        return f"{body}^^<{datatype}>"
    return body


def _nt_graph(rng: random.Random, records: int, file_token: str) -> tuple[str, Tally]:
    """A mapped-looking graph with some rule-derivable edges left out.

    Left out, and predicted as inferred: the ElementInfo type of every name
    part and the Identifier type of some name identifiers (subclass rules),
    hasName edges of agents that keep a role under that name (chain 7), and
    assumesAgentRole edges of agents that keep hasName (chain 8).
    """
    tally = Tally(with_ids=True)
    deck = Deck(rng)
    lines: list[str] = []
    data = f"https://example.org/data/{file_token}/"
    blanks = 0

    def iri(value: str) -> str:
        return f"<{value}>"

    def add(s: str, p: str, o: str) -> None:
        lines.append(f"{s} <{VOCAB}{p}> {o} ." if p != "a" else f"{s} <{RDF_TYPE}> <{VOCAB}{o}> .")

    def fresh_blank(prefix: str) -> str:
        nonlocal blanks
        blanks += 1
        return f"_:{prefix}{blanks}"

    used: set = set()
    for r in range(records):
        tally.records += 1
        base = f"{data}r{r}/"
        item = iri(base + "item0")
        add(item, "a", "ModsItem")
        if deck.chance("item_label", 0.1):
            add(item, "hasDisplayLabel", _nt_literal(rng, rng.choice(SPECIAL_VALUES)))
        for j in range(deck.pick("names", (1, 1, 2, 2, 3))):
            agent, name = iri(f"{base}agent{j}"), iri(f"{base}name{j}")
            add(agent, "a", "Agent")
            add(name, "a", "Name")
            personal = deck.chance("personal", 0.7)
            add(name, "hasNameType", iri(VOCAB + ("Personal" if personal else "Corporate")))
            while True:
                given, family = rng.choice(GIVEN), rng.choice(FAMILY)
                if deck.chance("special", 0.1):
                    family = rng.choice(SPECIAL_VALUES)
                if (given, family) not in used:
                    used.add((given, family))
                    break
            parts = [(given, "FirstName"), (family, "LastName")] if personal else [(f"{family} {given}", None)]
            for k, (value, part_type) in enumerate(parts):
                part = iri(f"{base}namePart{j}_{k}")
                add(part, "a", "NamePart")
                tally.inferred += 1
                add(name, "hasNamePart", part)
                add(part, "hasValue", _nt_literal(rng, value))
                if part_type is not None:
                    add(part, "hasNamePartType", iri(VOCAB + part_type))
            if deck.chance("display", 0.4):
                add(name, "hasDisplayForm", _nt_literal(rng, f"{family}, {given}", lang=rng.choice(LANGS)))
            if deck.chance("lang_node", 0.15):
                lang_node = fresh_blank("l")
                add(name, "hasLanguageAttributes", lang_node)
                add(lang_node, "a", "LanguageAttributes")
                add(lang_node, "hasLang", _nt_literal(rng, rng.choice(LANGS)))
            terms = rng.sample(ROLE_TERMS, deck.pick("roles", (0, 1, 1, 2)))
            drop_has_name = bool(terms) and deck.chance("drop_has_name", 0.35)
            if drop_has_name:
                tally.inferred += 1
            else:
                add(agent, "hasName", name)
            for m, term in enumerate(terms):
                role = iri(f"{base}agentRole{j}_{m}")
                add(role, "a", "AgentRole")
                add(role, "hasValue", _nt_literal(rng, term))
                add(role, "hasRoleUnderName", name)
                add(item, "providesAgentRole", role)
                if not drop_has_name and deck.chance("drop_assumes", 0.3):
                    tally.inferred += 1
                else:
                    add(agent, "assumesAgentRole", role)
            if deck.chance("identifier", 0.3):
                ident = iri(f"{base}nameIdentifier{j}")
                add(ident, "a", "NameIdentifier")
                if deck.chance("drop_identifier_type", 0.5):
                    tally.inferred += 1
                else:
                    add(ident, "a", "Identifier")
                add(name, "hasNameIdentifier", ident)
                add(ident, "hasValue", _nt_literal(rng, f"0000-{rng.randint(1000, 9999)}-{r:04d}-{j:04d}"))
        for q in range(deck.pick("dates", (1, 1, 2))):
            date = iri(f"{base}dateInfo{q}")
            add(item, "hasDateInfo", date)
            add(date, "a", "DateInfo")
            add(date, "hasValue", _nt_literal(rng, f"{rng.randint(1800, 2023)}-{rng.randint(1, 12):02d}"))
            add(date, "isOfType", iri(VOCAB + "DateIssued"))
            attrs = fresh_blank("d")
            add(date, "hasDateAttributes", attrs)
            add(attrs, "a", "DateAttributes")
            if deck.chance("key_date", 0.6):
                add(attrs, "isKeyDate", _nt_literal(rng, "true", datatype=XSD_BOOLEAN))
            if deck.chance("qualifier", 0.2):
                add(attrs, "hasQualifier", iri(VOCAB + "Approximate"))
    if len(set(lines)) != len(lines):
        raise RuntimeError("generator emitted a duplicate triple")
    tally.triples = len(lines)
    tally.blank_nodes = blanks
    return "".join(line + "\n" for line in lines), tally


# Workloads ---------------------------------------------------------------

# name -> (file count, smallest and largest size).  Sizes are records per
# file, or k for symmetric_blank.  Op latency grows with size, so the p50
# op sits between the latencies of two neighbouring sizes; enough files
# keep that gap, and with it the run-to-run jitter of p50, small.
SHAPES = {
    "ids_validate": (96, 1, 40),
    "blank_convert": (48, 5, 20),
    "nt_infer": (48, 4, 36),
    "symmetric_blank": (162, 2, 4),
}
# symmetric_blank files hold 0 to this many distinct names beside the k
# identical ones, so op latencies spread evenly instead of in one cluster per
# k.  With clusters, p50 and p90 sit inside one; when the host runs a share of
# a run's ops slower, they stay put until that share passes the cluster's
# edge and then jump by the whole slowdown.
SYMMETRIC_DISTINCT = 5
WORKLOADS = tuple(SHAPES)


def _ladder(rng: random.Random, files: int, low: int, high: int) -> list[int]:
    """Sizes spread evenly over [low, high], in seeded order."""
    if files == 1:
        sizes = [(low + high) // 2]
    else:
        sizes = [round(low + (high - low) * i / (files - 1)) for i in range(files)]
    rng.shuffle(sizes)
    return sizes


def generate(workload: str, seed: int, out_dir, files: int | None = None) -> dict:
    """Write the workload's files into out_dir and return its manifest.

    The manifest is also written to out_dir/manifest.json.  Each entry's
    ``argv`` holds ``{input}`` where the input path goes.
    """
    if workload not in SHAPES:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    default_files, low, high = SHAPES[workload]
    files = default_files if files is None else files
    rng = random.Random(f"{workload}:{seed}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    if workload == "symmetric_blank":
        # Equal shares of each (k, distinct names) pair keep the op-latency
        # mix the same for every seed.
        ks = high - low + 1
        sizes = [(low + i % ks, i // ks % (SYMMETRIC_DISTINCT + 1)) for i in range(files)]
        rng.shuffle(sizes)
    else:
        sizes = _ladder(rng, files, low, high)

    injected = [i % 2 == 0 for i in range(files)]
    rng.shuffle(injected)
    entries = []
    used: set = set()
    for index, size in enumerate(sizes):
        if workload == "ids_validate":
            share = NAMELESS_SHARE if injected[index] else 0.0
            text, tally = _collection(rng, size, with_ids=True, nameless_share=share)
            name, argv = f"f{index:02d}.xml", ["validate", "{input}", "--report", "json"]
        elif workload == "blank_convert":
            text, tally = _collection(rng, size, with_ids=False, nameless_share=NAMELESS_SHARE)
            name, argv = f"f{index:02d}.xml", ["convert", "{input}", "--format", "ttl"]
        elif workload == "nt_infer":
            text, tally = _nt_graph(rng, size, f"s{seed}f{index}")
            name, argv = f"f{index:02d}.nt", ["infer", "{input}", "--format", "nt"]
        else:
            k, distinct = size
            text, tally = _symmetric(rng, k, distinct, used)
            name, argv = f"f{index:02d}.xml", ["convert", "{input}", "--format", "nt"]
        with open(out / name, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        entries.append(
            {
                "file": name,
                "size": size,
                "argv": argv,
                "expect": tally.expect(exit_on_errors=workload == "ids_validate"),
            }
        )

    manifest = {
        "workload": workload,
        "seed": seed,
        "files": entries,
        "corpus": {
            "files": len(entries),
            "records": sum(e["expect"]["records"] for e in entries),
            "triples": sum(e["expect"]["triples"] for e in entries),
            "bytes": sum((out / e["file"]).stat().st_size for e in entries),
        },
    }
    with open(out / "manifest.json", "w", encoding="utf-8", newline="\n") as handle:
        json.dump(manifest, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return manifest
