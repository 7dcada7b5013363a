"""Traced replay of the benchmark's CLI ops.

``replay`` performs what ``mmods.cli.main`` does for the three op shapes
the benchmark issues (``validate --report json``, ``convert``, ``infer``),
step by step through mmods' public functions, and wraps each call in a
span.  Where the CLI's callee is itself a short composition of public
calls, the replay makes those calls: ``validate`` is ``Graph.copy`` plus
``Graph.apply_rules`` (the body of ``materialize``) followed by one
``check_constraint`` per catalog entry, and ``write_ntriples`` is
``canonicalize``.  Nothing inside mmods is instrumented.  The worker checks
that every replayed op writes the same bytes as the CLI, so a replay that
drifts from the CLI shows up as a failed op.

Spans are held in memory; counts are attached to the span they belong to
after the op's span has closed, so counting costs no traced time.
"""

from __future__ import annotations

import io
import os
from contextlib import contextmanager
from time import perf_counter

CHECK_KINDS = (
    "existential",
    "max_one",
    "universal_range",
    "inverse_existential",
    "negated_path",
    "structural_tautology",
    "scoped_domain",
)

# Per-layer metrics, in BENCHMARK.json order.  A "_s" metric is the self
# time of the layer's spans (their time minus nested spans), so layers add
# up to the op time; cli.self_s is the op span's own self time.
PER_LAYER = (
    ("cli.self_s", "s"),
    ("vocab.registry_s", "s"),
    ("axioms.catalog_s", "s"),
    ("modsxml.parse_s", "s"),
    ("modsxml.elements", "count"),
    ("mapping.map_s", "s"),
    ("mapping.triples", "count"),
    ("mapping.warnings", "count"),
    ("graph.copy_s", "s"),
    ("graph.apply_rules_s", "s"),
    ("inference.triples_added", "count"),
    ("validate.check_s", "s"),
    *((f"validate.check_s.{kind}", "s") for kind in CHECK_KINDS),
    ("validate.findings", "count"),
    ("graph.canonicalize_s", "s"),
    ("graph.blank_nodes", "count"),
    ("serialize.write_nt_s", "s"),
    ("serialize.write_ttl_s", "s"),
    ("serialize.read_nt_s", "s"),
    ("serialize.read_nt_triples", "count"),
    ("serialize.report_json_s", "s"),
    ("serialize.bytes_out", "bytes"),
    ("trace.overhead_s", "s"),
)


def time_metric(span_name: str) -> str:
    """The per-layer metric a span's self time adds to."""
    if span_name == "cli":
        return "cli.self_s"
    if span_name.startswith("validate.check."):
        kind = span_name.rsplit(".", 1)[1]
        # Rule kinds that check nothing count as the check loop's own time.
        return f"validate.check_s.{kind}" if kind in CHECK_KINDS else "validate.check_s"
    return span_name + "_s"


class Tracer:
    """Spans with name, op id, parent, start and end, plus per-span counts.

    Fields are kept in parallel lists of strings, ints and floats, which the
    garbage collector does not track, so holding a run's spans in memory
    does not slow the code being measured.
    """

    def __init__(self):
        self.names: list[str] = []
        self.ops: list = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counts: dict[int, dict] = {}
        self._open: list[int] = []
        self.op = None

    @contextmanager
    def span(self, name: str):
        """Time the block as a span; yields the span's id."""
        sid = len(self.names)
        self.names.append(name)
        self.ops.append(self.op)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(0.0)
        self._open.append(sid)
        self.starts.append(perf_counter())
        try:
            yield sid
        finally:
            self.ends[sid] = perf_counter()
            self._open.pop()

    def count(self, sid: int, key: str, value: int) -> None:
        self.counts.setdefault(sid, {})[key] = value

    def duration(self, sid: int) -> float:
        return self.ends[sid] - self.starts[sid]

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its child spans."""
        own = [end - start for start, end in zip(self.starts, self.ends)]
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.duration(sid)
        return own

    def records(self) -> list[dict]:
        return [
            {
                "id": sid,
                "op": self.ops[sid],
                "name": self.names[sid],
                "parent": None if self.parents[sid] < 0 else self.parents[sid],
                "start": self.starts[sid],
                "end": self.ends[sid],
                "counts": self.counts.get(sid, {}),
            }
            for sid in range(len(self.names))
        ]


def _blank_count(mmods, graph) -> int:
    blank = mmods.BlankNode
    return len({t for triple in graph.triples() for t in (triple.s, triple.o) if isinstance(t, blank)})


def _materialize(tracer: Tracer, graph, rules) -> tuple:
    """What mmods.materialize does; returns the graph, triples added and span."""
    with tracer.span("graph.copy"):
        target = graph.copy()
    with tracer.span("graph.apply_rules") as sid:
        added = target.apply_rules(rules.chains(), rules.subclass_pairs())
    return target, added, sid


def replay(mmods, tracer: Tracer, argv: list) -> tuple[int, str, dict]:
    """Run one op as the CLI would, traced.

    Returns the exit code, what the CLI would print on stderr, and the
    op's counts in the generator's prediction keys.
    """
    cli = mmods.cli
    stderr = io.StringIO()
    counts: dict = {}
    with tracer.span("cli"):
        args = cli.build_parser().parse_args(argv)
        base = args.base_iri or os.environ.get("MMODS_BASE_IRI") or mmods.DEFAULT_BASE_IRI
        with tracer.span("vocab.registry"):
            registry = mmods.VocabularyRegistry(base)
        if args.command in ("validate", "infer"):
            with tracer.span("axioms.catalog"):
                rules = mmods.catalog(registry)
        if args.command == "infer":
            with open(args.input, "rb") as handle:
                text = handle.read().decode("utf-8")
            with tracer.span("serialize.read_nt") as read_span:
                graph = read = mmods.read_ntriples(text)
        else:
            (path,) = args.inputs
            with open(path, "rb") as handle:
                data = handle.read()
            with tracer.span("modsxml.parse") as parse_span:
                document = mmods.parse_mods_xml(data, source=path)
            with tracer.span("mapping.map") as map_span:
                mapped = mmods.map_record(document, registry)
            for warning in mapped.warnings:
                print(f"warning: {path}: {warning}", file=stderr)
            graph = mapped.graph
        rc = 0
        if args.command == "validate":
            if args.no_infer or args.input_format == "nt" or args.report != "json":
                raise ValueError(f"replay does not cover {argv}")
            target, added, rules_span = _materialize(tracer, graph, rules)
            findings = []
            with tracer.span("validate.check") as check_span:
                for constraint in rules:
                    with tracer.span("validate.check." + constraint.kind):
                        findings.extend(
                            mmods.check_constraint(target, constraint, registry, args.strict)
                        )
            report = mmods.ValidationReport(findings, source=path)
            with tracer.span("serialize.report_json") as write_span:
                out = mmods.write_report_json(report)
            rc = 0 if report.ok() else cli.EXIT_INVALID
        else:
            if args.command == "infer":
                graph, added, rules_span = _materialize(tracer, graph, rules)
            else:
                # The CLI merges its inputs, renaming blank nodes, even for one.
                merge = getattr(cli, "_merge", None)
                if merge is not None:
                    graph = merge([graph])
            if args.format == "nt":
                with tracer.span("serialize.write_nt") as write_span:
                    with tracer.span("graph.canonicalize") as canon_span:
                        out = mmods.canonicalize(graph)
            else:
                with tracer.span("serialize.write_ttl") as write_span:
                    out = mmods.write_turtle(graph, registry)
                canon_span = write_span
        with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(out)

    if args.command == "infer":
        counts["triples"] = len(read)
        tracer.count(read_span, "serialize.read_nt_triples", counts["triples"])
    else:
        counts["elements"] = document.element_count()
        counts["triples"] = len(mapped.graph)
        counts["warnings"] = len(mapped.warnings)
        counts["unmapped"] = sum(1 for w in mapped.warnings if "unmapped element" in w)
        tracer.count(parse_span, "modsxml.elements", counts["elements"])
        tracer.count(map_span, "mapping.triples", counts["triples"])
        tracer.count(map_span, "mapping.warnings", counts["warnings"])
    if args.command in ("validate", "infer"):
        counts["inferred"] = added
        tracer.count(rules_span, "inference.triples_added", added)
    if args.command == "validate":
        counts["findings"] = len(findings)
        counts["name_20"] = sum(1 for f in findings if f.code == "E_NAME_20")
        tracer.count(check_span, "validate.findings", counts["findings"])
    else:
        counts["blank_nodes"] = _blank_count(mmods, graph)
        tracer.count(canon_span, "graph.blank_nodes", counts["blank_nodes"])
    tracer.count(write_span, "serialize.bytes_out", len(out.encode("utf-8")))
    return rc, stderr.getvalue(), counts
