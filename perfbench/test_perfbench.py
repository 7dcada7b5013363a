"""Fast tests of the pipeline benchmark: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import mmods  # noqa: E402
import mmods.cli  # noqa: E402
from check import check_output, count_graph  # noqa: E402
from corpus import WORKLOADS, generate  # noqa: E402
from tracing import PER_LAYER, Tracer, replay  # noqa: E402

TINY = 4


def _files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_corpus(tmp_path, workload):
    generate(workload, 5, tmp_path / "a", files=TINY)
    generate(workload, 5, tmp_path / "b", files=TINY)
    generate(workload, 6, tmp_path / "c", files=TINY)
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


def _library_counts(path: Path, argv: list) -> dict:
    """The counts mmods' library reports for one generated file."""
    registry = mmods.VocabularyRegistry()
    rules = mmods.catalog(registry)
    data = path.read_bytes()
    counts = {}
    if argv[0] == "infer":
        graph = mmods.read_ntriples(data.decode("utf-8"))
    else:
        document = mmods.parse_mods_xml(data)
        mapped = mmods.map_record(document, registry)
        graph = mapped.graph
        counts["records"] = len(document.records())
        counts["elements"] = document.element_count()
        counts["warnings"] = len(mapped.warnings)
        counts["unmapped"] = sum(1 for w in mapped.warnings if "unmapped element" in w)
        report = mmods.validate(graph, rules, registry)
        counts["findings"] = len(report.findings)
        counts["name_20"] = sum(1 for f in report.findings if f.code == "E_NAME_20")
    counts["triples"] = len(graph)
    counts["inferred"] = len(mmods.materialize(graph, rules)) - len(graph)
    counts["blank_nodes"] = len(
        {t for triple in graph.triples() for t in (triple.s, triple.o) if isinstance(t, mmods.BlankNode)}
    )
    return counts


@pytest.mark.parametrize("workload", WORKLOADS)
def test_predictions_match_mmods(tmp_path, workload):
    manifest = generate(workload, 3, tmp_path, files=TINY)
    for entry in manifest["files"]:
        path = tmp_path / entry["file"]
        expect = entry["expect"]
        actual = _library_counts(path, entry["argv"])
        assert actual == {key: expect[key] for key in actual}, entry["file"]

        argv = [str(path) if a == "{input}" else a for a in entry["argv"]]
        cli_out, replay_out = tmp_path / "cli.out", tmp_path / "replay.out"
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            rc = mmods.cli.main(argv + ["--out", str(cli_out)])
        assert check_output(argv, expect, rc, stderr.getvalue(), cli_out.read_bytes()) == []

        replay_rc, replay_stderr, counts = replay(mmods, Tracer(), argv + ["--out", str(replay_out)])
        assert (replay_rc, replay_stderr) == (rc, stderr.getvalue())
        assert replay_out.read_bytes() == cli_out.read_bytes()
        assert counts == {key: expect[key] for key in counts}


def test_exit_codes_cover_both_outcomes(tmp_path):
    manifest = generate("ids_validate", 1, tmp_path)
    assert {entry["expect"]["exit"] for entry in manifest["files"]} == {0, 3}


def test_count_graph_reads_both_syntaxes():
    nt = (
        '<http://x/a> <http://x/p> "say \\"hi\\" \\\\ \\n é"@en .\n'
        "_:c0 <http://x/p> _:c1 .\n"
        '_:c1 <http://x/q> "true"^^<http://www.w3.org/2001/XMLSchema#boolean> .\n'
    )
    assert count_graph(nt) == (3, 2)
    ttl = (
        "@prefix mmods: <https://example.org/mmods-o/> .\n\n"
        '_:c0\n    a mmods:Agent, mmods:Name ;\n    mmods:hasValue "a, b ; c." .\n\n'
        '<http://x/a>\n    mmods:p _:c0 ;\n    mmods:q "1"^^xsd:boolean .\n'
    )
    assert count_graph(ttl) == (5, 1)
    with pytest.raises(ValueError):
        count_graph("<http://x/a> <http://x/p> .\n")


def test_tracer_self_time_excludes_children():
    tracer = Tracer()
    with tracer.span("cli"):
        with tracer.span("mapping.map"):
            pass
    own = tracer.self_times()
    assert own[0] == pytest.approx(tracer.duration(0) - tracer.duration(1))
    assert [r["parent"] for r in tracer.records()] == [None, 0]


def test_benchmark_json_lists_what_the_benchmark_prints():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(PER_LAYER)
    from run import E2E_UNITS

    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == E2E_UNITS


def test_run_fails_without_mmods_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "nt_infer", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


# Layers each workload must never reach (BENCHMARK.json's "why").
BYPASSED = {
    "ids_validate": {"graph.canonicalize", "serialize.read_nt", "serialize.write_nt", "serialize.write_ttl"},
    "blank_convert": {"graph.copy", "graph.apply_rules", "validate.check", "serialize.read_nt"},
    "nt_infer": {"modsxml.parse", "mapping.map", "validate.check", "serialize.write_ttl"},
    "symmetric_blank": {"graph.copy", "graph.apply_rules", "validate.check", "serialize.read_nt"},
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_bypasses_its_layers(tmp_path, workload):
    manifest = generate(workload, 2, tmp_path, files=2)
    tracer = Tracer()
    for entry in manifest["files"]:
        argv = [str(tmp_path / entry["file"]) if a == "{input}" else a for a in entry["argv"]]
        replay(mmods, tracer, argv + ["--out", str(tmp_path / "out")])
    assert not BYPASSED[workload] & set(tracer.names)
