"""One workload run in a fresh process: ``python3 worker.py ROOT CORPUS SECONDS TRACE TRACE_OUT``.

Imports mmods from ROOT/src, runs the manifest's ops in a closed loop (one
client, one op in flight) and prints one JSON object with the run's
metrics, op counts and failures.

Every file is first run once untimed: that op's outputs are checked against
the generator's predictions and become the file's reference bytes.

- TRACE 0: ops are ``mmods.cli.main`` calls, timed one by one, until
  SECONDS have passed and at least MIN_OPS ops have been timed.
- TRACE 1: whole passes over the corpus, each op run once by the traced
  replay and once as an untraced CLI call, until SECONDS have passed.
  Per-layer values are totals per corpus pass; the tracing overhead is the
  traced minus the untraced op time per pass.  The spans are written to
  TRACE_OUT.

An op fails on an exception, an exit code or count that differs from the
prediction, or output or stderr bytes that differ from the file's reference.
All checks run outside the timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from check import check_output, out_triples  # noqa: E402
from tracing import PER_LAYER, Tracer, replay, time_metric  # noqa: E402

# p90 needs at least ten samples beyond it.
MIN_OPS = 100
MAX_PROBLEMS = 20


def load_mmods(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    import mmods
    import mmods.cli

    if Path(mmods.__file__).resolve().parent != (src / "mmods").resolve():
        raise ImportError(f"mmods imported from {mmods.__file__}, not from {src}")
    return mmods


def host_reference_ms() -> float:
    """Median time of a fixed pure-Python loop: the host's speed right now.

    Printed with the results so that runs made while the host was faster
    or slower can be told apart from changes in the code.
    """
    samples = []
    for _ in range(5):
        start = perf_counter()
        total = 0
        for i in range(200_000):
            total += i % 7
        samples.append((perf_counter() - start) * 1e3)
    return statistics.median(samples)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Run:
    """The corpus, the reference outputs and the failure tally of one run."""

    def __init__(self, mmods, corpus: Path):
        self.mmods = mmods
        self.manifest = json.loads((corpus / "manifest.json").read_text(encoding="utf-8"))
        out_dir = corpus / "out"
        out_dir.mkdir(exist_ok=True)
        self.ops = []
        for entry in self.manifest["files"]:
            argv = [str(corpus / entry["file"]) if a == "{input}" else a for a in entry["argv"]]
            out = out_dir / (entry["file"] + ".out")
            self.ops.append((entry, argv + ["--out", str(out)], out))
        self.reference: list = [None] * len(self.ops)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def stamp(self) -> dict:
        """What the run's numbers depend on besides the code under test."""
        return {
            "workload": self.manifest["workload"],
            "seed": self.manifest["seed"],
            "corpus": self.manifest["corpus"],
            "backend": self.mmods.BACKEND,
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
        }

    def fail(self, entry: dict, message: str) -> None:
        self.failed += 1
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(f"{entry['file']}: {message}")

    def cli_op(self, index: int):
        """One timed CLI call; returns (seconds, exit code, stderr, error)."""
        _, argv, out = self.ops[index]
        out.unlink(missing_ok=True)
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            start = perf_counter()
            try:
                rc = self.mmods.cli.main(argv)
                error = None
            except (Exception, SystemExit):  # a traceback or an argparse exit fails the op
                rc, error = None, traceback.format_exc(limit=3)
            elapsed = perf_counter() - start
        return elapsed, rc, stderr.getvalue(), error

    def settle(self, index: int, rc, stderr: str, error, counts=None) -> None:
        """Check one op's outputs; the file's first op sets its reference."""
        entry, argv, out = self.ops[index]
        self.attempted += 1
        if error is not None:
            self.fail(entry, "raised " + error.strip().splitlines()[-1])
            return
        output = out.read_bytes() if out.exists() else b""
        seen = (rc, digest(stderr.encode("utf-8")), digest(output))
        if self.reference[index] is None:
            try:
                problems = check_output(argv, entry["expect"], rc, stderr, output)
            except (ValueError, KeyError) as exc:
                problems = [f"unreadable output: {exc!r}"]
            self.reference[index] = seen if not problems else "failed"
        elif seen != self.reference[index]:
            problems = ["exit code, stderr or output bytes differ from the file's first op"]
        else:
            problems = []
        if counts is not None:
            expect = entry["expect"]
            problems += [
                f"traced {key} {value}, expected {expect[key]}"
                for key, value in counts.items()
                if value != expect[key]
            ]
        if problems:
            self.fail(entry, "; ".join(problems))

    def cli_op_settled(self, index: int) -> float:
        """One CLI op with its outputs checked; returns its latency."""
        elapsed, rc, stderr, error = self.cli_op(index)
        self.settle(index, rc, stderr, error)
        return elapsed

    def reference_pass(self) -> None:
        for index in range(len(self.ops)):
            self.cli_op_settled(index)

    def untraced(self, seconds: float) -> dict:
        latencies = []
        triples = 0
        start = perf_counter()
        index = 0
        while perf_counter() - start < seconds or len(latencies) < MIN_OPS:
            latencies.append(self.cli_op_settled(index))
            entry, argv, _ = self.ops[index]
            triples += out_triples(argv, entry["expect"])
            index = (index + 1) % len(self.ops)
        latencies.sort()
        p90 = latencies[math.ceil(0.9 * len(latencies)) - 1]
        return {
            "metrics": {
                "op_p50_ms": statistics.median(latencies) * 1e3,
                "op_p90_ms": p90 * 1e3,
                "triples_per_s": triples / sum(latencies),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            },
            "timed_ops": len(latencies),
        }

    def traced_op(self, tracer: Tracer, index: int, tag: str) -> float:
        """One traced replay of an op; returns its op span's duration."""
        tracer.op = tag
        self.ops[index][2].unlink(missing_ok=True)
        first = len(tracer.names)
        try:
            rc, stderr, counts = replay(self.mmods, tracer, self.ops[index][1])
        except Exception:
            self.settle(index, None, "", traceback.format_exc(limit=3))
            return 0.0
        self.settle(index, rc, stderr, None, counts)
        return tracer.duration(first)

    def traced(self, seconds: float, trace_out: Path) -> dict:
        """Alternate traced and untraced runs of each op, whole passes only."""
        tracer = Tracer()
        traced_time = untraced_time = 0.0
        passes = 0
        start = perf_counter()
        # An even number of passes, so each order of the pair occurs equally.
        while passes % 2 or passes == 0 or perf_counter() - start < seconds:
            for index, (entry, _, _) in enumerate(self.ops):
                # Alternate which goes first, so neither always finds caches warm.
                if passes % 2:
                    untraced_time += self.cli_op_settled(index)
                traced_time += self.traced_op(tracer, index, f"p{passes}/{entry['file']}")
                if not passes % 2:
                    untraced_time += self.cli_op_settled(index)
            passes += 1

        layers = {name: 0.0 for name, _ in PER_LAYER}
        by_span: dict = {}
        for sid, own in enumerate(tracer.self_times()):
            name = tracer.names[sid]
            layers[time_metric(name)] += own
            for key, value in tracer.counts.get(sid, {}).items():
                layers[key] += value
            summary = by_span.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            summary["calls"] += 1
            summary["total_s"] += tracer.duration(sid)
            summary["self_s"] += own
        metrics = {name: value / passes for name, value in layers.items()}
        metrics["trace.overhead_s"] = (traced_time - untraced_time) / passes
        with open(trace_out, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "stamp": self.stamp(),
                    "passes": passes,
                    "per_pass": metrics,
                    "by_span": by_span,
                    "traced_op_s": traced_time,
                    "untraced_op_s": untraced_time,
                    "spans": tracer.records(),
                },
                handle,
            )
        return {"metrics": metrics, "passes": passes}


def main(argv: list) -> int:
    root, corpus, seconds, trace, trace_out = argv
    mmods = load_mmods(Path(root))
    run = Run(mmods, Path(corpus))
    host_before = host_reference_ms()
    run.reference_pass()
    if trace == "1":
        result = run.traced(float(seconds), Path(trace_out))
    else:
        result = run.untraced(float(seconds))
    result["host_ref_ms"] = (host_before + host_reference_ms()) / 2
    result.update(
        attempted=run.attempted,
        failed=run.failed,
        problems=run.problems,
        stamp=run.stamp(),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
