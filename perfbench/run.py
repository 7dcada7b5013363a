"""Pipeline benchmark for mmods.

Usage, from the repository root::

    python3 perfbench/run.py --workload ids_validate --seed 1 --seconds 25 --trace 0

``--workload all`` runs the four workloads in turn; its last line names
each metric WORKLOAD.METRIC.

Generates the workload's corpus from the seed (perfbench/corpus.py), times
set-up in fresh processes, then runs the workload in a fresh worker process
(perfbench/worker.py).  It prints a stamp (backend, Python, nproc, seed,
corpus size, and the time of a fixed pure-Python loop as a gauge of the
host's speed during the run), every metric by name with its unit, the failed-op ratio, and
as its last line one JSON object with the keys correct, attempted, failed
and metrics.

- ``--trace 0``: the end-to-end metrics of BENCHMARK.json, from untraced ops.
- ``--trace 1``: the per-layer metrics, from the traced replay
  (perfbench/tracing.py); the spans are kept in
  perfbench/.work/traces/WORKLOAD-seedN.json.

Exits non-zero, printing no result, when mmods is missing or a run fails
to complete.  Fast tests: ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
sys.path.insert(0, str(HERE))

from corpus import WORKLOADS, generate  # noqa: E402
from tracing import PER_LAYER  # noqa: E402

# Set-up is timed in this many fresh processes, after one untimed process
# that fills the bytecode cache; the median is reported.
SETUP_SAMPLES = 11
WORKER_TIMEOUT_S = 150
E2E_UNITS = {
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "triples_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def setup_seconds() -> float:
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(ROOT / "src")],
            capture_output=True, text=True, cwd=ROOT, timeout=60, check=True,
        )
        seconds, origin = done.stdout.split()
        if Path(origin).resolve().parent != (ROOT / "src" / "mmods").resolve():
            raise RuntimeError(f"set-up probe imported mmods from {origin}")
        samples.append(float(seconds))
    return statistics.median(samples[1:])


def run_worker(corpus: Path, seconds: int, trace: int, trace_out: Path) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(ROOT), str(corpus), str(seconds),
         str(trace), str(trace_out)],
        capture_output=True, text=True, cwd=ROOT, timeout=WORKER_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(f"worker exited with {done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One workload run; prints its report and returns its result line."""
    run_dir = WORK / f"{workload}-{seed}-{os.getpid()}"
    trace_out = WORK / "traces" / f"{workload}-seed{seed}.json"
    trace_out.parent.mkdir(parents=True, exist_ok=True)
    try:
        generate(workload, seed, run_dir / "corpus")
        setup = setup_seconds() if trace == 0 else None
        result = run_worker(run_dir / "corpus", seconds, trace, trace_out)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    stamp, corpus = result["stamp"], result["stamp"]["corpus"]
    print(
        f"perfbench workload={workload} seed={seed} seconds={seconds} trace={trace} "
        f"backend={stamp['backend']} python={stamp['python']} nproc={stamp['nproc']} "
        f"host_ref_ms={result['host_ref_ms']:.4g}"
    )
    print(
        f"corpus files={corpus['files']} records={corpus['records']} "
        f"triples={corpus['triples']} bytes={corpus['bytes']}; "
        + (f"timed ops={result['timed_ops']}" if trace == 0 else f"passes={result['passes']}")
    )
    if trace == 0:
        units = E2E_UNITS
        metrics = dict(result["metrics"], setup_s=setup)
    else:
        units = dict(PER_LAYER)
        metrics = result["metrics"]
        print(f"spans: {trace_out.relative_to(ROOT)}")
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"failed_ratio {failed / attempted:.6g} ratio ({failed} of {attempted} ops)")
    for problem in result["problems"]:
        print(f"failed op: {problem}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="mmods pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "mmods" / "__init__.py").is_file():
        print(f"error: no mmods sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in workloads:
        try:
            results[workload] = run_one(workload, args.seed, args.seconds, args.trace)
        except (OSError, RuntimeError, ValueError, subprocess.SubprocessError) as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    # One line for all workloads: metrics are named WORKLOAD.METRIC.
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {
                    f"{workload}.{name}": metric
                    for workload, r in results.items()
                    for name, metric in r["metrics"].items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
