"""Time-to-verdict benchmark for qspirlab.

Run from the root of a checkout::

    python3 perfbench/run.py --workload recovery --seed 0 --seconds 24 --trace 0

With ``--trace 0`` it prints, per workload, the median time of one pass over
the workload's operations (``verdict_s``), the set-up time (``setup_s``)
and the process's peak resident memory (``peak_rss_mb``); times are scaled
to a reference machine speed (see ``calibration_s``).  With ``--trace 1``
it runs untraced passes, then wraps every layer of qspirlab (see
``tracer.py``) and prints per-layer counts and self times plus the tracing
overhead.  Every output goes through the verdict gate (``gate.py``).  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

BLAS is pinned to one thread; the benchmark builds nothing and starts no
processes besides its own set-up probes, each of which it waits for.
"""

from __future__ import annotations

import os

# Pinned before numpy loads: unpinned OpenBLAS threads in ``eigvalsh`` add
# CPU time and noise without changing a report byte.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import gate
import tracer as tracer_mod

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

SETUP_PROBES = 7            # fresh processes timed for ``setup_s``
MIN_PASSES = 3              # per untraced run, whatever the time budget
MIN_TRACED_PASSES = 2
UNTRACED_SHARE = 1 / 3      # of a traced run's budget, spent on the baseline passes
CHUNK_S = 0.25              # operation time between two calibrations

# About the fastest ``calibration_s()`` reading on the machine the benchmark
# was tuned on (2-core Xeon VM, CPython 3.11): the speed times are scaled to.
CALIBRATION_REF_S = 0.015


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="(internal) time import and set-up once and print it")
    return parser.parse_args(argv)


def unit_of(metric: str) -> str:
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_s"):
        return "s"
    if metric == "trace.overhead" or "_per_" in metric:
        return "ratio"
    return "count"


def calibration_s() -> float:
    """Seconds taken by a fixed pure-Python loop shaped like ``ptrace_accumulate``.

    The machine this benchmark was tuned on slows by up to 2x in bursts
    lasting seconds to minutes, CPU time rising with wall time, so neither
    more passes nor the fastest pass repeat across runs.  The loop shares
    none of qspirlab's code.  Timed between operations, it measures how fast
    the machine is at that moment, and ``scale`` turns the time of the
    operations in between into their time at the reference speed.  Over
    24-second windows of data-privacy passes there, the quartile spread of
    the median pass time was 30% raw and 4% scaled.
    """
    start = time.perf_counter()
    for rep in range(3):
        terms = {}
        for k in range(4000):
            terms[(k * 2654435761 + rep) & 0xFFFFF] = complex(k, rep) * 0.5
        groups = {}
        for key, amp in terms.items():
            group = groups.get(key & 0xFF)
            if group is None:
                groups[key & 0xFF] = [(key >> 8, amp)]
            else:
                group.append((key >> 8, amp))
        acc = {}
        for items in groups.values():
            for u, a in items[:4]:
                for v, b in items[:4]:
                    acc[(u, v)] = acc.get((u, v), 0j) + a * b.conjugate()
    return time.perf_counter() - start


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` at the reference speed, given calibrations either side of it."""
    return seconds * CALIBRATION_REF_S * 2.0 / (before + after)


def setup_once(workload: str, seed: int) -> tuple[float, float]:
    """Raw and scaled seconds to import qspirlab and build the workload's operations.

    The calibrations run in the same fresh process, before and after.
    """
    before = calibration_s()
    start = time.perf_counter()
    import workloads

    workloads.build(workload, seed)
    raw = time.perf_counter() - start
    return raw, scale(raw, before, calibration_s())


def setup_times(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Raw and scaled set-up times of fresh processes (imports happen once per process)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
        r, s = json.loads(done.stdout.strip().splitlines()[-1])
        raw.append(r)
        scaled.append(s)
    return raw, scaled


def environment() -> dict:
    import numpy

    from qspirlab import kernels

    return {
        "kernels_backend": kernels.BACKEND,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "QSPIRLAB_THREADS": os.environ.get("QSPIRLAB_THREADS"),
        "QSPIRLAB_KERNELS": os.environ.get("QSPIRLAB_KERNELS"),
    }


class Runner:
    """Runs passes over one workload's operations and gates their outputs."""

    def __init__(self, ops, seed: int, reference: dict[str, str]):
        self.ops = ops
        self.seed = seed
        self.reference = reference
        self.attempted = 0
        self.failures: list[str] = []

    def one_pass(self, tracer=None, collect=None) -> tuple[float, float]:
        """Raw and scaled time of one pass; ``collect`` reads the tracer before gating.

        The raw time is the operations' own wall time: calibrations run
        between operations, at least ``CHUNK_S`` of operation time apart,
        and are left out of it.
        """
        outputs = []
        raw = scaled = chunk = 0.0
        if tracer is not None:
            tracer.begin_pass()
        before = calibration_s()
        for index, op in enumerate(self.ops):
            if tracer is not None:
                tracer.op_index = index
            start = time.perf_counter()
            try:
                outputs.append((op, op.call(), None))
            except Exception as exc:  # a failed verdict is counted, never fatal
                traceback.print_exc(file=sys.stderr)
                outputs.append((op, None, f"raised {type(exc).__name__}: {exc}"))
            chunk += time.perf_counter() - start
            if chunk >= CHUNK_S or index == len(self.ops) - 1:
                after = calibration_s()
                raw += chunk
                scaled += scale(chunk, before, after)
                before, chunk = after, 0.0
        if tracer is not None:
            tracer.end_pass(raw)
        if collect is not None:
            collect()
        for op, output, error in outputs:
            self.attempted += 1
            problem = error or gate.check(op, output, self.seed, self.reference)
            if problem is not None:
                self.failures.append(f"{op.label}: {problem}")
        return raw, scaled

    def passes(self, budget: float, minimum: int, tracer=None,
               collect=None) -> tuple[list[float], list[float]]:
        """Raw and scaled pass times, until the next pass would overrun ``budget``."""
        raw: list[float] = []
        scaled: list[float] = []
        start = time.perf_counter()
        while True:
            r, s = self.one_pass(tracer, collect)
            raw.append(r)
            scaled.append(s)
            spent = time.perf_counter() - start
            if len(raw) >= minimum and spent * (len(raw) + 1) / len(raw) > budget:
                return raw, scaled


def untraced(runner: Runner, args) -> tuple[dict, dict]:
    setup_raw, setup_scaled = setup_times(args.workload, args.seed)
    raw, scaled = runner.passes(args.seconds, MIN_PASSES)
    metrics = {
        "verdict_s": statistics.median(scaled),
        "setup_s": statistics.median(setup_scaled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {"passes": len(raw), "median_raw_pass_s": statistics.median(raw),
              "raw_pass_s": raw, "scaled_pass_s": scaled,
              "raw_setup_s": setup_raw, "scaled_setup_s": setup_scaled}
    return metrics, detail


def traced(runner: Runner, args) -> tuple[dict, dict]:
    _, baseline = runner.passes(args.seconds * UNTRACED_SHARE, MIN_TRACED_PASSES)
    trace = tracer_mod.Tracer()
    per_pass: list[dict] = []
    unattributed: list[float] = []

    def collect():
        per_pass.append(tracer_mod.layer_metrics(trace))
        unattributed.append(tracer_mod.unattributed_s(trace))

    trace.install()
    try:
        raw, scaled = runner.passes(args.seconds * (1 - UNTRACED_SHARE), MIN_TRACED_PASSES,
                                    tracer=trace, collect=collect)
    finally:
        trace.uninstall()
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    metrics["trace.overhead"] = statistics.median(scaled) / statistics.median(baseline)
    varying = sorted(name for name in per_pass[0]
                     if unit_of(name) == "count" and len({p[name] for p in per_pass}) > 1)
    if varying:
        # a count that moves between identical passes is a nondeterministic
        # enumeration order in the program: report it, never average it away
        print(f"warning: counts differ between identical passes: {varying}", file=sys.stderr)
    detail = {"scaled_untraced_pass_s": baseline, "scaled_traced_pass_s": scaled,
              "raw_traced_pass_s": raw, "unattributed_s": unattributed, "counts_vary": varying}
    return metrics, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qspirlab" / "__init__.py").is_file():
        print(f"error: no qspirlab sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        print(json.dumps(setup_once(args.workload, args.seed)))
        return 0

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2
    runner = Runner(workloads.build(args.workload, args.seed), args.seed, gate.load_reference())
    metrics, detail = (traced if args.trace else untraced)(runner, args)

    for line in runner.failures:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"environment: {json.dumps(environment(), sort_keys=True)}")
    print(f"detail: {json.dumps(detail)}")
    print(f"{args.workload} (seed {args.seed}, {len(runner.ops)} operations per pass)")
    for name, value in [*metrics.items(), ("verdicts", runner.attempted),
                        ("verdicts_failed", len(runner.failures))]:
        print(f"  {name:40s} {value:>16.6g} {unit_of(name)}")
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
