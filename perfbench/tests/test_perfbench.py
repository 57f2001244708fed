"""Tests of the benchmark's own code: the verdict gate and the tracer.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gate
import run
import tracer
import workloads

ROOT = Path(__file__).resolve().parents[2]

TINY = (
    "recovery/qspir(subset2)/n=2",
    "user-privacy/qspir(subset2)/n=2",
    "data-privacy/bell2/n=2",
    "data-privacy/subset2/n=2",
    "attack/bell2/mixture/x=01",
    "attack/bell2/undetectability",
)


def op(label):
    name = label.split("/")[0]
    return next(o for o in workloads.build(name, gate.DEFAULT_SEED) if o.label == label)


def tiny_ops():
    return [op(label) for label in TINY]


def traced_pass(ops):
    """One traced pass after an untraced one, as the benchmark runs them.

    The untraced pass fills ``apply_local_map``'s per-process unitarity
    cache, which changes the first pass's kernel calls.
    """
    runner = run.Runner(ops, gate.DEFAULT_SEED, gate.load_reference())
    runner.one_pass()
    trace = tracer.Tracer()
    seen = {}

    def collect():
        seen["metrics"] = tracer.layer_metrics(trace)
        seen["unattributed"] = tracer.unattributed_s(trace)

    trace.install()
    try:
        elapsed, _ = runner.one_pass(trace, collect)
    finally:
        trace.uninstall()
    assert runner.failures == []
    return elapsed, seen["metrics"], seen["unattributed"]


@pytest.mark.parametrize("label", ["data-privacy/subset2/n=2", "recovery/qspir(trivial1)/n=2"])
def test_gate_flags_altered_passed_flag_and_witness(label):
    reference = gate.load_reference()
    o = op(label)
    assert gate.check(o, o.call(), gate.DEFAULT_SEED, reference) is None

    flipped = o.call()
    flipped.reports[0].passed = not flipped.reports[0].passed
    assert gate.check(o, flipped, gate.DEFAULT_SEED, reference) is not None

    rewitnessed = o.call()
    rewitnessed.reports[0].witness = {**(rewitnessed.reports[0].witness or {}), "r": "10"}
    assert gate.check(o, rewitnessed, gate.DEFAULT_SEED, reference) is not None


def test_gate_checks_verdicts_on_other_seeds():
    o = next(o for o in workloads.build("recovery", 7) if o.seeded)
    bundle = o.call()
    assert gate.check(o, bundle, 7, {}) is None
    bundle.reports[0].passed = False
    assert gate.check(o, bundle, 7, {}) is not None


def test_traced_counts_repeat_exactly():
    _, first, _ = traced_pass(tiny_ops())
    _, second, _ = traced_pass(tiny_ops())
    counts = [name for name in first if run.unit_of(name) != "s"]
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}
    assert first["audits.points"] > 0 and first["states.states_built"] > 0


def test_layer_self_times_sum_to_traced_pass_time():
    elapsed, metrics, unattributed = traced_pass(tiny_ops())
    layers = sum(metrics[f"{layer}.self_s"] for layer in tracer.LAYERS)
    assert layers + unattributed == pytest.approx(elapsed, rel=1e-9)
    assert unattributed < 0.05 * elapsed


def test_uninstall_restores_every_original():
    from qspirlab import audits, compiler, kernels, states

    before = (kernels.norm_sq, states.SparseState.__dict__["__post_init__"],
              audits.build_query_state, compiler.CompiledProtocol.run)
    trace = tracer.Tracer()
    trace.install()
    assert kernels.norm_sq is not before[0] and audits.build_query_state is not before[2]
    trace.uninstall()
    assert (kernels.norm_sq, states.SparseState.__dict__["__post_init__"],
            audits.build_query_state, compiler.CompiledProtocol.run) == before


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    _, metrics, _ = traced_pass(tiny_ops()[:1])
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == {name: run.unit_of(name) for name in [*metrics, "trace.overhead"]}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"verdict_s", "setup_s", "peak_rss_mb"}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "attack",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
