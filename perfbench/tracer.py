"""Per-layer tracing of qspirlab from outside the package.

``Tracer.install()`` wraps the public functions, public methods and
constructors of every measured module (one module is one layer), then
re-binds each copy that a ``from ... import`` left in another module, so
every call that crosses a layer boundary goes through a wrapper.  Spans
are aggregated in memory by (name, parent name); a span's self time is its
duration minus the durations of its direct children.  Nothing under
``src/`` is edited: ``uninstall()`` puts every original back.

``layer_metrics()`` turns one pass's spans into the per-layer metrics that
``BENCHMARK.json`` lists.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import sys
import time

# Measured modules, one layer each.  ``reference`` (a test oracle) and
# ``cli`` (argument parsing around the same calls) are deliberately absent.
LAYERS = ("kernels", "registers", "schemes", "states", "density", "compiler", "bell",
          "protocols", "transcript", "audits", "adversary", "experiments")

KERNEL_FNS = ("tensor_terms", "scale_terms", "norm_sq", "phase_apply", "extract_sub",
              "conditional_xor", "apply_map_terms", "branch_split", "ptrace_accumulate", "dot2")
STATE_OPS = ("apply_phase_oracle", "apply_local_map", "conditional_xor_relabel",
             "measurement_branches", "tensor", "equal_up_to_global_phase")

# Positions of the term-map arguments of each kernel, for ``kernels.terms_in``
# (``ptrace_accumulate``'s first argument is the accumulator, not input).
_TERM_ARGS = {"tensor_terms": (0, 1), "ptrace_accumulate": (1,), "extract_sub": (),
              "insert_sub": (), "dot2": (), "masked_parities": ()}

# ``apply_local_map`` caches its unitarity check by the identity of the map it
# is given; wrapping a map would give it a new identity and redo the check.
_NOT_WRAPPED = {"states.hadamard"}

_PROTOCOL_RUNS = {"compiler.CompiledProtocol.run", "compiler.CompiledProtocol.run_output",
                  "bell.BellProtocol.run", "bell.BellProtocol.run_output",
                  "protocols.ClassicalProtocol.run", "protocols.ClassicalProtocol.run_output"}

# The communication row runs one accounting transcript per config; it is not
# an audit enumeration point, so ``audits.runs_per_point`` leaves it out.
_ACCOUNTING_SPAN = "experiments.comm_row"

ROOT = "pass"


class Tracer:
    """Span aggregation for one process; ``begin_pass`` clears the previous pass."""

    def __init__(self):
        self.spans: dict[tuple[str, str], list] = {}
        self.stack: list[list] = [[ROOT, 0.0]]
        self.op_index = 0
        self._restore: list[tuple[object, str, object]] = []
        self._reset_counters()

    def _reset_counters(self):
        self.terms_in = 0
        self.peak_terms = 0
        self.peak_entries = 0
        self.points: set = set()
        self.enumerated_runs = 0

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        replaced: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"qspirlab.{layer}")
            for owner, attr, name, fn in _targets(layer, module):
                wrapper = self._wrap(name, fn, self._probe_for(name))
                if isinstance(vars(owner)[attr], classmethod):
                    self._set(owner, attr, classmethod(wrapper))
                    continue
                self._set(owner, attr, wrapper)
                if owner is module:
                    replaced[id(fn)] = (fn, wrapper)
        # re-bind the copies made by ``from .module import name``; the kernel
        # implementation modules keep their own unwrapped internal calls
        for modname, module in list(sys.modules.items()):
            if not (modname == "qspirlab" or modname.startswith("qspirlab.")):
                continue
            if modname in ("qspirlab._kernels_py", "qspirlab._kernels", "qspirlab.kernels"):
                continue
            for attr, value in list(vars(module).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(module, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    # -- spans ---------------------------------------------------------------

    def begin_pass(self) -> None:
        self.spans.clear()
        self.stack[:] = [[ROOT, 0.0]]
        self._reset_counters()

    def end_pass(self, elapsed: float) -> None:
        """Close the root span of a pass that took ``elapsed`` seconds."""
        self.spans[(ROOT, "")] = [1, elapsed, elapsed - self.stack[0][1]]

    def _wrap(self, name, fn, probe):
        stack = self.stack
        table = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[1] += elapsed
                key = (name, parent[0])
                rec = table.get(key)
                if rec is None:
                    table[key] = [1, elapsed, elapsed - frame[1]]
                else:
                    rec[0] += 1
                    rec[1] += elapsed
                    rec[2] += elapsed - frame[1]
            if probe is not None:
                probe(args, result)
            return result

        return functools.update_wrapper(traced, fn)

    # -- probes: counts that need to look at arguments or results -------------

    def _probe_for(self, name: str):
        layer, _, fn = name.partition(".")
        if layer == "kernels":
            positions = _TERM_ARGS.get(fn, (0,))
            if not positions:
                return None

            def kernel_probe(args, result):
                self.terms_in += sum(len(args[p]) for p in positions)
            return kernel_probe
        if name == "states.SparseState.__post_init__":
            def state_probe(args, result):
                size = len(args[0].terms)
                if size > self.peak_terms:
                    self.peak_terms = size
            return state_probe
        if name == "density.DensityMatrix.__post_init__":
            def density_probe(args, result):
                size = len(args[0].entries)
                if size > self.peak_entries:
                    self.peak_entries = size
            return density_probe
        if name in _PROTOCOL_RUNS:
            def run_probe(args, result):
                if any(frame[0] == _ACCOUNTING_SPAN for frame in self.stack):
                    return
                protocol, x, i = args[:3]
                r = args[3] if len(args) > 3 else 0
                masks = tuple(args[4]) if len(args) > 4 else ()
                self.enumerated_runs += 1
                self.points.add((self.op_index, protocol.name, protocol.dephase_servers,
                                 x.n, x.value, i, r, masks))
            return run_probe
        return None


def _targets(layer: str, module):
    """(owner, attribute, span name, function) for everything to wrap."""
    if layer == "kernels":
        for fn in KERNEL_FNS + ("xor_relabel", "insert_sub", "masked_parities"):
            yield module, fn, f"kernels.{fn}", getattr(module, fn)
        return
    for attr, obj in list(vars(module).items()):
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            name = f"{layer}.{attr}"
            if name not in _NOT_WRAPPED:
                yield module, attr, name, obj
        elif inspect.isclass(obj):
            yield from _class_targets(layer, obj)


def _class_targets(layer: str, cls):
    constructor = "__post_init__" if dataclasses.is_dataclass(cls) else "__init__"
    for attr, value in list(vars(cls).items()):
        if attr.startswith("_") and attr != constructor:
            continue
        name = f"{layer}.{cls.__name__}.{attr}"
        if inspect.isfunction(value):
            yield cls, attr, name, value
        elif isinstance(value, classmethod):
            yield cls, attr, name, value.__func__


# -- per-layer metrics --------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of the pass that ``tracer`` last recorded."""
    calls: dict[str, int] = {}
    inclusive: dict[str, float] = {}
    own: dict[str, float] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    dense_in_distance = 0
    for (name, parent), (count, total, self_time) in tracer.spans.items():
        calls[name] = calls.get(name, 0) + count
        inclusive[name] = inclusive.get(name, 0.0) + total
        own[name] = own.get(name, 0.0) + self_time
        layer = name.partition(".")[0]
        if layer in layer_self:
            layer_self[layer] += self_time
        if name == "density.DensityMatrix.dense" and parent == "density.trace_distance":
            dense_in_distance += count

    def method_calls(layer: str, method: str) -> int:
        return sum(c for n, c in calls.items()
                   if n.startswith(layer + ".") and n.endswith("." + method))

    runs = sum(calls.get(n, 0) for n in _PROTOCOL_RUNS)
    states_built = calls.get("states.SparseState.__post_init__", 0)
    layouts_built = calls.get("registers.RegisterLayout.__post_init__", 0)
    shapes_built = calls.get("schemes.SchemeShape.__post_init__", 0)
    out: dict[str, float] = {}
    for fn in KERNEL_FNS:
        out[f"kernels.{fn}.calls"] = calls.get(f"kernels.{fn}", 0)
        out[f"kernels.{fn}.self_s"] = own.get(f"kernels.{fn}", 0.0)
    out["kernels.terms_in"] = tracer.terms_in
    out["registers.layouts_built"] = layouts_built
    out["registers.layouts_per_state"] = _ratio(layouts_built, states_built)
    out["schemes.gen_plan.calls"] = method_calls("schemes", "gen_plan")
    out["schemes.answer.calls"] = method_calls("schemes", "answer")
    out["schemes.shapes_built"] = shapes_built
    out["schemes.shapes_per_run"] = _ratio(shapes_built, runs)
    out["states.states_built"] = states_built
    out["states.validate_s"] = inclusive.get("states.SparseState.__post_init__", 0.0)
    out["states.peak_terms"] = tracer.peak_terms
    out["states.states_per_run"] = _ratio(states_built, runs)
    for op in STATE_OPS:
        out[f"states.{op}.calls"] = calls.get(f"states.{op}", 0)
    out["density.matrices_built"] = calls.get("density.DensityMatrix.__post_init__", 0)
    out["density.validate_s"] = inclusive.get("density.DensityMatrix.__post_init__", 0.0)
    out["density.accumulate.calls"] = calls.get("density.DensityAccumulator.add", 0)
    out["density.finalize.calls"] = calls.get("density.DensityAccumulator.finalize", 0)
    out["density.trace_distance.calls"] = calls.get("density.trace_distance", 0)
    # the dense path of trace_distance builds both operands with ``dense()``
    out["density.trace_distance.dense_calls"] = dense_in_distance // 2
    out["density.trace_distance.self_s"] = own.get("density.trace_distance", 0.0)
    out["density.to_pure.calls"] = calls.get("density.DensityMatrix.to_pure", 0)
    out["density.peak_entries"] = tracer.peak_entries
    for fn in ("run", "run_output"):
        out[f"compiler.{fn}.calls"] = calls.get(f"compiler.CompiledProtocol.{fn}", 0)
    for fn in ("build_query_state", "server_phase", "recovery_branches"):
        out[f"compiler.{fn}.calls"] = calls.get(f"compiler.{fn}", 0)
    for fn in ("run", "run_output"):
        out[f"bell.{fn}.calls"] = calls.get(f"bell.BellProtocol.{fn}", 0)
    for fn in ("build_bell_query", "server_pauli"):
        out[f"bell.{fn}.calls"] = calls.get(f"bell.{fn}", 0)
    out["protocols.run.calls"] = calls.get("protocols.ClassicalProtocol.run", 0)
    out["transcript.built"] = calls.get("transcript.TranscriptBuilder.__init__", 0)
    out["transcript.record.calls"] = calls.get("transcript.TranscriptBuilder.record", 0)
    out["audits.points"] = len(tracer.points)
    out["audits.runs_per_point"] = _ratio(tracer.enumerated_runs, len(tracer.points))
    for fn in ("user_view", "compare_views", "server_state_mixtures"):
        out[f"audits.{fn}.calls"] = calls.get(f"audits.{fn}", 0)
    out["adversary.query_branches.calls"] = calls.get("adversary.CleanQueryOracle.query_branches", 0)
    out["adversary.server_views.calls"] = calls.get("adversary.CleanQueryOracle.server_views", 0)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer]
    return out


def unattributed_s(tracer: Tracer) -> float:
    """Self time of the pass itself: harness code between the layers' spans."""
    return tracer.spans[(ROOT, "")][2]
