"""Protocol transcripts: ordered step records with custody and state branches.

A step snapshot holds the acting party, which registers moved, who holds
what afterwards, the communication counters, and the global state as a
branch ensemble ``((probability, SparseState), ...)``.  Honest coherent
runs have a single branch; the measurement countermeasure splits branches.
Server density matrices and user views are derived from these snapshots
rather than stored.

Every protocol run goes through one step engine, :func:`execute`: plan,
build, send to each server, each server's step (its computational-basis
measurement first when the countermeasure is on), return, recover.  A
protocol supplies only a :class:`Script` of what differs; the server round
and the countermeasure's :func:`dephase` are shared with the attack echo
and the server-view audit.

Transcripts serialize to JSON (schema below) and round-trip losslessly::

    {"schema_version": 1, "protocol": ..., "n": ..., "x": "0101", "i": 2,
     "knowledge": {...}, "layout": [["sign", 1], ...],
     "steps": [{"label": ..., "party": ..., "moved": [...],
                "custody": {...}, "qubits_sent": 0, "bits_sent": 0,
                "terms": {"00...": [re, im], ...}        # single branch
                | "branches": [{"p": ..., "terms": {...}}, ...]  # ensembles
                | no state key                            # pre-build steps
               }, ...],
     "output": {"0": p0, "1": p1},
     "communication": {"qubits": ..., "bits": ...}}
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .density import DensityAccumulator, DensityMatrix
from .registers import RegisterLayout
from .states import SparseState, measurement_branches

SCHEMA_VERSION = 1

USER = "user"


def server_party(j: int) -> str:
    return f"server{j}"


Branches = Sequence[tuple[float, SparseState]]


@dataclass(frozen=True)
class Step:
    label: str
    party: str
    moved: tuple[str, ...]
    custody: Mapping[str, str]
    branches: Branches | None
    qubits_sent: int = 0
    bits_sent: int = 0

    def holdings(self, party: str) -> tuple[str, ...]:
        return tuple(name for name, holder in self.custody.items() if holder == party)


@dataclass
class Transcript:
    protocol: str
    n: int
    x: str
    i: int
    knowledge: dict
    layout: RegisterLayout
    steps: list[Step] = field(default_factory=list)
    output: dict[int, float] | None = None

    @property
    def qubits_total(self) -> int:
        return sum(s.qubits_sent for s in self.steps)

    @property
    def bits_total(self) -> int:
        return sum(s.bits_sent for s in self.steps)

    def final_branches(self) -> Branches:
        for step in reversed(self.steps):
            if step.branches is not None:
                return step.branches
        raise ValueError("transcript has no quantum state")

    def reduced_density(self, step_index: int, party: str) -> DensityMatrix | None:
        """Mixed reduced state of the registers a party holds after a step."""
        step = self.steps[step_index]
        held = self.layout.in_layout_order(step.holdings(party))
        if not held or step.branches is None:
            return None
        acc = DensityAccumulator(self.layout, held)
        acc.add_branches(step.branches)
        return acc.finalize()

    def output_bit(self) -> int:
        """The deterministic output; raises if the distribution is spread."""
        if not self.output:
            raise ValueError("no output recorded")
        bit, p = max(self.output.items(), key=lambda kv: kv[1])
        if abs(p - 1.0) > 1e-9:
            raise ValueError(f"output distribution is not deterministic: {self.output}")
        return bit


class TranscriptBuilder:
    """Accumulates steps while a protocol run evolves its state ensemble."""

    def __init__(self, protocol: str, n: int, x, i: int, knowledge: dict, layout: RegisterLayout,
                 parties: Sequence[str]):
        self.transcript = Transcript(
            protocol=protocol, n=n, x=str(x), i=i, knowledge=knowledge, layout=layout,
        )
        self.custody: dict[str, str] = {}
        self.branches: list[tuple[float, SparseState]] | None = None
        self._parties = tuple(parties)

    def assign(self, registers: Sequence[str], party: str) -> None:
        for name in registers:
            self.custody[name] = party

    def set_state(self, state: SparseState) -> None:
        self.branches = [(1.0, state)]

    def record(self, label: str, party: str, moved: Sequence[str] = (), qubits: int = 0,
               bits: int = 0) -> None:
        self.transcript.steps.append(Step(
            label=label,
            party=party,
            moved=tuple(moved),
            custody=dict(self.custody),
            branches=tuple(self.branches) if self.branches is not None else None,
            qubits_sent=qubits,
            bits_sent=bits,
        ))

    def set_output(self, distribution: Mapping[int, float]) -> None:
        if self.transcript.output is not None:
            raise ValueError("output already recorded")
        self.transcript.output = dict(sorted(distribution.items()))

    def done(self) -> Transcript:
        if self.transcript.output is None:
            raise ValueError("protocol run ended without an output")
        return self.transcript


# -- the step engine -----------------------------------------------------------

def dephase(branches, registers: Sequence[str]) -> list[tuple[float, SparseState]]:
    """The countermeasure: measure each register in the computational basis, in turn."""
    for reg in registers:
        branches = [
            (p * q, post) for p, st in branches for q, _, post in measurement_branches(st, reg)
        ]
    return branches


def server_round(branches, servers: Iterable[int], receives, operate, verb: str,
                 dephased: bool):
    """Each server in turn measures what it received (when ``dephased``) and acts.

    ``receives(j)`` names server j's registers and ``operate(state, j)`` is
    its operation.  Yields ``(label, j, branches)`` after every step, under
    the labels a transcript records.
    """
    for j in servers:
        if dephased:
            branches = dephase(branches, receives(j))
            yield f"measure:{server_party(j)}", j, branches
        branches = [(p, operate(st, j)) for p, st in branches]
        yield f"{verb}:{server_party(j)}", j, branches


class Script(NamedTuple):
    """What one protocol run supplies to :func:`execute`.

    Server j receives ``receives(j)``, applies ``operate(state, j)``
    (recorded as ``verb``) and sends back ``returns(j)``; it holds
    ``held(j)`` from the start.  ``recover(state)`` yields the user's
    ``(probability, bit, post-state)`` outcomes, recorded as ``final``.
    Messages are counted in ``unit`` ("qubits" or "bits"), by register width.
    """

    knowledge: dict
    state: SparseState
    receives: Callable[[int], Sequence[str]]
    returns: Callable[[int], Sequence[str]]
    unit: str
    verb: str
    operate: Callable[[SparseState, int], SparseState]
    recover: Callable[[SparseState], Iterable[tuple[float, int, SparseState]]]
    final: str = "recover"
    held: Callable[[int], Sequence[str]] = lambda j: ()


def execute(protocol, x, i: int, script: Script,
            output_only: bool = False) -> Transcript | dict[int, float]:
    """One run: plan, build, send, [measure,] operate, return, recover.

    With ``output_only`` it records no step and returns only the output distribution.
    """
    layout = script.state.layout
    servers = range(1, protocol.k + 1)
    if output_only:
        branches = [(1.0, script.state)]
        for _, _, branches in server_round(branches, servers, script.receives, script.operate,
                                           script.verb, protocol.dephase_servers):
            pass
        return dict(sorted(_recover(branches, script.recover)[0].items()))
    b = TranscriptBuilder(protocol.name, protocol.n, x, i, script.knowledge, layout,
                          [USER] + [server_party(j) for j in servers])
    b.assign(layout.names, USER)
    for j in servers:
        b.assign(script.held(j), server_party(j))
    b.record("plan", USER)
    b.set_state(script.state)
    b.record("build", USER)

    def message(label: str, registers: Sequence[str], sender: str, receiver: str) -> None:
        b.assign(registers, receiver)
        size = sum(layout.width_of(name) for name in registers)
        b.record(label, sender, moved=registers, **{script.unit: size})

    for j in servers:
        message(f"send:{server_party(j)}", script.receives(j), USER, server_party(j))
    for label, j, branches in server_round(b.branches, servers, script.receives, script.operate,
                                           script.verb, protocol.dephase_servers):
        b.branches = branches
        b.record(label, server_party(j))
    for j in servers:
        message(f"return:{server_party(j)}", script.returns(j), server_party(j), USER)

    output, b.branches = _recover(b.branches, script.recover)
    b.set_output(output)
    b.record(script.final, USER)
    return b.done()


def _recover(branches, recover) -> tuple[dict[int, float], list[tuple[float, SparseState]]]:
    """The user's last step: its output distribution and post-measurement branches."""
    output: dict[int, float] = {}
    final = []
    for p, st in branches:
        for q, bit, post in recover(st):
            output[bit] = output.get(bit, 0.0) + p * q
            final.append((p * q, post))
    return output, final


class OutputsFromRuns:
    """``run_outputs`` as one ``run_output`` per draw."""

    def run_outputs(self, x, draws) -> list[dict[int, float]]:
        """``run_output`` of each (i, r, masks) draw."""
        return [self.run_output(x, i, r, masks) for i, r, masks in draws]


def _terms_jsonable(state: SparseState) -> dict:
    return {
        state.layout.key_bits(k): [v.real, v.imag]
        for k, v in sorted(state.terms.items())
    }


def to_jsonable(t: Transcript) -> dict:
    steps = []
    for s in t.steps:
        entry = {
            "label": s.label,
            "party": s.party,
            "moved": list(s.moved),
            "custody": dict(sorted(s.custody.items())),
            "qubits_sent": s.qubits_sent,
            "bits_sent": s.bits_sent,
        }
        if s.branches is not None:
            if len(s.branches) == 1:
                entry["terms"] = _terms_jsonable(s.branches[0][1])
            else:
                entry["branches"] = [
                    {"p": p, "terms": _terms_jsonable(st)} for p, st in s.branches
                ]
        steps.append(entry)
    return {
        "schema_version": SCHEMA_VERSION,
        "protocol": t.protocol,
        "n": t.n,
        "x": t.x,
        "i": t.i,
        "knowledge": t.knowledge,
        "layout": t.layout.to_json(),
        "steps": steps,
        "output": {str(b): p for b, p in (t.output or {}).items()},
        "communication": {"qubits": t.qubits_total, "bits": t.bits_total},
    }


class SchemaError(ValueError):
    pass


def from_jsonable(data: dict) -> Transcript:
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaError(f"unsupported transcript schema version {version!r}")
    layout = RegisterLayout.from_json(data["layout"])

    def parse_terms(terms: dict) -> SparseState:
        return SparseState(layout, {
            layout.key_of(s): complex(re, im) for s, (re, im) in terms.items()
        })

    t = Transcript(
        protocol=data["protocol"], n=data["n"], x=data["x"], i=data["i"],
        knowledge=data["knowledge"], layout=layout,
        output={int(b): p for b, p in data["output"].items()} or None,
    )
    for entry in data["steps"]:
        if "terms" in entry:
            branches = ((1.0, parse_terms(entry["terms"])),)
        elif "branches" in entry:
            branches = tuple((b["p"], parse_terms(b["terms"])) for b in entry["branches"])
        else:
            branches = None
        t.steps.append(Step(
            label=entry["label"],
            party=entry["party"],
            moved=tuple(entry["moved"]),
            custody=dict(entry["custody"]),
            branches=branches,
            qubits_sent=entry["qubits_sent"],
            bits_sent=entry["bits_sent"],
        ))
    expected = data.get("communication", {})
    if expected and (expected.get("qubits") != t.qubits_total or expected.get("bits") != t.bits_total):
        raise SchemaError("communication counters do not match step records")
    return t


def export_transcript(t: Transcript, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_jsonable(t), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_transcript(path) -> Transcript:
    with open(path, encoding="utf-8") as fh:
        return from_jsonable(json.load(fh))


def transcripts_equal(a: Transcript, b: Transcript) -> bool:
    return to_jsonable(a) == to_jsonable(b)
