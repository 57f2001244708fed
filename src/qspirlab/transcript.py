"""Protocol transcripts: ordered step records with custody and state branches.

A step snapshot holds the acting party, which registers moved, who holds
what afterwards, the communication counters, and the global state as a
branch ensemble ``((probability, SparseState), ...)``.  Honest coherent
runs have a single branch; the measurement countermeasure splits branches.
Server density matrices and user views are derived from these snapshots
rather than stored.

Every protocol run goes through one step engine, :func:`execute`: plan,
build, send to each server, each server's step (its computational-basis
measurement first when the countermeasure is on), return, recover.  It
records each step itself.  A :class:`Script` holds only what differs per
run; the server verb and the message unit (:func:`message_unit`) are the
protocol's own.  The sends and server steps are one generator,
:func:`server_round`, which the attack echo runs too, under the same
labels; the countermeasure's :func:`dephase` is shared with the
server-view audit.  Both quantum protocols recover through
:func:`sign_recovery`: the recovery unitary :func:`undo_query`, from the
relabel table they state once, then the sign measurement.  The echo runs
the same unitary under an (index, sign) control.  The one exception is a
compiled protocol's output-only runs (``CompiledProtocol.run_outputs``),
which take the same steps on each run's two query terms, held as two real
amplitudes.

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

from .registers import RegisterLayout
from .states import (
    SparseState,
    apply_local_map,
    conditional_xor_relabel,
    hadamard,
    measurement_branches,
)

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


# -- the step engine -----------------------------------------------------------

def dephase(branches, registers: Sequence[str]) -> list[tuple[float, SparseState]]:
    """The countermeasure: measure each register in the computational basis, in turn."""
    for reg in registers:
        branches = [
            (p * q, post) for p, st in branches for q, _, post in measurement_branches(st, reg)
        ]
    return branches


def server_round(branches, servers: Sequence[int], receives, operate, verb: str,
                 dephased: bool):
    """Send each server its registers, then let each in turn measure them (when
    ``dephased``) and act.

    ``receives(j)`` names server j's registers and ``operate(state, j)`` is
    its operation.  Yields ``(label, j, branches)`` after every step, under
    the labels a transcript records: every ``send`` first, then the servers'
    steps.
    """
    for j in servers:
        yield f"send:{server_party(j)}", j, branches
    for j in servers:
        if dephased:
            branches = dephase(branches, receives(j))
            yield f"measure:{server_party(j)}", j, branches
        branches = [(p, operate(st, j)) for p, st in branches]
        yield f"{verb}:{server_party(j)}", j, branches


class Script(NamedTuple):
    """What differs per run, for :func:`execute`.

    Server j receives ``receives(j)``, applies ``operate(state, j)``
    (recorded under the protocol's ``verb``) and sends back ``returns(j)``;
    it holds ``held(j)`` from the start.  ``recover(state)`` yields the
    user's ``(probability, bit, post-state)`` outcomes, recorded as ``final``.
    """

    knowledge: dict
    state: SparseState
    receives: Callable[[int], Sequence[str]]
    returns: Callable[[int], Sequence[str]]
    operate: Callable[[SparseState, int], SparseState]
    recover: Callable[[SparseState], Iterable[tuple[float, int, SparseState]]]
    final: str = "recover"
    held: Callable[[int], Sequence[str]] = lambda j: ()


def message_unit(protocol) -> str:
    """What the protocol's messages are counted in, by register width."""
    return "bits" if protocol.kind == "classical" else "qubits"


def execute(protocol, x, i: int, script: Script) -> Transcript:
    """One run: plan, build, send, [measure,] operate, return, recover."""
    layout = script.state.layout
    servers = range(1, protocol.k + 1)
    branches = [(1.0, script.state)]
    rounds = server_round(branches, servers, script.receives, script.operate, protocol.verb,
                          protocol.dephase_servers)
    t = Transcript(protocol=protocol.name, n=protocol.n, x=str(x), i=i,
                   knowledge=script.knowledge, layout=layout)
    custody = dict.fromkeys(layout.names, USER)
    for j in servers:
        custody.update(dict.fromkeys(script.held(j), server_party(j)))
    sent = message_unit(protocol) + "_sent"

    def record(label: str, party: str, branches, moved: Sequence[str] = (), to: str = "") -> None:
        """Append a step; a message first hands the ``moved`` registers ``to`` its receiver."""
        custody.update(dict.fromkeys(moved, to))
        t.steps.append(Step(label, party, tuple(moved), dict(custody),
                            None if branches is None else tuple(branches),
                            **{sent: sum(layout.width_of(name) for name in moved)}))

    record("plan", USER, None)
    record("build", USER, branches)
    for label, j, branches in rounds:
        if label.startswith("send:"):
            record(label, USER, branches, script.receives(j), server_party(j))
        else:
            record(label, server_party(j), branches)
    for j in servers:
        record(f"return:{server_party(j)}", server_party(j), branches, script.returns(j), USER)
    output, branches = _recover(branches, script.recover)
    t.output = dict(sorted(output.items()))
    record(script.final, USER, branches)
    return t


def undo_query(protocol, state: SparseState, relabel) -> SparseState:
    """The user's recovery unitary: undo the protocol's entangling, ``relabel``
    (XOR out of each query branch the register values its table names), and
    Hadamard the sign qubit.
    """
    state = relabel(protocol.unentangle(state))
    return apply_local_map(state, "sign", hadamard)


def sign_recovery(protocol, state: SparseState, i: int, r: int = 0, masks=()):
    """A quantum protocol's recovery: (probability, bit, post-state) outcomes.

    The user undoes the query, controlled by the sign qubit and reading the
    relabel table honest runs state once (``protocol.sign_table``), and
    measures the sign qubit.
    """
    table = protocol.sign_table(i, r, masks)
    targets = [name for name in protocol.layout().names if name != "sign"]
    state = undo_query(protocol, state,
                       lambda st: conditional_xor_relabel(st, "sign", targets, table))
    return measurement_branches(state, "sign")


def _recover(branches, recover) -> tuple[dict[int, float], list[tuple[float, SparseState]]]:
    """The user's last step: its output distribution and post-measurement branches."""
    output: dict[int, float] = {}
    final = []
    for p, st in branches:
        for q, bit, post in recover(st):
            output[bit] = output.get(bit, 0.0) + p * q
            final.append((p * q, post))
    return output, final


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
