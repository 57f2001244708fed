"""Protocol transcripts: ordered step records with custody and state branches.

A step snapshot holds the acting party, which registers moved, who holds
what afterwards, the communication counters, and the global state as a
branch ensemble ``((probability, SparseState), ...)``.  Honest coherent
runs have a single branch; the measurement countermeasure splits branches.
Server density matrices and user views are derived from these snapshots
rather than stored.  Custody is a read-only mapping, copied only at a
message step; the steps between two messages, which move nothing, share
one snapshot.

Every protocol run goes through one step engine, :func:`execute`: plan,
build, send to each server, each server's step (its computational-basis
measurement first when the countermeasure is on), return, recover.  It
records each step itself.  A :class:`Script` holds only what differs per
run; the server verb and the message unit (:func:`message_unit`) are the
protocol's own.  The sends and server steps are one generator,
:func:`server_round`, which the attack echo runs too, under the same
labels; the countermeasure's :func:`dephase` is shared with the
server-view audit.  Both quantum protocols run through :func:`sign_script`:
it builds the relabel of the draw's sign table once, prepares the query
from the all-zero state with :func:`prepare_query`, and recovers through
:func:`sign_recovery`, the inverse unitary :func:`undo_query` reading the
same relabel, then the sign measurement.  The echo runs the same
preparation and undo under an (index, sign) control.  Output-only runs
take (i, r) draws and no masks; a compiled protocol's copy the output of one
such run per output class, at its first mask tuple
(``CompiledProtocol.run_outputs``).

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
from functools import lru_cache
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .registers import RegisterLayout
from .states import (
    SparseState,
    apply_local_map,
    hadamard,
    measurement_branches,
    xor_relabeling,
)

SCHEMA_VERSION = 1

USER = "user"


def server_party(j: int) -> str:
    return f"server{j}"


Branches = Sequence[tuple[float, SparseState]]


class Step(NamedTuple):
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
    snapshot = MappingProxyType(dict(custody))
    quantum = message_unit(protocol) == "qubits"
    steps = t.steps

    def record(label: str, party: str, branches, moved: Sequence[str] = (), to: str = "") -> None:
        """Append a step; a message first hands the ``moved`` registers ``to`` its
        receiver, under a new custody snapshot, and counts their widths."""
        nonlocal snapshot
        sent = 0
        if moved:
            custody.update(dict.fromkeys(moved, to))
            snapshot = MappingProxyType(dict(custody))
            sent = sum(map(layout.width_of, moved))
        steps.append(Step(label, party, tuple(moved), snapshot,
                          None if branches is None else tuple(branches),
                          sent if quantum else 0, 0 if quantum else sent))

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


@lru_cache(maxsize=None)
def zero_state(layout: RegisterLayout) -> SparseState:
    """The all-zero basis state a query is prepared from, built once per layout."""
    return SparseState.basis(layout, 0)


def prepare_query(protocol, state: SparseState, relabel) -> SparseState:
    """The user's query preparation, :func:`undo_query`'s inverse: Hadamard the
    sign qubit, ``relabel``, and apply the protocol's entangling."""
    return protocol.entangle(relabel(apply_local_map(state, "sign", hadamard)))


def undo_query(protocol, state: SparseState, relabel) -> SparseState:
    """The user's recovery unitary: undo the protocol's entangling, ``relabel``,
    and Hadamard the sign qubit."""
    state = relabel(protocol.unentangle(state))
    return apply_local_map(state, "sign", hadamard)


def sign_relabeling(protocol, table):
    """XOR ``table[sign]`` (a ``protocol.sign_table``) into the registers it names."""
    layout = protocol.layout()
    return xor_relabeling(layout, "sign", [n for n in layout.names if n != "sign"], table)


def sign_script(protocol, x, knowledge, table) -> Script:
    """A quantum protocol's run on database ``x``: its query prepared from the
    all-zero state, and recovered, through one relabel of ``table``."""
    relabel = sign_relabeling(protocol, table)
    return Script(
        knowledge=knowledge,
        state=prepare_query(protocol, zero_state(protocol.layout()), relabel),
        receives=protocol.server_registers,
        returns=protocol.server_registers,
        operate=protocol.server_operation(x),
        recover=lambda state: sign_recovery(protocol, state, relabel),
    )


def sign_recovery(protocol, state: SparseState, relabel):
    """Undo the query through ``relabel`` and measure the sign qubit:
    (probability, bit, post-state) outcomes."""
    return measurement_branches(undo_query(protocol, state, relabel), "sign")


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
