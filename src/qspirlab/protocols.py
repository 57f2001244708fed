"""Classical protocol runs and the name-based protocol registry.

Classical runs reuse the transcript machinery by encoding every message as
a computational-basis state: each server has a query register (written by
the user, sent out, and kept by the server — classical information is
copyable) and an answer register (filled by the server and returned).
This makes the quantum audits directly applicable to classical schemes,
which is also how the audits cross-validate their classical twins.

Protocol names accepted everywhere (CLI, configs):

* ``trivial1``, ``subset2``, ``cube2`` — classical runs of the base
  schemes (an explicit ``<name>-classical`` suffix is also accepted);
* ``qspir(<scheme>)`` — the compiled quantum protocol over a base scheme;
* ``bell2`` — the Bell-pair protocol.
"""

from __future__ import annotations

from .bell import BellProtocol
from .compiler import CompiledProtocol
from .registers import RegisterLayout, bits
from .schemes import Database, LinearPirScheme, SCHEMES, make_scheme, reconstruct
from .states import SparseState, conditional_xor_relabel, measurement_branches
from .transcript import USER, Transcript, TranscriptBuilder, server_party


def query_reg(j: int) -> str:
    return f"query{j}"


def answer_reg(j: int) -> str:
    return f"answer{j}"


class ClassicalProtocol:
    kind = "classical"

    def __init__(self, scheme: LinearPirScheme, dephase_servers: bool = False):
        self.scheme = scheme
        # measuring basis states is the identity; kept for interface parity
        self.dephase_servers = dephase_servers

    @property
    def name(self) -> str:
        return self.scheme.name

    @property
    def n(self) -> int:
        return self.scheme.n

    @property
    def k(self) -> int:
        return self.scheme.shape.k

    def layout(self) -> RegisterLayout:
        s = self.scheme.shape
        regs = []
        for j in range(1, s.k + 1):
            regs.append((query_reg(j), s.t))
            regs.append((answer_reg(j), s.a))
        return RegisterLayout(tuple(regs))

    def comm_bits(self) -> int:
        return self.scheme.comm_cost()

    def with_countermeasure(self) -> "ClassicalProtocol":
        return ClassicalProtocol(self.scheme, dephase_servers=True)

    def randomness_space(self):
        return self.scheme.randomness_space

    def run(self, x: Database, i: int, r: int, masks=()) -> Transcript:
        s = self.scheme.shape
        plan = self.scheme.gen_plan(i, r)
        answers = [self.scheme.answer(q, x) for q in plan.queries]
        layout = self.layout()
        knowledge = {
            "scheme": self.scheme.name,
            "k": s.k, "t": s.t, "a": s.a,
            "i": i,
            "r": bits(r, s.t),
            "queries": [bits(q, s.t) for q in plan.queries],
            "selects": [bits(b, s.a) for b in plan.selects],
            "countermeasure": self.dephase_servers,
        }
        b = TranscriptBuilder(self.name, self.n, x, i, knowledge, layout,
                              [USER] + [server_party(j) for j in range(1, s.k + 1)])
        for j in range(1, s.k + 1):
            b.assign([query_reg(j)], USER)
            b.assign([answer_reg(j)], server_party(j))
        b.record("plan", USER)

        values = {query_reg(j): q for j, q in enumerate(plan.queries, start=1)}
        b.set_state(SparseState.basis(layout, layout.assemble(values)))
        b.record("build", USER)

        for j in range(1, s.k + 1):
            b.move([query_reg(j)], server_party(j))
            b.record(f"send:server{j}", USER, moved=[query_reg(j)], bits=s.t)

        for j in range(1, s.k + 1):
            if self.dephase_servers:
                b.split_branches(lambda st, _r=query_reg(j): (
                    (p, post) for p, _, post in measurement_branches(st, _r)
                ))
                b.record(f"measure:server{j}", server_party(j))
            b.map_branches(lambda st, _j=j, _ans=answers[j - 1]: conditional_xor_relabel(
                st, query_reg(_j), [answer_reg(_j)],
                {plan.queries[_j - 1]: {answer_reg(_j): _ans}},
            ))
            b.record(f"answer:server{j}", server_party(j))

        for j in range(1, s.k + 1):
            b.move([answer_reg(j)], USER)
            b.record(f"return:server{j}", server_party(j), moved=[answer_reg(j)], bits=s.a)

        out = reconstruct(plan, answers)
        b.set_output({out: 1.0})
        b.record("reconstruct", USER)
        return b.done()

    def run_output(self, x: Database, i: int, r: int, masks=()) -> dict[int, float]:
        plan = self.scheme.gen_plan(i, r)
        answers = [self.scheme.answer(q, x) for q in plan.queries]
        return {reconstruct(plan, answers): 1.0}

    def run_outputs(self, x: Database, draws) -> list[dict[int, float]]:
        """``run_output`` of each (i, r, masks) draw."""
        return [self.run_output(x, i, r, masks) for i, r, masks in draws]


Protocol = ClassicalProtocol | CompiledProtocol | BellProtocol


def protocol_names() -> list[str]:
    names = sorted(SCHEMES)
    names += [f"qspir({s})" for s in sorted(SCHEMES)]
    names.append("bell2")
    return names


def resolve_protocol(name: str, n: int, countermeasure: bool = False) -> Protocol:
    """Build a protocol object from its registry name."""
    text = name.strip()
    if text == "bell2":
        protocol: Protocol = BellProtocol(n)
    elif text.startswith("qspir(") and text.endswith(")"):
        protocol = CompiledProtocol(make_scheme(text[len("qspir("):-1], n))
    else:
        if text.endswith("-classical"):
            text = text[: -len("-classical")]
        if text not in SCHEMES:
            raise ValueError(f"unknown protocol {name!r}; known: {protocol_names()}")
        protocol = ClassicalProtocol(make_scheme(text, n))
    if countermeasure:
        protocol = protocol.with_countermeasure()
    return protocol


def closed_form_comm(protocol: Protocol) -> tuple[str, int]:
    """('bits'|'qubits', count) the protocol must measure exactly."""
    if isinstance(protocol, ClassicalProtocol):
        return ("bits", protocol.comm_bits())
    if isinstance(protocol, CompiledProtocol):
        return ("qubits", protocol.comm_qubits())
    return ("qubits", protocol.comm_qubits())
