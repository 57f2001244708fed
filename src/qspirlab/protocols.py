"""Classical protocol runs and the name-based protocol registry.

Classical runs reuse the transcript machinery by encoding every message as
a computational-basis state: each server has a query register (written by
the user, sent out, and kept by the server — classical information is
copyable) and an answer register (filled by the server and returned).
This makes the quantum audits directly applicable to classical schemes,
which is also how the tests cross-validate them against classical twins.

Protocol names accepted everywhere (CLI, configs):

* ``trivial1``, ``subset2``, ``cube2`` — classical runs of the base
  schemes (an explicit ``<name>-classical`` suffix is also accepted);
* ``qspir(<scheme>)`` — the compiled quantum protocol over a base scheme;
* ``bell2`` — the Bell-pair protocol.
"""

from __future__ import annotations

from functools import lru_cache

from .bell import BellProtocol
from .compiler import CompiledProtocol
from .registers import RegisterLayout, bits
from .schemes import Database, LinearPirScheme, SCHEMES, make_scheme, reconstruct, run_classically
from .states import SparseState, conditional_xor_relabel
from .transcript import Script, Transcript, execute


def query_reg(j: int) -> str:
    return f"query{j}"


def answer_reg(j: int) -> str:
    return f"answer{j}"


@lru_cache(maxsize=None)
def classical_layout(k: int, t: int, a: int) -> RegisterLayout:
    return RegisterLayout(tuple(
        (name, w) for j in range(1, k + 1) for name, w in ((query_reg(j), t), (answer_reg(j), a))))


class ClassicalProtocol:
    kind = "classical"
    verb = "answer"

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
        return classical_layout(s.k, s.t, s.a)

    def comm(self) -> int:
        """Bits communicated: the queries out, the answers back."""
        return self.scheme.comm_cost()

    def with_countermeasure(self) -> "ClassicalProtocol":
        return ClassicalProtocol(self.scheme, dephase_servers=True)

    def randomness_space(self):
        return self.scheme.randomness_space

    def mask_space(self):
        return [()]  # the user draws no masks

    def run(self, x: Database, i: int, r: int, masks=()) -> Transcript:
        return execute(self, x, i, self._script(x, i, r))

    def run_outputs(self, x: Database, draws) -> list[dict[int, float]]:
        """``run(x, i, r).output`` of each (i, r) draw: the reconstruction, with no state built.

        A run's one basis state reconstructs with probability 1.0 in ``run``
        too, so the two agree to the bit.
        """
        return [{run_classically(self.scheme, x, i, r): 1.0} for i, r in draws]

    def view_class(self, x: Database, i: int, r: int) -> tuple[int, ...]:
        """The answers to the plan's queries: the user's view reads x only through them.

        The knowledge and the query state come from the plan alone, each
        server writes its answer into a basis state, and the output is their
        reconstruction, so equal answers give the same view, to the bit.
        """
        return tuple(self.scheme.answer(q, x) for q in self.scheme.plan(i, r).queries)

    def _script(self, x: Database, i: int, r: int) -> Script:
        s = self.scheme.shape
        plan = self.scheme.gen_plan(i, r)
        answers = [self.scheme.answer(q, x) for q in plan.queries]
        layout = self.layout()

        def answer(state: SparseState, j: int) -> SparseState:
            return conditional_xor_relabel(state, query_reg(j), [answer_reg(j)],
                                           {plan.queries[j - 1]: {answer_reg(j): answers[j - 1]}})

        values = {query_reg(j): q for j, q in enumerate(plan.queries, start=1)}
        return Script(
            knowledge={
                "scheme": self.scheme.name,
                "k": s.k, "t": s.t, "a": s.a,
                "i": i,
                "r": bits(r, s.t),
                "queries": [bits(q, s.t) for q in plan.queries],
                "selects": [bits(b, s.a) for b in plan.selects],
                "countermeasure": self.dephase_servers,
            },
            state=SparseState.basis(layout, layout.assemble(values)),
            receives=lambda j: [query_reg(j)],
            returns=lambda j: [answer_reg(j)],
            held=lambda j: [answer_reg(j)],
            operate=answer,
            recover=lambda state: ((1.0, reconstruct(plan, answers), state),),
            final="reconstruct",
        )


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
