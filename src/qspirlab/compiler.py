"""Compile a linear-reconstruction PIR scheme into a quantum protocol.

The construction: alongside the classical queries the user draws one
random answer-length mask per server and prepares a two-branch
superposition, keeping a single sign qubit and sending each server its
query together with either the mask (sign 0 branch) or the mask XOR that
server's selection vector (sign 1 branch).  Each server applies a
conditional phase, flipping the sign of any basis string whose mask part
has odd inner product with the answer to its query part.  Those phases
multiply out so that once everything is back, the two branches differ by
exactly the requested database bit in the exponent; the user XORs both
branches down to the all-zero string, Hadamards the sign qubit, and
measures the bit.  Each server only ever sees its query with an
individually uniform mask, and the user's states depend on the database
only through the retrieved bit.

Communication is 2*k*(t+a) qubits: every register travels out and back.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from . import kernels
from .registers import RegisterLayout, bits
from .schemes import Database, LinearPirScheme, QueryPlan, run_classically
from .states import SQRT_HALF, SparseState, apply_phase_oracle
from .transcript import Transcript, execute, sign_script


def server_register(j: int) -> str:
    return f"srv{j}"


@lru_cache(maxsize=None)
def compiled_layout(k: int, t: int, a: int) -> RegisterLayout:
    regs = [("sign", 1)]
    regs += [(server_register(j), t + a) for j in range(1, k + 1)]
    return RegisterLayout(tuple(regs))


def _check_masks(plan: QueryPlan, masks: Sequence[int]) -> None:
    if len(masks) != plan.k:
        raise ValueError(f"{len(masks)} masks for {plan.k} servers")
    for m in masks:
        if not isinstance(m, int):
            raise TypeError(f"mask {m!r} is not an int")
        if not 0 <= m < (1 << plan.a):
            raise ValueError(f"mask {m} does not fit {plan.a} bits")


def _register_values(plan: QueryPlan, masks: Sequence[int], flip: bool) -> dict[str, int]:
    return {server_register(j): (q << plan.a) | (m ^ sel if flip else m)
            for j, (q, sel, m) in enumerate(zip(plan.queries, plan.selects, masks), start=1)}


def _check_draw(plan: QueryPlan, masks: Sequence[int]) -> None:
    """Its masks, then its plan."""
    _check_masks(plan, masks)
    _check_plan(plan)


def _check_plan(plan: QueryPlan) -> None:
    """A nonzero select, and queries that fit t bits and selects a bits fit their registers."""
    if not any(plan.selects):
        raise ValueError("degenerate plan: all selection vectors are zero")
    for q, sel in zip(plan.queries, plan.selects):
        if q >> plan.t:
            raise ValueError(f"query {q} does not fit {plan.t} bits")
        if sel >> plan.a:
            raise ValueError(f"select {sel} does not fit {plan.a} bits")


def query_table(plan: QueryPlan, masks: Sequence[int]) -> dict[int, dict[str, int]]:
    """Sign value -> the register values of that query branch, after the draw's checks.
    The query state is built from it and recovery XORs it back out."""
    _check_draw(plan, masks)
    return {0: _register_values(plan, masks, flip=False),
            1: _register_values(plan, masks, flip=True)}


def build_query_state(plan: QueryPlan, table: dict[int, dict[str, int]]) -> SparseState:
    """The two-branch query superposition over sign + per-server registers,
    at the register values of ``query_table``."""
    layout = compiled_layout(plan.k, plan.t, plan.a)
    return SparseState(layout, {layout.assemble({"sign": 0, **table[0]}): SQRT_HALF,
                                layout.assemble({"sign": 1, **table[1]}): SQRT_HALF})


def server_phase(state: SparseState, scheme: LinearPirScheme, j: int, x: Database,
                 answers: dict[int, int] | None = None) -> SparseState:
    """Server j's conditional phase: -1 on odd <answer(query), mask part>.  It fills
    ``answers`` (query -> answer on x): pass one dict to answer each query once."""
    a = scheme.shape.a
    mask_bits = (1 << a) - 1
    answers = {} if answers is None else answers

    def phase(sub: int) -> int:
        q = sub >> a
        if q not in answers:
            answers[q] = scheme.answer(q, x)
        return kernels.dot2(answers[q], sub & mask_bits)

    return apply_phase_oracle(state, server_register(j), phase)


class MaskSpace:
    """Every tuple of k a-bit masks, in ``itertools.product`` order: server 1 varies slowest.

    Each tuple is built as it is reached and no mask range is listed, so the
    first tuples of a space too large to list cost what a small one's do.
    """

    def __init__(self, a: int, k: int):
        self.a, self.k = a, k

    def __len__(self) -> int:
        return 1 << (self.a * self.k)

    def __iter__(self):
        if self.k == 1:
            return zip(range(1 << self.a))
        return ((*head, m) for head in MaskSpace(self.a, self.k - 1) for m in range(1 << self.a))


class CompiledProtocol:
    """Runs the compiled protocol end to end, producing transcripts."""

    kind = "quantum"
    verb = "phase"

    def __init__(self, scheme: LinearPirScheme, dephase_servers: bool = False):
        self.scheme = scheme
        self.dephase_servers = dephase_servers
        # (i, r) -> its plan, checked by ``run_outputs``, per server whether its
        # select is nonzero, the scheme's v(i, r), and the masks that fit its k and a
        self._checked: dict[tuple[int, int], tuple] = {}
        # (k, a) -> id -> a tuple that passed ``_check_masks``: by identity, as (1.0, 0) is refused
        self._fitting: dict[tuple[int, int], dict[int, tuple]] = {}
        # ``run_outputs``'s classes (c, splits) -> the output of their first run
        self._outputs: dict[tuple[int, tuple[bool, ...]], dict[int, float]] = {}

    @property
    def name(self) -> str:
        return f"qspir({self.scheme.name})"

    @property
    def n(self) -> int:
        return self.scheme.n

    @property
    def k(self) -> int:
        return self.scheme.shape.k

    def layout(self) -> RegisterLayout:
        s = self.scheme.shape
        return compiled_layout(s.k, s.t, s.a)

    def comm(self) -> int:
        """Qubits communicated: each server's register, out and back."""
        s = self.scheme.shape
        return 2 * s.k * (s.t + s.a)

    def with_countermeasure(self) -> "CompiledProtocol":
        return CompiledProtocol(self.scheme, dephase_servers=True)

    def randomness_space(self):
        return self.scheme.randomness_space

    def mask_space(self) -> MaskSpace:
        return MaskSpace(self.scheme.shape.a, self.k)

    def _knowledge(self, plan: QueryPlan, masks: Sequence[int]) -> dict:
        s = self.scheme.shape
        return {
            "scheme": self.scheme.name,
            "k": s.k, "t": s.t, "a": s.a,
            "i": plan.i,
            "r": bits(plan.r, s.t),
            "masks": [bits(m, s.a) for m in masks],
            "queries": [bits(q, s.t) for q in plan.queries],
            "selects": [bits(b, s.a) for b in plan.selects],
            "countermeasure": self.dephase_servers,
        }

    def server_registers(self, j: int) -> list[str]:
        return [server_register(j)]

    def server_operation(self, x: Database):
        """Server j's step on database x, as ``(state, j) -> state``.  Each query
        is answered once, over every server and dephased branch of a run."""
        answers: dict[int, int] = {}
        return lambda state, j: server_phase(state, self.scheme, j, x, answers)

    def sign_table(self, i: int, r: int, masks: Sequence[int]) -> dict[int, dict[str, int]]:
        """Sign value -> the register values the user XORs out of that query branch."""
        return query_table(self.scheme.plan(i, r), masks)

    def view_class(self, x: Database, i: int, r: int) -> int:
        """The classical reconstruction c(x, i, r): the user's view reads x only through it.

        Each draw is (|0>|v0> + |1>|v1>)/sqrt(2), and server j multiplies
        the branches by (-1)^<a_j(q_j), m_j> and (-1)^<a_j(q_j), m_j ^ s_j>.
        So their relative sign is c, the global sign leaves every view and
        mixture entry as it is (negation is exact), and the user's knowledge
        never reads x.  So c is ``run_classically``'s, read through the scheme.
        """
        return run_classically(self.scheme, x, i, r)

    def entangle(self, state: SparseState) -> SparseState:
        return state  # the query state is prepared by the relabel alone

    unentangle = entangle

    def run(self, x: Database, i: int, r: int, masks: Sequence[int]) -> Transcript:
        """One run, its plan looked up once, for the sign table and the knowledge."""
        plan = self.scheme.plan(i, r)
        table = query_table(plan, masks)  # checks the draw first
        return execute(self, x, i, sign_script(self, x, self._knowledge(plan, masks), table))

    def run_outputs(self, x: Database, draws: Sequence[tuple[int, int, Sequence[int]]]
                    ) -> list[dict[int, float]]:
        """Output distributions of many runs on one database, one per (i, r, masks) draw.

        Each is a copy of ``run(...).output`` for the first draw of its class:
        the reconstruction c(x, i, r), and which servers have a nonzero
        select.  No mask enters the class.  The servers' ±1 phases negate
        whole terms, and a mask only decides which, so the two query terms
        keep only their relative sign c, and negation is exact.  With
        ``dephase_servers``, only a server whose select is nonzero splits the
        two terms, so the magnitudes depend only on which servers split, and
        two branches add to the same sum in either order.  So each
        distribution equals ``run(x, i, r, masks).output`` to the last bit,
        keys in the same order, at every mask tuple: ``audit_recovery`` and
        ``adversary.plan_sweep`` run one tuple per r on this.  c is
        ``run_classically``'s, with the parity of the scheme's row v(i, r)
        taken inline.  A mask tuple is checked once (the check reads only k
        and a); a malformed draw raises what its single run raises.
        """
        outputs = []
        value, fits = x.value, x.n == self.n
        for i, r, masks in draws:
            # like ``scheme.plan``, keep plain-int pairs only: 1.0 == 1, but
            # index 1.0 is refused, so any other pair is planned every time
            plain = type(i) is int and type(r) is int
            entry = self._checked.get((i, r)) if plain else None
            if entry is None:
                plan = self.scheme.plan(i, r)
                # a plan that passes the query state's checks passes for every
                # mask that fits, since a mask fills only the low a bits
                _check_draw(plan, masks)
                entry = (plan, tuple(s != 0 for s in plan.selects), self.scheme.row(i, r),
                         self._fitting.setdefault((plan.k, plan.a), {}))
                if plain:
                    self._checked[i, r] = entry
            plan, splits, row, fitting = entry
            if id(masks) not in fitting:  # an id it holds is of a tuple it keeps alive
                _check_masks(plan, masks)
                if type(masks) is tuple:
                    fitting[id(masks)] = masks
            if row is not None and fits:
                c = (value & row).bit_count() & 1
            else:  # no rows, or a database of another size, which it refuses as a run does
                c = run_classically(self.scheme, x, i, r)
            output = self._outputs.get((c, splits))
            if output is None:
                output = self._outputs[c, splits] = self.run(x, i, r, masks).output
            outputs.append(dict(output))
        return outputs
