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

import itertools
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import kernels
from .registers import RegisterLayout, bits
from .schemes import Database, LinearPirScheme, QueryPlan, run_classically
from .states import PRUNE_TOL, SQRT_HALF, SparseState, apply_phase_oracle
from .transcript import Script, Transcript, execute, sign_recovery


# Most draws ``run_outputs`` puts in one batch; bounds its arrays' memory.
BATCH_ROWS = 1 << 13


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
    values = {}
    for j, (q, sel, m) in enumerate(zip(plan.queries, plan.selects, masks), start=1):
        payload = m ^ sel if flip else m
        values[server_register(j)] = (q << plan.a) | payload
    return values


def build_query_state(plan: QueryPlan, masks: Sequence[int]) -> SparseState:
    """The two-branch query superposition over sign + per-server registers."""
    _check_masks(plan, masks)
    if all(sel == 0 for sel in plan.selects):
        raise ValueError("degenerate plan: all selection vectors are zero")
    layout = compiled_layout(plan.k, plan.t, plan.a)
    plain = _register_values(plan, masks, flip=False)
    flipped = _register_values(plan, masks, flip=True)
    k0 = layout.assemble({"sign": 0, **plain})
    k1 = layout.assemble({"sign": 1, **flipped})
    return SparseState(layout, {k0: SQRT_HALF, k1: SQRT_HALF})


def _draw_tables(plans: Sequence[QueryPlan], masks: Sequence[Sequence[int]]) -> np.ndarray:
    """``[B, k, 2]`` register values of each draw's sign-0 and sign-1 query terms.

    int64 while a register fits 62 bits, Python ints in object arrays beyond.
    """
    k, t, a = plans[0].k, plans[0].t, plans[0].a
    if all(len(row) == k and all(isinstance(m, int) for m in row) for row in masks):
        try:
            queries, selects, mask_values = [
                np.array(list(itertools.chain.from_iterable(rows)),
                         dtype=object if t + a > 62 else np.int64).reshape(-1, k)
                for rows in ([p.queries for p in plans], [p.selects for p in plans], masks)
            ]
        except OverflowError:  # beyond 64 bits, hence beyond every register
            pass
        else:
            in_range = all(not ((values < 0) | (values >> width != 0)).any()
                           for values, width in ((queries, t), (selects, t + a), (mask_values, a)))
            if in_range and (selects != 0).any(axis=1).all():
                base = queries << a
                return np.stack([base | mask_values, base | (mask_values ^ selects)], axis=2)
    # Some draw is malformed: building the states one by one raises the error
    # that draw's own run raises.
    for plan, row in zip(plans, masks):
        build_query_state(plan, row)
    raise AssertionError("batch checks rejected draws that build")


def server_phase(state: SparseState, scheme: LinearPirScheme, j: int, x: Database) -> SparseState:
    """Server j's conditional phase: -1 on odd <answer(query), mask part>."""
    a = scheme.shape.a
    mask_bits = (1 << a) - 1

    def phase(sub: int) -> int:
        q = sub >> a
        return kernels.dot2(scheme.answer(q, x), sub & mask_bits)

    return apply_phase_oracle(state, server_register(j), phase)


def _parity(values: np.ndarray, width: int) -> np.ndarray:
    """Parity of the low ``width`` bits of each value, by XOR-folding."""
    span = 1
    while span < width:
        span <<= 1
    while span > 1:
        span >>= 1
        values = values ^ (values >> span)
    return values & 1


class CompiledProtocol:
    """Runs the compiled protocol end to end, producing transcripts."""

    kind = "quantum"
    verb = "phase"

    def __init__(self, scheme: LinearPirScheme, dephase_servers: bool = False):
        self.scheme = scheme
        self.dephase_servers = dephase_servers

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

    def comm_qubits(self) -> int:
        s = self.scheme.shape
        return 2 * s.k * (s.t + s.a)

    def with_countermeasure(self) -> "CompiledProtocol":
        return CompiledProtocol(self.scheme, dephase_servers=True)

    def randomness_space(self):
        return self.scheme.randomness_space

    def mask_space(self):
        a = self.scheme.shape.a
        return itertools.product(range(1 << a), repeat=self.k)

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
        """Server j's step on database x, as ``(state, j) -> state``."""
        return lambda state, j: server_phase(state, self.scheme, j, x)

    def sign_table(self, i: int, r: int, masks: Sequence[int]) -> dict[int, dict[str, int]]:
        """Sign value -> the register values the user XORs out of that query branch."""
        plan = self.scheme.gen_plan(i, r)
        _check_masks(plan, masks)
        return {0: _register_values(plan, masks, flip=False),
                1: _register_values(plan, masks, flip=True)}

    def view_class(self, x: Database, i: int, r: int) -> int:
        """The classical reconstruction c(x, i, r): the user's view reads x only through it.

        Each draw is (|0>|v0> + |1>|v1>)/sqrt(2), and server j multiplies
        the branches by (-1)^<a_j(q_j), m_j> and (-1)^<a_j(q_j), m_j ^ s_j>.
        So their relative sign is c, the global sign leaves every view and
        mixture entry as it is (negation is exact), and the user's knowledge
        never reads x.
        """
        return run_classically(self.scheme, x, i, r)

    def entangle(self, state: SparseState) -> SparseState:
        return state  # the query state is prepared by the relabel alone

    unentangle = entangle

    def run(self, x: Database, i: int, r: int, masks: Sequence[int]) -> Transcript:
        plan = self.scheme.gen_plan(i, r)
        masks = tuple(masks)
        _check_masks(plan, masks)
        return execute(self, x, i, Script(
            knowledge=self._knowledge(plan, masks),
            state=build_query_state(plan, masks),
            receives=self.server_registers,
            returns=self.server_registers,
            unit="qubits",
            verb=self.verb,
            operate=self.server_operation(x),
            recover=lambda state: sign_recovery(self, state, i, r, masks),
        ))

    def run_output(self, x: Database, i: int, r: int, masks: Sequence[int]) -> dict[int, float]:
        """Output distribution only; skips transcript bookkeeping."""
        return self.run_outputs(x, [(i, r, masks)])[0]

    def run_outputs(self, x: Database, draws: Sequence[tuple[int, int, Sequence[int]]]
                    ) -> list[dict[int, float]]:
        """Output distributions of many runs on one database, one per (i, r, masks) draw.

        The draws run in batches of up to ``BATCH_ROWS`` through the step
        sequence of ``run``, each state held as its two query terms' real
        amplitudes (see ``_run_batch``).  Exactness contract: every
        probability comes from the IEEE operations of the dict ops, in their
        order, so each distribution equals ``run(x, i, r, masks).output`` to
        the last bit, keys in the same order; and a malformed draw raises the
        exception its single run raises.
        """
        outputs: list[dict[int, float]] = []
        for start in range(0, len(draws), BATCH_ROWS):
            outputs += self._run_batch(x, draws[start:start + BATCH_ROWS])
        return outputs

    def _run_batch(self, x: Database, draws) -> list[dict[int, float]]:
        """``run_outputs`` of one batch, with each run stated as two real amplitudes.

        A batch row holds the amplitudes ``(c0, c1)`` of a query state's
        sign-0 and sign-1 terms (0.0 once a term is measured away), the draw
        it came from and its weight.  Per server: with ``dephase_servers``, a
        row whose two live terms differ on the server's register splits in
        two, lower register value first, and each row is renormalised; then
        the phase negates a term on odd <answer(query), mask part>.  Recovery
        XORs both terms down to one key, so the Hadamard gives the sign
        amplitudes ``c0*h + c1*h`` and ``c0*h - c1*h``, whose squares, above
        PRUNE_TOL, add to the draw's output, row by row, bit 0 first.

        Why this is exact: every amplitude of a compiled run is real, its
        imaginary part ±0 throughout, so Python's complex ops on the dict
        terms reduce to these real ops in this order, and a dead term adds
        only 0.0.
        """
        plans = [self.scheme.plan(i, r) for i, r, _ in draws]
        values = _draw_tables(plans, [m for _, _, m in draws])
        a = self.scheme.shape.a
        mask_bits = (1 << a) - 1
        row = np.arange(len(draws))
        amps = np.full((len(draws), 2), SQRT_HALF)
        weight = np.ones(len(draws))
        for j in range(self.k):
            v = values[row, j]
            if self.dephase_servers:
                split = (amps != 0).all(axis=1) & (v[:, 0] != v[:, 1])
                parent = np.repeat(np.arange(len(row)), 1 + split)
                second = np.zeros(len(parent), dtype=bool)
                second[1:] = parent[1:] == parent[:-1]
                # a split row's first copy keeps its term of lower register value
                gone = ((v[parent, 0] < v[parent, 1]) != second).astype(int)
                cut = split[parent]
                amps = amps[parent]
                amps[cut, gone[cut]] = 0.0
                p = amps[:, 0] * amps[:, 0] + amps[:, 1] * amps[:, 1]
                amps = amps * (1.0 / np.sqrt(p))[:, None]
                row, weight, v = row[parent], weight[parent] * p, v[parent]
            live = amps != 0
            distinct, inverse = np.unique(v[live] >> a, return_inverse=True)
            answers = np.array([self.scheme.answer(q, x) & mask_bits for q in distinct.tolist()],
                               dtype=v.dtype)
            odd = np.zeros(amps.shape, dtype=bool)
            odd[live] = _parity(answers[inverse] & v[live], a) != 0
            amps = np.where(odd, -amps, amps)
        h = SQRT_HALF
        signs = np.stack([amps[:, 0] * h + amps[:, 1] * h,
                          amps[:, 0] * h + amps[:, 1] * -h], axis=1)
        q = signs * signs
        kept = q > PRUNE_TOL
        probs = weight[:, None] * q
        outputs: list[dict[int, float]] = [{} for _ in draws]
        for d, b, p in zip(np.repeat(row, 2)[kept.ravel()].tolist(),
                           np.nonzero(kept)[1].tolist(), probs[kept].tolist()):
            out = outputs[d]
            out[b] = out.get(b, 0.0) + p
        return outputs
