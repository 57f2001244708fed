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
from typing import Iterable, Sequence

import numpy as np

from . import kernels
from .registers import RegisterLayout, bits
from .schemes import Database, LinearPirScheme, QueryPlan
from .states import (
    SQRT_HALF,
    SparseState,
    apply_local_map,
    apply_local_map_batch,
    apply_phase_oracle,
    apply_phase_oracle_batch,
    conditional_xor_relabel,
    conditional_xor_relabel_batch,
    hadamard,
    key_dtype,
    measurement_branches,
    measurement_branches_batch,
    validate_batch,
)
from .transcript import Script, Transcript, execute


class RecoveryError(RuntimeError):
    """Recovery did not produce a single outcome with probability 1."""


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


def _plans(scheme: LinearPirScheme, pairs: Iterable[tuple[int, int]]) -> list[QueryPlan]:
    """``scheme.gen_plan`` of each (i, r), built once per distinct pair of plain ints.

    Any other pair goes to ``gen_plan`` every time, which raises what a run raises.
    """
    memo: dict[tuple[int, int], QueryPlan] = {}
    plans = []
    for i, r in pairs:
        if type(i) is not int or type(r) is not int:
            plans.append(scheme.gen_plan(i, r))
            continue
        plan = memo.get((i, r))
        if plan is None:
            plan = memo[i, r] = scheme.gen_plan(i, r)
        plans.append(plan)
    return plans


def _draw_tables(plans: Sequence[QueryPlan], masks: Sequence[Sequence[int]], wide: bool):
    """``[B, k]`` tables of queries, selects and masks; None unless every draw is well formed."""
    k, t, a = plans[0].k, plans[0].t, plans[0].a
    if any(len(row) != k for row in masks):
        return None
    try:
        tables = [
            np.array(list(itertools.chain.from_iterable(rows)),
                     dtype=object if wide else np.int64).reshape(-1, k)
            for rows in ([p.queries for p in plans], [p.selects for p in plans], masks)
        ]
    except OverflowError:  # beyond 64 bits, hence beyond every register of the layout
        return None
    queries, selects, mask_values = tables
    for values, width in ((queries, t), (selects, t + a), (mask_values, a)):
        if ((values < 0) | (values >> width != 0)).any():
            return None
    if not (selects != 0).any(axis=1).all():
        return None
    return tables


def build_query_batch(plans: Sequence[QueryPlan], masks: Sequence[Sequence[int]],
                      layout: RegisterLayout):
    """Batched build_query_state: one two-branch query state per (plan, masks) row.

    The plans come from one scheme.  Returns the batch's ``keys`` and
    ``amps`` and each server's register values on the sign-0 and sign-1
    branches (``plain`` and ``flipped``, ``[B, k]``), which recovery XORs out.
    """
    tables = _draw_tables(plans, masks, layout.width > 64)
    if tables is None:
        # Some draw is malformed: building the states one by one raises the
        # error that draw's own run raises.
        for plan, row in zip(plans, masks):
            build_query_state(plan, row)
        raise AssertionError("batch checks rejected draws that build")
    queries, selects, mask_values = tables
    k, t, a = plans[0].k, plans[0].t, plans[0].a
    dtype = key_dtype(layout)
    base = (queries << a).astype(dtype)
    plain = base | mask_values.astype(dtype)
    flipped = base | (mask_values ^ selects).astype(dtype)
    k0 = np.zeros(len(plans), dtype=dtype)
    k1 = np.ones(len(plans), dtype=dtype)
    for j in range(k):
        k0 = (k0 << (t + a)) | plain[:, j]
        k1 = (k1 << (t + a)) | flipped[:, j]
    keys = np.stack([k0, k1], axis=1)
    amps = validate_batch(layout, keys, np.full(keys.shape, complex(SQRT_HALF)))
    return keys, amps, plain, flipped


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


def server_phase_batch(layout: RegisterLayout, keys: np.ndarray, amps: np.ndarray,
                       scheme: LinearPirScheme, j: int, x: Database) -> np.ndarray:
    """Batched server_phase; ``scheme.answer`` runs once per distinct query."""
    a = scheme.shape.a
    mask_bits = (1 << a) - 1

    def phase(subs: np.ndarray) -> np.ndarray:
        distinct, inverse = np.unique(subs >> a, return_inverse=True)
        answers = np.array([scheme.answer(q, x) & mask_bits for q in distinct.tolist()],
                           dtype=subs.dtype)
        return _parity(answers[inverse] & (subs & mask_bits), a)

    return apply_phase_oracle_batch(layout, keys, amps, server_register(j), phase)


def _recovery_relabel(state: SparseState, plan: QueryPlan, masks: Sequence[int]) -> SparseState:
    targets = [server_register(j) for j in range(1, plan.k + 1)]
    return conditional_xor_relabel(
        state, "sign", targets,
        {
            0: _register_values(plan, masks, flip=False),
            1: _register_values(plan, masks, flip=True),
        },
    )


def recovery_branches(state: SparseState, plan: QueryPlan, masks: Sequence[int]):
    """(probability, bit, post-state) outcomes of the recovery measurement."""
    _check_masks(plan, masks)
    relabeled = _recovery_relabel(state, plan, masks)
    rotated = apply_local_map(relabeled, "sign", hadamard)
    return measurement_branches(rotated, "sign")


def user_recover(state: SparseState, plan: QueryPlan, masks: Sequence[int]) -> tuple[int, SparseState]:
    """Recover the requested bit; exactly one outcome must carry probability 1."""
    branches = recovery_branches(state, plan, masks)
    if len(branches) != 1:
        dist = {bit: p for p, bit, _ in branches}
        raise RecoveryError(f"recovery is not deterministic: {dist} (broken base scheme?)")
    _, bit, post = branches[0]
    return bit, post


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

    def run(self, x: Database, i: int, r: int, masks: Sequence[int]) -> Transcript:
        plan = self.scheme.gen_plan(i, r)
        masks = tuple(masks)
        return execute(self, x, i, Script(
            knowledge=self._knowledge(plan, masks),
            state=build_query_state(plan, masks),
            receives=self.server_registers,
            returns=self.server_registers,
            unit="qubits",
            verb=self.verb,
            operate=self.server_operation(x),
            recover=lambda state: recovery_branches(state, plan, masks),
        ))

    def run_output(self, x: Database, i: int, r: int, masks: Sequence[int]) -> dict[int, float]:
        """Output distribution only; skips transcript bookkeeping."""
        return self.run_outputs(x, [(i, r, masks)])[0]

    def run_outputs(self, x: Database, draws: Sequence[tuple[int, int, Sequence[int]]]
                    ) -> list[dict[int, float]]:
        """Output distributions of many runs on one database, one per (i, r, masks) draw.

        The draws run in batches of up to ``BATCH_ROWS`` through the step
        sequence of ``run``: query states, each server's phase (after its
        dephasing split when ``dephase_servers`` is set), the recovery
        relabel, the Hadamard on ``sign`` and its measurement.  Exactness
        contract: every probability comes from the IEEE operations of the
        dict ops, in their order, so each distribution equals ``run(x, i,
        r, masks).output`` to the last bit, keys in the same order; and a
        malformed draw raises the exception its single run raises.
        """
        outputs: list[dict[int, float]] = []
        for start in range(0, len(draws), BATCH_ROWS):
            outputs += self._run_batch(x, draws[start:start + BATCH_ROWS])
        return outputs

    def _run_batch(self, x: Database, draws) -> list[dict[int, float]]:
        layout = self.layout()
        plans = _plans(self.scheme, ((i, r) for i, r, _ in draws))
        keys, amps, plain, flipped = build_query_batch(plans, [m for _, _, m in draws], layout)
        # the server round: each server's dephasing split (when set), then its phase;
        # ``row`` is the draw each batch row descends from, ``weight`` its probability
        row = np.arange(len(keys))
        weight = np.ones(len(keys))
        for j in range(1, self.k + 1):
            if self.dephase_servers:
                parent, _, q, keys, amps = measurement_branches_batch(
                    layout, keys, amps, server_register(j))
                row, weight = row[parent], weight[parent] * q
            amps = server_phase_batch(layout, keys, amps, self.scheme, j, x)
        targets = [server_register(j) for j in range(1, self.k + 1)]
        keys = conditional_xor_relabel_batch(layout, keys, "sign", targets, {
            0: {reg: plain[row, j] for j, reg in enumerate(targets)},
            1: {reg: flipped[row, j] for j, reg in enumerate(targets)},
        })
        keys, amps = apply_local_map_batch(layout, keys, amps, "sign", hadamard)
        parent, bit, q, _, _ = measurement_branches_batch(layout, keys, amps, "sign")
        outputs: list[dict[int, float]] = [{} for _ in draws]
        for d, b, p in zip(row[parent].tolist(), bit.tolist(), (weight[parent] * q).tolist()):
            out = outputs[d]
            out[b] = out.get(b, 0.0) + p
        return outputs
