"""Dishonest-user machinery: clean queries, a parity attack, and the fix.

A dishonest user can turn honest-protocol executions into one clean oracle
call ``|i>|b> -> |i>|b XOR x_i``, coherently over any superposition of
indices.  The construction here is an echo: the user adjoins a fresh sign
qubit, runs the protocol's preparation, server, and recovery steps
conditioned on the index register (their classical randomness is drawn
once per oracle and known to them), CNOTs the recovered bit into the
target, and then runs the very same steps again.  The servers' conditional
phases are involutions, so the second pass deterministically returns the
sign and work registers to zero, and the residual mask-dependent phases of
the two passes cancel exactly.  Every state the servers see is, draw by
draw, exactly a state they see in honest runs, so cheating is undetectable
from their side.

The concrete attack at the smallest scale: with the index register in a
uniform superposition and a phase-encoded target, one clean query followed
by a Hadamard on the index register outputs the XOR of the two database
bits with certainty — a function no honest single-index retrieval reveals.

The countermeasure makes each server measure what it receives in the
computational basis (simulated as exhaustive dephasing branches).  That
collapses the coherence the attack rides on, driving its success
probability to exactly one half and its leakage about the parity to zero.
It also breaks honest recovery of the protocols in this package — they
rely on the same coherence — so it is a fix for classical schemes facing
quantum users, not something to run on top of these quantum protocols.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from .audits import AuditReport, TOL, server_state_mixtures
from .bell import (
    BellProtocol,
    entangle_pairs,
    left_reg,
    marker_for,
    pair_slot,
    right_reg,
    unentangle_pairs,
)
from .compiler import CompiledProtocol, server_register
from .density import DensityAccumulator, DensityMatrix, mix, trace_distance
from .registers import RegisterLayout
from .schemes import Database, all_databases
from .states import (
    SparseState,
    apply_local_map,
    conditional_xor_relabel,
    hadamard,
    measurement_branches,
    tensor,
)
from .transcript import Branches, server_party, server_round

QuantumProtocol = CompiledProtocol | BellProtocol


class CleanQueryError(RuntimeError):
    """Sign or work registers did not return to zero; erasure failed."""


def index_width(n: int) -> int:
    return max(1, (n - 1).bit_length())


def attack_input_layout(n: int) -> RegisterLayout:
    return RegisterLayout.of(("idx", index_width(n)), ("tgt", 1))


Checkpoint = tuple[str, str, Branches]  # (step label, server party, branches)


@dataclass
class CleanQueryOracle:
    """Two protocol passes stitched into a single linear database query.

    The user randomness and masks are drawn classically per oracle and used
    coherently across the whole index superposition; server views at every
    interaction (both passes) are checkpointed for the undetectability
    audit under the same step labels an honest run produces.
    """

    protocol: QuantumProtocol
    x: Database
    r: int = 0
    masks: tuple[int, ...] = ()
    checkpoints: list[Checkpoint] = field(default_factory=list)

    def __post_init__(self):
        if not isinstance(self.protocol, (CompiledProtocol, BellProtocol)):
            raise TypeError("clean queries require a quantum protocol")
        if not self.masks:
            self.masks = next(iter(self.protocol.mask_space()))
        if self.x.n != self.protocol.n:
            raise ValueError("database size does not match the protocol")

    # -- layout plumbing ---------------------------------------------------

    def _relabel_table(self) -> dict[int, dict[str, int]]:
        """Control (idx, sign) -> XOR constants realizing prepare/recover."""
        table: dict[int, dict[str, int]] = {}
        n = self.protocol.n
        if isinstance(self.protocol, CompiledProtocol):
            scheme = self.protocol.scheme
            a = scheme.shape.a
            for iv in range(n):
                plan = scheme.gen_plan(iv + 1, self.r)
                plain = {}
                flipped = {}
                for j, (q, sel) in enumerate(zip(plan.queries, plan.selects), start=1):
                    mask = self.masks[j - 1]
                    plain[server_register(j)] = (q << a) | mask
                    flipped[server_register(j)] = (q << a) | (mask ^ sel)
                table[iv << 1] = plain
                table[(iv << 1) | 1] = flipped
        else:
            for iv in range(n):
                i = iv + 1
                slot = pair_slot(i)
                p, q = marker_for(i)
                table[(iv << 1) | 1] = {left_reg(slot): p, right_reg(slot): q}
        return table

    # -- the query ----------------------------------------------------------

    def _half_run(self, branches: Branches, table, targets) -> Branches:
        """Prepare conditioned on (idx, sign), let servers act, recover."""
        protocol = self.protocol
        bell = isinstance(protocol, BellProtocol)
        branches = [(p, apply_local_map(st, "sign", hadamard)) for p, st in branches]
        branches = [(p, conditional_xor_relabel(st, ("idx", "sign"), targets, table))
                    for p, st in branches]
        if bell:
            branches = [(p, entangle_pairs(st, protocol.pair_count)) for p, st in branches]
        servers = range(1, protocol.k + 1)
        for j in servers:
            self.checkpoints.append((f"send:server{j}", server_party(j), list(branches)))
        for label, j, branches in server_round(branches, servers, protocol.server_registers,
                                               protocol.server_operation(self.x), protocol.verb,
                                               protocol.dephase_servers):
            self.checkpoints.append((label, server_party(j), branches))
        if bell:
            branches = [(p, unentangle_pairs(st, protocol.pair_count)) for p, st in branches]
        branches = [(p, conditional_xor_relabel(st, ("idx", "sign"), targets, table))
                    for p, st in branches]
        branches = [(p, apply_local_map(st, "sign", hadamard)) for p, st in branches]
        return branches

    def query_branches(self, input_state: SparseState) -> Branches:
        """Both passes of the echo; the CNOT to the target sits in between.

        Returns the final branch ensemble over (idx, tgt, sign, work
        registers); sign and work end all-zero on every branch for coherent
        protocols.
        """
        expected = attack_input_layout(self.protocol.n)
        if input_state.layout != expected:
            raise ValueError(f"input must use layout {expected.registers}")
        self.checkpoints = []
        work = RegisterLayout(self.protocol.layout().registers[1:])  # all but the sign
        state = tensor(input_state, SparseState.basis(RegisterLayout.of(("sign", 1)), 0))
        state = tensor(state, SparseState.basis(work, 0))
        table = self._relabel_table()
        targets = list(work.names)

        branches: Branches = [(1.0, state)]
        branches = self._half_run(branches, table, targets)
        branches = [(p, conditional_xor_relabel(st, "sign", ["tgt"], {1: {"tgt": 1}}))
                    for p, st in branches]
        branches = self._half_run(branches, table, targets)
        return branches

    def server_views(self) -> dict[tuple[str, str], DensityMatrix]:
        """Per (server, step) reduced states mixed over the checkpoints.

        Both passes checkpoint under honest step labels, so a label's view
        is the even mixture of its occurrences.
        """
        accs: dict[tuple[str, str], DensityAccumulator] = {}
        for label, party, branches in self.checkpoints:
            key = (party, label)
            if key not in accs:
                held = self.protocol.server_registers(int(party.removeprefix("server")))
                accs[key] = DensityAccumulator(branches[0][1].layout, held)
            accs[key].add_branches(branches)
        return {key: acc.finalize() for key, acc in accs.items()}


def clean_query(oracle: CleanQueryOracle, input_state: SparseState) -> SparseState:
    """|i>|b> -> |i>|b XOR x_i>, extended linearly over the input support.

    Only defined for coherent protocols: the countermeasured variants
    produce branch ensembles instead of one unitary image.  Raises
    :class:`CleanQueryError` if the sign or any work register fails to
    return to zero, which would leave index branches distinguishable and
    make erasure impossible.
    """
    if oracle.protocol.dephase_servers:
        raise ValueError("clean queries are unitary; the countermeasured protocol is not")
    branches = oracle.query_branches(input_state)
    (_, state), = branches
    in_layout = attack_input_layout(oracle.protocol.n)
    scratch_width = state.layout.width - in_layout.width
    scratch_mask = (1 << scratch_width) - 1
    terms = {}
    for key, amp in state.terms.items():
        if key & scratch_mask:
            raise CleanQueryError(
                "sign or work registers did not return to their fixed state; "
                "the query leaves index branches distinguishable"
            )
        terms[key >> scratch_width] = amp
    return SparseState(in_layout, terms)


@dataclass
class AttackOutcome:
    scenario: str
    protocol: str
    x: str
    output_distribution: dict[int, float]
    expected: int
    success_probability: float
    success: bool
    draws: dict
    server_views: dict = field(default_factory=dict)

    def to_jsonable(self) -> dict:
        return {
            "scenario": self.scenario,
            "protocol": self.protocol,
            "x": self.x,
            "output_distribution": {str(k): v for k, v in sorted(self.output_distribution.items())},
            "expected": self.expected,
            "success_probability": self.success_probability,
            "success": self.success,
            "draws": self.draws,
        }


def _phase_encoded_input(n: int) -> SparseState:
    """Uniform index superposition with a phase-encoded (|0>-|1>) target."""
    layout = attack_input_layout(n)
    w = index_width(n)
    amp = math.sqrt(0.5) ** (w + 1)
    terms = {}
    for iv in range(1 << w):
        base = iv << 1
        terms[base] = amp
        terms[base | 1] = -amp
    return SparseState(layout, terms)


def _parity_query(protocol: QuantumProtocol, x: Database, r: int, masks: Sequence[int]):
    """The parity attack's clean query and its measured output, without server views."""
    if protocol.n != 2:
        raise ValueError("the parity attack is defined for two-bit databases")
    oracle = CleanQueryOracle(protocol, x, r, tuple(masks))
    branches = oracle.query_branches(_phase_encoded_input(2))
    output: dict[int, float] = {}
    for p, st in branches:
        rotated = apply_local_map(st, "idx", hadamard)
        for q, outcome, _ in measurement_branches(rotated, "idx"):
            output[outcome] = output.get(outcome, 0.0) + p * q
    return oracle, output


def parity_attack(protocol: QuantumProtocol, x: Database, r: int = 0,
                  masks: Sequence[int] = ()) -> AttackOutcome:
    """One clean query extracting x_1 XOR x_2 from a two-bit database.

    The phase-encoded target turns the query into a phase kickback, so a
    Hadamard on the index register afterwards reads out the parity with
    certainty on coherent protocols.
    """
    oracle, output = _parity_query(protocol, x, r, masks)
    parity_bit = x.bit(1) ^ x.bit(2)
    p_success = output.get(parity_bit, 0.0)
    return AttackOutcome(
        scenario="parity2",
        protocol=protocol.name,
        x=str(x),
        output_distribution=output,
        expected=parity_bit,
        success_probability=p_success,
        success=abs(p_success - 1.0) <= TOL,
        draws={"r": r, "masks": list(oracle.masks)},
        server_views=oracle.server_views(),
    )


def _draw_space(protocol: QuantumProtocol) -> list[tuple[int, tuple[int, ...]]]:
    """Every (r, masks) draw: the full product, r outermost."""
    return list(itertools.product(protocol.randomness_space(), protocol.mask_space()))


def draw_count(protocol: QuantumProtocol) -> int:
    """``len(_draw_space(protocol))``, without listing the draws."""
    return len(protocol.randomness_space()) * sum(1 for _ in protocol.mask_space())


def verify_undetectability(
    protocol: QuantumProtocol,
    attack_views: Callable[[QuantumProtocol, Database, int, Sequence[int]], Mapping] | None = None,
    databases: Sequence[Database] | None = None,
) -> AuditReport:
    """Server states under the attack must equal honest-run states exactly.

    Both sides are mixed over the full classical draw space (randomness and
    masks); the honest side is compared at every index, which must agree
    with the attack mixture by user privacy.
    """
    n = protocol.n
    if databases is None:
        databases = tuple(Database(n, v) for v in range(1 << n))
    if attack_views is None:
        def attack_views(proto, x, r, masks):
            oracle = CleanQueryOracle(proto, x, r, tuple(masks))
            oracle.query_branches(_phase_encoded_input(n))
            return oracle.server_views()

    draws = _draw_space(protocol)
    worst = 0.0
    witness = None
    comparisons = 0
    honest: dict[int, dict[tuple[str, str], DensityMatrix]] = {}
    for x in databases:
        attack_accs: dict[tuple[str, str], list[DensityMatrix]] = {}
        for r, masks in draws:
            for key, dm in attack_views(protocol, x, r, masks).items():
                attack_accs.setdefault(key, []).append(dm)
        attack_mix = {key: mix([1.0 / len(dms)] * len(dms), dms)
                      for key, dms in attack_accs.items()}
        # a compiled protocol's honest states do not depend on x (server_state_mixtures)
        if not honest or not isinstance(protocol, CompiledProtocol):
            honest = {i: server_state_mixtures(protocol, x, i) for i in range(1, n + 1)}
        for i in range(1, n + 1):
            for key, attack_dm in attack_mix.items():
                if key not in honest[i]:
                    continue
                d = trace_distance(attack_dm, honest[i][key])
                comparisons += 1
                if d > worst:
                    worst = d
                    if d > TOL and witness is None:
                        witness = {"server": key[0], "step": key[1], "x": str(x),
                                   "honest_i": i, "distance": d}
    return AuditReport(
        kind="undetectability",
        protocol=protocol.name,
        grid={"n": n, "databases": len(databases), "draws": len(draws)},
        tolerance=TOL,
        worst_case_distance=worst,
        passed=worst <= TOL,
        witness=witness,
        details={"comparisons": comparisons},
    )


def attack_output_mixture(protocol: QuantumProtocol, x: Database) -> dict[int, float]:
    """Parity-attack output distribution averaged over the full draw space."""
    draws = _draw_space(protocol)
    output: dict[int, float] = {}
    w = 1.0 / len(draws)
    for r, masks in draws:
        _, dist = _parity_query(protocol, x, r, masks)
        for bit, p in dist.items():
            output[bit] = output.get(bit, 0.0) + w * p
    return output


def honest_output_mixture(protocol, x: Database, i: int) -> dict[int, float]:
    draws = _draw_space(protocol)
    output: dict[int, float] = {}
    w = 1.0 / len(draws)
    for dist in protocol.run_outputs(x, [(i, r, masks) for r, masks in draws]):
        for bit, p in dist.items():
            output[bit] = output.get(bit, 0.0) + w * p
    return output


def mutual_information_bits(joint: Mapping[tuple, float]) -> float:
    """I(A;B) in bits from a joint distribution over (a, b) pairs."""
    pa: dict = {}
    pb: dict = {}
    total = 0.0
    for (a, b), p in joint.items():
        pa[a] = pa.get(a, 0.0) + p
        pb[b] = pb.get(b, 0.0) + p
        total += p
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"joint distribution sums to {total}")
    mi = 0.0
    for (a, b), p in joint.items():
        if p > 0:
            mi += p * math.log2(p / (pa[a] * pb[b]))
    return max(mi, 0.0)


def _uniform_prior(n: int) -> dict[Database, float]:
    return {x: 1.0 / (1 << n) for x in all_databases(n)}


def _leakage_bits(prior: Mapping[Database, float],
                  mixtures: Mapping[Database, Mapping[int, float]],
                  target: Callable[[Database], int] | None) -> float:
    """Mutual information (bits) between ``target(x)`` and the output, x drawn from the prior."""
    joint: dict[tuple, float] = {}
    for x, px in prior.items():
        t = target(x) if target is not None else x.value
        for out, p in mixtures[x].items():
            key = (t, out)
            joint[key] = joint.get(key, 0.0) + px * p
    return mutual_information_bits(joint)


def leakage_report(protocol, scenario: str = "parity2", *, index: int = 1,
                   prior: Mapping[Database, float] | None = None,
                   target: Callable[[Database], int] | None = None) -> float:
    """Exact mutual information (bits) between the run's output and the data.

    ``target`` projects the database before measuring information about it
    (defaults to the whole database); the prior defaults to uniform.
    Scenarios: "parity2" sweeps the parity attack, "honest-baseline" runs
    the honest protocol at a fixed index.
    """
    if prior is None:
        prior = _uniform_prior(protocol.n)
    if scenario == "parity2":
        mixtures = {x: attack_output_mixture(protocol, x) for x in prior}
    elif scenario == "honest-baseline":
        mixtures = {x: honest_output_mixture(protocol, x, index) for x in prior}
    else:
        raise ValueError(f"unknown scenario {scenario!r}")
    return _leakage_bits(prior, mixtures, target)


def parity(x: Database) -> int:
    return x.value.bit_count() & 1
