"""Dishonest-user machinery: clean queries, the parity attack's figures, and the fix.

A dishonest user can turn honest-protocol executions into one clean oracle
call ``|i>|b> -> |i>|b XOR x_i``, coherently over any superposition of
indices.  The construction here is an echo: the user adjoins a fresh sign
qubit, runs the protocol's preparation, server, and recovery steps
conditioned on the index register (their classical randomness is drawn
once per oracle and known to them), CNOTs the recovered bit into the
target, and then runs the very same steps again.  The echo spells none of
the honest steps itself: it reads each index's relabel table off the
protocol (``sign_table``, the table honest recovery reads too), sends and
lets the servers act through honest runs' ``server_round``, under its step
labels, and undoes the query with honest recovery's ``undo_query``,
controlled by (index, sign) instead of the sign alone.  The servers'
conditional phases are involutions, so the second pass deterministically
returns the sign and work registers to zero, and the residual
mask-dependent phases of the two passes cancel exactly.  Every state the
servers see is, draw by draw, exactly a state they see in honest runs, so
cheating is undetectable from their side; ``server_views`` mixes them with
the honest audit's ``mix_views``.

The concrete attack at the smallest scale: with the index register in a
uniform superposition and a phase-encoded target, one clean query followed
by a Hadamard on the index register outputs the XOR of the two database
bits with certainty — a function no honest single-index retrieval reveals.
``scenario_mixtures`` gives each database's output mixture, under the
attack or an honest run, and ``leakage_bits`` the information it carries.

Every figure mixes over the full (r, masks) product, but a sweep runs only
the draws whose results can differ.  On a compiled protocol, an honest run
and the echo without the countermeasure give one r the same output at
every mask (``_mix_per_r``), so they run once per r and that output is
added once per draw; the dephased echo's output rounds with the masks, so
it runs every draw.  The default echo's server views are the same on every
database, so ``verify_undetectability`` builds the first database's only.

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
from functools import lru_cache
from typing import Callable, Mapping, Sequence

from .audits import AuditReport, TOL, mix_views, server_state_mixtures
from .bell import BellProtocol
from .compiler import CompiledProtocol
from .density import DensityMatrix, mix, trace_distance
from .registers import RegisterLayout
from .schemes import Database, all_databases
from .states import (
    SparseState,
    apply_local_map,
    conditional_xor_relabel,
    hadamard,
    measurement_branches,
    tensor,
    xor_relabeling,
)
from .transcript import Branches, server_party, server_round, undo_query

QuantumProtocol = CompiledProtocol | BellProtocol


def index_width(n: int) -> int:
    return max(1, (n - 1).bit_length())


@lru_cache(maxsize=None)
def attack_input_layout(n: int) -> RegisterLayout:
    return RegisterLayout.of(("idx", index_width(n)), ("tgt", 1))


@lru_cache(maxsize=None)
def _zero_registers(layout: RegisterLayout) -> tuple[SparseState, SparseState]:
    """The echo's fresh registers for a protocol layout: |0> on the sign, and on the rest."""
    return (SparseState.basis(RegisterLayout(layout.registers[:1]), 0),
            SparseState.basis(RegisterLayout(layout.registers[1:]), 0))


Checkpoint = tuple[str, int, Branches]  # (step label, server index, branches)


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

    # -- the query ----------------------------------------------------------

    def _half_run(self, branches: Branches, relabel) -> Branches:
        """Prepare conditioned on (idx, sign), send and let servers act, undo the query."""
        protocol = self.protocol
        branches = [(p, protocol.entangle(relabel(apply_local_map(st, "sign", hadamard))))
                    for p, st in branches]
        for label, j, branches in server_round(branches, range(1, protocol.k + 1),
                                               protocol.server_registers,
                                               protocol.server_operation(self.x), protocol.verb,
                                               protocol.dephase_servers):
            self.checkpoints.append((label, j, branches))
        return [(p, undo_query(protocol, st, relabel)) for p, st in branches]

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
        sign, work = _zero_registers(self.protocol.layout())
        state = tensor(tensor(input_state, sign), work)
        # control (idx, sign) -> the XOR constants of index idx + 1's sign branch
        table = {(iv << 1) | s: row for iv in range(self.protocol.n)
                 for s, row in self.protocol.sign_table(iv + 1, self.r, self.masks).items()}
        # one set of masks for every branch of both passes: they share the layout
        relabel = xor_relabeling(state.layout, ("idx", "sign"), work.layout.names, table)

        branches: Branches = [(1.0, state)]
        branches = self._half_run(branches, relabel)
        branches = [(p, conditional_xor_relabel(st, "sign", ["tgt"], {1: {"tgt": 1}}))
                    for p, st in branches]
        branches = self._half_run(branches, relabel)
        return branches

    def server_views(self) -> dict[tuple[str, str], DensityMatrix]:
        """Per (server, step) reduced states mixed over the checkpoints.

        Both passes checkpoint under honest step labels, so a label's view
        is the even mixture of its occurrences.
        """
        return mix_views(((server_party(j), label), branches[0][1].layout,
                          self.protocol.server_registers(j), branches)
                         for label, j, branches in self.checkpoints)


@lru_cache(maxsize=None)
def _phase_encoded_input(n: int) -> SparseState:
    """Uniform superposition of the indices 1..n with a phase-encoded (|0>-|1>) target.

    Index register values n and above have no sign-table row, so they get
    no amplitude.  When n is a power of two the amplitude stays a product of
    per-qubit factors: sqrt(0.5 / n) differs from it in the last bit, and
    so would the attack mixtures it feeds.
    """
    w = index_width(n)
    amp = math.sqrt(0.5) ** (w + 1) if n == 1 << w else math.sqrt(0.5 / n)
    terms = {}
    for iv in range(n):
        base = iv << 1
        terms[base] = amp
        terms[base | 1] = -amp
    return SparseState(attack_input_layout(n), terms)


def parity_query(protocol: QuantumProtocol, x: Database, r: int = 0, masks: Sequence[int] = ()):
    """The oracle and output of one clean query extracting x_1 XOR x_2 from a two-bit database.

    The phase-encoded target turns the query into a phase kickback, so a
    Hadamard on the index register afterwards reads out the parity with
    certainty on coherent protocols.
    """
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


def _draw_space(protocol: QuantumProtocol) -> list[tuple[int, tuple[int, ...]]]:
    """Every (r, masks) draw: the full product, r outermost."""
    return list(itertools.product(protocol.randomness_space(), protocol.mask_space()))


def draw_count(protocol: QuantumProtocol) -> int:
    """``len(_draw_space(protocol))``, without listing the draws."""
    return len(protocol.randomness_space()) * len(protocol.mask_space())


def _mix(dists: Sequence[Mapping[int, float]], repeats: int = 1) -> dict[int, float]:
    """The even mixture over draws of ``dists``, each of which stands for ``repeats`` draws in a row.

    Each ``w * p`` is added once per draw, in draw order, so every sum is the
    one a sweep over all the draws makes, to the bit.
    """
    w = 1.0 / (len(dists) * repeats)
    output: dict[int, float] = {}
    for dist in dists:
        for bit, p in dist.items():
            wp, total = w * p, output.get(bit, 0.0)
            for _ in range(repeats):
                total += wp
            output[bit] = total
    return output


def _mix_per_r(protocol, outputs: Callable[[list[tuple[int, tuple[int, ...]]]], list[dict]]
               ) -> dict[int, float]:
    """The mixture over every (r, masks) draw, from ``outputs`` at one draw per r.

    Each r runs at the first mask tuple, and its output stands for every
    mask tuple of that r, to the bit.  The servers' phases are ±1 on whole
    terms, and a mask only decides which terms they negate.  An honest
    run's two terms keep their relative sign c(x, i, r), and negating both
    leaves every square, norm and renormalised amplitude as it is; under
    the countermeasure a run splits into two rows, each giving bit 0 then
    bit 1, and two floats add to the same sum in either order.  In the echo
    without the countermeasure, the second pass undoes the first pass's
    mask phases.
    """
    masks = next(iter(protocol.mask_space()))
    dists = outputs([(r, masks) for r in protocol.randomness_space()])
    return _mix(dists, len(protocol.mask_space()))


def verify_undetectability(
    protocol: QuantumProtocol,
    attack_views: Callable[[QuantumProtocol, Database, int, Sequence[int]], Mapping] | None = None,
    databases: Sequence[Database] | None = None,
) -> AuditReport:
    """Server states under the attack must equal honest-run states exactly.

    Both sides are mixed over the full classical draw space (randomness and
    masks); the honest side is compared at every index, which must agree
    with the attack mixture by user privacy.  An attack view at a (server,
    step) where honest runs have none fails the report; its witness has
    distance None.

    The default echo on a compiled protocol builds the first database's
    views only, and they stand for every database's, to the bit.  Inside
    each (idx, sign) group, a server's register holds one value.  So the
    echo's server states have no cross terms, and x only flips the signs of
    whole terms.  Bell servers' Paulis act on the qubits they hold, and
    supplied ``attack_views`` may read x any way, so both sweep every
    database.
    """
    n = protocol.n
    if databases is None:
        databases = tuple(Database(n, v) for v in range(1 << n))
    swept, repeats = databases, 1
    if attack_views is None:
        if isinstance(protocol, CompiledProtocol):
            swept, repeats = databases[:1], len(databases)

        def attack_views(proto, x, r, masks):
            oracle = CleanQueryOracle(proto, x, r, tuple(masks))
            oracle.query_branches(_phase_encoded_input(n))
            return oracle.server_views()

    draws = _draw_space(protocol)
    worst = 0.0
    witness = None
    comparisons = 0
    honest: dict[int, dict[tuple[str, str], DensityMatrix]] = {}
    for x in swept:
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
                honest_dm = honest[i].get(key)
                if honest_dm is None:  # a view no honest run has is a deviation too
                    if witness is None:
                        witness = {"server": key[0], "step": key[1], "x": str(x),
                                   "honest_i": i, "distance": None}
                    continue
                d = trace_distance(attack_dm, honest_dm)
                comparisons += repeats
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
        passed=witness is None,  # set by the first distance over TOL or unmatched view
        witness=witness,
        details={"comparisons": comparisons},
    )


def attack_output_mixture(protocol: QuantumProtocol, x: Database) -> dict[int, float]:
    """Parity-attack output distribution averaged over the full draw space."""
    def outputs(draws):
        return [parity_query(protocol, x, r, masks)[1] for r, masks in draws]

    if isinstance(protocol, CompiledProtocol) and protocol.dephase_servers:
        # every draw runs: the dephased echo's branches come out in the order
        # of the masked register values, so its sums round with the masks
        # (qspir(trivial1), x = 00, r = 0: both bits read 0x1.0000000000005p-1
        # at mask (3,) and 0x1.0000000000006p-1 at mask (0,))
        return _mix(outputs(_draw_space(protocol)))
    return _mix_per_r(protocol, outputs)


def honest_output_mixture(protocol, x: Database, i: int) -> dict[int, float]:
    """Honest output distribution at index i, averaged over the full draw space."""
    return _mix_per_r(protocol, lambda draws: protocol.run_outputs(
        x, [(i, r, masks) for r, masks in draws]))


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


def scenario_mixtures(protocol, scenario: str, index: int) -> dict[Database, dict[int, float]]:
    """Each database's output distribution, mixed over the draw space.

    Scenarios: "parity2" sweeps the parity attack, "honest-baseline" runs
    the honest protocol at ``index``.
    """
    if scenario == "parity2":
        return {x: attack_output_mixture(protocol, x) for x in all_databases(protocol.n)}
    if scenario == "honest-baseline":
        return {x: honest_output_mixture(protocol, x, index) for x in all_databases(protocol.n)}
    raise ValueError(f"unknown scenario {scenario!r}")


def leakage_bits(mixtures: Mapping[Database, Mapping[int, float]],
                 target: Callable[[Database], int] | None = None) -> float:
    """Mutual information (bits) between ``target(x)`` and the output, x uniform over ``mixtures``.

    ``target`` projects the database before measuring information about it
    (defaults to the whole database).
    """
    w = 1.0 / len(mixtures)
    joint: dict[tuple, float] = {}
    for x, dist in mixtures.items():
        t = target(x) if target is not None else x.value
        for out, p in dist.items():
            key = (t, out)
            joint[key] = joint.get(key, 0.0) + w * p
    return mutual_information_bits(joint)


def leakage_report(protocol, scenario: str = "parity2", *, index: int = 1,
                   target: Callable[[Database], int] | None = None) -> float:
    """Exact mutual information (bits) between output and data: ``leakage_bits`` of the mixtures."""
    return leakage_bits(scenario_mixtures(protocol, scenario, index), target)


def parity(x: Database) -> int:
    return x.value.bit_count() & 1
