"""Dishonest-user machinery: clean queries, the parity attack's figures, and the fix.

A dishonest user can turn honest-protocol executions into one clean oracle
call ``|i>|b> -> |i>|b XOR x_i``, coherently over any superposition of
indices.  The construction here is an echo: the user adjoins a fresh sign
qubit, runs the protocol's preparation, server, and recovery steps
conditioned on the index register (their classical randomness is drawn
once per oracle and known to them), CNOTs the recovered bit into the
target, and then runs the very same steps again.  The echo spells none of
the honest steps itself: it reads each index's relabel table off the
protocol (``sign_table``, the table honest runs read too), prepares the
query with honest runs' ``prepare_query``, sends and lets the servers act
through their ``server_round``, under its step labels, and undoes the
query with honest recovery's ``undo_query``; preparation and undo are
controlled by (index, sign) instead of the sign alone.  The servers'
conditional phases are involutions, so the second pass deterministically
returns the sign and work registers to zero.  Every state the servers see
is, draw by draw, exactly a state they see in honest runs, so cheating is
undetectable from their side; ``server_views`` mixes them with the honest
audit's ``mix_views``.

The concrete attack at the smallest scale: with the index register in a
uniform superposition and a phase-encoded target, one clean query followed
by a Hadamard on the index register outputs the XOR of the two database
bits with certainty — a function no honest single-index retrieval reveals.
``scenario_mixtures`` gives each database's output mixture, under the
attack or an honest run, and ``leakage_bits`` the information it carries.

Every figure mixes over the full (r, masks) product, but runs only the
draws and databases ``plan_sweep`` names; ``check_sweep`` counts from it
and refuses a sweep too large to finish before any echo or run.

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
from typing import Callable, Mapping, NamedTuple, Sequence

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
from .transcript import Branches, prepare_query, server_party, server_round, undo_query, zero_state

QuantumProtocol = CompiledProtocol | BellProtocol


def index_width(n: int) -> int:
    return max(1, (n - 1).bit_length())


@lru_cache(maxsize=None)
def attack_input_layout(n: int) -> RegisterLayout:
    return RegisterLayout.of(("idx", index_width(n)), ("tgt", 1))


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
        branches = [(p, prepare_query(protocol, st, relabel)) for p, st in branches]
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
        layout = self.protocol.layout()
        state = tensor(input_state, zero_state(layout))  # fresh sign and work registers
        # control (idx, sign) -> the XOR constants of index idx + 1's sign branch
        table = {(iv << 1) | s: row for iv in range(self.protocol.n)
                 for s, row in self.protocol.sign_table(iv + 1, self.r, self.masks).items()}
        # one set of masks for every branch of both passes: they share the layout
        relabel = xor_relabeling(state.layout, ("idx", "sign"), layout.names[1:], table)

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
    terms = {(iv << 1) | t: -amp if t else amp for iv in range(n) for t in (0, 1)}
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


class Sweep(NamedTuple):
    """The draws ``randomness`` x ``masks``, r outermost, that ``plan_sweep`` names."""

    randomness: Sequence[int]
    masks: Sequence[tuple[int, ...]]
    repeats: int = 1
    first_only: bool = False

    def draws(self) -> list[tuple[int, tuple[int, ...]]]:
        return list(itertools.product(self.randomness, self.masks))


def plan_sweep(protocol: QuantumProtocol, scenario: str) -> Sweep:
    """The draws ``scenario`` runs per database, and what each stands for.

    "parity2" and "honest-baseline" mix each database's output over the full
    (r, masks) product, "undetectability" the default echo's server views.
    ``_mix`` adds each result once per draw it stands for (``repeats``).  No
    honest output reads the masks (``CompiledProtocol.run_outputs``), so an
    honest sweep runs each r once.  The echo without the countermeasure
    gives one r the same output at every mask tuple, to the bit, so each r
    runs at its first: the servers' ±1 phases act on whole terms, and a mask
    only decides which they negate.  The echo's second pass undoes the
    first pass's mask phases, but dephased, its branches come out in the
    order of the masked register values and its sums round with the masks
    (qspir(trivial1), x = 00, r = 0: both bits read 0x1.0000000000005p-1 at
    mask (3,) and 0x1.0000000000006p-1 at (0,)), so it runs every draw.
    Bell's mask space is one tuple, so both ways run one draw.

    The echo's views run every draw.  On a compiled protocol the first
    database's stand for every database's, to the bit (``first_only``):
    inside each (idx, sign) group a server's register holds one value, so
    the echo's server states have no cross terms, and x only flips the
    signs of whole terms.  Bell's echo views do not: dephased, they differ
    across databases in the last bits (n = 6: entries up to 2.8e-17 apart),
    so its echo sweeps every database.

    Under the countermeasure, a compiled protocol's echo and honest outputs
    are the first database's too, to the bit (``first_only``).  In every
    branch a server's measured register holds one value, so its phase is
    one ±1 on every term of the branch.  The keys do not depend on x, and
    neither does the branch order (sorted measured values).  Negation is
    exact and commutes with every later step: a sum of negated terms is the
    negated sum, and squares and prune decisions are equal.  So every
    output probability is the first database's.  A Bell server's X moves a
    measured qubit's value instead of signing the branch, so Bell sweeps
    every database.
    """
    rs, masks = protocol.randomness_space(), protocol.mask_space()
    compiled = isinstance(protocol, CompiledProtocol)
    if scenario == "undetectability":
        return Sweep(rs, masks, first_only=compiled)
    measured = compiled and protocol.dephase_servers
    if scenario == "parity2" and protocol.dephase_servers:
        return Sweep(rs, masks, first_only=measured)
    return Sweep(rs, [next(iter(masks))], len(masks), first_only=measured)


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


def verify_undetectability(
    protocol: QuantumProtocol,
    attack_views: Callable[[QuantumProtocol, Database, int, Sequence[int]], Mapping] | None = None,
) -> AuditReport:
    """Server states under the attack must equal honest-run states exactly.

    Both sides are mixed over the full classical draw space (randomness and
    masks); the honest side is compared at every index, which must agree
    with the attack mixture by user privacy.  Honest server states do not
    depend on the database (``server_state_mixtures``), so the honest side
    is built once per index, before the sweep.  An attack view at a
    (server, step) where honest runs have none fails the report; its
    witness has distance None.  The default echo sweeps what
    ``plan_sweep(protocol, "undetectability")`` names; supplied
    ``attack_views`` may read x any way, so they sweep every database.
    """
    n = protocol.n
    databases = tuple(all_databases(n))
    sweep = plan_sweep(protocol, "undetectability")
    first_only = attack_views is None and sweep.first_only
    swept, repeats = (databases[:1], len(databases)) if first_only else (databases, 1)
    if attack_views is None:
        def attack_views(proto, x, r, masks):
            oracle = CleanQueryOracle(proto, x, r, tuple(masks))
            oracle.query_branches(_phase_encoded_input(n))
            return oracle.server_views()

    draws = sweep.draws()
    worst = 0.0
    witness = None
    comparisons = 0
    honest = {i: server_state_mixtures(protocol, i) for i in range(1, n + 1)}
    for x in swept:
        attack_accs: dict[tuple[str, str], list[DensityMatrix]] = {}
        for r, masks in draws:
            for key, dm in attack_views(protocol, x, r, masks).items():
                attack_accs.setdefault(key, []).append(dm)
        attack_mix = {key: mix([1.0 / len(dms)] * len(dms), dms)
                      for key, dms in attack_accs.items()}
        for i in range(1, n + 1):
            for key, attack_dm in attack_mix.items():
                honest_dm = honest[i].get(key)
                # a view no honest run has is a deviation too
                d = None if honest_dm is None else trace_distance(attack_dm, honest_dm)
                if d is not None:
                    comparisons += repeats
                    worst = max(worst, d)
                if witness is None and (d is None or d > TOL):
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
    sweep = plan_sweep(protocol, "parity2")
    return _mix([parity_query(protocol, x, r, masks)[1] for r, masks in sweep.draws()],
                sweep.repeats)


def honest_output_mixture(protocol, x: Database, i: int) -> dict[int, float]:
    """Honest output distribution at index i, averaged over the full draw space."""
    sweep = plan_sweep(protocol, "honest-baseline")
    return _mix(protocol.run_outputs(x, [(i, r) for r in sweep.randomness]), sweep.repeats)


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
    the honest protocol at ``index``.  Where ``plan_sweep`` lets the first
    database stand for all, only it is swept, and every database gets its
    own copy of its mixture.
    """
    if scenario == "parity2":
        mixture = attack_output_mixture
    elif scenario == "honest-baseline":
        def mixture(protocol, x):
            return honest_output_mixture(protocol, x, index)
    else:
        raise ValueError(f"unknown scenario {scenario!r}")
    databases = list(all_databases(protocol.n))
    if plan_sweep(protocol, scenario).first_only:
        first = mixture(protocol, databases[0])
        return {x: dict(first) for x in databases}
    return {x: mixture(protocol, x) for x in databases}


# ``check_sweep``'s limits, timed on a 2-core x86-64 box.  Echoes per database
# and echo views: a clean query on qspir(cube2) at n = 2 took 0.09 ms (0.14 ms
# with its views, 0.24 ms dephased), so 4 databases at the limit take < 4 s.
# Honest runs, one per database swept and r: qspir(subset2) at n = 11 made
# 4,194,304 in 5.7 s, most of them copies of one run per output class.  bell2
# runs through the step engine, 0.18, 0.30, 0.29, 0.52, 0.52 and 0.97 ms a run
# at n = 8 to 13 (n = 13: 8.1 s); dephased, 2.4, 7.3, 7.3, 24, 24 and 87 ms, so
# a run counts its up to 2^(pairs + 1) branches (n = 8: 8,192, in 0.7 s).
# Draws added up: qspir(trivial1) at n = 14 mixed 268,435,456 from 16,384 runs
# in 5.2 s.  Dephased, a compiled sweep runs the first database alone
# (``first_only``): those two take 0.12 s and 0.21 s, and their draws still
# count every database.
ATTACK_ECHO_LIMIT = 4096
COMPILED_BASELINE_RUN_LIMIT = 1 << 22
BELL_BASELINE_RUN_LIMIT = 1 << 13
MIXED_DRAW_LIMIT = 1 << 28


class SweepRefused(ValueError):
    """A sweep refused before any echo or run."""


def check_sweep(protocol, scenario: str, undetectability: bool = False) -> None:
    """Refuse a ``scenario_mixtures`` sweep, and ``verify_undetectability`` when
    ``undetectability``, that would not finish in seconds, counting from
    ``plan_sweep``: echoes per database, echo views over the databases swept,
    honest runs over the databases swept, weighed by their dephased branches,
    and draws added up over every database: each still gets its own mixture,
    result row and leakage term where ``first_only`` sweeps one.
    """
    if scenario == "parity2" and protocol.n != 2:
        raise SweepRefused("the parity2 scenario needs --n 2")
    databases, sweep = 1 << protocol.n, plan_sweep(protocol, scenario)
    runs = len(sweep.randomness) * len(sweep.masks)  # per database swept
    if scenario == "parity2":
        audit = plan_sweep(protocol, "undetectability")
        views = len(audit.randomness) * len(audit.masks) * (1 if audit.first_only else databases)
        counts = [(runs, ATTACK_ECHO_LIMIT, "runs {:,} echoes per database"),
                  (views if undetectability else 0, ATTACK_ECHO_LIMIT,
                   "builds {:,} echo views for the undetectability audit")]
    else:
        bell = isinstance(protocol, BellProtocol)
        branches = 1 << protocol.pair_count + 1 if bell and protocol.dephase_servers else 1
        unit = "runs" if branches == 1 else "dephased branches"
        swept = 1 if sweep.first_only else databases
        where = "the first database" if sweep.first_only else "every database"
        counts = [(swept * runs * branches,
                   BELL_BASELINE_RUN_LIMIT if bell else COMPILED_BASELINE_RUN_LIMIT,
                   f"sweeps at least {{:,}} {unit} over {where} and r")]
    counts.append((databases * runs * sweep.repeats, MIXED_DRAW_LIMIT,
                   "mixes {:,} draws over every database"))
    for count, limit, what in counts:
        if count > limit:
            raise SweepRefused(f"{scenario} on {protocol.name} {what.format(count)}, "
                               f"more than {limit:,}")


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
