"""Exact recovery, user-privacy, and data-privacy audits with witnesses.

Every audit enumerates its declared grid exhaustively — pass/fail is never
decided by sampling.  Each returns an :class:`AuditReport` carrying the
worst-case distance over the grid, the pass verdict at tolerance 1e-9, and
a concrete witness (first found in deterministic iteration order) whenever
it fails.  Audits are read-only: running one never mutates a protocol.

The three audit families:

* recovery — worst over (database, index) of the probability, averaged
  over the user's randomness and mask draws, that the protocol outputs the
  requested bit; pass requires exactly 1.
* user privacy — servers must learn nothing about the index: classical
  schemes are checked by exact query-multiset equality across indices, and
  quantum protocols by trace distance 0 between each server's mixed
  reduced states across indices, at every step at which it holds data.
* data privacy — an honest user must learn nothing beyond the requested
  bit: for databases agreeing on that bit, the user's entire view (the
  user's classical knowledge and quantum holdings at every step, paired per
  randomness draw) must coincide, pure states up to a global phase.  A
  strictly weaker mixed-over-randomness comparison is reported alongside
  for information.  The user's view reads the database only through its
  protocol's view class (the compiled reconstruction c(x, i, r), Bell's
  x_i, a classical scheme's answers), so a transcript runs only in a group
  with two view class signature sets or more, once per class per draw
  (see ``audit_data_privacy``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .compiler import CompiledProtocol, MaskSpace, _check_plan, server_register
# unused here; perfbench's tracer tests check that its wrapper re-binds this copy
from .compiler import build_query_state  # noqa: F401
from .density import DensityAccumulator, DensityMatrix, entries_close, trace_distance
from .protocols import ClassicalProtocol, Protocol
from .registers import RegisterLayout, bits
from .schemes import Database, LinearPirScheme
from .states import PRUNE_TOL, SQRT_HALF, SparseState, equal_up_to_global_phase
from .transcript import USER, Transcript, message_unit, server_party, server_round

TOL = 1e-9


@dataclass
class AuditReport:
    kind: str
    protocol: str
    grid: dict
    tolerance: float
    worst_case_distance: float
    passed: bool
    witness: dict | None = None
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.passed and self.witness is None:
            raise ValueError("failed audits must carry a witness")

    def to_jsonable(self) -> dict:
        return {
            "audit": self.kind,
            "protocol": self.protocol,
            "grid": self.grid,
            "tolerance": self.tolerance,
            "worst_case_distance": self.worst_case_distance,
            "passed": self.passed,
            "witness": self.witness,
            "details": self.details,
        }


# The draw policy (see ``_mask_mode``): every mask combination when there are
# at most MASK_EXHAUSTIVE_LIMIT, else MASK_CYCLE_LIMIT scattered ones.
MASK_EXHAUSTIVE_LIMIT = 64
MASK_CYCLE_LIMIT = 512


@dataclass(frozen=True)
class AuditGrid:
    """Enumeration bounds shared by the audits."""

    n: int
    databases: tuple[Database, ...]
    indices: tuple[int, ...]

    def describe(self) -> dict:
        return {
            "n": self.n,
            "databases": len(self.databases),
            "indices": list(self.indices),
            "mask_exhaustive_limit": MASK_EXHAUSTIVE_LIMIT,
            "mask_cycle_limit": MASK_CYCLE_LIMIT,
        }


def make_grid(n: int, *, databases="all", indices="all", cap: int = 8,
              seed: int = 0) -> AuditGrid:
    """Grid with an exhaustive database set up to ``2**cap``, sampled beyond.

    ``databases`` may be "all", an int sample size of at least 2 (a sample
    always holds all-zeros and all-ones), or an iterable of bit strings /
    Database values; ``indices`` may be "all" or an iterable.  Anything else
    there, an empty set, a database of another size, an index that is not
    an int in [1, n], a database or index listed twice, or a ``cap`` that is
    not a non-negative int raises ValueError.
    """
    if type(cap) is not int or cap < 0:
        raise ValueError(f"the grid cap must be a non-negative int, not {cap!r}")
    if type(databases) is int:
        if databases < 2:
            raise ValueError("a database sample holds all-zeros and all-ones, "
                             f"so its size must be at least 2, not {databases}")
    elif databases != "all" and (isinstance(databases, (str, bool))
                                 or not isinstance(databases, Iterable)):
        raise ValueError('databases must be "all", a sample size or a list of bit strings, '
                         f"not {databases!r}")
    if databases == "all":
        if n <= cap:
            dbs = tuple(Database(n, v) for v in range(1 << n))
        else:
            databases = 1 << cap
    if isinstance(databases, int):
        import random

        rng = random.Random(seed)
        values = {0, (1 << n) - 1}
        while len(values) < min(databases, 1 << n):
            values.add(rng.getrandbits(n))
        dbs = tuple(Database(n, v) for v in sorted(values))
    elif databases != "all":
        entries = tuple(databases)
        for d in entries:
            if not (isinstance(d, Database) or isinstance(d, str) and set(d) <= {"0", "1"}):
                raise ValueError(f"database {d!r} is not a bit string")
        dbs = tuple(d if isinstance(d, Database) else Database.from_string(d) for d in entries)
        _refuse_repeats("database", dbs)
    if indices == "all":
        idx = tuple(range(1, n + 1))
    else:
        idx = tuple(indices)
    if not dbs or not idx:
        raise ValueError("the grid needs at least one database and one index")
    for d in dbs:
        if d.n != n:
            raise ValueError(f"database {d} has {d.n} bits, not n = {n}")
    for i in idx:
        if type(i) is not int or not 1 <= i <= n:
            raise ValueError(f"index {i!r} outside [1, {n}]")
    if indices != "all":
        _refuse_repeats("index", idx)
    return AuditGrid(n=n, databases=dbs, indices=idx)


def _refuse_repeats(kind: str, entries: tuple) -> None:
    """A listed copy would count, and be compared, as another entry; "all" and samples hold none."""
    repeated = [e for e, count in Counter(entries).items() if count > 1]
    if repeated:
        raise ValueError(f"{kind} {repeated[0]} is listed twice")


def _mask_mode(protocol: Protocol) -> tuple[str, list[tuple[int, ...]]]:
    """The mask draws the audits run on ``protocol``, and how they are spent.

    * "none": the protocol draws no masks; every run takes ``()``.
    * "full": ``mask_space()`` has at most MASK_EXHAUSTIVE_LIMIT combinations,
      and every (x, i, r) runs all of them.
    * "cycle": a larger space gives at most MASK_CYCLE_LIMIT combinations
      scattered over it (``_cycled_masks``).  Recovery runs none (no output
      reads them); it counts one per (x, i, r), cycling through them, and
      the whole subset at its first grid point, and names one in a witness;
      data privacy runs the first 4 at every (i, r), once per view class
      where a group has two signature sets.  User privacy reads every mask
      off histograms in either mode (``_server_histograms``), keeping only
      each server's own steps in this one.  Data privacy over the whole
      product would need an argument that its verdict and mixtures do not
      depend on the masks, which is not made here.
    """
    masks = protocol.mask_space()  # one tuple, (), when the protocol draws no masks
    if len(masks) > MASK_EXHAUSTIVE_LIMIT:
        return "cycle", _cycled_masks(protocol)
    return "none" if len(masks) == 1 else "full", list(masks)


def _cycled_masks(protocol: CompiledProtocol) -> list[tuple[int, ...]]:
    """Up to MASK_CYCLE_LIMIT distinct mask tuples, in slot order.

    Slot s stands for the product value v, with server j's mask in bits
    [a*j, a*(j+1)) of v: v = s when the whole product fits the limit, else a
    fixed odd multiplier scatters the slots across it (multiplication by an
    odd constant is a bijection mod a power of two, so distinct slots give
    distinct combinations).
    """
    a, k = protocol.scheme.shape.a, protocol.k
    total = 1 << (a * k)
    mask_bits = (1 << a) - 1
    combos = []
    for slot in range(min(total, MASK_CYCLE_LIMIT)):
        value = (slot * 2654435761) & (total - 1) if total > MASK_CYCLE_LIMIT else slot
        combos.append(tuple((value >> (a * j)) & mask_bits for j in range(k)))
    return combos


def audit_recovery(protocol: Protocol, grid: AuditGrid) -> AuditReport:
    """Worst-case probability (averaged over randomness) of outputting x_i.

    Each r (a range: no value repeats) weighs the same, split evenly over
    its draws; with equal draw counts the sum is the plain mean, to the bit.
    Every mask tuple of the subset counts (at every point in full mode, at
    the first in cycle mode): ``distinct_mask_combos`` is its size.  No output
    reads the masks (``CompiledProtocol.run_outputs``), so one ``run_outputs``
    batch per (x, i) runs each (i, r) once and adds its probability once per
    tuple it stands for, in draw order.  Only the cycle-mode first point
    weighs its draws unevenly: there r_idx 0 stands for the whole subset, and
    each other r adds its probability times the subset's size, once.  Every
    sum, count and witness is the per-tuple loop's.  A tuple is named only
    where the report shows it, in the witness's example.
    """
    mode, mask_subset = _mask_mode(protocol)
    size = len(mask_subset)
    each = 1 if mode == "cycle" else size  # the tuples a draw stands for, off the first point
    rand = list(protocol.randomness_space())
    worst_p = 1.0
    witness = None
    runs = 0
    for x in grid.databases:
        for i in grid.indices:
            first = mode == "cycle" and (x.value, i) == (grid.databases[0].value, grid.indices[0])
            most = size if first else each
            outputs = protocol.run_outputs(x, [(i, r) for r in rand])
            runs += len(rand) * each + most - each
            target = x.bit(i)
            total = 0.0
            example = None
            for r_idx, (r, output) in enumerate(zip(rand, outputs)):
                p = output.get(target, 0.0)
                if first and r_idx:
                    total += p * most
                elif most == 1:
                    total += p
                else:
                    for _ in range(most):
                        total += p
                if p < 1.0 - TOL and example is None:
                    slot = (x.value * len(grid.indices) + (i - 1)) * len(rand) + r_idx
                    cycled = mode == "cycle" and (r_idx or not first)
                    masks = mask_subset[slot % size if cycled else 0]
                    example = {"r": r, "masks": list(masks), "probability": p}
            p = total / (most * len(rand))
            if p < worst_p:
                worst_p = p
            if p < 1.0 - TOL and witness is None:
                witness = {"x": str(x), "i": i, "recovery_probability": p, "example": example}
    distance = 1.0 - worst_p
    return AuditReport(
        kind="recovery",
        protocol=protocol.name,
        grid=grid.describe(),
        tolerance=TOL,
        worst_case_distance=distance,
        passed=distance <= TOL,
        witness=witness,
        details={
            "min_recovery_probability": worst_p,
            "runs": runs,
            "distinct_mask_combos": len(mask_subset) if mode != "none" else 0,
            "mask_mode": mode,
        },
    )


def audit_user_privacy_classical(scheme: LinearPirScheme) -> AuditReport:
    """Exact equality of each server's query multiset across all indices."""
    n = scheme.n
    k = scheme.shape.k
    witness = None
    worst = 0.0
    baseline: list[Counter] = []
    for j in range(k):
        baseline.append(Counter(scheme.gen_plan(1, r).queries[j] for r in scheme.randomness_space))
    for i in range(2, n + 1):
        for j in range(k):
            counter = Counter(scheme.gen_plan(i, r).queries[j] for r in scheme.randomness_space)
            if counter != baseline[j] and witness is None:
                diff = (baseline[j] - counter) + (counter - baseline[j])
                example = bits(next(iter(diff)), scheme.shape.t)
                witness = {"server": j + 1, "i": 1, "i_prime": i,
                           "example_query": example}
                worst = 1.0
    return AuditReport(
        kind="user-privacy",
        protocol=scheme.name,
        grid={"n": n, "randomness": scheme.shape.randomness_size},
        tolerance=0.0,
        worst_case_distance=worst,
        passed=witness is None,
        witness=witness,
        details={"comparison": "exact query multisets over the randomness space"},
    )


def mix_views(records) -> dict:
    """``(key, layout, held, branches)`` records mixed into one finalized matrix per key.

    Keys keep the order of their first records, whose layout and held registers they take."""
    accs: dict = {}
    for key, layout, held, branches in records:
        acc = accs.get(key)
        if acc is None:
            acc = accs[key] = DensityAccumulator(layout, held)
        acc.add_branches(branches)
    return {key: acc.finalize() for key, acc in accs.items()}


def _server_mixtures_generic(protocol: Protocol, x: Database,
                             i: int) -> dict[tuple[str, str], DensityMatrix]:
    """(server, step label) -> reduced state mixed over randomness and masks,
    keyed in custody order, which no string hashing changes."""
    runs = (protocol.run(x, i, r, masks)
            for r in protocol.randomness_space() for masks in protocol.mask_space())
    return mix_views(((party, step.label), t.layout, step.holdings(party), step.branches)
                     for t in runs for step in t.steps if step.branches is not None
                     for party in dict.fromkeys(h for h in step.custody.values() if h != USER))


def _server_histograms(protocol: CompiledProtocol, i: int) -> dict[tuple[str, str], DensityMatrix]:
    """(server, step label) -> reduced state mixed over randomness and masks, for index i.

    Server j holds (q_j, m_j) in one term of a draw and (q_j, m_j ^ s_j) in
    the other, so its state, which has no cross terms (see
    ``server_state_mixtures``), is diagonal over the values (q_j << a) | m_j:
    phases map basis states to +-themselves and measurements leave them as
    they are.  So each step's mixture is read off the index's plans, built
    here and not kept (kept, they cost peak memory), and one stand-in run per
    split pattern (``_stand_in_steps``), without a transcript.

    In full mode (at most MASK_EXHAUSTIVE_LIMIT mask tuples) the keys and
    entries are ``_server_mixtures_generic``'s, to the last bit and in the
    same order: every holder at every step, each (r, m_j) draw counted once
    per mask tuple of the other servers.  In cycle mode they are those of
    ``server_round`` on server j alone, over (r, m_j) with the other masks
    0: each server's own steps.  Keys with the same content share one matrix.
    """
    s = protocol.scheme.shape
    plans = [protocol.scheme.gen_plan(i, r) for r in protocol.scheme.randomness_space]
    for plan in plans:
        _check_plan(plan)  # what a run of the plan refuses
    splits = [tuple(sel != 0 for sel in plan.selects) for plan in plans]
    patterns = list(dict.fromkeys(splits))
    if len(protocol.mask_space()) <= MASK_EXHAUSTIVE_LIMIT:
        reps, rounds = 1 << (s.a * (s.k - 1)), [tuple(range(1, s.k + 1))]
    else:
        reps, rounds = 1, [(j,) for j in range(1, s.k + 1)]
    out = {}
    for servers in rounds:
        # step by step: its label and holders, the same in every run, and each pattern's form
        steps = [(at[0][0], at[0][1], tuple(form for _, _, form in at))
                 for at in zip(*(_stand_in_steps(protocol, servers, p) for p in patterns))]
        shared: dict = {}
        for label, holders, forms in steps:
            for j in holders:
                rho = shared.get((j, forms))
                if rho is None:
                    # a plan's draws: 2**a own masks, each once per other servers' tuple
                    per_plan = {p: (c, copies * reps, weights * (reps << s.a))
                                for p, (c, copies, weights) in zip(patterns, forms)}
                    cells = [(plan.queries[j - 1], plan.selects[j - 1], per_plan[split])
                             for plan, split in zip(plans, splits)]
                    layout = protocol.layout().sub_layout([server_register(j)])
                    rho = shared[j, forms] = _histogram(layout, s.a, cells)
                out[(server_party(j), label)] = rho
    return out


def _stand_in_steps(protocol: CompiledProtocol, servers: Sequence[int], split: tuple[bool, ...]):
    """One draw's steps on a stand-in state: ``(label, holders, form)`` in step order.

    The stand-in is ``sign`` and one bit per server, SQRT_HALF on |0, 0...0>
    and on |1, split>: server j's two terms differ on its register exactly
    where its select is nonzero.  It goes through ``server_round`` with an
    identity operation (a phase only negates whole terms, which leaves every
    product as it is), then the returns; ``holders`` are the servers holding
    their register after the step, in custody order.  A form is the step's
    one product ``(w * amp) * conj(amp)``, its number of terms and its
    branch weights, which the measurements make the same for every term.
    """
    names = [server_register(j) for j in range(1, len(split) + 1)]
    layout = RegisterLayout.of(("sign", 1), *((name, 1) for name in names))
    flip = layout.assemble({"sign": 1, **dict(zip(names, split))})
    rounds = server_round([(1.0, SparseState(layout, {0: SQRT_HALF, flip: SQRT_HALF}))], servers,
                          protocol.server_registers, lambda state, j: state, protocol.verb,
                          protocol.dephase_servers)
    held: list[int] = []
    steps = []
    for label, j, branches in rounds:
        if label.startswith("send:"):
            held.append(j)
        (c,) = {(w * amp) * amp.conjugate() for w, st in branches for amp in st.terms.values()}
        form = c, sum(len(st.terms) for _, st in branches), tuple(w for w, _ in branches)
        steps.append((label, tuple(held), form))
    for j in servers:
        held.remove(j)
        steps.append((f"return:{server_party(j)}", tuple(held), form))
    return steps


def _histogram(layout: RegisterLayout, a: int, cells) -> DensityMatrix:
    """The mixture ``DensityAccumulator`` makes of every draw of a step, from its
    ``cells``: per plan, in plan order, (query, select, (c, copies, weights)),
    its draws' one product, the number of times it reaches each value of the
    query's block, and their branch weights in draw order.

    A draw of mask m puts the values (q << a) | m and (q << a) | (m ^ s) in
    place of the stand-in values 0 and 1 and adds ``(w * amp) * conj(amp)``
    at each for every term, the same product for every term of the step
    (``_stand_in_steps``).  So, exactly, and without a pass over the draws:

    * each value of a query's block gets, from every plan with that query,
      ``copies`` copies of its product: one at mask m and one at m ^ s per
      draw when s != 0, both at m when s = 0.  All 2**a entries of a block
      are the same sequential float sum, in plan order, computed once per
      block;
    * keys go in the order the per-draw loop first saw them, set by the
      block's first plan: for s != 0, m then m ^ s for each m < m ^ s, and
      for s = 0, m ascending.  A value is first seen where the other
      servers' masks are 0, and there either the sign-0 term or the smaller
      outcome comes first: m, since m < m ^ s;
    * the normalisation is still the per-draw sum of branch weights, in
      draw order.
    """
    sums: dict[int, complex] = {}
    first: dict[int, int] = {}  # query -> the select of its first plan
    total = 0.0
    for q, select, (c, copies, weights) in cells:
        acc = sums.get(q)
        for _ in range(copies):
            acc = c if acc is None else acc + c
        sums[q] = acc
        first.setdefault(q, select)
        for w in weights:
            total += w
    scale = 1.0 / total
    orders: dict[int, tuple[int, ...]] = {}  # select -> masks in the order its draws reach them
    entries: dict[tuple[int, int], complex] = {}
    for q, select in first.items():
        order = orders.get(select)
        if order is None:
            order = orders[select] = (
                tuple(v for m in range(1 << a) if m < m ^ select for v in (m, m ^ select))
                if select else tuple(range(1 << a)))
        c = sums[q] * scale
        if abs(c) <= PRUNE_TOL:  # the constructor's pruning, once for the block
            continue
        base = q << a
        for m in order:
            entries[base | m, base | m] = c
    return DensityMatrix._trusted(layout, entries)


def server_state_mixtures(protocol: Protocol, i: int) -> dict[tuple[str, str], DensityMatrix]:
    """(server, step label) -> reduced state at index i, mixed over randomness and masks.

    A quantum protocol's server states do not depend on the database, to the
    bit, so none is asked for.  In a ``CompiledProtocol`` each draw is
    (|0>|v0> + |1>|v1>)/sqrt(2) and the user keeps ``sign``, which differs
    between the terms, so a server's state has no cross terms; x only flips
    the sign of whole terms, leaving each ``(w * amp) * conj(amp)``, norm and
    renormalised amplitude as it is, in every mask mode.  So it is built in
    closed form (``_server_histograms``) and runs no transcript, but only
    when ``mask_space()`` is the full ``MaskSpace`` of the scheme's (a, k),
    which the closed form assumes; any other mask space runs transcripts.

    In a ``BellProtocol`` run every term has the same magnitude, to the bit:
    each amplitude is the same product of SQRT_HALF factors, a Pauli only
    negates a term or moves it, and a measurement rescales every term of its
    branch by one factor.  Each pair is a Bell state in both query branches,
    so a server's halves are fixed by the registers traced out and its
    reduced state is diagonal.  Each diagonal entry is a sum of equal
    addends, and x only negates terms and XORs the server's own halves, so
    every entry is the same float whatever the database.  Its one draw runs
    on the all-zeros database.
    """
    if isinstance(protocol, ClassicalProtocol):
        raise TypeError("a classical server's states read the database; "
                        "check its user privacy with audit_user_privacy_classical")
    if isinstance(protocol, CompiledProtocol):
        masks, s = protocol.mask_space(), protocol.scheme.shape
        if type(masks) is MaskSpace and (masks.a, masks.k) == (s.a, s.k):
            return _server_histograms(protocol, i)
    return _server_mixtures_generic(protocol, Database(protocol.n, 0), i)


def audit_user_privacy_quantum(protocol: Protocol, grid: AuditGrid) -> AuditReport:
    """Trace distance 0 between server states across indices, at every step.

    Server states do not depend on the database (``server_state_mixtures``),
    so each index's are built once and every comparison counts once per grid
    database; a witness names the first.
    """
    worst = 0.0
    witness = None
    comparisons = 0
    base_i = grid.indices[0]
    # the base index's states stay; every other index's go once compared
    base = server_state_mixtures(protocol, base_i)
    for i in grid.indices[1:]:
        other = server_state_mixtures(protocol, i)
        for key in dict.fromkeys([*base, *other]):
            # a view only one of the two indices has tells them apart
            d = trace_distance(base[key], other[key]) if key in base and key in other else None
            if d is not None:
                comparisons += len(grid.databases)
                worst = max(worst, d)
            if witness is None and (d is None or d > TOL):
                witness = {"server": key[0], "step": key[1], "i": base_i, "i_prime": i,
                           "x": str(grid.databases[0]), "distance": d}
    return AuditReport(
        kind="user-privacy",
        protocol=protocol.name,
        grid=grid.describe(),
        tolerance=TOL,
        worst_case_distance=worst,
        passed=witness is None,
        witness=witness,
        details={"comparisons": comparisons},
    )


# --- data privacy -----------------------------------------------------------

@dataclass
class ViewStep:
    label: str
    pure: SparseState | None
    rho: DensityMatrix | None


@dataclass
class ViewRecord:
    """Everything the user holds, step by step: knowledge, states, output."""

    knowledge: dict
    steps: list[ViewStep]
    output: dict[int, float]


def _feed_mixtures(transcript: Transcript, mixtures: dict[str, DensityAccumulator]) -> None:
    """Add each step's user state to ``mixtures[label]``, made on first use."""
    for step in transcript.steps:
        held = step.holdings(USER) if step.branches is not None else ()
        if held:
            mix = mixtures.get(step.label)
            if mix is None:
                mix = mixtures[step.label] = DensityAccumulator(transcript.layout, held)
            mix.add_branches(step.branches)


def user_view(transcript: Transcript) -> ViewRecord:
    """The user's view of one run."""
    steps = []
    all_regs = set(transcript.layout.names)
    for step in transcript.steps:
        held = step.holdings(USER) if step.branches is not None else ()
        if not held:
            steps.append(ViewStep(step.label, None, None))
            continue
        if set(held) == all_regs and len(step.branches) == 1:
            steps.append(ViewStep(step.label, step.branches[0][1], None))
            continue
        acc = DensityAccumulator(transcript.layout, held)
        acc.add_branches(step.branches)
        rho = acc.finalize()
        pure = rho.to_pure()
        if pure is not None:
            steps.append(ViewStep(step.label, pure, None))
        else:
            steps.append(ViewStep(step.label, None, rho))
    return ViewRecord(knowledge=dict(transcript.knowledge), steps=steps,
                      output=dict(transcript.output))


def compare_views(a: ViewRecord, b: ViewRecord) -> dict | None:
    """None when the views coincide, else a description of the first mismatch."""
    if a.knowledge != b.knowledge:
        return {"part": "classical knowledge"}
    if len(a.steps) != len(b.steps):
        return {"part": "step count"}
    for sa, sb in zip(a.steps, b.steps):
        if sa.label != sb.label:
            return {"part": "step labels", "step": sa.label}
        if (sa.pure is None) != (sb.pure is None) or (sa.rho is None) != (sb.rho is None):
            return {"part": "state kind", "step": sa.label}
        if sa.pure is not None and not equal_up_to_global_phase(sa.pure, sb.pure, TOL):
            return {"part": "pure state", "step": sa.label}
        if sa.rho is not None and not entries_close(sa.rho, sb.rho, TOL):
            return {"part": "mixed state", "step": sa.label,
                    "distance": trace_distance(sa.rho, sb.rho)}
    for bit in set(a.output) | set(b.output):
        if abs(a.output.get(bit, 0.0) - b.output.get(bit, 0.0)) > TOL:
            return {"part": "output distribution"}
    return None


def audit_data_privacy(protocol: Protocol, grid: AuditGrid) -> AuditReport:
    """Views must agree on database pairs that agree on the requested bit.

    Each protocol names the class its user's view reads x through
    (``view_class``): the compiled reconstruction c(x, i, r), Bell's x_i, a
    classical scheme's answers.  Databases of one class at every r form a
    signature set, with the same views and mixtures to the bit, so a group
    (the databases with one x_i) of one set passes by its classes alone and
    runs no transcript; a correct quantum protocol's every group is one.  A
    group of two sets or more runs one transcript per class per draw (i, r,
    masks), on the class's first database, feeds every set's
    mixed-over-randomness accumulators, and builds a per-draw view only at
    a draw of two classes or more.  Views across classes are compared, not
    assumed to differ: under the countermeasure the compiled ones are equal.
    The report is the one-transcript-per-database loop's: the witness is
    its first failing pair, group[0] against the first member of the first
    class whose view differs.  ``pairs_compared`` counts the pairs the class
    verdicts cover, len(group) - 1 per draw, not ``compare_views`` calls.
    A draw ``run`` refuses (a degenerate plan) is refused by recovery,
    ``run_outputs`` and ``export``, not here.
    """
    mask_subset = _data_privacy_masks(protocol)
    rand = list(protocol.randomness_space())
    worst = 0.0
    witness = None
    pair_count = 0
    mixed_worst = 0.0
    for i in grid.indices:
        for value in (0, 1):
            group = [x for x in grid.databases if x.bit(i) == value]
            if len(group) < 2:
                continue
            # databases with the same class at every r have the same mixtures,
            # to the bit: each such set accumulates once, under its first database
            alike: dict[tuple, Database] = {}
            for x in group:
                alike.setdefault(tuple(protocol.view_class(x, i, r) for r in rand), x)
            pair_count += (len(group) - 1) * len(rand) * len(mask_subset)
            if len(alike) == 1:  # one class at every draw: nothing to compare
                continue
            mixtures = {x.value: {} for x in alike.values()}
            for r_idx, r in enumerate(rand):
                # class -> its sets' first databases, in group order
                classes: dict = {}
                for signature, x in alike.items():
                    classes.setdefault(signature[r_idx], []).append(x)
                for masks in mask_subset:
                    views = []
                    for members in classes.values():
                        t = protocol.run(members[0], i, r, masks)
                        if len(classes) > 1:
                            views.append((members[0], user_view(t)))
                        # several members where their classes differ at another r
                        for x in members:
                            _feed_mixtures(t, mixtures[x.value])
                    for other, view in views[1:]:
                        mismatch = compare_views(views[0][1], view)
                        if mismatch is not None:
                            worst = max(worst, float(mismatch.get("distance", 1.0)))
                            if witness is None:
                                witness = _data_privacy_witness(protocol, i, value, group[0],
                                                                other, r, masks, mismatch)
            mixed_worst = max(mixed_worst, _mixed_view_distance(mixtures, list(alike.values())))
    return _data_privacy_report(protocol, grid, worst, witness, pair_count, mixed_worst)


def _data_privacy_masks(protocol: Protocol) -> list[tuple[int, ...]]:
    mode, mask_subset = _mask_mode(protocol)
    if mode == "cycle":
        mask_subset = mask_subset[:4]  # dense pairing is per-draw; keep grids finite
    return mask_subset


def _data_privacy_witness(protocol: Protocol, i: int, value: int, x: Database,
                          other: Database, r: int, masks, mismatch: dict) -> dict:
    return {
        "i": i, "x_i": value,
        "x": str(x), "x_prime": str(other),
        "r": bits(r, _rand_width(protocol)),
        "masks": [bits(m, protocol.scheme.shape.a) for m in masks] if masks else [],
        **mismatch,
    }


def _data_privacy_report(protocol: Protocol, grid: AuditGrid, worst: float, witness: dict | None,
                         pair_count: int, mixed_worst: float) -> AuditReport:
    return AuditReport(
        kind="data-privacy",
        protocol=protocol.name,
        grid=grid.describe(),
        tolerance=TOL,
        worst_case_distance=worst if witness else 0.0,
        passed=witness is None,
        witness=witness,
        details={
            "pairs_compared": pair_count,
            "mixed_view_max_distance": mixed_worst,
            "mixed_view_equal": mixed_worst <= TOL,
        },
    )


def _rand_width(protocol: Protocol) -> int:
    scheme = getattr(protocol, "scheme", None)
    return scheme.shape.t if scheme is not None else 0


def _mixed_view_distance(per_x: dict[int, dict[str, DensityAccumulator]],
                         group: Sequence[Database]) -> float:
    """Weaker distributional comparison: user states mixed over randomness."""
    worst = 0.0
    basis = {label: acc.finalize() for label, acc in per_x[group[0].value].items()}
    for other in group[1:]:
        for label, rho_a in basis.items():
            rho_b = per_x[other.value][label].finalize()
            worst = max(worst, trace_distance(rho_a, rho_b))
    return worst


def audit_comm(protocol: Protocol, grid: AuditGrid) -> AuditReport:
    """Measured communication counters must equal the closed form exactly."""
    x = grid.databases[0]
    i = grid.indices[0]
    r = next(iter(protocol.randomness_space()))
    masks = next(iter(protocol.mask_space()))
    t = protocol.run(x, i, r, masks)
    unit, expected = message_unit(protocol), protocol.comm()
    measured = t.qubits_total if unit == "qubits" else t.bits_total
    off_channel = t.bits_total if unit == "qubits" else t.qubits_total
    residual = abs(measured - expected) + abs(off_channel)
    witness = None
    if residual:
        witness = {"unit": unit, "measured": measured, "expected": expected,
                   "other_channel": off_channel}
    return AuditReport(
        kind="comm",
        protocol=protocol.name,
        grid={"n": grid.n},
        tolerance=0.0,
        worst_case_distance=float(residual),
        passed=residual == 0,
        witness=witness,
        details={"unit": unit, "measured": measured, "closed_form": expected},
    )


AUDIT_NAMES = ("recovery", "user-privacy", "data-privacy", "comm")


def run_audit(protocol: Protocol, kind: str, grid: AuditGrid) -> AuditReport:
    if kind == "recovery":
        return audit_recovery(protocol, grid)
    if kind == "user-privacy":
        if isinstance(protocol, ClassicalProtocol):
            return audit_user_privacy_classical(protocol.scheme)
        return audit_user_privacy_quantum(protocol, grid)
    if kind == "data-privacy":
        return audit_data_privacy(protocol, grid)
    if kind == "comm":
        return audit_comm(protocol, grid)
    raise ValueError(f"unknown audit {kind!r}; known: {AUDIT_NAMES}")
