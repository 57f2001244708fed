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
  for information; it is fed from the same partial trace as the per-draw
  view.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

from .compiler import CompiledProtocol, server_register
# unused here; perfbench's tracer tests check that its wrapper re-binds this copy
from .compiler import build_query_state  # noqa: F401
from .density import DensityAccumulator, DensityMatrix, entries_close, trace_distance
from .protocols import ClassicalProtocol, Protocol, closed_form_comm
from .registers import RegisterLayout, bits
from .schemes import Database, LinearPirScheme
from .states import SQRT_HALF, SparseState, equal_up_to_global_phase
from .transcript import USER, Transcript, dephase, server_party

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


@dataclass(frozen=True)
class AuditGrid:
    """Enumeration bounds shared by the audits."""

    n: int
    databases: tuple[Database, ...]
    indices: tuple[int, ...]
    mask_exhaustive_limit: int = 64   # full mask product when the space is at most this
    mask_cycle_limit: int = 512       # distinct combos guaranteed in cycle mode
    dense_mask_point: bool = True     # sweep the whole mask subset at the first grid point

    def describe(self) -> dict:
        return {
            "n": self.n,
            "databases": len(self.databases),
            "indices": list(self.indices),
            "mask_exhaustive_limit": self.mask_exhaustive_limit,
            "mask_cycle_limit": self.mask_cycle_limit,
        }


def make_grid(n: int, *, databases="all", indices="all", cap: int = 8, seed: int = 0,
              **kwargs) -> AuditGrid:
    """Grid with an exhaustive database set up to ``2**cap``, sampled beyond.

    ``databases`` may be "all", an int sample size, or an iterable of bit
    strings / Database values; ``indices`` may be "all" or an iterable.
    """
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
        dbs = tuple(
            d if isinstance(d, Database) else Database.from_string(d) for d in databases
        )
    if indices == "all":
        idx = tuple(range(1, n + 1))
    else:
        idx = tuple(indices)
    return AuditGrid(n=n, databases=dbs, indices=idx, **kwargs)


def representative_databases(n: int) -> tuple[Database, ...]:
    """Small fixed database set for audits whose grids would otherwise blow up."""
    full = (1 << n) - 1
    pattern = 0
    for i in range(n):
        pattern = (pattern << 1) | ((0b10110100 >> (7 - i % 8)) & 1)
    values = {0, full, pattern & full, ~pattern & full}
    return tuple(Database(n, v) for v in sorted(values))


def _mask_mode(protocol: Protocol, grid: AuditGrid) -> tuple[str, list[tuple[int, ...]]]:
    if not isinstance(protocol, CompiledProtocol):
        return "none", [()]
    shape = protocol.scheme.shape
    space = 1 << (shape.a * shape.k)
    if space <= grid.mask_exhaustive_limit:
        return "full", list(protocol.mask_space())
    subset = [
        protocol.mask_combo(slot, grid.mask_cycle_limit)
        for slot in range(protocol.mask_subset_size(grid.mask_cycle_limit))
    ]
    return "cycle", subset


def _thread_count() -> int:
    try:
        return max(1, int(os.environ.get("QSPIRLAB_THREADS", "1")))
    except ValueError:
        return 1


def _recovery_for_database(args) -> list[tuple]:
    protocol, grid, x, mode, mask_subset = args
    rand = list(protocol.randomness_space())
    draws = []
    spans = []
    for i in grid.indices:
        start = len(draws)
        for r_idx, r in enumerate(rand):
            if mode == "full":
                combos = mask_subset
            elif mode == "cycle":
                first_point = grid.dense_mask_point and x.value == grid.databases[0].value \
                    and i == grid.indices[0] and r_idx == 0
                if first_point:
                    combos = mask_subset
                else:
                    slot = (x.value * len(grid.indices) + (i - 1)) * len(rand) + r_idx
                    combos = [mask_subset[slot % len(mask_subset)]]
            else:
                combos = [()]
            draws += [(i, r, masks) for masks in combos]
        spans.append((i, start, len(draws)))
    outputs = protocol.run_outputs(x, draws)
    rows = []
    for i, start, stop in spans:
        target = x.bit(i)
        total = 0.0
        count = 0
        example_fail = None
        combos_used = set()
        for (_, r, masks), output in zip(draws[start:stop], outputs[start:stop]):
            p = output.get(target, 0.0)
            total += p
            count += 1
            combos_used.add(masks)
            if p < 1.0 - TOL and example_fail is None:
                example_fail = {"r": r, "masks": list(masks), "probability": p}
        rows.append((str(x), i, total / count, count, example_fail, combos_used))
    return rows


def audit_recovery(protocol: Protocol, grid: AuditGrid) -> AuditReport:
    """Worst-case probability (averaged over randomness) of outputting x_i."""
    mode, mask_subset = _mask_mode(protocol, grid)
    worst_p = 1.0
    witness = None
    runs = 0
    combos: set = set()
    work = [(protocol, grid, x, mode, mask_subset) for x in grid.databases]
    threads = _thread_count()
    if threads > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(_recovery_for_database, work, chunksize=4))
    else:
        results = [_recovery_for_database(w) for w in work]
    for rows in results:
        for x_str, i, p, count, example_fail, used in rows:
            runs += count
            combos |= used
            if p < worst_p:
                worst_p = p
            if p < 1.0 - TOL and witness is None:
                witness = {"x": x_str, "i": i, "recovery_probability": p,
                           "example": example_fail}
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
            "distinct_mask_combos": len(combos) if mode != "none" else 0,
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


def _server_mixtures_generic(protocol: Protocol, x: Database, i: int,
                             grid: AuditGrid) -> dict[tuple[str, str], DensityMatrix]:
    """(server, step label) -> reduced state mixed over randomness and masks."""
    mode, mask_subset = _mask_mode(protocol, grid)
    if mode == "cycle":
        raise ValueError("generic mixture path needs an exhaustible mask space")
    accs: dict[tuple[str, str], DensityAccumulator] = {}
    for r in protocol.randomness_space():
        for masks in mask_subset:
            t = protocol.run(x, i, r, masks)
            for step in t.steps:
                if step.branches is None:
                    continue
                for party in {h for h in step.custody.values() if h != USER}:
                    held = step.holdings(party)
                    if not held:
                        continue
                    key = (party, step.label)
                    acc = accs.get(key)
                    if acc is None:
                        acc = accs[key] = DensityAccumulator(t.layout, held)
                    acc.add_branches(step.branches)
    return {key: acc.finalize() for key, acc in accs.items()}


def _server_histograms(protocol: CompiledProtocol, i: int) -> dict[tuple[str, str], DensityMatrix]:
    """(server, own step label) -> reduced state mixed over randomness and masks, for index i.

    Server j holds (q_j, m_j) in one term of a draw and (q_j, m_j ^ s_j) in
    the other, so its state, which has no cross terms (see
    ``server_state_mixtures``), is half on each.  Its phase maps basis
    states to +-themselves and its measurement leaves them as they are, so
    every step's mixture is a histogram of the two values over r and m_j.
    The other servers' masks and steps touch only traced-out registers, so
    it is read off the ``gen_plan`` tables, without a state.

    The entries are those of ``server_round`` on server j alone, over draws
    in (r, m_j) order with the other masks 0, to the last bit and in the
    same key order: each term adds ``(weight * amp) * conj(amp)``, where a
    measured term has the weight and renormalised amplitude that ``dephase``
    gives its outcome, outcomes in sorted order.  The phase step repeats the
    step before it, since a sign flip leaves every such product as it is.
    """
    s = protocol.scheme.shape
    plans = [protocol.scheme.gen_plan(i, r) for r in protocol.scheme.randomness_space]
    # one draw on a stand-in register: its two terms apart (s_j != 0) or together
    pair = RegisterLayout.of(("sign", 1), ("srv", 1))
    apart = [(1.0, SparseState(pair, {0b00: SQRT_HALF, 0b11: SQRT_HALF}))]
    together = [(1.0, SparseState(pair, {0b00: SQRT_HALF, 0b10: SQRT_HALF}))]
    steps = [("send", apart, together, False)]
    if protocol.dephase_servers:
        steps.append(("measure", dephase(apart, ["srv"]), dephase(together, ["srv"]), True))
    out = {}
    for j in range(1, s.k + 1):
        party = server_party(j)
        layout = protocol.layout().sub_layout([server_register(j)])
        draws = [((p.queries[j - 1] << s.a) | m, (p.queries[j - 1] << s.a) | (m ^ p.selects[j - 1]))
                 for p in plans for m in range(1 << s.a)]
        for label, *forms in steps:
            out[(party, f"{label}:{party}")] = rho = _histogram(layout, draws, *forms)
        out[(party, f"{protocol.verb}:{party}")] = rho
    return out


def _histogram(layout: RegisterLayout, draws, apart, together, ordered: bool) -> DensityMatrix:
    """The mixture ``DensityAccumulator`` makes of each draw's stand-in branches.

    A draw (u0, u1) puts u0 and u1 in place of the stand-in values 0 and 1
    or, when ``ordered``, the smaller and the larger of them.
    """
    def products(branches):
        return [(w, [(key & 1, (w * amp) * amp.conjugate()) for key, amp in st.terms.items()])
                for w, st in branches]

    apart, together = products(apart), products(together)
    entries: dict[tuple[int, int], complex] = {}
    total = 0.0
    for u0, u1 in draws:
        subs = (u1, u0) if ordered and u1 < u0 else (u0, u1)
        for w, terms in apart if u0 != u1 else together:
            for value, c in terms:
                key = (subs[value], subs[value])
                old = entries.get(key)
                entries[key] = c if old is None else old + c
            total += w
    scale = 1.0 / total
    return DensityMatrix(layout, {key: c * scale for key, c in entries.items()})


def server_state_mixtures(protocol: Protocol, x: Database, i: int,
                          grid: AuditGrid) -> dict[tuple[str, str], DensityMatrix]:
    """(server, step label) -> reduced state at index i, mixed over randomness and masks.

    A ``CompiledProtocol``'s result does not depend on x, in every mask mode:
    each draw is (|0>|v0> + |1>|v1>)/sqrt(2) and the user keeps ``sign``, which
    differs between the terms, so a server's state has no cross terms; x only
    flips the sign of whole terms, leaving each ``(w * amp) * conj(amp)``, norm
    and renormalised amplitude as it is, to the bit.  Bell servers' Paulis act on qubits they hold.
    """
    mode, _ = _mask_mode(protocol, grid)
    if mode == "cycle":
        return _server_histograms(protocol, i)
    return _server_mixtures_generic(protocol, x, i, grid)


def audit_user_privacy_quantum(protocol: Protocol, grid: AuditGrid) -> AuditReport:
    """Trace distance 0 between server states across indices, at every step."""
    worst = 0.0
    witness = None
    comparisons = 0
    databases, repeats = grid.databases, 1
    if isinstance(protocol, CompiledProtocol):
        # server states do not depend on the database (server_state_mixtures):
        # the first one's comparisons stand for every database's
        databases, repeats = grid.databases[:1], len(grid.databases)
    for x in databases:
        mixtures = {i: server_state_mixtures(protocol, x, i, grid) for i in grid.indices}
        base_i = grid.indices[0]
        for i in grid.indices[1:]:
            for key in mixtures[base_i]:
                if key not in mixtures[i]:
                    continue
                d = trace_distance(mixtures[base_i][key], mixtures[i][key])
                comparisons += repeats
                if d > worst:
                    worst = d
                    if d > TOL and witness is None:
                        witness = {"server": key[0], "step": key[1],
                                   "i": base_i, "i_prime": i, "x": str(x),
                                   "distance": d}
    return AuditReport(
        kind="user-privacy",
        protocol=protocol.name,
        grid=grid.describe(),
        tolerance=TOL,
        worst_case_distance=worst,
        passed=worst <= TOL,
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


def user_view(transcript: Transcript,
              mixtures: dict[str, DensityAccumulator] | None = None) -> ViewRecord:
    """The user's view of one run, adding each step's state to ``mixtures[label]`` if given.

    The mixed-over-randomness comparison is fed from the same partial trace
    as this per-draw view: each run's holdings are reduced once per step.
    """
    steps = []
    all_regs = set(transcript.layout.names)
    for step in transcript.steps:
        held = step.holdings(USER)
        if step.branches is None or not held:
            steps.append(ViewStep(step.label, None, None))
            continue
        mix = None if mixtures is None else mixtures.get(step.label)
        if mixtures is not None and mix is None:
            mix = mixtures[step.label] = DensityAccumulator(transcript.layout, held)
        if set(held) == all_regs and len(step.branches) == 1:
            steps.append(ViewStep(step.label, step.branches[0][1], None))
            if mix is not None:
                mix.add_branches(step.branches)
            continue
        acc = DensityAccumulator(transcript.layout, held)
        acc.add_branches(step.branches, also=mix)
        rho = acc.finalize()
        pure = rho.to_pure()
        if pure is not None:
            steps.append(ViewStep(step.label, pure, None))
        else:
            steps.append(ViewStep(step.label, None, rho))
    return ViewRecord(knowledge=dict(transcript.knowledge), steps=steps,
                      output=dict(transcript.output))


def compare_views(a: ViewRecord, b: ViewRecord, tol: float = TOL) -> dict | None:
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
        if sa.pure is not None and not equal_up_to_global_phase(sa.pure, sb.pure, tol):
            return {"part": "pure state", "step": sa.label}
        if sa.rho is not None and not entries_close(sa.rho, sb.rho, tol):
            return {"part": "mixed state", "step": sa.label,
                    "distance": trace_distance(sa.rho, sb.rho)}
    for bit in set(a.output) | set(b.output):
        if abs(a.output.get(bit, 0.0) - b.output.get(bit, 0.0)) > tol:
            return {"part": "output distribution"}
    return None


def audit_data_privacy(protocol: Protocol, grid: AuditGrid) -> AuditReport:
    """Views must agree on database pairs that agree on the requested bit."""
    mode, mask_subset = _mask_mode(protocol, grid)
    if mode == "cycle":
        mask_subset = mask_subset[:4]  # dense pairing is per-draw; keep grids finite
    worst = 0.0
    witness = None
    pair_count = 0
    mixed_worst = 0.0
    for i in grid.indices:
        for value in (0, 1):
            group = [x for x in grid.databases if x.bit(i) == value]
            if len(group) < 2:
                continue
            mixtures: dict[int, dict[str, DensityAccumulator]] = {x.value: {} for x in group}
            for r in protocol.randomness_space():
                for masks in mask_subset:
                    views = {}
                    for x in group:
                        views[x.value] = user_view(protocol.run(x, i, r, masks),
                                                   mixtures[x.value])
                    basis_x = group[0]
                    for other in group[1:]:
                        pair_count += 1
                        mismatch = compare_views(views[basis_x.value], views[other.value])
                        if mismatch is not None:
                            worst = max(worst, float(mismatch.get("distance", 1.0)))
                            if witness is None:
                                witness = {
                                    "i": i, "x_i": value,
                                    "x": str(basis_x), "x_prime": str(other),
                                    "r": bits(r, _rand_width(protocol)),
                                    "masks": [bits(m, protocol.scheme.shape.a) for m in masks]
                                    if masks else [],
                                    **mismatch,
                                }
            mixed_worst = max(mixed_worst, _mixed_view_distance(mixtures, group))
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


def audit_data_privacy_classical_direct(scheme: LinearPirScheme, grid: AuditGrid) -> AuditReport:
    """Tuple-level twin of the data-privacy audit for classical schemes.

    Compares the honest user's classical view (answers and output) across
    databases agreeing on the requested bit; used to cross-validate the
    transcript-based audit.
    """
    witness = None
    pair_count = 0
    for i in grid.indices:
        for value in (0, 1):
            group = [x for x in grid.databases if x.bit(i) == value]
            for r in scheme.randomness_space:
                plan = scheme.gen_plan(i, r)
                views = {}
                for x in group:
                    answers = tuple(scheme.answer(q, x) for q in plan.queries)
                    views[x.value] = answers
                basis_x = group[0]
                for other in group[1:]:
                    pair_count += 1
                    if views[basis_x.value] != views[other.value] and witness is None:
                        witness = {
                            "i": i, "x_i": value, "x": str(basis_x), "x_prime": str(other),
                            "r": bits(r, scheme.shape.t),
                            "part": "answers",
                            "answers": [bits(a, scheme.shape.a) for a in views[basis_x.value]],
                            "answers_prime": [bits(a, scheme.shape.a) for a in views[other.value]],
                        }
    return AuditReport(
        kind="data-privacy-classical",
        protocol=scheme.name,
        grid=grid.describe(),
        tolerance=0.0,
        worst_case_distance=0.0 if witness is None else 1.0,
        passed=witness is None,
        witness=witness,
        details={"pairs_compared": pair_count},
    )


def audit_comm(protocol: Protocol, grid: AuditGrid) -> AuditReport:
    """Measured communication counters must equal the closed form exactly."""
    x = grid.databases[0]
    i = grid.indices[0]
    r = next(iter(protocol.randomness_space()))
    masks = ()
    if isinstance(protocol, CompiledProtocol):
        masks = tuple([0] * protocol.k)
    t = protocol.run(x, i, r, masks)
    unit, expected = closed_form_comm(protocol)
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
