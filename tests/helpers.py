"""Shared test fixtures: broken and random schemes, a compiled draw's query state,
Bell's query state, a detectable attack, the clean query's unitary image, a
classical twin audit, the one-transcript-per-database data-privacy reference,
the per-draw recovery reference, the answers and the reconstruction computed
without answer rows, the single-qubit Pauli maps, and the full-validation
switch for the internal constructors."""

import random
from collections import Counter
from contextlib import contextmanager

from qspirlab.adversary import CleanQueryOracle, attack_input_layout
from qspirlab import audits
from qspirlab.audits import AuditGrid, AuditReport
from qspirlab.bell import BellProtocol
from qspirlab.compiler import build_query_state, query_table
from qspirlab.density import DensityAccumulator, DensityMatrix
from qspirlab.registers import RegisterLayout, bits
from qspirlab.schemes import (
    CubeScheme, LinearPirScheme, QueryPlan, SchemeShape, SubsetScheme, TrivialScheme, reconstruct,
)
from qspirlab.states import SparseState
from qspirlab.transcript import USER, prepare_query, sign_relabeling, zero_state


class CorruptedSubsetScheme(SubsetScheme):
    """Subset scheme with server 2's selection vector zeroed.

    Reconstruction degrades to server 1's bare parity, so recovery succeeds
    only when that parity happens to match the requested bit.
    """

    name = "subset2-corrupted"

    def gen_plan(self, i, r):
        plan = super().gen_plan(i, r)
        return QueryPlan(i=plan.i, r=plan.r, queries=plan.queries,
                         selects=(plan.selects[0], 0), t=plan.t, a=plan.a)


class LeakyScheme(LinearPirScheme):
    """Single server receiving the requested index in the clear."""

    name = "leaky1"

    @property
    def shape(self):
        t = max(1, (self.n - 1).bit_length())
        return SchemeShape(k=1, t=t, a=self.n, randomness_size=1)

    def gen_plan(self, i, r):
        self._check_plan_args(i, r)
        return QueryPlan(i=i, r=r, queries=(i - 1,),
                         selects=(1 << (self.n - i),), t=self.shape.t, a=self.n)

    def answer(self, q, x):
        if x.n != self.n:
            raise ValueError("database size mismatch")
        return x.value


class RandomXorScheme(LinearPirScheme):
    """Seeded random tables in the shape of an XOR-linear scheme; not a correct PIR.

    Queries and selects are drawn per (i, r), answers per (query, database).
    About a third of the selects are 0 (never all of one plan's), so both
    kinds of draw occur: the two query branches apart and together on a
    server's register.
    """

    name = "random-xor"

    def __init__(self, n, k=3, t=3, a=7, randomness_size=4, seed=0):
        super().__init__(n)
        self._shape = SchemeShape(k=k, t=t, a=a, randomness_size=randomness_size)
        rng = random.Random(seed)
        self._plans = {}
        for i in range(1, n + 1):
            for r in range(randomness_size):
                selects = [rng.getrandbits(a) if rng.random() < 0.67 else 0 for _ in range(k)]
                if not any(selects):
                    selects[rng.randrange(k)] = 1
                queries = tuple(rng.getrandbits(t) for _ in range(k))
                self._plans[i, r] = (queries, tuple(selects))
        self._answers = [[rng.getrandbits(a) for _ in range(1 << n)] for _ in range(1 << t)]

    @property
    def shape(self):
        return self._shape

    def gen_plan(self, i, r):
        self._check_plan_args(i, r)
        queries, selects = self._plans[i, r]
        return QueryPlan(i=i, r=r, queries=queries, selects=selects, t=self._shape.t,
                         a=self._shape.a)

    def answer(self, q, x):
        self._check_query(q)
        return self._answers[q][x.value]


def _pauli_map(p: int, q: int):
    # Columns of the 2x2 encodings: identity, bit flip, phase flip, and
    # their product with the [0, -1; 1, 0] sign convention.
    if (p, q) == (0, 0):
        cols = ({0: 1.0}, {1: 1.0})
    elif (p, q) == (0, 1):
        cols = ({1: 1.0}, {0: 1.0})
    elif (p, q) == (1, 0):
        cols = ({0: 1.0}, {1: -1.0})
    else:
        cols = ({1: 1.0}, {0: -1.0})

    def apply(sub: int, _cols=cols):
        return _cols[sub]

    return apply


# The Bell scheme's per-pair encoding of database bits (p, q) as single-qubit
# local maps: the reference ``bell.server_pauli`` is checked against.
PAULI = {(p, q): _pauli_map(p, q) for p in (0, 1) for q in (0, 1)}


def query_state(plan, masks):
    """A compiled draw's query state, built from its checked sign table."""
    return build_query_state(plan, query_table(plan, masks))


def build_bell_query(i: int, n: int) -> SparseState:
    """Bell's query state for index i over an even-size database, as a run prepares it."""
    if n % 2 != 0:
        raise ValueError("database size must be even; pad odd sizes with a zero bit")
    if not 1 <= i <= n:
        raise IndexError(f"index {i} outside [1, {n}]")
    protocol = BellProtocol(n)
    return prepare_query(protocol, zero_state(protocol.layout()),
                         sign_relabeling(protocol, protocol.sign_table(i)))


def output_of(protocol, x, i, r=0):
    """One run's output distribution, from the protocol's output-only entry point."""
    (output,) = protocol.run_outputs(x, [(i, r)])
    return output


def leaky_attack_views(protocol, x, r, masks):
    """An attack whose server-1 message pins the mask register to 1.

    Stands in for any cheating strategy whose messages deviate from the
    honest distribution; the undetectability audit must flag it.
    """
    scheme = protocol.scheme
    s = scheme.shape
    plan = scheme.gen_plan(1, r)
    layout = RegisterLayout.of((f"srv1", s.t + s.a))
    content = (plan.queries[0] << s.a) | 1
    dm = DensityMatrix(layout, {(content, content): 1.0})
    return {("server1", "send:server1"): dm}


class CleanQueryError(RuntimeError):
    """Sign or work registers did not return to zero; erasure failed."""


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


def reference_answer(scheme, q, x) -> int:
    """A registered scheme's answer computed without its rows: x itself, the
    subset's parity, or the cube's slice loop over the padded database.  A
    scheme without rows gives its own answer."""
    if scheme.answer_rows(q) is None:
        return scheme.answer(q, x)
    if isinstance(scheme, TrivialScheme):
        assert q == 0
        return x.value
    if isinstance(scheme, SubsetScheme):
        return (q & x.value).bit_count() & 1
    assert isinstance(scheme, CubeScheme)
    m = scheme.side
    xp = x.value << (scheme.padded_n - scheme.n)
    # cell (u, v, w) -> bit mask in the padded database integer
    cell = [[[1 << (scheme.padded_n - 1 - ((u * m + v) * m + w)) for w in range(m)]
             for v in range(m)] for u in range(m)]
    t1, t2, t3 = [
        [c for c in range(m) if (q >> (3 * m - 1 - axis * m - c)) & 1]
        for axis in range(3)
    ]
    # parity of each single-coordinate slice against the other two axes
    slice_masks = [[0] * m for _ in range(3)]
    for c in range(m):
        m1 = m2 = m3 = 0
        for v in t2:
            for w in t3:
                m1 |= cell[c][v][w]
        for u in t1:
            for w in t3:
                m2 |= cell[u][c][w]
        for u in t1:
            for v in t2:
                m3 |= cell[u][v][c]
        slice_masks[0][c], slice_masks[1][c], slice_masks[2][c] = m1, m2, m3
    # main parity = XOR of the axis-1 slices selected by T1
    main = 0
    for u in t1:
        main ^= (xp & slice_masks[0][u]).bit_count() & 1
    out = main
    for axis in range(3):
        for c in range(m):
            toggled = main ^ ((xp & slice_masks[axis][c]).bit_count() & 1)
            out = (out << 1) | toggled
    return out


def reference_reconstruction(scheme, x, i, r) -> int:
    """c(x, i, r) as the XOR of the plan's answers, computed without answer rows."""
    plan = scheme.gen_plan(i, r)
    return reconstruct(plan, [reference_answer(scheme, q, x) for q in plan.queries])


def audit_recovery_per_draw(protocol, grid: AuditGrid) -> AuditReport:
    """The recovery audit with one ``run_outputs`` draw of (i, r) per (x, i, r, mask tuple).

    The reference ``audits.audit_recovery`` must match byte for byte: it runs
    one draw per (x, i, r) and counts it once per tuple it stands for.
    """
    mode, mask_subset = audits._mask_mode(protocol)
    rand = list(protocol.randomness_space())
    first_point = (grid.databases[0].value, grid.indices[0], 0)
    worst_p = 1.0
    witness = None
    runs = 0
    for x in grid.databases:
        for i in grid.indices:
            draws = []
            for r_idx, r in enumerate(rand):
                combos = mask_subset
                if mode == "cycle" and (x.value, i, r_idx) != first_point:
                    slot = (x.value * len(grid.indices) + (i - 1)) * len(rand) + r_idx
                    combos = [mask_subset[slot % len(mask_subset)]]
                draws += [(i, r, masks) for masks in combos]
            outputs = protocol.run_outputs(x, [(i, r) for i, r, _ in draws])
            runs += len(draws)
            target = x.bit(i)
            counts = Counter(r for _, r, _ in draws)
            most = max(counts.values())
            total = 0.0
            example = None
            for (_, r, masks), output in zip(draws, outputs):
                p = output.get(target, 0.0)
                total += p * (most / counts[r])
                if p < 1.0 - audits.TOL and example is None:
                    example = {"r": r, "masks": list(masks), "probability": p}
            p = total / (most * len(counts))
            if p < worst_p:
                worst_p = p
            if p < 1.0 - audits.TOL and witness is None:
                witness = {"x": str(x), "i": i, "recovery_probability": p, "example": example}
    distance = 1.0 - worst_p
    return AuditReport(
        kind="recovery",
        protocol=protocol.name,
        grid=grid.describe(),
        tolerance=audits.TOL,
        worst_case_distance=distance,
        passed=distance <= audits.TOL,
        witness=witness,
        details={
            "min_recovery_probability": worst_p,
            "runs": runs,
            "distinct_mask_combos": len(mask_subset) if mode != "none" else 0,
            "mask_mode": mode,
        },
    )


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


def feed_user_mixtures(transcript, mixtures: dict[str, DensityAccumulator]) -> None:
    """Add each step's user holdings to ``mixtures[label]``, made on first use."""
    for step in transcript.steps:
        held = step.holdings(USER)
        if step.branches is None or not held:
            continue
        acc = mixtures.get(step.label)
        if acc is None:
            acc = mixtures[step.label] = DensityAccumulator(transcript.layout, held)
        acc.add_branches(step.branches)


def data_privacy_by_transcripts(protocol, grid: AuditGrid) -> AuditReport:
    """One transcript and user view per (i, database, r, masks), paired with the group's first.

    The reference ``audits.audit_data_privacy`` must match byte for byte:
    it runs one transcript per view class instead of one per database.
    """
    mask_subset = audits._data_privacy_masks(protocol)
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
                        t = protocol.run(x, i, r, masks)
                        views[x.value] = audits.user_view(t)
                        feed_user_mixtures(t, mixtures[x.value])
                    basis_x = group[0]
                    for other in group[1:]:
                        pair_count += 1
                        mismatch = audits.compare_views(views[basis_x.value], views[other.value])
                        if mismatch is not None:
                            worst = max(worst, float(mismatch.get("distance", 1.0)))
                            if witness is None:
                                witness = audits._data_privacy_witness(
                                    protocol, i, value, basis_x, other, r, masks, mismatch)
            mixed_worst = max(mixed_worst, audits._mixed_view_distance(mixtures, group))
    return audits._data_privacy_report(protocol, grid, worst, witness, pair_count, mixed_worst)


@contextmanager
def full_validation():
    """Build every trusted state and density matrix through its public constructor.

    Inside the block, ``SparseState._trusted`` and ``DensityMatrix._trusted``
    check key range and norm, Hermiticity and trace as the constructors do,
    so an op whose result breaks those invariants raises.
    """
    saved = [(cls, vars(cls)["_trusted"]) for cls in (SparseState, DensityMatrix)]
    for cls, _ in saved:
        cls._trusted = classmethod(lambda cls, layout, terms: cls(layout, terms))
    try:
        yield
    finally:
        for cls, trusted in saved:
            cls._trusted = trusted
