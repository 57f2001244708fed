"""Shared test fixtures: broken and random schemes, a detectable attack, the clean
query's unitary image, a classical twin audit, the one-transcript-per-database
data-privacy reference, the single-qubit Pauli maps, and the full-validation switch
for the internal constructors."""

import random
from contextlib import contextmanager

from qspirlab.adversary import CleanQueryOracle, attack_input_layout
from qspirlab import audits
from qspirlab.audits import AuditGrid, AuditReport
from qspirlab.density import DensityAccumulator, DensityMatrix
from qspirlab.registers import RegisterLayout, bits
from qspirlab.schemes import LinearPirScheme, QueryPlan, SchemeShape, SubsetScheme
from qspirlab.states import SparseState
from qspirlab.transcript import USER


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


def output_of(protocol, x, i, r=0, masks=()):
    """One run's output distribution, from the protocol's output-only entry point."""
    (output,) = protocol.run_outputs(x, [(i, r, masks)])
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
