"""The PIR-to-quantum compiler: query states, phases, recovery, transcripts."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from qspirlab.audits import (
    TOL,
    _mask_mode,
    audit_recovery,
    audit_user_privacy_classical,
    audit_user_privacy_quantum,
    make_grid,
    server_state_mixtures,
)
from qspirlab import compiler, schemes
from qspirlab.compiler import (
    CompiledProtocol,
    MaskSpace,
    compiled_layout,
    query_table,
    server_phase,
)
from qspirlab.density import DensityAccumulator
from qspirlab.protocols import ClassicalProtocol
from qspirlab.schemes import (
    Database,
    QueryPlan,
    SCHEMES,
    SubsetScheme,
    all_databases,
    make_scheme,
    parity_row,
    run_classically,
)
from qspirlab.states import SparseState, equal_up_to_global_phase
from qspirlab.transcript import sign_recovery, sign_relabeling

from helpers import (
    CorruptedSubsetScheme, RandomXorScheme, output_of, query_state, reference_reconstruction,
)

S = math.sqrt(0.5)


class TestBuildQueryState:
    def test_trivial_n1(self):
        s = make_scheme("trivial1", 1)
        state = query_state(s.gen_plan(1, 0), (0,))
        assert state.bits_terms() == pytest.approx({"00": S, "11": S})

    def test_subset_worked_example(self):
        s = make_scheme("subset2", 2)
        state = query_state(s.gen_plan(1, 0b01), (0, 1))
        assert state.bits_terms() == pytest.approx({"0010111": S, "1011110": S})

    def test_two_terms_always(self):
        s = make_scheme("cube2", 8)
        state = query_state(s.gen_plan(5, 42), (0b1010101, 0b0011111))
        assert len(state.terms) == 2

    def test_degenerate_selects_rejected(self):
        plan = CorruptedSubsetScheme(2).gen_plan(1, 0)
        from dataclasses import replace

        broken = replace(plan, selects=(0, 0))
        with pytest.raises(ValueError):
            query_state(broken, (0, 0))

    def test_mask_length_checked(self):
        s = make_scheme("subset2", 2)
        with pytest.raises(ValueError):
            query_state(s.gen_plan(1, 0), (0,))
        with pytest.raises(ValueError):
            query_state(s.gen_plan(1, 0), (0, 2))

    @pytest.mark.parametrize("scheme", [make_scheme("subset2", 3), make_scheme("trivial1", 4),
                                        RandomXorScheme(3, a=2, seed=1)],
                             ids=["subset2", "trivial1", "random-xor"])
    def test_runs_prepare_the_assembled_state(self, scheme):
        # a run prepares its query from |0> through the relabel of its sign
        # table; at every draw that is the two terms assembled from the
        # table, to the bit and in key order
        protocol = CompiledProtocol(scheme)
        x = Database(scheme.n, 0)
        for i, r, masks in _full_draws(protocol):
            built = protocol.run(x, i, r, masks).steps[1].branches[0][1]
            want = query_state(scheme.plan(i, r), masks)
            assert ([(k, v.real.hex(), v.imag.hex()) for k, v in built.terms.items()]
                    == [(k, v.real.hex(), v.imag.hex()) for k, v in want.terms.items()])


class TestServerPhase:
    @pytest.mark.parametrize("countermeasure", [False, True])
    def test_a_run_answers_each_query_once(self, countermeasure, monkeypatch):
        # the two sign branches hold the same query, and dephasing splits them
        scheme = make_scheme("cube2", 8)
        protocol = CompiledProtocol(scheme, dephase_servers=countermeasure)
        answer = scheme.answer
        asked = []
        monkeypatch.setattr(scheme, "answer", lambda q, x: asked.append(q) or answer(q, x))
        x = Database.from_string("10110010")
        for i, r, masks in [(5, 42, (0b1010101, 0b0011111)), (1, 0, (0, 0)), (8, 63, (1, 2))]:
            asked.clear()
            protocol.run(x, i, r, masks)
            assert asked == list(scheme.plan(i, r).queries), (i, r, masks)

    def test_all_zero_database_fixes_subset_state(self):
        s = make_scheme("subset2", 2)
        x = Database.from_string("00")
        state = query_state(s.gen_plan(1, 1), (0, 1))
        for j in (1, 2):
            state2 = server_phase(state, s, j, x)
            assert state2.bits_terms() == state.bits_terms()

    def test_trivial_single_bit_phase(self):
        s = make_scheme("trivial1", 1)
        state = query_state(s.gen_plan(1, 0), (0,))
        out = server_phase(state, s, 1, Database.from_string("1"))
        assert out.bits_terms() == pytest.approx({"00": S, "11": -S})

    def test_support_never_changes(self):
        s = make_scheme("cube2", 8)
        x = Database.from_string("11010010")
        state = query_state(s.gen_plan(2, 9), (3, 77))
        for j in (1, 2):
            state = server_phase(state, s, j, x)
        assert state.support() == query_state(s.gen_plan(2, 9), (3, 77)).support()

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_relative_phase_equals_requested_bit(self, n):
        # after both servers act the two branches differ by (-1)**x_i
        s = make_scheme("subset2", n)
        masks = (1, 0)
        for x in all_databases(n):
            for i in range(1, n + 1):
                for r in s.randomness_space:
                    plan = s.gen_plan(i, r)
                    state = query_state(plan, masks)
                    for j in (1, 2):
                        state = server_phase(state, s, j, x)
                    k0, k1 = sorted(state.terms)
                    ratio = state.terms[k1] / state.terms[k0]
                    assert ratio.real == pytest.approx(1.0 - 2.0 * x.bit(i), abs=1e-12)

    def test_global_phase_lemma(self):
        # the post-answer state equals the ideal two-branch state with the
        # requested bit in the exponent, up to a global phase
        s = make_scheme("subset2", 3)
        for x in [Database.from_string("101"), Database.from_string("110")]:
            for i in (1, 2, 3):
                plan = s.gen_plan(i, 5)
                masks = (1, 1)
                state = query_state(plan, masks)
                for j in (1, 2):
                    state = server_phase(state, s, j, x)
                k0, k1 = sorted(state.terms)
                ideal = SparseState(state.layout, {
                    k0: S, k1: S * (1.0 - 2.0 * x.bit(i)),
                })
                assert equal_up_to_global_phase(state, ideal)


class TestRecovery:
    def test_trivial_n1(self):
        s = make_scheme("trivial1", 1)
        x = Database.from_string("1")
        plan = s.gen_plan(1, 0)
        state = server_phase(query_state(plan, (1,)), s, 1, x)
        protocol = CompiledProtocol(s)
        relabel = sign_relabeling(protocol, query_table(plan, (1,)))
        (p, bit, post), = sign_recovery(protocol, state, relabel)
        assert (bit, p) == (1, pytest.approx(1.0))
        # the answer-mask phase survives only as a global sign
        ideal = SparseState(post.layout, {0b10: 1.0})
        assert equal_up_to_global_phase(post, ideal)

    def test_subset_exhaustive_n2(self):
        s = make_scheme("subset2", 2)
        protocol = CompiledProtocol(s)
        count = 0
        for x in all_databases(2):
            for i in (1, 2):
                for r in s.randomness_space:
                    for masks in itertools.product(range(2), repeat=2):
                        assert output_of(protocol, x, i, r, masks) == {x.bit(i): pytest.approx(1.0)}
                        count += 1
        assert count == 128

    def test_cube_spot_run(self):
        s = make_scheme("cube2", 8)
        x = Database.from_string("10110100")
        out = CompiledProtocol(s).run(x, 3, 21, (0b0000111, 0b1110000))
        assert x.bit(3) == 1
        assert out.output == {1: pytest.approx(1.0)}

    def test_corrupted_scheme_outputs_wrong_bit(self):
        # zeroing a selection vector leaves recovery deterministic but
        # decoupled from the requested bit (the audit sees probability 1/2)
        s = CorruptedSubsetScheme(2)
        x = Database.from_string("01")
        plan = s.gen_plan(1, 0b01)
        state = query_state(plan, (0, 0))
        for j in (1, 2):
            state = server_phase(state, s, j, x)
        protocol = CompiledProtocol(s)
        relabel = sign_relabeling(protocol, query_table(plan, (0, 0)))
        (p, bit, _), = sign_recovery(protocol, state, relabel)
        assert (bit, p) == (1, pytest.approx(1.0))
        assert bit != x.bit(1)

    def test_inconsistent_selects_split_the_outcome(self):
        # recovering with selection vectors that disagree with the state's
        # branch structure cannot merge the branches: two half-probability outcomes
        s = make_scheme("subset2", 2)
        plan = s.gen_plan(1, 0b01)
        state = query_state(plan, (0, 0))
        for j in (1, 2):
            state = server_phase(state, s, j, Database.from_string("01"))
        broken = CompiledProtocol(CorruptedSubsetScheme(2))
        outcomes = sign_recovery(broken, state,
                                 sign_relabeling(broken, broken.sign_table(1, 0b01, (0, 0))))
        assert {bit: p for p, bit, _ in outcomes} == {0: pytest.approx(0.5), 1: pytest.approx(0.5)}


class TestTranscript:
    def test_custody_changes_on_send_and_return(self):
        s = make_scheme("subset2", 2)
        t = CompiledProtocol(s).run(Database.from_string("01"), 1, 0, (0, 0))
        by_label = {step.label: step for step in t.steps}
        assert by_label["send:server1"].custody["srv1"] == "server1"
        assert by_label["send:server1"].custody["srv2"] == "user"
        assert by_label["return:server2"].custody["srv2"] == "user"

    def test_server_reduced_state_is_mask_mixture(self):
        # right after receipt, server j holds an even mixture of its query
        # with the mask and with the mask xor its selection vector
        s = make_scheme("subset2", 2)
        plan = s.gen_plan(1, 0b10)
        t = CompiledProtocol(s).run(Database.from_string("11"), 1, 0b10, (1, 0))
        step = next(step for step in t.steps if step.label == "send:server1")
        acc = DensityAccumulator(t.layout, step.holdings("server1"))
        acc.add_branches(step.branches)
        rho = acc.finalize()
        assert rho.is_diagonal
        assert rho.entry((plan.queries[0] << 1) | 1, (plan.queries[0] << 1) | 1) == pytest.approx(0.5)
        assert rho.entry((plan.queries[0] << 1) | 0, (plan.queries[0] << 1) | 0) == pytest.approx(0.5)

    def test_comm_examples(self):
        assert CompiledProtocol(make_scheme("trivial1", 5)).comm() == 10
        assert CompiledProtocol(make_scheme("subset2", 8)).comm() == 36
        assert CompiledProtocol(make_scheme("cube2", 8)).comm() == 52


class TestServerIgnoranceOfMasks:
    def test_receipt_mixture_over_masks_is_query_times_mixed(self):
        # mixing the receipt state over this server's own mask space gives
        # |query><query| tensored with the maximally mixed mask register
        s = make_scheme("subset2", 2)
        plan = s.gen_plan(2, 0b01)
        layout = compiled_layout(2, 2, 1)
        acc = DensityAccumulator(layout, ["srv1"])
        for m1 in range(2):
            acc.add(query_state(plan, (m1, 0)), 1.0)
        rho = acc.finalize()
        q = plan.queries[0]
        for mask_bit in (0, 1):
            assert rho.entry((q << 1) | mask_bit, (q << 1) | mask_bit) == pytest.approx(0.5)
        assert rho.is_diagonal


def test_mask_cycle_distinctness():
    mode, combos = _mask_mode(CompiledProtocol(make_scheme("cube2", 8)))
    assert mode == "cycle" and len(set(combos)) == len(combos) == 512
    # 128 combinations: cycled, and the subset walks the whole product
    mode, combos = _mask_mode(CompiledProtocol(make_scheme("trivial1", 7)))
    assert mode == "cycle" and len(combos) == 128
    assert set(combos) == set(itertools.product(range(128), repeat=1))
    small = CompiledProtocol(make_scheme("subset2", 2))
    assert _mask_mode(small) == ("full", list(small.mask_space()))


class TestMaskSpace:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("a", [0, 1, 2, 3])
    def test_matches_the_product(self, a, k):
        space = MaskSpace(a, k)
        want = list(itertools.product(range(1 << a), repeat=k))
        assert list(space) == want  # server 1 varies slowest
        assert list(space) == want  # iterable more than once
        assert len(space) == len(want)

    def test_protocol_space(self):
        protocol = CompiledProtocol(RandomXorScheme(2, k=3, t=2, a=2, seed=0))
        assert list(protocol.mask_space()) == list(itertools.product(range(4), repeat=3))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_wide_masks_start_at_once(self, k):
        # a product over range(1 << 70) cannot even be set up
        space = MaskSpace(70, k)
        head = list(itertools.islice(space, 3))
        assert head == [(0,) * (k - 1) + (m,) for m in range(3)]
        assert next(iter(CompiledProtocol(make_scheme("trivial1", 70)).mask_space())) == (0,)


def _full_draws(protocol):
    return [(i, r, masks) for i in range(1, protocol.n + 1)
            for r in protocol.randomness_space() for masks in protocol.mask_space()]


def _assert_outputs_equal_runs(protocol, databases, draws):
    # ``==`` on floats, not approx: each copied output must equal its draw's
    # own run to the bit, and in key order
    for x in databases:
        outputs = protocol.run_outputs(x, draws)
        assert len(outputs) == len(draws)
        for (i, r, masks), output in zip(draws, outputs):
            want = protocol.run(x, i, r, masks).output
            assert output == want, (str(x), i, r, masks)
            assert list(output) == list(want), (str(x), i, r, masks)


class ZeroSelectSubsetScheme(SubsetScheme):
    """Subset scheme whose selection vectors are all zero at index 1."""

    def gen_plan(self, i, r):
        plan = super().gen_plan(i, r)
        selects = (0, 0) if i == 1 else plan.selects
        return QueryPlan(i=plan.i, r=plan.r, queries=plan.queries, selects=selects,
                         t=plan.t, a=plan.a)


class WideQuerySubsetScheme(SubsetScheme):
    """Subset scheme whose first query at index 1 has bit t set: one bit too wide."""

    def gen_plan(self, i, r):
        plan = super().gen_plan(i, r)
        queries = plan.queries
        if i == 1:
            queries = (queries[0] | 1 << plan.t,) + queries[1:]
        return QueryPlan(i=plan.i, r=plan.r, queries=queries, selects=plan.selects,
                         t=plan.t, a=plan.a)


class TestBatchedOutputs:
    @pytest.mark.parametrize("countermeasure", [False, True])
    @pytest.mark.parametrize("name", ["trivial1", "subset2"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exhaustive_small(self, name, n, countermeasure):
        protocol = CompiledProtocol(make_scheme(name, n), dephase_servers=countermeasure)
        _assert_outputs_equal_runs(protocol, list(all_databases(n)), _full_draws(protocol))

    @pytest.mark.parametrize("countermeasure", [False, True])
    def test_cube_cycled_masks(self, countermeasure):
        protocol = CompiledProtocol(make_scheme("cube2", 8), dephase_servers=countermeasure)
        _, combos = _mask_mode(protocol)
        draws = [
            (i, r, combos[slot % len(combos)])
            for slot, (i, r) in enumerate(
                itertools.product(range(1, 9), protocol.randomness_space()))
        ]
        databases = [Database.from_string(s) for s in ("00000000", "10110100", "11111111")]
        _assert_outputs_equal_runs(protocol, databases, draws)

    @pytest.mark.parametrize("countermeasure", [False, True])
    def test_corrupted_scheme_below_one(self, countermeasure):
        protocol = CompiledProtocol(CorruptedSubsetScheme(2), dephase_servers=countermeasure)
        draws = _full_draws(protocol)
        _assert_outputs_equal_runs(protocol, list(all_databases(2)), draws)
        outputs = protocol.run_outputs(Database.from_string("01"), draws)
        assert any(output.get(Database.from_string("01").bit(i), 0.0) < 1.0
                   for (i, _, _), output in zip(draws, outputs))

    @pytest.mark.parametrize("countermeasure", [False, True])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_random_schemes_with_zero_selects(self, k, countermeasure):
        # a server whose select is 0 does not split the dephased terms, so
        # outputs of equal c differ with which servers split
        for seed in range(3):
            scheme = RandomXorScheme(3, k=k, t=2, a=2 if k < 3 else 1, randomness_size=3,
                                     seed=seed)
            protocol = CompiledProtocol(scheme, dephase_servers=countermeasure)
            draws = _full_draws(protocol)
            if k > 1:
                assert any(0 in scheme.plan(i, r).selects for i, r, _ in draws)
            _assert_outputs_equal_runs(protocol, list(all_databases(3)), draws)

    @pytest.mark.parametrize("countermeasure", [False, True])
    def test_one_run_per_output_class(self, monkeypatch, countermeasure):
        scheme = RandomXorScheme(3, k=3, t=2, a=1, randomness_size=3, seed=1)
        protocol = CompiledProtocol(scheme, dephase_servers=countermeasure)
        run = protocol.run
        calls = []
        monkeypatch.setattr(protocol, "run", lambda *draw: calls.append(draw) or run(*draw))
        draws = _full_draws(protocol)
        for x in all_databases(3):
            protocol.run_outputs(x, draws)

        def output_class(x, i, r):
            return run_classically(scheme, x, i, r), tuple(s != 0 for s in scheme.plan(i, r).selects)

        first = {}
        for x in all_databases(3):
            for i, r, masks in draws:
                first.setdefault(output_class(x, i, r), (x, i, r, masks))
        assert len(first) > 4
        # each class runs once, at the first draw that reaches it
        assert calls == list(first.values())

    def test_batch_of_one_matches_larger_batch(self):
        protocol = CompiledProtocol(make_scheme("subset2", 3), dephase_servers=True)
        x = Database.from_string("101")
        draws = _full_draws(protocol)
        outputs = protocol.run_outputs(x, draws)
        for k in (0, 17, len(draws) - 1):
            assert protocol.run_outputs(x, [draws[k]]) == [outputs[k]]

    def test_empty_batch(self):
        protocol = CompiledProtocol(make_scheme("subset2", 2))
        assert protocol.run_outputs(Database.from_string("10"), []) == []

    @pytest.mark.parametrize("scheme, draw, error", [
        (SubsetScheme, (3, 0, (0, 0)), IndexError),        # index outside [1, n]
        (SubsetScheme, (1, 4, (0, 0)), ValueError),        # randomness outside the enumeration
        (SubsetScheme, (1, 0, (0,)), ValueError),          # one mask for two servers
        (SubsetScheme, (1, 0, (0, 2)), ValueError),        # mask wider than the answer
        (SubsetScheme, (1, 0, (-1, 0)), ValueError),
        (SubsetScheme, (1, 0, (1 << 70, 0)), ValueError),  # beyond any machine word
        (SubsetScheme, (1, 0, (0.5, 0)), TypeError),       # masks are ints: no float is truncated
        (SubsetScheme, (1, 0, (1.0, 0)), TypeError),
        # the plan's query does not fit t bits: the draw's checks refuse it
        (WideQuerySubsetScheme, (1, 0, (0, 0)), ValueError),
        # masks are a sized sequence: no masks, or an iterator, is refused up front
        (SubsetScheme, (1, 0, None), TypeError),
        (SubsetScheme, (1, 0, iter((0, 1))), TypeError),
    ])
    def test_malformed_draw_raises_like_a_single_run(self, scheme, draw, error):
        protocol = CompiledProtocol(scheme(2))
        x = Database.from_string("10")
        with pytest.raises(error) as single:
            protocol.run(x, *draw)
        with pytest.raises(error) as batched:
            protocol.run_outputs(x, [(2, 1, (0, 1)), draw])
        assert str(batched.value) == str(single.value)

    @pytest.mark.parametrize("masks, error", [
        ((0,), ValueError), ((0, 2), ValueError), ((0.5, 0), TypeError),
        (None, TypeError), (iter((0, 1)), TypeError),
    ])
    def test_kept_plan_still_checks_masks(self, masks, error):
        protocol = CompiledProtocol(make_scheme("subset2", 2))
        x = Database.from_string("10")
        protocol.run_outputs(x, [(1, 0, (0, 1))])  # the plan of (1, 0) is now kept
        with pytest.raises(error) as single:
            protocol.run(x, 1, 0, masks)
        with pytest.raises(error) as batched:
            protocol.run_outputs(x, [(1, 0, (1, 1)), (1, 0, masks)])
        assert str(batched.value) == str(single.value)

    def test_one_plan_per_distinct_draw(self, monkeypatch):
        protocol = CompiledProtocol(make_scheme("subset2", 2))
        gen_plan = protocol.scheme.gen_plan
        calls = []
        monkeypatch.setattr(protocol.scheme, "gen_plan",
                            lambda i, r: calls.append((i, r)) or gen_plan(i, r))
        draws = _full_draws(protocol) * 2
        protocol.run_outputs(Database.from_string("10"), draws)
        # the scheme keeps its plans: another database builds none, nor do runs
        protocol.run_outputs(Database.from_string("01"), draws)
        for i, r, masks in draws:
            protocol.run(Database.from_string("01"), i, r, masks)
        assert calls == list(dict.fromkeys((i, r) for i, r, _ in draws))

    def test_equal_draw_of_another_type_gets_its_own_plan(self):
        # 1.0 == 1, but a run with index 1.0 raises; the plan of index 1 must not hide that
        protocol = CompiledProtocol(make_scheme("subset2", 2))
        x = Database.from_string("10")
        with pytest.raises(TypeError) as single:
            protocol.run(x, 1.0, 0, (0, 0))
        with pytest.raises(TypeError) as batched:
            protocol.run_outputs(x, [(1, 0, (0, 0)), (1.0, 0, (0, 0))])
        assert str(batched.value) == str(single.value)

    def test_degenerate_plan_rejected(self):
        protocol = CompiledProtocol(ZeroSelectSubsetScheme(2))
        x = Database.from_string("10")
        assert protocol.run_outputs(x, [(2, 0, (0, 0))])[0] == protocol.run(x, 2, 0, (0, 0)).output
        with pytest.raises(ValueError, match="degenerate plan"):
            protocol.run_outputs(x, [(2, 0, (0, 0)), (1, 0, (0, 0))])

    @pytest.mark.parametrize("scheme", [ZeroSelectSubsetScheme, WideQuerySubsetScheme])
    def test_server_states_refuse_what_a_run_refuses(self, scheme):
        # the closed-form server states run no transcript, but refuse its plans
        protocol = CompiledProtocol(scheme(2))
        x = Database.from_string("10")
        with pytest.raises(ValueError) as run:
            protocol.run(x, 1, 0, (0, 0))
        with pytest.raises(ValueError) as closed:
            server_state_mixtures(protocol, x, 1)
        assert str(closed.value) == str(run.value)
        assert server_state_mixtures(protocol, x, 2)


class TestParityRows:
    """c(x, i, r) has one owner, ``run_classically``: parity(x & v(i, r)), with v
    built once per (i, r) by the scheme from its answer rows.  Every protocol's c
    is checked against the reconstruction of answers computed without rows."""

    @staticmethod
    def _assert_every_c_is_the_reference(scheme, databases, indices, rands):
        compiled, classical = CompiledProtocol(scheme), ClassicalProtocol(scheme)
        draws = [(i, r, ()) for i in indices for r in rands]
        for x in databases:
            want = [reference_reconstruction(scheme, x, i, r) for i, r, _ in draws]
            assert [run_classically(scheme, x, i, r) for i, r, _ in draws] == want, str(x)
            assert [compiled.view_class(x, i, r) for i, r, _ in draws] == want, str(x)
            assert classical.run_outputs(x, draws) == [{c: 1.0} for c in want], str(x)

    @pytest.mark.parametrize("name", sorted(SCHEMES))
    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_registered_scheme(self, name, n):
        scheme = make_scheme(name, n)
        self._assert_every_c_is_the_reference(scheme, list(all_databases(n)), range(1, n + 1),
                                              scheme.randomness_space)

    @pytest.mark.parametrize("n", [9, 10])
    def test_cube_sampled(self, n):
        scheme = make_scheme("cube2", n)
        rng = random.Random(n)
        databases = [Database(n, v) for v in (0, (1 << n) - 1, *rng.sample(range(1 << n), 6))]
        rands = rng.sample(scheme.randomness_space, 24)
        self._assert_every_c_is_the_reference(scheme, databases, range(1, n + 1), rands)

    def test_corrupted_scheme(self):
        scheme = CorruptedSubsetScheme(3)
        self._assert_every_c_is_the_reference(scheme, list(all_databases(3)), (1, 2, 3),
                                              scheme.randomness_space)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_scheme_without_rows(self, k):
        scheme = RandomXorScheme(3, k=k, t=2, a=2, randomness_size=3, seed=k)
        assert scheme.answer_rows(0) is None and scheme.row(1, 0) is None
        self._assert_every_c_is_the_reference(scheme, list(all_databases(3)), (1, 2, 3),
                                              scheme.randomness_space)

    def test_view_class_reads_no_answer(self, monkeypatch):
        protocol = CompiledProtocol(CorruptedSubsetScheme(3))
        want = {(x.value, i, r): reference_reconstruction(protocol.scheme, x, i, r)
                for x in all_databases(3) for i in (1, 2, 3) for r in range(8)}

        def no_answer(q, x):
            raise AssertionError("answered")

        monkeypatch.setattr(protocol.scheme, "answer", no_answer)
        for (value, i, r), c in want.items():
            assert protocol.view_class(Database(3, value), i, r) == c

    @pytest.mark.parametrize("name, n", [("subset2", 3), ("cube2", 8)])
    def test_classical_recovery_reads_one_row_per_pair_and_no_answer(self, name, n, monkeypatch):
        built = []
        monkeypatch.setattr(schemes, "parity_row",
                            lambda scheme, plan: built.append((plan.i, plan.r))
                            or parity_row(scheme, plan))
        protocol = ClassicalProtocol(make_scheme(name, n))

        def no_answer(q, x):
            raise AssertionError("answered")

        monkeypatch.setattr(protocol.scheme, "answer", no_answer)
        report = audit_recovery(protocol, make_grid(n))
        rand = protocol.randomness_space()
        assert report.passed and report.details["runs"] == 2 ** n * n * len(rand)
        assert built == [(i, r) for i in range(1, n + 1) for r in rand]

    @pytest.mark.parametrize("x, i, r", [
        (Database.from_string("101"), 1, 0),   # a database of another size
        (Database.from_string("10"), 1.0, 0),  # 1.0 == 1, but index 1.0 is refused
        (Database.from_string("10"), 3, 0),
        (Database.from_string("10"), 1, 4),
    ])
    def test_refuses_what_a_run_refuses(self, x, i, r):
        protocol = CompiledProtocol(make_scheme("subset2", 2))
        protocol.run_outputs(Database.from_string("10"), [(1, 0, (0, 0))])  # (1, 0) is kept
        with pytest.raises(Exception) as classical:
            run_classically(protocol.scheme, x, i, r)
        with pytest.raises(type(classical.value)) as got:
            protocol.view_class(x, i, r)
        assert str(got.value) == str(classical.value)
        with pytest.raises(Exception) as single:
            protocol.run(x, i, r, (0, 0))
        with pytest.raises(type(single.value)) as batched:
            protocol.run_outputs(x, [(1, 0, (0, 0)), (i, r, (0, 0))])
        assert str(batched.value) == str(single.value)

    def test_one_row_per_index_and_randomness(self, monkeypatch):
        built = []
        monkeypatch.setattr(schemes, "parity_row",
                            lambda scheme, plan: built.append((plan.i, plan.r))
                            or parity_row(scheme, plan))
        protocol = CompiledProtocol(make_scheme("subset2", 3))
        draws = _full_draws(protocol)
        for x in all_databases(3):
            protocol.run_outputs(x, draws)
            for i in (1, 2, 3):
                for r in range(8):
                    protocol.view_class(x, i, r)
        assert built == list(dict.fromkeys((i, r) for i, r, _ in draws))

    def test_each_mask_tuple_is_checked_once(self, monkeypatch):
        checked = []
        check = compiler._check_masks
        monkeypatch.setattr(compiler, "_check_masks",
                            lambda plan, masks: checked.append(masks) or check(plan, masks))
        protocol = CompiledProtocol(make_scheme("subset2", 3))
        masks = list(protocol.mask_space())
        draws = [(i, r, m) for i in (1, 2, 3) for r in range(8) for m in masks]
        for x in all_databases(3):
            protocol.run_outputs(x, draws)
        # the first draw of each (i, r) and each output class's one run check
        # their masks with the query state; after that a tuple is checked once
        assert set(checked) == set(masks)
        assert len(checked) <= 3 * 8 + 2 + len(masks) < len(draws)


class TestWideLayout:
    """Registers wider than a machine word: Python ints, to the last bit.

    ``qspir(subset2)`` at n=40 has 41-bit registers in an 83-bit layout;
    ``qspir(trivial1)`` at n=70 has one 70-bit register in a 71-bit layout.
    """

    def setup_method(self):
        self.protocol = CompiledProtocol(make_scheme("subset2", 40))
        self.x = Database(40, 0xA5C3F00F5A)

    def test_layout_is_wider_than_a_word(self):
        assert self.protocol.layout().width == 83
        plan = self.protocol.scheme.gen_plan(40, (1 << 40) - 1)
        assert max(query_state(plan, (1, 0)).terms) >> 82 == 1
        assert CompiledProtocol(make_scheme("trivial1", 70)).layout().width == 71

    @pytest.mark.parametrize("countermeasure", [False, True])
    def test_register_wider_than_a_word(self, countermeasure):
        protocol = CompiledProtocol(make_scheme("trivial1", 70), dephase_servers=countermeasure)
        x = Database(70, 0x2F0F_5A5A_C3C3_9669_A5)
        draws = [(i, 0, (m,)) for i in (1, 35, 70)
                 for m in (0, 1, 0x15_A5A5_A5A5_A5A5_A5A5, (1 << 70) - 1)]
        _assert_outputs_equal_runs(protocol, [x], draws)

    @pytest.mark.parametrize("countermeasure", [False, True])
    def test_outputs_equal_runs(self, countermeasure):
        protocol = CompiledProtocol(self.protocol.scheme, dephase_servers=countermeasure)
        draws = [(i, r, (r & 1, (r >> 7) & 1))
                 for i in (1, 20, 40) for r in (0, 1, 0x5A5A5A5A5A, (1 << 40) - 1)]
        _assert_outputs_equal_runs(protocol, [self.x], draws)
        if not countermeasure:
            assert all(out == {self.x.bit(i): pytest.approx(1.0)}
                       for (i, _, _), out in zip(draws, protocol.run_outputs(self.x, draws)))

    def test_out_of_range_mask_raises(self):
        with pytest.raises(ValueError) as single:
            query_state(self.protocol.scheme.gen_plan(1, 0), (0, 2))
        with pytest.raises(ValueError) as batched:
            self.protocol.run_outputs(self.x, [(1, 0, (0, 1)), (1, 0, (0, 2))])
        assert str(batched.value) == str(single.value) == "mask 2 does not fit 1 bits"


class TestAnyServerCount:
    """The compiled output is the classical reconstruction, for any k.

    The random tables make no correct PIR scheme, so the classical bit often
    differs from x_i; the compiled protocol must output it all the same, and
    the recovery audit must name the first (x, i) where it differs.
    """

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_output_is_classical_reconstruction(self, k):
        scheme = RandomXorScheme(3, k=k, t=3, a=2, seed=k)
        protocol = CompiledProtocol(scheme)
        draws = _full_draws(protocol)
        assert len(draws) == 3 * 4 * 4 ** k
        first_wrong = None
        for x in all_databases(3):
            for (i, r, masks), output in zip(draws, protocol.run_outputs(x, draws)):
                bit = run_classically(scheme, x, i, r)
                assert set(output) == {bit}, (str(x), i, r, masks)
                assert abs(output[bit] - 1.0) <= TOL, (str(x), i, r, masks)
                if bit != x.bit(i) and first_wrong is None:
                    first_wrong = (str(x), i, r)
        report = audit_recovery(protocol, make_grid(3))
        if first_wrong is None:
            assert report.passed and report.witness is None
        else:
            x, i, r = first_wrong
            assert not report.passed
            assert (report.witness["x"], report.witness["i"]) == (x, i)
            assert report.witness["example"]["r"] == r
            assert report.witness["recovery_probability"] < 1.0 - TOL

    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    @pytest.mark.parametrize("countermeasure", [False, True], ids=["plain", "countermeasure"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_user_privacy_verdict_is_classical(self, k, countermeasure, data):
        # both mask modes: a product of at most 64 mask combinations runs in
        # full, a larger one reads the per-server histograms
        scheme = RandomXorScheme(data.draw(st.integers(1, 3), label="n"), k=k,
                                 t=data.draw(st.integers(0, 2), label="t"),
                                 a=data.draw(st.integers(1, 3), label="a"),
                                 randomness_size=data.draw(st.integers(1, 4), label="size"),
                                 seed=data.draw(st.integers(0, 1 << 16), label="seed"))
        protocol = CompiledProtocol(scheme, countermeasure)
        quantum = audit_user_privacy_quantum(protocol, make_grid(scheme.n))
        assert quantum.passed == audit_user_privacy_classical(scheme).passed
