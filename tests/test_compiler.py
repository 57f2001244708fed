"""The PIR-to-quantum compiler: query states, phases, recovery, transcripts."""

import itertools
import math

import pytest

from qspirlab import compiler
from qspirlab.audits import TOL, _mask_mode, audit_recovery, make_grid
from qspirlab.compiler import (
    CompiledProtocol,
    RecoveryError,
    build_query_batch,
    build_query_state,
    compiled_layout,
    server_phase,
    user_recover,
)
from qspirlab.density import DensityAccumulator
from qspirlab.schemes import (
    Database,
    QueryPlan,
    SubsetScheme,
    all_databases,
    make_scheme,
    run_classically,
)
from qspirlab.states import SparseState, equal_up_to_global_phase

from helpers import CorruptedSubsetScheme, RandomXorScheme

S = math.sqrt(0.5)


class TestBuildQueryState:
    def test_trivial_n1(self):
        s = make_scheme("trivial1", 1)
        state = build_query_state(s.gen_plan(1, 0), (0,))
        assert state.bits_terms() == pytest.approx({"00": S, "11": S})

    def test_subset_worked_example(self):
        s = make_scheme("subset2", 2)
        state = build_query_state(s.gen_plan(1, 0b01), (0, 1))
        assert state.bits_terms() == pytest.approx({"0010111": S, "1011110": S})

    def test_two_terms_always(self):
        s = make_scheme("cube2", 8)
        state = build_query_state(s.gen_plan(5, 42), (0b1010101, 0b0011111))
        assert len(state.terms) == 2

    def test_degenerate_selects_rejected(self):
        plan = CorruptedSubsetScheme(2).gen_plan(1, 0)
        from dataclasses import replace

        broken = replace(plan, selects=(0, 0))
        with pytest.raises(ValueError):
            build_query_state(broken, (0, 0))

    def test_mask_length_checked(self):
        s = make_scheme("subset2", 2)
        with pytest.raises(ValueError):
            build_query_state(s.gen_plan(1, 0), (0,))
        with pytest.raises(ValueError):
            build_query_state(s.gen_plan(1, 0), (0, 2))


class TestServerPhase:
    def test_all_zero_database_fixes_subset_state(self):
        s = make_scheme("subset2", 2)
        x = Database.from_string("00")
        state = build_query_state(s.gen_plan(1, 1), (0, 1))
        for j in (1, 2):
            state2 = server_phase(state, s, j, x)
            assert state2.bits_terms() == state.bits_terms()

    def test_trivial_single_bit_phase(self):
        s = make_scheme("trivial1", 1)
        state = build_query_state(s.gen_plan(1, 0), (0,))
        out = server_phase(state, s, 1, Database.from_string("1"))
        assert out.bits_terms() == pytest.approx({"00": S, "11": -S})

    def test_support_never_changes(self):
        s = make_scheme("cube2", 8)
        x = Database.from_string("11010010")
        state = build_query_state(s.gen_plan(2, 9), (3, 77))
        for j in (1, 2):
            state = server_phase(state, s, j, x)
        assert state.support() == build_query_state(s.gen_plan(2, 9), (3, 77)).support()

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_relative_phase_equals_requested_bit(self, n):
        # after both servers act the two branches differ by (-1)**x_i
        s = make_scheme("subset2", n)
        masks = (1, 0)
        for x in all_databases(n):
            for i in range(1, n + 1):
                for r in s.randomness_space:
                    plan = s.gen_plan(i, r)
                    state = build_query_state(plan, masks)
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
                state = build_query_state(plan, masks)
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
        state = server_phase(build_query_state(plan, (1,)), s, 1, x)
        bit, post = user_recover(state, plan, (1,))
        assert bit == 1
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
                        assert protocol.run_output(x, i, r, masks) == {x.bit(i): pytest.approx(1.0)}
                        count += 1
        assert count == 128

    def test_cube_spot_run(self):
        s = make_scheme("cube2", 8)
        x = Database.from_string("10110100")
        out = CompiledProtocol(s).run(x, 3, 21, (0b0000111, 0b1110000))
        assert out.output_bit() == x.bit(3) == 1

    def test_corrupted_scheme_outputs_wrong_bit(self):
        # zeroing a selection vector leaves recovery deterministic but
        # decoupled from the requested bit (the audit sees probability 1/2)
        s = CorruptedSubsetScheme(2)
        x = Database.from_string("01")
        plan = s.gen_plan(1, 0b01)
        state = build_query_state(plan, (0, 0))
        for j in (1, 2):
            state = server_phase(state, s, j, x)
        bit, _ = user_recover(state, plan, (0, 0))
        assert bit == 1 != x.bit(1)

    def test_inconsistent_selects_raise(self):
        # recovering with selection vectors that disagree with the state's
        # branch structure cannot merge the branches: non-unit probability
        s = make_scheme("subset2", 2)
        plan = s.gen_plan(1, 0b01)
        state = build_query_state(plan, (0, 0))
        for j in (1, 2):
            state = server_phase(state, s, j, Database.from_string("01"))
        broken_plan = CorruptedSubsetScheme(2).gen_plan(1, 0b01)
        with pytest.raises(RecoveryError):
            user_recover(state, broken_plan, (0, 0))


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
        idx = [step.label for step in t.steps].index("send:server1")
        rho = t.reduced_density(idx, "server1")
        assert rho.is_diagonal
        assert rho.entry((plan.queries[0] << 1) | 1, (plan.queries[0] << 1) | 1) == pytest.approx(0.5)
        assert rho.entry((plan.queries[0] << 1) | 0, (plan.queries[0] << 1) | 0) == pytest.approx(0.5)

    def test_comm_examples(self):
        assert CompiledProtocol(make_scheme("trivial1", 5)).comm_qubits() == 10
        assert CompiledProtocol(make_scheme("subset2", 8)).comm_qubits() == 36
        assert CompiledProtocol(make_scheme("cube2", 8)).comm_qubits() == 52


class TestServerIgnoranceOfMasks:
    def test_receipt_mixture_over_masks_is_query_times_mixed(self):
        # mixing the receipt state over this server's own mask space gives
        # |query><query| tensored with the maximally mixed mask register
        s = make_scheme("subset2", 2)
        plan = s.gen_plan(2, 0b01)
        layout = compiled_layout(2, 2, 1)
        acc = DensityAccumulator(layout, ["srv1"])
        for m1 in range(2):
            acc.add(build_query_state(plan, (m1, 0)), 1.0)
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


def _full_draws(protocol):
    return [(i, r, masks) for i in range(1, protocol.n + 1)
            for r in protocol.randomness_space() for masks in protocol.mask_space()]


def _assert_outputs_equal_runs(protocol, databases, draws):
    # ``==`` on floats, not approx: the batch must repeat the dict ops to the bit
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

    def test_batch_of_one_matches_larger_batch(self):
        protocol = CompiledProtocol(make_scheme("subset2", 3), dephase_servers=True)
        x = Database.from_string("101")
        draws = _full_draws(protocol)
        outputs = protocol.run_outputs(x, draws)
        for k in (0, 17, len(draws) - 1):
            assert protocol.run_outputs(x, [draws[k]]) == [outputs[k]]
            assert protocol.run_output(x, *draws[k]) == outputs[k]

    def test_long_sequences_split_into_batches(self, monkeypatch):
        protocol = CompiledProtocol(make_scheme("subset2", 3))
        x = Database.from_string("011")
        draws = _full_draws(protocol)
        whole = protocol.run_outputs(x, draws)
        monkeypatch.setattr(compiler, "BATCH_ROWS", 7)
        assert protocol.run_outputs(x, draws) == whole

    def test_empty_batch(self):
        protocol = CompiledProtocol(make_scheme("subset2", 2))
        assert protocol.run_outputs(Database.from_string("10"), []) == []

    @pytest.mark.parametrize("draw, error", [
        ((3, 0, (0, 0)), IndexError),        # index outside [1, n]
        ((1, 4, (0, 0)), ValueError),        # randomness outside the enumeration
        ((1, 0, (0,)), ValueError),          # one mask for two servers
        ((1, 0, (0, 2)), ValueError),        # mask wider than the answer
        ((1, 0, (-1, 0)), ValueError),
        ((1, 0, (1 << 70, 0)), ValueError),  # beyond any machine word
    ])
    def test_malformed_draw_raises_like_a_single_run(self, draw, error):
        protocol = CompiledProtocol(make_scheme("subset2", 2))
        x = Database.from_string("10")
        with pytest.raises(error) as single:
            protocol.run(x, *draw)
        with pytest.raises(error) as batched:
            protocol.run_outputs(x, [(2, 1, (0, 1)), draw])
        assert str(batched.value) == str(single.value)

    def test_one_plan_per_distinct_draw(self, monkeypatch):
        protocol = CompiledProtocol(make_scheme("subset2", 2))
        gen_plan = protocol.scheme.gen_plan
        calls = []
        monkeypatch.setattr(protocol.scheme, "gen_plan",
                            lambda i, r: calls.append((i, r)) or gen_plan(i, r))
        draws = _full_draws(protocol) * 2
        protocol.run_outputs(Database.from_string("10"), draws)
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


class TestWideLayout:
    """``qspir(subset2)`` at n=40 has an 83-bit layout: keys are Python ints."""

    def setup_method(self):
        self.protocol = CompiledProtocol(make_scheme("subset2", 40))
        self.x = Database(40, 0xA5C3F00F5A)

    def test_layout_is_wider_than_a_word(self):
        layout = self.protocol.layout()
        assert layout.width == 83
        plans = [self.protocol.scheme.gen_plan(40, (1 << 40) - 1)]
        keys, _, _, _ = build_query_batch(plans, [(1, 0)], layout)
        assert keys.dtype == object
        assert int(keys[0, 1]) >> 82 == 1

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
            build_query_state(self.protocol.scheme.gen_plan(1, 0), (0, 2))
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
