"""Sparse-state core: construction, operations, and their basic algebra."""

import math

import pytest

from qspirlab.registers import RegisterLayout
from qspirlab.states import (
    NonUnitaryMapError,
    SparseState,
    apply_local_map,
    apply_phase_oracle,
    conditional_xor_relabel,
    equal_up_to_global_phase,
    hadamard,
    measurement_branches,
    tensor,
    xor_relabeling,
)

from helpers import PAULI

S = math.sqrt(0.5)
ONE_BIT = RegisterLayout.of(("q", 1))
TWO_BITS = RegisterLayout.of(("a", 1), ("b", 1))


def plus(name="q"):
    return SparseState.from_bits(RegisterLayout.of((name, 1)), {"0": S, "1": S})


def bell_00():
    return SparseState.from_bits(TWO_BITS, {"00": S, "11": S})


class TestLayout:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            RegisterLayout.of(("x", 1), ("x", 2))

    def test_zero_width_register_is_legal(self):
        lay = RegisterLayout.of(("empty", 0), ("q", 2))
        assert lay.width == 2
        assert lay.piece("empty") == (2, 0)
        state = SparseState.basis(lay, "10")
        assert state.amplitude("10") == 1

    def test_piece_addressing(self):
        lay = RegisterLayout.of(("a", 2), ("b", 3), ("c", 1))
        assert lay.piece("a") == (4, 2)
        assert lay.piece("b") == (1, 3)
        assert lay.piece("c") == (0, 1)
        key = 0b10_110_1
        for name, value in (("a", 0b10), ("b", 0b110), ("c", 1)):
            shift, w = lay.piece(name)
            assert (key >> shift) & ((1 << w) - 1) == value

    def test_unknown_register_raises_on_every_call(self):
        lay = RegisterLayout.of(("a", 2), ("b", 3))
        assert lay.pieces(("a", "b")) == ((0, 5),)
        for _ in range(2):
            with pytest.raises(KeyError, match="unknown register 'z'"):
                lay.piece("z")
            with pytest.raises(KeyError, match="unknown register 'z'"):
                lay.pieces(("a", "z"))
            with pytest.raises(KeyError, match="unknown register 'z'"):
                lay.pieces("z")
            assert lay.pieces(["a", "b"]) == ((0, 5),)

    def test_kept_pieces_match_a_fresh_layout(self):
        registers = (("a", 2), ("b", 3), ("c", 1), ("d", 0))
        lay = RegisterLayout(registers)
        queries = [("c",), ("a", "b"), ("b", "a"), ("a", "c"), ("a", "b", "c", "d"), ("d", "c"), ()]
        first = [lay.pieces(q) for q in queries]
        assert [lay.pieces(q) for q in queries] == first
        assert [RegisterLayout(registers).pieces(q) for q in queries] == first
        assert lay.pieces("c") == lay.pieces(["c"]) == first[0]

    def test_concat_reuses_its_layout(self):
        left, right = RegisterLayout.of(("a", 1)), RegisterLayout.of(("b", 2))
        joined = left.concat(right)
        assert joined == RegisterLayout.of(("a", 1), ("b", 2))
        assert left.concat(RegisterLayout.of(("b", 2))) is joined
        assert tensor(SparseState.basis(left, 0), SparseState.basis(right, 3)).layout is joined
        for _ in range(2):
            with pytest.raises(ValueError, match="collision"):
                left.concat(left)


class TestSparseState:
    def test_norm_enforced(self):
        with pytest.raises(ValueError, match=r"state norm\^2 = 0\.25, not 1 within 1e-09"):
            SparseState.from_bits(ONE_BIT, {"0": 0.5})

    def test_tiny_amplitudes_pruned(self):
        state = SparseState.from_bits(ONE_BIT, {"0": 1.0, "1": 1e-13})
        assert state.support() == (0,)

    def test_key_bounds_checked(self):
        with pytest.raises(ValueError, match="basis key 2 outside layout width 1"):
            SparseState(ONE_BIT, {2: 1.0})


class TestTensor:
    def test_basis_product(self):
        out = tensor(SparseState.basis(RegisterLayout.of(("a", 1)), "0"),
                     SparseState.basis(RegisterLayout.of(("b", 1)), "1"))
        assert out.bits_terms() == {"01": 1 + 0j}

    def test_distributes_over_superposition(self):
        out = tensor(plus("a"), SparseState.basis(RegisterLayout.of(("b", 1)), "0"))
        assert out.bits_terms() == pytest.approx({"00": S, "10": S})

    def test_norm_multiplicative(self):
        out = tensor(plus("a"), plus("b"))
        assert sum(abs(v) ** 2 for v in out.terms.values()) == pytest.approx(1.0)

    def test_name_collision_rejected(self):
        with pytest.raises(ValueError):
            tensor(plus("q"), plus("q"))


class TestPhaseOracle:
    def test_zero_phase_is_identity(self):
        state = tensor(plus("a"), plus("b"))
        assert apply_phase_oracle(state, "a", lambda z: 0).bits_terms() == state.bits_terms()

    def test_constant_one_is_global_sign(self):
        state = plus()
        out = apply_phase_oracle(state, "q", lambda z: 1)
        assert out.bits_terms() == pytest.approx({"0": -S, "1": -S})
        assert equal_up_to_global_phase(out, state)

    def test_conditional_phase(self):
        out = apply_phase_oracle(plus(), "q", lambda z: z)
        assert out.bits_terms() == pytest.approx({"0": S, "1": -S})

    def test_unknown_register(self):
        with pytest.raises(KeyError):
            apply_phase_oracle(plus(), "nope", lambda z: 0)

    def test_support_unchanged(self):
        state = bell_00()
        out = apply_phase_oracle(state, "b", lambda z: z)
        assert out.support() == state.support()

    @pytest.mark.parametrize("targets, keys", [
        (("a", "b"), ("000", "001", "110", "111")),   # adjacent: one bit field
        (("a", "c"), ("000", "010", "101", "111")),   # apart: two
    ])
    def test_phase_fn_called_once_per_distinct_sub_key(self, targets, keys):
        layout = RegisterLayout.of(("a", 1), ("b", 1), ("c", 1))
        state = SparseState.from_bits(layout, dict.fromkeys(keys, 0.5))
        calls = []
        out = apply_phase_oracle(state, targets, lambda z: calls.append(z) or z & 1)
        assert calls == [0, 3]
        assert out.bits_terms() == {s: -0.5 if s[0] == "1" else 0.5 for s in keys}


class TestLocalMap:
    def test_hadamard_on_zero(self):
        out = apply_local_map(SparseState.basis(ONE_BIT, "0"), "q", hadamard)
        assert out.bits_terms() == pytest.approx({"0": S, "1": S})

    def test_bit_flip_pauli(self):
        out = apply_local_map(SparseState.basis(ONE_BIT, "0"), "q", PAULI[(0, 1)])
        assert out.bits_terms() == {"1": 1 + 0j}

    def test_xor_relabel_is_involution(self):
        state = bell_00()
        once = conditional_xor_relabel(state, "a", ["b"], {0: {"b": 1}, 1: {"b": 1}})
        twice = conditional_xor_relabel(once, "a", ["b"], {0: {"b": 1}, 1: {"b": 1}})
        assert twice.bits_terms() == state.bits_terms()

    def test_prebuilt_relabeling_matches_and_checks(self):
        table = {0: {"b": 1}, 1: {"b": 0}}
        relabel = xor_relabeling(TWO_BITS, "a", ["b"], table)
        for state in (bell_00(), SparseState.from_bits(TWO_BITS, {"01": S, "10": S})):
            assert relabel(state).terms == conditional_xor_relabel(state, "a", ["b"], table).terms
        with pytest.raises(ValueError, match="another layout"):
            relabel(SparseState.basis(RegisterLayout.of(("a", 1), ("c", 1)), "00"))
        with pytest.raises(ValueError, match="not listed in targets"):
            xor_relabeling(TWO_BITS, "a", [], table)
        with pytest.raises(ValueError, match="too wide"):
            xor_relabeling(TWO_BITS, "a", ["b"], {1: {"b": 2}})

    def test_non_unitary_rejected(self):
        collapse = lambda z: {0: 1.0}
        with pytest.raises(NonUnitaryMapError):
            apply_local_map(plus(), "q", collapse)

    def test_joint_register_map(self):
        # swap the two registers via a permutation on their joint value
        swap = lambda z: {((z & 1) << 1) | (z >> 1): 1.0}
        out = apply_local_map(SparseState.basis(TWO_BITS, "10"), ("a", "b"), swap)
        assert out.bits_terms() == {"01": 1 + 0j}


class TestMeasurement:
    def test_basis_state_deterministic(self):
        branches = measurement_branches(SparseState.basis(TWO_BITS, "10"), "a")
        assert len(branches) == 1
        p, outcome, post = branches[0]
        assert (p, outcome) == (pytest.approx(1.0), 1)
        assert post.bits_terms() == {"10": 1 + 0j}

    def test_balanced_superposition(self):
        state = SparseState.from_bits(TWO_BITS, {"00": S, "11": S})
        branches = measurement_branches(state, "a")
        assert [(round(p, 12), o) for p, o, _ in branches] == [(0.5, 0), (0.5, 1)]

    def test_bell_correlation_branches(self):
        branches = measurement_branches(bell_00(), "a")
        posts = {o: post.bits_terms() for _, o, post in branches}
        assert posts[0] == pytest.approx({"00": 1.0})
        assert posts[1] == pytest.approx({"11": 1.0})


class TestGlobalPhase:
    def test_negated_state_equal(self):
        state = bell_00()
        neg = SparseState(state.layout, {k: -v for k, v in state.terms.items()})
        assert equal_up_to_global_phase(state, neg)

    def test_orthogonal_states_differ(self):
        a = SparseState.basis(ONE_BIT, "0")
        b = SparseState.basis(ONE_BIT, "1")
        assert not equal_up_to_global_phase(a, b)

    def test_relative_phase_is_not_global(self):
        minus = SparseState.from_bits(ONE_BIT, {"0": S, "1": -S})
        assert not equal_up_to_global_phase(plus(), minus)

    def test_complex_phase(self):
        state = bell_00()
        rot = SparseState(state.layout, {k: v * complex(0, 1) for k, v in state.terms.items()})
        assert equal_up_to_global_phase(state, rot)
