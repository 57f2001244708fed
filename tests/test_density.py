"""Density matrices: partial trace, mixtures, and the trace distance."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qspirlab.compiler import CompiledProtocol, build_query_batch
from qspirlab.density import (
    DensityAccumulator,
    DensityMatrix,
    maximally_mixed,
    mix,
    partial_trace,
    trace_distance,
)
from qspirlab.registers import RegisterLayout
from qspirlab.schemes import make_scheme
from qspirlab.states import SparseState, key_dtype

S = math.sqrt(0.5)
TWO_BITS = RegisterLayout.of(("a", 1), ("b", 1))
ONE_BIT = RegisterLayout.of(("a", 1))


def bell_00():
    return SparseState.from_bits(TWO_BITS, {"00": S, "11": S})


class TestPartialTrace:
    def test_full_keep_is_projector(self):
        rho = partial_trace(bell_00(), ["a", "b"])
        assert rho.purity() == pytest.approx(1.0)
        assert rho.entry("00", "11") == pytest.approx(0.5)
        assert rho.entry("00", "00") == pytest.approx(0.5)

    def test_bell_half_is_maximally_mixed(self):
        rho = partial_trace(bell_00(), ["a"])
        assert rho.is_diagonal
        assert rho.entry(0, 0) == pytest.approx(0.5)
        assert rho.entry(1, 1) == pytest.approx(0.5)

    def test_product_state_sides(self):
        state = SparseState.basis(TWO_BITS, "01")
        left = partial_trace(state, ["a"])
        right = partial_trace(state, ["b"])
        assert left.entry(0, 0) == pytest.approx(1.0)
        assert right.entry(1, 1) == pytest.approx(1.0)

    def test_keep_order_is_canonical(self):
        state = SparseState.basis(RegisterLayout.of(("a", 1), ("b", 1), ("c", 1)), "011")
        assert partial_trace(state, ["c", "a"]).layout.names == ("a", "c")

    def test_empty_keep_rejected(self):
        with pytest.raises(ValueError):
            partial_trace(bell_00(), [])


class TestMix:
    def test_singleton(self):
        rho = partial_trace(bell_00(), ["a"])
        assert mix([1.0], [rho]).entries == pytest.approx(rho.entries)

    def test_classical_coin(self):
        zero = partial_trace(SparseState.basis(ONE_BIT, "0"), ["a"])
        one = partial_trace(SparseState.basis(ONE_BIT, "1"), ["a"])
        coin = mix([0.5, 0.5], [zero, one])
        assert coin.entries == pytest.approx(maximally_mixed(ONE_BIT).entries)

    def test_idempotent_on_equal_states(self):
        rho = partial_trace(bell_00(), ["b"])
        assert mix([0.25, 0.75], [rho, rho]).entries == pytest.approx(rho.entries)

    def test_weight_mismatch(self):
        rho = partial_trace(bell_00(), ["a"])
        with pytest.raises(ValueError):
            mix([0.5], [rho, rho])
        with pytest.raises(ValueError):
            mix([0.7, 0.7], [rho, rho])


class TestValidation:
    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            DensityMatrix(ONE_BIT, {(0, 0): 0.5, (1, 1): 0.5, (0, 1): 0.3, (1, 0): 0.1})

    def test_trace_enforced(self):
        with pytest.raises(ValueError):
            DensityMatrix(ONE_BIT, {(0, 0): 0.9})

    def test_psd_check(self):
        rho = DensityMatrix(ONE_BIT, {(0, 0): 0.5, (1, 1): 0.5, (0, 1): 0.5, (1, 0): 0.5})
        rho.validate_psd()
        bad = DensityMatrix(ONE_BIT, {(0, 0): 0.5, (1, 1): 0.5, (0, 1): 0.7, (1, 0): 0.7})
        with pytest.raises(ValueError):
            bad.validate_psd()


class TestTraceDistance:
    def test_identical_states(self):
        rho = partial_trace(bell_00(), ["a"])
        assert trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure_states(self):
        zero = partial_trace(SparseState.basis(ONE_BIT, "0"), ["a"])
        one = partial_trace(SparseState.basis(ONE_BIT, "1"), ["a"])
        assert trace_distance(zero, one) == pytest.approx(1.0)

    def test_zero_versus_plus(self):
        # pure-state closed form sqrt(1 - |<0|+>|^2) = sqrt(1/2), frozen,
        # and cross-checked against a dense eigendecomposition right here
        zero = partial_trace(SparseState.basis(ONE_BIT, "0"), ["a"])
        plus = partial_trace(SparseState.from_bits(ONE_BIT, {"0": S, "1": S}), ["a"])
        expected = 0.7071067811865476
        assert trace_distance(zero, plus) == pytest.approx(expected, abs=1e-12)
        diff = np.array([[1.0 - 0.5, -0.5], [-0.5, -0.5]])
        brute = 0.5 * np.abs(np.linalg.eigvalsh(diff)).sum()
        assert brute == pytest.approx(expected, abs=1e-12)

    def test_layout_mismatch(self):
        zero = partial_trace(SparseState.basis(ONE_BIT, "0"), ["a"])
        other = partial_trace(SparseState.basis(RegisterLayout.of(("b", 1)), "0"), ["b"])
        with pytest.raises(ValueError):
            trace_distance(zero, other)

    def test_diagonal_fast_path_matches_dense(self):
        # same operands through both paths: diagonal closed form vs eigh
        p = DensityMatrix(TWO_BITS, {(0, 0): 0.5, (3, 3): 0.5})
        q = DensityMatrix(TWO_BITS, {(0, 0): 0.25, (1, 1): 0.25, (3, 3): 0.5})
        fast = trace_distance(p, q)
        basis = (0, 1, 3)
        mp, _ = p.dense(basis)
        mq, _ = q.dense(basis)
        dense = 0.5 * np.abs(np.linalg.eigvalsh(mp - mq)).sum()
        assert fast == pytest.approx(dense, abs=1e-12)


@st.composite
def density_matrices(draw):
    size = draw(st.integers(min_value=1, max_value=3))
    states = []
    for _ in range(size):
        amps = draw(st.lists(
            st.tuples(st.integers(0, 3),
                      st.floats(-1, 1, allow_nan=False).filter(lambda v: abs(v) > 0.05),
                      st.floats(-1, 1, allow_nan=False)),
            min_size=1, max_size=3, unique_by=lambda t: t[0]))
        norm = math.sqrt(sum(re * re + im * im for _, re, im in amps))
        terms = {k: complex(re, im) / norm for k, re, im in amps}
        states.append(partial_trace(SparseState(TWO_BITS, terms), ["a", "b"]))
    weights = draw(st.lists(st.floats(0.05, 1, allow_nan=False),
                            min_size=size, max_size=size))
    total = sum(weights)
    return mix([w / total for w in weights], states)


class TestMetricProperties:
    @settings(max_examples=60, deadline=None)
    @given(density_matrices(), density_matrices())
    def test_symmetry_and_range(self, p, q):
        d = trace_distance(p, q)
        assert 0.0 <= d <= 1.0 + 1e-9
        assert d == pytest.approx(trace_distance(q, p), abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(density_matrices(), density_matrices(), density_matrices())
    def test_triangle_inequality(self, p, q, r):
        assert trace_distance(p, r) <= trace_distance(p, q) + trace_distance(q, r) + 1e-9


def random_batch(layout, rows, slots, seed):
    """Random states as a batch, with empty slots between live terms.

    Each register takes one of three values, so terms often share their
    traced part and the partial trace has cross terms.
    """
    rng = random.Random(seed)
    choices = {name: [0, (1 << w) - 1, rng.getrandbits(w)] for name, w in layout.registers}
    keys = np.zeros((rows, slots), dtype=key_dtype(layout))
    amps = np.zeros((rows, slots), dtype=complex)
    for b in range(rows):
        live = rng.sample(range(slots), rng.randint(1, slots))
        row_keys = set()
        while len(row_keys) < len(live):
            row_keys.add(layout.assemble({n: rng.choice(c) for n, c in choices.items()}))
        values = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in live]
        norm = math.sqrt(sum(abs(v) ** 2 for v in values))
        for t, key, v in zip(sorted(live), sorted(row_keys, key=lambda _: rng.random()), values):
            keys[b, t], amps[b, t] = key, v / norm
    return keys, amps


def states_of(layout, keys, amps):
    return [SparseState(layout, {int(k): complex(a) for k, a in zip(row_k, row_a) if a != 0})
            for row_k, row_a in zip(keys, amps)]


def exact(acc):
    """Entries to the bit (signed zeros included) in insertion order, and the weight."""
    return [(uv, c.real.hex(), c.imag.hex()) for uv, c in acc._entries.items()], acc._weight


class TestAddBatch:
    """``add_batch`` equals ``add`` called row by row, entry order included."""

    LAYOUT = RegisterLayout.of(("sign", 1), ("srv1", 3), ("srv2", 3))

    def both(self, layout, keep, batches):
        batched = DensityAccumulator(layout, keep)
        by_row = DensityAccumulator(layout, keep)
        for keys, amps, weights in batches:
            batched.add_batch(layout, keys, amps, weights)
            for state, w in zip(states_of(layout, keys, amps), weights.tolist()):
                by_row.add(state, w)
        return batched, by_row

    @pytest.mark.parametrize("keep", [["sign", "srv1"], ["srv2"], ["sign", "srv1", "srv2"]])
    def test_cross_terms_and_weights(self, keep):
        keys, amps = random_batch(self.LAYOUT, 60, 5, seed=1)
        weights = np.array([random.Random(b).random() for b in range(60)])
        batched, by_row = self.both(self.LAYOUT, keep, [(keys, amps, weights)])
        assert any(u != v for u, v in batched._entries)   # cross terms were formed
        assert exact(batched) == exact(by_row)

    def test_second_batch_onto_nonempty_accumulator(self):
        first = random_batch(self.LAYOUT, 30, 4, seed=2)
        second = random_batch(self.LAYOUT, 30, 6, seed=3)
        batched, by_row = self.both(self.LAYOUT, ["srv1"], [
            (*first, np.full(30, 0.25)), (*second, np.linspace(0.1, 0.9, 30))])
        assert exact(batched) == exact(by_row)

    def test_signed_zero_products(self):
        # real amplitudes of opposite sign: the (0, 1) products are -0.0j, and
        # so is their sum, which must not start from +0.0
        keys = np.array([[0, 1], [2, 3]], dtype=np.uint64)
        amps = np.array([[S, -S], [S, -S]], dtype=complex)
        batched, by_row = self.both(TWO_BITS, ["b"], [(keys, amps, np.ones(2))])
        assert math.copysign(1.0, batched._entries[(0, 1)].imag) == -1.0
        assert exact(batched) == exact(by_row)

    def test_empty_batch(self):
        keys, amps = random_batch(self.LAYOUT, 5, 3, seed=4)
        batched, by_row = self.both(self.LAYOUT, ["srv1"], [
            (keys, amps, np.ones(5)), (keys[:0], amps[:0], np.ones(0))])
        assert exact(batched) == exact(by_row)

    def test_packed_code_wider_than_a_word(self):
        # 60-bit keys fit uint64, but a (row, col) pair of 40-bit subs does not
        layout = RegisterLayout.of(("a", 40), ("b", 20))
        keys, amps = random_batch(layout, 40, 4, seed=5)
        assert keys.dtype == np.uint64
        batched, by_row = self.both(layout, ["a"], [(keys, amps, np.full(40, 0.5))])
        assert exact(batched) == exact(by_row)

    @pytest.mark.parametrize("keep", [["sign", "srv1"], ["srv2"]])
    def test_wide_layout_object_keys(self, keep):
        # the 83-bit layout of qspir(subset2) at n=40
        protocol = CompiledProtocol(make_scheme("subset2", 40))
        layout = protocol.layout()
        keys, amps = random_batch(layout, 40, 4, seed=6)
        assert keys.dtype == object
        batched, by_row = self.both(layout, keep, [(keys, amps, np.full(40, 0.125))])
        assert exact(batched) == exact(by_row)
        # each diagonal key holds one int object twice
        assert all(u is v for u, v in batched._entries if u == v)

    def test_wide_layout_query_states(self):
        protocol = CompiledProtocol(make_scheme("subset2", 40))
        layout = protocol.layout()
        plans = [protocol.scheme.gen_plan(i, r) for i in (1, 40) for r in (0, 7, (1 << 40) - 1)]
        keys, amps, _, _ = build_query_batch(plans, [(1, 0)] * len(plans), layout)
        batched, by_row = self.both(layout, ["srv1"], [(keys, amps, np.ones(len(plans)))])
        assert exact(batched) == exact(by_row)

    def test_layout_mismatch(self):
        acc = DensityAccumulator(self.LAYOUT, ["srv1"])
        other = RegisterLayout.of(("sign", 1), ("srv1", 3), ("srv3", 3))
        keys, amps = random_batch(other, 2, 2, seed=7)
        with pytest.raises(ValueError) as batched:
            acc.add_batch(other, keys, amps, np.ones(2))
        with pytest.raises(ValueError) as single:
            acc.add(states_of(other, keys, amps)[0])
        assert str(batched.value) == str(single.value)
