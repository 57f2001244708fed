"""Density matrices: partial trace, mixtures, and the trace distance."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qspirlab.density import (
    DensityMatrix,
    maximally_mixed,
    mix,
    partial_trace,
    trace_distance,
)
from qspirlab.registers import RegisterLayout
from qspirlab.states import SparseState

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
