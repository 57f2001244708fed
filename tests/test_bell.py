"""The Bell-pair protocol: states, encodings, recovery, and marginals."""

import math

import numpy as np
import pytest

from qspirlab.bell import (
    BellProtocol,
    bell_comm_cost,
    bell_recover,
    build_bell_query,
    server_pauli,
)
from qspirlab.compiler import CompiledProtocol
from qspirlab.density import maximally_mixed, partial_trace, trace_distance
from qspirlab.schemes import Database, all_databases, make_scheme
from qspirlab.states import PAULI, SparseState, equal_up_to_global_phase

S = math.sqrt(0.5)

PAULI_MATRICES = {
    (0, 0): np.array([[1, 0], [0, 1]], dtype=complex),
    (0, 1): np.array([[0, 1], [1, 0]], dtype=complex),
    (1, 0): np.array([[1, 0], [0, -1]], dtype=complex),
    (1, 1): np.array([[0, -1], [1, 0]], dtype=complex),
}

BELL_VECTORS = {
    "corr": np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2),    # |00>+|11>
    "mark_odd": np.array([0, 1, 1, 0], dtype=complex) / math.sqrt(2),  # |01>+|10>
    "mark_even": np.array([1, 0, 0, -1], dtype=complex) / math.sqrt(2),  # |00>-|11>
}


class TestPauliAlgebraDense:
    """The two-sided encoding acts on the three Bell vectors by signs only."""

    @pytest.mark.parametrize("x1", [0, 1])
    @pytest.mark.parametrize("x2", [0, 1])
    def test_signs(self, x1, x2):
        sigma = PAULI_MATRICES[(x1, x2)]
        both = np.kron(sigma, sigma)
        np.testing.assert_allclose(both @ BELL_VECTORS["corr"], BELL_VECTORS["corr"], atol=1e-12)
        np.testing.assert_allclose(
            both @ BELL_VECTORS["mark_odd"], (-1) ** x1 * BELL_VECTORS["mark_odd"], atol=1e-12)
        np.testing.assert_allclose(
            both @ BELL_VECTORS["mark_even"], (-1) ** x2 * BELL_VECTORS["mark_even"], atol=1e-12)

    def test_sparse_paulis_match_dense(self):
        for key, mat in PAULI_MATRICES.items():
            fn = PAULI[key]
            for col in (0, 1):
                image = fn(col)
                vec = np.zeros(2, dtype=complex)
                for row, amp in image.items():
                    vec[row] = amp
                np.testing.assert_allclose(vec, mat[:, col], atol=1e-12)


class TestQueryState:
    def test_n2_odd_index(self):
        state = build_bell_query(1, 2)
        assert state.bits_terms() == pytest.approx(
            {"000": 0.5, "011": 0.5, "101": 0.5, "110": 0.5})

    def test_n2_even_index(self):
        state = build_bell_query(2, 2)
        assert state.bits_terms() == pytest.approx(
            {"000": 0.5, "011": 0.5, "100": 0.5, "111": -0.5})

    def test_n4_marker_slot(self):
        # index 3 sits in pair slot 2 and is odd, so the marker swaps the
        # second pair while the first stays correlated
        state = build_bell_query(3, 4)
        terms = state.bits_terms()
        # sign=1 branch: left2 != right2 (bit-flip marker), left1 == right1
        for key, amp in terms.items():
            sign, l1, l2, r1, r2 = key[0], key[1], key[2], key[3], key[4]
            if sign == "1":
                assert l2 != r2 and l1 == r1
            else:
                assert l1 == r1 and l2 == r2

    def test_odd_size_rejected(self):
        with pytest.raises(ValueError):
            build_bell_query(1, 3)
        with pytest.raises(IndexError):
            build_bell_query(5, 4)


class TestEncodingPhases:
    def test_phase_flip_on_odd_marker(self):
        state = build_bell_query(1, 2)
        x = Database.from_string("10")
        for server in (1, 2):
            state = server_pauli(state, server, x)
        expected = SparseState.from_bits(state.layout, {
            "000": 0.5, "011": 0.5, "101": -0.5, "110": -0.5})
        assert equal_up_to_global_phase(state, expected)

    def test_even_marker_tracks_second_bit(self):
        state = build_bell_query(2, 2)
        x = Database.from_string("01")
        for server in (1, 2):
            state = server_pauli(state, server, x)
        expected = SparseState.from_bits(state.layout, {
            "000": 0.5, "011": 0.5, "100": -0.5, "111": 0.5})
        assert equal_up_to_global_phase(state, expected)

    def test_identity_on_zero_database(self):
        state = build_bell_query(1, 2)
        out = server_pauli(server_pauli(state, 1, Database.from_string("00")),
                           2, Database.from_string("00"))
        assert out.bits_terms() == pytest.approx(state.bits_terms())


class TestRecovery:
    def test_two_bit_examples(self):
        x = Database.from_string("10")
        for i, want in ((1, 1), (2, 0)):
            state = build_bell_query(i, 2)
            for server in (1, 2):
                state = server_pauli(state, server, x)
            bit, _ = bell_recover(state, i)
            assert bit == want

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_exhaustive(self, n):
        protocol = BellProtocol(n)
        for x in all_databases(n):
            for i in range(1, n + 1):
                assert protocol.run_output(x, i) == {x.bit(i): pytest.approx(1.0)}

    def test_final_state_depends_only_on_index_and_bit(self):
        protocol = BellProtocol(4)
        for i in (1, 4):
            for value in (0, 1):
                finals = []
                for x in all_databases(4):
                    if x.bit(i) != value:
                        continue
                    t = protocol.run(x, i)
                    (p, state), = t.final_branches()
                    finals.append(state)
                first = finals[0]
                assert all(equal_up_to_global_phase(first, s) for s in finals[1:])


class TestMarginals:
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_every_transmitted_qubit_maximally_mixed(self, n):
        worst = 0.0
        for i in range(1, n + 1):
            state = build_bell_query(i, n)
            for name, _ in state.layout.registers:
                if name == "sign":
                    continue
                rho = partial_trace(state, [name])
                worst = max(worst, trace_distance(rho, maximally_mixed(rho.layout)))
        assert worst <= 1e-9


class TestCommunication:
    def test_costs(self):
        assert bell_comm_cost(2) == 4
        assert bell_comm_cost(6) == 12
        assert bell_comm_cost(7) == 16  # odd sizes pad with a zero bit

    def test_odd_size_padding_run(self):
        protocol = BellProtocol(3)
        assert protocol.comm_qubits() == 8
        for x in all_databases(3):
            for i in (1, 2, 3):
                assert protocol.run_output(x, i) == {x.bit(i): pytest.approx(1.0)}


def test_agrees_with_compiled_subset_at_n2():
    bell = BellProtocol(2)
    compiled = CompiledProtocol(make_scheme("subset2", 2))
    for x in all_databases(2):
        for i in (1, 2):
            want = {x.bit(i): pytest.approx(1.0)}
            assert bell.run_output(x, i) == want
            for r in range(4):
                assert compiled.run_output(x, i, r, (0, 1)) == want
