"""The Bell-pair protocol: states, encodings, recovery, and marginals."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qspirlab import bell
from qspirlab.bell import (
    BellProtocol,
    bell_layout,
    left_reg,
    right_reg,
    server_pauli,
)
from qspirlab.compiler import CompiledProtocol
from qspirlab.density import maximally_mixed, partial_trace, trace_distance
from qspirlab.schemes import Database, all_databases, make_scheme
from qspirlab.states import SparseState, apply_local_map, equal_up_to_global_phase
from qspirlab.transcript import export_transcript, sign_recovery, sign_relabeling

from helpers import PAULI, build_bell_query, output_of

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


def per_pair_pauli(state, server, x):
    """The encoding as one single-qubit local map per pair, in pair order."""
    reg = left_reg if server == 1 else right_reg
    for slot in range(1, x.n // 2 + 1):
        state = apply_local_map(state, reg(slot), PAULI[(x.bit(2 * slot - 1), x.bit(2 * slot))])
    return state


def exact(state):
    """Keys in order, with each amplitude's real and imaginary parts in hex."""
    return [(key, v.real.hex(), v.imag.hex()) for key, v in state.terms.items()]


class TestOnePassEncoding:
    """``server_pauli`` in one pass equals the per-pair local maps, to the last bit."""

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_every_database_both_servers(self, n):
        for x in all_databases(n):
            for i in range(1, n + 1):
                state = build_bell_query(i, n)
                for server in (1, 2):
                    out = server_pauli(state, server, x)
                    assert exact(out) == exact(per_pair_pauli(state, server, x)), (str(x), i)
                    state = out

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_any_amplitudes(self, data):
        # signed zeros in either part: one product by the overall sign would
        # differ from the per-pair products here
        pairs = data.draw(st.integers(1, 3), label="pairs")
        layout = bell_layout(pairs)
        part = st.sampled_from([0.0, -0.0, 0.5, -0.5, 0.25, -0.75])
        amps = data.draw(st.dictionaries(st.integers(0, (1 << layout.width) - 1),
                                         st.tuples(part, part).filter(any), min_size=1))
        norm = math.sqrt(sum(re * re + im * im for re, im in amps.values()))
        state = SparseState(layout, {k: complex(re / norm, im / norm)
                                     for k, (re, im) in amps.items()})
        x = Database(2 * pairs, data.draw(st.integers(0, (1 << 2 * pairs) - 1), label="x"))
        for server in (1, 2):
            assert exact(server_pauli(state, server, x)) == exact(per_pair_pauli(state, server, x))

    @pytest.mark.parametrize("countermeasure", [False, True])
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_exported_transcripts(self, n, countermeasure, tmp_path, monkeypatch):
        protocol = BellProtocol(n, dephase_servers=countermeasure)

        def exported(x, name):
            path = tmp_path / name
            export_transcript(protocol.run(x, x.value % n + 1), path)
            return path.read_bytes()

        for x in all_databases(n):
            one_pass = exported(x, "one-pass.json")
            with monkeypatch.context() as patch:
                patch.setattr(bell, "server_pauli", per_pair_pauli)
                assert exported(x, "per-pair.json") == one_pass, str(x)


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
            protocol = BellProtocol(2)
            (p, bit, _), = sign_recovery(protocol, state,
                                         sign_relabeling(protocol, protocol.sign_table(i)))
            assert (bit, p) == (want, pytest.approx(1.0))

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_exhaustive(self, n):
        protocol = BellProtocol(n)
        for x in all_databases(n):
            for i in range(1, n + 1):
                assert output_of(protocol, x, i) == {x.bit(i): pytest.approx(1.0)}

    def test_final_state_depends_only_on_index_and_bit(self):
        protocol = BellProtocol(4)
        for i in (1, 4):
            for value in (0, 1):
                finals = []
                for x in all_databases(4):
                    if x.bit(i) != value:
                        continue
                    t = protocol.run(x, i)
                    (p, state), = t.steps[-1].branches
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
        assert BellProtocol(2).comm() == 4
        assert BellProtocol(6).comm() == 12
        assert BellProtocol(7).comm() == 16  # odd sizes pad with a zero bit

    def test_odd_size_padding_run(self):
        protocol = BellProtocol(3)
        assert protocol.comm() == 8
        for x in all_databases(3):
            for i in (1, 2, 3):
                assert output_of(protocol, x, i) == {x.bit(i): pytest.approx(1.0)}


def test_agrees_with_compiled_subset_at_n2():
    bell = BellProtocol(2)
    compiled = CompiledProtocol(make_scheme("subset2", 2))
    for x in all_databases(2):
        for i in (1, 2):
            want = {x.bit(i): pytest.approx(1.0)}
            assert output_of(bell, x, i) == want
            for r in range(4):
                assert output_of(compiled, x, i, r) == want
