"""The trusted internal constructors against the checking public ones.

Every op that builds through ``SparseState._trusted`` or
``DensityMatrix._trusted`` must give the entries the public constructor
gives on the same input, in the same key order and to the last bit; and
with the checks switched back on (``full_validation``), a kernel (or the
Bell encoding's sign) that breaks the norm must make the op raise.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qspirlab import bell, kernels
from qspirlab.audits import _server_histograms
from qspirlab.bell import bell_layout, server_pauli
from qspirlab.compiler import CompiledProtocol
from qspirlab.density import DensityAccumulator
from qspirlab.registers import RegisterLayout
from qspirlab.schemes import Database
from qspirlab.states import (
    MAX_UNITARITY_CHECK_WIDTH,
    SQRT_HALF,
    SparseState,
    apply_local_map,
    apply_phase_oracle,
    conditional_xor_relabel,
    hadamard,
    measurement_branches,
    tensor,
)

from helpers import RandomXorScheme, build_bell_query, full_validation


def exact(terms):
    """Keys in order, with each value's real and imaginary parts in hex."""
    return [(key, value.real.hex(), value.imag.hex()) for key, value in terms.items()]


def same_as_public(op):
    """``op()``'s terms, asserted equal to those it gives with full validation."""
    out = op()
    with full_validation():
        checked = op()
    assert exact(out) == exact(checked)
    return out


def layouts(prefix="r", min_registers=1):
    return st.lists(st.integers(1, 3), min_size=min_registers, max_size=3).map(
        lambda widths: RegisterLayout.of(*((f"{prefix}{j}", w) for j, w in enumerate(widths))))


def states(prefix="r", min_registers=1):
    return layouts(prefix, min_registers).flatmap(states_on)


@st.composite
def states_on(draw, layout):
    amps = draw(st.dictionaries(
        st.integers(0, (1 << layout.width) - 1),
        st.tuples(st.floats(-1, 1), st.floats(-1, 1)).filter(lambda z: abs(complex(*z)) > 0.05),
        min_size=1, max_size=8))
    norm = math.sqrt(sum(re * re + im * im for re, im in amps.values()))
    return SparseState(layout, {k: complex(re, im) / norm for k, (re, im) in amps.items()})


def parity_fn(mult):
    return lambda sub: (sub * mult).bit_count() & 1


def phased_hadamard_xor(c):
    """Hadamard on the low bit, then XOR c, times a phase i**sub: unitary at any width."""
    def fn(sub):
        high, low = sub & ~1, sub & 1
        phase = 1j ** (sub & 3)
        return {high ^ c: SQRT_HALF * phase, (high | 1) ^ c: (-1) ** low * SQRT_HALF * phase}
    return fn


class TestTrustedSitesMatchPublic:
    @settings(max_examples=40, deadline=None)
    @given(states(), st.data())
    def test_phase_oracle_one_register(self, state, data):
        name = data.draw(st.sampled_from(state.layout.names))
        fn = parity_fn(data.draw(st.integers(0, 63)))
        same_as_public(lambda: apply_phase_oracle(state, name, fn).terms)

    @settings(max_examples=40, deadline=None)
    @given(states(min_registers=2), st.data())
    def test_phase_oracle_several_registers(self, state, data):
        names = data.draw(st.permutations(state.layout.names))
        fn = parity_fn(data.draw(st.integers(0, 511)))
        same_as_public(lambda: apply_phase_oracle(state, names, fn).terms)

    @settings(max_examples=40, deadline=None)
    @given(states(), st.data())
    def test_local_map(self, state, data):
        name = data.draw(st.sampled_from(state.layout.names))
        _, width = state.layout.piece(name)
        fn = phased_hadamard_xor(data.draw(st.integers(0, (1 << width) - 1)))
        same_as_public(lambda: apply_local_map(state, name, fn).terms)

    @settings(max_examples=40, deadline=None)
    @given(states(min_registers=2), st.data())
    def test_xor_relabel(self, state, data):
        control, *targets = data.draw(st.permutations(state.layout.names))
        ctrl_width = state.layout.piece(control)[1]
        table = data.draw(st.dictionaries(
            st.integers(0, (1 << ctrl_width) - 1),
            st.fixed_dictionaries({name: st.integers(0, (1 << state.layout.piece(name)[1]) - 1)
                                   for name in targets})))
        same_as_public(lambda: conditional_xor_relabel(state, control, targets, table).terms)

    @settings(max_examples=40, deadline=None)
    @given(states(), st.data())
    def test_measurement_branches(self, state, data):
        name = data.draw(st.sampled_from(state.layout.names))
        branches = measurement_branches(state, name)
        with full_validation():
            checked = measurement_branches(state, name)
        assert [(p.hex(), outcome) for p, outcome, _ in branches] == \
            [(p.hex(), outcome) for p, outcome, _ in checked]
        assert [exact(post.terms) for _, _, post in branches] == \
            [exact(post.terms) for _, _, post in checked]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3).map(bell_layout).flatmap(states_on), st.integers(1, 2), st.data())
    def test_bell_encoding(self, state, server, data):
        pairs = (state.layout.width - 1) // 2
        x = Database(2 * pairs, data.draw(st.integers(0, (1 << 2 * pairs) - 1)))
        same_as_public(lambda: server_pauli(state, server, x).terms)

    @settings(max_examples=40, deadline=None)
    @given(states("a"), states("b"))
    def test_tensor(self, a, b):
        same_as_public(lambda: tensor(a, b).terms)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_finalize(self, data):
        layout = data.draw(layouts())
        mixture = data.draw(st.lists(st.tuples(st.floats(0.05, 1), states_on(layout)),
                                     min_size=1, max_size=3))
        keep = data.draw(st.sets(st.sampled_from(layout.names), min_size=1))

        def finalize():
            acc = DensityAccumulator(layout, keep)
            for w, state in mixture:
                acc.add(state, w)
            return acc.finalize().entries

        entries = same_as_public(finalize)
        assert all(type(u) is int and type(v) is int for u, v in entries)

    def test_tensor_prunes_a_product_under_the_tolerance(self):
        # 1e-7 * 1e-7 is below PRUNE_TOL though each factor is above it
        big = math.sqrt(1 - 1e-14)
        a = SparseState(RegisterLayout.of(("a", 1)), {0: big, 1: 1e-7})
        b = SparseState(RegisterLayout.of(("b", 1)), {1: 1e-7j, 0: big})
        out = same_as_public(lambda: tensor(a, b).terms)
        assert list(out) == [0b01, 0b00, 0b10]
        product = tensor(a, b)
        for name in ("a", "b"):
            branches = measurement_branches(product, name)
            with full_validation():
                checked = measurement_branches(product, name)
            assert [(p.hex(), outcome, exact(post.terms)) for p, outcome, post in branches] == \
                [(p.hex(), outcome, exact(post.terms)) for p, outcome, post in checked]

    def test_measurement_prunes_a_renormalised_amplitude(self):
        # norm^2 just over 1 (within NORM_TOL): renormalising pulls the small term under PRUNE_TOL
        tiny = 1e-12 * (1 + 1e-10)
        state = SparseState(RegisterLayout.of(("m", 1), ("q", 1)),
                            {0b01: tiny, 0b00: math.sqrt(1 + 5e-10)})
        assert list(state.terms) == [0b01, 0b00]
        (p, outcome, post), = measurement_branches(state, "m")
        with full_validation():
            (checked_p, _, checked), = measurement_branches(state, "m")
        assert (p.hex(), outcome) == (checked_p.hex(), 0)
        assert exact(post.terms) == exact(checked.terms)
        assert list(post.terms) == [0b00]

    def test_finalize_prunes_a_cancelled_entry(self):
        # |+> and |-> at nearly equal weights: the off-diagonal sum is about -2.5e-14
        layout = RegisterLayout.of(("q", 1))
        plus = SparseState(layout, {0: SQRT_HALF, 1: SQRT_HALF})
        minus = SparseState(layout, {0: SQRT_HALF, 1: -SQRT_HALF})

        def finalize():
            acc = DensityAccumulator(layout, ["q"])
            acc.add(plus, 1.0)
            acc.add(minus, 1.0 + 1e-13)
            return acc.finalize().entries

        assert list(same_as_public(finalize)) == [(0, 0), (1, 1)]

    @settings(max_examples=12, deadline=None)
    @given(st.data())
    def test_histogram(self, data):
        k = data.draw(st.integers(1, 3), label="k")
        scheme = RandomXorScheme(data.draw(st.integers(1, 3), label="n"), k=k,
                                 t=data.draw(st.integers(0, 2), label="t"),
                                 a=data.draw(st.integers(1, 2), label="a"),
                                 randomness_size=data.draw(st.integers(1, 3), label="size"),
                                 seed=data.draw(st.integers(0, 1 << 16), label="seed"))
        protocol = CompiledProtocol(scheme, data.draw(st.booleans(), label="countermeasure"))
        i = data.draw(st.integers(1, scheme.n), label="i")
        out = _server_histograms(protocol, i)
        with full_validation():
            checked = _server_histograms(protocol, i)
        assert list(out) == list(checked)
        for key in out:
            assert exact(out[key].entries) == exact(checked[key].entries)

    def test_keys_stay_ints_through_a_numpy_relabel(self):
        layout = RegisterLayout.of(("c", 1), ("t", 3))
        state = SparseState(layout, {0b0_000: SQRT_HALF, 0b1_000: SQRT_HALF})
        out = same_as_public(lambda: conditional_xor_relabel(
            state, "c", ["t"], {1: {"t": np.int64(5)}}).terms)
        assert all(type(k) is int for k in out)


def doubled(kernel):
    def broken(*args, **kwargs):
        return {k: 2.0 * v for k, v in kernel(*args, **kwargs).items()}
    return broken


@pytest.mark.usefixtures("full_validation")
class TestChecksStayLive:
    """With full validation on, a kernel that doubles every amplitude is caught."""

    PLUS = SparseState(RegisterLayout.of(("c", 1), ("q", 2)),
                       {0b0_00: SQRT_HALF, 0b1_00: SQRT_HALF})
    OPS = {
        "tensor_terms": lambda s: tensor(s, SparseState.basis(RegisterLayout.of(("z", 1)), 0)),
        "phase_apply": lambda s: apply_phase_oracle(s, "q", lambda sub: sub & 1),
        "conditional_xor": lambda s: conditional_xor_relabel(s, "c", ["q"], {1: {"q": 3}}),
        "apply_map_terms": lambda s: apply_local_map(s, "c", hadamard),
        "scale_terms": lambda s: measurement_branches(s, "c"),
    }

    @pytest.mark.parametrize("kernel", sorted(OPS))
    def test_broken_kernel_raises(self, kernel, monkeypatch):
        monkeypatch.setattr(kernels, kernel, doubled(getattr(kernels, kernel)))
        with pytest.raises(ValueError, match=r"state norm\^2 = .*, not 1"):
            self.OPS[kernel](self.PLUS)

    def test_broken_bell_encoding_raises(self, monkeypatch):
        # the one-pass encoding calls no kernel: break its +1 factor instead
        monkeypatch.setattr(bell, "_PLUS", complex(2.0))
        state = build_bell_query(1, 2)
        with pytest.raises(ValueError, match=r"state norm\^2 = .*, not 1"):
            server_pauli(state, 1, Database.from_string("00"))

    def test_broken_accumulation_raises(self, monkeypatch):
        real = kernels.ptrace_accumulate

        def broken(acc, terms, keep, trace, weight):
            return real(acc, terms, keep, trace, 2.0 * weight)

        monkeypatch.setattr(kernels, "ptrace_accumulate", broken)
        acc = DensityAccumulator(self.PLUS.layout, ["c"])
        acc.add(self.PLUS)
        with pytest.raises(ValueError, match=r"trace = 2\.0.*, not 1"):
            acc.finalize()


def test_map_too_wide_to_check_is_refused():
    # no unitarity check enumerates a 13-bit map, so it is refused before it is called
    width = MAX_UNITARITY_CHECK_WIDTH + 1
    layout = RegisterLayout.of(("wide", width))
    state = SparseState(layout, {0: SQRT_HALF, 1: SQRT_HALF})

    def never_called(sub):
        raise AssertionError("a map too wide to check was called")

    with pytest.raises(ValueError, match="a 13-bit map is wider than the 12 bits"):
        apply_local_map(state, "wide", never_called)
