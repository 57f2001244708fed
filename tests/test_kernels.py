"""The term-map kernels on small hand-checked and randomized term maps.

Merged pieces (a run of adjacent registers read as one bit field) must give
what one piece per register gives, and a checked local map's columns are
kept from its unitarity check.
"""

import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from qspirlab import kernels
from qspirlab.compiler import CompiledProtocol
from qspirlab.registers import RegisterLayout
from qspirlab.schemes import make_scheme
from qspirlab.states import SparseState, apply_local_map, hadamard


def exact(entries):
    """Every entry to the bit, in key order."""
    return [(key, c.real.hex(), c.imag.hex()) for key, c in entries.items()]


class TestSingleBackend:
    def test_tensor(self):
        out = kernels.tensor_terms({0b1: 0.5 + 0.5j}, {0b10: 1 + 0j}, 2)
        assert out == {0b110: 0.5 + 0.5j}

    def test_phase(self):
        out = kernels.phase_apply({0b10: 1 + 0j, 0b00: 0.5j}, 1, 1, {0: 0, 1: 1})
        assert out == {0b10: -1 + 0j, 0b00: 0.5j}

    def test_xor(self):
        assert kernels.xor_relabel({0b01: 1.0}, 1, 1) == {0b11: 1.0}

    def test_extract_insert_round_trip(self):
        pieces = ((4, 2), (0, 3))
        key = 0b1101101
        sub = kernels.extract_sub(key, pieces)
        assert kernels.insert_sub(key, pieces, sub) == key
        assert kernels.insert_sub(0, pieces, sub) == (key & 0b0110111)

    def test_conditional_xor(self):
        out = kernels.conditional_xor({0b100: 1.0, 0b000: 0.0j + 1.0}, ((2, 1),), {1: 0b011})
        assert out == {0b111: 1.0, 0b000: 1.0}

    def test_masked_parities(self):
        # parities of 1011 against the masks: 1010 -> 0, 0001 -> 1, 0000 -> 0
        assert kernels.masked_parities(0b1011, (0b1010, 0b0001, 0b0000)) == 0b010
        assert kernels.masked_parities(0b1011, (0b1000,)) == 0b1

    def test_dot2(self):
        assert kernels.dot2(0b1011, 0b1110) == 0
        assert kernels.dot2(0b1011, 0b0110) == 1

    def test_ptrace_accumulate(self):
        acc = {}
        # Bell pair on two 1-bit pieces; keep the first
        s = 0.5 ** 0.5
        kernels.ptrace_accumulate(acc, {0b00: s, 0b11: s}, ((1, 1),), ((0, 1),), 1.0)
        assert acc[(0, 0)] == pytest.approx(0.5)
        assert acc[(1, 1)] == pytest.approx(0.5)
        assert (0, 1) not in acc

    def test_apply_map_cancellation(self):
        s = 0.5 ** 0.5
        images = {0: ((0, s), (1, s)), 1: ((0, s), (1, -s))}
        out = kernels.apply_map_terms({0b0: s, 0b1: s}, ((0, 1),), images)
        assert set(out) == {0}
        assert out[0] == pytest.approx(1.0)


# --- merged pieces ----------------------------------------------------------

def layouts(max_width=3):
    """Layouts of 1 to 5 registers; with ``max_width`` 40, keys pass 64 bits."""
    widths = st.integers(1, 3) | st.sampled_from([max_width])
    return st.lists(widths, min_size=1, max_size=5).map(
        lambda ws: RegisterLayout.of(*((f"r{j}", w) for j, w in enumerate(ws))))


@st.composite
def name_runs(draw, layout):
    """Some of the layout's names: one run in layout order, or any selection in any order."""
    names = layout.names
    if draw(st.booleans()):
        start = draw(st.integers(0, len(names) - 1))
        return names[start:draw(st.integers(start + 1, len(names)))]
    return tuple(draw(st.lists(st.sampled_from(names), unique=True, min_size=1)))


@st.composite
def term_maps(draw, layout, max_size=8):
    """Keys with uniform random bits: wide integers drawn directly lean to small values."""
    rng = random.Random(draw(st.integers(0, 1 << 32)))
    keys = {rng.getrandbits(layout.width) for _ in range(draw(st.integers(1, max_size)))}
    return {k: complex(draw(amplitudes()), draw(amplitudes())) for k in keys}


def amplitudes():
    return st.floats(-1, 1, allow_nan=False).filter(lambda f: abs(f) > 1e-3)


def per_register(layout, names):
    """One piece per register: the pieces before any merging."""
    return tuple(layout.piece(n) for n in names)


def ptrace_by_sub_keys(acc, terms, keep_pieces, trace_pieces, weight):
    """The partial trace spelled out: terms grouped by their traced sub-key."""
    groups = {}
    for k, v in terms.items():
        groups.setdefault(kernels.extract_sub(k, trace_pieces), []).append(
            (kernels.extract_sub(k, keep_pieces), v))
    for items in groups.values():
        for u, a in items:
            for v2, b in items:
                c = weight * a * b.conjugate()
                acc[u, v2] = acc[u, v2] + c if (u, v2) in acc else c


class TestMergedPieces:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_merges_exactly_the_adjacent_runs(self, data):
        layout = data.draw(layouts())
        names = data.draw(name_runs(layout))
        position = {n: j for j, n in enumerate(layout.names)}
        runs = []
        for name in names:
            if runs and position[name] == position[runs[-1][-1]] + 1:
                runs[-1].append(name)
            else:
                runs.append([name])
        want = tuple((layout.piece(run[-1])[0], sum(layout.width_of(n) for n in run))
                     for run in runs)
        assert layout.pieces(names) == want
        assert layout.pieces(list(names)) == want

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_same_sub_keys(self, data):
        layout = data.draw(layouts(40))
        names = data.draw(name_runs(layout))
        merged, single = layout.pieces(names), per_register(layout, names)
        for key in data.draw(term_maps(layout)):
            sub = kernels.extract_sub(key, single)
            assert kernels.extract_sub(key, merged) == sub
            assert kernels.insert_sub(key, merged, sub ^ 1) == \
                kernels.insert_sub(key, single, sub ^ 1)

    def test_compiled_wide_layout_is_one_piece_per_run(self):
        # qspir(subset2) at n = 40: sign | srv1 | srv2 over 83 bits
        layout = CompiledProtocol(make_scheme("subset2", 40)).layout()
        assert layout.width == 83
        assert layout.pieces(("srv1", "srv2")) == ((0, 82),)
        assert layout.pieces(("sign", "srv2")) == (layout.piece("sign"), layout.piece("srv2"))


class TestKernelsOnMergedPieces:
    """Each kernel gives the same output, to the bit and in key order, on merged pieces.

    The partial trace groups terms by their traced bits, not their traced
    sub-key; it must give what grouping by the sub-key gives, to the bit.
    """

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.booleans())
    def test_ptrace_accumulate(self, data, trace_nothing):
        layout = data.draw(layouts(40))
        keep = layout.names if trace_nothing else data.draw(name_runs(layout))
        trace = tuple(data.draw(st.permutations([n for n in layout.names if n not in keep])))
        mixture = data.draw(st.lists(
            st.tuples(st.floats(0.05, 1), term_maps(layout)), min_size=1, max_size=3))

        def accumulate(ptrace, keep_pieces, trace_pieces):
            acc = {(0, 0): 0.25 + 0j}
            for weight, terms in mixture:
                ptrace(acc, terms, keep_pieces, trace_pieces, weight)
            return exact(acc)

        assert not trace_nothing or layout.pieces(trace) == ()
        single = per_register(layout, keep), per_register(layout, trace)
        want = accumulate(ptrace_by_sub_keys, *single)
        assert accumulate(kernels.ptrace_accumulate, *single) == want
        assert accumulate(kernels.ptrace_accumulate, layout.pieces(keep),
                          layout.pieces(trace)) == want

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_apply_map_terms(self, data):
        layout = data.draw(layouts(40))
        names = data.draw(name_runs(layout))
        single = per_register(layout, names)
        width = sum(w for _, w in single)
        terms = data.draw(term_maps(layout))
        sub_keys = st.integers(0, (1 << width) - 1)
        image = st.lists(st.tuples(sub_keys, amplitudes().map(complex)), min_size=1, max_size=3)
        images = {kernels.extract_sub(k, single): tuple(data.draw(image)) for k in terms}
        assert exact(kernels.apply_map_terms(terms, layout.pieces(names), images)) == \
            exact(kernels.apply_map_terms(terms, single, images))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_conditional_xor(self, data):
        layout = data.draw(layouts(40))
        control = data.draw(name_runs(layout))
        single = per_register(layout, control)
        ctrl_bits = sum(((1 << w) - 1) << shift for shift, w in single)
        terms = data.draw(term_maps(layout))
        free = st.integers(0, (1 << layout.width) - 1).map(lambda m: m & ~ctrl_bits)
        masks = {kernels.extract_sub(k, single): data.draw(free) for k in terms}
        assert exact(kernels.conditional_xor(terms, layout.pieces(control), masks)) == \
            exact(kernels.conditional_xor(terms, single, masks))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_branch_split(self, data):
        layout = data.draw(layouts(40))
        names = data.draw(name_runs(layout))
        terms = data.draw(term_maps(layout))
        merged = kernels.branch_split(terms, layout.pieces(names))
        single = kernels.branch_split(terms, per_register(layout, names))
        assert [(sub, exact(group)) for sub, group in merged.items()] == \
            [(sub, exact(group)) for sub, group in single.items()]


# --- kept columns -----------------------------------------------------------

class Counted:
    """A Hadamard that counts its calls."""

    def __init__(self):
        self.calls = 0

    def __call__(self, sub):
        self.calls += 1
        return hadamard(sub)


class CountedNoWeakref:
    """The same, in a class whose instances take no weak reference."""

    __slots__ = ("calls",)
    __init__ = Counted.__init__
    __call__ = Counted.__call__


class TestKeptColumns:
    LAYOUT = RegisterLayout.of(("a", 1), ("b", 2))

    def apply_three_times(self, fn):
        states = [SparseState.basis(self.LAYOUT, key) for key in (0b000, 0b011, 0b110)]
        return [exact(apply_local_map(state, "a", fn).terms) for state in states]

    def test_checked_map_is_called_only_by_the_check(self):
        fn = Counted()
        outs = self.apply_three_times(fn) + self.apply_three_times(fn)
        assert fn.calls == 2  # the check's one call per column, at width 1
        assert outs == 2 * self.apply_three_times(hadamard)

    def test_callable_without_weakref_is_checked_every_time(self):
        fn = CountedNoWeakref()
        with pytest.raises(TypeError):
            weakref.ref(fn)
        assert self.apply_three_times(fn) == self.apply_three_times(hadamard)
        assert fn.calls == 3 * 2
