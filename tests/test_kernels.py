"""The term-map kernels on small hand-checked and randomized term maps."""

import pytest

from qspirlab import kernels


def random_terms(rng, width, count):
    keys = set()
    while len(keys) < min(count, 1 << width):
        keys.add(rng.getrandbits(width))
    return {k: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for k in keys}


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

    def test_ptrace_accumulate_second_target(self):
        # one call with a second target leaves both dicts as two separate
        # calls would: same entries to the bit, same key order
        import random

        rng = random.Random(7)
        keep, trace = ((3, 3),), ((0, 3),)
        for trial in range(20):
            start = {(0, 0): 0.25 + 0j, (5, 2): -0.5j}
            acc, also = dict(start), {}
            ref_acc, ref_also = dict(start), {}
            for weight in (0.5, 0.25, 0.25):
                terms = random_terms(rng, 6, rng.randrange(1, 9))
                kernels.ptrace_accumulate(acc, terms, keep, trace, weight, also)
                kernels.ptrace_accumulate(ref_acc, terms, keep, trace, weight)
                kernels.ptrace_accumulate(ref_also, terms, keep, trace, weight)
            assert exact(acc) == exact(ref_acc)
            assert exact(also) == exact(ref_also)

    def test_apply_map_cancellation(self):
        s = 0.5 ** 0.5
        images = {0: ((0, s), (1, s)), 1: ((0, s), (1, -s))}
        out = kernels.apply_map_terms({0b0: s, 0b1: s}, ((0, 1),), images)
        assert set(out) == {0}
        assert out[0] == pytest.approx(1.0)
