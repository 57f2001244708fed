"""Both kernel backends expose identical semantics.

The compiled extension is exercised against the pure-Python module on
randomized term maps, including keys wider than a machine word (the fast
paths must hand off to the object paths correctly).
"""

import pytest

from qspirlab import _kernels_py

try:
    from qspirlab import _kernels
    BACKENDS = [_kernels_py, _kernels]
except ImportError:  # pure-Python install
    _kernels = None
    BACKENDS = [_kernels_py]

needs_both = pytest.mark.skipif(_kernels is None, reason="compiled kernels unavailable")


def random_terms(rng, width, count):
    keys = set()
    while len(keys) < min(count, 1 << width):
        keys.add(rng.getrandbits(width))
    return {k: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for k in keys}


def exact(entries):
    """Every entry to the bit, in key order."""
    return [(key, c.real.hex(), c.imag.hex()) for key, c in entries.items()]


@pytest.mark.parametrize("impl", BACKENDS, ids=lambda m: m.BACKEND)
class TestSingleBackend:
    def test_tensor(self, impl):
        out = impl.tensor_terms({0b1: 0.5 + 0.5j}, {0b10: 1 + 0j}, 2, 3)
        assert out == {0b110: 0.5 + 0.5j}

    def test_phase(self, impl):
        out = impl.phase_apply({0b10: 1 + 0j, 0b00: 0.5j}, 1, 1, {0: 0, 1: 1}, 2)
        assert out == {0b10: -1 + 0j, 0b00: 0.5j}

    def test_xor(self, impl):
        assert impl.xor_relabel({0b01: 1.0}, 1, 1, 2) == {0b11: 1.0}

    def test_extract_insert_round_trip(self, impl):
        pieces = ((4, 2), (0, 3))
        key = 0b1101101
        sub = impl.extract_sub(key, pieces)
        assert impl.insert_sub(key, pieces, sub) == key
        assert impl.insert_sub(0, pieces, sub) == (key & 0b0110111)

    def test_conditional_xor(self, impl):
        out = impl.conditional_xor({0b100: 1.0, 0b000: 0.0j + 1.0}, ((2, 1),), {1: 0b011}, 3)
        assert out == {0b111: 1.0, 0b000: 1.0}

    def test_masked_parities(self, impl):
        # parities of 1011 against the masks: 1010 -> 0, 0001 -> 1, 0000 -> 0
        assert impl.masked_parities(0b1011, (0b1010, 0b0001, 0b0000), 4) == 0b010
        assert impl.masked_parities(0b1011, (0b1000,), 4) == 0b1

    def test_dot2(self, impl):
        assert impl.dot2(0b1011, 0b1110, 4) == 0
        assert impl.dot2(0b1011, 0b0110, 4) == 1

    def test_ptrace_accumulate(self, impl):
        acc = {}
        # Bell pair on two 1-bit pieces; keep the first
        s = 0.5 ** 0.5
        impl.ptrace_accumulate(acc, {0b00: s, 0b11: s}, ((1, 1),), ((0, 1),), 1.0, 2)
        assert acc[(0, 0)] == pytest.approx(0.5)
        assert acc[(1, 1)] == pytest.approx(0.5)
        assert (0, 1) not in acc

    def test_ptrace_accumulate_second_target(self, impl):
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
                impl.ptrace_accumulate(acc, terms, keep, trace, weight, 6, also)
                impl.ptrace_accumulate(ref_acc, terms, keep, trace, weight, 6)
                impl.ptrace_accumulate(ref_also, terms, keep, trace, weight, 6)
            assert exact(acc) == exact(ref_acc)
            assert exact(also) == exact(ref_also)

    def test_apply_map_cancellation(self, impl):
        s = 0.5 ** 0.5
        images = {0: ((0, s), (1, s)), 1: ((0, s), (1, -s))}
        out = impl.apply_map_terms({0b0: s, 0b1: s}, ((0, 1),), images, 1)
        assert set(out) == {0}
        assert out[0] == pytest.approx(1.0)


@needs_both
class TestBackendEquivalence:
    @pytest.mark.parametrize("width", [3, 8, 40, 70, 200])
    def test_randomized_against_pure_python(self, width):
        import random

        rng = random.Random(width)
        for trial in range(30):
            terms = random_terms(rng, width, 6)
            shift = rng.randrange(0, width)
            sub_w = rng.randrange(1, min(8, width - shift) + 1)
            mask = (1 << sub_w) - 1
            table = {(k >> shift) & mask: rng.randrange(2) for k in terms}
            a = _kernels.phase_apply(terms, shift, mask, table, width)
            b = _kernels_py.phase_apply(terms, shift, mask, table, width)
            assert a == b

            value = rng.getrandbits(sub_w)
            assert _kernels.xor_relabel(terms, shift, value, width) == \
                _kernels_py.xor_relabel(terms, shift, value, width)

            pieces = ((shift, sub_w),)
            masks_by = {c: rng.getrandbits(width) & ~(mask << shift)
                        for c in range(min(1 << sub_w, 8))}
            assert _kernels.conditional_xor(terms, pieces, masks_by, width) == \
                _kernels_py.conditional_xor(terms, pieces, masks_by, width)

            acc_c, acc_py = {}, {}
            keep = ((0, min(4, width)),)
            trace = ((min(4, width), width - min(4, width)),)
            also_c, also_py = {(0, 0): 0.5 + 0j}, {(0, 0): 0.5 + 0j}
            _kernels.ptrace_accumulate(acc_c, terms, keep, trace, 0.5, width, also_c)
            _kernels_py.ptrace_accumulate(acc_py, terms, keep, trace, 0.5, width, also_py)
            for c_side, py_side in ((acc_c, acc_py), (also_c, also_py)):
                assert list(c_side) == list(py_side)
                for k in c_side:
                    assert c_side[k] == pytest.approx(py_side[k], abs=1e-15)

            x = rng.getrandbits(width)
            masks = tuple(rng.getrandbits(width) for _ in range(5))
            assert _kernels.masked_parities(x, masks, width) == \
                _kernels_py.masked_parities(x, masks, width)

    def test_tensor_wide_keys(self):
        a = {(1 << 80) | 3: 0.6 + 0.8j}
        b = {(1 << 30) | 1: 1.0 + 0j}
        wide = _kernels.tensor_terms(a, b, 31, 113)
        pure = _kernels_py.tensor_terms(a, b, 31, 113)
        assert wide == pure


def test_backend_selector_exposes_active_module(monkeypatch):
    from qspirlab import kernels

    assert kernels.BACKEND in ("c", "py")
    assert kernels.tensor_terms({0: 1.0}, {1: 1.0}, 1, 1) == {1: 1.0}


def test_forced_pure_python_subprocess():
    import subprocess
    import sys
    from pathlib import Path

    # A fresh interpreter on this checkout's sources, whose env holds only the
    # switch under test and the source path: neither an installed package nor
    # a QSPIRLAB_KERNELS set in the parent can decide the backend.
    root = Path(__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c",
         "from qspirlab.kernels import BACKEND; print(BACKEND)"],
        env={"QSPIRLAB_KERNELS": "py", "PATH": "/usr/bin:/bin",
             "PYTHONPATH": str(root / "src")},
        capture_output=True, text=True, cwd=root,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "py"
