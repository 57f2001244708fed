"""Sparse operations against the dense brute-force twin.

Randomized layouts, states, and operations are applied through both code
paths and compared to 1e-12.  The case generator is deterministic in the
master seed, so every run exercises the same >= 1000 comparisons.
"""

import numpy as np
import pytest

from qspirlab.density import partial_trace, trace_distance
from qspirlab.registers import RegisterLayout
from qspirlab.states import (
    SparseState,
    apply_local_map,
    apply_phase_oracle,
    conditional_xor_relabel,
    measurement_branches,
    tensor,
)

import reference
from reference import DenseState, dense_of_density

ATOL = 1e-12


def random_layout(rng, max_width=8, prefix="r"):
    count = rng.integers(1, 4)
    widths = []
    remaining = max_width
    for _ in range(count):
        if remaining <= 0:
            break
        w = int(rng.integers(1, min(4, remaining) + 1))
        widths.append(w)
        remaining -= w
    return RegisterLayout.of(*[(f"{prefix}{j}", w) for j, w in enumerate(widths)])


def random_state(rng, layout):
    dim = 1 << layout.width
    support = rng.choice(dim, size=min(dim, int(rng.integers(1, 9))), replace=False)
    amps = rng.normal(size=len(support)) + 1j * rng.normal(size=len(support))
    amps /= np.linalg.norm(amps)
    return SparseState(layout, {int(k): complex(a) for k, a in zip(support, amps)})


def as_vec(state: SparseState) -> np.ndarray:
    return DenseState.from_sparse(state).vec


def random_unitary_map(rng, width):
    dim = 1 << width
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    q = q @ np.diag(np.diag(r) / np.abs(np.diag(r)))
    columns = {
        col: {row: complex(q[row, col]) for row in range(dim) if abs(q[row, col]) > 1e-16}
        for col in range(dim)
    }
    return lambda sub, _c=columns: _c[sub]


def check_case(rng) -> int:
    """Run one randomized comparison block; returns the number of checks."""
    layout = random_layout(rng)
    state = random_state(rng, layout)
    dense = DenseState.from_sparse(state)
    checks = 0

    # tensor against a second small state
    other_layout = random_layout(rng, max_width=min(4, 12 - layout.width), prefix="s")
    other = random_state(rng, other_layout)
    got = as_vec(tensor(state, other))
    want = reference.tensor(dense, DenseState.from_sparse(other)).vec
    np.testing.assert_allclose(got, want, atol=ATOL)
    checks += 1

    # phase oracle on a random register
    table = {}
    name = layout.names[int(rng.integers(0, len(layout.names)))]
    fn = lambda sub, _t=table: _t.setdefault(sub, int(rng.integers(0, 2)))
    sparse_out = apply_phase_oracle(state, name, fn)
    dense_out = reference.apply_phase_oracle(dense, name, lambda s: table.get(s, 0))
    np.testing.assert_allclose(as_vec(sparse_out), dense_out.vec, atol=ATOL)
    checks += 1

    # local unitary on one or two registers (joint width capped at 4)
    names = [n for n in layout.names]
    rng.shuffle(names)
    targets = []
    width = 0
    for n in names:
        if width + layout.width_of(n) <= 4 and len(targets) < 2:
            targets.append(n)
            width += layout.width_of(n)
    if targets:
        fn = random_unitary_map(rng, width)
        sparse_out = apply_local_map(state, tuple(targets), fn)
        dense_out = reference.apply_local_map(dense, tuple(targets), fn)
        np.testing.assert_allclose(as_vec(sparse_out), dense_out.vec, atol=ATOL)
        checks += 1

    # conditional XOR relabel, control = first register, targets = the rest
    if len(layout.names) >= 2:
        ctrl = layout.names[0]
        rest = layout.names[1:]
        values = {}
        for c in range(1 << layout.width_of(ctrl)):
            if rng.integers(0, 2):
                values[c] = {
                    n: int(rng.integers(0, 1 << layout.width_of(n))) for n in rest
                }
        sparse_out = conditional_xor_relabel(state, ctrl, rest, values)
        dense_out = reference.conditional_xor_relabel(dense, ctrl, rest, values)
        np.testing.assert_allclose(as_vec(sparse_out), dense_out.vec, atol=ATOL)
        checks += 1

    # partial trace over a random nonempty keep set
    keep = [n for n in layout.names if rng.integers(0, 2)] or [layout.names[0]]
    rho = partial_trace(state, keep)
    got = dense_of_density(rho, rho.layout)
    want, _ = reference.partial_trace(dense, keep)
    np.testing.assert_allclose(got, want, atol=ATOL)
    checks += 1

    # measurement branches on a random register
    name = layout.names[int(rng.integers(0, len(layout.names)))]
    sparse_branches = measurement_branches(state, name)
    dense_branches = reference.measurement_branches(dense, name)
    assert len(sparse_branches) == len(dense_branches)
    for (p1, o1, post1), (p2, o2, post2) in zip(sparse_branches, dense_branches):
        assert o1 == o2
        assert p1 == pytest.approx(p2, abs=ATOL)
        np.testing.assert_allclose(as_vec(post1), post2.vec, atol=ATOL)
    checks += 1
    return checks


def test_randomized_equivalence_corpus():
    rng = np.random.default_rng(20240817)
    total = 0
    cases = 0
    while total < 1000:
        total += check_case(rng)
        cases += 1
    assert total >= 1000
    assert cases >= 150


def test_small_width_exhaustive_agreement():
    # every operation on every basis state for widths 1..3
    for width in (1, 2, 3):
        layout = RegisterLayout.of(("x", width))
        for key in range(1 << width):
            state = SparseState.basis(layout, key)
            dense = DenseState.from_sparse(state)
            out = apply_phase_oracle(state, "x", lambda z: z & 1)
            ref = reference.apply_phase_oracle(dense, "x", lambda z: z & 1)
            np.testing.assert_allclose(as_vec(out), ref.vec, atol=ATOL)
            rho = partial_trace(state, ["x"])
            want, _ = reference.partial_trace(dense, ["x"])
            np.testing.assert_allclose(dense_of_density(rho, layout), want, atol=ATOL)


def test_norm_preserved_by_all_operations():
    rng = np.random.default_rng(7)
    for _ in range(50):
        layout = random_layout(rng)
        state = random_state(rng, layout)
        name = layout.names[0]
        for out in (
            apply_phase_oracle(state, name, lambda z: z & 1),
            apply_local_map(state, name, random_unitary_map(rng, layout.width_of(name))),
        ):
            assert sum(abs(v) ** 2 for v in out.terms.values()) == pytest.approx(1.0, abs=1e-9)


def test_phase_oracle_commutes_with_disjoint_partial_trace():
    rng = np.random.default_rng(11)
    for _ in range(40):
        left = random_state(rng, random_layout(rng, max_width=4, prefix="l"))
        right = random_state(rng, random_layout(rng, max_width=4, prefix="m"))
        prod = tensor(left, right)
        target = right.layout.names[0]
        keep = list(left.layout.names)
        before = partial_trace(prod, keep)
        after = partial_trace(apply_phase_oracle(prod, target, lambda z: z & 1), keep)
        assert trace_distance(before, after) == pytest.approx(0.0, abs=1e-9)


def test_partial_trace_linear_under_mixing():
    from qspirlab.density import mix

    rng = np.random.default_rng(13)
    layout = RegisterLayout.of(("a", 2), ("b", 1))
    for _ in range(30):
        s1 = random_state(rng, layout)
        s2 = random_state(rng, layout)
        w = float(rng.uniform(0.1, 0.9))
        mixed = mix([w, 1 - w], [partial_trace(s1, ["a"]), partial_trace(s2, ["a"])])
        direct_a = dense_of_density(mixed, mixed.layout)
        v1, _ = reference.partial_trace(DenseState.from_sparse(s1), ["a"])
        v2, _ = reference.partial_trace(DenseState.from_sparse(s2), ["a"])
        np.testing.assert_allclose(direct_a, w * v1 + (1 - w) * v2, atol=1e-12)
