"""Dense state-vector twin of the sparse operations, for total width <= 12.

This is the brute-force oracle the sparse implementation is tested
against.  It shares nothing with the sparse code paths beyond the layout
arithmetic: states are full 2**width vectors and every operation is plain
numpy index algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Mapping, Sequence

import numpy as np

from qspirlab.registers import RegisterLayout
from qspirlab.states import PRUNE_TOL, SparseState

MAX_DENSE_WIDTH = 12


def _check_width(layout: RegisterLayout) -> None:
    if layout.width > MAX_DENSE_WIDTH:
        raise ValueError(f"dense reference limited to width {MAX_DENSE_WIDTH}, got {layout.width}")


@dataclass(frozen=True, eq=False)
class DenseState:
    layout: RegisterLayout
    vec: np.ndarray

    def __post_init__(self):
        _check_width(self.layout)
        v = np.asarray(self.vec, dtype=complex).reshape(-1)
        if v.shape[0] != 1 << self.layout.width:
            raise ValueError("vector length does not match layout width")
        object.__setattr__(self, "vec", v)

    @classmethod
    def from_sparse(cls, state: SparseState) -> "DenseState":
        _check_width(state.layout)
        v = np.zeros(1 << state.layout.width, dtype=complex)
        for k, amp in state.terms.items():
            v[k] = amp
        return cls(state.layout, v)


@lru_cache(maxsize=None)
def _sub_values(layout: RegisterLayout, names: tuple[str, ...]) -> np.ndarray:
    """sub-key of the named registers for every basis index of the layout."""
    idx = np.arange(1 << layout.width, dtype=np.int64)
    sub = np.zeros_like(idx)
    for shift, w in layout.pieces(names):
        sub = (sub << w) | ((idx >> shift) & ((1 << w) - 1))
    return sub


@lru_cache(maxsize=None)
def _scatter(layout: RegisterLayout, names: tuple[str, ...]) -> np.ndarray:
    """Matrix M[rest, sub] = full basis index, for the named target registers."""
    rest_names = tuple(n for n in layout.names if n not in names)
    sub = _sub_values(layout, names)
    rest = _sub_values(layout, rest_names) if rest_names else np.zeros(sub.shape, dtype=np.int64)
    w = sum(layout.width_of(n) for n in names)
    rest_w = layout.width - w
    mat = np.zeros((1 << rest_w, 1 << w), dtype=np.int64)
    mat[rest, sub] = np.arange(1 << layout.width, dtype=np.int64)
    return mat


def tensor(a: DenseState, b: DenseState) -> DenseState:
    return DenseState(a.layout.concat(b.layout), np.kron(a.vec, b.vec))


def apply_phase_oracle(state: DenseState, target: str | Sequence[str],
                       phase_fn: Callable[[int], int]) -> DenseState:
    names = (target,) if isinstance(target, str) else tuple(target)
    w = sum(state.layout.width_of(n) for n in names)
    table = np.array([phase_fn(s) & 1 for s in range(1 << w)], dtype=np.int64)
    signs = 1.0 - 2.0 * table[_sub_values(state.layout, names)]
    return DenseState(state.layout, state.vec * signs)


def _unitary_of(fn: Callable[[int], Mapping[int, complex]], width: int) -> np.ndarray:
    dim = 1 << width
    u = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        image = fn(col)
        if isinstance(image, SparseState):
            image = image.terms
        for row, amp in image.items():
            u[row, col] = amp
    return u


def apply_local_map(state: DenseState, target: str | Sequence[str], fn) -> DenseState:
    names = (target,) if isinstance(target, str) else tuple(target)
    w = sum(state.layout.width_of(n) for n in names)
    u = _unitary_of(fn, w)
    if not np.allclose(u.conj().T @ u, np.eye(1 << w), atol=1e-9):
        raise ValueError("map is not unitary")
    scatter = _scatter(state.layout, names)
    out = np.zeros_like(state.vec)
    block = state.vec[scatter]            # (rest, sub)
    out[scatter] = block @ u.T            # sum_sub u[sub', sub] * v[rest, sub]
    return DenseState(state.layout, out)


def conditional_xor_relabel(state, control, targets, values_by_control) -> DenseState:
    ctrl_names = (control,) if isinstance(control, str) else tuple(control)
    ctrl = _sub_values(state.layout, ctrl_names)
    full = np.zeros(1 << state.layout.width, dtype=np.int64)
    for c, per_reg in values_by_control.items():
        m = 0
        for name, value in per_reg.items():
            shift, _ = state.layout.piece(name)
            m |= value << shift
        full[ctrl == c] = m
    out = np.zeros_like(state.vec)
    idx = np.arange(1 << state.layout.width, dtype=np.int64)
    out[idx ^ full] = state.vec
    return DenseState(state.layout, out)


def measurement_branches(state: DenseState, target: str):
    sub = _sub_values(state.layout, (target,))
    probs = np.bincount(sub, weights=np.abs(state.vec) ** 2, minlength=1 << state.layout.width_of(target))
    branches = []
    for outcome, p in enumerate(probs):
        if p <= PRUNE_TOL:
            continue
        post = np.where(sub == outcome, state.vec, 0.0) / np.sqrt(p)
        branches.append((float(p), outcome, DenseState(state.layout, post)))
    return tuple(branches)


def partial_trace(state: DenseState, keep) -> tuple[np.ndarray, RegisterLayout]:
    """Dense reduced matrix over the full 2**k basis of the kept registers."""
    keep_names = state.layout.in_layout_order(keep)
    trace_names = tuple(n for n in state.layout.names if n not in keep_names)
    kw = sum(state.layout.width_of(n) for n in keep_names)
    ku = _sub_values(state.layout, keep_names)
    tu = _sub_values(state.layout, trace_names) if trace_names else np.zeros_like(ku)
    tw = state.layout.width - kw
    v = np.zeros((1 << tw, 1 << kw), dtype=complex)
    v[tu, ku] = state.vec
    rho = v.T @ v.conj()
    return rho, state.layout.sub_layout(keep_names)


def dense_of_density(dm, layout: RegisterLayout) -> np.ndarray:
    """Sparse DensityMatrix -> dense matrix over the layout's full basis."""
    _check_width(layout)
    dim = 1 << layout.width
    mat = np.zeros((dim, dim), dtype=complex)
    for (u, v), c in dm.entries.items():
        mat[u, v] = c
    return mat
