"""Sparse Hermitian operators on register subsets, and distance measures.

Density matrices here are keyed by (row, column) basis pairs over a
sub-layout of kept registers.  They stay tiny in honest protocols but can
grow to a few thousand diagonal entries in exhaustive audits, so
``trace_distance`` takes a closed-form path for diagonal operators and a
dense eigendecomposition on the joint support otherwise.  That dense path
and ``DensityMatrix.dense`` are the package's only numpy code, and they
import it when called, so ``import qspirlab`` does not load numpy.

Validation happens at the boundary.  The ``DensityMatrix`` constructor,
which ``mix``, ``maximally_mixed`` and every caller that assembles entries
by hand use, converts keys to int pairs and entries to complex and checks
real diagonals, Hermiticity and unit trace.  ``DensityAccumulator.finalize``
and the audits' diagonal histograms build through ``DensityMatrix._trusted``
instead, which prunes with the constructor's own step and skips the rest:
their entries are sums of ``w * a * conj(b)`` over validated states' terms,
divided by the total weight, so they are Hermitian with unit trace by
construction.  ``to_pure`` keeps ``SparseState``'s norm check, since its
result is only as pure as the purity tolerance allows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

from . import kernels
from .registers import RegisterLayout
from .states import NORM_TOL, PRUNE_TOL, SparseState, _pruned


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    layout: RegisterLayout
    entries: Mapping[tuple[int, int], complex]

    def __post_init__(self):
        pruned = _pruned({(int(u), int(v)): complex(c) for (u, v), c in self.entries.items()})
        trace = 0.0
        for (u, v), c in pruned.items():
            if u == v:
                if abs(c.imag) > NORM_TOL:
                    raise ValueError(f"diagonal entry at {u} not real: {c}")
                trace += c.real
            else:
                other = pruned.get((v, u), 0j)
                if abs(c - other.conjugate()) > NORM_TOL:
                    raise ValueError(f"not Hermitian at ({u},{v}): {c} vs {other}")
        if abs(trace - 1.0) > NORM_TOL:
            raise ValueError(f"trace = {trace!r}, not 1 within {NORM_TOL}")
        object.__setattr__(self, "entries", pruned)

    @classmethod
    def _trusted(cls, layout: RegisterLayout,
                 entries: Mapping[tuple[int, int], complex]) -> "DensityMatrix":
        """The constructor's pruning without its conversions and checks.

        Only for int-pair keys and complex entries built as a normalised
        mixture of validated states' projectors (see the module docstring).
        """
        rho = object.__new__(cls)
        fields = vars(rho)  # written directly: frozen, and faster than object.__setattr__
        fields["layout"] = layout
        fields["entries"] = _pruned(entries)
        return rho

    @property
    def is_diagonal(self) -> bool:
        return all(u == v for u, v in self.entries)

    def entry(self, row: int | str, col: int | str) -> complex:
        if isinstance(row, str):
            row = self.layout.key_of(row)
        if isinstance(col, str):
            col = self.layout.key_of(col)
        return self.entries.get((row, col), 0j)

    def support(self) -> tuple[int, ...]:
        keys = {u for u, _ in self.entries} | {v for _, v in self.entries}
        return tuple(sorted(keys))

    def dense(self, basis: Sequence[int] | None = None) -> tuple["numpy.ndarray", tuple[int, ...]]:
        """Dense matrix on the given (or own) support basis."""
        import numpy as np

        basis = tuple(basis) if basis is not None else self.support()
        index = {k: j for j, k in enumerate(basis)}
        mat = np.zeros((len(basis), len(basis)), dtype=complex)
        for (u, v), c in self.entries.items():
            mat[index[u], index[v]] = c
        return mat, basis

    def purity(self) -> float:
        return sum(abs(c) ** 2 for c in self.entries.values())

    def to_pure(self, tol: float = NORM_TOL) -> SparseState | None:
        """Extract |psi> when this operator is a rank-1 projector, else None.

        The global phase of the result is arbitrary, which is fine everywhere
        this is used: comparisons are phase-canonical.
        """
        if abs(self.purity() - 1.0) > tol:
            return None
        anchor = max(
            (k for k in self.support() if abs(self.entries.get((k, k), 0j)) > tol),
            key=lambda k: (self.entries[(k, k)].real, -k),
        )
        norm = self.entries[(anchor, anchor)].real ** 0.5
        terms = {}
        for u in self.support():
            amp = self.entries.get((u, anchor), 0j) / norm
            if abs(amp) > PRUNE_TOL:
                terms[u] = amp
        return SparseState(self.layout, terms)

    def __repr__(self):
        diag = {self.layout.key_bits(u): round(c.real, 6) for (u, v), c in sorted(self.entries.items()) if u == v}
        kind = "diagonal" if self.is_diagonal else f"{len(self.entries)} entries"
        return f"DensityMatrix({kind}, diag={diag})"


@lru_cache(maxsize=1024)
def _geometry(state_layout: RegisterLayout, keep: frozenset):
    """(keep names, sub-layout, keep pieces, trace pieces) of a keep set, built once."""
    keep_names = state_layout.in_layout_order(keep)
    if not keep_names:
        raise ValueError("keep set must be nonempty")
    trace_names = tuple(n for n in state_layout.names if n not in keep_names)
    return (keep_names, state_layout.sub_layout(keep_names), state_layout.pieces(keep_names),
            state_layout.pieces(trace_names))


class DensityAccumulator:
    """Builds a mixture of reduced states without materializing each one."""

    def __init__(self, state_layout: RegisterLayout, keep: Iterable[str]):
        self.keep_names, self.layout, self._keep_pieces, self._trace_pieces = \
            _geometry(state_layout, frozenset(keep))
        self._state_layout = state_layout
        self._entries: dict[tuple[int, int], complex] = {}
        self._weight = 0.0

    def add(self, state: SparseState, weight: float = 1.0) -> None:
        """Add ``weight`` times the reduced state."""
        if state.layout != self._state_layout:
            raise ValueError("state layout does not match accumulator layout")
        kernels.ptrace_accumulate(
            self._entries, state.terms, self._keep_pieces, self._trace_pieces, weight)
        self._weight += weight

    def add_branches(self, branches: Iterable[tuple[float, SparseState]], weight: float = 1.0) -> None:
        for p, state in branches:
            self.add(state, weight * p)

    def finalize(self) -> DensityMatrix:
        if self._weight <= 0:
            raise ValueError("nothing accumulated")
        scale = 1.0 / self._weight
        return DensityMatrix._trusted(self.layout,
                                      {k: v * scale for k, v in self._entries.items()})


def partial_trace(state: SparseState, keep: Iterable[str]) -> DensityMatrix:
    """Reduced density matrix of a pure state on the kept registers.

    Kept registers are reordered to layout order, so the result is canonical
    regardless of how ``keep`` is spelled.
    """
    acc = DensityAccumulator(state.layout, keep)
    acc.add(state, 1.0)
    return acc.finalize()


def mix(weights: Sequence[float], states: Sequence[DensityMatrix]) -> DensityMatrix:
    """Convex combination of density matrices on a common layout."""
    if len(weights) != len(states):
        raise ValueError(f"{len(weights)} weights for {len(states)} states")
    if not states:
        raise ValueError("empty mixture")
    if any(w < -PRUNE_TOL for w in weights):
        raise ValueError("negative weight")
    total = sum(weights)
    if abs(total - 1.0) > NORM_TOL:
        raise ValueError(f"weights sum to {total}, not 1")
    layout = states[0].layout
    entries: dict[tuple[int, int], complex] = {}
    for w, dm in zip(weights, states):
        if dm.layout != layout:
            raise ValueError("layout mismatch in mixture")
        for k, c in dm.entries.items():
            entries[k] = entries.get(k, 0j) + w * c
    return DensityMatrix(layout, entries)


def trace_distance(p: DensityMatrix, q: DensityMatrix) -> float:
    """(1/2) * sum of |eigenvalues| of p - q on the joint support.

    Diagonal operators reduce to half the l1 distance of their diagonals;
    everything else goes through a dense Hermitian eigendecomposition.
    """
    if p.layout != q.layout:
        raise ValueError("layout mismatch")
    if p.entries == q.entries:
        return 0.0  # what both paths below return on identical entries
    if p.is_diagonal and q.is_diagonal:
        keys = {u for u, _ in p.entries} | {u for u, _ in q.entries}
        return 0.5 * sum(
            abs(p.entries.get((u, u), 0j).real - q.entries.get((u, u), 0j).real) for u in keys
        )
    import numpy as np

    basis = tuple(sorted(set(p.support()) | set(q.support())))
    mp, _ = p.dense(basis)
    mq, _ = q.dense(basis)
    diff = mp - mq
    diff = (diff + diff.conj().T) / 2.0
    return 0.5 * float(np.abs(np.linalg.eigvalsh(diff)).sum())


def entries_close(p: DensityMatrix, q: DensityMatrix, tol: float = NORM_TOL) -> bool:
    if p.layout != q.layout:
        return False
    for k in p.entries.keys() | q.entries.keys():
        if abs(p.entries.get(k, 0j) - q.entries.get(k, 0j)) > tol:
            return False
    return True


def maximally_mixed(layout: RegisterLayout) -> DensityMatrix:
    dim = 1 << layout.width
    return DensityMatrix(layout, {(k, k): 1.0 / dim for k in range(dim)})
