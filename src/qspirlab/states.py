"""Sparse pure quantum states over named bit registers.

Every protocol state in this package is a superposition of a handful of
classical basis strings, so states are finite maps from basis keys to
complex amplitudes rather than dense vectors.  All operations return new
states; nothing here mutates.  A dense vector twin for small widths lives
in the test suite (``tests/reference.py``) as an independent test oracle.

Validation happens at the boundary.  The ``SparseState`` constructor,
which ``basis``, ``from_bits`` and every other caller outside this module
use, converts keys to int and amplitudes to complex and checks key range
and norm.  The dict ops here build their results through
``SparseState._trusted`` instead, which skips all of it: their inputs are
validated states, and each op keeps keys in range and the norm at 1 by
construction.  Those ops are a sign flip, a tensor product, an XOR relabel
with range-checked masks, a renormalised measurement branch, and a local
map checked unitary; ``bell.server_pauli`` (an XOR mask and a sign per
term) is the one such op outside this module.

Every state is pruned: no amplitude is at or below PRUNE_TOL.  ``_trusted``
does not prune, so the ops whose arithmetic can make a new small amplitude
prune as the constructor does (the same terms, in the same order):
``tensor_terms``, ``apply_map_terms`` and the measurement renormalisation.
Sign flips and XOR relabels keep every magnitude of a pruned input.

Every local map is checked unitary, so one wider than
``MAX_UNITARITY_CHECK_WIDTH``, whose check would enumerate too many columns,
is refused.  A checked map keeps the columns its unitarity check built, per
callable and width: later applications look its images up instead of
calling it again.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from . import kernels
from .registers import RegisterLayout

PRUNE_TOL = 1e-12   # amplitudes below this are dropped
NORM_TOL = 1e-9     # norm / unitarity / audit comparisons

SQRT_HALF = math.sqrt(0.5)


class NonUnitaryMapError(ValueError):
    """A local map failed the unitarity check on its basis."""


def _pruned(terms: Mapping) -> dict:
    """``terms`` without the values at or below PRUNE_TOL in magnitude, in order.

    The one pruning step of both ``SparseState`` and ``DensityMatrix``.
    """
    return {k: v for k, v in terms.items() if abs(v) > PRUNE_TOL}


@dataclass(frozen=True, eq=False)
class SparseState:
    layout: RegisterLayout
    terms: Mapping[int, complex]

    def __post_init__(self):
        top = 1 << self.layout.width
        terms = {}
        for k, v in self.terms.items():
            if not 0 <= k < top:
                raise ValueError(f"basis key {k} outside layout width {self.layout.width}")
            terms[int(k)] = complex(v)
        pruned = _pruned(terms)
        object.__setattr__(self, "terms", pruned)
        n = kernels.norm_sq(pruned)
        if abs(n - 1.0) > NORM_TOL:
            raise ValueError(f"state norm^2 = {n!r}, not 1 within {NORM_TOL}")

    @classmethod
    def _trusted(cls, layout: RegisterLayout, terms: dict[int, complex]) -> "SparseState":
        """The state ``terms`` already is, without the constructor's conversions and checks.

        Only for pruned int keys and complex amplitudes that an op here built
        from validated states in a way that keeps keys in range and the norm
        at 1 (see the module docstring).  ``terms`` is kept, not copied.
        """
        state = object.__new__(cls)
        fields = vars(state)  # written directly: frozen, and faster than object.__setattr__
        fields["layout"] = layout
        fields["terms"] = terms
        return state

    @classmethod
    def basis(cls, layout: RegisterLayout, key: int | str) -> "SparseState":
        if isinstance(key, str):
            key = layout.key_of(key)
        return cls(layout, {key: 1.0 + 0.0j})

    @classmethod
    def from_bits(cls, layout: RegisterLayout, amplitudes: Mapping[str, complex]) -> "SparseState":
        return cls(layout, {layout.key_of(s): a for s, a in amplitudes.items()})

    def amplitude(self, key: int | str) -> complex:
        if isinstance(key, str):
            key = self.layout.key_of(key)
        return self.terms.get(key, 0j)

    def bits_terms(self) -> dict[str, complex]:
        return {self.layout.key_bits(k): v for k, v in sorted(self.terms.items())}

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self.terms))

    def __repr__(self):
        parts = [f"{v:.4g}|{s}>" for s, v in list(self.bits_terms().items())[:6]]
        more = "" if len(self.terms) <= 6 else f" ... ({len(self.terms)} terms)"
        return f"SparseState({' + '.join(parts)}{more})"


def tensor(a: SparseState, b: SparseState) -> SparseState:
    """Tensor product; register names must be disjoint."""
    layout = a.layout.concat(b.layout)
    terms = kernels.tensor_terms(a.terms, b.terms, b.layout.width)
    return SparseState._trusted(layout, terms)


def apply_phase_oracle(state: SparseState, target: str | Sequence[str],
                       phase_fn: Callable[[int], int]) -> SparseState:
    """Multiply each term by (-1)**phase_fn(sub) of its target substring.

    The support is unchanged; phase_fn is evaluated once per distinct
    substring in the support.  Several target registers are read as one
    concatenated substring in the order given.
    """
    names = (target,) if isinstance(target, str) else tuple(target)
    pieces = state.layout.pieces(names)
    table = {}
    if len(pieces) == 1:
        (shift, w), = pieces
        mask = (1 << w) - 1
        for k in state.terms:
            sub = (k >> shift) & mask
            if sub not in table:
                table[sub] = phase_fn(sub) & 1
        terms = kernels.phase_apply(state.terms, shift, mask, table)
        return SparseState._trusted(state.layout, terms)
    terms = {}
    for k, v in state.terms.items():
        sub = kernels.extract_sub(k, pieces)
        odd = table.get(sub)
        if odd is None:
            odd = table[sub] = phase_fn(sub) & 1
        terms[k] = -v if odd else v
    return SparseState._trusted(state.layout, terms)


# Columns of the local maps verified unitary, keyed by callable, then target width.
_verified_maps: "weakref.WeakKeyDictionary[Callable, dict[int, dict]]" = \
    weakref.WeakKeyDictionary()


def _as_image(result, width: int) -> tuple[tuple[int, complex], ...]:
    if isinstance(result, SparseState):
        if result.layout.width != width:
            raise ValueError("map image width does not match target width")
        result = result.terms
    top = 1 << width
    image = []
    for sub, amp in result.items():
        if not 0 <= sub < top:
            raise ValueError(f"map image key {sub} outside target width {width}")
        c = complex(amp)
        if abs(c) > PRUNE_TOL:
            image.append((int(sub), c))
    return tuple(image)


def _check_unitary(fn: Callable[[int], Mapping[int, complex]], width: int) -> dict:
    """Verify fn's columns form a unitary on the 2**width basis; return them."""
    dim = 1 << width
    columns = {sub: _as_image(fn(sub), width) for sub in range(dim)}
    rows: dict[int, list[tuple[int, complex]]] = {}
    for col, image in columns.items():
        for row, amp in image:
            rows.setdefault(row, []).append((col, amp))
    gram: dict[tuple[int, int], complex] = {}
    for entries in rows.values():
        for c1, a1 in entries:
            for c2, a2 in entries:
                key = (c1, c2)
                gram[key] = gram.get(key, 0j) + a1.conjugate() * a2
    for col in range(dim):
        if abs(gram.get((col, col), 0j) - 1.0) > NORM_TOL:
            raise NonUnitaryMapError(f"column {col} has norm^2 {gram.get((col, col), 0j)}")
    for (c1, c2), g in gram.items():
        if c1 != c2 and abs(g) > NORM_TOL:
            raise NonUnitaryMapError(f"columns {c1},{c2} not orthogonal (inner product {g})")
    return columns


MAX_UNITARITY_CHECK_WIDTH = 12


def apply_local_map(
    state: SparseState,
    target: str | Sequence[str],
    fn: Callable[[int], Mapping[int, complex]],
    ) -> SparseState:
    """Apply a unitary given on basis substrings of the target register(s).

    ``fn`` maps a basis sub-key to its image as ``{sub': amplitude}`` (or a
    SparseState over the targets).  For several targets the sub-key is their
    concatenation in the order given.  Unitarity is checked by enumerating
    the 2**width basis (once per callable and width, whose columns are then
    reused), so a joint width over MAX_UNITARITY_CHECK_WIDTH raises
    ValueError before the map is called.  The protocol modules pass maps of
    at most 2 bits (Bell's pair maps, Hadamards); relabelings go through
    :func:`conditional_xor_relabel`.
    """
    names = (target,) if isinstance(target, str) else tuple(target)
    pieces = state.layout.pieces(names)
    width = sum(w for _, w in pieces)
    if width > MAX_UNITARITY_CHECK_WIDTH:
        raise ValueError(f"a {width}-bit map is wider than the {MAX_UNITARITY_CHECK_WIDTH} bits "
                         "its unitarity check enumerates")
    # every column, built by the unitarity check on the map's first use at this width
    try:
        checked = _verified_maps.get(fn)
        if checked is None:
            checked = _verified_maps[fn] = {}
    except TypeError:  # non-weakrefable callable; check every time
        checked = {}
    columns = checked.get(width)
    if columns is None:
        columns = checked[width] = _check_unitary(fn, width)
    terms = kernels.apply_map_terms(state.terms, pieces, columns)
    return SparseState._trusted(state.layout, terms)


def conditional_xor_relabel(
    state: SparseState,
    control: str | Sequence[str],
    targets: Sequence[str],
    values_by_control: Mapping[int, Mapping[str, int]],
    ) -> SparseState:
    """XOR constants into target registers, selected by the control value.

    ``values_by_control[c]`` gives per-register XOR constants applied to
    every term whose control sub-key equals ``c``; missing controls act as
    the identity.  This is a basis permutation (an involution when the same
    table is applied twice), hence unitary by construction, and is the
    primitive behind all user-side relabelings.
    """
    ctrl_pieces, masks = _xor_masks(state.layout, control, targets, values_by_control)
    return SparseState._trusted(state.layout, kernels.conditional_xor(state.terms, ctrl_pieces, masks))


def xor_relabeling(
    layout: RegisterLayout,
    control: str | Sequence[str],
    targets: Sequence[str],
    values_by_control: Mapping[int, Mapping[str, int]],
    ) -> Callable[[SparseState], SparseState]:
    """:func:`conditional_xor_relabel` of states over ``layout``, with its checks
    and full-width masks done once, for a table applied to many states."""
    ctrl_pieces, masks = _xor_masks(layout, control, targets, values_by_control)

    def relabel(state: SparseState) -> SparseState:
        if state.layout != layout:
            raise ValueError("relabeling built for another layout")
        return SparseState._trusted(layout, kernels.conditional_xor(state.terms, ctrl_pieces, masks))

    return relabel


def _xor_masks(layout: RegisterLayout, control, targets, values_by_control):
    """The control pieces and, per control value, the full-width XOR mask."""
    ctrl_names = (control,) if isinstance(control, str) else tuple(control)
    ctrl_pieces = layout.pieces(ctrl_names)
    if set(ctrl_names) & set(targets):
        raise ValueError("control registers cannot also be XOR targets")
    masks = {}
    for c, per_reg in values_by_control.items():
        full = 0
        for name, value in per_reg.items():
            shift, w = layout.piece(name)
            if name not in targets:
                raise ValueError(f"register {name!r} not listed in targets")
            if value >> w:
                raise ValueError(f"XOR constant {value} too wide for {name}")
            full |= int(value) << shift
        masks[int(c)] = full
    return ctrl_pieces, masks


def measurement_branches(state: SparseState, target: str) -> tuple[tuple[float, int, SparseState], ...]:
    """All computational-basis outcomes of measuring one register.

    Returns ``(probability, outcome, post-state)`` triples sorted by
    outcome; post-states are renormalized and keep the full layout.
    """
    pieces = state.layout.pieces((target,))
    groups = kernels.branch_split(state.terms, pieces)
    branches = []
    for outcome in sorted(groups):
        sub_terms = groups[outcome]
        p = kernels.norm_sq(sub_terms)
        if p <= PRUNE_TOL:
            continue
        post = SparseState._trusted(
            state.layout, _pruned(kernels.scale_terms(sub_terms, 1.0 / math.sqrt(p))))
        branches.append((p, outcome, post))
    return tuple(branches)


def equal_up_to_global_phase(a: SparseState, b: SparseState, tol: float = NORM_TOL) -> bool:
    """True iff a = c*b for some unit complex c, within tol in l2 norm.

    The candidate phase is read off the largest-magnitude term shared by
    both supports (deterministic tie-break on the key).
    """
    if a.layout != b.layout:
        raise ValueError("layout mismatch")
    shared = a.terms.keys() & b.terms.keys()
    if not shared:
        return not a.terms and not b.terms
    pick = max(shared, key=lambda k: (min(abs(a.terms[k]), abs(b.terms[k])), -k))
    c = a.terms[pick] / b.terms[pick]
    mag = abs(c)
    if mag < PRUNE_TOL:
        return False
    c /= mag
    dist_sq = 0.0
    for k in a.terms.keys() | b.terms.keys():
        d = a.terms.get(k, 0j) - c * b.terms.get(k, 0j)
        dist_sq += d.real * d.real + d.imag * d.imag
    return math.sqrt(dist_sq) <= tol


# A common single-register map.


def hadamard(sub: int) -> dict[int, complex]:
    if sub == 0:
        return {0: SQRT_HALF, 1: SQRT_HALF}
    return {0: SQRT_HALF, 1: -SQRT_HALF}
