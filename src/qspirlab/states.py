"""Sparse pure quantum states over named bit registers.

Every protocol state in this package is a superposition of a handful of
classical basis strings, so states are finite maps from basis keys to
complex amplitudes rather than dense vectors.  All operations return new
states; nothing here mutates.  A dense vector twin for small widths lives
in :mod:`qspirlab.reference` and is used as an independent test oracle.

The ``*_batch`` twins run many such states through one op at once, for the
compiled protocol's output-only path.  A batch is two arrays: ``keys[B, T]``
and ``amps[B, T]`` (complex), row b holding one state's terms in term order.
A slot whose amplitude is exactly 0 is empty; every op prunes at
``PRUNE_TOL`` as the SparseState constructor does, so a live term is never
0.  Keys are uint64 while the layout fits 64 bits and Python ints in object
arrays beyond, through the same expressions.  Each twin performs the IEEE
operations of the dict op it mirrors in the same order, so its results are
equal to the last bit.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from . import kernels
from .registers import RegisterLayout

PRUNE_TOL = 1e-12   # amplitudes below this are dropped
NORM_TOL = 1e-9     # norm / unitarity / audit comparisons

SQRT_HALF = math.sqrt(0.5)


class NonUnitaryMapError(ValueError):
    """A local map failed the unitarity check on its basis."""


@dataclass(frozen=True, eq=False)
class SparseState:
    layout: RegisterLayout
    terms: Mapping[int, complex]

    def __post_init__(self):
        pruned = {}
        top = 1 << self.layout.width
        for k, v in self.terms.items():
            if not 0 <= k < top:
                raise ValueError(f"basis key {k} outside layout width {self.layout.width}")
            c = complex(v)
            if abs(c) > PRUNE_TOL:
                pruned[int(k)] = c
        object.__setattr__(self, "terms", pruned)
        n = kernels.norm_sq(pruned)
        if abs(n - 1.0) > NORM_TOL:
            raise ValueError(f"state norm^2 = {n!r}, not 1 within {NORM_TOL}")

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


def key_dtype(layout: RegisterLayout) -> np.dtype:
    """Array dtype of a batch's keys: uint64 up to 64 bits, Python ints beyond."""
    return np.dtype(np.uint64) if layout.width <= 64 else np.dtype(object)


def _too_wide(values: np.ndarray, width: int) -> np.ndarray:
    """Where ``values`` do not fit ``width`` bits (negative Python ints never do)."""
    if values.dtype != object and width >= 64:
        return np.zeros(values.shape, dtype=bool)
    return (values >> width) != 0


def _sub_keys(keys: np.ndarray, shift: int, width: int) -> np.ndarray:
    return (keys >> shift) & ((1 << width) - 1)


def _batch_norms(amps: np.ndarray) -> np.ndarray:
    """Per-row norm^2: re*re + im*im summed in term order from 0, as ``norm_sq``."""
    squares = amps.real * amps.real + amps.imag * amps.imag
    total = np.zeros(len(amps))
    for column in squares.T:
        total = total + column
    return total


def validate_batch(layout: RegisterLayout, keys: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """Prune at PRUNE_TOL and check key range and norm, as the SparseState constructor does."""
    amps = np.where(np.abs(amps) > PRUNE_TOL, amps, 0j)
    outside = _too_wide(keys, layout.width) & (amps != 0)
    if outside.any():
        raise ValueError(f"basis key {keys[outside][0]} outside layout width {layout.width}")
    norms = _batch_norms(amps)
    off = np.abs(norms - 1.0) > NORM_TOL
    if off.any():
        raise ValueError(f"state norm^2 = {float(norms[off][0])!r}, not 1 within {NORM_TOL}")
    return amps


def _compact(keys: np.ndarray, amps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Move each row's live terms to the front, in order, and drop empty columns."""
    live = amps != 0
    order = np.argsort(~live, axis=1, kind="stable")
    order = order[:, :max(int(live.sum(axis=1).max(initial=0)), 1)]
    return np.take_along_axis(keys, order, axis=1), np.take_along_axis(amps, order, axis=1)


def tensor(a: SparseState, b: SparseState) -> SparseState:
    """Tensor product; register names must be disjoint."""
    layout = a.layout.concat(b.layout)
    terms = kernels.tensor_terms(a.terms, b.terms, b.layout.width)
    return SparseState(layout, terms)


def apply_phase_oracle(state: SparseState, target: str | Sequence[str],
                       phase_fn: Callable[[int], int]) -> SparseState:
    """Multiply each term by (-1)**phase_fn(sub) of its target substring.

    The support is unchanged; phase_fn is evaluated once per distinct
    substring in the support.  Several target registers are read as one
    concatenated substring in the order given.
    """
    names = (target,) if isinstance(target, str) else tuple(target)
    if len(names) == 1:
        shift, w = state.layout.piece(names[0])
        mask = (1 << w) - 1
        table = {}
        for k in state.terms:
            sub = (k >> shift) & mask
            if sub not in table:
                table[sub] = phase_fn(sub) & 1
        terms = kernels.phase_apply(state.terms, shift, mask, table)
        return SparseState(state.layout, terms)
    pieces = state.layout.pieces(names)
    terms = {}
    for k, v in state.terms.items():
        sub = kernels.extract_sub(k, pieces)
        terms[k] = -v if phase_fn(sub) & 1 else v
    return SparseState(state.layout, terms)


def apply_phase_oracle_batch(layout: RegisterLayout, keys: np.ndarray, amps: np.ndarray,
                             target: str, phase_fn: Callable[[np.ndarray], np.ndarray]
                             ) -> np.ndarray:
    """Batched apply_phase_oracle on one register; returns the new amplitudes.

    ``phase_fn`` maps the array of distinct target sub-keys among the batch's
    live terms, each given once, to an array of parities.
    """
    subs = _sub_keys(keys, *layout.piece(target))
    live = amps != 0
    distinct, inverse = np.unique(subs[live], return_inverse=True)
    odd = np.zeros(amps.shape, dtype=bool)
    odd[live] = (phase_fn(distinct) & 1)[inverse] != 0
    return np.where(odd, -amps, amps)


# Local maps verified unitary, keyed by callable and target width.
_verified_maps: "weakref.WeakKeyDictionary[Callable, set[int]]" = weakref.WeakKeyDictionary()


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
    the 2**width basis when the joint width is at most 12 (once per callable
    and width); wider maps are trusted, which the protocol modules only use
    for XOR relabelings that are permutations by construction.
    """
    names = (target,) if isinstance(target, str) else tuple(target)
    pieces = state.layout.pieces(names)
    width = sum(w for _, w in pieces)
    images = _map_images(fn, width, (kernels.extract_sub(k, pieces) for k in state.terms))
    terms = kernels.apply_map_terms(state.terms, pieces, images)
    return SparseState(state.layout, terms)


def _map_images(fn: Callable[[int], Mapping[int, complex]], width: int,
                subs: Iterable[int]) -> dict:
    """fn's image of every sub-key in ``subs``, after the unitarity check if due."""
    if width <= MAX_UNITARITY_CHECK_WIDTH:
        try:
            seen = _verified_maps.setdefault(fn, set())
        except TypeError:  # non-weakrefable callable; check every time
            seen = set()
        if width not in seen:
            columns = _check_unitary(fn, width)
            seen.add(width)
            return columns
    images = {}
    for sub in subs:
        if sub not in images:
            images[sub] = _as_image(fn(sub), width)
    return images


def apply_local_map_batch(layout: RegisterLayout, keys: np.ndarray, amps: np.ndarray,
                          target: str, fn: Callable[[int], Mapping[int, complex]]
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Batched apply_local_map on one register; returns the new keys and amplitudes.

    Candidate terms come in ``apply_map_terms`` order (term, then image
    entry), equal keys accumulate in that order into the first one's slot,
    and the result is pruned, checked and compacted.
    """
    shift, width = layout.piece(target)
    subs = _sub_keys(keys, shift, width)
    live = amps != 0
    distinct, inverse = np.unique(subs[live], return_inverse=True)
    distinct = distinct.tolist()
    images = _map_images(fn, width, distinct)
    columns = [images[sub] for sub in distinct]
    entries = max((len(col) for col in columns), default=1)
    image_subs = np.zeros((len(columns), entries), dtype=keys.dtype)
    image_amps = np.zeros((len(columns), entries), dtype=complex)
    image_live = np.zeros((len(columns), entries), dtype=bool)
    for u, col in enumerate(columns):
        for e, (sub, amp) in enumerate(col):
            image_subs[u, e], image_amps[u, e], image_live[u, e] = sub, amp, True
    column = np.zeros(amps.shape, dtype=np.intp)
    column[live] = inverse

    count = len(keys)
    rest = keys ^ (keys & (((1 << width) - 1) << shift))
    cand_keys = (rest[:, :, None] | (image_subs[column] << shift)).reshape(count, -1)
    # v * amp spelled out as Python's complex multiply rounds it (numpy's may fuse)
    v, amp = amps[:, :, None], image_amps[column]
    cand_amps = np.empty(amp.shape, dtype=complex)
    cand_amps.real = v.real * amp.real - v.imag * amp.imag
    cand_amps.imag = v.real * amp.imag + v.imag * amp.real
    cand_amps = cand_amps.reshape(count, -1)
    cand_live = (live[:, :, None] & image_live[column]).reshape(count, -1)
    same = (cand_keys[:, :, None] == cand_keys[:, None, :]) & cand_live[:, None, :]
    first = same.argmax(axis=2)
    acc = np.zeros(cand_amps.shape, dtype=complex)
    rows = np.arange(count)
    for c in range(cand_amps.shape[1]):
        new = cand_live[:, c] & (first[:, c] == c)
        acc[new, c] = cand_amps[new, c]
        again = cand_live[:, c] & ~new
        r, f = rows[again], first[again, c]
        acc[r, f] = acc[r, f] + cand_amps[again, c]
    return _compact(cand_keys, validate_batch(layout, cand_keys, acc))


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
    ctrl_names = (control,) if isinstance(control, str) else tuple(control)
    ctrl_pieces = state.layout.pieces(ctrl_names)
    if set(ctrl_names) & set(targets):
        raise ValueError("control registers cannot also be XOR targets")
    masks = {}
    for c, per_reg in values_by_control.items():
        full = 0
        for name, value in per_reg.items():
            shift, w = state.layout.piece(name)
            if name not in targets:
                raise ValueError(f"register {name!r} not listed in targets")
            if value >> w:
                raise ValueError(f"XOR constant {value} too wide for {name}")
            full |= value << shift
        masks[int(c)] = full
    terms = kernels.conditional_xor(state.terms, ctrl_pieces, masks)
    return SparseState(state.layout, terms)


def conditional_xor_relabel_batch(
    layout: RegisterLayout,
    keys: np.ndarray,
    control: str,
    targets: Sequence[str],
    values_by_control: Mapping[int, Mapping[str, np.ndarray]],
    ) -> np.ndarray:
    """Batched conditional_xor_relabel on one control register; returns the new keys.

    ``values_by_control[c][name]`` holds one XOR constant per batch row.
    """
    if control in targets:
        raise ValueError("control registers cannot also be XOR targets")
    ctrl = _sub_keys(keys, *layout.piece(control))
    out = keys
    for c, per_reg in values_by_control.items():
        full = np.zeros(len(keys), dtype=keys.dtype)
        for name, values in per_reg.items():
            shift, w = layout.piece(name)
            if name not in targets:
                raise ValueError(f"register {name!r} not listed in targets")
            wide = _too_wide(values, w)
            if wide.any():
                raise ValueError(f"XOR constant {values[wide][0]} too wide for {name}")
            full = full | (values << shift)
        out = np.where(ctrl == c, keys ^ full[:, None], out)
    return out


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
        post = SparseState(state.layout, kernels.scale_terms(sub_terms, 1.0 / math.sqrt(p)))
        branches.append((p, outcome, post))
    return tuple(branches)


def measurement_branches_batch(layout: RegisterLayout, keys: np.ndarray, amps: np.ndarray,
                               target: str):
    """Batched measurement_branches of one register.

    Returns ``(row, outcome, probability, keys, amps)`` with one entry per
    branch above PRUNE_TOL: the batch row it came from, its outcome, its
    probability (its terms' norm^2 in term order) and its renormalised
    post-states as a new batch.  Branches are ordered by row, then outcome.
    """
    subs = _sub_keys(keys, *layout.piece(target))
    live = amps != 0
    count, width = amps.shape
    same = (subs[:, :, None] == subs[:, None, :]) & live[:, None, :]
    group = same.argmax(axis=2)   # each live term's first term with its outcome
    squares = amps.real * amps.real + amps.imag * amps.imag
    probs = np.zeros(amps.shape)
    rows = np.arange(count)
    for t in range(width):
        probs[rows, group[:, t]] += squares[:, t]
    lead = live & (group == np.arange(width))
    rank = ((subs[:, None, :] < subs[:, :, None]) & lead[:, None, :]).sum(axis=2)
    row, slot = np.nonzero(lead & (probs > PRUNE_TOL))
    order = np.lexsort((rank[row, slot], row))
    row, slot = row[order], slot[order]
    p = probs[row, slot]
    members = (group[row] == slot[:, None]) & live[row]
    post = np.where(members, amps[row] * (1.0 / np.sqrt(p))[:, None], 0j)
    post_keys = keys[row]
    post_keys, post = _compact(post_keys, validate_batch(layout, post_keys, post))
    return row, subs[row, slot], p, post_keys, post


def measure_register(state: SparseState, target: str, rng) -> tuple[int, SparseState]:
    """Sample one outcome with Born probabilities using rng.random()."""
    branches = measurement_branches(state, target)
    u = rng.random()
    acc = 0.0
    for p, outcome, post in branches:
        acc += p
        if u < acc:
            return outcome, post
    p, outcome, post = branches[-1]
    return outcome, post


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


# Common single-register maps.


def hadamard(sub: int) -> dict[int, complex]:
    if sub == 0:
        return {0: SQRT_HALF, 1: SQRT_HALF}
    return {0: SQRT_HALF, 1: -SQRT_HALF}


def _pauli_map(p: int, q: int) -> Callable[[int], dict[int, complex]]:
    # Columns of the 2x2 encodings: identity, bit flip, phase flip, and
    # their product with the [0, -1; 1, 0] sign convention.
    if (p, q) == (0, 0):
        cols = ({0: 1.0}, {1: 1.0})
    elif (p, q) == (0, 1):
        cols = ({1: 1.0}, {0: 1.0})
    elif (p, q) == (1, 0):
        cols = ({0: 1.0}, {1: -1.0})
    else:
        cols = ({1: 1.0}, {0: -1.0})

    def apply(sub: int, _cols=cols):
        return _cols[sub]

    return apply


PAULI = {(p, q): _pauli_map(p, q) for p in (0, 1) for q in (0, 1)}
