"""Term-map kernels.

A "term map" is a dict mapping integer basis keys to complex amplitudes;
the bits of a key hold the named registers of a layout, first register in
the most significant position.  A "piece" is a ``(shift, width)`` pair
addressing one bit field inside a key: a run of registers that are adjacent
in the layout, or a single one.  A sub-key is its pieces' fields
concatenated in the order given.  When it is one field, the kernels read
it inline as ``(key >> shift) & mask``; otherwise through ``extract_sub``
and ``insert_sub``.  ``ptrace_accumulate`` needs no traced sub-key at all:
it groups terms by their traced bits under one mask.  These functions are
the hot inner loops of every protocol run and audit, in pure Python, the
only implementation.
"""

# perfbench/run.py and perfbench/tracer.py look up BACKEND, xor_relabel,
# insert_sub and masked_parities by name; all but insert_sub serve only them.
BACKEND = "py"

PRUNE_TOL = 1e-12


def tensor_terms(a, b, width_b):
    """Products of every pair of terms, ``a``'s key high; those at or below PRUNE_TOL dropped."""
    out = {}
    for ka, va in a.items():
        base = ka << width_b
        for kb, vb in b.items():
            v = va * vb
            if abs(v) > PRUNE_TOL:
                out[base | kb] = v
    return out


def scale_terms(terms, factor):
    return {k: v * factor for k, v in terms.items()}


def norm_sq(terms):
    return sum(v.real * v.real + v.imag * v.imag for v in terms.values())


def phase_apply(terms, shift, mask, table):
    """Multiply each amplitude by (-1)**table[sub] of its addressed sub-key."""
    out = {}
    for k, v in terms.items():
        if table[(k >> shift) & mask]:
            out[k] = -v
        else:
            out[k] = v
    return out


def xor_relabel(terms, shift, value):
    bits = value << shift
    return {k ^ bits: v for k, v in terms.items()}


def extract_sub(key, pieces):
    sub = 0
    for shift, w in pieces:
        sub = (sub << w) | ((key >> shift) & ((1 << w) - 1))
    return sub


def insert_sub(key, pieces, sub):
    for shift, w in reversed(pieces):
        mask = (1 << w) - 1
        key = (key & ~(mask << shift)) | ((sub & mask) << shift)
        sub >>= w
    return key


def _field(pieces):
    """``(shift, mask)`` of pieces that address one bit field, else None."""
    if len(pieces) != 1:
        return None
    shift, w = pieces[0]
    return shift, (1 << w) - 1


def conditional_xor(terms, ctrl_pieces, masks_by_ctrl):
    """XOR each key with a full-width mask selected by its control sub-key.

    Masks must not touch the control bits; missing controls act as identity.
    """
    out = {}
    get = masks_by_ctrl.get
    field = _field(ctrl_pieces)
    shift, mask = field or (0, 0)
    for k, v in terms.items():
        sub = extract_sub(k, ctrl_pieces) if field is None else (k >> shift) & mask
        out[k ^ get(sub, 0)] = v
    return out


def apply_map_terms(terms, pieces, images):
    """Linear extension of a local map given as sub-key -> ((sub', amp), ...)."""
    acc = {}
    field = _field(pieces)
    if field is None:
        for k, v in terms.items():
            for new_sub, amp in images[extract_sub(k, pieces)]:
                nk = insert_sub(k, pieces, new_sub)
                w = acc.get(nk)
                acc[nk] = v * amp if w is None else w + v * amp
    else:
        shift, mask = field
        hole = ~(mask << shift)
        for k, v in terms.items():
            rest = k & hole
            for new_sub, amp in images[(k >> shift) & mask]:
                nk = rest | (new_sub << shift)
                w = acc.get(nk)
                acc[nk] = v * amp if w is None else w + v * amp
    return {k: v for k, v in acc.items() if abs(v) > PRUNE_TOL}


def branch_split(terms, pieces):
    """Group terms by the value of the addressed sub-key (pre-measurement)."""
    groups = {}
    field = _field(pieces)
    shift, mask = field or (0, 0)
    for k, v in terms.items():
        sub = extract_sub(k, pieces) if field is None else (k >> shift) & mask
        g = groups.get(sub)
        if g is None:
            groups[sub] = {k: v}
        else:
            g[k] = v
    return groups


def ptrace_accumulate(acc, terms, keep_pieces, trace_pieces, weight):
    """Add ``weight * |psi><psi|`` reduced onto the kept pieces into ``acc``.

    ``acc`` maps (row kept-sub, col kept-sub) pairs to complex entries and is
    mutated in place.
    """
    # Terms group by their traced bits, read as ``key & trace_mask``: the
    # same groups, first seen in the same order, as by the traced sub-key.
    # Each item carries its amplitude's conjugate, taken once per term.
    trace_mask = 0
    for shift, w in trace_pieces:
        trace_mask |= ((1 << w) - 1) << shift
    field = _field(keep_pieces)
    shift, mask = field or (0, 0)
    groups = {}
    for k, v in terms.items():
        tr = k & trace_mask
        u = extract_sub(k, keep_pieces) if field is None else (k >> shift) & mask
        g = groups.get(tr)
        if g is None:
            groups[tr] = [(u, v, v.conjugate())]
        else:
            g.append((u, v, v.conjugate()))
    for items in groups.values():
        for u, a, _ in items:
            wa = weight * a
            for v2, _, cb in items:
                key = (u, v2)
                w = acc.get(key)
                c = wa * cb
                acc[key] = c if w is None else w + c
    return acc


def masked_parities(x, masks):
    """Pack parity(x & m) for each mask into one int, first mask at the MSB."""
    out = 0
    for m in masks:
        out = (out << 1) | ((x & m).bit_count() & 1)
    return out


def dot2(u, v):
    """Inner product of two bit vectors modulo 2."""
    return (u & v).bit_count() & 1
