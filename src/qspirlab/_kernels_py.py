"""Term-map kernels.

A "term map" is a dict mapping integer basis keys to complex amplitudes;
the bits of a key hold the named registers of a layout, first register in
the most significant position.  A "piece" is a ``(shift, width)`` pair
addressing one register inside a key.  These functions are the hot inner
loops of every protocol run and audit; callers reach them through
:mod:`qspirlab.kernels`.
"""

PRUNE_TOL = 1e-12


def tensor_terms(a, b, width_b):
    out = {}
    for ka, va in a.items():
        base = ka << width_b
        for kb, vb in b.items():
            out[base | kb] = va * vb
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


def conditional_xor(terms, ctrl_pieces, masks_by_ctrl):
    """XOR each key with a full-width mask selected by its control sub-key.

    Masks must not touch the control bits; missing controls act as identity.
    """
    out = {}
    for k, v in terms.items():
        out[k ^ masks_by_ctrl.get(extract_sub(k, ctrl_pieces), 0)] = v
    return out


def apply_map_terms(terms, pieces, images):
    """Linear extension of a local map given as sub-key -> ((sub', amp), ...)."""
    acc = {}
    for k, v in terms.items():
        for new_sub, amp in images[extract_sub(k, pieces)]:
            nk = insert_sub(k, pieces, new_sub)
            w = acc.get(nk)
            acc[nk] = v * amp if w is None else w + v * amp
    return {k: v for k, v in acc.items() if abs(v) > PRUNE_TOL}


def branch_split(terms, pieces):
    """Group terms by the value of the addressed sub-key (pre-measurement)."""
    groups = {}
    for k, v in terms.items():
        sub = extract_sub(k, pieces)
        g = groups.get(sub)
        if g is None:
            groups[sub] = {k: v}
        else:
            g[k] = v
    return groups


def ptrace_accumulate(acc, terms, keep_pieces, trace_pieces, weight, also=None):
    """Add ``weight * |psi><psi|`` reduced onto the kept pieces into ``acc``.

    ``acc`` maps (row kept-sub, col kept-sub) pairs to complex entries and is
    mutated in place.  When a second target dict ``also`` is given, each
    contribution is added to it as well, right after ``acc``, so both end as
    two separate calls would leave them, to the last bit.
    """
    groups = {}
    for k, v in terms.items():
        tr = extract_sub(k, trace_pieces)
        item = (extract_sub(k, keep_pieces), v)
        g = groups.get(tr)
        if g is None:
            groups[tr] = [item]
        else:
            g.append(item)
    for items in groups.values():
        for u, a in items:
            wa = weight * a
            for v2, b in items:
                key = (u, v2)
                w = acc.get(key)
                c = wa * b.conjugate()
                acc[key] = c if w is None else w + c
                if also is not None:
                    w = also.get(key)
                    also[key] = c if w is None else w + c
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
