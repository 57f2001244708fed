# cython: language_level=3, boundscheck=False, wraparound=False, cdivision=True
"""Compiled term-map kernels.

Same contract as ``qspirlab._kernels_py`` (see its docstring for the data
model).  Functions take an optional ``width`` hint: when the total key
width fits a 64-bit word the bit arithmetic runs on C integers, otherwise
the code falls back to Python object arithmetic and stays correct for
arbitrarily wide layouts.
"""

from libc.stdint cimport int64_t, uint64_t

cdef double _PRUNE = 1e-12

PRUNE_TOL = _PRUNE
BACKEND = "c"


cdef extern from *:
    """
    #if defined(__GNUC__) || defined(__clang__)
    #define QSPIR_POPCNT(x) __builtin_popcountll(x)
    #else
    static int QSPIR_POPCNT(unsigned long long x) {
        int c = 0;
        while (x) { x &= x - 1; ++c; }
        return c;
    }
    #endif
    """
    int QSPIR_POPCNT(unsigned long long x) nogil


cdef inline bint _fits64(int width):
    return 0 < width <= 63


def tensor_terms(dict a, dict b, int width_b, int width=0):
    cdef dict out = {}
    cdef uint64_t base_c, kb_c
    cdef double complex va_c, vb_c
    if _fits64(width):
        for ka, va in a.items():
            base_c = (<uint64_t> ka) << width_b
            va_c = va
            for kb, vb in b.items():
                kb_c = <uint64_t> kb
                vb_c = vb
                out[base_c | kb_c] = va_c * vb_c
    else:
        for ka, va in a.items():
            base = ka << width_b
            for kb, vb in b.items():
                out[base | kb] = va * vb
    return out


def scale_terms(dict terms, factor, int width=0):
    cdef dict out = {}
    cdef double complex f = factor
    cdef double complex v_c
    for k, v in terms.items():
        v_c = v
        out[k] = v_c * f
    return out


def norm_sq(dict terms, int width=0):
    cdef double acc = 0.0
    cdef double complex v_c
    for v in terms.values():
        v_c = v
        acc += v_c.real * v_c.real + v_c.imag * v_c.imag
    return acc


def phase_apply(dict terms, int shift, object mask, dict table, int width=0):
    cdef dict out = {}
    cdef uint64_t k_c, mask_c
    cdef double complex v_c
    if _fits64(width):
        mask_c = <uint64_t> mask
        for k, v in terms.items():
            k_c = <uint64_t> k
            v_c = v
            if <int> table[(k_c >> shift) & mask_c]:
                out[k] = -v_c
            else:
                out[k] = v
    else:
        for k, v in terms.items():
            if table[(k >> shift) & mask]:
                out[k] = -v
            else:
                out[k] = v
    return out


def xor_relabel(dict terms, int shift, object value, int width=0):
    cdef dict out = {}
    cdef uint64_t bits_c
    if _fits64(width):
        bits_c = (<uint64_t> value) << shift
        for k, v in terms.items():
            out[(<uint64_t> k) ^ bits_c] = v
    else:
        bits = value << shift
        for k, v in terms.items():
            out[k ^ bits] = v
    return out


DEF MAX_PIECES = 16


cdef uint64_t _extract64(uint64_t key, int64_t* shifts, int64_t* widths, int npieces):
    cdef uint64_t sub = 0
    cdef int j
    for j in range(npieces):
        sub = (sub << widths[j]) | ((key >> shifts[j]) & ((<uint64_t> 1 << widths[j]) - 1))
    return sub


cdef int _fill_pieces(tuple pieces, int64_t* shifts, int64_t* widths) except -1:
    cdef int n = len(pieces)
    cdef int j
    if n > MAX_PIECES:
        raise ValueError("too many layout pieces for the compiled kernels")
    for j in range(n):
        shifts[j] = pieces[j][0]
        widths[j] = pieces[j][1]
    return n


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


def conditional_xor(dict terms, tuple ctrl_pieces, dict masks_by_ctrl, int width=0):
    cdef dict out = {}
    cdef uint64_t k_c, sub
    cdef int64_t shifts[MAX_PIECES]
    cdef int64_t widths[MAX_PIECES]
    cdef int npieces
    if _fits64(width) and len(ctrl_pieces) <= MAX_PIECES:
        npieces = _fill_pieces(ctrl_pieces, shifts, widths)
        for k, v in terms.items():
            k_c = <uint64_t> k
            sub = _extract64(k_c, shifts, widths, npieces)
            m = masks_by_ctrl.get(sub)
            if m is None:
                out[k] = v
            else:
                out[k_c ^ <uint64_t> m] = v
    else:
        for k, v in terms.items():
            out[k ^ masks_by_ctrl.get(extract_sub(k, ctrl_pieces), 0)] = v
    return out


def apply_map_terms(dict terms, tuple pieces, dict images, int width=0):
    cdef dict acc = {}
    cdef dict out = {}
    cdef uint64_t k_c, nk_c, sub_c, cleared
    cdef uint64_t clear_mask
    cdef int64_t shifts[MAX_PIECES]
    cdef int64_t widths[MAX_PIECES]
    cdef int npieces
    cdef double complex v_c, amp_c, w_c
    cdef int j
    if _fits64(width) and len(pieces) <= MAX_PIECES:
        npieces = _fill_pieces(pieces, shifts, widths)
        clear_mask = 0
        for j in range(npieces):
            clear_mask |= ((<uint64_t> 1 << widths[j]) - 1) << shifts[j]
        for k, v in terms.items():
            k_c = <uint64_t> k
            v_c = v
            sub_c = _extract64(k_c, shifts, widths, npieces)
            cleared = k_c & ~clear_mask
            for new_sub, amp in images[sub_c]:
                amp_c = amp
                nk_c = _insert64(cleared, shifts, widths, npieces, <uint64_t> new_sub)
                w = acc.get(nk_c)
                if w is None:
                    acc[nk_c] = v_c * amp_c
                else:
                    w_c = w
                    acc[nk_c] = w_c + v_c * amp_c
    else:
        for k, v in terms.items():
            for new_sub, amp in images[extract_sub(k, pieces)]:
                nk = insert_sub(k, pieces, new_sub)
                w = acc.get(nk)
                acc[nk] = v * amp if w is None else w + v * amp
    for k, v in acc.items():
        if abs(v) > _PRUNE:
            out[k] = v
    return out


cdef uint64_t _insert64(uint64_t cleared, int64_t* shifts, int64_t* widths, int npieces, uint64_t sub):
    cdef int j
    cdef uint64_t mask
    for j in range(npieces - 1, -1, -1):
        mask = (<uint64_t> 1 << widths[j]) - 1
        cleared |= (sub & mask) << shifts[j]
        sub >>= widths[j]
    return cleared


def branch_split(dict terms, tuple pieces, int width=0):
    cdef dict groups = {}
    cdef uint64_t k_c
    cdef int64_t shifts[MAX_PIECES]
    cdef int64_t widths[MAX_PIECES]
    cdef int npieces
    if _fits64(width) and len(pieces) <= MAX_PIECES:
        npieces = _fill_pieces(pieces, shifts, widths)
        for k, v in terms.items():
            k_c = <uint64_t> k
            sub = _extract64(k_c, shifts, widths, npieces)
            g = groups.get(sub)
            if g is None:
                groups[sub] = {k: v}
            else:
                (<dict> g)[k] = v
    else:
        for k, v in terms.items():
            sub = extract_sub(k, pieces)
            g = groups.get(sub)
            if g is None:
                groups[sub] = {k: v}
            else:
                (<dict> g)[k] = v
    return groups


def ptrace_accumulate(dict acc, dict terms, tuple keep_pieces, tuple trace_pieces,
                      double weight, int width=0, dict also=None):
    cdef dict groups = {}
    cdef uint64_t k_c
    cdef int nk, nt
    cdef int64_t kshifts[MAX_PIECES]
    cdef int64_t kwidths[MAX_PIECES]
    cdef int64_t tshifts[MAX_PIECES]
    cdef int64_t twidths[MAX_PIECES]
    cdef double complex a_c, b_c, wa, c
    cdef bint fast = _fits64(width) and len(keep_pieces) <= MAX_PIECES \
        and len(trace_pieces) <= MAX_PIECES
    if fast:
        nk = _fill_pieces(keep_pieces, kshifts, kwidths)
        nt = _fill_pieces(trace_pieces, tshifts, twidths)
        for k, v in terms.items():
            k_c = <uint64_t> k
            tr = _extract64(k_c, tshifts, twidths, nt) if nt else 0
            item = (_extract64(k_c, kshifts, kwidths, nk), v)
            g = groups.get(tr)
            if g is None:
                groups[tr] = [item]
            else:
                (<list> g).append(item)
    else:
        for k, v in terms.items():
            tr = extract_sub(k, trace_pieces)
            item = (extract_sub(k, keep_pieces), v)
            g = groups.get(tr)
            if g is None:
                groups[tr] = [item]
            else:
                (<list> g).append(item)
    for items in groups.values():
        for u, a in items:
            a_c = a
            wa = weight * a_c
            for v2, b in items:
                b_c = b
                key = (u, v2)
                c = wa * b_c.conjugate()
                w = acc.get(key)
                if w is None:
                    acc[key] = c
                else:
                    acc[key] = (<double complex> w) + c
                if also is not None:
                    w = also.get(key)
                    if w is None:
                        also[key] = c
                    else:
                        also[key] = (<double complex> w) + c
    return acc


def masked_parities(x, masks, int width=0):
    cdef uint64_t x_c, out_c
    cdef int bit
    if _fits64(width):
        x_c = <uint64_t> x
        out_c = 0
        for m in masks:
            bit = QSPIR_POPCNT(x_c & <uint64_t> m) & 1
            out_c = (out_c << 1) | <uint64_t> bit
        return out_c
    out = 0
    for m in masks:
        out = (out << 1) | ((x & m).bit_count() & 1)
    return out


def dot2(u, v, int width=0):
    if _fits64(width):
        return QSPIR_POPCNT((<uint64_t> u) & (<uint64_t> v)) & 1
    return (u & v).bit_count() & 1
