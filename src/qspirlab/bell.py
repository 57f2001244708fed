"""Two-server retrieval from shared Bell pairs and Pauli data encodings.

The database is split into adjacent bit pairs, one Bell pair per database
pair.  The user keeps a sign qubit and prepares an equal superposition of
"all pairs in the correlated Bell state" and "the pair holding the wanted
bit swapped to a marker Bell state" (the bit-flipped pair marks an odd
index, the phase-flipped pair an even one).  Server 1 receives the left
qubit of every pair, server 2 the right.  Each server encodes its two
database bits per pair as one of four single-qubit operations: identity,
bit flip, phase flip, or their product.  Applied to both halves, those
operations fix the correlated state and multiply the marker state by -1
exactly when the wanted bit is 1, so the sign qubit again carries the
answer.  Every qubit in transit is maximally mixed on its own.

Odd database sizes are padded with a trailing zero bit.  Communication is
2n qubits: n/2 to each server and the same back.
"""

from __future__ import annotations

from functools import lru_cache

from .registers import RegisterLayout
from .schemes import Database
from .states import SQRT_HALF, SparseState, apply_local_map
from .transcript import Script, Transcript, execute, sign_recovery

# Bell labels used by the scheme; (p, q) names the pair basis state the
# marker uncomputes to.  The correlated pair is BELL_CORR; the two markers
# are a bit-flipped pair for odd indices and a phase-flipped pair for even.
BELL_CORR = (0, 0)
BELL_MARK_ODD = (0, 1)
BELL_MARK_EVEN = (1, 0)


def left_reg(slot: int) -> str:
    return f"left{slot}"


def right_reg(slot: int) -> str:
    return f"right{slot}"


@lru_cache(maxsize=None)
def bell_layout(pair_count: int) -> RegisterLayout:
    regs = [("sign", 1)]
    regs += [(left_reg(s), 1) for s in range(1, pair_count + 1)]
    regs += [(right_reg(s), 1) for s in range(1, pair_count + 1)]
    return RegisterLayout(tuple(regs))


def marker_for(i: int) -> tuple[int, int]:
    return BELL_MARK_ODD if i % 2 == 1 else BELL_MARK_EVEN


def pair_slot(i: int) -> int:
    return (i + 1) // 2


def _bell_pair_terms(label: tuple[int, int]) -> tuple[tuple[int, int, float], ...]:
    """(left bit, right bit, sign) components of a Bell pair, amplitude 1/sqrt2 each."""
    p, q = label
    if (p, q) == (0, 0):
        return ((0, 0, 1.0), (1, 1, 1.0))
    if (p, q) == (0, 1):
        return ((0, 1, 1.0), (1, 0, 1.0))
    if (p, q) == (1, 0):
        return ((0, 0, 1.0), (1, 1, -1.0))
    return ((0, 1, 1.0), (1, 0, -1.0))


def build_bell_query(i: int, n: int) -> SparseState:
    """Query state for index i over an even-size database."""
    if n % 2 != 0:
        raise ValueError("database size must be even; pad odd sizes with a zero bit")
    if not 1 <= i <= n:
        raise IndexError(f"index {i} outside [1, {n}]")
    m = n // 2
    j = pair_slot(i)
    layout = bell_layout(m)
    amp = SQRT_HALF * (SQRT_HALF ** m)

    terms: dict[int, complex] = {}

    def add_branch(sign_bit: int, labels: list[tuple[int, int]]) -> None:
        partials = [(0, 1.0)]
        for slot, label in enumerate(labels, start=1):
            nxt = []
            for key, coeff in partials:
                for lbit, rbit, sgn in _bell_pair_terms(label):
                    piece = (lbit << (2 * m - slot)) | (rbit << (m - slot))
                    nxt.append((key | piece, coeff * sgn))
            partials = nxt
        for key, coeff in partials:
            full = (sign_bit << (2 * m)) | key
            terms[full] = terms.get(full, 0j) + amp * coeff

    add_branch(0, [BELL_CORR] * m)
    add_branch(1, [BELL_CORR] * (j - 1) + [marker_for(i)] + [BELL_CORR] * (m - j))
    return SparseState(layout, terms)


_PLUS = complex(1.0)
_MINUS = complex(-1.0)


def server_pauli(state: SparseState, server: int, x: Database) -> SparseState:
    """Encode each database pair into this server's qubit of that pair.

    Pair (p, q) acts on its qubit as X^q Z^p: a phase flip on 1 when p is
    set, then a bit flip when q is.  Over all pairs that is one XOR mask on
    the key and one sign per pair, taken in a single pass.  Each amplitude
    is multiplied by +1 or -1 once per pair, in pair order, as the
    per-pair local maps would: a single product by the overall sign could
    flip the sign of a zero imaginary part.
    """
    if x.n % 2 != 0:
        raise ValueError("database size must be even")
    m = x.n // 2
    reg = left_reg if server == 1 else right_reg
    flip_mask = 0
    phase_bits = []
    for slot in range(1, m + 1):
        bit = 1 << state.layout.piece(reg(slot))[0]
        phase_bits.append(bit if x.bit(2 * slot - 1) else 0)
        if x.bit(2 * slot):
            flip_mask |= bit
    terms = {}
    for k, v in state.terms.items():
        for bit in phase_bits:
            v = v * (_MINUS if k & bit else _PLUS)
        terms[k ^ flip_mask] = v
    return SparseState._trusted(state.layout, terms)


# Per-pair basis changes between Bell pairs and classical pair labels.

def _pair_unentangle(sub: int) -> dict[int, float]:
    # (H x I) after a left-controlled flip of the right bit
    columns = {
        0b00: {0b00: SQRT_HALF, 0b10: SQRT_HALF},
        0b01: {0b01: SQRT_HALF, 0b11: SQRT_HALF},
        0b10: {0b01: SQRT_HALF, 0b11: -SQRT_HALF},
        0b11: {0b00: SQRT_HALF, 0b10: -SQRT_HALF},
    }
    return columns[sub]


def _pair_entangle(sub: int) -> dict[int, float]:
    # inverse of _pair_unentangle: |pq> -> the Bell pair labelled (p, q)
    columns = {
        0b00: {0b00: SQRT_HALF, 0b11: SQRT_HALF},
        0b01: {0b01: SQRT_HALF, 0b10: SQRT_HALF},
        0b10: {0b00: SQRT_HALF, 0b11: -SQRT_HALF},
        0b11: {0b01: SQRT_HALF, 0b10: -SQRT_HALF},
    }
    return columns[sub]


def unentangle_pairs(state: SparseState, m: int) -> SparseState:
    for slot in range(1, m + 1):
        state = apply_local_map(state, (left_reg(slot), right_reg(slot)), _pair_unentangle)
    return state


def entangle_pairs(state: SparseState, m: int) -> SparseState:
    for slot in range(1, m + 1):
        state = apply_local_map(state, (left_reg(slot), right_reg(slot)), _pair_entangle)
    return state


class BellProtocol:
    kind = "quantum"
    name = "bell2"
    verb = "pauli"

    def __init__(self, n: int, dephase_servers: bool = False):
        if n < 1:
            raise ValueError("n must be positive")
        self.n = n
        self.padded_n = n + (n % 2)
        self.pair_count = self.padded_n // 2
        self.dephase_servers = dephase_servers
        self.k = 2

    def layout(self) -> RegisterLayout:
        return bell_layout(self.pair_count)

    def comm(self) -> int:
        """Qubits communicated: every pair's halves, out and back (odd n padded to even)."""
        return 2 * self.padded_n

    def with_countermeasure(self) -> "BellProtocol":
        return BellProtocol(self.n, dephase_servers=True)

    def randomness_space(self):
        return range(1)  # the scheme draws no classical randomness

    def mask_space(self):
        return [()]  # nor any masks

    def _padded(self, x: Database) -> Database:
        if x.n != self.n:
            raise ValueError("database size mismatch")
        if self.padded_n == self.n:
            return x
        return Database(self.padded_n, x.value << 1)

    def server_registers(self, server: int) -> list[str]:
        reg = left_reg if server == 1 else right_reg
        return [reg(s) for s in range(1, self.pair_count + 1)]

    def server_operation(self, x: Database):
        """Server j's step on database x, as ``(state, j) -> state``."""
        xp = self._padded(x)
        return lambda state, j: server_pauli(state, j, xp)

    def sign_table(self, i: int, r: int = 0, masks=()) -> dict[int, dict[str, int]]:
        """Sign value -> XOR constants: the marker label of pair_slot(i) on sign 1."""
        slot = pair_slot(i)
        p, q = marker_for(i)
        return {1: {left_reg(slot): p, right_reg(slot): q}}

    def view_class(self, x: Database, i: int, r: int = 0) -> int:
        """x_i: the user's view reads x only through it.

        Both servers apply the same Pauli to their halves of each pair, which
        fixes the correlated pairs and multiplies the marker pair by
        (-1)^{x_i}; every other pair is correlated in both query branches.
        Views at one (i, x_i) differ at most in key order, the global sign
        of pure states and the sign of zero imaginary parts, none of which
        a comparison or a mixture distance sees.
        """
        return x.bit(i)

    def entangle(self, state: SparseState) -> SparseState:
        return entangle_pairs(state, self.pair_count)

    def unentangle(self, state: SparseState) -> SparseState:
        return unentangle_pairs(state, self.pair_count)

    def run(self, x: Database, i: int, r: int = 0, masks=()) -> Transcript:
        return execute(self, x, i, self._script(x, i))

    def run_outputs(self, x: Database, draws) -> list[dict[int, float]]:
        """``run(x, i).output`` of each (i, r, masks) draw."""
        return [self.run(x, i).output for i, r, masks in draws]

    def _script(self, x: Database, i: int) -> Script:
        if not 1 <= i <= self.n:
            raise IndexError(f"index {i} outside [1, {self.n}]")
        return Script(
            knowledge={
                "i": i,
                "pair_slot": pair_slot(i),
                "marker": "".join(map(str, marker_for(i))),
                "padded_n": self.padded_n,
                "countermeasure": self.dephase_servers,
            },
            state=build_bell_query(i, self.padded_n),
            receives=self.server_registers,
            returns=self.server_registers,
            operate=self.server_operation(x),
            recover=lambda state: sign_recovery(self, state, i),
        )
