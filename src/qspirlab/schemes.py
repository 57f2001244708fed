"""Classical multi-server PIR schemes with XOR-linear reconstruction.

Every scheme here answers queries with bit strings and reconstructs the
requested database bit as an XOR of inner products between the answers and
per-server selection vectors fixed by the index and the user's randomness.
That exact shape is what the quantum compiler in :mod:`qspirlab.compiler`
requires, and it is also what the privacy audits quantify over: the
randomness space of each scheme is an explicit finite enumeration, never a
sampler.

Bit conventions: database bit 1 is the most significant bit of the integer
form, and all indices are 1-based.  Queries and answers are integers of
widths ``t`` and ``a``.

Implemented schemes (registry names):

* ``trivial1`` -- one server, zero-length query, the whole database as the
  answer, selection vector picking out bit i.
* ``subset2`` -- two servers; the user draws a uniform subset S of [n],
  sends its characteristic vector to server 1 and that of S xor {i} to
  server 2; answers are 1-bit parities, both selection vectors are 1.
* ``cube2`` -- two servers over a database padded to an m**3 cube, with
  3m-bit queries (three subsets of [m]) and (3m+1)-bit answers (the
  subcube parity plus every single-coordinate toggle of it); communication
  grows with the cube root of n.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from . import kernels
from .registers import bits


@dataclass(frozen=True)
class Database:
    n: int
    value: int  # x_1 is the MSB of the n-bit value

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("database must have at least one bit")
        if not 0 <= self.value < (1 << self.n):
            raise ValueError(f"value {self.value} does not fit {self.n} bits")

    @classmethod
    def from_string(cls, text: str) -> "Database":
        return cls(len(text), int(text, 2) if text else 0)

    def bit(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise IndexError(f"index {i} outside [1, {self.n}]")
        return (self.value >> (self.n - i)) & 1

    def __str__(self):
        return bits(self.value, self.n)


def all_databases(n: int):
    for v in range(1 << n):
        yield Database(n, v)


@dataclass(frozen=True)
class SchemeShape:
    k: int                      # number of servers
    t: int                      # query length in bits
    a: int                      # answer length in bits
    randomness_size: int        # |R|, the explicit enumeration length

    def __post_init__(self):
        if self.k < 1 or self.t < 0 or self.a < 1 or self.randomness_size < 1:
            raise ValueError(f"invalid scheme shape {self}")


@dataclass(frozen=True)
class QueryPlan:
    """Queries and selection vectors for one (index, randomness) choice."""

    i: int
    r: int
    queries: tuple[int, ...]     # one t-bit query per server
    selects: tuple[int, ...]     # one a-bit selection vector per server
    t: int
    a: int

    @property
    def k(self) -> int:
        return len(self.queries)


class LinearPirScheme:
    """Base class; subclasses fill in plan generation and answer rows (or answering)."""

    name: str

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("n must be positive")
        self.n = n

    @property
    def shape(self) -> SchemeShape:
        raise NotImplementedError

    @property
    def randomness_space(self) -> range:
        return range(self.shape.randomness_size)

    def gen_plan(self, i: int, r: int) -> QueryPlan:
        raise NotImplementedError

    def answer_rows(self, q: int) -> tuple[int, ...] | None:
        """Answer bit b, first bit first, is parity(x & rows[b]); None without rows."""
        return None

    def answer(self, q: int, x: Database) -> int:
        """a-bit answer; a function of the query and the database only."""
        rows = self.answer_rows(q)
        if rows is None:
            raise NotImplementedError
        if x.n != self.n:
            raise ValueError("database size mismatch")
        return kernels.masked_parities(x.value, rows)

    def plan(self, i: int, r: int) -> QueryPlan:
        """``gen_plan(i, r)``, built once per pair of plain ints and kept."""
        return self._kept(i, r)[0]

    def row(self, i: int, r: int) -> int | None:
        """v(i, r), the ``parity_row`` of the plan, built once beside it; None without rows."""
        kept = self._kept(i, r)
        if len(kept) == 1:
            kept.append(parity_row(self, kept[0]))
        return kept[1]

    def _kept(self, i: int, r: int) -> list:
        """[plan] or [plan, v(i, r)]: the one memo entry of a pair of plain ints.

        Any other pair goes to ``gen_plan`` every time, which raises what a
        run raises: 1.0 == 1, but index 1.0 is refused.
        """
        if type(i) is not int or type(r) is not int:
            return [self.gen_plan(i, r)]
        memo = self.__dict__.setdefault("_plan_memo", {})
        kept = memo.get((i, r))
        if kept is None:
            kept = memo[i, r] = [self.gen_plan(i, r)]
        return kept

    def comm_cost(self) -> int:
        """Total classical communication in bits: k * (t + a)."""
        s = self.shape
        return s.k * (s.t + s.a)

    def _check_plan_args(self, i: int, r: int) -> None:
        if not 1 <= i <= self.n:
            raise IndexError(f"index {i} outside [1, {self.n}]")
        if r not in self.randomness_space:
            raise ValueError(f"randomness {r} outside enumeration of size {self.shape.randomness_size}")

    def _check_query(self, q: int) -> None:
        t = self.shape.t
        if not 0 <= q < (1 << t):
            raise ValueError(f"query {q} does not fit {t} bits")

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n})"


def reconstruct(plan: QueryPlan, answers: Sequence[int]) -> int:
    """XOR of per-server inner products between answers and selections."""
    if len(answers) != plan.k:
        raise ValueError(f"{len(answers)} answers for {plan.k} servers")
    out = 0
    for ans, sel in zip(answers, plan.selects):
        if ans >> plan.a:
            raise ValueError(f"answer {ans} does not fit {plan.a} bits")
        out ^= kernels.dot2(ans, sel)
    return out


def parity_row(scheme: LinearPirScheme, plan: QueryPlan) -> int | None:
    """v with ``reconstruct(plan, answers)`` = parity(x & v) on every database x: the XOR,
    over servers j and the set bits of select j, of answer j's rows; None without rows."""
    v = 0
    for q, sel in zip(plan.queries, plan.selects):
        rows = scheme.answer_rows(q)
        if rows is None:
            return None
        for row in reversed(rows):  # the last answer bit is the select's lowest
            if sel & 1:
                v ^= row
            sel >>= 1
    return v


def run_classically(scheme: LinearPirScheme, x: Database, i: int, r: int) -> int:
    """The reconstruction c(x, i, r): parity(x & v(i, r)) with answer rows, else
    ``reconstruct`` of the plan's answers.  Every protocol's c is this one."""
    row = scheme.row(i, r)
    if row is None:
        plan = scheme.plan(i, r)
        return reconstruct(plan, [scheme.answer(q, x) for q in plan.queries])
    if x.n != scheme.n:
        raise ValueError("database size mismatch")  # as ``answer`` refuses it
    return (x.value & row).bit_count() & 1


class TrivialScheme(LinearPirScheme):
    """Single server ships the whole database; selection picks out bit i."""

    name = "trivial1"

    @cached_property
    def shape(self) -> SchemeShape:
        return SchemeShape(k=1, t=0, a=self.n, randomness_size=1)

    def gen_plan(self, i: int, r: int) -> QueryPlan:
        self._check_plan_args(i, r)
        return QueryPlan(i=i, r=r, queries=(0,), selects=(1 << (self.n - i),), t=0, a=self.n)

    def answer_rows(self, q: int) -> tuple[int, ...]:
        """The unit vectors: the answer is x itself."""
        self._check_query(q)
        return self._units

    @cached_property
    def _units(self) -> tuple[int, ...]:
        return tuple(1 << b for b in reversed(range(self.n)))


class SubsetScheme(LinearPirScheme):
    """Two servers answer subset parities differing only at the index.

    Randomness r enumerates subsets S of [n] as characteristic vectors;
    server 1 gets S, server 2 gets S xor {i}, and the two 1-bit parity
    answers XOR to the requested bit.
    """

    name = "subset2"

    @cached_property
    def shape(self) -> SchemeShape:
        return SchemeShape(k=2, t=self.n, a=1, randomness_size=1 << self.n)

    def gen_plan(self, i: int, r: int) -> QueryPlan:
        self._check_plan_args(i, r)
        toggle = 1 << (self.n - i)
        return QueryPlan(i=i, r=r, queries=(r, r ^ toggle), selects=(1, 1), t=self.n, a=1)

    def answer_rows(self, q: int) -> tuple[int, ...]:
        """One row, the subset itself: the answer is its parity."""
        self._check_query(q)
        return (q,)


class CubeScheme(LinearPirScheme):
    """Two servers over the database arranged as an m x m x m cube.

    Databases whose size is not a perfect cube are padded with zero bits.
    A query is three subsets of [m] (one per axis, m bits each); the answer
    is the parity of the database over the product set, followed by that
    parity with each axis subset toggled at each coordinate (axis-major,
    coordinate-minor).  Server 2's query is server 1's with each axis
    toggled at the matching coordinate of the index, and both selection
    vectors take the main bit plus the three toggles at the index's
    coordinates; the eight parities XOR to exactly the indexed bit.
    """

    name = "cube2"

    def __init__(self, n: int):
        super().__init__(n)
        m = 1
        while m * m * m < n:
            m += 1
        self.side = m
        self.padded_n = m * m * m
        # axis -> coordinate -> the database bits of its cells (padding cells hold none)
        self._planes = [[0] * m for _ in range(3)]
        for pos in range(n):
            bit = 1 << (n - 1 - pos)
            for axis, c in enumerate((pos // (m * m), (pos // m) % m, pos % m)):
                self._planes[axis][c] |= bit

    @cached_property
    def shape(self) -> SchemeShape:
        m = self.side
        return SchemeShape(k=2, t=3 * m, a=3 * m + 1, randomness_size=1 << (3 * m))

    def coords(self, i: int) -> tuple[int, int, int]:
        """1-based cube coordinates of a 1-based index."""
        z = i - 1
        m = self.side
        return (z // (m * m) + 1, (z // m) % m + 1, z % m + 1)

    def gen_plan(self, i: int, r: int) -> QueryPlan:
        self._check_plan_args(i, r)
        m = self.side
        i1, i2, i3 = self.coords(i)
        # axis blocks inside the 3m-bit query, first axis most significant
        toggle = (
            (1 << (3 * m - i1))
            | (1 << (2 * m - i2))
            | (1 << (m - i3))
        )
        a = 3 * m + 1
        select = (
            (1 << (a - 1))                      # main parity bit
            | (1 << (a - 1 - i1))               # axis-1 toggle at i1
            | (1 << (a - 1 - m - i2))           # axis-2 toggle at i2
            | (1 << (a - 1 - 2 * m - i3))       # axis-3 toggle at i3
        )
        return QueryPlan(
            i=i, r=r, queries=(r, r ^ toggle), selects=(select, select), t=3 * m, a=a,
        )

    def answer_rows(self, q: int) -> tuple[int, ...]:
        """The product set's parity row, then its single-coordinate toggles."""
        self._check_query(q)
        m = self.side
        sets = [0, 0, 0]
        for axis, planes in enumerate(self._planes):
            for c, plane in enumerate(planes):
                if (q >> (3 * m - 1 - axis * m - c)) & 1:
                    sets[axis] |= plane
        a1, a2, a3 = sets
        main = a1 & a2 & a3
        # toggling coordinate c of an axis adds or removes its slice of the product
        others = (a2 & a3, a1 & a3, a1 & a2)
        return (main, *(main ^ (plane & other)
                        for planes, other in zip(self._planes, others) for plane in planes))


SCHEMES = {cls.name: cls for cls in (TrivialScheme, SubsetScheme, CubeScheme)}


def make_scheme(name: str, n: int) -> LinearPirScheme:
    try:
        cls = SCHEMES[name]
    except KeyError:
        raise ValueError(f"unknown scheme {name!r}; known: {sorted(SCHEMES)}") from None
    return cls(n)
