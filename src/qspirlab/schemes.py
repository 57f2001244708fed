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
    """Base class; subclasses fill in plan generation and answering."""

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

    def answer(self, q: int, x: Database) -> int:
        """a-bit answer; a function of the query and the database only."""
        raise NotImplementedError

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


def run_classically(scheme: LinearPirScheme, x: Database, i: int, r: int) -> int:
    plan = scheme.gen_plan(i, r)
    answers = [scheme.answer(q, x) for q in plan.queries]
    return reconstruct(plan, answers)


class TrivialScheme(LinearPirScheme):
    """Single server ships the whole database; selection picks out bit i."""

    name = "trivial1"

    @cached_property
    def shape(self) -> SchemeShape:
        return SchemeShape(k=1, t=0, a=self.n, randomness_size=1)

    def gen_plan(self, i: int, r: int) -> QueryPlan:
        self._check_plan_args(i, r)
        return QueryPlan(i=i, r=r, queries=(0,), selects=(1 << (self.n - i),), t=0, a=self.n)

    def answer(self, q: int, x: Database) -> int:
        if q != 0:
            raise ValueError("query length is zero")
        if x.n != self.n:
            raise ValueError("database size mismatch")
        return x.value


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

    def answer(self, q: int, x: Database) -> int:
        self._check_query(q)
        if x.n != self.n:
            raise ValueError("database size mismatch")
        return kernels.dot2(q, x.value)


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
        # cell (u, v, w) -> bit mask in the padded database integer
        self._cell = [
            [
                [1 << (self.padded_n - 1 - ((u * m + v) * m + w)) for w in range(m)]
                for v in range(m)
            ]
            for u in range(m)
        ]
        self._answers: dict[tuple[int, int], int] = {}

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

    def _padded(self, x: Database) -> int:
        if x.n != self.n:
            raise ValueError("database size mismatch")
        return x.value << (self.padded_n - self.n)

    def answer(self, q: int, x: Database) -> int:
        self._check_query(q)
        cached = self._answers.get((q, x.value))
        if cached is not None:
            return cached
        m = self.side
        xp = self._padded(x)
        axis_sets = [
            [c for c in range(m) if (q >> (3 * m - 1 - axis * m - c)) & 1]
            for axis in range(3)
        ]
        t1, t2, t3 = axis_sets
        # parity of each single-coordinate slice against the other two axes
        slice_masks = [[0] * m for _ in range(3)]
        for c in range(m):
            m1 = m2 = m3 = 0
            for v in t2:
                for w in t3:
                    m1 |= self._cell[c][v][w]
            for u in t1:
                for w in t3:
                    m2 |= self._cell[u][c][w]
            for u in t1:
                for v in t2:
                    m3 |= self._cell[u][v][c]
            slice_masks[0][c], slice_masks[1][c], slice_masks[2][c] = m1, m2, m3
        # main parity = XOR of the axis-1 slices selected by T1
        main = 0
        for u in t1:
            main ^= (xp & slice_masks[0][u]).bit_count() & 1
        out = main
        for axis in range(3):
            for c in range(m):
                toggled = main ^ ((xp & slice_masks[axis][c]).bit_count() & 1)
                out = (out << 1) | toggled
        self._answers[(q, x.value)] = out
        return out


SCHEMES = {cls.name: cls for cls in (TrivialScheme, SubsetScheme, CubeScheme)}


def make_scheme(name: str, n: int) -> LinearPirScheme:
    try:
        cls = SCHEMES[name]
    except KeyError:
        raise ValueError(f"unknown scheme {name!r}; known: {sorted(SCHEMES)}") from None
    return cls(n)
