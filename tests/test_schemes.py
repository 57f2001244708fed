"""Classical PIR schemes: recovery, structure, and query privacy."""

import random

import pytest

from qspirlab.schemes import (
    SCHEMES,
    CubeScheme,
    Database,
    SubsetScheme,
    TrivialScheme,
    all_databases,
    make_scheme,
    parity_row,
    reconstruct,
    run_classically,
)

from helpers import CorruptedSubsetScheme, reference_answer


def cube_answer_oracle(scheme: CubeScheme, q: int, x: Database) -> int:
    """Direct parity recomputation over explicit cell loops."""
    m = scheme.side
    xp = x.value << (scheme.padded_n - x.n)
    sets = [
        [c for c in range(m) if (q >> (3 * m - 1 - axis * m - c)) & 1]
        for axis in range(3)
    ]

    def parity(t1, t2, t3):
        p = 0
        for u in t1:
            for v in t2:
                for w in t3:
                    pos = (u * m + v) * m + w
                    p ^= (xp >> (scheme.padded_n - 1 - pos)) & 1
        return p

    out = [parity(*sets)]
    for axis in range(3):
        for c in range(m):
            toggled = [list(s) for s in sets]
            if c in toggled[axis]:
                toggled[axis].remove(c)
            else:
                toggled[axis].append(c)
            out.append(parity(*toggled))
    packed = 0
    for bit in out:
        packed = (packed << 1) | bit
    return packed


class TestDatabase:
    def test_round_trip(self):
        x = Database.from_string("10110")
        assert str(x) == "10110"
        assert [x.bit(i) for i in range(1, 6)] == [1, 0, 1, 1, 0]

    def test_bounds(self):
        with pytest.raises(IndexError):
            Database.from_string("01").bit(3)
        with pytest.raises(ValueError):
            Database(2, 7)


class TestTrivialScheme:
    def test_shape(self):
        s = TrivialScheme(5)
        assert (s.shape.k, s.shape.t, s.shape.a) == (1, 0, 5)
        assert s.comm_cost() == 5

    def test_plan_selects_requested_bit(self):
        s = TrivialScheme(5)
        plan = s.gen_plan(3, 0)
        assert plan.queries == (0,)
        assert plan.selects == (0b00100,)

    def test_reconstruct_picks_bit(self):
        s = TrivialScheme(5)
        x = Database.from_string("10110")
        plan = s.gen_plan(4, 0)
        assert reconstruct(plan, [s.answer(0, x)]) == 1


class TestSubsetScheme:
    def test_plan_example(self):
        s = SubsetScheme(2)
        plan = s.gen_plan(1, 0b01)
        assert plan.queries == (0b01, 0b11)
        assert plan.selects == (1, 1)

    def test_singleton_parity(self):
        s = SubsetScheme(2)
        assert s.answer(0b10, Database.from_string("10")) == 1

    def test_empty_set_parity(self):
        s = SubsetScheme(2)
        x = Database.from_string("01")
        plan = s.gen_plan(2, 0)
        answers = [s.answer(q, x) for q in plan.queries]
        assert answers == [0, 1]
        assert reconstruct(plan, answers) == 1

    def test_comm_cost(self):
        assert SubsetScheme(8).comm_cost() == 18


class TestCubeScheme:
    def test_shape_n8(self):
        s = CubeScheme(8)
        assert (s.shape.k, s.shape.t, s.shape.a) == (2, 6, 7)
        assert s.shape.randomness_size == 64
        assert s.comm_cost() == 26  # 12m + 2 at m = 2

    def test_selects_have_four_ones(self):
        s = CubeScheme(8)
        for i in range(1, 9):
            for r in (0, 17, 63):
                plan = s.gen_plan(i, r)
                assert plan.selects[0] == plan.selects[1]
                assert bin(plan.selects[0]).count("1") == 4

    def test_answer_against_direct_parity_oracle(self):
        s = CubeScheme(8)
        for x in [Database.from_string("10110100"), Database.from_string("01011011")]:
            for q in (0, 1, 9, 33, 63):
                assert s.answer(q, x) == cube_answer_oracle(s, q, x)

    def test_exhaustive_recovery_n8(self):
        s = CubeScheme(8)
        for x in all_databases(8):
            for i in range(1, 9):
                for r in s.randomness_space:
                    assert run_classically(s, x, i, r) == x.bit(i)

    def test_padding_for_non_cube_sizes(self):
        s = CubeScheme(5)
        assert s.padded_n == 8
        for x in all_databases(5):
            for i in range(1, 6):
                for r in s.randomness_space:
                    assert run_classically(s, x, i, r) == x.bit(i)

    def test_comm_scaling_rows(self):
        for n, m in ((8, 2), (27, 3), (64, 4)):
            assert CubeScheme(n).comm_cost() == 12 * m + 2


@pytest.mark.parametrize("name,n", [("trivial1", 4), ("subset2", 4), ("cube2", 8)])
def test_recovery_exhaustive(name, n):
    s = make_scheme(name, n)
    for x in all_databases(n):
        for i in range(1, n + 1):
            for r in s.randomness_space:
                assert run_classically(s, x, i, r) == x.bit(i)


@pytest.mark.parametrize("name,n", [("trivial1", 3), ("subset2", 3), ("cube2", 8)])
def test_query_multisets_independent_of_index(name, n):
    from collections import Counter

    s = make_scheme(name, n)
    k = s.shape.k
    reference = [
        Counter(s.gen_plan(1, r).queries[j] for r in s.randomness_space) for j in range(k)
    ]
    for i in range(2, n + 1):
        for j in range(k):
            got = Counter(s.gen_plan(i, r).queries[j] for r in s.randomness_space)
            assert got == reference[j]


def test_subset_queries_uniform_per_server():
    from collections import Counter

    s = SubsetScheme(3)
    for i in (1, 2, 3):
        for j in (0, 1):
            counts = Counter(s.gen_plan(i, r).queries[j] for r in s.randomness_space)
            assert set(counts.values()) == {1}
            assert len(counts) == 8


def test_plan_argument_validation():
    s = SubsetScheme(3)
    with pytest.raises(IndexError):
        s.gen_plan(4, 0)
    with pytest.raises(ValueError):
        s.gen_plan(1, 8)
    with pytest.raises(ValueError):
        s.answer(0b1000, Database.from_string("000"))


def test_reconstruct_length_checks():
    s = SubsetScheme(2)
    plan = s.gen_plan(1, 0)
    with pytest.raises(ValueError):
        reconstruct(plan, [0])
    with pytest.raises(ValueError):
        reconstruct(plan, [0, 2])


def test_answers_depend_only_on_query_and_database():
    s = SubsetScheme(3)
    x = Database.from_string("101")
    # the same query value answers identically regardless of which plan
    # produced it (answer has no access to i or r by signature)
    q = s.gen_plan(1, 0b011).queries[0]
    assert s.answer(q, x) == s.answer(q, x)
    assert s.answer(0b011, x) == s.answer(0b011, x)


class TestAnswerRows:
    """Every registered scheme answers through its rows: ``masked_parities(x, rows)``."""

    @pytest.mark.parametrize("name", sorted(SCHEMES))
    @pytest.mark.parametrize("n", range(1, 9))
    def test_answers_equal_the_reference_on_every_query_and_database(self, name, n):
        s = make_scheme(name, n)
        for q in range(1 << s.shape.t):
            for x in all_databases(n):
                assert s.answer(q, x) == reference_answer(s, q, x), (q, str(x))

    @pytest.mark.parametrize("n", [9, 10])
    def test_cube_answers_on_sampled_databases_past_the_first_cube(self, n):
        s = CubeScheme(n)
        rng = random.Random(n)
        databases = [Database(n, 0), Database(n, (1 << n) - 1)]
        databases += [Database(n, rng.getrandbits(n)) for _ in range(6)]
        for q in range(1 << s.shape.t):
            for x in databases:
                assert s.answer(q, x) == reference_answer(s, q, x), (q, str(x))

    def test_rows_of_each_scheme(self):
        assert TrivialScheme(3).answer_rows(0) == (0b100, 0b010, 0b001)
        assert SubsetScheme(3).answer_rows(0b101) == (0b101,)
        # n = 5 pads to 8 cells; the main row is T1 x T2 x T3 = {0} x {0, 1} x {1},
        # cells 1 and 3, and the three padding cells drop off the low end
        rows = CubeScheme(5).answer_rows(0b10_11_01)
        assert len(rows) == 7
        assert rows[0] == (0b01010000 >> 3)
        assert rows[1] == 0  # T1 toggled at 0: the empty set

    def test_rows_check_the_query(self):
        for s in (TrivialScheme(2), SubsetScheme(2), CubeScheme(2)):
            with pytest.raises(ValueError, match="does not fit"):
                s.answer_rows(1 << s.shape.t)

    @pytest.mark.parametrize("name", sorted(SCHEMES))
    @pytest.mark.parametrize("n", range(1, 7))
    def test_parity_row_of_a_correct_scheme_is_the_unit_vector(self, name, n):
        s = make_scheme(name, n)
        for i in range(1, n + 1):
            for r in s.randomness_space:
                assert parity_row(s, s.plan(i, r)) == 1 << (n - i), (i, r)

    def test_parity_row_reads_the_plan(self):
        # server 2's select is zeroed: the row is server 1's subset alone
        s = CorruptedSubsetScheme(3)
        for i in range(1, 4):
            for r in s.randomness_space:
                assert parity_row(s, s.plan(i, r)) == r
