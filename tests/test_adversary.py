"""Dishonest-user suite: clean queries, the parity attack, the fix."""

import itertools
import json
import math
from collections import Counter

import pytest

from qspirlab import adversary
from qspirlab.adversary import (
    CleanQueryOracle,
    SweepRefused,
    attack_input_layout,
    check_sweep,
    attack_output_mixture,
    honest_output_mixture,
    leakage_report,
    mutual_information_bits,
    parity,
    parity_query,
    plan_sweep,
    scenario_mixtures,
    verify_undetectability,
)
from qspirlab.compiler import CompiledProtocol
from qspirlab.protocols import resolve_protocol
from qspirlab.schemes import Database, all_databases, run_classically
from qspirlab.states import SparseState, equal_up_to_global_phase
from qspirlab.transcript import server_party

from helpers import RandomXorScheme, clean_query, leaky_attack_views, output_of

S = math.sqrt(0.5)


def input_state(bits_map):
    return SparseState.from_bits(attack_input_layout(2), bits_map)


class TestCleanQuery:
    def test_basis_input_reproduces_honest_retrieval(self):
        protocol = resolve_protocol("qspir(subset2)", 2)
        oracle = CleanQueryOracle(protocol, Database.from_string("01"), r=1, masks=(0, 1))
        out = clean_query(oracle, input_state({"10": 1.0}))
        assert out.bits_terms() == pytest.approx({"11": 1.0})

    def test_uniform_branch_write(self):
        protocol = resolve_protocol("qspir(subset2)", 2)
        oracle = CleanQueryOracle(protocol, Database.from_string("11"), r=2, masks=(1, 1))
        out = clean_query(oracle, input_state({"00": S, "10": S}))
        assert out.bits_terms() == pytest.approx({"01": S, "11": S})

    def test_phase_encoded_kickback(self):
        protocol = resolve_protocol("qspir(subset2)", 2)
        oracle = CleanQueryOracle(protocol, Database.from_string("10"), r=3, masks=(0, 1))
        out = clean_query(oracle, input_state({"00": 0.5, "01": -0.5, "10": 0.5, "11": -0.5}))
        expected = SparseState.from_bits(attack_input_layout(2), {
            "00": -0.5, "01": 0.5,   # (-1)**x_1 branch
            "10": 0.5, "11": -0.5,   # (-1)**x_2 branch
        })
        assert equal_up_to_global_phase(out, expected)

    def test_bell_oracle(self):
        protocol = resolve_protocol("bell2", 2)
        oracle = CleanQueryOracle(protocol, Database.from_string("01"))
        out = clean_query(oracle, input_state({"00": 1.0}))
        assert out.bits_terms() == pytest.approx({"00": 1.0})
        oracle2 = CleanQueryOracle(protocol, Database.from_string("01"))
        out2 = clean_query(oracle2, input_state({"10": 1.0}))
        assert out2.bits_terms() == pytest.approx({"11": 1.0})

    def test_countermeasured_protocol_rejected(self):
        protocol = resolve_protocol("qspir(subset2)", 2).with_countermeasure()
        oracle = CleanQueryOracle(protocol, Database.from_string("00"))
        with pytest.raises(ValueError):
            clean_query(oracle, input_state({"00": 1.0}))

    def test_wrong_layout_rejected(self):
        protocol = resolve_protocol("qspir(subset2)", 2)
        oracle = CleanQueryOracle(protocol, Database.from_string("00"))
        from qspirlab.registers import RegisterLayout

        bad = SparseState.basis(RegisterLayout.of(("idx", 2), ("tgt", 1)), 0)
        with pytest.raises(ValueError):
            clean_query(oracle, bad)


class TestCleanQueryAnyServerCount:
    """The echo is one linear query for any XOR-linear scheme and any k.

    The random tables make no correct PIR scheme, so the bit written is the
    classical reconstruction c(x, i, r), which often differs from x_i.
    """

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_basis_inputs_get_the_classical_reconstruction(self, k):
        scheme = RandomXorScheme(3, k=k, t=3, a=3, randomness_size=2, seed=k)
        protocol = CompiledProtocol(scheme)
        layout = attack_input_layout(3)
        checks = 0
        for x in all_databases(3):
            for r in range(2):
                masks = tuple((5 * r + 3 * j + 1) % 8 for j in range(k))
                for i in range(1, 4):
                    c = run_classically(scheme, x, i, r)
                    for b in (0, 1):
                        oracle = CleanQueryOracle(protocol, x, r, masks)
                        out = clean_query(oracle, SparseState.basis(layout, ((i - 1) << 1) | b))
                        want = ((i - 1) << 1) | (b ^ c)
                        assert set(out.terms) == {want}, (str(x), i, r, b)
                        assert abs(abs(out.terms[want]) - 1.0) <= 1e-12
                        checks += 1
        assert checks == 96


def reads_parity(output, x) -> bool:
    return abs(output.get(parity(x), 0.0) - 1.0) <= 1e-9


class TestParityAttack:
    @pytest.mark.parametrize("name", ["qspir(subset2)", "qspir(trivial1)", "bell2"])
    def test_all_databases(self, name):
        protocol = resolve_protocol(name, 2)
        for x in all_databases(2):
            _, output = parity_query(protocol, x)
            assert reads_parity(output, x)

    def test_every_draw_succeeds(self):
        protocol = resolve_protocol("qspir(subset2)", 2)
        for x in all_databases(2):
            for r in range(4):
                for m1 in (0, 1):
                    for m2 in (0, 1):
                        assert reads_parity(parity_query(protocol, x, r, (m1, m2))[1], x)

    def test_requires_two_bits(self):
        with pytest.raises(ValueError):
            parity_query(resolve_protocol("qspir(subset2)", 4), Database.from_string("0000"))


def full_draw_space(protocol):
    """Every (r, masks) draw: the full product, r outermost."""
    return list(itertools.product(protocol.randomness_space(), protocol.mask_space()))


def old_attack_output_mixture(protocol, x):
    """The attack's output mixture as a loop over whole parity queries."""
    draws = full_draw_space(protocol)
    output = {}
    for r, masks in draws:
        for bit, p in parity_query(protocol, x, r, masks)[1].items():
            output[bit] = output.get(bit, 0.0) + (1.0 / len(draws)) * p
    return output


class TestAttackOutputMixture:
    @pytest.mark.parametrize("countermeasure", [False, True], ids=["plain", "countermeasure"])
    @pytest.mark.parametrize("name", ["qspir(subset2)", "qspir(trivial1)", "bell2"])
    def test_matches_loop_over_parity_attack(self, name, countermeasure):
        protocol = resolve_protocol(name, 2, countermeasure)
        for x in all_databases(2):
            got = [(bit, p.hex()) for bit, p in attack_output_mixture(protocol, x).items()]
            want = [(bit, p.hex()) for bit, p in old_attack_output_mixture(protocol, x).items()]
            assert got == want

    def test_builds_no_server_views(self, monkeypatch):
        def refuse(self):
            raise AssertionError("server views built")

        monkeypatch.setattr(CleanQueryOracle, "server_views", refuse)
        protocol = resolve_protocol("qspir(subset2)", 2)
        assert attack_output_mixture(protocol, Database.from_string("10"))[1] == \
            pytest.approx(1.0, abs=1e-12)


def full_sweep_honest_mixture(protocol, x, i):
    """The honest output mixture as one output-only run per draw of the full product."""
    draws = full_draw_space(protocol)
    output = {}
    for dist in protocol.run_outputs(x, [(i, r) for r, _ in draws]):
        for bit, p in dist.items():
            output[bit] = output.get(bit, 0.0) + (1.0 / len(draws)) * p
    return output


def echo_views(protocol, x, r, masks):
    """The default echo's server views, supplied by hand: the audit sweeps every database."""
    oracle = CleanQueryOracle(protocol, x, r, tuple(masks))
    oracle.query_branches(adversary._phase_encoded_input(protocol.n))
    return oracle.server_views()


def hex_items(dist):
    return [(bit, p.hex()) for bit, p in dist.items()]


def table_protocols(n, countermeasure, most_mask_bits):
    """qspir(subset2), qspir(trivial1) and random XOR schemes at k = 1..4, a = 1..3."""
    protocols = {name: resolve_protocol(name, n, countermeasure)
                 for name in ("qspir(subset2)", "qspir(trivial1)")}
    for k in range(1, 5):
        for a in range(1, 4):
            if a * k <= most_mask_bits:
                scheme = RandomXorScheme(n, k=k, t=2, a=a, randomness_size=2, seed=10 * k + a)
                protocols[f"random-k{k}-a{a}"] = CompiledProtocol(scheme, countermeasure)
    return protocols


MODES = pytest.mark.parametrize("countermeasure", [False, True], ids=["plain", "countermeasure"])


class TestReducedSweeps:
    """One echo or honest run per r stands for every mask of that r, to the bit."""

    @MODES
    def test_attack_mixture_matches_full_sweep(self, countermeasure):
        for name, protocol in table_protocols(2, countermeasure, 8).items():
            for x in all_databases(2):
                assert hex_items(attack_output_mixture(protocol, x)) == \
                    hex_items(old_attack_output_mixture(protocol, x)), (name, str(x))

    @MODES
    @pytest.mark.parametrize("n", [2, 3])
    def test_honest_mixture_matches_full_sweep(self, n, countermeasure):
        protocols = table_protocols(n, countermeasure, 12)
        protocols["bell2"] = resolve_protocol("bell2", n, countermeasure)
        for name, protocol in protocols.items():
            for x in all_databases(n):
                for i in range(1, n + 1):
                    assert hex_items(honest_output_mixture(protocol, x, i)) == \
                        hex_items(full_sweep_honest_mixture(protocol, x, i)), (name, str(x), i)

    @MODES
    @pytest.mark.parametrize("n", [2, 3])
    def test_undetectability_matches_per_database_loop(self, n, countermeasure):
        protocols = table_protocols(n, countermeasure, 4)
        protocols["bell2"] = resolve_protocol("bell2", n, countermeasure)
        for name, protocol in protocols.items():
            got = verify_undetectability(protocol).to_jsonable()
            assert json.dumps(got) == \
                json.dumps(verify_undetectability(protocol, attack_views=echo_views).to_jsonable()), name
            assert got["grid"]["databases"] == 1 << n

    def test_supplied_views_sweep_every_database(self):
        protocol = resolve_protocol("qspir(subset2)", 2)
        seen = Counter()

        def counting(proto, x, r, masks):
            seen[str(x)] += 1
            return leaky_attack_views(proto, x, r, masks)

        assert not verify_undetectability(protocol, attack_views=counting).passed
        assert seen == Counter({str(x): 16 for x in all_databases(2)})

    @pytest.mark.parametrize("countermeasure, mixture_echoes, audit_echoes",
                             [(False, 4, 16), (True, 16, 16)], ids=["plain", "countermeasure"])
    def test_echo_count(self, monkeypatch, countermeasure, mixture_echoes, audit_echoes):
        # qspir(subset2) at n = 2 draws 4 values of r and 4 mask pairs
        calls = []
        query = CleanQueryOracle.query_branches

        def counting(oracle, input_state):
            calls.append((str(oracle.x), oracle.r, oracle.masks))
            return query(oracle, input_state)

        monkeypatch.setattr(CleanQueryOracle, "query_branches", counting)
        protocol = resolve_protocol("qspir(subset2)", 2, countermeasure)
        for x in all_databases(2):
            calls.clear()
            attack_output_mixture(protocol, x)
            assert len(calls) == len(set(calls)) == mixture_echoes
        calls.clear()
        verify_undetectability(protocol)
        # the first database's views stand for all four
        assert len(calls) == audit_echoes and {x for x, _, _ in calls} == {"00"}

    def test_countermeasure_echo_depends_on_the_masks(self):
        # why the countermeasure's attack mixture still runs every draw: its
        # dephased branches come out in the order of the masked register values
        protocol = resolve_protocol("qspir(trivial1)", 2, countermeasure=True)
        x = Database.from_string("00")
        assert hex_items(parity_query(protocol, x, 0, (3,))[1]) == \
            [(0, "0x1.0000000000005p-1"), (1, "0x1.0000000000005p-1")]
        assert hex_items(parity_query(protocol, x, 0, (0,))[1]) == \
            [(0, "0x1.0000000000006p-1"), (1, "0x1.0000000000006p-1")]
        # here one echo per r would move the mixture itself
        protocol = CompiledProtocol(RandomXorScheme(2, k=1, t=2, a=2, randomness_size=2, seed=2),
                                    dephase_servers=True)
        first = next(iter(protocol.mask_space()))
        per_r = adversary._mix([parity_query(protocol, x, r, first)[1]
                                for r in protocol.randomness_space()], len(protocol.mask_space()))
        want = hex_items(old_attack_output_mixture(protocol, x))
        assert hex_items(attack_output_mixture(protocol, x)) == want \
            == [(0, "0x1.0000000000006p-1"), (1, "0x1.0000000000006p-1")]
        assert hex_items(per_r) == [(0, "0x1.0000000000007p-1"), (1, "0x1.0000000000007p-1")]


def measured_protocols(n, shapes):
    """qspir(subset2), qspir(trivial1) and random XOR schemes, each with the countermeasure.

    ``shapes`` lists (k, t, a, seed); the random schemes draw two values of r.
    """
    protocols = {name: resolve_protocol(name, n, countermeasure=True)
                 for name in ("qspir(subset2)", "qspir(trivial1)")}
    for k, t, a, seed in shapes:
        scheme = RandomXorScheme(n, k=k, t=t, a=a, randomness_size=2, seed=seed)
        protocols[f"random-k{k}-t{t}-a{a}-s{seed}"] = CompiledProtocol(scheme, dephase_servers=True)
    return protocols


class TestMeasuredServersIgnoreTheDatabase:
    """Under the countermeasure a compiled protocol's outputs are the first database's, to the bit."""

    def test_plan_lets_the_first_database_stand_for_all(self):
        for name in ("qspir(subset2)", "qspir(trivial1)", "bell2"):
            for countermeasure in (False, True):
                protocol = resolve_protocol(name, 2, countermeasure)
                want = countermeasure and name != "bell2"
                for scenario in ("parity2", "honest-baseline"):
                    assert plan_sweep(protocol, scenario).first_only is want, (name, scenario)

    def test_echo_outputs_agree_at_every_draw(self):
        shapes = [(k, t, a, seed) for k in range(1, 5) for t, a in [(1, 1), (2, 1), (2, 2), (3, 1)]
                  if a * k <= 6 for seed in (0, 1)]
        for name, protocol in measured_protocols(2, shapes).items():
            for r, masks in full_draw_space(protocol):
                first, *rest = (hex_items(parity_query(protocol, x, r, masks)[1])
                                for x in all_databases(2))
                for out in rest:
                    assert out == first, (name, r, masks)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_honest_outputs_agree_at_every_draw(self, n):
        # the step engine at every draw, except the random shapes at n = 3 and
        # 4 (19 s through it): there ``run_outputs``, whose outputs are copies
        # of runs (tests/test_compiler.py ties them to ``run``)
        shapes = [(k, t, a, seed) for k in range(1, 5) for t in (1, 2, 3) for a in (1, 2, 3)
                  if a * k <= 6 for seed in (0, 1)]
        for name, protocol in measured_protocols(n, shapes).items():
            draws = [(i, r, masks) for i in range(1, n + 1)
                     for r, masks in full_draw_space(protocol)]
            if n == 2 or not name.startswith("random"):
                outputs = lambda x: [protocol.run(x, *draw).output for draw in draws]
            else:
                outputs = lambda x: protocol.run_outputs(x, [(i, r) for i, r, _ in draws])
            first, *rest = ([hex_items(dist) for dist in outputs(x)] for x in all_databases(n))
            for out in rest:
                assert out == first, name

    @pytest.mark.parametrize("scenario, n", [("parity2", 2), ("honest-baseline", 2),
                                             ("honest-baseline", 3)])
    def test_scenario_mixtures_match_the_per_database_loop(self, scenario, n):
        shapes = [(1, 2, 2, 2), (2, 2, 1, 0), (3, 1, 1, 1)]
        for name, protocol in measured_protocols(n, shapes).items():
            got = scenario_mixtures(protocol, scenario, n)
            if scenario == "parity2":
                want = {x: attack_output_mixture(protocol, x) for x in all_databases(n)}
            else:
                want = {x: honest_output_mixture(protocol, x, n) for x in all_databases(n)}
            assert list(got) == list(want)
            assert [hex_items(d) for d in got.values()] == \
                [hex_items(d) for d in want.values()], name
            # every database its own dict
            assert len({id(d) for d in got.values()}) == len(got)

    def test_bell_sweeps_every_database(self, monkeypatch):
        echoes, runs = set(), set()
        query = CleanQueryOracle.query_branches

        def counting(oracle, input_state):
            echoes.add(str(oracle.x))
            return query(oracle, input_state)

        monkeypatch.setattr(CleanQueryOracle, "query_branches", counting)
        protocol = resolve_protocol("bell2", 2, countermeasure=True)
        run_outputs = protocol.run_outputs

        def counting_runs(x, draws):
            runs.add(str(x))
            return run_outputs(x, draws)

        monkeypatch.setattr(protocol, "run_outputs", counting_runs)
        scenario_mixtures(protocol, "parity2", 1)
        scenario_mixtures(protocol, "honest-baseline", 1)
        assert echoes == runs == {str(x) for x in all_databases(2)}


# (protocol, countermeasure, scenario, undetectability, the limit, the count held to it)
SWEEP_COUNTS = [
    # qspir(subset2) at n = 2: 4 values of r, 4 mask pairs; one echo per r
    ("qspir(subset2)", False, "parity2", False, "ATTACK_ECHO_LIMIT", 4),
    # the audit's echo views: every draw of the first database
    ("qspir(subset2)", False, "parity2", True, "ATTACK_ECHO_LIMIT", 16),
    # the dephased echo runs every draw
    ("qspir(subset2)", True, "parity2", False, "ATTACK_ECHO_LIMIT", 16),
    # Bell's audit sweeps every database
    ("bell2", False, "parity2", True, "ATTACK_ECHO_LIMIT", 4),
    ("qspir(subset2)", False, "honest-baseline", False, "COMPILED_BASELINE_RUN_LIMIT", 16),
    # dephased, the first database's runs stand for every database's
    ("qspir(subset2)", True, "honest-baseline", False, "COMPILED_BASELINE_RUN_LIMIT", 4),
    ("bell2", False, "honest-baseline", False, "BELL_BASELINE_RUN_LIMIT", 4),
    # one pair: a dephased run splits into up to 4 branches
    ("bell2", True, "honest-baseline", False, "BELL_BASELINE_RUN_LIMIT", 16),
    ("qspir(subset2)", False, "honest-baseline", False, "MIXED_DRAW_LIMIT", 64),
    ("qspir(subset2)", True, "parity2", False, "MIXED_DRAW_LIMIT", 64),
]


class TestSweepAdmission:
    @pytest.mark.parametrize("name, countermeasure, scenario, audit, limit, count", SWEEP_COUNTS)
    def test_admits_its_count_and_refuses_one_less(self, monkeypatch, name, countermeasure,
                                                   scenario, audit, limit, count):
        protocol = resolve_protocol(name, 2, countermeasure)
        monkeypatch.setattr(adversary, limit, count)
        check_sweep(protocol, scenario, audit)
        monkeypatch.setattr(adversary, limit, count - 1)
        with pytest.raises(SweepRefused, match=f"more than {count - 1}$"):
            check_sweep(protocol, scenario, audit)

    @MODES
    @pytest.mark.parametrize("name", ["qspir(subset2)", "qspir(trivial1)", "bell2"])
    def test_plan_names_the_draws_each_sweep_runs(self, monkeypatch, name, countermeasure):
        echoes, runs = [], []
        query = CleanQueryOracle.query_branches

        def counting(oracle, input_state):
            echoes.append((str(oracle.x), oracle.r, oracle.masks))
            return query(oracle, input_state)

        monkeypatch.setattr(CleanQueryOracle, "query_branches", counting)
        protocol = resolve_protocol(name, 2, countermeasure)
        run_outputs = protocol.run_outputs

        def counting_runs(x, draws):
            runs.extend((str(x), r) for _, r in draws)
            return run_outputs(x, draws)

        monkeypatch.setattr(protocol, "run_outputs", counting_runs)
        attack, honest = plan_sweep(protocol, "parity2"), plan_sweep(protocol, "honest-baseline")
        for sweep in attack, honest:
            assert len(sweep.draws()) * sweep.repeats == len(full_draw_space(protocol))
        scenario_mixtures(protocol, "parity2", 1)
        scenario_mixtures(protocol, "honest-baseline", 1)

        def swept(sweep):
            return list(all_databases(2))[:1] if sweep.first_only else list(all_databases(2))

        assert echoes == [(str(x), r, m) for x in swept(attack) for r, m in attack.draws()]
        assert runs == [(str(x), r) for x in swept(honest) for r in honest.randomness]
        echoes.clear()
        verify_undetectability(protocol)
        audit = plan_sweep(protocol, "undetectability")
        assert echoes == [(str(x), r, m) for x in swept(audit) for r, m in full_draw_space(protocol)]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_dephased_bell_runs_split_into_at_most_the_branches_counted(self, n):
        # the weight check_sweep gives a dephased Bell run: 2**(pairs + 1),
        # reached at odd indices, whose marker pair differs on the right qubit
        protocol = resolve_protocol("bell2", n, countermeasure=True)
        x = Database(n, (1 << n) - 1)
        for i in range(1, n + 1):
            served = [s for s in protocol.run(x, i).steps if s.label == "pauli:server2"]
            want = 1 << protocol.pair_count + (i % 2)
            assert len(served[0].branches) == want <= 1 << protocol.pair_count + 1


def report_json(**fields):
    """An undetectability report on two-bit databases, as the per-database loop gave it."""
    report = {"audit": "undetectability", "protocol": "qspir(subset2)",
              "grid": {"n": 2, "databases": 4, "draws": 16}, "tolerance": 1e-09,
              "worst_case_distance": 0.0, "passed": True, "witness": None}
    report.update(fields)
    return json.dumps(report)


class TestUndetectability:
    @pytest.mark.parametrize("name", ["qspir(subset2)", "bell2"])
    def test_attack_matches_honest_states(self, name):
        report = verify_undetectability(resolve_protocol(name, 2))
        assert report.passed
        assert report.worst_case_distance <= 1e-9

    @pytest.mark.parametrize("name,expected", ids=["subset2", "trivial1", "bell2"], argvalues=[
        ("qspir(subset2)", report_json(details={"comparisons": 32})),
        ("qspir(trivial1)", report_json(protocol="qspir(trivial1)",
                                        grid={"n": 2, "databases": 4, "draws": 4},
                                        worst_case_distance=1.1102230246251565e-16,
                                        details={"comparisons": 16})),
        ("bell2", report_json(protocol="bell2", grid={"n": 2, "databases": 4, "draws": 1},
                              worst_case_distance=1.1102230246251565e-16,
                              details={"comparisons": 32})),
    ])
    def test_report_unchanged(self, name, expected):
        assert json.dumps(verify_undetectability(resolve_protocol(name, 2)).to_jsonable()) \
            == expected

    def test_leaky_report_unchanged(self):
        report = verify_undetectability(resolve_protocol("qspir(subset2)", 2),
                                        attack_views=leaky_attack_views)
        assert json.dumps(report.to_jsonable()) == report_json(
            worst_case_distance=0.5, passed=False,
            witness={"server": "server1", "step": "send:server1", "x": "00", "honest_i": 1,
                     "distance": 0.5},
            details={"comparisons": 8})

    def test_view_without_honest_mixture_fails(self):
        # the leaky view under a step label no honest run records: nothing to compare it with
        def renamed(protocol, x, r, masks):
            (dm,) = leaky_attack_views(protocol, x, r, masks).values()
            return {("server1", "send1"): dm}

        report = verify_undetectability(resolve_protocol("qspir(subset2)", 2),
                                        attack_views=renamed)
        assert json.dumps(report.to_jsonable()) == report_json(
            passed=False,
            witness={"server": "server1", "step": "send1", "x": "00", "honest_i": 1,
                     "distance": None},
            details={"comparisons": 0})

    @pytest.mark.parametrize("name,n", [("qspir(subset2)", 3), ("qspir(trivial1)", 1),
                                        ("qspir(trivial1)", 3), ("qspir(trivial1)", 5),
                                        ("bell2", 3)])
    def test_index_count_not_a_power_of_two(self, name, n):
        # the input superposes only the indices 1..n: the echo has no sign row for the rest
        input_state = adversary._phase_encoded_input(n)
        assert sorted({k >> 1 for k in input_state.terms}) == list(range(n))
        assert sum(abs(v) ** 2 for v in input_state.terms.values()) == pytest.approx(1.0)
        report = verify_undetectability(resolve_protocol(name, n))
        assert report.passed, report.witness
        assert report.worst_case_distance <= 1e-9

    @pytest.mark.parametrize("name", ["qspir(subset2)", "qspir(trivial1)", "bell2"])
    def test_honest_states_built_once_per_index(self, name, monkeypatch):
        calls = Counter()
        build = adversary.server_state_mixtures

        def counting(protocol, i):
            calls[i] += 1
            return build(protocol, i)

        monkeypatch.setattr(adversary, "server_state_mixtures", counting)
        assert verify_undetectability(resolve_protocol(name, 2)).passed
        assert calls == Counter({1: 1, 2: 1})

    def test_index_leaking_attack_detected(self):
        protocol = resolve_protocol("qspir(subset2)", 2)
        report = verify_undetectability(protocol, attack_views=leaky_attack_views)
        assert not report.passed
        assert report.witness["server"] == "server1"
        assert report.worst_case_distance > 0.1


class TestCountermeasure:
    def test_attack_success_drops_to_half(self):
        protocol = resolve_protocol("qspir(subset2)", 2).with_countermeasure()
        for x in all_databases(2):
            dist = attack_output_mixture(protocol, x)
            assert dist[0] == pytest.approx(0.5)
            assert dist[1] == pytest.approx(0.5)

    def test_honest_recovery_drops_to_half(self):
        # the countermeasure destroys the coherence honest recovery needs;
        # a documented consequence of dephasing the quantum protocols
        protocol = resolve_protocol("qspir(subset2)", 2).with_countermeasure()
        for x in all_databases(2):
            for i in (1, 2):
                dist = honest_output_mixture(protocol, x, i)
                assert dist[x.bit(i)] == pytest.approx(0.5)

    def test_classical_messages_unchanged(self):
        plain = resolve_protocol("subset2", 2)
        measured = resolve_protocol("subset2", 2).with_countermeasure()
        for x in all_databases(2):
            for i in (1, 2):
                for r in range(4):
                    assert output_of(plain, x, i, r) == output_of(measured, x, i, r)
                    t = measured.run(x, i, r)
                    assert all(len(step.branches) == 1 for step in t.steps
                               if step.branches is not None)

    def test_original_protocol_untouched(self):
        protocol = resolve_protocol("qspir(subset2)", 2)
        fixed = protocol.with_countermeasure()
        assert fixed is not protocol
        assert not protocol.dephase_servers and fixed.dephase_servers


class TestLeakage:
    def test_honest_baseline_one_bit_about_database(self):
        protocol = resolve_protocol("qspir(subset2)", 2)
        assert leakage_report(protocol, "honest-baseline", index=1) == pytest.approx(1.0)

    def test_honest_baseline_nothing_about_parity(self):
        protocol = resolve_protocol("qspir(subset2)", 2)
        assert leakage_report(protocol, "honest-baseline", index=1,
                              target=parity) == pytest.approx(0.0, abs=1e-12)

    def test_parity_attack_one_bit_about_parity(self):
        protocol = resolve_protocol("qspir(subset2)", 2)
        assert leakage_report(protocol, "parity2", target=parity) == pytest.approx(1.0)

    def test_countermeasure_zeroes_leakage(self):
        protocol = resolve_protocol("qspir(subset2)", 2).with_countermeasure()
        assert leakage_report(protocol, "parity2", target=parity) == pytest.approx(0.0, abs=1e-12)
        assert leakage_report(protocol, "parity2") == pytest.approx(0.0, abs=1e-12)

    def test_unknown_scenario_refused(self):
        with pytest.raises(ValueError, match="unknown scenario 'parity3'"):
            scenario_mixtures(resolve_protocol("qspir(subset2)", 2), "parity3", 1)

    def test_mutual_information_basics(self):
        assert mutual_information_bits({(0, 0): 0.5, (1, 1): 0.5}) == pytest.approx(1.0)
        assert mutual_information_bits({(0, 0): 0.25, (0, 1): 0.25,
                                        (1, 0): 0.25, (1, 1): 0.25}) == pytest.approx(0.0)
        with pytest.raises(ValueError):
            mutual_information_bits({(0, 0): 0.3})


class TestEchoLabels:
    @pytest.mark.parametrize("countermeasure", [False, True], ids=["plain", "countermeasure"])
    @pytest.mark.parametrize("name", ["qspir(subset2)", "qspir(trivial1)", "bell2"])
    def test_server_views_recorded_at_honest_labels(self, name, countermeasure):
        # each half of the echo checkpoints exactly the honest run's send,
        # measure and server steps: same labels, same servers, same order
        protocol = resolve_protocol(name, 2, countermeasure)
        x = Database.from_string("10")
        oracle, _ = parity_query(protocol, x)
        honest = [(step.label, step.custody[step.moved[0]] if step.moved else step.party)
                  for step in protocol.run(x, 1, oracle.r, oracle.masks).steps
                  if step.label.partition(":")[0] in ("send", "measure", protocol.verb)]
        assert len(honest) == protocol.k * (3 if countermeasure else 2)
        assert [(label, server_party(j)) for label, j, _ in oracle.checkpoints] == honest * 2
        views = oracle.server_views()
        assert list(views) == [(party, label) for label, party in honest]
        assert set(views) <= set(adversary.server_state_mixtures(protocol, 1))


def hex_terms(state, width):
    """A state's terms on its low ``width`` bits, in key order, amplitudes in ``float.hex``."""
    mask = (1 << width) - 1
    return [(k & mask, v.real.hex(), v.imag.hex()) for k, v in state.terms.items()]


class TestOnePreparation:
    @pytest.mark.parametrize("name, n", [("bell2", n) for n in range(2, 13)]
                             + [(f"qspir({s})", n) for s in ("subset2", "trivial1")
                                for n in (2, 3, 4)])
    def test_honest_query_is_the_echo_prepared_state(self, name, n):
        # the echo's first send carries the state it prepared; on the basis
        # input |i-1>|0> its sign and work registers hold the honest query
        # state at index i, at every draw, to the bit and in key order
        protocol = resolve_protocol(name, n)
        x = Database(n, 0)
        width = protocol.layout().width
        for r in protocol.randomness_space():
            for masks in protocol.mask_space():
                for i in range(1, n + 1):
                    build = protocol.run(x, i, r, masks).steps[1]
                    oracle = CleanQueryOracle(protocol, x, r, tuple(masks))
                    oracle.query_branches(SparseState.basis(attack_input_layout(n), (i - 1) << 1))
                    label, _, ((_, prepared),) = oracle.checkpoints[0]
                    assert (build.label, label) == ("build", "send:server1")
                    assert (hex_terms(prepared, width)
                            == hex_terms(build.branches[0][1], width)), (i, r, masks)
