"""Dishonest-user suite: clean queries, the parity attack, the fix."""

import json
import math
from collections import Counter

import pytest

from qspirlab import adversary
from qspirlab.adversary import (
    CleanQueryOracle,
    _draw_space,
    attack_input_layout,
    attack_output_mixture,
    clean_query,
    honest_output_mixture,
    leakage_report,
    mutual_information_bits,
    parity,
    parity_attack,
    verify_undetectability,
)
from qspirlab.protocols import resolve_protocol
from qspirlab.schemes import Database, all_databases
from qspirlab.states import SparseState, equal_up_to_global_phase

from helpers import leaky_attack_views

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


class TestParityAttack:
    @pytest.mark.parametrize("name", ["qspir(subset2)", "qspir(trivial1)", "bell2"])
    def test_all_databases(self, name):
        protocol = resolve_protocol(name, 2)
        for x in all_databases(2):
            outcome = parity_attack(protocol, x)
            assert outcome.success
            assert outcome.expected == parity(x)

    def test_every_draw_succeeds(self):
        protocol = resolve_protocol("qspir(subset2)", 2)
        for x in all_databases(2):
            for r in range(4):
                for m1 in (0, 1):
                    for m2 in (0, 1):
                        assert parity_attack(protocol, x, r, (m1, m2)).success

    def test_requires_two_bits(self):
        with pytest.raises(ValueError):
            parity_attack(resolve_protocol("qspir(subset2)", 4), Database.from_string("0000"))


def old_attack_output_mixture(protocol, x):
    """The attack's output mixture as a loop over whole ``parity_attack`` outcomes."""
    draws = _draw_space(protocol)
    output = {}
    for r, masks in draws:
        for bit, p in parity_attack(protocol, x, r, masks).output_distribution.items():
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

    def test_no_databases(self):
        report = verify_undetectability(resolve_protocol("qspir(subset2)", 2), databases=[])
        assert json.dumps(report.to_jsonable()) == report_json(
            grid={"n": 2, "databases": 0, "draws": 16}, details={"comparisons": 0})

    @pytest.mark.parametrize("name,per_database", [("qspir(subset2)", False),
                                                   ("qspir(trivial1)", False), ("bell2", True)])
    def test_honest_states_built_once_per_index(self, name, per_database, monkeypatch):
        calls = Counter()
        build = adversary.server_state_mixtures

        def counting(protocol, x, i):
            calls[x.value, i] += 1
            return build(protocol, x, i)

        monkeypatch.setattr(adversary, "server_state_mixtures", counting)
        assert verify_undetectability(resolve_protocol(name, 2)).passed
        databases = range(4) if per_database else [0]
        assert calls == Counter({(x, i): 1 for x in databases for i in (1, 2)})

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
                    assert plain.run_output(x, i, r) == measured.run_output(x, i, r)
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

    def test_mutual_information_basics(self):
        assert mutual_information_bits({(0, 0): 0.5, (1, 1): 0.5}) == pytest.approx(1.0)
        assert mutual_information_bits({(0, 0): 0.25, (0, 1): 0.25,
                                        (1, 0): 0.25, (1, 1): 0.25}) == pytest.approx(0.0)
        with pytest.raises(ValueError):
            mutual_information_bits({(0, 0): 0.3})


class TestOutcomeRecord:
    def test_outcome_serializes(self):
        protocol = resolve_protocol("qspir(subset2)", 2)
        outcome = parity_attack(protocol, Database.from_string("10"), r=1, masks=(1, 0))
        data = outcome.to_jsonable()
        assert data["scenario"] == "parity2"
        assert data["expected"] == 1
        assert data["draws"] == {"r": 1, "masks": [1, 0]}

    def test_server_views_recorded_at_honest_labels(self):
        protocol = resolve_protocol("qspir(subset2)", 2)
        outcome = parity_attack(protocol, Database.from_string("10"))
        keys = set(outcome.server_views)
        assert ("server1", "send:server1") in keys
        assert ("server2", "phase:server2") in keys
