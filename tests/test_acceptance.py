"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdicts.
Every criterion is exhaustive over its declared grid at tolerance 1e-9
(1e-12 for the dense-reference equivalence) and carries the runtime budget
it must meet.
"""

import time

import pytest

from qspirlab.adversary import (
    attack_output_mixture,
    leakage_report,
    parity,
    parity_attack,
    verify_undetectability,
)
from qspirlab.audits import (
    audit_data_privacy,
    audit_recovery,
    audit_user_privacy_quantum,
    make_grid,
    representative_databases,
)
from qspirlab.bell import BellProtocol, build_bell_query
from qspirlab.density import maximally_mixed, partial_trace, trace_distance
from qspirlab.experiments import comm_table
from qspirlab.protocols import resolve_protocol
from qspirlab.schemes import Database, all_databases

TOL = 1e-9


def verdict(number: int, ok: bool, text: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {number} failed: {text}"


def test_criterion_1_recovery_exactness():
    started = time.monotonic()
    reports = []
    for name, sizes in (("qspir(trivial1)", (1, 2, 3, 4)), ("qspir(subset2)", (1, 2, 3, 4))):
        for n in sizes:
            reports.append(audit_recovery(resolve_protocol(name, n), make_grid(n)))
    cube = audit_recovery(resolve_protocol("qspir(cube2)", 8), make_grid(8))
    reports.append(cube)
    elapsed = time.monotonic() - started
    ok = all(r.passed for r in reports)
    ok = ok and all(r.details["min_recovery_probability"] >= 1.0 - TOL for r in reports)
    ok = ok and cube.details["distinct_mask_combos"] >= 512
    ok = ok and elapsed < 120
    runs = sum(r.details["runs"] for r in reports)
    verdict(1, ok, f"recovery = requested bit on every run ({runs} runs, "
                   f"{cube.details['distinct_mask_combos']} cube mask combos, {elapsed:.1f}s)")


def test_criterion_2_user_privacy():
    started = time.monotonic()
    worst = 0.0
    for name, sizes in (("qspir(trivial1)", (1, 2, 3, 4)), ("qspir(subset2)", (1, 2, 3, 4))):
        for n in sizes:
            report = audit_user_privacy_quantum(resolve_protocol(name, n), make_grid(n))
            assert report.passed, report.witness
            worst = max(worst, report.worst_case_distance)
    cube_grid = make_grid(8, databases=[str(d) for d in representative_databases(8)])
    report = audit_user_privacy_quantum(resolve_protocol("qspir(cube2)", 8), cube_grid)
    assert report.passed, report.witness
    worst = max(worst, report.worst_case_distance)
    elapsed = time.monotonic() - started
    ok = worst <= TOL and elapsed < 300
    verdict(2, ok, f"server states independent of the index, worst trace distance "
                   f"{worst:.2e} ({elapsed:.1f}s)")


def test_criterion_3_data_privacy():
    started = time.monotonic()
    worst_pairs = 0
    for name, sizes in (("qspir(trivial1)", (1, 2, 3, 4)), ("qspir(subset2)", (1, 2, 3, 4))):
        for n in sizes:
            report = audit_data_privacy(resolve_protocol(name, n), make_grid(n))
            assert report.passed, report.witness
            worst_pairs += report.details["pairs_compared"]
    for n in (2, 3, 4, 5, 6):
        report = audit_data_privacy(resolve_protocol("bell2", n), make_grid(n))
        assert report.passed, report.witness
        worst_pairs += report.details["pairs_compared"]
    elapsed = time.monotonic() - started
    ok = elapsed < 300
    verdict(3, ok, f"user views identical on bit-matched database pairs "
                   f"({worst_pairs} pairs, {elapsed:.1f}s)")


def test_criterion_4_fact_one_illustration():
    classical = audit_data_privacy(resolve_protocol("subset2", 2), make_grid(2))
    quantum = audit_data_privacy(resolve_protocol("qspir(subset2)", 2), make_grid(2))
    ok = (not classical.passed) and classical.witness is not None and quantum.passed
    ok = ok and classical.witness["r"] == "01"  # the subset {2} leaks bit 2
    verdict(4, ok, "classical subset scheme fails data privacy with witness "
                   f"{classical.witness and classical.witness['x']} vs "
                   f"{classical.witness and classical.witness['x_prime']}; "
                   "its quantum compilation passes")


def test_criterion_5_bell_scheme():
    worst_marginal = 0.0
    for n in (2, 4, 6):
        protocol = BellProtocol(n)
        for x in all_databases(n):
            for i in range(1, n + 1):
                out = protocol.run_output(x, i)
                assert out == {x.bit(i): pytest.approx(1.0)}, (str(x), i, out)
        for i in range(1, n + 1):
            state = build_bell_query(i, n)
            for name, _ in state.layout.registers:
                if name == "sign":
                    continue
                rho = partial_trace(state, [name])
                worst_marginal = max(
                    worst_marginal, trace_distance(rho, maximally_mixed(rho.layout)))
        assert protocol.comm_qubits() == 2 * n
        assert protocol.run(Database(n, 0), 1).qubits_total == 2 * n
    ok = worst_marginal <= TOL
    verdict(5, ok, f"Bell scheme exact on n in (2,4,6); transmitted qubits maximally "
                   f"mixed (worst {worst_marginal:.2e}); communication = 2n")


def test_criterion_6_communication_accounting():
    rows = comm_table(["qspir(trivial1)"], [1, 2, 3, 4, 5, 6, 7, 8])
    ok = all(row["measured"] == 2 * row["n"] and row["residual"] == 0 for row in rows)
    subset = comm_table(["qspir(subset2)"], [8])[0]
    ok = ok and subset["measured"] == 36 and subset["residual"] == 0
    cube_rows = comm_table(["qspir(cube2)"], [8, 27, 64])
    ok = ok and [r["measured"] for r in cube_rows] == [52, 76, 100]
    ok = ok and all(r["residual"] == 0 for r in cube_rows)
    verdict(6, ok, "measured qubit counters equal 2k(t+a) with zero residual "
                   "(2n, 36, 52/76/100)")


def test_criterion_7_attack_suite():
    started = time.monotonic()
    protocol = resolve_protocol("qspir(subset2)", 2)
    attack_ok = all(parity_attack(protocol, x).success for x in all_databases(2))
    undetect = verify_undetectability(protocol)
    fixed = protocol.with_countermeasure()
    leak = leakage_report(fixed, "parity2", target=parity)
    success_half = all(
        attack_output_mixture(fixed, x).get(parity(x), 0.0) == pytest.approx(0.5, abs=TOL)
        for x in all_databases(2)
    )
    elapsed = time.monotonic() - started
    ok = attack_ok and undetect.passed and abs(leak) <= TOL and success_half
    ok = ok and elapsed < 60
    verdict(7, ok, f"parity attack certain on all 4 databases, undetectable "
                   f"(worst {undetect.worst_case_distance:.2e}); countermeasure leaves "
                   f"leakage {leak:.2e} bits and success exactly one half ({elapsed:.1f}s)")


def test_criterion_8_dense_reference_equivalence():
    import numpy as np

    from test_reference_equivalence import check_case

    rng = np.random.default_rng(99144)
    total = 0
    while total < 1000:
        total += check_case(rng)
    verdict(8, True, f"sparse and dense simulators agree to 1e-12 on {total} randomized checks")
