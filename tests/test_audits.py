"""Audit behavior: exhaustive verdicts, witnesses, and cross-validation."""

import json
from collections import Counter

import pytest

from qspirlab import audits
from qspirlab.audits import (
    AuditReport,
    audit_comm,
    audit_data_privacy,
    audit_data_privacy_classical_direct,
    audit_recovery,
    audit_user_privacy_classical,
    audit_user_privacy_quantum,
    make_grid,
    run_audit,
    server_state_mixtures,
    user_view,
    _server_histograms,
    _server_mixtures_generic,
)
from qspirlab.compiler import CompiledProtocol, build_query_state, server_register
from qspirlab.density import DensityAccumulator, entries_close, trace_distance
from qspirlab.protocols import ClassicalProtocol, resolve_protocol
from qspirlab.schemes import Database, make_scheme
from qspirlab.transcript import USER, server_party, server_round

from helpers import CorruptedSubsetScheme, LeakyScheme, RandomXorScheme


class TestRecoveryAudit:
    def test_compiled_subset_passes(self):
        report = audit_recovery(resolve_protocol("qspir(subset2)", 2), make_grid(2))
        assert report.passed
        assert report.details["min_recovery_probability"] == pytest.approx(1.0)
        assert report.details["mask_mode"] == "full"

    def test_bell_passes(self):
        report = audit_recovery(resolve_protocol("bell2", 4), make_grid(4))
        assert report.passed

    def test_corrupted_scheme_fails_at_half(self):
        protocol = CompiledProtocol(CorruptedSubsetScheme(2))
        report = audit_recovery(protocol, make_grid(2))
        assert not report.passed
        assert report.details["min_recovery_probability"] == pytest.approx(0.5)
        assert report.witness["x"] == "01"
        assert report.witness["i"] == 1

    def test_cycled_masks_average_over_randomness(self):
        # 256 mask combinations: cycle mode, so the first grid point (x=000,
        # i=1) runs all 256 at r=0 and one at each of the other three r
        protocol = CompiledProtocol(RandomXorScheme(3, k=4, t=3, a=2, seed=4))
        report = audit_recovery(protocol, make_grid(3))
        assert report.details["mask_mode"] == "cycle"
        assert (report.witness["x"], report.witness["i"]) == ("000", 1)
        assert report.witness["recovery_probability"] == pytest.approx(0.25, abs=audits.TOL)

    def test_classical_protocol_also_audited(self):
        report = audit_recovery(resolve_protocol("cube2", 8),
                                make_grid(8, databases=16, seed=3))
        assert report.passed


class TestUserPrivacyClassical:
    def test_subset_uniform_queries(self):
        report = audit_user_privacy_classical(make_scheme("subset2", 3))
        assert report.passed

    def test_cube_both_servers(self):
        report = audit_user_privacy_classical(make_scheme("cube2", 8))
        assert report.passed

    def test_leaky_scheme_fails_with_witness(self):
        report = audit_user_privacy_classical(LeakyScheme(4))
        assert not report.passed
        assert report.witness["i"] == 1
        assert report.witness["i_prime"] == 2
        assert report.witness["server"] == 1


class TestUserPrivacyQuantum:
    def test_compiled_subset_all_steps(self):
        report = audit_user_privacy_quantum(resolve_protocol("qspir(subset2)", 2), make_grid(2))
        assert report.passed
        assert report.worst_case_distance <= 1e-9

    def test_bell_marginals(self):
        report = audit_user_privacy_quantum(resolve_protocol("bell2", 4),
                                            make_grid(4, databases=["0000", "1011"]))
        assert report.passed

    def test_leaky_scheme_fails_with_positive_distance(self):
        protocol = CompiledProtocol(LeakyScheme(4))
        report = audit_user_privacy_quantum(
            protocol, make_grid(4, databases=["0000", "1010"]))
        assert not report.passed
        assert report.worst_case_distance > 0.5
        assert report.witness["server"] == "server1"

    def test_fast_path_matches_generic(self):
        protocol = resolve_protocol("qspir(subset2)", 2)
        x = Database.from_string("10")
        generic = _server_mixtures_generic(protocol, x, 1)
        fast = _server_histograms(protocol, 1)
        assert set(fast) == {(f"server{j}", f"{step}:server{j}")
                             for j in (1, 2) for step in ("send", "phase")}
        assert set(fast) <= set(generic)
        for key in fast:
            assert entries_close(generic[key], fast[key], 1e-12)

    @pytest.mark.parametrize("countermeasure", [False, True])
    def test_histogram_matches_generic_for_three_servers(self, countermeasure):
        # a=2: 64 mask combinations, so the generic path runs every one of
        # them, and each server's state comes from the whole protocol run
        protocol = CompiledProtocol(RandomXorScheme(3, a=2, seed=1), countermeasure)
        grid = make_grid(3)
        assert audits._mask_mode(protocol)[0] == "full"
        for i in grid.indices:
            generic = _server_mixtures_generic(protocol, Database.from_string("110"), i)
            fast = _server_histograms(protocol, i)
            assert len(fast) == 3 * (3 if countermeasure else 2)
            for key in fast:
                assert entries_close(generic[key], fast[key], 1e-12)

    def test_cube_uses_fast_path(self):
        protocol = resolve_protocol("qspir(cube2)", 8)
        mixtures = server_state_mixtures(protocol, Database.from_string("10110100"), 1)
        assert ("server1", "send:server1") in mixtures
        rho = mixtures[("server1", "send:server1")]
        assert rho.is_diagonal


def dict_sweep(protocol, x, i):
    """Server j's own steps over (r, own mask), one SparseState at a time, on database x.

    The other servers' masks are 0.  The reference for the histogram.
    """
    s = protocol.scheme.shape
    layout = protocol.layout()
    operate = protocol.server_operation(x)
    out = {}
    for j in range(1, s.k + 1):
        party = server_party(j)
        accs = {}
        for r in protocol.scheme.randomness_space:
            plan = protocol.scheme.gen_plan(i, r)
            sent = [(1.0, build_query_state(plan, [m if jj == j else 0 for jj in range(1, s.k + 1)]))
                    for m in range(1 << s.a)]
            steps = server_round(sent, (j,), protocol.server_registers, operate, protocol.verb,
                                 protocol.dephase_servers)
            for label, _, branches in [(f"send:{party}", j, sent), *steps]:
                if label not in accs:
                    accs[label] = DensityAccumulator(layout, [server_register(j)])
                accs[label].add_branches(branches)
        out.update(((party, label), acc.finalize()) for label, acc in accs.items())
    return out


def exact_entries(mixtures):
    """Every entry to the bit (signed zeros included), in key order."""
    return [(key, [(uv, c.real.hex(), c.imag.hex()) for uv, c in rho.entries.items()])
            for key, rho in mixtures.items()]


class TestBatchedSweep:
    """The histogram gives the dict sweep's mixtures bit for bit, key order included."""

    @pytest.mark.parametrize("countermeasure", [False, True])
    @pytest.mark.parametrize("i", [1, 8])
    def test_cube_matches_dict_sweep(self, i, countermeasure):
        protocol = resolve_protocol("qspir(cube2)", 8, countermeasure)
        x = Database.from_string("10110100")
        fast = _server_histograms(protocol, i)
        assert exact_entries(fast) == exact_entries(dict_sweep(protocol, x, i))

    @pytest.mark.parametrize("countermeasure", [False, True])
    def test_three_server_scheme_matches_dict_sweep(self, countermeasure):
        # a=7: 2**21 mask combinations, so cycle mode; some selects are 0
        scheme = RandomXorScheme(3, a=7, seed=5)
        protocol = CompiledProtocol(scheme, countermeasure)
        assert audits._mask_mode(protocol)[0] == "cycle"
        selects = {sel for i in (1, 3) for r in scheme.randomness_space
                   for sel in scheme.gen_plan(i, r).selects}
        assert 0 in selects and len(selects) > 1
        for i in (1, 3):
            for x in ("000", "101"):
                assert exact_entries(_server_histograms(protocol, i)) == \
                    exact_entries(dict_sweep(protocol, Database.from_string(x), i))

    @pytest.mark.parametrize("countermeasure", [False, True])
    def test_leaky_scheme_keeps_its_witness(self, countermeasure, monkeypatch):
        # a=8: 256 masks, so cycle mode and the histogram
        protocol = CompiledProtocol(LeakyScheme(8), dephase_servers=countermeasure)
        grid = make_grid(8, databases=["10110100", "01001011"], indices=[1, 8])
        for i in grid.indices:
            fast = exact_entries(_server_histograms(protocol, i))
            for x in grid.databases:
                assert fast == exact_entries(dict_sweep(protocol, x, i))
        report = audit_user_privacy_quantum(protocol, grid)
        assert report.worst_case_distance == 1.0000000000000002
        assert report.witness == {"server": "server1", "step": "send:server1", "i": 1,
                                  "i_prime": 8, "x": "10110100",
                                  "distance": 1.0000000000000002}
        assert report.details["comparisons"] == 2 * len(fast)
        monkeypatch.setattr(audits, "server_state_mixtures",
                            lambda protocol, x, i: dict_sweep(protocol, x, i))
        reference = audit_user_privacy_quantum(protocol, grid)
        assert json.dumps(report.to_jsonable()) == json.dumps(reference.to_jsonable())


# compiled protocols in full mask mode: the generic transcript path builds their server states
COMPILED = {
    **{f"{s}-{n}": (lambda cm, s=s, n=n: resolve_protocol(f"qspir({s})", n, cm))
       for s in ("trivial1", "subset2") for n in (1, 2, 3)},
    **{f"leaky-{n}": (lambda cm, n=n: CompiledProtocol(LeakyScheme(n), cm)) for n in (3, 4)},
    "random-k3-3": lambda cm: CompiledProtocol(RandomXorScheme(3, a=2, seed=1), cm),
    "random-k2-3": lambda cm: CompiledProtocol(RandomXorScheme(3, k=2, a=3, seed=2), cm),
}


def per_database_user_privacy(protocol, grid, mixtures_of):
    """The user-privacy audit over every database's server states: the reference."""
    worst, witness, comparisons = 0.0, None, 0
    for x in grid.databases:
        mixtures = {i: mixtures_of(x, i) for i in grid.indices}
        base_i = grid.indices[0]
        for i in grid.indices[1:]:
            for key in mixtures[base_i]:
                if key not in mixtures[i]:
                    continue
                d = trace_distance(mixtures[base_i][key], mixtures[i][key])
                comparisons += 1
                if d > worst:
                    worst = d
                    if d > audits.TOL and witness is None:
                        witness = {"server": key[0], "step": key[1], "i": base_i,
                                   "i_prime": i, "x": str(x), "distance": d}
    return AuditReport(kind="user-privacy", protocol=protocol.name, grid=grid.describe(),
                       tolerance=audits.TOL, worst_case_distance=worst,
                       passed=worst <= audits.TOL, witness=witness,
                       details={"comparisons": comparisons})


class TestDatabaseIndependence:
    """A compiled protocol's server states are the same on every database, to the bit."""

    @pytest.mark.parametrize("countermeasure", [False, True], ids=["plain", "countermeasure"])
    @pytest.mark.parametrize("name", list(COMPILED))
    def test_every_database_gives_the_first_ones_states(self, name, countermeasure):
        protocol = COMPILED[name](countermeasure)
        grid = make_grid(protocol.n)
        assert audits._mask_mode(protocol)[0] == "full"
        mixtures = {(x.value, i): _server_mixtures_generic(protocol, x, i)
                    for x in grid.databases for i in grid.indices}
        for i in grid.indices:
            first = exact_entries(mixtures[0, i])
            assert len(first) >= 2 * protocol.k
            for x in grid.databases[1:]:
                assert exact_entries(mixtures[x.value, i]) == first
        # so the audit, which builds them on the first database only, reports
        # what the loop over every database's states reports
        report = audit_user_privacy_quantum(protocol, grid)
        reference = per_database_user_privacy(protocol, grid, lambda x, i: mixtures[x.value, i])
        assert json.dumps(report.to_jsonable()) == json.dumps(reference.to_jsonable())
        assert report.details["comparisons"] > 0 or protocol.n == 1
        if name.startswith("leaky"):
            assert not report.passed and report.witness["server"] == "server1"

    @pytest.mark.parametrize("name,per_database", [("qspir(subset2)", False),
                                                   ("qspir(trivial1)", False), ("bell2", True)])
    def test_server_states_built_once_per_index(self, name, per_database, monkeypatch):
        calls = Counter()
        build = audits.server_state_mixtures

        def counting(protocol, x, i):
            calls[x.value, i] += 1
            return build(protocol, x, i)

        monkeypatch.setattr(audits, "server_state_mixtures", counting)
        grid = make_grid(2)
        report = audit_user_privacy_quantum(resolve_protocol(name, 2), grid)
        assert report.passed
        databases = [x.value for x in grid.databases] if per_database else [0]
        assert calls == Counter({(x, i): 1 for x in databases for i in (1, 2)})


class TestDataPrivacy:
    def test_compiled_subset_passes_and_mixed_view_reported(self):
        report = audit_data_privacy(resolve_protocol("qspir(subset2)", 2), make_grid(2))
        assert report.passed
        assert report.details["mixed_view_equal"] is True

    def test_bell_passes(self):
        report = audit_data_privacy(resolve_protocol("bell2", 2), make_grid(2))
        assert report.passed

    def test_classical_subset_fails_with_spec_witness(self):
        report = audit_data_privacy(resolve_protocol("subset2", 2), make_grid(2))
        assert not report.passed
        w = report.witness
        assert (w["i"], w["x"], w["x_prime"]) == (1, "00", "01")
        assert w["r"] == "01"  # the subset containing only position 2
        assert w["step"] == "return:server1"

    def test_classical_direct_twin_agrees(self):
        grid = make_grid(3)
        direct = audit_data_privacy_classical_direct(make_scheme("subset2", 3), grid)
        transcript = audit_data_privacy(resolve_protocol("subset2", 3), grid)
        assert direct.passed == transcript.passed == False
        assert direct.witness["i"] == transcript.witness["i"]
        assert direct.witness["x"] == transcript.witness["x"]
        assert direct.witness["x_prime"] == transcript.witness["x_prime"]
        assert direct.witness["r"] == transcript.witness["r"]

    def test_trivial_compiled_passes(self):
        report = audit_data_privacy(resolve_protocol("qspir(trivial1)", 3), make_grid(3))
        assert report.passed


def two_pass_view(t, mixtures):
    """The user's view of a run and its mixture feed as two passes made them.

    ``user_view`` alone, then each step's holdings traced again into that
    step label's mixture.  The reference for the fused ``user_view(t, mixtures)``.
    """
    view = user_view(t)
    for step in t.steps:
        held = step.holdings(USER)
        if step.branches is None or not held:
            continue
        acc = mixtures.get(step.label)
        if acc is None:
            acc = mixtures[step.label] = DensityAccumulator(t.layout, held)
        acc.add_branches(step.branches)
    return view


def exact_terms(mapping):
    """Every value of a term or entry map to the bit, in key order."""
    return [(k, c.real.hex(), c.imag.hex()) for k, c in mapping.items()]


def exact_view(view):
    return (view.knowledge, view.output, [
        (s.label, s.pure and exact_terms(s.pure.terms), s.rho and exact_terms(s.rho.entries))
        for s in view.steps])


def exact_mixtures(mixtures):
    return [(label, acc._weight.hex(), exact_terms(acc._entries), exact_terms(acc.finalize().entries))
            for label, acc in mixtures.items()]


class TestFusedUserView:
    """One partial trace per (run, step) feeds both the view and the mixture, bit for bit."""

    @pytest.mark.parametrize("countermeasure", [False, True], ids=["plain", "countermeasure"])
    @pytest.mark.parametrize("name,n", [("qspir(subset2)", 3), ("qspir(trivial1)", 3),
                                        ("bell2", 5), ("subset2", 2)])
    def test_matches_two_passes(self, name, n, countermeasure):
        protocol = resolve_protocol(name, n, countermeasure)
        grid = make_grid(n)
        _, mask_subset = audits._mask_mode(protocol)
        fused, reference = {}, {}
        branch_counts = set()
        for i in grid.indices:
            for r in protocol.randomness_space():
                for masks in mask_subset:
                    for x in grid.databases:
                        t = protocol.run(x, i, r, masks)
                        branch_counts.add(max(len(s.branches or ()) for s in t.steps))
                        key = (i, x.value)
                        view = user_view(t, fused.setdefault(key, {}))
                        assert exact_view(view) == exact_view(
                            two_pass_view(t, reference.setdefault(key, {})))
        assert list(fused) == list(reference)
        for key in fused:
            assert exact_mixtures(fused[key]) == exact_mixtures(reference[key])
        assert (max(branch_counts) > 1) == (countermeasure and name != "subset2")

    @pytest.mark.parametrize("name,n", [("bell2", 3), ("qspir(subset2)", 2), ("subset2", 2)])
    def test_audit_report_unchanged(self, name, n, monkeypatch):
        for countermeasure in (False, True):
            protocol = resolve_protocol(name, n, countermeasure)
            report = json.dumps(audit_data_privacy(protocol, make_grid(n)).to_jsonable())
            with monkeypatch.context() as m:
                m.setattr(audits, "user_view", two_pass_view)
                reference = json.dumps(audit_data_privacy(protocol, make_grid(n)).to_jsonable())
            assert report == reference

    def test_each_mixture_finalized_once_per_group(self, monkeypatch):
        finalized = []
        finalize = DensityAccumulator.finalize
        groups = []
        mixed_view_distance = audits._mixed_view_distance

        def counting_finalize(self):
            finalized.append(self)  # kept alive, so ids stay distinct
            return finalize(self)

        def recording_distance(per_x, group):
            groups.append([acc for x in group for acc in per_x[x.value].values()])
            return mixed_view_distance(per_x, group)

        monkeypatch.setattr(DensityAccumulator, "finalize", counting_finalize)
        monkeypatch.setattr(audits, "_mixed_view_distance", recording_distance)
        audit_data_privacy(resolve_protocol("bell2", 4), make_grid(4))
        counts = Counter(map(id, finalized))
        assert len(groups) == 8
        for accs in groups:
            assert len(accs) == 8 * 8  # databases in the group, times steps with a state
            assert [counts[id(acc)] for acc in accs] == [1] * len(accs)


class TestCommAudit:
    @pytest.mark.parametrize("name,n,unit,count", [
        ("qspir(trivial1)", 3, "qubits", 6),
        ("qspir(cube2)", 27, "qubits", 76),
        ("bell2", 4, "qubits", 8),
        ("subset2", 8, "bits", 18),
    ])
    def test_closed_forms(self, name, n, unit, count):
        report = audit_comm(resolve_protocol(name, n), make_grid(n, databases=[str(Database(n, 0))]))
        assert report.passed
        assert report.details["unit"] == unit
        assert report.details["measured"] == count


class TestAuditMachinery:
    def test_reports_are_deterministic(self):
        protocol = resolve_protocol("qspir(subset2)", 2)
        grid = make_grid(2)
        a = audit_recovery(protocol, grid).to_jsonable()
        b = audit_recovery(protocol, grid).to_jsonable()
        assert a == b

    def test_audits_do_not_mutate_protocols(self):
        protocol = resolve_protocol("qspir(subset2)", 2)
        before = (protocol.scheme.n, protocol.dephase_servers)
        audit_recovery(protocol, make_grid(2))
        audit_user_privacy_quantum(protocol, make_grid(2))
        audit_data_privacy(protocol, make_grid(2))
        assert (protocol.scheme.n, protocol.dephase_servers) == before

    def test_failed_report_requires_witness(self):
        with pytest.raises(ValueError):
            AuditReport(kind="recovery", protocol="x", grid={}, tolerance=1e-9,
                        worst_case_distance=1.0, passed=False)

    def test_run_audit_dispatch(self):
        grid = make_grid(2)
        classical = resolve_protocol("subset2", 2)
        assert run_audit(classical, "user-privacy", grid).kind == "user-privacy"
        with pytest.raises(ValueError):
            run_audit(classical, "nope", grid)

    def test_cross_validation_user_privacy(self):
        # the classical multiset audit and the quantum mixture audit agree
        # on the subset scheme through the basis-state encoding
        scheme = make_scheme("subset2", 3)
        classical = audit_user_privacy_classical(scheme)
        quantum = audit_user_privacy_quantum(ClassicalProtocol(scheme), make_grid(3))
        assert classical.passed and quantum.passed
