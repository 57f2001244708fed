"""Audit behavior: exhaustive verdicts, witnesses, and cross-validation."""

import itertools
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qspirlab import adversary, audits, bell, compiler, transcript
from qspirlab.adversary import verify_undetectability
from qspirlab.audits import (
    AuditReport,
    audit_comm,
    audit_data_privacy,
    audit_recovery,
    audit_user_privacy_classical,
    audit_user_privacy_quantum,
    compare_views,
    make_grid,
    run_audit,
    server_state_mixtures,
    user_view,
    _server_histograms,
    _server_mixtures_generic,
)
from qspirlab.compiler import CompiledProtocol, server_register
from qspirlab.density import DensityAccumulator, entries_close, partial_trace, trace_distance
from qspirlab.protocols import ClassicalProtocol, resolve_protocol
from qspirlab.schemes import Database, all_databases, make_scheme, run_classically
from qspirlab.transcript import USER, server_party, server_round

from helpers import (
    CorruptedSubsetScheme,
    LeakyScheme,
    RandomXorScheme,
    audit_data_privacy_classical_direct,
    audit_recovery_per_draw,
    data_privacy_by_transcripts,
    feed_user_mixtures,
    query_state,
)


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
        assert report.details["distinct_mask_combos"] == 256

    def test_classical_protocol_also_audited(self):
        report = audit_recovery(resolve_protocol("cube2", 8),
                                make_grid(8, databases=16, seed=3))
        assert report.passed


class TestRecoveryRepresentatives:
    """One draw per (x, i, r) stands for its whole mask product, to the bit."""

    @pytest.mark.parametrize("countermeasure", [False, True], ids=["plain", "countermeasure"])
    @pytest.mark.parametrize("name, n, databases", [
        ("qspir(subset2)", 3, "all"),
        ("qspir(subset2)", 4, "all"),
        ("qspir(trivial1)", 4, "all"),
        ("qspir(cube2)", 8, 8),  # cycle mode
        ("bell2", 4, "all"),
        ("subset2", 3, "all"),
    ])
    def test_report_equals_the_per_draw_loop(self, name, n, databases, countermeasure):
        grid = make_grid(n, databases=databases)
        want = audit_recovery_per_draw(resolve_protocol(name, n, countermeasure), grid)
        got = audit_recovery(resolve_protocol(name, n, countermeasure), grid)
        assert json.dumps(got.to_jsonable()) == json.dumps(want.to_jsonable())

    @pytest.mark.parametrize("countermeasure", [False, True], ids=["plain", "countermeasure"])
    def test_failing_report_keeps_its_witness(self, countermeasure):
        grid = make_grid(3)
        want = audit_recovery_per_draw(CompiledProtocol(CorruptedSubsetScheme(3), countermeasure),
                                       grid)
        got = audit_recovery(CompiledProtocol(CorruptedSubsetScheme(3), countermeasure), grid)
        assert not got.passed and got.witness["example"] is not None
        assert json.dumps(got.to_jsonable()) == json.dumps(want.to_jsonable())

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_random_schemes(self, k):
        # a = 2: 4 to 256 mask tuples, so both full and cycle mode
        grid = make_grid(3)
        for seed in range(3):
            def protocol():
                return CompiledProtocol(RandomXorScheme(3, k=k, t=2, a=2, seed=seed))
            want = audit_recovery_per_draw(protocol(), grid)
            got = audit_recovery(protocol(), grid)
            assert json.dumps(got.to_jsonable()) == json.dumps(want.to_jsonable())

    @pytest.mark.parametrize("name, n, databases", [
        ("qspir(subset2)", 3, "all"), ("qspir(trivial1)", 3, "all"), ("qspir(cube2)", 8, 4),
    ])
    def test_one_draw_per_database_index_and_randomness(self, monkeypatch, name, n, databases):
        protocol = resolve_protocol(name, n)
        grid = make_grid(n, databases=databases)
        run_outputs = protocol.run_outputs
        batches = []
        monkeypatch.setattr(protocol, "run_outputs",
                            lambda x, draws: batches.append((x, draws)) or run_outputs(x, draws))
        report = audit_recovery(protocol, grid)
        rand = list(protocol.randomness_space())
        assert [(x, [(i, r) for i, r, _ in draws]) for x, draws in batches] == [
            (x, [(i, r) for r in rand]) for x in grid.databases for i in grid.indices]
        # and each stands for its whole product
        assert report.details["runs"] > sum(len(draws) for _, draws in batches)


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

    @pytest.mark.parametrize("extra", [False, True], ids=["renamed", "extra"])
    def test_view_missing_at_one_index_fails(self, extra, monkeypatch):
        # a (server, step) view that only one of two indices has tells them apart
        build = audits.server_state_mixtures

        def relabelled(protocol, x, i):
            mixtures = dict(build(protocol, x, i))
            if i == 2:
                dm = mixtures[("server1", "send:server1")]
                if not extra:
                    del mixtures[("server1", "send:server1")]
                mixtures[("server1", "send1")] = dm
            return mixtures

        monkeypatch.setattr(audits, "server_state_mixtures", relabelled)
        report = audit_user_privacy_quantum(resolve_protocol("qspir(subset2)", 2), make_grid(2))
        assert not report.passed
        assert report.witness == {"server": "server1", "step": "send1" if extra else "send:server1",
                                  "i": 1, "i_prime": 2, "x": "00", "distance": None}
        assert report.worst_case_distance <= 1e-9

    def test_fast_path_matches_generic(self):
        # every holder at every step, as the transcript path keys them: 8 for k = 2
        protocol = resolve_protocol("qspir(subset2)", 2)
        x = Database.from_string("10")
        fast = _server_histograms(protocol, 1)
        assert len(fast) == 8
        assert exact_entries(fast) == exact_entries(_server_mixtures_generic(protocol, x, 1))

    @pytest.mark.parametrize("countermeasure", [False, True])
    def test_histogram_matches_generic_for_three_servers(self, countermeasure):
        # a=2: 64 mask combinations, so the generic path runs every one of
        # them, and each server's state comes from the whole protocol run;
        # the closed form gives its every key and entry, to the bit
        protocol = CompiledProtocol(RandomXorScheme(3, a=2, seed=1), countermeasure)
        grid = make_grid(3)
        assert audits._mask_mode(protocol)[0] == "full"
        for i in grid.indices:
            generic = _server_mixtures_generic(protocol, Database.from_string("110"), i)
            fast = _server_histograms(protocol, i)
            # sends 1 + 2 + 3, then 3 holders per server step, then returns 2 + 1
            assert len(fast) == (27 if countermeasure else 18)
            assert exact_entries(fast) == exact_entries(generic)

    def test_key_order_is_the_same_under_any_string_hashing(self):
        # holders are visited in custody order, not in a set's hash order
        code = ("from qspirlab.audits import server_state_mixtures\n"
                "from qspirlab.protocols import resolve_protocol\n"
                "from qspirlab.schemes import Database\n"
                "for name in ('qspir(subset2)', 'bell2'):\n"
                "    print(list(server_state_mixtures(resolve_protocol(name, 2), Database(2, 1), 1)))\n")
        root = Path(__file__).resolve().parents[1]
        orders = set()
        for seed in ("0", "1", "2", "3"):
            env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED=seed)
            done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                  text=True, timeout=120)
            assert done.returncode == 0, done.stderr
            orders.add(done.stdout)
        (out,) = orders
        assert out.splitlines()[0].startswith(
            "[('server1', 'send:server1'), ('server1', 'send:server2'), "
            "('server2', 'send:server2'), ('server1', 'phase:server1'), "
            "('server2', 'phase:server1'),")

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
            sent = [(1.0, query_state(plan, [m if jj == j else 0 for jj in range(1, s.k + 1)]))
                    for m in range(1 << s.a)]
            steps = server_round(sent, (j,), protocol.server_registers, operate, protocol.verb,
                                 protocol.dephase_servers)
            for label, _, branches in steps:
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
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_repeated_queries_match_dict_sweep(self, seed, countermeasure):
        # t=2 over 64 randomness values: each query comes from many plans, its
        # block apart (s != 0) in some and together (s = 0) in others, so the
        # fold sums many plans' products in plan order
        scheme = RandomXorScheme(3, k=2, t=2, a=7, randomness_size=64, seed=seed)
        protocol = CompiledProtocol(scheme, countermeasure)
        assert audits._mask_mode(protocol)[0] == "cycle"
        x = Database.from_string("101")
        for i in range(1, 4):
            for j in range(2):
                kinds: dict[int, Counter] = {}
                for r in scheme.randomness_space:
                    plan = scheme.gen_plan(i, r)
                    kinds.setdefault(plan.queries[j], Counter())[plan.selects[j] != 0] += 1
                assert any(c[True] and c[False] for c in kinds.values())
            assert exact_entries(_server_histograms(protocol, i)) == \
                exact_entries(dict_sweep(protocol, x, i))

    @pytest.mark.parametrize("countermeasure", [False, True])
    def test_cube_audit_draws_no_masks(self, countermeasure, monkeypatch):
        # cycle mode is read off the head of the mask space, not off its draws
        def cycled_masks(protocol):
            raise AssertionError("the user-privacy audit reads no mask draws")

        monkeypatch.setattr(audits, "_cycled_masks", cycled_masks)
        grid = make_grid(8, databases=["10110100"])
        report = run_audit(resolve_protocol("qspir(cube2)", 8, countermeasure), "user-privacy", grid)
        assert report.passed and report.details["comparisons"] > 0

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


# compiled protocols in full mask mode, whose server states the generic transcript path builds too
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
            for key in dict.fromkeys([*mixtures[base_i], *mixtures[i]]):
                if key in mixtures[base_i] and key in mixtures[i]:
                    d = trace_distance(mixtures[base_i][key], mixtures[i][key])
                    comparisons += 1
                    worst = max(worst, d)
                else:  # a view one index has and the other lacks
                    d = None
                if witness is None and (d is None or d > audits.TOL):
                    witness = {"server": key[0], "step": key[1], "i": base_i,
                               "i_prime": i, "x": str(x), "distance": d}
    return AuditReport(kind="user-privacy", protocol=protocol.name, grid=grid.describe(),
                       tolerance=audits.TOL, worst_case_distance=worst,
                       passed=witness is None, witness=witness,
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


# full mode at every k from 1 to 4 (a * k <= 6), zero selects from k = 2 on
CLOSED_FORM = {
    **COMPILED,
    **{f"{s}-4": (lambda cm, s=s: resolve_protocol(f"qspir({s})", 4, cm))
       for s in ("trivial1", "subset2")},
    **{f"random-k{k}-3": (lambda cm, k=k: CompiledProtocol(
        RandomXorScheme(3, k=k, t=2, a=1 if k == 4 else 2, seed=10 + k), cm)) for k in (1, 2, 3, 4)},
}


def refuse_transcripts(monkeypatch):
    """Make the step engine raise, as ``transcript`` and ``compiler`` look it up."""
    def execute(*args, **kwargs):
        raise AssertionError("a transcript ran")

    for module in (transcript, compiler):
        monkeypatch.setattr(module, "execute", execute)


class TestClosedForm:
    """A compiled protocol's server states come from the plan tables and one
    stand-in run per split pattern: the transcript path's, to the bit."""

    @pytest.mark.parametrize("countermeasure", [False, True], ids=["plain", "countermeasure"])
    @pytest.mark.parametrize("name", list(CLOSED_FORM))
    def test_every_index_gives_the_transcript_paths_states(self, name, countermeasure):
        protocol = CLOSED_FORM[name](countermeasure)
        assert audits._mask_mode(protocol)[0] == "full"
        if name.startswith("random") and protocol.k > 1:
            assert 0 in {sel for i in range(1, protocol.n + 1)
                         for r in protocol.randomness_space()
                         for sel in protocol.scheme.gen_plan(i, r).selects}
        x = Database(protocol.n, (1 << protocol.n) - 1)
        for i in range(1, protocol.n + 1):
            assert exact_entries(server_state_mixtures(protocol, x, i)) == \
                exact_entries(_server_mixtures_generic(protocol, x, i))

    @pytest.mark.parametrize("countermeasure", [False, True], ids=["plain", "countermeasure"])
    @pytest.mark.parametrize("name", list(CLOSED_FORM))
    def test_user_privacy_report_is_the_transcript_paths(self, name, countermeasure, monkeypatch):
        protocol = CLOSED_FORM[name](countermeasure)
        grid = make_grid(protocol.n)
        report = audit_user_privacy_quantum(protocol, grid)
        monkeypatch.setattr(audits, "server_state_mixtures", _server_mixtures_generic)
        reference = audit_user_privacy_quantum(protocol, grid)
        assert json.dumps(report.to_jsonable()) == json.dumps(reference.to_jsonable())

    @pytest.mark.parametrize("countermeasure", [False, True], ids=["plain", "countermeasure"])
    @pytest.mark.parametrize("name,n", [("qspir(subset2)", 2), ("qspir(trivial1)", 3)])
    def test_undetectability_report_is_the_transcript_paths(self, name, n, countermeasure,
                                                             monkeypatch):
        protocol = resolve_protocol(name, n, countermeasure)
        report = verify_undetectability(protocol)
        monkeypatch.setattr(adversary, "server_state_mixtures", _server_mixtures_generic)
        reference = verify_undetectability(protocol)
        assert report.details["comparisons"] > 0
        assert json.dumps(report.to_jsonable()) == json.dumps(reference.to_jsonable())

    @pytest.mark.parametrize("countermeasure", [False, True], ids=["plain", "countermeasure"])
    @pytest.mark.parametrize("name", ["qspir(subset2)", "qspir(trivial1)"])
    def test_user_privacy_runs_no_transcript(self, name, countermeasure, monkeypatch):
        protocol = resolve_protocol(name, 3, countermeasure)
        assert audits._mask_mode(protocol)[0] == "full"
        refuse_transcripts(monkeypatch)
        report = audit_user_privacy_quantum(protocol, make_grid(3))
        assert report.passed and report.details["comparisons"] > 0

    def test_honest_side_of_undetectability_runs_no_transcript(self, monkeypatch):
        protocol = resolve_protocol("qspir(subset2)", 2)
        views = _server_histograms(protocol, 1)
        refuse_transcripts(monkeypatch)
        # the attack side reads the honest states too, so no echo runs either
        report = verify_undetectability(protocol, attack_views=lambda proto, x, r, masks: views)
        assert report.passed and report.details["comparisons"] > 0

    def test_bell_still_runs_its_transcripts(self, monkeypatch):
        refuse_transcripts(monkeypatch)
        monkeypatch.setattr(bell, "execute", transcript.execute)
        with pytest.raises(AssertionError, match="a transcript ran"):
            server_state_mixtures(resolve_protocol("bell2", 2), Database(2, 1), 1)


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


def exact_terms(mapping):
    """Every value of a term or entry map to the bit, in key order."""
    return [(k, c.real.hex(), c.imag.hex()) for k, c in mapping.items()]


def exact_mixtures(mixtures):
    return [(label, acc._weight.hex(), exact_terms(acc._entries), exact_terms(acc.finalize().entries))
            for label, acc in mixtures.items()]


class TestFeedMixtures:
    """A run feeds each step's user state into that step label's mixture, one way only."""

    @pytest.mark.parametrize("countermeasure", [False, True], ids=["plain", "countermeasure"])
    @pytest.mark.parametrize("name,n", [("qspir(subset2)", 3), ("qspir(trivial1)", 3),
                                        ("bell2", 5), ("subset2", 2)])
    def test_matches_step_loop_and_view(self, name, n, countermeasure):
        """To the bit as the test's own step loop; one run alone mixes to its own view."""
        protocol = resolve_protocol(name, n, countermeasure)
        grid = make_grid(n)
        fed, reference = {}, {}
        branch_counts = set()
        for i in grid.indices:
            for r in protocol.randomness_space():
                for masks in audits._data_privacy_masks(protocol):
                    for x in grid.databases:
                        t = protocol.run(x, i, r, masks)
                        branch_counts.add(max(len(s.branches or ()) for s in t.steps))
                        key = (i, x.value)
                        audits._feed_mixtures(t, fed.setdefault(key, {}))
                        feed_user_mixtures(t, reference.setdefault(key, {}))
                        alone = {}
                        audits._feed_mixtures(t, alone)
                        held = [s for s in user_view(t).steps if s.pure or s.rho]
                        assert [s.label for s in held] == list(alone)
                        for s in held:
                            rho = s.rho or partial_trace(s.pure, s.pure.layout.names)
                            assert entries_close(alone[s.label].finalize(), rho)
        assert list(fed) == list(reference)
        for key in fed:
            assert exact_mixtures(fed[key]) == exact_mixtures(reference[key])
        assert (max(branch_counts) > 1) == (countermeasure and name != "subset2")


def per_set_mixtures(protocol, grid):
    """Every set's mixtures, each fed from its class's transcript at every draw.

    The audit's loop with nothing compared and the test's own step loop
    feeding the mixtures: the reference for the mixtures the audit feeds
    beside the views it builds only where a draw has two classes.  Also
    says whether some class held several sets at a draw.
    """
    mask_subset = audits._data_privacy_masks(protocol)
    rand = list(protocol.randomness_space())
    per_group, shared = [], False
    for i in grid.indices:
        for value in (0, 1):
            group = [x for x in grid.databases if x.bit(i) == value]
            if len(group) < 2:
                continue
            alike = {}
            for x in group:
                alike.setdefault(tuple(protocol.view_class(x, i, r) for r in rand), x)
            mixtures = {x.value: {} for x in alike.values()}
            for r_idx, r in enumerate(rand):
                classes = {}
                for signature, x in alike.items():
                    classes.setdefault(signature[r_idx], []).append(x)
                for masks in mask_subset:
                    for members in classes.values():
                        t = protocol.run(members[0], i, r, masks)
                        shared |= len(members) > 1
                        for x in members:
                            feed_user_mixtures(t, mixtures[x.value])
            per_group.append([mixtures[x.value] for x in alike.values()])
    return per_group, shared


def draws_compared(protocol, grid):
    """Classes per index summed over every draw of two classes or more."""
    expected = Counter()
    masks = len(audits._data_privacy_masks(protocol))
    for i in grid.indices:
        for value in (0, 1):
            group = [x for x in grid.databases if x.bit(i) == value]
            for r in protocol.randomness_space() if len(group) > 1 else ():
                classes = len({protocol.view_class(x, i, r) for x in group})
                if classes > 1:
                    expected[i] += classes * masks
    return expected


def transcripts_expected(protocol, grid):
    """Classes per index summed over every draw of a group with two signature sets or more."""
    expected = Counter()
    masks = len(audits._data_privacy_masks(protocol))
    rand = list(protocol.randomness_space())
    for i in grid.indices:
        for value in (0, 1):
            signatures = {tuple(protocol.view_class(x, i, r) for r in rand)
                          for x in grid.databases if x.bit(i) == value}
            if len(signatures) > 1:
                for r_idx in range(len(rand)):
                    expected[i] += len({sig[r_idx] for sig in signatures}) * masks
    return expected


class TestViewsOnlyWhereCompared:
    """Per-draw views are built once per class where a draw has two, and nowhere else.

    Transcripts run and mixtures are built only in a group of two view class
    signature sets or more; there every set's mixtures are fed at every
    draw, and finalized once.
    """

    @pytest.mark.parametrize("countermeasure", [False, True], ids=["plain", "countermeasure"])
    @pytest.mark.parametrize("make,runs", [
        (lambda cm: resolve_protocol("qspir(subset2)", 3, cm), False),
        (lambda cm: resolve_protocol("qspir(trivial1)", 4, cm), False),
        (lambda cm: resolve_protocol("bell2", 5, cm), False),
        (lambda cm: resolve_protocol("subset2", 2, cm), True),
        (lambda cm: CompiledProtocol(CorruptedSubsetScheme(3), cm), True),
        # the shapes of TestDataPrivacyByClass.test_views_follow_the_reconstruction:
        # every group holds two to four signature sets
        *[(lambda cm, k=k: CompiledProtocol(
            RandomXorScheme(3, k=k, t=2, a=1, randomness_size=2, seed=k), cm), True)
          for k in (1, 2, 3, 4)],
    ], ids=["qspir-subset2", "qspir-trivial1", "bell2", "subset2", "corrupted",
            "random-k1", "random-k2", "random-k3", "random-k4"])
    def test_transcripts_only_in_groups_of_two_sets(self, make, runs, countermeasure,
                                                    monkeypatch):
        """One run per class per draw of a group with two sets; none for a
        correct quantum protocol, whose every group is one set."""
        protocol = make(countermeasure)
        grid = make_grid(protocol.n)
        expected = transcripts_expected(protocol, grid)
        calls = []
        run = protocol.run

        def counting(x, i, r, masks):
            calls.append(i)
            return run(x, i, r, masks)

        monkeypatch.setattr(protocol, "run", counting)
        report = audit_data_privacy(protocol, grid)
        assert report.details["pairs_compared"] > 0
        assert (sum(expected.values()) > 0) == runs
        assert Counter(calls) == expected

    @staticmethod
    def _count_views(monkeypatch):
        calls = []
        original = audits.user_view

        def counting(t):
            calls.append(t.i)
            return original(t)

        monkeypatch.setattr(audits, "user_view", counting)
        return calls

    @pytest.mark.parametrize("countermeasure", [False, True], ids=["plain", "countermeasure"])
    @pytest.mark.parametrize("name,n", [("qspir(subset2)", 3), ("qspir(trivial1)", 4),
                                        ("bell2", 5)])
    def test_no_views_where_every_draw_has_one_class(self, name, n, countermeasure,
                                                     monkeypatch):
        protocol = resolve_protocol(name, n, countermeasure)
        calls = self._count_views(monkeypatch)
        report = audit_data_privacy(protocol, make_grid(n))
        assert report.passed and report.details["pairs_compared"] > 0
        assert calls == []

    @pytest.mark.parametrize("countermeasure", [False, True], ids=["plain", "countermeasure"])
    @pytest.mark.parametrize("make", [lambda cm: resolve_protocol("subset2", 2, cm),
                                      lambda cm: CompiledProtocol(CorruptedSubsetScheme(3), cm)],
                             ids=["subset2", "corrupted"])
    def test_one_view_per_class_where_compared(self, make, countermeasure, monkeypatch):
        protocol = make(countermeasure)
        grid = make_grid(protocol.n)
        expected = draws_compared(protocol, grid)
        calls = self._count_views(monkeypatch)
        audit_data_privacy(protocol, grid)
        assert sum(expected.values()) > 0
        assert Counter(calls) == expected

    @staticmethod
    def _record_mixtures(monkeypatch):
        """The accumulators ``_feed_mixtures`` fills, and each group's sets as compared."""
        fed, groups = {}, []
        feed, mixed_view_distance = audits._feed_mixtures, audits._mixed_view_distance

        def recording_feed(t, mixtures):
            feed(t, mixtures)
            fed.update((id(acc), acc) for acc in mixtures.values())  # kept alive

        def recording_distance(per_x, group):
            groups.append([per_x[x.value] for x in group])
            return mixed_view_distance(per_x, group)

        monkeypatch.setattr(audits, "_feed_mixtures", recording_feed)
        monkeypatch.setattr(audits, "_mixed_view_distance", recording_distance)
        return fed, groups

    @pytest.mark.parametrize("name,n", [("bell2", 4), ("subset2", 3)])
    def test_each_mixture_finalized_once_per_group(self, name, n, monkeypatch):
        """One accumulator set per view class signature, each finalized exactly
        once, and only in a group of two sets or more.

        A bell2 group is one class (x_i), so it builds and finalizes no
        accumulator; a classical subset2 group holds one set per answers
        pattern over r.
        """
        protocol = resolve_protocol(name, n)
        grid = make_grid(n)
        rand = list(protocol.randomness_space())
        expected = []
        for i in grid.indices:
            t = protocol.run(grid.databases[0], i, rand[0], ())
            steps = sum(1 for step in t.steps if step.branches is not None and step.holdings(USER))
            for value in (0, 1):
                signatures = {tuple(protocol.view_class(x, i, r) for r in rand)
                              for x in grid.databases if x.bit(i) == value}
                if len(signatures) > 1:
                    expected.append(len(signatures) * steps)
        built, finalized = [], []
        init, finalize = DensityAccumulator.__init__, DensityAccumulator.finalize

        def counting_init(self, *args):
            built.append(self)
            init(self, *args)

        def counting_finalize(self):
            finalized.append(self)  # kept alive, so ids stay distinct
            return finalize(self)

        monkeypatch.setattr(DensityAccumulator, "__init__", counting_init)
        monkeypatch.setattr(DensityAccumulator, "finalize", counting_finalize)
        fed, groups = self._record_mixtures(monkeypatch)
        audit_data_privacy(protocol, grid)
        counts = Counter(map(id, finalized))
        accs = [[acc for mixtures in sets for acc in mixtures.values()] for sets in groups]
        assert [len(group) for group in accs] == expected
        # bell2: one set per group, so none compared; subset2: each of a group's
        # 4 databases answers differently at some r, times 5 steps
        assert expected == {"bell2": [], "subset2": [4 * 5] * 6}[name]
        assert sorted(fed) == sorted(id(acc) for group in accs for acc in group)
        for group in accs:
            assert [counts[id(acc)] for acc in group] == [1] * len(group)
        if name == "bell2":  # and no view either: every draw has one class
            assert built == [] and finalized == []

    @pytest.mark.parametrize("countermeasure", [False, True], ids=["plain", "countermeasure"])
    @pytest.mark.parametrize("make,shared", [
        (lambda cm: resolve_protocol("subset2", 2, cm), True),
        (lambda cm: CompiledProtocol(CorruptedSubsetScheme(3), cm), True),
        (lambda cm: resolve_protocol("qspir(subset2)", 3, cm), False),
        (lambda cm: resolve_protocol("bell2", 4, cm), False),
        *[(lambda cm, seed=seed: CompiledProtocol(
            RandomXorScheme(3, k=2, t=2, a=1, randomness_size=2, seed=seed), cm), True)
          for seed in range(3)],
    ], ids=["subset2", "corrupted", "qspir-subset2", "bell2",
            "random-0", "random-1", "random-2"])
    def test_mixtures_match_per_set_views(self, make, shared, countermeasure, monkeypatch):
        """Every compared set's mixture, fed with or without a view, to the bit and
        in key order; a group of one set feeds none."""
        protocol = make(countermeasure)
        grid = make_grid(protocol.n)
        reference, reference_shared = per_set_mixtures(protocol, grid)
        assert reference_shared == shared
        fed, recorded = self._record_mixtures(monkeypatch)
        audit_data_privacy(protocol, grid)
        assert [[exact_mixtures(m) for m in sets] for sets in recorded] == \
            [[exact_mixtures(m) for m in sets] for sets in reference if len(sets) > 1]
        assert sorted(fed) == sorted(id(acc) for sets in recorded for mixtures in sets
                                     for acc in mixtures.values())


def report_bytes(report):
    return json.dumps(report.to_jsonable(), sort_keys=True)


class TestDataPrivacyByClass:
    """One transcript per view class gives the transcript loop's report, byte for byte.

    The random tables make no correct PIR scheme, so a group usually holds
    both classes c = 0 and c = 1, and several patterns of c over r.  A Bell
    group is one class, x_i; a classical group holds one per answers tuple.
    """

    @pytest.mark.parametrize("countermeasure", [False, True], ids=["plain", "countermeasure"])
    @pytest.mark.parametrize("name,n", [("bell2", n) for n in range(2, 7)]
                             + [(name, n) for name in ("subset2", "cube2", "trivial1")
                                for n in range(2, 5)]
                             + [(name, n) for name in ("qspir(subset2)", "qspir(trivial1)")
                                for n in range(1, 4)])
    def test_registered_protocols(self, name, n, countermeasure):
        protocol = resolve_protocol(name, n, countermeasure)
        grid = make_grid(n)
        report = audit_data_privacy(protocol, grid)
        assert report.passed == (protocol.kind == "quantum")
        assert report_bytes(report) == report_bytes(data_privacy_by_transcripts(protocol, grid))

    @settings(max_examples=4, deadline=None)
    @given(data=st.data())
    @pytest.mark.parametrize("countermeasure", [False, True], ids=["plain", "countermeasure"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_random_schemes(self, k, countermeasure, data):
        n = data.draw(st.integers(2, 3), label="n")
        # a mask product of at most 2**4 combinations: full mask mode
        a = data.draw(st.integers(1, 4 // k), label="a")
        t = data.draw(st.integers(0, 2), label="t")
        size = data.draw(st.integers(1, 2), label="randomness_size")
        seed = data.draw(st.integers(0, 1 << 16), label="seed")
        protocol = CompiledProtocol(RandomXorScheme(n, k=k, t=t, a=a, randomness_size=size,
                                                    seed=seed), countermeasure)
        assert audits._mask_mode(protocol)[0] == "full"
        grid = make_grid(n)
        assert report_bytes(audit_data_privacy(protocol, grid)) == \
            report_bytes(data_privacy_by_transcripts(protocol, grid))

    @pytest.mark.parametrize("countermeasure", [False, True], ids=["plain", "countermeasure"])
    def test_corrupted_scheme(self, countermeasure):
        protocol = CompiledProtocol(CorruptedSubsetScheme(3), countermeasure)
        report = audit_data_privacy(protocol, make_grid(3))
        assert report.passed == countermeasure
        assert report_bytes(report) == \
            report_bytes(data_privacy_by_transcripts(protocol, make_grid(3)))

    def test_cycled_masks(self):
        # 128 mask combinations: the first 4 at every (i, r), on all 128 databases
        protocol = resolve_protocol("qspir(trivial1)", 7)
        assert audits._mask_mode(protocol)[0] == "cycle"
        grid = make_grid(7)
        assert report_bytes(audit_data_privacy(protocol, grid)) == \
            report_bytes(data_privacy_by_transcripts(protocol, grid))

    @pytest.mark.parametrize("countermeasure", [False, True], ids=["plain", "countermeasure"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_views_follow_the_reconstruction(self, k, countermeasure):
        """Equal c gives equal views; without the countermeasure, unequal c unequal ones."""
        scheme = RandomXorScheme(3, k=k, t=2, a=1, randomness_size=2, seed=k)
        protocol = CompiledProtocol(scheme, countermeasure)
        kinds = Counter()
        for i in range(1, 4):
            for r in protocol.randomness_space():
                for masks in protocol.mask_space():
                    views = [(run_classically(scheme, x, i, r),
                              user_view(protocol.run(x, i, r, masks))) for x in all_databases(3)]
                    for (c, view), (c_prime, view_prime) in itertools.combinations(views, 2):
                        equal = compare_views(view, view_prime) is None
                        assert equal == (c == c_prime or countermeasure), (i, r, masks)
                        kinds[c == c_prime] += 1
        assert kinds[True] and kinds[False]


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
