"""CLI behavior: subcommands, exit codes, output modes, determinism."""

import json

import pytest

from qspirlab import adversary, cli
from qspirlab.adversary import (CleanQueryOracle, attack_output_mixture, honest_output_mixture,
                                leakage_report, parity)
from qspirlab.bell import BellProtocol
from qspirlab.cli import EXIT_FAILED, EXIT_OK, EXIT_USAGE, main
from qspirlab.compiler import CompiledProtocol
from qspirlab.protocols import resolve_protocol
from qspirlab.schemes import Database, all_databases


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAudit:
    def test_all_audits_pass_for_compiled_subset(self, capsys):
        code, out, _ = run_cli(capsys, "audit", "--scheme", "qspir(subset2)", "--n", "2")
        assert code == EXIT_OK
        assert out.count("PASS") == 4

    def test_fact_one_illustration_exit_code(self, capsys):
        code, out, _ = run_cli(capsys, "audit", "--scheme", "subset2", "--n", "2",
                               "--audits", "data-privacy")
        assert code == EXIT_FAILED
        assert "FAIL" in out

    def test_json_mode_is_machine_readable(self, capsys):
        code, out, _ = run_cli(capsys, "audit", "--scheme", "bell2", "--n", "2",
                               "--format", "json")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["passed"] is True
        assert {r["audit"] for r in data["reports"]} == {
            "recovery", "user-privacy", "data-privacy", "comm"}

    def test_comm_audit_with_wide_masks(self, capsys):
        # 70-bit masks: the comm audit runs at the first mask tuple, not a listed product
        code, out, err = run_cli(capsys, "audit", "--scheme", "qspir(trivial1)", "--n", "70",
                                 "--audits", "comm", "--format", "json")
        assert (code, err) == (EXIT_OK, "")
        (report,) = json.loads(out)["reports"]
        assert report["details"] == {"unit": "qubits", "measured": 140, "closed_form": 140}

    def test_unknown_scheme_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "audit", "--scheme", "nope", "--n", "2")
        assert code == EXIT_USAGE
        assert "unknown" in err

    def test_negative_cap_grid_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "audit", "--scheme", "bell2", "--n", "2",
                                 "--cap-grid", "-1")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "qspirlab: the grid cap must be a non-negative int, not -1\n"


class TestRun:
    def test_config_file_with_overrides(self, capsys, tmp_path):
        config = tmp_path / "exp.json"
        config.write_text(json.dumps({
            "scheme": "bell2", "n": 2, "audits": ["recovery", "comm"],
        }))
        out_path = tmp_path / "bundle.json"
        code, _, _ = run_cli(capsys, "run", "--config", str(config),
                             "--out", str(out_path), "--format", "json")
        assert code == EXIT_OK
        bundle = json.loads(out_path.read_text())
        assert bundle["passed"] is True
        assert bundle["communication"][0]["measured"] == 4

    def test_deterministic_bundles(self, capsys, tmp_path):
        args = ("run", "--scheme", "qspir(subset2)", "--n", "2",
                "--audits", "recovery,comm", "--format", "json", "--seed", "5")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_bad_config_keys_rejected(self, capsys, tmp_path):
        config = tmp_path / "exp.json"
        config.write_text(json.dumps({"scheme": "bell2", "n": 2, "bogus": 1}))
        code, _, err = run_cli(capsys, "run", "--config", str(config))
        assert code == EXIT_USAGE
        assert "bogus" in err

    def test_tolerance_other_than_the_audits_rejected(self, capsys, tmp_path):
        config = tmp_path / "exp.json"
        config.write_text(json.dumps({"scheme": "bell2", "n": 2, "tolerance": 0.001}))
        code, _, err = run_cli(capsys, "run", "--config", str(config))
        assert code == EXIT_USAGE == 1
        assert "tolerance" in err

    @pytest.mark.parametrize("keys, message", [
        ({"indices": [3]}, "index 3 outside [1, 2]"),
        ({"indices": ["1"]}, "index '1' outside [1, 2]"),
        ({"indices": []}, "the grid needs at least one database and one index"),
        ({"databases": ["011"]}, "database 011 has 3 bits, not n = 2"),
        ({"databases": ["01", "01"]}, "database 01 is listed twice"),
        ({"indices": [2, 1, 2]}, "index 2 is listed twice"),
        ({"cap_grid": "8"}, "the grid cap must be a non-negative int, not '8'"),
        ({"cap_grid": -1}, "the grid cap must be a non-negative int, not -1"),
        ({"cap_grid": True}, "the grid cap must be a non-negative int, not True"),
        ({"cap_grid": 1.0}, "the grid cap must be a non-negative int, not 1.0"),
        ({"n": True}, "n must be an int, not True"),
        ({"n": 2.0}, "n must be an int, not 2.0"),
        ({"seed": "abc"}, "seed must be an int, not 'abc'"),
        ({"seed": False}, "seed must be an int, not False"),
        # a string would be truthy: "false" ran with the countermeasure
        ({"countermeasure": "false"}, "countermeasure must be true or false, not 'false'"),
        ({"countermeasure": 0}, "countermeasure must be true or false, not 0"),
        ({"audits": []}, "audits must be a non-empty list of audit names, not []"),
        ({"audits": "comm"}, "audits must be a non-empty list of audit names, not 'comm'"),
        ({"audits": ["comm", 1]}, "audits must be a non-empty list of audit names, not ['comm', 1]"),
        ({"scheme": 5}, "scheme must be a protocol name, not 5"),
        ({"out": True}, "out must be a file path, not True"),
        ({"out": 7}, "out must be a file path, not 7"),
    ])
    def test_grid_outside_the_database_is_config_error(self, capsys, tmp_path, keys, message):
        config = tmp_path / "exp.json"
        config.write_text(json.dumps({"scheme": "bell2", "n": 2, "audits": ["comm"], **keys}))
        code, out, err = run_cli(capsys, "run", "--config", str(config))
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"qspirlab: {message}\n"

    @pytest.mark.parametrize("text", ['{"scheme": "bell2", "n": 2,', "", "\xff"])
    def test_malformed_json_is_config_error(self, capsys, tmp_path, text):
        config = tmp_path / "exp.json"
        config.write_bytes(text.encode("latin-1"))
        code, out, err = run_cli(capsys, "run", "--config", str(config))
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith(f"qspirlab: config file {config} is not valid JSON: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("databases, message", [
        ([5], "database 5 is not a bit string"),
        ([True], "database True is not a bit string"),
        (["01", None], "database None is not a bit string"),
        (["0a"], "database '0a' is not a bit string"),
        ([" 1"], "database ' 1' is not a bit string"),  # int(" 1", 2) would read it as 01
        (0, "a database sample holds all-zeros and all-ones, so its size must be at least 2, not 0"),
        (1, "a database sample holds all-zeros and all-ones, so its size must be at least 2, not 1"),
        (True, "databases must be \"all\", a sample size or a list of bit strings, not True"),
        (None, "databases must be \"all\", a sample size or a list of bit strings, not None"),
        (2.0, "databases must be \"all\", a sample size or a list of bit strings, not 2.0"),
        ("01", "databases must be \"all\", a sample size or a list of bit strings, not '01'"),
    ])
    def test_malformed_databases_are_config_error(self, capsys, tmp_path, databases, message):
        config = tmp_path / "exp.json"
        config.write_text(json.dumps({"scheme": "bell2", "n": 2, "audits": ["comm"],
                                      "databases": databases}))
        code, out, err = run_cli(capsys, "run", "--config", str(config))
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"qspirlab: {message}\n"

    @pytest.mark.parametrize("keys, message", [
        ({"databases": ["10", "01", "10"]}, "database 10 is listed twice"),
        ({"indices": [1, 1]}, "index 1 is listed twice"),
    ])
    def test_repeated_grid_entry_with_flags_is_config_error(self, capsys, tmp_path, keys,
                                                            message):
        # the file names the grid, the flags the protocol
        config = tmp_path / "exp.json"
        config.write_text(json.dumps(keys))
        code, out, err = run_cli(capsys, "run", "--config", str(config), "--scheme",
                                 "qspir(subset2)", "--n", "2", "--audits", "recovery")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"qspirlab: {message}\n"

    def test_missing_scheme_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "run", "--n", "2")
        assert code == EXIT_USAGE

    @staticmethod
    def _config(tmp_path):
        config = tmp_path / "exp.json"
        config.write_text(json.dumps({"scheme": "bell2", "n": 2, "audits": ["comm"],
                                      "seed": 5, "cap_grid": 4, "fmt": "json"}))
        return str(config)

    def test_config_keys_kept_without_flags(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "run", "--config", self._config(tmp_path))
        assert code == EXIT_OK
        bundle = json.loads(out)  # the file's "fmt": "json", not the table default
        assert bundle["seed"] == bundle["config"]["seed"] == 5
        assert (bundle["config"]["cap_grid"], bundle["config"]["fmt"]) == (4, "json")

    def test_given_flags_override_config(self, capsys, tmp_path):
        config = self._config(tmp_path)
        code, out, _ = run_cli(capsys, "run", "--config", config,
                               "--seed", "0", "--cap-grid", "8")
        assert code == EXIT_OK
        bundle = json.loads(out)
        assert bundle["seed"] == bundle["config"]["seed"] == 0
        assert bundle["config"]["cap_grid"] == 8
        code, out, _ = run_cli(capsys, "run", "--config", config, "--format", "table")
        assert code == EXIT_OK
        assert out.startswith("audit") and "PASS" in out


@pytest.fixture
def no_work(monkeypatch):
    """Any clean query or honest run fails the test: a refusal must come before the first."""
    def never(*args):
        raise AssertionError("the sweep started")

    monkeypatch.setattr(CleanQueryOracle, "query_branches", never)
    monkeypatch.setattr(CompiledProtocol, "run_outputs", never)
    monkeypatch.setattr(BellProtocol, "run_outputs", never)


class TestAttack:
    def test_parity_scenario_passes(self, capsys):
        code, out, _ = run_cli(capsys, "attack", "--scenario", "parity2",
                               "--scheme", "qspir(subset2)", "--n", "2",
                               "--format", "json")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["passed"] is True
        assert data["summary"]["parity_leakage_bits"] == pytest.approx(1.0)
        assert data["summary"]["undetectability"]["passed"] is True

    def test_countermeasure_halves_success(self, capsys):
        code, out, _ = run_cli(capsys, "attack", "--scenario", "parity2",
                               "--scheme", "qspir(subset2)", "--n", "2",
                               "--countermeasure", "--format", "json")
        assert code == EXIT_OK
        data = json.loads(out)
        for row in data["results"]:
            assert row["success_probability"] == pytest.approx(0.5)
        assert data["summary"]["parity_leakage_bits"] == pytest.approx(0.0, abs=1e-12)

    def test_honest_baseline(self, capsys):
        code, out, _ = run_cli(capsys, "attack", "--scenario", "honest-baseline",
                               "--scheme", "bell2", "--n", "2", "--i", "2",
                               "--format", "json")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["summary"]["database_leakage_bits"] == pytest.approx(1.0)
        assert data["summary"]["parity_leakage_bits"] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("argv", [
        ("--scenario", "parity2", "--scheme", "qspir(subset2)", "--n", "2"),
        ("--scenario", "parity2", "--scheme", "qspir(subset2)", "--n", "2", "--countermeasure"),
        ("--scenario", "parity2", "--scheme", "bell2", "--n", "2", "--x", "10"),
        ("--scenario", "honest-baseline", "--scheme", "bell2", "--n", "2", "--i", "2"),
        ("--scenario", "honest-baseline", "--scheme", "qspir(subset2)", "--n", "3", "--x", "101",
         "--countermeasure"),
    ])
    def test_figures_match_direct_calls(self, capsys, argv):
        # every displayed distribution and leakage figure, to the bit, as the
        # public functions give them one call at a time
        code, out, _ = run_cli(capsys, "attack", *argv, "--skip-undetectability",
                               "--format", "json")
        data = json.loads(out)
        opts = dict(zip(argv[::2], argv[1::2]))
        protocol = resolve_protocol(opts["--scheme"], int(opts["--n"]), "--countermeasure" in argv)
        i = int(opts.get("--i", 1))
        if opts["--scenario"] == "parity2":
            mixture = attack_output_mixture
            want = {"parity_leakage_bits": leakage_report(protocol, "parity2", target=parity)}
        else:
            mixture = lambda p, x: honest_output_mixture(p, x, i)  # noqa: E731
            want = {
                "database_leakage_bits": leakage_report(protocol, "honest-baseline", index=i),
                "parity_leakage_bits": leakage_report(protocol, "honest-baseline", index=i,
                                                      target=parity),
            }
        assert data["summary"] == want
        shown = [Database.from_string(opts["--x"])] if "--x" in opts else \
            list(all_databases(2 if opts["--scenario"] == "parity2" else int(opts["--n"])))
        assert [row["x"] for row in data["results"]] == [str(x) for x in shown]
        for row, x in zip(data["results"], shown):
            dist = mixture(protocol, x)
            assert row["output_distribution"] == \
                {str(k): round(v, 12) for k, v in sorted(dist.items())}
        assert code == (EXIT_OK if data["passed"] else EXIT_FAILED)

    @pytest.mark.parametrize("scenario, n, name, calls", [
        ("parity2", 2, "attack_output_mixture", 4),
        ("honest-baseline", 2, "honest_output_mixture", 4),
        ("honest-baseline", 3, "honest_output_mixture", 8),
    ])
    @pytest.mark.parametrize("x", [None, "x"])
    def test_one_mixture_per_database(self, capsys, monkeypatch, scenario, n, name, calls, x):
        counted = []
        original = getattr(adversary, name)

        def counting(*args):
            counted.append(args[1])
            return original(*args)

        monkeypatch.setattr(adversary, name, counting)
        argv = ["attack", "--scenario", scenario, "--scheme", "qspir(subset2)", "--n", str(n),
                "--skip-undetectability"]
        if x:
            argv += ["--x", "1" * n]
        code, _, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK
        assert len(counted) == calls == 1 << n
        assert len(set(counted)) == calls

    @pytest.mark.parametrize("scenario", ["parity2", "honest-baseline"])
    def test_database_of_another_size_is_usage_error(self, capsys, scenario):
        code, out, err = run_cli(capsys, "attack", "--scenario", scenario,
                                 "--scheme", "qspir(subset2)", "--n", "2", "--x", "101")
        assert code == EXIT_USAGE
        assert out == ""
        assert "--n 2 does not match --x of 3 bits" in err

    def test_parity2_needs_two_bits(self, capsys, no_work):
        code, out, err = run_cli(capsys, "attack", "--scheme", "qspir(subset2)", "--n", "3",
                                 "--skip-undetectability")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "qspirlab: the parity2 scenario needs --n 2\n"

    def test_parity2_runs_one_echo_per_r_without_the_audit(self, capsys):
        # 64 values of r, each standing for 2**14 mask pairs: four mixtures in a fraction of a second
        code, out, err = run_cli(capsys, "attack", "--scheme", "qspir(cube2)", "--n", "2",
                                 "--skip-undetectability", "--format", "json")
        assert (code, err) == (EXIT_OK, "")
        assert json.loads(out)["summary"]["parity_leakage_bits"] == pytest.approx(1.0)

    @pytest.mark.parametrize("flag, message", [
        # the audit builds the echo's views at all 64 * 2**14 draws of the first database
        (None, "parity2 on qspir(cube2) builds 1,048,576 echo views for the undetectability "
               "audit, more than 4,096"),
        # the dephased echo runs every draw, counted per database though the first stands for all
        ("--countermeasure", "parity2 on qspir(cube2) runs 1,048,576 echoes per database, "
                             "more than 4,096"),
    ])
    def test_parity2_refuses_a_draw_space_it_cannot_finish(self, capsys, no_work, flag, message):
        argv = ["attack", "--scheme", "qspir(cube2)", "--n", "2"] + ([flag] if flag else [])
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"qspirlab: {message}\n"

    @pytest.mark.parametrize("scheme, n, runs, limit", [
        # 2**12 databases times 4,096 values of r: one run each, whatever the masks
        ("qspir(subset2)", "12", "16,777,216", "4,194,304"),
        # 2**40 databases, one value of r each
        ("qspir(trivial1)", "40", "1,099,511,627,776", "4,194,304"),
        # bell2 runs one draw per database, each through the step engine
        ("bell2", "14", "16,384", "8,192"),
        ("bell2", "40", "1,099,511,627,776", "8,192"),
    ])
    def test_honest_baseline_refuses_a_sweep_it_cannot_finish(self, capsys, no_work,
                                                              scheme, n, runs, limit):
        code, out, err = run_cli(capsys, "attack", "--scenario", "honest-baseline",
                                 "--scheme", scheme, "--n", n)
        assert (code, out) == (EXIT_USAGE, "")
        assert f"{runs} runs" in err and limit in err

    @pytest.mark.parametrize("n, branches", [
        # 2**13 runs, each split by the servers' measurements into up to 2**8 branches
        ("13", "2,097,152"),
        # 2**9 runs of up to 2**6 branches
        ("9", "32,768"),
    ])
    def test_honest_baseline_weighs_dephased_bell_runs(self, capsys, no_work, n, branches):
        code, out, err = run_cli(capsys, "attack", "--scenario", "honest-baseline",
                                 "--scheme", "bell2", "--n", n, "--countermeasure")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == (f"qspirlab: honest-baseline on bell2 sweeps at least {branches} dephased "
                       "branches over every database and r, more than 8,192\n")

    @pytest.mark.parametrize("scheme, n, message", [
        ("qspir(subset2)", "14", "mixes 1,073,741,824 draws over every database, "
                                 "more than 268,435,456"),
        ("qspir(trivial1)", "20", "mixes 1,099,511,627,776 draws over every database, "
                                  "more than 268,435,456"),
        ("qspir(subset2)", "23", "sweeps at least 8,388,608 runs over the first database "
                                 "and r, more than 4,194,304"),
    ])
    def test_dephased_compiled_baseline_refusals(self, capsys, no_work, scheme, n, message):
        # the first database's runs stand for every database's, so the runs
        # count it alone; but each database still gets its own mixture and
        # result row, so the draws count them all
        code, out, err = run_cli(capsys, "attack", "--scenario", "honest-baseline",
                                 "--scheme", scheme, "--n", n, "--countermeasure")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"qspirlab: honest-baseline on {scheme} {message}\n"

    def test_honest_baseline_refuses_more_draws_than_it_can_add_up(self, capsys, no_work):
        # 2**15 runs, but each output stands for 2**15 masks, every one of them added up
        code, out, err = run_cli(capsys, "attack", "--scenario", "honest-baseline",
                                 "--scheme", "qspir(trivial1)", "--n", "15")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == ("qspirlab: honest-baseline on qspir(trivial1) mixes 1,073,741,824 draws "
                       "over every database, more than 268,435,456\n")

    @pytest.mark.parametrize("scheme, n, countermeasure", [
        # qspir(subset2) at n = 7 sweeps 65,536 runs, qspir(subset2) at n = 11
        # 4,194,304, qspir(cube2) at n = 2 mixes 256 runs over 4,194,304
        # draws, qspir(trivial1) at n = 14 16,384 runs over 268,435,456 draws,
        # bell2 at n = 13 makes 8,192 runs, and at n = 8 with the
        # countermeasure 256 runs of up to 32 branches; with it, qspir(subset2)
        # at n = 12 runs 4,096 on the first database alone: none is refused
        ("qspir(subset2)", "7", False), ("qspir(subset2)", "11", False),
        ("qspir(cube2)", "2", False), ("qspir(trivial1)", "14", False), ("bell2", "13", False),
        ("bell2", "8", True), ("qspir(subset2)", "12", True),
    ])
    def test_honest_baseline_admits_sweeps_up_to_the_limits(self, capsys, no_work, scheme, n,
                                                            countermeasure):
        argv = ["attack", "--scenario", "honest-baseline", "--scheme", scheme, "--n", n]
        with pytest.raises(AssertionError, match="the sweep started"):
            main(argv + ["--countermeasure"] * countermeasure)

    def test_classical_protocol_rejected(self, capsys):
        code, _, err = run_cli(capsys, "attack", "--scheme", "subset2", "--n", "2")
        assert code == EXIT_USAGE
        assert "quantum" in err

    @pytest.mark.parametrize("argv, message", [
        (("--scenario", "honest-baseline", "--scheme", "bell2", "--n", "2", "--i", "3"),
         "--i 3 outside [1, 2]"),
        (("--scenario", "honest-baseline", "--scheme", "qspir(subset2)", "--n", "2",
          "--i", "0"), "--i 0 outside [1, 2]"),
        (("--scheme", "bell2", "--n", "2", "--x", "0a"),
         "--x must be a string of 0s and 1s, got '0a'"),
        (("--scenario", "honest-baseline", "--scheme", "bell2", "--n", "4", "--x", "01a1"),
         "--x must be a string of 0s and 1s, got '01a1'"),
        (("--scheme", "nope", "--n", "2"), "unknown protocol 'nope'"),
    ])
    def test_bad_input_refused_before_the_sweep(self, capsys, no_work, argv, message):
        code, out, err = run_cli(capsys, "attack", *argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("qspirlab: ") and message in err


class TestCommTable:
    @pytest.mark.parametrize("schemes, n_list, message", [
        ("subset2", "a", "--n-list must be a comma list of integers, got 'a'"),
        ("subset2", "2,", "--n-list must be a comma list of integers, got '2,'"),
        ("nope", "2", "unknown protocol 'nope'"),
        ("subset2", "0", "n must be positive"),
        ("bell2", "-1", "n must be positive"),
        ("qspir(cube2)", "4,-1", "n must be positive"),
    ])
    def test_bad_input_is_usage_error(self, capsys, schemes, n_list, message):
        code, out, err = run_cli(capsys, "comm-table", "--schemes", schemes, "--n-list", n_list)
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith(f"qspirlab: {message}") and err.count("\n") == 1

    def test_table_rows(self, capsys):
        code, out, _ = run_cli(capsys, "comm-table",
                               "--schemes", "qspir(trivial1),bell2",
                               "--n-list", "2,4,6")
        assert code == EXIT_OK
        lines = [l for l in out.splitlines() if l.strip()]
        assert len(lines) == 2 + 6

    def test_json_and_residuals(self, capsys):
        code, out, _ = run_cli(capsys, "comm-table",
                               "--schemes", "qspir(cube2)", "--n-list", "8,27,64",
                               "--format", "json")
        assert code == EXIT_OK
        rows = json.loads(out)["communication"]
        assert [r["measured"] for r in rows] == [52, 76, 100]
        assert all(r["residual"] == 0 for r in rows)

    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_out_file_holds_the_json_payload(self, capsys, tmp_path, fmt):
        argv = ("comm-table", "--schemes", "qspir(trivial1),bell2", "--n-list", "2,4")
        _, as_json, _ = run_cli(capsys, *argv, "--format", "json")
        path = tmp_path / "ct.json"
        code, out, _ = run_cli(capsys, *argv, "--format", fmt, "--out", str(path))
        assert code == EXIT_OK
        assert path.read_text(encoding="utf-8") == as_json
        if fmt == "json":
            assert out == as_json
        else:
            assert out != as_json and len(out.splitlines()) == 2 + 4


class TestExport:
    def test_export_and_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        code, out, _ = run_cli(capsys, "export", "--scheme", "bell2",
                               "--x", "10", "--i", "1", "--out", str(path),
                               "--check-roundtrip")
        assert code == EXIT_OK
        assert path.exists()
        data = json.loads(path.read_text())
        assert data["schema_version"] == 1

    @pytest.mark.parametrize("argv, message", [
        (("--scheme", "subset2", "--x", "0101", "--i", "9", "--out", "t.json"),
         "--i 9 outside [1, 4]"),
        (("--scheme", "subset2", "--x", "0101", "--i", "0", "--out", "t.json"),
         "--i 0 outside [1, 4]"),
        (("--scheme", "subset2", "--x", "01a1", "--i", "1", "--out", "t.json"),
         "--x must be a string of 0s and 1s, got '01a1'"),
        (("--scheme", "bell2", "--x=", "--i", "1", "--out", "t.json"),
         "--x must be a string of 0s and 1s, got ''"),
        (("--scheme", "nope", "--x", "01", "--i", "1", "--out", "t.json"),
         "unknown protocol 'nope'"),
        (("--scheme", "subset2", "--x", "0101", "--i", "1"), "export needs --out"),
        (("--scheme", "subset2", "--x", "01", "--i", "1", "--r", "99", "--out", "t.json"),
         "--r 99 outside [0, 3]"),
        (("--scheme", "subset2", "--x", "01", "--i", "1", "--r", "-1", "--out", "t.json"),
         "--r -1 outside [0, 3]"),
        (("--scheme", "bell2", "--x", "01", "--i", "1", "--r", "1", "--out", "t.json"),
         "--r 1 outside [0, 0]"),
        (("--scheme", "qspir(subset2)", "--x", "01", "--i", "1", "--masks", "99,0",
          "--out", "t.json"), "--masks value 99 outside [0, 1]"),
        (("--scheme", "qspir(subset2)", "--x", "01", "--i", "1", "--masks", "0,-1",
          "--out", "t.json"), "--masks value -1 outside [0, 1]"),
        (("--scheme", "qspir(subset2)", "--x", "01", "--i", "1", "--masks", "1",
          "--out", "t.json"), "--masks needs 2 values for qspir(subset2), got 1"),
        (("--scheme", "qspir(subset2)", "--x", "01", "--i", "1", "--masks", "a",
          "--out", "t.json"), "--masks must be a comma list of integers, got 'a'"),
        (("--scheme", "bell2", "--x", "01", "--i", "1", "--masks", "0", "--out", "t.json"),
         "--masks needs 0 values for bell2, got 1"),
        (("--scheme", "subset2", "--x", "01", "--i", "1", "--masks", "0", "--out", "t.json"),
         "--masks needs 0 values for subset2, got 1"),
    ])
    def test_bad_input_refused_before_the_run(self, capsys, monkeypatch, tmp_path,
                                              argv, message):
        def never(*args):
            raise AssertionError("the protocol ran")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "export_transcript", never)
        for name in ("qspir(subset2)", "subset2", "bell2"):
            monkeypatch.setattr(type(resolve_protocol(name, 2)), "run", never)
        code, out, err = run_cli(capsys, "export", *argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("qspirlab: ") and message in err
        assert not (tmp_path / "t.json").exists()

    def test_mismatched_n_rejected(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "export", "--scheme", "bell2", "--n", "4",
                               "--x", "10", "--i", "1",
                               "--out", str(tmp_path / "t.json"))
        assert code == EXIT_USAGE


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == EXIT_USAGE
