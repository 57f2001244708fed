"""Experiment configs, bundles, and the accounting table as a library API."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qspirlab.audits import TOL, _mask_mode, make_grid
from qspirlab.experiments import (
    ConfigError,
    ExperimentConfig,
    _grid_for,
    comm_table,
    render_reports,
    render_table,
    run_experiment,
)
from qspirlab.protocols import protocol_names, resolve_protocol
from qspirlab.schemes import CubeScheme


class TestConfig:
    def test_audits_expand_and_dedupe(self):
        config = ExperimentConfig(scheme="bell2", n=2, audits=["all", "comm"])
        assert config.audits == ("recovery", "user-privacy", "data-privacy", "comm")

    def test_unknown_audit_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(scheme="bell2", n=2, audits=["nope"])

    def test_from_file_with_overrides(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"scheme": "bell2", "n": 4, "audits": ["comm"]}))
        config = ExperimentConfig.from_file(path, {"n": 2})
        assert (config.scheme, config.n) == ("bell2", 2)

    def test_only_exhaustive_randomness(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(scheme="bell2", n=2, randomness="sampled")

    def test_only_the_audits_tolerance(self):
        # every audit decides at audits.TOL; another value would be echoed, not applied
        assert ExperimentConfig(scheme="bell2", n=2, tolerance=TOL).tolerance == TOL
        with pytest.raises(ConfigError):
            ExperimentConfig(scheme="bell2", n=2, tolerance=0.001)


class TestRunExperiment:
    def test_bundle_passes_and_serializes(self, tmp_path):
        out = tmp_path / "bundle.json"
        config = ExperimentConfig(scheme="qspir(trivial1)", n=3,
                                  audits=["recovery", "comm"], out=str(out))
        bundle = run_experiment(config)
        assert bundle.passed
        saved = json.loads(out.read_text())
        assert saved == bundle.to_jsonable()
        assert saved["communication"][0]["measured"] == 6

    def test_unknown_scheme_raises_config_error(self):
        with pytest.raises(ConfigError):
            run_experiment(ExperimentConfig(scheme="whatever", n=2))

    @pytest.mark.parametrize("keys, message", [
        ({"databases": ["01", "01"]}, "database 01 is listed twice"),
        ({"indices": [1, 1]}, "index 1 is listed twice"),
    ])
    def test_repeated_grid_entry_raises_config_error(self, keys, message):
        # a copy would count as another database or index, and be compared
        # with itself: 64 recovery runs where 16 cover the grid
        config = ExperimentConfig(scheme="qspir(subset2)", n=2, **keys)
        with pytest.raises(ConfigError, match=f"^{message}$"):
            run_experiment(config)

    def test_repeated_database_in_another_form_raises(self):
        from qspirlab.schemes import Database

        with pytest.raises(ValueError, match="^database 01 is listed twice$"):
            make_grid(2, databases=[Database.from_string("01"), "01"])
        # a sample is a set already
        assert len(make_grid(2, databases=4).databases) == 4

    def test_failing_audit_reported_with_witness(self):
        bundle = run_experiment(ExperimentConfig(
            scheme="subset2-classical", n=2, audits=["data-privacy"]))
        assert not bundle.passed
        report = bundle.reports[0]
        assert report.witness["r"] == "01"

    def test_cube_heavy_audits_use_reduced_database_grid(self):
        # user and data privacy both cover all 256 databases
        bundle = run_experiment(ExperimentConfig(
            scheme="qspir(cube2)", n=8, audits=["user-privacy"]))
        assert bundle.passed
        assert bundle.reports[0].grid["databases"] == 256
        grid = _grid_for(ExperimentConfig(scheme="qspir(cube2)", n=8, audits=["data-privacy"]))
        assert len(grid.databases) == 256


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("name", protocol_names())
def test_data_privacy_grid_follows_the_mask_mode(name, n):
    """Data privacy runs on every database, whether or not masks are cycled."""
    protocol = resolve_protocol(name, n)
    cycled = _mask_mode(protocol)[0] == "cycle"
    grid = _grid_for(ExperimentConfig(scheme=name, n=n, audits=["data-privacy"]))
    assert grid.databases == make_grid(n).databases
    if name == "qspir(trivial1)":
        assert cycled == (n >= 7)
    elif name == "qspir(cube2)":
        assert cycled
    elif not name.startswith("qspir("):
        assert not cycled


class TestCommTable:
    def test_bell_rows(self):
        rows = comm_table(["bell2"], [2, 4, 6])
        assert [r["measured"] for r in rows] == [4, 8, 12]
        assert all(r["unit"] == "qubits" for r in rows)

    def test_cube_scaling_column(self):
        rows = comm_table(["qspir(cube2)"], [8, 27, 64])
        assert all("per_cuberoot" in r for r in rows)
        ratios = [r["per_cuberoot"] for r in rows]
        assert ratios == [26.0, pytest.approx(76 / 3), 25.0]

    def test_classical_rows_count_bits(self):
        rows = comm_table(["subset2"], [8])
        assert rows[0]["unit"] == "bits"
        assert rows[0]["measured"] == 18


def test_render_helpers_are_plain_text():
    rows = comm_table(["bell2"], [2])
    text = render_table(rows)
    assert "bell2" in text and "measured" in text
    bundle = run_experiment(ExperimentConfig(scheme="bell2", n=2, audits=["comm"]))
    assert "PASS" in render_reports(bundle.reports)


NUMPY_FREE_RUN = """
import sys

import qspirlab
import qspirlab.cli
from qspirlab import adversary, audits, experiments
from qspirlab.protocols import resolve_protocol

recovery = audits.audit_recovery(resolve_protocol("qspir(subset2)", 3), audits.make_grid(3))
privacy = audits.audit_data_privacy(resolve_protocol("bell2", 4), audits.make_grid(4))
assert recovery.passed and privacy.passed
sys.exit("numpy was loaded" if "numpy" in sys.modules else 0)
"""


def test_numpy_stays_off_the_import_path():
    # only the dense trace distance reads numpy, and neither audit reaches it
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, "-c", NUMPY_FREE_RUN], cwd=root, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_classical_transcripts_read_the_kept_plans(monkeypatch):
    # recovery keeps each of cube2's 8 x 64 (i, r) plans; the data-privacy
    # transcripts and the accounting run read them and build none
    gen_plan = CubeScheme.gen_plan
    calls = []
    monkeypatch.setattr(CubeScheme, "gen_plan",
                        lambda self, i, r: calls.append((i, r)) or gen_plan(self, i, r))
    bundle = run_experiment(ExperimentConfig(scheme="cube2", n=8, databases=8,
                                             audits=["recovery", "data-privacy"]))
    assert [r.passed for r in bundle.reports] == [True, False]  # classical SPIR fails
    assert len(calls) == len(set(calls)) == 8 * 64
