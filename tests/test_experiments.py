"""Experiment configs, bundles, and the accounting table as a library API."""

import json

import pytest

from qspirlab.audits import _mask_mode, make_grid, representative_databases
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

    def test_failing_audit_reported_with_witness(self):
        bundle = run_experiment(ExperimentConfig(
            scheme="subset2-classical", n=2, audits=["data-privacy"]))
        assert not bundle.passed
        report = bundle.reports[0]
        assert report.witness["r"] == "01"

    def test_cube_heavy_audits_use_reduced_database_grid(self):
        # user privacy covers all 256 databases; only data privacy is cut to
        # the 4 representatives
        bundle = run_experiment(ExperimentConfig(
            scheme="qspir(cube2)", n=8, audits=["user-privacy"]))
        assert bundle.passed
        assert bundle.reports[0].grid["databases"] == 256
        grid = _grid_for(resolve_protocol("qspir(cube2)", 8),
                         ExperimentConfig(scheme="qspir(cube2)", n=8), "data-privacy")
        assert len(grid.databases) == 4


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("name", protocol_names())
def test_data_privacy_grid_follows_the_mask_mode(name, n):
    """Data privacy runs on the representative databases exactly when masks are cycled."""
    protocol = resolve_protocol(name, n)
    cycled = _mask_mode(protocol)[0] == "cycle"
    grid = _grid_for(protocol, ExperimentConfig(scheme=name, n=n), "data-privacy")
    assert grid.databases == (representative_databases(n) if cycled else make_grid(n).databases)
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
