"""Config-driven experiment runs, report bundles, and the accounting table.

An experiment resolves a protocol by name, runs the requested audits over
grids derived from the config, measures communication, and assembles a
deterministic report bundle: identical (config, seed) pairs produce
byte-identical JSON.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Sequence

from . import __version__
from .audits import (
    AUDIT_NAMES,
    TOL,
    AuditGrid,
    AuditReport,
    make_grid,
    run_audit,
)
from .protocols import resolve_protocol
from .schemes import Database


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    scheme: str
    n: int
    indices: str | Sequence[int] = "all"
    databases: str | int | Sequence[str] = "all"
    randomness: str = "exhaustive"
    audits: Sequence[str] = ("all",)
    seed: int = 0
    out: str | None = None
    fmt: str = "table"
    cap_grid: int = 8
    tolerance: float = TOL
    countermeasure: bool = False

    def __post_init__(self):
        for key in ("n", "seed"):
            value = getattr(self, key)
            if type(value) is not int:  # bools and floats included
                raise ConfigError(f"{key} must be an int, not {value!r}")
        if self.n < 1:
            raise ConfigError("n must be positive")
        if not isinstance(self.scheme, str):
            raise ConfigError(f"scheme must be a protocol name, not {self.scheme!r}")
        if self.out is not None and not isinstance(self.out, str):  # an int opens a descriptor
            raise ConfigError(f"out must be a file path, not {self.out!r}")
        if type(self.countermeasure) is not bool:
            raise ConfigError(f"countermeasure must be true or false, not {self.countermeasure!r}")
        if (not isinstance(self.audits, (list, tuple)) or not self.audits
                or not all(isinstance(name, str) for name in self.audits)):
            raise ConfigError(
                f"audits must be a non-empty list of audit names, not {self.audits!r}")
        if self.randomness != "exhaustive":
            raise ConfigError("only the exhaustive randomness policy is implemented")
        if self.tolerance != TOL:
            raise ConfigError(f"every audit decides at tolerance {TOL}; got {self.tolerance}")
        if self.fmt not in ("table", "json"):
            raise ConfigError(f"unknown format {self.fmt!r}")
        names = []
        for name in self.audits:
            if name == "all":
                names.extend(AUDIT_NAMES)
            elif name in AUDIT_NAMES:
                names.append(name)
            else:
                raise ConfigError(f"unknown audit {name!r}; known: {AUDIT_NAMES}")
        self.audits = tuple(dict.fromkeys(names))

    @classmethod
    def from_file(cls, path, overrides: dict | None = None) -> "ExperimentConfig":
        with open(path, encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except ValueError as exc:  # malformed JSON or text
                raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
        data.update(overrides or {})
        return cls.from_dict(data)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys {sorted(unknown)}")
        try:
            return cls(**data)
        except TypeError as exc:
            raise ConfigError(str(exc)) from None


@dataclass
class ReportBundle:
    config: dict
    reports: list[AuditReport]
    comm_rows: list[dict]
    version: str = __version__
    seed: int = 0

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.reports)

    def to_jsonable(self) -> dict:
        return {
            "version": self.version,
            "seed": self.seed,
            "config": self.config,
            "passed": self.passed,
            "reports": [r.to_jsonable() for r in self.reports],
            "communication": self.comm_rows,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_jsonable(), indent=1, sort_keys=True) + "\n"


def _grid_for(config: ExperimentConfig) -> AuditGrid:
    try:
        return make_grid(config.n, databases=config.databases, indices=config.indices,
                         cap=config.cap_grid, seed=config.seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def comm_row(protocol, n: int) -> dict:
    grid = make_grid(n, databases=[str(Database(n, 0))], indices=[1])
    details = run_audit(protocol, "comm", grid).details
    measured, expected = details["measured"], details["closed_form"]
    row = {
        "protocol": protocol.name,
        "n": n,
        "unit": details["unit"],
        "measured": measured,
        "closed_form": expected,
        "residual": measured - expected,
    }
    if "cube" in protocol.name:
        row["per_cuberoot"] = round(measured / (n ** (1.0 / 3.0)), 6)
    return row


def resolve(name: str, n: int, countermeasure: bool = False):
    """``resolve_protocol``, its refusal of a name or size as a ConfigError."""
    try:
        return resolve_protocol(name, n, countermeasure)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def run_experiment(config: ExperimentConfig) -> ReportBundle:
    protocol = resolve(config.scheme, config.n, config.countermeasure)
    grid = _grid_for(config)
    reports = [run_audit(protocol, audit, grid) for audit in config.audits]
    config_echo = json.loads(json.dumps(asdict(config), default=list))
    bundle = ReportBundle(
        config=config_echo,
        reports=reports,
        comm_rows=[comm_row(protocol, config.n)],
        seed=config.seed,
    )
    if config.out:
        with open(config.out, "w", encoding="utf-8") as fh:
            fh.write(bundle.to_json())
    return bundle


def comm_table(schemes: Sequence[str], n_list: Sequence[int]) -> list[dict]:
    """Measured-vs-closed-form communication rows for each (protocol, n)."""
    rows = []
    for name in schemes:
        for n in n_list:
            rows.append(comm_row(resolve(name, n), n))
    return rows


def render_table(rows: Sequence[dict]) -> str:
    if not rows:
        return "(empty)\n"
    columns = list(dict.fromkeys(key for row in rows for key in row))
    widths = {c: max(len(str(c)), *(len(str(r.get(c, ""))) for r in rows)) for c in columns}
    lines = ["  ".join(str(c).ljust(widths[c]) for c in columns)]
    lines.append("  ".join("-" * widths[c] for c in columns))
    for row in rows:
        lines.append("  ".join(str(row.get(c, "")).ljust(widths[c]) for c in columns))
    return "\n".join(lines) + "\n"


def render_reports(reports: Sequence[AuditReport]) -> str:
    rows = []
    for r in reports:
        rows.append({
            "audit": r.kind,
            "protocol": r.protocol,
            "passed": "PASS" if r.passed else "FAIL",
            "worst_distance": f"{r.worst_case_distance:.3g}",
            "witness": json.dumps(r.witness, sort_keys=True) if r.witness else "",
        })
    return render_table(rows)
