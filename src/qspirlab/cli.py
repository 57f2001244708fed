"""Command-line interface.

Subcommands: ``run`` (config-driven experiment), ``audit`` (named audits
over a protocol), ``attack`` (dishonest-user scenarios), ``comm-table``
(communication accounting), and ``export`` (write a transcript to JSON).
``attack --scenario parity2`` runs the parity attack on every two-bit
database, then the undetectability audit unless ``--countermeasure`` or
``--skip-undetectability``; ``honest-baseline`` runs the honest protocol
at ``--i`` on every database.  ``adversary.plan_sweep`` says which draws
each runs; a sweep too large to finish in seconds exits 1 before it starts
(``adversary.check_sweep``).
Exit codes: 0 all passed, 1 usage or config error, 2 an audit or check
failed (a witness is included in the output).
"""

from __future__ import annotations

import argparse
import json
import sys

from .adversary import (SweepRefused, check_sweep, leakage_bits, parity, scenario_mixtures,
                        verify_undetectability)
from .audits import AUDIT_NAMES
from .compiler import CompiledProtocol
from .experiments import (
    ConfigError,
    ExperimentConfig,
    comm_table,
    render_reports,
    render_table,
    run_experiment,
)
from .protocols import protocol_names, resolve_protocol
from .schemes import Database
from .transcript import export_transcript, load_transcript, transcripts_equal

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAILED = 2

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scheme", help=f"protocol name, one of {protocol_names()}")
    p.add_argument("--n", type=int, help="database size in bits")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the JSON bundle to this path")
    p.add_argument("--format", dest="fmt", choices=("table", "json"), default="table")
    p.add_argument("--cap-grid", type=int, default=8,
                   help="largest n for exhaustive database grids (default 8)")
    p.add_argument("--countermeasure", action="store_true",
                   help="servers measure received messages in the computational basis")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qspirlab",
                     description="Exact desk-scale laboratory for symmetrically-private "
                                 "information retrieval protocols.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a configured experiment (audits + accounting)")
    run.add_argument("--config", help="JSON config file; flags given override its keys")
    run.add_argument("--audits", help=f"comma list from {AUDIT_NAMES} or 'all'")
    _add_common(run)
    # a flag left out must not override the config file's key
    run.set_defaults(seed=None, fmt=None, cap_grid=None)

    audit = sub.add_parser("audit", help="run named audits against a protocol")
    audit.add_argument("--audits", default="all", help=f"comma list from {AUDIT_NAMES}")
    _add_common(audit)

    attack = sub.add_parser("attack", help="run a dishonest-user scenario")
    attack.add_argument("--scenario", choices=("parity2", "honest-baseline"),
                        default="parity2")
    attack.add_argument("--x", help="database bits (default: sweep all)")
    attack.add_argument("--i", type=int, default=1, help="index for honest-baseline")
    attack.add_argument("--skip-undetectability", action="store_true")
    _add_common(attack)

    table = sub.add_parser("comm-table", help="communication accounting table")
    table.add_argument("--schemes", required=True, help="comma list of protocol names")
    table.add_argument("--n-list", required=True, help="comma list of database sizes")
    table.add_argument("--format", dest="fmt", choices=("table", "json"), default="table")
    table.add_argument("--out")

    export = sub.add_parser("export", help="run one protocol execution and export the transcript")
    export.add_argument("--x", required=True, help="database bits, e.g. 10110")
    export.add_argument("--i", type=int, required=True, help="index to retrieve (1-based)")
    export.add_argument("--r", type=int, default=0, help="user randomness value")
    export.add_argument("--masks", default="", help="comma list of per-server mask values")
    export.add_argument("--check-roundtrip", action="store_true")
    _add_common(export)
    return parser


def _emit(args, payload_json: dict, payload_table: str) -> None:
    text = json.dumps(payload_json, indent=1, sort_keys=True) + "\n" \
        if args.fmt == "json" else payload_table
    sys.stdout.write(text)
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload_json, fh, indent=1, sort_keys=True)
            fh.write("\n")


def _database(text: str) -> Database:
    if not text or set(text) - {"0", "1"}:
        raise ConfigError(f"--x must be a string of 0s and 1s, got {text!r}")
    return Database.from_string(text)


def _check_index(i: int, n: int) -> None:
    if not 1 <= i <= n:
        raise ConfigError(f"--i {i} outside [1, {n}]")


def _resolve(args, n: int):
    try:
        return resolve_protocol(args.scheme, n, args.countermeasure)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _cmd_run(args) -> int:
    overrides = {}
    for key, value in (("scheme", args.scheme), ("n", args.n), ("seed", args.seed),
                       ("out", args.out), ("fmt", args.fmt), ("cap_grid", args.cap_grid)):
        if value is not None:
            overrides[key] = value
    if args.audits:
        overrides["audits"] = args.audits.split(",")
    if args.countermeasure:
        overrides["countermeasure"] = True
    if args.config:
        config = ExperimentConfig.from_file(args.config, overrides)
    else:
        if args.scheme is None or args.n is None:
            raise ConfigError("run needs --config or both --scheme and --n")
        overrides.setdefault("audits", ["all"])
        config = ExperimentConfig.from_dict(overrides)
    bundle = run_experiment(config)
    if config.fmt == "json":
        sys.stdout.write(bundle.to_json())
    else:
        sys.stdout.write(render_reports(bundle.reports))
        sys.stdout.write(render_table(bundle.comm_rows))
    return EXIT_OK if bundle.passed else EXIT_FAILED


def _cmd_audit(args) -> int:
    if args.scheme is None or args.n is None:
        raise ConfigError("audit needs --scheme and --n")
    config = ExperimentConfig(
        scheme=args.scheme, n=args.n, audits=args.audits.split(","),
        seed=args.seed, cap_grid=args.cap_grid, fmt=args.fmt,
        countermeasure=args.countermeasure,
    )
    bundle = run_experiment(config)
    _emit(args, bundle.to_jsonable(), render_reports(bundle.reports))
    return EXIT_OK if bundle.passed else EXIT_FAILED


def _cmd_attack(args) -> int:
    if args.scheme is None or args.n is None:
        raise ConfigError("attack needs --scheme and --n")
    protocol = _resolve(args, args.n)
    if protocol.kind != "quantum":
        raise ConfigError("attack scenarios run against quantum protocols")
    shown = _database(args.x) if args.x else None
    if shown is not None and shown.n != protocol.n:
        raise ConfigError(f"--n {protocol.n} does not match --x of {shown.n} bits")
    if args.scenario == "honest-baseline":
        _check_index(args.i, protocol.n)
    audit = not args.countermeasure and not args.skip_undetectability
    check_sweep(protocol, args.scenario, audit)
    # one output mixture per database, for the display and every leakage figure
    mixtures = scenario_mixtures(protocol, args.scenario, args.i)
    databases = [shown] if shown is not None else list(mixtures)
    results = []
    ok = True
    if args.scenario == "parity2":
        want = 0.5 if args.countermeasure else 1.0
        for x in databases:
            dist, expected = mixtures[x], parity(x)
            p = dist.get(expected, 0.0)
            results.append({
                "scenario": "parity2", "x": str(x), "expected_parity": expected,
                "output_distribution": {str(k): round(v, 12) for k, v in sorted(dist.items())},
                "success_probability": p,
            })
            ok = ok and abs(p - want) <= 1e-9
        leak = leakage_bits(mixtures, parity)
        summary = {"parity_leakage_bits": leak}
        if args.countermeasure:
            ok = ok and leak <= 1e-9
        if audit:
            rep = verify_undetectability(protocol)
            summary["undetectability"] = rep.to_jsonable()
            ok = ok and rep.passed
    else:
        for x in databases:
            dist = mixtures[x]
            results.append({
                "scenario": "honest-baseline", "x": str(x), "i": args.i,
                "output_distribution": {str(k): round(v, 12) for k, v in sorted(dist.items())},
            })
        summary = {
            "database_leakage_bits": leakage_bits(mixtures),
            "parity_leakage_bits": leakage_bits(mixtures, parity),
        }
    payload = {"protocol": protocol.name, "countermeasure": args.countermeasure,
               "results": results, "summary": summary, "passed": ok}
    _emit(args, payload, render_table(results) + json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return EXIT_OK if ok else EXIT_FAILED


def _cmd_comm_table(args) -> int:
    rows = comm_table(args.schemes.split(","), [int(v) for v in args.n_list.split(",")])
    payload = {"communication": rows, "passed": all(r["residual"] == 0 for r in rows)}
    _emit(args, payload, render_table(rows))
    return EXIT_OK if payload["passed"] else EXIT_FAILED


def _masks(text: str, protocol) -> tuple[int, ...]:
    """``--masks`` as a mask tuple, all zeros when empty; only a compiled protocol draws masks."""
    k, a = (protocol.k, protocol.scheme.shape.a) if isinstance(protocol, CompiledProtocol) else (0, 0)
    if not text:
        return (0,) * k
    try:
        masks = tuple(int(v) for v in text.split(","))
    except ValueError:
        raise ConfigError(f"--masks must be a comma list of integers, got {text!r}") from None
    if len(masks) != k:
        raise ConfigError(f"--masks needs {k} values for {protocol.name}, got {len(masks)}")
    for m in masks:
        if not 0 <= m < 1 << a:
            raise ConfigError(f"--masks value {m} outside [0, {(1 << a) - 1}]")
    return masks


def _cmd_export(args) -> int:
    if args.scheme is None:
        raise ConfigError("export needs --scheme")
    if not args.out:
        raise ConfigError("export needs --out")
    x = _database(args.x)
    n = args.n if args.n is not None else x.n
    if n != x.n:
        raise ConfigError(f"--n {n} does not match --x of {x.n} bits")
    _check_index(args.i, n)
    protocol = _resolve(args, n)
    rand = protocol.randomness_space()
    if args.r not in rand:
        raise ConfigError(f"--r {args.r} outside [0, {rand[-1]}]")
    transcript = protocol.run(x, args.i, args.r, _masks(args.masks, protocol))
    export_transcript(transcript, args.out)
    if args.check_roundtrip:
        reloaded = load_transcript(args.out)
        if not transcripts_equal(transcript, reloaded):
            sys.stderr.write("round-trip mismatch\n")
            return EXIT_FAILED
    sys.stdout.write(f"wrote {args.out} ({transcript.qubits_total} qubits, "
                     f"{transcript.bits_total} bits, output {transcript.output})\n")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "audit": _cmd_audit,
        "attack": _cmd_attack,
        "comm-table": _cmd_comm_table,
        "export": _cmd_export,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, SweepRefused, OSError) as exc:
        sys.stderr.write(f"qspirlab: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
