"""The benchmark's workloads: verdict-bearing calls into qspirlab.

Each workload is a list of operations; one pass runs the whole list.  Audit
operations are ``experiments.run_experiment`` calls, the path behind
``qspirlab run --config``; attack operations are the ``adversary`` calls
that ``qspirlab attack --scenario parity2 [--countermeasure]`` makes.

The lists follow acceptance criteria 1, 2, 3+4 and 7, cut so that a pass
takes a few seconds and one run holds several passes.  Only the cube2
databases depend on the seed; every other operation is exhaustive over
its grid and reads the same on every seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

from qspirlab import adversary, experiments
from qspirlab.adversary import parity
from qspirlab.audits import TOL
from qspirlab.experiments import ExperimentConfig
from qspirlab.protocols import resolve_protocol
from qspirlab.registers import bits
from qspirlab.schemes import Database

WORKLOADS = ("recovery", "user-privacy", "data-privacy", "attack")


@dataclass(frozen=True)
class Op:
    label: str                              # stable id, the key of the reference digest
    call: Callable[[], object]              # the verdict-bearing call, looked up at call
                                            # time so that a tracer's wrappers are seen
    canonical: Callable[[object], str]      # output bytes the reference digest covers
    expect: Callable[[object], str | None]  # None when the verdict is the expected one
    seeded: bool = False                    # inputs depend on the workload seed


def _config_op(workload: str, expect=None, seeded: bool = False, **fields) -> Op:
    config = ExperimentConfig(**fields)
    return Op(
        label=f"{workload}/{config.scheme}/n={config.n}",
        call=lambda: experiments.run_experiment(config),
        canonical=lambda bundle: bundle.to_json(),
        expect=expect or _expect_pass,
        seeded=seeded,
    )


def _expect_pass(bundle) -> str | None:
    if bundle.passed:
        return None
    failed = [r.kind for r in bundle.reports if not r.passed]
    return f"audits {failed} failed"


def _expect_fact_one(bundle) -> str | None:
    """Classical subset2 must fail data privacy, with the subset {2} witness r=01."""
    report = bundle.reports[0]
    if report.passed:
        return "classical data privacy passed; it must fail"
    if (report.witness or {}).get("r") != "01":
        return f"witness {report.witness} is not the r=01 witness"
    return None


def _small(workload: str, audit: str, schemes=("qspir(trivial1)", "qspir(subset2)"),
           sizes=(1, 2, 3, 4)) -> list[Op]:
    return [_config_op(workload, scheme=s, n=n, audits=[audit]) for s in schemes for n in sizes]


def recovery_ops(seed: int) -> list[Op]:
    """Criterion 1: output-only runs, 2-term states, no transcript, no density."""
    ops = _small("recovery", "recovery")
    ops.append(_config_op("recovery", seeded=True, scheme="qspir(cube2)", n=8,
                          audits=["recovery"], databases=8, seed=seed))
    return ops


def user_privacy_ops(seed: int) -> list[Op]:
    """Criterion 2: 2-term query states fed to density accumulation."""
    ops = _small("user-privacy", "user-privacy", schemes=("qspir(trivial1)",))
    ops += _small("user-privacy", "user-privacy", schemes=("qspir(subset2)",), sizes=(1, 2, 3))
    cube_db = bits(random.Random(seed).getrandbits(8), 8)
    ops.append(_config_op("user-privacy", seeded=True, scheme="qspir(cube2)", n=8,
                          audits=["user-privacy"], databases=[cube_db], indices=[1, 8],
                          seed=seed))
    return ops


def data_privacy_ops(seed: int) -> list[Op]:
    """Criteria 3+4: full transcripts, user views, pure and mixed comparisons."""
    ops = _small("data-privacy", "data-privacy", schemes=("qspir(trivial1)",))
    ops += _small("data-privacy", "data-privacy", schemes=("qspir(subset2)",), sizes=(1, 2, 3))
    ops += _small("data-privacy", "data-privacy", schemes=("bell2",), sizes=(2, 3, 4, 5))
    ops.append(_config_op("data-privacy", expect=_expect_fact_one,
                          scheme="subset2", n=2, audits=["data-privacy"]))
    return ops


def _sorted_json(value) -> str:
    return json.dumps(value, sort_keys=True)


def _expect_success(x: Database, want: float, dist) -> str | None:
    got = dist.get(parity(x), 0.0)
    return None if abs(got - want) <= TOL else f"attack success {got}, expected {want}"


def _expect_leakage(want: float, leak) -> str | None:
    return None if abs(leak - want) <= TOL else f"leakage {leak} bits, expected {want}"


def _expect_undetectable(report) -> str | None:
    return None if report.passed else f"attack detected: {report.witness}"


def attack_ops(seed: int) -> list[Op]:
    """Criterion 7: the parity2 scenario without and with the countermeasure."""
    ops = []
    for name in ("qspir(subset2)", "qspir(trivial1)", "bell2"):
        for countermeasure in (False, True):
            protocol = resolve_protocol(name, 2, countermeasure)
            tag = f"attack/{name}" + ("/countermeasure" if countermeasure else "")
            success = 0.5 if countermeasure else 1.0
            for v in range(4):
                x = Database(2, v)
                ops.append(Op(f"{tag}/mixture/x={x}",
                              lambda p=protocol, x=x: adversary.attack_output_mixture(p, x),
                              _sorted_json, partial(_expect_success, x, success)))
            # without the countermeasure the parity leaks in full: one bit
            ops.append(Op(f"{tag}/leakage",
                          lambda p=protocol: adversary.leakage_report(
                              p, "parity2", target=adversary.parity),
                          _sorted_json, partial(_expect_leakage, 0.0 if countermeasure else 1.0)))
            if not countermeasure:
                ops.append(Op(f"{tag}/undetectability",
                              lambda p=protocol: adversary.verify_undetectability(p),
                              lambda report: _sorted_json(report.to_jsonable()),
                              _expect_undetectable))
    return ops


BUILDERS = {
    "recovery": recovery_ops,
    "user-privacy": user_privacy_ops,
    "data-privacy": data_privacy_ops,
    "attack": attack_ops,
}


def build(workload: str, seed: int) -> list[Op]:
    return BUILDERS[workload](seed)
