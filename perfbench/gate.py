"""Verdict gate: every operation's output must be the one the seed commit gave.

Two checks run on every output:

* the expected verdict: every audit passes except classical ``subset2``
  data privacy, which fails with its ``r="01"`` witness; the parity attack
  succeeds with probability 1 without the countermeasure and 1/2 with it,
  leaking 1 bit and 0 bits; undetectability passes;
* the reference digest: SHA-256 of the canonical output (the report
  bundle's ``to_json()``, or the sorted-key JSON of an attack result) must
  equal the digest in ``reference_digests.json``.  Seeded operations are
  compared only on the default seed, which produced the table; every other
  operation reads the same on any seed and is always compared.

Regenerate the table only when a change is meant to alter report bytes::

    PYTHONPATH=src python3 perfbench/gate.py > perfbench/reference_digests.json
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

DEFAULT_SEED = 0
REFERENCE = Path(__file__).resolve().with_name("reference_digests.json")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_reference() -> dict[str, str]:
    with open(REFERENCE, encoding="utf-8") as fh:
        table = json.load(fh)
    if table.get("seed") != DEFAULT_SEED:
        raise ValueError(f"{REFERENCE.name} was not made on the default seed {DEFAULT_SEED}")
    return table["digests"]


def check(op, output, seed: int, reference: dict[str, str]) -> str | None:
    """None when ``output`` is right, else what is wrong with it."""
    problem = op.expect(output)
    if problem is not None:
        return problem
    if op.seeded and seed != DEFAULT_SEED:
        return None
    want = reference.get(op.label)
    if want is None:
        return "no reference digest for this operation"
    got = digest(op.canonical(output))
    if got != want:
        return f"output digest {got[:16]} differs from the reference {want[:16]}"
    return None


def reference_table() -> dict:
    import workloads

    digests = {}
    for name in workloads.WORKLOADS:
        for op in workloads.build(name, DEFAULT_SEED):
            digests[op.label] = digest(op.canonical(op.call()))
    return {"seed": DEFAULT_SEED, "digests": digests}


if __name__ == "__main__":
    json.dump(reference_table(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
