"""The step engine: every protocol kind records the same round of steps."""

import pytest

from qspirlab.protocols import closed_form_comm, resolve_protocol
from qspirlab.schemes import Database

# name -> (n, x, i, r, masks, registers server j receives, registers it returns,
#          registers it holds from the start, server verb, final label, comm unit)
KINDS = {
    "subset2": (2, "10", 2, 3, (), lambda j: (f"query{j}",), lambda j: (f"answer{j}",),
                lambda j: (f"answer{j}",), "answer", "reconstruct", "bits"),
    "qspir(subset2)": (2, "10", 2, 3, (1, 0), lambda j: (f"srv{j}",), lambda j: (f"srv{j}",),
                       lambda j: (), "phase", "recover", "qubits"),
    "bell2": (4, "0110", 2, 0, (), lambda j: (("left1", "left2"), ("right1", "right2"))[j - 1],
              lambda j: (("left1", "left2"), ("right1", "right2"))[j - 1],
              lambda j: (), "pauli", "recover", "qubits"),
}


def expected_steps(receives, returns, verb, final, countermeasure):
    """(label, party, moved) of every step, in order."""
    steps = [("plan", "user", ()), ("build", "user", ())]
    steps += [(f"send:server{j}", "user", receives(j)) for j in (1, 2)]
    for j in (1, 2):
        if countermeasure:
            steps.append((f"measure:server{j}", f"server{j}", ()))
        steps.append((f"{verb}:server{j}", f"server{j}", ()))
    steps += [(f"return:server{j}", f"server{j}", returns(j)) for j in (1, 2)]
    steps.append((final, "user", ()))
    return steps


@pytest.mark.parametrize("countermeasure", [False, True], ids=["plain", "countermeasure"])
@pytest.mark.parametrize("name", list(KINDS))
def test_step_structure(name, countermeasure):
    n, x, i, r, masks, receives, returns, held, verb, final, unit = KINDS[name]
    protocol = resolve_protocol(name, n, countermeasure)
    x = Database.from_string(x)
    t = protocol.run(x, i, r, masks)

    want = expected_steps(receives, returns, verb, final, countermeasure)
    assert [(s.label, s.party, s.moved) for s in t.steps] == want

    custody = dict.fromkeys(t.layout.names, "user")
    for j in (1, 2):
        custody.update(dict.fromkeys(held(j), f"server{j}"))
    for step in t.steps:
        if step.label.startswith("send:"):
            custody.update(dict.fromkeys(step.moved, step.label.removeprefix("send:")))
        elif step.label.startswith("return:"):
            custody.update(dict.fromkeys(step.moved, "user"))
        assert step.custody == custody, step.label
        assert (step.branches is None) == (step.label == "plan")

    measured = {"qubits": t.qubits_total, "bits": t.bits_total}
    assert closed_form_comm(protocol) == (unit, measured[unit])
    assert measured["bits" if unit == "qubits" else "qubits"] == 0
    for step in t.steps:
        if not step.moved:
            assert step.qubits_sent == step.bits_sent == 0

    assert list(protocol.run_output(x, i, r, masks).items()) == list(t.output.items())
    if countermeasure:
        assert sum(t.output.values()) == pytest.approx(1.0)
    else:
        assert t.output == {x.bit(i): pytest.approx(1.0)}
    if name == "qspir(subset2)":
        assert t.qubits_total == 12
    if name == "bell2":
        assert t.qubits_total == 8


def exact_output(output):
    return [(bit, p.hex()) for bit, p in output.items()]


@pytest.mark.parametrize("countermeasure", [False, True], ids=["plain", "countermeasure"])
@pytest.mark.parametrize("name,n,databases", [
    ("cube2", 8, 6), ("subset2", 3, "all"),
    ("bell2", 2, "all"), ("bell2", 3, "all"), ("bell2", 4, "all"), ("bell2", 5, "all"),
])
def test_output_only_runs_match_full_runs(name, n, databases, countermeasure):
    # bit for bit and in key order, on every (x, i, r) of the grid
    from qspirlab.audits import make_grid

    protocol = resolve_protocol(name, n, countermeasure)
    grid = make_grid(n, databases=databases, seed=1)
    draws = [(i, r, ()) for i in grid.indices for r in protocol.randomness_space()]
    for x in grid.databases:
        full = [exact_output(protocol.run(x, i, r, masks).output) for i, r, masks in draws]
        assert [exact_output(out) for out in protocol.run_outputs(x, draws)] == full
