"""The step engine: every protocol kind records the same round of steps."""

import hashlib
import json

import pytest

from qspirlab.protocols import resolve_protocol
from qspirlab.schemes import Database
from qspirlab.transcript import message_unit, to_jsonable

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
    assert (message_unit(protocol), protocol.comm()) == (unit, measured[unit])
    assert measured["bits" if unit == "qubits" else "qubits"] == 0
    for step in t.steps:
        if not step.moved:
            assert step.qubits_sent == step.bits_sent == 0

    assert list(protocol.run_outputs(x, [(i, r)])[0].items()) == list(t.output.items())
    if countermeasure:
        assert sum(t.output.values()) == pytest.approx(1.0)
    else:
        assert t.output == {x.bit(i): pytest.approx(1.0)}
    if name == "qspir(subset2)":
        assert t.qubits_total == 12
    if name == "bell2":
        assert t.qubits_total == 8


# (name, n, countermeasure, x, i, r, masks) -> SHA-256 of the run's sorted JSON,
# recorded while steps were frozen dataclasses with one custody copy per step
TRANSCRIPT_DIGESTS = {
    ("qspir(subset2)", 3, False, "101", 2, 1, (1, 0)):
        "630a911393862c2fc660c75ab403639722208985e90122107ca9d529006ee657",
    ("qspir(subset2)", 3, True, "101", 2, 1, (1, 0)):
        "fe36b00d1ea549f8ca22dff30573131f2950cecf4fcc50196376a462c2c6fb4f",
    ("qspir(trivial1)", 2, False, "10", 1, 0, (1,)):
        "1796cdab261fb9e5bdadcbe1c3d5705ef464355244ba90642cdb63a26ad3837f",
    ("bell2", 4, False, "0110", 3, 0, ()):
        "7808065cf1efdf0e6f1abbb05c693501b5985862acb707f0b6e63a965ecfe4cc",
    ("bell2", 4, True, "0110", 3, 0, ()):
        "209f4e77b943cd0a734a835816cb9171c4d05e143cfe9b4b5f78cef8470f39b2",
    ("subset2", 2, False, "10", 1, 1, ()):
        "5be96edcf25c7e5edd89c19cfa2340eeca3d399ac4437dd4b981aa3ee524f395",
}


@pytest.mark.parametrize("run", list(TRANSCRIPT_DIGESTS), ids=str)
def test_transcript_bytes_unchanged(run):
    name, n, countermeasure, x, i, r, masks = run
    t = resolve_protocol(name, n, countermeasure).run(Database.from_string(x), i, r, masks)
    text = json.dumps(to_jsonable(t), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == TRANSCRIPT_DIGESTS[run]


@pytest.mark.parametrize("countermeasure", [False, True], ids=["plain", "countermeasure"])
@pytest.mark.parametrize("name", list(KINDS))
def test_steps_that_move_nothing_share_read_only_custody(name, countermeasure):
    """A message step takes a new custody snapshot; every other step shares the one
    before it, and no step can change it for the others."""
    n, x, i, r, masks, *_ = KINDS[name]
    t = resolve_protocol(name, n, countermeasure).run(Database.from_string(x), i, r, masks)
    shared = 0
    for before, step in zip(t.steps, t.steps[1:]):
        assert (step.custody is before.custody) == (not step.moved), step.label
        if step.custody is before.custody:
            shared += 1
            held = dict(before.custody)
            with pytest.raises(TypeError):
                step.custody[t.layout.names[0]] = "server1"
            assert before.custody == held
    # every step after the first but the two sends and the two returns
    assert shared == len(t.steps) - 1 - 4


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
    draws = [(i, r) for i in grid.indices for r in protocol.randomness_space()]
    for x in grid.databases:
        full = [exact_output(protocol.run(x, i, r).output) for i, r in draws]
        assert [exact_output(out) for out in protocol.run_outputs(x, draws)] == full


@pytest.mark.parametrize("countermeasure", [False, True], ids=["plain", "countermeasure"])
@pytest.mark.parametrize("name,n,databases", [("subset2", 3, "all"), ("cube2", 8, 4),
                                               ("trivial1", 4, "all")])
def test_classical_output_is_the_reconstruction(name, n, databases, countermeasure):
    # run_outputs builds no state, yet gives run's output bit for bit and in key
    # order, and raises what run raises
    from qspirlab.audits import make_grid

    protocol = resolve_protocol(name, n, countermeasure)
    grid = make_grid(n, databases=databases, seed=2)
    for x in grid.databases:
        for i in grid.indices:
            for r in protocol.randomness_space():
                assert exact_output(protocol.run_outputs(x, [(i, r)])[0]) == \
                    exact_output(protocol.run(x, i, r).output)
    x = grid.databases[0]
    size = len(protocol.randomness_space())
    for i, r in ((0, 0), (n + 1, 0), (1, -1), (1, size)):
        with pytest.raises((IndexError, ValueError)) as want:
            protocol.run(x, i, r)
        with pytest.raises(type(want.value)) as got:
            protocol.run_outputs(x, [(i, r)])
        assert str(got.value) == str(want.value)
