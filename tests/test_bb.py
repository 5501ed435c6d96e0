import collections
import dataclasses
import hashlib
import importlib.util
import inspect
import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

from beaverkit import bb
from beaverkit.bb import (
    BBEntry,
    Inconclusive,
    Registry,
    RegistryError,
    brute_force_bb,
    certify_nonhalt,
    default_registry,
    machine_from_program,
    machine_label,
    parse_certificate,
    parse_registry,
    replay_certificate,
)
from beaverkit.engine import CYCLE, RunLimits, run
from beaverkit.machine import Action, Machine, state_count
from beaverkit.tables import serialize_machine
from beaverkit.tape import Configuration, Tape
import bb_reference


def test_registry_lookup_shipped():
    reg = default_registry()
    assert reg.lookup(4).value == 107
    assert reg.lookup(4).source == "paper"
    assert reg.lookup(1).value == 1
    assert reg.lookup(2).value == 6
    assert reg.lookup(9) is None
    reg.add(BBEntry(5, 10**6, "configured"))
    assert default_registry().lookup(5) is None  # each call gets its own copy


def test_registry_monotonicity_enforced():
    reg = Registry()
    reg.add(BBEntry(2, 6, "computed"))
    with pytest.raises(RegistryError):
        reg.add(BBEntry(3, 5, "configured"))


def test_registry_round_trip():
    reg = parse_registry("bb 1 1 computed\nbb 4 107 paper\n")
    text = "".join(f"bb {e.n} {e.value} {e.source}\n" for e in reg.entries.values())
    assert parse_registry(text).entries == reg.entries


def test_registry_rejects_unknown_source():
    with pytest.raises(RegistryError):
        parse_registry("bb 1 1 folklore")


def test_registry_refuses_an_n_listed_twice():
    # a second line would replace the first bound, and certificates would
    # be judged against whichever came last
    with pytest.raises(RegistryError, match=r"^line 3: bb\(2\) is listed twice$"):
        parse_registry("bb 1 1 computed\nbb 2 6 computed\nbb 2 5 computed\n")


def test_brute_force_bb_1():
    result = brute_force_bb(1)
    assert result.value == 1
    assert result.total_machines == 64
    assert result.tally["halt"] + result.tally["closed"] + result.tally["no_halt_rule"] == 64


def test_brute_force_bb_2():
    result = brute_force_bb(2)
    assert result.value == 6
    assert result.total_machines == (2 * 2 * 3) ** 4 == 20736
    # the champion must actually achieve the value
    out = run(result.champion, limits=RunLimits(max_steps=200))
    assert out.kind == "halted" and out.steps == 6


# sha256 of repr([(kind, steps), ...]) over all 20,736 two-state programs in
# product order.  The halting verdicts are those the deciders computed on a
# stand-alone dict-tape simulator before they ran on the engine; a closed
# verdict's steps are the k of the k-grams that closed it, an inconclusive
# one's the cap
PINNED_VERDICTS = {
    3: "b5c6ff0973177889de9b37a59c9f45414b367cd01f2c9b8c44b3fd5d3441f16e",
    200: "53159c1b59b0e8f97cafa931738c7a575fc48c6160db50be04100e6d9caf1e1d",
}


@pytest.mark.parametrize("cap", sorted(PINNED_VERDICTS))
def test_every_two_state_verdict_is_pinned(cap):
    verdicts = [v for _, v in bb_reference.verdicts(2, cap)]
    assert hashlib.sha256(repr(verdicts).encode()).hexdigest() == PINNED_VERDICTS[cap]


@pytest.mark.parametrize("cap", [3, 200])
def test_shared_verdicts_match_a_run_of_every_program(cap):
    # a program that agrees with the last one judged on every entry that
    # judgement read shares its verdict; a judgement of its own must give
    # the same one
    for prog, verdict in bb_reference.verdicts(2, cap):
        run_it = bb_reference.can_halt(prog)
        assert verdict == (bb._judge(prog, 2, cap)[0] if run_it else ("no_halt_rule", 0)), prog


def test_brute_force_rejects_low_cap_as_inconclusive():
    with pytest.raises(Inconclusive):
        brute_force_bb(2, step_cap=3)


def test_brute_force_rejects_a_cap_below_one():
    with pytest.raises(ValueError, match="step cap must be positive"):
        brute_force_bb(2, step_cap=0)


def test_brute_force_rejects_big_n():
    with pytest.raises(ValueError):
        brute_force_bb(3)


def completions(prog, fill):
    """Every program that agrees with `prog` on its defined entries, in product order."""
    free = [i for i, e in enumerate(prog) if e is None]
    for acts in itertools.product(fill, repeat=len(free)):
        full = list(prog)
        for i, act in zip(free, acts):
            full[i] = act
        yield tuple(full)


@pytest.mark.parametrize("n, cap", [(1, 200), (2, 3), (2, 200)])
def test_every_leaf_gives_the_verdict_of_the_programs_it_covers(n, cap):
    # the leaves cover each program once, with the verdict its own
    # judgement gives, or a program reaches a verdict sooner by an entry
    # its leaf left free: decider 1 where the leaf closes, and, under a
    # low cap, a closure where the leaf's run is inconclusive
    opts = bb_reference.options(n)
    reference = dict(bb_reference.verdicts(n, cap))
    sooner = {("closed", "no_halt_rule")}
    if cap < 200:
        sooner |= {("inconclusive", "no_halt_rule"), ("inconclusive", "closed")}
    for leaf, verdict in bb._leaves(n, cap, opts):
        for prog in completions(leaf, opts):
            want = reference.pop(prog)
            assert verdict == want or (verdict[0], want[0]) in sooner, (prog, leaf, verdict, want)
    assert not reference


def test_two_state_tally_and_champion():
    result = brute_force_bb(2)
    assert result.tally["halt"] == 9784
    assert sum(result.tally.values()) == result.total_machines == 20736
    # the champion is the first program in product order to reach the value
    reference = bb_reference.verdicts(2, 200)
    first = next(prog for prog, verdict in reference if verdict == ("halt", result.value))
    assert result.champion.name == machine_from_program(first, 2).name == "0LB0LH1RA1LB"
    assert max(steps for _, (kind, steps) in reference if kind == "halt") == 6
    # an entry opens only where a run read it: 408 leaves, not 20,736
    assert len(list(bb._leaves(2, 200, bb_reference.options(2)))) == 408


def load_refsim():
    path = Path(__file__).resolve().parents[1] / "bench" / "refsim.py"
    spec = importlib.util.spec_from_file_location("refsim", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("n", [1, 2])
def test_leaves_hold_on_an_independent_simulator(n):
    # bench/refsim.py shares no code with beaverkit.  A halting leaf's
    # first completion halts at the leaf's step; a non-halting leaf's proof
    # never reads a free entry, so filling those with halts changes nothing
    refsim = load_refsim()
    opts = bb_reference.options(n)
    for leaf, (kind, steps) in bb._leaves(n, 200, opts):
        if kind == "halt":
            prog = next(completions(leaf, opts))
            assert refsim.run(prog, 10**4)[:2] == (True, steps), leaf
        else:
            prog = next(completions(leaf, [(1, 1, -1)]))
            assert refsim.run(prog, 10**4)[:2] == (False, 10**4), leaf


def test_three_state_tree():
    # past brute_force_bb's guard: decider 1 and CPS leave at most 52 of
    # the 106,276 leaves to the cap, and every 100th closed leaf, its free
    # entries halting, runs 10^4 steps on bench/refsim.py without a halt
    refsim = load_refsim()
    kinds = collections.Counter()
    closed = []
    for leaf, (kind, _) in bb._leaves(3, 200, bb_reference.options(3)):
        kinds[kind] += 1
        if kind == "closed":
            closed.append(leaf)
    assert kinds["halt"] == 28340 and kinds["no_halt_rule"] == 63712
    assert kinds["closed"] + kinds["inconclusive"] == 14224 and kinds["inconclusive"] <= 52
    for leaf in closed[::100]:
        prog = next(completions(leaf, [(1, 1, -1)]))
        assert refsim.run(prog, 10**4)[:2] == (False, 10**4), leaf


def test_brute_force_runs_no_observed_run(monkeypatch):
    # the deciders prove every non-halting leaf, so a run only looks for
    # the next halt: nothing traces it or checks it for a cycle
    real = bb.run
    calls = []

    def counted(*args, **kw):
        calls.append(inspect.signature(real).bind(*args, **kw).arguments)
        return real(*args, **kw)

    monkeypatch.setattr(bb, "run", counted)
    runs = []
    for n in (1, 2):
        calls.clear()
        brute_force_bb(n)
        runs.append(len(calls))
        for call in calls:
            assert call.get("trace") is None
            assert not getattr(call.get("limits"), "cycle_check", False)
    assert runs[1] <= 36


def spinner(n):
    """n-state ring that writes 1s rightward forever."""
    names = [chr(65 + i) for i in range(n)]
    states = {
        names[i]: (Action(1, 1, names[(i + 1) % n]), None) for i in range(n)
    }
    return Machine(f"spinner{n}", "A", states)


def test_bb_bound_certificate_for_four_state_machine():
    m = spinner(4)
    out = run(m, limits=RunLimits(max_steps=108))
    assert out.kind == "step_limit" and out.steps == 108
    cert = certify_nonhalt(m, out, default_registry())
    assert cert is not None
    assert cert.basis == "bb_bound" and cert.n == 4 and cert.bb_value == 107
    assert replay_certificate(m, cert)


def test_no_certificate_at_or_below_bound():
    m = spinner(4)
    out = run(m, limits=RunLimits(max_steps=107))
    assert certify_nonhalt(m, out, default_registry()) is None


def test_no_certificate_for_unregistered_size():
    m = spinner(5)
    out = run(m, limits=RunLimits(max_steps=10**6))
    assert certify_nonhalt(m, out, default_registry()) is None


def test_cycle_certificate_and_replay():
    mover = Machine("mover", "A", {"A": (Action(0, 1, "A"), None)})
    out = run(mover, limits=RunLimits(max_steps=100, cycle_check=True))
    assert out.kind == CYCLE
    cert = certify_nonhalt(mover, out)
    assert cert.basis == "cycle" and cert.period == 1
    assert replay_certificate(mover, cert)


def test_replay_refuses_cycle_steps_off_the_basis():
    # certify_nonhalt writes steps = first + period; any other count is forged
    mover = Machine("mover", "A", {"A": (Action(0, 1, "A"), None)})
    cert = certify_nonhalt(mover, run(mover, limits=RunLimits(max_steps=100, cycle_check=True)))
    assert cert.steps_observed == cert.first_visit + cert.period
    for steps in (cert.steps_observed - 1, cert.steps_observed + 1, 100):
        assert not replay_certificate(mover, dataclasses.replace(cert, steps_observed=steps))


def test_certificate_round_trip():
    mover = Machine("mover", "A", {"A": (Action(0, 1, "A"), None)})
    out = run(mover, limits=RunLimits(max_steps=100, cycle_check=True))
    cert = certify_nonhalt(mover, out)
    again = parse_certificate(cert.serialize())
    assert again == cert
    m = spinner(4)
    out = run(m, limits=RunLimits(max_steps=108))
    cert = certify_nonhalt(m, out, default_registry())
    assert parse_certificate(cert.serialize()) == cert


@pytest.mark.parametrize("key, text", [
    ("machine", "certificate nonhalt\nsteps 9\nbasis cycle first=3 period=2"),
    ("steps", "certificate nonhalt\nmachine m\nbasis cycle first=3 period=2"),
    ("basis", "certificate nonhalt\nmachine m\nsteps 9"),
    ("period", "certificate nonhalt\nmachine m\nsteps 9\nbasis cycle first=3"),
])
def test_certificate_missing_line_names_it(key, text):
    with pytest.raises(ValueError, match=f"certificate has no '{key}'"):
        parse_certificate(text)


VALID = "certificate nonhalt\nmachine m 0123\nsteps 9\nbasis cycle first=3 period=6\n"


@pytest.mark.parametrize("lineno, text", [
    # the header comes first
    (1, "machine m 0123\ncertificate nonhalt\nsteps 9\nbasis cycle first=3 period=6"),
    (1, VALID.replace("certificate nonhalt\n", "")),
    (3, VALID.replace("steps 9\n", "certificate nonhalt\nsteps 9\n")),
    # machine, steps and basis once each: the last no longer wins
    (5, VALID + "machine m 0123"),
    (5, VALID + "steps 10"),
    (5, VALID + "basis cycle first=3 period=6"),
    # no line of any other kind, nor one with no argument
    (5, VALID + "note anything"),
    (3, VALID.replace("steps 9", "steps")),
    # each of a basis's own fields once, and no other
    (4, VALID.replace("period=6", "period=6 first=2")),
    (4, VALID.replace("period=6", "period=6 n=5")),
    (4, "certificate nonhalt\nmachine m 0123\nsteps 108\nbasis bb-bound n=4 value=107 period=1"),
    (4, "certificate nonhalt\nmachine m 0123\nsteps 108\nbasis bb-bound n=4 value=107 n=4"),
])
def test_malformed_certificate_is_refused_at_its_line(lineno, text):
    assert parse_certificate(VALID).first_visit == 3
    with pytest.raises(ValueError, match=f"^line {lineno}: "):
        parse_certificate(text)


@pytest.mark.parametrize("basis", [
    "basis cycle first=0 period=0",
    "basis cycle first=2 period=-1",
    "basis bb-bound n=2 value=2",
])
def test_replay_refuses_forged_certificates(basis):
    # the BB(2) champion halts after 6 steps, so no certificate may hold
    champion = machine_from_program(((0, -1, 1), (0, -1, -1), (1, 1, 0), (1, -1, 1)), 2)
    assert champion.name == "0LB0LH1RA1LB"
    assert run(champion).steps == 6
    label = machine_label(champion)
    cert = parse_certificate(f"certificate nonhalt\nmachine {label}\nsteps 9\n{basis}\n")
    assert not replay_certificate(champion, cert)
    assert not replay_certificate(champion, cert, default_registry())


def test_machine_label_digest_is_pinned():
    # blake2b from `_blake2` or from `hashlib` is one function: the digest
    # a certificate carries does not depend on where it was imported from
    champion = machine_from_program(((0, -1, 1), (0, -1, -1), (1, 1, 0), (1, -1, 1)), 2)
    assert machine_label(champion) == "0LB0LH1RA1LB 1b9d3b6261da8489"


def test_composed_machine_labels_are_pinned(brocard_ref, fermat_composed):
    # Brocard's section b entered at Ps is the README's `bb certify` example
    b = brocard_ref.machine
    assert machine_label(Machine(b.name, "b.Ps", b.states)) == "b b05aa0d3b8dd0341"
    assert machine_label(fermat_composed.machine) == "t1+t2+t3 0bdbd452b90d324a"


def test_a_machine_is_digested_once(monkeypatch):
    # a machine cannot change, so certifying, replaying and certifying
    # again serialize its table once; an equal machine built afresh
    # serializes its own, to the same label
    calls = []
    monkeypatch.setattr(bb, "serialize_machine", lambda m: calls.append(m) or serialize_machine(m))
    mover = Machine("mover", "A", {"A": (Action(0, 1, "A"), None)})
    for m, limits in ((mover, RunLimits(max_steps=100, cycle_check=True)),
                      (spinner(4), RunLimits(max_steps=108))):
        calls.clear()
        out = run(m, limits=limits)
        cert = certify_nonhalt(m, out)
        assert replay_certificate(m, cert)
        assert certify_nonhalt(m, out) == cert
        assert len(calls) == 1 and calls[0] is m
        twin = Machine(m.name, m.start, m.states)
        assert twin == m and replay_certificate(twin, cert)
        assert len(calls) == 2 and calls[1] is twin


def test_cli_import_loads_no_openssl_hash_module():
    src = Path(bb.__file__).resolve().parents[1]
    code = "import sys, beaverkit.cli; print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert out.stdout.strip() == "[]"


def test_replay_bound_must_be_the_registry_entry():
    m = spinner(4)
    cert = certify_nonhalt(m, run(m, limits=RunLimits(max_steps=108)))
    assert replay_certificate(m, cert, parse_registry("bb 4 107 paper"))
    assert not replay_certificate(m, cert, parse_registry("bb 4 106 paper"))
    assert not replay_certificate(m, cert, parse_registry("bb 2 6 computed"))


def test_replay_rejects_wrong_machine():
    m4 = spinner(4)
    out = run(m4, limits=RunLimits(max_steps=108))
    cert = certify_nonhalt(m4, out, default_registry())
    assert replay_certificate(spinner(4), cert)
    assert not replay_certificate(spinner(3), cert)
    # the same name and a run past the bound, but another table or start
    ring = Machine(m4.name, "A", dict(m4.states, D=(Action(1, 1, "B"), None)))
    for other in (ring, dataclasses.replace(m4, start="B")):
        assert run(other, limits=RunLimits(max_steps=108)).steps == 108
        assert not replay_certificate(other, cert)


def test_halted_machine_earns_no_certificate():
    halter = Machine("h", "A", {"A": (Action(1, 1, "HALT"), None)})
    out = run(halter)
    assert certify_nonhalt(halter, out, default_registry()) is None


def test_no_certificate_unless_the_run_began_blank():
    # from a blank tape this machine halts at once; from a block of 1s
    # A and B bounce forever, and from B a blank tape glides forever
    m = Machine(
        "bounce", "A",
        {"A": (None, Action(1, 1, "B")), "B": (Action(0, 1, "B"), Action(1, -1, "A"))},
    )
    unary = Configuration("A", Tape.from_blocks([50]))
    out = run(m, unary.clone(), RunLimits(max_steps=10))
    assert out.kind == "step_limit" and out.steps == 10
    assert certify_nonhalt(m, out, default_registry()) is None
    out = run(m, unary.clone(), RunLimits(max_steps=100, cycle_check=True))
    assert out.kind == CYCLE
    assert certify_nonhalt(m, out, default_registry()) is None
    out = run(m, Configuration("B"), RunLimits(max_steps=100, cycle_check=True))
    assert out.kind == CYCLE
    assert certify_nonhalt(m, out, default_registry()) is None
    # a continued run did not begin at step 0, even if its first leg did
    mover = Machine("mover", "A", {"A": (Action(0, 1, "A"), None)})
    first = run(mover, limits=RunLimits(max_steps=3))
    later = run(mover, first.config, RunLimits(max_steps=100, cycle_check=True))
    assert later.kind == CYCLE
    assert certify_nonhalt(mover, later) is None


def test_machine_from_program_shape():
    prog = ((1, 1, -1), (0, -1, 0))
    m = machine_from_program(prog, 1)
    assert state_count(m) == 1
    assert m.states["A"][0].target == "HALT"
    out = run(m)
    assert out.kind == "halted" and out.steps == 1
    # a free entry stays undefined, and so does a state with none defined
    partial = machine_from_program(((1, 1, 1), None, None, None), 2)
    assert partial.name == "1RB---------" and list(partial.states) == ["A"]


def test_registry_values_match_brute_force():
    reg = default_registry()
    for n in (1, 2):
        assert brute_force_bb(n).value == reg.lookup(n).value
