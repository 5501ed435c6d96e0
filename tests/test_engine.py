import time
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from beaverkit import engine, harness, rules
from beaverkit.engine import (
    CYCLE,
    HALTED,
    MEMORY_LIMIT,
    STEP_LIMIT,
    WATCH,
    RunLimits,
    fingerprint,
    run,
)
from beaverkit.machine import HALT, NEXT_MACHINE, Action, Machine, compile_machine
from beaverkit.tape import Configuration, Tape
from stepping import HaltEvent, checked_run, read_profile, step, stepped_run


def one_state(write=1, move=1, target="B"):
    return Machine("toy", "A", {"A": (Action(write, move, target), None)})


def test_single_forced_transition():
    m = one_state()
    cfg = step(m, Configuration("A"))
    assert isinstance(cfg, Configuration)
    assert cfg.state == "B" and cfg.tape.head == 1 and cfg.steps == 1
    assert cfg.tape.read(0) == 1
    # B is undefined: the next step is a halt event, configuration unchanged
    ev = step(m, cfg)
    assert isinstance(ev, HaltEvent)
    assert ev.config.steps == 1
    # run() discovers the inevitable halt as soon as the transition is taken
    out = run(m, limits=RunLimits(max_steps=10))
    assert out.kind == HALTED and out.steps == 1 and out.halting_state == "B"


def test_step_is_pure():
    m = one_state()
    cfg = Configuration("A")
    a = step(m, cfg)
    b = step(m, cfg)
    assert cfg.steps == 0 and cfg.tape.read(0) == 0
    assert a.state == b.state and a.steps == b.steps
    assert a.tape.content_equal(b.tape)


def test_determinism():
    m = one_state()
    a = run(m, limits=RunLimits(max_steps=5))
    b = run(m, limits=RunLimits(max_steps=5))
    assert a.kind == b.kind and a.steps == b.steps
    assert a.config.state == b.config.state
    assert a.config.tape.content_equal(b.config.tape)


def test_empty_machine_halt_start():
    m = Machine("empty", HALT, {})
    out = run(m)
    assert out.kind == HALTED and out.steps == 0
    assert out.halting_state == HALT


def test_rejects_unknown_initial_state():
    m = one_state()
    with pytest.raises(ValueError):
        run(m, Configuration("Z"))


def test_perpetual_right_mover_cycles_only_when_asked():
    m = Machine("mover", "A", {"A": (Action(0, 1, "A"), None)})
    out = run(m, limits=RunLimits(max_steps=100))
    assert out.kind == STEP_LIMIT and out.steps == 100
    out = run(m, limits=RunLimits(max_steps=100, cycle_check=True))
    assert out.kind == CYCLE
    assert out.period == 1


def test_halt_into_reserved_marker_counts_the_step():
    m = Machine("h", "A", {"A": (Action(1, 1, HALT), None)})
    out = run(m)
    assert out.kind == HALTED and out.steps == 1
    assert out.halting_state == HALT
    assert out.config.tape.read(0) == 1


def test_watch_stops_on_entry():
    m = Machine(
        "w",
        "A",
        {
            "A": (Action(1, 1, "B"), None),
            "B": (Action(1, 1, "A"), None),
        },
    )
    out = run(m, limits=RunLimits(max_steps=100), watch=("B",))
    assert out.kind == WATCH and out.steps == 1 and out.watched_state == "B"
    # continuing does not instantly re-trigger on the state we stand in
    cfg = out.config
    out2 = run(m, cfg, RunLimits(max_steps=100), watch=("B",))
    assert out2.kind == WATCH and out2.steps == 3


def test_profile_keeps_what_the_set_held():
    m = Machine("w", "A", {"A": (Action(1, 1, "B"), None), "B": (Action(1, 1, "A"), None)})
    profile = {("elsewhere", 1)}
    run(m, limits=RunLimits(max_steps=5), profile=profile)
    assert profile == {("elsewhere", 1), ("A", 0), ("B", 0)}


def test_memory_limit_on_unbounded_fill():
    filler = Machine("fill", "A", {"A": (Action(1, 1, "A"), None)})
    out = run(filler, limits=RunLimits(max_steps=10**6, max_support_cells=64))
    assert out.kind == MEMORY_LIMIT
    assert out.steps == 64
    assert out.config.tape.support_size() == 64
    mirror = Machine("fill", "A", {"A": (Action(1, -1, "A"), None)})
    out = run(mirror, limits=RunLimits(max_steps=10**6, max_support_cells=64))
    assert out.kind == MEMORY_LIMIT and out.steps == 64


def test_run_limits_reject_out_of_range_budgets():
    assert RunLimits(max_steps=0, max_support_cells=1).max_steps == 0
    with pytest.raises(ValueError, match="max_steps must be >= 0"):
        RunLimits(max_steps=-1)
    for cells in (0, -3):
        with pytest.raises(ValueError, match="max_support_cells must be >= 1"):
            RunLimits(max_support_cells=cells)


def test_step_budget_is_exact_mid_scan():
    # a long scan must stop exactly at the budget even inside a skip
    tape = Tape.from_blocks([1000])
    m = Machine("scan", "A", {"A": (None, Action(1, 1, "A"))})
    out = run(m, Configuration("A", tape), RunLimits(max_steps=137))
    assert out.kind == STEP_LIMIT and out.steps == 137
    assert out.config.tape.head == 137


def test_fingerprint_properties():
    assert fingerprint("S", Tape()) == fingerprint("S", Tape()) == ("S", 0, b"")
    assert fingerprint("S", Tape()) != fingerprint("T", Tape())
    # translation invariance: same pattern shifted, head shifted alike
    t1 = Tape.from_blocks([3], start_cell=0)
    t1.head = 1
    t2 = Tape.from_blocks([3], start_cell=40)
    t2.head = 41
    assert fingerprint("S", t1) == fingerprint("S", t2) == ("S", 1, b"\x01\x01\x01")
    t2.head = 42
    assert fingerprint("S", t1) != fingerprint("S", t2)
    # the key is a copy: writing the tape later does not change it
    key = fingerprint("S", t1)
    t1.write(5, 1)
    assert key == ("S", 1, b"\x01\x01\x01") != fingerprint("S", t1)


def test_trace_lines_emitted_per_step():
    lines = []
    m = one_state(target="A")  # writes 1, moves right, stays in A
    run(
        m,
        limits=RunLimits(max_steps=3),
        trace=lambda steps, state, head, tape: lines.append((steps, state, head)),
    )
    assert lines == [(1, "A", 1), (2, "A", 2), (3, "A", 3)]


@st.composite
def machines(draw, max_states=4, halts=True):
    """Random machines: some transitions missing, some to HALT; without
    `halts`, every transition defined and into a state."""
    n = draw(st.integers(1, max_states))
    names = [chr(65 + i) for i in range(n)]
    states = {}
    for name in names:
        acts = []
        for _ in (0, 1):
            if not halts or draw(st.booleans()) or name == names[0]:
                target = draw(st.sampled_from(names + [HALT, "ext"] if halts else names))
                acts.append(
                    Action(draw(st.integers(0, 1)), draw(st.sampled_from([-1, 1])), target)
                )
            else:
                acts.append(None)
        if acts[0] is None and acts[1] is None:
            acts[0] = Action(1, 1, HALT)
        states[name] = (acts[0], acts[1])
    return Machine("rand", names[0], states)


def assert_same_run(a, b):
    assert a.kind == b.kind
    assert a.steps == b.steps
    assert a.config.state == b.config.state
    assert a.config.tape.head == b.config.tape.head
    assert a.config.tape.content_equal(b.config.tape)


def test_watch_ignores_self_loop_in_every_mode():
    # a self-loop does not enter the state it stays in, observed or not
    m = one_state(target="A")
    for limits, trace in (
        (RunLimits(max_steps=10), None),
        (RunLimits(max_steps=10), lambda *a: None),
        (RunLimits(max_steps=10, cycle_check=True), None),
    ):
        out = run(m, limits=limits, watch=("A",), trace=trace)
        assert out.kind == STEP_LIMIT and out.steps == 10


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_scan_matches_single_step(data):
    m = data.draw(machines())
    blocks = data.draw(st.lists(st.integers(1, 6), min_size=0, max_size=3))
    budget = data.draw(st.integers(0, 300))
    cap = data.draw(st.one_of(st.just(1 << 22), st.integers(1, 40)))
    watch = tuple(data.draw(st.lists(st.sampled_from(sorted(m.states)), max_size=2)))
    tape = Tape.from_blocks(blocks) if blocks else Tape()
    tape.head = data.draw(st.integers(-3, 8))
    limits = RunLimits(max_steps=budget, max_support_cells=cap)

    def go(limits=limits, **kw):
        return run(m, Configuration(m.start, tape.clone()), limits, watch=watch, **kw)

    traced = []

    def trace(steps, state, head, tape):
        assert tape.head == head  # the tape a trace sees is up to date
        traced.append((steps, state, head, tape.support()))

    profile = set()
    scanned = go(profile=profile)
    assert_same_run(scanned, go(trace=trace))
    checked = go(RunLimits(budget, cap, cycle_check=True))
    if checked.kind != CYCLE:
        assert_same_run(scanned, checked)
    kind, trail = stepped_run(m, Configuration(m.start, tape.clone()), budget, watch, cap=cap)
    ref = trail[-1]
    assert (scanned.kind, scanned.steps) == (kind, ref.steps)
    assert scanned.config.state == ref.state
    assert scanned.config.tape.head == ref.tape.head
    assert scanned.config.tape.content_equal(ref.tape)
    assert extent(scanned.config.tape) == extent(ref.tape)
    assert profile == read_profile(m, kind, trail)
    assert traced == [(c.steps, c.state, c.tape.head, c.tape.support()) for c in trail[1:]]


def extent(tape):
    """The cells that have held 1s, the bounds the memory cap is kept on."""
    return tape._lo1, tape._hi1


@st.composite
def sweepers(draw):
    """(machine, cycle, symbol): 2-5 states built around a cycle of 2-4
    of them that all read `symbol` and move one way, with random writes;
    the other entries are random, missing, or lead to HALT or an exit."""
    k = draw(st.integers(2, 4))
    names = [chr(65 + i) for i in range(draw(st.integers(k, 5)))]
    cycle = draw(st.permutations(names))[:k]
    sym, move = draw(st.integers(0, 1)), draw(st.sampled_from([-1, 1]))
    action = st.builds(Action, st.integers(0, 1), st.sampled_from([-1, 1]),
                       st.sampled_from(names + [HALT, "ext"]))
    states = {}
    for name in names:
        acts = [draw(st.one_of(st.none(), action)) for _ in (0, 1)]
        if name in cycle:
            acts[sym] = Action(draw(st.integers(0, 1)), move, cycle[(cycle.index(name) + 1) % k])
        elif acts == [None, None]:
            acts[0] = Action(1, 1, HALT)
        states[name] = tuple(acts)
    return Machine("sweeper", cycle[0], states), cycle, sym


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_sweep_matches_single_step(data):
    # blocks past LONG_SCAN, caps that cut a crossing short, watches in
    # the cycle: every field a run returns, against one step at a time
    m, cycle, sym = data.draw(sweepers())
    blocks = data.draw(st.lists(st.one_of(st.integers(1, 6), st.integers(1, 200)), max_size=3))
    tape = Tape.from_blocks(blocks) if blocks else Tape()
    near = range(-5, sum(blocks) + len(blocks) + 5)
    # mostly on a cell the cycle reads, so that it crosses a run at once
    facing = [c for c in near if tape.read(c) == sym] or near
    tape.head = data.draw(st.one_of(st.sampled_from(facing), st.sampled_from(near)))
    budget = data.draw(st.integers(0, 1000))
    cap = data.draw(st.one_of(st.just(1 << 22), st.integers(1, 300), st.integers(1, 30)))
    watch = data.draw(st.one_of(st.just(()), st.lists(st.sampled_from(cycle), min_size=1, max_size=2)))
    profile = set()
    out = run(m, Configuration(m.start, tape.clone()), RunLimits(budget, cap),
              watch=tuple(watch), profile=profile)
    kind, trail = stepped_run(m, Configuration(m.start, tape.clone()), budget, watch, cap=cap)
    ref = trail[-1]
    assert (out.kind, out.steps, out.config.state) == (kind, ref.steps, ref.state)
    assert out.config.tape.head == ref.tape.head
    assert out.config.tape.content_equal(ref.tape)
    assert extent(out.config.tape) == extent(ref.tape)
    assert profile == read_profile(m, kind, trail)


def cells(tape):
    lo, hi = tape.support()
    return lo, tape.snapshot(lo, hi + 1)


@st.composite
def erasers(draw):
    """Erasing walkers: 1-3 states that write 0 and move one way on every
    read.  Run over a non-blank tape, one wipes the 1s ahead and repeats
    translated off the start tape, which only a hash that took the start
    tape, and every write and move since, alike tells apart."""
    names = [chr(65 + i) for i in range(draw(st.integers(1, 3)))]
    move = draw(st.sampled_from([-1, 1]))
    action = st.builds(Action, st.just(0), st.just(move), st.sampled_from(names))
    return Machine("eraser", "A", {name: (draw(action), draw(action)) for name in names})


def assert_cycle_check_matches_reference(data):
    m = data.draw(st.one_of(machines(), machines(halts=False), erasers()))
    blocks = data.draw(st.lists(st.integers(1, 6), min_size=1 if m.name == "eraser" else 0, max_size=3))
    tape = Tape.from_blocks(blocks) if blocks else Tape()
    tape.head = data.draw(st.integers(-3, 8))
    start = Configuration(m.start, tape, data.draw(st.sampled_from([0, 0, 0, 1, 40])))
    budget = data.draw(st.integers(0, 300))
    cap = data.draw(st.one_of(st.just(1 << 22), st.integers(4, 40)))
    watch = tuple(data.draw(st.lists(st.sampled_from(sorted(m.states)), max_size=2)))
    traced = [] if data.draw(st.booleans()) else None
    profile = set() if data.draw(st.booleans()) else None

    def trace(steps, state, head, tape):
        traced.append((steps, state, head, cells(tape)))

    out = run(m, start.clone(), RunLimits(budget, cap, cycle_check=True), watch=watch,
              trace=None if traced is None else trace, profile=profile)
    kind, trail, first = checked_run(m, start.clone(), budget, watch, cap)
    ref = trail[-1]
    assert (out.kind, out.steps, out.first_visit) == (kind, ref.steps, first)
    assert out.period == (None if first is None else ref.steps - first)
    assert out.config.state == ref.state
    assert out.config.tape.head == ref.tape.head
    assert cells(out.config.tape) == cells(ref.tape)
    if traced is not None:
        assert traced == [(c.steps, c.state, c.tape.head, cells(c.tape)) for c in trail[1:]]
    if profile is not None:
        assert profile == read_profile(m, kind, trail)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_cycle_check_matches_full_key_reference(data):
    assert_cycle_check_matches_reference(data)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_cycle_check_survives_colliding_keys(data):
    # every support hashes alike, so only the confirmation by replay
    # tells configurations of one state, head offset and width apart
    with mock.patch.object(engine, "_support_hash", lambda support: 0):
        assert_cycle_check_matches_reference(data)


COLLIDING = [
    # A flips the middle cell and B walks back, so A and B each stand in
    # two configurations alike but for that cell: the repeat is of the
    # older of two keys that match
    ({"A": (Action(1, -1, "B"), Action(0, -1, "B")),
      "B": (Action(1, 1, "A"), Action(1, 1, "A"))}, 1, 0, 4),
    # B fills the middle cell once: the start and step 2 match, and the
    # repeat is of the newer
    ({"A": (Action(0, -1, "A"), Action(1, -1, "B")),
      "B": (Action(1, 1, "A"), Action(1, 1, "A"))}, 2, 2, 2),
]


def colliding_start(head):
    return Configuration("A", Tape.from_blocks([1, 1], head=head))  # 1 0 1


@pytest.mark.parametrize("states, head, first_visit, period", COLLIDING)
def test_colliding_configurations_are_told_apart(states, head, first_visit, period):
    m = Machine("collide", "A", states)
    start = colliding_start(head)
    want = (CYCLE, first_visit + period, first_visit, period)
    for support_hash in (hash, lambda support: 0):
        with mock.patch.object(engine, "_support_hash", support_hash):
            out = run(m, start.clone(), RunLimits(max_steps=50, cycle_check=True))
        assert (out.kind, out.steps, out.first_visit, out.period) == want
    assert checked_run(m, start.clone(), 50)[::2] == (CYCLE, first_visit)


def test_cycle_check_sees_a_repeat_translated_off_the_start_tape():
    # the eraser wipes 1 1 and walks on over blank: step 3 is step 2
    # translated, which the hash sees only if it took the start tape's
    # cells, and every write and move since, alike
    eraser = Machine("eraser", "A", {"A": (Action(0, 1, "A"), Action(0, 1, "A"))})
    start = Configuration("A", Tape.from_blocks([2]))
    out = run(eraser, start.clone(), RunLimits(max_steps=50, cycle_check=True))
    assert (out.kind, out.steps, out.first_visit, out.period) == (CYCLE, 3, 2, 1)
    assert checked_run(eraser, start.clone(), 50)[::2] == (CYCLE, 2)


# no literal self-loop, one more cell of support every step and no repeat
SPINNER = Machine("spinner", "A", {"A": (Action(1, 1, "B"), Action(1, 1, "B")),
                                   "B": (Action(1, 1, "A"), Action(1, 1, "A"))})


def test_cycle_store_keeps_no_tape_per_step():
    # a copy of each tape would take about 32 MB at 8,000 steps and 512 MB
    # at 32,000; the store's key and step take a fixed size
    for steps, bound in ((8000, 4 << 20), (32000, 6 << 20)):
        tracemalloc.start()
        try:
            out = run(SPINNER, limits=RunLimits(max_steps=steps, cycle_check=True))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.kind == STEP_LIMIT and out.steps == steps
        assert peak < bound


def test_cycle_check_fingerprints_only_on_a_key_match(monkeypatch):
    # the exact key is taken only to confirm a key match: of the current
    # configuration and of each earlier one replayed
    calls = []

    def counted(state, tape):
        key = fingerprint(state, tape)
        calls.append(key)
        return key

    monkeypatch.setattr(engine, "fingerprint", counted)
    out = run(SPINNER, limits=RunLimits(max_steps=8000, cycle_check=True))
    assert out.steps == 8000 and calls == []
    cases = [(Machine("collide", "A", states), colliding_start(head))
             for states, head, _, _ in COLLIDING]
    # two states on one blank tape: only the state tells their keys apart
    walker = Machine("walker", "A", {"A": (Action(0, 1, "B"), None),
                                     "B": (Action(0, 1, "A"), None)})
    cases.append((walker, Configuration("A")))
    for m, start in cases:
        index = compile_machine(m).index
        trail = checked_run(m, start.clone(), 50)[1]
        exact = [fingerprint(index[c.state], c.tape) for c in trail]
        # with the real hash only the repeat itself matches a key, and it
        # is confirmed by one replay; with every support hashing alike,
        # only configurations of one state may share a key
        for support_hash, key in ((hash, exact), (lambda h: 0, [k[0] for k in exact])):
            matched = {f for f, k in zip(exact, key) if key.count(k) > 1}
            calls.clear()
            with mock.patch.object(engine, "_support_hash", support_hash):
                assert run(m, start.clone(), RunLimits(50, cycle_check=True)).kind == CYCLE
            assert calls and set(calls) <= matched
            if support_hash is hash:
                assert calls == [exact[-1]] * 2


def test_cycle_check_leaves_long_runs_unchanged(fermat_composed, brocard_ref):
    # supports of 368 and 430 cells, far past what the properties draw
    for m in (fermat_composed.machine, brocard_ref.machine):
        plain, checked = (run(m, limits=RunLimits(100_000, cycle_check=c)) for c in (False, True))
        assert plain.kind == checked.kind == STEP_LIMIT
        assert_same_run(plain, checked)
        assert plain.config.tape.support_size() > 300


def test_a_machine_compiles_once(monkeypatch, data_dir, resolver):
    calls = []
    monkeypatch.setattr(engine, "compile_machine",
                        lambda m, *watch: calls.append(m) or compile_machine(m, *watch))
    m, twin = one_state(target="A"), one_state(target="A")
    for limits in (RunLimits(max_steps=5), RunLimits(max_steps=9, cycle_check=True)):
        assert run(m, limits=limits).steps == limits.max_steps
    assert calls == [m]
    assert m == twin and repr(m) == repr(twin)
    # one watch set compiles one more table, however its names are given;
    # unwatched runs compile nothing new
    for watch in (("A", "B"), ("B", "A"), ["A", "B"], ["B", "A", "B"]):
        assert run(m, limits=RunLimits(max_steps=5), watch=watch).steps == 5
        assert run(m, limits=RunLimits(max_steps=5)).steps == 5
    assert calls == [m, m]
    assert m == twin and repr(m) == repr(twin)
    # a watch set that names no state (NM is an exit marker) stops on
    # nothing, so the unwatched table serves it: nothing more compiles
    exits = one_state(target=NEXT_MACHINE)
    calls.clear()
    plain = run(exits, limits=RunLimits(max_steps=5))
    for watch in ((NEXT_MACHINE,), (NEXT_MACHINE, HALT, "Z")):
        out = run(exits, limits=RunLimits(max_steps=5), watch=watch)
        assert_same_run(out, plain)
        assert (out.halting_state, out.watched_state) == (plain.halting_state, None) == (NEXT_MACHINE, None)
    assert calls == [exits]
    # a second run of one Brocard scenario, which watches its Kf states
    scn = next(s for s in harness.load_scenarios(data_dir / "scenarios" / "brocard.scn")
               if s.name == "square_check_oracle_35")
    machine = resolver(scn.machine_ref)
    assert harness.watch_states(scn, machine)
    first = harness.execute_scenario(scn, machine)
    calls.clear()
    again = harness.execute_scenario(scn, machine)
    assert calls == [] and (again.kind, again.steps) == (first.kind, first.steps) == (WATCH, 945)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_support_growth_bounded_by_steps(data):
    m = data.draw(machines())
    blocks = data.draw(st.lists(st.integers(1, 5), min_size=0, max_size=3))
    budget = data.draw(st.integers(0, 200))
    tape = Tape.from_blocks(blocks) if blocks else Tape()
    s0 = tape.support_size()
    out = run(m, Configuration(m.start, tape), RunLimits(max_steps=budget))
    assert out.config.tape.support_size() <= s0 + out.steps


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_halting_soundness(data):
    m = data.draw(machines())
    out = run(m, limits=RunLimits(max_steps=200))
    if out.kind == HALTED:
        state = out.config.state
        sym = out.config.tape.read(out.config.tape.head)
        # the machine has no action for where it died
        assert m.action(state, sym) is None


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cycle_soundness_replay(data):
    m = data.draw(machines())
    out = run(m, limits=RunLimits(max_steps=300, cycle_check=True))
    if out.kind != CYCLE:
        return
    first = run(m, limits=RunLimits(max_steps=out.first_visit))
    fp = fingerprint(first.config.state, first.config.tape)
    first.config.steps = 0
    again = run(m, first.config, RunLimits(max_steps=out.period))
    assert fingerprint(again.config.state, again.config.tape) == fp


def test_memory_cap_respects_existing_support():
    # ten 1s at cells 0..9; filling leftward may add six more before the
    # 16-cell extent cap bites, and the violating write is not executed
    filler = Machine("fill", "A", {"A": (Action(1, -1, "A"), Action(1, -1, "A"))})
    tape = Tape.from_blocks([10])
    tape.head = -1
    out = run(
        filler,
        Configuration("A", tape),
        RunLimits(max_steps=10**6, max_support_cells=16),
    )
    assert out.kind == MEMORY_LIMIT
    assert out.config.tape.support() == (-6, 9)


def writer(move, states):
    """Writes 1 and moves `move` on every read; one state scans, two alternate."""
    names = "AB"[:states]
    succ = dict(zip(names, names[1:] + names[0]))
    return Machine("writer", "A", {n: (Action(1, move, succ[n]),) * 2 for n in names})


@pytest.mark.parametrize("states", [1, 2])
@pytest.mark.parametrize(
    "blocks, head, move, steps, support",
    [
        ([3, 3], 3, 1, 0, (0, 6)),  # 7 cells under a cap of 5: no 0->1 write inside
        ([3], -1, -1, 2, (-2, 2)),  # leftward to exactly 5 cells, the sixth refused
        ([3], 3, 1, 2, (0, 4)),  # rightward to exactly 5 cells, the sixth refused
        # 6 cells under a cap of 5, the head on the 0 inside: no write at all
        ([2, 3], 2, 1, 0, (0, 5)),
        ([3, 2], 3, -1, 0, (0, 5)),
    ],
)
def test_memory_cap_edges(states, blocks, head, move, steps, support):
    m = writer(move, states)
    tape = Tape.from_blocks(blocks)
    tape.head = head
    out = run(m, Configuration("A", tape.clone()), RunLimits(100, max_support_cells=5))
    kind, trail = stepped_run(m, Configuration("A", tape.clone()), 100, cap=5)
    ref = trail[-1]
    assert (out.kind, out.steps) == (kind, ref.steps) == (MEMORY_LIMIT, steps)
    assert out.config.tape.head == ref.tape.head == head + move * steps
    assert out.config.tape.content_equal(ref.tape)
    assert out.config.tape.support() == support


def ring(writes, move, sym=0):
    """A cycle of states A, B, ... that read `sym`, the i-th writing
    writes[i] and moving `move`; nothing else is defined."""
    names = "ABCD"[: len(writes)]
    states = {}
    for i, name in enumerate(names):
        acts = [None, None]
        acts[sym] = Action(int(writes[i]), move, names[(i + 1) % len(names)])
        states[name] = tuple(acts)
    return Machine("ring", "A", states)


@pytest.mark.parametrize("fill", ["10", "01", "110"])
@pytest.mark.parametrize("move", [1, -1])
@pytest.mark.parametrize("blocks", [[], [3], [3, 3]])
@pytest.mark.parametrize("gap", [0, 1])
def test_sweep_memory_cap_edges(fill, move, blocks, gap):
    # a cycle filling blank with `fill` tiled under a cap of 5 cells:
    # from blank, beside 3 cells, and beside 7 (no 0->1 write allowed)
    m = ring(fill, move)
    tape = Tape.from_blocks(blocks)
    width = sum(blocks) + len(blocks) - 1
    tape.head = width + gap if move > 0 else -1 - gap
    out = run(m, Configuration("A", tape.clone()), RunLimits(100, max_support_cells=5))
    kind, trail = stepped_run(m, Configuration("A", tape.clone()), 100, cap=5)
    ref = trail[-1]
    assert (out.kind, out.steps, out.config.state) == (kind, ref.steps, ref.state)
    assert kind == MEMORY_LIMIT
    assert out.config.tape.head == ref.tape.head
    assert out.config.tape.content_equal(ref.tape)
    assert extent(out.config.tape) == extent(ref.tape)


def test_watched_state_stops_a_sweep_at_its_first_entry():
    m = ring("101", 1)
    for watch, steps in ((("C",), 2), (("A",), 3), (("B", "C"), 1)):
        out = run(m, limits=RunLimits(100), watch=watch)
        kind, trail = stepped_run(m, Configuration("A"), 100, watch)
        assert (out.kind, out.steps, out.config.state) == (WATCH, steps, trail[-1].state)
        assert out.watched_state == out.config.state
        assert out.config.tape.content_equal(trail[-1].tape)


def test_short_run_marks_only_the_entries_it_read():
    # four states cross a run of two 1s: A and B read 1, then C reads 0
    # and halts; C1 and D1 are never read
    m = ring("1111", 1, sym=1)
    profile = set()
    start = Configuration("A", Tape.from_blocks([2]))
    out = run(m, start.clone(), RunLimits(100), profile=profile)
    assert (out.kind, out.steps, out.config.state) == (HALTED, 2, "C")
    assert profile == {("A", 1), ("B", 1), ("C", 0)}
    assert profile == read_profile(m, *stepped_run(m, start.clone(), 100))


def test_budget_clamp_inside_erasing_run():
    eraser = Machine("erase", "A", {"A": (None, Action(0, 1, "A"))})
    tape = Tape.from_blocks([50])
    out = run(eraser, Configuration("A", tape), RunLimits(max_steps=20))
    assert out.kind == STEP_LIMIT and out.steps == 20
    assert out.config.tape.blocks() == [30]
    assert out.config.tape.head == 20


def test_glide_left_over_blank_consumes_budget():
    glider = Machine("glide", "A", {"A": (Action(0, -1, "A"), None)})
    out = run(glider, limits=RunLimits(max_steps=10**7))
    assert out.kind == STEP_LIMIT and out.steps == 10**7
    assert out.config.tape.head == -(10**7)
    assert out.config.tape.support_size() == 0


@pytest.mark.parametrize("move", [1, -1])
def test_three_state_glide_over_blank_in_closed_form(move):
    # one step at a time this takes minutes; the sweep credits it at once
    started = time.perf_counter()
    out = run(ring("000", move), limits=RunLimits(max_steps=10**8))
    assert time.perf_counter() - started < 5
    assert out.kind == STEP_LIMIT and out.steps == 10**8
    assert out.config.tape.head == move * 10**8
    assert out.config.state == "ABC"[10**8 % 3]
    assert out.config.tape.support_size() == 0


def test_a_watched_run_keeps_the_sweeps_that_enter_no_watched_state():
    # the glide above with an unreachable D watched, and a variant whose A
    # loops on itself with A watched: a self-loop enters nothing
    glide = ring("000", 1)
    unreachable = Machine("glide", "A", {**glide.states, "D": (Action(0, 1, "A"), None)})
    looping = Machine("glide", "A", {**glide.states, "A": (Action(0, 1, "A"), None)})
    for m, watch, state in ((unreachable, ("D",), "ABC"[10**8 % 3]), (looping, ("A",), "A")):
        started = time.perf_counter()
        out = run(m, limits=RunLimits(max_steps=10**8), watch=watch)
        assert time.perf_counter() - started < 5
        assert (out.kind, out.steps, out.config.state) == (STEP_LIMIT, 10**8, state)
        assert out.config.tape.head == 10**8
        assert out.config.tape.support_size() == 0


def test_erasure_empties_support():
    eraser = Machine(
        "erase", "A", {"A": (Action(0, 1, HALT), Action(0, 1, "A"))}
    )
    tape = Tape.from_blocks([5])
    out = run(eraser, Configuration("A", tape), RunLimits(max_steps=100))
    assert out.kind == HALTED
    assert out.config.tape.blocks() == []
    assert out.config.tape.support_size() == 0


def test_run_budget_is_cumulative_across_continuations():
    m = one_state(target="A")
    out = run(m, limits=RunLimits(max_steps=5))
    assert out.steps == 5
    out2 = run(m, out.config, RunLimits(max_steps=7))
    assert out2.steps == 7  # two more transitions, not seven


def test_memory_cap_is_high_water_in_both_loops():
    # write a 1, erase it, glide right, write again: the erased cell
    # still counts against the cap, scanned and single-stepped alike
    m = Machine(
        "hw",
        "A",
        {
            "A": (Action(1, 1, "B"), None),          # mark cell 0
            "B": (Action(0, -1, "C"), None),         # step right cell is 0 -> back
            "C": (None, Action(0, 1, "D")),          # erase the mark
            "D": (Action(0, 1, "D"), Action(1, 1, "D")),  # glide, writing 1s over 1s
        },
    )
    tape_a = Tape.from_blocks([3], start_cell=10)
    tape_b = tape_a.clone()
    limits = RunLimits(max_steps=100, max_support_cells=8)
    fast = run(m, Configuration("A", tape_a), limits)
    slow = run(m, Configuration("A", tape_b), limits, trace=lambda *a: None)
    assert fast.kind == slow.kind
    assert fast.steps == slow.steps
    assert fast.config.tape.head == slow.config.tape.head


# BB(2)'s champion: every entry but B1 (into HALT) is a plain transition
# into a state, A moving right on 0 and left on 1, so it widens its
# 1-extent both ways
BB2 = Machine("bb2", "A", {"A": (Action(1, 1, "B"), Action(1, -1, "B")),
                           "B": (Action(1, -1, "A"), Action(1, 1, HALT))})


def assert_matches_stepped(m, start, limits, watch=()):
    """`run` against `stepped_run`: every field, the extent and the profile."""
    profile = set()
    out = run(m, start.clone(), limits, watch=watch, profile=profile)
    kind, trail = stepped_run(m, start.clone(), limits.max_steps, watch,
                              cap=limits.max_support_cells)
    ref = trail[-1]
    assert (out.kind, out.steps, out.config.state) == (kind, ref.steps, ref.state)
    assert out.config.tape.head == ref.tape.head
    assert out.config.tape.content_equal(ref.tape)
    assert extent(out.config.tape) == extent(ref.tape)
    assert profile == read_profile(m, kind, trail)
    return out, profile


@pytest.mark.parametrize(
    "cap, steps, state, reads",
    [
        (1, 1, "B", {("A", 0), ("B", 0)}),  # B0 widens rightward
        (2, 3, "B", {("A", 0), ("A", 1), ("B", 0)}),  # B0 widens leftward
        (3, 4, "A", {("A", 0), ("A", 1), ("B", 0)}),  # A0 widens leftward
    ],
)
def test_plain_write_refused_by_the_cap(cap, steps, state, reads):
    # the refused write is not executed, the run stays in the state that
    # read, and the entry it read is in the profile
    out, profile = assert_matches_stepped(BB2, Configuration("A"), RunLimits(100, cap))
    assert (out.kind, out.steps, out.config.state) == (MEMORY_LIMIT, steps, state)
    assert out.config.tape.support_size() == cap
    assert profile == reads


@pytest.mark.parametrize("watch, steps, state", [(("B",), 1, "B"), (("A",), 2, "A"),
                                                  (("A", "B"), 1, "B")])
def test_plain_entry_into_a_watched_state_stops(watch, steps, state):
    out, _ = assert_matches_stepped(BB2, Configuration("A"), RunLimits(100), watch)
    assert (out.kind, out.steps, out.config.state, out.watched_state) == (WATCH, steps, state, state)


@pytest.mark.parametrize(
    "states, blocks, want",
    [
        # A0 and B0 are plain, A1 a self-loop: blank again, one cell to
        # the right, after three steps
        ({"A": (Action(1, 1, "B"), Action(0, 1, "A")),
          "B": (Action(0, -1, "A"), None)}, [], (CYCLE, 3, 0)),
        # A and B read 1 and 0 alike: a two-state sweep in both symbols
        ({"A": (Action(0, 1, "B"), Action(0, 1, "B")),
          "B": (Action(0, 1, "A"), Action(0, 1, "A"))}, [2], (CYCLE, 4, 2)),
    ],
)
def test_cycle_check_steps_sweep_entries_as_plain(states, blocks, want):
    m = Machine("walker", "A", states)
    cm = compile_machine(m)
    assert any(cm.sweep) or any(cm.loop)  # unobserved, some entries would sweep
    start = Configuration("A", Tape.from_blocks(blocks))
    out = run(m, start.clone(), RunLimits(50, cycle_check=True))
    kind, trail, first = checked_run(m, start.clone(), 50)
    ref = trail[-1]
    assert (out.kind, out.steps, out.first_visit) == (kind, ref.steps, first) == want
    assert out.config.state == ref.state
    assert out.config.tape.head == ref.tape.head
    assert cells(out.config.tape) == cells(ref.tape)


@pytest.mark.parametrize("edge", ["first", "last"])
@pytest.mark.parametrize("move", [1, -1])
@pytest.mark.parametrize("width", [1, 2])
def test_sweep_from_the_buffers_edge_cells(edge, move, width):
    # A1 and B1 erase and move on, a cycle of two states, over the run of
    # 1s under the head: `width` cells toward `move`, cut at the buffer's
    # edge.  With one cell the next cell holds 0, or lies past the
    # buffer, and the crossing is one transition; then A0 or B0 halts
    halt = Action(1, move, HALT)
    m = Machine("eraser", "A", {"A": (halt, Action(0, move, "B")),
                                "B": (halt, Action(0, move, "A"))})
    tape = Tape()
    size = len(tape.buf)
    head = -tape.org if edge == "first" else size - 1 - tape.org
    for cell in range(head, head + move * width, move):
        if 0 <= tape.org + cell < size:  # a write past the edge would grow the buffer
            tape.write(cell, 1)
    tape.head = head
    assert len(tape.buf) == size
    out, _ = assert_matches_stepped(m, Configuration("A", tape), RunLimits(100))
    assert out.kind == HALTED


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_runs_across_the_buffers_edges_match_single_step(data):
    # The loop checks the buffer's edge once per step horizon, not per
    # step: the head starts within a few cells of one edge of a blank
    # tape's buffer (or just past it), among a few written cells, and
    # every field of the run must match one step at a time
    m = data.draw(st.one_of(machines(), sweepers().map(lambda drawn: drawn[0])))
    tape = Tape()
    size = len(tape.buf)
    edge = data.draw(st.sampled_from([-tape.org, size - 1 - tape.org]))
    inward = 1 if edge < 0 else -1
    for i, sym in enumerate(data.draw(st.lists(st.integers(0, 1), max_size=8))):
        if sym:
            tape.write(edge + inward * i, 1)
    tape.head = edge + inward * data.draw(st.integers(-2, 5))
    assert len(tape.buf) == size
    limits = RunLimits(data.draw(st.integers(0, 300)),
                       data.draw(st.one_of(st.just(1 << 22), st.integers(1, 12))))
    assert_matches_stepped(m, Configuration(m.start, tape), limits)


@pytest.mark.parametrize(
    "cap, kind, steps, state, head, support",
    [
        (1 << 22, STEP_LIMIT, 10**7, "A", 608, (-2236, 2235)),
        (4200, MEMORY_LIMIT, 8_822_100, "A", 2100, (-2100, 2099)),
    ],
)
def test_a_rule_that_grows_the_buffer_mid_run(monkeypatch, cap, kind, steps, state, head, support):
    # A1 and B1 cross a block of 1s that A0 and B0 widen by a cell at
    # each end: one proven rule widens it past the 4096-cell buffer, and
    # the run goes on in the grown buffer to its budget or to the cap.
    # The rule matches again at a later long scan, where it fits no
    # application in the budget left and credits nothing
    grown = []
    apply = rules._apply

    def spy(rule, runs, tape, *args):
        size = len(tape.buf)
        done = apply(rule, runs, tape, *args)
        if done:
            grown.append(len(tape.buf) > size)
        return done

    monkeypatch.setattr(rules, "_apply", spy)
    m = Machine("widener", "A", {"A": (Action(1, -1, "B"), Action(1, 1, "A")),
                                 "B": (Action(1, 1, "A"), Action(1, -1, "B"))})
    profile = set()
    out = run(m, limits=RunLimits(10**7, cap), profile=profile)
    assert grown == [True]
    tape = out.config.tape
    assert (out.kind, out.steps, out.config.state, tape.head) == (kind, steps, state, head)
    assert tape.support() == extent(tape) == support
    assert tape.blocks() == [support[1] - support[0] + 1]
    assert profile == {("A", 0), ("A", 1), ("B", 0), ("B", 1)}
