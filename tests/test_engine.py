import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from beaverkit import engine
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
from beaverkit.machine import HALT, Action, Machine, compile_machine
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

    scanned = go()
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
    assert traced == [(c.steps, c.state, c.tape.head, c.tape.support()) for c in trail[1:]]


def cells(tape):
    lo, hi = tape.support()
    return lo, tape.snapshot(lo, hi + 1)


def assert_cycle_check_matches_reference(data):
    m = data.draw(st.one_of(machines(), machines(halts=False)))
    blocks = data.draw(st.lists(st.integers(1, 6), max_size=3))
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


@pytest.mark.parametrize("states, head, first_visit, period", [
    # A flips the middle cell and B walks back, so A and B each stand in
    # two configurations alike but for that cell: the repeat is of the
    # older of two keys that match
    ({"A": (Action(1, -1, "B"), Action(0, -1, "B")),
      "B": (Action(1, 1, "A"), Action(1, 1, "A"))}, 1, 0, 4),
    # B fills the middle cell once: the start and step 2 match, and the
    # repeat is of the newer
    ({"A": (Action(0, -1, "A"), Action(1, -1, "B")),
      "B": (Action(1, 1, "A"), Action(1, 1, "A"))}, 2, 2, 2),
])
def test_colliding_configurations_are_told_apart(states, head, first_visit, period):
    m = Machine("collide", "A", states)
    start = Configuration("A", Tape.from_blocks([1, 1], head=head))  # 1 0 1
    want = (CYCLE, first_visit + period, first_visit, period)
    for support_hash in (hash, lambda support: 0):
        with mock.patch.object(engine, "_support_hash", support_hash):
            out = run(m, start.clone(), RunLimits(max_steps=50, cycle_check=True))
        assert (out.kind, out.steps, out.first_visit, out.period) == want
    assert checked_run(m, start.clone(), 50)[::2] == (CYCLE, first_visit)


def test_cycle_store_keeps_no_tape_per_step():
    # no literal self-loop, one more cell of support every step and no
    # repeat: a copy of each tape would take about 32 MB
    spinner = Machine("spinner", "A", {"A": (Action(1, 1, "B"), Action(1, 1, "B")),
                                       "B": (Action(1, 1, "A"), Action(1, 1, "A"))})
    tracemalloc.start()
    try:
        out = run(spinner, limits=RunLimits(max_steps=8000, cycle_check=True))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.kind == STEP_LIMIT and out.steps == 8000
    assert peak < 4 << 20


def test_a_machine_compiles_once(monkeypatch):
    calls = []
    monkeypatch.setattr(engine, "compile_machine", lambda m: calls.append(m) or compile_machine(m))
    m, twin = one_state(target="A"), one_state(target="A")
    for limits in (RunLimits(max_steps=5), RunLimits(max_steps=9, cycle_check=True)):
        assert run(m, limits=limits).steps == limits.max_steps
    assert calls == [m]
    assert m == twin and repr(m) == repr(twin)


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
