"""Proven shuttle rules against runs that step one transition at a time.

A run with a `trace` never scans, so it never applies a rule; every test
here compares a plain run with a traced one on kind, steps, state, head,
tape, the 1-extent `_lo1/_hi1` and the read profile.  A compiled table
keeps the rules and refusals of every run on it, so runs are compared on
a table that earlier runs left warm, too.
"""

import random
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beaverkit import harness, oracles, rules
from beaverkit.engine import MEMORY_LIMIT, STEP_LIMIT, WATCH, RunLimits, run
from beaverkit.machine import Action, Machine, compile_machine
from beaverkit.tape import Configuration, Tape


def untraced(*args, **kw):
    return run(*args, **kw)


def traced(*args, **kw):
    return run(*args, trace=lambda *a: None, **kw)


def result(out, profile):
    tape = out.config.tape
    lo, hi = tape.support()
    cells = bytes(tape.buf[tape.org + lo : tape.org + hi + 1]) if hi >= lo else b""
    return (out.kind, out.steps, out.config.state, tape.head, lo, cells,
            tape._lo1, tape._hi1, out.watched_state, profile)


def both(machine, start, limits, watch=()):
    """(rules on, rules off) results of one run from `start`, profiled."""
    out = []
    for go in (untraced, traced):
        profile = set()
        o = go(machine, start(), limits, watch=watch, profile=profile)
        out.append(result(o, profile))
    return out


class Spy:
    """Counts the steps each rule application credited."""

    def __init__(self):
        self.credited = []

    def __enter__(self):
        real = rules._apply

        def spy(rule, runs, tape, budget, cap, reads):
            steps = real(rule, runs, tape, budget, cap, reads)
            if steps:
                self.credited.append((budget, steps, tape._lo1, tape._hi1))
            return steps

        self.patch = mock.patch.object(rules, "_apply", spy)
        self.patch.start()
        return self

    def __exit__(self, *exc):
        self.patch.stop()


# Moves block A, on the left, onto the right end of block B one cell at a
# time: S scans B rightward and appends a 1, L scans B back, M scans the
# gap and erases A's last cell, G scans the gap into B.  Each round A
# shrinks by one cell and the gap and B grow by one.  Once A is gone, M
# glides left over the blank.
TRANSFER = Machine("transfer", "S", {
    "S": (Action(1, -1, "L"), Action(1, 1, "S")),
    "L": (Action(0, -1, "M"), Action(1, -1, "L")),
    "M": (Action(0, -1, "M"), Action(0, 1, "G")),
    "G": (Action(0, 1, "G"), Action(1, 1, "S")),
})


def transfer(a, b=70):
    """The start with A = a cells, B = b cells, S on B's second cell."""
    def start():
        tape = Tape.from_blocks([a, b])
        tape.head = a + 2
        return Configuration("S", tape)
    return start


def fresh():
    """TRANSFER with a table of its own, which keeps no proofs yet."""
    return Machine("transfer", "S", TRANSFER.states)


def first_rule(start, limits=RunLimits(max_steps=10**6), watch=()):
    """(steps before, steps credited, 1-extent after) of the first rule of
    a run on a table that keeps no proofs."""
    with Spy() as spy:
        untraced(fresh(), start(), limits, watch=watch)
    budget, steps, lo, hi = spy.credited[0]
    return limits.max_steps - budget, steps, (lo, hi)


def test_a_rule_credits_the_transfer_loop():
    with Spy() as spy:
        on, off = both(TRANSFER, transfer(100), RunLimits(max_steps=40_000))
    assert on == off
    assert len(spy.credited) == 1 and spy.credited[0][1] > 30_000


@pytest.mark.parametrize("a", range(16, 40))
def test_shrinking_block_runs_out(a):
    # the rule stops while A still covers its proof's c, and the machine
    # steps the rest until A is gone; short loops are not worth a proof
    with Spy() as spy:
        on, off = both(TRANSFER, transfer(a), RunLimits(max_steps=50_000))
    assert on == off
    assert on[0] == STEP_LIMIT and on[4:6] == (a + 1, b"\x01" * (a + 71))
    if a < rules.MIN_REPEATS:
        assert not spy.credited
    if a >= 30:
        assert spy.credited


@pytest.mark.parametrize("delta", [-1, 0, 1])
def test_budget_at_the_rules_step_total(delta):
    # measured and tested on tables that keep no proofs: a warm table
    # applies the rule at its first long scan
    before, steps, _ = first_rule(transfer(100))
    on, off = both(fresh(), transfer(100), RunLimits(max_steps=before + steps + delta))
    assert on == off and on[0] == STEP_LIMIT


@pytest.mark.parametrize("under", [0, 1])
def test_cap_at_the_extent_after_the_rule(under):
    _, _, (lo, hi) = first_rule(transfer(100))
    limits = RunLimits(max_steps=10**6, max_support_cells=hi - lo + 1 - under)
    on, off = both(fresh(), transfer(100), limits)
    assert on == off and on[0] == MEMORY_LIMIT


def gapped(a, gap, b):
    """TRANSFER some rounds in: A = a cells, then `gap` 0s and B = b
    cells, S on B's second cell."""
    def start():
        tape = Tape.from_symbols([1] * a + [0] * gap + [1] * b)
        tape.head = a + gap + 1
        return Configuration("S", tape)
    return start


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_runs_on_a_warm_table_match_single_steps(data):
    # the first run is long enough to prove a rule, most often; the second
    # starts with the rules and refusals it left on the table, from another
    # tape, with another budget and cap.  A watched run has a table of its
    # own: a rule through G would cross the watch
    machine = fresh()
    # (the least A, the budgets); the second run's lean to budgets that fit a rule
    runs = ((30, st.integers(20_000, 60_000)), (1, st.integers(0, 60_000) | st.integers(20_000, 60_000)))
    for least, budgets in runs:
        start = gapped(*(data.draw(st.integers(n, 150)) for n in (least, 1, 1)))
        limits = RunLimits(data.draw(budgets), data.draw(st.just(1 << 22) | st.integers(1, 2000)))
        on, off = both(machine, start, limits, data.draw(st.sampled_from([(), (), ("G",)])))
        assert on == off


def test_a_warm_store_reports_the_shipped_suites_as_expected(data_dir):
    # two passes on one resolver: the second runs on the tables the first
    # left warm, and both report the benchmark's known answers byte for byte
    expected = Path(__file__).resolve().parents[1] / "bench" / "expected"
    resolver = harness.MachineResolver(data_dir / "scenarios")
    suites = ("fermat_sections", "fermat_composed", "brocard")
    for _ in range(2):
        for suite in suites:
            scenarios = harness.load_scenarios(data_dir / "scenarios" / f"{suite}.scn")
            reports, summary = harness.run_suite(scenarios, resolver)
            lines = [r.line(deterministic=True) for r in reports]
            lines.append(f"{summary['passed']}/{summary['total']} passed")
            assert "\n".join(lines) + "\n" == (expected / f"{suite}.txt").read_text()


def fourth_round():
    """TRANSFER at the start of its fourth round."""
    config = transfer(100)()
    for _ in range(3):
        config = traced(TRANSFER, config, RunLimits(max_steps=1000), watch=("S",)).config
    return config


def test_a_cycle_through_a_watched_state_is_refused():
    # a run stops at its first entry into a watched state, so the prover
    # is asked directly, at the start of the fourth round
    config = fourth_round()
    for watch, credited in (({"G"}, False), (set(), True)):
        cm = compile_machine(TRANSFER, watch)
        state = cm.index["S"]
        tape = config.tape.clone()
        prover = rules.Prover(cm)
        steps = prover.apply(tape, 2 * state + 1, 10**6, 1 << 22, None)
        assert bool(steps) == credited
        assert tape.content_equal(config.tape) != credited


def test_a_run_retries_an_entry_its_table_saw_fail_many_times():
    # a cycle through the watched G is refused at every search.  The table
    # counts failures up to `_FAILS` only, so the twentieth run on it
    # searches the entry within MIN_REPEATS triggers, and doubles its wait
    # from there: once more within the next 2 * MIN_REPEATS
    config = fourth_round()
    cm = compile_machine(TRANSFER, {"G"})
    j = 2 * cm.index["S"] + 1
    for _ in range(20):
        prover = rules.Prover(cm)
        searched = []
        for trigger in range(3 * rules.MIN_REPEATS + 2):
            if prover.due(j):
                searched.append(trigger)
                assert prover.search
                assert not prover.apply(config.tape.clone(), j, 10**6, 1 << 22, None)
    assert searched == [rules.MIN_REPEATS, 3 * rules.MIN_REPEATS]
    assert cm.proofs[2][j] == rules._FAILS


def searched(machine, config):
    """(prover, entry, search) of the cycle that starts at `config`,
    where the head reads a cell it moves off to the right."""
    cm = compile_machine(machine)
    j = 2 * cm.index[config.state] + config.tape.read(config.tape.head)
    search = rules._Search(cm, rules._reader(config.tape, 1), j)
    assert search.moves and cm.entry[j][1] == 1
    return rules.Prover(cm), j, search


def test_a_proof_refuses_a_run_that_empties_for_some_n_only():
    # M erases one cell of block A per round.  With c = 1, A is n + 1
    # cells, which M empties at n = 0 only: the rule would not hold
    prover, *at, search = searched(TRANSFER, fourth_round())
    assert search.singles + 1 > 2
    assert prover._proof(*at, search, search.singles + 1) is not None
    assert prover._proof(*at, search, 2) is not None
    assert prover._proof(*at, search, 1) is None


def test_a_proof_refuses_a_cycle_that_does_not_close_in_the_searched_moves():
    # the pass stops where the start shape recurs, one move short
    prover, *at, search = searched(TRANSFER, fourth_round())
    search.moves += 1
    assert prover._proof(*at, search, search.singles + 1) is None


def test_a_proof_refuses_runs_that_trade_their_variable_parts():
    # 1^a 0 1^b becomes 1^(a+b) 0 1 in one cycle: A and B scan right and
    # fill the gap, B writes a 1 past the end, C erases the 1 before it
    # and D scans back.  The start shape recurs and the head's offset is
    # fixed, but a and b now share one run
    merger = Machine("merger", "A", {
        "A": (Action(1, 1, "B"), Action(1, 1, "A")),
        "B": (Action(1, -1, "C"), Action(1, 1, "B")),
        "C": (None, Action(0, -1, "D")),
        "D": (Action(0, 1, "A"), Action(1, -1, "D")),
    })
    prover, *at, search = searched(merger, Configuration("A", Tape.from_blocks([100, 5])))
    assert prover._proof(*at, search, search.singles + 1) is None


def test_a_rule_reads_the_blank_between_the_head_and_the_1_extent():
    # A writes 1s leftward and B erases them rightward; the rule is tried
    # with the head two cells right of the 1-extent, so the first run it
    # reads on the left is the two 0s between them, not the blank
    gap = Machine("gap", "A", {
        "A": (Action(1, -1, "A"), Action(0, 1, "B")),
        "B": (Action(0, 1, "A"), Action(0, 1, "B")),
    })

    def start():
        return Configuration("A", Tape.from_blocks([126], head=202))

    with Spy() as spy:
        on, off = both(gap, start, RunLimits(max_steps=10**5))
    assert on == off and len(spy.credited) == 1


def unary(n):
    def start(entry):
        return lambda: Configuration(entry, oracles.encode_tape(oracles.UnaryLayout((n,), 0, "left")))
    return start


def sections(resolver):
    """(machine, start) of the shipped sections the rules serve."""
    rng = random.Random(14)
    t1, t2, t3 = (resolver(f"../fermat.manifest#{s}") for s in ("t1", "t2", "t3"))
    brocard = resolver("../brocard.manifest")
    yield t1, lambda: Configuration("25")
    yield brocard, lambda: Configuration(brocard.start)
    for n in sorted(rng.sample(range(1, 201), 24)):
        yield t2, unary(n)("0")
        yield t3, unary(n)("1")


def test_rules_match_single_steps_on_the_shipped_sections(resolver):
    rng = random.Random(1490)
    through_rules = runs = 0
    for machine, start in sections(resolver):
        for _ in range(2):
            whole = untraced(machine, start(), RunLimits(max_steps=100_000))
            budget = rng.randint(1, whole.steps)
            t = untraced(machine, start(), RunLimits(max_steps=budget)).config.tape
            cap = max(1, t._hi1 - t._lo1 + 1 - rng.randint(0, 40)) if t._hi1 >= t._lo1 else 1
            watch = tuple(rng.sample(sorted(machine.states), rng.choice([0, 0, 1])))
            with Spy() as spy:
                on, off = both(machine, start, RunLimits(budget, cap), watch)
            assert on == off, (machine.name, budget, cap, watch)
            runs += 1
            through_rules += bool(spy.credited)
    assert runs == 100 and through_rules >= 50


# Steps at each entry into the Brocard guard b.Mf from a blank tape, as the
# machine reaches them one transition at a time; the first seven took about
# 5 s before the rules.
GUARD_STEPS = [54, 600, 12594, 447290, 22238882, 1444879772, 119315309536, 12036688579090]


def test_brocard_reaches_its_n10_guard(brocard_ref):
    config, steps = None, []
    for _ in GUARD_STEPS:
        out = run(brocard_ref.machine, config, RunLimits(max_steps=10**14), watch=("b.Mf",))
        assert out.kind == WATCH
        config = out.config
        steps.append(out.steps)
    assert steps == GUARD_STEPS
    assert config.tape.blocks() == [10, 362880, 3265920]  # n = 10, 9! and 10! - 9!
