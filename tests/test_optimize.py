import dataclasses
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from beaverkit import engine, harness
from beaverkit.engine import HALTED, RunLimits
from beaverkit.harness import OracleExpect, OutcomeExpect, Scenario, TransferExpect, load_scenarios
from beaverkit.machine import HALT, Action, Machine, compile_machine, state_count
from beaverkit.optimize import (
    MergePair,
    MergePlan,
    MergeVerdict,
    ScenarioComparison,
    _changed_entries,
    apply_merges,
    merge_alias,
    profile_reads,
    propose_merges,
    verify_merge,
)
from beaverkit.tape import Configuration
from merging import compared_merge, retargeted_changes
from stepping import stepped_run


def scenario(name="s", entry=None, blocks=None, steps=1000, expect=None):
    return Scenario(
        name,
        "unused",
        entry=entry,
        tape_blocks=blocks,
        head=("block", 0, "left") if blocks else ("abs", 0),
        limits=RunLimits(max_steps=steps),
        expect=expect or OutcomeExpect("nothalt"),
    )


def test_profile_right_mover_sees_only_zero():
    m = Machine("mover", "A", {"A": (Action(0, 1, "A"), None)})
    scn = scenario(steps=50)
    profile = profile_reads(m, [scn])
    assert profile.reads("A") == {0}
    outcome, reads = profile.lookup(m, scn)
    assert outcome.steps == 50 and reads == {("A", 0)}


def test_profile_empty_suite_is_empty():
    m = Machine("mover", "A", {"A": (Action(0, 1, "A"), None)})
    profile = profile_reads(m, [])
    assert profile.observed == {}


def test_profile_squarer_state_8_reads_only_one(fermat_t2):
    scns = [
        scenario(f"x{x}", entry="0", blocks=(x,), steps=10**6) for x in range(1, 13)
    ]
    profile = profile_reads(fermat_t2, scns)
    assert profile.reads("8") == {1}


def two_state_candidates():
    return Machine(
        "pairable",
        "Z",
        {
            "Z": (Action(1, 1, "O"), None),  # defined only on read 0
            "O": (None, Action(0, 1, "Z")),  # defined only on read 1
        },
    )


def test_propose_structural_pair_excludes_start_without_profile():
    m = two_state_candidates()
    plan = propose_merges(m)
    # Z is the start: without profile evidence it must not participate
    assert plan.pairs == []
    assert "Z" not in merge_alias(plan)


def start_then_pair():
    return Machine(
        "pairable",
        "S",
        {
            "S": (Action(0, 1, "Z"), Action(0, 1, "Z")),
            "Z": (Action(1, 1, "O"), None),
            "O": (None, Action(0, 1, "Z")),
        },
    )


def test_propose_structural_pair_nonstart():
    m = start_then_pair()
    plan = propose_merges(m)
    assert [(p.zero_state, p.one_state) for p in plan.pairs] == [("Z", "O")]
    assert plan.pairs[0].merged_name == "Z+O"
    assert plan.pairs[0].dropped == ()


def test_apply_merges_two_state_example():
    m = Machine(
        "pairable",
        "S",
        {
            "S": (Action(0, 1, "Z"), Action(0, 1, "O")),
            "Z": (Action(1, 1, "O"), None),
            "O": (None, Action(0, 1, "Z")),
        },
    )
    plan = propose_merges(m)
    merged = apply_merges(m, plan)
    assert state_count(merged) == state_count(m) - len(plan.pairs) == 2
    pair = merged.states["Z+O"]
    assert pair[0] == Action(1, 1, "Z+O")  # zero side, retargeted at itself
    assert pair[1] == Action(0, 1, "Z+O")
    assert merged.states["S"][0].target == "Z+O"


def test_apply_empty_plan_is_identity(fermat_t2):
    merged = apply_merges(fermat_t2, MergePlan())
    assert dict(merged.states) == dict(fermat_t2.states)
    assert state_count(merged) == state_count(fermat_t2)


def test_apply_rejects_double_membership():
    m = Machine(
        "m",
        "S",
        {
            "S": (Action(0, 1, "Z"), Action(0, 1, "Z")),
            "Z": (Action(1, 1, "S"), None),
            "O": (None, Action(0, 1, "S")),
            "P": (None, Action(1, 1, "S")),
        },
    )
    plan = MergePlan(pairs=[MergePair("Z", "O", "a"), MergePair("Z", "P", "b")])
    with pytest.raises(ValueError, match="more than one pair"):
        apply_merges(m, plan)


def one_sided(zero, one, other):
    """S, the states of `zero` (read-0 only) and `one` (read-1 only) in
    table order, and the two-sided states of `other`."""
    states = {"S": (Action(0, 1, zero[0]), Action(0, 1, one[0]))}
    for name in zero:
        states[name] = (Action(1, 1, "S"), None)
    for name in one:
        states[name] = (None, Action(0, -1, "S"))
    for name in other:
        states[name] = (Action(1, -1, "S"), Action(1, 1, "S"))
    return Machine("m", "S", states)


def test_a_merge_is_not_named_after_a_state():
    m = one_sided(["A"], ["B"], ["A+B"])
    plan = propose_merges(m)
    assert [p.merged_name for p in plan.pairs] == ["A+B_2"]
    merged = apply_merges(m, plan)
    assert state_count(merged) == state_count(m) - 1 == 3
    assert merged.states["A+B_2"] == (m.states["A"][0], m.states["B"][1])
    assert merged.states["A+B"] == m.states["A+B"]
    for taken in ("A+B", "S", HALT):
        with pytest.raises(ValueError, match="is taken"):
            apply_merges(m, MergePlan(pairs=[MergePair("A", "B", taken)]))


def test_two_merges_get_two_names():
    # (A, B+C) and (A+B, C) would both be A+B+C
    m = one_sided(["A", "A+B"], ["B+C", "C"], [])
    plan = propose_merges(m)
    assert [p.merged_name for p in plan.pairs] == ["A+B+C", "A+B+C_2"]
    merged = apply_merges(m, plan)
    assert state_count(merged) == state_count(m) - 2 == 3
    shared = [MergePair("A", "B+C", "X"), MergePair("A+B", "C", "X")]
    with pytest.raises(ValueError, match="is taken"):
        apply_merges(m, MergePlan(pairs=shared))


def test_apply_rejects_two_sided_without_drop_record():
    m = Machine(
        "m",
        "S",
        {
            "S": (Action(0, 1, "Z"), Action(0, 1, "Z")),
            "Z": (Action(1, 1, "S"), Action(1, 1, "S")),
            "O": (None, Action(0, 1, "S")),
        },
    )
    plan = MergePlan(pairs=[MergePair("Z", "O", "Z+O")])
    with pytest.raises(ValueError, match="not one-sided"):
        apply_merges(m, plan)


def test_apply_rejects_missing_needed_action():
    m = two_state_candidates()
    plan = MergePlan(pairs=[MergePair("O", "Z", "x")])  # sides swapped
    with pytest.raises(ValueError, match="read-0"):
        apply_merges(m, plan)


def test_count_arithmetic(fermat_composed):
    scns = [scenario("blank", steps=10**5)]
    profile = profile_reads(fermat_composed.machine, scns)
    plan = propose_merges(fermat_composed.machine, profile)
    merged = apply_merges(fermat_composed.machine, plan)
    assert state_count(merged) == state_count(fermat_composed.machine) - len(plan.pairs)


def test_plan_serializes_merges_drops_and_residuals():
    plan = MergePlan(
        pairs=[MergePair("a", "b", "a+b", dropped=("b on 0",)), MergePair("c", "d", "c+d")],
        residual_zero=["e"],
        residual_one=["f"],
    )
    assert plan.serialize() == (
        "merge a b as a+b\n# drops b on 0\nmerge c d as c+d\n"
        "# residual zero-only e\n# residual one-only f\n"
    )
    assert MergePlan().serialize() == ""


def test_verify_merge_machine_against_itself(fermat_t2):
    scns = [
        scenario(f"x{x}", entry="0", blocks=(x,), steps=10**6,
                 expect=TransferExpect("NM")) for x in (1, 2, 3)
    ]
    verdict = verify_merge(fermat_t2, fermat_t2, scns)
    assert verdict.equivalent


def masked_read_counterexample():
    """Brute-force a 3-state machine where a profile-overlapping merge
    diverges: the pair looks one-sided on a short run but the longer run
    exercises a masked read."""
    names = ["A", "B", "C"]
    moves = (-1, 1)
    for bits in itertools.product(range(2), repeat=6):
        w = bits
        for t_b0, t_c1 in itertools.product(names + [HALT], repeat=2):
            m = Machine(
                "cand",
                "A",
                {
                    "A": (Action(w[0], 1, "B"), Action(w[1], 1, "C")),
                    "B": (Action(w[2], 1, t_b0), Action(w[3], -1, "A")),
                    "C": (Action(w[4], -1, "A"), Action(w[5], 1, t_c1)),
                },
            )
            short = scenario("short", steps=2)
            long = scenario("long", steps=40)
            profile = profile_reads(m, [short])
            if profile.reads("B") == {0} and profile.reads("C") in ({1}, set()):
                plan = MergePlan(pairs=[MergePair("B", "C", "B+C", ("B read-1", "C read-0"))])
                merged = apply_merges(m, plan)
                verdict = verify_merge(m, merged, [long], plan)
                if not verdict.equivalent:
                    return m, plan, verdict
    return None


def test_adversarial_merge_reports_divergence():
    found = masked_read_counterexample()
    assert found is not None, "no 3-state counterexample found"
    _, _, verdict = found
    bad = [c for c in verdict.comparisons if not c.equivalent]
    assert bad and bad[0].first_divergence is not None
    assert bad[0].first_divergence >= 1


def test_a_divergent_verdict_lists_each_divergent_scenario():
    same = ScenarioComparison("same", True, HALTED, HALTED, 5, 5)
    late = ScenarioComparison("late", False, HALTED, HALTED, 9, 7, 7, "steps differ: 9 vs 7")
    start = ScenarioComparison("start", False, HALTED, "none", 3, 0, 0, "starts differ: A vs B")
    assert str(MergeVerdict(False, [same, late, start])) == (
        "divergent on 2 of 3 scenarios:\n"
        "  late: steps differ: 9 vs 7 (first divergence step 7)\n"
        "  start: starts differ: A vs B (first divergence step 0)"
    )


def test_fermat_plan_verifies_on_full_suite(data_dir, fermat_composed):
    scns = load_scenarios(data_dir / "scenarios" / "fermat_composed.scn")
    machine = fermat_composed.machine
    profile = profile_reads(machine, scns)
    plan = propose_merges(machine, profile)
    merged = apply_merges(machine, plan)
    assert state_count(merged) == 92 - len(plan.pairs) <= 80
    verdict = verify_merge(machine, merged, scns, plan)
    assert verdict.equivalent, str(verdict)


def test_brocard_plan_reaches_target(data_dir, brocard_ref):
    scns = load_scenarios(data_dir / "scenarios" / "brocard.scn")
    machine = brocard_ref.machine
    profile = profile_reads(machine, scns)
    plan = propose_merges(machine, profile)
    merged = apply_merges(machine, plan)
    assert state_count(merged) <= 43
    verdict = verify_merge(machine, merged, scns, plan)
    assert verdict.equivalent, str(verdict)


BROCARD_CHEAP = {
    "init_window_after_5_steps", "factorial_3_plus_1_window",
    "factorial_stage_3", "factorial_stage_4", "factorial_stage_5",
}


def test_brocard_divergences_located(monkeypatch, data_dir, brocard_ref):
    """A plan profiled on five cheap scenarios, verified on the whole suite.

    Its twelve divergent scenarios share one probe, compiled once.
    """
    scns = load_scenarios(data_dir / "scenarios" / "brocard.scn")
    machine = brocard_ref.machine
    profile = profile_reads(machine, [s for s in scns if s.name in BROCARD_CHEAP])
    plan = propose_merges(machine, profile)
    merged = apply_merges(machine, plan)
    compiled = []
    monkeypatch.setattr(engine, "compile_machine",
                        lambda m, *watch: compiled.append(m) or compile_machine(m, *watch))
    verdict = verify_merge(machine, merged, scns, plan)
    probes = [m for m in compiled if m is not machine and m is not merged]
    assert len(probes) == 1 and probes[0].name == machine.name
    got = {c.name: c.first_divergence for c in verdict.comparisons if not c.equivalent}
    assert got == {
        "factorial_stage_5": 603,
        "factorial_stage_6": 12594,
        "factorial_stage_7": 12597,
        "square_check_halts_25": 26,
        "square_check_halts_49": 50,
        "square_check_halts_121": 122,
        "square_check_returns_26": 27,
        "square_check_returns_50": 51,
        "square_check_returns_122": 123,
        "square_check_oracle_36": 37,
        "square_check_oracle_35": 36,
        "no_halt_within_budget": 12598,
    }


@pytest.mark.parametrize("suite, profiled", [
    ("fermat_composed", None),
    ("brocard", None),
    pytest.param("brocard", BROCARD_CHEAP, id="brocard-cheap"),
])
def test_reused_runs_give_the_verdict_of_fresh_ones(data_dir, fermat_composed, brocard_ref,
                                                    suite, profiled):
    machine = (fermat_composed if suite == "fermat_composed" else brocard_ref).machine
    scns = load_scenarios(data_dir / "scenarios" / f"{suite}.scn")
    plan = propose_merges(
        machine, profile_reads(machine, [s for s in scns if profiled is None or s.name in profiled])
    )
    merged = apply_merges(machine, plan)
    reused = verify_merge(machine, merged, scns, plan)
    fresh = verify_merge(machine, merged, scns, dataclasses.replace(plan, profile=None))
    assert reused.comparisons == fresh.comparisons == compared_merge(
        machine, merged, scns, plan).comparisons


def counting_executions(monkeypatch):
    calls = []
    execute = harness.execute_scenario

    def counted(scn, machine, **kw):
        calls.append(scn.name)
        return execute(scn, machine, **kw)

    monkeypatch.setattr(harness, "execute_scenario", counted)
    return calls


def test_profile_and_verify_run_the_suite_once(monkeypatch, data_dir, brocard_ref):
    scns = [s for s in load_scenarios(data_dir / "scenarios" / "brocard.scn")
            if s.name in BROCARD_CHEAP]
    machine = brocard_ref.machine
    calls = counting_executions(monkeypatch)
    plan = propose_merges(machine, profile_reads(machine, scns))
    merged = apply_merges(machine, plan)
    verdict = verify_merge(machine, merged, scns, plan)
    # factorial_stage_5 reads no changed entry, but it reads in b.Pf, the
    # merge partner of its watch b.Mf, so the merged machine runs there,
    # and only there;
    # a divergence is located by a probe run, not by another execution
    assert len(plan.pairs) > 0 and not verdict.equivalent
    assert len(calls) == len(scns) + 1 == 6 and calls[-1] == "factorial_stage_5"
    (bad,) = [c for c in verdict.comparisons if not c.equivalent]
    assert (bad.name, bad.first_divergence) == ("factorial_stage_5", 603)
    assert verdict.comparisons == compared_merge(machine, merged, scns, plan).comparisons


def halts_on_a_one():
    m = Machine("seek", "A", {"A": (Action(0, 1, "A"), None)})
    scn = scenario("seek", steps=50)
    return m, scn, propose_merges(m, profile_reads(m, [scn]))


def test_a_plan_profiled_on_another_machine_object_is_rerun(monkeypatch):
    m, scn, plan = halts_on_a_one()
    twin = dataclasses.replace(m)
    assert twin == m and twin is not m
    calls = counting_executions(monkeypatch)
    verdict = verify_merge(twin, apply_merges(twin, plan), [scn], plan)
    assert verdict.equivalent and len(calls) == 1
    calls.clear()
    assert verify_merge(m, apply_merges(m, plan), [scn], plan).equivalent
    assert len(calls) == 0


@pytest.mark.parametrize("change, kind, steps", [
    ({"limits": RunLimits(max_steps=60)}, "step_limit", 60),
    ({"tape_window": (5, (1,))}, "halted", 5),
])
def test_a_changed_scenario_of_the_same_name_is_rerun(monkeypatch, change, kind, steps):
    m, scn, plan = halts_on_a_one()
    changed = dataclasses.replace(scn, **change)
    assert changed.name == scn.name and changed != scn
    calls = counting_executions(monkeypatch)
    verdict = verify_merge(m, apply_merges(m, plan), [changed], plan)
    (comp,) = verdict.comparisons
    assert len(calls) == 1 and verdict.equivalent
    assert (comp.kind_a, comp.steps_a) == (comp.kind_b, comp.steps_b) == (kind, steps)


def test_a_scenario_edited_in_place_is_rerun(monkeypatch):
    m, scn, plan = halts_on_a_one()
    scn.limits = RunLimits(max_steps=60)
    calls = counting_executions(monkeypatch)
    (comp,) = verify_merge(m, apply_merges(m, plan), [scn], plan).comparisons
    assert len(calls) == 1 and comp.equivalent and comp.steps_a == 60


def enters_the_watch_partner():
    """A0 enters D, whose merged state C+D is the watch of transfer C."""
    m = Machine("partner", "A", {
        "A": (Action(1, 1, "D"), Action(1, 1, "D")),
        "C": (Action(1, 1, "A"), None),
        "D": (None, Action(1, 1, "A")),
    })
    scn = scenario("budget_1", steps=1, expect=TransferExpect("C"))
    plan = MergePlan([MergePair("C", "D", "C+D")], profile=profile_reads(m, [scn]))
    return m, apply_merges(m, plan), scn, plan


def enters_a_watch_of_the_same_class():
    """a.Kf0 enters b.Kf, a watch; merged, the two are one state."""
    m = Machine("two-kf", "A", {
        "A": (Action(1, 1, "a.Kf"), None),
        "a.Kf": (Action(1, 1, "b.Kf"), None),
        "b.Kf": (None, Action(1, 1, "a.Kf")),
    })
    scn = scenario("kf", entry="a.Kf", steps=10, expect=OracleExpect("brocard", (5,)))
    plan = MergePlan([MergePair("a.Kf", "b.Kf", "a.Kf+b.Kf")])
    return m, apply_merges(m, plan), scn, plan


def repeats_sooner_when_merged():
    """B0 is A0's action, so A+B repeats the blank configuration a step early."""
    m = Machine("repeat", "A", {
        "A": (Action(0, 1, "B"), None),
        "B": (Action(0, 1, "B"), Action(1, 1, "A")),
    })
    scn = dataclasses.replace(scenario("cycle"), limits=RunLimits(10, cycle_check=True))
    plan = MergePlan([MergePair("A", "B", "A+B", ("B read-0",))])
    return m, apply_merges(m, plan), scn, plan


def defines_the_exit_of_the_original():
    """The original halts entering Q; the other machine defines Q."""
    m = Machine("exit", "A", {"A": (Action(1, 1, "Q"), None)})
    other = Machine("other", "A", {**m.states, "Q": (Action(1, 1, "Q"), None)})
    return m, other, scenario("exit", steps=10), None


@pytest.mark.parametrize("case, kinds", [
    (enters_the_watch_partner, ("step_limit", "watch")),
    (enters_a_watch_of_the_same_class, ("watch", "step_limit")),
    (repeats_sooner_when_merged, ("cycle", "cycle")),
    (defines_the_exit_of_the_original, ("halted", "step_limit")),
])
def test_a_run_reading_no_changed_entry_can_still_diverge(monkeypatch, case, kinds):
    m, merged, scn, plan = case()
    calls = counting_executions(monkeypatch)
    verdict = verify_merge(m, merged, [scn], plan)
    (comp,) = verdict.comparisons
    # no entry the run read changed, yet the merged machine runs
    assert len(calls) == 1 + (plan is None or plan.profile is None)
    assert not comp.equivalent and (comp.kind_a, comp.kind_b) == kinds
    assert verdict.comparisons == compared_merge(m, merged, [scn], plan).comparisons


def test_runs_that_start_apart_diverge_at_step_0():
    m = Machine("m", "A", {"A": (Action(1, 1, "B"), None), "B": (Action(0, 1, HALT), None)})
    restarted = dataclasses.replace(m, start="B")
    scns = [scenario("blank")]
    verdict = verify_merge(m, restarted, scns)
    (comp,) = verdict.comparisons
    assert (comp.first_divergence, comp.detail) == (0, "starts differ: A vs B")
    assert verdict.comparisons == compared_merge(m, restarted, scns).comparisons


def test_an_entry_the_merged_machine_lacks_diverges_at_step_0():
    m = start_then_pair()
    plan = propose_merges(m)
    merged = apply_merges(m, plan)
    scns = [scenario("from-z", entry="Z", steps=10)]
    # without the plan, entry Z is not translated to Z+O: the merged
    # machine has no state to start in, and does not run
    verdict = verify_merge(m, merged, scns)
    (comp,) = verdict.comparisons
    assert not verdict.equivalent
    assert (comp.kind_b, comp.steps_b, comp.first_divergence, comp.detail) == (
        "none", 0, 0, "entry Z is not a state of pairable (merged)")
    assert verdict.comparisons == compared_merge(m, merged, scns).comparisons
    # with it, Z+O runs from the entry
    (comp,) = verify_merge(m, merged, scns, plan).comparisons
    assert comp.kind_b != "none" and comp.first_divergence != 0
    assert [comp] == compared_merge(m, merged, scns, plan).comparisons


def lockstep_divergence(original, merged, scn, alias):
    """Reference: step both machines one transition at a time.

    Each run stops as execute_scenario stops it: on its budget, or on
    the k-th entry into a transfer state.  Returns the first step at
    which the stops, the halts or the configurations differ, or None.
    """
    exp = scn.expect
    need = exp.occurrence if isinstance(exp, TransferExpect) else 0
    watch = (exp.state,) if need else ()
    entry = scn.entry or original.start
    limit = scn.limits.max_steps
    kind_a, trail_a = stepped_run(
        original, Configuration(entry, scn.build_tape()), limit, watch, need
    )
    kind_b, trail_b = stepped_run(
        merged, Configuration(alias.get(entry, entry), scn.build_tape()), limit,
        tuple(alias.get(w, w) for w in watch), need,
    )
    for a, b in zip(trail_a, trail_b):
        if (
            alias.get(a.state, a.state) != b.state
            or a.tape.head != b.tape.head
            or not a.tape.content_equal(b.tape)
        ):
            return a.steps
    if len(trail_a) == len(trail_b):
        return None if kind_a == kind_b else a.steps
    # one run stopped a step early; a halt shows on the step it could not take
    kind, short = (kind_a, trail_a) if len(trail_a) < len(trail_b) else (kind_b, trail_b)
    return short[-1].steps + (kind == HALTED)


@st.composite
def small_machines(draw, most=4, kf=False):
    """2 to `most` states, some transitions missing, some to HALT; with
    `kf`, one state but the start may be named x.Kf."""
    names = [chr(65 + i) for i in range(draw(st.integers(2, most)))]
    if kf and draw(st.booleans()):
        names[draw(st.integers(1, len(names) - 1))] = "x.Kf"
    states = {}
    for name in names:
        acts = [
            Action(draw(st.integers(0, 1)), draw(st.sampled_from([-1, 1])),
                   draw(st.sampled_from(names + [HALT])))
            if draw(st.integers(0, 4)) else None
            for _ in (0, 1)
        ]
        states[name] = (acts[0], acts[1]) if any(acts) else (Action(1, 1, HALT), None)
    return Machine("rand", names[0], states)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_located_divergence_matches_lockstep(data):
    m = data.draw(small_machines())
    short = scenario("short", steps=data.draw(st.integers(1, 8)))
    plan = propose_merges(m, profile_reads(m, [short]))
    merged = apply_merges(m, plan)
    blocks = tuple(data.draw(st.lists(st.integers(1, 4), max_size=2))) or None
    expect = data.draw(st.one_of(
        st.just(OutcomeExpect("nothalt")),
        st.builds(lambda s, k: TransferExpect(s, occurrence=k),
                  st.sampled_from(sorted(m.states)), st.integers(1, 4)),
    ))
    long = scenario("long", blocks=blocks, steps=data.draw(st.integers(10, 200)), expect=expect)
    verdict = verify_merge(m, merged, [long], plan)
    (comp,) = verdict.comparisons
    if not comp.equivalent:
        assert comp.first_divergence == lockstep_divergence(m, merged, long, merge_alias(plan))


@st.composite
def merge_scenarios(draw, machine, name):
    """A scenario of `machine` with an entry, a tape, a step budget, maybe
    a memory cap or a cycle check, and a transfer, brocard or no watch."""
    blocks = tuple(draw(st.lists(st.integers(1, 3), max_size=2))) or None
    limits = RunLimits(
        max_steps=draw(st.integers(0, 40)),
        max_support_cells=draw(st.sampled_from([1, 2, 4, 1 << 22])),
        cycle_check=draw(st.integers(0, 4)) == 0,
    )
    expect = draw(st.one_of(
        st.just(OutcomeExpect("nothalt")),
        st.just(OracleExpect("brocard", (5,))),
        st.builds(lambda s, k: TransferExpect(s, occurrence=k),
                  st.sampled_from(sorted(machine.states) + [HALT]), st.integers(1, 4)),
    ))
    entry = draw(st.one_of(st.none(), st.sampled_from(sorted(machine.states))))
    return dataclasses.replace(scenario(name, entry=entry, blocks=blocks, expect=expect),
                               limits=limits)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_verify_merge_matches_the_two_machine_reference(data):
    m = data.draw(small_machines(most=5, kf=True))
    scns = [data.draw(merge_scenarios(m, f"s{i}")) for i in range(data.draw(st.integers(1, 3)))]
    # profiled on every scenario, on some, on a short extra run, or not at all
    profiled = [s for s in scns if data.draw(st.booleans())]
    if data.draw(st.booleans()):
        profiled.append(scenario("short", steps=data.draw(st.integers(1, 8))))
    plan = propose_merges(m, profile_reads(m, profiled) if profiled else None)
    if data.draw(st.booleans()):
        plan = dataclasses.replace(plan, profile=None)
    merged = apply_merges(m, plan)
    if data.draw(st.booleans()):
        merged = dataclasses.replace(merged, start=data.draw(st.sampled_from(sorted(merged.states))))
    alias = merge_alias(plan)
    assert _changed_entries(m, merged, alias) == retargeted_changes(m, merged, alias)
    got = verify_merge(m, merged, scns, plan)
    assert got.comparisons == compared_merge(m, merged, scns, plan).comparisons
