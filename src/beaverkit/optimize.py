"""State-count reduction by pairing read-0-only states with read-1-only ones.

A pair merges into a single state carrying the zero side's read-0 action
and the one side's read-1 action; every transition into either original
is retargeted at the merged state.  Candidates are found structurally
(a state simply lacks the other action) and, when a read profile from a
scenario suite is supplied, semantically (the suite never exercised the
other action).  Profile-backed merges are sound only relative to that
suite, which verify_merge checks step for step.

The suite is run once.  A merge changes a known set of (state, symbol)
entries: those whose original action, retargeted through the alias, is
not the merged state's action, one side missing counting as a change.
A run of the original is the merged machine's run mapped through the
alias, step for step, when:

1. it read no changed entry;
2. each state it read in or ended in is defined, and watched, exactly
   when its merged state is, and no two of them share a watched merged
   state: a transition inside a class enters a watch on one side only,
   and the run's last step, which no read shows, can be one;
3. the merged run starts where the original's does, through the alias;
4. the scenario has no cycle check, as the merged machine can repeat a
   configuration sooner.

A plan keeps the profile it was drawn from, which holds each scenario's
run and read set, so on such a scenario verify_merge runs nothing; on any
other it runs the original once, gathering its reads.  Only when the
rule fails does the merged machine run and its outcome get compared.
"""

from __future__ import annotations

import copy
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .engine import HALTED, RunLimits, RunOutcome, run
from .machine import RESERVED_NAMES, RIGHT, Action, Machine
from .tape import Configuration

if TYPE_CHECKING:
    from .harness import Scenario


@dataclass
class ReadProfile:
    """Observed (state -> set of symbols read) over a scenario suite.

    `runs` maps each scenario's name to a copy of the scenario, the
    outcome of its run on `machine`, the machine profiled, and the set of
    (state, symbol) entries that run read.
    """

    observed: dict[str, set[int]] = field(default_factory=dict)
    machine: Machine | None = None
    runs: dict[str, tuple[Scenario, RunOutcome, frozenset]] = field(default_factory=dict)

    def reads(self, state: str) -> set[int]:
        return self.observed.get(state, set())

    def lookup(self, machine: Machine, scenario: Scenario) -> tuple[RunOutcome, frozenset] | None:
        """The profiled run of `scenario` on `machine` and its reads, if this profile made it.

        Only a run of this very machine object, on a scenario equal field
        for field to the one profiled, is the same run.
        """
        if machine is not self.machine:
            return None
        scn, outcome, reads = self.runs.get(scenario.name, (None, None, None))
        return (outcome, reads) if scn == scenario else None


def profile_reads(machine: Machine, scenarios) -> ReadProfile:
    """Record each (state, symbol) actually read over the scenario suite.

    Scenarios are harness Scenario objects whose entry states name
    states of `machine`; their machine_ref is ignored.  Each scenario
    runs exactly as the harness would judge it (transfer expectations
    stop at their target), so the profile's horizon is the same one
    verify_merge later compares, and its outcome and reads are kept for
    that check.
    """
    from .harness import execute_scenario

    profile = ReadProfile(machine=machine)
    for scn in scenarios:
        sink: set = set()
        outcome = execute_scenario(scn, machine, profile=sink)
        # a copy, so a scenario edited in place later no longer matches
        profile.runs[scn.name] = copy.copy(scn), outcome, frozenset(sink)
        for state, sym in sink:
            profile.observed.setdefault(state, set()).add(sym)
    return profile


@dataclass(frozen=True)
class MergePair:
    zero_state: str
    one_state: str
    merged_name: str
    dropped: tuple[str, ...] = ()  # actions suppressed by a profile-backed pair


@dataclass
class MergePlan:
    pairs: list[MergePair] = field(default_factory=list)
    residual_zero: list[str] = field(default_factory=list)
    residual_one: list[str] = field(default_factory=list)
    # the profile the plan was drawn from, whose runs verify_merge reuses
    profile: ReadProfile | None = field(default=None, compare=False, repr=False)

    def serialize(self) -> str:
        lines = []
        for p in self.pairs:
            lines.append(f"merge {p.zero_state} {p.one_state} as {p.merged_name}")
            for d in p.dropped:
                lines.append(f"# drops {d}")
        for s in self.residual_zero:
            lines.append(f"# residual zero-only {s}")
        for s in self.residual_one:
            lines.append(f"# residual one-only {s}")
        return "\n".join(lines) + ("\n" if lines else "")


def propose_merges(machine: Machine, profile: ReadProfile | None = None) -> MergePlan:
    """Greedy pairing in table order.

    A state is zero-capable if it has no read-1 action, or the profile
    never saw it read 1; one-capable symmetrically.  States capable of
    both sides (never entered on the suite) fill whichever side runs
    short.  The start state only participates with profile evidence.
    """
    strict_zero: list[str] = []
    strict_one: list[str] = []
    flex: list[str] = []
    for name, (on_zero, on_one) in machine.states.items():
        if profile is None and name == machine.start:
            # pairing the start is only safe with profile evidence that
            # the conflicting read never happens
            continue
        obs = profile.reads(name) if profile is not None else None
        zero_cap = _capable(on_zero, on_one, obs, zero_side=True)
        one_cap = _capable(on_zero, on_one, obs, zero_side=False)
        if zero_cap and one_cap:
            flex.append(name)
        elif zero_cap:
            strict_zero.append(name)
        elif one_cap:
            strict_one.append(name)

    pairs: list[MergePair] = []
    taken = _names(machine)
    zq, oq, fq = strict_zero[:], strict_one[:], flex[:]
    while zq and oq:
        pairs.append(_pair(machine, zq.pop(0), oq.pop(0), taken))
    while zq and fq:
        pairs.append(_pair(machine, zq.pop(0), fq.pop(0), taken))
    while oq and fq:
        pairs.append(_pair(machine, fq.pop(0), oq.pop(0), taken))
    while len(fq) >= 2:
        pairs.append(_pair(machine, fq.pop(0), fq.pop(0), taken))
    return MergePlan(pairs=pairs, residual_zero=zq + fq, residual_one=oq, profile=profile)


def _capable(on_zero, on_one, obs, zero_side: bool) -> bool:
    needed, other = (on_zero, on_one) if zero_side else (on_one, on_zero)
    if needed is None:
        return False  # merged state would lack its defining action
    if obs is None:
        return other is None  # no profile: structural one-sidedness only
    # With a profile the other-side read must be unobserved even when the
    # action is structurally missing: that read would have halted, and a
    # merge would mask the halt.
    return (1 if zero_side else 0) not in obs


def _names(machine: Machine) -> set[str]:
    """Every name `machine` gives meaning to: its states, targets and the halt markers."""
    return set(machine.states) | machine.external_targets() | RESERVED_NAMES


def _pair(machine: Machine, zero_state: str, one_state: str, taken: set[str]) -> MergePair:
    """The pair, named `zero_state+one_state` with a suffix when `taken` holds that name."""
    dropped = []
    if machine.action(zero_state, 1) is not None:
        dropped.append(f"{zero_state} read-1")
    if machine.action(one_state, 0) is not None:
        dropped.append(f"{one_state} read-0")
    name = base = f"{zero_state}+{one_state}"
    i = 1
    while name in taken:
        i += 1
        name = f"{base}_{i}"
    taken.add(name)
    return MergePair(zero_state, one_state, name, tuple(dropped))


def apply_merges(machine: Machine, plan: MergePlan) -> Machine:
    """Machine with each pair fused; state count drops by len(pairs)."""
    zero_of = {}
    one_of = {}
    alias = merge_alias(plan)
    taken = _names(machine)
    for p in plan.pairs:
        for s in (p.zero_state, p.one_state):
            if s not in machine.states:
                raise ValueError(f"merge pair names unknown state {s!r}")
        if p.merged_name in zero_of or p.merged_name in taken - {p.zero_state, p.one_state}:
            raise ValueError(f"merged name {p.merged_name!r} is taken by another pair, state or target")
        if machine.action(p.zero_state, 0) is None:
            raise ValueError(f"{p.zero_state} has no read-0 action; cannot take the zero side")
        if machine.action(p.one_state, 1) is None:
            raise ValueError(f"{p.one_state} has no read-1 action; cannot take the one side")
        if not p.dropped:
            # structural pair: confirm one-sidedness
            if machine.action(p.zero_state, 1) is not None or machine.action(p.one_state, 0) is not None:
                raise ValueError(
                    f"pair ({p.zero_state}, {p.one_state}) is not one-sided and carries no drop record"
                )
        zero_of[p.merged_name] = p.zero_state
        one_of[p.merged_name] = p.one_state
    counts = Counter(s for p in plan.pairs for s in (p.zero_state, p.one_state))
    dupes = [s for s, c in counts.items() if c > 1]
    if dupes:
        raise ValueError(f"states appear in more than one pair: {dupes}")

    merged_emitted: set[str] = set()
    states: dict[str, tuple[Action | None, Action | None]] = {}
    for name, (on_zero, on_one) in machine.states.items():
        m = alias.get(name)
        if m is None:
            states[name] = (_retarget(on_zero, alias), _retarget(on_one, alias))
        elif m not in merged_emitted:
            merged_emitted.add(m)
            states[m] = (
                _retarget(machine.action(zero_of[m], 0), alias),
                _retarget(machine.action(one_of[m], 1), alias),
            )
    return Machine(
        name=f"{machine.name} (merged)",
        start=alias.get(machine.start, machine.start),
        states=states,
    )


def _retarget(act: Action | None, alias: dict[str, str]) -> Action | None:
    t = alias.get(act.target) if act else None
    return act if t is None else act._replace(target=t)


def merge_alias(plan: MergePlan) -> dict[str, str]:
    return {s: p.merged_name for p in plan.pairs for s in (p.zero_state, p.one_state)}


@dataclass
class ScenarioComparison:
    """One scenario's runs on the original (a) and the merged machine (b).

    A merged machine with no state to start the scenario in does not run:
    its kind reads "none" and its steps 0, and the runs part at step 0.
    """

    name: str
    equivalent: bool
    kind_a: str
    kind_b: str
    steps_a: int
    steps_b: int
    first_divergence: int | None = None
    detail: str = ""


@dataclass
class MergeVerdict:
    equivalent: bool
    comparisons: list[ScenarioComparison]

    def __str__(self) -> str:
        if self.equivalent:
            return f"equivalent on all {len(self.comparisons)} scenarios, step for step"
        bad = [c for c in self.comparisons if not c.equivalent]
        lines = [f"divergent on {len(bad)} of {len(self.comparisons)} scenarios:"]
        lines += [f"  {c.name}: {c.detail} (first divergence step {c.first_divergence})" for c in bad]
        return "\n".join(lines)


def verify_merge(original: Machine, merged: Machine, scenarios, plan: MergePlan | None = None) -> MergeVerdict:
    """Per scenario: same outcome kind, same step count, same final tape.

    Scenarios run exactly as the harness judges them; entry and watch
    state names are translated through the merge aliases for the merged
    run.  The original's run and reads are the ones the plan's profile
    kept, when it ran `original` on an equal scenario; otherwise the
    original runs here, gathering its reads.  When that run is the
    merged machine's run through the alias (the rule in the module
    docstring: no changed entry read, watches kept apart, the same
    start, no cycle check), the scenario is equivalent with the
    original's kind and steps on both sides, and the merged machine does
    not run.  Otherwise it runs, unless the scenario's entry, through the
    alias, is no state of it (divergent at step 0), and on divergence
    _locate_divergence finds the first differing step.  The probe it
    runs is built at the first divergence, and the later ones share it,
    with its compiled table and the rules proved on it.
    """
    from .harness import entry_state, execute_scenario

    alias = merge_alias(plan) if plan else {}
    profile = plan.profile if plan else None
    changed = _changed_entries(original, merged, alias)
    comparisons = []
    probe = None
    for scn in scenarios:
        kept = profile.lookup(original, scn) if profile else None
        if kept is None:
            reads: set = set()
            out_a = execute_scenario(scn, original, profile=reads)
        else:
            out_a, reads = kept
        if _maps_onto_merged(original, merged, scn, alias, changed, out_a, reads):
            comparisons.append(ScenarioComparison(
                scn.name, True, out_a.kind, out_a.kind, out_a.steps, out_a.steps
            ))
            continue
        start_b = entry_state(scn, merged, alias)
        if start_b not in merged.states and start_b not in RESERVED_NAMES:
            comparisons.append(ScenarioComparison(
                scn.name, False, out_a.kind, "none", out_a.steps, 0,
                0, f"entry {start_b} is not a state of {merged.name}",
            ))
            continue
        out_b = execute_scenario(scn, merged, alias=alias)
        end_a = alias.get(out_a.config.state, out_a.config.state)
        same = (
            out_a.kind == out_b.kind
            and out_a.steps == out_b.steps
            and end_a == out_b.config.state
            and out_a.config.tape.content_equal(out_b.config.tape)
        )
        comp = ScenarioComparison(
            scn.name, same, out_a.kind, out_b.kind, out_a.steps, out_b.steps
        )
        if not same:
            if probe is None:
                probe = _probe(original, changed)
            comp.first_divergence, comp.detail = _locate_divergence(
                original, merged, scn, alias, out_a, out_b, probe
            )
        comparisons.append(comp)
    return MergeVerdict(all(c.equivalent for c in comparisons), comparisons)


def _changed_entries(original: Machine, merged: Machine, alias: dict[str, str]) -> set[tuple[str, int]]:
    """The (state, symbol) entries of `original` whose action the merge changed.

    An action is unchanged when the merged state's action writes and
    moves alike and goes to the alias of its target, or both are missing.
    """
    changed = set()
    for name, actions in original.states.items():
        pair = merged.states.get(alias.get(name, name), (None, None))
        for sym, act in enumerate(actions):
            now = pair[sym]
            if act is None or now is None:
                if act is not now:
                    changed.add((name, sym))
            elif (act.write, act.move, alias.get(act.target, act.target)) != now:
                changed.add((name, sym))
    return changed


def _maps_onto_merged(original, merged, scn, alias, changed, out_a, reads) -> bool:
    """Whether the merged run of `scn` is `out_a`'s run through the alias.

    It is when both runs start in the same state through the alias, the
    scenario has no cycle check, the run read no changed entry, and each
    state it read in or ended in is a state (or not) on both sides, is
    watched on both sides or on neither, and is the only such state in
    its merged class when watched.
    """
    from .harness import entry_state, watch_states

    start = entry_state(scn, original)
    if scn.limits.cycle_check or alias.get(start, start) != entry_state(scn, merged, alias):
        return False
    if not changed.isdisjoint(reads):
        return False
    watch_a = watch_states(scn, original)
    watch_b = watch_states(scn, merged, alias)
    visited = {state for state, _ in reads}
    visited.add(out_a.config.state)
    watched_by: dict[str, str] = {}
    for state in sorted(visited):  # in an order the hash seed does not move
        image = alias.get(state, state)
        if (state in original.states) != (image in merged.states):
            return False
        if (state in watch_a) != (image in watch_b):
            return False
        if image in watch_b and watched_by.setdefault(image, state) != state:
            return False
    return True


def _probe(original, changed):
    """(probe, marks): the original with each changed transition
    redirected to an exit marker naming it (writing 0, which no memory
    cap refuses), and the set of those markers."""
    marks = {(name, sym): f"{name} read-{sym}" for name, sym in changed}
    probe = {
        name: tuple(
            Action(0, RIGHT, marks[name, sym]) if (name, sym) in marks else act
            for sym, act in enumerate(actions)
        )
        for name, actions in original.states.items()
    }
    return Machine(original.name, original.start, probe), frozenset(marks.values())


def _locate_divergence(original, merged, scn, alias, out_a, out_b, probe):
    """First step at which the two runs part; returns (step, detail).

    Runs that start in different states part at step 0.  Otherwise a
    merge changes a known set of (state, symbol) transitions, `changed`,
    so both runs agree step for step until the original reads one of
    them, or until one run stops where the other does not.  One run of
    the `_probe` of the changed transitions finds the first such read
    within the horizon.
    """
    from .harness import entry_state

    start_a, start_b = entry_state(scn, original), entry_state(scn, merged, alias)
    if alias.get(start_a, start_a) != start_b:
        return 0, f"starts differ: {start_a} vs {start_b}"
    machine, marks = probe
    horizon = min(out_a.steps, out_b.steps)
    limits = RunLimits(max_steps=horizon + 1, max_support_cells=scn.limits.max_support_cells)
    config = Configuration(start_a, scn.build_tape())
    out = run(machine, config, limits)
    read = out.halting_state if out.halting_state in marks else None
    if read and out.steps <= horizon:
        return out.steps, f"original reads {read}, changed by the merge"
    # a watch, budget or memory stop at the horizon that the other run lacks
    stops = [o.kind if o.steps == horizon and o.kind != HALTED else "none" for o in (out_a, out_b)]
    if stops[0] != stops[1]:
        return horizon, "stops diverge: {} vs {}".format(*stops)
    # else one run halted at the horizon on a changed transition the other has
    return horizon + 1, f"original reads {read}, changed by the merge"
