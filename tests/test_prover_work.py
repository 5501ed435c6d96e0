"""The prover's work on the shipped machines, counted, and the refusals it remembers.

Counts are deterministic, so they are pinned without timing.  Each
counted run resolves its machines afresh, so it starts from tables that
keep no proofs and counts the same whatever ran before it.  A table
keeps the rules and refusals of every run on it, so a rule is proved
once per table: the searches (`Prover._prove`'s accepted and refused
proofs) fall below those of runs that each kept their own, the rule
applications `rules._apply` credits may not fall, and the refused
proofs stay at most half of what they were before refused cycles were
remembered.  A second pass of the shipped suites on the same machines
searches far less, applies no fewer rules and reports the same.  Every
refusal that a remembered cycle makes is checked against a `_prove` on
a table compiled afresh, on the same tape, and on random machines a
remembered refusal holds only where the search makes the same moves.
"""

import dataclasses
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beaverkit import harness, rules
from beaverkit.engine import HALTED, WATCH, RunLimits, run
from beaverkit.harness import MachineResolver
from beaverkit.machine import Action, Machine, compile_machine
from beaverkit.tape import Configuration, Tape
from test_rules import TRANSFER, transfer, traced

# (accepted, applications, refused) before refused cycles were remembered
BEFORE = {
    "brocard-n10-guard": (9, 723, 151),
    "fermat-t1": (2, 10, 13),
    "shipped-suites": (10, 55, 208),
}
# the same, when each run kept its own rules and refusals
PER_RUN = {
    "brocard-n10-guard": (9, 723, 35),
    "fermat-t1": (2, 10, 5),
    "shipped-suites": (10, 55, 94),
}


class Work:
    """Counts the proofs and applications of the runs made inside it."""

    def __init__(self):
        self.accepted = self.applied = self.refused = self.remembered = 0

    def __enter__(self):
        prove, apply, holds = rules.Prover._prove, rules._apply, rules._Refusal.holds
        work = self

        def spy_prove(prover, read, j, budget):
            rule = prove(prover, read, j, budget)
            if rule is None:
                work.refused += 1
            else:
                work.accepted += 1
            return rule

        def spy_apply(*args):
            steps = apply(*args)
            work.applied += steps > 0
            return steps

        def checked_apply(prover, tape, j, budget, cap, reads):
            read = rules._reader(tape, (prover.cm.entry[j][1] + 1) >> 1)
            for refusal in prover.refused.get(j, ()) if prover.search else ():
                if holds(refusal, read, budget):
                    work.remembered += 1
                    # a table compiled afresh keeps no proofs
                    fresh = rules.Prover(dataclasses.replace(prover.cm))
                    assert prove(fresh, read, j, budget) is None
            return real_apply(prover, tape, j, budget, cap, reads)

        real_apply = rules.Prover.apply
        self.patches = [
            mock.patch.object(rules.Prover, "_prove", spy_prove),
            mock.patch.object(rules, "_apply", spy_apply),
            mock.patch.object(rules.Prover, "apply", checked_apply),
        ]
        for patch in self.patches:
            patch.start()
        return self

    def __exit__(self, *exc):
        for patch in self.patches:
            patch.stop()


def brocard_n10_guard(resolver):
    # the runs of test_brocard_reaches_its_n10_guard, one per guard entry
    brocard, config = resolver("../brocard.manifest"), None
    for _ in range(8):
        out = run(brocard, config, RunLimits(max_steps=10**14), watch=("b.Mf",))
        assert out.kind == WATCH
        config = out.config


def fermat_t1(resolver):
    out = run(resolver("../fermat.manifest#t1"), Configuration("25"), RunLimits(max_steps=10**10))
    assert (out.kind, out.steps) == (HALTED, 2863443162)


def shipped_suites(resolver):
    lines = []
    for suite in ("fermat_sections", "fermat_composed", "brocard"):
        path = resolver.base / f"{suite}.scn"
        reports, summary = harness.run_suite(harness.load_scenarios(path), resolver)
        assert summary["passed"] == summary["total"]
        lines += [r.line(deterministic=True) for r in reports]
    return lines


RUNS = {"brocard-n10-guard": brocard_n10_guard, "fermat-t1": fermat_t1, "shipped-suites": shipped_suites}


@pytest.fixture(scope="module")
def work(data_dir):
    """The work of each counted run on machines of its own, and of a
    second pass of the shipped suites on the machines of the first."""
    counted, resolvers = {}, {}
    for name, go in RUNS.items():
        resolvers[name] = MachineResolver(data_dir / "scenarios")
        with Work() as w:
            w.result = go(resolvers[name])
        counted[name] = w
    with Work() as w:
        w.result = shipped_suites(resolvers["shipped-suites"])
    counted["shipped-suites-again"] = w
    return counted


@pytest.mark.parametrize("name", sorted(BEFORE))
def test_refused_proofs_halve_and_no_rule_is_lost(work, name):
    _, applied, refused = BEFORE[name]
    w = work[name]
    assert w.accepted > 0 and w.applied >= applied
    assert w.refused <= refused // 2


@pytest.mark.parametrize("name", sorted(PER_RUN))
def test_the_table_keeps_what_its_runs_proved(work, name):
    accepted, applied, refused = PER_RUN[name]
    w = work[name]
    assert w.accepted + w.refused < accepted + refused
    assert w.applied >= applied


def test_a_second_pass_of_the_suites_searches_far_less(work):
    first, again = work["shipped-suites"], work["shipped-suites-again"]
    assert again.accepted + again.refused <= (first.accepted + first.refused) // 4
    assert again.applied >= first.applied
    assert again.result == first.result


@pytest.mark.parametrize("name", sorted(BEFORE))
def test_remembered_refusals_are_made_and_hold(work, name):
    # each was confirmed by a fresh proof inside the run
    assert work[name].remembered > 0


def tape_of(first, lengths, boundary, face, tail=0):
    """Runs of alternating symbols from `first`, the head where run
    `boundary` meets the run before it, on the side `face`; with a
    `tail`, a 1 that many 0s past the last run moves the blank out."""
    symbols = [(first + i) % 2 for i, n in enumerate(lengths) for _ in range(n)]
    tape = Tape.from_symbols(symbols + ([0] * tail + [1] if tail else []))
    tape.head = sum(lengths[:boundary]) - 1 + face
    return tape


def searched(cm, tape, j, budget):
    """The refusal `_prove` remembers from `tape`, None when it went on to
    the proof, and the moves its search made."""
    face = (cm.entry[j][1] + 1) >> 1
    read = rules._reader(tape, face)
    search = rules._Search(cm, read, j)
    decided = [(ids, n == 1) for ids, n in search.decided]
    # a table compiled afresh keeps no proofs, so a refusal is this search's
    prover = rules.Prover(dataclasses.replace(cm))
    prover._prove(read, j, budget)
    return prover.refused.get(j, [None])[0], (search.moves, search.singles, len(search.loaded), decided)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_a_remembered_refusal_holds_only_where_the_search_repeats(data):
    names = [chr(65 + i) for i in range(data.draw(st.integers(1, 3)))]
    action = st.builds(Action, st.integers(0, 1), st.sampled_from([-1, 1]), st.sampled_from(names))
    m = Machine("m", "A", {name: (data.draw(action), data.draw(action)) for name in names})
    cm = compile_machine(m)
    first = data.draw(st.integers(0, 1))
    lengths = data.draw(st.lists(st.integers(1, 12), min_size=2, max_size=7))
    boundary = data.draw(st.integers(1, len(lengths) - 1))
    state = data.draw(st.integers(0, len(names) - 1))
    # the head reads the last cell of the run before `boundary` when its
    # entry moves left, and the first cell of run `boundary` when it moves right
    entry = [2 * state + (first + boundary - 1 + face) % 2 for face in (0, 1)]
    faces = [face for face in (0, 1) if cm.entry[entry[face]][1] == 2 * face - 1]
    if not faces:
        return
    face, j = faces[0], entry[faces[0]]
    budgets = st.one_of(st.just(10**6), st.integers(16, 1600))
    refusal, before = searched(cm, tape_of(first, lengths, boundary, face), j, data.draw(budgets))
    if refusal is None:
        return
    # lengths near the first, so that a run that emptied, or nearly, may not
    near = [max(1, n + data.draw(st.integers(-12, 2))) for n in lengths]
    again = tape_of(first, near, boundary, face, data.draw(st.sampled_from([0, 0, 0, 1, 3])))
    # budgets about where the cycle's steps on the new lengths would fit
    # MIN_REPEATS times, too
    steps = rules._Search(cm, rules._reader(again, face), j).steps
    budget = data.draw(budgets | st.integers(steps * (rules.MIN_REPEATS - 1), steps * (rules.MIN_REPEATS + 1)))
    if refusal.holds(rules._reader(again, face), budget):
        refused, after = searched(cm, again, j, budget)
        assert refused is not None and after == before


def test_a_remembered_refusal_counts_the_steps_on_the_new_lengths():
    # TRANSFER at the start of its fourth round, with a budget one cycle
    # short of MIN_REPEATS: with block B 20 cells shorter the cycle fits
    # the same budget often enough, and the remembered refusal lets it
    # be proved
    cm = compile_machine(TRANSFER)
    state = cm.index["S"]
    j = 2 * state + 1
    face = (cm.entry[j][1] + 1) >> 1

    def read(b):
        config = transfer(100, b)()
        for _ in range(3):
            config = traced(TRANSFER, config, RunLimits(max_steps=10**5), watch=("S",)).config
        return rules._reader(config.tape, face)

    budget = (rules.MIN_REPEATS - 1) * rules._Search(cm, read(70), j).steps
    prover = rules.Prover(cm)
    assert prover._prove(read(70), j, budget) is None
    assert prover.refused[j][0].holds(read(70), budget)
    assert not prover.refused[j][0].holds(read(50), budget)
    assert prover._prove(read(50), j, budget) is not None
