"""The prover's work on the shipped machines, counted, and the refusals it remembers.

Counts are deterministic, so they are pinned without timing: the proofs
`Prover._prove` accepts and the rule applications `rules._apply`
credits may not fall, and the proofs it refuses stay at most half of
what they were before refused cycles were remembered.  Every refusal
that a remembered cycle makes is checked against a fresh `_prove` on
the same tape, and on random machines a remembered refusal holds only
where the search makes the same moves.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beaverkit import harness, rules
from beaverkit.engine import HALTED, WATCH, RunLimits, run
from beaverkit.machine import Action, Machine, compile_machine
from beaverkit.tape import Configuration, Tape
from test_rules import TRANSFER, transfer, traced

# (accepted, applications, refused) before refused cycles were remembered
BEFORE = {
    "brocard-n10-guard": (9, 723, 151),
    "fermat-t1": (2, 10, 13),
    "shipped-suites": (10, 55, 208),
}


class Work:
    """Counts the proofs and applications of the runs made inside it."""

    def __init__(self):
        self.accepted = self.applied = self.refused = self.remembered = 0

    def __enter__(self):
        prove, apply, holds = rules.Prover._prove, rules._apply, rules._Refusal.holds
        work = self

        def spy_prove(prover, read, state, j, budget):
            rule = prove(prover, read, state, j, budget)
            if rule is None:
                work.refused += 1
            else:
                work.accepted += 1
            return rule

        def spy_apply(*args):
            steps = apply(*args)
            work.applied += steps > 0
            return steps

        def checked_apply(prover, tape, state, j, budget, cap, reads):
            read = rules._reader(tape, (prover.cm.move[j] + 1) >> 1)
            for refusal in prover.refused[j]:
                if holds(refusal, read, budget):
                    work.remembered += 1
                    fresh = rules.Prover(prover.cm, prover.watched)
                    assert prove(fresh, read, state, j, budget) is None
            return real_apply(prover, tape, state, j, budget, cap, reads)

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
    for suite in ("fermat_sections", "fermat_composed", "brocard"):
        path = resolver.base / f"{suite}.scn"
        _, summary = harness.run_suite(harness.load_scenarios(path), resolver)
        assert summary["passed"] == summary["total"]


RUNS = {"brocard-n10-guard": brocard_n10_guard, "fermat-t1": fermat_t1, "shipped-suites": shipped_suites}


@pytest.fixture(scope="module")
def work(resolver):
    counted = {}
    for name, go in RUNS.items():
        with Work() as w:
            go(resolver)
        counted[name] = w
    return counted


@pytest.mark.parametrize("name", sorted(BEFORE))
def test_refused_proofs_halve_and_no_rule_is_lost(work, name):
    accepted, applied, refused = BEFORE[name]
    w = work[name]
    assert w.accepted >= accepted and w.applied >= applied
    assert w.refused <= refused // 2


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


def searched(cm, tape, state, j, budget):
    """The refusal `_prove` remembers from `tape`, None when it went on to
    the proof, and the moves its search made."""
    face, watched = (cm.move[j] + 1) >> 1, (False,) * len(cm.names)
    read = rules._reader(tape, face)
    search = rules._Search(cm, watched, read, state, face, j & 1)
    decided = [(ids, n == 1) for ids, n in search.decided]
    prover = rules.Prover(cm, watched)
    prover._prove(read, state, j, budget)
    return (prover.refused[j] or [None])[0], (search.moves, search.singles, len(search.loaded), decided)


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
    faces = [face for face in (0, 1) if cm.move[entry[face]] == 2 * face - 1]
    if not faces:
        return
    face, j = faces[0], entry[faces[0]]
    budgets = st.one_of(st.just(10**6), st.integers(16, 1600))
    refusal, before = searched(cm, tape_of(first, lengths, boundary, face), state, j, data.draw(budgets))
    if refusal is None:
        return
    # lengths near the first, so that a run that emptied, or nearly, may not
    near = [max(1, n + data.draw(st.integers(-12, 2))) for n in lengths]
    again = tape_of(first, near, boundary, face, data.draw(st.sampled_from([0, 0, 0, 1, 3])))
    # budgets about where the cycle's steps on the new lengths would fit
    # MIN_REPEATS times, too
    steps = rules._Search(cm, (False,) * len(names), rules._reader(again, face), state, face, j & 1).steps
    budget = data.draw(budgets | st.integers(steps * (rules.MIN_REPEATS - 1), steps * (rules.MIN_REPEATS + 1)))
    if refusal.holds(rules._reader(again, face), budget):
        refused, after = searched(cm, again, state, j, budget)
        assert refused is not None and after == before


def test_a_remembered_refusal_counts_the_steps_on_the_new_lengths():
    # TRANSFER at the start of its fourth round, with a budget one cycle
    # short of MIN_REPEATS: with block B 20 cells shorter the cycle fits
    # the same budget often enough, and the remembered refusal lets it
    # be proved
    cm = compile_machine(TRANSFER)
    state, watched = cm.index["S"], (False,) * len(cm.names)
    j = 2 * state + 1
    face = (cm.move[j] + 1) >> 1

    def read(b):
        config = transfer(100, b)()
        for _ in range(3):
            config = traced(TRANSFER, config, RunLimits(max_steps=10**5), watch=("S",)).config
        return rules._reader(config.tape, face)

    budget = (rules.MIN_REPEATS - 1) * rules._Search(cm, watched, read(70), state, face, 1).steps
    prover = rules.Prover(cm, watched)
    assert prover._prove(read(70), state, j, budget) is None
    assert prover.refused[j][0].holds(read(70), budget)
    assert not prover.refused[j][0].holds(read(50), budget)
    assert prover._prove(read(50), state, j, budget) is not None
