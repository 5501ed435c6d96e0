"""The prover's work on the shipped machines, counted.

Counts are deterministic, so they are pinned without timing.  Each
counted run resolves its machines afresh, so it starts from tables that
keep no proofs and counts the same whatever ran before it.  A table
keeps the rules of every run on it, so a rule is proved once per table:
the rules `Prover._prove` accepts and the rule applications
`rules._apply` credits are pinned, and so are the `Prover.apply` calls
of the Brocard runs: a long scan that applies nothing backs its entry
off, so few scans try a rule at all.  No fewer rules are applied than by
runs that each proved their own rules, and fewer searches are refused
and fewer made, accepted or refused, than by those runs.  A
second pass of the shipped suites on the same machines proves nothing
new, applies as many rules, searches less and reports the same.
"""

from unittest import mock

import pytest

from beaverkit import harness, rules
from beaverkit.engine import HALTED, WATCH, RunLimits, run
from beaverkit.harness import MachineResolver
from beaverkit.tape import Configuration

# (accepted, applications) of each counted run
COUNTS = {
    "brocard-n10-guard": (4, 767),
    "fermat-t1": (2, 10),
    "shipped-suites": (8, 55),
}
# `Prover.apply` calls on Brocard's way to its n = 10 guard: most long scans
# there meet a known rule that cannot apply, and each backs its entry off
TRIED = 1124
# (accepted, applications, refused) when each run proved its own rules
BEFORE = {
    "brocard-n10-guard": (9, 723, 151),
    "fermat-t1": (2, 10, 13),
    "shipped-suites": (10, 55, 208),
}


class Work:
    """Counts the proofs and applications of the runs made inside it."""

    def __init__(self):
        self.accepted = self.applied = self.refused = self.tried = 0

    def __enter__(self):
        tried, prove, apply = rules.Prover.apply, rules.Prover._prove, rules._apply
        work = self

        def spy_tried(*args):
            work.tried += 1
            return tried(*args)

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

        self.patches = [
            mock.patch.object(rules.Prover, "apply", spy_tried),
            mock.patch.object(rules.Prover, "_prove", spy_prove),
            mock.patch.object(rules, "_apply", spy_apply),
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
    # refused proofs halved only while refused cycles were remembered;
    # with rules on the table they still fall, and no application is lost
    _, applied, refused = BEFORE[name]
    w = work[name]
    assert w.accepted > 0 and w.applied >= applied
    assert w.refused < refused


@pytest.mark.parametrize("name", sorted(COUNTS))
def test_the_table_keeps_what_its_runs_proved(work, name):
    accepted, _, refused = BEFORE[name]
    w = work[name]
    assert (w.accepted, w.applied) == COUNTS[name]
    assert w.accepted + w.refused < accepted + refused


def test_a_long_scan_that_applies_nothing_backs_its_entry_off(work):
    assert work["brocard-n10-guard"].tried == TRIED


def test_a_second_pass_of_the_suites_searches_far_less(work):
    first, again = work["shipped-suites"], work["shipped-suites-again"]
    assert (again.accepted, again.applied) == (0, COUNTS["shipped-suites"][1])
    assert again.refused <= (first.accepted + first.refused) // 2
    assert again.result == first.result
