import re

import pytest

from beaverkit.engine import WATCH, RunLimits
from beaverkit.harness import (
    OracleExpect,
    OutcomeExpect,
    Report,
    Scenario,
    SnapshotExpect,
    TransferExpect,
    execute_scenario,
    load_scenarios,
    parse_scenarios,
    run_scenario,
    run_suite,
)
from beaverkit import oracles
from beaverkit.machine import Action, Machine
from beaverkit.oracles import is_prime
from beaverkit.tape import Configuration, Tape
from stepping import read_profile, stepped_run


def test_parse_scenarios_stanza():
    text = """
    # suite header
    scenario square_4
    machine ../fermat.manifest#t2
    entry 0
    tape unary 4
    head block 0 left
    limit steps=100000 cells=1000000
    expect oracle square 4

    scenario window_case
    machine ../brocard.manifest
    tape blank
    limit steps=5
    expect snapshot -5..1 0 1 1 0 1 1
    """
    scns = parse_scenarios(text)
    assert len(scns) == 2
    a, b = scns
    assert a.machine_ref == "../fermat.manifest#t2"
    assert a.tape_blocks == (4,)
    assert a.head == ("block", 0, "left")
    assert a.limits == RunLimits(max_steps=100000, max_support_cells=1000000)
    assert a.expect == OracleExpect("square", (4,))
    assert b.expect == SnapshotExpect(-5, 1, (0, 1, 1, 0, 1, 1))


def test_parse_transfer_with_occurrence():
    scns = parse_scenarios(
        "scenario t\nmachine m.manifest\nexpect transfer b.Mf@3 values 5 24 96"
    )
    assert scns[0].expect == TransferExpect("b.Mf", (5, 24, 96), 3)


def test_parse_rejects_unknown_directive():
    with pytest.raises(ValueError, match="unknown directive"):
        parse_scenarios("scenario t\nbogus x")


def test_parse_rejects_a_scenario_name_used_twice():
    # results, profiles and merge checks are keyed by name
    text = "scenario a\nmachine x.tbl\n\nscenario b\nmachine y.tbl\n\nscenario a\nmachine z.tbl\n"
    with pytest.raises(ValueError, match=r"^line 7: scenario 'a' is named twice$"):
        parse_scenarios(text)


def test_load_names_the_file_of_a_scenario_name_used_twice(tmp_path):
    path = tmp_path / "twice.scn"
    path.write_text("scenario a\nmachine x.tbl\nscenario a\nmachine x.tbl\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: scenario 'a' is named twice$"):
        load_scenarios(path)


def test_scenario_head_rules_build_tapes():
    s = Scenario("s", "m", tape_blocks=(3, 2), head=("block", 1, "left"))
    assert s.build_tape().head == 4
    s = Scenario("s", "m", tape_window=(-2, (1, 0, 1)), head=("abs", -2))
    t = s.build_tape()
    assert t.read(-2) == 1 and t.read(-1) == 0 and t.read(0) == 1


def test_square_scenario_passes(resolver):
    s = Scenario(
        "sq4",
        "../fermat.manifest#t2",
        entry="0",
        tape_blocks=(4,),
        head=("block", 0, "left"),
        limits=RunLimits(max_steps=10**6),
        expect=OracleExpect("square", (4,)),
    )
    r = run_scenario(s, resolver)
    assert r.passed, r.line()
    assert r.steps == 464


def test_snapshot_failure_reports_both_sides(resolver):
    s = Scenario(
        "bad_window",
        "../brocard.manifest",
        limits=RunLimits(max_steps=5),
        expect=SnapshotExpect(-5, 1, (1, 1, 1, 1, 1, 1)),
    )
    r = run_scenario(s, resolver)
    assert not r.passed
    assert r.observed == "0 1 1 0 1 1"
    assert r.expected == "1 1 1 1 1 1"
    assert "FAIL" in r.line() and "observed=" in r.line()


def test_transfer_failure_when_state_never_reached(resolver):
    s = Scenario(
        "never",
        "../fermat.manifest#t2",
        entry="0",
        tape_blocks=(2,),
        limits=RunLimits(max_steps=1000),
        expect=TransferExpect("17", values=None, occurrence=50),
    )
    r = run_scenario(s, resolver)
    assert not r.passed


def test_primality_subsuite_halts_on_primes(resolver):
    for n in (5, 7, 11, 13):
        s = Scenario(
            f"p{n}",
            "../fermat.manifest#t3",
            entry="1",
            tape_blocks=(n,),
            head=("block", 0, "left"),
            limits=RunLimits(max_steps=10**7),
            expect=OutcomeExpect("halted"),
        )
        assert run_scenario(s, resolver).passed, n


def test_brocard_square_subsuite(resolver):
    cases = {25: OutcomeExpect("halted", "HALT"), 26: TransferExpect("b.Kf", (25,))}
    for m, exp in cases.items():
        s = Scenario(
            f"b{m}",
            "../brocard.manifest",
            entry="b.As",
            tape_blocks=(m,),
            head=("block", 0, "left"),
            limits=RunLimits(max_steps=10**7),
            expect=exp,
        )
        assert run_scenario(s, resolver).passed, m


def test_empty_suite_summary(resolver):
    reports, summary = run_suite([], resolver)
    assert reports == []
    assert summary["total"] == 0 and summary["failed"] == 0


def test_report_line_determinism():
    r = Report("x", True, 5, 12.3)
    assert r.line(deterministic=True) == "PASS x steps=5"
    assert "wall_ms" in r.line()


def test_shipped_scenarios_parse(data_dir):
    from beaverkit.harness import load_scenarios

    for name in ("fermat_sections.scn", "fermat_composed.scn", "brocard.scn"):
        scns = load_scenarios(data_dir / "scenarios" / name)
        assert scns, name
        for s in scns:
            assert s.machine_ref and s.expect is not None


def test_oracle_expectations_match_oracles(resolver):
    # one composite and one prime through the primality oracle expectation
    for n in (9, 13):
        s = Scenario(
            f"prime_{n}",
            "../fermat.manifest#t3",
            entry="1",
            tape_blocks=(n,),
            head=("block", 0, "left"),
            limits=RunLimits(max_steps=10**7),
            expect=OracleExpect("prime", (n,)),
        )
        r = run_scenario(s, resolver)
        assert r.passed, (n, r.line())
        assert is_prime(13) and not is_prime(9)


def test_a_square_oracle_computes_no_other_oracle(resolver, monkeypatch):
    # F_28 alone takes seconds, and F_34 does not fit in memory
    def refuse(x):
        raise AssertionError("a square scenario computed another oracle")

    monkeypatch.setattr(oracles, "fermat_number", refuse)
    monkeypatch.setattr(oracles, "factorial_plus_one", refuse)
    s = Scenario("square_4", "../fermat.manifest#t2", entry="0", tape_blocks=(4,),
                 head=("block", 0, "left"), limits=RunLimits(max_steps=10**5),
                 expect=OracleExpect("square", (4,)))
    r = run_scenario(s, resolver)
    assert r.passed, r.line()


def test_square_check_sweep_matches_oracle(resolver):
    """The odd-subtraction stage agrees with the perfect-square oracle on
    every s in 25..200 under its shipped entry conditions."""
    from beaverkit.harness import OracleExpect

    for s in range(25, 201):
        scn = Scenario(
            f"sweep_{s}",
            "../brocard.manifest",
            entry="b.As",
            tape_blocks=(s,),
            head=("block", 0, "left"),
            limits=RunLimits(max_steps=10**7),
            expect=OracleExpect("brocard", (s,)),
        )
        r = run_scenario(scn, resolver)
        assert r.passed, (s, r.line())


@pytest.mark.parametrize("k", [2, 3])
def test_transfer_profile_gathers_every_leg(k):
    # only the first leg reads A; the later legs loop B -> C -> B
    m = Machine("legs", "A", {
        "A": (Action(1, 1, "B"), None),
        "B": (Action(0, 1, "C"), None),
        "C": (Action(0, 1, "B"), None),
    })
    scn = Scenario("legs", "unused", expect=TransferExpect("B", occurrence=k))
    profile: set = set()
    out = execute_scenario(scn, m, profile=profile)
    kind, trail = stepped_run(m, Configuration("A", Tape()), 1000, ("B",), k)
    assert (out.kind, out.steps) == (kind, trail[-1].steps) == (WATCH, 2 * k - 1)
    assert profile == read_profile(m, kind, trail) == {("A", 0), ("B", 0), ("C", 0)}
