import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import beaverkit
from beaverkit.bb import machine_label
from beaverkit.cli import dispatch
from beaverkit.data import data_path
from beaverkit.harness import load_scenarios
from beaverkit.optimize import profile_reads, propose_merges
from beaverkit.tables import build_machine, parse_table
from test_compose import SECOND, manifest_with_a_second


# a 4-state ring writing 1s rightward forever
SPIN4 = "!name spin4\n!start A\nA|0|1|R|B\nB|0|1|R|C\nC|0|1|R|D\nD|0|1|R|A\n"
SPIN4_LABEL = machine_label(build_machine(parse_table(SPIN4)))


def run_cli(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_published_brocard_exits_1(capsys):
    code, out, _ = run_cli(capsys, "validate", str(data_path("brocard.tbl")))
    assert code == 1
    assert "conflicting_transition state As" in out
    assert "conflicting_transition state Pf" in out
    assert "conflicting_transition state Ss" in out


def test_validate_with_overlay_exits_0(capsys):
    code, out, _ = run_cli(
        capsys,
        "validate",
        str(data_path("brocard.tbl")),
        "--overlay",
        str(data_path("brocard.overlay")),
    )
    assert code == 0
    assert "0 errors" in out


def test_bb_lookup_4(capsys):
    code, out, _ = run_cli(capsys, "bb", "lookup", "4", "--deterministic")
    assert code == 0
    assert out.strip() == "107"


def test_bb_lookup_missing(capsys):
    code, out, _ = run_cli(capsys, "bb", "lookup", "9")
    assert code == 1


def test_bb_brute_1(capsys):
    code, out, _ = run_cli(capsys, "bb", "brute", "1")
    assert code == 0
    assert "bb(1) = 1" in out


def test_bb_brute_low_cap(capsys):
    code, out, _ = run_cli(capsys, "bb", "brute", "2", "--cap", "3")
    assert code == 1
    assert "inconclusive" in out


def test_bb_certify(capsys, tmp_path):
    table = tmp_path / "spin4.tbl"
    table.write_text(SPIN4)
    code, out, _ = run_cli(capsys, "bb", "certify", str(table), "--steps", "108")
    assert code == 0
    assert "basis bb-bound n=4 value=107" in out
    code, out, _ = run_cli(capsys, "bb", "certify", str(table), "--steps", "100")
    assert code == 1


@pytest.mark.parametrize("basis, code", [
    ("basis bb-bound n=4 value=107", 0),
    ("basis bb-bound n=4 value=100", 1),
    ("basis cycle first=0 period=4", 1),
    ("basis bb-bound n=4 value=x", 2),
    ("basis sideways", 2),
    ("basis cycle first period=4", 2),
])
def test_bb_replay_exit_codes(capsys, tmp_path, basis, code):
    # holds, refused by the replay, malformed file
    table = tmp_path / "spin4.tbl"
    table.write_text(SPIN4)
    cert = tmp_path / "spin4.cert"
    cert.write_text(f"certificate nonhalt\nmachine {SPIN4_LABEL}\nsteps 108\n{basis}\n")
    got, out, err = run_cli(capsys, "bb", "replay", str(table), str(cert))
    assert got == code
    if code == 0:
        assert out.startswith("holds:")
    elif code == 1:
        assert out.startswith("refused:")
    else:
        assert err.startswith(f"error: {cert}:")


@pytest.mark.parametrize("machine, steps", [
    ("someone-else", 1),
    ("someone-else", 108),
    pytest.param("spin4", 108, id="spin4-no-digest-108"),
    pytest.param(SPIN4_LABEL, 1, id="spin4-1"),
    pytest.param(SPIN4_LABEL, 107, id="spin4-107"),
])
def test_bb_replay_refuses_another_run(capsys, tmp_path, machine, steps):
    # the certificate must carry the replayed machine's label, name and
    # table digest, and a run past the bound
    table = tmp_path / "spin4.tbl"
    table.write_text(SPIN4)
    cert = tmp_path / "spin4.cert"
    cert.write_text(
        f"certificate nonhalt\nmachine {machine}\nsteps {steps}\nbasis bb-bound n=4 value=107\n"
    )
    got, out, _ = run_cli(capsys, "bb", "replay", str(table), str(cert))
    assert got == 1 and out.startswith("refused:")


def test_bb_certify_then_replay(capsys, tmp_path):
    table = tmp_path / "mover.tbl"
    table.write_text("!name mover\n!start A\nA|0|0|R|B\nB|0|0|L|A\n")
    code, out, _ = run_cli(capsys, "bb", "certify", str(table), "--steps", "50",
                           "--cycle-check")
    assert code == 0 and "basis cycle first=0 period=2" in out
    cert = tmp_path / "mover.cert"
    cert.write_text(out)
    assert run_cli(capsys, "bb", "replay", str(table), str(cert))[0] == 0
    cert.write_text(out.replace("period=2", "period=3"))
    assert run_cli(capsys, "bb", "replay", str(table), str(cert))[0] == 1


def test_bb_replay_refuses_a_table_of_the_same_name(capsys, tmp_path):
    # both tables are named `mover`; the other one's glide also repeats
    # after the certificate's two steps, so only the table digest differs
    table = tmp_path / "mover.tbl"
    table.write_text("!name mover\n!start A\nA|0|0|R|B\nB|0|0|L|A\n")
    code, out, _ = run_cli(capsys, "bb", "certify", str(table), "--steps", "50",
                           "--cycle-check")
    assert code == 0 and out.splitlines()[1].startswith("machine mover ")
    cert = tmp_path / "mover.cert"
    cert.write_text(out)
    other = tmp_path / "other.tbl"
    other.write_text("!name mover\n!start A\nA|0|0|R|A\n")
    assert run_cli(capsys, "bb", "certify", str(other), "--steps", "50",
                   "--cycle-check")[0] == 0
    got, out, _ = run_cli(capsys, "bb", "replay", str(other), str(cert))
    assert got == 1 and out.startswith("refused:")


MOVER = "!name mover\n!start A\nA|0|0|R|B\nB|0|0|L|A\n"  # repeats every 2 steps
SPIN3 = "!name spin3\n!start A\nA|0|1|R|B\nB|0|1|R|C\nC|0|1|R|A\n"
# the BB(2) champion, which halts after 6 steps
CHAMPION = "!name champ\n!start A\nA|0|0|L|B\nA|1|0|L|HALT\nB|0|1|R|A\nB|1|1|L|B\n"


@pytest.mark.parametrize("table, machine, steps, basis, reason", [
    pytest.param(SPIN4, "spin4 0000000000000000", 108, "bb-bound n=4 value=107",
                 "it was earned on another table: spin4 0000000000000000, not spin4 ",
                 id="another-table"),
    pytest.param(SPIN4, None, 107, "bb-bound n=4 value=107",
                 "its steps 107 are not past the bound 107", id="bound-steps"),
    pytest.param(MOVER, None, 3, "cycle first=0 period=2",
                 "its steps 3 are not first + period = 2", id="cycle-steps"),
    pytest.param(SPIN4, None, 108, "bb-bound n=4 value=100",
                 "its bound n=4 value=100 is not the registry's n=4 value=107",
                 id="bound-not-registry"),
    pytest.param(SPIN3, None, 50, "bb-bound n=3 value=21",
                 "the registry holds no bound for 3 states", id="bound-unregistered"),
    pytest.param(MOVER, None, 2, "cycle first=2 period=0",
                 "first=2 period=0 is no cycle", id="first-period"),
    pytest.param(MOVER, None, 3, "cycle first=0 period=3",
                 "the configuration at step 0 does not recur at step 3", id="no-repeat"),
    pytest.param(CHAMPION, None, 9, "bb-bound n=2 value=6",
                 "the run stops (halted) at step 6, within the bound", id="halts-in-bound"),
    pytest.param(CHAMPION, None, 9, "cycle first=3 period=6",
                 "the run stops (halted) at step 6, before step 9", id="halts-in-cycle"),
    # halts into an exit name before the first visit, so nothing is rerun from there
    pytest.param("!name ext\n!start A\nA|0|1|R|X\n", None, 5, "cycle first=3 period=2",
                 "the run stops (halted) at step 1, before step 5", id="exits-before-first"),
])
def test_bb_replay_names_the_refused_check(capsys, tmp_path, table, machine, steps, basis,
                                           reason):
    path = tmp_path / "m.tbl"
    path.write_text(table)
    machine = machine or machine_label(build_machine(parse_table(table)))
    cert = tmp_path / "m.cert"
    cert.write_text(f"certificate nonhalt\nmachine {machine}\nsteps {steps}\nbasis {basis}\n")
    got, out, _ = run_cli(capsys, "bb", "replay", str(path), str(cert))
    name = table.split("\n", 1)[0].split()[1]
    kind = "cycle" if basis.startswith("cycle") else "bb_bound"
    assert got == 1
    assert out.startswith(f"refused: the {kind} certificate does not hold for {name}: {reason}")


def test_run_reports_the_cycle_it_finds(capsys, tmp_path):
    table = tmp_path / "mover.tbl"
    table.write_text(MOVER)
    code, out, _ = run_cli(capsys, "run", str(table), "--steps", "50", "--cycle-check")
    assert code == 0
    assert {"outcome: cycle", "cycle: first visit 0, period 2"} <= set(out.splitlines())


def test_bb_replay_runs_from_the_entry_state(capsys, tmp_path):
    # from A the machine halts at once; from B it glides right forever
    table = tmp_path / "glide.tbl"
    table.write_text("!name glide\n!start A\nA|0|1|R|HALT\nB|0|0|R|B\n")
    code, out, _ = run_cli(capsys, "bb", "certify", str(table), "--steps", "50",
                           "--cycle-check", "--entry", "B")
    assert code == 0 and "basis cycle first=0 period=1" in out
    cert = tmp_path / "glide.cert"
    cert.write_text(out)
    assert run_cli(capsys, "bb", "replay", str(table), str(cert), "--entry", "B")[0] == 0
    assert run_cli(capsys, "bb", "replay", str(table), str(cert))[0] == 1


def test_run_five_step_trace_window(capsys):
    code, out, _ = run_cli(
        capsys,
        "run",
        str(data_path("brocard.manifest")),
        "--steps",
        "5",
        "--trace",
        "--window",
        "-5..1",
    )
    assert code == 0
    trace_lines = [l for l in out.splitlines() if l and l[0].isdigit()]
    assert trace_lines[-1].split("\t") == ["5", "b.Af", "-5", "0 1 1 0 1 1"]


def test_run_reports_outcome_fields(capsys):
    code, out, _ = run_cli(
        capsys,
        "run",
        str(data_path("fermat_t2.tbl")),
        "--tape-unary",
        "4",
        "--steps",
        "100000",
    )
    assert code == 0
    assert "outcome: halted" in out
    assert "halting state: NM" in out
    assert "blocks: [17]" in out
    assert "steps: 464" in out


def test_run_takes_a_section_reference(capsys):
    # the machine a scenario's `machine` line names: test_square_scenario_passes
    ref = f"{data_path('fermat.manifest')}#t2"
    code, out, _ = run_cli(capsys, "run", ref, "--entry", "0", "--tape-unary", "4")
    assert code == 0
    for line in ("outcome: halted", "steps: 464", "halting state: NM", "blocks: [17]"):
        assert line in out.splitlines()


def test_bb_certify_then_replay_a_section_reference(capsys, tmp_path):
    ref = f"{data_path('brocard.manifest')}#b"
    code, out, _ = run_cli(capsys, "bb", "certify", ref, "--entry", "Ps", "--steps", "100",
                           "--cycle-check")
    assert code == 0 and "basis cycle first=3 period=1" in out
    cert = tmp_path / "ps.cert"
    cert.write_text(out)
    code, out, _ = run_cli(capsys, "bb", "replay", ref, str(cert), "--entry", "Ps")
    assert code == 0 and out.startswith("holds:")


@pytest.mark.parametrize("command", [
    ["run"], ["optimize"], ["bb", "certify", "--steps", "10"], ["bb", "replay", "x.cert"],
], ids=["run", "optimize", "bb-certify", "bb-replay"])
def test_a_section_the_manifest_lacks_exits_2(capsys, command):
    ref = f"{data_path('fermat.manifest')}#nosuch"
    code, out, err = run_cli(capsys, *command[:2], ref, *command[2:])
    assert code == 2 and out == ""
    assert err == f"error: manifest {data_path('fermat.manifest')} has no section 'nosuch'\n"


def test_compose_writes_table(capsys, tmp_path):
    out_file = tmp_path / "fermat.tbl"
    code, _, err = run_cli(
        capsys, "compose", str(data_path("fermat.manifest")), "-o", str(out_file)
    )
    assert code == 0
    assert "# states: 92" in err
    text = out_file.read_text()
    assert "!start t1.25" in text
    assert "t3.45|1|0|R|t2.0" in text  # NM rewired to the squarer


def test_verify_suite_and_summary(capsys, tmp_path):
    summary_file = tmp_path / "summary.json"
    code, out, _ = run_cli(
        capsys,
        "verify",
        str(data_path("scenarios", "brocard.scn")),
        "--deterministic",
        "--summary",
        str(summary_file),
    )
    assert code == 0
    assert "16/16 passed" in out
    summary = json.loads(summary_file.read_text())
    assert summary["failed"] == 0 and summary["total"] == 16


def test_verify_failing_suite_exits_1(capsys, tmp_path):
    scn = tmp_path / "bad.scn"
    scn.write_text(
        f"scenario impossible\n"
        f"machine {data_path('fermat_t2.tbl')}\n"
        "entry 0\n"
        "tape unary 2\n"
        "head block 0 left\n"
        "limit steps=1000\n"
        "expect oracle square 3\n"
    )
    code, out, _ = run_cli(capsys, "verify", str(scn), "--deterministic")
    assert code == 1
    assert "FAIL impossible" in out


def test_optimize_without_scenarios_says_so(capsys):
    code, out, _ = run_cli(capsys, "optimize", str(data_path("brocard.manifest")))
    assert code == 0
    assert "structural candidates only" in out
    assert "states before: 45" in out


def test_optimize_with_scenarios_verifies_and_writes_the_plan(capsys, tmp_path, brocard_ref):
    scn, plan_file = data_path("scenarios", "brocard.scn"), tmp_path / "brocard.plan"
    code, out, _ = run_cli(capsys, "optimize", str(data_path("brocard.manifest")),
                           "--scenarios", str(scn), "-o", str(plan_file))
    assert code == 0
    assert "equivalent on all 16 scenarios, step for step" in out.splitlines()
    machine, scenarios = brocard_ref.machine, load_scenarios(scn)
    plan = propose_merges(machine, profile_reads(machine, scenarios))
    assert plan_file.read_text() == plan.serialize()


@pytest.mark.parametrize("command", [
    ["verify"],
    ["optimize", str(data_path("fermat.manifest")), "--scenarios"],
], ids=["verify", "optimize"])
def test_an_empty_scenario_file_is_refused(capsys, tmp_path, command):
    scn = tmp_path / "empty.scn"
    scn.write_text("# no scenario here\n")
    code, out, err = run_cli(capsys, *command, str(scn))
    assert code == 2 and out == ""
    assert err == f"error: {scn}: holds no scenario\n"


def test_a_scenario_name_used_twice_exits_2(capsys, tmp_path):
    scn, table = tmp_path / "twice.scn", data_path("fermat_t2.tbl")
    scn.write_text(f"scenario s\nmachine {table}\nexpect nothalt\n\n"
                   f"scenario s\nmachine {table}\nexpect nothalt\n")
    code, out, err = run_cli(capsys, "verify", str(scn))
    assert code == 2 and out == ""
    assert err == f"error: {scn}:5: scenario 's' is named twice\n"


def test_usage_errors_exit_2(capsys):
    assert dispatch(["frobnicate"]) == 2
    assert dispatch(["run"]) == 2
    assert dispatch(["run", "/nonexistent/file.tbl"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("budget", [["--steps", "20", "--cells", "0"], ["--steps", "-5"]])
def test_run_refuses_out_of_range_budgets(capsys, budget):
    code, out, err = run_cli(capsys, "run", str(data_path("brocard.manifest")), *budget)
    assert code == 2 and out == ""
    assert err.startswith("error: max_")


def test_deterministic_output_is_reproducible(capsys):
    args = ["verify", str(data_path("scenarios", "brocard.scn")), "--deterministic"]
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


@pytest.mark.parametrize("suite", ["fermat_sections", "fermat_composed", "brocard"])
def test_shipped_suite_report_matches_bench_expected(capsys, suite):
    # the benchmark's known answers: every verdict and step count, byte for byte
    expected = Path(__file__).resolve().parents[1] / "bench" / "expected" / f"{suite}.txt"
    scn = data_path("scenarios", f"{suite}.scn")
    code, out, _ = run_cli(capsys, "verify", str(scn), "--deterministic")
    assert code == 0
    assert out.encode() == expected.read_bytes()


@pytest.mark.parametrize("bad_line", [
    "scenario",
    "machine",
    "head block 0",
    "expect oracle prime",
    "expect oracle nosuch 3",
    "tape unary 0",
    "head block 1 left",
    pytest.param("head block 0 left\ntape blank", id="head block on a blank tape"),
    "scenario no_machine",
    "expect transfer 5@0",
    "expect snapshot 3..1",
    "expect snapshot 0..2 1",
    "expect snapshot 0..2 2 5",
    "tape window 0 1 2 1",
    "limit steps=0",
    "limit steps=10 cells=-1",
])
def test_malformed_scenario_line_exits_2(capsys, tmp_path, bad_line):
    scn = tmp_path / "bad.scn"
    scn.write_text(
        f"scenario ok\n"
        f"machine {data_path('fermat_t2.tbl')}\n"
        "tape unary 2\n"
        f"{bad_line}\n"
    )
    code, out, err = run_cli(capsys, "verify", str(scn))
    assert code == 2
    assert f"error: {scn}:4: " in err
    assert out == ""


def test_error_in_a_nested_file_names_that_file(capsys, tmp_path):
    # scenario -> manifest -> table: the message points at the table's line
    (tmp_path / "bad.tbl").write_text("A|0|1|R\n")
    (tmp_path / "m.manifest").write_text("section a bad.tbl start=A\nentry a.A\n")
    scn = tmp_path / "s.scn"
    scn.write_text("scenario s\nmachine m.manifest\nexpect nothalt\n")
    code, out, err = run_cli(capsys, "verify", str(scn))
    assert code == 2
    assert err == f"error: {tmp_path}/bad.tbl:1: expected 5 pipe-separated fields, got 4\n"
    assert out == ""


@pytest.mark.parametrize("directive", sorted(SECOND))
def test_a_second_manifest_declaration_exits_2(capsys, tmp_path, directive):
    path = manifest_with_a_second(tmp_path, directive)
    code, out, err = run_cli(capsys, "compose", str(path), "-o", str(tmp_path / "out.tbl"))
    assert code == 2 and out == ""
    assert err == f"error: {path}:4: {SECOND[directive][1]}\n"
    assert not (tmp_path / "out.tbl").exists()


@pytest.mark.parametrize("ref, message", [
    pytest.param(f"{data_path('fermat.manifest')}#nosuch", "has no section 'nosuch'",
                 id="missing section"),
    pytest.param("nosuch.tbl", "No such file or directory", id="missing file"),
])
def test_bad_machine_reference_fails_before_any_scenario_runs(capsys, tmp_path, ref, message):
    scn = tmp_path / "s.scn"
    scn.write_text(
        f"scenario first\nmachine {data_path('fermat_t2.tbl')}\ntape unary 2\nexpect nothalt\n\n"
        f"scenario second\nmachine {ref}\nexpect nothalt\n"
    )
    code, out, err = run_cli(capsys, "verify", str(scn))
    assert code == 2
    assert err.startswith(f"error: {scn}:7: ") and message in err
    assert out == ""


# machines counted by the verdict of the tree leaf that covers them.  A
# closure does not depend on the cap; only runs reach it, and only where
# CPS did not close: none at n = 1 under cap 2, 528 machines at n = 2 under 3
BRUTE_TALLY = "tally: {'halt': 9784, 'closed': 10776, 'no_halt_rule': 176}"
BRUTE_ONE = ("bb(1) = 1\nchampion: 0LH0LA\n"
             "machines: 64 tally: {'halt': 32, 'closed': 32, 'no_halt_rule': 0}\n")
BRUTE_OUTPUT = {
    "1": (0, BRUTE_ONE),
    "2": (0, f"bb(2) = 6\nchampion: 0LB0LH1RA1LB\nmachines: 20736 {BRUTE_TALLY}\n"),
    "2 --cap 10": (0, f"bb(2) = 6\nchampion: 0LB0LH1RA1LB\nmachines: 20736 {BRUTE_TALLY}\n"),
    "2 --cap 3": (1, "inconclusive: 528 machines neither halted nor were proven non-halting "
                     "within 3 steps; raise the cap\n"),
    "1 --cap 2": (0, BRUTE_ONE),
}


@pytest.mark.parametrize("argv", BRUTE_OUTPUT)
def test_bb_brute_output(capsys, argv):
    assert run_cli(capsys, "bb", "brute", *argv.split())[:2] == BRUTE_OUTPUT[argv]


def test_bb_brute_mirror_is_an_unknown_option(capsys):
    code, out, err = run_cli(capsys, "bb", "brute", "2", "--mirror")
    assert code == 2 and out == ""
    assert "unrecognized arguments: --mirror" in err


def test_cli_import_loads_no_subcommand_module():
    # each command imports what it uses: the bare import pays for none of them
    src = Path(beaverkit.__file__).resolve().parents[1]
    code = ("import sys, beaverkit.cli; "
            "print(sorted({'beaverkit.bb', 'beaverkit.optimize', 'beaverkit.harness'} "
            "& set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert out.stdout.strip() == "[]"
