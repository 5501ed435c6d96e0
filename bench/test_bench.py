"""Self-checks of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest bench/test_bench.py

They show that a wrong known answer or a crash is counted as a failed
verdict without aborting the run, that the exact per-layer counts repeat
between traced runs, that the reference simulator agrees with a plain
dictionary-based cycle search, and that the benchmark refuses to run
without the sources.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import refsim  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

EXACT_COUNTS = (
    "engine.steps", "machine.compile_calls", "optimize.suite_passes",
    "optimize.lockstep_steps", "bb.tally.halt", "bb.tally.cycle",
    "bb.tally.translated", "bb.tally.no_halt_rule",
)


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def checkout_copy(tmp_path, with_sources=True):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if with_sources:
        shutil.copytree(ROOT / "src", tmp_path / "src",
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return tmp_path


def one_pass(workload, known):
    verdicts = workloads.Verdicts()
    inputs = workload.prepare(1)
    state = workload.setup(inputs)
    workload.check(known(inputs), workload.iterate(state, []), verdicts)
    return verdicts


def test_corrupted_step_count_fails_one_verdict():
    w = workloads.WORKLOADS["suites"]

    def corrupted(inputs):
        known = w.known(inputs)
        known["brocard"]["factorial_stage_3"] += 1
        return known

    verdicts = one_pass(w, corrupted)
    assert (verdicts.attempted, verdicts.failed) == (116, 1)
    assert "factorial_stage_3" in verdicts.messages[0]


def test_corrupted_reference_answers_fail_without_crashing():
    w = workloads.WORKLOADS["small-machines"]

    def corrupted(inputs):
        known = w.known(inputs)
        halted, steps, *rest = known["runs"][0]
        known["runs"][0] = (halted, steps + 1, *rest)
        kind, steps, first, period = known["cycles"][-1]
        known["cycles"][-1] = (kind, steps - 1, first, period)
        return known

    verdicts = one_pass(w, corrupted)
    assert verdicts.failed == 2
    assert verdicts.attempted > 500


def test_crash_counts_as_failed_verdicts(monkeypatch):
    from beaverkit import harness

    def crash(*args):
        raise RuntimeError("injected")

    monkeypatch.setattr(harness, "run_suite", crash)
    w = workloads.WORKLOADS["suites"]
    verdicts = one_pass(w, w.known)
    assert verdicts.attempted == verdicts.failed == 116


def test_corrupted_known_answer_reported_by_the_command(tmp_path):
    copy = checkout_copy(tmp_path)
    answers = copy / "bench" / "expected" / "brocard.txt"
    answers.write_text(answers.read_text().replace("steps=54", "steps=55"))
    out = result(bench("--workload", "suites", "--seed", "1", "--seconds", "1",
                       "--trace", "0", cwd=copy))
    assert out["correct"] is False
    assert out["failed"] >= 1
    assert out["metrics"]["correct_ratio"]["value"] == 1 - out["failed"] / out["attempted"]


@pytest.mark.parametrize("workload, seeds", [
    ("suites", ("1", "2")),
    ("optimize-sound", ("1", "2")),
    ("optimize-divergent", ("1", "2")),
    ("small-machines", ("3", "3")),
])
def test_exact_counts_repeat_between_traced_runs(workload, seeds):
    runs = [result(bench("--workload", workload, "--seed", seed, "--seconds", "1",
                         "--trace", "1"))["metrics"] for seed in seeds]
    for name in EXACT_COUNTS:
        assert runs[0][name]["value"] == runs[1][name]["value"], name


def test_exits_nonzero_without_sources(tmp_path):
    proc = bench("--workload", "suites", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=checkout_copy(tmp_path, with_sources=False))
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_uninstall_restores_every_binding():
    from beaverkit import engine, harness, optimize
    from beaverkit.tape import Tape

    before = (engine.run, harness.run, optimize.run, engine.compile_machine,
              Tape.grow, harness.MachineResolver.__call__, harness.execute_scenario)
    tracer = Tracer()
    tracer.install()
    assert harness.run is not before[1]
    tracer.uninstall()
    after = (engine.run, harness.run, optimize.run, engine.compile_machine,
             Tape.grow, harness.MachineResolver.__call__, harness.execute_scenario)
    assert all(a is b for a, b in zip(before, after))


def dict_first_repeat(prog, max_steps):
    """Straightforward store-every-configuration search, for comparison."""
    sim = refsim.Sim(prog, max_steps)
    seen = {}
    while sim.steps < max_steps:
        key = sim.key()
        if key in seen:
            return ("cycle", sim.steps, seen[key], sim.steps - seen[key])
        seen[key] = sim.steps
        sim.step()
        if sim.halted:
            return ("halted", sim.steps, None, None)
    return ("step_limit", max_steps, None, None)


def test_brent_reference_matches_dictionary_search():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(1, 4)
        prog = workloads._random_program(rng, n, self_loops=True)
        assert refsim.first_repeat(prog, 150) == dict_first_repeat(prog, 150), prog
