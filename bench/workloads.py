"""The benchmark's four workloads, their inputs and their known answers.

Every workload goes through the same four steps:

* ``prepare(seed)``: the benchmark's own input generation (untimed, no
  beaverkit import);
* ``known(inputs)``: the known answers, from the benchmark's own files or
  its reference simulator, never from the code under test;
* ``setup(inputs)``: what a user pays before the first verdict, after
  importing ``beaverkit.cli``: load, overlay and compose every machine;
* ``iterate(state, times)``: one pass of the user's work through public
  beaverkit functions.  Each call that yields verdicts is guarded: it is
  timed into ``times``, and a crash becomes failed verdicts, not an abort.
  The calls are small (one scenario, one comparison, one machine), and
  each is gauged against the host's speed while it runs, so that its
  timings can filter out a noisy host (see ``run.py``);
* ``check(known, outputs, verdicts)``: compare every verdict with its
  known answer (untimed).

Which layers each workload should move, and which it should leave idle:

==================  ===========================================  =========================
workload            moves                                        leaves idle
==================  ===========================================  =========================
suites              engine skip loop, harness, tape, oracles     optimize, bb, cycle check
optimize-sound      optimize suite passes, profile set, engine   lockstep, bb
optimize-divergent  optimize lockstep (divergence location),     bb, cycle check
                    compile per step
small-machines      engine per-step floor, cycle check, bb       harness, compose, tables,
                    deciders, certificates                       oracles, optimize
==================  ===========================================  =========================
"""

from __future__ import annotations

import json
import random
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

import refsim

EXPECTED = Path(__file__).resolve().parent / "expected"

SUITES = ("fermat_sections", "fermat_composed", "brocard")

# The small-machines workload.  Its pass time must not depend on the seed,
# so its cost sits in machines whose cost is fixed by the budget: STEPPERS
# machines with no literal self-loop (the skipping loop executes every step
# singly, the per-step floor) that run the whole RUN_STEPS.  HALTERS
# machines halt within the budget and are cheap.  CYCLE_MACHINES of the
# steppers are rerun with cycle detection at a small budget, and SPINNER at
# a budget where the detector's store shows in peak_rss_mb.
STEPPERS = 400
HALTERS = 100
RUN_STEPS = 1_000
CYCLE_MACHINES = 100
CYCLE_STEPS = 300
SPINNER_STEPS = 8_000
# Two states that write 1 and move right on every step, with no literal
# self-loop: the support grows every step and no configuration repeats, so
# the detector stores SPINNER_STEPS tapes of up to SPINNER_STEPS cells.
SPINNER = ((1, 1, 1), (1, 1, 1), (1, 1, 0), (1, 1, 0))


class Verdicts:
    """Verdicts attempted and failed, with a message per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def judge(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(what)


# A fixed slice of the benchmark's own pure-Python work (the reference
# simulator, which shares no code with beaverkit), timed just before and
# just after every guarded call and every GAUGE_INTERVAL_S of wall time
# during it, to gauge how fast the host runs while the call does.
CALIBRATION_PROGRAM = SPINNER
CALIBRATION_STEPS = 200
GAUGE_INTERVAL_S = 0.02


def calibration() -> tuple[float, float]:
    """(wall, CPU) seconds of one run of the calibration slice."""
    c0, t0 = time.process_time(), time.perf_counter()
    refsim.run(CALIBRATION_PROGRAM, CALIBRATION_STEPS)
    return time.perf_counter() - t0, time.process_time() - c0


def guarded(times, fn, *args):
    """Result of `fn(*args)`, or the exception it raised (traceback on stderr).

    Appends the call's (wall, CPU) seconds to `times`, followed by the mean
    (wall, CPU) seconds of the calibration slices run around and during it
    (from a SIGALRM handler, so the call itself is not changed).
    """
    samples = [calibration()]
    previous = signal.signal(signal.SIGALRM, lambda *_: samples.append(calibration()))
    signal.setitimer(signal.ITIMER_REAL, GAUGE_INTERVAL_S, GAUGE_INTERVAL_S)
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        return fn(*args)
    except Exception as exc:  # a crash is a failed verdict, not an abort
        traceback.print_exc(file=sys.stderr)
        return exc
    finally:
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        samples.append(calibration())
        times.append((wall, cpu, statistics.fmean(w for w, _ in samples),
                      statistics.fmean(c for _, c in samples)))


def parse_verify_output(text: str) -> dict[str, int]:
    """Scenario name -> step count from ``verify --deterministic`` output."""
    steps = {}
    for line in text.splitlines():
        parts = line.split()
        if parts and parts[0] in ("PASS", "FAIL"):
            steps[parts[1]] = int(parts[2].removeprefix("steps="))
    return steps


class Suites:
    """All three shipped suites through ``harness.run_suite`` with jobs=1,
    one call per scenario, which does the same work as one call per suite.

    The known answers ``expected/<suite>.txt`` are the output of
    ``beaverkit verify src/beaverkit/data/scenarios/<suite>.scn
    --deterministic`` at the commit that added this benchmark: every
    scenario passes, with those exact step counts.
    """

    name = "suites"

    def prepare(self, seed):
        return seed

    def known(self, seed):
        return {s: parse_verify_output((EXPECTED / f"{s}.txt").read_text())
                for s in SUITES}

    def setup(self, seed):
        import beaverkit.cli  # noqa: F401  (the import a user pays)
        from beaverkit import harness
        from beaverkit.data import data_path

        rng = random.Random(seed)
        order = list(SUITES)
        rng.shuffle(order)
        suites = []
        for suite in order:
            path = data_path("scenarios", f"{suite}.scn")
            scenarios = harness.load_scenarios(path)
            rng.shuffle(scenarios)
            resolver = harness.MachineResolver(path.parent)
            for ref in sorted({s.machine_ref for s in scenarios}):
                resolver(ref)
            suites.append((suite, scenarios, resolver))
        return harness, suites

    def iterate(self, state, times):
        harness, suites = state
        return [(suite, [guarded(times, harness.run_suite, [s], resolver, 1) for s in scenarios])
                for suite, scenarios, resolver in suites]

    def check(self, known, outputs, verdicts):
        for suite, results in outputs:
            want = known[suite]
            got = {r.name: r for result in results if not isinstance(result, Exception)
                   for r in result[0]}
            for name, steps in want.items():
                r = got.get(name)
                verdicts.judge(r is not None and r.passed and r.steps == steps,
                               f"{suite}/{name}: want PASS steps={steps}, got "
                               f"{'nothing' if r is None else r.line(deterministic=True)}")
            for name in got.keys() - want.keys():
                verdicts.judge(False, f"{suite}/{name}: not in the known answers")


class Optimize:
    """The ``beaverkit optimize`` pipeline on one or two machines.

    Each target is (label, manifest, suite, profiling subset or None for
    the whole suite); the merged machine is verified on the whole suite,
    one ``verify_merge`` call per scenario, which does the same work as one
    call over the suite.
    """

    def __init__(self, name, targets):
        self.name = name
        self.targets = targets

    def prepare(self, seed):
        return seed

    def known(self, seed):
        return json.loads((EXPECTED / "optimize.json").read_text())[self.name]

    def setup(self, seed):
        import beaverkit.cli  # noqa: F401
        from beaverkit import compose, harness, optimize
        from beaverkit.data import data_path

        rng = random.Random(seed)
        jobs = []
        for label, manifest, suite, subset in self.targets:
            machine = compose.compose(compose.load_manifest(data_path(manifest))).machine
            scenarios = harness.load_scenarios(data_path("scenarios", suite))
            rng.shuffle(scenarios)
            profiled = [s for s in scenarios if subset is None or s.name in subset]
            jobs.append((label, machine, scenarios, profiled))
        return optimize, jobs

    def iterate(self, state, times):
        optimize, jobs = state

        def merge(machine, profiled):
            profile = optimize.profile_reads(machine, profiled)
            plan = optimize.propose_merges(machine, profile)
            return plan, optimize.apply_merges(machine, plan)

        def verify(machine, merged, scenario):
            if isinstance(merged, Exception):
                raise merged
            plan, merged_machine = merged
            return optimize.verify_merge(machine, merged_machine, [scenario], plan)

        out = []
        for label, machine, scenarios, profiled in jobs:
            merged = guarded(times, merge, machine, profiled)
            out.append((label, [s.name for s in scenarios],
                        [guarded(times, verify, machine, merged, s) for s in scenarios]))
        return out

    def check(self, known, outputs, verdicts):
        for label, names, results in outputs:
            divergent = set(known[label])
            got = {c.name: c.equivalent for result in results
                   if not isinstance(result, Exception) for c in result.comparisons}
            for name in names:
                want = name not in divergent
                verdicts.judge(got.get(name) is want,
                               f"{label}/{name}: want equivalent={want}, got {got.get(name)}")


class SmallMachines:
    """Seeded random 2-5-state machines, certificates and ``bb brute 2``."""

    name = "small-machines"

    def prepare(self, seed):
        """Runs and cycle runs as (states, program, budget, reference answer)."""
        rng = random.Random(seed)
        steppers, halters = [], []
        while len(steppers) < STEPPERS or len(halters) < HALTERS:
            n = rng.randint(2, 5)
            stepper = len(steppers) < STEPPERS
            prog = _random_program(rng, n, self_loops=not stepper)
            ref = refsim.run(prog, RUN_STEPS)
            if stepper and not ref[0]:
                steppers.append((n, prog, RUN_STEPS, ref))
            elif not stepper and ref[0]:
                halters.append((n, prog, RUN_STEPS, ref))
        cycles = [(n, prog, CYCLE_STEPS) for n, prog, _, _ in steppers[:CYCLE_MACHINES]]
        cycles.append((2, SPINNER, SPINNER_STEPS))
        return {
            "runs": steppers + halters,
            "cycles": [(n, prog, steps, refsim.first_repeat(prog, steps))
                       for n, prog, steps in cycles],
        }

    def known(self, inputs):
        return {kind: [item[3] for item in inputs[kind]] for kind in ("runs", "cycles")}

    def setup(self, inputs):
        import beaverkit.cli  # noqa: F401
        from beaverkit import bb, engine

        registry = bb.default_registry()
        runs = [(bb.machine_from_program(p, n), engine.RunLimits(max_steps=steps))
                for n, p, steps, _ in inputs["runs"]]
        cycles = [(bb.machine_from_program(p, n),
                   engine.RunLimits(max_steps=steps, cycle_check=True))
                  for n, p, steps, _ in inputs["cycles"]]
        return bb, engine, registry, runs, cycles

    def iterate(self, state, times):
        bb, engine, registry, runs, cycles = state

        def judged(machine, lim):
            outcome = engine.run(machine, limits=lim)
            cert = bb.certify_nonhalt(machine, outcome, registry)
            return outcome, cert, cert is not None and bb.replay_certificate(machine, cert)

        return {
            "runs": [guarded(times, judged, m, lim) for m, lim in runs],
            "cycles": [guarded(times, judged, m, lim) for m, lim in cycles],
            "brute": guarded(times, bb.brute_force_bb, 2),
        }

    def check(self, known, outputs, verdicts):
        for i, (result, want) in enumerate(zip(outputs["runs"], known["runs"])):
            got = None
            if not isinstance(result, Exception):
                out = result[0]
                tape = out.config.tape
                lo, hi = tape.support()
                cells = bytes(tape.snapshot(lo, hi + 1))
                got = (out.kind == "halted", out.steps, out.config.state, tape.head, lo, cells)
            verdicts.judge(got == want, f"run {i}: want {want[:4]}, got {got and got[:4]}")
            self._judge_certificate(result, verdicts, f"run {i}")
        for i, (result, want) in enumerate(zip(outputs["cycles"], known["cycles"])):
            got = None
            if not isinstance(result, Exception):
                out = result[0]
                got = (out.kind, out.steps, out.first_visit, out.period)
            verdicts.judge(got == want, f"cycle run {i}: want {want}, got {got}")
            self._judge_certificate(result, verdicts, f"cycle run {i}")
        brute = outputs["brute"]
        got = None if isinstance(brute, Exception) else (brute.value, brute.total_machines)
        verdicts.judge(got == (6, 20736), f"bb brute 2: want (6, 20736), got {got}")

    @staticmethod
    def _judge_certificate(result, verdicts, what):
        if not isinstance(result, Exception) and result[1] is not None:
            verdicts.judge(result[2], f"{what}: certificate {result[1].basis} does not replay")


def _random_program(rng, n, self_loops):
    """A random n-state program; without `self_loops` no transition targets its own state."""
    prog = []
    for i in range(2 * n):
        target = rng.randrange(-1, n if self_loops else n - 1)
        if not self_loops and target >= i // 2:
            target += 1
        prog.append((rng.randrange(2), rng.choice((-1, 1)), target))
    return tuple(prog)


BROCARD_CHEAP = frozenset({
    "init_window_after_5_steps", "factorial_3_plus_1_window",
    "factorial_stage_3", "factorial_stage_4", "factorial_stage_5",
})

WORKLOADS = {w.name: w for w in (
    Suites(),
    Optimize("optimize-sound", [
        ("fermat", "fermat.manifest", "fermat_composed.scn", None),
        ("brocard", "brocard.manifest", "brocard.scn", None),
    ]),
    # Profiled on cheap scenarios, verified on the whole suite: 15 merges,
    # 12 divergent comparisons, so divergence location does most of the work.
    Optimize("optimize-divergent", [
        ("brocard", "brocard.manifest", "brocard.scn", BROCARD_CHEAP),
    ]),
    SmallMachines(),
)}
