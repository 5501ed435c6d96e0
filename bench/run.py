"""beaverkit benchmark: time to verdict end to end, per-layer figures traced.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; beaverkit is imported from
``src/``, with nothing installed.  Workloads are described in
``bench/workloads.py`` and ``BENCHMARK.json``.  Each run is one process
with one thread:

1. The workload is set up in this process and run pass after pass while
   another pass fits in ``--seconds`` (at least once).  Each pass times
   its calls one by one (one scenario, one comparison, one machine).  On
   a shared host the speed of a vCPU halves for seconds to minutes at a
   time, which moved a run's median pass by 15-67 % between runs and even
   a run's fastest pass by 20 %.  So each call is gauged: a fixed
   calibration slice of the benchmark's own pure-Python work is timed
   just before it, just after it and every 20 ms during it (see
   ``workloads.guarded``).  The call and the slice slow down together, so
   the call's time over the slices' mean time held within a few per cent
   across runs.  That ratio times ``CALIBRATION_REFERENCE_S`` is the
   call's time on the reference host; ``wall_s`` and ``cpu_s`` add up each
   call's median of it over the passes.  A change in beaverkit's speed
   moves them in proportion; the host's speed does not.  Every verdict is
   checked against its known answer.
2. Set-up is timed in fresh interpreters (``bench/probe_setup.py``), one
   at a time between passes, so each sample pays the import a user pays;
   it is gauged the same way, and ``setup_s`` is the median of at least
   nine samples.
3. With ``--trace 1``, half the time goes to untraced passes and half to
   traced units, each a traced set-up plus one pass.  Per-layer metrics are
   medians over the units (the lower middle value, so counts stay whole;
   the cycle detector's memory peak comes from one extra unit under
   tracemalloc), and ``trace.overhead_s`` is the traced minus the untraced
   ``wall_s``, both computed as above.  The first unit's spans (id, name,
   start, end, parent id) are written to ``.bench_out/trace-<workload>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``correct_ratio``
is the share of verdicts that agree with the known answer (1 minus the
failed ratio; a crash is a failure), reported that way so the metric is
never 0.
"""

from __future__ import annotations

import argparse
import json
import pickle
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 9
# The scale of the timings: the calibration slice's time on the reference
# host, chosen so that ``wall_s`` came within about 10 % of the sum of each
# call's fastest real time on one vCPU of a shared 2.0 GHz Xeon.
CALIBRATION_REFERENCE_S = 140e-6
PROBE_TIMEOUT_S = 60


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def reference_s(call, column=0) -> float:
    """A call's wall (column 0) or CPU (1) seconds on the reference host."""
    return CALIBRATION_REFERENCE_S * call[column] / call[column + 2]


def probe_setup(workload: str, payload: bytes) -> tuple[float, float]:
    """(import_s, setup_s) of one set-up in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "probe_setup.py"), workload],
        input=payload, capture_output=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        fail(f"set-up probe failed:\n{proc.stderr.decode(errors='replace')}")
    sample = json.loads(proc.stdout.splitlines()[-1])
    import_s = reference_s(sample["import"])
    return import_s, import_s + reference_s(sample["setup"])


def one_pass(workload, state, known, verdicts):
    """(wall, CPU) seconds of each call of one pass; verdicts are judged after."""
    times = []
    outputs = workload.iterate(state, times)
    workload.check(known, outputs, verdicts)
    return times


def per_call_total(passes, column):
    """Seconds of one pass on the reference host, for wall (0) or CPU (1) time.

    The sum over a pass's calls of each call's median across passes.
    """
    if len({len(times) for times in passes}) != 1:
        fail("passes made different numbers of calls")
    return sum(statistics.median(reference_s(times[i], column) for times in passes)
               for i in range(len(passes[0])))


def time_left(start, seconds, passes):
    """Whether another pass, as long as the median so far, fits in `seconds`."""
    if not passes:
        return True
    # Each call's wall time plus the two calibration slices around it.
    median = statistics.median(sum(call[0] + 2 * call[2] for call in times) for times in passes)
    return time.perf_counter() - start + median <= seconds


def untraced(workload, inputs, known, verdicts, seconds):
    """Per-call timings of each pass, and set-up probes.

    The probes are spread over the run, between passes, so that they see
    the same host as the passes do.
    """
    payload = pickle.dumps(inputs)
    state = workload.setup(inputs)
    passes, probes = [], []
    start = time.perf_counter()
    while time_left(start, seconds, passes):
        if len(probes) < SETUP_PROBES * (time.perf_counter() - start) / seconds + 1:
            probes.append(probe_setup(workload.name, payload))
        passes.append(one_pass(workload, state, known, verdicts))
    while len(probes) < SETUP_PROBES:
        probes.append(probe_setup(workload.name, payload))
    return passes, probes


def traced(workload, inputs, known, verdicts, seconds):
    """Per-layer metrics of the traced units, their per-call timings, and the spans.

    If the units ran cycle checks, one more unit measures the detector's
    tracemalloc peak; it is kept out of the timings.
    """
    from tracer import Tracer, layer_metrics

    tracer = Tracer()
    tracer.install()
    setup = tracer.wrap(workload.setup, "bench.setup")
    iterate = tracer.wrap(workload.iterate, "bench.pass")
    units, passes, spans = [], [], []

    def unit():
        state = setup(inputs)
        times = []
        outputs = iterate(state, times)
        spans.append(tracer.take())
        workload.check(known, outputs, verdicts)
        return layer_metrics(spans[-1]), times

    start = time.perf_counter()
    try:
        while time_left(start, seconds, passes):
            metrics, times = unit()
            units.append(metrics)
            passes.append(times)
        if units[0].get("engine.cycle.runs"):
            tracer.measure_memory = True
            peak = unit()[0]["engine.cycle.peak_mb"]
            for metrics in units:
                metrics["engine.cycle.peak_mb"] = peak
    finally:
        tracer.uninstall()
    return units, passes, spans


def write_spans(name: str, spans: list[list]) -> None:
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    with open(out / f"trace-{name}.jsonl", "w") as f:
        for sid, (span_name, start, end, parent, _) in enumerate(spans):
            f.write(json.dumps([sid, span_name, start, end, parent]) + "\n")


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "beaverkit" / "__init__.py").is_file():
        fail(f"no beaverkit sources under {ROOT / 'src'}; run from a source checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]

    units = declared_units(args.trace)
    inputs = workload.prepare(args.seed)
    known = workload.known(inputs)
    import beaverkit.cli  # noqa: F401  (imported here, off the clock, for every pass)

    import beaverkit

    if not Path(beaverkit.__file__).resolve().is_relative_to(ROOT / "src"):
        fail(f"beaverkit imported from {beaverkit.__file__}, not from this checkout")

    verdicts = workloads.Verdicts()
    share = args.seconds / 2 if args.trace else args.seconds
    passes, probes = untraced(workload, inputs, known, verdicts, share)
    import_s = statistics.median(p[0] for p in probes)
    setup_s = statistics.median(p[1] for p in probes)
    if args.trace:
        per_unit, traced_passes, spans = traced(workload, inputs, known, verdicts, share)
        write_spans(args.workload, spans[0])
        undeclared = set().union(*per_unit) - units.keys()
        if undeclared:
            fail(f"per-layer metrics missing from BENCHMARK.json: {sorted(undeclared)}")
        values = {name: statistics.median_low(u.get(name, 0) for u in per_unit)
                  for name in units}
        values["cli.import_s"] = import_s
        values["trace.overhead_s"] = (per_call_total(traced_passes, 0)
                                      - per_call_total(passes, 0))
    else:
        values = {
            "setup_s": setup_s,
            "wall_s": per_call_total(passes, 0),
            "cpu_s": per_call_total(passes, 1),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "correct_ratio": (verdicts.attempted - verdicts.failed) / verdicts.attempted,
        }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    for message in verdicts.messages[:20]:
        print(f"bench: wrong verdict: {message}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"passes {len(passes)} verdicts {verdicts.attempted} failed {verdicts.failed}")
    print(json.dumps({
        "correct": verdicts.failed == 0,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
