"""Span recorder for the traced run, and the per-layer metrics derived from it.

The tracer wraps public beaverkit functions at the names their callers look
them up by (``harness.run``, ``optimize.run`` and ``bb.run`` are separate
bindings of ``engine.run``; ``run`` itself reaches ``compile_machine``
through ``engine``'s globals; ``optimize`` imports
``harness.execute_scenario`` lazily, so the ``harness`` attribute is the
one to patch).  Each call records a span ``[name, start, end, parent,
note]`` in memory.  Nothing under ``src/`` is touched, and an untraced run
installs no wrapper at all.

A layer is the prefix of a span name before the first dot.  A span's self
time is its duration minus the durations of its direct children; a
layer's time is the sum of its spans' self times, and its call count is
the number of spans entered from outside the layer.
"""

from __future__ import annotations

import collections
import functools
import time
import tracemalloc

MB = float(1 << 20)

NAME, START, END, PARENT, NOTE = range(5)

OPTIMIZE_STAGES = {
    "optimize.profile_reads": "optimize.profile_s",
    "optimize.propose_merges": "optimize.propose_s",
    "optimize.apply_merges": "optimize.apply_s",
    "optimize.verify_merge": "optimize.verify_merge_s",
}


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs.get(key)


def _is_cycle_run(args, kwargs):
    limits = _arg(args, kwargs, 2, "limits")
    return bool(limits is not None and limits.cycle_check)


def _note_run(args, kwargs, outcome):
    """[loop, cycle check, steps credited by this call, memory peak] of a run.

    `cycle_check` and `trace` force the per-step (plain) loop.
    """
    config = _arg(args, kwargs, 1, "config")
    cycle = _is_cycle_run(args, kwargs)
    plain = cycle or kwargs.get("trace") is not None
    start = config.steps if config is not None else 0
    return ["plain" if plain else "skip", cycle, outcome.steps - start, 0]


def _note_verdict(args, kwargs, verdict):
    bad = [c for c in verdict.comparisons if not c.equivalent]
    located = sum(1 for c in bad if c.first_divergence is not None)
    return (len(verdict.comparisons), len(bad), located)


def _note_brute(args, kwargs, result):
    return (result.total_machines, dict(result.tally))


def _note_truth(args, kwargs, result):
    return bool(result)


class Tracer:
    """Records spans around patched functions while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        # tracemalloc slows every allocation, so peaks are taken in a unit
        # of their own and the timed units run without it
        self.measure_memory = False

    def wrap(self, fn, name, note=None, memory_if=None):
        """`fn` recording a span named `name`.

        `note(args, kwargs, result)` attaches a value to the span; while
        `measure_memory` is set, `memory_if(args, kwargs)` selects calls
        whose tracemalloc peak is stored as the last element of that note.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            sid = len(spans)
            spans.append(span)
            stack.append(sid)
            measure = (tracer.measure_memory and memory_if is not None
                       and memory_if(args, kwargs))
            if measure:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            finally:
                if measure:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                span[END] = clock()
                stack.pop()
            if note is not None:
                span[NOTE] = note(args, kwargs, result)
                if measure:
                    span[NOTE][-1] = peak
            return result

        return traced

    def patch(self, owner, attr, name, **kw):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, **kw))

    def install(self):
        from beaverkit import bb, compose, engine, harness, optimize, oracles, tables
        from beaverkit.tape import Tape

        for owner, attr in ((tables, "parse_table"), (tables, "parse_overlay"),
                            (tables, "apply_overlay"), (compose, "load_table"),
                            (compose, "load_overlay"), (compose, "apply_overlay"),
                            (compose, "build_machine"), (harness, "load_table"),
                            (harness, "build_machine")):
            self.patch(owner, attr, f"tables.{attr}")
        for owner, attr in ((compose, "load_manifest"), (compose, "parse_manifest"),
                            (compose, "compose"), (harness, "load_manifest"),
                            (harness, "compose")):
            self.patch(owner, attr, f"compose.{attr}")
        self.patch(engine, "compile_machine", "machine.compile_machine")
        for owner in (engine, harness, optimize, bb):
            self.patch(owner, "run", "engine.run", note=_note_run,
                       memory_if=_is_cycle_run)
        self.patch(Tape, "grow", "tape.grow")
        self.patch(Tape, "blocks", "tape.blocks")
        for attr in ("is_prime", "fermat_number", "factorial_plus_one",
                     "is_perfect_square", "encode_tape"):
            self.patch(oracles, attr, f"oracles.{attr}")
        self.patch(harness, "run_scenario", "harness.run_scenario")
        self.patch(harness, "execute_scenario", "harness.execute_scenario")
        self.patch(harness.MachineResolver, "__call__", "harness.resolve")
        for attr in ("profile_reads", "propose_merges", "apply_merges"):
            self.patch(optimize, attr, f"optimize.{attr}")
        self.patch(optimize, "verify_merge", "optimize.verify_merge", note=_note_verdict)
        self.patch(bb, "brute_force_bb", "bb.brute_force_bb", note=_note_brute)
        self.patch(bb, "certify_nonhalt", "bb.certify_nonhalt", note=_note_truth)
        self.patch(bb, "replay_certificate", "bb.replay_certificate", note=_note_truth)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def take(self) -> list[list]:
        """The spans recorded so far; recording starts afresh."""
        spans = list(self.spans)
        self.spans.clear()  # in place: the wrappers hold this list
        self._stack.clear()
        return spans


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced unit; a metric with no spans is absent."""
    n = len(spans)
    dur = [s[END] - s[START] for s in spans]
    children: list[list[int]] = [[] for _ in range(n)]
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]].append(i)
    self_t = [dur[i] - sum(dur[c] for c in children[i]) for i in range(n)]
    layer = [s[NAME].split(".", 1)[0] for s in spans]

    m: dict[str, float] = collections.defaultdict(int)
    for i, (name, _, _, p, note) in enumerate(spans):
        lay = layer[i]
        parent = spans[p][NAME] if p >= 0 else None
        if lay in ("tables", "compose", "oracles"):
            m[f"{lay}.s"] += self_t[i]
            if parent is None or layer[p] != lay:
                m[f"{lay}.calls"] += 1
        elif name == "harness.resolve":
            m["harness.resolve_calls"] += 1
            m["harness.resolve_builds"] += 1 if children[i] else 0
            m["harness.resolve_s"] += dur[i]
        elif name in ("harness.run_scenario", "harness.execute_scenario"):
            m["harness.self_s"] += self_t[i]
            if name == "harness.run_scenario":
                m["harness.scenarios"] += 1
            elif layer[p] == "optimize":
                m["optimize.executes"] += 1
        elif name == "machine.compile_machine":
            m["machine.compile_calls"] += 1
            m["machine.compile_s"] += dur[i]
        elif name == "engine.run":
            loop, cycle, steps, peak = note
            for prefix in ("engine", f"engine.{loop}"):
                m[f"{prefix}.runs"] += 1
                m[f"{prefix}.steps"] += steps
                m[f"{prefix}.run_s"] += self_t[i]
            if cycle:
                m["engine.cycle.runs"] += 1
                m["engine.cycle.s"] += self_t[i]
                m["engine.cycle.peak_mb"] = max(m["engine.cycle.peak_mb"], peak / MB)
            if parent == "optimize.verify_merge":
                m["optimize.lockstep_runs"] += 1
        elif name == "tape.grow":
            m["tape.grow_calls"] += 1
            m["tape.grow_s"] += dur[i]
        elif name == "tape.blocks":
            m["tape.blocks_s"] += self_t[i]
        elif name in OPTIMIZE_STAGES:
            m[OPTIMIZE_STAGES[name]] += dur[i]
            if name == "optimize.verify_merge":
                compared, divergent, located = note
                m["optimize.compared"] += compared
                m["optimize.divergent"] += divergent
                m["optimize.located"] += located
                m["optimize.divergence_s"] += dur[i] - sum(
                    dur[c] for c in children[i]
                    if spans[c][NAME] == "harness.execute_scenario")
        elif name == "bb.brute_force_bb":
            total, tally = note
            m["bb.brute_machines"] += total
            m["bb.brute_s"] += dur[i]
            for kind in ("halt", "cycle", "translated", "no_halt_rule"):
                m[f"bb.tally.{kind}"] += tally.get(kind, 0)
        elif name == "bb.certify_nonhalt":
            m["bb.certify_s"] += dur[i]
            m["bb.certificates"] += 1 if note else 0
        elif name == "bb.replay_certificate":
            m["bb.replay_s"] += dur[i]
            m["bb.replays"] += 1
            m["bb.replays_ok"] += 1 if note else 0

    # each co-simulated step runs both machines once
    m["optimize.lockstep_steps"] = m.pop("optimize.lockstep_runs", 0) // 2
    for loop in ("engine", "engine.skip", "engine.plain"):
        m[f"{loop}.steps_per_s"] = _rate(m[f"{loop}.steps"], m[f"{loop}.run_s"])
    # execute_scenario calls per scenario verified, per machine
    m["optimize.suite_passes"] = _rate(m.pop("optimize.executes", 0), m.pop("optimize.compared", 0))
    m["optimize.lockstep_us_per_step"] = 1e6 * _rate(
        m["optimize.divergence_s"], m["optimize.lockstep_steps"])
    m["optimize.located_ratio"] = _rate(m["optimize.located"], m["optimize.divergent"])
    m["bb.machines_per_s"] = _rate(m.pop("bb.brute_machines", 0), m["bb.brute_s"])
    m["bb.replay_ok_ratio"] = _rate(m.pop("bb.replays_ok", 0), m.pop("bb.replays", 0))
    return dict(m)


def _rate(num, den):
    return num / den if den else 0.0
