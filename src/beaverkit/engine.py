"""Execution engine: budgeted runs, cycle detection, tracing, fingerprints.

One run loop serves every run.  It recognizes self-loop transitions
(state maps to itself on the symbol under the head) and processes the
whole uniform run of that symbol in one memchr/memset pass, crediting
the exact number of steps; everything else executes one transition per
iteration.  One scan serves both directions: only the search differs
(`find` rightward, `rfind` leftward), and the budget clamp, the fill,
the memory stop and the endless glide over blank are shared.  A fill of
1s obeys the single-step memory rule in closed form: it takes as many
cells as one transition at a time would, and no more.  Cycle detection
and tracing observe every configuration, so they turn the scan off, and
nothing else: the stop rules are the same whether or not a run is
observed.

Cycle detection keeps no tape per step.  Its store maps a fixed-size key,
(state, head - lo, width of the support, hash of the support's bytes), to
every step that produced it, so a hash collision hides no older
configuration.  A key match is confirmed exactly: a clone of the start
configuration, taken when the run began, is rerun unobserved to the
earlier step, and the two `fingerprint`s must be equal; when they differ
the step is stored and the run goes on.

Scanned and single-stepped runs produce identical outcomes, step counts
and tapes; the property suite asserts this on random machines against
the reference `step` in `tests/stepping.py`, one pure transition at a
time.  The scan sustains well over 10^7 credited steps per second on
the unary-arithmetic tables this package ships, whose inner loops are
long scans.  A transition that is not a self-loop makes no function
call: the 1-extent, the buffer's size and the watch test are kept in
locals.  Such transitions run at about 2×10^6 per second (1.6-2.9
M/s, CPython 3.11 on a 2-core x86 host), timed on the 2-state machine
A0:1RB A1:0RB B0:1LA B1:0LA, which has no self-loop and flips the two
cells it visits, over 3×10^5 steps, best of 7 runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .machine import (
    EXIT,
    NO_ACTION,
    RESERVED_NAMES,
    Machine,
    compile_machine,
)
from .tape import Configuration, Tape

HALTED = "halted"
STEP_LIMIT = "step_limit"
CYCLE = "cycle"
MEMORY_LIMIT = "memory_limit"
WATCH = "watch"

DEFAULT_MAX_STEPS = 10**8
DEFAULT_MAX_SUPPORT = 1 << 22
_FILL = (b"\x00", b"\x01")  # one cell of each symbol, for the scan's fills


@dataclass(frozen=True)
class RunLimits:
    """Budgets for one run.

    `max_steps >= 0` caps the step count.  `max_support_cells >= 1` caps
    the widest cell interval that has held 1s (a monotone high-water
    measure: erasing does not return headroom).  One rule serves the
    single step and the scan's fill alike: a 0->1 write is refused when
    the 1-extent widened to the written cell would span more than
    `max_support_cells` cells, also when a start tape was wider already.
    The refused write is not executed and the run reports memory_limit
    with the exact step count.  `cycle_check` keys every
    configuration, so the run executes one transition at a time and stops
    with kind cycle at the first exact repeat (translation invariant).  It
    stores about 230 bytes per step, whatever the support's width, and
    confirms a key match by rerunning the start to the earlier step.
    """

    max_steps: int = DEFAULT_MAX_STEPS
    max_support_cells: int = DEFAULT_MAX_SUPPORT
    cycle_check: bool = False

    def __post_init__(self):
        if self.max_steps < 0:
            raise ValueError(f"max_steps must be >= 0, got {self.max_steps}")
        if self.max_support_cells < 1:
            raise ValueError(f"max_support_cells must be >= 1, got {self.max_support_cells}")


@dataclass
class RunOutcome:
    """Result of a budgeted run.

    kind is one of: halted, step_limit, cycle, memory_limit, or watch
    (the last only when `watch` states were given).  `halting_state` is
    the name the machine died in: the state with the missing action, or
    the halt/external marker it transitioned into.  `blank_start` says
    the run began at step 0 in the machine's start state on a blank
    tape, the only runs a non-halting certificate speaks for.
    """

    kind: str
    steps: int
    config: Configuration
    halting_state: str | None = None
    first_visit: int | None = None
    period: int | None = None
    watched_state: str | None = None
    blank_start: bool = False


def run(
    machine: Machine,
    config: Configuration | None = None,
    limits: RunLimits | None = None,
    *,
    watch: tuple[str, ...] | frozenset[str] = (),
    trace=None,
    profile: set | None = None,
) -> RunOutcome:
    """Run `machine` from `config` (blank tape if omitted) under `limits`.

    `watch`: stop with kind="watch" when a transition enters one of
    these states from another state (a self-loop is no entry, and the
    state a run starts in is not entered).  `trace(steps, state, head,
    tape)` is called after every executed transition, the halting one
    included.  `profile` is a set that gains every (state, symbol) pair
    the run read, and keeps what it held, so one set can gather the reads
    of several runs.  The loop sets a flag per transition entry it reads
    and the set is updated once the run returns, so profiling adds one
    list store per loop iteration, not a tuple and a set insertion.
    """
    limits = limits or RunLimits()
    cm = machine.compiled
    if cm is None:
        cm = compile_machine(machine)
        object.__setattr__(machine, "compiled", cm)  # a cache, not a field value
    if config is None:
        config = Configuration(machine.start)
    blank_start = (
        config.steps == 0
        and config.state == machine.start
        and config.tape.support_size() == 0
    )
    if config.state not in machine.states:
        if config.state not in RESERVED_NAMES:
            raise ValueError(
                f"initial state {config.state!r} is not defined in {machine.name!r}"
            )
        outcome = RunOutcome(HALTED, config.steps, config, halting_state=config.state)
    else:
        watched = tuple(name in watch for name in cm.names)
        reads = None if profile is None else [0] * len(cm.write)
        outcome = _run(cm, config, limits, watched, trace, reads)
        if reads is not None:
            profile.update((cm.names[j >> 1], j & 1) for j, r in enumerate(reads) if r)
    outcome.blank_start = blank_start
    return outcome


def fingerprint(state, tape: Tape) -> tuple:
    """The key (state, head - lo, bytes of the support) of a configuration.

    Two keys are equal exactly when the configurations are equal up to
    translation; the empty support keys as (state, 0, b"").
    """
    lo, hi = tape.support()
    if hi < lo:
        return (state, 0, b"")
    return (state, tape.head - lo, bytes(tape.buf[tape.org + lo : tape.org + hi + 1]))


_support_hash = hash  # the cycle store's hash of a support; a name of its own to stub


def _replayed(cm, start: Configuration, limits: RunLimits, steps: int) -> Configuration:
    """The configuration of the unobserved run from `start` at `steps`.

    The run went on past `steps` before, so the replay stops there on its
    budget, with the scan on and nothing traced, watched or profiled.
    """
    budget = RunLimits(steps, limits.max_support_cells)
    unwatched = (False,) * len(cm.names)
    return _run(cm, start.clone(), budget, unwatched, None, None).config


def _outcome(kind, cm, tape, state_idx, steps, exit_name=None, **kw) -> RunOutcome:
    state = exit_name if exit_name is not None else cm.names[state_idx]
    cfg = Configuration(state, tape, steps)
    halting = state if kind == HALTED else None
    return RunOutcome(kind, steps, cfg, halting_state=halting, **kw)


def _run(cm, config, limits, watched, trace, reads) -> RunOutcome:
    tape = config.tape
    state = cm.index[config.state]
    steps = config.steps
    max_steps = limits.max_steps
    cap = limits.max_support_cells
    write, move, target, exit_names = cm.write, cm.move, cm.target, cm.exit_name
    names = cm.names

    buf = tape.buf
    size = len(buf)
    org = tape.org
    head = tape.head
    lo1, hi1 = tape._lo1, tape._hi1  # over-approximate 1-bounds, in cells
    cycle_check = limits.cycle_check
    scan = not cycle_check and trace is None  # observers see every step
    # (state, head-lo, width, support hash) -> the first step with that key,
    # and the later steps of keys that matched an unequal configuration
    seen: dict = {}
    later: dict = {}
    start = config.clone() if cycle_check else None

    def sync():
        tape.buf, tape.org, tape.head = buf, org, head
        tape._lo1, tape._hi1 = lo1, hi1

    def grown(cell):
        nonlocal buf, size, org
        sync()
        tape.grow(cell)
        buf, org = tape.buf, tape.org
        size = len(buf)

    while steps < max_steps:
        if cycle_check:
            sync()
            full = fingerprint(state, tape)
            key = (state, full[1], len(full[2]), _support_hash(full[2]))
            first = seen.setdefault(key, steps)
            if first != steps:
                for prev in (first, *later.get(key, ())):
                    past = _replayed(cm, start, limits, prev)
                    if fingerprint(cm.index[past.state], past.tape) == full:
                        return _outcome(
                            CYCLE, cm, tape, state, steps, first_visit=prev, period=steps - prev
                        )
                later.setdefault(key, []).append(steps)
        p = org + head
        if not 0 <= p < size:
            grown(head)
            p = org + head
        sym = buf[p]
        j = 2 * state + sym
        if reads is not None:
            reads[j] = 1
        t = target[j]
        if t == state and scan:
            # Self-loop on `sym`: consume the whole uniform run at once.
            # Only the search depends on the direction; q < 0 means the
            # run reaches the buffer's edge.
            m = move[j]
            w = write[j]
            if m > 0:
                q = buf.find(1 - sym, p)
                n = (size if q < 0 else q) - p
            else:
                q = buf.rfind(1 - sym, 0, p + 1)
                n = p - q
            if n > max_steps - steps:
                n = max_steps - steps
            if w != sym:
                k = n
                if w:
                    # n writes of 0->1 under the single-step rule: each is
                    # refused once the 1-extent widened to its cell would
                    # pass `cap` cells, so k of them are taken
                    lo, hi = (head, head) if hi1 < lo1 else (min(lo1, head), max(hi1, head))
                    if hi - lo >= cap:
                        k = 0
                    elif m > 0:
                        k = min(n, cap - (head - lo))
                        lo1, hi1 = lo, max(hi, head + k - 1)
                    else:
                        k = min(n, cap - (hi - head))
                        lo1, hi1 = min(lo, head - k + 1), hi
                a = p if m > 0 else p - k + 1
                buf[a : a + k] = _FILL[w] * k
                if k < n:
                    head += m * k
                    steps += k
                    sync()
                    return _outcome(MEMORY_LIMIT, cm, tape, state, steps)
            head += m * n
            steps += n
            if steps >= max_steps:
                break
            if q < 0:
                if sym == 0 and w == 0:
                    # gliding over blank forever: no 1 ahead anywhere
                    head += m * (max_steps - steps)
                    steps = max_steps
                    break
                grown(head)
            continue
        if t == NO_ACTION:
            sync()
            return _outcome(HALTED, cm, tape, state, steps)
        w = write[j]
        if w and not sym:
            # a 0->1 write widens the 1-extent; refuse it past `cap` cells,
            # also inside an extent (from the start tape) already wider
            if hi1 < lo1:
                lo1 = hi1 = head
            else:
                lo = head if head < lo1 else lo1
                hi = head if head > hi1 else hi1
                if hi - lo >= cap:
                    sync()
                    return _outcome(MEMORY_LIMIT, cm, tape, state, steps)
                lo1, hi1 = lo, hi
        buf[p] = w
        head += move[j]
        steps += 1
        if trace is not None:
            sync()
            trace(steps, exit_names[j] if t == EXIT else names[t], head, tape)
        if t == EXIT:
            sync()
            return _outcome(HALTED, cm, tape, state, steps, exit_name=exit_names[j])
        if t != state and watched[t]:  # a self-loop enters nothing
            sync()
            return _outcome(WATCH, cm, tape, t, steps, watched_state=names[t])
        state = t
    sync()
    return _outcome(STEP_LIMIT, cm, tape, state, steps)
