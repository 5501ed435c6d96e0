"""Execution engine: budgeted runs, cycle detection, tracing, fingerprints.

One run loop serves every run.  It recognizes crossings: a cycle of
k >= 1 states (a self-loop when k = 1, a sweep when k > 1) whose entries
all read the symbol under the head and move the same way, found for
every entry in one walk over the table by `compile_machine`, so the loop
only looks it up.  A crossing covers the whole uniform run of that
symbol ahead in one memchr pass and one fill of the cycle's writes,
tiled, crediting the exact number of steps, and a sweep ends in the
state the crossing's length reaches in its cycle; everything else
executes one transition per iteration.  Only the search differs between
the two directions (`find` rightward, `rfind` leftward).  A crossing
that writes only 0s over blank with no 1 ahead anywhere glides to the
end of the budget.  A fill's 0->1 writes obey the single-step memory
rule, in one form for both directions: the crossing stops short of the
first write the rule refuses, and the next iteration refuses it.  The
glide's counterpart in place is the 2-cell trap: an entry, a self-loop
too, facing a neighbour cell (at its move) that holds one of the
entry's trapping symbols, from where the head alternates between the
two cells for ever and meets no stop.  `compile_machine` finds each
one's walk through the window's configurations (state, head's cell,
both symbols), whose first mu lead into a cycle of lam, and a run that
finds the head in one credits the whole rest of the budget, n steps, at
once: it takes configuration n, or mu + (n - mu) mod lam once n >= mu +
lam, and from the configurations those steps cross it marks every
entry read and widens the 1-extent by each cell given a 0->1 write.
When that widening would pass the memory cap, the run steps on, so it
stops where single steps stop it.  Each watch set has a table of its
own, where an entry into a watched state from another state stops the
run as an exit does: no cycle or trap runs through it, and a self-loop,
which enters nothing, still crosses.  Cycle
detection and tracing observe every configuration, so they turn the
crossings off, and nothing else: the stop rules are the same whether or
not a run is observed.  A self-loop crossing of at least `LONG_SCAN`
cells may hand the run to a proven shuttle rule (`rules.py`), which
applies a repeating cycle of scans k times in closed form with the
outcome, steps, tape, 1-extent and read profile of the run one
transition at a time.  Traced and cycle-checked runs never cross, so
they never use a rule.

The loop holds the state as its first transition entry, 2 × its index,
so the entry read is that plus the symbol, and it holds the head and the
1-extent as indices into the tape's buffer: `_loaded` takes them from
the tape, and `_sync` puts them back in cells where the run stops, grows
the buffer or calls out.  These two are the only code outside `tape.py`
that knows the tape's layout.
It checks the buffer's edge once per step horizon, not once per step.
Every credited step moves the head one cell at most: a transition one
cell, a crossing of n cells n steps, and a rule at least as many steps
as its displacement.  So a head d cells from the nearer edge stays in
the buffer while the steps stay below `horizon` = (steps now) + 1 + d.
An outer loop grows the buffer once the head has left it and sets that
horizon, capped by the budget, and the inner loop runs to it with no
bounds test.  A rule may grow the buffer, so after one the loop reloads
the tape and sets a new horizon.  An unobserved run on a table with
traps looks for one there: it takes the entry under the head and the
neighbour cell at that entry's move, credits the trap they make, if
any, and caps the horizon at `TRAP_CHECK` steps, so a trapped head is
found within that many.  The inner loop tests nothing for traps.

Each iteration takes the first branch that fits its entry.  Each entry
has one record (write, move, target), whose target is the successor's
first entry or a stop code, so the loop moves to the next state with no
arithmetic.  `fused` holds the record of each plain entry, one whose
target is a state and starts no crossing, and the first branch
executes it with one index and one unpack: the read flag, the memory
rule and the step count are inline, and nothing is called.  Only a 0->1
write outside the 1-extent can widen it, so only that write is checked;
a run whose start tape's extent already spans more than the cap refuses
every 0->1 write, inside it too, and takes the general path for all of
them.  A self-loop takes the second branch, through its own table
`loop` of (move, fill): one search, the `LONG_SCAN` trigger, one budget
clamp, at most one fill and, for a fill of 1s, the memory rule inline,
in the sweep's form at k = 1.  A sweep takes the third.  A stop entry
(an exit or a watched one) takes the general path, which unpacks the
same record.  An observed run, traced or cycle-checked, takes the
general path for every entry, and the cycle check's key is taken there
alone, so the other branches test nothing for it.  A sweep facing a
run of one cell, where the next cell holds the other symbol, takes one
transition on the general path, with no search and no fill: random
small machines meet 7 in 10 of their cycles so.

Cycle detection keeps no tape per step, and hashes no tape per step.  It
keeps h, the sum of R^(c - head) mod P over the cells c that hold 1 (P =
2^61 - 1, R a fixed primitive root): the tape seen from the head, a
rolling hash after Karp and Rabin.  h is computed once from the start
tape, and each executed transition updates it in O(1) with one factor
per transition entry.  Configurations equal up to translation have equal
h, so no repeat is missed.  The store maps one int, folding h and the
transition entry read (the state and the symbol under the head), to
every step that produced it, so a collision hides no older
configuration.  A key match is confirmed exactly, by `fingerprint`s.  The
first time a key matches, a clone of the start configuration, taken when
the run began, is rerun unobserved to that key's first step, once, and
that step's fingerprint is kept.  A match that equals no kept
fingerprint of its key keeps its own, at hand, next to its step, and the
run goes on; a later match of the key compares the kept fingerprints in
step order, so the oldest equal one is the first visit.  A run replays
at most once per key that ever matches, and a run whose keys never match
keeps no fingerprint.  Only a key match takes a `fingerprint`.

Scanned and single-stepped runs produce identical outcomes, step counts
and tapes; the property suite asserts this on random machines against
the reference `step` in `tests/stepping.py`, one pure transition at a
time.  The scan credits long runs of the unary-arithmetic tables this
package ships at memchr speed, and a plain transition makes no function
call.  `tests/test_step_cost.py` pins what each path costs a step in
exact bytecode instructions (`sys.settrace` opcode events, CPython
3.11): the fused step, a self-loop crossing, a trapped bouncer and a
cycle-checked step among them.
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
from .rules import LONG_SCAN, Prover
from .tape import Configuration, Tape

HALTED = "halted"
STEP_LIMIT = "step_limit"
CYCLE = "cycle"
MEMORY_LIMIT = "memory_limit"
WATCH = "watch"

DEFAULT_MAX_STEPS = 10**8
DEFAULT_MAX_SUPPORT = 1 << 22

# The most steps an unobserved run on a table with traps takes between two
# looks for a trap at the head.  Opcode events per pass of the benchmark's
# small-machines (seed 3, CPython 3.11) are within 0.15 % of each other at
# 16, 32 and 64, and 1.1 % more at 256: a trapped head takes one step an
# iteration until the next look.
TRAP_CHECK = 64


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
    with kind cycle at the first exact repeat (translation invariant).  The
    key folds the state and the symbol read into a hash of the tape seen
    from the head, which each transition updates in O(1).  The store takes
    about 110 bytes per step, whatever the support's width.  A key match
    is confirmed exactly: the first match of a key reruns the start once,
    to that key's first step, and keeps its `fingerprint`; each match
    that equals no kept fingerprint of its key keeps its own.
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
    # a watch set's table stops on entries into its states; one that names
    # no state stops on nothing, and the unwatched table serves it
    key = frozenset(watch).intersection(cm.index)
    if key:
        watched = cm.watches.get(key)
        if watched is None:
            watched = cm.watches[key] = compile_machine(machine, key)
        cm = watched
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
        reads = None if profile is None else [0] * len(cm.entry)
        outcome = _run(cm, config, limits, trace, reads)
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
    return (state, tape.head - lo, tape.cells(lo, hi))


_support_hash = hash  # the store's hash of h (h itself); a name of its own to stub
_P = (1 << 61) - 1  # a Mersenne prime, the modulus of h
_R = 0x1E3779B97F4A7C1A  # a primitive root mod _P, the base of h
_SHIFT = {m: pow(_R, -m, _P) for m in (-1, 1)}  # h's factor when the head moves m


def _tape_hash(tape: Tape) -> int:
    """h = the sum of R^(c - head) mod P over the cells c that hold 1.

    Configurations equal up to translation have equal h.
    """
    lo, hi = tape.support()
    h = 0
    for b in reversed(tape.cells(lo, hi)):
        h = (h * _R + b) % _P
    return h * pow(_R, lo - tape.head, _P) % _P


def _replayed(cm, past: Configuration, cap: int, steps: int) -> Configuration:
    """`past`, an earlier configuration of the run, run on to `steps`.

    The run went on past `steps` before, so the replay stops there on its
    budget, with the scan on and nothing traced or profiled: it enters no
    watched state, as the run did not.  It takes over `past`'s tape.
    """
    return _run(cm, past, RunLimits(steps, cap), None, None).config


def _outcome(kind, cm, tape, entry, steps, exit_name=None, **kw) -> RunOutcome:
    """The outcome of a run that stopped in the state of transition entry `entry`."""
    state = exit_name if exit_name is not None else cm.names[entry >> 1]
    cfg = Configuration(state, tape, steps)
    halting = state if kind == HALTED else None
    return RunOutcome(kind, steps, cfg, halting_state=halting, **kw)


def _sync(tape, org, p, lo1, hi1) -> None:
    """Put the loop's head and 1-extent, held as buffer indices, on `tape` in cells."""
    tape.head, tape._lo1, tape._hi1 = p - org, lo1 - org, hi1 - org


def _loaded(tape) -> tuple:
    """(buf, its size, org, head, lo1, hi1) of `tape`, the last three as buffer indices."""
    buf, org = tape.buf, tape.org
    return buf, len(buf), org, org + tape.head, org + tape._lo1, org + tape._hi1


def _run(cm, config, limits, trace, reads) -> RunOutcome:
    tape = config.tape
    state = 2 * cm.index[config.state]  # the state's first entry: entry j = state + symbol
    steps = config.steps
    max_steps = limits.max_steps
    cap = limits.max_support_cells
    entry, exit_names, names = cm.entry, cm.exit_name, cm.names

    # p, lo1 and hi1 are the head and the over-approximate 1-bounds as
    # indices into buf; `_sync` puts them on the tape in cells
    buf, size, org, p, lo1, hi1 = _loaded(tape)
    cycle_check = limits.cycle_check
    fused, loop, sweep, traps = cm.fused, cm.loop, cm.sweep, cm.trap
    if trace is not None or cycle_check:
        # an observer sees every step, so every entry takes the general path
        fused = loop = sweep = (None,) * len(entry)
        traps = None
    elif hi1 - lo1 >= cap:
        # a start tape's 1-extent already spans more than `cap` cells, so
        # every 0->1 write is refused, inside it too: the general path's rule
        fused = (None,) * len(entry)
    if cycle_check:
        # h is `_tape_hash` of the configuration at hand: entry j writes,
        # then moves, so executing it makes h into h * shift[j] + bump[j]
        h = _tape_hash(tape)
        shift = [_SHIFT[m] for _, m, _ in entry]
        bump = [(w - (j & 1)) * shift[j] % _P for j, (w, _, _) in enumerate(entry)]
        n_entries = len(entry)
        # _support_hash(h) * n_entries + j -> the first step with that key;
        # and, for each key that ever matched, (step, `fingerprint`) of its
        # first step and of each later step that matched no earlier one
        seen: dict = {}
        later: dict = {}
        start = config.clone()
    prover = None  # made at the first long scan

    while steps < max_steps:
        if not 0 <= p < size:
            _sync(tape, org, p, lo1, hi1)
            tape.grow(p - org)
            buf, size, org, p, lo1, hi1 = _loaded(tape)
        # Each credited step moves the head one cell at most: a transition,
        # a crossing of n cells in n steps, a rule whose steps are at least
        # its displacement.  So the head stays in the buffer until the
        # steps reach `horizon`, and the loop below never checks it.
        horizon = steps + 1 + (p if p < size - p else size - 1 - p)
        if traps:
            # a run on a table with traps looks for one at the head at least
            # every `TRAP_CHECK` steps
            if horizon > steps + TRAP_CHECK:
                horizon = steps + TRAP_CHECK
            j = state + buf[p]
            m = entry[j][1]
            r = traps[j][buf[p + m]] if j in traps and 0 <= p + m < size else None
            if r is not None:
                # The head alternates between this cell and the next for
                # ever: the rest of the budget, n steps, ends in the
                # trap's configuration n, counted round its cycle.
                mu, configs = r
                n = max_steps - steps
                v = len(configs)  # the steps that visit every configuration
                if n < v:
                    v = i = n
                else:
                    i = mu + (n - mu) % (v - mu)
                # the cells the v steps write 1 over 0 widen the 1-extent;
                # past `cap` cells single steps stop the run, so it steps on
                ones = [p + d for e, d, x, y in configs[:v]
                        if entry[e][0] and not (y if d else x)]
                if ones and hi1 >= lo1:
                    ones += (lo1, hi1)
                if not ones or max(ones) - min(ones) < cap:
                    if ones:
                        lo1, hi1 = min(ones), max(ones)
                    if reads is not None:
                        for e, d, x, y in configs[:v]:
                            reads[e + (y if d else x)] = 1
                    # the state, the head's offset and both cells
                    state, d, buf[p], buf[p + m] = configs[i]
                    p += d
                    steps = max_steps
                    continue
        if horizon > max_steps:
            horizon = max_steps
        while steps < horizon:
            sym = buf[p]
            j = state + sym
            f = fused[j]
            if f is not None:
                # a plain transition into a state: one lookup, no call
                if reads is not None:
                    reads[j] = 1
                w, m, state = f
                if w and not sym and not lo1 <= p <= hi1:
                    # a 0->1 write outside the 1-extent widens it; refuse it
                    # past `cap` cells (the run stays in entry j's state)
                    if hi1 < lo1:
                        lo1 = hi1 = p
                    elif (hi1 - p if p < lo1 else p - lo1) >= cap:
                        _sync(tape, org, p, lo1, hi1)
                        return _outcome(MEMORY_LIMIT, cm, tape, j, steps)
                    elif p < lo1:
                        lo1 = p
                    else:
                        hi1 = p
                buf[p] = w
                p += m
                steps += 1
                continue
            if reads is not None:
                reads[j] = 1
            f = loop[j]
            if f is not None:
                # A self-loop crosses the whole run of `sym` ahead at once;
                # q < 0 means the run reaches the buffer's edge, which the
                # outer loop grows.
                m, fill = f
                if m > 0:
                    q = buf.find(1 - sym, p)
                    n = (size if q < 0 else q) - p
                else:
                    q = buf.rfind(1 - sym, 0, p + 1)
                    n = p - q
                if n >= LONG_SCAN:
                    if prover is None:
                        prover = Prover(cm)
                    if prover.due(j):
                        _sync(tape, org, p, lo1, hi1)
                        done = prover.apply(tape, j, max_steps - steps, cap, reads)
                        if done:
                            steps += done
                            buf, size, org, p, lo1, hi1 = _loaded(tape)
                            break  # the rule may have grown the buffer: a new horizon
                if q < 0 and not sym and fill is None:
                    n = max_steps - steps  # gliding over blank forever: no 1 ahead anywhere
                elif n > max_steps - steps:
                    n = max_steps - steps
                if fill is not None:
                    if not sym:
                        # the single-step rule on 0->1 writes, in a sweep's form:
                        # the crossing stops short of the first one that would widen
                        # the 1-extent past `cap` cells, and the next iteration refuses it
                        if hi1 < lo1:
                            lo1 = hi1 = p
                        lo = p if p < lo1 else lo1
                        hi = p if p > hi1 else hi1
                        if hi - lo >= cap:
                            _sync(tape, org, p, lo1, hi1)
                            return _outcome(MEMORY_LIMIT, cm, tape, state, steps)
                        lim = lo + cap - p if m > 0 else p - hi + cap
                        if n > lim:
                            n = lim
                        c = p + m * (n - 1)  # the last cell filled
                        lo1 = c if c < lo else lo
                        hi1 = c if c > hi else hi
                    if m > 0:
                        buf[p : p + n] = fill * n
                    else:
                        buf[p - n + 1 : p + 1] = fill * n
                p += m * n
                steps += n
                continue
            w, m, t = entry[j]
            sw = sweep[j]
            if sw is not None and (not 0 <= p + m < size or buf[p + m] == sym):
                # A cycle of k > 1 states that read `sym` and move one way
                # crosses the whole uniform run ahead at once.  Facing a run
                # of one cell (the next cell holds the other symbol), it
                # takes one transition, below, with no search.
                k, fill, first1, states = sw
                if m > 0:
                    q = buf.find(1 - sym, p)
                    n = (size if q < 0 else q) - p
                else:
                    q = buf.rfind(1 - sym, 0, p + 1)
                    n = p - q
                if q < 0 and not sym and fill is None:
                    n = max_steps - steps  # gliding over blank forever: no 1 ahead anywhere
                elif n > max_steps - steps:
                    n = max_steps - steps
                if fill is not None:
                    if first1 is not None and first1 < n:
                        # the single-step rule on the 0->1 writes, as above
                        c = p + m * first1
                        lo, hi = (c, c) if hi1 < lo1 else (min(lo1, c), max(hi1, c))
                        if hi - lo >= cap:
                            n = first1
                        else:
                            # the cells from offset `lim` on lie past `cap` cells
                            lim = lo + cap - p if m > 0 else p - hi + cap
                            if lim < n:
                                r = lim % k
                                n = min(n, lim - r + (fill * 2).index(1, r))
                        if not n:  # the write at the head is the one refused
                            _sync(tape, org, p, lo1, hi1)
                            return _outcome(MEMORY_LIMIT, cm, tape, state, steps)
                    a = p if m > 0 else p - n + 1
                    tiles = fill * (n // k) + fill[: n % k]
                    buf[a : a + n] = tiles if m > 0 else tiles[::-1]
                    if first1 is not None and first1 < n:
                        if m > 0:
                            lo1, hi1 = lo, max(hi, buf.rfind(1, a, a + n))
                        else:
                            lo1, hi1 = min(lo, buf.find(1, a, a + n)), hi
                p += m * n
                steps += n
                state = states[n % k]
                if reads is not None:
                    for e in states[1:n]:
                        reads[e + sym] = 1
                continue
            if cycle_check:
                key = _support_hash(h) * n_entries + j
                first = seen.setdefault(key, steps)
                if first != steps:
                    _sync(tape, org, p, lo1, hi1)
                    full = fingerprint(state >> 1, tape)
                    prints = later.get(key)
                    if prints is None:
                        past = _replayed(cm, start.clone(), cap, first)
                        prints = later[key] = [
                            (first, fingerprint(cm.index[past.state], past.tape))
                        ]
                    for prev, known in prints:  # in step order
                        if known == full:
                            return _outcome(
                                CYCLE, cm, tape, state, steps, first_visit=prev, period=steps - prev
                            )
                    prints.append((steps, full))
                h = (h * shift[j] + bump[j]) % _P
            if t == NO_ACTION:
                _sync(tape, org, p, lo1, hi1)
                return _outcome(HALTED, cm, tape, state, steps)
            if w and not sym:
                # a 0->1 write widens the 1-extent; refuse it past `cap` cells,
                # also inside an extent (from the start tape) already wider
                if hi1 < lo1:
                    lo1 = hi1 = p
                else:
                    lo = p if p < lo1 else lo1
                    hi = p if p > hi1 else hi1
                    if hi - lo >= cap:
                        _sync(tape, org, p, lo1, hi1)
                        return _outcome(MEMORY_LIMIT, cm, tape, state, steps)
                    lo1, hi1 = lo, hi
            buf[p] = w
            p += m
            steps += 1
            if trace is not None:
                _sync(tape, org, p, lo1, hi1)
                trace(steps, exit_names[j] if t < 0 else names[t >> 1], p - org, tape)
            if t < 0:  # an exit or an entry into a watched state
                _sync(tape, org, p, lo1, hi1)
                name = exit_names[j]
                if t == EXIT:
                    return _outcome(HALTED, cm, tape, state, steps, exit_name=name)
                return _outcome(WATCH, cm, tape, state, steps, name, watched_state=name)
            state = t
    _sync(tape, org, p, lo1, hi1)
    return _outcome(STEP_LIMIT, cm, tape, state, steps)
