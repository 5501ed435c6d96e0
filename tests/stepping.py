"""Reference runs built on `engine.step`, one transition at a time.

`run` scans self-loops, keeps its tape in loop variables and stores a
hash per configuration; this module shares none of that, so the tests can
hold `run` against it.
"""

from beaverkit.engine import (
    CYCLE,
    HALTED,
    MEMORY_LIMIT,
    STEP_LIMIT,
    WATCH,
    HaltEvent,
    _fingerprint_key,
    step,
)


def stepped_run(machine, config, max_steps, watch=(), need=1, cap=None):
    """(kind, every configuration visited, the start included).

    Stops as `run` stops: on a halt, on the step budget, or on the
    need-th entry into a watched state, where a self-loop is no entry
    and the start state is not entered.  Entering a name that is not a
    state (HALT, an exit) halts at once, even on the last budgeted
    step.  With a `cap`, a write of 1 over 0 that would widen the cells
    that have held 1s (the tape's own high-water bounds) past `cap` is
    not taken, and the run stops with memory_limit.
    """
    trail = [config]
    entries = 0
    while True:
        if watch and entries >= need:
            return WATCH, trail
        if config.state not in machine.states:
            return HALTED, trail
        if config.steps >= max_steps:
            return STEP_LIMIT, trail
        if cap is not None and _over_cap(machine, config, cap):
            return MEMORY_LIMIT, trail
        nxt = step(machine, config)
        if isinstance(nxt, HaltEvent):
            return HALTED, trail
        entries += nxt.state in watch and nxt.state != config.state
        config = nxt
        trail.append(config)


def _over_cap(machine, config, cap):
    tape, cell = config.tape, config.tape.head
    act = machine.action(config.state, tape.read(cell))
    if act is None or not act.write or tape.read(cell) or tape._hi1 < tape._lo1:
        return False
    return max(tape._hi1, cell) - min(tape._lo1, cell) + 1 > cap


def checked_run(machine, config, max_steps, watch=(), cap=None):
    """`stepped_run` under the cycle check: (kind, trail, first_visit).

    Every configuration the run stands in with budget left is keyed by
    its full fingerprint (state, head-relative support) in one dict; the
    first key seen before stops the run with kind cycle, the trail cut
    there.  The configuration a watch stops on is not checked, as `run`
    returns before its next check.  `first_visit` is None unless the
    run cycled.
    """
    kind, trail = stepped_run(machine, config, max_steps, watch, cap=cap)
    seen = {}
    for i, c in enumerate(trail[:-1] if kind == WATCH else trail):
        if c.steps >= max_steps:
            break
        key = _fingerprint_key(c.state, c.tape)
        if key in seen:
            return CYCLE, trail[: i + 1], seen[key]
        seen[key] = c.steps
    return kind, trail, None


def read_profile(machine, kind, trail):
    """The (state, symbol) pairs a run along `trail` that stopped as `kind` read.

    A run reads at every configuration it goes on from, and at the one it
    halts or hits the cap on; the configuration it stops on for a cycle,
    a watch or its budget is not read, nor a configuration that is past
    an exit.
    """
    read = trail if kind in (HALTED, MEMORY_LIMIT) else trail[:-1]
    return {(c.state, c.tape.read(c.tape.head)) for c in read if c.state in machine.states}
