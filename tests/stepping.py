"""Reference runs built on `engine.step`, one transition at a time.

`run` scans self-loops and keeps its tape in loop variables; this
module shares none of that, so the tests can hold `run` against it.
"""

from beaverkit.engine import HALTED, STEP_LIMIT, WATCH, HaltEvent, step


def stepped_run(machine, config, max_steps, watch=(), need=1):
    """(kind, every configuration visited, the start included).

    Stops as `run` stops: on a halt, on the step budget, or on the
    need-th entry into a watched state, where a self-loop is no entry
    and the start state is not entered.  Entering a name that is not a
    state (HALT, an exit) halts at once, even on the last budgeted
    step.  The support cap is not modelled, so compare only runs that
    cannot reach it.
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
        nxt = step(machine, config)
        if isinstance(nxt, HaltEvent):
            return HALTED, trail
        entries += nxt.state in watch and nxt.state != config.state
        config = nxt
        trail.append(config)
