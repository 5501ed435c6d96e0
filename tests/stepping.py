"""Reference runs built on one transition at a time.

`run` scans self-loops, keeps its tape in loop variables and stores a
hash per configuration; this module shares none of that, so the tests can
hold `run` against it.
"""

from dataclasses import dataclass

from beaverkit.engine import CYCLE, HALTED, MEMORY_LIMIT, STEP_LIMIT, WATCH, fingerprint
from beaverkit.machine import Machine
from beaverkit.tape import Configuration


@dataclass
class HaltEvent:
    """A (state, read) lookup with no action: the machine has halted."""

    config: Configuration


def _action(machine: Machine, config: Configuration):
    """The action `config` takes, or None when it halts."""
    if config.state not in machine.states:
        return None
    return machine.action(config.state, config.tape.read(config.tape.head))


def _take(config: Configuration, act) -> None:
    """Take `act` in place: write the head's cell, move, enter the target."""
    config.tape.write(config.tape.head, act.write)
    config.tape.head += act.move
    config.state = act.target
    config.steps += 1


def step(machine: Machine, config: Configuration) -> Configuration | HaltEvent:
    """One transition, purely: returns a new Configuration or HaltEvent."""
    act = _action(machine, config)
    if act is None:
        return HaltEvent(config)
    nxt = config.clone()
    _take(nxt, act)
    return nxt


class Trail:
    """The configurations a run visited, the start first.

    It keeps a copy of the start and the action of each step, so a step
    records one cell's write and a move, not a copy of the tape.  A
    configuration is rebuilt from the start when it is read: indexing
    and iterating give copies that the caller may keep, and `walk` gives
    one configuration advanced in place.  A slice from the start is a
    trail of the first `size` configurations; any other slice is a list
    of copies.
    """

    def __init__(self, start: Configuration, actions: list, size: int | None = None):
        self.start, self.actions, self.size = start, actions, size

    def __len__(self) -> int:
        return len(self.actions) + 1 if self.size is None else self.size

    def walk(self):
        """Each configuration in turn, as one object taking each action in place."""
        config = self.start.clone()
        for k in range(len(self)):
            if k:
                _take(config, self.actions[k - 1])
            yield config

    def __iter__(self):
        return (config.clone() for config in self.walk())

    def __getitem__(self, i):
        if isinstance(i, slice):
            start, stop, stride = i.indices(len(self))
            if start == 0 and stride == 1:
                return Trail(self.start, self.actions, max(stop, 0))
            return list(self)[i]
        i = range(len(self))[i]  # a negative index counts from the end
        for k, config in enumerate(self.walk()):
            if k == i:
                return config.clone()


def stepped_run(machine, config, max_steps, watch=(), need=1, cap=None):
    """(kind, the Trail of every configuration visited, the start included).

    Stops as `run` stops: on a halt, on the step budget, or on the
    need-th entry into a watched state, where a self-loop is no entry
    and the start state is not entered.  Entering a name that is not a
    state (HALT, an exit) halts at once, even on the last budgeted
    step.  With a `cap`, a write of 1 over 0 that would widen the cells
    that have held 1s (the tape's own high-water bounds) past `cap` is
    not taken, and the run stops with memory_limit.
    """
    trail = Trail(config.clone(), [])
    config = config.clone()
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
        act = _action(machine, config)
        if act is None:
            return HALTED, trail
        entries += act.target in watch and act.target != config.state
        _take(config, act)
        trail.actions.append(act)


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
    for i, c in enumerate((trail[:-1] if kind == WATCH else trail).walk()):
        if c.steps >= max_steps:
            break
        key = fingerprint(c.state, c.tape)
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
    return {(c.state, c.tape.read(c.tape.head)) for c in read.walk() if c.state in machine.states}
