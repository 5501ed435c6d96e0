"""Minimal reference simulator for the small-machines workload.

It shares no code with beaverkit: the known answers the engine and the
cycle detector are judged against come from here.  A program is a tuple of
``2n`` ``(write, move, target)`` triples indexed by ``2*state + symbol``,
with target ``-1`` for halt, the encoding ``bb.brute_force_bb`` enumerates.
Taking a transition into halt executes its write and move and counts as a
step.
"""

from __future__ import annotations

HALT = -1
STATE_NAMES = "ABCDEFGH"


class Sim:
    """One machine on a bytearray tape wide enough for `max_steps` moves."""

    __slots__ = ("prog", "tape", "org", "head", "state", "steps", "halted", "lo", "hi")

    def __init__(self, prog, max_steps: int):
        self.prog = prog
        self.tape = bytearray(2 * max_steps + 3)
        self.org = max_steps + 1
        self.head = 0
        self.state = 0
        self.steps = 0
        self.halted = False
        self.lo = self.hi = self.org  # buffer slice that has ever held a 1

    def step(self) -> None:
        p = self.org + self.head
        w, m, t = self.prog[2 * self.state + self.tape[p]]
        self.tape[p] = w
        if w:
            self.lo = min(self.lo, p)
            self.hi = max(self.hi, p + 1)
        self.head += m
        self.steps += 1
        if t == HALT:
            self.halted = True
        else:
            self.state = t

    def support(self) -> tuple[int, bytes]:
        """(leftmost cell holding a 1, symbols up to the rightmost 1)."""
        lo = self.tape.find(1, self.lo, self.hi)
        if lo < 0:
            return 0, b""
        hi = self.tape.rfind(1, self.lo, self.hi)
        return lo - self.org, bytes(self.tape[lo : hi + 1])

    def key(self):
        """Translation-invariant configuration: state, head offset, support."""
        lo, cells = self.support()
        return (self.state, self.head - lo if cells else 0, cells)


def run(prog, max_steps: int) -> tuple:
    """Final (halted, steps, state name, head, support start, support bytes)."""
    sim = Sim(prog, max_steps)
    while sim.steps < max_steps and not sim.halted:
        sim.step()
    lo, cells = sim.support()
    state = "HALT" if sim.halted else STATE_NAMES[sim.state]
    return (sim.halted, sim.steps, state, sim.head, lo, cells)


def first_repeat(prog, max_steps: int) -> tuple:
    """What a per-step cycle check over configurations 0..max_steps-1 sees.

    Returns ``("halted", h, None, None)`` for a halt within the budget,
    ``("cycle", mu + lam, mu, lam)`` when configuration ``mu + lam`` is the
    first to repeat an earlier one (``mu``) inside the budget, and
    ``("step_limit", max_steps, None, None)`` otherwise.  Brent's algorithm
    keeps one configuration at a time, so the reference adds nothing to the
    workload's peak memory.
    """
    halted, h = run(prog, max_steps)[:2]
    if halted:
        return ("halted", h, None, None)
    # Brent's hare reaches index 3*(mu + lam) + 2 at most before it meets
    # the tortoise, so a cycle inside the budget is found by this horizon.
    horizon = 3 * max_steps + 3
    hare = Sim(prog, horizon)
    tortoise = hare.key()
    power = lam = 1
    hare.step()
    while hare.key() != tortoise:
        if hare.halted or hare.steps >= horizon:
            return ("step_limit", max_steps, None, None)
        if power == lam:
            tortoise = hare.key()
            power *= 2
            lam = 0
        hare.step()
        lam += 1
    slow, fast = Sim(prog, horizon), Sim(prog, horizon)
    for _ in range(lam):
        fast.step()
    while slow.key() != fast.key():
        slow.step()
        fast.step()
    mu = slow.steps
    if mu + lam > max_steps - 1:
        return ("step_limit", max_steps, None, None)
    return ("cycle", mu + lam, mu, lam)
