"""The run loop's cost per step and per crossing, pinned in bytecode instructions.

Each figure counts `sys.settrace` opcode events on frames of `engine.py`
while `run` goes on from one budget to a larger one: the events of the
larger run less those of the smaller, so the set-up both pay cancels.
The table is compiled before counting.  Bytecode differs between CPython
versions, so the counts are exact on one, and the tests skip elsewhere.
A change that adds or removes an instruction on one of these paths
changes a count here, so its cost shows in its diff.
"""

import sys

import pytest

from beaverkit import engine
from beaverkit.engine import RunLimits, run
from beaverkit.machine import Action, Machine, compile_machine, parse_move
from beaverkit.tape import Configuration, Tape

PINNED = (3, 11)

pytestmark = pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != PINNED,
    reason="opcode counts are pinned on CPython 3.11",
)


def machine(text):
    """The machine of `text`, words such as A0:1RB: state, symbol, write, move, target."""
    states = {}
    for word in text.split():
        acts = states.setdefault(word[0], [None, None])
        acts[int(word[1])] = Action(int(word[3]), parse_move(word[4]), word[5])
    return Machine(text, text[0], {name: tuple(acts) for name, acts in states.items()})


def events(m, start, steps):
    """The opcode events on `engine.py` frames of a run of `m` from `start`
    to `steps` steps, on a table compiled beforehand."""
    count = 0

    def opcodes(frame, event, arg):
        nonlocal count
        count += event == "opcode"
        return opcodes

    def calls(frame, event, arg):
        if frame.f_code.co_filename != engine.__file__:
            return None
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return opcodes

    run(m, start.clone(), RunLimits(0))  # compiles the table
    config, limits = start.clone(), RunLimits(steps)
    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        out = run(m, config, limits)
    finally:
        sys.settrace(previous)
    assert out.steps == steps
    return count


def left_of_a_one(gap):
    """State A on blank, `gap` cells left of a lone 1."""
    tape = Tape.from_blocks([1])
    tape.head = -gap
    return Configuration("A", tape)


@pytest.mark.parametrize(
    "text, start, fewer, more, cost",
    [
        # a plain step: every entry is fused, for this machine has no
        # crossing (A0 and B1 move left, A1 and B0 right) and no trap; it
        # spreads its 1s both ways, so many of its 0->1 writes widen the
        # 1-extent; 53.33 instructions a step, of which the table's empty
        # trap map costs one test per step horizon (213,287 before)
        ("A0:1LB A1:1RB B0:1RA B1:0LA", Configuration("A"), 4000, 8000, 213317),
        # the 40-cell bouncer: a self-loop crosses the block, a turn, the
        # other self-loop crosses back; the turns A0 and B0 trap the head
        # beside a 0, so its runs look for a trap at least every
        # `engine.TRAP_CHECK` steps; 3.96 a step (4.79 when the turns left
        # `fused`, 2.908 before the table had traps)
        ("A0:0LB A1:1RA B0:0RA B1:1LB", Configuration("A", Tape.from_blocks([40])),
         4000, 8000, 15829),
        # after one plain step, the self-loop B0 fills 40 blank cells with
        # 1s up to the lone 1: one crossing, the memory rule's included
        ("A0:0RB B0:1RB", left_of_a_one(41), 1, 41, 154),
        # after one plain step, the cycle B0 C0 fills 40 blank cells with
        # 1010... up to the lone 1: one sweep crossing
        ("A0:0RB B0:1RC C0:0RB", left_of_a_one(41), 1, 41, 232),
        # A and B turn the head back and forth over blank: a 2-cell trap
        # credits the rest of the budget in one iteration, whatever it is
        ("A0:0LB B0:0RA", Configuration("A"), 4000, 8000, 0),
        # the self-loops A0 and A1 turn the head back and forth between a
        # 0 and a 1: a 2-cell trap too
        ("A0:0RA A1:1LA", Configuration("A", Tape.from_symbols([0, 1])), 4000, 8000, 0),
    ],
    ids=["plain-step", "bouncer", "self-loop-fill", "sweep", "trap", "self-loop-trap"],
)
def test_opcode_events_per_step_and_crossing(text, start, fewer, more, cost):
    m = machine(text)
    assert events(m, start, more) - events(m, start, fewer) == cost


def test_the_plain_step_probe_is_all_fused():
    cm = compile_machine(machine("A0:1LB A1:1RB B0:1RA B1:0LA"))
    assert all(f is not None for f in cm.fused) and not cm.trap
