"""Deterministic single-tape binary Turing machine model.

A machine is a finite map from state names to a pair of optional actions,
one per read symbol.  Cells hold 0 or 1; every cell never written is 0.
An action writes a symbol, moves the head one cell, and names a successor.
The successor may be another defined state, the reserved halt marker
``HALT``, or an external marker such as ``NM`` that a later composition
step resolves.  Taking a transition into any name with no defined actions
executes the write and move, then halts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, NamedTuple

ZERO = 0
ONE = 1

LEFT = -1
RIGHT = 1

HALT = "HALT"
NEXT_MACHINE = "NM"

RESERVED_NAMES = frozenset({HALT, NEXT_MACHINE})

_MOVE_TOKENS = {"L": LEFT, "R": RIGHT}
_MOVE_NAMES = {LEFT: "L", RIGHT: "R"}


def parse_move(token: str) -> int:
    try:
        return _MOVE_TOKENS[token]
    except KeyError:
        raise ValueError(f"invalid move {token!r}: expected L or R") from None


def move_name(move: int) -> str:
    return _MOVE_NAMES[move]


def parse_symbol(token: str) -> int:
    if token == "0":
        return ZERO
    if token == "1":
        return ONE
    raise ValueError(f"invalid symbol {token!r}: alphabet is binary")


class Action(NamedTuple):
    """One transition: write a symbol, move one cell, go to `target`."""

    write: int
    move: int
    target: str


@dataclass(frozen=True)
class Machine:
    """Immutable transition table with a start state and a label.

    `compiled` caches the engine's flat form, filled by its first run.
    """

    name: str
    start: str
    states: Mapping[str, tuple[Action | None, Action | None]]
    compiled: CompiledMachine | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        object.__setattr__(self, "states", MappingProxyType(dict(self.states)))
        for state, (on_zero, on_one) in self.states.items():
            if on_zero is None and on_one is None:
                raise ValueError(f"state {state!r} defines no actions")
        if self.start not in self.states and self.start not in RESERVED_NAMES:
            raise ValueError(
                f"start state {self.start!r} is neither defined nor a halt marker"
            )

    def action(self, state: str, symbol: int) -> Action | None:
        pair = self.states.get(state)
        return None if pair is None else pair[symbol]

    def external_targets(self) -> set[str]:
        """Targets that are neither defined states nor the halt marker."""
        out = set()
        for on_zero, on_one in self.states.values():
            for act in (on_zero, on_one):
                if act and act.target != HALT and act.target not in self.states:
                    out.add(act.target)
        return out


def state_count(machine: Machine) -> int:
    """Number of distinct defined states (halt and external markers excluded)."""
    return len(machine.states)


@dataclass(frozen=True)
class CompiledMachine:
    """Flat-array form of a Machine for the execution engine.

    Entry ``2*state_index + symbol`` of each array describes that
    transition; ``target`` holds the successor's index, ``-1`` when the
    successor is undefined, external, or the halt marker (the successor
    name is then in ``exit_name``), and ``-2`` when no action exists.
    """

    names: tuple[str, ...]
    index: Mapping[str, int]
    write: tuple[int, ...]
    move: tuple[int, ...]
    target: tuple[int, ...]
    exit_name: tuple[str | None, ...]
    start: int


NO_ACTION = -2
EXIT = -1


def compile_machine(machine: Machine) -> CompiledMachine:
    names = tuple(machine.states)
    index = {n: i for i, n in enumerate(names)}
    n2 = 2 * len(names)
    write = [0] * n2
    move = [RIGHT] * n2
    target = [NO_ACTION] * n2
    exit_name: list[str | None] = [None] * n2
    for name, (on_zero, on_one) in machine.states.items():
        for sym, act in ((ZERO, on_zero), (ONE, on_one)):
            if act is None:
                continue
            j = 2 * index[name] + sym
            write[j] = act.write
            move[j] = act.move
            t = index.get(act.target)
            if t is None:
                target[j] = EXIT
                exit_name[j] = act.target
            else:
                target[j] = t
    start = index.get(machine.start, EXIT)
    return CompiledMachine(
        names=names,
        index=MappingProxyType(index),
        write=tuple(write),
        move=tuple(move),
        target=tuple(target),
        exit_name=tuple(exit_name),
        start=start,
    )
