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
    transition; ``target`` holds the successor's index, or a stop: ``-1``
    when the successor is undefined, external, or the halt marker, ``-3``
    when it is a watched state the entry enters from another state (a
    self-loop enters nothing), and ``-2`` when no action exists.  The
    successor's name of a ``-1`` or ``-3`` entry is in ``exit_name``.
    ``sweep`` holds, per entry, the cycle of k >= 1 states that entry
    starts, all reading its symbol and moving one way (k = 1: a
    self-loop), or None.  Started on a run of that symbol, the cycle
    crosses it: the i-th cell gets the write of the cycle's (i mod k)-th
    entry.  The cycle is the plain tuple ``(k, fill, first1, entries)``
    (the loop unpacks it, which a tuple subclass would slow): ``fill`` is
    the k writes in cycle order, or None when each entry writes the symbol
    it reads; ``first1`` is the offset of the first 0->1 write, or None
    when there is none; ``entries`` lists the k entries, this one first,
    or is None for a self-loop, so all self-loops share four values.  No
    cycle runs through a stop, so none through a watched state.
    ``fused`` holds ``(write, move, target)`` for each entry whose target
    is a state and that starts no sweep, and None for every other entry:
    the engine executes such an entry with one lookup.  ``watches``, in
    an unwatched table, maps each watch set (a frozenset of names) a run
    asked for to that set's table, compiled at its first run; a watched
    table has None there, and shares ``names``, ``index``, ``write`` and
    ``move`` with the unwatched table.
    """

    names: tuple[str, ...]
    index: Mapping[str, int]
    write: tuple[int, ...]
    move: tuple[int, ...]
    target: tuple[int, ...]
    exit_name: tuple[str | None, ...]
    sweep: tuple[tuple | None, ...]
    fused: tuple[tuple[int, int, int] | None, ...]
    watches: dict | None = field(default=None, repr=False, compare=False)


# the self-loop on (symbol, write): (k, fill, first1, entries)
_SELF_LOOPS = {
    (0, 0): (1, None, None, None),
    (0, 1): (1, b"\x01", 0, None),
    (1, 0): (1, b"\x00", None, None),
    (1, 1): (1, None, None, None),
}


NO_ACTION = -2
EXIT = -1
WATCHED = -3


def compile_machine(machine: Machine, watch: frozenset[str] = frozenset()) -> CompiledMachine:
    """The engine's table of `machine`, where an entry into a state of
    `watch` from another state stops the run as an exit does; built on
    `machine.compiled`, when there is one."""
    base = machine.compiled
    if base is None or not watch:
        names = tuple(machine.states)
        index = MappingProxyType({n: i for i, n in enumerate(names)})
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
                target[j] = index.get(act.target, EXIT)
                if target[j] == EXIT:
                    exit_name[j] = act.target
    else:
        names, index, write, move = base.names, base.index, base.write, base.move
        target, exit_name = list(base.target), list(base.exit_name)
    if watch:
        for j, t in enumerate(target):
            if t >= 0 and t != j >> 1 and names[t] in watch:
                target[j] = WATCHED
                exit_name[j] = names[t]
    sweep = _sweeps(write, move, target)
    return CompiledMachine(
        names=names,
        index=index,
        write=tuple(write),  # the base table's own tuples, when shared
        move=tuple(move),
        target=tuple(target),
        exit_name=tuple(exit_name),
        sweep=tuple(sweep),
        fused=tuple(
            (w, m, t) if t >= 0 and s is None else None
            for w, m, t, s in zip(write, move, target, sweep)
        ),
        watches=None if watch else {},
    )


def _sweeps(write, move, target) -> list:
    """Each entry's cycle, or None when it starts no cycle of one move.

    Entry j = 2s + symbol leads to entry 2t + symbol when s goes to the
    state t, so the entries of one symbol form a functional graph.  Each
    entry is walked once, and every cycle found whose entries all move one
    way gives each of its k entries the cycle as seen from there.
    """
    sweep: list[tuple | None] = [None] * len(write)
    walk = [-1] * len(write)  # the first entry of the walk that reached each
    for j0 in range(len(write)):
        j = j0
        while walk[j] < 0:
            walk[j] = j0
            t = target[j]
            if t < 0:
                break
            j = 2 * t + (j & 1)
        else:
            if walk[j] != j0:
                continue  # the walk met an earlier walk
            sym = j & 1
            if target[j] == j >> 1:
                sweep[j] = _SELF_LOOPS[sym, write[j]]
                continue
            cycle = [j]
            e = 2 * target[j] + sym
            while e != j:
                cycle.append(e)
                e = 2 * target[e] + sym
            if len(set(map(move.__getitem__, cycle))) > 1:
                continue
            k = len(cycle)
            writes = bytes(map(write.__getitem__, cycle))
            changes = writes.count(sym) < k
            for i, e in enumerate(cycle):
                w = writes[i:] + writes[:i]
                sweep[e] = (
                    k,
                    w if changes else None,
                    w.find(1) if changes and not sym else None,
                    tuple(cycle[i:] + cycle[:i]),
                )
    return sweep
