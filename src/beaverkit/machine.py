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

    Two caches, filled at first use and kept out of construction, repr
    and equality: `compiled` holds the engine's flat form, filled by the
    machine's first run, and `digest` the hex digest of its table text,
    filled by its first `bb.machine_label`.
    """

    name: str
    start: str
    states: Mapping[str, tuple[Action | None, Action | None]]
    compiled: CompiledMachine | None = field(
        default=None, init=False, repr=False, compare=False
    )
    digest: str | None = field(default=None, init=False, repr=False, compare=False)

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

    Entry ``2*state_index + symbol`` describes that transition, and a
    state is named by its first entry, so the entry it reads is that
    plus the symbol.  ``entry`` holds each entry's record ``(write, move,
    target)``: target is the successor's first entry, or a stop: `EXIT`
    when the successor is undefined, external, or the halt marker,
    `WATCHED` when it is a watched state the entry enters from another
    state (a self-loop enters nothing), and `NO_ACTION`, with write 0
    and move right, when no action exists.  The successor's name of an
    `EXIT` or `WATCHED` entry is in ``exit_name``.  ``loop`` and
    ``sweep`` come from one walk over the table, which finds the cycle
    of k >= 1 states each entry starts, all reading its symbol and moving
    one way, if any.  Started on a run of that symbol, the cycle crosses
    it: the i-th cell gets the write of the cycle's (i mod k)-th entry.
    Its ``fill`` is the k writes in cycle order, or None when each entry
    writes the symbol it reads.  A cycle of one state, a self-loop, is
    ``loop``'s: ``(move, fill)``.  A cycle of k > 1 states is
    ``sweep``'s: the plain tuple ``(k, fill, first1, states)`` (the
    loop unpacks it, which a tuple subclass would slow), where
    ``first1`` is the offset of the first 0->1 write, or None when there
    is none, and ``states`` lists the first entries of the k states,
    this one's first.  Both hold None for every other entry.  No cycle
    runs through a stop, so none through a watched state.  ``trap``,
    from the same walk, maps each entry that can trap the head in a
    2-cell window, a self-loop too, to a pair, indexed by the neighbour
    cell's symbol, of its trap there or None: the walk ``(mu, configs)``
    that `_trap` gives.  No trap runs through a stop either.  ``fused``
    holds the record itself of each entry whose target is a state and
    that starts no self-loop and no sweep, and None for every other
    entry: the engine executes such an entry with one lookup and one
    unpack.  ``watches``, in an unwatched table, maps each watch set (a
    frozenset of state names) a run asked for to that set's table,
    compiled at its first run; a watched table has None there, and
    shares ``names``, ``index`` and the records of the entries it does
    not stop with the unwatched table.  ``proofs`` is what the
    shuttle-rule prover (`rules.Prover`) established on this table, for
    every run on it: ``(rules, fails)``, dicts keyed by entry of its last
    rule and of its long scans in a row that applied nothing (a count
    that stops at `rules.MAX_FAILS`, so that every run retries every
    entry).  It is None until the table's first scan long enough to try a
    rule, and a watched table keeps its own.
    """

    names: tuple[str, ...]
    index: Mapping[str, int]
    entry: tuple[tuple[int, int, int], ...]
    exit_name: tuple[str | None, ...]
    loop: tuple[tuple[int, bytes | None] | None, ...]
    sweep: tuple[tuple | None, ...]
    trap: Mapping[int, tuple]
    fused: tuple[tuple[int, int, int] | None, ...]
    watches: dict | None = field(default=None, repr=False, compare=False)
    proofs: tuple | None = field(default=None, init=False, repr=False, compare=False)


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
        entry = [(0, RIGHT, NO_ACTION)] * (2 * len(names))
        exit_name: list[str | None] = [None] * len(entry)
        for name, (on_zero, on_one) in machine.states.items():
            for sym, act in ((ZERO, on_zero), (ONE, on_one)):
                if act is None:
                    continue
                j = 2 * index[name] + sym
                t = index.get(act.target)
                if t is None:
                    exit_name[j] = act.target
                entry[j] = (act.write, act.move, EXIT if t is None else 2 * t)
    else:
        names, index = base.names, base.index
        entry, exit_name = list(base.entry), list(base.exit_name)
    if watch:
        for j, (w, m, t) in enumerate(entry):
            if t >= 0 and t != j & ~1 and names[t >> 1] in watch:
                entry[j] = (w, m, WATCHED)
                exit_name[j] = names[t >> 1]
    loop, sweep, trap = _crossings(entry)
    return CompiledMachine(
        names=names,
        index=index,
        entry=tuple(entry),  # the base table's own records, where not stopped
        exit_name=tuple(exit_name),
        loop=tuple(loop),
        sweep=tuple(sweep),
        trap=trap,
        fused=tuple(
            e if e[2] >= 0 and s is None and lp is None else None
            for e, s, lp in zip(entry, sweep, loop)
        ),
        watches=None if watch else {},
    )


def _crossings(entry) -> tuple[list, list, dict]:
    """`CompiledMachine`'s ``(loop, sweep, trap)``: the crossing each
    entry starts, and its 2-cell traps.

    Entry j leads to entry t + symbol when its target is t, the first
    entry of a state, so the entries of one symbol form a functional
    graph.  Each entry is walked once, and every cycle found whose
    entries all move one way gives each of its k entries the cycle as
    seen from there: in `loop` when k = 1, in `sweep` when k > 1.

    The walk also tries each entry j into a state B for traps, B being
    j's own state when j is a self-loop.  j reads s, writes w and moves
    m: its window is the head's cell and the one at m.  Only when B,
    reading the neighbour's symbol b, steps back, and its successor,
    reading w, steps out again, can (j, b) trap the head, so only then
    does `_trap` walk the window.
    """
    loop: list[tuple | None] = [None] * len(entry)
    sweep: list[tuple | None] = [None] * len(entry)
    trap: dict = {}
    walk = [-1] * len(entry)  # the first entry of the walk that reached each
    for j0 in range(len(entry)):
        j = j0
        while walk[j] < 0:
            walk[j] = j0
            w, m, t = entry[j]
            if t < 0:
                break
            # `_trap`'s first two steps, for each neighbour symbol b: B,
            # reading b, steps back, and its successor, reading w, steps
            # out again
            if entry[t][1] != m:
                u = entry[t][2]
                if u >= 0 and entry[u + w][1] == m:
                    _trap(entry, j, 0, trap)
            if entry[t + 1][1] != m:
                u = entry[t + 1][2]
                if u >= 0 and entry[u + w][1] == m:
                    _trap(entry, j, 1, trap)
            j = t + (j & 1)
        else:
            if walk[j] != j0:
                continue  # the walk met an earlier walk
            sym = j & 1
            cycle = [j]
            e = entry[j][2] + sym
            while e != j:
                cycle.append(e)
                e = entry[e][2] + sym
            if len({entry[e][1] for e in cycle}) > 1:
                continue
            k = len(cycle)
            fill = bytes(entry[e][0] for e in cycle)
            if fill.count(sym) == k:
                fill = None  # each entry writes the symbol it reads
            if k == 1:
                loop[j] = (entry[j][1], fill)
                continue
            states = [e - sym for e in cycle]
            for i, e in enumerate(cycle):
                w = None if fill is None else fill[i:] + fill[:i]
                first1 = None if w is None or sym else w.find(1)
                sweep[e] = (k, w, first1, tuple(states[i:] + states[:i]))
    for j, pair in trap.items():
        trap[j] = tuple(pair)
    return loop, sweep, trap


def _trap(entry, j, b, trap) -> None:
    """Put the trap of entry j beside a cell holding b, if any, in ``trap[j][b]``.

    A window configuration is ``(state, d, x, y)``: the state's first
    entry, the head's offset d from the cell j read (0 or j's move m),
    and the symbols x and y of that cell and of its neighbour at m.  Its
    successor is the window configuration after one transition, while
    that transition is no stop and moves the head to the window's other
    cell.  There are 8 per state, so the walk from ``(j's state, 0, s,
    b)`` leaves the window, stops or repeats within 8 steps per state.
    A repeat makes the trap ``(mu, configs)``, the walk: its first mu
    configurations lead into a cycle of the rest, so after n steps the
    head is in ``configs[n]`` when n < len(configs), and in
    ``configs[mu + (n - mu) % (len(configs) - mu)]`` after.
    """
    s = j & 1
    m = entry[j][1]
    config = (j - s, 0, s, b)
    index: dict = {}  # each configuration of the walk -> its step
    while config not in index:
        index[config] = len(index)
        state, d, x, y = config
        w, move, t = entry[state + (y if d else x)]
        if t < 0 or move != (-m if d else m):
            return
        config = (t, 0, x, w) if d else (t, m, w, y)
    trap.setdefault(j, [None, None])[b] = (index[config], tuple(index))
