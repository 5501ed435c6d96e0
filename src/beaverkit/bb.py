"""Busy-beaver registry, non-halting certificates, small-n brute force.

``brute_force_bb`` enumerates every n-state binary machine in which each
(state, read) pair carries a full (write, move, target) assignment with
target in states-plus-halt: (2*2*(n+1))^(2n) machines.  Each is classified
as halting (the halting transition counts as a step) or proven
non-halting by one of three sound deciders:

* no halting rule is reachable in the transition graph at all;
* a configuration repeats exactly (translation invariant): the engine's
  cycle check;
* a translated cycle: the head breaks its positional record twice in the
  same state and the tape, compared inward as deep as the run excursed
  between the two records (padded by the drift), matches shifted - so
  the run replays forever, displaced.

Every other verdict comes from `engine.run` from a blank tape, cycle
check on, the third decider its `trace` observer.  A verdict depends
only on the transitions the run executed, so a program that agrees with
the last one run on every entry that run read (its `profile`) shares
the verdict exactly and is not run again.

A value is only reported when zero machines remain unclassified at the
step cap; otherwise the enumeration refuses rather than guess.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
from bisect import bisect_left
from dataclasses import dataclass, field

from .engine import CYCLE, HALTED, STEP_LIMIT, RunLimits, RunOutcome, fingerprint, run
from .machine import HALT, Action, Machine, move_name, state_count
from .tables import serialize_machine
from .tape import Tape
from .textfile import Lines, load
PAPER = "paper"
COMPUTED = "computed"
CONFIGURED = "configured"


@dataclass(frozen=True)
class BBEntry:
    n: int
    value: int
    source: str


class RegistryError(ValueError):
    pass


@dataclass
class Registry:
    entries: dict[int, BBEntry] = field(default_factory=dict)

    def add(self, entry: BBEntry) -> None:
        self.entries[entry.n] = entry
        self._check_monotonic()

    def lookup(self, n: int) -> BBEntry | None:
        return self.entries.get(n)

    def _check_monotonic(self) -> None:
        ordered = sorted(self.entries.items())
        for (n1, e1), (n2, e2) in zip(ordered, ordered[1:]):
            if e1.value >= e2.value:
                raise RegistryError(
                    f"registry not strictly increasing: bb({n1})={e1.value} !< bb({n2})={e2.value}"
                )


def parse_registry(text: str) -> Registry:
    reg = Registry()
    with Lines(text, RegistryError) as lines:
        for _, line in lines:
            parts = line.split()
            if len(parts) != 4 or parts[0] != "bb":
                raise RegistryError("expected 'bb <n> <value> <source>'")
            if parts[3] not in (PAPER, COMPUTED, CONFIGURED):
                raise RegistryError(f"unknown source {parts[3]!r}")
            reg.add(BBEntry(int(parts[1]), int(parts[2]), parts[3]))
    return reg


def load_registry(path) -> Registry:
    return load(path, parse_registry)


def default_registry() -> Registry:
    """A fresh copy of the shipped registry; the file is read once."""
    return Registry(dict(_shipped_entries()))


@functools.cache
def _shipped_entries() -> tuple[tuple[int, BBEntry], ...]:
    from .data import data_path

    return tuple(load_registry(data_path("bb.registry")).entries.items())


def machine_label(machine: Machine) -> str:
    """The machine's name and a digest of its whole table, start state included.

    A certificate's `machine` line; a name alone would let the certificate
    pass for any machine called the same.
    """
    table = serialize_machine(machine).encode()
    return f"{machine.name} {hashlib.blake2b(table, digest_size=8).hexdigest()}"


@dataclass(frozen=True)
class NonHaltCertificate:
    machine: str  # `machine_label` of the machine the certificate was earned on
    steps_observed: int
    basis: str  # "bb_bound" or "cycle"
    n: int | None = None
    bb_value: int | None = None
    first_visit: int | None = None
    period: int | None = None

    def serialize(self) -> str:
        lines = [
            "certificate nonhalt",
            f"machine {self.machine}",
            f"steps {self.steps_observed}",
        ]
        if self.basis == "bb_bound":
            lines.append(f"basis bb-bound n={self.n} value={self.bb_value}")
        else:
            lines.append(f"basis cycle first={self.first_visit} period={self.period}")
        return "\n".join(lines) + "\n"


def parse_certificate(text: str) -> NonHaltCertificate:
    kv: dict = {}
    with Lines(text) as lines:
        for _, line in lines:
            key, _, rest = line.partition(" ")
            if key == "steps":
                kv[key] = int(rest)
            elif key == "basis":
                kind, *tokens = rest.split()
                kv[key] = kind, dict(_field(tok) for tok in tokens)
            elif line != "certificate nonhalt":
                kv[key] = rest
    try:
        machine, steps, (kind, fields) = kv["machine"], kv["steps"], kv["basis"]
        if kind == "bb-bound":
            return NonHaltCertificate(machine, steps, "bb_bound",
                                      n=fields["n"], bb_value=fields["value"])
        if kind == "cycle":
            return NonHaltCertificate(machine, steps, "cycle",
                                      first_visit=fields["first"], period=fields["period"])
    except KeyError as e:
        raise ValueError(f"certificate has no {e.args[0]!r}") from None
    raise ValueError(f"unrecognized certificate basis {kind!r}")


def _field(token: str) -> tuple[str, int]:
    key, eq, value = token.partition("=")
    if not eq:
        raise ValueError(f"expected <key>=<integer>, got {token!r}")
    return key, int(value)


def certify_nonhalt(
    machine: Machine, outcome: RunOutcome, registry: Registry | None = None
) -> NonHaltCertificate | None:
    """A machine-checkable non-halting certificate, when one is earned.

    Both bases speak of the run from a blank tape, which is what
    `replay_certificate` re-runs, so any other run earns none.
    """
    if outcome.kind == HALTED or not outcome.blank_start:
        return None
    if outcome.kind == CYCLE:
        return NonHaltCertificate(
            machine_label(machine), outcome.steps, "cycle",
            first_visit=outcome.first_visit, period=outcome.period,
        )
    registry = registry or default_registry()
    entry = registry.lookup(state_count(machine))
    if entry is not None and outcome.steps > entry.value:
        return NonHaltCertificate(
            machine_label(machine), outcome.steps, "bb_bound", n=entry.n, bb_value=entry.value
        )
    return None


def replay_certificate(
    machine: Machine, cert: NonHaltCertificate, registry: Registry | None = None
) -> bool:
    """Re-check a certificate from scratch against its machine: does it hold?"""
    return certificate_refusal(machine, cert, registry) is None


def certificate_refusal(
    machine: Machine, cert: NonHaltCertificate, registry: Registry | None = None
) -> str | None:
    """Why the certificate does not hold for `machine`, or None when it holds.

    The certificate's `machine` line must be the machine's label, name
    and table digest both, and its steps must be those
    `certify_nonhalt` writes for its basis: past the bound, or the first
    visit plus the period.  A bound holds only as the registry's value
    for the machine's state count; a cycle needs a first visit at step 0
    or later and a period of at least one step.  Then the run from a
    blank tape must not stop within the bound, or must come back to the
    configuration of its first visit after the period.
    """
    label = machine_label(machine)
    if cert.machine != label:
        return f"it was earned on another table: {cert.machine}, not {label}"
    if cert.basis == "bb_bound":
        n = state_count(machine)
        entry = (registry or default_registry()).lookup(n)
        if entry is None:
            return f"the registry holds no bound for {n} states"
        if (entry.n, entry.value) != (cert.n, cert.bb_value):
            return (f"its bound n={cert.n} value={cert.bb_value} is not the registry's "
                    f"n={entry.n} value={entry.value}")
        if cert.steps_observed <= cert.bb_value:
            return f"its steps {cert.steps_observed} are not past the bound {cert.bb_value}"
        limit = cert.bb_value + 1
        outcome = run(machine, limits=RunLimits(max_steps=limit))
        if outcome.kind == HALTED or outcome.steps != limit:
            return f"the run stops ({outcome.kind}) at step {outcome.steps}, within the bound"
        return None
    if cert.first_visit < 0 or cert.period < 1:
        return (f"first={cert.first_visit} period={cert.period} is no cycle: "
                "it needs first >= 0 and period >= 1")
    if cert.steps_observed != cert.first_visit + cert.period:
        return (f"its steps {cert.steps_observed} are not first + period = "
                f"{cert.first_visit + cert.period}")
    out = run(machine, limits=RunLimits(max_steps=cert.first_visit))
    first = fingerprint(out.config.state, out.config.tape)
    if out.kind == STEP_LIMIT:
        out = run(machine, out.config, RunLimits(max_steps=cert.steps_observed))
    if out.kind != STEP_LIMIT:
        return f"the run stops ({out.kind}) at step {out.steps}, before step {cert.steps_observed}"
    if fingerprint(out.config.state, out.config.tape) != first:
        return (f"the configuration at step {cert.first_visit} does not recur "
                f"at step {cert.steps_observed}")
    return None


class Inconclusive(RuntimeError):
    """The cap left machines unclassified; the value would be unsound."""


@dataclass
class BruteForceResult:
    n: int
    value: int
    champion: Machine
    total_machines: int
    tally: dict[str, int]


def brute_force_bb(n: int, step_cap: int = 200, mirror_reduction: bool = False) -> BruteForceResult:
    """Exhaustive BB(n) for n in {1, 2}; refuses to emit an unsound value."""
    if n not in (1, 2):
        raise ValueError("brute force is limited to n in {1, 2}")
    if step_cap < 1:
        raise ValueError("step cap must be positive")
    best_steps = -1
    best_prog = None
    tally = {"halt": 0, "cycle": 0, "translated": 0, "no_halt_rule": 0, "skipped_mirror": 0,
             "inconclusive": 0}
    for prog, (kind, steps) in _verdicts(n, step_cap, mirror_reduction):
        tally[kind] += 1
        if kind == "halt" and steps > best_steps:
            best_steps, best_prog = steps, prog
    inconclusive = tally.pop("inconclusive")
    if inconclusive:
        raise Inconclusive(
            f"{inconclusive} machines neither halted nor were proven non-halting "
            f"within {step_cap} steps; raise the cap"
        )
    return BruteForceResult(
        n=n,
        value=best_steps,
        champion=machine_from_program(best_prog, n),
        total_machines=(4 * (n + 1)) ** (2 * n),
        tally=tally,
    )


def _verdicts(n: int, cap: int, mirror_reduction: bool = False):
    """``(program, (kind, steps))`` for every n-state program in product order."""
    opts = [
        (w, m, t)
        for w in (0, 1)
        for m in (-1, 1)
        for t in list(range(n)) + [-1]
    ]
    ran, read, verdict = None, (), None
    for prog in itertools.product(opts, repeat=2 * n):
        if mirror_reduction and prog[0][1] == -1:
            # the left-first machine is the mirror of an enumerated one
            yield prog, ("skipped_mirror", 0)
        elif not _can_halt(prog):
            yield prog, ("no_halt_rule", 0)
        else:
            # a run's verdict depends only on the entries it read, so a
            # program that agrees with the last one run on them shares it
            if ran is None or any(prog[j] != ran[j] for j in read):
                ran = prog
                verdict, read = _simulate(prog, n, cap)
            yield prog, verdict


_STATE_NAMES = "ABCDEFGH"
_VERDICTS = {HALTED: "halt", CYCLE: "cycle"}


def machine_from_program(prog, n: int) -> Machine:
    acts = [Action(w, m, HALT if t == -1 else _STATE_NAMES[t]) for w, m, t in prog]
    label = "".join(f"{a.write}{move_name(a.move)}{a.target[0]}" for a in acts)
    states = {_STATE_NAMES[s]: (acts[2 * s], acts[2 * s + 1]) for s in range(n)}
    return Machine(name=label, start="A", states=states)


def _can_halt(prog) -> bool:
    """Decider 1, on the state graph: is a halting rule reachable from A?"""
    reach = [0]
    for s in reach:  # grows as it goes
        for _, _, t in prog[2 * s : 2 * s + 2]:
            if t == -1:
                return True
            if t not in reach:
                reach.append(t)
    return False


def _simulate(prog, n: int, cap: int):
    """Verdict of the blank-tape run of `prog`, and the entries it read.

    An observer cannot stop a run, so the budget starts at 8 steps (most
    programs are decided within 3) and doubles up to the cap until the
    verdict falls inside it; a shorter budget cuts the same run short.
    """
    machine = machine_from_program(prog, n)
    budget = min(cap, 8)
    while True:
        read: set = set()
        watch = _RecordWatch(machine.start)
        out = run(machine, limits=RunLimits(max_steps=budget, cycle_check=True),
                  trace=watch, profile=read)
        # a hit at the step the run stopped on loses: to an exact repeat
        # found there, to the halt, or to a budget it does not fit in
        if watch.hit is not None and watch.hit < out.steps:
            verdict = ("translated", watch.hit)
            break
        if out.kind != STEP_LIMIT or budget == cap:
            verdict = (_VERDICTS.get(out.kind, "inconclusive"), out.steps)
            break
        budget = min(cap, 2 * budget)
    return verdict, [2 * _STATE_NAMES.index(s) + sym for s, sym in read]


class _RecordWatch:
    """Decider 3 as a `trace` observer: notes the first translated cycle.

    At each right (left) record of the head, the tape is compared with
    the snapshot of every earlier record in the same state and direction,
    shifted by the drift.  `trace` sees configuration s before the
    engine's cycle check of s, so a hit at s stands only if the run went
    on past s.
    """

    def __init__(self, start: str):
        self.records: dict = {}  # (state, direction) -> [(step, head, tape)]
        # (step, head) of every suffix minimum (maximum) of the head so far,
        # oldest first: the lowest (highest) head since step t is the first
        # entry at t or later
        self.lows: list[tuple[int, int]] = []
        self.highs: list[tuple[int, int]] = []
        self.rrec, self.lrec = -1, 1
        self.hit = None
        self(0, start, 0, Tape())  # the blank start, which `trace` never sees

    def __call__(self, step, state, head, tape) -> None:
        if self.hit is not None:
            return
        for d, isrec in ((1, head > self.rrec), (-1, head < self.lrec)):
            if not isrec:
                continue
            for t1, h1, snap in self.records.get((state, d), ()):
                drift = (head - h1) * d
                if drift <= 0:
                    continue
                # as deep inward as the run excursed between the records
                extremes = self.lows if d > 0 else self.highs
                inward = (extremes[bisect_left(extremes, (t1,))][1] - h1) * d
                if all(tape.read(head + j * d) == snap.read(h1 + j * d)
                       for j in range(inward - drift, 1)):
                    self.hit = step
                    return
            self.records.setdefault((state, d), []).append((step, head, tape.clone()))
        self.rrec = max(self.rrec, head)
        self.lrec = min(self.lrec, head)
        lows, highs = self.lows, self.highs
        while lows and lows[-1][1] >= head:
            lows.pop()
        lows.append((step, head))
        while highs and highs[-1][1] <= head:
            highs.pop()
        highs.append((step, head))
