"""Busy-beaver registry, non-halting certificates, small-n brute force.

``brute_force_bb`` enumerates every n-state binary machine in which each
(state, read) pair carries a full (write, move, target) assignment with
target in states-plus-halt: (2*2*(n+1))^(2n) machines.  Each is run from
a blank tape and classified as halting (the halting transition counts as
a step) or proven non-halting by one of three sound deciders:

* no halting rule is reachable in the transition graph at all;
* a configuration fingerprint repeats exactly (translation invariant);
* a translated cycle: the head breaks its positional record twice in the
  same state and the tape, compared inward as deep as the run excursed
  between the two records (padded by the drift), matches shifted - so
  the run replays forever, displaced.

A value is only reported when zero machines remain unclassified at the
step cap; otherwise the enumeration refuses rather than guess.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .engine import CYCLE, HALTED, RunLimits, RunOutcome, fingerprint, run
from .machine import HALT, Action, Machine, state_count
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

    def serialize(self) -> str:
        return "".join(
            f"bb {e.n} {e.value} {e.source}\n" for _, e in sorted(self.entries.items())
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
    from .data import data_path

    return load_registry(data_path("bb.registry"))


@dataclass(frozen=True)
class NonHaltCertificate:
    machine_name: str
    steps_observed: int
    basis: str  # "bb_bound" or "cycle"
    n: int | None = None
    bb_value: int | None = None
    first_visit: int | None = None
    period: int | None = None

    def serialize(self) -> str:
        lines = [
            "certificate nonhalt",
            f"machine {self.machine_name}",
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
                kv[key] = kind, {k: int(v) for k, v in (tok.split("=") for tok in tokens)}
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
            machine.name, outcome.steps, "cycle",
            first_visit=outcome.first_visit, period=outcome.period,
        )
    registry = registry or default_registry()
    entry = registry.lookup(state_count(machine))
    if entry is not None and outcome.steps > entry.value:
        return NonHaltCertificate(
            machine.name, outcome.steps, "bb_bound", n=entry.n, bb_value=entry.value
        )
    return None


def replay_certificate(machine: Machine, cert: NonHaltCertificate) -> bool:
    """Re-check a certificate from scratch against its machine."""
    if cert.basis == "bb_bound":
        if state_count(machine) != cert.n:
            return False
        outcome = run(machine, limits=RunLimits(max_steps=cert.bb_value + 1))
        return outcome.kind != HALTED and outcome.steps == cert.bb_value + 1
    out1 = run(machine, limits=RunLimits(max_steps=cert.first_visit))
    fp1 = fingerprint(out1.config)
    out1.config.steps = 0
    out2 = run(machine, out1.config, RunLimits(max_steps=cert.period))
    return out2.kind == "step_limit" and fingerprint(out2.config) == fp1


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
    opts = [
        (w, m, t)
        for w in (0, 1)
        for m in (-1, 1)
        for t in list(range(n)) + [-1]
    ]
    best_steps = -1
    best_prog = None
    tally = {"halt": 0, "cycle": 0, "translated": 0, "no_halt_rule": 0, "skipped_mirror": 0}
    inconclusive = 0
    total = 0
    for prog in itertools.product(opts, repeat=2 * n):
        total += 1
        if mirror_reduction and prog[0][1] == -1:
            # the left-first machine is the mirror of an enumerated one
            tally["skipped_mirror"] += 1
            continue
        kind, steps = _classify(prog, n, step_cap)
        if kind == "halt":
            tally["halt"] += 1
            if steps > best_steps:
                best_steps, best_prog = steps, prog
        elif kind == "inconclusive":
            inconclusive += 1
        else:
            tally[kind] += 1
    if inconclusive:
        raise Inconclusive(
            f"{inconclusive} machines neither halted nor were proven non-halting "
            f"within {step_cap} steps; raise the cap"
        )
    return BruteForceResult(
        n=n,
        value=best_steps,
        champion=machine_from_program(best_prog, n),
        total_machines=total,
        tally=tally,
    )


_STATE_NAMES = "ABCDEFGH"


def machine_from_program(prog, n: int) -> Machine:
    states = {}
    for s in range(n):
        acts = []
        for sym in (0, 1):
            w, m, t = prog[2 * s + sym]
            acts.append(Action(w, m, HALT if t == -1 else _STATE_NAMES[t]))
        states[_STATE_NAMES[s]] = (acts[0], acts[1])
    return Machine(name=_program_label(prog, n), start="A", states=states)


def _program_label(prog, n: int) -> str:
    parts = []
    for s in range(n):
        for sym in (0, 1):
            w, m, t = prog[2 * s + sym]
            parts.append(f"{w}{'L' if m < 0 else 'R'}{'H' if t == -1 else _STATE_NAMES[t]}")
    return "".join(parts)


def _classify(prog, n: int, cap: int) -> tuple[str, int]:
    # decider 1: no halting rule reachable in the state graph
    reach = {0}
    frontier = [0]
    can_halt = False
    while frontier:
        s = frontier.pop()
        for sym in (0, 1):
            t = prog[2 * s + sym][2]
            if t == -1:
                can_halt = True
            elif t not in reach:
                reach.add(t)
                frontier.append(t)
    if not can_halt:
        return ("no_halt_rule", 0)

    tape: dict[int, int] = {}
    head = 0
    state = 0
    seen: dict = {}
    rrec, lrec = -1, 1
    records: dict = {}
    heads: list[int] = []
    for step in range(cap):
        # decider 2: exact configuration repeat (translation invariant)
        if tape:
            lo, hi = min(tape), max(tape)
            key = (state, head - lo, tuple(tape.get(i, 0) for i in range(lo, hi + 1)))
        else:
            key = (state, 0, ())
        if key in seen:
            return ("cycle", step)
        seen[key] = step
        # decider 3: translated cycle at positional records
        for d, isrec in ((1, head > rrec), (-1, head < lrec)):
            if not isrec:
                continue
            for t1, h1, snap1 in records.get((state, d), ()):
                drift = (head - h1) * d
                if drift <= 0:
                    continue
                inward = 0
                for hh in heads[t1:step]:
                    inward = min(inward, (hh - h1) * d)
                ok = True
                for j in range(inward - drift, 1):
                    if tape.get(head + j * d, 0) != snap1.get(h1 + j * d, 0):
                        ok = False
                        break
                if ok:
                    return ("translated", step)
            records.setdefault((state, d), []).append((step, head, dict(tape)))
        rrec = max(rrec, head)
        lrec = min(lrec, head)
        heads.append(head)
        w, m, t = prog[2 * state + tape.get(head, 0)]
        if w:
            tape[head] = 1
        else:
            tape.pop(head, None)
        head += m
        if t == -1:
            return ("halt", step + 1)
        state = t
    return ("inconclusive", cap)
