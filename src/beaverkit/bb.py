"""Busy-beaver registry, non-halting certificates, small-n brute force.

``brute_force_bb`` covers every n-state binary program, (2*2*(n+1))^(2n)
of them: each (state, read) entry carries a (write, move, target) with
target in states-plus-halt.  It walks Brady's tree normal form: an entry
is chosen only when a run first reads it, and the tree branches there
over every action, so one leaf covers every completion of the entries
its run never read.  A leaf halts (the halting transition counts as a
step) or is proven non-halting by one of two sound deciders:

* no undefined entry and no halting rule is reachable in the state graph;
* a closed position set (CPS) of k-grams, for k = 1 ... `CPS_MAX`
  (bbchallenge collaboration, "Determination of the fifth Busy Beaver
  value", 2025).  Sets L and R hold the k-grams that may stand left and
  right of the head, both {0^k} at first, and the local configurations
  (state, left k-gram, symbol, right k-gram) are closed under the
  transitions from the blank one.  The closure holds every configuration
  a run can reach, seen k cells each side of the head, so when it reads
  no undefined or halting entry no completion of the leaf halts.

A child neither decider settles runs once from a blank tape, unobserved
and up to the step cap: the run finds the undefined entry it halts on,
which opens next, or leaves the child inconclusive.

A value is only reported when zero machines remain unclassified at the
step cap; otherwise the search refuses rather than guess.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .engine import CYCLE, HALTED, STEP_LIMIT, RunLimits, RunOutcome, fingerprint, run
from .machine import HALT, Action, Machine, move_name, state_count
from .tables import serialize_machine
from .textfile import Lines, load

try:  # the built-in module; `hashlib` would also map OpenSSL's libcrypto
    from _blake2 import blake2b
except ImportError:
    from hashlib import blake2b
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
            n = int(parts[1])
            if n in reg.entries:
                raise RegistryError(f"bb({n}) is listed twice")
            reg.add(BBEntry(n, int(parts[2]), parts[3]))
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
    pass for any machine called the same.  A machine cannot change, so the
    digest is computed once per machine and kept on it.
    """
    digest = machine.digest
    if digest is None:
        digest = blake2b(serialize_machine(machine).encode(), digest_size=8).hexdigest()
        object.__setattr__(machine, "digest", digest)  # a cache, not a field value
    return f"{machine.name} {digest}"


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


_HEADER = "certificate nonhalt"
# each basis by its file name: its kind, and its fields with their attributes
_BASES = {
    "bb-bound": ("bb_bound", {"n": "n", "value": "bb_value"}),
    "cycle": ("cycle", {"first": "first_visit", "period": "period"}),
}


def parse_certificate(text: str) -> NonHaltCertificate:
    """The certificate `NonHaltCertificate.serialize` wrote, read strictly.

    The header comes first, then `machine`, `steps` and `basis` once each,
    in any order, and the basis takes each of its own fields once.  Any
    other line, a repeated one included, is refused at its line.
    """
    kv: dict = {}
    header = False
    with Lines(text) as lines:
        for _, line in lines:
            if not header:
                if line != _HEADER:
                    raise ValueError(f"expected {_HEADER!r} first, got {line!r}")
                header = True
                continue
            key, _, rest = line.partition(" ")
            if key not in ("machine", "steps", "basis"):
                raise ValueError(f"unknown certificate line {line!r}")
            if key in kv:
                raise ValueError(f"a second {key!r} line")
            if not rest:
                raise ValueError(f"{line!r} is missing an argument")
            if key == "steps":
                kv[key] = int(rest)
            elif key == "basis":
                kv[key] = _basis(*rest.split())
            else:
                kv[key] = rest
    try:
        machine, steps, (kind, fields) = kv["machine"], kv["steps"], kv["basis"]
    except KeyError as e:
        raise ValueError(f"certificate has no {e.args[0]!r}") from None
    return NonHaltCertificate(machine, steps, kind, **fields)


def _basis(kind: str, *tokens: str) -> tuple[str, dict]:
    """A `basis` line's kind and its fields, by attribute: all of them, once each."""
    if kind not in _BASES:
        raise ValueError(f"unrecognized certificate basis {kind!r}")
    basis, names = _BASES[kind]
    fields: dict = {}
    for token in tokens:
        key, eq, value = token.partition("=")
        if not eq:
            raise ValueError(f"expected <key>=<integer>, got {token!r}")
        if key not in names:
            raise ValueError(f"basis {kind} takes no field {key!r}")
        if names[key] in fields:
            raise ValueError(f"a second field {key!r}")
        fields[names[key]] = int(value)
    for key, name in names.items():
        if name not in fields:
            raise ValueError(f"certificate has no {key!r}")
    return basis, fields


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
    total_machines: int  # (4(n+1))^(2n), the programs the tree's leaves cover
    tally: dict[str, int]  # those programs by the verdict of the leaf covering them


def brute_force_bb(n: int, step_cap: int = 200) -> BruteForceResult:
    """Exhaustive BB(n) for n in {1, 2}; refuses to emit an unsound value.

    The champion is the first program in product order that reaches the
    value: the least minimal completion among the best halting leaves.
    """
    if n not in (1, 2):
        raise ValueError("brute force is limited to n in {1, 2}")
    if step_cap < 1:
        raise ValueError("step cap must be positive")
    opts = [(w, m, t) for w in (0, 1) for m in (-1, 1) for t in [*range(n), -1]]
    tally = dict.fromkeys(("halt", "closed", "no_halt_rule", "inconclusive"), 0)
    halts = []
    for prog, (kind, steps) in _leaves(n, step_cap, opts):
        tally[kind] += len(opts) ** prog.count(None)
        if kind == "halt":
            halts.append((-steps, [0 if e is None else opts.index(e) for e in prog]))
    if inconclusive := tally.pop("inconclusive"):
        raise Inconclusive(f"{inconclusive} machines neither halted nor were proven "
                           f"non-halting within {step_cap} steps; raise the cap")
    steps, first = min(halts)
    champion = machine_from_program([opts[i] for i in first], n)
    return BruteForceResult(n, -steps, champion, len(opts) ** (2 * n), tally)


def _leaves(n: int, cap: int, opts: list):
    """``(program, (kind, steps))`` for every leaf; None marks a free entry.

    An entry opened at step s branches over every action of `opts`: a
    halt is a leaf at s + 1, and any other child is judged by decider 1,
    then by `_judge`.  No child holds a halting rule, so a run halts only
    on an undefined entry, and that entry opens next.  A closed leaf's
    steps are the k of its k-grams.
    """
    stack = [((None,) * (2 * n), 0, 0)]  # (program, open entry, step it is read at)
    while stack:
        prog, j, s = stack.pop()
        for act in opts:
            child = prog[:j] + (act,) + prog[j + 1 :]
            if act[2] == -1:
                yield child, ("halt", s + 1)
            elif not _can_halt(child):
                yield child, ("no_halt_rule", 0)
            else:
                verdict, read = _judge(child, n, cap)
                if verdict[0] == "halt":
                    stack.append((child, next(i for i in read if child[i] is None), verdict[1]))
                else:
                    yield child, verdict


_STATE_NAMES = "ABCDEFGH"
CPS_MAX = 5  # the largest k-gram a closed position set tries


def machine_from_program(prog, n: int) -> Machine:
    """The machine of `prog`; None entries (``---``) and empty states stay undefined."""
    acts = [e and Action(e[0], e[1], HALT if e[2] == -1 else _STATE_NAMES[e[2]]) for e in prog]
    label = "".join(f"{a.write}{move_name(a.move)}{a.target[0]}" if a else "---" for a in acts)
    states = {_STATE_NAMES[s]: (acts[2 * s], acts[2 * s + 1]) for s in range(n)
              if acts[2 * s] or acts[2 * s + 1]}
    return Machine(name=label, start="A", states=states)


def _can_halt(prog) -> bool:
    """Decider 1, on the state graph: can a run from A read an undefined or halting entry?"""
    reach = [0]
    for s in reach:  # grows as it goes
        for e in prog[2 * s : 2 * s + 2]:
            if e is None or e[2] == -1:
                return True
            if e[2] not in reach:
                reach.append(e[2])
    return False


def _judge(prog, n: int, cap: int):
    """Verdict of a program decider 1 leaves open, and the entries it rests on.

    CPS tries k = 1 ... `CPS_MAX`; ``("closed", k)`` rests on every entry
    those closures read.  Otherwise the blank-tape run decides: a halt
    rests on the entries the run read, an undefined one included, since
    no closure closes a program that halts; a run that stops short of a
    halt rests on the closures' entries too.
    """
    tried: set = set()
    for k in range(1, CPS_MAX + 1):
        if _closes(prog, k, tried):
            return ("closed", k), tried
    reads: set = set()
    out = run(machine_from_program(prog, n), limits=RunLimits(max_steps=cap), profile=reads)
    read = {2 * _STATE_NAMES.index(s) + sym for s, sym in reads}
    if out.kind != HALTED:
        return ("inconclusive", out.steps), read | tried
    if out.halting_state != HALT:  # an undefined state or action stopped it
        tape = out.config.tape
        read.add(2 * _STATE_NAMES.index(out.halting_state) + tape.read(tape.head))
    return ("halt", out.steps), read


def _closes(prog, k: int, read: set) -> bool:
    """Decider 2: does the closed position set of k-grams read no
    undefined or halting entry?  `read` gains every entry it reads.

    A k-gram lists cells outward from the head, the nearest first.  A
    move pushes the written cell onto the k-gram behind the head, and
    that k-gram joins its side's set; the k-gram ahead becomes any member
    of its side's set that continues it.  When a set grows, every
    configuration found so far is expanded again: it may continue into
    the new k-gram.
    """
    blank = (0,) * k
    grams = ({blank}, {blank})  # L, R
    start = (0, blank, 0, blank)  # state, left k-gram, symbol, right k-gram
    seen, todo = {start}, [start]
    while todo:
        state, left, sym, right = todo.pop()
        entry = 2 * state + sym
        read.add(entry)
        if prog[entry] is None or prog[entry][2] == -1:
            return False
        write, move, target = prog[entry]
        behind, ahead = (left, right) if move > 0 else (right, left)
        behind_set, ahead_set = grams if move > 0 else grams[::-1]
        pushed = (write,) + behind[:-1]
        if pushed not in behind_set:
            behind_set.add(pushed)
            todo.extend(seen)
        for gram in ahead_set:
            if gram[:-1] == ahead[1:]:
                nxt = (target, pushed, ahead[0], gram) if move > 0 else (target, gram, ahead[0], pushed)
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
    return True
