"""Scenario-driven verification of machines against arithmetic oracles.

A scenario pins a machine (composed, or one section standalone), an
entry state, an initial tape, budgets, and exactly one expectation.
Scenario files hold one stanza per scenario::

    scenario <name>
    machine <manifestFile> | <manifestFile>#<sectionLabel> | <tableFile>
    entry <state>                      # optional, default: machine start
    tape blank | unary <ints...> | window <startCell> <symbols...>
    head abs <n> | block <i> left|right|after     # optional, default abs 0
    limit steps=<n> [cells=<n>]                   # optional
    expect oracle <name> <args...>
    expect snapshot <a>..<b> <symbols...>          # b > a, b - a symbols
    expect halted [state] | nothalt
    expect transfer <state>[@<k>] [values <ints...>]

``#`` opens a comment at the start of a line or after whitespace (the
rule every beaverkit file shares), so ``<manifestFile>#<sectionLabel>``
is one token.  ``transfer S@k`` (k >= 1) stops at the k-th entry into
S; entering an undefined or external name (a standalone section's NM
exit) counts as reaching it.
Report lines are ``PASS|FAIL <name> steps=<n> [observed=.. expected=..]``.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import oracles
from .engine import HALTED, WATCH, RunLimits, RunOutcome, run
from .machine import HALT, NEXT_MACHINE, Machine, parse_symbol
from .tape import Configuration, Tape
from .compose import compose, load_manifest, section_machine
from .tables import build_machine, load_table
from .textfile import Lines, load, located


@dataclass(frozen=True)
class OracleExpect:
    name: str
    args: tuple[int, ...]


@dataclass(frozen=True)
class SnapshotExpect:
    start: int
    stop: int
    symbols: tuple[int, ...]


@dataclass(frozen=True)
class OutcomeExpect:
    kind: str  # "halted" or "nothalt"
    state: str | None = None


@dataclass(frozen=True)
class TransferExpect:
    state: str
    values: tuple[int, ...] | None = None
    occurrence: int = 1


Expectation = OracleExpect | SnapshotExpect | OutcomeExpect | TransferExpect

_ORACLES = ("square", "factorial_plus_one", "fermat", "prime", "brocard")  # one integer each
_HEAD_EDGES = ("left", "right", "after")
_LIMITS = {"steps": "max_steps", "cells": "max_support_cells"}


@dataclass
class Scenario:
    name: str
    machine_ref: str
    entry: str | None = None
    tape_blocks: tuple[int, ...] | None = None
    tape_window: tuple[int, tuple[int, ...]] | None = None
    head: tuple = ("abs", 0)
    limits: RunLimits = field(default_factory=RunLimits)
    expect: Expectation = OutcomeExpect("nothalt")

    def build_tape(self) -> Tape:
        kind, *rule = self.head
        if kind == "block":
            if self.tape_blocks is None:
                raise ValueError(f"{self.name}: head block rule needs a unary tape")
            return oracles.encode_tape(oracles.UnaryLayout(self.tape_blocks, *rule))
        if kind != "abs":
            raise ValueError(f"{self.name}: unknown head rule {self.head!r}")
        if self.tape_blocks is not None:
            tape = oracles.encode_tape(oracles.UnaryLayout(self.tape_blocks))
        elif self.tape_window is not None:
            start, symbols = self.tape_window
            tape = Tape.from_symbols(list(symbols), start_cell=start)
        else:
            tape = Tape()
        tape.head = rule[0]
        return tape


@dataclass
class Report:
    name: str
    passed: bool
    steps: int
    wall_ms: float
    observed: str = ""
    expected: str = ""

    def line(self, deterministic: bool = False) -> str:
        status = "PASS" if self.passed else "FAIL"
        s = f"{status} {self.name} steps={self.steps}"
        if not deterministic:
            s += f" wall_ms={self.wall_ms:.1f}"
        if not self.passed:
            s += f" observed={self.observed} expected={self.expected}"
        return s


def _reached(outcome: RunOutcome, state: str) -> bool:
    if outcome.kind == WATCH and outcome.watched_state == state:
        return True
    return outcome.kind == HALTED and outcome.halting_state == state


def _is_true_halt(outcome: RunOutcome) -> bool:
    """Halted somewhere other than a section's NM exit."""
    return outcome.kind == HALTED and outcome.halting_state != NEXT_MACHINE


def entry_state(scenario: Scenario, machine: Machine, alias: dict | None = None) -> str:
    """The state `scenario` starts `machine` in, its name translated by `alias`."""
    entry = scenario.entry or machine.start
    return (alias or {}).get(entry, entry)


def watch_states(scenario: Scenario, machine: Machine, alias: dict | None = None) -> tuple[str, ...]:
    """The states whose entry stops a run of `scenario` on `machine`.

    A transfer watches its target; the square-check oracle watches the
    factorial-return states, those named ``Kf`` or ``*.Kf``; other
    expectations watch nothing.  `alias` translates the names, as for
    `entry_state`.
    """
    alias = alias or {}
    exp = scenario.expect
    if isinstance(exp, TransferExpect):
        return (alias.get(exp.state, exp.state),)
    if isinstance(exp, OracleExpect) and exp.name == "brocard":
        kf = {s for s in machine.states if s == "Kf" or s.endswith(".Kf")}
        kf.update(v for k, v in alias.items() if k == "Kf" or k.endswith(".Kf"))
        return tuple(sorted(kf))
    return ()


def execute_scenario(
    scenario: Scenario,
    machine: Machine,
    *,
    profile: set | None = None,
    alias: dict | None = None,
) -> RunOutcome:
    """Run a scenario's machine exactly as its expectation demands.

    The run starts in `entry_state` and stops on entering one of
    `watch_states`; a transfer to `S@k` runs on to the k-th entry into
    S.  `alias` translates entry and watch state names (used when
    judging merged machines).
    """
    config = Configuration(entry_state(scenario, machine, alias), scenario.build_tape())
    watch = watch_states(scenario, machine, alias)
    exp = scenario.expect
    legs = exp.occurrence if isinstance(exp, TransferExpect) else 1
    for _ in range(legs):
        outcome = run(machine, config, scenario.limits, watch=watch, profile=profile)
        config = outcome.config
        if outcome.kind != WATCH:
            break
    return outcome


def run_scenario(scenario: Scenario, resolver) -> Report:
    t0 = time.perf_counter()
    machine = resolver(scenario.machine_ref)
    exp = scenario.expect

    def report(passed, outcome, observed="", expected=""):
        return Report(
            scenario.name,
            passed,
            outcome.steps,
            (time.perf_counter() - t0) * 1000.0,
            observed,
            expected,
        )

    outcome = execute_scenario(scenario, machine)
    if isinstance(exp, TransferExpect):
        hit = _reached(outcome, exp.state)
        if not hit:
            return report(False, outcome, observed=f"{outcome.kind}:{outcome.config.state}",
                          expected=f"transfer:{exp.state}")
        if exp.values is None:
            return report(True, outcome)
        got = outcome.config.tape.blocks()
        return report(tuple(got) == tuple(exp.values), outcome,
                      observed=str(got), expected=str(list(exp.values)))

    if isinstance(exp, OracleExpect):
        return _judge_oracle(scenario, outcome, exp, report)

    if isinstance(exp, SnapshotExpect):
        got = outcome.config.tape.snapshot(exp.start, exp.stop)
        return report(got == exp.symbols, outcome,
                      observed=" ".join(map(str, got)),
                      expected=" ".join(map(str, exp.symbols)))
    if isinstance(exp, OutcomeExpect):
        if exp.kind == "halted":
            ok = _is_true_halt(outcome) and (exp.state is None or outcome.halting_state == exp.state)
            return report(ok, outcome, observed=f"{outcome.kind}:{outcome.config.state}",
                          expected="halted" + (f":{exp.state}" if exp.state else ""))
        ok = outcome.kind != HALTED
        return report(ok, outcome, observed=outcome.kind, expected="nothalt")
    raise TypeError(f"unknown expectation {exp!r}")


def _judge_oracle(scenario, outcome, exp, report):
    name, args = exp.name, exp.args
    if name in ("square", "factorial_plus_one", "fermat"):
        (x,) = args
        want = {
            "square": [x * x + 1],
            "factorial_plus_one": [oracles.factorial_plus_one(x)],
            "fermat": [oracles.fermat_number(x)],
        }[name]
        got = outcome.config.tape.blocks()
        return report(outcome.kind == HALTED and got == want, outcome,
                      observed=f"{outcome.kind}:{got}", expected=f"halted:{want}")
    if name == "prime":
        (n,) = args
        if oracles.is_prime(n):
            ok = _is_true_halt(outcome)
            return report(ok, outcome, observed=f"{outcome.kind}:{outcome.config.state}",
                          expected="halted (prime)")
        got = outcome.config.tape.blocks()
        ok = outcome.kind == HALTED and outcome.halting_state == NEXT_MACHINE and got == [n - 1]
        return report(ok, outcome, observed=f"{outcome.kind}:{outcome.config.state}:{got}",
                      expected=f"transfer:{NEXT_MACHINE}:[{n - 1}]")
    if name == "brocard":
        (m,) = args
        square, _ = oracles.is_perfect_square(m)
        if square:
            ok = outcome.kind == HALTED and outcome.halting_state == HALT
            return report(ok, outcome, observed=f"{outcome.kind}:{outcome.config.state}",
                          expected="halted (square)")
        got = outcome.config.tape.blocks()
        ok = outcome.kind == WATCH and got == [m - 1]
        return report(ok, outcome, observed=f"{outcome.kind}:{got}",
                      expected=f"transfer:Kf:[{m - 1}]")
    raise ValueError(f"unknown oracle {name!r}")


def run_suite(scenarios, resolver, jobs: int = 1):
    """All reports in scenario order plus a summary dict.

    Scenarios run one after another; `jobs` is accepted for existing
    callers and ignored (the runs are CPU-bound pure Python, so threads
    only slowed them down).
    """
    reports = [run_scenario(s, resolver) for s in scenarios]
    passed = sum(1 for r in reports if r.passed)
    summary = {
        "total": len(reports),
        "passed": passed,
        "failed": len(reports) - passed,
        "reports": [
            {"name": r.name, "passed": r.passed, "steps": r.steps} for r in reports
        ],
    }
    return reports, summary


def parse_scenarios(text: str, resolve=None) -> list[Scenario]:
    """Scenarios in file order; a malformed line raises ValueError("line N: ...").

    A text that holds no scenario raises ValueError("holds no scenario"):
    a suite of none verifies nothing.  With `resolve` (a `MachineResolver`)
    every machine is built here, so a bad reference is reported at its
    `machine` line before any run.
    """
    out: list[Scenario] = []
    given: list[dict] = []  # per scenario: directive -> line it was last given on
    with Lines(text) as lines:
        for lineno, line in lines:
            parts = line.split()
            if parts[0] == "scenario":
                out.append(Scenario(name=parts[1], machine_ref=""))
                given.append({"scenario": lineno})
            elif not out:
                raise ValueError("directive before any scenario")
            else:
                _parse_directive(out[-1], parts)
                given[-1][parts[0]] = lineno
    if not out:
        raise ValueError("holds no scenario")
    for s, where in zip(out, given):
        if not s.machine_ref:
            raise located(ValueError, f"scenario {s.name!r} names no machine", where["scenario"])
        if s.head[0] == "block":
            i = s.head[1]
            if s.tape_blocks is None:
                raise located(ValueError, "head block rule needs a unary tape", where["head"])
            if not 0 <= i < len(s.tape_blocks):
                blocks = " ".join(map(str, s.tape_blocks))
                raise located(ValueError, f"head block {i} out of range for tape unary {blocks}",
                              where["head"])
        if resolve is not None:
            try:
                resolve(s.machine_ref)
            except (OSError, ValueError) as e:
                if getattr(e, "location", (None,))[0] is not None:
                    raise  # it names the inner file at fault
                raise located(ValueError, str(e), where["machine"]) from None
    return out


def _parse_directive(current: Scenario, parts: list[str]) -> None:
    key = parts[0]
    if key == "machine":
        current.machine_ref = parts[1]
    elif key == "entry":
        current.entry = parts[1]
    elif key == "tape":
        current.tape_blocks = current.tape_window = None  # the last tape line wins
        if parts[1] == "blank":
            pass
        elif parts[1] == "unary":
            current.tape_blocks = tuple(int(x) for x in parts[2:])
            if min(current.tape_blocks, default=1) < 1:
                raise ValueError("unary blocks must be >= 1")
        elif parts[1] == "window":
            current.tape_window = (int(parts[2]), tuple(map(parse_symbol, parts[3:])))
        else:
            raise ValueError(f"unknown tape kind {parts[1]!r}")
    elif key == "head":
        if parts[1] == "abs":
            current.head = ("abs", int(parts[2]))
        elif parts[1] == "block":
            if parts[3] not in _HEAD_EDGES:
                raise ValueError(f"unknown head edge {parts[3]!r}")
            current.head = ("block", int(parts[2]), parts[3])
        else:
            raise ValueError(f"unknown head rule {parts[1]!r}")
    elif key == "limit":
        kw = {}
        for tok in parts[1:]:
            k, _, v = tok.partition("=")
            if k not in _LIMITS:
                raise ValueError(f"unknown limit {k!r}")
            if int(v) < 1:
                raise ValueError(f"limit {k} must be >= 1, got {v}")
            kw[_LIMITS[k]] = int(v)
        current.limits = RunLimits(**kw)
    elif key == "expect":
        current.expect = _parse_expect(parts[1:])
    else:
        raise ValueError(f"unknown directive {key!r}")


def _parse_expect(parts: list[str]) -> Expectation:
    kind = parts[0]
    if kind == "oracle":
        if parts[1] not in _ORACLES:
            raise ValueError(f"unknown oracle {parts[1]!r}")
        args = tuple(int(x) for x in parts[2:])
        if len(args) != 1:
            raise ValueError(f"oracle {parts[1]} takes one integer, got {len(args)}")
        return OracleExpect(parts[1], args)
    if kind == "snapshot":
        a, _, b = parts[1].partition("..")
        start, stop, symbols = int(a), int(b), tuple(map(parse_symbol, parts[2:]))
        if not 0 < stop - start == len(symbols):
            raise ValueError(f"snapshot {start}..{stop} with {len(symbols)} symbols: "
                             "needs b > a and b - a symbols")
        return SnapshotExpect(start, stop, symbols)
    if kind == "halted":
        return OutcomeExpect("halted", parts[1] if len(parts) > 1 else None)
    if kind == "nothalt":
        return OutcomeExpect("nothalt")
    if kind == "transfer":
        state, _, occ = parts[1].partition("@")
        values = None
        if len(parts) > 2:
            if parts[2] != "values":
                raise ValueError("expected 'values' after transfer state")
            values = tuple(int(x) for x in parts[3:])
        occurrence = int(occ) if occ else 1
        if occurrence < 1:
            raise ValueError(f"transfer occurrence must be >= 1, got {occurrence}")
        return TransferExpect(state, values, occurrence)
    raise ValueError(f"unknown expectation {kind!r}")


def load_scenarios(path, resolve=None) -> list[Scenario]:
    return load(path, parse_scenarios, resolve)


class MachineResolver:
    """Caches machines built from manifest/table references.

    ``X.manifest`` composes the manifest; ``X.manifest#label`` builds
    that section standalone (overlay applied, NM left unresolved);
    ``X.tbl`` builds a bare table.  Paths resolve against `base_dir`.
    """

    def __init__(self, base_dir):
        self.base = Path(base_dir)
        self._cache: dict[str, Machine] = {}

    def __call__(self, ref: str) -> Machine:
        m = self._cache.get(ref)
        if m is None:
            m = self._build(ref)
            self._cache[ref] = m
        return m

    def _build(self, ref: str) -> Machine:
        path, _, label = ref.partition("#")
        full = self.base / path
        if label:
            for sec in load_manifest(full).sections:
                if sec.label == label:
                    return section_machine(sec)
            raise ValueError(f"manifest {path} has no section {label!r}")
        if full.suffix == ".manifest":
            return compose(load_manifest(full)).machine
        return build_machine(load_table(full))


def write_summary(summary: dict, path) -> None:
    Path(path).write_text(json.dumps(summary, indent=2) + "\n")
