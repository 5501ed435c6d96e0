"""Command-line front end with CI-stable exit codes.

Exit status: 0 on success with no findings, 1 when validation finds
error-severity defects or any scenario fails or a run is inconclusive
for certification or a replayed certificate is refused, 2 on usage or
I/O errors, malformed input files and runs that run out of memory.  ``--deterministic``
suppresses wall-clock fields so identical inputs give identical output.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .machine import Machine

# Each command imports the modules it uses, so that `bb brute` loads no
# harness, optimize or compose, and `verify` no bb or optimize.

OK, FINDINGS, USAGE = 0, 1, 2


def _load_machine(ref: str, entry: str | None) -> Machine:
    """The machine `ref` names, as a scenario's `machine` line does."""
    from .harness import MachineResolver
    from .machine import Machine

    m = MachineResolver(".")(ref)
    if entry:
        if entry not in m.states:
            raise ValueError(f"entry state {entry!r} not in machine")
        m = Machine(name=m.name, start=entry, states=m.states)
    return m


def cmd_validate(args) -> int:
    from .tables import apply_overlay, errors_of, load_overlay, load_table, validate

    raw = load_table(args.table)
    if args.overlay:
        raw = apply_overlay(raw, load_overlay(args.overlay))
    defects = validate(raw)
    for d in defects:
        print(d)
    errs = errors_of(defects)
    print(f"{len(defects)} findings ({len(errs)} errors) in {raw.name}")
    return FINDINGS if errs else OK


def _parse_window(spec: str) -> tuple[int, int]:
    a, sep, b = spec.partition("..")
    if not sep:
        raise ValueError(f"window must be <a>..<b>, got {spec!r}")
    start, stop = int(a), int(b)
    if stop <= start:
        raise ValueError(f"window {spec!r} is empty: needs b > a")
    return start, stop


def cmd_run(args) -> int:
    from .engine import RunLimits, run
    from .tape import Configuration, Tape

    machine = _load_machine(args.machine, args.entry)
    tape = Tape.from_blocks([int(x) for x in args.tape_unary.split(",")]) if args.tape_unary else Tape()
    tape.head = args.head
    config = Configuration(machine.start, tape)
    limits = RunLimits(
        max_steps=args.steps, max_support_cells=args.cells, cycle_check=args.cycle_check
    )
    window = _parse_window(args.window) if args.window else None
    trace = None
    if args.trace:
        if window is None:
            raise ValueError("--trace requires --window")

        def trace(steps, state, head, tp):
            print(f"{steps}\t{state}\t{head}\t{tp.render(*window)}")

    outcome = run(machine, config, limits, trace=trace)
    final = outcome.config.tape
    print(f"outcome: {outcome.kind}")
    print(f"steps: {outcome.steps}")
    if outcome.halting_state:
        print(f"halting state: {outcome.halting_state}")
    if outcome.kind == "cycle":
        print(f"cycle: first visit {outcome.first_visit}, period {outcome.period}")
    lo, hi = final.support()
    print(f"support: [{lo}, {hi}] head: {final.head}")
    print(f"blocks: {final.blocks()}")
    if window:
        print(f"window {window[0]}..{window[1]}: {final.render(*window)}")
    return OK


def cmd_compose(args) -> int:
    from .compose import compose, load_manifest
    from .machine import state_count
    from .tables import serialize_machine

    composed = compose(load_manifest(args.manifest))
    text = serialize_machine(composed.machine)
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    print(f"# states: {state_count(composed.machine)}", file=sys.stderr)
    return OK


def cmd_optimize(args) -> int:
    from .harness import MachineResolver, load_scenarios
    from .machine import state_count
    from .optimize import apply_merges, profile_reads, propose_merges, verify_merge

    machine = _load_machine(args.machine, None)
    before = state_count(machine)
    scenarios = None
    profile = None
    if args.scenarios:
        scenarios = load_scenarios(args.scenarios, MachineResolver(Path(args.scenarios).parent))
        profile = profile_reads(machine, scenarios)
        basis = f"profiled over {len(scenarios)} scenarios"
    else:
        basis = "structural candidates only (no scenario file given)"
    plan = propose_merges(machine, profile)
    merged = apply_merges(machine, plan)
    after = state_count(merged)
    print(f"states before: {before}")
    print(f"states after:  {after} ({len(plan.pairs)} merges, {basis})")
    if plan.residual_zero or plan.residual_one:
        print(f"residual one-sided states: zero={plan.residual_zero} one={plan.residual_one}")
    if args.output:
        Path(args.output).write_text(plan.serialize())
    if scenarios:
        verdict = verify_merge(machine, merged, scenarios, plan)
        print(verdict)
        if not verdict.equivalent:
            return FINDINGS
    return OK


def cmd_verify(args) -> int:
    from .harness import MachineResolver, load_scenarios, run_suite, write_summary

    resolver = MachineResolver(Path(args.scenarios).parent)
    scenarios = load_scenarios(args.scenarios, resolver)
    reports, summary = run_suite(scenarios, resolver)
    for r in reports:
        print(r.line(deterministic=args.deterministic))
    print(f"{summary['passed']}/{summary['total']} passed")
    if args.summary:
        write_summary(summary, args.summary)
    return OK if summary["failed"] == 0 else FINDINGS


def cmd_bb(args) -> int:
    from . import bb as bbmod
    from .engine import RunLimits, run
    from .textfile import load

    if args.bb_cmd == "lookup":
        entry = bbmod.default_registry().lookup(args.n)
        if entry is None:
            print(f"no registry entry for n={args.n}")
            return FINDINGS
        print(f"{entry.value}")
        if not args.deterministic:
            print(f"# source: {entry.source}", file=sys.stderr)
        return OK
    if args.bb_cmd == "brute":
        try:
            result = bbmod.brute_force_bb(args.n, args.cap)
        except bbmod.Inconclusive as e:
            print(f"inconclusive: {e}")
            return FINDINGS
        print(f"bb({args.n}) = {result.value}")
        print(f"champion: {result.champion.name}")
        print(f"machines: {result.total_machines} tally: {result.tally}")
        return OK
    if args.bb_cmd == "certify":
        machine = _load_machine(args.machine, args.entry)
        limits = RunLimits(max_steps=args.steps, cycle_check=args.cycle_check)
        outcome = run(machine, limits=limits)
        cert = bbmod.certify_nonhalt(machine, outcome, bbmod.default_registry())
        if cert is None:
            print(f"no certificate: outcome {outcome.kind} after {outcome.steps} steps")
            return FINDINGS
        sys.stdout.write(cert.serialize())
        return OK
    if args.bb_cmd == "replay":
        machine = _load_machine(args.machine, args.entry)
        cert = load(args.certificate, bbmod.parse_certificate)
        reason = bbmod.certificate_refusal(machine, cert)
        if reason is not None:
            print(f"refused: the {cert.basis} certificate does not hold for {machine.name}: "
                  f"{reason}")
            return FINDINGS
        print(f"holds: the {cert.basis} certificate holds for {machine.name}")
        return OK
    raise AssertionError(args.bb_cmd)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--deterministic", action="store_true",
                        help="suppress wall-clock fields in output")
    ap = argparse.ArgumentParser(prog="beaverkit", description=__doc__, parents=[common])
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("validate", help="report defects in a transition table", parents=[common])
    p.add_argument("table")
    p.add_argument("--overlay")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("run", help="run a table, a manifest or one of its sections",
                       parents=[common])
    p.add_argument("machine")
    p.add_argument("--entry")
    p.add_argument("--steps", type=int, default=10**8)
    p.add_argument("--cells", type=int, default=1 << 22)
    p.add_argument("--head", type=int, default=0)
    p.add_argument("--tape-unary", help="comma-separated block sizes")
    p.add_argument("--cycle-check", action="store_true")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--window", help="half-open cell range a..b")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("compose", help="link a manifest into one table", parents=[common])
    p.add_argument("manifest")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_compose)

    p = sub.add_parser("optimize", help="propose and verify state merges", parents=[common])
    p.add_argument("machine")
    p.add_argument("--scenarios")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_optimize)

    p = sub.add_parser("verify", help="run a scenario suite", parents=[common])
    p.add_argument("scenarios")
    p.add_argument("--summary", help="write a JSON summary here")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("bb", help="busy-beaver registry and brute force", parents=[common])
    bbsub = p.add_subparsers(dest="bb_cmd", required=True)
    q = bbsub.add_parser("lookup", parents=[common])
    q.add_argument("n", type=int)
    q = bbsub.add_parser("brute", parents=[common])
    q.add_argument("n", type=int)
    q.add_argument("--cap", type=int, default=200,
                   help="steps a child no decider proves non-halting may run "
                        "to find its halt (default 200)")
    q = bbsub.add_parser("certify", parents=[common])
    q.add_argument("machine")
    q.add_argument("--steps", type=int, required=True)
    q.add_argument("--entry")
    q.add_argument("--cycle-check", action="store_true")
    q = bbsub.add_parser("replay", parents=[common],
                         help="re-check a certificate written by 'bb certify'")
    q.add_argument("machine")
    q.add_argument("certificate")
    q.add_argument("--entry")
    p.set_defaults(fn=cmd_bb)

    return ap


def _join_window_args(argv):
    """Let ``--window -5..1`` parse despite the leading dash."""
    out = []
    it = iter(argv)
    for tok in it:
        if tok == "--window":
            nxt = next(it, None)
            if nxt is None:
                out.append(tok)
            else:
                out.append(f"--window={nxt}")
        else:
            out.append(tok)
    return out


def dispatch(argv=None) -> int:
    ap = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = _join_window_args(list(argv))
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return USAGE if e.code not in (0, None) else OK
    try:
        return args.fn(args)
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE
    except MemoryError:  # a tape buffer out to a head billions of cells away
        print("error: out of memory", file=sys.stderr)
        return USAGE


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
