"""Reference busy-beaver verdicts: every program of the product, run whole.

`brute_force_bb` walks the tree normal form and judges one leaf for all
the programs it covers; this module enumerates every n-state program in
product order and judges each on its own, with the leaf judgement of
`bb` on the full program, so the tests can hold the tree against it.
The verdicts of each (n, cap) are computed once and shared by the tests.
"""

import functools
import itertools

from beaverkit import bb


def options(n):
    """The (write, move, target) actions of one entry, in product order."""
    return [(w, m, t) for w in (0, 1) for m in (-1, 1) for t in [*range(n), -1]]


def can_halt(prog) -> bool:
    """Decider 1, on the state graph: is a halting rule reachable from A?"""
    reach = [0]
    for s in reach:  # grows as it goes
        for _, _, t in prog[2 * s : 2 * s + 2]:
            if t == -1:
                return True
            if t not in reach:
                reach.append(t)
    return False


@functools.cache
def verdicts(n, cap):
    """``(program, (kind, steps))`` for every n-state program in product order."""
    out = []
    ran, read, verdict = None, (), None
    for prog in itertools.product(options(n), repeat=2 * n):
        if not can_halt(prog):
            out.append((prog, ("no_halt_rule", 0)))
            continue
        # a verdict depends only on the entries its judgement read, so a
        # program that agrees with the last one judged on them shares it
        if ran is None or any(prog[j] != ran[j] for j in read):
            ran = prog
            verdict, read = bb._judge(prog, n, cap)
        out.append((prog, verdict))
    return tuple(out)
