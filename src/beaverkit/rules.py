"""Proven shuttle rules: a repeating cycle of scans, run k times in closed form.

A unary machine spends its time shuttling: it scans across a block,
changes a cell at the far end, scans back, and again, while one block
shrinks and another grows by a constant each round.  `Prover` finds such
a cycle where it starts, proves that it repeats, and applies it k times
at once; this is the proof system of Marxen and Buntrock (1990,
"Attacking the Busy Beaver 5") and of S. Ligocki's simulator, on the
engine's bytearray tape.

The engine asks at every scan across at least `LONG_SCAN` cells; a proof
is tried when that scan's (state, symbol) entry recurs after the same
number of long scans as last time.  The tape around the head is read as
two stacks of runs of equal symbols, one on each side, and the head reads
the top cell of the stack it faces.  A run is read from the buffer only
when the head reaches it; the blank beyond the 1-extent is one 0-run of
length `BLANK`, so it needs no case of its own.  One move at run level
is either a scan, a self-loop that consumes the whole run it faces, or a
single transition.

1. The cycle is run on the concrete lengths until the same state faces
   the same symbol with the same run shape (the symbols of every run
   read, in order, on both sides), within `MAX_MOVES` moves.  A cycle
   that cannot repeat `MIN_REPEATS` times is not worth the rest.
2. It is run again, move for move, with each run whose length changed,
   or that is longer than c = the cycle's single transitions + 1,
   written as n + min(its length, c) for a fresh n >= 0.  The rule is
   accepted only if every decision holds for all n: each entry read,
   each scan's end, each run that empties or does not; and if the cycle
   ends in the start shape with every length, and the head, shifted by
   a constant.

An accepted rule is applied k times: steps and the 1-writes' positions
are linear in the application's index, so they are summed or bounded in
closed form.  k is the largest count under three bounds: no variable
run falls below its c, the steps fit the budget, and the 1-extent
widened by every 0->1 write of the k applications spans at most the
memory cap; that extent becomes the tape's `_lo1/_hi1`.  The run keeps
its last `KEPT` rules per entry and applies one again wherever the tape
has its shape: the same symbols and fixed lengths.  A cycle that halts,
exits or enters a watched state is refused, and so is one whose proof
fails; then the entry is not tried again for a number of its triggers
that doubles with each failure.  The result is the configuration, step
count, extent and read set the machine reaches one transition at a
time.
"""

from __future__ import annotations

from operator import add, sub

LONG_SCAN = 64  # the shortest scan that may start a proof
BLANK = 1 << 62  # the length of the 0-run beyond the 1-extent
MAX_MOVES = 64  # the most run-level moves a cycle may take
KEPT = 4  # the proved rules kept per entry, newest first
MIN_REPEATS = 16  # a cycle that repeats fewer times costs more to prove than it saves
_FILL = (b"\x00", b"\x01")


def _shift(e, c):
    return (e[0] + c,) + e[1:]


def _at(e, x):
    """The value of the linear form `e` at the variables `x`."""
    return e[0] + sum(map(lambda a, v: a * v, e[1:], x))


class _RunLevel:
    """A run-level simulation of one cycle.

    `stacks` is [left, right], each a list of [symbol, length] with the
    top last; `face` is the side the head reads.  Lengths, the head's
    offset from the start and the step count are linear forms
    (c, a_1, ..., a_V) in the cycle's variables.  With `load`, a stack
    that empties takes the next run from the tape; without, an empty
    stack refuses the cycle.
    """

    def __init__(self, cm, watched, state, face, stacks, width, load=None):
        self.cm, self.watched, self.load = cm, watched, load
        self.state, self.face, self.stacks = state, face, stacks
        self.head = self.steps = (0,) * width
        self.one = (1,) + (0,) * (width - 1)
        self.singles = 0
        self.ones: list = []  # head offsets of the cycle's 0->1 writes
        self.read: set = set()

    def move(self) -> bool:
        """One scan or one transition; False when the cycle is refused."""
        cm, f, state = self.cm, self.face, self.state
        stack = self.stacks[f]
        run = stack[-1]
        s, e = run
        j = 2 * state + s
        t = cm.target[j]
        if t < 0 or (t != state and self.watched[t]):
            return False  # halts, exits, or enters a watched state
        self.read.add(j)
        w, m = cm.write[j], cm.move[j]
        side = (m + 1) >> 1
        if t == state and side == f:
            count = e  # a scan consumes the whole run
            stack.pop()
        else:
            count = self.one
            self.singles += 1
            rest = _shift(e, -1)
            if any(rest[1:]):
                if rest[0] < 1:
                    return False  # the run empties for some n only
                run[1] = rest
            elif rest[0]:
                run[1] = rest
            else:
                stack.pop()
        if not stack and not (self.load and self.load(f)):
            return False
        head = tuple(map(add if m > 0 else sub, self.head, count))
        if w and not s:
            self.ones.append(self.head)
            if count is not self.one:
                self.ones.append(_shift(head, -m))
        behind = self.stacks[1 - side]
        if behind[-1][0] == w:
            behind[-1][1] = tuple(map(add, behind[-1][1], count))
        else:
            behind.append([w, count])
        self.head = head
        self.steps = tuple(map(add, self.steps, count))
        self.state, self.face = t, side
        return True

    def at(self, state, face, symbol) -> bool:
        return self.state == state and self.face == face and self.stacks[face][-1][0] == symbol


def _reader(tape, face):
    """read(side): the next run outward from the head on that side.

    Runs are (symbol, length); the head's cell is the first of side
    `face`.  Past the blank, read returns None.
    """
    buf, org, lo1, hi1 = tape.buf, tape.org, tape._lo1, tape._hi1
    blank = hi1 < lo1
    cursor = [tape.head - face, tape.head + 1 - face]  # the next cell on each side

    def read(side):
        cell = cursor[side]
        if cell is None:
            return None
        if blank or (cell > hi1 if side else cell < lo1):
            s, n = 0, BLANK
        elif cell < lo1 or cell > hi1:
            s, n = 0, (lo1 - cell if side else cell - hi1)
        else:
            p = org + cell
            s = buf[p]
            if side:
                q = buf.find(0, p) if s else buf.find(1, p, org + hi1 + 1)
                n = BLANK if q < 0 and not s else (q if q >= 0 else len(buf)) - p
            else:
                q = buf.rfind(0, 0, p + 1) if s else buf.rfind(1, org + lo1, p + 1)
                n = BLANK if q < 0 and not s else p - q
        cursor[side] = None if n == BLANK else cell + (n if side else -n)
        return s, n

    return read


def _largest(hi, ok):
    """The largest k in [0, hi] with ok(k), for ok true on a prefix; ok(0) holds."""
    if ok(hi):
        return hi
    lo = 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo


class Prover:
    """The rule trigger, prover and proved rules of one run."""

    def __init__(self, cm, watched):
        self.cm, self.watched = cm, watched
        n = len(cm.write)
        self.scans = 0
        self.last = [0] * n  # the long scan at which each entry last scanned
        self.gap = [0] * n  # the long scans between its last two
        self.wait = [0] * n  # triggers to skip after a failed proof
        self.fails = [0] * n
        self.rules: list = [[] for _ in range(n)]

    def due(self, j) -> bool:
        """Whether the long scan of entry `j` starting now should look for a rule."""
        self.scans += 1
        gap = self.scans - self.last[j]
        self.last[j] = self.scans
        if gap != self.gap[j]:
            self.gap[j] = gap
            return False
        if self.wait[j]:
            self.wait[j] -= 1
            return False
        return True

    def apply(self, tape, state, j, budget, cap, reads) -> int:
        """Apply a rule for the scan of entry `j`; the steps it took, or 0.

        `tape` is the run's tape, the head on the scan's first cell; it
        is changed only when a rule is applied.  A rule proved before is
        used when the tape matches it; otherwise one is proved.
        """
        kept = self.rules[j]
        for rule in kept:
            runs = rule.match(tape)
            if runs is not None:
                return _apply(rule, runs, tape, budget, cap, reads)
        rule = self._prove(tape, state, j, budget)
        if rule is None:
            self.fails[j] += 1
            self.wait[j] = (1 << self.fails[j]) - 1
            return 0
        self.fails[j] = 0
        kept.insert(0, rule)
        del kept[KEPT:]
        return _apply(rule, rule.match(tape), tape, budget, cap, reads)

    def _prove(self, tape, state, j, budget):
        cm = self.cm
        face = (cm.move[j] + 1) >> 1
        symbol = j & 1
        read = _reader(tape, face)
        orig: list = [[], []]  # each side's runs, nearest the head first
        stacks: list = [[], []]

        def load(side):
            run = read(side)
            if run is None:
                return False
            orig[side].append(run)
            stacks[side].append([run[0], (run[1],)])
            return True

        load(0)
        load(1)
        sim = _RunLevel(cm, self.watched, state, face, stacks, 1, load)
        for moves in range(1, MAX_MOVES + 1):
            if not sim.move():
                return None
            if sim.at(state, face, symbol) and all(
                len(orig[side]) == len(stacks[side])
                and all(r[0] == s for r, (s, _) in zip(reversed(stacks[side]), orig[side]))
                for side in (0, 1)
            ):
                break
        else:
            return None
        # no single transition empties a run of c cells or more
        c = sim.singles + 1
        repeats = budget // sim.steps[0]
        for side in (0, 1):
            for r, (s, n) in zip(reversed(stacks[side]), orig[side]):
                if r[1][0] < n:
                    repeats = min(repeats, (n - min(n, c)) // (n - r[1][0]) + 1)
        if repeats < MIN_REPEATS:
            return None
        # A run becomes n + c when its length changed or exceeds c, so that
        # the rule serves other lengths too; the rest keep their length.
        where = [
            (side, i)
            for side in (0, 1)
            for i, r in enumerate(reversed(stacks[side]))
            if r[1][0] != orig[side][i][1] or orig[side][i][1] > c
        ]
        width = 1 + len(where)
        unit = {at: v for v, at in enumerate(where, 1)}
        start: list = [[], []]
        for side in (0, 1):
            for i, (s, n) in enumerate(orig[side]):
                form = [0] * width
                v = unit.get((side, i))
                form[0] = n if v is None else min(n, c)
                if v is not None:
                    form[v] = 1
                start[side].append((s, tuple(form)))
        proof = _RunLevel(
            cm, self.watched, state, face,
            [[[s, e] for s, e in reversed(side)] for side in start], width,
        )
        for _ in range(moves):
            if not proof.move():
                return None
        if not proof.at(state, face, symbol) or any(proof.head[1:]):
            return None
        shift: list = [[], []]  # each run's constant change
        for side in (0, 1):
            end = proof.stacks[side][::-1]
            if len(end) != len(start[side]):
                return None
            for (s, e), (s0, e0) in zip(end, start[side]):
                if s != s0 or e[1:] != e0[1:]:
                    return None
                shift[side].append(e[0] - e0[0])
        return _Rule(face, start, shift, where, proof)


class _Rule:
    """A proved cycle: its start runs, their shifts, and its linear forms.

    Each start run is (symbol, form): a fixed length, or n + c for the
    variable it owns.  `where` lists each variable's run as (side, index).
    """

    def __init__(self, face, start, shift, where, proof):
        self.face, self.shift, self.where = face, shift, where
        self.delta = [shift[side][i] for side, i in where]
        self.low = [start[side][i][1][0] for side, i in where]
        self.steps, self.move, self.ones = proof.steps, proof.head[0], proof.ones
        self.read = tuple(proof.read)
        self.shape = [[(s, None if any(e[1:]) else e[0]) for s, e in side] for side in start]

    def match(self, tape):
        """Each side's runs, nearest first, when the tape has this rule's shape.

        The shape is the symbols and the fixed lengths; a variable's run
        may be shorter than its c, and then the rule does not apply.
        """
        read = _reader(tape, self.face)
        runs: list = [[], []]
        for side in (0, 1):
            for s, n in self.shape[side]:
                run = read(side)
                if run is None or run[0] != s or n is not None and run[1] != n:
                    return None
                runs[side].append(run)
        return runs


def _apply(rule, runs, tape, budget, cap, reads) -> int:
    """Apply `rule` as often as its bounds allow to `tape`, which holds `runs`."""
    d = rule.delta
    # application i starts with the variables at x0 + i * d
    x0 = [runs[side][i][1] - c for (side, i), c in zip(rule.where, rule.low)]
    if x0 and min(x0) < 0:
        return 0  # a run is shorter than the proof covers: the cycle is ending
    head0, move = tape.head, rule.move
    bound = budget
    for x, dv in zip(x0, d):
        if dv < 0:
            bound = min(bound, x // -dv + 1)
    s0, s1 = _at(rule.steps, x0), _at(rule.steps, d) - rule.steps[0]

    def steps(k):
        return k * s0 + s1 * k * (k - 1) // 2

    # each 0->1 write lies at p + i * q in application i
    ones = [(head0 + _at(e, x0), move + _at(e, d) - e[0]) for e in rule.ones]
    lo1, hi1 = tape._lo1, tape._hi1

    def extent(k):
        lo = min(p + (k - 1) * min(q, 0) for p, q in ones)
        hi = max(p + (k - 1) * max(q, 0) for p, q in ones)
        if hi1 >= lo1:
            lo, hi = min(lo, lo1), max(hi, hi1)
        return lo, hi

    def fits(k):
        if steps(k) > budget:
            return False
        if ones and k:
            lo, hi = extent(k)
            return hi - lo < cap
        return True

    k = _largest(bound, fits)
    if k == 0:
        return 0
    after = [
        [(s, n + k * dn) for (s, n), dn in zip(runs[side], rule.shift[side])]
        for side in (0, 1)
    ]
    if ones:
        lo, hi = extent(k)
        tape.grow(lo)
        tape.grow(hi)
        tape._lo1, tape._hi1 = lo, hi
    _rewrite(tape, _layout(runs, head0, rule.face), _layout(after, head0 + k * move, rule.face))
    tape.head = head0 + k * move
    if reads is not None:
        for j in rule.read:
            reads[j] = 1
    return steps(k)


def _layout(runs, head, face):
    """The cells where each run starts, left to right, and its symbol.

    `runs` lists each side's runs nearest the head first; the last entry
    is the cell past the rightmost run.
    """
    cell = head + 1 - face  # the first cell of the right side
    left = []
    for s, n in runs[0]:
        cell -= n
        left.append((cell, s))
    out = left[::-1]
    cell = head + 1 - face
    for s, n in runs[1]:
        out.append((cell, s))
        cell += n
    out.append((cell, None))
    return out


def _rewrite(tape, old, new):
    """Write each cell whose symbol differs between the layouts `old` and `new`.

    The tape holds `old`.  Where one layout reaches past the other, both
    are blank: only a side that ends in the blank can differ in extent.
    """
    buf, org = tape.buf, tape.org
    lo, hi = max(old[0][0], new[0][0]), min(old[-1][0], new[-1][0])
    cuts = sorted({c for c, _ in old + new if lo < c < hi} | {lo, hi})
    i = j = 0
    for a, b in zip(cuts, cuts[1:]):
        while old[i + 1][0] <= a:
            i += 1
        while new[j + 1][0] <= a:
            j += 1
        s = new[j][1]
        if old[i][1] != s:
            buf[org + a : org + b] = _FILL[s] * (b - a)
