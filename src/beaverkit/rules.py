"""Proven shuttle rules: a repeating cycle of scans, run k times in closed form.

A unary machine spends its time shuttling: it scans across a block,
changes a cell at the far end, scans back, and again, while one block
shrinks and another grows by a constant each round.  `Prover` finds such
a cycle where it starts, proves that it repeats, and applies it k times
at once; this is the proof system of Marxen and Buntrock (1990,
"Attacking the Busy Beaver 5") and of S. Ligocki's simulator, on the
engine's tape.

The engine asks at every scan across at least `LONG_SCAN` cells, and the
scan's (state, symbol) entry tries a rule there once its wait is over.
The tape around the head is read as two stacks of runs of equal
symbols, one on each side, and the head reads the top cell of the stack
it faces.  A run is read from the tape (`Tape.runs`) only when the head
reaches it; the blank beyond the 1-extent is one 0-run of length
`BLANK`, so it needs no case of its own.
One move at run level is either a scan, a self-loop that consumes the
whole run it faces, or a single transition.  One simulation (`_Search`)
makes these moves, and it runs twice:

1. The search runs the cycle on the concrete lengths until the same
   state faces the same symbol with the same run shape (the symbols of
   every run read, in order, on both sides), within `MAX_MOVES` moves.
   It gives up when the start recurs twice in a row with one other
   shape: the machine is then on a cycle that the start is not on.  A
   cycle that cannot repeat `MIN_REPEATS` times is not worth the rest.
2. The proof runs it again on linear forms, with each run whose length
   changed, or that is longer than c = the cycle's single transitions +
   1, written as n + min(its length, c) for a fresh n >= 0.  A decision
   that depends on n refuses the rule: a single transition that leaves
   a run empty for some n only.  Every other decision then holds for all
   n: each entry read, each scan's end, each run that empties or does
   not.  The rule is accepted if the pass ends in the start shape after
   the search's moves, with every length, and the head, shifted by a
   constant.

An accepted rule is applied k times: steps and the 1-writes' positions
are linear in the application's index, so they are summed or bounded in
closed form.  k is the largest count under three bounds: no variable run
falls below its c, the steps fit the budget, and the 1-extent widened by
every 0->1 write of the k applications spans at most the memory cap.
The tape `span`s that extent, and `Tape.rewrite` turns the runs the rule
read into the runs it leaves, writing only the cells that change.  A
rule reads the compiled table alone, so the table keeps each entry's
last rule, for every run on it.  A cycle that meets a stop entry of the
table (a halt, an exit, or an entry into a watched state) is refused,
and so is one whose proof fails.  The result is the configuration, step
count, extent and read set the machine reaches one transition at a time.

Each entry has one schedule: f, its long scans in a row that applied
nothing, and a wait.  A long scan whose wait is over tries the table's
rule when the tape has its shape (the same symbols and fixed lengths),
and otherwise searches.  An application sets f to 0; a scan that
applies nothing, because the known rule's bounds refused it or the
search failed, adds 1 to f, up to `MAX_FAILS`, and the entry then
skips its next 2^f - 1 long scans.  The table keeps f, and the next run
counts on from it; an entry it counts nothing for starts at f = 1.

Kept on the table rather than per run, rules cut the searches, proved
or refused, that runs on the shipped machines make;
`tests/test_prover_work.py` counts them against runs that each prove
their own rules.
"""

from __future__ import annotations

from operator import add, sub

LONG_SCAN = 64  # the shortest scan that may start a proof
MAX_MOVES = 64  # the most run-level moves a cycle may take
MIN_REPEATS = 16  # a cycle that repeats fewer times costs more to prove than it saves
MAX_FAILS = 8  # the most an entry's count of scans that applied nothing reaches


def _at(e, x):
    """The value of the linear form `e` at the variables `x`."""
    return e[0] + sum(map(lambda a, v: a * v, e[1:], x))


class _Undecided(Exception):
    """A decision of the cycle that depends on n: the proof refuses it."""


class _Form(tuple):
    """A linear form (c, a_1, ..., a_V) in the cycle's variables n >= 0, whose
    `+` and `-` act per coefficient.  A length's a_i are never negative: it
    starts as a fixed length or n + c, gains whole runs and loses cells."""

    __slots__ = ()

    def __add__(self, other):
        return _Form(map(add, self, other))

    def __sub__(self, other):
        return _Form(map(sub, self, other))

    def __gt__(self, other):
        """Whether this length exceeds the fixed `other` for every n."""
        if any(self[1:]):
            if self[0] <= other[0]:
                raise _Undecided  # the run empties for some n only
            return True
        return self[0] > other[0]


class _Search:
    """One cycle run at run level, on the tape's lengths or on linear forms.

    The cycle starts at entry `j`: its state, held as its first entry
    (`j & ~1`) as in the compiled table, faces the side that entry j
    moves to and reads j's symbol there, and each record's target is the
    next state.  The search runs it on the int lengths `read` reads from
    the tape; the proof runs it again on forms, with `read` reading its
    start forms and `one` the form of 1.  Runs are read as the stacks
    empty (`runs`: each side's runs read, nearest first); each stack
    entry is [symbol, length], the top last.  `moves` is the length of
    the cycle: the start (state, face, symbol) recurs with the run shape
    it started with, the symbols of every run read.  It is 0 when the
    cycle meets a stop entry, runs out of runs (past the blank, or past
    the start forms), takes more than `MAX_MOVES` moves, or meets the
    start twice in a row with one other shape: then it repeats a cycle
    that the start is not on.

    On forms, a choice that depends on n raises `_Undecided`, and the
    pass keeps what the proof needs: `entries`, the entries read;
    `head`, the head's offset from the start; and `ones`, the offsets of
    the 0->1 writes, both ends of each scan's.
    """

    def __init__(self, cm, read, j, one=1):
        runs: list = [[], []]
        stacks: list = [[], []]
        start: list = [[], []]  # the symbols of each side's runs read, the top last

        def load(side):
            run = read(side, len(runs[side]))
            if run is None:
                return False
            runs[side].append(run)
            start[side].insert(0, run[0])
            stacks[side].append(list(run))
            return True

        load(0)
        load(1)
        entry = cm.entry
        proof = one != 1
        state, symbol, face = j & ~1, j & 1, (entry[j][1] + 1) >> 1
        st, f = state, face
        singles = 0
        steps = head = one - one
        entries: set = set()
        ones: list = []
        last = None  # the shape at the last recurrence of the start
        self.runs, self.stacks, self.entries, self.ones = runs, stacks, entries, ones
        self.moves = 0
        for moves in range(1, MAX_MOVES + 1):
            stack = stacks[f]
            run = stack[-1]
            s, n = run
            j = st + s
            w, m, t = entry[j]
            if t < 0:
                break  # a stop: it halts, exits, or enters a watched state
            side = (m + 1) >> 1
            if t == st and side == f:
                count = n  # a scan crosses the whole run
                stack.pop()
            else:
                count = one
                singles += 1
                if n > one:
                    run[1] = n - one
                else:
                    stack.pop()
            if not stack and not load(f):
                break  # out of runs
            top = stacks[1 - side][-1]
            if top[0] == w:
                top[1] += count
            else:
                stacks[1 - side].append([w, count])
            steps += count
            if proof:
                entries.add(j)
                after = head + count if m > 0 else head - count
                if w and not s:
                    ones.append(head)
                    if count is not one:
                        ones.append(after - one if m > 0 else after + one)
                head = after
            st, f = t, side
            if st == state and f == face and stacks[f][-1][0] == symbol:
                shape = [[r[0] for r in stack] for stack in stacks]
                if shape == start:
                    self.moves = moves
                    break
                if shape == last:
                    break
                last = shape
        self.steps, self.singles, self.head = steps, singles, head


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
    """The rule schedule of one run, and the rules of its table.

    What a proof establishes is a fact about the compiled table, so the
    table keeps it (`CompiledMachine.proofs`, made at its first long
    scan): per entry, its last rule, and f, its long scans in a row that
    applied nothing, at most `MAX_FAILS`.  The prover keeps the run's
    schedule: per entry, f, which starts from the table's count (1 where
    it has none), and the long scans it still waits, 2^f - 1.
    """

    def __init__(self, cm):
        self.cm = cm
        if cm.proofs is None:
            object.__setattr__(cm, "proofs", ({}, {}))
        self.rules, self.failed = cm.proofs
        self.fails = [1] * len(cm.entry)
        self.wait = [1] * len(cm.entry)
        for j, f in self.failed.items():
            self.fails[j], self.wait[j] = f, (1 << f) - 1

    def due(self, j) -> bool:
        """Whether the long scan of entry `j` starting now should try a rule: its wait is over."""
        if self.wait[j]:
            self.wait[j] -= 1
            return False
        return True

    def apply(self, tape, j, budget, cap, reads) -> int:
        """Apply a rule for the scan of entry `j`; the steps it took, or 0.

        `tape` is the run's tape, the head on the scan's first cell; it
        is changed only when a rule is applied.  The table's rule is used
        when the tape has its shape; otherwise one is proved.  A scan that
        applies nothing backs the entry off.
        """
        read = tape.runs((self.cm.entry[j][1] + 1) >> 1)
        rule = self.rules.get(j)
        runs = None if rule is None else rule.match(read)
        if runs is None:
            rule = self._prove(read, j, budget)
            if rule is not None:
                self.rules[j] = rule
                runs = rule.match(read)
        steps = 0 if runs is None else _apply(rule, runs, tape, budget, cap, reads)
        if steps:
            self.fails[j] = 0
            self.failed.pop(j, None)
        else:
            fails = self.fails[j] = self.failed[j] = min(self.fails[j] + 1, MAX_FAILS)
            self.wait[j] = (1 << fails) - 1
        return steps

    def _prove(self, read, j, budget):
        """The rule of the cycle that starts at the scan of entry `j`, or None."""
        search = _Search(self.cm, read, j)
        if not search.moves:
            return None
        c = search.singles + 1  # no single transition empties a run of c cells or more
        pairs = [
            (r0[1], r[1])
            for side in (0, 1)
            for r0, r in zip(search.runs[side], reversed(search.stacks[side]))
        ]
        if _repeats(budget, search.steps, pairs, c) < MIN_REPEATS:
            return None
        return self._proof(j, search, c)

    def _proof(self, j, search, c):
        """The rule of the cycle `search` found, or None when it does not hold for all n."""
        # A run becomes n + c when its length changed or exceeds c, so that
        # the rule serves other lengths too; the rest keep their length.
        where = [
            (side, i)
            for side in (0, 1)
            for i, (r0, r) in enumerate(zip(search.runs[side], reversed(search.stacks[side])))
            if r[1] != r0[1] or r0[1] > c
        ]
        unit = {at: v for v, at in enumerate(where, 1)}
        start: list = [[], []]
        for side in (0, 1):
            for i, (s, n) in enumerate(search.runs[side]):
                form = [n] + [0] * len(where)
                v = unit.get((side, i))
                if v is not None:
                    form[0], form[v] = min(n, c), 1
                start[side].append((s, _Form(form)))

        def read(side, i):
            return start[side][i] if i < len(start[side]) else None

        try:
            proof = _Search(self.cm, read, j, _Form([1] + [0] * len(where)))
        except _Undecided:
            return None
        # it ends in the start shape, so every run keeps its symbol
        if proof.moves != search.moves or any(proof.head[1:]):
            return None
        shift: list = [[], []]  # each run's constant change
        for side in (0, 1):
            for (_, e), (_, e0) in zip(reversed(proof.stacks[side]), start[side]):
                if e[1:] != e0[1:]:
                    return None
                shift[side].append(e[0] - e0[0])
        return _Rule((self.cm.entry[j][1] + 1) >> 1, start, shift, where, proof)


def _repeats(budget, steps, pairs, c):
    """How often a cycle of `steps` steps repeats within `budget` while
    each run, (its length at the start, at the end), keeps c cells."""
    repeats = budget // steps
    for n, r in pairs:
        if r < n:
            repeats = min(repeats, (n - min(n, c)) // (n - r) + 1)
    return repeats


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
        self.read = tuple(proof.entries)
        self.shape = [[(s, None if any(e[1:]) else e[0]) for s, e in side] for side in start]

    def match(self, read):
        """Each side's runs, nearest first, when the tape `read` reads has this rule's shape.

        The shape is the symbols and the fixed lengths; a variable's run
        may be shorter than its c, and then the rule does not apply.
        """
        runs: list = [[], []]
        for side in (0, 1):
            for i, (s, n) in enumerate(self.shape[side]):
                run = read(side, i)
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
    lo1, hi1 = tape.extent()

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
        tape.span(*extent(k))
    tape.rewrite(rule.face, runs, after, head0 + k * move)
    if reads is not None:
        for j in rule.read:
            reads[j] = 1
    return steps(k)
