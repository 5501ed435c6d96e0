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
single transition.  One simulation (`_Search`) makes these moves, and it
runs twice:

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
closed form.  k is the largest count under three bounds: no variable
run falls below its c, the steps fit the budget, and the 1-extent
widened by every 0->1 write of the k applications spans at most the
memory cap; that extent becomes the tape's `_lo1/_hi1`.  A rule reads
the compiled table alone, so the table keeps its last `KEPT` rules per
entry, for every run on it, and one is applied again at any long scan of
its entry where the tape has its shape: the same symbols and fixed
lengths.  A cycle that meets a stop entry of the table (a halt, an exit,
or an entry into a watched state) is refused, and so is one whose proof
fails; then the entry is not searched again for a number of its
triggers that doubles with each failure since its last proof.  The
table counts an entry's failures up to `_FAILS`, a wait of
`MIN_REPEATS` - 1 triggers, and a run counts on from there: every run
retries every entry within `MIN_REPEATS` triggers, then at doubling
intervals.  The result is the configuration, step count, extent and
read set the machine reaches one transition at a time.

A refusal in step 1 costs a read when it comes again.  The search uses
the lengths of the runs it read only where a single transition shortens
a run: the run empties or it does not.  So the table keeps its last
`KEPT` such refusals per entry (`_Refusal`), each with the bounds
within which every run read gives the same answers, and a later trigger
whose runs have the same symbols and fit those bounds is refused by
reading them, with its repeats counted again on the new lengths and
the budget of the run at hand.  It is refused exactly when the search
would refuse it, so the same rules are proved and applied.  Kept per
run, refusals made refused searches fall from 208 to 94 on the shipped
suites, from 151 to 35 on Brocard's way to its n = 10 guard and from 13
to 5 on Fermat's t1 from state 25, run to its halt.  Kept on the table,
searches, proved or refused, fall from 104 to 51 on a first pass of the
suites and to 8 on a second, from 44 to 24 on the guard and from 7 to 4
on t1, and no fewer rules are applied (`tests/test_prover_work.py`).
"""

from __future__ import annotations

from operator import add, sub

LONG_SCAN = 64  # the shortest scan that may start a proof
BLANK = 1 << 62  # the length of the 0-run beyond the 1-extent
MAX_MOVES = 64  # the most run-level moves a cycle may take
KEPT = 4  # the proved rules, and the refused searches, kept per entry, newest first
MIN_REPEATS = 16  # a cycle that repeats fewer times costs more to prove than it saves
# the failures a table counts per entry at most: a run's first search of
# an entry waits at most MIN_REPEATS - 1 triggers
_FAILS = MIN_REPEATS.bit_length() - 1
_FILL = (b"\x00", b"\x01")


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
    empty (`loaded`, and `index`: each side's indices in it, nearest
    first); each stack entry is [symbol, length, ids], the top last,
    where `ids` are the indices in `loaded` of the runs whose cells it
    holds besides the cells single transitions moved.  `moves` is the
    length of the cycle: the start (state, face, symbol) recurs with the
    run shape it started with, the symbols of every run read.  It is 0
    when the cycle meets a stop entry, runs out of runs (past the blank,
    or past the start forms), takes more than `MAX_MOVES` moves, or
    meets the start twice in a row with one other shape: then it repeats
    a cycle that the start is not on.

    Whether a run that a single transition shortens empties is the only
    choice the lengths make; `decided` lists the (ids, length) of each
    such run, and `scanned` the ids of each run a scan crossed.  On
    forms, a choice that depends on n raises `_Undecided`, and the pass
    keeps what the proof needs: `entries`, the entries read; `head`, the
    head's offset from the start; and `ones`, the offsets of the 0->1
    writes, both ends of each scan's.
    """

    def __init__(self, cm, read, j, one=1):
        loaded: list = []
        index: list = [[], []]
        stacks: list = [[], []]
        start: list = [[], []]  # the symbols of each side's runs read, the top last

        def load(side):
            run = read(side, len(index[side]))
            if run is None:
                return False
            index[side].append(len(loaded))
            start[side].insert(0, run[0])
            stacks[side].append([run[0], run[1], (len(loaded),)])
            loaded.append((side, run))
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
        scanned: tuple = ()
        decided: list = []
        last = None  # the shape at the last recurrence of the start
        self.loaded, self.index, self.stacks, self.decided = loaded, index, stacks, decided
        self.entries, self.ones = entries, ones
        self.moves = 0
        for moves in range(1, MAX_MOVES + 1):
            stack = stacks[f]
            run = stack[-1]
            s, n, ids = run
            j = st + s
            w, m, t = entry[j]
            if t < 0:
                break  # a stop: it halts, exits, or enters a watched state
            side = (m + 1) >> 1
            if t == st and side == f:
                count, moved = n, ids  # a scan crosses the whole run
                scanned += ids
                stack.pop()
            else:
                count, moved = one, ()
                singles += 1
                if ids:
                    decided.append((ids, n))
                if n > one:
                    run[1] = n - one
                else:
                    stack.pop()
            if not stack and not load(f):
                break  # out of runs
            top = stacks[1 - side][-1]
            if top[0] == w:
                top[1] += count
                top[2] += moved
            else:
                stacks[1 - side].append([w, count, moved])
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
        self.steps, self.singles, self.scanned, self.head = steps, singles, scanned, head


def _reader(tape, face):
    """read(side, i): run i outward from the head on that side, from 0.

    Runs are (symbol, length); the head's cell is the first of side
    `face`.  Past the blank, read returns None.  Each run is found in the
    buffer once, however often it is read.
    """
    buf, org, lo1, hi1 = tape.buf, tape.org, tape._lo1, tape._hi1
    blank = hi1 < lo1
    cursor = [tape.head - face, tape.head + 1 - face]  # the next cell on each side
    runs: list = [[], []]  # each side's runs read so far

    def read(side, i):
        got = runs[side]
        while len(got) <= i:
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
            got.append((s, n))
        return got[i]

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
    """The rule trigger of one run, and the rules and refusals of its table.

    What a proof establishes is a fact about the compiled table, so the
    table keeps it (`CompiledMachine.proofs`, made at its first long
    scan): per entry, its last `KEPT` rules and `KEPT` refusals, and its
    failures since its last proof, at most `_FAILS`.  The prover keeps
    only the run's schedule: the long scans so far, each entry's last
    one and the gap between its last two, and its failures and the
    triggers it still waits, which start from the table's count.
    """

    def __init__(self, cm):
        self.cm = cm
        if cm.proofs is None:
            object.__setattr__(cm, "proofs", ({}, {}, {}))
        self.rules, self.refused, self.failed = cm.proofs
        n = len(cm.entry)
        self.scans = 0
        self.last = [0] * n  # the long scan at which each entry last scanned
        self.gap = [0] * n  # the long scans between its last two
        # failed searches since the entry's last proof, and the triggers to
        # skip before the next: 2^fails - 1.  A run counts on from the
        # table's count, which stops at `_FAILS`
        self.fails = [0] * n
        self.wait = [0] * n
        for j, f in self.failed.items():
            self.fails[j] = f
            self.wait[j] = (1 << f) - 1
        self.search = True  # whether `apply` may search: `due` decides it

    def due(self, j) -> bool:
        """Whether the long scan of entry `j` starting now should try a rule.

        A rule the table knows is tried at every long scan of its entry;
        a search only when the entry recurs after the same number of long
        scans as last time, and its wait is over.
        """
        scans = self.scans = self.scans + 1
        gap = scans - self.last[j]
        self.last[j] = scans
        if gap != self.gap[j]:
            self.gap[j] = gap
            search = False
        elif self.wait[j]:
            self.wait[j] -= 1
            search = False
        else:
            search = True
        self.search = search
        return search or j in self.rules

    def apply(self, tape, j, budget, cap, reads) -> int:
        """Apply a rule for the scan of entry `j`; the steps it took, or 0.

        `tape` is the run's tape, the head on the scan's first cell; it
        is changed only when a rule is applied.  A rule proved before is
        used when the tape matches it; otherwise, when `due` allowed a
        search, one is proved, unless a search refused before would
        refuse it again.
        """
        read = _reader(tape, (self.cm.entry[j][1] + 1) >> 1)
        for rule in self.rules.get(j, ()):
            runs = rule.match(read)
            if runs is not None:
                return _apply(rule, runs, tape, budget, cap, reads)
        if not self.search:
            return 0
        if any(refusal.holds(read, budget) for refusal in self.refused.get(j, ())):
            rule = None
        else:
            rule = self._prove(read, j, budget)
        if rule is None:
            fails = self.fails[j] = self.fails[j] + 1
            self.wait[j] = (1 << fails) - 1
            self.failed[j] = min(fails, _FAILS)
            return 0
        self.fails[j] = 0
        self.failed.pop(j, None)
        kept = self.rules.setdefault(j, [])
        kept.insert(0, rule)
        del kept[KEPT:]
        return _apply(rule, rule.match(read), tape, budget, cap, reads)

    def _prove(self, read, j, budget):
        """The rule of the cycle that starts at the scan of entry `j`, or None.

        A cycle refused before its proof is remembered, so that `apply`
        refuses it again by reading the runs it read (`_Refusal`).
        """
        search = _Search(self.cm, read, j)
        cycle = None
        if search.moves:
            # no single transition empties a run of c cells or more
            c = search.singles + 1
            ends = [
                (k, r[1], r[2])
                for side in (0, 1)
                for r, k in zip(reversed(search.stacks[side]), search.index[side])
            ]
            pairs = [(search.loaded[k][1][1], r) for k, r, _ in ends]
            if _repeats(budget, search.steps, pairs, c) >= MIN_REPEATS:
                return self._proof(j, search, c)
            cycle = (c, search.steps, search.scanned, ends)
        refused = self.refused.setdefault(j, [])
        refused.insert(0, _Refusal(search, cycle))
        del refused[KEPT:]
        return None

    def _proof(self, j, search, c):
        """The rule of the cycle `search` found, or None when it does not hold for all n."""
        orig = [[search.loaded[k][1] for k in search.index[side]] for side in (0, 1)]
        # A run becomes n + c when its length changed or exceeds c, so that
        # the rule serves other lengths too; the rest keep their length.
        where = [
            (side, i)
            for side in (0, 1)
            for i, r in enumerate(reversed(search.stacks[side]))
            if r[1] != orig[side][i][1] or orig[side][i][1] > c
        ]
        unit = {at: v for v, at in enumerate(where, 1)}
        start: list = [[], []]
        for side in (0, 1):
            for i, (s, n) in enumerate(orig[side]):
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
            for (_, e, _), (_, e0) in zip(reversed(proof.stacks[side]), start[side]):
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


class _Refusal:
    """A cycle `_prove` refused before its proof, and the tapes it is refused on.

    The search reads the lengths of its runs only where a single
    transition shortens a run: the run empties or it does not.  So on a
    tape whose runs have the same symbols, it makes the same moves as
    long as each such run gives the same answer.  A run that emptied
    keeps its length; one that did not may lose the cells it had to
    spare.  The blank stays the blank.  Each run read is kept as (side,
    its index on that side, symbol, length, lowest, highest), in the
    order the search read them.  `cycle` is None when the search found
    no cycle.  For one that `MIN_REPEATS` refused it is (c, steps,
    scanned, ends), where each end (k, r, ids) is the run that ended where
    run k started, its length r and the runs it holds; the repeats are
    counted again on the new lengths.
    """

    def __init__(self, search, cycle):
        self.cycle = cycle
        n = [run[1] for _, run in search.loaded]
        lo = [BLANK if x == BLANK else 1 for x in n]
        hi = [BLANK if x == BLANK else BLANK - 1 for x in n]
        for ids, e in search.decided:
            if e == 1:  # it emptied: each run it holds keeps its length
                for i in ids:
                    lo[i] = hi[i] = n[i]
                continue
            # it kept e - 1 cells: the runs it holds may lose e - 2 in all
            over = sum(n[i] - lo[i] for i in ids) - (e - 2)
            for i in ids:
                if over <= 0:
                    break
                up = min(over, n[i] - lo[i])
                lo[i] += up
                over -= up
        depth = [0, 0]
        self.runs = []
        for (at, (s, x)), a, b in zip(search.loaded, lo, hi):
            self.runs.append((at, depth[at], s, x, a, b))
            depth[at] += 1

    def holds(self, read, budget) -> bool:
        """Whether `_prove` refuses this cycle on the tape `read` reads."""
        d = []  # each run's change in length
        for side, i, s, n, lo, hi in self.runs:
            run = read(side, i)
            if run is None or run[0] != s or not lo <= run[1] <= hi:
                return False
            d.append(run[1] - n)
        if self.cycle is None:
            return True
        c, steps, scanned, ends = self.cycle
        delta = d.__getitem__
        pairs = [(self.runs[k][3] + d[k], r + sum(map(delta, ids))) for k, r, ids in ends]
        return _repeats(budget, steps + sum(map(delta, scanned)), pairs, c) < MIN_REPEATS


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
