"""Two-way-infinite binary tape with a head.

Backed by a growable bytearray plus an origin offset, so reads and writes
are amortized O(1) and long uniform runs can be scanned at memchr speed.
Cells outside the buffer read 0.  ``support()`` reports the minimal cell
interval containing every 1.  The buffer, its origin and the 1-extent are
this module's: other modules read the tape through its methods, by cell
(`read`, `cells`) or by run (`runs`), and write 1s only where `span` has
made room.  The engine's run loop alone holds them as buffer indices
while it runs, and puts them back before it calls out.
"""

from __future__ import annotations

from dataclasses import dataclass, field

_INITIAL = 1 << 12
BLANK = 1 << 62  # the length `runs` gives the 0-run beyond the 1-extent
_FILL = (b"\x00", b"\x01")


class Tape:
    __slots__ = ("buf", "org", "head", "_lo1", "_hi1")

    def __init__(self, head: int = 0):
        self.buf = bytearray(_INITIAL)
        self.org = _INITIAL // 2
        self.head = head
        # over-approximate bounds of cells that have held a 1
        self._lo1 = 0
        self._hi1 = -1

    @classmethod
    def from_blocks(cls, blocks: list[int], head: int = 0, start_cell: int = 0) -> "Tape":
        """Unary layout: each block is that many 1s, one 0 between blocks."""
        if any(b < 1 for b in blocks):
            raise ValueError("unary blocks must be >= 1")
        return cls.from_symbols(b"\x00".join(map(b"\x01".__mul__, blocks)), start_cell, head)

    @classmethod
    def from_symbols(cls, symbols: list[int], start_cell: int = 0, head: int = 0) -> "Tape":
        """Cell start_cell + i holds 1 where symbols[i] is true."""
        t = cls(head)
        cells = bytes(map(bool, symbols))
        first = cells.find(1)
        if first >= 0:
            last = cells.rfind(1)
            lo, hi = start_cell + first, start_cell + last
            t.span(lo, hi)
            t.buf[t.org + lo : t.org + hi + 1] = cells[first : last + 1]
        return t

    def read(self, cell: int) -> int:
        p = self.org + cell
        if 0 <= p < len(self.buf):
            return self.buf[p]
        return 0

    def write(self, cell: int, symbol: int) -> None:
        p = self.org + cell
        if not 0 <= p < len(self.buf):
            self.grow(cell)
            p = self.org + cell
        self.buf[p] = symbol
        if symbol:
            if self._hi1 < self._lo1:
                self._lo1 = self._hi1 = cell
            else:
                if cell < self._lo1:
                    self._lo1 = cell
                if cell > self._hi1:
                    self._hi1 = cell

    def grow(self, cell: int) -> None:
        """Extend the buffer so `cell` is addressable, with headroom.

        A blank tape, one that has never held a 1, holds only 0s, so its
        buffer moves to lie around `cell` instead: a far head costs no
        memory.
        """
        margin = max(len(self.buf), _INITIAL)
        p = self.org + cell
        if not 0 <= p < len(self.buf) and self._hi1 < self._lo1:
            self.org = len(self.buf) // 2 - cell
        elif p < 0:
            pre = max(margin, -p + 1)
            self.buf = bytearray(pre) + self.buf
            self.org += pre
        elif p >= len(self.buf):
            post = max(margin, p - len(self.buf) + 1)
            self.buf += bytearray(post)

    def span(self, lo: int, hi: int) -> None:
        """Make [lo, hi] the 1-extent, both ends addressable, for 1s to be written there.

        The first `grow` may move a blank buffer to lie around `lo`, so the
        extent is set after it, and the second keeps every cell from `lo`.
        """
        self.grow(lo)
        self._lo1, self._hi1 = lo, hi
        self.grow(hi)

    def extent(self) -> tuple[int, int]:
        """(lo, hi) bounding every cell that has held a 1; hi < lo if none has."""
        return self._lo1, self._hi1

    def cells(self, lo: int, hi: int) -> bytes:
        """The symbols of cells lo..hi, all in the buffer, such as the support's."""
        return bytes(self.buf[self.org + lo : self.org + hi + 1])

    def runs(self, face: int):
        """read(side, i): run i outward from the head on that side, from 0.

        Runs are (symbol, length); the head's cell is the first of side
        `face`.  The blank beyond the 1-extent is one 0-run of length
        `BLANK`; past it, read returns None.  Each run is found in the
        buffer once, however often it is read.
        """
        buf, org, lo1, hi1 = self.buf, self.org, self._lo1, self._hi1
        blank = hi1 < lo1
        cursor = [self.head - face, self.head + 1 - face]  # the next cell on each side
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

    def rewrite(self, face: int, old: list, new: list, head: int) -> None:
        """Turn the runs `old` around the head into `new` around `head`, and move the head there.

        Both list each side's runs as `runs` reads them, nearest the head
        first, the head's cell the first of side `face`.  Only the cells
        whose symbol differs are written, so a run that ends in the blank
        may change its length; 1s go only where `span` made room.
        """

        def layout(runs, head):
            # the cell where each run starts, left to right, and its symbol;
            # the last entry is the cell past the rightmost run
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

        old, new = layout(old, self.head), layout(new, head)
        # where one layout reaches past the other, both are blank
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
                self.buf[self.org + a : self.org + b] = _FILL[s] * (b - a)
        self.head = head

    def support(self) -> tuple[int, int]:
        """Trimmed (lo, hi) cell interval holding every 1; (0, -1) if blank."""
        if self._hi1 < self._lo1:
            return (0, -1)
        a = max(0, self.org + self._lo1)
        b = min(len(self.buf), self.org + self._hi1 + 1)
        lo = self.buf.find(1, a, b)
        if lo < 0:
            return (0, -1)
        hi = self.buf.rfind(1, a, b)
        return (lo - self.org, hi - self.org)

    def support_size(self) -> int:
        lo, hi = self.support()
        return 0 if hi < lo else hi - lo + 1

    def snapshot(self, start: int, stop: int) -> tuple[int, ...]:
        """Symbols of the half-open cell window [start, stop)."""
        return tuple(self.read(c) for c in range(start, stop))

    def blocks(self) -> list[int]:
        """Lengths of maximal 1-runs over the support, left to right."""
        lo, hi = self.support()
        out: list[int] = []
        if hi < lo:
            return out
        p = self.org + lo
        end = self.org + hi + 1
        buf = self.buf
        while p < end:
            q = buf.find(0, p, end)
            if q < 0:
                q = end
            if q > p:
                out.append(q - p)
            p = buf.find(1, q, end)
            if p < 0:
                break
        return out

    def clone(self) -> "Tape":
        t = Tape(self.head)
        t.buf = bytearray(self.buf)
        t.org = self.org
        t._lo1 = self._lo1
        t._hi1 = self._hi1
        return t

    def content_equal(self, other: "Tape") -> bool:
        """Same support interval, same symbols, same head."""
        lo, hi = self.support()
        if (self.head, lo, hi) != (other.head, *other.support()):
            return False
        return self.cells(lo, hi) == other.cells(lo, hi)

    def render(self, start: int, stop: int) -> str:
        return " ".join(str(s) for s in self.snapshot(start, stop))


@dataclass
class Configuration:
    """A machine's full execution state: control state, tape, step count."""

    state: str
    tape: Tape = field(default_factory=Tape)
    steps: int = 0

    def clone(self) -> "Configuration":
        return Configuration(self.state, self.tape.clone(), self.steps)
