"""Two-way-infinite binary tape with a head.

Backed by a growable bytearray plus an origin offset, so reads and writes
are amortized O(1) and long uniform runs can be scanned at memchr speed.
Cells outside the buffer read 0.  ``support()`` reports the minimal cell
interval containing every 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

_INITIAL = 1 << 12


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
        t = cls(head)
        if blocks:
            last = start_cell + sum(blocks) + len(blocks) - 2  # the last 1
            t.grow(start_cell)
            t.grow(last)
            p = t.org + start_cell
            for b in blocks:
                t.buf[p : p + b] = b"\x01" * b
                p += b + 1
            t._lo1, t._hi1 = start_cell, last
        return t

    @classmethod
    def from_symbols(cls, symbols: list[int], start_cell: int = 0, head: int = 0) -> "Tape":
        """Cell start_cell + i holds 1 where symbols[i] is true."""
        t = cls(head)
        cells = bytes(map(bool, symbols))
        first = cells.find(1)
        if first >= 0:
            last = cells.rfind(1)
            lo, hi = start_cell + first, start_cell + last
            t.grow(lo)
            t.grow(hi)
            t.buf[t.org + lo : t.org + hi + 1] = cells[first : last + 1]
            t._lo1, t._hi1 = lo, hi
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
        """Extend the buffer so `cell` is addressable, with headroom."""
        margin = max(len(self.buf), _INITIAL)
        p = self.org + cell
        if p < 0:
            pre = max(margin, -p + 1)
            self.buf = bytearray(pre) + self.buf
            self.org += pre
        elif p >= len(self.buf):
            post = max(margin, p - len(self.buf) + 1)
            self.buf += bytearray(post)

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
        if self.head != other.head:
            return False
        lo1, hi1 = self.support()
        lo2, hi2 = other.support()
        if (lo1, hi1) != (lo2, hi2):
            return False
        if hi1 < lo1:
            return True
        return (
            self.buf[self.org + lo1 : self.org + hi1 + 1]
            == other.buf[other.org + lo2 : other.org + hi2 + 1]
        )

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
