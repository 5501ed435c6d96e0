"""Exact-integer ground truth used to judge machine behavior.

Everything here is deliberately slow and obvious: trial division for
primality, the square-one-less-plus-one recurrence for the Fermat-style
sequence, and a perfect-square test computed two independent ways that
must agree.  These functions are the referees for the simulated
machines, so they favor being checkable over being fast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .tape import Tape


def is_prime(n: int) -> bool:
    """Trial division up to the square root; exact for any size."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def fermat_number(n: int) -> int:
    """F(0)=3 and F(k) = (F(k-1) - 1)^2 + 1; equals 2^(2^n) + 1.

    Some treatments define the sequence without the +1; this module uses
    the +1 form, which the recurrence produces and which makes the
    classic prime members 3, 5, 17, 257, 65537.
    """
    if n < 0:
        raise ValueError("index must be non-negative")
    f = 3
    for _ in range(n):
        f = (f - 1) ** 2 + 1
    return f


def factorial_plus_one(n: int) -> int:
    return math.factorial(n) + 1


class OracleFault(RuntimeError):
    """Two independent computations of the same fact disagreed."""


def is_perfect_square(n: int) -> tuple[bool, int | None]:
    """(is_square, witness): integer square root cross-checked against
    iterated subtraction of consecutive odd numbers."""
    if n < 0:
        return (False, None)
    r = math.isqrt(n)
    by_root = r * r == n
    remaining = n
    odd = 1
    while remaining >= odd:
        remaining -= odd
        odd += 2
    by_subtraction = remaining == 0
    if by_root != by_subtraction:
        raise OracleFault(f"square tests disagree on {n}: root={by_root} subtraction={by_subtraction}")
    return (by_root, r if by_root else None)


@dataclass(frozen=True)
class UnaryLayout:
    """Blocks of 1s from cell 0, separated by single 0 cells, plus a head rule.

    head_block/head_edge place the head at an edge of a named block
    ("left", "right", or "after" = first cell right of the block); with
    no blocks the head stands on cell 0.
    """

    blocks: tuple[int, ...]
    head_block: int = 0
    head_edge: str = "left"

    def head_position(self) -> int:
        if not self.blocks:
            return 0
        i = self.head_block
        if not 0 <= i < len(self.blocks):
            raise ValueError(f"head block {i} out of range")
        left = sum(b + 1 for b in self.blocks[:i])
        if self.head_edge == "left":
            return left
        if self.head_edge == "right":
            return left + self.blocks[i] - 1
        if self.head_edge == "after":
            return left + self.blocks[i]
        raise ValueError(f"unknown head edge {self.head_edge!r}")


def encode_tape(layout: UnaryLayout) -> Tape:
    tape = Tape.from_blocks(list(layout.blocks))
    tape.head = layout.head_position()
    return tape
