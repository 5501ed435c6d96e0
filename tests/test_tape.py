"""Tape construction against writing one cell at a time."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beaverkit.tape import Tape


def cell_by_cell_blocks(blocks, head, start_cell):
    t = Tape(head)
    cell = start_cell
    for b in blocks:
        if b < 1:
            raise ValueError("unary blocks must be >= 1")
        for _ in range(b):
            t.write(cell, 1)
            cell += 1
        cell += 1
    return t


def cell_by_cell_symbols(symbols, start_cell, head):
    t = Tape(head)
    for i, s in enumerate(symbols):
        if s:
            t.write(start_cell + i, 1)
    return t


def state(t):
    """The cells holding 1 anywhere in the buffer, and every other field."""
    ones = [p - t.org for p, v in enumerate(t.buf) if v]
    assert set(t.buf) <= {0, 1}
    return ones, t.support(), (t._lo1, t._hi1), t.head


cells = st.integers(-9000, 9000)


@settings(max_examples=200, deadline=None)
@given(blocks=st.lists(st.one_of(st.integers(1, 6), st.integers(-2, 5000)), max_size=4),
       head=cells, start=cells)
def test_from_blocks_matches_cell_by_cell(blocks, head, start):
    try:
        want = state(cell_by_cell_blocks(blocks, head, start))
    except ValueError:
        with pytest.raises(ValueError, match="unary blocks must be >= 1"):
            Tape.from_blocks(blocks, head, start)
        return
    assert state(Tape.from_blocks(blocks, head, start)) == want


@settings(max_examples=200, deadline=None)
@given(symbols=st.lists(st.integers(0, 2), max_size=300) | st.lists(st.booleans(), max_size=20),
       head=cells, start=cells)
def test_from_symbols_matches_cell_by_cell(symbols, head, start):
    got = Tape.from_symbols(symbols, start, head)
    assert state(got) == state(cell_by_cell_symbols(symbols, start, head))
