"""Tape construction against writing one cell at a time."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beaverkit import tape as tape_module
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


@pytest.mark.parametrize("start", [-9000, 0, 9000])
def test_from_symbols_wider_than_a_buffer_keeps_every_cell(start):
    # the first `grow` moves a blank buffer; the second must keep the first cell
    symbols = [1] + [0] * 5000 + [1]
    got = Tape.from_symbols(symbols, start)
    assert got.support() == (start, start + 5001) and got.blocks() == [1, 1]
    assert state(got) == state(cell_by_cell_symbols(symbols, start, 0))


@pytest.mark.parametrize("head", [-(10**12), 10**12])
def test_a_blank_tapes_buffer_moves_to_a_far_cell(head):
    t = Tape(head)
    size = len(t.buf)
    t.write(head, 0)
    assert len(t.buf) == size and t.read(head) == 0 and t.support() == (0, -1)
    t.write(head + 1, 1)
    assert len(t.buf) == size and t.support() == (head + 1, head + 1)


@pytest.mark.parametrize("lo", [-(10**12), 10**12])
@pytest.mark.parametrize("width", [1, 3000])
def test_span_far_from_a_blank_buffer_keeps_both_ends_writable(lo, width):
    t = Tape()
    hi = lo + width - 1
    t.span(lo, hi)
    size = len(t.buf)
    assert size <= 2 * tape_module._INITIAL and t.extent() == (lo, hi)
    t.write(lo, 1)
    t.write(hi, 1)
    assert len(t.buf) == size and t.read(lo) == t.read(hi) == 1
    assert t.support() == (lo, hi) and t.blocks() == [1] * min(width, 2)
