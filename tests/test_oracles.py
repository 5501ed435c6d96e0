import math

import pytest
from hypothesis import given, settings, strategies as st

from beaverkit.oracles import (
    UnaryLayout,
    encode_tape,
    factorial_plus_one,
    fermat_number,
    is_perfect_square,
    is_prime,
)


def test_prime_smallest_machine_cases():
    assert is_prime(5)
    assert not is_prime(9)


def test_prime_fermat_members():
    assert is_prime(65537)
    assert not is_prime(4294967297)  # 641 divides it
    assert 4294967297 % 641 == 0


def test_prime_agrees_with_sieve():
    limit = 50_000
    sieve = bytearray([1]) * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, int(limit**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    for n in range(limit + 1):
        assert is_prime(n) == bool(sieve[n]), n


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**6))
def test_prime_agrees_with_sympy_free_reference(n):
    # independent reference: count divisors the dumb way on a factor bound
    def ref(n):
        if n < 2:
            return False
        return all(n % d for d in range(2, math.isqrt(n) + 1))

    assert is_prime(n) == ref(n)


def test_fermat_recurrence_base_and_members():
    assert fermat_number(0) == 3
    assert fermat_number(1) == 5
    assert fermat_number(2) == 17 == (5 - 1) ** 2 + 1
    assert fermat_number(4) == 65537 == 2**16 + 1


@pytest.mark.parametrize("n", range(7))
def test_fermat_matches_closed_form(n):
    assert fermat_number(n) == 2 ** (2**n) + 1


def test_factorial_plus_one_values():
    assert factorial_plus_one(3) == 7
    assert factorial_plus_one(4) == 25
    assert factorial_plus_one(7) == 5041


def test_perfect_square_known_values():
    assert is_perfect_square(25) == (True, 5)
    assert is_perfect_square(5041) == (True, 71)
    assert is_perfect_square(721) == (False, None)
    assert 26 * 26 < 721 < 27 * 27


def test_square_methods_cross_agree_small_sweep():
    # full sweep at the low end; the subtraction arm is O(sqrt n) per call
    for n in range(20_000):
        ok, w = is_perfect_square(n)
        assert ok == (math.isqrt(n) ** 2 == n)
        if ok:
            assert w * w == n


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 10**6))
def test_square_methods_cross_agree_sampled(n):
    ok, _ = is_perfect_square(n)
    assert ok == (math.isqrt(n) ** 2 == n)


@pytest.mark.parametrize("k", [100, 317, 999, 1000])
def test_square_boundaries(k):
    assert is_perfect_square(k * k)[0]
    assert not is_perfect_square(k * k + 1)[0]
    assert not is_perfect_square(k * k - 1)[0]


def test_encode_examples():
    t = encode_tape(UnaryLayout(blocks=(2, 2)))
    assert t.snapshot(0, 5) == (1, 1, 0, 1, 1)
    t = encode_tape(UnaryLayout(blocks=(4, 3)))
    assert t.snapshot(0, 8) == (1, 1, 1, 1, 0, 1, 1, 1)


def test_encode_head_rules():
    assert encode_tape(UnaryLayout(blocks=(3, 2), head_block=1, head_edge="left")).head == 4
    assert encode_tape(UnaryLayout(blocks=(3, 2), head_block=1, head_edge="right")).head == 5
    assert encode_tape(UnaryLayout(blocks=(3, 2), head_block=0, head_edge="after")).head == 3


def test_encode_rejects_empty_block():
    with pytest.raises(ValueError):
        encode_tape(UnaryLayout(blocks=(0,)))


@pytest.mark.parametrize("x", range(1, 101))
def test_single_block_round_trip(x):
    t = encode_tape(UnaryLayout(blocks=(x,)))
    assert t.blocks() == [x]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 64), min_size=0, max_size=4))
def test_codec_round_trip(blocks):
    if not blocks:
        return
    t = encode_tape(UnaryLayout(blocks=tuple(blocks)))
    assert t.blocks() == blocks
