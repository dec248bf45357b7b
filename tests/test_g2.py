"""G2 decoding against adversarial points.

The twist E'(Fp2) has order R * (2P - R), and its cofactor 2P - R is
10069 * 5864401 * 1875725156269 * q (q a 178-bit number).  A provider key
is a G2 point, so a point of small order, or a valid key shifted by one,
must not decode.  The psi membership test is checked against the plain
order check _g2_mul_raw(pt, R) is None.
"""

import random

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from sevdel import bn254
from sevdel.bn254 import Fp2, P, R, TWIST_B
from sevdel.errors import InvalidElement
from sevdel.groups import setup

COFACTOR = 2 * int(P) - int(R)
TWIST_ORDER = int(R) * COFACTOR
SMALL_ORDERS = (10069, 5864401)


def _twist_point(rng):
    while True:
        x = Fp2(rng.randrange(int(P)), rng.randrange(int(P)))
        y = x.sqr().mul(x).add(TWIST_B).sqrt()
        if y is not None:
            return (x, y)


def _point_of_order(n, rng):
    # n is prime, so [order/n]T has order n unless it is the identity
    while True:
        pt = bn254._g2_mul_raw(_twist_point(rng), TWIST_ORDER // n)
        if pt is not None:
            return pt


def test_cofactor_factors():
    small = 10069 * 5864401 * 1875725156269
    assert all(n % 4 == 1 for n in (*SMALL_ORDERS, int(R)))
    assert COFACTOR % small == 0
    assert (COFACTOR // small).bit_length() == 178


@pytest.mark.parametrize("order", SMALL_ORDERS)
def test_small_order_point_rejected(order):
    t = _point_of_order(order, random.Random(order))
    assert bn254.g2_is_on_curve(t) and bn254._g2_mul_raw(t, order) is None
    assert not bn254.g2_in_subgroup(t)
    with pytest.raises(InvalidElement):
        bn254.g2_from_bytes(bn254.g2_to_bytes(t))


@pytest.mark.parametrize("order", SMALL_ORDERS)
def test_key_shifted_by_small_order_point_rejected(order):
    # the small-subgroup attack on a provider key: A + T for T of small order
    rng = random.Random(order + 1)
    params = setup("bn254", sector_bits=8)
    key = params.g2 ** rng.randrange(1, int(R))
    shifted = bn254.g2_add(key.raw, _point_of_order(order, rng))
    assert bn254.g2_is_on_curve(shifted)
    assert params.g2_from_bytes(key.to_bytes()) == key
    with pytest.raises(InvalidElement):
        params.g2_from_bytes(bn254.g2_to_bytes(shifted))


def test_membership_agrees_with_order_check():
    rng = random.Random(20221348)
    for _ in range(30):
        pt = _twist_point(rng)
        cleared = bn254._g2_mul_raw(pt, COFACTOR)
        for cand in (pt, cleared):
            assert bn254.g2_in_subgroup(cand) == (bn254._g2_mul_raw(cand, int(R)) is None)
        assert bn254.g2_in_subgroup(cleared)
        assert not bn254.g2_in_subgroup(pt)


def test_membership_rejects_points_off_the_twist():
    x, y = bn254.G2_GEN
    assert not bn254.g2_in_subgroup((x, y.add(bn254.FP2_ONE)))
    assert bn254.g2_in_subgroup(None)


@pytest.mark.parametrize("order", SMALL_ORDERS)
def test_jacobian_mul_through_the_identity(order):
    # multiples of a small-order point reach the identity mid-chain; with
    # order = 1 mod 4 the NAF of order - 2 ends in -1 after the prefix
    # (order - 1)/2, so its last addition doubles -T
    t = _point_of_order(order, random.Random(order + 2))
    for k in (1, order - 2, order - 1, order, order + 1, 2 * order, 3 * order - 1, bn254.U):
        assert bn254._g2_jac_mul(t, k) == bn254._g2_mul_raw(t, k)


_BASE = bn254._g2_mul_raw(bn254.G2_GEN, 0x5EED)


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(k=st.integers(min_value=-2 * int(R), max_value=2 * int(R)))
@example(k=0)
@example(k=1)
@example(k=int(R) - 2)                # its last addition is a doubling, as above
@example(k=int(R) - 1)
@example(k=int(R))
@example(k=int(R) + 1)
@example(k=-1)
@example(k=-int(R) + 1)
@example(k=-3 * int(R) - 7)
def test_g2_mul_matches_reference(k):
    expect = bn254._g2_mul_raw(_BASE, k % int(R))
    assert bn254.g2_mul(_BASE, k) == expect
    assert bn254.g2_mul(bn254.G2_GEN, k) == bn254._g2_mul_raw(bn254.G2_GEN, k % int(R))
    assert bn254.g2_mul(None, k) is None


# -- the decode cache: the last few encodings it accepted are kept --------------

def _off_twist_x(rng):
    while True:
        x = Fp2(rng.randrange(int(P)), rng.randrange(int(P)))
        if x.sqr().mul(x).add(TWIST_B).sqrt() is None:
            return x


def test_refused_encodings_stay_refused_with_a_key_cached():
    rng = random.Random(27)
    key = bn254.g2_mul(bn254.G2_GEN, rng.randrange(1, int(R)))
    valid = bn254.g2_to_bytes(key)
    off = _off_twist_x(rng)
    refused = [
        b"\x00" * (bn254.G2_BYTES - 1) + b"\x01",                     # identity with a payload
        b"\x04" + valid[1:],                                          # bad flag
        b"\x02" + int(P).to_bytes(32, "big") + bytes(32),             # x >= p
        b"\x02" + int(off.c0).to_bytes(32, "big") + int(off.c1).to_bytes(32, "big"),
        bn254.g2_to_bytes(bn254.g2_add(key, _point_of_order(SMALL_ORDERS[0], rng))),
    ]
    decode, cache = bn254.g2_from_bytes, bn254._g2_decode
    cache.cache_clear()
    assert decode(valid) == key
    for data in refused:
        for _ in range(2):
            with pytest.raises(InvalidElement):
                decode(data)
    assert cache.cache_info().currsize == 1
    assert decode(valid) == key


def test_a_cached_key_equals_its_uncached_decode():
    data = bn254.g2_to_bytes(bn254.g2_mul(bn254.G2_GEN, 0xCAC4E))
    decode, cache = bn254.g2_from_bytes, bn254._g2_decode
    first = decode(data)
    hits = cache.cache_info().hits
    assert decode(data) == first == cache.__wrapped__(data)
    assert cache.cache_info().hits == hits + 1


def test_cached_keys_beyond_the_cache_size():
    # more distinct keys than the cache holds: a hit gives the point of a
    # miss, and an evicted key is decoded again to the same point
    decode, cache = bn254.g2_from_bytes, bn254._g2_decode
    size = cache.cache_parameters()["maxsize"]
    assert size == bn254._g2_lines.cache_parameters()["maxsize"] == 8
    points = [bn254.g2_mul(bn254.G2_GEN, k) for k in range(2, size + 5)]
    encodings = [bn254.g2_to_bytes(q) for q in points]
    cache.cache_clear()
    assert [decode(e) for e in encodings] == points
    assert cache.cache_info().misses == len(points)
    assert cache.cache_info().currsize == size
    hits = cache.cache_info().hits
    for q, e in zip(points[-size:], encodings[-size:]):
        assert decode(e) == q
    assert cache.cache_info().hits == hits + size
    assert decode(encodings[0]) == points[0]
    assert cache.cache_info().misses == len(points) + 1


@pytest.mark.parametrize("kind", [bytes, bytearray, memoryview])
def test_bytes_like_encodings_decode_as_before(kind):
    data = bn254.g2_to_bytes(bn254.g2_mul(bn254.G2_GEN, 0xB17E5))
    decode = bn254.g2_from_bytes
    assert decode(kind(data)) == bn254._g2_decode.__wrapped__(data)
    for bad in (data[:-1], data + b"\x00", b"\x04" + data[1:]):
        with pytest.raises(InvalidElement):
            decode(kind(bad))
