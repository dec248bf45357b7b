"""Bilinear-group layer: field laws, pairing, hashing, serialization."""

import random

import pytest

from sevdel import bn254
from sevdel.errors import InvalidElement, UnknownDomain
from sevdel.groups import (
    DOMAIN_BLOCK,
    DOMAIN_VGEN,
    SystemParams,
    elem_to_scalar,
    pairing,
    scalar_from_bytes,
    scalar_to_bytes,
    setup,
)
from sevdel.rng import SeededRng

# pinned once from the canonical encodings; see test_elem_to_scalar_identity
IDENTITY_SCALAR = {
    "toy": 63147590646103,
    "bn254": 15171703061197730193335655006239983112117185823422460548191506328715693635058,
}


def test_scalar_field_laws_match_bigint_oracle(any_params):
    # exponent arithmetic in the group must agree with plain integer
    # arithmetic mod the order on random triples
    p = any_params.order
    g = any_params.g1
    rng = SeededRng(b"field-laws")
    triples = 1000 if any_params.group_id == "toy" else 30
    for _ in range(triples):
        a, b, c = (rng.scalar(p) for _ in range(3))
        assert (g ** a) * (g ** b) == g ** ((a + b) % p)
        assert (g ** a) ** b == g ** (a * b % p)
        assert (g ** a) * (g ** b) * (g ** c) == g ** ((a + b + c) % p)
        assert (g ** a) / (g ** b) == g ** ((a - b) % p)


def test_pairing_zero_exponent(any_params):
    e = pairing(any_params.g1 ** 0, any_params.g2)
    assert e == any_params.gt_identity()


def test_pairing_small_exponents(any_params):
    e = pairing(any_params.g1, any_params.g2)
    assert pairing(any_params.g1 ** 2, any_params.g2 ** 3) == e ** 6


def test_pairing_bilinear_random_oracle(any_params):
    # e(g1^x, g2^y) == e(g1^{xy}, g2) for 100 random pairs
    p = any_params.order
    rng = SeededRng(b"bilinearity")
    for _ in range(100):
        x, y = rng.scalar(p, nonzero=True), rng.scalar(p, nonzero=True)
        lhs = pairing(any_params.g1 ** x, any_params.g2 ** y)
        rhs = pairing(any_params.g1 ** (x * y % p), any_params.g2)
        assert lhs == rhs


def test_pairing_nondegenerate(any_params):
    assert pairing(any_params.g1, any_params.g2) != any_params.gt_identity()


def test_pairing_group_mismatch():
    toy = setup("toy")
    bn = setup("bn254")
    with pytest.raises(InvalidElement):
        pairing(toy.g1, bn.g2)


def test_fast_final_exponentiation_matches_canonical():
    # optimal-ate output must equal the plain f^((p^12-1)/r) pairing; the
    # arbitrary element is not unitary, so a cyclotomic shortcut taken
    # before the easy part would show
    hard = (int(bn254.P) ** 12 - 1) // int(bn254.R)
    f = bn254.miller_loop(bn254.g1_mul(bn254.G1_GEN, 7), bn254.g2_mul(bn254.G2_GEN, 11))
    rng = random.Random(73)
    x = bn254.Fp12(tuple(rng.randrange(int(bn254.P)) for _ in range(12)))
    assert x.conj().mul(x) != bn254.FP12_ONE
    for elem in (f, x):
        assert bn254.final_exponentiation(elem) == elem.pow(hard)


def test_generator_orders():
    assert bn254._g1_mul_raw(bn254.G1_GEN, int(bn254.R)) is None
    assert bn254._g2_mul_raw(bn254.G2_GEN, int(bn254.R)) is None


def test_frobenius_is_p_power():
    f = bn254.miller_loop(bn254.G1_GEN, bn254.G2_GEN)
    assert f.frobenius() == f.pow(int(bn254.P))
    assert f.frobenius_p2() == f.pow(int(bn254.P) ** 2)


# -- hash to curve -------------------------------------------------------------

def test_hash_deterministic(any_params):
    a = any_params.hash_to_g1(DOMAIN_BLOCK, b"same message")
    b = any_params.hash_to_g1(DOMAIN_BLOCK, b"same message")
    assert a == b


def test_hash_collision_scan(any_params):
    rng = SeededRng(b"hash-collisions")
    seen = set()
    for _ in range(10_000):
        msg = rng.read(24)
        seen.add(any_params.hash_to_g1(DOMAIN_BLOCK, msg).to_bytes())
    assert len(seen) == 10_000


def test_hash_cross_domain_independent(any_params):
    rng = SeededRng(b"hash-domains")
    for _ in range(10_000):
        msg = rng.read(16)
        a = any_params.hash_to_g1(DOMAIN_BLOCK, msg)
        b = any_params.hash_to_g1(DOMAIN_VGEN, msg)
        assert a != b


def test_hash_unknown_domain_rejected(any_params):
    with pytest.raises(UnknownDomain):
        any_params.hash_to_g1(b"sevdel/never-registered", b"msg")


def test_hash_output_in_subgroup():
    pt = bn254.g1_hash(b"subgroup check")
    assert bn254.g1_is_on_curve(pt)
    assert bn254._g1_mul_raw(pt, int(bn254.R)) is None


# -- elem_to_scalar -----------------------------------------------------------

def test_elem_to_scalar_identity_pinned(any_params):
    assert elem_to_scalar(any_params.g1_identity()) == IDENTITY_SCALAR[any_params.group_id]


def test_elem_to_scalar_distinct(any_params):
    rng = SeededRng(b"elem-scalar")
    count = 10_000 if any_params.group_id == "toy" else 2000
    group = any_params.group
    from sevdel.groups import G1Elem
    seen = set()
    for _ in range(count):
        e = G1Elem(group, group.g1_hash(rng.read(16)))
        seen.add(elem_to_scalar(e))
    assert len(seen) == count


def test_elem_to_scalar_serialization_stable(any_params):
    e = any_params.hash_to_g1(DOMAIN_BLOCK, b"round trip")
    back = any_params.g1_from_bytes(e.to_bytes())
    assert elem_to_scalar(back) == elem_to_scalar(e)


# -- serialization ----------------------------------------------------------------

def test_g1_serialization_roundtrip(any_params):
    rng = SeededRng(b"ser-g1")
    for k in [0, 1, 2, any_params.order - 1] + [rng.scalar(any_params.order) for _ in range(20)]:
        e = any_params.g1 ** k
        assert any_params.g1_from_bytes(e.to_bytes()) == e


def test_g2_serialization_roundtrip(any_params):
    rng = SeededRng(b"ser-g2")
    for k in [0, 1, 2] + [rng.scalar(any_params.order) for _ in range(5)]:
        e = any_params.g2 ** k
        assert any_params.g2_from_bytes(e.to_bytes()) == e


def test_garbage_bytes_rejected(any_params):
    width_g1 = any_params.group.g1_bytes
    width_g2 = any_params.group.g2_bytes
    for data in (b"\xff" * width_g1, b"\x02" + b"\xff" * (width_g1 - 1), b"", b"\x00"):
        with pytest.raises(InvalidElement):
            any_params.g1_from_bytes(data)
    for data in (b"\xff" * width_g2, b"\x02" + b"\xff" * (width_g2 - 1)):
        with pytest.raises(InvalidElement):
            any_params.g2_from_bytes(data)


def test_g2_non_subgroup_point_rejected(bn_params):
    # find an on-twist point of the wrong order; its encoding must not decode
    from sevdel.bn254 import Fp2, TWIST_B, mpz
    x0 = 1
    while True:
        x = Fp2(mpz(x0), mpz(1))
        y = x.sqr().mul(x).add(TWIST_B).sqrt()
        if y is not None and bn254._g2_mul_raw((x, y), int(bn254.R)) is not None:
            rogue = (x, y)
            break
        x0 += 1
    with pytest.raises(InvalidElement):
        bn_params.g2_from_bytes(bn254.g2_to_bytes(rogue))


def test_scalar_encoding_roundtrip(any_params):
    group = any_params.group
    for v in (0, 1, any_params.order - 1):
        assert scalar_from_bytes(group, scalar_to_bytes(group, v)) == v
    with pytest.raises(InvalidElement):
        scalar_to_bytes(group, any_params.order)
    with pytest.raises(InvalidElement):
        scalar_from_bytes(group, b"\xff" * group.scalar_bytes)


def test_params_digest_stable(any_params):
    again = setup(any_params.group_id, any_params.sector_bits)
    assert again.digest() == any_params.digest()
    assert isinstance(any_params, SystemParams)


def test_setup_rejects_bad_sector_bits():
    with pytest.raises(ValueError):
        setup("toy", sector_bits=12)
