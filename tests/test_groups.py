"""Bilinear-group layer: field laws, pairing, hashing, serialization."""

import hashlib
import os
import pathlib
import random
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from sevdel import bn254
from sevdel.errors import InvalidElement, UnknownDomain
from sevdel.groups import (
    DOMAIN_BLOCK,
    DOMAIN_VGEN,
    G1Elem,
    G2Elem,
    SystemParams,
    elem_to_scalar,
    pairing_eq,
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
    triples = 1000 if any_params.group.name == "toy" else 30
    for _ in range(triples):
        a, b, c = (rng.scalar(p) for _ in range(3))
        assert (g ** a) * (g ** b) == g ** ((a + b) % p)
        assert (g ** a) ** b == g ** (a * b % p)
        assert (g ** a) * (g ** b) * (g ** c) == g ** ((a + b + c) % p)
        assert (g ** a) * (g ** b) ** -1 == g ** ((a - b) % p)


def test_pairing_zero_exponent(any_params):
    # e(g1^0, g2) is 1, and so is e(g1, g2^0)
    g1, g2 = any_params.g1, any_params.g2
    assert pairing_eq((g1 ** 0, g2), (g1, g2 ** 0))
    assert not pairing_eq((g1 ** 0, g2), (g1, g2))


def test_pairing_small_exponents(any_params):
    g1, g2 = any_params.g1, any_params.g2
    assert pairing_eq((g1 ** 2, g2 ** 3), (g1 ** 6, g2))
    assert pairing_eq((g1 ** 2, g2 ** 3), (g1 ** 3, g2 ** 2))
    assert not pairing_eq((g1 ** 2, g2 ** 3), (g1 ** 5, g2))


def test_pairing_bilinear_random_oracle(any_params):
    # e(g1^x, g2^y) == e(g1^{xy}, g2) for 100 random pairs
    p = any_params.order
    rng = SeededRng(b"bilinearity")
    for _ in range(100):
        x, y = rng.scalar(p, nonzero=True), rng.scalar(p, nonzero=True)
        assert pairing_eq((any_params.g1 ** x, any_params.g2 ** y),
                          (any_params.g1 ** (x * y % p), any_params.g2))


def test_pairing_nondegenerate(any_params):
    # e(g1, g2) != 1 = e(identity, g2)
    assert not pairing_eq((any_params.g1, any_params.g2), (any_params.g1 ** 0, any_params.g2))


def test_pairing_group_mismatch():
    # an argument of the other backend in each of the four positions
    toy, bn = setup("toy"), setup("bn254")
    for position in range(4):
        args = [toy.g1, toy.g2, toy.g1, toy.g2]
        args[position] = (bn.g1, bn.g2)[position % 2]
        with pytest.raises(InvalidElement):
            pairing_eq((args[0], args[1]), (args[2], args[3]))


# -- element semantics -----------------------------------------------------------

def _other_backend(params):
    return setup("bn254" if params.group.name == "toy" else "toy")


def test_elements_with_equal_raw_values_are_equal_with_equal_hashes(any_params):
    group, g1, g2 = any_params.group, any_params.g1, any_params.g2
    for elem, cls in ((g1 ** 5, G1Elem), (g2 ** 5, G2Elem)):
        twin = cls(group, elem.raw)
        assert twin is not elem and twin == elem and not twin != elem
        assert hash(twin) == hash(elem)
    assert g1 ** 5 != g1 ** 6 and g2 ** 5 != g2 ** 6


def test_elements_of_another_backend_compare_unequal(any_params):
    other = _other_backend(any_params)
    assert not any_params.g1 == other.g1 and any_params.g1 != other.g1
    assert not any_params.g2 == other.g2 and any_params.g2 != other.g2


def test_g1_and_g2_elements_with_the_same_raw_value_are_unequal(any_params):
    group = any_params.group
    for raw in (any_params.g1.raw, any_params.g2.raw):
        assert G1Elem(group, raw) != G2Elem(group, raw)
        assert not G2Elem(group, raw) == G1Elem(group, raw)


def test_products_across_backends_or_groups_raise(any_params):
    other = _other_backend(any_params)
    with pytest.raises(InvalidElement, match="group mismatch"):
        any_params.g1 * other.g1
    with pytest.raises(InvalidElement, match="group mismatch"):
        any_params.g1 * any_params.g2


def test_g2_powers(any_params):
    p, g2 = any_params.order, any_params.g2
    rng = SeededRng(b"g2-powers")
    a, b = rng.scalar(p, nonzero=True), rng.scalar(p, nonzero=True)
    assert (g2 ** a) ** b == g2 ** (a * b % p)
    assert g2 ** (p + 1) == g2 and g2 ** p == g2 ** 0 != g2
    assert pairing_eq((any_params.g1, g2 ** a), (any_params.g1 ** a, g2))


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


def test_hash_output_in_subgroup(g1_on_curve):
    pt = bn254.g1_hash(b"subgroup check")
    assert g1_on_curve(pt)
    assert bn254._g1_mul_raw(pt, int(bn254.R)) is None


# sha256 over the encodings of bn254.g1_hash(b"fixed-0" ... b"fixed-63"),
# computed with the g1_hash that took a square root of every candidate
G1_HASH_DIGEST = "46b96119fbc3ec6864024fe3b45373084abc28c0a7d00a0ec693b7fbb0d8230e"


def test_g1_hash_points_unchanged_by_the_jacobi_rejection():
    h = hashlib.sha256()
    for k in range(64):
        h.update(bn254.g1_to_bytes(bn254.g1_hash(b"fixed-%d" % k)))
    assert h.hexdigest() == G1_HASH_DIGEST


@settings(max_examples=40, deadline=None)
@given(data=st.binary(max_size=48))
@example(data=b"")
def test_g1_hash_of_bytes_like_inputs(data):
    # bytearray and memoryview inputs hash to the same point as bytes
    point = bn254.g1_hash(data)
    assert bn254.g1_hash(bytearray(data)) == bn254.g1_hash(memoryview(data)) == point


_P = int(bn254.P)


def _euler(a):
    # Euler's criterion: a^((p-1)/2) is 1, p-1 or 0 mod p
    r = pow(a % _P, (_P - 1) // 2, _P)
    return -1 if r == _P - 1 else r


@settings(deadline=None)
@given(st.integers(-3 * _P, 3 * _P)
       | st.sampled_from([0, 1, _P - 1, _P, _P + 1, 2 * _P - 1])
       | st.integers(-4, 4).map(lambda k: k * _P))
@example(0)
@example(1)
@example(_P - 1)
@example(_P)
@example(-2 * _P)
def test_jacobi_matches_euler_criterion(a):
    assert bn254._jacobi(a, bn254.P) == _euler(a)


def test_jacobi_on_small_odd_moduli_is_the_product_of_legendre_symbols():
    def legendre(a, p):
        r = pow(a, (p - 1) // 2, p)
        return -1 if r == p - 1 else r

    for n in range(1, 200, 2):
        factors, m, f = [], n, 3
        while m > 1:
            while m % f == 0:
                factors.append(f)
                m //= f
            f += 2
        for a in range(-n, 2 * n):
            expect = 1
            for p in factors:
                expect *= legendre(a % p, p)
            assert bn254._jacobi(a, n) == expect, (a, n)


# -- elem_to_scalar -----------------------------------------------------------

def test_elem_to_scalar_identity_pinned(any_params):
    assert elem_to_scalar(any_params.g1_identity()) == IDENTITY_SCALAR[any_params.group.name]


def test_elem_to_scalar_distinct(any_params):
    rng = SeededRng(b"elem-scalar")
    count = 10_000 if any_params.group.name == "toy" else 2000
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
    width_g2 = len(any_params.g2.to_bytes())
    for data in (b"\xff" * width_g1, b"\x02" + b"\xff" * (width_g1 - 1), b"", b"\x00"):
        with pytest.raises(InvalidElement):
            any_params.g1_from_bytes(data)
    for data in (b"\xff" * width_g2, b"\x02" + b"\xff" * (width_g2 - 1)):
        with pytest.raises(InvalidElement):
            any_params.g2_from_bytes(data)


def test_g2_non_subgroup_point_rejected(bn_params):
    # find an on-twist point of the wrong order; its encoding must not decode
    from sevdel.bn254 import Fp2, TWIST_B
    x0 = 1
    while True:
        x = Fp2(x0, 1)
        y = x.sqr().mul(x).add(TWIST_B).sqrt()
        if y is not None and bn254._g2_mul_raw((x, y), bn254.R) is not None:
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
    again = setup(any_params.group.name, any_params.sector_bits)
    assert again.digest() == any_params.digest()
    assert isinstance(any_params, SystemParams)


def test_backends_are_shared_and_bn254_is_its_module():
    assert setup("bn254").group is setup("bn254", 16).group is bn254
    assert setup("toy").group is setup("toy", 32).group


def _imports_bn254(code):
    """Whether running code in a fresh interpreter imports sevdel.bn254."""
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-c", f"{code}\nimport sys\n"
                          "print('sevdel.bn254' in sys.modules)"],
                         env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True)
    return out.stdout.strip() == "True"


def test_toy_setup_never_imports_bn254():
    # the bn254 import-time checks would add to every toy run's setup
    assert not _imports_bn254("import sevdel; sevdel.setup('toy')")


def test_toy_bench_never_imports_bn254():
    # nor to a toy bench and its bench.json record
    assert not _imports_bn254("from sevdel.scenario import bench, bench_report\n"
                              "bench_report(bench([64], reps=1), {}, {})")


def test_setup_rejects_bad_sector_bits():
    with pytest.raises(ValueError):
        setup("toy", sector_bits=12)
