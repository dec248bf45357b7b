"""G1 multi-exponentiation, the generator table, the dlog table source,
batched scalar draws, and byte-identical protocol output.

``g1_msm`` and the generator table are checked against the per-term
``g1_mul``/``g1_add`` they replace, on both backends.
"""

import hashlib
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from sevdel import bn254, cloud, codec, owner, wire
from sevdel.enclave import EnclaveRegistry
from sevdel.errors import InvalidElement
from sevdel.groups import setup, vgen_points
from sevdel.rng import Rng, SeededRng


def _reference_mul(group):
    # the variable-base kernel: never the generator table
    return bn254.g1_mul if group.name == "bn254" else group.g1_pow


def per_term(group, bases, scalars):
    mul = _reference_mul(group)
    acc = group.g1_identity()
    for b, k in zip(bases, scalars):
        acc = group.g1_op(acc, mul(b, k))
    return acc


def _pool(params):
    """Bases a product of powers meets: identity, the generator and its
    inverse, and a few unrelated points (repeats come from re-drawing)."""
    group = params.group
    mul = _reference_mul(group)
    gen = group.g1_gen
    rng = SeededRng(b"msm-pool/" + group.name.encode())
    others = [mul(gen, rng.scalar(params.order, nonzero=True)) for _ in range(5)]
    return [group.g1_identity(), gen, group.g1_inv(gen)] + others


_POOLS = {}


def pool(params):
    if params.group_id not in _POOLS:
        _POOLS[params.group_id] = _pool(params)
    return _POOLS[params.group_id]


_terms = st.lists(
    st.tuples(st.integers(0, 7),
              st.one_of(st.integers(), st.integers(-2**300, 2**300),
                        st.sampled_from([0, 1, -1]))),
    max_size=20)


def _check_msm_property(params, terms):
    group = params.group
    bases = [pool(params)[i] for i, _ in terms]
    scalars = [k for _, k in terms]
    assert group.g1_msm(bases, scalars) == per_term(group, bases, scalars)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(terms=_terms)
def test_msm_matches_per_term_product_toy(terms):
    _check_msm_property(setup("toy", 16), terms)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(terms=_terms)
def test_msm_matches_per_term_product_bn254(terms):
    _check_msm_property(setup("bn254", 8), terms)


def _edge_cases(params):
    group = params.group
    r = params.order
    ident, gen, gen_inv, p, q = pool(params)[:5]
    p_inv = group.g1_inv(p)
    mul = _reference_mul(group)
    return [
        ("empty", [], [], ident),
        ("all identity bases", [ident, ident, ident], [5, r - 1, -3], ident),
        ("P with -P", [p, p_inv], [12345, 12345], ident),
        ("repeated bases", [p, p, p], [1, 2, 3], mul(p, 6)),
        ("one term", [q], [987654321], mul(q, 987654321)),
        ("scalar order-1", [p], [r - 1], p_inv),
        ("scalar order", [p], [r], ident),
        ("negative scalar", [p], [-1], p_inv),
        ("negative beyond order", [p, q], [-(r + 5), -2 * r], mul(p, r - 5)),
        ("zero scalars", [p, q, gen], [0, 0, r], ident),
        ("generator cancels", [gen, gen_inv, gen], [r - 1, 1, 1], gen_inv),
        ("generator and others", [gen, p, gen, q], [7, 9, r - 2, -4],
         per_term(group, [gen, p, q], [5, 9, r - 4])),
    ]


@pytest.mark.parametrize("case", range(12))
def test_msm_pinned_edge_cases(any_params, case):
    name, bases, scalars, expect = _edge_cases(any_params)[case]
    assert any_params.group.g1_msm(bases, scalars) == expect, name


def test_msm_rejects_mismatched_lengths(any_params):
    group = any_params.group
    with pytest.raises(ValueError):
        group.g1_msm([group.g1_gen, group.g1_gen], [1])


def test_params_msm_wraps_elements_and_checks_groups(toy_params, bn_params):
    g = bn_params.g1
    assert bn_params.g1_msm([g, g ** 5], [2, 3]) == g ** 17
    assert bn_params.g1_msm([], []) == bn_params.g1_identity()
    with pytest.raises(InvalidElement):
        bn_params.g1_msm([g, toy_params.g1], [1, 1])


def _check_generator_power(params, k):
    group = params.group
    expect = _reference_mul(group)(group.g1_gen, k)
    assert group.g1_msm([group.g1_gen], [k]) == expect
    assert (params.g1 ** k).raw == expect


@pytest.mark.parametrize("k", [0, 1, 2, 31, 32, 33, 64, 2**128 + 3, -1])
def test_generator_power_matches_g1_mul(any_params, k):
    # each k also checks order-1-k, order-k and k+order: 0, 1 and order-1
    # are among them, as are the signed-digit carries at 32/33 and 64
    r = any_params.order
    for scalar in (k, r - 1 - k, r - k, k + r):
        _check_generator_power(any_params, scalar)


def test_generator_power_random_scalars(any_params):
    for k in SeededRng(b"gen-table-random").scalars(20, any_params.order):
        _check_generator_power(any_params, k)


def test_generator_table_under_one_mib(bn_params):
    bn254.g1_msm([bn254.G1_GEN], [1])   # builds the table
    rows = bn254._gen_rows
    size = sys.getsizeof(rows) + sum(
        sys.getsizeof(row) + sum(sys.getsizeof(pt) + sys.getsizeof(pt[0]) + sys.getsizeof(pt[1])
                                 for pt in row)
        for row in rows)
    assert size <= 1 << 20
    assert all(bn254.g1_is_on_curve(pt) for row in rows for pt in row)


def test_generator_multiples_are_a_running_sum(any_params):
    group = any_params.group
    count = 2100                      # crosses a normalisation chunk boundary
    got = list(group.g1_gen_multiples(count))
    assert len(got) == count
    acc = group.g1_identity()
    for k in range(count):
        assert got[k] == acc, k
        acc = group.g1_op(acc, group.g1_gen)


def test_dlog_keys_are_distinct_and_miss_the_identity(any_params):
    group = any_params.group
    keys = [group.g1_key(pt) for pt in group.g1_gen_multiples(4096)]
    assert len(set(keys)) == len(keys)
    p = pool(any_params)[3]
    assert group.g1_key(p) != group.g1_key(group.g1_inv(p))
    if group.name == "bn254":
        assert keys[0] == -1
        assert all(k >= 0 for k in keys[1:])


# -- batched scalar draws ------------------------------------------------------

class _ScriptedRng(Rng):
    """Replays a fixed byte string, so a rejection can be forced."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def read(self, n: int) -> bytes:
        out = self.data[self.pos:self.pos + n]
        assert len(out) == n, "script exhausted"
        self.pos += n
        return out


def _one_draw(rng, bound):
    """The draw scalars() must reproduce: one chunk read per attempt."""
    nbytes = (bound.bit_length() + 7) // 8 + 8
    limit = (1 << (8 * nbytes)) // bound * bound
    while True:
        v = int.from_bytes(rng.read(nbytes), "big")
        if v < limit:
            return v % bound


def test_scalars_reads_the_same_stream_as_single_draws():
    order = setup("bn254", 8).order
    for nonzero in (False, True):
        a, b = SeededRng(b"scalars"), SeededRng(b"scalars")
        expect = [nonzero + _one_draw(b, order - nonzero) for _ in range(37)]
        assert a.scalars(37, order, nonzero) == expect
        assert a.scalar(order, nonzero) == nonzero + _one_draw(b, order - nonzero)
        assert a.randrange(1000) == _one_draw(b, 1000)
        assert a.read(16) == b.read(16)


def test_scalars_matches_single_draws_on_rejection():
    bound = 1000                                   # not a power of two
    nbytes = (bound.bit_length() + 7) // 8 + 8
    reject = b"\xff" * nbytes                      # above the rejection limit
    chunks = [bytes([0] * (nbytes - 1) + [7]), reject, reject,
              bytes([0] * (nbytes - 2) + [3, 232]), reject, bytes([0] * (nbytes - 1) + [9])]
    script = b"".join(chunks) + b"tail-bytes"
    batched, single = _ScriptedRng(script), _ScriptedRng(script)
    assert batched.scalars(3, bound) == [_one_draw(single, bound) for _ in range(3)] == [7, 0, 9]
    assert batched.pos == single.pos == len(script) - len(b"tail-bytes")


# -- protocol output is byte-identical to the per-term implementation ---------
# Digests were computed with the per-term g1_mul/g1_add implementation that
# g1_msm replaced; they pin ciphertexts, tags, proofs and audit responses.

WIRE_DIGESTS = {
    ("toy", 4096, 8, 16): "3cc350ce85ec9e051f3717a9c712cdbe06906b66ac7431f9118c6c6d49f544dd",
    ("bn254", 64, 4, 8): "13f1fb1764486225dc5e00544b39c6a75c779588f0010b4d2139f2d038dbedcc",
}


def _wire_digest(group, size, s, sector_bits):
    params = setup(group, sector_bits)
    rng = SeededRng(b"wire-digest/" + group.encode())
    data = rng.child("file").read(size)
    manifest, blocks = codec.split(data, s, sector_bits)
    okeys = owner.keygen(params, rng.child("owner-keys"))
    skeys = cloud.server_keygen(params, rng.child("server-keys"))
    gens, tags = owner.outsource(params, okeys, manifest, blocks, rng.child("tags"))
    enclave = EnclaveRegistry().create(manifest.file_id)
    cts, v_pub = cloud.encrypt_file(params, enclave, manifest, blocks, rng.child("enc"))
    enc_tags = cloud.gen_enc_tags(params, skeys, manifest, cts, gens.u,
                                  vgen_points(params, manifest.file_id, s))
    ch = owner.gen_challenge(manifest, 4, b"wire-digest")
    proof = cloud.prove_encryption(params, enclave, manifest, blocks, cts, tags, ch,
                                   rng.child("prove"))
    assert owner.verify_encryption_proof(params, manifest, gens.u, okeys.W, skeys.A,
                                         v_pub, ch, proof)
    resp = owner.audit_respond(params, manifest, cts, enc_tags, ch)
    h = hashlib.sha256()
    for part in (wire.encode_ciphertexts(params, cts), wire.encode_tagset(tags),
                 wire.encode_enc_tagset(enc_tags), wire.encode_proof(params, proof).encode(),
                 wire.encode_audit_response(resp).encode()):
        h.update(len(part).to_bytes(8, "big") + part)
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(WIRE_DIGESTS))
def test_protocol_output_is_byte_identical(case):
    assert _wire_digest(*case) == WIRE_DIGESTS[case]

